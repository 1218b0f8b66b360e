"""Round-to-integer approximation of the zeta argument and its exact
symbolic form.

The normalized argument (1/pi) Arg zeta(1/2 + i n) at integer heights is
approximated by round(main_term(n)) - main_term(n).  Expanding the main
term over ln n = sum v_p(n) ln p turns each value into an exact integer
combination of pi, 1, ln pi, and ln p over the fixed denominator 8 pi.
The integer coefficient of each ln p follows a scaled ruler sequence in n,
for each prime p; a composite p is not a basis element and is rejected.

approx_arg_zeta, corrected_approx, approx_arg_gamma and symbolic_expression
take integers n <= 2^44 and raise ValueError above.  At 2^44 an ulp of
main_term(n) is 1/64, so symbolic_expression(n).evaluate() and
approx_arg_zeta(n) differ by at most 1/128.  From about 2^49 half an ulp
reaches 1/2, and above 2^53 float(n) is no longer n: the two forms then
describe different values, and the symbolic one leaves (-1/2, 1/2].

A correction series (the asymptotic tail of the phase function) sharpens
the approximation; it is special.theta_tail, the same sum the theta series
uses, so the two stay consistent to the last bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .special import (
    EXTENDED_DPS,
    LN_PI,
    MAX_SERIES_ORDER,
    T_NO_ZERO,
    TWO_PI,
    combination_over_8pi,
    smooth_main,
    theta_tail,
    wrap_half_turns,
)

_TRIAL_BOUND = 10 ** 6
_N_MAX = 2 ** 44
_N_RANGE = "n must be in [1, 2^44]"


def main_term(n: float) -> float:
    """Smooth zero-count main term (n/2pi) ln(n/(2pi e)) + 7/8."""
    if n < 1.0:
        raise ValueError("n must be >= 1")
    return smooth_main(float(n))


def approx_arg_zeta(n: int) -> float:
    """round(main_term(n)) - main_term(n), rounding half to even."""
    n = operator.index(n)
    if not 1 <= n <= _N_MAX:
        raise ValueError(_N_RANGE)
    m = smooth_main(float(n))
    return float(round(m)) - m


def corrected_approx(n: int, order: int) -> float:
    """Approximation minus the order-term correction tail.

    With order 4 this matches round(main_term(n)) - 1 - theta(n)/pi to
    1.5e-12 for 50 <= n <= 1e4.  Against that expression evaluated in
    binary64 from theta_exact the gap exceeds 1e-12 at 200 of these n, all
    above 6650 (worst 1.46e-12 at n = 9972), where half an ulp of
    theta(n)/pi is already 9e-13.  Order 0 returns approx_arg_zeta(n)
    unchanged.
    """
    n, order = operator.index(n), operator.index(order)
    if not 2 <= n <= _N_MAX:
        raise ValueError("n must be in [2, 2^44]")
    if not 0 <= order <= MAX_SERIES_ORDER:
        raise ValueError(f"order must be in [0, {MAX_SERIES_ORDER}]")
    return approx_arg_zeta(n) - theta_tail(float(n), order) / math.pi


def approx_error(n: int) -> float:
    """Gap approx_arg_zeta(n) - (round(main_term(n)) - 1 - theta(n)/pi).

    That is 1 - main + theta/pi, the theta series tail over pi: positive,
    asymptotic to 1/(48 pi n).  From n = T_NO_ZERO = 14 up it is
    theta_tail(n, 8) / pi, the tail corrected_approx subtracts, within 2
    ulp of the 40-digit expression for n <= 10^4.  Below 14, where the
    series is up to 33,000 ulp off, the expression is carried in 40 digits.
    """
    n = operator.index(n)
    if n < 2:
        raise ValueError("n must be >= 2")
    if n >= T_NO_ZERO:
        return theta_tail(float(n), MAX_SERIES_ORDER) / math.pi
    import mpmath as mp

    with mp.workdps(EXTENDED_DPS):
        x = mp.mpf(n) / (2 * mp.pi)
        main = x * mp.log(x) - x + mp.mpf(7) / 8
        theta = mp.siegeltheta(n)
        return float(1 - main + theta / mp.pi)


def p_adic_valuation(p: int, n: int) -> int:
    """Largest e with p^e dividing n."""
    p, n = operator.index(p), operator.index(n)
    if p < 2:
        raise ValueError("p must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division (2,3 then a 6k+-1 wheel)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    p, step = 5, 2
    while p * p <= n and p <= _TRIAL_BOUND:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += step
        step = 6 - step
    if n > 1:
        if n > _TRIAL_BOUND * _TRIAL_BOUND:
            raise OverflowError(f"residual factor {n} exceeds the trial-division bound")
        out.append((n, 1))
    return out


@dataclass(frozen=True)
class SymbolicArgExpression:
    """Integer combination (c_pi pi + c_const + c_lnpi ln pi + sum c_p ln p) / (8 pi)."""

    c_pi: int
    c_const: int
    c_lnpi: int
    prime_terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prev = 1
        for p, c in self.prime_terms:
            if p <= prev:
                raise ValueError("prime_terms must hold integer primes >= 2, ascending and distinct")
            if c == 0:
                raise ValueError("zero coefficients are omitted, not stored")
            prev = p

    def evaluate(self) -> float:
        """Numeric value over the basis, rounded once to binary64.

        Summed exactly in special.combination_over_8pi, on the fixed-point
        pi and logarithms that smooth_main uses.
        """
        return combination_over_8pi(self.c_pi, self.c_const, self.c_lnpi, self.prime_terms)

    def text(self) -> str:
        """Canonical form "(1/(8*pi))*(...)", terms pi, 1, ln(pi), ln(p)."""
        parts = [f"{self.c_pi}*pi", f"{self.c_const:+d}", f"{self.c_lnpi:+d}*ln(pi)"]
        parts.extend(f"{c:+d}*ln({p})" for p, c in self.prime_terms)
        return "(1/(8*pi))*(" + " ".join(parts) + ")"


def symbolic_expression(n: int) -> SymbolicArgExpression:
    """Exact symbolic form of approx_arg_zeta(n) over {pi, 1, ln pi, ln p}.

    round(main_term) - main_term expands to
    ((8m - 7) pi + 4n + 4n ln pi + 4n(1 - v2(n)) ln 2 - sum 4n v_p(n) ln p) / (8 pi)
    with m = round(main_term(n)); the ln 2 coefficient vanishes exactly
    when v2(n) = 1, and only then is 2 absent from prime_terms.
    """
    n = operator.index(n)
    if not 1 <= n <= _N_MAX:
        raise ValueError(_N_RANGE)
    m = round(smooth_main(float(n)))
    c = 4 * n
    factors = _factorize(n)
    v2 = factors[0][1] if factors and factors[0][0] == 2 else 0
    terms = [(2, c - c * v2)] if v2 != 1 else []
    for p, e in factors:
        if p != 2:
            terms.append((p, -c * e))
    # Positional: keyword arguments add about 0.4 us to a frozen dataclass
    # call (Python 3.11, 2-core Xeon VM).
    return SymbolicArgExpression(8 * m - 7, c, c, tuple(terms))


def _require_prime(p: int) -> None:
    """ValueError unless p is prime; like _factorize, OverflowError past 10^12."""
    if p < 2 or _factorize(p) != [(p, 1)]:
        raise ValueError(f"p must be prime, got {p}")


def coeff_sequence(p: int, n_max: int) -> list[int]:
    """First n_max values of the ln p coefficient: 4n(1 - v2(n)) for p = 2, -4n v_p(n) else."""
    _require_prime(p)
    shift = 1 if p == 2 else 0
    return [4 * n * (shift - p_adic_valuation(p, n)) for n in range(1, n_max + 1)]


def ruler_normalized(p: int, n: int) -> int:
    """Valuation ruler shifted so every term is positive.

    p = 2 gives v2(n) + 2 (2, 3, 2, 4, ...); odd p give v_p(n) + 1.
    """
    _require_prime(p)
    return p_adic_valuation(p, n) + (2 if p == 2 else 1)


def approx_arg_gamma(n: int) -> float:
    """Closed-form approximation of (1/pi) Arg Gamma(1/4 + i n/2).

    Wraps main_term(n) - 1 + n ln(pi)/(2 pi) into (-1, 1]; the gap to the
    true value is the phase-series tail, about 1/(48 pi n).
    """
    n = operator.index(n)
    if not 1 <= n <= _N_MAX:
        raise ValueError(_N_RANGE)
    return wrap_half_turns(smooth_main(float(n)) - 1.0 + n * LN_PI / TWO_PI)
