"""Round-to-integer approximation of the zeta argument and its exact
symbolic form.

The normalized argument (1/pi) Arg zeta(1/2 + i n) at integer heights is
approximated by round(main_term(n)) - main_term(n).  Expanding the main
term over ln n = sum v_p(n) ln p turns each value into an exact integer
combination of pi, 1, ln pi, and ln p over the fixed denominator 8 pi.
The integer coefficient of each ln p follows a scaled ruler sequence in n,
for each prime p <= 2^44; a composite p is not a basis element and is rejected.

approx_arg_zeta, corrected_approx, approx_arg_gamma and symbolic_expression
take integers n <= 2^44 and raise ValueError above.  At 2^44 an ulp of
main_term(n) is 1/64, so symbolic_expression(n).evaluate() and
approx_arg_zeta(n) differ by at most 1/128.  From about 2^49 half an ulp
reaches 1/2, and above 2^53 float(n) is no longer n: the two forms then
describe different values, and the symbolic one leaves (-1/2, 1/2].
Each such n, and each p, is factored by trial division up to its square
root: about 0.2 s for a prime near 2^44 on a 2-core Xeon VM.

A correction series (the asymptotic tail of the phase function) sharpens
the approximation; it is special.theta_tail, the same sum the theta series
uses, so the two stay consistent to the last bit.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .special import (
    LN_PI,
    MAX_SERIES_ORDER,
    TWO_PI,
    combination_over_8pi,
    smooth_main,
    theta_tail,
    wrap_half_turns,
)

_N_MAX = 2 ** 44
_N_RANGE = "n must be in [1, 2^44]"


def main_term(n: float) -> float:
    """Smooth zero-count main term (n/2pi) ln(n/(2pi e)) + 7/8."""
    if not n >= 1.0:
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


def p_adic_valuation(p: int, n: int) -> int:
    """Largest e with p^e dividing n."""
    p, n = operator.index(p), operator.index(n)
    if p < 2 or n < 1:
        raise ValueError(f"p must be >= 2 and n >= 1, got p = {p}, n = {n}")
    return _divide_out(p, n)[0]


def _divide_out(p: int, n: int) -> tuple[int, int]:
    """(e, n / p^e) for the largest e with p^e dividing n >= 1."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1: trial division by 2, 3, 6k +- 1 while p^2 <= n."""
    out = []
    for p in (2, 3):
        if n % p == 0:
            e, n = _divide_out(p, n)
            out.append((p, e))
    p, step = 5, 2
    while p * p <= n:
        if n % p == 0:
            e, n = _divide_out(p, n)
            out.append((p, e))
        p += step
        step = 6 - step
    if n > 1:
        out.append((n, 1))
    return out


@dataclass(frozen=True)
class SymbolicArgExpression:
    """Integer combination (c_pi pi + c_const + c_lnpi ln pi + sum c_p ln p) / (8 pi).

    Checks only that every field is an integer (a float raises TypeError),
    the p ascend from 2 and no c_p is 0; symbolic_expression yields prime p.
    """

    c_pi: int
    c_const: int
    c_lnpi: int
    prime_terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        index = operator.index
        index(self.c_pi), index(self.c_const), index(self.c_lnpi)
        prev = 1
        for p, c in self.prime_terms:
            if index(p) <= prev:
                raise ValueError("prime_terms must hold p >= 2, ascending and distinct")
            if index(c) == 0:
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
    v2, odd = _divide_out(2, n)
    terms = [(2, c - c * v2)] if v2 != 1 else []
    for p, e in _factorize(odd):
        terms.append((p, -c * e))
    # Positional: keyword arguments add 0.4 us to a frozen dataclass call (3.11, 2-core VM).
    return SymbolicArgExpression(8 * m - 7, c, c, tuple(terms))


@functools.lru_cache(maxsize=16)
def _require_prime(p: int) -> None:
    """ValueError unless p is a prime no greater than 2^44.

    Trial division to sqrt(p), about 0.2 s near 2^44 (2-core Xeon VM); 16 passing p are cached.
    """
    if not 2 <= p <= _N_MAX or _factorize(p) != [(p, 1)]:
        raise ValueError(f"p must be a prime in [2, 2^44], got {p}")


def coeff_sequence(p: int, n_max: int) -> list[int]:
    """First n_max values of the ln p coefficient: 4n(1 - v2(n)) for p = 2, -4n v_p(n) else."""
    _require_prime(operator.index(p))
    n_max = operator.index(n_max)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    shift = 1 if p == 2 else 0
    return [4 * n * (shift - p_adic_valuation(p, n)) for n in range(1, n_max + 1)]


def ruler_normalized(p: int, n: int) -> int:
    """Valuation ruler shifted so every term is positive.

    p = 2 gives v2(n) + 2 (2, 3, 2, 4, ...); odd p give v_p(n) + 1.
    """
    _require_prime(operator.index(p))
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
