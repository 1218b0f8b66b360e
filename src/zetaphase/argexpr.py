"""Round-to-integer approximation of the zeta argument and its exact
symbolic form.

The normalized argument (1/pi) Arg zeta(1/2 + i n) at integer heights is
approximated by round(main_term(n)) - main_term(n).  Expanding the main
term over ln n = sum v_p(n) ln p turns each value into an exact integer
combination of pi, 1, ln pi, and ln p over the fixed denominator 8 pi.
The integer coefficient of each ln p follows a scaled ruler sequence in n.

A correction series (the asymptotic tail of the phase function) sharpens
the approximation; it is special.theta_tail, the same sum the theta series
uses, so the two stay consistent to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .special import (
    EXTENDED_DPS,
    LN_PI,
    MAX_SERIES_ORDER,
    TWO_PI,
    combination_over_8pi,
    smooth_main,
    theta_tail,
    wrap_half_turns,
)

_TRIAL_BOUND = 10 ** 6


def main_term(n: float) -> float:
    """Smooth zero-count main term (n/2pi) ln(n/(2pi e)) + 7/8."""
    if n < 1.0:
        raise ValueError("n must be >= 1")
    return smooth_main(float(n))


def approx_arg_zeta(n: int) -> float:
    """round(main_term(n)) - main_term(n), rounding half to even."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = main_term(n)
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
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0 <= order <= MAX_SERIES_ORDER:
        raise ValueError(f"order must be in [0, {MAX_SERIES_ORDER}]")
    return approx_arg_zeta(n) - theta_tail(float(n), order) / math.pi


@lru_cache(maxsize=65536)
def approx_error(n: int) -> float:
    """Gap approx_arg_zeta(n) - (round(main_term(n)) - 1 - theta(n)/pi).

    Positive, asymptotic to 1/(48 pi n).  The defining expression is a
    difference of nearly equal quantities, so it is carried in extended
    precision internally and rounded once at the end; this keeps the
    value usable down to its tiny high-order structure (the order-k
    corrected residuals decay like n^-(2k+3)).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    import mpmath as mp

    with mp.workdps(EXTENDED_DPS):
        x = mp.mpf(n) / (2 * mp.pi)
        main = x * mp.log(x) - x + mp.mpf(7) / 8
        theta = mp.siegeltheta(n)
        return float(1 - main + theta / mp.pi)


def p_adic_valuation(p: int, n: int) -> int:
    """Largest e with p^e dividing n."""
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
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    d = 5
    while d * d <= n and d <= _TRIAL_BOUND:
        for p in (d, d + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        d += 6
    if n > 1:
        if n > _TRIAL_BOUND * _TRIAL_BOUND:
            raise OverflowError(f"residual factor {n} exceeds the trial-division bound")
        out.append((n, 1))
    return out


@dataclass(frozen=True)
class SymbolicArgExpression:
    """Integer combination (c_pi pi + c_const + c_lnpi ln pi + sum c_p ln p) / (8 pi)."""

    n: int
    c_pi: int
    c_const: int
    c_lnpi: int
    prime_terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        primes = [p for p, _ in self.prime_terms]
        if primes != sorted(set(primes)):
            raise ValueError("prime_terms must be ascending and distinct")
        if primes and primes[0] < 2:
            raise ValueError("prime_terms must hold primes >= 2")
        if any(c == 0 for _, c in self.prime_terms):
            raise ValueError("zero coefficients are omitted, not stored")

    def coefficient(self, p: int) -> int:
        """Integer coefficient of ln p (0 when p is absent)."""
        for q, c in self.prime_terms:
            if q == p:
                return c
        return 0

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
    if n < 1:
        raise ValueError("n must be >= 1")
    m = round(main_term(n))
    factors = dict(_factorize(n))
    terms = []
    c2 = 4 * n * (1 - factors.get(2, 0))
    if c2 != 0:
        terms.append((2, c2))
    for p, e in sorted(factors.items()):
        if p != 2:
            terms.append((p, -4 * n * e))
    return SymbolicArgExpression(
        n=n,
        c_pi=8 * m - 7,
        c_const=4 * n,
        c_lnpi=4 * n,
        prime_terms=tuple(terms),
    )


@dataclass(frozen=True)
class CoefficientRule:
    """Closed-form law for the ln p coefficient stream."""

    p: int
    law: Callable[[int], int]

    def __call__(self, n: int) -> int:
        return self.law(n)


def coefficient_rule(p: int) -> CoefficientRule:
    if p == 2:
        return CoefficientRule(p=2, law=lambda n: 4 * n * (1 - p_adic_valuation(2, n)))
    return CoefficientRule(p=p, law=lambda n: -4 * n * p_adic_valuation(p, n))


def coeff_sequence(p: int, n_max: int) -> list[int]:
    """First n_max values of the ln p coefficient stream."""
    rule = coefficient_rule(p)
    return [rule(n) for n in range(1, n_max + 1)]


def ruler_normalized(p: int, n: int) -> int:
    """Valuation ruler shifted so every term is positive.

    p = 2 gives v2(n) + 2 (2, 3, 2, 4, ...); odd p give v_p(n) + 1.
    """
    return p_adic_valuation(p, n) + (2 if p == 2 else 1)


def approx_arg_gamma(n: int) -> float:
    """Closed-form approximation of (1/pi) Arg Gamma(1/4 + i n/2).

    Wraps main_term(n) - 1 + n ln(pi)/(2 pi) into (-1, 1]; the gap to the
    true value is the phase-series tail, about 1/(48 pi n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return wrap_half_turns(main_term(n) - 1.0 + n * LN_PI / TWO_PI)
