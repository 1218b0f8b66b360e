"""Closed-form zero estimates and the argument staircase.

The n-th critical-line zero is estimated by inverting the smooth phase
count: solve (y/2pi) ln(y/(2pi e)) = n - 11/8 for y.  The closed form uses
the Lambert W function, which inverts the smooth equation exactly.

The staircase s(n) adds the principal argument of zeta back onto the smooth
carrier g(n) and recovers the per-unit-interval zero counts by watching s
cross half-integer levels.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .special import TWO_PI, arg_zeta_principal, lambert_w0, smooth_main


def zero_estimate_lambert(n: int) -> float:
    """Closed-form estimate 2 pi (n - 11/8) / W((n - 11/8) / e).

    Raises OverflowError from n = 2.9e307 up, where 2 pi (n - 11/8)
    overflows before the division.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    a = n - 11.0 / 8.0
    y = TWO_PI * a / lambert_w0(a / math.e)
    if y == math.inf:
        raise OverflowError(f"estimate of zero n = {n:.3g} overflows binary64")
    return y


def carrier_g(n: float) -> float:
    """Smooth carrier g(n) = (n/2pi) ln(n/(2pi e)) + 11/8, as main term + 1/2."""
    if not n >= 1.0:
        raise ValueError("n must be >= 1")
    return smooth_main(float(n)) + 0.5


def carrier_gamma(n: float) -> float:
    """Linear carrier n ln(sqrt(pi)) / pi of the gamma-argument lattice."""
    n = float(n)
    if not math.isfinite(n):
        raise ValueError("n must be finite")
    return n * (0.5 * math.log(math.pi)) / math.pi


def staircase(n_max: int) -> np.ndarray:
    """s(n) = g(n) + (1/pi) Arg zeta(1/2 + i n) for n = 1..n_max."""
    n_max = operator.index(n_max)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    carrier = np.array([carrier_g(n) for n in range(1, n_max + 1)])
    return carrier + arg_zeta_principal(np.arange(1.0, n_max + 1.0))


def staircase_levels(values: np.ndarray) -> np.ndarray:
    """Index of the half-integer level nearest each staircase value.

    Level k corresponds to the half-integer k + 1/2; ties round toward even
    k (never observed on the supported window).  Raises ValueError for a
    NaN or infinite value and for a level outside int64.
    """
    values = np.asarray(values)
    levels = np.round(values - 0.5)
    # int64 holds [-2^63, 2^63); NaN fails both comparisons.
    bad = np.flatnonzero(~((levels >= -2.0 ** 63) & (levels < 2.0 ** 63)))
    if bad.size:
        v = values.flat[bad[0]]
        why = "rounds to a level outside int64" if np.isfinite(v) else "is not finite"
        raise ValueError(f"staircase value {v} at index {bad[0]} {why}")
    return levels.astype(np.int64)


def staircase_jumps(n_max: int) -> np.ndarray:
    """Level increments k(n+1) - k(n) for n = 1..n_max-1."""
    levels = staircase_levels(staircase(operator.index(n_max)))
    return np.diff(levels)
