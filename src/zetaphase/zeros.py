"""Zero location on the critical line and unit-interval censuses.

The scanner samples the Hardy Z function on a fixed lattice (anchored at
t = 0 so that scans over sub-ranges land on identical sample points) in
one call of hardy_z, the one Z evaluator, whose every value depends on
its own t alone (below T_NO_ZERO = 14, where Z has no zero, every sample
is -|zeta|); a sample that is exactly 0.0 is an ordinate itself.  Each
bracket starts at the root of the degree-11 polynomial through the twelve
lattice samples around it, and one closing loop refines every bracket
with the same evaluator: a pair 0.45 refine_tol either side of the
estimate, which closes the bracket where it straddles the root, and
otherwise the pair's Newton point or the midpoint of what is left as the
next estimate.  Every window sees the sign
changes of the one 0.1 lattice, and on [0, 1e4] they are all 10,142
zeros: the six gaps there narrower than the step, from 1977.1739,
4292.7264, 5229.1986, 6093.1923, 7005.0629 (Lehmer's pair, 0.0377 wide,
with 7005.1 0.00056 below its upper zero) and 9793.5500, each hold a
lattice point.  A unit interval whose count disagrees with the
smooth-phase prediction by two or more is flagged as suspect where the
cumulative count has drifted too, which catches a faulty evaluator.

Counts go through two functions: interval_counts, the number of ordinates
with floor(y) = n over a range of n (the census F(n) and the counter
oracles), and smooth_count, the rounded smooth-phase count
round(theta(t)/pi + 1), 0 below T_NO_ZERO, whose differences are the
per-interval prediction; the scanner's suspect rule differences one
searchsorted of its ascending ordinates at the integer heights.

Also here: the interval-count container, floor-difference counters with
their Bessel/Airy zero oracles, and the plain-text zero cache format.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from . import GENERATOR_VERSION
from .special import T_NO_ZERO, T_THETA_MAX, TWO_PI, hardy_z, theta_vec

CACHE_MAGIC = "zetaphase zero cache v1"

# Scans end by here, inside Z's domain [0, T_Z_MAX) with their padded lattice.
T_WINDOW_MAX = 1.0e4

# The scan lattice t = k SCAN_STEP, and the width every bracket is closed to.
SCAN_STEP = 0.1
_REFINE_TOL = 1e-9

# Root estimates interpolate the lattice samples idx - _PAD .. idx + _PAD + 1
# around the bracket [ts[idx], ts[idx + 1]], a polynomial of degree 11.  On
# [0, 6501] its root lies inside the closing pair for all but 24 of the 6,148
# brackets, 2.01 accurate rows per zero; degree 9 needs 2.65 and degree 7
# 3.85, and degree 13 gains nothing more.
_PAD = 5
_NODES = np.arange(-_PAD, _PAD + 2)[:, None]  # one row per node
_SHIFTS = _NODES[:-1].astype(np.float64)
# On nodes one step apart the Newton-form coefficient of degree k is the
# forward difference over k!, the sum over j of f_j (-1)^(k-j) C(k, j) / k!.
# _TO_NEWTON holds these weights per sample j, in the degree order 1..11, 0
# of _lattice_roots' running sums.
_TO_NEWTON = np.array([[[(-1) ** (k - j) * math.comb(k, j) / math.factorial(k)]
                        for k in [*range(1, len(_NODES)), 0]] for j in range(len(_NODES))])
_BLOCK = 256
_NEWTON_STEPS = 3
# A midpoint round halves a bracket: 27 of them take a SCAN_STEP bracket below
# _REFINE_TOL.  The cap leaves room for a Newton round between every two.
_ROUNDS = 64


class CoverageError(ValueError):
    """Raised when a zero list does not cover the requested range."""


# ----------------------------------------------------------------------
# scanning


@dataclass(frozen=True)
class ScanConfig:
    """Parameters of a zero scan over [t_lo, t_hi]."""

    t_lo: float
    t_hi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.t_lo < self.t_hi <= T_WINDOW_MAX:
            raise ValueError(f"scan range must satisfy 0 <= t_lo < t_hi <= {T_WINDOW_MAX:g}")


@dataclass(frozen=True, eq=False)
class ZeroList:
    """Ordinates of critical-line zeros over a covered range.

    ordinates is a read-only float64 array, copied from the input.  A list
    read back from a cache, whose older '# source:' line is skipped, is the
    same kind of list as a scanned one.
    """

    ordinates: np.ndarray
    t_lo: float
    t_hi: float
    suspect_intervals: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.t_lo < self.t_hi < math.inf:
            raise ValueError("coverage must satisfy 0 <= t_lo < t_hi < inf")
        ys = np.array(self.ordinates, dtype=np.float64)
        ys.flags.writeable = False
        object.__setattr__(self, "ordinates", ys)
        if ys.ndim != 1:
            raise ValueError("ordinates must be one-dimensional")
        # Every comparison with a NaN is False, so these two checks reject
        # NaN ordinates, and infinite ones as the coverage is finite.
        if not (ys[1:] > ys[:-1]).all():
            raise ValueError("ordinates must be strictly ascending")
        if ys.size and not (self.t_lo <= ys[0] and ys[-1] <= self.t_hi):
            raise ValueError("ordinate outside declared coverage")

    @property
    def count(self) -> int:
        return len(self.ordinates)

    def merge(self, other: "ZeroList") -> "ZeroList":
        """Concatenate two lists with abutting coverage.

        Scans that share an end both keep an ordinate on it; it is kept once.
        A list read back from a cache merges like a scanned one.
        """
        lo_first, hi_first = (self, other) if self.t_lo <= other.t_lo else (other, self)
        if lo_first.t_hi > hi_first.t_lo + 1e-9:
            raise ValueError("coverage ranges overlap; merge expects disjoint ranges")
        if hi_first.t_lo - lo_first.t_hi > 1e-9:
            raise ValueError("coverage ranges leave a gap")
        upper = hi_first.ordinates
        if lo_first.count and upper.size and upper[0] == lo_first.ordinates[-1]:
            upper = upper[1:]
        return ZeroList(
            ordinates=np.concatenate([lo_first.ordinates, upper]),
            t_lo=lo_first.t_lo,
            t_hi=hi_first.t_hi,
            suspect_intervals=tuple(sorted(set(self.suspect_intervals + other.suspect_intervals))),
        )


def _grid(t_lo: float, t_hi: float) -> tuple[np.ndarray, slice]:
    """Padded lattice samples of the window [t_lo, t_hi] and the slice of its core.

    The core runs from the last lattice point below t_lo (or t = 0) to the
    first above t_hi.  The _PAD samples on either side of it (fewer below
    where they would reach past t = 0) only feed the root estimates.
    """
    # Anchored at t = 0, so disjoint sub-scans share sample points.  The
    # core takes in the cells that end on a window end too: a root refined
    # there can round onto the end.
    first = max(math.ceil(t_lo / SCAN_STEP - 1e-9) - 1, 0)
    last = math.floor(t_hi / SCAN_STEP + 1e-9) + 1
    k0 = max(first - _PAD, 0)
    return np.arange(k0, last + _PAD + 1.0) * SCAN_STEP, slice(first - k0, last - k0 + 1)


def _lattice_roots(sampled: np.ndarray, idx: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Root of the degree-11 interpolant through samples idx - 5 .. idx + 6, per bracket.

    Roots are in steps from sample idx.  Each takes _NEWTON_STEPS Newton
    steps on the Newton form of the interpolant from start; a bracket
    without all twelve samples keeps start.  A root may come out non-finite.
    Brackets run along the last axis; a step sums the terms of the value and
    of the slope, the two layers of one array, in one product and one
    running sum, the constant term last.  Only elementwise operations,
    running sums and products, and one reduce are used, so no root depends
    on the rest of the batch.  The reduce sums a C-contiguous array over its
    outermost axis, which NumPy adds in index order, a whole row at a time,
    as a running sum does, whatever the number of brackets.  Over the
    innermost axis, or over a lone column, it would add pairwise.
    """
    # mode="clip" repeats the end samples where the nodes run past them.
    f = sampled.take(_NODES + idx, mode="clip")
    full = (idx >= _PAD) & (idx < len(sampled) - _PAD - 1)
    # At most _BLOCK brackets at a time, which bounds the memory of the
    # (node, k, brackets) products; without brackets, one empty block.
    coef = [np.add.reduce(f[:, None, lo:lo + _BLOCK] * _TO_NEWTON, axis=0)
            for lo in range(0, max(len(idx), 1), _BLOCK)]
    coef = coef[0] if len(coef) == 1 else np.concatenate(coef, axis=1)
    # The Newton basis of degrees 1..11 and 1, then their slopes (the last unread).
    terms = np.empty((2, len(_NODES), len(idx)))
    terms[:, -1] = 1.0
    basis, slope = terms[0, :-1], terms[1, :-1]
    sums = np.empty_like(terms)
    value, derivative = sums[0, -1], sums[1, -2]
    u = start
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_STEPS):
            d = u - _SHIFTS
            np.multiply.accumulate(d, axis=0, out=basis)
            np.add.accumulate(np.reciprocal(d, out=d), axis=0, out=d)
            np.multiply(basis, d, out=slope)
            np.add.accumulate(np.multiply(terms, coef, out=sums), axis=1, out=sums)
            u = u - value / derivative
    return np.where(full, u, start)


def _refine(a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray,
            x: np.ndarray, tol: float) -> np.ndarray:
    """Close sign-change brackets [a, b] from their starts x to width at most tol.

    fa and fb are values at the ends with the accurate evaluator's signs,
    opposite.  Each round evaluates the pair x -/+ 0.45 tol, x clipped that
    far inside the bracket, in one hardy_z call for all open brackets,
    and keeps the piece of the bracket that holds the sign change: the pair
    itself where it straddles the root, which closes the bracket.  An exact
    0.0 is the root.  A round interpolates all three pieces a bracket can
    keep, each clipped to itself, writes the kept one's as the ordinate, and
    the round that closes the last bracket ends the loop there.  The open
    ones go on from the root of the pair's secant, a Newton step on an
    accurate slope, if it lies inside the new bracket and moves less than
    half as far as the last x did, and from the midpoint otherwise (the
    safeguard of rtsafe, Numerical Recipes 9.4).  Only elementwise
    operations are used, so no ordinate depends on the batch.

    Raises ArithmeticError if a bracket is still wider than tol after
    _ROUNDS rounds.
    """
    out = np.empty(len(a))
    if not len(a):
        return out
    half = 0.45 * tol
    x = np.where(np.isfinite(x), x, 0.5 * (a + b))
    moved = b - a  # how far x moved in the last round; the width to start
    live = rows = np.arange(len(a))  # the open brackets' input rows; 0 .. n - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROUNDS):
            n = len(live)
            x = np.minimum(np.maximum(x, a + half), b - half)
            # Points a <= x - half < x + half <= b, in blocks of n.
            xs = np.concatenate([a, np.maximum(x - half, a), np.minimum(x + half, b), b])
            fpair = hardy_z(xs[n:3 * n])
            fs = np.concatenate([fa, fpair, fb])
            # Blocks j = 0, 1, 2 of n: the piece from point j to point j + 1,
            # its width and its interpolant (fmax takes the left end over the
            # NaN of a piece closed on a zero value).
            right, f_left, f_right = xs[n:], fs[:3 * n], fs[n:]
            left = np.where(f_right == 0.0, right, xs[:3 * n])
            width = right - left
            interp = np.fmin(np.fmax(left - f_left * width / (f_right - f_left), left), right)
            # The sign change lies past every point of the pair whose sign is fa's.
            signs = np.sign(f_left).reshape(3, n)
            k = np.add.reduce(signs[1:] == signs[0], axis=0) * n + rows
            out[live] = interp[k]
            done = width[k] <= tol
            if np.count_nonzero(done) == n:
                return out
            a, b, fa, fb = left[k], right[k], f_left[k], f_right[k]
            lo, hi, flo, fhi = xs[n:2 * n], xs[2 * n:3 * n], fpair[:n], fpair[n:]
            newton = lo - flo * (hi - lo) / (fhi - flo)
            step = (newton > a) & (newton < b) & (np.abs(newton - x) < 0.5 * moved)
            nxt = np.where(step, newton, 0.5 * (a + b))
            moved, x = np.abs(nxt - x), nxt
            a, b, fa, fb, x, moved, live = (v[~done] for v in (a, b, fa, fb, x, moved, live))
            rows = rows[:len(live)]
    raise ArithmeticError("bracket refinement did not reach refine_tol")


def _scan_ordinates(t_lo: float, t_hi: float) -> np.ndarray:
    """Ordinates in the closed window [t_lo, t_hi], ascending.

    Each bracket starts from the root of the lattice interpolant
    (_lattice_roots) and is closed by _refine, whose first round evaluates
    the pair around every start in one hardy_z call.
    """
    ts, core = _grid(t_lo, t_hi)
    zs = hardy_z(ts)
    signs = np.sign(zs[core])
    idx = (signs[:-1] * signs[1:] < 0).nonzero()[0] + core.start
    a, b, fa, fb = ts[idx], ts[idx + 1], zs[idx], zs[idx + 1]
    x0 = a + _lattice_roots(zs, idx, fa / (fa - fb)) * (b - a)
    roots = np.concatenate([ts[core][signs == 0.0], _refine(a, b, fa, fb, x0, _REFINE_TOL)])
    roots.sort()
    return roots[roots.searchsorted(t_lo):roots.searchsorted(t_hi, "right")]


def interval_counts(ordinates, n_lo: int, n_hi: int) -> np.ndarray:
    """Zeros per unit interval: entry k counts the ordinates with floor(y) = n_lo + k.

    Covers n_lo <= n < n_hi; ordinates outside [n_lo, n_hi) are ignored.
    n_lo and n_hi are integers: a float raises TypeError.
    """
    n_lo, n_hi = operator.index(n_lo), operator.index(n_hi)
    if n_hi < n_lo:
        raise ValueError(f"n_hi = {n_hi} is below n_lo = {n_lo}")
    ys = np.asarray(ordinates, dtype=np.float64)
    inside = ys[(ys >= n_lo) & (ys < n_hi)]
    return np.bincount(np.floor(inside).astype(np.int64) - n_lo, minlength=n_hi - n_lo)


def smooth_count(t):
    """Rounded smooth-phase zero count below t: round(theta(t)/pi + 1), 0 below T_NO_ZERO.

    Takes a float (returns an int) or an array (returns an int64 array).
    Raises ValueError if any t is NaN or above T_THETA_MAX = 2e4.
    """
    ts = np.asarray(t, dtype=np.float64)
    if not (ts <= T_THETA_MAX).all():
        raise ValueError(f"smooth_count needs t <= T_THETA_MAX = {T_THETA_MAX:g}, not NaN")
    out = np.zeros(ts.shape, dtype=np.int64)
    above = ts >= T_NO_ZERO
    out[above] = np.rint(theta_vec(ts[above]) / math.pi + 1.0)
    return int(out) if out.ndim == 0 else out


def scan_zeros(config: ScanConfig) -> ZeroList:
    """Locate all critical-line zeros in [t_lo, t_hi].

    Sign changes of the accurate Z between samples of the 0.1 lattice
    (SCAN_STEP) are closed to brackets of width at most refine_tol = 1e-9 by
    accurate pairs 0.45 refine_tol either side of an estimate: first the
    root of the degree-11 lattice interpolant, then, where a pair does not
    straddle the root, its Newton point or a midpoint; refinement stops in
    the round that closes the last bracket.  A unit interval whose count
    disagrees with the smooth-phase prediction by two or more is flagged as
    suspect when the cumulative count has drifted from the smooth phase
    there too.  One smooth_count call gives the prediction at every integer
    height n_lo..n_hi and the count at t_lo.
    """
    roots = _scan_ordinates(config.t_lo, config.t_hi)

    n_lo = math.floor(config.t_lo)
    n_hi = math.ceil(config.t_hi)
    # The drift at n_lo..n_hi, then t_lo: the ordinates below each height less
    # its smooth count.  Across an interval it steps by count less prediction.
    heights = np.arange(n_lo, n_hi + 2, dtype=np.float64)
    heights[-1] = config.t_lo
    drift = roots.searchsorted(heights) - smooth_count(heights)
    flagged = (np.abs(drift[1:-1] - drift[:-2]) >= 2).nonzero()[0].tolist()
    # The phase fluctuation routinely reaches 2 inside one interval, so a
    # local gap alone is not evidence of a missed zero.  Flag as suspect
    # only when the cumulative count has also drifted away from the smooth
    # phase at this height.  A scan anchored below the first zero has a
    # noise-free left baseline; a partial scan carries phase noise at both ends.
    limit = 2 if config.t_lo < T_NO_ZERO else 3
    suspects = tuple(n_lo + k for k in flagged if abs(drift[k + 1] - drift[-1]) >= limit)

    return ZeroList(
        ordinates=roots,
        t_lo=config.t_lo,
        t_hi=config.t_hi,
        suspect_intervals=suspects,
    )


# ----------------------------------------------------------------------
# unit-interval counts


@dataclass(frozen=True, eq=False)
class UnitIntervalCounts:
    """F(n): number of zero ordinates with floor(y) = n, for 1 <= n <= n_max.

    counts is a read-only int64 array, copied from the input, with
    counts[n - 1] = F(n); n_max is its length.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        f = np.array(self.counts)
        if f.ndim != 1 or f.size == 0 or f.dtype.kind not in "iu":
            raise ValueError("counts must be a non-empty one-dimensional integer array")
        if np.any(f < 0):
            raise ValueError("counts must be nonnegative")
        f = f.astype(np.int64, copy=False)
        f.flags.writeable = False
        object.__setattr__(self, "counts", f)

    @property
    def n_max(self) -> int:
        return len(self.counts)

    def nonzero_items(self) -> list[tuple[int, int]]:
        """(n, F(n)) for every n with F(n) > 0, ascending in n."""
        k = np.flatnonzero(self.counts)
        return list(zip((k + 1).tolist(), self.counts[k].tolist()))


def unit_interval_counts(zeros: ZeroList, n_max: int) -> UnitIntervalCounts:
    """Count zeros per unit interval [n, n+1) for n = 1..n_max; a float n_max raises TypeError."""
    n_max = operator.index(n_max)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if zeros.t_lo > 1.0 or zeros.t_hi < float(n_max + 1):
        # The shortest digits that read back as the bounds.
        lo, hi = (np.format_float_positional(x, trim="-") for x in (zeros.t_lo, zeros.t_hi))
        raise CoverageError(
            f"zero list covers [{lo}, {hi}], counts to n_max = {n_max} need [1, {n_max + 1}]"
        )
    return UnitIntervalCounts(interval_counts(zeros.ordinates, 1, n_max + 1))


def point_density_zeta(n: float) -> float:
    """Mean zero density log(n)/(2 pi) per unit interval near height n."""
    n = float(n)
    if not TWO_PI * math.e < n < math.inf:
        raise ValueError("density formula needs finite n > 2 pi e")
    return math.log(n) / TWO_PI


# ----------------------------------------------------------------------
# floor-difference counters and their oracles


def floor_counter(n: int, alpha: float) -> int:
    """h(n, alpha) = floor((n+1) alpha) - floor(n alpha), for an integer n in [0, 2^53)."""
    n = operator.index(n)
    if not 0 <= n < 2 ** 53:
        raise ValueError(f"n must be in [0, 2^53), where n + 1 is exact in binary64, got {n}")
    if not 0.0 <= (n + 1) * alpha < math.inf:
        raise ValueError(f"alpha and (n + 1) alpha must be finite, >= 0: n = {n}, alpha = {alpha}")
    return math.floor((n + 1) * alpha) - math.floor(n * alpha)


def counter_from_counting_function(f, n: int) -> int:
    """floor(f(n+1)) - floor(f(n)) for an integer n >= 0, f a nondecreasing counting function."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.floor(f(n + 1)) - math.floor(f(n))


def bessel_j0_counter(n: int) -> int:
    """Literal slope form: h(n, 4n/(pi (4n-1))).

    Documented to disagree with the zero oracle at small n already; see
    bessel_j0_counter_corrected for the counting-function form that tracks
    the oracle.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    alpha = 4.0 * n / (math.pi * (4.0 * n - 1.0))
    return floor_counter(n, alpha)


def bessel_j0_counter_corrected(n: int) -> int:
    """Counting-function form floor(f(n+1)) - floor(f(n)), f(x) = x/pi + 1/4."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    return counter_from_counting_function(lambda x: x / math.pi + 0.25, n)


def airy_counter(n: int) -> int:
    """Counting-function form with f(x) = 2 x^(3/2) / (3 pi).

    Tracks the Ai(-x) zero count through n = 5 and first disagrees with the
    oracle at n = 6; airy_counter_corrected adds the quarter offset that
    repairs it.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    return counter_from_counting_function(lambda x: 2.0 * x ** 1.5 / (3.0 * math.pi), n)


def airy_counter_corrected(n: int) -> int:
    """Counting-function form with f(x) = 2 x^(3/2) / (3 pi) + 1/4."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    return counter_from_counting_function(lambda x: 2.0 * x ** 1.5 / (3.0 * math.pi) + 0.25, n)


def bessel_j0_zeros(count: int) -> np.ndarray:
    """First `count` positive zeros of J0: mpmath.besseljzero in double precision."""
    count = operator.index(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    import mpmath as mp

    with mp.workprec(53):
        return np.array([float(mp.besseljzero(0, k)) for k in range(1, count + 1)])


def airy_neg_zeros(count: int) -> np.ndarray:
    """First `count` zeros of Ai(-x): mpmath.airyaizero to k = 7, DLMF 9.9.18 from k = 8.

    The six-term series in z = 3 pi (4k - 1)/8 is within 4.3e-14 of the
    30-digit mpmath zeros at k = 8 and within 1.2e-13 for k = 10..700, but 2.1e-13
    off at k = 7 and 1.3e-12 at k = 6.
    """
    count = operator.index(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    import mpmath as mp

    with mp.workprec(53):
        head = [-float(mp.airyaizero(k)) for k in range(1, min(count, 7) + 1)]
    z = 3.0 * math.pi * (4.0 * np.arange(8, count + 1, dtype=np.float64) - 1.0) / 8.0
    zi = z ** -2.0
    tail = z ** (2.0 / 3.0) * (1.0 + zi * (5.0 / 48.0 + zi * (-5.0 / 36.0 + zi * (
        77125.0 / 82944.0 + zi * (-108056875.0 / 6967296.0 + zi * (162375596875.0 / 334430208.0))))))
    return np.concatenate([head, tail])


# ----------------------------------------------------------------------
# cache files


def write_zero_cache(zeros: ZeroList, path: str | os.PathLike) -> None:
    """ASCII cache: '#' header comments, one 12-decimal ordinate per line.

    The '# range:' bounds are the list's coverage, widened where an ordinate
    within 5e-13 of a bound rounds past it, so that the file reads back; they
    are written in the shortest digits that parse back to the same floats.
    The ordinate lines come from one '%' formatting call.
    """
    ys = zeros.ordinates.tolist()
    t_lo, t_hi = zeros.t_lo, zeros.t_hi
    if ys:
        t_lo, t_hi = min(t_lo, float("%.12f" % ys[0])), max(t_hi, float("%.12f" % ys[-1]))
    lines = [f"# {CACHE_MAGIC}"]
    lines.append(f"# generator: {GENERATOR_VERSION}")
    # At least six decimals.
    lo, hi = (np.format_float_positional(x, unique=True, min_digits=6) for x in (t_lo, t_hi))
    lines.append(f"# range: {lo} {hi}")
    lines.append(f"# count: {zeros.count}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n" + "%.12f\n" * len(ys) % tuple(ys))


def read_zero_cache(path: str | os.PathLike) -> ZeroList:
    """Parse a cache file back into a ZeroList.

    The first non-empty line must be '# ' + CACHE_MAGIC.  Malformed lines,
    ordering violations and bytes that are not ASCII report their line
    number.  Without a '# range:' comment the coverage is [0, last
    ordinate].  Comments other than '# range:' and '# count:' are skipped,
    such as the '# source:', '# step:' and '# refine_tol:' lines that older
    files carry.
    """
    t_lo = 0.0
    t_hi: float | None = None
    declared = None
    ordinates: list[float] = []
    magic_seen = False
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: not ASCII: byte {data[exc.start]:#04x}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if not magic_seen:
            if line != f"# {CACHE_MAGIC}":
                raise ValueError(f"{path}:{lineno}: not a zero cache: {line!r}")
            magic_seen = True
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, _, value = body.partition(":")
            try:
                if key == "range":
                    lo_s, hi_s = value.split()
                    t_lo, t_hi = float(lo_s), float(hi_s)
                elif key == "count":
                    declared = int(value)
                else:
                    continue
                # float() and int() read digit separators ("3_0" as 30).
                if "_" in value:
                    raise ValueError(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad {key} comment") from exc
            continue
        try:
            # float() reads digit separators ("1_4.1" as 14.1).
            if "_" in line:
                raise ValueError(line)
            y = float(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: not an ordinate: {line!r}") from exc
        if not math.isfinite(y) or y <= 0.0:
            raise ValueError(f"{path}:{lineno}: ordinate must be finite and positive")
        if ordinates and y <= ordinates[-1]:
            raise ValueError(f"{path}:{lineno}: ordinates must be strictly ascending")
        ordinates.append(y)
    if not magic_seen:
        raise ValueError(f"{path}: empty, not a zero cache")
    if declared is not None and declared != len(ordinates):
        raise ValueError(f"{path}: declared count {declared} != {len(ordinates)} ordinates")
    if t_hi is None:
        t_hi = ordinates[-1] if ordinates else 1.0
    try:
        return ZeroList(ordinates, t_lo, float(t_hi))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
