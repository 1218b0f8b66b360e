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

Every count goes through two functions: interval_counts, the number of
ordinates with floor(y) = n over a range of n (the census F(n), the
scanner's suspect rule and the counter oracles), and smooth_count, the
rounded smooth-phase count round(theta(t)/pi + 1), 0 below T_NO_ZERO,
whose differences are the per-interval prediction.

Also here: the interval-count container, floor-difference counters with
their Bessel/Airy zero oracles, and the plain-text zero cache format.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import GENERATOR_VERSION
from .special import T_NO_ZERO, TWO_PI, hardy_z, theta_vec

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
_NODES = np.arange(-_PAD, _PAD + 2)
# On nodes one step apart the Newton-form coefficients are forward
# differences over k!: coefficient k is the sum over j of f_j _TO_NEWTON[j, k].
_TO_NEWTON = np.array([[(-1) ** (k - j) * math.comb(k, j) / math.factorial(k)
                        for k in range(len(_NODES))] for j in range(len(_NODES))])
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

    ordinates is a read-only float64 array, copied from the input.  source
    is 'scanned' for lists produced here and 'ingested' for lists read back
    from cache files; the two are never merged together.
    """

    ordinates: np.ndarray
    source: str
    t_lo: float
    t_hi: float
    step: float | None = None
    refine_tol: float | None = None
    suspect_intervals: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.source not in ("scanned", "ingested"):
            raise ValueError(f"unknown source {self.source!r}")
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

    def count_below(self, t: float) -> int:
        return int(np.searchsorted(self.ordinates, t, side="right"))

    def merge(self, other: "ZeroList") -> "ZeroList":
        """Concatenate two lists of the same source with abutting coverage.

        Scans that share an end both keep an ordinate on it; it is kept once.
        """
        if self.source != other.source:
            raise ValueError("refusing to merge zero lists from different sources")
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
            source=self.source,
            t_lo=lo_first.t_lo,
            t_hi=hi_first.t_hi,
            step=self.step if self.step == other.step else None,
            refine_tol=self.refine_tol if self.refine_tol == other.refine_tol else None,
            suspect_intervals=tuple(sorted(set(self.suspect_intervals + other.suspect_intervals))),
        )


def _grid(t_lo: float, t_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Padded lattice samples of the window [t_lo, t_hi] and a mask of its core.

    The core runs from the last lattice point below t_lo (or t = 0) to the
    first above t_hi.  The _PAD samples on either side of it (fewer below
    where they would reach past t = 0) only feed the root estimates.
    """
    # Anchored at t = 0, so disjoint sub-scans share sample points.  The
    # core takes in the cells that end on a window end too: a root refined
    # there can round onto the end.
    first = max(math.ceil(t_lo / SCAN_STEP - 1e-9) - 1, 0)
    last = math.floor(t_hi / SCAN_STEP + 1e-9) + 1
    k = np.arange(max(first - _PAD, 0), last + _PAD + 1)
    return k * SCAN_STEP, (k >= first) & (k <= last)


def _lattice_roots(sampled: np.ndarray, idx: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Root of the degree-11 interpolant through samples idx - 5 .. idx + 6, per bracket.

    Roots are in steps from sample idx.  Each takes _NEWTON_STEPS Newton
    steps on the Newton form of the interpolant from start; a bracket
    without all twelve samples keeps start.  A root may come out non-finite.
    Only elementwise operations and running sums and products are used, so
    no root depends on the rest of the batch.
    """
    # mode="clip" repeats the end samples where the nodes run past them.
    f = sampled.take(np.add.outer(idx, _NODES), mode="clip")
    full = (idx >= _PAD) & (idx < len(sampled) - _PAD - 1)
    # At most _BLOCK brackets at a time, which bounds the memory of the
    # (brackets, node, node) products; without brackets, one empty block.
    coef = [np.add.accumulate(f[lo:lo + _BLOCK, :, None] * _TO_NEWTON, axis=1)[:, -1]
            for lo in range(0, max(len(idx), 1), _BLOCK)]
    coef = coef[0] if len(coef) == 1 else np.concatenate(coef)
    c0, c1, nodes = coef[:, 0], coef[:, 1:], _NODES[:-1]
    u = start
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_STEPS):
            d = np.subtract.outer(u, nodes)
            basis = np.multiply.accumulate(d, axis=1)  # Newton basis, degrees 1..11
            slope = basis * np.add.accumulate(1.0 / d, axis=1)  # its derivative
            p = c0 + np.add.accumulate(c1 * basis, axis=1)[:, -1]
            u = u - p / np.add.accumulate(c1 * slope, axis=1)[:, -1]
    return np.where(full, u, start)


def _refine(a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray,
            x: np.ndarray, tol: float) -> np.ndarray:
    """Close sign-change brackets [a, b] from their starts x to width at most tol.

    fa and fb are values at the ends with the accurate evaluator's signs,
    opposite.  Each round evaluates the pair x -/+ 0.45 tol, x clipped that
    far inside the bracket, in one hardy_z call for all open brackets,
    and keeps the piece of the bracket that holds the sign change: the pair
    itself where it straddles the root, which closes the bracket.  An exact
    0.0 is the root.  Each closed bracket's ordinate is the linear
    interpolant of its final bracket, clipped to it, and the round that
    closes the last bracket ends the loop there.  The open ones go on from
    the root of the pair's secant, a Newton step on an accurate slope, if it
    lies inside the new bracket and moves less than half as far as the last
    x did, and from the midpoint otherwise (the safeguard of rtsafe,
    Numerical Recipes 9.4).  Only elementwise operations are used, so no
    ordinate depends on the batch.

    Raises ArithmeticError if a bracket is still wider than tol after
    _ROUNDS rounds.
    """
    half = 0.45 * tol
    x = np.where(np.isfinite(x), x, 0.5 * (a + b))
    moved = b - a  # how far x moved in the last round; the width to start
    live = np.arange(len(a))  # the input rows of the open brackets
    out = np.empty(len(a))
    if not len(a):
        return out
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_ROUNDS):
            n = len(live)
            x = np.minimum(np.maximum(x, a + half), b - half)
            # The bracket ends and the pair, a <= x - half < x + half <= b,
            # in blocks of n.
            xs = np.concatenate([a, np.maximum(x - half, a), np.minimum(x + half, b), b])
            fpair = hardy_z(xs[n:3 * n])
            fs = np.concatenate([fa, fpair, fb])
            # The sign change lies past every point of the pair whose sign is
            # fa's: block j holds the new a, block j + 1 the new b.
            j = np.add.reduce(np.sign(fpair).reshape(2, n) == np.sign(fa), axis=0)
            k = j * n + np.arange(n)
            a, b, fa, fb = xs[k], xs[k + n], fs[k], fs[k + n]
            a = np.where(fb == 0.0, b, a)  # a zero value closes on itself
            done = b - a <= tol
            interp = np.where(b > a, np.minimum(np.maximum(a - fa * (b - a) / (fb - fa), a), b), a)
            if done.all():
                out[live] = interp
                return out
            out[live[done]] = interp[done]
            lo, hi, flo, fhi = xs[n:2 * n], xs[2 * n:3 * n], fpair[:n], fpair[n:]
            newton = lo - flo * (hi - lo) / (fhi - flo)
            step = (newton > a) & (newton < b) & (np.abs(newton - x) < 0.5 * moved)
            nxt = np.where(step, newton, 0.5 * (a + b))
            moved, x = np.abs(nxt - x), nxt
            a, b, fa, fb, x, moved, live = (v[~done] for v in (a, b, fa, fb, x, moved, live))
    raise ArithmeticError("bracket refinement did not reach refine_tol")


def _scan_ordinates(t_lo: float, t_hi: float) -> np.ndarray:
    """Ordinates in the closed window [t_lo, t_hi], ascending.

    Each bracket starts from the root of the lattice interpolant
    (_lattice_roots) and is closed by _refine, whose first round evaluates
    the pair around every start in one hardy_z call.
    """
    ts, core = _grid(t_lo, t_hi)
    zs = hardy_z(ts)
    idx = ((np.sign(zs[:-1]) * np.sign(zs[1:]) < 0) & core[:-1] & core[1:]).nonzero()[0]
    a, b, fa, fb = ts[idx], ts[idx + 1], zs[idx], zs[idx + 1]
    x0 = a + _lattice_roots(zs, idx, fa / (fa - fb)) * (b - a)
    roots = np.concatenate([ts[core & (zs == 0.0)], _refine(a, b, fa, fb, x0, _REFINE_TOL)])
    return np.sort(roots[(roots >= t_lo) & (roots <= t_hi)])


def interval_counts(ordinates, n_lo: int, n_hi: int) -> np.ndarray:
    """Zeros per unit interval: entry k counts the ordinates with floor(y) = n_lo + k.

    Covers n_lo <= n < n_hi; ordinates outside [n_lo, n_hi) are ignored.
    """
    ys = np.asarray(ordinates, dtype=np.float64)
    inside = ys[(ys >= n_lo) & (ys < n_hi)]
    return np.bincount(np.floor(inside).astype(np.int64) - n_lo, minlength=n_hi - n_lo)


def smooth_count(t):
    """Rounded smooth-phase zero count below t: round(theta(t)/pi + 1), 0 below T_NO_ZERO.

    Takes a float (returns an int) or an array (returns an int64 array).
    Raises ValueError if any t is NaN or +inf.
    """
    ts = np.asarray(t, dtype=np.float64)
    if not (ts < math.inf).all():
        raise ValueError("smooth_count needs t below infinity, not NaN")
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

    n_lo = int(math.floor(config.t_lo))
    n_hi = int(math.ceil(config.t_hi))
    # The smooth counts at n_lo..n_hi, then at t_lo, from one call.
    heights = np.arange(n_lo, n_hi + 2, dtype=np.float64)
    heights[-1] = config.t_lo
    smooth = smooth_count(heights)
    predicted = smooth[1:-1] - smooth[:-2]
    flagged = (np.abs(interval_counts(roots, n_lo, n_hi) - predicted) >= 2).nonzero()[0]
    # The phase fluctuation routinely reaches 2 inside one interval, so a
    # local gap alone is not evidence of a missed zero.  Flag as suspect
    # only when the cumulative count has also drifted away from the smooth
    # phase at this height.
    expected = smooth[flagged + 1] - smooth[-1]
    cum_gap = roots.searchsorted(n_lo + flagged + 1.0) - expected
    # A scan anchored below the first zero has a noise-free left baseline;
    # a partial scan carries phase noise at both ends.
    limit = 2 if config.t_lo < T_NO_ZERO else 3
    suspects = tuple((n_lo + flagged[np.abs(cum_gap) >= limit]).tolist())

    return ZeroList(
        ordinates=roots,
        source="scanned",
        t_lo=config.t_lo,
        t_hi=config.t_hi,
        step=SCAN_STEP,
        refine_tol=_REFINE_TOL,
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

    def get(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n = {n} outside [1, {self.n_max}]")
        return int(self.counts[n - 1])

    def nonzero_items(self) -> list[tuple[int, int]]:
        """(n, F(n)) for every n with F(n) > 0, ascending in n."""
        k = np.flatnonzero(self.counts)
        return list(zip((k + 1).tolist(), self.counts[k].tolist()))


def unit_interval_counts(zeros: ZeroList, n_max: int) -> UnitIntervalCounts:
    """Count zeros per unit interval [n, n+1) for n = 1..n_max."""
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
    """h(n, alpha) = floor((n+1) alpha) - floor(n alpha)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not alpha >= 0.0:
        raise ValueError("alpha must be >= 0")
    return math.floor((n + 1) * alpha) - math.floor(n * alpha)


def counter_from_counting_function(f, n: int) -> int:
    """floor(f(n+1)) - floor(f(n)) for a nondecreasing counting function f."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.floor(f(n + 1)) - math.floor(f(n))


def bessel_j0_counter(n: int) -> int:
    """Literal slope form: h(n, 4n/(pi (4n-1))).

    Documented to disagree with the zero oracle at small n already; see
    bessel_j0_counter_corrected for the counting-function form that tracks
    the oracle.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    alpha = 4.0 * n / (math.pi * (4.0 * n - 1.0))
    return floor_counter(n, alpha)


def bessel_j0_counter_corrected(n: int) -> int:
    """Counting-function form floor(f(n+1)) - floor(f(n)), f(x) = x/pi + 1/4."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return counter_from_counting_function(lambda x: x / math.pi + 0.25, n)


def airy_counter(n: int) -> int:
    """Counting-function form with f(x) = 2 x^(3/2) / (3 pi).

    Tracks the Ai(-x) zero count through n = 5 and first disagrees with the
    oracle at n = 6; airy_counter_corrected adds the quarter offset that
    repairs it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return counter_from_counting_function(lambda x: 2.0 * x ** 1.5 / (3.0 * math.pi), n)


def airy_counter_corrected(n: int) -> int:
    """Counting-function form with f(x) = 2 x^(3/2) / (3 pi) + 1/4."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return counter_from_counting_function(lambda x: 2.0 * x ** 1.5 / (3.0 * math.pi) + 0.25, n)


def bessel_j0_zeros(count: int) -> np.ndarray:
    """First `count` positive zeros of J0: McMahon start, Newton on J0."""
    from scipy.special import j0, j1

    if count < 1:
        raise ValueError("count must be >= 1")
    k = np.arange(1, count + 1, dtype=np.float64)
    beta = (k - 0.25) * math.pi
    r = 1.0 / (8.0 * beta)
    x = beta + r * (1.0 + r * r * (-124.0 / 3.0 + r * r * (120928.0 / 15.0)))
    for _ in range(8):
        step = j0(x) / j1(x)  # J0' = -J1
        x = x + step
        if np.max(np.abs(step)) < 1e-14:
            break
    if np.max(np.abs(j0(x))) > 1e-11 or np.any(np.diff(x) <= 0.0):
        raise ArithmeticError("Bessel zero oracle failed to converge")
    return x


def airy_neg_zeros(count: int) -> np.ndarray:
    """First `count` zeros of Ai(-x): asymptotic start, Newton on Ai."""
    from scipy.special import airy

    if count < 1:
        raise ValueError("count must be >= 1")
    k = np.arange(1, count + 1, dtype=np.float64)
    z = 3.0 * math.pi * (4.0 * k - 1.0) / 8.0
    zi = z ** -2.0
    x = z ** (2.0 / 3.0) * (1.0 + zi * (5.0 / 48.0 + zi * (-5.0 / 36.0 + zi * (77125.0 / 82944.0))))
    for _ in range(10):
        ai, aip, _, _ = airy(-x)
        step = ai / aip
        x = x + step
        if np.max(np.abs(step)) < 1e-14:
            break
    ai, _, _, _ = airy(-x)
    if np.max(np.abs(ai)) > 1e-11 or np.any(np.diff(x) <= 0.0):
        raise ArithmeticError("Airy zero oracle failed to converge")
    return x


def divergence_report(kind: str, n_max: int) -> list[tuple[int, int, int]]:
    """(n, formula count, oracle count) wherever a counter and its oracle differ.

    kind is 'bessel' (literal slope form) or 'airy' (counting-function form
    without the quarter offset).
    """
    if kind == "bessel":
        counter = bessel_j0_counter
        # Count of J0 zeros below x grows like x/pi.
        zeros = bessel_j0_zeros(int((n_max + 1) / math.pi) + 4)
    elif kind == "airy":
        counter = airy_counter
        zeros = airy_neg_zeros(int(2.0 * (n_max + 1) ** 1.5 / (3.0 * math.pi)) + 4)
    else:
        raise ValueError(f"unknown counter kind {kind!r}")
    oracle = interval_counts(zeros, 1, n_max + 1).tolist()
    formula = [counter(n) for n in range(1, n_max + 1)]
    return [(n, got, want) for n, (got, want) in enumerate(zip(formula, oracle), start=1)
            if got != want]


def first_missed_zero(report: list[tuple[int, int, int]]) -> int | None:
    """First interval where the formula undercounts the oracle."""
    for n, got, want in report:
        if got < want:
            return n
    return None


# ----------------------------------------------------------------------
# cache files


def write_zero_cache(zeros: ZeroList, path: str | os.PathLike) -> None:
    """ASCII cache: '#' header comments, one 12-decimal ordinate per line.

    The '# range:' bounds are the list's coverage, widened where an ordinate
    within 5e-13 of a bound rounds past it, so that the file reads back; they
    are written in the shortest digits that parse back to the same floats.
    """
    ordinates = [f"{y:.12f}" for y in zeros.ordinates.tolist()]
    t_lo, t_hi = zeros.t_lo, zeros.t_hi
    if ordinates:
        t_lo, t_hi = min(t_lo, float(ordinates[0])), max(t_hi, float(ordinates[-1]))
    lines = [f"# {CACHE_MAGIC}"]
    lines.append(f"# generator: {GENERATOR_VERSION}")
    lines.append(f"# source: {zeros.source}")
    # At least six decimals.
    lo, hi = (np.format_float_positional(x, unique=True, min_digits=6) for x in (t_lo, t_hi))
    lines.append(f"# range: {lo} {hi}")
    if zeros.step is not None:
        lines.append(f"# step: {zeros.step:.6f}")
    if zeros.refine_tol is not None:
        lines.append(f"# refine_tol: {zeros.refine_tol:.3e}")
    lines.append(f"# count: {zeros.count}")
    lines.extend(ordinates)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_zero_cache(path: str | os.PathLike) -> ZeroList:
    """Parse a cache file back into an ingested ZeroList.

    The first non-empty line must be '# ' + CACHE_MAGIC.  Malformed lines
    and ordering violations report their line number.  Without a
    '# range:' comment the coverage is [0, last ordinate].
    """
    t_lo = 0.0
    t_hi: float | None = None
    step = None
    tol = None
    declared = None
    ordinates: list[float] = []
    magic_seen = False
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
                    elif key == "step":
                        step = float(value)
                    elif key == "refine_tol":
                        tol = float(value)
                    elif key == "count":
                        declared = int(value)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad {key} comment") from exc
                continue
            try:
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
        return ZeroList(ordinates, "ingested", t_lo, float(t_hi), step=step, refine_tol=tol)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
