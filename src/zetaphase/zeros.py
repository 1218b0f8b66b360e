"""Zero location on the critical line and unit-interval censuses.

The scanner samples the Hardy Z function on a fixed lattice of three
bands, each anchored at t = 0 so that scans over sub-ranges land on
identical sample points: step 1/4 on [0, 200), 5/32 on [200, 1600) and
0.1 from 1600 up (_BANDS).  Each lower step is below its band's narrowest
zero gap, 0.72 below 200 and 0.16 on [200, 1600), so that every zero there
has a bracket of its own, and keeps h ln(T / 2 pi), with T the band's top,
at or below the 5/32 step's at 1600, 0.866, where the roots' derived
bounds stay below 5e-11; each edge is a lattice point of both bands it
joins, so every cell between neighbouring samples lies in one band.  Only
_grid reads the bands: it gives each sample its band's step and marks the
cores, and the scan takes every sign change between neighbouring core
samples in one pass, with one _lattice_roots call.  The samples come from
one call of hardy_z, the one Z evaluator, whose every value depends on its
own t alone (below T_NO_ZERO = 14, where Z has no zero, every sample is
-|zeta|); a sample that is exactly 0.0 is an ordinate itself.  Every
other ordinate is the root, in its sign-change bracket, of the degree-15
polynomial through the sixteen samples of its band's lattice around it,
with no further evaluation, and carries a derived error bound; a root
whose bound exceeds 1e-9, or whose samples fail a consistency check,
makes its unit interval suspect.  Every window sees the sign changes of
the one lattice, and on [0, 1e4] they are all 10,142 zeros.  Below 1600
every gap is wider than its band's step; the six gaps narrower than 0.1,
from 1977.1739, 4292.7264, 5229.1986, 6093.1923,
7005.0629 (Lehmer's pair, 0.0377 wide, with 7005.1 0.00056 below its
upper zero) and 9793.5500, each hold a lattice point.  A unit interval is
suspect too where the count from the window's start has drifted from the
smooth-phase count (drifted_intervals), which catches a faulty evaluator.

Counts go through two functions: interval_counts, the number of ordinates
with floor(y) = n over a range of n (the census F(n) and the counter
oracles), and smooth_count, the rounded smooth-phase count
round(theta(t)/pi + 1), 0 below T_NO_ZERO, which drifted_intervals, the
one drift rule of the scanner and of verify, compares with the ordinates.

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
from .special import T_NO_ZERO, T_THETA_MAX, TWO_PI, hardy_z, theta_series_vec

CACHE_MAGIC = "zetaphase zero cache v1"

# Scans end by here, inside Z's domain [0, T_Z_MAX) with their padded lattice.
T_WINDOW_MAX = 1.0e4

# The scan lattice t = k h, per band (h, first k, last k): step 1/4 on
# [0, 200], 5/32 on [200, 1600] and 0.1 from 1600 on past T_WINDOW_MAX.
_BANDS = ((0.25, 0, 800), (0.15625, 1280, 10240), (0.1, 16000, math.inf))
# A root whose derived error bound exceeds this is not certified.
_ORDINATE_TOL = 1e-9

# Roots interpolate the 16 lattice samples idx - _PAD .. idx + _PAD + 1
# around the bracket [ts[idx], ts[idx + 1]], a polynomial of degree 15, or
# samples 0 .. 15 where fewer than _PAD lie below (t < 7 h = 1.75).  Degree 11
# leaves roots up to 4.4e-10 off on [0, 1e4]; degrees 19 to 31 gain nothing.
_PAD = 7
_NODES = np.arange(-_PAD, _PAD + 2)[:, None]  # one row per node
# On nodes one step apart the Newton-form coefficient of degree k is the
# forward difference over k!, the sum over j of f_j (-1)^(k-j) C(k, j) / k!.
# _TO_NEWTON holds these weights per sample j, in the degree order 1..15, 0
# of _newton_form's running sums.
_TO_NEWTON = np.array([[[(-1) ** (k - j) * math.comb(k, j) / math.factorial(k)]
                        for k in [*range(1, len(_NODES)), 0]] for j in range(len(_NODES))])
# 1 / (j! (15 - j)!): |l_j(u)| = |omega(u)| / |u - x_j| times this on the nodes.
_LAGRANGE = np.array([[1.0 / (math.factorial(j) * math.factorial(len(_NODES) - 1 - j))]
                      for j in range(len(_NODES))])
_BLOCK = 256
# In _NEWTON_STEPS steps from the secant point all but 100 of the 10,143
# brackets of [0, 1e4] reach a last step of at most _CONVERGED, and each of
# those roots is the one 8 steps reach, bit for bit, but 111.0295 and
# 1501.1193, an ulp off.
_NEWTON_STEPS = 4
_CONVERGED = 1e-10


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


def _grid(t_lo: float, t_hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Padded lattice samples of the window [t_lo, t_hi], the band step of each, and its core.

    In each band the window meets, the core runs from the last lattice
    point below t_lo, or the band's lower edge, to the first above t_hi,
    or the band's upper edge, so the cores of neighbouring bands share the
    edge's sample.  The _PAD samples of the band's lattice on either side
    of a core (fewer below, where they would pass t = 0, but 16 in all)
    only feed the interpolants.  The bands' pieces follow each other in t,
    and the padding above a core is never cut, so it separates the core
    from the next band's: no two neighbouring core samples lie in different
    bands, and a sign change between them brackets a cell of one band.
    """
    # Anchored at t = 0, so disjoint sub-scans share sample points.  The
    # core takes in the cells that end on a window end too: a root found
    # there can round onto the end.
    pieces = []
    for h, k_lo, k_hi in _BANDS:
        if not (k_lo * h <= t_hi and t_lo <= k_hi * h):
            continue
        first = max(math.ceil(t_lo / h - 1e-9) - 1, k_lo)
        last = min(math.floor(t_hi / h + 1e-9) + 1, k_hi)
        k0 = max(first - _PAD, 0)
        stop = max(last + _PAD + 1, len(_NODES))
        core = np.zeros(stop - k0, dtype=bool)
        core[first - k0:last - k0 + 1] = True
        pieces.append((np.arange(float(k0), stop) * h, np.full(stop - k0, h), core))
    return pieces[0] if len(pieces) == 1 else tuple(np.concatenate(p) for p in zip(*pieces))


def _newton_form(coef: np.ndarray, shifts: np.ndarray, u: np.ndarray, terms: np.ndarray):
    """Value and slope in u, at u, of the interpolants with Newton coefficients coef.

    Brackets run along the last axis, and shifts holds their first 15 nodes.
    terms, of shape (2,) + coef.shape, takes the Newton basis and its
    slopes, with 1.0 in its last row; both sums take one product and one
    running sum in terms' place, so the next call overwrites the returns.
    """
    terms[:, -1] = 1.0
    basis, slope = terms[0, :-1], terms[1, :-1]
    d = u - shifts
    np.multiply.accumulate(d, axis=0, out=basis)
    np.add.accumulate(np.reciprocal(d, out=d), axis=0, out=d)
    np.multiply(basis, d, out=slope)
    np.multiply(terms, coef, out=terms)
    np.add.accumulate(terms, axis=1, out=terms)
    return terms[0, -1], terms[1, -2]


def _safeguarded(coef: np.ndarray, shifts: np.ndarray, u: np.ndarray, sign_a: np.ndarray):
    """Roots in (0, 1) of the interpolants, their slopes and the size of their last steps.

    sign_a is each interpolant's sign at 0, opposite to the one at 1.  A
    round evaluates every open interpolant at its u and keeps the part of
    (0, 1) that holds the sign change.  The next u is the Newton point if it
    lies inside that part and moves less than half as far as the last u
    did, and the part's midpoint otherwise (rtsafe, Numerical Recipes 9.4).
    An interpolant stops after a step of at most _CONVERGED, or 64 rounds.
    """
    lo, hi, moved = np.zeros_like(u), np.ones_like(u), np.ones_like(u)
    u = np.where((u > 0.0) & (u < 1.0), u, 0.5)
    out, live = np.empty((3, len(u))), np.arange(len(u))
    for _ in range(64):
        terms = np.empty((2, len(_NODES), len(live)))
        value, slope = _newton_form(coef[:, live], shifts[:, live], u, terms)
        step = value / slope
        above = np.sign(value) == sign_a[live]
        lo, hi = np.where(above, u, lo), np.where(above, hi, u)
        ok = ((lo < u - step) & (u - step < hi) | (step == 0.0)) & (abs(step) < 0.5 * moved)
        nxt = np.where(ok, u - step, 0.5 * (lo + hi))
        moved, u = np.abs(nxt - u), nxt
        out[:, live] = u, slope, moved
        live, lo, hi, moved, u = (v[moved > _CONVERGED] for v in (live, lo, hi, moved, u))
        if not live.size:
            break
    return out


def _lattice_roots(ts: np.ndarray, zs: np.ndarray, idx: np.ndarray, h):
    """Roots of the degree-15 interpolants P, per bracket [ts[idx], ts[idx + 1]] of step h.

    h is one step for every bracket or an array of one step per bracket.
    Returns the roots u, in steps from sample idx, and whether each is
    certified.  Every P takes _NEWTON_STEPS Newton steps on its Newton form
    from the secant point; one whose u then lies outside (0, 1), is not
    finite or moved by more than _CONVERGED in the last step goes on in
    _safeguarded, on P alone.  A root is certified when its bound
        (R + eps L(u)) h / |P'(u)| + r h,  R = h^16 / 16! |omega(u)| M_16,
    is at most _ORDINATE_TOL and the 15th forward difference of its samples
    is at most h^15 M_15 + 2^15 eps.  Here h is the step, r the size of the
    last step, L the Lebesgue function, P' the slope where that step began,
    M_k = 4 sqrt(N) (ln(t / 2 pi) / 2)^k with N = floor(sqrt(t / 2 pi)) the
    main-sum bound on |Z^(k)| (0 below 2 pi), and eps = 5e-15 max(t, 100)
    the kernel's error bound, both at the top node t.  No root depends on
    the rest of the batch: beyond elementwise operations, running sums and
    products there is one reduce, over the outermost axis of a C-contiguous
    array, which NumPy adds in index order, a row at a time, for any number
    of brackets (over the innermost axis, or a lone column, it adds pairwise).
    """
    # Below t = 7 h (where k0 = 0) the stencil starts at sample 0, e steps up.
    e = np.maximum(_PAD - idx, 0)
    centre = idx + e
    f = zs.take(_NODES + centre)
    # At most _BLOCK brackets at a time, which bounds the memory of the
    # (node, k, brackets) products; without brackets, one empty block.
    coef = [np.add.reduce(f[:, None, lo:lo + _BLOCK] * _TO_NEWTON, axis=0)
            for lo in range(0, max(len(idx), 1), _BLOCK)]
    coef = coef[0] if len(coef) == 1 else np.concatenate(coef, axis=1)
    nodes = _NODES + e.astype(np.float64)
    fa = zs[idx]
    u = fa / (fa - zs[idx + 1])
    terms = np.empty((2,) + coef.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_STEPS):
            value, slope = _newton_form(coef, nodes[:-1], u, terms)
            step = value / slope
            u = u - step
        residual = np.abs(step)
        redo = ~((u > 0.0) & (u < 1.0) & (residual <= _CONVERGED))
        if redo.any():
            u[redo], slope[redo], residual[redo] = _safeguarded(
                coef[:, redo], nodes[:-1, redo], u[redo], np.sign(fa[redo]))
        x = ts[centre + (_PAD + 1)] * (1.0 / TWO_PI)  # t / 2 pi at the top node
        eps = 5e-15 * np.maximum(TWO_PI * x, 100.0)
        hf = (0.5 * h) * np.log(np.maximum(x, 1.0))  # h M_(k+1) / M_k
        m15 = 4.0 * np.sqrt(np.floor(np.sqrt(x))) * hf ** 15  # h^15 M_15
        # In place where it can be: one batch holds every bracket of a scan,
        # so each (node, bracket) array is as large as the census's.
        d = np.abs(u - nodes)
        np.maximum(d, 1e-300, out=d)  # a root on a node has L(u) = 1
        omega = np.multiply.accumulate(d, axis=0)[-1]
        # L(u) / omega(u), in d's place.
        lebesgue = np.add.accumulate(np.divide(_LAGRANGE, d, out=d), axis=0, out=d)[-1]
        bound = omega * (m15 * hf / math.factorial(16) + eps * lebesgue) / abs(slope) + residual
        consistent = np.abs(coef[-2]) * math.factorial(15) <= m15 + 2.0 ** 15 * eps
    return u, (bound <= _ORDINATE_TOL / h) & consistent  # the bound is in steps


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
    out[above] = np.rint(theta_series_vec(ts[above]) / math.pi + 1.0)
    return int(out) if out.ndim == 0 else out


def drifted_intervals(ordinates, t_lo: float, t_hi: float) -> list[int]:
    """Unit intervals n, floor(t_lo) <= n < ceil(t_hi), where the zero count has drifted.

    ordinates is an ascending array in [t_lo, t_hi].  Interval n is listed when
    the ordinates from t_lo to min(n + 1, t_hi), less the change of smooth_count
    over that span, are 2 or more in size from t_lo < T_NO_ZERO (where both
    counts start at 0) and 3 or more from any other t_lo.  On [0, 1e4] N(t)
    less smooth_count(t) is -1, 0 or 1, so the true zeros reach neither limit.
    """
    n_lo = math.floor(t_lo)
    heights = np.arange(n_lo, math.ceil(t_hi) + 1, dtype=np.float64)
    heights[0], heights[-1] = t_lo, t_hi
    drift = ordinates.searchsorted(heights) - smooth_count(heights)
    limit = 2 if t_lo < T_NO_ZERO else 3
    return [n_lo + k for k in (abs(drift[1:] - drift[0]) >= limit).nonzero()[0].tolist()]


def scan_zeros(config: ScanConfig) -> ZeroList:
    """Locate all critical-line zeros in [t_lo, t_hi].

    From the one hardy_z call on the lattice of _grid, in one pass: a
    sample of a core that is exactly 0.0 is an ordinate, kept once where it
    is a band edge, and each sign change between neighbouring core samples
    gives the root of the degree-15 interpolant of the sixteen samples of
    its band around it (_lattice_roots, one call with a step per bracket):
    four Newton steps from the secant point, then a safeguarded iteration
    on the interpolant where those leave the bracket or have not converged.
    A unit interval is suspect where it holds a root whose derived bound
    exceeds 1e-9 or whose samples fail the consistency check, and where the
    count from t_lo has drifted from the smooth count (drifted_intervals,
    one smooth_count call).
    """
    t_lo, t_hi = config.t_lo, config.t_hi
    ts, hs, core = _grid(t_lo, t_hi)
    zs = hardy_z(ts)
    signs = np.sign(zs)
    idx = ((signs[:-1] * signs[1:] < 0) & core[:-1] & core[1:]).nonzero()[0]
    u, certified = _lattice_roots(ts, zs, idx, hs[idx])
    a = ts[idx]
    found = a + u * (ts[idx + 1] - a)
    # A band edge is a core sample of both bands it joins: the set keeps it once.
    exact = set(ts[core & (signs == 0.0)].tolist())
    roots = np.concatenate([list(exact), found])
    roots.sort()
    roots = roots[roots.searchsorted(t_lo):roots.searchsorted(t_hi, "right")]
    suspects = set(drifted_intervals(roots, t_lo, t_hi))
    suspects.update(math.floor(y) for y in found[~certified].tolist() if t_lo <= y <= t_hi)
    return ZeroList(
        ordinates=roots,
        t_lo=t_lo,
        t_hi=t_hi,
        suspect_intervals=tuple(sorted(suspects)),
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
