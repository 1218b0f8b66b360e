"""Zero location on the critical line and unit-interval censuses.

The scanner samples the Hardy Z function on a fixed lattice (anchored at
t = 0 so that scans over sub-ranges land on identical sample points),
re-evaluates with the accurate Euler-Maclaurin evaluator every sample that
ends a sign change or reads 0.0 until the sign changes are the accurate
evaluator's, and refines every bracket by safeguarded Illinois (regula
falsi) steps against that evaluator; a sample that is exactly 0.0 is an
ordinate itself.  A post-pass compares each unit interval's count
against the smooth-phase prediction and rescans at a quarter step where
they disagree by two or more.

Every count goes through two functions: interval_counts, the number of
ordinates with floor(y) = n over a range of n (the census F(n), the
scanner's post-pass and the counter oracles), and smooth_count, the
rounded smooth-phase count round(theta(t)/pi + 1) whose differences are
the per-interval prediction.

Also here: the interval-count container, floor-difference counters with
their Bessel/Airy zero oracles, and the plain-text zero cache format.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.special import airy as _airy
from scipy.special import j0 as _j0
from scipy.special import j1 as _j1

from . import GENERATOR_VERSION
from .special import T_WINDOW_MAX, TWO_PI, hardy_z_vec, theta_vec

CACHE_MAGIC = "zetaphase zero cache v1"

# Above this the fast Riemann-Siegel main-sum sampler is used on the grid;
# below, the Euler-Maclaurin evaluator is cheap enough to sample directly.
_T_FAST_MIN = 200.0


class CoverageError(ValueError):
    """Raised when a zero list does not cover the requested range."""


# ----------------------------------------------------------------------
# Riemann-Siegel grid sampler


def _rs_psi(p: np.ndarray) -> np.ndarray:
    """C0 shape cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p), stable on [0, 1).

    Near the removable singularities at p = 1/4 and 3/4 the equivalent
    sinc-ratio forms are used.
    """
    p = np.asarray(p, dtype=np.float64)
    out = np.empty_like(p)
    near_q = np.abs(p - 0.25) < 0.05
    near_r = np.abs(p - 0.75) < 0.05
    rest = ~(near_q | near_r)
    if near_q.any():
        q = p[near_q] - 0.25
        out[near_q] = 0.5 * (1.0 - 2.0 * q) * np.sinc(q * (1.0 - 2.0 * q)) / np.sinc(2.0 * q)
    if near_r.any():
        r = p[near_r] - 0.75
        out[near_r] = 0.5 * (1.0 + 2.0 * r) * np.sinc(r * (1.0 + 2.0 * r)) / np.sinc(2.0 * r)
    if rest.any():
        pr = p[rest]
        out[rest] = np.cos(TWO_PI * (pr * pr - pr - 0.0625)) / np.cos(TWO_PI * pr)
    return out


def _z_fast_vec(ts: np.ndarray) -> np.ndarray:
    """Riemann-Siegel main sum with the leading remainder term.

    Bracketing-grade accuracy (absolute error below ~3e-3 for t >= 200);
    every bracket is re-verified and refined against the accurate evaluator.
    Expects ts ascending.
    """
    ts = np.asarray(ts, dtype=np.float64)
    x = np.sqrt(ts / TWO_PI)
    kmax_arr = np.floor(x).astype(np.int64)
    th = theta_vec(ts)
    acc = np.zeros_like(ts)
    for k in range(1, int(kmax_arr[-1]) + 1):
        lo = np.searchsorted(ts, TWO_PI * k * k)
        if lo >= len(ts):
            break
        acc[lo:] += np.cos(th[lo:] - ts[lo:] * math.log(k)) / math.sqrt(k)
    p = x - kmax_arr
    sign = np.where(kmax_arr % 2 == 1, 1.0, -1.0)
    return 2.0 * acc + sign * x ** -0.5 * _rs_psi(p)


# ----------------------------------------------------------------------
# scanning


@dataclass(frozen=True)
class ScanConfig:
    """Parameters of a zero scan over [t_lo, t_hi]."""

    t_lo: float
    t_hi: float
    step: float = 0.05
    refine_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 <= self.t_lo < self.t_hi <= T_WINDOW_MAX:
            raise ValueError(f"scan range must satisfy 0 <= t_lo < t_hi <= {T_WINDOW_MAX:g}")
        if not 0.0 < self.step <= 0.05:
            raise ValueError("grid step must be in (0, 0.05]")
        if not 0.0 < self.refine_tol <= 1e-6:
            raise ValueError("refine_tol must be in (0, 1e-6]")


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
        if not 0.0 <= self.t_lo < self.t_hi:
            raise ValueError("coverage must satisfy 0 <= t_lo < t_hi")
        ys = np.array(self.ordinates, dtype=np.float64)
        ys.flags.writeable = False
        object.__setattr__(self, "ordinates", ys)
        if ys.ndim != 1:
            raise ValueError("ordinates must be one-dimensional")
        if np.any(np.diff(ys) <= 0.0):
            raise ValueError("ordinates must be strictly ascending")
        if ys.size and (ys[0] < self.t_lo or ys[-1] > self.t_hi):
            raise ValueError("ordinate outside declared coverage")

    @property
    def count(self) -> int:
        return len(self.ordinates)

    def count_below(self, t: float) -> int:
        return int(np.searchsorted(self.ordinates, t, side="right"))

    def merge(self, other: "ZeroList") -> "ZeroList":
        """Concatenate two lists of the same source with abutting coverage."""
        if self.source != other.source:
            raise ValueError("refusing to merge zero lists from different sources")
        lo_first, hi_first = (self, other) if self.t_lo <= other.t_lo else (other, self)
        if lo_first.t_hi > hi_first.t_lo + 1e-9:
            raise ValueError("coverage ranges overlap; merge expects disjoint ranges")
        if hi_first.t_lo - lo_first.t_hi > 1e-9:
            raise ValueError("coverage ranges leave a gap")
        return ZeroList(
            ordinates=np.concatenate([lo_first.ordinates, hi_first.ordinates]),
            source=self.source,
            t_lo=lo_first.t_lo,
            t_hi=hi_first.t_hi,
            step=self.step if self.step == other.step else None,
            refine_tol=self.refine_tol if self.refine_tol == other.refine_tol else None,
            suspect_intervals=tuple(sorted(set(self.suspect_intervals + other.suspect_intervals))),
        )


def _grid(t_lo: float, t_hi: float, step: float) -> np.ndarray:
    # Lattice anchored at t = 0 so disjoint sub-scans share sample points;
    # the enclosing lattice points are sampled so no edge cell goes unseen.
    i_lo = int(math.floor(t_lo / step + 1e-9))
    i_hi = int(math.ceil(t_hi / step - 1e-9))
    return np.arange(i_lo, i_hi + 1, dtype=np.float64) * step


def _refine(a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray,
            tol: float) -> np.ndarray:
    """Shrink sign-change brackets [a, b] to width tol.

    fa and fb are the accurate evaluator's values at the endpoints, of
    opposite sign.  Each step is a regula falsi point with the Illinois rule
    (the retained endpoint's stored value is halved whenever the same side
    is replaced twice in a row), clipped at least tol/2 inside the bracket
    so that a converged iterate is closed off by one step across the root.
    A bracket whose width has not halved within the last three steps takes
    a bisection step instead, and an exact zero of the accurate evaluator
    closes its bracket at once.  Each ordinate is the linear interpolant of
    the final endpoint values, inside an accurate sign-change bracket of
    width at most tol.

    Raises ArithmeticError if a bracket is still wider than tol after the
    step cap.
    """
    ga, gb = fa, fb  # endpoint values as the secant sees them (Illinois-halved)
    last = np.zeros(len(a), dtype=np.int64)  # side replaced by the last step: -1 a, +1 b
    ref = b - a  # width when the bracket last halved
    stalled = np.zeros(len(a), dtype=np.int64)  # steps since then
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(80):
            width = b - a
            open_mask = width > tol
            if not open_mask.any():
                break
            halved = width <= 0.5 * ref
            ref = np.where(halved, width, ref)
            stalled = np.where(halved, 0, stalled)
            x = np.clip(a - ga * width / (gb - ga), a + 0.5 * tol, b - 0.5 * tol)
            x = np.where(stalled >= 3, 0.5 * (a + b), x)
            stalled += 1
            fx = np.zeros_like(x)
            fx[open_mask] = hardy_z_vec(x[open_mask])
            root = open_mask & (fx == 0.0)
            to_a = open_mask & (np.sign(fx) == np.sign(fa))
            to_b = open_mask & ~to_a & ~root
            ga = np.where(to_b & (last == 1), 0.5 * ga, ga)
            gb = np.where(to_a & (last == -1), 0.5 * gb, gb)
            move_a = to_a | root
            move_b = to_b | root
            a = np.where(move_a, x, a)
            fa = np.where(move_a, fx, fa)
            ga = np.where(move_a, fx, ga)
            b = np.where(move_b, x, b)
            fb = np.where(move_b, fx, fb)
            gb = np.where(move_b, fx, gb)
            last = np.where(to_a, -1, np.where(to_b, 1, last))
        if np.any(b - a > tol):
            raise ArithmeticError("bracket refinement did not reach refine_tol")
        interp = np.clip(a - fa * (b - a) / (fb - fa), a, b)
    return np.where(b > a, interp, a)


def _scan_ordinates(t_lo: float, t_hi: float, step: float, tol: float) -> np.ndarray:
    ts = _grid(t_lo, t_hi, step)
    accurate = ts < _T_FAST_MIN
    zs = np.empty_like(ts)
    zs[accurate] = hardy_z_vec(ts[accurate])
    if not accurate.all():
        zs[~accurate] = _z_fast_vec(ts[~accurate])
    # Re-evaluate accurately every sample that ends a sign change or reads
    # 0.0, until the sign changes are those of the accurate evaluator.
    while True:
        change = np.sign(zs[:-1]) * np.sign(zs[1:]) < 0
        ends = zs == 0.0
        ends[:-1] |= change
        ends[1:] |= change
        todo = ends & ~accurate
        if not todo.any():
            break
        zs[todo] = hardy_z_vec(ts[todo])
        accurate |= todo
    idx = np.flatnonzero(change)
    roots = np.sort(np.concatenate([
        ts[zs == 0.0], _refine(ts[idx], ts[idx + 1], zs[idx], zs[idx + 1], tol)]))
    return roots[(roots >= t_lo) & (roots <= t_hi)]


def interval_counts(ordinates, n_lo: int, n_hi: int) -> np.ndarray:
    """Zeros per unit interval: entry k counts the ordinates with floor(y) = n_lo + k.

    Covers n_lo <= n < n_hi; ordinates outside [n_lo, n_hi) are ignored.
    """
    ys = np.asarray(ordinates, dtype=np.float64)
    inside = ys[(ys >= n_lo) & (ys < n_hi)]
    return np.bincount(np.floor(inside).astype(np.int64) - n_lo, minlength=n_hi - n_lo)


def smooth_count(t):
    """Rounded smooth-phase zero count below t: round(theta(t)/pi + 1), 0 below t = 14.

    Takes a float (returns an int) or an array (returns an int64 array).
    """
    ts = np.asarray(t, dtype=np.float64)
    out = np.zeros(ts.shape, dtype=np.int64)
    above = ts >= 14.0
    out[above] = np.round(theta_vec(ts[above]) / math.pi + 1.0)
    return int(out) if out.ndim == 0 else out


def scan_zeros(config: ScanConfig) -> ZeroList:
    """Locate all critical-line zeros in [t_lo, t_hi].

    Sign changes of the accurate Z between lattice samples are refined by
    safeguarded Illinois steps to brackets of width refine_tol; unit
    intervals whose count disagrees with the smooth-phase prediction by two
    or more are rescanned once at a quarter of the step, and flagged as
    suspect if the disagreement survives.
    """
    roots = _scan_ordinates(config.t_lo, config.t_hi, config.step, config.refine_tol)

    n_lo = int(math.floor(config.t_lo))
    n_hi = int(math.ceil(config.t_hi))
    predicted = np.diff(smooth_count(np.arange(n_lo, n_hi + 1, dtype=np.float64)))
    got = interval_counts(roots, n_lo, n_hi)

    suspects: list[int] = []
    for offset in np.nonzero(np.abs(got - predicted) >= 2)[0]:
        n = n_lo + int(offset)
        lo = max(float(n), config.t_lo)
        hi = min(float(n + 1), config.t_hi)
        redone = _scan_ordinates(lo, hi, config.step / 4.0, config.refine_tol)
        inside = (roots >= lo) & (roots <= hi)
        roots = np.sort(np.concatenate([roots[~inside], redone]))
        if abs(len(redone) - int(predicted[offset])) >= 2:
            # The phase fluctuation routinely reaches 2 inside one interval,
            # so a persistent local gap alone is not evidence of a missed
            # zero.  Flag as suspect only when the cumulative count has also
            # drifted away from the smooth phase at this height.
            edge = float(n + 1)
            expected = smooth_count(edge) - smooth_count(config.t_lo)
            cum_gap = int(np.searchsorted(roots, edge)) - expected
            # A scan anchored below the first zero has a noise-free left
            # baseline; a partial scan carries phase noise at both ends.
            limit = 2 if config.t_lo < 14.0 else 3
            if abs(cum_gap) >= limit:
                suspects.append(n)

    return ZeroList(
        ordinates=roots,
        source="scanned",
        t_lo=config.t_lo,
        t_hi=config.t_hi,
        step=config.step,
        refine_tol=config.refine_tol,
        suspect_intervals=tuple(suspects),
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
        raise CoverageError(
            f"zero list covers [{zeros.t_lo:g}, {zeros.t_hi:g}], "
            f"counts to n_max = {n_max} need [1, {n_max + 1}]"
        )
    return UnitIntervalCounts(interval_counts(zeros.ordinates, 1, n_max + 1))


def point_density_zeta(n: float) -> float:
    """Mean zero density log(n)/(2 pi) per unit interval near height n."""
    n = float(n)
    if n <= TWO_PI * math.e:
        raise ValueError("density formula needs n > 2 pi e")
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
    if count < 1:
        raise ValueError("count must be >= 1")
    k = np.arange(1, count + 1, dtype=np.float64)
    beta = (k - 0.25) * math.pi
    r = 1.0 / (8.0 * beta)
    x = beta + r * (1.0 + r * r * (-124.0 / 3.0 + r * r * (120928.0 / 15.0)))
    for _ in range(8):
        step = _j0(x) / _j1(x)  # J0' = -J1
        x = x + step
        if np.max(np.abs(step)) < 1e-14:
            break
    if np.max(np.abs(_j0(x))) > 1e-11 or np.any(np.diff(x) <= 0.0):
        raise ArithmeticError("Bessel zero oracle failed to converge")
    return x


def airy_neg_zeros(count: int) -> np.ndarray:
    """First `count` zeros of Ai(-x): asymptotic start, Newton on Ai."""
    if count < 1:
        raise ValueError("count must be >= 1")
    k = np.arange(1, count + 1, dtype=np.float64)
    z = 3.0 * math.pi * (4.0 * k - 1.0) / 8.0
    zi = z ** -2.0
    x = z ** (2.0 / 3.0) * (1.0 + zi * (5.0 / 48.0 + zi * (-5.0 / 36.0 + zi * (77125.0 / 82944.0))))
    for _ in range(10):
        ai, aip, _, _ = _airy(-x)
        step = ai / aip
        x = x + step
        if np.max(np.abs(step)) < 1e-14:
            break
    ai, _, _, _ = _airy(-x)
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
    """ASCII cache: '#' header comments, one 12-decimal ordinate per line."""
    lines = [f"# {CACHE_MAGIC}"]
    lines.append(f"# generator: {GENERATOR_VERSION}")
    lines.append(f"# source: {zeros.source}")
    # Shortest digits that parse back to the same floats, at least six decimals.
    lo, hi = (np.format_float_positional(x, unique=True, min_digits=6)
              for x in (zeros.t_lo, zeros.t_hi))
    lines.append(f"# range: {lo} {hi}")
    if zeros.step is not None:
        lines.append(f"# step: {zeros.step:.6f}")
    if zeros.refine_tol is not None:
        lines.append(f"# refine_tol: {zeros.refine_tol:.3e}")
    lines.append(f"# count: {zeros.count}")
    lines.extend(f"{y:.12f}" for y in zeros.ordinates)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_zero_cache(path: str | os.PathLike) -> ZeroList:
    """Parse a cache file back into an ingested ZeroList.

    Malformed lines and ordering violations report their line number.
    Without a '# range:' comment the coverage is [0, last ordinate].
    """
    t_lo = 0.0
    t_hi: float | None = None
    step = None
    tol = None
    declared = None
    ordinates: list[float] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
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
    if declared is not None and declared != len(ordinates):
        raise ValueError(f"{path}: declared count {declared} != {len(ordinates)} ordinates")
    if t_hi is None:
        t_hi = ordinates[-1] if ordinates else 1.0
    try:
        return ZeroList(ordinates, "ingested", t_lo, float(t_hi), step=step, refine_tol=tol)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
