"""The four benchmark workloads: seeded inputs, timed operations, output checks.

Each workload builds its inputs from the seed before the clock starts, runs
its operations inside one timed section, and checks every output after the
clock stops.  An operation that raises or returns a wrong output counts as
failed, and the pass carries on with the next one.

Only public names of the package are called; each call sits in a span
named <module>.<function> so a traced pass can attribute time to layers.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import zlib
from pathlib import Path
from time import perf_counter

import mpmath as mp
import numpy as np

import zetaphase as zp
from zetaphase import special

from common import WORKLOADS, load_reference
from speed import SpeedProbe

# census: the paper's pipeline on [0, 2001].  The full [0, 6501] census
# takes about 50 s on a 2-core Xeon VM, more than a whole 20 s run.
CENSUS_T_HI = 2001.0
CENSUS_N_MAX = 2000
RENDER_WIDTH = 4000
ORDINATE_TOL = 1e-9
CACHE_TOL = 1e-12  # the cache keeps 12 decimals

# local_scans: integer-aligned windows [a, a + 2], one per stratum of a.
WINDOWS = 400
WINDOW_WIDTH = 2
WINDOW_A = (14, 6499)

# phase_points: one height per stratum of [2, 1e4]; a few per pass also
# go to mpmath, at about 0.15 s each, after the clock stops.
HEIGHTS = 512
HEIGHT_RANGE = (2.0, 1.0e4)
ORACLE_HEIGHTS = 4
ORACLE_DPS = 20
PHASE_TOL = 1e-9

# symbolic_table: the closed-form range n = 1..10^4 and the staircase.
SYMBOLIC_N_MAX = 10_000
SYMBOLIC_TOL = 1e-12
RESIDUAL_N_MIN = 50
LAMBERT_BAND_N_MAX = 1000
LAMBERT_RESIDUAL_TOL = 1e-9
STAIRCASE_N = 1009

TRACED = (
    "zeros.scan_zeros",
    "zeros.unit_interval_counts",
    "zeros.cache_roundtrip",
    "render.render_counts",
    "special.hardy_z",
    "special.arg_zeta_principal",
    "special.theta_exact",
    "special.arg_gamma_quarter",
    "argexpr.symbolic_expression",
    "argexpr.evaluate",
    "argexpr.approx_arg_zeta",
    "argexpr.corrected_approx",
    "estimate.zero_estimate_lambert",
    "estimate.staircase_jumps",
)


def _stratified(rng: np.random.Generator, lo: float, hi: float, k: int) -> np.ndarray:
    """One uniform draw in each of k equal strata of [lo, hi), shuffled.

    Marginally uniform, but every seed gets the same spread of heights, so
    the cost of a pass barely moves with the seed.
    """
    edges = np.linspace(lo, hi, k + 1)
    return rng.permutation(edges[:-1] + rng.random(k) * np.diff(edges))


def census_landmarks(counts) -> dict:
    """The paper's census landmarks, read off unit_interval_counts."""
    items = counts.nonzero_items()
    return {
        "first_interval": min(n for n, _ in items),
        "doubles_below_300": [n for n, c in items if c == 2 and n < 300],
        "triples": [n for n, c in items if c == 3],
    }


def _half_turn_gap(u: float) -> float:
    """Distance of u from the nearest even integer (phases in half turns)."""
    return abs(math.remainder(u, 2.0))


class Workload:
    """Inputs, one operation and its check; subclasses fill these in."""

    def __init__(self, seed: int, pass_index: int, ordinates: np.ndarray,
                 meta: dict, scratch: Path) -> None:
        self.ref = ordinates
        self.meta = meta
        self.scratch = scratch
        self.seed = seed
        self.pass_index = pass_index
        self.rng = np.random.default_rng([seed, zlib.crc32(type(self).__name__.encode())])
        self.diag = {"zeros.ordinates": 0, "zeros.suspects": 0, "zeros.max_ord_dev": 0.0,
                     "special.max_abs_err": 0.0, "argexpr.worst_gap": 0.0}
        self.ops: list = []

    def _worst(self, key: str, value: float) -> None:
        self.diag[key] = max(self.diag[key], value)

    def _check_scan(self, zl, want: np.ndarray) -> str | None:
        self.diag["zeros.ordinates"] += zl.count
        self.diag["zeros.suspects"] += len(zl.suspect_intervals)
        if zl.suspect_intervals:
            return f"suspect intervals {zl.suspect_intervals}"
        if zl.count != len(want):
            return f"{zl.count} ordinates, reference has {len(want)}"
        if zl.count:
            dev = float(np.max(np.abs(np.asarray(zl.ordinates) - want)))
            self._worst("zeros.max_ord_dev", dev)
            if dev > ORDINATE_TOL:
                return f"ordinate off the reference by {dev:.3e}"
        return None


class Census(Workload):
    """scan_zeros over [0, 2001], counts, render and a cache round trip: one operation."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.want = self.ref[self.ref <= CENSUS_T_HI]
        self.path = self.scratch / f"census-{os.getpid()}.txt"
        self.ops = [CENSUS_T_HI]

    def run(self, t_hi, span):
        with span("zeros.scan_zeros"):
            zl = zp.scan_zeros(zp.ScanConfig(0.0, t_hi))
        with span("zeros.unit_interval_counts"):
            counts = zp.unit_interval_counts(zl, CENSUS_N_MAX)
        with span("render.render_counts"):
            pgm = zp.render_counts(counts, RENDER_WIDTH).to_pgm_bytes()
        with span("zeros.cache_roundtrip"):
            try:
                zp.write_zero_cache(zl, self.path)
                back = zp.read_zero_cache(self.path)
            finally:
                self.path.unlink(missing_ok=True)
        return zl, counts, pgm, back

    def check(self, t_hi, out) -> str | None:
        zl, counts, pgm, back = out
        want = self.meta["census"]
        problem = self._check_scan(zl, self.want)
        if problem:
            return problem
        for key, got in census_landmarks(counts).items():
            if got != want[key]:
                return f"{key} {got}, reference {want[key]}"
        digest = hashlib.sha256(pgm).hexdigest()
        if digest != want["render_sha256"]:
            return f"render sha256 {digest[:16]}..., reference {want['render_sha256'][:16]}..."
        if back.count != zl.count or (
                zl.count and np.max(np.abs(np.asarray(back.ordinates) - np.asarray(zl.ordinates))) > CACHE_TOL):
            return "cache round trip changed the ordinates"
        return None


class LocalScans(Workload):
    """scan_zeros over seeded windows [a, a + 2], one operation per window."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        lo, hi = WINDOW_A
        self.ops = [int(a) for a in np.floor(_stratified(self.rng, lo, hi + 1, WINDOWS))]

    def run(self, a, span):
        with span("zeros.scan_zeros"):
            return zp.scan_zeros(zp.ScanConfig(float(a), float(a + WINDOW_WIDTH)))

    def check(self, a, zl) -> str | None:
        want = self.ref[(self.ref >= a) & (self.ref <= a + WINDOW_WIDTH)]
        return self._check_scan(zl, want)


class PhasePoints(Workload):
    """The four scalar phase calls at seeded heights, one operation per height."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        heights = _stratified(self.rng, *HEIGHT_RANGE, HEIGHTS)
        self.ops = list(enumerate(float(h) for h in heights))
        # Every pass times the same heights; each sends a different few to mpmath.
        oracle_rng = np.random.default_rng([self.seed, self.pass_index])
        self.oracle = set(oracle_rng.choice(HEIGHTS, ORACLE_HEIGHTS, replace=False).tolist())

    def run(self, op, span):
        _, h = op
        with span("special.hardy_z"):
            z = zp.hardy_z(h)
        with span("special.arg_zeta_principal"):
            az = zp.arg_zeta_principal(h)
        with span("special.theta_exact"):
            th = zp.theta_exact(h)
        with span("special.arg_gamma_quarter"):
            ag = zp.arg_gamma_quarter(h)
        return z, az, th, ag

    def check(self, op, out) -> str | None:
        i, h = op
        z, az, th, ag = out
        if not all(math.isfinite(v) for v in out):
            return "non-finite value"
        if not (-1.0 < az <= 1.0 and -1.0 < ag <= 1.0):
            return f"phase outside (-1, 1]: {az}, {ag}"
        # Near a zero the phase of zeta is ill-conditioned: an error e in zeta
        # moves it by e / (pi |Z|) half turns, so hold the value, not the
        # phase, to PHASE_TOL there.
        arg_tol = PHASE_TOL * max(1.0, 1.0 / (math.pi * abs(z)))
        # zeta = exp(-i theta) Z, so arg zeta / pi = -theta / pi (+1 when Z < 0).
        if _half_turn_gap(az + th / math.pi - (0.0 if z > 0.0 else 1.0)) > arg_tol:
            return "arg zeta inconsistent with theta and the sign of Z"
        # Im log Gamma(1/4 + ih/2) = theta + (h/2) ln pi.
        if _half_turn_gap(th / math.pi + h * math.log(math.pi) / (2.0 * math.pi) - ag) > PHASE_TOL:
            return "arg gamma inconsistent with theta"
        if i in self.oracle:
            return self._check_oracle(h, z, az, th, ag, arg_tol)
        return None

    def _check_oracle(self, h, z, az, th, ag, arg_tol) -> str | None:
        with mp.workdps(ORACLE_DPS):
            zeta = mp.zeta(mp.mpc(0.5, h))
            errs = {
                "hardy_z": (abs(z - float(mp.siegelz(h))), PHASE_TOL),
                "theta_exact": (abs(th - float(mp.siegeltheta(h))), PHASE_TOL),
                "arg_zeta_principal": (_half_turn_gap(az - float(mp.arg(zeta) / mp.pi)), arg_tol),
                "arg_gamma_quarter": (
                    _half_turn_gap(ag - float(mp.loggamma(mp.mpc(0.25, h / 2)).imag / mp.pi)), PHASE_TOL),
            }
        for name, (err, tol) in errs.items():
            self._worst("special.max_abs_err", err)
            if err > tol:
                return f"{name} off mpmath by {err:.3e} at t = {h}"
        return None


class SymbolicTable(Workload):
    """Rows n = 1..10^4 of the closed forms, then the staircase and the sequence prefixes."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.ops = [("row", n) for n in range(1, SYMBOLIC_N_MAX + 1)]
        self.ops += [("staircase", STAIRCASE_N), ("prefixes", 0)]
        self.counts = np.bincount(np.floor(self.ref[self.ref < STAIRCASE_N + 1]).astype(np.int64),
                                  minlength=STAIRCASE_N + 1)

    def run(self, op, span):
        kind, n = op
        if kind == "row":
            with span("argexpr.symbolic_expression"):
                expr = zp.symbolic_expression(n)
            with span("argexpr.evaluate"):
                value = expr.evaluate()
            with span("argexpr.approx_arg_zeta"):
                approx = zp.approx_arg_zeta(n)
            corrected = None
            if n >= 2:
                with span("argexpr.corrected_approx"):
                    corrected = zp.corrected_approx(n, 4)
            with span("estimate.zero_estimate_lambert"):
                estimate = zp.zero_estimate_lambert(n)
            return value, approx, corrected, estimate
        if kind == "staircase":
            with span("estimate.staircase_jumps"):
                return zp.staircase_jumps(n)
        return {
            "coeff_2": zp.coeff_sequence(2, 8),
            "coeff_3": zp.coeff_sequence(3, 9),
            "ruler_2": [zp.ruler_normalized(2, k) for k in range(1, 9)],
            "ruler_3": [zp.ruler_normalized(3, k) for k in range(1, 10)],
        }

    def check(self, op, out) -> str | None:
        kind, n = op
        if kind == "staircase":
            mismatches = [k for k in range(1, n) if out[k - 1] != self.counts[k]]
            if mismatches != self.meta["staircase"]["mismatches"]:
                return f"staircase mismatches {mismatches[:8]}"
            return None
        if kind == "prefixes":
            if out != self.meta["sequence_prefixes"]:
                return "sequence prefixes differ from the reference"
            return None
        value, approx, corrected, estimate = out
        gap = abs(value - approx)
        self._worst("argexpr.worst_gap", gap)
        if gap > SYMBOLIC_TOL:
            return f"symbolic {value!r} vs numeric {approx!r}"
        if corrected is not None:
            if not math.isfinite(corrected):
                return "corrected_approx not finite"
            if n >= RESIDUAL_N_MIN:
                theta = zp.theta_exact(n)
                exact = round(zp.main_term(n)) - 1.0 - theta / math.pi
                # theta is good to one ulp and the exact side is formed in
                # binary64; above n ~ 5000 those roundings alone exceed 1e-12.
                tol = SYMBOLIC_TOL + math.ulp(theta) / math.pi + math.ulp(exact + 1.0)
                if abs(corrected - exact) > tol:
                    return f"corrected_approx off the exact phase by {abs(corrected - exact):.3e}"
        x = estimate / (2.0 * math.pi)
        if abs(x * math.log(x) - x - (n - 11.0 / 8.0)) > LAMBERT_RESIDUAL_TOL:
            return "Lambert estimate does not solve the smooth count equation"
        if n <= LAMBERT_BAND_N_MAX and abs(estimate - self.ref[n - 1]) >= 1.0:
            return f"Lambert estimate {estimate} more than 1 from ordinate {self.ref[n - 1]}"
        return None


CLASSES = dict(zip(WORKLOADS, (Census, LocalScans, PhasePoints, SymbolicTable), strict=True))

MAX_NOTES = 5


def run_pass(name: str, seed: int, pass_index: int, tracer, reference: Path, scratch: Path) -> dict:
    """Build inputs, run the timed section, check every output, summarise."""
    ordinates, meta = load_reference(reference)
    wl = CLASSES[name](seed, pass_index, ordinates, meta, scratch)
    span = tracer.span
    outputs, bounds = [], []
    cache0 = special.smooth_main.cache_info()
    with SpeedProbe() as probe, span("workload"):
        start = perf_counter()
        for op in wl.ops:
            t0 = perf_counter()
            with span("op"):
                try:
                    out = wl.run(op, span)
                except Exception as exc:  # a raising operation is a failed one; carry on
                    out = exc
            bounds.append((t0, perf_counter()))
            outputs.append(out)
        wall_raw_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache1 = special.smooth_main.cache_info()
    op_s = [probe.rescale(a, b) for a, b in bounds]
    wall_s = sum(op_s)

    failed, notes = 0, []
    for op, out in zip(wl.ops, outputs):
        if isinstance(out, Exception):
            problem = f"raised {type(out).__name__}: {out}"
        else:
            try:
                problem = wl.check(op, out)
            except Exception as exc:  # a malformed output is a wrong one
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failed += 1
            if len(notes) < MAX_NOTES:
                notes.append(f"{name} {op}: {problem}")

    # Self times in reference-speed seconds, like wall_s and op_ms.
    seconds, calls = tracer.self_times(probe.rescale)
    layer = {}
    for fn in TRACED:
        layer[f"{fn}.s"] = seconds.get(fn, 0.0)
        layer[f"{fn}.calls"] = calls.get(fn, 0)
    scan_s = seconds.get("zeros.scan_zeros", 0.0)
    layer["zeros.ordinates_per_s"] = wl.diag["zeros.ordinates"] / scan_s if scan_s else 0.0
    # Within one pass, so host-speed drift between runs cannot bias it.
    layer["zeros.scan_zeros.share"] = scan_s / wall_s
    hits = cache1.hits - cache0.hits
    lookups = hits + cache1.misses - cache0.misses
    layer["special.smooth_main.hit_ratio"] = hits / lookups if lookups else 0.0
    layer.update(wl.diag)
    return {
        "wall_s": wall_s,
        "op_ms": [1e3 * t for t in op_s],
        "wall_raw_s": wall_raw_s,
        "op_raw_ms": [1e3 * (b - a) for a, b in bounds],
        "probe_ms": 1e3 * probe.median_probe(),
        "attempted": len(wl.ops),
        "failed": failed,
        "notes": notes,
        "peak_rss_mb": peak_rss_mb,
        "layer": layer,
    }
