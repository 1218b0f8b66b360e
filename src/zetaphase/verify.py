"""Self-verification checks over the full feature surface.

Each check pins expected values that were either transcribed from the
reference tables this package reproduces or derived from independent
computations (sign-change scans refined by a safeguarded Illinois
iteration, extended-precision evaluation, Newton zero oracles).  Where
a transcribed entry is internally inconsistent, the canonical value
asserted here is the numerically validated one; the corrections ledger
shipped with the tests records each such case.

The same checks back the command-line `verify` subcommand and the
acceptance test suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import argexpr, estimate, render, special, zeros as zmod

# (1/pi) Arg zeta(1/2 + i n) for n = 1..19, transcribed with rows 12-15
# normalized to carry their leading "0."/"-0." digits.
TRUE_ARG_ROWS = {
    1: -0.437372012317, 2: -0.195977582921, 3: -0.046800452442,
    4: 0.0474416622590, 5: 0.101231367921, 6: 0.122861669195,
    7: 0.117778121706, 8: 0.0898404109029, 9: 0.0419297327910,
    10: -0.0237198979997, 11: -0.105325100472, 12: -0.201429006842,
    13: -0.310818966587, 14: -0.432469802098, 15: 0.434496598552,
    16: 0.290840842657, 17: 0.137228161449, 18: -0.0257546940666,
    19: -0.197586328497,
}

# round(main term) - main term at the same heights.
APPROX_ARG_ROWS = {
    1: -0.423337836994, 2: -0.192311274139, 3: -0.0445622398292,
    4: 0.0491062514140, 5: 0.102560818219, 6: 0.123968719880,
    7: 0.118726607797, 8: 0.090670102212, 9: 0.042667093960,
    10: -0.023056364340, 11: -0.104721949447, 12: -0.200876161160,
    13: -0.310308678190, 14: -0.431995985476, 15: 0.434938810386,
    16: 0.291255403206, 17: 0.137618325910, 18: -0.025386213458,
    19: -0.197237248073,
}

TRUE_ARG_GAMMA_1 = -0.380438567847
APPROX_ARG_GAMMA_1 = -0.394472743168
TRUE_ARG_4000 = -0.382343520341

# Unit intervals holding two zeros below 300.  The transcribed list reads
# {111, 150, 169, 223}; independent zero computations place the third
# pair in [224, 225) and show a fourth in [231, 232) (see the corrections
# ledger), so the canonical set asserted here is the verified one.
DOUBLE_INTERVALS_300 = (111, 150, 169, 224, 231)
TRIPLE_INTERVALS_6500 = (5826, 5978, 6494)

LN2_COEFF_PREFIX = (4, 0, 12, -16, 20, 0, 28, -64)
LN3_COEFF_PREFIX = (0, 0, -12, 0, 0, -24, 0, 0, -72)
RULER2_PREFIX = (2, 3, 2, 4, 2, 3, 2, 5)
RULER3_PREFIX = (1, 1, 2, 1, 1, 2, 1, 1, 3)

CENSUS_T_HI = 6501.0
CENSUS_N_MAX = 6500


@dataclass
class CheckResult:
    name: str
    passed: bool
    expected: str
    got: str
    tolerance: str
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = f"{status:4s}  {self.name}: expected {self.expected}, got {self.got}"
        if self.tolerance:
            out += f" (tolerance {self.tolerance})"
        if self.detail:
            out += f" -- {self.detail}"
        return out

    def record(self) -> dict:
        return {
            "check": self.name,
            "passed": bool(self.passed),
            "expected": self.expected,
            "got": self.got,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


def check_table_rows() -> CheckResult:
    t0 = time.perf_counter()
    worst_true = max(abs(special.arg_zeta_principal(float(n)) - v)
                     for n, v in TRUE_ARG_ROWS.items())
    worst_approx = max(abs(argexpr.approx_arg_zeta(n) - v)
                       for n, v in APPROX_ARG_ROWS.items())
    elapsed = time.perf_counter() - t0
    worst = max(worst_true, worst_approx)
    return CheckResult(
        name="table rows",
        passed=worst <= 1e-9 and elapsed < 5.0,
        expected="19 true and 19 approx values",
        got=f"worst gap {worst:.3e} in {elapsed:.2f}s",
        tolerance="1e-9, under 5s",
    )


def check_gamma_point() -> CheckResult:
    d1 = abs(special.arg_gamma_quarter(1.0) - TRUE_ARG_GAMMA_1)
    d2 = abs(argexpr.approx_arg_gamma(1) - APPROX_ARG_GAMMA_1)
    return CheckResult(
        name="gamma point",
        passed=max(d1, d2) <= 1e-9,
        expected=f"{TRUE_ARG_GAMMA_1} and {APPROX_ARG_GAMMA_1}",
        got=f"gaps {d1:.3e}, {d2:.3e}",
        tolerance="1e-9",
    )


def check_point_4000() -> CheckResult:
    got = special.arg_zeta_principal(4000.0)
    return CheckResult(
        name="point 4000",
        passed=abs(got - TRUE_ARG_4000) <= 1e-9,
        expected=f"{TRUE_ARG_4000}",
        got=f"{got:.12f}",
        tolerance="1e-9",
    )


def _census_counts(zero_list: zmod.ZeroList) -> zmod.UnitIntervalCounts:
    return zmod.unit_interval_counts(zero_list, CENSUS_N_MAX)


def check_census_landmarks(zero_list: zmod.ZeroList,
                           scan_seconds: float | None = None) -> CheckResult:
    f = _census_counts(zero_list).counts
    occupied = np.flatnonzero(f)
    first = int(occupied[0]) + 1 if occupied.size else None
    doubles = tuple((np.flatnonzero(f[:300] == 2) + 1).tolist())
    triples = tuple((np.flatnonzero(f == 3) + 1).tolist())
    ok = (first == 14
          and doubles == DOUBLE_INTERVALS_300
          and triples == TRIPLE_INTERVALS_6500)
    detail = ""
    if scan_seconds is not None:
        ok = ok and scan_seconds < 180.0
        detail = f"scan took {scan_seconds:.0f}s (limit 180s)"
    return CheckResult(
        name="census landmarks",
        passed=ok,
        expected=f"first at 14, doubles {DOUBLE_INTERVALS_300}, triples {TRIPLE_INTERVALS_6500}",
        got=f"first at {first or 'none'}, doubles {doubles}, triples {triples}",
        tolerance="exact",
        detail=detail or "doubles list corrected per ledger (224, 231 for the transcribed 223)",
    )


def check_count_consistency(zero_list: zmod.ZeroList) -> CheckResult:
    """Cumulative zero counts must track the smooth phase within 2."""
    checkpoints = np.append(np.arange(250.0, int(zero_list.t_hi) + 1, 250.0), zero_list.t_hi)
    below = np.searchsorted(zero_list.ordinates, checkpoints, side="right")
    gaps = np.abs(below - zmod.smooth_count(checkpoints))
    worst, worst_t = int(gaps.max()), float(checkpoints[gaps.argmax()])
    return CheckResult(
        name="count consistency",
        passed=worst <= 2,
        expected="counts within 2 of the smooth phase at all checkpoints",
        got=f"worst gap {worst} at t = {worst_t:g}",
        tolerance="2",
    )


def check_staircase_anomaly(zero_list: zmod.ZeroList) -> CheckResult:
    jumps = estimate.staircase_jumps(1009)
    f = zmod.interval_counts(zero_list.ordinates, 0, 1010)
    mismatch = [n for n in range(1, 1009) if jumps[n - 1] != f[n]]
    cum_900 = int(jumps[:900].sum()) == int(f[1:901].sum())
    shape = (mismatch == [1007, 1008]
             and jumps[1006] == 2 and f[1007] == 0
             and jumps[1007] == 0 and f[1008] == 2)
    return CheckResult(
        name="staircase anomaly",
        passed=cum_900 and shape,
        expected="exact counts to 900; the pair of [1008, 1009) attributed one step early",
        got=f"cumulative-900 match: {cum_900}, mismatches {mismatch}",
        tolerance="exact",
        detail="level sequence skips one value between 1007 and 1008",
    )


def check_lambert_band(zero_list: zmod.ZeroList) -> CheckResult:
    ys = zero_list.ordinates
    if len(ys) < 1000:
        return CheckResult("lambert band", False, "1000 ordinates", f"{len(ys)}", "")
    worst = max(abs(estimate.zero_estimate_lambert(n) - ys[n - 1])
                for n in range(1, 1001))
    return CheckResult(
        name="lambert band",
        passed=worst < 1.0,
        expected="estimates within 1 of ordinates 1..1000",
        got=f"worst {worst:.4f}",
        tolerance="1",
    )


def _log_grid() -> list[int]:
    pts = np.logspace(math.log10(50.0), 4.0, 25)
    return sorted(set(int(round(g)) for g in pts))


def check_phase_residual() -> CheckResult:
    worst = 0.0
    for n in _log_grid():
        lhs = abs(argexpr.corrected_approx(n, 4)
                  - (round(argexpr.main_term(n)) - 1.0 - special.theta_exact(n) / math.pi))
        worst = max(worst, lhs)
    return CheckResult(
        name="phase residual",
        passed=worst <= 1e-12,
        expected="order-4 corrected approximation matches the exact phase",
        got=f"worst {worst:.3e} over {len(_log_grid())} heights in [50, 10000]",
        tolerance="1e-12",
    )


def check_symbolic_closure() -> CheckResult:
    worst = 0.0
    for n in range(1, 10001):
        gap = abs(argexpr.symbolic_expression(n).evaluate() - argexpr.approx_arg_zeta(n))
        worst = max(worst, gap)
    seq_ok = (tuple(argexpr.coeff_sequence(2, 8)) == LN2_COEFF_PREFIX
              and tuple(argexpr.coeff_sequence(3, 9)) == LN3_COEFF_PREFIX
              and tuple(argexpr.ruler_normalized(2, n) for n in range(1, 9)) == RULER2_PREFIX
              and tuple(argexpr.ruler_normalized(3, n) for n in range(1, 10)) == RULER3_PREFIX)
    return CheckResult(
        name="symbolic closure",
        passed=worst <= 1e-12 and seq_ok,
        expected="symbolic = numeric for n <= 10^4; four pinned sequence prefixes",
        got=f"worst gap {worst:.3e}, prefixes match: {seq_ok}",
        tolerance="1e-12, prefixes exact",
    )


def check_carriers() -> CheckResult:
    g1 = estimate.carrier_g(1)
    g2 = estimate.carrier_g(2)
    s1 = g1 + special.arg_zeta_principal(1.0)
    worst = max(abs(g1 - 0.92333784), abs(g2 - 0.69231130), abs(s1 - 0.48596584))
    return CheckResult(
        name="carriers",
        passed=worst <= 1e-7,
        expected="0.92333784, 0.69231130, 0.48596584",
        got=f"{g1:.8f}, {g2:.8f}, {s1:.8f}",
        tolerance="1e-7",
    )


def check_counters() -> CheckResult:
    b_zeros = zmod.bessel_j0_zeros(80)
    a_zeros = zmod.airy_neg_zeros(700)
    b_oracle = zmod.interval_counts(b_zeros, 1, 201)
    a_oracle = zmod.interval_counts(a_zeros, 1, 201)
    corrected_ok = all(zmod.bessel_j0_counter_corrected(n) == b_oracle[n - 1]
                       and zmod.airy_counter_corrected(n) == a_oracle[n - 1]
                       for n in range(1, 201))
    b_first = zmod.first_missed_zero(zmod.divergence_report("bessel", 60))
    a_first = zmod.first_missed_zero(zmod.divergence_report("airy", 60))
    return CheckResult(
        name="counters vs oracles",
        passed=corrected_ok and b_first == 8 and a_first == 6,
        expected="corrected match to 200; literal forms first miss at 8 and 6",
        got=f"corrected match: {corrected_ok}, first misses {b_first}, {a_first}",
        tolerance="exact",
    )


def check_beat_and_render(zero_list: zmod.ZeroList,
                          partitioned: zmod.ZeroList | None = None) -> CheckResult:
    beat = render.beat_width(1000.0)
    beat_ok = 9064.0 < beat < 9065.0
    img = render.render_counts(_census_counts(zero_list), 4000)
    again = render.render_counts(_census_counts(zero_list), 4000)
    stable = img.to_pgm_bytes() == again.to_pgm_bytes()
    partition_note = "partitioned scan not compared"
    if partitioned is not None:
        # Z(t) does not depend on its batch, so the partitioned scan finds
        # the same ordinates; they are compared as the cache writes them, so
        # that a census read back from a cache compares too.
        same = [f"{y:.12f}" for y in zero_list.ordinates] == [
            f"{y:.12f}" for y in partitioned.ordinates]
        other = render.render_counts(_census_counts(partitioned), 4000)
        stable = stable and same and img.to_pgm_bytes() == other.to_pgm_bytes()
        partition_note = "compared with the partitioned scan's ordinates and render"
    return CheckResult(
        name="beat and render",
        passed=beat_ok and stable,
        expected="beat in (9064, 9065); byte-stable rendering",
        got=f"beat {beat:.4f}, stable: {stable}",
        tolerance="exact",
        detail=partition_note,
    )


# (name, needs the zero census, check) in output order; census checks get
# (zero_list, partitioned, scan_seconds).
_CHECKS: tuple[tuple[str, bool, Callable[..., CheckResult]], ...] = (
    ("table rows", False, check_table_rows),
    ("gamma point", False, check_gamma_point),
    ("point 4000", False, check_point_4000),
    ("phase residual", False, check_phase_residual),
    ("symbolic closure", False, check_symbolic_closure),
    ("carriers", False, check_carriers),
    ("counters vs oracles", False, check_counters),
    ("census landmarks", True, lambda zl, part, secs: check_census_landmarks(zl, secs)),
    ("count consistency", True, lambda zl, part, secs: check_count_consistency(zl)),
    ("staircase anomaly", True, lambda zl, part, secs: check_staircase_anomaly(zl)),
    ("lambert band", True, lambda zl, part, secs: check_lambert_band(zl)),
    ("beat and render", True, lambda zl, part, secs: check_beat_and_render(zl, part)),
)


def run_checks(only: str | None = None,
               zero_list: zmod.ZeroList | None = None,
               partitioned: zmod.ZeroList | None = None) -> list[CheckResult]:
    """Run the acceptance checks, optionally filtered by name substring.

    Checks that need the zero census receive `zero_list`; when it is None
    and they are selected, a full scan over [0, 6501] is performed once.
    """
    results = []
    scan_seconds = None
    for name, needs_zeros, fn in _CHECKS:
        if only is not None and only not in name:
            continue
        if not needs_zeros:
            results.append(fn())
            continue
        if zero_list is None:
            t0 = time.perf_counter()
            zero_list = zmod.scan_zeros(zmod.ScanConfig(t_lo=0.0, t_hi=CENSUS_T_HI))
            scan_seconds = time.perf_counter() - t0
        results.append(fn(zero_list, partitioned, scan_seconds))
    return results
