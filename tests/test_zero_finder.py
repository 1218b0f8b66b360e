"""Tests for zero scanning, unit-interval counting, and counter models.

Ordinate references are frozen from mp.zetazero at 25 digits; counter
oracles come from scipy Bessel and Airy zero finders.
"""

import hashlib
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zetaphase.special as special
import zetaphase.zeros as zeros_module
from zetaphase import (
    CoverageError,
    ScanConfig,
    UnitIntervalCounts,
    ZeroList,
    airy_counter,
    airy_counter_corrected,
    airy_neg_zeros,
    bessel_j0_counter,
    bessel_j0_counter_corrected,
    bessel_j0_zeros,
    counter_from_counting_function,
    divergence_report,
    first_missed_zero,
    floor_counter,
    hardy_z,
    interval_counts,
    point_density_zeta,
    read_zero_cache,
    scan_zeros,
    smooth_count,
    unit_interval_counts,
    write_zero_cache,
)
from zetaphase.zeros import SCAN_STEP

# The [0, 6501] census as frozen for the benchmark, in cache format.
REFERENCE_CENSUS = (Path(__file__).resolve().parents[1]
                    / "perfbench" / "reference" / "census_0_6501.txt")

# mp.zetazero imaginary parts, 25-digit evaluation rounded to double.
FIRST_ORDINATES = [
    14.134725141734694,
    21.022039638771555,
    25.010857580145689,
    30.424876125859513,
    32.935061587739190,
    37.586178158825671,
    40.918719012147495,
    43.327073280914999,
    48.005150881167160,
    49.773832477672302,
    52.970321477714461,
    56.446247697063395,
    59.347044002602354,
]

# The six pairs of consecutive zeros below 1e4 closer than the scan step,
# from mp.findroot on mp.siegelz at 25 digits.
NARROW_PAIRS = [
    (1977.17394369804, 1977.27144619975),
    (4292.72644497523, 4292.81726339051),
    (5229.19855719922, 5229.24181125900),
    (6093.19233532557, 6093.28342681768),
    (7005.06286617492, 7005.10056467265),  # Lehmer's pair
    (9793.54999929204, 9793.64761879251),
]

# The zeros in [t_lo, t_lo + 1] of the windows of
# TestRefinement::test_against_mpmath_oracle, mp.findroot on
# mp.siegelz at 20 digits from each scanned ordinate, rounded to double:
#     with mpmath.workdps(20):
#         [float(mpmath.findroot(mpmath.siegelz, y))
#          for y in scan_zeros(ScanConfig(t_lo, t_lo + 1.0)).ordinates]
ORACLE_ORDINATES = {
    3045.5: [3046.050030224876, 3046.4545042192885],
    3882.5: [3882.8999925504704],
    6213.5: [6213.799999957367],
    1977.0: [1977.17394369804, 1977.2714461997466],
    4292.0: [4292.726444975231, 4292.817263390514],
    5229.0: [5229.19855719922, 5229.241811258999],
    6093.0: [6093.192335325568, 6093.2834268176775],
    7005.0: [7005.062866174921, 7005.100564672647],
    9793.0: [9793.549999292038, 9793.647618792513],
}


class TestScanConfig:
    def test_defaults(self):
        # The lattice step and the bracket width are constants, recorded
        # on every scanned list for the cache header.
        zeros = scan_zeros(ScanConfig(0.0, 14.0))
        assert (zeros.step, zeros.refine_tol) == (0.1, 1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScanConfig(t_lo=-1.0, t_hi=50.0)
        with pytest.raises(ValueError):
            ScanConfig(t_lo=50.0, t_hi=50.0)
        with pytest.raises(ValueError):
            ScanConfig(t_lo=0.0, t_hi=10001.0)


class TestScanZeros:
    def test_first_fifty(self):
        zeros = scan_zeros(ScanConfig(t_lo=0.0, t_hi=50.0))
        assert zeros.count == 10
        assert [int(y) for y in zeros.ordinates[:4]] == [14, 21, 25, 30]
        for got, want in zip(zeros.ordinates, FIRST_ORDINATES):
            assert got == pytest.approx(want, abs=5e-9)
        assert zeros.suspect_intervals == ()
        assert zeros.source == "scanned"

    def test_empty_below_first_zero(self):
        zeros = scan_zeros(ScanConfig(t_lo=0.0, t_hi=14.0))
        assert zeros.count == 0
        assert zeros.ordinates.size == 0

    def test_twenty_nine_below_hundred(self):
        zeros = scan_zeros(ScanConfig(t_lo=0.0, t_hi=100.0))
        assert zeros.count == 29

    def test_ordinates_are_actual_roots(self):
        zeros = scan_zeros(ScanConfig(t_lo=0.0, t_hi=60.0))
        for y in zeros.ordinates:
            assert abs(hardy_z(y)) < 1e-6

    def test_partial_window(self):
        zeros = scan_zeros(ScanConfig(t_lo=20.0, t_hi=50.0))
        assert zeros.count == 9
        assert zeros.ordinates[0] == pytest.approx(FIRST_ORDINATES[1], abs=5e-9)

    def test_determinism(self):
        a = scan_zeros(ScanConfig(t_lo=100.0, t_hi=200.0))
        b = scan_zeros(ScanConfig(t_lo=100.0, t_hi=200.0))
        assert np.array_equal(a.ordinates, b.ordinates)

    def test_all_zeros_below_ten_thousand(self):
        # Only the six NARROW_PAIRS below 1e4 are narrower than the 0.1
        # step, and a lattice point splits each pair.
        zeros = scan_zeros(ScanConfig(0.0, 1e4))
        assert zeros.count == mpmath.nzeros(10000) == 10142
        assert zeros.suspect_intervals == ()
        narrow = np.flatnonzero(np.diff(zeros.ordinates) < SCAN_STEP)
        assert zeros.ordinates[narrow] == pytest.approx([lo for lo, _ in NARROW_PAIRS], abs=1e-9)

    @pytest.mark.parametrize("lo, hi", NARROW_PAIRS)
    def test_one_lattice_point_splits_each_narrow_pair(self, lo, hi):
        k = np.arange(math.floor(lo / SCAN_STEP) - 1, math.ceil(hi / SCAN_STEP) + 2)
        lattice = k * SCAN_STEP
        assert np.count_nonzero((lattice > lo) & (lattice < hi)) == 1

    def test_riemann_siegel_window_ordinates_are_roots(self):
        zeros = scan_zeros(ScanConfig(t_lo=1000.0, t_hi=1020.0))
        assert zeros.count == 16
        for y in zeros.ordinates:
            assert abs(hardy_z(y)) < 1e-6


class TestRefinement:
    def test_evaluation_budget(self, monkeypatch):
        # After the lattice's call, each bracket takes the closing pair
        # around its interpolated root, 2 evaluations in one call for all
        # brackets; the few that the pair misses take one more pair from its
        # Newton point.
        evaluated = []
        accurate = zeros_module.hardy_z

        def counting(ts):
            evaluated.append(np.size(ts))
            return accurate(ts)

        monkeypatch.setattr(zeros_module, "hardy_z", counting)
        cases = [
            (1000.0, 1100.0, 81),
            (3000.0, 3100.0, 98),  # old fast-sampler sign error near 3046.05
        ]
        for t_lo, t_hi, count in cases:
            evaluated.clear()
            zeros = scan_zeros(ScanConfig(t_lo=t_lo, t_hi=t_hi))
            assert zeros.count == count
            refined = evaluated[1:]
            assert sum(refined) <= 3 * zeros.count, (t_lo, sum(refined))
            assert np.count_nonzero(refined) <= 3, (t_lo, evaluated)

    def test_newton_round_when_estimate_misses(self, monkeypatch):
        # Lattice values 1e-6 off move every interpolated root far more than
        # the closing pair's 0.9 refine_tol, so every bracket goes on to a
        # round from its pair's Newton point, which must reach the same
        # ordinates in at most two more hardy_z calls.
        config = ScanConfig(t_lo=600.0, t_hi=610.0)
        calls = []
        accurate = zeros_module.hardy_z

        def counting(ts):
            calls.append(np.size(ts))
            return accurate(ts)

        monkeypatch.setattr(zeros_module, "hardy_z", counting)
        want = scan_zeros(config).ordinates
        unperturbed_calls = np.count_nonzero(calls)
        calls.clear()

        def perturbed(ts):
            lattice = not calls  # the first call is the lattice's
            return counting(ts) + (1e-6 if lattice else 0.0)

        monkeypatch.setattr(zeros_module, "hardy_z", perturbed)
        got = scan_zeros(config).ordinates
        assert unperturbed_calls < np.count_nonzero(calls) <= unperturbed_calls + 2
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("root", [0.02, 0.07, 0.1, 0.33])
    def test_bracket_near_origin(self, monkeypatch, root):
        # Below t = 5 * step the lattice has fewer than 5 samples under the
        # bracket, so its estimate is the secant point, exact for a linear Z:
        # the closing pair needs no second round.  0.1 is a lattice point.
        # The calls are the grid's and the closing pair's.
        calls = []

        def linear(ts):
            calls.append(np.size(ts))
            return np.asarray(ts, dtype=np.float64) - root

        _patch_evaluators(monkeypatch, lambda _: linear)
        zeros = scan_zeros(ScanConfig(t_lo=0.0, t_hi=1.0))
        assert zeros.ordinates.tolist() == pytest.approx([root], abs=1e-15)
        assert np.count_nonzero(calls) <= 2, calls

    def test_exact_zero_taken_as_root(self, monkeypatch):
        # The start puts the pair's lower point on the root itself.
        evaluated = []

        def linear(ts):
            evaluated.append(np.array(ts))
            return np.asarray(ts) - 10.25

        monkeypatch.setattr(zeros_module, "hardy_z", linear)
        roots = zeros_module._refine(np.array([10.0]), np.array([10.5]), np.array([-0.25]),
                                     np.array([0.25]), np.array([10.25 + 0.45 * 1e-9]), 1e-9)
        assert roots.tolist() == [10.25]
        assert len(evaluated) == 1 and 10.25 in evaluated[0]

    def test_sign_step_closed_by_midpoints(self, monkeypatch):
        # A +-1 step has a flat secant, so every next x is a midpoint: 29
        # halvings close [10, 10.5] to 1e-9.
        monkeypatch.setattr(
            zeros_module, "hardy_z", lambda ts: np.where(np.asarray(ts) < 10.3, -1.0, 1.0)
        )
        roots = zeros_module._refine(np.array([10.0]), np.array([10.5]), np.array([-1.0]),
                                     np.array([1.0]), np.array([10.0]), 1e-9)
        assert abs(roots[0] - 10.3) <= 1e-9

    def test_unclosed_bracket_raises(self, monkeypatch):
        # A sign step between adjacent doubles cannot be closed to 1e-30.
        monkeypatch.setattr(
            zeros_module, "hardy_z", lambda ts: np.where(np.asarray(ts) < 10.3, -1.0, 1.0)
        )
        with pytest.raises(ArithmeticError):
            zeros_module._refine(np.array([10.0]), np.array([10.5]), np.array([-1.0]),
                                 np.array([1.0]), np.array([10.25]), 1e-30)

    def test_closest_pair_calls(self, monkeypatch):
        # On [5229, 5230], gap 0.0433, the upper bracket's interpolated
        # start lands on the lower zero, outside its bracket, and on
        # [7005, 7006], gap 0.0377, the lower one's on the upper zero: a
        # midpoint round comes before the Newton rounds that close it.
        calls = []
        accurate = zeros_module.hardy_z

        def counting(ts):
            calls.append(np.size(ts))
            return accurate(ts)

        monkeypatch.setattr(zeros_module, "hardy_z", counting)
        for t_lo in (5229.0, 7005.0):
            calls.clear()
            assert scan_zeros(ScanConfig(t_lo=t_lo, t_hi=t_lo + 1.0)).count == 2
            assert len(calls) <= 8, (t_lo, calls)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.data())
    def test_refine_batch_independent(self, data):
        # Partitioned scans are bit-identical only if no bracket's ordinate
        # depends on which others share its batch.  Four of the 107
        # brackets on [5000, 5100] need a second round.
        ts, _ = zeros_module._grid(5000.0, 5100.0)
        zs = zeros_module.hardy_z(ts)
        idx = np.flatnonzero(np.sign(zs[:-1]) * np.sign(zs[1:]) < 0)
        a, b, fa, fb = ts[idx], ts[idx + 1], zs[idx], zs[idx + 1]
        x0 = a + zeros_module._lattice_roots(zs, idx, fa / (fa - fb)) * (b - a)
        full = zeros_module._refine(a, b, fa, fb, x0, 1e-9)
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(a), max_size=len(a))))
        part = zeros_module._refine(a[keep], b[keep], fa[keep], fb[keep], x0[keep], 1e-9)
        assert np.array_equal(part, full[keep])

    @pytest.mark.parametrize("root", [10.25, 1000.25])
    def test_zero_on_lattice_reported_once(self, monkeypatch, root):
        # 10.25 lies in the Euler-Maclaurin range, 1000.25 in the
        # Riemann-Siegel one; both are lattice points.
        _patch_evaluators(monkeypatch, lambda _: lambda ts: np.asarray(ts, dtype=np.float64) - root)
        zeros = scan_zeros(ScanConfig(t_lo=root - 0.75, t_hi=root + 0.75))
        assert np.array_equal(zeros.ordinates, [root])

    def test_no_euler_maclaurin_rows_above_cutoff(self, monkeypatch):
        # From T_RS up, lattice samples and refinement steps alike go to
        # the Riemann-Siegel evaluator: every Euler-Maclaurin row lies below.
        rows = []
        kernel = special._zeta_em_chunk

        def recording(ts, *rest):
            rows.append(np.array(ts))
            return kernel(ts, *rest)

        monkeypatch.setattr(special, "_zeta_em_chunk", recording)
        zeros = scan_zeros(ScanConfig(t_lo=0.0, t_hi=2001.0))
        assert zeros.count == 1519
        evaluated = np.concatenate(rows)
        assert evaluated.size > 0 and evaluated.max() < special.T_RS

    @pytest.mark.parametrize(
        "t_lo, t_hi, count",
        [(14.0, 14.14, 1), (14.12, 14.16, 1), (21.0, 21.03, 1), (14.14, 14.2, 0)],
    )
    def test_zero_between_edge_and_lattice(self, t_lo, t_hi, count):
        # 14.1347 and 21.0220 lie between a window edge and its nearest lattice point.
        zeros = scan_zeros(ScanConfig(t_lo=t_lo, t_hi=t_hi))
        assert zeros.count == count

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(st.floats(min_value=14.0, max_value=6500.0))
    def test_public_z_changes_sign_at_each_ordinate(self, a):
        tol = zeros_module._REFINE_TOL
        for y in scan_zeros(ScanConfig(t_lo=a, t_hi=a + 1.0)).ordinates:
            assert hardy_z(y - tol) * hardy_z(y + tol) < 0.0, y

    @pytest.mark.parametrize(
        "t_lo, count",
        [
            (3045.5, 2),  # old fast-sampler sign error near 3046.05
            (3882.5, 1),  # old fast-sampler sign error near 3882.9
            (6213.5, 1),  # old fast-sampler sign error near 6213.8
            (1977.0, 2),  # 1977.1739 and 1977.2714, gap 0.0975
            (4292.0, 2),  # 4292.7264 and 4292.8173, gap 0.0908
            (5229.0, 2),  # 5229.1986 and 5229.2419, gap 0.0433
            (6093.0, 2),  # 6093.1923 and 6093.2834, gap 0.0911
            (7005.0, 2),  # Lehmer's pair, 7005.0629 and 7005.1006: the closest below 1e4
            (9793.0, 2),  # 9793.5500 and 9793.6476, gap 0.0976
        ],
    )
    def test_against_mpmath_oracle(self, t_lo, count):
        zeros = scan_zeros(ScanConfig(t_lo=t_lo, t_hi=t_lo + 1.0))
        assert zeros.count == count == len(ORACLE_ORDINATES[t_lo])
        assert zeros.suspect_intervals == ()
        assert np.max(np.abs(zeros.ordinates - ORACLE_ORDINATES[t_lo])) <= 1e-9



def _patch_evaluators(monkeypatch, wrap):
    """Replace the evaluator the scanner calls by wrap(evaluator)."""
    monkeypatch.setattr(zeros_module, "hardy_z", wrap(zeros_module.hardy_z))


def _thirds(evaluator):
    """evaluator with Z on [6000, 6010] replaced by one with a zero every third of a unit.

    That is 3 zeros per interval where 1 or 2 are predicted, so the
    intervals there are flagged, and suspect once the surplus has
    accumulated.  Every integer in [6000, 6010] is a zero.
    """
    def sabotaged(ts):
        ts = np.asarray(ts, dtype=np.float64)
        zs = evaluator(ts)
        inside = (ts >= 6000.0) & (ts <= 6010.0)
        return np.where(inside, np.sin(3.0 * np.pi * ts) * (np.abs(zs) + 0.5), zs)
    return sabotaged


class TestSuspectRule:
    # The suspect rule on the unit intervals whose count is off the
    # smooth-phase prediction, under a Z sabotaged on [6000, 6010].

    @pytest.mark.parametrize(
        "t_lo, t_hi",
        [
            (5995.0, 6015.0),  # ten adjacent flagged intervals
            (6003.5, 6012.0),  # the first flagged interval clipped by t_lo
            (5990.0, 6004.5),  # the last flagged interval clipped by t_hi
        ],
    )
    def test_sabotaged_scan_counts_and_suspects(self, monkeypatch, t_lo, t_hi):
        # Frozen counts and suspects: the flagged intervals at whose end the
        # cumulative count has also drifted from the smooth count by the limit.
        count, suspects = {
            5995.0: (43, (6000, 6002, 6003, 6004, 6005, 6006, 6007, 6008, 6009)),
            6003.5: (22, (6005, 6006, 6007, 6008, 6009)),
            5990.0: (25, (6002, 6003)),
        }[t_lo]
        _patch_evaluators(monkeypatch, _thirds)
        zeros = scan_zeros(ScanConfig(t_lo=t_lo, t_hi=t_hi))
        assert zeros.count == count
        assert zeros.suspect_intervals == suspects

    def test_ordinate_on_integer_kept_once(self, monkeypatch):
        # The zeros on 6000, ..., 6010 come out exactly on the integers and
        # each is kept once.
        want = scan_zeros(ScanConfig(t_lo=5995.0, t_hi=6015.0)).ordinates
        _patch_evaluators(monkeypatch, _thirds)
        zeros = scan_zeros(ScanConfig(t_lo=5995.0, t_hi=6015.0))
        ys = zeros.ordinates
        inside = (ys > 5999.99) & (ys < 6010.01)
        assert ys[inside] == pytest.approx(np.arange(18000, 18031) / 3.0, abs=1e-9)
        assert {6008.0, 6009.0} <= set(ys.tolist())
        assert ys[~inside] == pytest.approx(want[(want < 6000.0) | (want > 6010.0)], abs=1e-9)
        assert zeros.count == 43

    def test_flagged_intervals_add_no_evaluator_calls(self, monkeypatch):
        # [0, 2001] flags 36 intervals, which the suspect rule reads off the
        # counts alone: one hardy_z call for the lattice, one for the
        # closing pairs, then three Newton rounds for the three brackets whose
        # first pair misses its root (1329.0435, 1977.1739 and 1977.2714,
        # which takes all three).
        calls = []

        def counting(evaluator):
            def counted(ts):
                calls.append(np.size(ts))
                return evaluator(ts)
            return counted

        _patch_evaluators(monkeypatch, counting)
        assert scan_zeros(ScanConfig(t_lo=0.0, t_hi=2001.0)).count == 1519
        assert calls == [20017, 3038, 6, 2, 2]

    def test_one_theta_vec_call_per_scan(self, monkeypatch):
        # One smooth_count call gives the prediction at every integer height
        # of the window and the count at t_lo.
        calls = []
        theta_vec = zeros_module.theta_vec

        def counting(ts):
            calls.append(np.size(ts))
            return theta_vec(ts)

        monkeypatch.setattr(zeros_module, "theta_vec", counting)
        for t_lo, t_hi in [(0.0, 50.0), (195.0, 205.0), (5000.5, 5002.5), (0.0, 10.0)]:
            calls.clear()
            scan_zeros(ScanConfig(t_lo=t_lo, t_hi=t_hi))
            assert len(calls) == 1, (t_lo, calls)


class TestZeroList:
    def test_count_below(self):
        zeros = scan_zeros(ScanConfig(t_lo=0.0, t_hi=50.0))
        assert zeros.count_below(14.0) == 0
        assert zeros.count_below(15.0) == 1
        assert zeros.count_below(50.0) == 10

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ZeroList(
                ordinates=(20.0, 15.0),
                source="ingested",
                t_lo=0.0,
                t_hi=30.0,
                step=0.05,
                refine_tol=1e-9,
                suspect_intervals=(),
            )

    @pytest.mark.parametrize("ordinates, t_hi", [
        ([1.0, math.inf, math.inf], math.inf),
        ([1.0, math.inf, math.inf], 3.0),
        ([1.0, math.inf], math.inf),
        ([1.0, 2.5], math.inf),
        ([1.0, math.nan, 2.0], 3.0),
        ([math.nan], 3.0),
    ])
    def test_non_finite_rejected(self, ordinates, t_hi):
        with pytest.raises(ValueError):
            ZeroList(ordinates, "ingested", 0.0, t_hi)

    def test_ordinates_read_only(self):
        zeros = ZeroList(ordinates=[14.1, 21.0], source="ingested", t_lo=0.0, t_hi=30.0)
        assert zeros.ordinates.dtype == np.float64
        with pytest.raises(ValueError):
            zeros.ordinates[0] = 15.0

    def test_input_copied(self):
        ys = np.array([14.1, 21.0])
        zeros = ZeroList(ordinates=ys, source="ingested", t_lo=0.0, t_hi=30.0)
        ys[0] = 15.0
        assert zeros.ordinates[0] == 14.1

    def test_merge_requires_abutting_coverage(self):
        a = scan_zeros(ScanConfig(t_lo=0.0, t_hi=30.0))
        b = scan_zeros(ScanConfig(t_lo=30.0, t_hi=60.0))
        c = scan_zeros(ScanConfig(t_lo=70.0, t_hi=90.0))
        merged = a.merge(b)
        assert merged.t_lo == 0.0 and merged.t_hi == 60.0
        assert merged.count == a.count + b.count
        with pytest.raises(ValueError):
            merged.merge(c)

    def test_merge_requires_same_source(self):
        a = scan_zeros(ScanConfig(t_lo=0.0, t_hi=30.0))
        b = scan_zeros(ScanConfig(t_lo=30.0, t_hi=60.0))
        foreign = ZeroList(
            ordinates=b.ordinates,
            source="ingested",
            t_lo=b.t_lo,
            t_hi=b.t_hi,
            step=b.step,
            refine_tol=b.refine_tol,
            suspect_intervals=(),
        )
        with pytest.raises(ValueError):
            a.merge(foreign)

    def test_merge_keeps_shared_endpoint_ordinate_once(self, monkeypatch):
        # Both scans keep the ordinate on their shared end t = 100.
        _patch_evaluators(monkeypatch, lambda _: lambda ts: np.asarray(ts, dtype=np.float64) - 100.0)
        lower = scan_zeros(ScanConfig(t_lo=99.0, t_hi=100.0))
        upper = scan_zeros(ScanConfig(t_lo=100.0, t_hi=101.0))
        assert lower.ordinates.tolist() == upper.ordinates.tolist() == [100.0]
        assert lower.merge(upper).ordinates.tolist() == [100.0]
        assert upper.merge(lower).ordinates.tolist() == [100.0]


class TestZeroCache:
    def test_roundtrip(self, tmp_path):
        zeros = scan_zeros(ScanConfig(t_lo=0.0, t_hi=60.0))
        path = tmp_path / "zeros.txt"
        write_zero_cache(zeros, path)
        loaded = read_zero_cache(path)
        assert loaded.source == "ingested"
        assert loaded.t_lo == zeros.t_lo and loaded.t_hi == zeros.t_hi
        assert len(loaded.ordinates) == len(zeros.ordinates)
        for a, b in zip(loaded.ordinates, zeros.ordinates):
            assert a == pytest.approx(b, abs=1e-12)

    def test_census_bytes_frozen(self, tmp_path):
        # The whole file: the header, generator line included, and the
        # 1,519 ordinates of [0, 2001] at 12 decimals.
        path = tmp_path / "zeros.txt"
        write_zero_cache(scan_zeros(ScanConfig(t_lo=0.0, t_hi=2001.0)), path)
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == "f6b371ceefd673d019fa0df84c1577f83af3c4298034e55c33261aee78b14a4c")

    def test_rewrite_is_byte_identical(self, tmp_path):
        zeros = scan_zeros(ScanConfig(t_lo=0.0, t_hi=60.0))
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        write_zero_cache(zeros, p1)
        write_zero_cache(zeros, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_line_reported_with_number(self, tmp_path):
        zeros = scan_zeros(ScanConfig(t_lo=0.0, t_hi=50.0))
        path = tmp_path / "zeros.txt"
        write_zero_cache(zeros, path)
        lines = path.read_text().splitlines()
        lines[8] = "not-a-number"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":9: not an ordinate"):
            read_zero_cache(path)

    @pytest.mark.parametrize(
        "key, lineno", [("range", 4), ("step", 5), ("refine_tol", 6), ("count", 7)]
    )
    def test_malformed_header_reported_with_number(self, tmp_path, key, lineno):
        zeros = ZeroList(ordinates=(14.1, 21.0), source="scanned", t_lo=0.0, t_hi=30.0,
                         step=0.05, refine_tol=1e-9)
        path = tmp_path / "zeros.txt"
        write_zero_cache(zeros, path)
        lines = path.read_text().splitlines()
        assert lines[lineno - 1].startswith(f"# {key}:")
        lines[lineno - 1] = f"# {key}: two"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f":{lineno}: bad {key} comment"):
            read_zero_cache(path)

    def test_out_of_order_rejected(self, tmp_path):
        zeros = scan_zeros(ScanConfig(t_lo=0.0, t_hi=50.0))
        path = tmp_path / "zeros.txt"
        write_zero_cache(zeros, path)
        lines = path.read_text().splitlines()
        first = next(i for i, s in enumerate(lines) if s and s[0].isdigit() and "." in s)
        lines[first], lines[first + 1] = lines[first + 1], lines[first]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_zero_cache(path)

    def test_declared_count_mismatch_rejected(self, tmp_path):
        zeros = scan_zeros(ScanConfig(t_lo=0.0, t_hi=50.0))
        path = tmp_path / "zeros.txt"
        write_zero_cache(zeros, path)
        lines = path.read_text().splitlines()
        del lines[-1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_zero_cache(path)

    def test_missing_range_covers_last_ordinate(self, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("# zetaphase zero cache v1\n14.134725141735\n21.022039638772\n")
        loaded = read_zero_cache(path)
        assert np.array_equal(loaded.ordinates, [14.134725141735, 21.022039638772])
        assert loaded.t_lo == 0.0
        assert loaded.t_hi == 21.022039638772

    @pytest.mark.parametrize("t_lo, t_hi", [(14.0, 14.1347252), (14.13472514, 14.2)])
    def test_range_round_trips(self, tmp_path, t_lo, t_hi):
        # A six-decimal header would put the first zero outside the first
        # window's range and claim unscanned coverage for the second.
        zeros = scan_zeros(ScanConfig(t_lo=t_lo, t_hi=t_hi))
        assert zeros.count == 1
        path = tmp_path / "zeros.txt"
        write_zero_cache(zeros, path)
        loaded = read_zero_cache(path)
        assert (loaded.t_lo, loaded.t_hi) == (t_lo, t_hi)
        assert loaded.ordinates[0] == pytest.approx(zeros.ordinates[0], abs=1e-12)

    @pytest.mark.parametrize("t_hi", [14.134725141734696, 14.134725141734897])
    def test_ordinate_rounding_past_range_end(self, tmp_path, t_hi):
        # The first zero, 14.134725141734696, is written as 14.134725141735,
        # above either window's end; the written range widens to cover it.
        zeros = scan_zeros(ScanConfig(t_lo=14.0, t_hi=t_hi))
        assert zeros.count == 1
        path = tmp_path / "zeros.txt"
        write_zero_cache(zeros, path)
        assert "# range: 14.000000 14.134725141735" in path.read_text().splitlines()
        loaded = read_zero_cache(path)
        assert (loaded.t_lo, loaded.t_hi) == (14.0, 14.134725141735)
        assert loaded.ordinates.tolist() == [14.134725141735]

    def test_whole_number_range_keeps_six_decimals(self, tmp_path):
        zeros = ZeroList(ordinates=(14.1,), source="scanned", t_lo=0.0, t_hi=6501.0)
        path = tmp_path / "zeros.txt"
        write_zero_cache(zeros, path)
        assert "# range: 0.000000 6501.000000" in path.read_text().splitlines()

    def test_coverage_error_names_file(self, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("# zetaphase zero cache v1\n# range: 0.000000 20.000000\n"
                        "14.134725141735\n21.022039638772\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: ordinate outside")):
            read_zero_cache(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("something else\n")
        with pytest.raises(ValueError):
            read_zero_cache(path)

    def test_bad_magic_with_valid_body_rejected(self, tmp_path):
        # Past its first non-empty line the file is a valid list of one zero.
        path = tmp_path / "zeros.txt"
        path.write_text("\n# not a zetaphase file\n14.134725141898\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: not a zero cache: "
                                                       "'# not a zetaphase file'")):
            read_zero_cache(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("\n")
        with pytest.raises(ValueError, match="not a zero cache"):
            read_zero_cache(path)


class TestUnitIntervalCounts:
    def test_coverage_must_span_requested_range(self):
        zeros = scan_zeros(ScanConfig(t_lo=0.0, t_hi=50.0))
        with pytest.raises(CoverageError):
            unit_interval_counts(zeros, 50)
        counts = unit_interval_counts(zeros, 49)
        assert counts.n_max == 49

    def test_small_window_counts(self):
        zeros = scan_zeros(ScanConfig(t_lo=0.0, t_hi=51.0))
        counts = unit_interval_counts(zeros, 50)
        assert counts.get(13) == 0
        assert counts.get(14) == 1
        assert counts.get(21) == 1
        assert counts.get(15) == 0
        assert counts.counts.sum() == 10
        nonzero = dict(counts.nonzero_items())
        assert set(nonzero) == {14, 21, 25, 30, 32, 37, 40, 43, 48, 49}
        with pytest.raises(ValueError):
            counts.get(0)

    def test_n_max_is_length(self):
        counts = UnitIntervalCounts(np.array([0, 1, 0, 2]))
        assert counts.n_max == len(counts.counts) == 4
        assert counts.nonzero_items() == [(2, 1), (4, 2)]

    def test_counts_read_only(self):
        counts = UnitIntervalCounts(np.array([0, 1, 0]))
        assert counts.counts.dtype == np.int64
        with pytest.raises(ValueError):
            counts.counts[0] = 5

    def test_input_copied(self):
        f = np.array([0, 1, 0])
        counts = UnitIntervalCounts(f)
        f[0] = 5
        assert counts.get(1) == 0

    @pytest.mark.parametrize(
        "bad",
        [np.array([0, -1, 2]), np.zeros((2, 3), dtype=np.int64), np.array([], dtype=np.int64),
         np.array([0.0, 1.5])],
        ids=["negative", "two-dimensional", "empty", "fractional"],
    )
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            UnitIntervalCounts(bad)


class TestIntervalCounts:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-3, max_value=30).map(float),
                st.floats(min_value=-3.0, max_value=30.0, allow_nan=False),
            ),
            max_size=40,
        ),
        st.integers(min_value=-2, max_value=20),
        st.integers(min_value=0, max_value=15),
    )
    def test_matches_brute_force(self, ordinates, n_lo, width):
        n_hi = n_lo + width
        got = interval_counts(ordinates, n_lo, n_hi)
        want = [sum(1 for y in ordinates if math.floor(y) == n) for n in range(n_lo, n_hi)]
        assert got.tolist() == want

    def test_empty_input(self):
        assert interval_counts((), 1, 4).tolist() == [0, 0, 0]
        assert interval_counts(np.empty(0), 5, 5).tolist() == []


class TestSmoothCount:
    # Intervals [n, n+1), 0 <= n < 60, where the rounded smooth phase steps
    # by one, frozen from the scanner's per-interval prediction.
    PREDICTED_ONE = {14, 20, 25, 29, 33, 37, 40, 43, 47, 50, 53, 56, 58}

    def test_scalar_and_array_agree(self):
        ts = np.array([0.0, 13.99, 14.0, 14.2, 100.0, 1009.5, 6501.0])
        arr = smooth_count(ts)
        assert arr.dtype == np.int64
        scalars = [smooth_count(float(t)) for t in ts]
        assert all(type(c) is int for c in scalars)
        assert arr.tolist() == scalars

    def test_zero_below_fourteen(self):
        assert smooth_count(np.linspace(0.0, 13.999, 200)).tolist() == [0] * 200
        assert smooth_count(14.0) == 0
        assert smooth_count(100.0) == 29

    @pytest.mark.parametrize("t", [math.nan, math.inf, np.array([100.0, math.nan])])
    def test_nan_and_infinity_rejected(self, t):
        with pytest.raises(ValueError):
            smooth_count(t)

    def test_frozen_prediction_on_first_edges(self):
        steps = np.diff(smooth_count(np.arange(0.0, 61.0)))
        want = [1 if n in self.PREDICTED_ONE else 0 for n in range(60)]
        assert steps.tolist() == want


class TestPointDensity:
    def test_formula(self):
        assert point_density_zeta(6500.0) == pytest.approx(1.3973, abs=1e-4)
        for n in (20.0, 100.0, 6000.0):
            assert point_density_zeta(n) == pytest.approx(
                math.log(n) / (2.0 * math.pi), rel=1e-14
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            point_density_zeta(2.0 * math.pi * math.e)

    @pytest.mark.parametrize("n", [math.nan, math.inf])
    def test_non_finite_rejected(self, n):
        with pytest.raises(ValueError):
            point_density_zeta(n)

    def test_tracks_running_mean(self, census_counts):
        # The measured mean count over [5000, 6000] sits ln(2 pi)/(2 pi)
        # below the ln(n)/(2 pi) figure, matching the smooth zero count.
        window = [census_counts.get(n) for n in range(5000, 6000)]
        mean = sum(window) / len(window)
        expected = point_density_zeta(5500.0) - math.log(2.0 * math.pi) / (
            2.0 * math.pi
        )
        assert mean == pytest.approx(expected, abs=0.02)


class TestFloorCounter:
    def test_golden_ratio_pattern(self):
        alpha = (math.sqrt(5.0) - 1.0) / 2.0
        got = [floor_counter(n, alpha) for n in range(12)]
        assert got == [0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1]

    def test_telescoping(self):
        alpha = 0.437
        total = sum(floor_counter(n, alpha) for n in range(200))
        assert total == math.floor(200 * alpha)


class TestOscillatorCounters:
    def test_bessel_literal_values(self):
        assert bessel_j0_counter(2) == 1
        assert bessel_j0_counter(3) == 0
        assert bessel_j0_counter(8) == 0

    def test_bessel_oracle_disagrees_at_eight(self):
        zeros = bessel_j0_zeros(80)
        in_interval = sum(1 for z in zeros if 8.0 <= z < 9.0)
        assert in_interval == 1
        assert bessel_j0_counter(8) == 0

    def test_counting_function_form(self):
        # The corrected counter is the floor difference of x/pi + 1/4.
        f = lambda x: x / math.pi + 0.25
        for n in range(1, 60):
            assert counter_from_counting_function(f, n) == (
                bessel_j0_counter_corrected(n)
            )

    def test_bessel_divergences(self):
        report = divergence_report("bessel", 200)
        assert report[:4] == [(6, 1, 0), (8, 0, 1), (9, 1, 0), (11, 0, 1)]
        assert first_missed_zero(report) == 8

    @staticmethod
    def _oracle_counts(zeros, n_max):
        arr = np.asarray(zeros)
        return {
            n: int(np.count_nonzero((arr >= n) & (arr < n + 1)))
            for n in range(1, n_max + 1)
        }

    def test_bessel_corrected_matches_oracle(self):
        oracle = self._oracle_counts(bessel_j0_zeros(70), 200)
        for n in range(1, 201):
            assert bessel_j0_counter_corrected(n) == oracle[n], n

    def test_airy_literal_values(self):
        assert airy_counter(2) == 1
        assert airy_counter(5) == 1
        assert airy_counter(6) == 0

    def test_airy_divergences(self):
        report = divergence_report("airy", 200)
        assert report[0] == (6, 0, 1)
        assert report[1] == (8, 1, 0)
        assert first_missed_zero(report) == 6

    def test_airy_corrected_matches_oracle(self):
        oracle = self._oracle_counts(airy_neg_zeros(620), 200)
        for n in range(1, 201):
            assert airy_counter_corrected(n) == oracle[n], n

    def test_scipy_backed_zero_tables(self):
        # First zeros of J0 and of Ai(-x), frozen from scipy refinement.
        j0 = bessel_j0_zeros(3)
        assert j0 == pytest.approx([2.4048255577, 5.5200781103, 8.6537279129], abs=1e-9)
        ai = airy_neg_zeros(3)
        assert ai == pytest.approx([2.3381074105, 4.0879494441, 5.5205598281], abs=1e-9)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            divergence_report("cosine", 50)


class TestCensusLandmarks:
    def test_totals(self, census_zeros):
        assert census_zeros.count == 6148
        assert census_zeros.suspect_intervals == ()

    def test_counts_shape(self, census_counts):
        values = {n: census_counts.get(n) for n in range(1, census_counts.n_max + 1)}
        assert max(values.values()) == 3
        assert all(values[n] == 0 for n in range(1, 14))
        assert values[14] == 1

    def test_double_intervals_below_three_hundred(self, census_counts):
        doubles = [n for n in range(1, 301) if census_counts.get(n) == 2]
        assert doubles == [111, 150, 169, 224, 231]

    def test_triple_intervals(self, census_counts):
        triples = [
            n
            for n in range(1, census_counts.n_max + 1)
            if census_counts.get(n) == 3
        ]
        assert triples == [5826, 5978, 6494]

    def test_close_pair_resolved(self, census_zeros):
        # The tightest gap in the window is narrower than the scan step,
        # and the lattice point 5229.20 between its members splits it.
        ords = np.asarray(census_zeros.ordinates)
        gaps = np.diff(ords)
        k = int(np.argmin(gaps))
        assert gaps[k] == pytest.approx(0.043254, abs=1e-4)
        assert ords[k] == pytest.approx(5229.199, abs=1e-2)

    def test_matches_frozen_reference(self, census_zeros):
        reference = read_zero_cache(REFERENCE_CENSUS)
        assert reference.count == census_zeros.count == 6148
        assert np.max(np.abs(census_zeros.ordinates - reference.ordinates)) <= 1e-9


class TestPartitionedScan:
    def test_same_census_from_chunks(self, census_zeros, partitioned_census):
        assert partitioned_census.count == census_zeros.count
        # Z(t) does not depend on its batch, so the ordinates are identical.
        assert np.array_equal(partitioned_census.ordinates, census_zeros.ordinates)

    def test_identical_interval_counts(self, census_counts, partitioned_census):
        other = unit_interval_counts(partitioned_census, census_counts.n_max)
        assert other.nonzero_items() == census_counts.nonzero_items()
