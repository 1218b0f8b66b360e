"""Tests for zero scanning, unit-interval counting, and counter models.

Ordinate references are frozen from mp.zetazero at 25 digits; counter
oracles come from scipy Bessel and Airy zero finders.
"""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestScanConfig:
    def test_defaults(self):
        config = ScanConfig(t_lo=0.0, t_hi=100.0)
        assert config.step == 0.05
        assert config.refine_tol == 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            ScanConfig(t_lo=-1.0, t_hi=50.0)
        with pytest.raises(ValueError):
            ScanConfig(t_lo=50.0, t_hi=50.0)
        with pytest.raises(ValueError):
            ScanConfig(t_lo=0.0, t_hi=10001.0)
        with pytest.raises(ValueError):
            ScanConfig(t_lo=0.0, t_hi=100.0, step=0.2)
        with pytest.raises(ValueError):
            ScanConfig(t_lo=0.0, t_hi=100.0, refine_tol=1e-3)


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

    def test_high_window_uses_fast_path(self):
        zeros = scan_zeros(ScanConfig(t_lo=1000.0, t_hi=1020.0))
        assert zeros.count == 16
        for y in zeros.ordinates:
            assert abs(hardy_z(y)) < 1e-6


class TestRefinement:
    def test_evaluation_budget(self, monkeypatch):
        # Bisection needs about 29 accurate evaluations per zero.
        evaluated = []
        accurate = zeros_module.hardy_z_vec

        def counting(ts):
            evaluated.append(np.size(ts))
            return accurate(ts)

        monkeypatch.setattr(zeros_module, "hardy_z_vec", counting)
        cases = [
            (1000.0, 1100.0, 81, 12),
            (3000.0, 3100.0, 98, 8),  # holds the fast-sampler sign error near 3046.05
        ]
        for t_lo, t_hi, count, per_zero in cases:
            evaluated.clear()
            zeros = scan_zeros(ScanConfig(t_lo=t_lo, t_hi=t_hi))
            assert zeros.count == count
            assert sum(evaluated) <= per_zero * zeros.count, (t_lo, sum(evaluated))

    def test_exact_zero_taken_as_root(self, monkeypatch):
        monkeypatch.setattr(zeros_module, "hardy_z_vec", lambda ts: np.asarray(ts) - 10.25)
        roots = zeros_module._refine(
            np.array([10.0]), np.array([10.5]), np.array([-0.25]), np.array([0.25]), 1e-9
        )
        assert roots.tolist() == [10.25]

    def test_unclosed_bracket_raises(self, monkeypatch):
        # A sign step between adjacent doubles cannot be closed to 1e-30.
        monkeypatch.setattr(
            zeros_module, "hardy_z_vec", lambda ts: np.where(np.asarray(ts) < 10.3, -1.0, 1.0)
        )
        with pytest.raises(ArithmeticError):
            zeros_module._refine(
                np.array([10.0]), np.array([10.5]), np.array([-1.0]), np.array([1.0]), 1e-30
            )

    @pytest.mark.parametrize("root", [10.25, 1000.25])
    def test_zero_on_lattice_reported_once(self, monkeypatch, root):
        # 10.25 is sampled by the Euler-Maclaurin evaluator, 1000.25 by the
        # Riemann-Siegel sampler; both are lattice points of step 0.05.
        def linear(ts):
            return np.asarray(ts, dtype=np.float64) - root

        monkeypatch.setattr(zeros_module, "hardy_z_vec", linear)
        monkeypatch.setattr(zeros_module, "_z_fast_vec", linear)
        zeros = scan_zeros(ScanConfig(t_lo=root - 0.75, t_hi=root + 0.75))
        assert np.array_equal(zeros.ordinates, [root])

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
        config = ScanConfig(t_lo=a, t_hi=a + 1.0)
        tol = config.refine_tol
        for y in scan_zeros(config).ordinates:
            assert hardy_z(y - tol) * hardy_z(y + tol) < 0.0, y

    @pytest.mark.parametrize(
        "t_lo, count",
        [
            (3045.5, 2),  # fast-sampler sign error near 3046.05
            (3882.5, 1),  # fast-sampler sign error near 3882.9
            (6213.5, 1),  # fast-sampler sign error near 6213.8
            (5229.0, 2),  # the closest pair, found by the quarter-step rescan
        ],
    )
    def test_against_mpmath_oracle(self, t_lo, count):
        zeros = scan_zeros(ScanConfig(t_lo=t_lo, t_hi=t_lo + 1.0))
        assert zeros.count == count
        assert zeros.suspect_intervals == ()
        with mpmath.workdps(20):
            for y in zeros.ordinates:
                assert abs(float(mpmath.findroot(mpmath.siegelz, y)) - y) <= 1e-9


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
        path.write_text("14.134725141735\n21.022039638772\n")
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

    def test_whole_number_range_keeps_six_decimals(self, tmp_path):
        zeros = ZeroList(ordinates=(14.1,), source="scanned", t_lo=0.0, t_hi=6501.0)
        path = tmp_path / "zeros.txt"
        write_zero_cache(zeros, path)
        assert "# range: 0.000000 6501.000000" in path.read_text().splitlines()

    def test_coverage_error_names_file(self, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("# range: 0.000000 20.000000\n14.134725141735\n21.022039638772\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: ordinate outside")):
            read_zero_cache(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("something else\n")
        with pytest.raises(ValueError):
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
        # so finding both members exercises the recheck pass.
        ords = np.asarray(census_zeros.ordinates)
        gaps = np.diff(ords)
        k = int(np.argmin(gaps))
        assert gaps[k] == pytest.approx(0.043254, abs=1e-4)
        assert ords[k] == pytest.approx(5229.199, abs=1e-2)


class TestPartitionedScan:
    def test_same_census_from_chunks(self, census_zeros, partitioned_census):
        assert partitioned_census.count == census_zeros.count
        # Z(t) does not depend on its batch, so the ordinates are identical.
        assert np.array_equal(partitioned_census.ordinates, census_zeros.ordinates)

    def test_identical_interval_counts(self, census_counts, partitioned_census):
        other = unit_interval_counts(partitioned_census, census_counts.n_max)
        assert other.nonzero_items() == census_counts.nonzero_items()
