"""Tests for zero scanning, unit-interval counting, and counter models.

Ordinate references are frozen from mp.zetazero at 25 digits; the counter
oracles are checked against 30-digit mp.besseljzero and mp.airyaizero.
"""

import functools
import hashlib
import math
import random
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_bit_pins import CACHE_2001

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

# The six pairs of consecutive zeros below 1e4 closer than the scan step of
# their band, from mp.findroot on mp.siegelz at 25 digits.
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


def _band_step(t):
    """The lattice step of the band that holds each t."""
    steps, starts = zip(*((h, k_lo * h) for h, k_lo, _ in zeros_module._BANDS))
    return np.array(steps)[np.searchsorted(starts, t, side="right") - 1]


def _seeded_ordinates(seed, count, t_hi):
    """count ordinates t_hi * random(), ascending; Python keeps random.Random's sequence."""
    rng = random.Random(seed)
    return sorted(t_hi * rng.random() for _ in range(count))


class TestScanConfig:
    def test_defaults(self):
        # The lattice bands and the bound a certified ordinate keeps to are
        # module constants.
        bands = ((0.2, 0, 1000), (0.125, 1600, 12800), (0.1, 16000, math.inf))
        assert (zeros_module._BANDS, zeros_module._ORDINATE_TOL) == (bands, 1e-9)

    def test_bands_keep_the_worst_bound(self):
        # Each edge is a lattice point of both bands it joins, and each
        # band's h ln(T / 2 pi), T its top, is at most the 0.1 step's at 1e4.
        bands = zeros_module._BANDS
        assert [k_hi * h for h, _, k_hi in bands[:-1]] == [k_lo * h for h, k_lo, _ in bands[1:]]
        assert [k_lo * h for h, k_lo, _ in bands] == [0.0, 200.0, 1600.0]
        for h, _, k_hi in bands:
            top = min(k_hi * h, zeros_module.T_WINDOW_MAX)
            assert h * math.log(top / (2 * math.pi)) <= 0.1 * math.log(1e4 / (2 * math.pi))

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

    def test_all_zeros_below_ten_thousand(self, ten_thousand_zeros):
        # Every gap below 1600 is wider than the step of the bands of both
        # its zeros; only the six NARROW_PAIRS, all in the 0.1 band, are
        # narrower, and a lattice point splits each pair.
        zeros = ten_thousand_zeros
        ys = zeros.ordinates
        assert zeros.count == mpmath.nzeros(10000) == 10142
        assert zeros.suspect_intervals == ()
        narrow = np.flatnonzero(np.diff(ys) < np.maximum(_band_step(ys[:-1]), _band_step(ys[1:])))
        assert ys[narrow] == pytest.approx([lo for lo, _ in NARROW_PAIRS], abs=1e-9)
        assert _band_step(ys[narrow]).tolist() == [0.1] * 6

    @pytest.mark.parametrize("lo, hi", NARROW_PAIRS)
    def test_one_lattice_point_splits_each_narrow_pair(self, lo, hi):
        h = _band_step(lo)
        k = np.arange(math.floor(lo / h) - 1, math.ceil(hi / h) + 2)
        lattice = k * h
        assert np.count_nonzero((lattice > lo) & (lattice < hi)) == 1

    def test_riemann_siegel_window_ordinates_are_roots(self):
        zeros = scan_zeros(ScanConfig(t_lo=1000.0, t_hi=1020.0))
        assert zeros.count == 16
        for y in zeros.ordinates:
            assert abs(hardy_z(y)) < 1e-6


class TestRefinement:
    def test_evaluation_budget(self, monkeypatch):
        # Every ordinate comes from the lattice samples alone: a scan makes
        # one hardy_z call, the lattice's, however many brackets it holds.
        evaluated = []
        accurate = zeros_module.hardy_z

        def counting(ts):
            evaluated.append(np.size(ts))
            return accurate(ts)

        monkeypatch.setattr(zeros_module, "hardy_z", counting)
        cases = [
            (1000.0, 1100.0, 81),
            (3000.0, 3100.0, 98),  # old fast-sampler sign error near 3046.05
            (195.0, 1605.0, 1085),  # all three bands, concatenated
        ]
        for t_lo, t_hi, count in cases:
            evaluated.clear()
            zeros = scan_zeros(ScanConfig(t_lo=t_lo, t_hi=t_hi))
            assert zeros.count == count
            assert evaluated == [len(zeros_module._grid(t_lo, t_hi)[0])], (t_lo, evaluated)

    def test_perturbed_sample_makes_interval_suspect(self, monkeypatch):
        # The lattice sample 3534.1, next to the root 3534.0626, moved by
        # 1e-9: the root moves by 8.1e-11 only, but the 15th forward
        # difference of its samples grows by C(15, 7) 1e-9, about five times
        # its a-priori bound, so the interval 3534 is suspect, and no other.
        config = ScanConfig(t_lo=3533.0, t_hi=3536.0)
        clean = scan_zeros(config)
        assert clean.count == 3 and clean.suspect_intervals == ()
        accurate = zeros_module.hardy_z

        def perturbed(ts):
            ts = np.asarray(ts, dtype=np.float64)
            return accurate(ts) + np.where(ts == 35341 * 0.1, 1e-9, 0.0)

        monkeypatch.setattr(zeros_module, "hardy_z", perturbed)
        got = scan_zeros(config)
        assert got.suspect_intervals == (3534,)
        assert got.count == 3
        assert np.max(np.abs(got.ordinates - clean.ordinates)) <= 1e-9

    @pytest.mark.parametrize("root", [0.02, 0.07, 0.1, 0.2, 0.33, 1.3])
    def test_bracket_near_origin(self, monkeypatch, root):
        # Below t = 7 h = 1.4, in the 0.2 band, a bracket has fewer than
        # _PAD samples below it, so its interpolant runs through the first
        # 16, the whole grid of [0, 1.4].  For a linear Z it gives the root
        # to rounding, certified, from the one lattice call.  0.2 is a
        # lattice point.
        calls = []

        def linear(ts):
            calls.append(np.size(ts))
            return np.asarray(ts, dtype=np.float64) - root

        _patch_evaluators(monkeypatch, lambda _: linear)
        zeros = scan_zeros(ScanConfig(t_lo=0.0, t_hi=1.4))
        assert zeros.ordinates.tolist() == pytest.approx([root], abs=1e-13)
        assert zeros.suspect_intervals == ()
        assert calls == [len(zeros_module._NODES)]

    def test_exact_zero_taken_as_root(self):
        # The fallback keeps a u where the interpolant is exactly 0.0: here
        # P(u) = u - 0.25, met at its start.
        coef = np.zeros((len(zeros_module._NODES), 1))
        coef[0], coef[-1] = 1.0, -0.25 - zeros_module._PAD
        shifts = zeros_module._NODES[:-1].astype(np.float64)
        u, slope, moved = zeros_module._safeguarded(coef, shifts, np.array([0.25]), np.array([-1.0]))
        assert (u.tolist(), slope.tolist(), moved.tolist()) == ([0.25], [1.0], [0.0])

    def test_closest_pair_calls(self, monkeypatch):
        # On [5229, 5230], gap 0.0433, the upper bracket's Newton steps
        # leave it for the lower zero, and on [7005, 7006], gap 0.0377, the
        # lower one's for the upper zero.  The safeguarded iteration on the
        # interpolant finds both, and the scan makes the lattice call alone.
        calls, fallback = [], []
        accurate, safeguarded = zeros_module.hardy_z, zeros_module._safeguarded

        def counting(ts):
            calls.append(np.size(ts))
            return accurate(ts)

        def recording(coef, *rest):
            fallback.append(coef.shape[1])
            return safeguarded(coef, *rest)

        monkeypatch.setattr(zeros_module, "hardy_z", counting)
        monkeypatch.setattr(zeros_module, "_safeguarded", recording)
        for t_lo in (5229.0, 7005.0):
            calls.clear()
            fallback.clear()
            zeros = scan_zeros(ScanConfig(t_lo=t_lo, t_hi=t_lo + 1.0))
            assert zeros.count == 2 and zeros.suspect_intervals == ()
            assert len(calls) == 1 and fallback == [1], (t_lo, calls, fallback)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.data())
    def test_refine_batch_independent(self, data):
        # Partitioned scans are bit-identical only if no bracket's root or
        # certificate depends on which others share its batch.  Of the 111
        # brackets of [4292, 4293], [5000, 5100] and [7005, 7006], 5 go on
        # to the safeguarded iteration: 4292.7264, 4292.8173, 5010.8112,
        # 5010.9332 and 7005.0629.
        ts, zs, idx = _fallback_batch()
        full = zeros_module._lattice_roots(ts, zs, idx, 0.1)
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(idx), max_size=len(idx))))
        part = zeros_module._lattice_roots(ts, zs, idx[keep], 0.1)
        assert np.array_equal(part[0], full[0][keep]) and np.array_equal(part[1], full[1][keep])

    def test_lattice_roots_batch_independent(self):
        # The root and certificate of every bracket of [0, 2001], from one
        # call over its three bands (six blocks of _BLOCK) with a step per
        # bracket, are the same from a one-bracket call with a scalar step.
        ts, hs, zs, idx = _lattice_brackets(0.0, 2001.0)
        full = zeros_module._lattice_roots(ts, zs, idx, hs[idx])
        alone = [zeros_module._lattice_roots(ts, zs, idx[k:k + 1], hs[idx[k]]) for k in range(len(idx))]
        assert np.array_equal([u[0] for u, _ in alone], full[0])
        assert np.array_equal([ok[0] for _, ok in alone], full[1])
        steps, counts = np.unique(hs[idx], return_counts=True)
        assert list(zip(steps.tolist(), counts.tolist())) == [(0.1, 362), (0.125, 1078), (0.2, 79)]

    @pytest.mark.parametrize("t_lo, t_hi, steps", [
        (1000.0, 1100.0, [0.125]),
        (195.0, 1605.0, [0.1, 0.125, 0.2]),
        (0.0, 2001.0, [0.1, 0.125, 0.2]),
    ])
    def test_one_lattice_roots_call_per_scan(self, monkeypatch, t_lo, t_hi, steps):
        # Every bracket of the window, in whichever band it lies, goes to
        # one _lattice_roots call with its band's step.
        calls = []
        lattice_roots = zeros_module._lattice_roots

        def recording(ts, zs, idx, h):
            calls.append((len(idx), np.unique(h).tolist()))
            return lattice_roots(ts, zs, idx, h)

        monkeypatch.setattr(zeros_module, "_lattice_roots", recording)
        zeros = scan_zeros(ScanConfig(t_lo=t_lo, t_hi=t_hi))
        assert calls == [(zeros.count, steps)]

    @pytest.mark.parametrize("root", [10.25, 1000.2, 2000.25, 51 * 0.2, 8002 * 0.125, 20002 * 0.1])
    def test_zero_on_lattice_reported_once(self, monkeypatch, root):
        # 10.2, 1000.25 and 2000.2 are lattice points of their bands (steps
        # 0.2, 0.125 and 0.1), where the sample is exactly 0.0; 10.25,
        # 1000.2 and 2000.25 lie between two.  10.2 and 10.25 are in the
        # Euler-Maclaurin range, the others in the Riemann-Siegel one.  Each
        # root is reported once, to rounding.
        _patch_evaluators(monkeypatch, lambda _: lambda ts: np.asarray(ts, dtype=np.float64) - root)
        zeros = scan_zeros(ScanConfig(t_lo=root - 0.75, t_hi=root + 0.75))
        assert zeros.count == 1
        assert zeros.ordinates[0] == pytest.approx(root, rel=1e-15)
        assert zeros.suspect_intervals == ()

    @pytest.mark.parametrize("edge", [200.0, 1600.0])
    @pytest.mark.parametrize("offset", [-0.01, 0.0, 0.01])
    @pytest.mark.parametrize("below, above", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
    def test_root_at_band_edge_reported_once(self, monkeypatch, edge, offset, below, above):
        # Z a line through a band edge, or just off it, in windows across
        # the edge and ending on it.  The bands' cores share the edge's
        # sample, exactly 0.0 for a root on it, and every cell lies in one
        # band, so the root comes out once, certified.
        root = edge + offset
        _patch_evaluators(monkeypatch, lambda _: lambda ts: np.asarray(ts, dtype=np.float64) - root)
        zeros = scan_zeros(ScanConfig(t_lo=edge - below, t_hi=edge + above))
        assert zeros.ordinates.tolist() == ([pytest.approx(root, rel=1e-15)]
                                            if edge - below <= root <= edge + above else [])
        assert zeros.suspect_intervals == ()

    def test_no_euler_maclaurin_rows_above_cutoff(self, monkeypatch):
        # From T_RS up, every lattice sample goes to the Riemann-Siegel
        # evaluator: every Euler-Maclaurin row lies below.
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
        tol = zeros_module._ORDINATE_TOL
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
        assert np.max(np.abs(zeros.ordinates - ORACLE_ORDINATES[t_lo])) <= 1e-11



def _lattice_brackets(t_lo, t_hi):
    """Lattice, band steps and samples of [t_lo, t_hi], and its scan's brackets.

    A bracket is a sign change between neighbouring core samples.
    """
    ts, hs, core = zeros_module._grid(t_lo, t_hi)
    zs = hardy_z(ts)
    signs = np.sign(zs)
    return ts, hs, zs, np.flatnonzero((signs[:-1] * signs[1:] < 0) & core[:-1] & core[1:])


@functools.cache
def _fallback_batch():
    """Lattice, samples and brackets of [4292, 4293], [5000, 5100] and [7005, 7006], step 0.1."""
    ts, _, zs, idx = _lattice_brackets(4292.0, 7006.0)
    t = ts[idx]
    keep = (t >= 4291.9) & (t < 4293.0) | (t >= 4999.9) & (t < 5100.0) | (t >= 7004.9)
    return ts, zs, idx[keep]


def _patch_evaluators(monkeypatch, wrap):
    """Replace the evaluator the scanner calls by wrap(evaluator)."""
    monkeypatch.setattr(zeros_module, "hardy_z", wrap(zeros_module.hardy_z))


def _thirds(evaluator):
    """evaluator with Z on [6000, 6010] replaced by one with a zero every third of a unit.

    That is 3 zeros per interval where 1 or 2 are predicted, so the count
    drifts from the smooth count, and every interval at whose end the
    surplus has reached the drift limit is suspect, up to the window's end.
    Every integer in [6000, 6010] is a zero.  The sabotage is
    smooth, sin(3 pi t) (2 + cos t), so the lattice interpolants follow it,
    but its frequency is far above Z's, so its roots fail the consistency
    check and their intervals are suspect too.
    """
    def sabotaged(ts):
        ts = np.asarray(ts, dtype=np.float64)
        zs = evaluator(ts)
        inside = (ts >= 6000.0) & (ts <= 6010.0)
        return np.where(inside, np.sin(3.0 * np.pi * ts) * (2.0 + np.cos(ts)), zs)
    return sabotaged


def _bump(c):
    """A wrap adding c exp(-((t - 6005)/3)^2) to the evaluator: smooth, it loses zeros."""
    def wrap(evaluator):
        def shifted(ts):
            ts = np.asarray(ts, dtype=np.float64)
            return evaluator(ts) + c * np.exp(-((ts - 6005.0) / 3.0) ** 2)
        return shifted
    return wrap


class TestSuspectRule:
    # The suspect rule on the unit intervals whose count is off the
    # smooth-phase prediction, under a Z sabotaged on [6000, 6010].

    @pytest.mark.parametrize(
        "t_lo, t_hi",
        [
            (5995.0, 6015.0),  # the sabotage inside the window
            (6003.5, 6012.0),  # the sabotage clipped by t_lo
            (5990.0, 6004.5),  # the sabotage clipped by t_hi
        ],
    )
    def test_sabotaged_scan_counts_and_suspects(self, monkeypatch, t_lo, t_hi):
        # Frozen counts and suspects.  With every root taken as certified,
        # the suspects are drifted_intervals': those at whose end, or at
        # t_hi, the count from t_lo has drifted from the smooth count by the
        # limit, which holds past 6010 too, where the surplus stays about 20.
        # The certificates add every interval that holds a sabotaged root,
        # or one whose interpolant reaches the sabotage.
        count, drifted, suspects = {
            5995.0: (43, tuple(range(6000, 6015)), tuple(range(6000, 6015))),
            6003.5: (22, tuple(range(6005, 6012)), tuple(range(6003, 6012))),
            5990.0: (25, (6001, 6002, 6003, 6004), tuple(range(6000, 6005))),
        }[t_lo]
        _patch_evaluators(monkeypatch, _thirds)
        zeros = scan_zeros(ScanConfig(t_lo=t_lo, t_hi=t_hi))
        assert zeros.count == count
        assert zeros.suspect_intervals == suspects
        lattice_roots = zeros_module._lattice_roots
        monkeypatch.setattr(zeros_module, "_lattice_roots",
                            lambda *args: (lattice_roots(*args)[0], np.ones(len(args[2]), bool)))
        assert scan_zeros(ScanConfig(t_lo=t_lo, t_hi=t_hi)).suspect_intervals == drifted

    def test_ordinate_on_integer_kept_once(self, monkeypatch):
        # The zeros on 6000, ..., 6010, lattice points, come out within an
        # ulp of the integers, 6008 and 6009 exactly, and each is kept once.
        # The interpolants follow the thirds between them to 2.7e-7, but
        # 1.6e-4 and 2.2e-4 next to 6000 and 6010, where they reach past the
        # sabotage, and 6010.19 above it moves by 2.5e-3: every interval of
        # [6000, 6010] is suspect, and the surplus keeps 6011-6014 suspect
        # too.  Roots whose interpolants do not reach
        # the sabotage are the clean scan's, bit for bit.
        want = scan_zeros(ScanConfig(t_lo=5995.0, t_hi=6015.0)).ordinates
        _patch_evaluators(monkeypatch, _thirds)
        zeros = scan_zeros(ScanConfig(t_lo=5995.0, t_hi=6015.0))
        ys = zeros.ordinates
        inside = (ys > 5999.99) & (ys < 6010.01)
        thirds = np.arange(18000, 18031) / 3.0
        assert ys[inside][::3] == pytest.approx(thirds[::3], abs=1e-12)
        assert {6008.0, 6009.0} <= set(ys.tolist())
        assert ys[inside][2:-2] == pytest.approx(thirds[2:-2], abs=3e-7)
        assert ys[inside] == pytest.approx(thirds, abs=3e-4)
        assert zeros.suspect_intervals == tuple(range(6000, 6015))
        clear = (ys < 5999.2) | (ys > 6010.8)
        assert np.array_equal(ys[clear], want[(want < 5999.2) | (want > 6010.8)])
        assert zeros.count == 43

    @pytest.mark.parametrize("c", [3.0, 4.0])
    @pytest.mark.parametrize("t_lo, t_hi", [(5995.0, 6015.0), (6003.5, 6012.0), (0.0, 6015.0)])
    def test_smooth_fault_is_suspect(self, monkeypatch, c, t_lo, t_hi):
        # The bump lifts Z over the zeros near 6005 without a frequency the
        # consistency check sees; only the drift of the count can show it.
        _patch_evaluators(monkeypatch, _bump(c))
        assert scan_zeros(ScanConfig(t_lo=t_lo, t_hi=t_hi)).suspect_intervals != ()

    @pytest.mark.parametrize("t_lo, t_hi, count", [
        (7067.3348, 7072.1278, 4),
        (6932.1328, 6935.0298, 2),
    ])
    def test_non_integer_top_end_not_suspect(self, t_lo, t_hi, count):
        # The drift of the last interval is read at t_hi, not at ceil(t_hi),
        # so the zeros between the two do not count.
        zeros = scan_zeros(ScanConfig(t_lo=t_lo, t_hi=t_hi))
        assert zeros.count == count
        assert zeros.suspect_intervals == ()

    def test_drift_band_below_ten_thousand(self, ten_thousand_zeros):
        # N(t) - smooth_count(t) stays in {-1, 0, 1} on the whole scan
        # domain, at the integers and on both sides of every ordinate, where
        # N jumps.  This band is why drifted_intervals' limits are 2 from
        # below T_NO_ZERO (the drift at t_lo is 0 there) and 3 from any
        # other t_lo (the drift at t_lo is in the band too): the true zeros
        # never reach them.
        ys = ten_thousand_zeros.ordinates
        for t in (np.arange(0.0, 1e4 + 1.0), np.nextafter(ys, -np.inf), np.nextafter(ys, np.inf)):
            drift = ys.searchsorted(t) - smooth_count(t)
            assert set(drift.tolist()) <= {-1, 0, 1}

    def test_flagged_intervals_add_no_evaluator_calls(self, monkeypatch):
        # [0, 2001] flags 36 intervals, which the suspect rule reads off the
        # counts alone, and every root comes from the lattice samples: one
        # hardy_z call in all.
        calls = []

        def counting(evaluator):
            def counted(ts):
                calls.append(np.size(ts))
                return evaluator(ts)
            return counted

        _patch_evaluators(monkeypatch, counting)
        assert scan_zeros(ScanConfig(t_lo=0.0, t_hi=2001.0)).count == 1519
        assert calls == [16249]

    def test_one_theta_vec_call_per_scan(self, monkeypatch):
        # One smooth_count call gives the prediction at every integer height
        # of the window and the count at t_lo, from one call of theta's
        # series, whose domain smooth_count has checked.
        calls = []
        series = zeros_module.theta_series_vec

        def counting(ts):
            calls.append(np.size(ts))
            return series(ts)

        monkeypatch.setattr(zeros_module, "theta_series_vec", counting)
        for t_lo, t_hi in [(0.0, 50.0), (195.0, 205.0), (5000.5, 5002.5), (0.0, 10.0)]:
            calls.clear()
            scan_zeros(ScanConfig(t_lo=t_lo, t_hi=t_hi))
            assert len(calls) == 1, (t_lo, calls)


class TestZeroList:
    def test_count_below(self):
        zeros = scan_zeros(ScanConfig(t_lo=0.0, t_hi=50.0))
        below = np.searchsorted(zeros.ordinates, [14.0, 15.0, 50.0], side="right")
        assert below.tolist() == [0, 1, 10]

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ZeroList(
                ordinates=(20.0, 15.0),
                t_lo=0.0,
                t_hi=30.0,
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
            ZeroList(ordinates, 0.0, t_hi)

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            ZeroList([[14.1, 21.0]], 0.0, 30.0)

    def test_ordinates_read_only(self):
        zeros = ZeroList(ordinates=[14.1, 21.0], t_lo=0.0, t_hi=30.0)
        assert zeros.ordinates.dtype == np.float64
        with pytest.raises(ValueError):
            zeros.ordinates[0] = 15.0

    def test_input_copied(self):
        ys = np.array([14.1, 21.0])
        zeros = ZeroList(ordinates=ys, t_lo=0.0, t_hi=30.0)
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
        with pytest.raises(ValueError, match="coverage ranges overlap"):
            a.merge(ZeroList([], 20.0, 40.0))

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
        assert loaded.t_lo == zeros.t_lo and loaded.t_hi == zeros.t_hi
        assert len(loaded.ordinates) == len(zeros.ordinates)
        for a, b in zip(loaded.ordinates, zeros.ordinates):
            assert a == pytest.approx(b, abs=1e-12)

    def test_older_header_lines_skipped(self):
        # Older files, the benchmark's reference census among them, carry
        # '# source:', '# step:' and '# refine_tol:' lines; the reader skips them.
        text = REFERENCE_CENSUS.read_text()
        assert "# source: scanned\n" in text
        assert "# step: 0.050000\n# refine_tol: 1.000e-09\n" in text
        reference = read_zero_cache(REFERENCE_CENSUS)
        assert (reference.t_lo, reference.t_hi, reference.count) == (0.0, 6501.0, 6148)

    @pytest.mark.skipif(CACHE_2001 is None, reason="the digests hold for NumPy's X86_V4, "
                        "AVX2 and baseline float64 loop maps")
    def test_census_bytes_frozen(self, tmp_path):
        # The whole file: the header, generator line included, and the
        # 1,519 ordinates of [0, 2001] at 12 decimals, one digest per map of
        # NumPy's float64 loops (test_bit_pins).
        path = tmp_path / "zeros.txt"
        write_zero_cache(scan_zeros(ScanConfig(t_lo=0.0, t_hi=2001.0)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CACHE_2001

    # Lists that no evaluator builds, so their files are the same bytes on
    # every platform: 600 seeded ordinates; one 2e-13 inside each bound,
    # which rounds past it; one ordinate; none.
    @pytest.mark.parametrize("zeros, digest", [
        (ZeroList(_seeded_ordinates(35, 600, 6501.0), 0.0, 6501.0),
         "256bca204c1edceb8003d056096649fb9da57dfcc357b7343d2e81e092baad80"),
        (ZeroList([14.0000000000004, 17.5, 20.9999999999996], 14.0000000000002, 20.9999999999998),
         "c7ab225b5fdcbe7fed6b8520b2ed9fbcb0d2da4a9224b506614cba4bb954e482"),
        (ZeroList([14.134725141734693], 0.0, 50.0),
         "f4b4b541d4eb51ad430ba59e48968122f0826de15b38da014b1d59070c04db0d"),
        (ZeroList([], 0.0, 50.0),
         "7e5ef02778772d0d30de4aac2f7ffbf07feec97177ac768b8adf08830ba23e1c"),
    ], ids=["seeded", "near-bounds", "single", "empty"])
    def test_written_bytes_frozen(self, tmp_path, zeros, digest):
        path = tmp_path / "zeros.txt"
        write_zero_cache(zeros, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_rewrite_is_byte_identical(self, tmp_path):
        zeros = scan_zeros(ScanConfig(t_lo=0.0, t_hi=60.0))
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        write_zero_cache(zeros, p1)
        write_zero_cache(zeros, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_back_rewrites_byte_identical(self, tmp_path):
        # A cache is a fixed point of read then write.
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        write_zero_cache(scan_zeros(ScanConfig(t_lo=0.0, t_hi=60.0)), p1)
        write_zero_cache(read_zero_cache(p1), p2)
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

    @pytest.mark.parametrize("lineno", [2, 4])
    def test_non_ascii_byte_reported_with_number(self, tmp_path, lineno):
        # UTF-8 "é" is the bytes 0xc3 0xa9, in a comment or in an ordinate.
        lines = ["# zetaphase zero cache v1", "# range: 0 30", "14.134725141735", "21.022039638772"]
        lines[lineno - 1] += "é"
        path = tmp_path / "zeros.txt"
        path.write_bytes(("\n".join(lines) + "\n").encode())
        with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: not ASCII: byte 0xc3")):
            read_zero_cache(path)

    @pytest.mark.parametrize("ordinate, following", [
        pytest.param("1_4.134725141735", "21.022039638772", id="1_4.134725141735"),
        pytest.param("14.134_725141735", "21.022039638772", id="14.134_725141735"),
        # The separator on line 3 is named, not the descent on line 4.
        pytest.param("14.134_725141735", "10.0", id="14.134_725141735-then-descent"),
    ])
    def test_digit_separator_rejected(self, tmp_path, ordinate, following):
        # float() would read either line as 14.134725141735; a comment may hold "_".
        path = tmp_path / "zeros.txt"
        body = "# zetaphase zero cache v1\n# refine_tol: 1.000e-09\n{}\n{}\n"
        path.write_text(body.format("14.134725141735", "21.022039638772"))
        assert read_zero_cache(path).count == 2
        path.write_text(body.format(ordinate, following))
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: not an ordinate: '{ordinate}'")):
            read_zero_cache(path)

    # float() and int() would read the digit separators as coverage [0, 30]
    # and a count of 2.
    @pytest.mark.parametrize("key, lineno, value", [
        pytest.param("range", 3, "two", id="range-3"),
        pytest.param("count", 4, "two", id="count-4"),
        pytest.param("range", 3, "0_0 3_0", id="range-3-separator"),
        pytest.param("count", 4, "0_2", id="count-4-separator"),
    ])
    def test_malformed_header_reported_with_number(self, tmp_path, key, lineno, value):
        zeros = ZeroList(ordinates=(14.1, 21.0), t_lo=0.0, t_hi=30.0)
        path = tmp_path / "zeros.txt"
        write_zero_cache(zeros, path)
        lines = path.read_text().splitlines()
        assert lines[lineno - 1].startswith(f"# {key}:")
        lines[lineno - 1] = f"# {key}: {value}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f":{lineno}: bad {key} comment"):
            read_zero_cache(path)

    @pytest.mark.parametrize("ordinate", ["0.0", "inf"])
    def test_non_positive_or_infinite_ordinate_rejected(self, tmp_path, ordinate):
        path = tmp_path / "zeros.txt"
        path.write_text(f"# zetaphase zero cache v1\n14.134725141735\n{ordinate}\n")
        with pytest.raises(ValueError, match=":3: ordinate must be finite and positive"):
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

    @pytest.mark.parametrize("t_hi", [14.134725141734709, 14.134725141734897])
    def test_ordinate_rounding_past_range_end(self, tmp_path, t_hi):
        # The first zero, 14.134725141734709, is written as 14.134725141735,
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
        zeros = ZeroList(ordinates=(14.1,), t_lo=0.0, t_hi=6501.0)
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
        assert counts.counts[13 - 1] == 0
        assert counts.counts[14 - 1] == 1
        assert counts.counts[21 - 1] == 1
        assert counts.counts[15 - 1] == 0
        assert counts.counts.sum() == 10
        nonzero = dict(counts.nonzero_items())
        assert set(nonzero) == {14, 21, 25, 30, 32, 37, 40, 43, 48, 49}

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
        assert counts.counts[1 - 1] == 0

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

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError, match="n_hi = 3 is below n_lo = 5"):
            interval_counts([4.5], 5, 3)


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

    @pytest.mark.parametrize("t", [1e19, np.array([100.0, 20000.5])])
    def test_above_theta_domain_rejected(self, t):
        # Past T_THETA_MAX = 2e4 the count would overflow its int64 cast.
        with pytest.raises(ValueError, match="smooth_count needs t <= T_THETA_MAX = 20000"):
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
        window = [census_counts.counts[n - 1] for n in range(5000, 6000)]
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

    @pytest.mark.parametrize("n, alpha, match", [
        # From 2^53 n + 1 and n can round to one double: h(2^60 + 1, 1/2) is 1, not 0.
        (2**53, 0.5, "n must be in"),
        (2**60 + 1, 0.5, "n must be in"),
        (3, -0.5, "alpha must be"),
        (3, math.inf, "alpha must be finite"),
        (3, math.nan, "alpha must be finite"),
        # A finite alpha whose product with n + 1 overflows binary64.
        (10, 1e308, r"\(n \+ 1\) alpha must be finite, >= 0: n = 10, alpha = 1e\+308"),
        (2**52, 1e300, r"n = 4503599627370496, alpha = 1e\+300"),
    ])
    def test_domain(self, n, alpha, match):
        with pytest.raises(ValueError, match=match):
            floor_counter(n, alpha)
        assert floor_counter(2**53 - 1, 0.5) == 1


# A zero list covering [0, 60].
SIXTY = ZeroList(ordinates=(14.5, 21.5, 25.5), t_lo=0.0, t_hi=60.0)


class TestIntegerArguments:
    # The counters, interval_counts and unit_interval_counts take their
    # integer arguments through operator.index: a float raises TypeError, a
    # NumPy integer is taken.
    CALLS = {
        "interval_counts n_lo": lambda n: interval_counts([1.5, 2.5, 3.5], n, 4),
        "interval_counts n_hi": lambda n: interval_counts([1.5, 2.5, 3.5], 1, n),
        "unit_interval_counts": lambda n: unit_interval_counts(SIXTY, n).counts,
        "floor_counter": lambda n: floor_counter(n, 0.5),
        "counter_from_counting_function": lambda n: counter_from_counting_function(math.sqrt, n),
        "bessel_j0_counter": bessel_j0_counter,
        "bessel_j0_counter_corrected": bessel_j0_counter_corrected,
        "airy_counter": airy_counter,
        "airy_counter_corrected": airy_counter_corrected,
    }

    @pytest.mark.parametrize("n", [2.5, 2.0])
    @pytest.mark.parametrize("name", CALLS)
    def test_float_rejected(self, name, n):
        with pytest.raises(TypeError):
            self.CALLS[name](n)

    @pytest.mark.parametrize("name, n", [
        ("floor_counter", -1),
        ("counter_from_counting_function", -1),
        ("bessel_j0_counter", 0),
        ("bessel_j0_counter_corrected", 0),
        ("airy_counter", 0),
        ("airy_counter_corrected", 0),
    ])
    def test_below_domain_rejected(self, name, n):
        with pytest.raises(ValueError, match="n must be"):
            self.CALLS[name](n)

    def test_float_n_max_past_coverage_rejected(self):
        # A float n_max is rejected on entry, before the coverage check
        # could report it as a CoverageError.
        with pytest.raises(TypeError):
            unit_interval_counts(SIXTY, 100.5)

    @pytest.mark.parametrize("name", CALLS)
    def test_numpy_integer_taken(self, name):
        got, want = self.CALLS[name](np.int64(2)), self.CALLS[name](2)
        assert type(got) is type(want)
        assert np.array_equal(got, want)


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

    @staticmethod
    def _disagreements(counter, oracle):
        """(n, counter count, oracle count) wherever the two differ, for n <= 200."""
        want = interval_counts(oracle, 1, 201).tolist()
        return [(n, counter(n), w) for n, w in enumerate(want, start=1) if counter(n) != w]

    def test_bessel_divergences(self):
        report = self._disagreements(bessel_j0_counter, bessel_j0_zeros(70))
        assert report[:4] == [(6, 1, 0), (8, 0, 1), (9, 1, 0), (11, 0, 1)]
        assert min(n for n, got, want in report if got < want) == 8

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
        report = self._disagreements(airy_counter, airy_neg_zeros(620))
        assert report[:2] == [(6, 0, 1), (8, 1, 0)]
        assert min(n for n, got, want in report if got < want) == 6

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

    @pytest.mark.parametrize("oracle", [bessel_j0_zeros, airy_neg_zeros])
    def test_oracle_count_must_be_an_integer(self, oracle):
        with pytest.raises(TypeError):
            oracle(2.5)
        with pytest.raises(ValueError, match="count must be >= 1"):
            oracle(0)
        assert oracle(np.int64(3)).tolist() == oracle(3).tolist()

    def test_oracles_against_30_digit_mpmath(self):
        j0, ai = bessel_j0_zeros(80), airy_neg_zeros(700)
        assert len(j0) == 80 and len(ai) == 700
        with mpmath.workdps(30):
            for k in [*range(1, 11), 40, 80]:
                assert abs(j0[k - 1] - mpmath.besseljzero(0, k)) <= 5e-14, k
            # k = 7 is the last mpmath zero, k = 8 the first from the series.
            for k in [*range(1, 11), 50, 200, 700]:
                assert abs(ai[k - 1] + mpmath.airyaizero(k)) <= 2e-13, k

    def test_oracle_zeros_clear_of_integers(self):
        # Far wider than the oracles' error, so every unit-interval count
        # they give is exact.
        for zeros in (bessel_j0_zeros(80), airy_neg_zeros(700)):
            assert np.all(np.diff(zeros) > 0.0)
            assert np.min(np.abs(zeros - np.rint(zeros))) > 5e-4


class TestCensusLandmarks:
    def test_totals(self, census_zeros):
        assert census_zeros.count == 6148
        assert census_zeros.suspect_intervals == ()

    def test_counts_shape(self, census_counts):
        values = {n: census_counts.counts[n - 1] for n in range(1, census_counts.n_max + 1)}
        assert max(values.values()) == 3
        assert all(values[n] == 0 for n in range(1, 14))
        assert values[14] == 1

    def test_double_intervals_below_three_hundred(self, census_counts):
        doubles = [n for n in range(1, 301) if census_counts.counts[n - 1] == 2]
        assert doubles == [111, 150, 169, 224, 231]

    def test_triple_intervals(self, census_counts):
        triples = [
            n
            for n in range(1, census_counts.n_max + 1)
            if census_counts.counts[n - 1] == 3
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

    def test_seeded_windows_match_census(self, census_zeros):
        # Every small scan [a, a + 2] gives exactly the census ordinates in
        # its window, bit for bit, and flags nothing.
        ys = census_zeros.ordinates
        for a in np.random.default_rng(7).integers(14, 6500, size=200).tolist():
            window = scan_zeros(ScanConfig(t_lo=float(a), t_hi=a + 2.0))
            inside = ys[(ys >= a) & (ys <= a + 2.0)]
            assert np.array_equal(window.ordinates, inside), a
            assert window.suspect_intervals == (), a

    @pytest.mark.parametrize("t_lo, t_hi", [
        (195.0, 205.0), (1595.0, 1605.0), (199.9, 200.1), (0.0, 200.0), (200.0, 1600.0),
    ])
    def test_band_edge_windows_match_census(self, census_zeros, t_lo, t_hi):
        # Windows across a band edge, or ending on one, give the census
        # ordinates in their range bit for bit, and flag nothing.
        ys = census_zeros.ordinates
        window = scan_zeros(ScanConfig(t_lo=t_lo, t_hi=t_hi))
        assert np.array_equal(window.ordinates, ys[(ys >= t_lo) & (ys <= t_hi)])
        assert window.suspect_intervals == ()

    def test_identical_interval_counts(self, census_counts, partitioned_census):
        other = unit_interval_counts(partitioned_census, census_counts.n_max)
        assert other.nonzero_items() == census_counts.nonzero_items()
