"""Tests for the phase and zeta building blocks.

Reference values are frozen from 40-digit mpmath evaluations
(mp.siegeltheta, mp.siegelz, mp.zeta, mp.lambertw, mp.loggamma) unless a
value is forced by the definition itself.
"""

import hashlib
import importlib.util
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaphase import (
    AtZeroError,
    ScanConfig,
    arg_gamma_quarter,
    arg_zeta_principal,
    corrected_approx,
    hardy_z,
    lambert_w0,
    scan_zeros,
    theta_exact,
    theta_series,
    wrap_half_turns,
    zeta_critical_line,
)
from zetaphase import cli, special
from zetaphase.special import (
    _EM_BERNOULLI,
    _EM_ROW_BYTES,
    _RS_CHEBYSHEV,
    _RS_MU_HI,
    _RS_MU_LO,
    _RS_POWERS,
    _RS_SHORT_ROWS,
    _RS_TWO_PI_HI,
    _RS_TWO_PI_LO,
    EXTENDED_DPS,
    MAX_SERIES_ORDER,
    T_NO_ZERO,
    T_RS,
    T_THETA_MAX,
    T_Z_MAX,
    _CHUNK,
    _FIXED_BITS,
    _INV_E_HI,
    _LN2_FIXED,
    _LN2_LOG_BITS,
    _LN_PI_FIXED,
    _LN_TABLE,
    _LOG_BITS,
    _PI_FIXED,
    _RS_CHUNK,
    _T_RS_SHORT,
    _THETA_COEFFS,
    _critical_line,
    _em_truncation,
    _fresh_array,
    _ln_fixed,
    _workspace,
    _z_from_zeta,
    _z_zeta_at,
    _zeta_em_chunk,
    smooth_main,
    theta_series_vec,
    theta_tail,
)

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"

# mp.siegeltheta at 40 digits, rounded to double.
THETA_REFERENCE = {
    0.5: -1.125052715405563,
    3.0: -2.9945646960108254,
    10.0: -3.0670743962898953,
    17.8456: 2.398478509505297e-07,
    30.0: 8.05780013656399,
    49.9: 26.357709641639094,
    50.0: 26.461366070161410,
    100.0: 87.972165231787220,
    1000.0: 2034.5464280380316,
    10000.0: 31861.923830835821,
}

# mp.zeta(1/2 + it) at 40 digits.
ZETA_REFERENCE = {
    0.0: complex(-1.4603545088095868, 0.0),
    25.0: complex(0.0049845933640356754, -0.014012301962583383),
    100.0: complex(2.6926198856813241, -0.020386029602598162),
    1000.0: complex(0.35633436719439606, 0.93199783123299367),
    6500.0: complex(-0.10290070191834146, -0.37278653389112664),
}

# (mp.siegelz, mp.zeta(1/2 + it)) at 40 digits: one height in each of 8
# equal strata of [1e4, T_Z_MAX), and the last double below T_Z_MAX.
TOP_REFERENCE = {
    10131.895696: (-1.571646326542656, complex(1.4320758727200167, 0.647480401640256)),
    10211.052627: (0.09106138747285633, complex(0.09030314192197601, 0.011726843032169209)),
    10408.452415: (1.7715029518849479, complex(-0.21430225770242117, -1.7584928919050908)),
    10776.293407: (-1.0489786871883264, complex(-0.053256076028951695, -1.0476259239544157)),
    10927.525848: (-1.0984299385925214, complex(1.075247692190355, 0.22447879729650574)),
    11056.441689: (1.0504493024550963, complex(0.9502613959758744, -0.4477130960183994)),
    11365.220527: (0.7835360782246049, complex(0.7670286961776416, -0.15998676545146243)),
    11468.727309: (0.6740171945917575, complex(0.3954007715649147, 0.5458547503239422)),
    11617.609632975053: (0.7660370744244035, complex(0.6097274940742593, 0.46372964360996294)),
}


# mp.siegelz at 20 digits, rounded to double: one height in each of 12 equal
# strata of [T_RS, 800) and of 48 of [800, 1e4], and T_RS and 800 with their
# neighbours at +-0.01.
RS_REFERENCE = {
    199.99: 5.615937579557672,
    200.0: 5.589783623150109,
    200.01: 5.562944126643036,
    221.01894: 0.280313403659041,
    296.293467: -2.1707381402777757,
    313.693499: -0.8680571928993266,
    353.00243: 2.287460488478158,
    415.527173: 0.16278054160977312,
    485.909263: -0.8313446596987464,
    539.048279: 1.832270509771917,
    576.934992: -0.41073548007200994,
    615.583271: 0.21980963592672506,
    695.817486: -0.28120969232053594,
    746.403776: 0.28095878233416594,
    771.826049: 4.778525984532387,
    799.99: 1.8897067137822834,
    800.0: 1.9454175211869156,
    800.01: 2.000741599488697,
    834.295839: 3.0733204384157164,
    1114.31669: -4.9750404134650035,
    1272.89311: -1.0279929539208175,
    1446.012601: 0.6822226620558942,
    1634.692489: -0.8111801511690657,
    1909.84933: 2.0319830601698357,
    2123.485902: 0.6550434492511301,
    2175.659362: 3.7941444036315013,
    2458.450421: 0.47336084805748235,
    2582.174697: -0.15308500773731232,
    2902.001088: -0.2925425629717155,
    3084.637947: 0.8390740390561072,
    3221.875237: -0.755228929410816,
    3435.940319: 3.301634380447464,
    3582.071125: -1.0757511887096831,
    3833.296591: -3.737264606121341,
    3952.606271: 3.6562682364157886,
    4123.272387: -0.47702391359907453,
    4303.264016: -0.1408220261159708,
    4485.047169: 0.042259008365156656,
    4734.114895: 0.8289007276390217,
    4907.591478: -4.439546257805533,
    5143.776286: 0.5186785186730851,
    5210.794426: 0.14278862258579159,
    5485.809531: -2.346643257052869,
    5661.659654: -1.503232330124835,
    5820.78454: 2.6635666795638113,
    6089.015959: -0.36213577815204917,
    6250.101688: -0.14202487928639482,
    6415.831705: 1.3634630782837893,
    6590.13809: 8.867228015736437,
    6909.302944: -3.7738236568428496,
    7086.180277: 1.111369711390476,
    7241.286021: 0.8375472088213481,
    7382.810944: -1.783489798915678,
    7689.807127: -0.14005020859674788,
    7807.980663: -2.4220289848081773,
    7974.612858: -0.4381055413419783,
    8255.919506: 1.870237112324422,
    8336.207179: -0.7506951425926381,
    8600.065683: 2.2490668092951767,
    8718.482229: 1.744819903141096,
    8900.131001: 0.03309647121196961,
    9175.994504: -0.3027536414695238,
    9277.012629: -0.8625400689146355,
    9519.512812: 0.15574759517888487,
    9727.838787: -0.33989562313775296,
    9844.540387: 3.5171249358884324,
}


class TestThetaExact:
    def test_reference_values(self):
        for t, want in THETA_REFERENCE.items():
            got = theta_exact(t)
            assert got == pytest.approx(want, abs=4e-12), t

    def test_odd_function(self):
        for t in (0.5, 3.0, 17.25, 4000.0):
            assert theta_exact(-t) == -theta_exact(t)
        assert theta_exact(0.0) == 0.0

    def test_sign_change_bracket(self):
        # theta has its positive-axis root between 17 and 18.
        assert theta_exact(17.0) < 0.0 < theta_exact(18.0)
        root = 17.845599540410861
        assert abs(theta_exact(root)) < 1e-11

    def test_monotone_increasing_above_root(self):
        ts = np.linspace(20.0, 9000.0, 200)
        vals = [theta_exact(float(t)) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_either_side_of_series_cut(self):
        # siegeltheta below T_NO_ZERO, the 8-term series from it: both
        # within 5e-16 of 40-digit mpmath at the cut.
        for t in (math.nextafter(T_NO_ZERO, 0.0), T_NO_ZERO):
            with mp.workdps(40):
                want = mp.siegeltheta(t)
            assert abs(mp.mpf(theta_exact(t)) - want) < 5e-16, t

    def test_series_needs_no_siegeltheta(self, monkeypatch, capsys):
        # From T_NO_ZERO up theta, Arg gamma and the theta command never
        # reach mpmath.siegeltheta; just below they do.
        def refuse(t):
            raise AssertionError(f"siegeltheta({t}) called")

        monkeypatch.setattr(mp, "siegeltheta", refuse)
        edges = np.geomspace(T_NO_ZERO, T_THETA_MAX, 201)
        ts = np.random.default_rng(31).uniform(edges[:-1], edges[1:]).tolist()
        ts += [T_NO_ZERO, 17.845599540410861, math.nextafter(50.0, 0.0), T_THETA_MAX]
        for t in ts:
            assert theta_exact(-t) == -theta_exact(t)
            assert -1.0 < arg_gamma_quarter(t) <= 1.0
        assert cli.main(["theta", *map(repr, ts)]) == 0
        assert capsys.readouterr().out == "".join(f"{theta_exact(t):.12f}\n" for t in ts)
        with pytest.raises(AssertionError, match="siegeltheta"):
            theta_exact(math.nextafter(T_NO_ZERO, 0.0))


class TestThetaSeries:
    def test_matches_exact_in_main_window(self):
        # From T_NO_ZERO = 14 up theta_exact is the 8-term series bit for
        # bit; from 50 up the order-4 default rounds to the same double.
        edges = np.linspace(T_NO_ZERO, 50.0, 101)
        ts = np.random.default_rng(29).uniform(edges[:-1], edges[1:]).tolist()
        for t in [T_NO_ZERO, 17.845599540410861, 30.0, 49.99, math.nextafter(50.0, 0.0)] + ts:
            assert theta_series(t, MAX_SERIES_ORDER) == theta_exact(t), t
        for t in (50.0, 63.7, 200.0, 1234.5, 9999.0, T_THETA_MAX):
            assert theta_series(t) == theta_exact(t), t
            assert theta_series(t, MAX_SERIES_ORDER) == theta_exact(t), t

    def test_error_ladder_at_ten(self):
        # Error after k correction terms, frozen from the mpmath value.
        exact = -3.0670743962898953
        ladder = [2.1e-3, 1.3e-6, 4e-9, 3.1e-11, 5e-13]
        for order, bound in enumerate(ladder):
            assert abs(theta_series(10.0, order=order) - exact) < bound

    def test_first_correction_term(self):
        # The order-1 refinement at t adds exactly 1/(48 t).
        t = 10000.0
        delta = theta_series(t, order=1) - theta_series(t, order=0)
        assert delta == pytest.approx(1.0 / (48.0 * t), abs=5e-12)

    def test_domain_and_order_validation(self):
        with pytest.raises(ValueError):
            theta_series(9.0)
        for t in (T_THETA_MAX * 1.5, math.nan):
            with pytest.raises(ValueError, match="10 <= t <= 20000"):
                theta_series(t)
        assert theta_series(T_THETA_MAX) == theta_exact(T_THETA_MAX)
        with pytest.raises(ValueError):
            theta_series(100.0, order=9)
        with pytest.raises(ValueError):
            theta_series(100.0, order=-1)


    def test_python_floats(self):
        # The scalar theta path, which the closed-form table reads, stays in
        # Python floats: theta_tail sums an array with 0-d coefficients, a
        # float with floats.
        for value in (theta_tail(100.0, 8), theta_exact(100.0), corrected_approx(100, 4)):
            assert type(value) is float
        assert theta_tail(np.array([100.0]), 8)[0] == theta_tail(100.0, 8)


class TestThetaVec:
    # theta_series_vec is the asymptotic series alone, for t >= T_NO_ZERO = 14.

    def test_against_mpmath(self):
        # 14, the double above it, one height in each of 400 strata of
        # [14, 50], and the doubles next to 50.
        rng = np.random.default_rng(23)
        edges = np.linspace(T_NO_ZERO, 50.0, 401)
        ts = np.concatenate([[T_NO_ZERO, np.nextafter(T_NO_ZERO, 50.0)],
                             rng.uniform(edges[:-1], edges[1:]),
                             [np.nextafter(50.0, 0.0), 50.0, np.nextafter(50.0, 100.0)]])
        with mp.workdps(40):
            want = [float(mp.siegeltheta(t)) for t in ts.tolist()]
        assert np.max(np.abs(theta_series_vec(ts) - want)) <= 5e-14

    def test_empty_array(self):
        assert theta_series_vec(np.array([])).shape == (0,)

    def test_low_heights_against_theta_exact(self):
        ts = np.array([t for t in THETA_REFERENCE if T_NO_ZERO <= t < 50.0])
        assert len(ts) == 3
        assert np.max(np.abs(theta_series_vec(ts) - [theta_exact(t) for t in ts])) <= 5e-14

    def test_batch_independent(self):
        ts = np.arange(280, 1000) * 0.05
        alone = [theta_series_vec(ts[k:k + 1])[0] for k in range(len(ts))]
        assert np.array_equal(theta_series_vec(ts[::-1])[::-1], alone)


class TestSmoothMain:
    def test_against_60_digit_oracle(self):
        # smooth_main is correctly rounded: equal bit for bit to the 60-digit
        # x ln x - x + 7/8 (x = t/2pi) rounded to nearest.  One height in
        # each of 200 strata of [0, 2e4] and 60 of log t in [-700, 0], plus
        # every integer 1..10^4 (the table command's heights), halves, the
        # extremes of the double range and the three heights where the term
        # is 7/8 or crosses zero.
        rng = np.random.default_rng(99)
        heights = np.linspace(0.0, 2e4, 201)
        logs = np.linspace(-700.0, 0.0, 61)
        ts = list(rng.uniform(heights[:-1], heights[1:]))
        ts += list(np.exp(rng.uniform(logs[:-1], logs[1:])))
        ts += range(1, 10001)
        ts += [5e-324, 2.2250738585072014e-308, 0.5, 1.0, 2.0 * math.pi * math.e,
               7.5, 2.5e-3, 1000.5, 3046.05, 9999.999, 1e4, 2e4, 1e306]
        def f(x):
            return x * mp.log(x) - x + mp.mpf(7) / 8

        with mp.workdps(60):
            ts += [float(2 * mp.pi * mp.findroot(f, x0)) for x0 in (0.55, 4.5)]
            for t in ts:
                t = float(t)
                assert smooth_main(t) == float(f(mp.mpf(t) / (2 * mp.pi))), t

    def test_domain(self):
        for t in (0.0, -1.0, math.nan, -math.inf):
            with pytest.raises(ValueError, match="requires t > 0"):
                smooth_main(t)
        with pytest.raises(OverflowError):
            smooth_main(1e307)

    def test_cache_info_kept(self):
        # The benchmark reads its hit ratio from the LRU cache statistics.
        assert smooth_main.cache_info().maxsize > 0


def test_smooth_main_correlates_with_theta():
    # theta(t)/pi + 1 - smooth_main(t) equals the small tail correction
    # over pi; it must stay positive and shrink like 1/t.
    for t in (50.0, 100.0, 1000.0, 10000.0):
        gap = theta_exact(t) / math.pi + 1.0 - smooth_main(t)
        assert 0.0 < gap < 1.0 / (40.0 * t)


class TestLnFixed:
    def test_against_60_digit_oracle(self):
        # At every bit length 1..1100: the power of two, 2^k + 1 and 2^k - 1
        # (both ends of the Taylor domain [1/2, 1)), a random 53-bit
        # numerator shifted to that length (a double's) and a random integer
        # of that length.  From _LOG_BITS + 1 bits on the kernel's argument
        # is shifted right.
        rng = np.random.default_rng(2024)
        cases = []
        for bits in range(1, 1101):
            top = 1 << bits - 1
            cases += [top, top + 1, 2 * top - 1]
            cases.append((1 << 52 | int(rng.integers(1 << 52))) << max(bits - 53, 0)
                         >> max(53 - bits, 0))
            cases.append(top | int.from_bytes(rng.bytes(bits // 8 + 1), "little") % top)
        assert any(m.bit_length() > _LOG_BITS for m in cases)
        with mp.workdps(60):
            unit = mp.mpf(2) ** -_FIXED_BITS
            for m in cases:
                assert abs(_ln_fixed(m) * unit - mp.log(m)) <= unit, m

    def test_small_integers(self):
        # m = 1..1024 puts x = m / 2^r on every node k / 512 of _LN_TABLE,
        # where the series is empty, and between nodes.
        with mp.workdps(60):
            unit = mp.mpf(2) ** -_FIXED_BITS
            for m in range(1, 1025):
                assert abs(_ln_fixed(m) * unit - mp.log(m)) <= unit, m


class TestCombinationOver8Pi:
    @pytest.mark.parametrize("p", [0, 1, -3])
    def test_p_below_two_rejected(self, p):
        # ln p of such a p is no basis element, and _ln_fixed takes m >= 1.
        with pytest.raises(ValueError, match=f"p = {p}"):
            special.combination_over_8pi(0, 0, 0, ((p, 1),))


class TestFrozenConstants:
    def test_rederived(self):
        # The fixed-point integers from mpmath.libmp, and the theta series
        # coefficients c_k = (1 - 2^(1-2n)) |B_2n| / (4n(2n-1)), n = k + 1,
        # from exact Bernoulli numbers, each rounded once.
        from mpmath.libmp import dps_to_prec, ln2_fixed, mpf_log, mpf_pi, pi_fixed, to_fixed

        assert _FIXED_BITS == dps_to_prec(EXTENDED_DPS)
        assert _LOG_BITS == _FIXED_BITS + 16
        assert _PI_FIXED == pi_fixed(_FIXED_BITS)
        assert _LN2_FIXED == ln2_fixed(_FIXED_BITS)
        assert _LN2_LOG_BITS == ln2_fixed(_LOG_BITS)
        assert _LN_PI_FIXED == to_fixed(mpf_log(mpf_pi(_LOG_BITS), _LOG_BITS), _FIXED_BITS)
        derived = []
        for n in range(1, MAX_SERIES_ORDER + 1):
            b = abs(Fraction(*mp.bernfrac(2 * n)))
            derived.append(float((1 - Fraction(1, 2 ** (2 * n - 1))) * b / (4 * n * (2 * n - 1))))
        assert _THETA_COEFFS == tuple(derived)

    def test_ln_table_rederived(self):
        # Entry k - 256 is floor(ln(k / 512) * 2^_LOG_BITS) for k = 256..511,
        # from mpmath.log at 400 bits.  The nearest of these values to an
        # integer lies 2^-14 units from it, far above that precision's error.
        assert len(_LN_TABLE) == 256
        with mp.workprec(400):
            for k, entry in enumerate(_LN_TABLE, 256):
                assert entry == int(mp.floor(mp.log(mp.mpf(k) / 512) * mp.mpf(2) ** _LOG_BITS)), k


class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-15)
        assert lambert_w0(1.0) == pytest.approx(0.56714329040978387, abs=1e-15)
        assert lambert_w0(10.0) == pytest.approx(1.7455280027406994, abs=1e-14)

    def test_branch_point(self):
        assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)

    def test_below_branch_point_rejected(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.5)

    def test_snap_to_branch_point(self):
        assert lambert_w0(-_INV_E_HI - 5e-16) == -1.0
        with pytest.raises(ValueError, match="domain"):
            lambert_w0(-_INV_E_HI - 2e-15)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, x):
        # Rejected by name: NaN fails every comparison and +inf has no
        # finite start for the iteration.
        with pytest.raises(ValueError, match="domain"):
            lambert_w0(x)

    def test_defining_identity(self):
        for x in np.geomspace(1e-3, 1e8, 50):
            w = lambert_w0(float(x))
            assert w * math.exp(w) == pytest.approx(float(x), rel=1e-13)

    def test_against_mpmath_lambertw(self):
        for x in np.geomspace(0.01, 1e6, 40):
            ours = lambert_w0(float(x))
            ref = float(mp.lambertw(float(x)))
            assert ours == pytest.approx(ref, rel=1e-14)

    def test_whole_domain_against_mpmath(self):
        # Within 4 ulp(W) + 4 ulp(x) |W'(x)|, W' = W / (x (1 + W)): just above
        # the branch point, where W' is about e / sqrt(2 (e x + 1)), and up to
        # the largest double.
        branch = -1.0 / math.e
        xs = np.concatenate([branch + np.logspace(-16, 0, 200), np.logspace(-300, 308, 300),
                             -np.logspace(-300, -0.44, 50),
                             [np.nextafter(branch, 0.0), 2.07e58, 4e307, sys.float_info.max],
                             # Subnormals on both sides of 0, and both sides of
                             # 1e300, where an earlier solver changed form.
                             [5e-324, 1e-310, -1e-310, -5e-324, 1e300, np.nextafter(1e300, 0.0)]])
        with mp.workdps(30):
            for x in xs.tolist():
                ref = mp.lambertw(x)
                slope = float(ref / (x * (1 + ref)))
                allowed = 4 * math.ulp(float(ref)) + 4 * math.ulp(x) * abs(slope)
                assert abs(lambert_w0(x) - ref) <= allowed, x

    def test_pinned_away_from_branch_point(self):
        # Bit for bit on [-1/e + 0.25, 10^57.5], where every x starts from
        # Winitzki's approximation and takes the same three Fritsch steps.
        # The inputs are built with arithmetic and Python's ** (libm pow),
        # not NumPy's exp/log loops, whose last bit depends on the SIMD
        # target; the digest still rests on the platform libm's pow, log
        # and log1p.
        xs = (-1.0 / math.e + 0.25 + np.linspace(0.0, 3.0, 301)).tolist()
        xs += [10.0 ** (0.5 + 57 * k / 599) for k in range(600)]
        values = np.array([lambert_w0(x) for x in xs])
        digest = "ff6aa7a36a9c66be115278d10350e5352b2abdf277b1dcc5f63c10ed051100c9"
        assert hashlib.sha256(values.tobytes()).hexdigest() == digest


class TestZetaCriticalLine:
    def test_reference_values(self):
        for t, want in ZETA_REFERENCE.items():
            got = zeta_critical_line(t)
            assert abs(got - want) < 1e-9, t

    def test_window_enforced(self):
        for t in (-1.0, math.nan, T_Z_MAX):
            with pytest.raises(ValueError):
                zeta_critical_line(t)
        for t in (0.0, np.nextafter(T_Z_MAX, 0.0)):
            assert math.isfinite(abs(zeta_critical_line(t)))


def zeta_error_bound(t):
    # The bound stated in the special.py docstrings.
    return 5e-15 * max(t, 100.0)


class TestKernelOracle:
    # The scalar zeta and Z are one-element calls into the vector kernel
    # that the zero scan uses, so this also checks the scan's evaluator.
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(st.floats(min_value=2.0, max_value=1e4))
    def test_against_mpmath(self, t):
        with mp.workdps(20):
            z_ref = float(mp.siegelz(t))
            zeta_ref = complex(mp.zeta(mp.mpc(0.5, t)))
        assert abs(hardy_z(t) - z_ref) <= zeta_error_bound(t)
        assert abs(zeta_critical_line(t) - zeta_ref) <= zeta_error_bound(t)

    # The smallest truncations (N = 20 at t = 0) and the largest (t = 1e4),
    # the first zero, both sides of the kernel's switch at T_RS, and both
    # sides of 800, the top of the range where the Euler-Maclaurin kernel is
    # the Riemann-Siegel kernel's reference.
    @pytest.mark.parametrize("t", [0.0, 0.5, T_RS - 0.01, T_RS + 0.01, 799.99, 800.01])
    def test_zeta_edges(self, t):
        with mp.workdps(20):
            zeta_ref = complex(mp.zeta(mp.mpc(0.5, t)))
        assert abs(zeta_critical_line(t) - zeta_ref) <= zeta_error_bound(t)

    @pytest.mark.parametrize("t", [2.0, 14.134725, T_RS - 0.01, T_RS + 0.01, 799.99, 800.01, 1e4])
    def test_z_edges(self, t):
        with mp.workdps(20):
            z_ref = float(mp.siegelz(t))
        assert abs(hardy_z(t) - z_ref) <= zeta_error_bound(t)

    def test_riemann_siegel_against_frozen_oracle(self):
        assert T_RS in RS_REFERENCE
        ratios = []
        for t, z_ref in RS_REFERENCE.items():
            err = abs(hardy_z(t) - z_ref)
            assert err <= zeta_error_bound(t), t
            ratios.append(err / zeta_error_bound(t))
        assert max(ratios) <= 0.5

    def test_top_of_domain_against_frozen_oracle(self):
        assert max(TOP_REFERENCE) == np.nextafter(T_Z_MAX, 0.0)
        for t, (z_ref, zeta_ref) in TOP_REFERENCE.items():
            assert abs(hardy_z(t) - z_ref) <= zeta_error_bound(t), t
            assert abs(zeta_critical_line(t) - zeta_ref) <= zeta_error_bound(t), t


class TestEulerMaclaurinKernel:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=400))
    def test_batch_independent(self, ts):
        # A mixed, unsorted batch with duplicates spanning several chunks:
        # every value equals the element's own one-element evaluation.
        batch = np.array(ts + ts[::2])
        alone = np.array([hardy_z(np.array([t]))[0] for t in batch])
        assert np.array_equal(hardy_z(batch), alone)

    def test_batch_independent_across_cutoff(self):
        below = np.nextafter(T_RS, 0.0)
        short = np.nextafter(_T_RS_SHORT, 0.0)
        # Above 180 the Euler-Maclaurin width steps from 64 to 128 columns,
        # and at 2 pi k^2 the Riemann-Siegel N crosses a 7-column block edge.
        edges = [2 * math.pi * k ** 2 for k in (7, 8, 14, 15, 21, 22)]
        batch = np.array([1e4, T_RS, _T_RS_SHORT, below, T_RS, 1e4, short, below, _T_RS_SHORT,
                          5000.0, short, 180.0, np.nextafter(180.0, math.inf), *edges,
                          *np.nextafter(edges, 0.0)])
        alone = np.array([hardy_z(np.array([t]))[0] for t in batch])
        assert np.array_equal(hardy_z(batch), alone)

    def test_bernoulli_table(self):
        with mp.workdps(60):
            derived = [float(mp.bernoulli(2 * j) / mp.factorial(2 * j))
                       for j in range(1, len(_EM_BERNOULLI) + 1)]
        assert list(_EM_BERNOULLI) == derived

    @pytest.mark.parametrize("t", [0.0, 14.0, 100.0, 1000.0, 5000.0, 1e4])
    def test_backlund_bound(self, t):
        # Backlund: with m corrections at truncation N the remainder is below
        # |s + 2m + 1| / (sigma + 2m + 1) times the first omitted term
        # B_2m+2 / (2m+2)! * s(s+1)...(s+2m) * N^(-s-2m-1).
        m = len(_EM_BERNOULLI)
        n = int(_em_truncation(np.array([t]))[0])
        with mp.workdps(30):
            s = mp.mpc(0.5, t)
            omitted = (abs(mp.bernoulli(2 * m + 2)) / mp.factorial(2 * m + 2)
                       * mp.fprod(abs(s + k) for k in range(2 * m + 1))
                       * mp.mpf(n) ** (-0.5 - 2 * m - 1))
            bound = float(abs(s + 2 * m + 1) / (0.5 + 2 * m + 1) * omitted)
        assert bound <= 0.02 * zeta_error_bound(t)


def _chunked_batch():
    """2 full Euler-Maclaurin chunks and a short one, then 3 full
    Riemann-Siegel chunks and a short one, shuffled."""
    rng = np.random.default_rng(29)
    ts = np.concatenate([rng.uniform(0.0, T_RS, 2 * _CHUNK + 188),
                         rng.uniform(T_RS, 800.0, 2 * _CHUNK - 12),
                         rng.uniform(800.0, T_Z_MAX, 2 * _RS_CHUNK + 276)])
    rng.shuffle(ts)
    return ts


class TestChunkWorkspace:
    def test_reused_across_chunks(self):
        # All the chunks go through one workspace, and the term widths grow
        # from chunk to chunk.
        ts = _chunked_batch()
        alone = np.array([hardy_z(ts[k:k + 1])[0] for k in range(len(ts))])
        assert np.array_equal(hardy_z(ts), alone)

    def test_poisoned_scratch(self, monkeypatch):
        # Every scratch array starts as all-ones bytes, NaN as a float: a
        # kernel that reads a cell it has not written, such as a term past
        # the truncation that a masked ufunc skips, changes the values.
        ts = _chunked_batch()
        z, zeta = hardy_z(ts), zeta_critical_line(ts)

        def poisoned(slot, shape, dtype=np.float64):
            array = np.empty(shape, dtype)
            array.view(np.uint8).fill(0xFF)
            return array

        workspace = special._workspace

        def poisoned_workspace(em_rows, rs_rows):
            take = workspace(em_rows, rs_rows)
            if take is not poisoned:
                # Every view shares the workspace's one buffer as its base.
                take(0, (1,), np.uint8).base.fill(0xFF)
            return take

        monkeypatch.setattr(special, "_fresh_array", poisoned)
        monkeypatch.setattr(special, "_workspace", poisoned_workspace)
        # Bit for bit, on the batch and on one-element calls.
        for f, want in ((hardy_z, z), (zeta_critical_line, zeta)):
            assert f(ts).tobytes() == want.tobytes()
            alone = np.concatenate([f(ts[k:k + 1]) for k in range(len(ts))])
            assert alone.tobytes() == want.tobytes()

    def test_take_past_slot_raises(self):
        # A slot holds one full chunk of the largest Euler-Maclaurin rows.
        take = _workspace(2 * _CHUNK, 0)
        columns = _EM_ROW_BYTES // 8
        assert take(2, (_CHUNK, columns)).shape == (_CHUNK, columns)
        with pytest.raises(ValueError):
            take(0, (_CHUNK, columns + 1))


class TestVectorDomain:
    # 2 pi 43^2 = 11617.6...: from there on N = 43 outgrows the 42 phase rows.
    @pytest.mark.parametrize("t", [-5.0, -1e-300, math.nan, math.inf, -math.inf, 11617.7, 2e4])
    def test_hardy_z_rejects(self, t):
        with pytest.raises(ValueError):
            hardy_z(np.array([300.0, t, 20.0]))

    # The same check on a 2-D grid of Riemann-Siegel heights with one bad
    # entry, as hardy_z takes arrays of any shape.
    @pytest.mark.parametrize("t", [-5.0, 2e4, math.nan])
    def test_hardy_z_rejects_bad_entry_in_grid(self, t):
        with pytest.raises(ValueError):
            hardy_z(np.array([[900.0, 900.0], [900.0, t]]))

    def test_edges_accepted(self):
        ends = np.array([0.0, T_RS, 11617.5])
        assert np.all(np.isfinite(hardy_z(ends)))
        assert hardy_z(ends[2:])[0] == hardy_z(ends)[2]

    def test_any_shape(self):
        # A 2-D array gives one of its shape, a float a float; every value
        # is the one-element call's.
        grid = np.array([[14.0, 300.0, 5000.0], [0.5, 199.99, 11617.5]])
        got = hardy_z(grid)
        assert got.shape == grid.shape
        assert np.array_equal(got.ravel(), [hardy_z([t])[0] for t in grid.ravel()])
        assert hardy_z(300.0) == got[0, 1]

    def test_scan_grid_past_window_end(self):
        # The lattice core ends at 10000.1, past the window.
        zeros = scan_zeros(ScanConfig(t_lo=9998.0, t_hi=1e4))
        assert zeros.count == 2 and zeros.suspect_intervals == ()


class TestRiemannSiegelKernel:
    def test_lattice_against_euler_maclaurin(self):
        # All 12,000 points of the 0.05 lattice in [T_RS, 800), where the
        # Euler-Maclaurin kernel (N <= 220) is an independent reference:
        # the two agree within the bound, and so in sign.
        ts = np.arange(4000, 16000) * 0.05
        reference = np.concatenate([_z_from_zeta(chunk, _zeta_em_chunk(chunk, _fresh_array))
                                    for chunk in np.split(ts, 50)])
        got = hardy_z(ts)
        assert np.all(np.abs(got - reference) <= 5e-15 * ts)
        assert np.array_equal(np.sign(got), np.sign(reference))

    def test_dropped_corrections_below_bound(self):
        # From _T_RS_SHORT up the kernel sums C0..C7 alone.  With |T_j| <= 1
        # and |x| <= 1, C8..C13 add at most sum_kj |b_kj| a^-(k + 1/2), which
        # falls with t: at the band edge it is below 1e-3 of the bound.
        a = math.sqrt(_T_RS_SHORT / (2 * math.pi))
        rows = slice(_RS_SHORT_ROWS, None)
        dropped = np.abs(_RS_CHEBYSHEV[rows]).sum(axis=1) @ a ** _RS_POWERS[rows]
        assert dropped <= 1e-3 * zeta_error_bound(_T_RS_SHORT)


class TestHardyZ:
    def test_real_rotation_identity(self):
        rng = np.random.default_rng(7)
        ts = rng.uniform(2.0, 9990.0, size=120)
        for t in ts:
            t = float(t)
            z = hardy_z(t)
            rotated = complex(math.cos(theta_exact(t)), math.sin(theta_exact(t)))
            rotated *= zeta_critical_line(t)
            assert abs(z - rotated.real) <= 1e-8
            assert abs(rotated.imag) <= 1e-8 * max(1.0, abs(z))

    def test_window_enforced(self):
        for t in (-1.0, math.nan, T_Z_MAX):
            with pytest.raises(ValueError):
                hardy_z(t)
        for t in (0.0, 1.0, np.nextafter(T_Z_MAX, 0.0)):
            assert math.isfinite(hardy_z(t))

    def test_sign_change_at_first_zero(self):
        assert hardy_z(14.0) * hardy_z(14.2) < 0.0

    def test_below_first_zero_against_mpmath(self):
        # Below T_NO_ZERO Z is -|zeta|: 0, one height in each of 400 strata
        # of [0, 14) and the double below 14.
        rng = np.random.default_rng(41)
        edges = np.linspace(0.0, T_NO_ZERO, 401)
        ts = np.concatenate([[0.0], rng.uniform(edges[:-1], edges[1:]),
                             [np.nextafter(T_NO_ZERO, 0.0)]])
        with mp.workdps(30):
            want = [float(mp.siegelz(t)) for t in ts.tolist()]
        got = hardy_z(ts)
        assert np.all(got < 0.0)
        assert np.max(np.abs(got - want)) <= 5e-13


class TestWrapHalfTurns:
    def test_interval_convention(self):
        # Output lives in (-1, 1] with the boundary mapped to +1.
        assert wrap_half_turns(1.0) == 1.0
        assert wrap_half_turns(-1.0) == 1.0
        assert wrap_half_turns(3.0) == 1.0
        assert wrap_half_turns(0.0) == 0.0

    def test_periodicity(self):
        for x in (0.3, -0.45, 0.999):
            assert wrap_half_turns(x + 2.0) == pytest.approx(x, abs=1e-12)
            assert wrap_half_turns(x - 4.0) == pytest.approx(x, abs=1e-12)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, u):
        with pytest.raises(ValueError):
            wrap_half_turns(u)


class TestArgZetaPrincipal:
    def test_small_heights(self):
        # Frozen from mp.arg(mp.zeta(1/2 + in)) / pi at 40 digits.
        assert arg_zeta_principal(1.0) == pytest.approx(-0.437372012317, abs=1e-9)
        assert arg_zeta_principal(2.0) == pytest.approx(-0.195977582921, abs=1e-9)
        assert arg_zeta_principal(4000.0) == pytest.approx(-0.382343520341, abs=1e-9)

    def test_range(self):
        for t in np.linspace(1.0, 500.0, 97):
            v = arg_zeta_principal(float(t))
            assert -1.0 < v <= 1.0

    def test_at_zero_ordinate(self):
        # Double closest to the first zeta zero ordinate.
        with pytest.raises(AtZeroError):
            arg_zeta_principal(14.134725141734694)


# Ordinates on both sides of T_RS, and T_NO_ZERO and T_RS with their lower
# neighbours.
_HEIGHTS = st.one_of(
    st.floats(min_value=0.0, max_value=1e4),
    st.floats(min_value=T_RS - 2.0, max_value=T_RS + 2.0),
    st.sampled_from([0.0, T_NO_ZERO, float(np.nextafter(T_NO_ZERO, 0.0)), T_RS,
                     float(np.nextafter(T_RS, 0.0)), 1e4]),
)


class TestArrayAPI:
    # hardy_z, zeta_critical_line and arg_zeta_principal take a float or an
    # array; a float is a one-element call into the same evaluator.
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.lists(_HEIGHTS, min_size=1, max_size=300), st.data())
    def test_elements_equal_scalar_calls(self, ts, data):
        batch = np.array(ts + ts[::3])
        batch = batch[data.draw(st.permutations(range(len(batch))))]
        z = hardy_z(batch)
        zeta = zeta_critical_line(batch)
        arg = arg_zeta_principal(batch)
        assert z.shape == zeta.shape == arg.shape == batch.shape
        # Scalar calls share one per-height memo, so the function that comes
        # first in a pass evaluates and the others read its values: both
        # orders, each from an empty memo, must give the array elements.
        _z_zeta_at.cache_clear()
        assert np.array_equal(z, [hardy_z(float(t)) for t in batch])
        assert np.array_equal(zeta, [zeta_critical_line(float(t)) for t in batch])
        assert np.array_equal(arg, [arg_zeta_principal(float(t)) for t in batch])
        _z_zeta_at.cache_clear()
        assert np.array_equal(arg, [arg_zeta_principal(float(t)) for t in batch])
        assert np.array_equal(zeta, [zeta_critical_line(float(t)) for t in batch])
        assert np.array_equal(z, [hardy_z(float(t)) for t in batch])
        order = np.array(data.draw(st.permutations(range(len(batch)))))
        subset = order[:data.draw(st.integers(min_value=0, max_value=len(batch)))]
        for idx in (order, subset):
            assert np.array_equal(hardy_z(batch[idx]), z[idx])
            assert np.array_equal(zeta_critical_line(batch[idx]), zeta[idx])
            assert np.array_equal(arg_zeta_principal(batch[idx]), arg[idx])

    # One height per band: Z = -|zeta|, Euler-Maclaurin, Riemann-Siegel with
    # C0..C13 and with C0..C7.
    @pytest.mark.parametrize("t", [5.0, 100.0, 500.0, 5000.0])
    def test_zero_d_array_is_scalar(self, t):
        for f, kind in ((hardy_z, float), (zeta_critical_line, complex), (arg_zeta_principal, float)):
            _z_zeta_at.cache_clear()
            got = f(np.array(t))
            assert type(got) is kind
            assert got == f(np.array([t]))[0]

    def test_scalar_types(self):
        assert type(hardy_z(1000.0)) is float
        assert type(zeta_critical_line(1000.0)) is complex
        assert type(arg_zeta_principal(1000.0)) is float

    def test_empty(self):
        assert hardy_z(np.array([])).shape == (0,)
        assert zeta_critical_line(np.array([])).shape == (0,)
        assert arg_zeta_principal(np.array([])).shape == (0,)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, T_Z_MAX])
    def test_out_of_window_rejected(self, bad):
        batch = np.array([5.0, 900.0, bad, 20.0])
        with pytest.raises(ValueError):
            zeta_critical_line(batch)
        with pytest.raises(ValueError):
            arg_zeta_principal(batch)
        # A scalar failure is not memoized: the second call raises too.
        for f in (hardy_z, zeta_critical_line, arg_zeta_principal):
            for _ in range(2):
                with pytest.raises(ValueError):
                    f(bad)

    def test_at_zero_names_height(self):
        t = 14.134725141734694
        with pytest.raises(AtZeroError, match=f"t = {re.escape(repr(t))} "):
            arg_zeta_principal(np.array([1.0, 900.0, t, 20.0]))
        # The memo keeps zeta at t, and each scalar call checks it again.
        for _ in range(2):
            with pytest.raises(AtZeroError, match=f"t = {re.escape(repr(t))} "):
                arg_zeta_principal(t)
        assert hardy_z(t) == hardy_z(np.array([t]))[0]
        assert abs(hardy_z(t)) < 1e-12

    def test_one_kernel_evaluation_per_scalar_height(self, monkeypatch):
        calls, with_zetas = [], []

        def counting(ts, with_zeta=True):
            calls.append(len(ts))
            with_zetas.append(with_zeta)
            return _critical_line(ts, with_zeta)

        monkeypatch.setattr(special, "_critical_line", counting)
        _z_zeta_at.cache_clear()
        for t in (100.0, 1000.0):
            hardy_z(t)
            zeta_critical_line(t)
            arg_zeta_principal(np.array(t))
        assert calls == [1, 1]
        batch = np.array([100.0, 1000.0])
        hardy_z(batch)
        hardy_z(batch)
        assert calls == [1, 1, 2, 2]
        # An array call of zeta or of its phase is one kernel call as well.
        zeta_critical_line(batch)
        arg_zeta_principal(batch)
        assert calls == [1, 1, 2, 2, 2, 2]
        # An array Z call alone leaves zeta unformed.
        assert with_zetas == [True, True, False, False, True, True]


class TestArgGammaQuarter:
    def test_reference_value(self):
        assert arg_gamma_quarter(1.0) == pytest.approx(-0.380438567847, abs=1e-9)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_rejected(self, t):
        with pytest.raises(ValueError):
            arg_gamma_quarter(t)

    def test_theta_domain(self):
        assert -1.0 < arg_gamma_quarter(-T_THETA_MAX) <= 1.0
        with pytest.raises(ValueError):
            arg_gamma_quarter(np.nextafter(T_THETA_MAX, math.inf))

    def test_against_mpmath(self):
        # One height in each of 40 strata of (0, 2e4].  The unwrapped phase
        # reaches 2.6e4 half turns; two of its ulps are 7.3e-12 at the top.
        rng = np.random.default_rng(17)
        edges = np.linspace(0.0, T_THETA_MAX, 41)
        for t in rng.uniform(edges[:-1], edges[1:]).tolist() + [T_THETA_MAX]:
            with mp.workdps(40):
                phase = float(mp.loggamma(mp.mpc(0.25, t / 2)).imag / mp.pi)
            err = abs(math.remainder(arg_gamma_quarter(t) - phase, 2.0))
            assert err <= 2.0 * math.ulp(max(abs(phase), 1.0)), t

    def test_odd_and_zero(self):
        assert arg_gamma_quarter(0.0) == 0.0
        for t in (0.5, 12.0):
            assert arg_gamma_quarter(-t) == -arg_gamma_quarter(t)

    def test_range(self):
        for t in np.linspace(0.5, 300.0, 61):
            v = arg_gamma_quarter(float(t))
            assert -1.0 < v <= 1.0


class TestRiemannSiegelTables:
    @pytest.fixture(scope="class")
    def derive(self):
        spec = importlib.util.spec_from_file_location(
            "derive_rs_coefficients", SCRIPTS / "derive_rs_coefficients.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_corrections_rederived(self, derive):
        # C_0 .. C_13: from C_2 on each row takes the phase series too.
        assert np.array_equal(derive.correction_coefficients(), _RS_CHEBYSHEV)

    def test_phase_table_rederived(self, derive):
        hi, lo = derive.phase_table()
        assert np.array_equal(hi, _RS_MU_HI) and np.array_equal(lo, _RS_MU_LO)
        assert derive.two_pi_split() == (_RS_TWO_PI_HI, _RS_TWO_PI_LO)

    def test_first_correction_is_psi(self):
        # C_0(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p), Gabcke's Psi.
        p = np.array([0.0, 0.1, 0.3, 0.5, 0.7, 0.95])
        y = 2.0 * (2.0 * p - 1.0) ** 2 - 1.0
        c0 = np.polynomial.chebyshev.chebval(y, _RS_CHEBYSHEV[0])
        psi = np.cos(2 * np.pi * (p * p - p - 0.0625)) / np.cos(2 * np.pi * p)
        assert np.allclose(c0, psi, rtol=0.0, atol=1e-15)
