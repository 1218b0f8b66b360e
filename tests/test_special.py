"""Tests for the phase and zeta building blocks.

Reference values are frozen from 40-digit mpmath evaluations
(mp.siegeltheta, mp.zeta, mp.lambertw, mp.loggamma) unless a value
is forced by the definition itself.
"""

import importlib.util
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaphase import (
    AtZeroError,
    arg_gamma_quarter,
    arg_zeta_principal,
    hardy_z,
    lambert_w0,
    log_gamma_complex,
    theta_exact,
    theta_series,
    wrap_half_turns,
    zeta_critical_line,
)
from zetaphase.special import (
    _BERNOULLI_ABS,
    _EM_BERNOULLI,
    _RS_CHEBYSHEV,
    _RS_MU_HI,
    _RS_MU_LO,
    _RS_TWO_PI_HI,
    _RS_TWO_PI_LO,
    T_RS,
    _em_truncation,
    hardy_z_vec,
    smooth_main,
)

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# mp.siegeltheta at 40 digits, rounded to double.
THETA_REFERENCE = {
    10.0: -3.0670743962898953,
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


# mp.siegelz at 20 digits, rounded to double: one height in each of 48 equal
# strata of [T_RS, 1e4], and T_RS with its neighbours at +-0.01.
RS_REFERENCE = {
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


class TestThetaSeries:
    def test_matches_exact_in_main_window(self):
        # Above t = 50 the series path and the exact path agree bitwise:
        # both round the same smooth main term and correction.
        for t in (50.0, 63.7, 200.0, 1234.5, 9999.0):
            assert theta_series(t) == theta_exact(t)

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
        with pytest.raises(ValueError):
            theta_series(100.0, order=9)
        with pytest.raises(ValueError):
            theta_series(100.0, order=-1)


class TestSmoothMain:
    def test_against_60_digit_oracle(self):
        # smooth_main is correctly rounded: equal bit for bit to the 60-digit
        # x ln x - x + 7/8 (x = t/2pi) rounded to nearest.  One height in
        # each of 200 strata of [0, 2e4] and 60 of log t in [-700, 0], plus
        # integers, halves, the extremes of the double range and the three
        # heights where the term is 7/8 or crosses zero.
        rng = np.random.default_rng(99)
        heights = np.linspace(0.0, 2e4, 201)
        logs = np.linspace(-700.0, 0.0, 61)
        ts = list(rng.uniform(heights[:-1], heights[1:]))
        ts += list(np.exp(rng.uniform(logs[:-1], logs[1:])))
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
        for t in (0.0, -1.0):
            with pytest.raises(ValueError):
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


class TestLogGamma:
    def test_against_mpmath(self):
        cases = {
            complex(0.25, 0.5): complex(0.34025042040841979, -1.1951830098875903),
            complex(0.25, 2.5): complex(-3.2358405107546571, -0.59779566073996210),
        }
        for z, want in cases.items():
            got = log_gamma_complex(z)
            assert got.real == pytest.approx(want.real, abs=1e-12)
            assert got.imag == pytest.approx(want.imag, abs=1e-12)

    def test_pole_rejected(self):
        for z in (0.0, -1.0, -2.0 + 0.0j):
            with pytest.raises(ValueError):
                log_gamma_complex(complex(z))


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

    def test_defining_identity(self):
        for x in np.geomspace(1e-3, 1e8, 50):
            w = lambert_w0(float(x))
            assert w * math.exp(w) == pytest.approx(float(x), rel=1e-13)

    def test_against_scipy(self):
        for x in np.geomspace(0.01, 1e6, 40):
            ours = lambert_w0(float(x))
            ref = float(scipy.special.lambertw(float(x)).real)
            assert ours == pytest.approx(ref, rel=1e-14)


class TestZetaCriticalLine:
    def test_reference_values(self):
        for t, want in ZETA_REFERENCE.items():
            got = zeta_critical_line(t)
            assert abs(got - want) < 1e-9, t

    def test_window_enforced(self):
        with pytest.raises(ValueError):
            zeta_critical_line(-1.0)
        with pytest.raises(ValueError):
            zeta_critical_line(10001.0)


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
    # the first zero, both sides of the grid's evaluator switch at 200 and
    # both sides of the kernel's switch at T_RS.
    @pytest.mark.parametrize("t", [0.0, 0.5, T_RS - 0.01, T_RS + 0.01])
    def test_zeta_edges(self, t):
        with mp.workdps(20):
            zeta_ref = complex(mp.zeta(mp.mpc(0.5, t)))
        assert abs(zeta_critical_line(t) - zeta_ref) <= zeta_error_bound(t)

    @pytest.mark.parametrize("t", [2.0, 14.134725, 199.99, 200.01, T_RS - 0.01, T_RS + 0.01, 1e4])
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


class TestEulerMaclaurinKernel:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=400))
    def test_batch_independent(self, ts):
        # A mixed, unsorted batch with duplicates spanning several chunks:
        # every value equals the element's own one-element evaluation.
        batch = np.array(ts + ts[::2])
        alone = np.array([hardy_z_vec(np.array([t]))[0] for t in batch])
        assert np.array_equal(hardy_z_vec(batch), alone)

    def test_batch_independent_across_cutoff(self):
        below = np.nextafter(T_RS, 0.0)
        batch = np.array([1e4, T_RS, 200.0, below, T_RS, 1e4, below, 200.0, 5000.0])
        alone = np.array([hardy_z_vec(np.array([t]))[0] for t in batch])
        assert np.array_equal(hardy_z_vec(batch), alone)

    def test_bernoulli_table(self):
        with mp.workdps(60):
            derived = [float(mp.bernoulli(2 * j) / mp.factorial(2 * j))
                       for j in range(1, len(_EM_BERNOULLI) + 1)]
        assert list(_EM_BERNOULLI) == derived
        for j, b in enumerate(_BERNOULLI_ABS, start=1):
            assert _EM_BERNOULLI[j - 1] == (-1) ** (j + 1) * float(b / math.factorial(2 * j))

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
        with pytest.raises(ValueError):
            hardy_z(1.0)
        with pytest.raises(ValueError):
            hardy_z(10500.0)

    def test_sign_change_at_first_zero(self):
        assert hardy_z(14.0) * hardy_z(14.2) < 0.0


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


class TestArgGammaQuarter:
    def test_reference_value(self):
        assert arg_gamma_quarter(1.0) == pytest.approx(-0.380438567847, abs=1e-9)

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
        # C_0 and C_1; the full table takes the same route through C_6.
        assert np.array_equal(derive.correction_coefficients(1), _RS_CHEBYSHEV[:2])

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
