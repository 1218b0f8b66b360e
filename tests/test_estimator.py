"""Tests for the closed-form zero estimator and the counting staircase."""

import math

import numpy as np
import pytest

from zetaphase import (
    UnitIntervalCounts,
    arg_zeta_principal,
    carrier_g,
    carrier_gamma,
    render_counts,
    staircase,
    staircase_jumps,
    staircase_levels,
    zero_estimate_lambert,
)
from zetaphase import special
from zetaphase.special import smooth_main

from test_zero_finder import FIRST_ORDINATES

# Values of g(n) + (1/pi) Arg zeta(1/2 + in) for n = 1..26, printed to the
# precision shown; our evaluation reproduces each to better than 1e-5.
STAIRCASE_26 = [
    0.485966, 0.496333, 0.497764, 0.498338, 0.498669, 0.498892, 0.499051,
    0.499168, 0.499263, 0.499335, 0.499395, 0.499447, 0.499489, 0.499526,
    1.49956, 1.49958, 1.49961, 1.49964, 1.49965, 1.49967, 1.49968, 2.49970,
    2.49972, 2.49972, 2.49974, 3.49974,
]


class TestLambertEstimate:
    def test_reference_values(self):
        assert zero_estimate_lambert(1) == pytest.approx(14.521346953066, abs=1e-9)
        assert zero_estimate_lambert(2) == pytest.approx(20.655740355700, abs=1e-9)
        assert zero_estimate_lambert(1000) == pytest.approx(
            1419.517764572191, abs=1e-9
        )

    def test_ratio_to_true_thousandth_zero(self):
        # mp.zetazero(1000) has ordinate 1419.422480945996.
        ratio = zero_estimate_lambert(1000) / 1419.422480945996
        assert ratio == pytest.approx(1.0, abs=1e-4)

    def test_within_one_of_first_ordinates(self):
        for n, true_y in enumerate(FIRST_ORDINATES, 1):
            gap = zero_estimate_lambert(n) - true_y
            assert -1.0 < gap < 1.0, n

    def test_inversion_identity(self):
        # Substituting the estimate back into the smooth phase condition
        # must reproduce n - 11/8 almost exactly.
        for n in range(2, 501):
            y = zero_estimate_lambert(n)
            lhs = (y / (2.0 * math.pi)) * math.log(y / (2.0 * math.pi * math.e))
            assert abs(lhs - (n - 11.0 / 8.0)) < 1e-10, n

    def test_monotone(self):
        values = [zero_estimate_lambert(n) for n in range(1, 300)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            zero_estimate_lambert(0)

    def test_overflow_raises(self):
        # From n = 2.9e307 up 2 pi (n - 11/8) overflows before the division
        # by W, which left inf in place of 2.69e305 at n = 3e307.
        assert math.isfinite(zero_estimate_lambert(2 * 10**307))
        with pytest.raises(OverflowError):
            zero_estimate_lambert(3 * 10**307)


class TestCarriers:
    def test_carrier_g_values(self):
        assert carrier_g(1) == pytest.approx(0.92333784, abs=1e-7)
        assert carrier_g(2) == pytest.approx(0.69231127, abs=1e-7)

    def test_carrier_g_definition(self):
        for n in (1, 5, 40, 900):
            assert carrier_g(n) == smooth_main(float(n)) + 0.5

    def test_carrier_plus_arg_reference(self):
        total = carrier_g(1) + arg_zeta_principal(1.0)
        assert total == pytest.approx(0.48596582, abs=1e-7)

    def test_carrier_gamma_linear(self):
        slope = math.log(math.pi) / (2.0 * math.pi)
        assert carrier_gamma(1) == pytest.approx(0.18218941983795, abs=1e-12)
        for n in (1, 7, 100):
            assert carrier_gamma(n) == pytest.approx(n * slope, rel=1e-14)

    def test_carrier_g_domain(self):
        for n in (0.5, math.nan):
            with pytest.raises(ValueError, match="n must be >= 1"):
                carrier_g(n)
        with pytest.raises(OverflowError):
            carrier_g(math.inf)

    @pytest.mark.parametrize("n", [math.nan, math.inf])
    def test_carrier_gamma_non_finite_rejected(self, n):
        with pytest.raises(ValueError):
            carrier_gamma(n)


class TestStaircase:
    def test_printed_prefix(self):
        values = staircase(26)
        for n, (got, want) in enumerate(zip(values, STAIRCASE_26), 1):
            assert got == pytest.approx(want, abs=2e-5), n

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_empty_staircase_rejected(self, n_max):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            staircase(n_max)

    def test_levels_and_jumps_prefix(self):
        # Rounded level differences over n = 1..26 count one zero in each
        # of [14, 15), [21, 22), [25, 26).
        jumps = staircase_jumps(26)
        want = [0] * 25
        want[13] = 1
        want[20] = 1
        want[24] = 1
        assert list(jumps) == want

    def test_one_kernel_call_per_chunk(self, monkeypatch):
        # Heights 1..199 fill one Euler-Maclaurin chunk, 200..799 two
        # Riemann-Siegel chunks of at most 512 with C0..C13 and 800..1009 one
        # with C0..C7: 4 kernel calls, not one per height.
        calls = []
        for name in ("_zeta_em_chunk", "_rs_z_theta"):
            kernel = getattr(special, name)

            def counting(ts, *rest, kernel=kernel, name=name):
                calls.append((name, len(ts)))
                return kernel(ts, *rest)

            monkeypatch.setattr(special, name, counting)
        staircase(1009)
        assert calls == [("_zeta_em_chunk", 199), ("_rs_z_theta", 512), ("_rs_z_theta", 88),
                         ("_rs_z_theta", 210)]

    def test_levels_convention(self):
        # Values sit near half-integers; the level is the nearest rung
        # below, with banker's rounding on exact midpoints.
        levels = staircase_levels(np.array([0.4999, 1.4999, 1.5001, 2.5]))
        assert list(levels) == [0, 1, 1, 2]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_levels_reject_non_finite(self, bad):
        # The int64 cast turned these into -9223372036854775808.
        with pytest.raises(ValueError, match="at index 2 is not finite"):
            staircase_levels(np.array([0.5, 1.5, bad, 2.5, bad]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("big", [1e19, -1e19, 2.0 ** 63 + 0.5])
    def test_levels_reject_beyond_int64(self, big):
        # The int64 cast gave -9223372036854775808 with a RuntimeWarning.
        with pytest.raises(ValueError, match="at index 1 rounds to a level outside int64"):
            staircase_levels(np.array([0.5, big, 2.5]))
        edge = np.array([-2.0 ** 63, 2.0 ** 63 - 1024.0])
        assert staircase_levels(edge).tolist() == [-2 ** 63, 2 ** 63 - 1024]

    def test_jumps_match_census_prefix(self, census_counts):
        jumps = staircase_jumps(300)
        for i, jump in enumerate(jumps):
            n = i + 1
            assert jump == census_counts.counts[n - 1], n

    def test_known_miscount_window(self, census_counts):
        # Near n = 1007 the wrapped phase completes an extra half turn:
        # the pair of zeros just above 1008 is attributed one interval
        # early, and the two counts disagree exactly there.
        jumps = staircase_jumps(1100)
        mismatches = [
            (i + 1, int(jumps[i]), int(census_counts.counts[i]))
            for i in range(len(jumps))
            if jumps[i] != census_counts.counts[i]
        ]
        assert mismatches == [
            (1007, 2, 0),
            (1008, 0, 2),
            (1067, 0, 2),
            (1068, 2, 0),
        ]

    def test_cumulative_totals_agree(self, census_counts):
        jumps = staircase_jumps(1100)
        counts = [census_counts.counts[n - 1] for n in range(1, len(jumps) + 1)]
        assert int(np.sum(jumps[:899])) == sum(counts[:899])
        assert int(np.sum(jumps)) == sum(counts)


class TestIntegerArguments:
    # render_counts, staircase and staircase_jumps take width or n_max
    # through operator.index at entry: a float raises TypeError there, a
    # NumPy integer is taken.
    CALLS = {
        "render_counts width": lambda n: render_counts(UnitIntervalCounts(np.arange(20) % 3), n),
        "staircase n_max": staircase,
        "staircase_jumps n_max": staircase_jumps,
    }

    @pytest.mark.parametrize("n", [6.0, 2.5])
    @pytest.mark.parametrize("name", CALLS)
    def test_float_rejected(self, name, n):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            self.CALLS[name](n)

    @pytest.mark.parametrize("name", CALLS)
    def test_numpy_integer_taken(self, name):
        got, want = self.CALLS[name](np.int64(6)), self.CALLS[name](6)
        assert type(got) is type(want)
        assert got == want if name.startswith("render") else np.array_equal(got, want)
