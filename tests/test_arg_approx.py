"""Tests for the rounded-main-term phase approximation and its symbolic form.

The closed symbolic expansion over {1, pi, ln pi, ln p} is checked against
direct floating evaluation, against a 40-digit mpmath evaluation of the
gap to the exact phase, and against the prime factorization laws.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from zetaphase import (
    SymbolicArgExpression,
    approx_arg_gamma,
    approx_arg_zeta,
    approx_error,
    arg_gamma_quarter,
    arg_zeta_principal,
    coeff_sequence,
    corrected_approx,
    main_term,
    p_adic_valuation,
    ruler_normalized,
    symbolic_expression,
    theta_exact,
    zero_estimate_lambert,
)
from zetaphase.special import smooth_main, theta_series


def _ln_p_law(p, n):
    """The ln p coefficient of symbolic_expression(n): 4n(1 - v2(n)) or -4n v_p(n)."""
    v = p_adic_valuation(p, n)
    return 4 * n * (1 - v) if p == 2 else -4 * n * v

# Rounded-main-term approximation (1/pi) of the zeta phase at n = 1..19,
# frozen from this implementation and cross-checked against the exact
# phase (agreement better than 0.015 everywhere in this range).
APPROX_ROWS = {
    1: -0.423337836994,
    2: -0.192311274139,
    3: -0.0445622398292,
    4: 0.0491062514140,
    5: 0.102560818219,
    6: 0.123968719880,
    7: 0.118726607797,
    8: 0.090670102212,
    9: 0.042667093960,
    10: -0.023056364340,
    11: -0.104721949447,
    12: -0.200876161160,
    13: -0.310308678190,
    14: -0.431995985476,
    15: 0.434938810386,
    16: 0.291255403206,
    17: 0.137618325910,
    18: -0.025386213458,
    19: -0.197237248073,
}


class TestMainTerm:
    def test_reference_value(self):
        assert main_term(1) == pytest.approx(0.42333783699383, abs=1e-12)

    def test_seven_eighths_crossing(self):
        # The smooth phase equals 7/8 where the log factor dies; the
        # double nearest 2 pi e lands within one rounding step of it.
        assert smooth_main(2.0 * math.pi * math.e) == pytest.approx(0.875, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            main_term(0)


class TestApproxArgZeta:
    def test_rows(self):
        for n, want in APPROX_ROWS.items():
            assert approx_arg_zeta(n) == pytest.approx(want, abs=1e-9), n

    def test_definition(self):
        for n in (1, 17, 360, 9999):
            m = main_term(n)
            assert approx_arg_zeta(n) == float(round(m)) - m

    def test_range(self):
        for n in range(1, 400):
            assert -0.5 <= approx_arg_zeta(n) <= 0.5

    def test_tracks_exact_phase(self):
        for n in range(1, 20):
            gap = abs(approx_arg_zeta(n) - arg_zeta_principal(float(n)))
            assert gap < 0.02, n


class TestCorrectedApprox:
    def test_order_zero_is_plain_approx(self):
        for n in (2, 50, 4096):
            assert corrected_approx(n, 0) == approx_arg_zeta(n)

    def test_first_correction_term(self):
        n = 10000
        want = approx_arg_zeta(n) - 1.0 / (48.0 * math.pi * n)
        assert corrected_approx(n, 1) == pytest.approx(want, abs=1e-16)

    def test_matches_exact_phase_gap(self):
        # round(main) - 1 - theta/pi is what the corrected form targets.
        for n in (100, 1000, 10000):
            target = float(round(main_term(n))) - 1.0 - theta_exact(float(n)) / math.pi
            assert corrected_approx(n, 4) == pytest.approx(target, abs=1e-12), n

    def test_each_order_improves_at_small_n(self):
        n = 2
        target = float(round(main_term(n))) - 1.0 - theta_exact(float(n)) / math.pi
        errors = [abs(corrected_approx(n, k) - target) for k in range(5)]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            corrected_approx(1, 2)
        with pytest.raises(ValueError):
            corrected_approx(10, 9)


class TestApproxError:
    def test_reference_value(self):
        # 40-digit evaluation of 1 - main + theta/pi at n = 10000.
        assert approx_error(10000) == pytest.approx(6.6314559660306551e-07, rel=1e-9)

    def test_positive_and_decreasing(self):
        values = [approx_error(n) for n in (10, 100, 1000, 10000)]
        assert all(v > 0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_leading_asymptote(self):
        for n in (100, 1000, 10000):
            assert approx_error(n) * 48.0 * math.pi * n == pytest.approx(
                1.0, abs=0.01
            ), n

    def test_residual_slopes(self):
        # After removing k leading correction terms the remainder scales
        # like n^-(2k+3); the log-log fit recovers the exponent.
        def tail(n, k):
            r = approx_error(n)
            for j in range(k + 1):
                r -= _correction_term(n, j)
            return abs(r)

        ns0 = np.array([100, 300, 1000, 3000, 10000], dtype=float)
        r0 = np.array([tail(int(n), 0) for n in ns0])
        slope0 = np.polyfit(np.log(ns0), np.log(r0), 1)[0]
        assert slope0 == pytest.approx(-3.0, abs=0.1)

        ns1 = np.array([100, 200, 400, 700, 1000], dtype=float)
        r1 = np.array([tail(int(n), 1) for n in ns1])
        slope1 = np.polyfit(np.log(ns1), np.log(r1), 1)[0]
        assert slope1 == pytest.approx(-5.0, abs=0.1)

    def test_series_within_two_ulp_from_14(self):
        # From n = 14 up approx_error is theta_tail(n, 8)/pi, the tail that
        # corrected_approx(n, 8) removes; 1 - main + theta/pi in 40 digits.
        with mp.workdps(40):
            for n in range(14, 61):
                x = mp.mpf(n) / (2 * mp.pi)
                want = float(1 - (x * mp.log(x) - x + mp.mpf(7) / 8) + mp.siegeltheta(n) / mp.pi)
                assert abs(approx_error(n) - want) <= 2 * math.ulp(want), n

    def test_series_needs_no_siegeltheta(self, monkeypatch):
        def refuse(t):
            raise AssertionError(f"siegeltheta({t}) called")

        monkeypatch.setattr(mp, "siegeltheta", refuse)
        assert all(approx_error(n) > 0.0 for n in range(14, 10001))
        with pytest.raises(AssertionError, match="siegeltheta"):
            approx_error(13)


def _correction_term(n, k):
    # k-th tail coefficient of the phase series divided by pi n^(2k+1).
    from zetaphase.special import _THETA_COEFFS

    return _THETA_COEFFS[k] / (math.pi * float(n) ** (2 * k + 1))


class TestPAdic:
    def test_examples(self):
        assert p_adic_valuation(2, 8) == 3
        assert p_adic_valuation(3, 10) == 0
        assert p_adic_valuation(5, 10000) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            p_adic_valuation(1, 8)
        with pytest.raises(ValueError):
            p_adic_valuation(2, 0)


class TestSymbolicExpression:
    def test_small_cases(self):
        e1 = symbolic_expression(1)
        assert (e1.c_pi, e1.c_const, e1.c_lnpi) == (-7, 4, 4)
        assert e1.prime_terms == ((2, 4),)

        e3 = symbolic_expression(3)
        assert (e3.c_pi, e3.c_const, e3.c_lnpi) == (-7, 12, 12)
        assert e3.prime_terms == ((2, 12), (3, -12))

        e8 = symbolic_expression(8)
        assert e8.prime_terms == ((2, -64),)

        e15 = symbolic_expression(15)
        assert e15.c_pi == 1
        assert e15.prime_terms == ((2, 60), (3, -60), (5, -60))

    def test_ten_thousand(self):
        e = symbolic_expression(10000)
        assert e.c_pi == 81137
        assert e.c_const == 40000
        assert e.c_lnpi == 40000
        assert e.prime_terms == ((2, -120000), (5, -160000))

    def test_two_omitted_exactly_when_singly_even(self):
        for n in range(1, 200):
            e = symbolic_expression(n)
            has_two = any(p == 2 for p, _ in e.prime_terms)
            assert has_two == (p_adic_valuation(2, n) != 1), n

    def test_coefficient_laws(self):
        # Every n <= 10^4: prime_terms are the nonzero _ln_p_law(p, n) for
        # p = 2 and each prime p | n, the primes read off a
        # smallest-prime-factor sieve rather than the factorization under test.
        n_max = 10_000
        spf = list(range(n_max + 1))
        for q in range(2, math.isqrt(n_max) + 1):
            if spf[q] == q:
                for k in range(q * q, n_max + 1, q):
                    spf[k] = min(spf[k], q)
        for p in (2, 3, 5, 7):
            assert coeff_sequence(p, n_max) == [_ln_p_law(p, n) for n in range(1, n_max + 1)], p
        for n in range(1, n_max + 1):
            primes, k = {2}, n
            while k > 1:
                primes.add(spf[k])
                k //= spf[k]
            want = [(p, c) for p in sorted(primes) if (c := _ln_p_law(p, n)) != 0]
            e = symbolic_expression(n)
            assert e.prime_terms == tuple(want), n
            assert e.c_pi == 8 * round(main_term(n)) - 7, n
            assert e.c_const == e.c_lnpi == 4 * n, n

    def test_evaluate_matches_float_form(self):
        rng = np.random.default_rng(11)
        sample = list(range(1, 64)) + sorted(rng.integers(64, 10001, size=40))
        for n in sample:
            n = int(n)
            gap = abs(float(symbolic_expression(n).evaluate()) - approx_arg_zeta(n))
            assert gap <= 1e-12, n

    def test_evaluate_against_60_digit_oracle(self):
        # evaluate() is the combination correctly rounded to binary64: equal
        # bit for bit to the 60-digit value rounded to nearest.  One n in
        # each of 300 strata of [1, 1e4], then primes, high prime powers and
        # a prime factor above 10^6.
        rng = np.random.default_rng(2024)
        edges = np.linspace(1, 10001, 301).astype(int)
        sample = [int(rng.integers(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]
        sample += [1, 2, 9973, 10000, 999983, 2**40, 3**25, 8 * 1000003]
        with mp.workdps(60):
            for n in sample:
                e = symbolic_expression(n)
                total = e.c_pi * mp.pi + e.c_const + e.c_lnpi * mp.log(mp.pi)
                for p, c in e.prime_terms:
                    total += c * mp.log(p)
                assert e.evaluate() == float(total / (8 * mp.pi)), n

    def test_text_form(self):
        assert symbolic_expression(1).text() == (
            "(1/(8*pi))*(-7*pi +4 +4*ln(pi) +4*ln(2))"
        )
        assert symbolic_expression(10000).text() == (
            "(1/(8*pi))*(81137*pi +40000 +40000*ln(pi) -120000*ln(2) -160000*ln(5))"
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SymbolicArgExpression(
                c_pi=1, c_const=24, c_lnpi=24, prime_terms=((3, -24), (2, 0))
            )
        for p in (-3, 0, 1):
            with pytest.raises(ValueError):
                SymbolicArgExpression(c_pi=1, c_const=4, c_lnpi=4, prime_terms=((p, 4),))
        for terms in (((3, -24), (2, 24)), ((2, 24), (2, 24)), ((2, 24), (3, -24), (3, -24)),
                      ((2, 24), (3, 0)), ((2, 0),), ((2, 24), (1, 4))):
            with pytest.raises(ValueError):
                SymbolicArgExpression(c_pi=1, c_const=24, c_lnpi=24, prime_terms=terms)

    def test_large_prime_factor_rejected(self):
        with pytest.raises(OverflowError):
            symbolic_expression(1000003 * 1000033)

    def test_integer_n_only(self):
        # A NumPy integer is the same n; a float, whole or not, is refused
        # (6.0 built an expression whose evaluate() and text() raised).
        e = symbolic_expression(np.int64(6))
        assert e == symbolic_expression(6) and e.text() == symbolic_expression(6).text()
        assert e.evaluate() == symbolic_expression(6).evaluate()
        for n in (6.0, 2.5):
            with pytest.raises(TypeError):
                symbolic_expression(n)

    def test_domain_bound(self):
        # Within the bound evaluate() and approx_arg_zeta stay inside
        # (-1/2, 1/2] and half an ulp of main_term (1/128) of each other.
        # Past it the symbolic form of 3^34 would evaluate to -6.42 and that
        # of 2^53 + 2 to 1.55, so all four closed forms raise.
        for n in (2**44 - 1, 2**44):
            value, approx = symbolic_expression(n).evaluate(), approx_arg_zeta(n)
            assert -0.5 < value <= 0.5 and -0.5 <= approx <= 0.5, n
            assert abs(value - approx) <= math.ulp(main_term(n)) / 2, n
            assert math.isfinite(corrected_approx(n, 4)) and -1 < approx_arg_gamma(n) <= 1
        for n in (2**44 + 1, 3**34, 2**53 + 2):
            for f in (symbolic_expression, approx_arg_zeta, approx_arg_gamma,
                      lambda n: corrected_approx(n, 4)):
                with pytest.raises(ValueError):
                    f(n)


class TestCoefficientRules:
    def test_sequences(self):
        assert coeff_sequence(2, 8) == [4, 0, 12, -16, 20, 0, 28, -64]
        assert coeff_sequence(3, 9) == [0, 0, -12, 0, 0, -24, 0, 0, -72]
        assert coeff_sequence(3, 18)[-1] == -144

    def test_rules_match_expressions(self):
        for p in (2, 3, 5):
            seq = coeff_sequence(p, 120)
            for n in range(1, 121):
                assert seq[n - 1] == dict(symbolic_expression(n).prime_terms).get(p, 0), (p, n)

    def test_ruler_sequences(self):
        assert [ruler_normalized(2, n) for n in range(1, 9)] == [
            2, 3, 2, 4, 2, 3, 2, 5,
        ]
        assert [ruler_normalized(3, n) for n in range(1, 10)] == [
            1, 1, 2, 1, 1, 2, 1, 1, 3,
        ]

    def test_composite_p_rejected(self):
        # ln p is a basis element only for prime p.
        for p in (-2, 0, 1, 4, 6, 9, 25, 1000003 * 3):
            with pytest.raises(ValueError):
                coeff_sequence(p, 8)
            with pytest.raises(ValueError):
                ruler_normalized(p, 12)
        for p in (2, 3, 9973, 1000003):
            assert coeff_sequence(p, p)[-1] == -4 * p + (8 if p == 2 else 0)
            assert ruler_normalized(p, p) == (3 if p == 2 else 2)

    def test_ruler_is_shifted_valuation(self):
        for n in range(1, 100):
            assert ruler_normalized(2, n) == p_adic_valuation(2, n) + 2
            assert ruler_normalized(3, n) == p_adic_valuation(3, n) + 1


class TestApproxArgGamma:
    def test_reference_value(self):
        assert approx_arg_gamma(1) == pytest.approx(-0.394472743168, abs=1e-9)

    def test_closed_form_at_one(self):
        want = -(4.0 * math.log(2.0) + math.pi + 4.0) / (8.0 * math.pi)
        assert approx_arg_gamma(1) == pytest.approx(want, abs=1e-13)

    def test_gap_to_exact(self):
        # At n = 100 the gap to the exact half-turn phase is the first
        # correction term 1/(48 pi n) up to higher-order noise.
        gap = abs(approx_arg_gamma(100) - arg_gamma_quarter(100.0))
        assert abs(gap - 1.0 / (48.0 * math.pi * 100.0)) < 1e-6

    def test_tracks_exact(self):
        worst = max(
            abs(approx_arg_gamma(n) - arg_gamma_quarter(float(n)))
            for n in range(1, 101)
        )
        assert worst <= 0.02


# Each closed form with an integer argument k at one position.  main_term
# and carrier_g take real heights and are not here.
INTEGER_CALLS = [
    pytest.param(approx_arg_zeta, lambda k: (k,), id="approx_arg_zeta-n"),
    pytest.param(approx_arg_gamma, lambda k: (k,), id="approx_arg_gamma-n"),
    pytest.param(corrected_approx, lambda k: (k, 4), id="corrected_approx-n"),
    pytest.param(corrected_approx, lambda k: (10, k), id="corrected_approx-order"),
    pytest.param(zero_estimate_lambert, lambda k: (k,), id="zero_estimate_lambert-n"),
    pytest.param(p_adic_valuation, lambda k: (k, 12), id="p_adic_valuation-p"),
    pytest.param(p_adic_valuation, lambda k: (2, k), id="p_adic_valuation-n"),
    pytest.param(theta_series, lambda k: (100.0, k), id="theta_series-order"),
    pytest.param(approx_error, lambda k: (k,), id="approx_error-n"),
    pytest.param(approx_error, lambda k: (10 * k,), id="approx_error-series-n"),
]


class TestIntegerArguments:
    @pytest.mark.parametrize("fn, args", INTEGER_CALLS)
    def test_numpy_integer_is_the_integer(self, fn, args):
        assert fn(*args(np.int64(6))) == fn(*args(6))

    @pytest.mark.parametrize("k", [2.5, 6.0])
    @pytest.mark.parametrize("fn, args", INTEGER_CALLS)
    def test_float_rejected(self, fn, args, k):
        # A float n or p gave a value; a float order failed on a tuple index.
        with pytest.raises(TypeError):
            fn(*args(k))
