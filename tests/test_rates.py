"""Closed-form error-rate math: frozen example values and analytic properties."""

import math

import numpy as np
import pytest

from alphagate.errors import DomainError
from alphagate.rates import (
    ErrorRateReport,
    bonferroni_adjust,
    conjunction_power,
    conjunction_type2,
    error_rate_report,
    fwer_independent,
    per_family_rate,
    power_one_sided_z,
    sidak_adjust,
)


class TestFwerIndependent:
    def test_two_tests(self):
        assert fwer_independent(0.05, 2) == pytest.approx(0.0975, rel=1e-9)
        assert f"{fwer_independent(0.05, 2):.3f}" == "0.098"

    def test_twenty_tests(self):
        assert fwer_independent(0.05, 20) == pytest.approx(0.6415140775914578, rel=1e-12)
        assert f"{fwer_independent(0.05, 20):.2f}" == "0.64"

    def test_hundred_tests(self):
        assert fwer_independent(0.05, 100) == pytest.approx(0.994079470779666, rel=1e-12)
        assert f"{fwer_independent(0.05, 100):.4f}" == "0.9941"

    def test_single_test_is_exact_identity(self):
        for alpha in (0.001, 0.01, 0.05, 0.1, 0.5, 0.9):
            assert fwer_independent(alpha, 1) == alpha

    def test_dice_identity(self):
        """Rolling a 20-sided die 20 times: same arithmetic as 20 jelly-bean tests."""
        assert fwer_independent(1 / 20, 20) == fwer_independent(0.05, 20)
        assert f"{fwer_independent(1 / 20, 20):.4f}" == "0.6415"

    def test_strictly_increasing_in_alpha_and_k(self):
        # grid kept below float64 saturation: once 1 - (1-a)**k rounds to
        # exactly 1.0 (k*a large), strictness is unrepresentable
        alphas = [0.001, 0.005, 0.01, 0.05, 0.1, 0.3]
        ks = [1, 2, 3, 5, 10, 50]
        for k in ks:
            values = [fwer_independent(a, k) for a in alphas]
            assert all(x < y for x, y in zip(values, values[1:]))
        for a in alphas:
            values = [fwer_independent(a, k) for k in ks]
            assert all(x < y for x, y in zip(values, values[1:]))

    def test_never_exceeds_per_family_rate(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            alpha = float(rng.uniform(1e-6, 0.999))
            k = int(rng.integers(1, 10_000))
            assert fwer_independent(alpha, k) <= per_family_rate(alpha, k)

    def test_tiny_alpha_keeps_precision(self):
        # genome-scale threshold: naive (1 - a)**k would lose the leading digits
        alpha = 5e-8
        assert fwer_independent(alpha, 1_000_000) == pytest.approx(
            -math.expm1(1_000_000 * math.log1p(-alpha)), rel=1e-13
        )
        assert fwer_independent(alpha, 1_000_000) == pytest.approx(0.04877057, rel=1e-6)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5, float("nan")])
    def test_alpha_domain(self, alpha):
        with pytest.raises(DomainError):
            fwer_independent(alpha, 2)

    @pytest.mark.parametrize("k", [0, -1, 10_000_001, 2.0, "3"])
    def test_k_domain(self, k):
        with pytest.raises(DomainError):
            fwer_independent(0.05, k)


class TestPerFamilyRate:
    def test_examples(self):
        assert per_family_rate(0.05, 20) == pytest.approx(1.00, rel=1e-12)
        assert per_family_rate(0.05, 1) == 0.05
        assert per_family_rate(0.05, 100) == pytest.approx(5.0, rel=1e-12)

    def test_may_exceed_one(self):
        # expected count, not a probability
        assert per_family_rate(0.5, 100) == pytest.approx(50.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            per_family_rate(0.05, 0)
        with pytest.raises(DomainError):
            per_family_rate(1.0, 5)


class TestSidakAdjust:
    def test_two_tests(self):
        assert sidak_adjust(0.05, 2) == pytest.approx(0.02532056551910361, rel=1e-12)
        assert f"{sidak_adjust(0.05, 2):.3f}" == "0.025"

    def test_identity_at_k1(self):
        assert sidak_adjust(0.05, 1) == 0.05

    def test_analytic_inverse_of_two_test_fwer(self):
        # 1 - sqrt(1 - .0975) = 1 - sqrt(.9025) = 1 - .95 exactly
        assert sidak_adjust(0.0975, 2) == pytest.approx(0.05, abs=1e-15)

    def test_round_trip(self):
        for alpha in (0.001, 0.01, 0.05, 0.1):
            for k in (1, 2, 3, 7, 20, 100, 999, 10_000):
                assert fwer_independent(sidak_adjust(alpha, k), k) == pytest.approx(
                    alpha, abs=1e-12
                )


class TestBonferroniAdjust:
    def test_examples(self):
        assert bonferroni_adjust(0.05, 167355) == pytest.approx(0.05 / 167355, rel=1e-15)
        assert bonferroni_adjust(0.05, 1_000_000) == pytest.approx(5.0e-8, rel=1e-12)
        assert bonferroni_adjust(0.05, 1) == 0.05

    def test_never_above_sidak(self):
        for alpha in (0.001, 0.01, 0.05, 0.1, 0.5):
            assert bonferroni_adjust(alpha, 1) == sidak_adjust(alpha, 1)
            for k in (2, 3, 10, 100, 10_000):
                assert bonferroni_adjust(alpha, k) < sidak_adjust(alpha, k)


class TestConjunctionArithmetic:
    def test_type2_examples(self):
        assert conjunction_type2(0.20, 2) == pytest.approx(0.36, rel=1e-12)
        assert conjunction_type2(0.37, 1) == 0.37
        assert conjunction_type2(0.50, 3) == pytest.approx(0.875, rel=1e-12)

    def test_power_examples(self):
        assert conjunction_power(0.80, 2) == pytest.approx(0.64, rel=1e-12)
        assert conjunction_power(0.55, 1) == 0.55
        assert conjunction_power(0.90, 3) == pytest.approx(0.729, rel=1e-12)

    def test_power_type2_complement(self):
        for p in (0.05, 0.2, 0.5, 0.8, 0.95, 0.999):
            for k in (1, 2, 3, 5, 10, 40, 100):
                total = conjunction_power(p, k) + conjunction_type2(1.0 - p, k)
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        # both take the closed interval [0, 1]: a per-test power of exactly
        # 1.0, which power_one_sided_z can return, is a valid input
        assert power_one_sided_z(0.05, 50, 64) == 1.0
        for k in (1, 2, 10**7):
            assert conjunction_type2(0.0, k) == 0.0 and conjunction_type2(1.0, k) == 1.0
            assert conjunction_power(0.0, k) == 0.0 and conjunction_power(1.0, k) == 1.0
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(DomainError):
                conjunction_type2(bad, 2)
            with pytest.raises(DomainError):
                conjunction_power(bad, 2)


class TestPowerOneSidedZ:
    def test_zero_effect_power_equals_alpha(self):
        for n in (2, 10, 64, 1000):
            assert power_one_sided_z(0.05, 0.0, n) == pytest.approx(0.05, abs=1e-12)

    def test_frozen_oracle_value(self):
        # high-precision normal CDF oracle: Phi(0.5*sqrt(32) - z_{.95})
        import mpmath

        mpmath.mp.dps = 30
        expected = float(
            mpmath.ncdf(0.5 * mpmath.sqrt(32) - mpmath.mpf("1.6448536269514722"))
        )
        assert power_one_sided_z(0.05, 0.5, 64) == pytest.approx(expected, rel=1e-12)
        assert f"{power_one_sided_z(0.05, 0.5, 64):.4f}" == "0.8817"

    def test_large_effect_asymptote(self):
        assert power_one_sided_z(0.05, 10.0, 64) > 1 - 1e-12

    def test_nondecreasing_in_each_argument(self):
        alphas = [0.001, 0.01, 0.05, 0.1, 0.2]
        deltas = [0.0, 0.1, 0.3, 0.5, 1.0]
        ns = [2, 8, 32, 64, 128]
        for delta in deltas:
            for n in ns:
                vals = [power_one_sided_z(a, delta, n) for a in alphas]
                assert all(x <= y for x, y in zip(vals, vals[1:]))
        for alpha in alphas:
            for n in ns:
                vals = [power_one_sided_z(alpha, d, n) for d in deltas]
                assert all(x <= y for x, y in zip(vals, vals[1:]))
            for delta in deltas[1:]:
                vals = [power_one_sided_z(alpha, delta, n) for n in ns]
                assert all(x <= y for x, y in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            power_one_sided_z(0.0, 0.5, 64)
        with pytest.raises(DomainError):
            power_one_sided_z(0.05, -0.1, 64)
        with pytest.raises(DomainError):
            power_one_sided_z(0.05, 0.5, 1)
        with pytest.raises(DomainError, match=r"\[2, 2\*\*53\]"):
            power_one_sided_z(0.05, 0.5, 2**53 + 1)
        with pytest.raises(DomainError):
            power_one_sided_z(0.05, 0.5, 10**400)
        assert power_one_sided_z(0.05, 0.0, 2**53) == pytest.approx(0.05, rel=1e-12)

    @pytest.mark.parametrize("alpha", [5e-8, 1e-10, 1e-12, 1e-20])
    def test_genome_scale_alpha_keeps_full_precision(self, alpha):
        # 1 - alpha rounds to the nearest double near 1: ndtri(1 - alpha) is
        # off by 2e-11 relative at 5e-8, 4e-7 at 1e-12, and infinite below 1.1e-16
        import mpmath

        with mpmath.workdps(60):
            z_crit = mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.mpf(alpha))
            for delta, n in ((0.0, 2), (1.0, 50)):
                expected = float(mpmath.ncdf(delta * mpmath.sqrt(mpmath.mpf(n) / 2) - z_crit))
                assert power_one_sided_z(alpha, delta, n) == pytest.approx(expected, rel=1e-12)


class TestErrorRateReport:
    def test_joint_column(self):
        report = error_rate_report(20, 1, 0.05)
        assert report.k == 20
        assert report.per_family_rate == pytest.approx(1.00, rel=1e-12)
        assert report.fwer == pytest.approx(0.6415, abs=5e-5)

    def test_individual_column(self):
        report = error_rate_report(20, 20, 0.05)
        assert report.k == 1
        assert report.per_family_rate == 0.05
        assert report.fwer == 0.05

    def test_degenerate_single_test(self):
        report = error_rate_report(1, 1, 0.05)
        assert (report.k, report.per_family_rate, report.fwer) == (1, 0.05, 0.05)

    def test_indivisible(self):
        with pytest.raises(DomainError):
            error_rate_report(20, 3, 0.05)

    def test_report_invariants_enforced(self):
        with pytest.raises(DomainError):
            ErrorRateReport(t=6, h=2, k=2, alpha_per_test=0.05, per_family_rate=0.1, fwer=0.0975)
