"""Monte Carlo simulator: numerics, dependence designs, and determinism.

The heavyweight 200k-replication verifications live in test_acceptance.py;
here the same properties are exercised at smaller replication counts,
alongside an exact dual-route check that the vectorized accumulators agree
with per-replication runs of the decision functions.
"""

import dataclasses
import importlib
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import ndtri

from alphagate.decisions import Verdict, decide_conjunction, decide_disjunction, decide_individual
from alphagate.errors import DomainError, InvalidScenario
from alphagate.families import AdjustmentMethod, TestBattery, TestingMode
from alphagate.rates import bonferroni_adjust, conjunction_power, fwer_independent, sidak_adjust
from alphagate.rng import derive_rep_seed, rep_seed_block, uniform_from_words
from alphagate.simulate import (
    CHUNK_REPS,
    Design,
    Estimates,
    Scenario,
    Sides,
    _shift,
    _z_block,
    p_from_z,
    sample_statistics,
    simulate,
    wilson_ci,
)

# the package re-exports the function simulate under the submodule's name
SIM = importlib.import_module("alphagate.simulate")

Z_95 = 1.6448536269514722  # one-sided 5% critical value
Z_80 = 0.8416212335729143  # 80th percentile


def scenario(
    k,
    *,
    alpha=0.05,
    nulls=None,
    deltas=None,
    n=32,
    design=None,
    sides=Sides.ONE_SIDED,
    method=AdjustmentMethod.SIDAK,
    reps=50_000,
    seed=1,
):
    return Scenario(
        k=k,
        null_pattern=tuple(nulls) if nulls is not None else (True,) * k,
        deltas=tuple(deltas) if deltas is not None else (0.0,) * k,
        n=n,
        design=design if design is not None else Design.independent(),
        sides=sides,
        alpha_joint=alpha,
        method=method,
        reps=reps,
        seed=seed,
    )


def delta_for_power(power, n, alpha=0.05):
    """Effect size giving the stated one-sided per-test power at group size n."""
    return (float(ndtri(1 - alpha)) + float(ndtri(power))) / math.sqrt(n / 2)


def three_sigma(p, reps):
    return 3 * math.sqrt(p * (1 - p) / reps)


class TestPFromZ:
    def test_examples(self):
        assert p_from_z(0.0, Sides.ONE_SIDED) == 0.5
        assert p_from_z(0.0, Sides.TWO_SIDED) == 1.0
        assert p_from_z(Z_95, Sides.ONE_SIDED) == pytest.approx(0.05, abs=1e-12)

    def test_two_sided_symmetric_and_clamped(self):
        z = np.array([-2.5, -0.1, 0.0, 0.1, 2.5])
        p = p_from_z(z, Sides.TWO_SIDED)
        assert np.all(p <= 1.0)
        assert p[0] == p[4] and p[1] == p[3]

    def test_one_sided_directional(self):
        assert p_from_z(3.0, Sides.ONE_SIDED) < 0.01
        assert p_from_z(-3.0, Sides.ONE_SIDED) > 0.99

    def test_sides_type_checked(self):
        with pytest.raises(DomainError):
            p_from_z(1.0, "one_sided")

    # p_from_z(-x, ONE_SIDED) is the standard normal CDF at x
    def test_far_tail_against_mpmath(self):
        mpmath.mp.dps = 30
        expected = float(mpmath.ncdf(-8))
        assert p_from_z(8.0, Sides.ONE_SIDED) == pytest.approx(expected, rel=1e-13)

    def test_absolute_error_bound_on_grid(self):
        mpmath.mp.dps = 30
        for x in np.linspace(-10, 10, 81):
            assert abs(p_from_z(-float(x), Sides.ONE_SIDED) - float(mpmath.ncdf(float(x)))) <= 1e-12

    def test_vectorized(self):
        out = p_from_z(-np.array([-1.0, 0.0, 1.0]), Sides.ONE_SIDED)
        assert out.shape == (3,)
        assert out[1] == 0.5


class TestWilsonCi:
    def test_boundaries(self):
        assert wilson_ci(0, 100, 0.95)[0] == 0.0
        assert wilson_ci(100, 100, 0.95)[1] == 1.0

    def test_half_successes_against_direct_formula(self):
        lower, upper = wilson_ci(50, 100, 0.95)
        assert lower == pytest.approx(0.4038, abs=1e-4)
        assert upper == pytest.approx(0.5962, abs=1e-4)

    def test_matches_independent_evaluation(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            trials = int(rng.integers(1, 5000))
            successes = int(rng.integers(0, trials + 1))
            level = float(rng.choice([0.9, 0.95, 0.99]))
            z = float(ndtri((1 + level) / 2))
            phat = successes / trials
            denom = 1 + z**2 / trials
            center = (phat + z**2 / (2 * trials)) / denom
            half = z * math.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2)) / denom
            lower, upper = wilson_ci(successes, trials, level)
            assert lower == pytest.approx(max(0.0, center - half), abs=1e-12)
            assert upper == pytest.approx(min(1.0, center + half), abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            wilson_ci(5, 0, 0.95)
        with pytest.raises(DomainError):
            wilson_ci(6, 5, 0.95)
        with pytest.raises(DomainError):
            wilson_ci(1, 5, 1.0)


class TestSampleStatistics:
    def _pairwise_corr(self, z):
        return np.corrcoef(z, rowvar=False)

    def test_common_factor_limit(self):
        s = scenario(2, design=Design.equicorrelated(0.999))
        seeds = rep_seed_block(s.seed, 0, 10_000)
        corr = self._pairwise_corr(_z_block(s, seeds, _shift(s)))
        assert corr[0, 1] > 0.99

    def test_zero_correlation_when_independent_factors(self):
        s = scenario(2, design=Design.equicorrelated(0.0))
        seeds = rep_seed_block(s.seed, 0, 100_000)
        corr = self._pairwise_corr(_z_block(s, seeds, _shift(s)))
        assert abs(corr[0, 1]) < 0.02

    def test_shared_control_correlation_is_half(self):
        s = scenario(2, design=Design.shared_control())
        seeds = rep_seed_block(s.seed, 0, 100_000)
        corr = self._pairwise_corr(_z_block(s, seeds, _shift(s)))
        assert corr[0, 1] == pytest.approx(0.5, abs=0.02)

    def test_independent_design_unit_moments(self):
        s = scenario(3)
        z = _z_block(s, rep_seed_block(s.seed, 0, 100_000), _shift(s))
        assert np.allclose(z.mean(axis=0), 0.0, atol=0.02)
        assert np.allclose(z.std(axis=0), 1.0, atol=0.02)

    def test_effect_shifts_mean(self):
        delta = delta_for_power(0.8, 32)
        s = scenario(2, nulls=[True, False], deltas=[0.0, delta])
        z = _z_block(s, rep_seed_block(s.seed, 0, 50_000), _shift(s))
        assert z[:, 0].mean() == pytest.approx(0.0, abs=0.03)
        assert z[:, 1].mean() == pytest.approx(delta * math.sqrt(16), abs=0.03)

    def test_scalar_interface_matches_block(self):
        for s in (
            scenario(4),
            scenario(4, design=Design.equicorrelated(0.5)),
            scenario(4, design=Design.shared_control()),
        ):
            for rep in (0, 1, 999):
                seed = derive_rep_seed(s.seed, rep)
                row = _z_block(s, np.asarray([seed], dtype=np.uint64), _shift(s))[0]
                assert sample_statistics(s, seed) == tuple(row)


class TestScenarioValidation:
    def test_delta_must_vanish_on_true_nulls(self):
        with pytest.raises(InvalidScenario):
            scenario(2, nulls=[True, False], deltas=[0.5, 0.5])

    def test_length_agreement(self):
        with pytest.raises(InvalidScenario):
            scenario(3, nulls=[True, True])
        with pytest.raises(InvalidScenario):
            scenario(3, deltas=[0.0, 0.0])

    def test_rho_range(self):
        with pytest.raises(InvalidScenario):
            Design.equicorrelated(1.0)
        with pytest.raises(InvalidScenario):
            Design.equicorrelated(-0.1)
        with pytest.raises(InvalidScenario):
            Design("independent", rho=0.3)

    def test_method_must_control_fwer(self):
        with pytest.raises(InvalidScenario):
            scenario(2, method=AdjustmentMethod.BENJAMINI_HOCHBERG)
        with pytest.raises(InvalidScenario):
            scenario(2, method=AdjustmentMethod.NONE)

    def test_n_range(self):
        for n in (1, 2**53 + 1, 10**400, 16.0, True):
            with pytest.raises(InvalidScenario, match=r"\[2, 2\*\*53\]"):
                scenario(2, n=n)
        assert scenario(2, n=2**53).n == 2**53

    def test_shift_must_be_finite(self):
        with pytest.raises(InvalidScenario, match=r"deltas\[1\] \* sqrt\(n/2\)"):
            scenario(2, nulls=[True, False], deltas=[0.0, 1e308], n=10)
        with pytest.raises(InvalidScenario):
            scenario(2, nulls=[False, False], deltas=[0.5, float("nan")])
        # the same delta is fine where sqrt(n/2) = 1
        assert scenario(2, nulls=[True, False], deltas=[0.0, 1e308], n=2).deltas[1] == 1e308

    def test_seed_range(self):
        with pytest.raises(InvalidScenario):
            scenario(2, seed=-1)
        with pytest.raises(InvalidScenario):
            scenario(2, seed=2**64)

    BASE = dict(k=2, null_pattern=(True, False), deltas=(0.0, 0.5), n=8, design=Design.independent(),
                sides=Sides.ONE_SIDED, alpha_joint=0.05, method=AdjustmentMethod.HOLM, reps=10, seed=1)

    @pytest.mark.parametrize("fault, message", [
        (dict(k=0), "k must be an integer in [1, 10000000], got 0"),
        (dict(null_pattern=(True,)), "null_pattern has length 1, expected k=2"),
        (dict(deltas=(0.0, 0.5, 0.5)), "deltas has length 3, expected k=2"),
        (dict(deltas=(0.0, "x")), "deltas[1] must be a real in (-inf, inf), got 'x'"),
        (dict(deltas=(0.0, math.inf)), "deltas[1] must be a real in (-inf, inf), got inf"),
        (dict(deltas=(0.0, True)), "deltas[1] must be a real in (-inf, inf), got True"),
        (dict(n=1), "n must be an integer in [2, 2**53], got 1"),
        (dict(deltas=(0.0, 1e308)), "deltas[1] * sqrt(n/2) must be finite, got 1e+308"),
        (dict(deltas=(0.25, 0.5)), "deltas[0] must be 0 where the null is true, got 0.25"),
        (dict(design="independent"), "design must be a Design, got str"),
        (dict(sides="one_sided"), "sides must be a Sides value, got 'one_sided'"),
        (dict(alpha_joint=1.0), "alpha_joint must be a real in (0, 1), got 1.0"),
        (dict(method=AdjustmentMethod.NONE),
         "scenario method must control the FWER (bonferroni, sidak, holm, hochberg), got 'none'"),
        (dict(reps=0), "reps must be an integer >= 1, got 0"),
        (dict(seed=-1), "seed must be an integer in [0, 18446744073709551615], got -1"),
    ])
    def test_single_fault_messages(self, fault, message):
        with pytest.raises(InvalidScenario) as err:
            Scenario(**{**self.BASE, **fault})
        assert str(err.value) == message

    @pytest.mark.parametrize("name", ["null_pattern", "deltas"])
    @pytest.mark.parametrize("value", [None, True, 5, "TT", b"00"], ids=repr)
    def test_sequence_arguments_must_be_sequences(self, name, value):
        with pytest.raises(InvalidScenario) as err:
            Scenario(**{**self.BASE, name: value})
        assert str(err.value) == f"{name} must be a sequence of length k=2, got {type(value).__name__}"

    def test_deltas_are_kept_as_floats(self):
        s = Scenario(**{**self.BASE, "null_pattern": [True, np.False_], "deltas": [0, np.float64(0.5)]})
        assert s.null_pattern == (True, False) and all(type(b) is bool for b in s.null_pattern)
        assert s.deltas == (0.0, 0.5) and all(type(d) is float for d in s.deltas)

    @pytest.mark.parametrize("entry", ["False", "True", "", 0, 1, 0.5, None, np.int64(1)], ids=repr)
    def test_null_pattern_entries_must_be_bools(self, entry):
        with pytest.raises(InvalidScenario) as err:
            Scenario(**{**self.BASE, "null_pattern": (True, entry)})
        assert str(err.value) == f"null_pattern[1] must be a bool, got {entry!r}"

    def test_null_pattern_strings_are_not_true_nulls(self):
        with pytest.raises(InvalidScenario, match=r"^null_pattern\[0\] must be a bool, got 'False'$"):
            Scenario(**{**self.BASE, "null_pattern": ("False", "False"), "deltas": (0.0, 0.0)})

    def test_null_pattern_may_be_a_numpy_bool_array(self):
        s = Scenario(**{**self.BASE, "null_pattern": np.array([True, False])})
        assert s.null_pattern == (True, False) and all(type(b) is bool for b in s.null_pattern)

    def test_with_run_replaces_reps_and_seed_only(self):
        base = Scenario(**self.BASE)
        run = base.with_run(np.int64(20), 2**64 - 1)
        assert run == Scenario(**{**self.BASE, "reps": 20, "seed": 2**64 - 1})
        assert type(run.reps) is int and (base.reps, base.seed) == (10, 1)
        # the checked columns are shared, not rebuilt
        assert run.null_pattern is base.null_pattern and run.deltas is base.deltas

    @pytest.mark.parametrize("reps, seed, message", [
        (0, 1, "reps must be an integer >= 1, got 0"),
        (10, -1, "seed must be an integer in [0, 18446744073709551615], got -1"),
        (10, 2**64, "seed must be an integer in [0, 18446744073709551615], got 18446744073709551616"),
        (True, 1, "reps must be an integer >= 1, got True"),
    ])
    def test_with_run_checks_like_the_constructor(self, reps, seed, message):
        with pytest.raises(InvalidScenario) as err:
            Scenario(**self.BASE).with_run(reps, seed)
        assert str(err.value) == message

    def test_numpy_integers_are_kept_as_ints(self):
        s = Scenario(**{**self.BASE, "k": np.int64(2), "n": np.uint64(8), "reps": np.int32(10), "seed": np.uint64(2**63)})
        assert (s.k, s.n, s.reps, s.seed) == (2, 8, 10, 2**63)
        assert all(type(v) is int for v in (s.k, s.n, s.reps, s.seed))


class TestSimulateDeterminism:
    def test_identical_runs_identical_estimates(self):
        s = scenario(5, reps=30_000)
        first = simulate(s)
        second = simulate(s)
        assert first == second  # elapsed excluded from comparison

    def test_serial_equals_parallel(self):
        s = scenario(7, reps=60_000, design=Design.equicorrelated(0.3))
        serial = simulate(s, threads=1)
        for threads in (2, 4, 8):
            assert simulate(s, threads=threads) == serial

    def test_different_seeds_differ(self):
        s = scenario(5, reps=20_000)
        assert simulate(s) != simulate(dataclasses.replace(s, seed=2))

    @pytest.mark.parametrize("design", [Design.independent(), Design.equicorrelated(0.5)], ids=lambda d: d.kind)
    def test_shift_is_computed_once_per_run(self, design, monkeypatch):
        calls = []

        def counted(s):
            calls.append(s)
            return _shift(s)

        monkeypatch.setattr(SIM, "_shift", counted)
        s = scenario(300, reps=20_000, design=design, sides=Sides.TWO_SIDED)  # many tiles, two chunks
        simulate(s, threads=2)
        assert len(calls) == 1


class TestSimulateAgainstDecisionFunctions:
    def test_dual_route_exact_agreement(self):
        """Accumulators must match per-replication decide_* runs bit for bit."""
        delta = delta_for_power(0.8, 32)
        for s in (
            scenario(4, reps=400, method=AdjustmentMethod.HOCHBERG),
            scenario(3, reps=400, method=AdjustmentMethod.HOLM, design=Design.shared_control()),
            scenario(
                3,
                reps=400,
                nulls=[True, False, True],
                deltas=[0.0, delta, 0.0],
                method=AdjustmentMethod.SIDAK,
            ),
            scenario(2, reps=400, method=AdjustmentMethod.BONFERRONI, sides=Sides.TWO_SIDED),
        ):
            est = simulate(s)
            fwer_events = v_sum = any_rej = disj = conj = 0
            fdp_sum = 0.0
            per_test = np.zeros(s.k, dtype=int)
            for rep in range(s.reps):
                stats = sample_statistics(s, derive_rep_seed(s.seed, rep))
                battery = TestBattery(
                    tuple((f"t{i}", float(p_from_z(z, s.sides))) for i, z in enumerate(stats))
                )
                individual = decide_individual(battery, s.alpha_joint)
                rejected = [v is Verdict.REJECT for v in individual.per_hypothesis.values()]
                v = sum(r for r, is_null in zip(rejected, s.null_pattern) if is_null)
                r_total = sum(rejected)
                fwer_events += v >= 1
                v_sum += v
                fdp_sum += v / max(r_total, 1)
                any_rej += r_total >= 1
                per_test += np.array(rejected, dtype=int)
                disj += (
                    decide_disjunction(battery, s.alpha_joint, s.method).joint is Verdict.REJECT
                )
                conj += decide_conjunction(battery, s.alpha_joint).joint is Verdict.REJECT
            assert est.fwer_events == fwer_events
            assert est.mean_false_positives == v_sum / s.reps
            # sequential python addition vs numpy pairwise summation can
            # differ in the last ulp; counts above stay exact
            assert est.fdr_hat == pytest.approx(fdp_sum / s.reps, abs=1e-12)
            assert est.joint_reject_rate[TestingMode.INDIVIDUAL] == any_rej / s.reps
            assert est.joint_reject_rate[TestingMode.DISJUNCTION] == disj / s.reps
            assert est.joint_reject_rate[TestingMode.CONJUNCTION] == conj / s.reps
            assert est.per_test_rejection == tuple(c / s.reps for c in per_test)


class TestSimulateEstimates:
    def test_formula_agreement_all_null_independent(self):
        for k in (2, 5, 20, 100):
            for alpha in (0.01, 0.05):
                s = scenario(k, alpha=alpha, reps=40_000, seed=k * 10 + int(alpha * 100))
                est = simulate(s, threads=4)
                expected = fwer_independent(alpha, k)
                assert abs(est.fwer_hat - expected) <= three_sigma(expected, s.reps)

    def test_single_test_boundary(self):
        est = simulate(scenario(1, reps=50_000), threads=2)
        assert abs(est.fwer_hat - 0.05) <= three_sigma(0.05, 50_000)

    def test_per_test_invariance(self):
        for k in (1, 20):
            est = simulate(scenario(k, reps=50_000, seed=33), threads=4)
            for rate in est.per_test_rejection:
                assert abs(rate - 0.05) <= three_sigma(0.05, 50_000)

    def test_sidak_adjustment_restores_joint_alpha(self):
        est = simulate(scenario(20, reps=50_000, seed=44), threads=4)
        disjunction_rate = est.joint_reject_rate[TestingMode.DISJUNCTION]
        assert abs(disjunction_rate - 0.05) <= three_sigma(0.05, 50_000)
        # while the unadjusted any-rejection rate sits near the inflated FWER
        assert abs(est.fwer_hat - 0.6415) <= three_sigma(0.6415, 50_000)

    def test_conjunction_bounded_by_alpha_with_a_true_null(self):
        delta = delta_for_power(0.8, 32)
        s = scenario(2, nulls=[True, False], deltas=[0.0, delta], reps=50_000, seed=55)
        est = simulate(s, threads=2)
        assert est.joint_reject_rate[TestingMode.CONJUNCTION] <= 0.05 + three_sigma(0.05, s.reps)

    def test_conjunction_power_decay(self):
        delta = delta_for_power(0.8, 32)
        s = scenario(2, nulls=[False, False], deltas=[delta, delta], reps=50_000, seed=66)
        est = simulate(s, threads=2)
        expected = conjunction_power(0.8, 2)
        assert abs(est.joint_reject_rate[TestingMode.CONJUNCTION] - expected) <= three_sigma(
            expected, s.reps
        )

    def test_fdr_equals_fwer_under_all_null(self):
        est = simulate(scenario(10, reps=40_000, seed=77), threads=4)
        assert est.fdr_hat == est.fwer_hat  # bitwise: same accumulator arithmetic

    def test_fdr_below_fwer_with_false_nulls(self):
        delta = delta_for_power(0.8, 32)
        nulls = [True] * 5 + [False] * 5
        deltas = [0.0] * 5 + [delta] * 5
        est = simulate(scenario(10, nulls=nulls, deltas=deltas, reps=40_000, seed=88), threads=4)
        assert est.fdr_hat <= est.fwer_hat
        assert est.fdr_hat < est.fwer_hat - 0.1  # comfortably below, not just ties

    def test_dependence_attenuates_fwer(self):
        reps = 60_000
        independent = simulate(scenario(20, reps=reps, seed=99), threads=4)
        equi = simulate(
            scenario(20, reps=reps, seed=99, design=Design.equicorrelated(0.5)), threads=4
        )
        shared = simulate(scenario(20, reps=reps, seed=99, design=Design.shared_control()), threads=4)
        assert equi.fwer_hat < independent.fwer_hat
        assert shared.fwer_hat < independent.fwer_hat

    def test_estimate_invariants(self):
        est = simulate(scenario(6, reps=20_000), threads=2)
        assert 0.0 <= est.fwer_hat <= 1.0
        assert est.fwer_ci[0] <= est.fwer_hat <= est.fwer_ci[1]
        assert est.fdr_hat <= est.fwer_hat
        assert est.seed_echo == 1
        assert est.reps == 20_000
        assert len(est.per_test_rejection) == 6

    def test_threads_domain(self):
        with pytest.raises(DomainError):
            simulate(scenario(2, reps=100), threads=0)


class TestThreadBound:
    def test_workers_capped_at_chunks_and_cpus(self, monkeypatch):
        seen = []

        class Recorder:
            """Stands in for ThreadPoolExecutor: records max_workers, starts no thread."""

            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(SIM, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(SIM, "CHUNK_REPS", 64)
        s = scenario(3, reps=5 * 64)
        serial = simulate(s, threads=1)
        for cpus, threads, workers in ((3, 1024, 3), (64, 1024, 5), (64, 2, 2), (None, 8, None)):
            monkeypatch.setattr(SIM.os, "cpu_count", lambda cpus=cpus: cpus)
            seen.clear()
            assert simulate(s, threads=threads) == serial
            assert seen == ([] if workers is None else [workers])

    def test_threads_above_bound_rejected(self):
        with pytest.raises(DomainError, match="1024"):
            simulate(scenario(2, reps=100), threads=SIM.MAX_THREADS + 1)


# -- the threshold-space route against the p-value route -----------------------


def p_space_joint(p, alpha, method):
    """Joint disjunction verdict of each row of p, as decide_disjunction gives it."""
    k = p.shape[1]
    if method in (AdjustmentMethod.BONFERRONI, AdjustmentMethod.HOLM):
        return p.min(axis=1) <= bonferroni_adjust(alpha, k)
    if method is AdjustmentMethod.SIDAK:
        return p.min(axis=1) <= sidak_adjust(alpha, k)
    steps = alpha / np.arange(k, 0, -1, dtype=np.float64)
    return (np.sort(p, axis=1) <= steps).any(axis=1)


def p_space_simulate(s):
    """The simulator judged on p-values: p_from_z of every statistic, chunk
    by chunk, reduced in chunk order."""
    nulls = np.asarray(s.null_pattern, dtype=bool)
    fwer_events = v_sum = any_reject = disj = conj = 0
    fdp_sum = 0.0
    per_test = np.zeros(s.k, dtype=np.int64)
    for start in range(0, s.reps, SIM.CHUNK_REPS):
        count = min(SIM.CHUNK_REPS, s.reps - start)
        p = p_from_z(_z_block(s, rep_seed_block(s.seed, start, count), _shift(s)), s.sides)
        rejected = p <= s.alpha_joint
        r = rejected.sum(axis=1)
        v = rejected[:, nulls].sum(axis=1)
        fwer_events += int((v >= 1).sum())
        v_sum += int(v.sum())
        fdp_sum += float(np.sum(v / np.maximum(r, 1)))
        any_reject += int((r >= 1).sum())
        disj += int(p_space_joint(p, s.alpha_joint, s.method).sum())
        conj += int(rejected.all(axis=1).sum())
        per_test += rejected.sum(axis=0, dtype=np.int64)
    return Estimates(
        reps=s.reps,
        fwer_hat=fwer_events / s.reps,
        fwer_ci=wilson_ci(fwer_events, s.reps, 0.95),
        fwer_events=fwer_events,
        mean_false_positives=v_sum / s.reps,
        fdr_hat=fdp_sum / s.reps,
        per_test_rejection=tuple(float(c) / s.reps for c in per_test),
        joint_reject_rate={
            TestingMode.INDIVIDUAL: any_reject / s.reps,
            TestingMode.DISJUNCTION: disj / s.reps,
            TestingMode.CONJUNCTION: conj / s.reps,
        },
        seed_echo=s.seed,
        elapsed=0.0,
    )


def effect_patterns(k):
    """(nulls, deltas): all null; half null, half small effects; strong
    effects both ways, so a word cutoff can be 'always' or 'never'; all
    strongly negative."""
    yield [True] * k, [0.0] * k
    yield [i % 2 == 0 for i in range(k)], [0.0 if i % 2 == 0 else 0.3 for i in range(k)]
    yield [False] * k, [(-3.0, 3.0, 0.5)[i % 3] for i in range(k)]
    yield [False] * k, [-3.0] * k


DESIGNS = {
    "independent": Design.independent(),
    "equicorrelated": Design.equicorrelated(0.4),
    "rho0": Design.equicorrelated(0.0),
    "shared_control": Design.shared_control(),
}
FWER_METHODS = [
    AdjustmentMethod.BONFERRONI,
    AdjustmentMethod.SIDAK,
    AdjustmentMethod.HOLM,
    AdjustmentMethod.HOCHBERG,
]


class TestThresholdRoute:
    @pytest.mark.parametrize("method", FWER_METHODS, ids=lambda m: m.value)
    @pytest.mark.parametrize("sides", list(Sides), ids=lambda s: s.value)
    @pytest.mark.parametrize("design", list(DESIGNS), ids=str)
    def test_equals_p_value_route_on_grid(self, design, sides, method, monkeypatch):
        self.check_grid(design, sides, method, None, monkeypatch)

    @pytest.mark.parametrize("method", FWER_METHODS, ids=lambda m: m.value)
    @pytest.mark.parametrize("sides", list(Sides), ids=lambda s: s.value)
    @pytest.mark.parametrize("design", list(DESIGNS), ids=str)
    def test_equals_p_value_route_on_grid_in_5_row_tiles(self, design, sides, method, monkeypatch):
        self.check_grid(design, sides, method, 5, monkeypatch)

    @staticmethod
    def check_grid(design, sides, method, tile_rows, monkeypatch):
        # 64-replication chunks, so 165 replications end in a partial chunk;
        # 5-row tiles end each chunk in a partial tile
        monkeypatch.setattr(SIM, "CHUNK_REPS", 64)
        seed = 0
        for k in (1, 7, 20):
            if tile_rows is not None:
                monkeypatch.setattr(SIM, "TILE_BYTES", tile_rows * 8 * (k + 1))
            for nulls, deltas in effect_patterns(k):
                for alpha in (0.05, 0.3, 0.7):  # one-sided cutoffs are negative above 0.5
                    seed += 1
                    s = scenario(
                        k, alpha=alpha, nulls=nulls, deltas=deltas, design=DESIGNS[design],
                        sides=sides, method=method, reps=165, seed=seed,
                    )
                    assert simulate(s) == p_space_simulate(s), (k, deltas, alpha)

    @pytest.mark.parametrize("delta", [-1.7976931348623157e308, 1.7976931348623157e308])
    def test_equals_p_value_route_at_the_largest_shift(self, delta):
        # at n = 2 the shift is delta itself: the word bands' search must not
        # overflow while it starts, so the run gives no numpy warning
        s = scenario(2, nulls=[True, False], deltas=[0.0, delta], n=2,
                     method=AdjustmentMethod.BONFERRONI, reps=2000, seed=21)
        assert SIM._plan(s).words
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert simulate(s) == p_space_simulate(s)

    def test_equals_p_value_route_at_full_chunks(self):
        reps = CHUNK_REPS + 1001
        mixed = [0.0] * 6 + [0.4] * 7 + [-0.2] * 7
        cases = [
            (scenario(20, method=AdjustmentMethod.SIDAK, reps=reps, seed=11), True),
            (scenario(20, nulls=[d == 0.0 for d in mixed], deltas=mixed,
                      method=AdjustmentMethod.BONFERRONI, reps=reps, seed=12), True),
            (scenario(20, design=Design.equicorrelated(0.5), sides=Sides.TWO_SIDED,
                      method=AdjustmentMethod.HOCHBERG, reps=reps, seed=13), False),
            (scenario(20, method=AdjustmentMethod.HOCHBERG, reps=reps, seed=14), False),
        ]
        for s, on_words in cases:
            assert SIM._plan(s).words is on_words
            assert simulate(s, threads=2) == p_space_simulate(s)


class TestChunkMemory:
    def test_chunk_peak_does_not_grow_with_k(self):
        # a whole-chunk (CHUNK_REPS, k + 1) float64 temporary alone is 125 MiB here
        s = scenario(1000, design=Design.equicorrelated(0.3), sides=Sides.TWO_SIDED,
                     method=AdjustmentMethod.HOCHBERG, reps=CHUNK_REPS)
        tracemalloc.start()
        try:
            simulate(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def order_keys(x):
    bits = np.asarray(x, dtype=np.float64).view(np.int64)
    return np.where(bits < 0, -(bits & 0x7FFFFFFFFFFFFFFF), bits)


THRESHOLDS = np.array(
    [0.7, 0.5, 0.3, 0.05, 0.05 / 7, 0.05 / 20, sidak_adjust(0.05, 20), 1e-6, 1e-300]
)


class TestCutoffBands:
    """Below a band's lower edge p_from_z(z) > t, from its upper edge on
    p_from_z(z) <= t; checked on the 256 doubles or word tops on each side."""

    @pytest.mark.parametrize("sides", list(Sides), ids=lambda s: s.value)
    def test_z_bands(self, sides):
        band = SIM._z_bands(THRESHOLDS, sides)
        steps = np.arange(1, 257)
        below = SIM._double_at(order_keys(band.lower)[:, None] - steps)
        above = SIM._double_at(order_keys(band.upper)[:, None] + steps - 1)
        t = THRESHOLDS[:, None]
        assert np.all(p_from_z(below, sides) > t)
        assert np.all(p_from_z(above, sides) <= t)
        assert np.all(band.upper - band.lower < 1e-10 * np.maximum(1.0, band.upper))

    @pytest.mark.parametrize("shift", [0.0, 0.8, 3.0, -3.0, 12.0, -12.0])
    def test_word_bands(self, shift):
        t = np.array([0.7, 0.05, sidak_adjust(0.05, 20)])
        z = SIM._z_bands(t, Sides.ONE_SIDED)
        tops = SIM._word_bands(np.array([shift]), z.lower, z.upper)
        for j in range(t.size):
            lower, upper = int(tops.lower[0, j]), int(tops.upper[0, j])
            below = np.arange(max(lower - 256, 0), lower, dtype=np.uint64)
            above = np.arange(upper, min(upper + 256, 2**53), dtype=np.uint64)
            assert np.all(p_from_z(SIM._word_z(shift, below), Sides.ONE_SIDED) > t[j])
            assert np.all(p_from_z(SIM._word_z(shift, above), Sides.ONE_SIDED) <= t[j])
        if shift == 12.0:
            assert tops.upper.max() == 0  # always
        if shift == -12.0:
            assert tops.lower.min() == 2**53  # never


class TestInsideBands:
    """Statistics planted inside and around every band: the decisions must
    still equal the p-value route's, so the in-band fallback is exact."""

    @staticmethod
    def near(edges, rng, shape, reach=300):
        """Values whose order keys lie within ``reach`` of a random edge."""
        pick = rng.integers(0, len(edges), size=shape)
        offsets = rng.integers(-reach, reach, size=shape)
        return edges[pick] + offsets

    def check(self, s, plan, z):
        rejected, joint = SIM._decide(plan, s, np.zeros(len(z), dtype=np.uint64))
        p = p_from_z(z, s.sides)
        assert np.array_equal(rejected, p <= s.alpha_joint)
        assert np.array_equal(joint, p_space_joint(p, s.alpha_joint, s.method))

    @pytest.mark.parametrize("method", FWER_METHODS, ids=lambda m: m.value)
    @pytest.mark.parametrize("sides", list(Sides), ids=lambda s: s.value)
    def test_z_route(self, sides, method, monkeypatch):
        k, rng = 7, np.random.default_rng(5)
        s = scenario(k, design=Design.equicorrelated(0.3), sides=sides, method=method, alpha=0.3)
        plan = SIM._plan(s)
        edges = order_keys(np.concatenate([np.ravel(b) for b in (
            plan.test.lower, plan.test.upper, plan.joint.lower, plan.joint.upper)]))
        z = SIM._double_at(self.near(edges, rng, (3000, k)))
        if method is AdjustmentMethod.HOCHBERG:  # sorted column j near step j's band
            step = rng.integers(0, 2, size=(3000, k)) * k + np.arange(k)
            hochberg = order_keys(np.concatenate([plan.joint.lower, plan.joint.upper]))
            planted = SIM._double_at(hochberg[step] + rng.integers(-300, 300, size=(3000, k)))
            z = np.concatenate([z, rng.permuted(planted, axis=1)])
        if sides is Sides.TWO_SIDED:
            z *= rng.choice([-1.0, 1.0], size=z.shape)
        inside = (np.abs(z) >= plan.test.lower) & (np.abs(z) < plan.test.upper)
        assert inside.any()
        monkeypatch.setattr(SIM, "_z_block", lambda scenario, seeds, shift: z.copy())
        self.check(s, plan, z)

    @pytest.mark.parametrize("method", FWER_METHODS[:3], ids=lambda m: m.value)
    def test_word_route(self, method, monkeypatch):
        k, rng = 6, np.random.default_rng(6)
        deltas = [0.0, 0.0, 0.3, 0.3, -0.5, 2.0]
        s = scenario(k, nulls=[d == 0.0 for d in deltas], deltas=deltas, method=method, alpha=0.3)
        plan = SIM._plan(s)
        assert plan.words
        edges = np.stack([plan.test.lower, plan.test.upper, plan.joint.lower, plan.joint.upper])
        pick = rng.integers(0, 4, size=(3000, k))
        tops = edges[pick, np.arange(k)].astype(np.int64) + rng.integers(-300, 300, size=(3000, k))
        tops = np.clip(tops, 0, 2**53 - 1).astype(np.uint64)
        words = (tops << np.uint64(11)) | rng.integers(0, 2048, size=tops.shape, dtype=np.uint64)
        inside = (tops >= plan.test.lower) & (tops < plan.test.upper)
        assert inside.any()
        monkeypatch.setattr(SIM, "word_block", lambda seeds, draws: words.copy())
        z = plan.shift + ndtri(uniform_from_words(words))
        self.check(s, plan, z)
