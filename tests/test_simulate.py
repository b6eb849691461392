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
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from alphagate.decisions import Verdict, decide_conjunction, decide_disjunction, decide_individual, reject
from alphagate.errors import DomainError, InvalidScenario
from alphagate.families import MAX_REPS, AdjustmentMethod, TestBattery, TestingMode
from alphagate.rates import bonferroni_adjust, conjunction_power, fwer_independent, sidak_adjust
from alphagate.rng import derive_rep_seed, normal_from_words, rep_seed_block, uniform_from_words, word_block
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
RNG = importlib.import_module("alphagate.rng")

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

    @pytest.mark.parametrize("loaded", [False, True])
    @pytest.mark.parametrize("sides", list(Sides), ids=lambda s: s.value)
    def test_a_scalar_gives_a_float_with_either_kernel(self, sides, loaded, monkeypatch):
        monkeypatch.setattr(RNG, "_scipy", None)
        if loaded:
            RNG.load_scipy()
        for z in (1.5, np.float64(-2.0), np.array(0.25)):
            p = p_from_z(z, sides)
            assert type(p) is float and p == p_from_z(np.array([z]), sides)[0]


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
    def test_simulator_entry_points_refuse_a_non_scenario(self):
        fields = dataclasses.asdict(scenario(2))
        with pytest.raises(InvalidScenario, match="^expected a Scenario, got dict$"):
            simulate(fields)
        with pytest.raises(InvalidScenario, match="^expected a Scenario, got dict$"):
            sample_statistics(fields, 0)

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
        (dict(reps=0), "reps must be an integer in [1, 100000000], got 0"),
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
        (0, 1, "reps must be an integer in [1, 100000000], got 0"),
        (10, -1, "seed must be an integer in [0, 18446744073709551615], got -1"),
        (10, 2**64, "seed must be an integer in [0, 18446744073709551615], got 18446744073709551616"),
        (True, 1, "reps must be an integer in [1, 100000000], got True"),
    ])
    def test_with_run_checks_like_the_constructor(self, reps, seed, message):
        with pytest.raises(InvalidScenario) as err:
            Scenario(**self.BASE).with_run(reps, seed)
        assert str(err.value) == message

    def test_reps_bound(self):
        assert Scenario(**{**self.BASE, "reps": MAX_REPS}).with_run(MAX_REPS, 0).reps == MAX_REPS
        message = f"reps must be an integer in [1, {MAX_REPS}], got {MAX_REPS + 1}"
        with pytest.raises(InvalidScenario) as err:
            Scenario(**{**self.BASE, "reps": MAX_REPS + 1})
        assert str(err.value) == message
        with pytest.raises(InvalidScenario) as err:
            Scenario(**self.BASE).with_run(MAX_REPS + 1, 0)
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
        # where the platform has no affinity mask, the machine's count caps them
        monkeypatch.delattr(SIM.os, "sched_getaffinity", raising=False)
        for cpus, threads, workers in ((3, 1024, 3), (64, 1024, 5), (64, 2, 2), (None, 8, None)):
            monkeypatch.setattr(SIM.os, "cpu_count", lambda cpus=cpus: cpus)
            seen.clear()
            assert simulate(s, threads=threads) == serial
            assert seen == ([] if workers is None else [workers])

    @pytest.mark.parametrize("cpus, pooled", [({0}, False), ({0, 1}, True)])
    def test_workers_capped_at_the_cpus_the_process_may_run_on(self, cpus, pooled, monkeypatch):
        # under taskset -c 0 on a 2-CPU machine, cpu_count is 2 and the
        # affinity mask holds one CPU: two workers would share it
        pools = []

        def pool(max_workers, pool_type=SIM.ThreadPoolExecutor):
            pools.append(max_workers)
            return pool_type(max_workers)

        monkeypatch.setattr(SIM, "ThreadPoolExecutor", pool)
        monkeypatch.setattr(SIM.os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
        monkeypatch.setattr(SIM.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(SIM, "CHUNK_REPS", 64)
        s = scenario(3, reps=2 * 64)
        assert simulate(s, threads=2) == simulate(s, threads=1)
        assert pools == ([2] if pooled else [])

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
    @pytest.mark.parametrize(
        "design, sides, method, words",
        [(Design.independent(), Sides.ONE_SIDED, AdjustmentMethod.SIDAK, True),
         (Design.independent(), Sides.ONE_SIDED, AdjustmentMethod.HOLM, True),
         (Design.independent(), Sides.TWO_SIDED, AdjustmentMethod.SIDAK, False),
         (Design.independent(), Sides.ONE_SIDED, AdjustmentMethod.HOCHBERG, False),
         (Design.equicorrelated(0.5), Sides.ONE_SIDED, AdjustmentMethod.BONFERRONI, False)],
    )
    def test_only_the_z_route_loads_scipy(self, design, sides, method, words, monkeypatch):
        # the word route's plan converts 8 values, within the ports' reach; the
        # z route converts whole tiles, so its plan sends them all to scipy
        monkeypatch.setattr(RNG, "_scipy", None)
        assert SIM._plan(scenario(20, design=design, sides=sides, method=method)).words is words
        assert (RNG._scipy is None) is words

    @pytest.mark.parametrize(
        "deltas", [[0.0] * 20, [0.0] * 10 + [0.2, 0.5, 1.0, 2.5, -0.3] * 2, [0.1 * i for i in range(16)]]
    )
    @pytest.mark.parametrize("method", [AdjustmentMethod.SIDAK, AdjustmentMethod.HOLM])
    def test_the_word_route_gives_the_same_estimates_without_scipy(self, deltas, method, monkeypatch):
        # at most 16 distinct shifts: the plan's conversions stay with the ports
        s = scenario(len(deltas), nulls=[d == 0.0 for d in deltas], deltas=deltas, method=method, reps=40_000)
        monkeypatch.setattr(RNG, "_scipy", None)
        ported = simulate(s)
        assert RNG._scipy is None
        RNG.load_scipy()
        assert ported == simulate(s)

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
        # at n = 2 the shift is delta itself: the word bands must not
        # overflow, so the run gives no numpy warning
        s = scenario(2, nulls=[True, False], deltas=[0.0, delta], n=2,
                     method=AdjustmentMethod.BONFERRONI, reps=2000, seed=21)
        assert SIM._plan(s).words
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert simulate(s) == p_space_simulate(s)

    @pytest.mark.parametrize("alpha", [5e-324, 1e-310, 1e-300, 0.999])
    @pytest.mark.parametrize(
        "route, design, sides, method",
        [("words", Design.independent(), Sides.ONE_SIDED, AdjustmentMethod.SIDAK),
         ("words", Design.independent(), Sides.ONE_SIDED, AdjustmentMethod.BONFERRONI),
         ("z", Design.equicorrelated(0.3), Sides.TWO_SIDED, AdjustmentMethod.HOLM),
         ("z", Design.equicorrelated(0.3), Sides.TWO_SIDED, AdjustmentMethod.HOCHBERG)],
        ids=["words-sidak", "words-bonferroni", "z-holm", "z-hochberg"],
    )
    def test_equals_p_value_route_at_extreme_alpha(self, route, design, sides, method, alpha):
        # shifts about the cutoff at alpha, so the draws straddle it; p-values
        # there are subnormal or 0 (erfc underflows at z = 37.68), and at
        # 5e-324 a step alpha / k (and alpha / 2) is 0
        cut = -float(ndtri(alpha if sides is Sides.ONE_SIDED else max(alpha / 2, 5e-324)))
        deltas = [0.0, cut - 1.0, cut - 0.3, cut, cut + 0.3, cut + 1.0]
        s = scenario(6, alpha=alpha, nulls=[d == 0.0 for d in deltas], deltas=deltas, n=2,
                     design=design, sides=sides, method=method, reps=3000, seed=31)
        assert SIM._plan(s).words is (route == "words")
        assert simulate(s) == p_space_simulate(s)

    @pytest.mark.parametrize("route", ["words", "z"])
    def test_fallbacks_redraw_only_replications_with_a_statistic_in_a_band(self, route, monkeypatch):
        # at alpha = 1e-310 the bands' upper edges are capped where p_from_z
        # turns 0, so only a statistic in [lowest lower edge, cap) sends its
        # replication to a fallback, and p_from_z sees only redrawn z
        words = route == "words"
        alpha, sides = 1e-310, Sides.ONE_SIDED if words else Sides.TWO_SIDED
        cut = -float(ndtri(alpha if words else alpha / 2))
        deltas = [0.0, cut - 1.0, cut - 0.3, cut, cut + 0.3, cut + 1.0]
        s = scenario(6, alpha=alpha, nulls=[d == 0.0 for d in deltas], deltas=deltas, n=2, sides=sides,
                     design=Design.independent() if words else Design.equicorrelated(0.3),
                     method=AdjustmentMethod.BONFERRONI if words else AdjustmentMethod.HOLM, reps=3000, seed=31)
        plan = SIM._plan(s)
        assert plan.words is words
        redrawn, stats, z_block, p_of = [], [], SIM._z_block, SIM.p_from_z
        monkeypatch.setattr(SIM, "_z_block", lambda sc, seeds, shift: redrawn.append(seeds) or z_block(sc, seeds, shift))
        monkeypatch.setattr(SIM, "p_from_z", lambda z, sides: stats.append(np.size(z)) or p_of(z, sides))
        assert simulate(s) == p_space_simulate(s)

        seeds = rep_seed_block(s.seed, 0, s.reps)
        z = z_block(s, seeds, plan.shift)
        z = z if words else np.abs(z)  # a two-sided statistic is |z|
        bands = SIM._z_bands(np.array([alpha, alpha / s.k]), sides)
        assert np.all(bands.upper < 37.7)
        # the word route's bands are wider by the conversion's margin, about 1e-7 here
        in_band = ((z >= bands.lower.min() - 1e-6) & (z < bands.upper.max() + 1e-6)).any(axis=1)
        index = {seed: rep for rep, seed in enumerate(seeds.tolist())}
        rows = [index[seed] for seed in np.concatenate(redrawn).tolist()]
        assert rows and np.all(in_band[rows])
        assert 0 < sum(stats) <= s.k * len(rows) and len(rows) <= 2 * np.count_nonzero(in_band) < s.reps

    def test_the_benchmark_shape_redraws_a_handful_of_replications(self, monkeypatch):
        # k = 20 true nulls, one-sided Sidak at 0.05, 2**16 replications: a
        # statistic ties a 31-bit edge about once in 2**30 draws per band, so
        # a run redraws about 0.003 replications. An edge rounded the wrong
        # way would send whole tiles to _z_block: right, but slow
        redrawn, z_block = [], SIM._z_block
        monkeypatch.setattr(SIM, "_z_block",
                            lambda sc, seeds, shift: redrawn.append(len(seeds)) or z_block(sc, seeds, shift))
        for seed in (1, 2, 3):
            s = scenario(20, n=2, reps=2**16, seed=seed)
            assert SIM._plan(s).words
            simulate(s)
        assert sum(redrawn) <= 3

    def test_equals_p_value_route_at_full_chunks(self):
        reps = CHUNK_REPS + 1001
        mixed = [0.0] * 6 + [0.4] * 7 + [-0.2] * 7
        # the benchmark's wide shape: 100 true nulls, then 100 at delta 0.4
        wide = [0.0] * 100 + [0.4] * 100
        cases = [
            (scenario(20, method=AdjustmentMethod.SIDAK, reps=reps, seed=11), "words"),
            (scenario(20, nulls=[d == 0.0 for d in mixed], deltas=mixed,
                      method=AdjustmentMethod.BONFERRONI, reps=reps, seed=12), "words"),
            (scenario(20, design=Design.equicorrelated(0.5), sides=Sides.TWO_SIDED,
                      method=AdjustmentMethod.HOCHBERG, reps=reps, seed=13), "screen"),
            (scenario(20, method=AdjustmentMethod.HOCHBERG, reps=reps, seed=14), "screen"),
            (scenario(200, nulls=[d == 0.0 for d in wide], deltas=wide, design=Design.equicorrelated(0.5),
                      sides=Sides.TWO_SIDED, method=AdjustmentMethod.HOCHBERG, reps=reps, seed=15), "screen"),
            (scenario(200, nulls=[d == 0.0 for d in wide], deltas=wide, design=Design.shared_control(),
                      sides=Sides.TWO_SIDED, method=AdjustmentMethod.HOLM, reps=reps, seed=16), "screen"),
        ]
        for s, route in cases:
            plan = SIM._plan(s)
            assert plan.words is (route == "words") and (plan.screen is not None) is (route == "screen")
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

    def test_warm_wide_call_peak_stays_at_its_figure(self):
        # the benchmark's wide shape at one thread: one scratch block of about
        # 1,610 KiB plus a tile's transients. Before the screened tiles were
        # assembled compactly and Hochberg bracketed, a warm call peaked at
        # 1,871 KiB; a fresh array of the kept draws' shifts or shared terms
        # would add about 110 KiB each, and one of tile size 512 KiB
        wide = [0.0] * 100 + [0.4] * 100
        s = scenario(200, nulls=[d == 0.0 for d in wide], deltas=wide, design=Design.equicorrelated(0.5),
                     sides=Sides.TWO_SIDED, method=AdjustmentMethod.HOCHBERG, reps=2 * CHUNK_REPS, seed=1)
        simulate(s)
        tracemalloc.start()
        try:
            simulate(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1_871 * 1024


def tile_bytes(rows, k, workers):
    """The TILE_BYTES that gives a run of ``workers`` workers tiles of
    ``rows`` at k: more than one worker judges tiles of twice TILE_BYTES."""
    return rows * 8 * (k + 1) // (1 if workers == 1 else 2)


@st.composite
def small_runs(draw):
    """(scenario, chunk length, tile rows, threads): k up to 64 with a mix of
    shifts, some shared, on any design, sides and method, and a replication
    count that ends in a partial chunk whose last tile is partial too."""
    k = draw(st.integers(1, 64))
    deltas = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, -0.4, 2.5]), min_size=k, max_size=k))
    chunk = draw(st.integers(8, 40))
    tile_rows = draw(st.integers(2, chunk - 1))
    partial = draw(st.integers(1, tile_rows - 1))
    last = partial + tile_rows * draw(st.integers(0, (chunk - 1 - partial) // tile_rows))
    s = scenario(
        k,
        alpha=draw(st.sampled_from([0.05, 0.3, 0.7]) | st.floats(1e-4, 0.99)),
        nulls=[d == 0.0 for d in deltas],
        deltas=deltas,
        design=draw(st.sampled_from(list(DESIGNS.values()))),
        sides=draw(st.sampled_from(list(Sides))),
        method=draw(st.sampled_from(FWER_METHODS)),
        reps=draw(st.integers(1, 3)) * chunk + last,
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return s, chunk, tile_rows, draw(st.sampled_from([1, 2, 3]))


class TestScratchReuse:
    @settings(max_examples=120)
    @given(small_runs())
    def test_small_chunks_and_tiles_equal_the_p_value_route(self, run):
        # every chunk and tile of a worker reuses one scratch block, so a value
        # left from an earlier chunk or a longer tile would show here
        s, chunk, tile_rows, threads = run
        workers = min(threads, -(-s.reps // chunk), 3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SIM, "CHUNK_REPS", chunk)
            mp.setattr(SIM, "TILE_BYTES", tile_bytes(tile_rows, s.k, workers))
            mp.setattr(SIM, "_cpus", lambda: 3)
            got, want = simulate(s, threads=threads), p_space_simulate(s)
        # repr also tells a numpy scalar from the Python number it equals
        assert repr(dataclasses.replace(got, elapsed=0.0)) == repr(want)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("route", ["words", "z"])
    def test_tiles_and_chunks_share_one_block_per_worker(self, route, threads, monkeypatch):
        made, decided = [], []

        class Recorded(SIM._Scratch):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        def recorded(plan, s, seeds, scratch, counts, decide=SIM._decide):
            decided.append(decide(plan, s, seeds, scratch, counts))
            return decided[-1]

        monkeypatch.setattr(SIM, "_Scratch", Recorded)
        monkeypatch.setattr(SIM, "_decide", recorded)
        monkeypatch.setattr(SIM, "CHUNK_REPS", 64)
        # 40-row tiles at k = 5
        monkeypatch.setattr(SIM, "TILE_BYTES", tile_bytes(40, 5, min(threads, 4, SIM._cpus())))
        mixed = [0.0, 0.0, 0.3, 0.3, -0.2]
        s = scenario(5, nulls=[d == 0.0 for d in mixed], deltas=mixed, reps=4 * 64,
                     sides=Sides.ONE_SIDED if route == "words" else Sides.TWO_SIDED)
        assert SIM._plan(s).words is (route == "words")
        simulate(s, threads=threads)
        # a pool thread that finds no chunk left makes none
        assert 1 <= len(made) <= min(threads, SIM._cpus())
        assert len(decided) == 8  # two tiles in each of four chunks
        for rejected, joint in decided:
            owner = [scratch for scratch in made if np.shares_memory(rejected, scratch.block)]
            assert len(owner) == 1 and np.shares_memory(joint, owner[0].block)
        for scratch in made:
            for chunk_view in (scratch.seeds, scratch.r, scratch.v, scratch.ratio):
                assert np.shares_memory(chunk_view, scratch.block)

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("route", ["words", "z"])
    def test_more_than_one_worker_judges_tiles_twice_as_wide(self, route, threads, monkeypatch):
        rows = []

        def recorded(plan, s, seeds, scratch, counts, decide=SIM._decide):
            rows.append(len(seeds))
            return decide(plan, s, seeds, scratch, counts)

        monkeypatch.setattr(SIM, "_decide", recorded)
        monkeypatch.setattr(SIM, "CHUNK_REPS", 200)
        monkeypatch.setattr(SIM, "TILE_BYTES", 40 * 8 * 6)  # 40-row tiles at k = 5 and one worker
        monkeypatch.setattr(SIM, "_cpus", lambda: 3)
        mixed = [0.0, 0.0, 0.3, 0.3, -0.2]
        s = scenario(5, nulls=[d == 0.0 for d in mixed], deltas=mixed, reps=3 * 200 + 57, seed=5,
                     sides=Sides.ONE_SIDED if route == "words" else Sides.TWO_SIDED)
        assert SIM._plan(s).words is (route == "words")
        serial = simulate(s, threads=1)
        assert sorted(rows) == sorted([40] * 15 + [40, 17])
        rows.clear()
        # twice the rows, not a multiple of the worker count
        assert repr(dataclasses.replace(simulate(s, threads=threads), elapsed=0.0)) == repr(
            dataclasses.replace(serial, elapsed=0.0)
        )
        assert sorted(rows) == sorted([80, 80, 40] * 3 + [57])


SCREEN_DESIGNS = [Design.independent(), *map(Design.equicorrelated, (0.0, 0.3, 0.5, 0.999)), Design.shared_control()]


@st.composite
def screened_tiles(draw):
    """(scenario, tile rows): a z-route scenario whose shift is its delta
    (n = 2), on any design and sides."""
    k = draw(st.integers(1, 12))
    shifts = draw(st.lists(st.sampled_from([0.0, 0.4, -1.5, 3.0]) | st.floats(-12, 12), min_size=k, max_size=k))
    rows = draw(st.integers(1, 40))
    s = scenario(
        k,
        alpha=draw(st.sampled_from([1e-6, 0.05, 0.7])),
        nulls=[d == 0.0 for d in shifts],
        deltas=shifts,
        n=2,
        design=draw(st.sampled_from(SCREEN_DESIGNS)),
        sides=draw(st.sampled_from(list(Sides))),
        method=AdjustmentMethod.HOCHBERG,  # the z route on every design
        reps=rows,
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return s, rows


@st.composite
def head_tiles(draw):
    """(scenario, tile rows): a z-route scenario whose shifts are one, two
    halves or a few interleaved values, so that a screen finds segments."""
    k = draw(st.integers(24, 48))
    values = draw(st.lists(st.sampled_from([0.0, 0.4, -1.5, 3.0, 37.6]) | st.floats(-12, 12), min_size=1,
                           max_size=3, unique=True))
    if draw(st.booleans()):
        shifts = [values[i * len(values) // k] for i in range(k)]
    else:
        shifts = [values[i % len(values)] for i in range(k)]
    rows = draw(st.integers(1, 40))
    s = scenario(
        k,
        alpha=draw(st.sampled_from([1e-6, 0.05, 0.7])),
        nulls=[d == 0.0 for d in shifts],
        deltas=shifts,
        n=2,
        design=draw(st.sampled_from(SCREEN_DESIGNS)),
        sides=draw(st.sampled_from(list(Sides))),
        method=AdjustmentMethod.HOCHBERG,
        reps=rows,
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return s, rows


class TestScreen:
    """The z route's screen: every statistic it computes is _z_block's, and
    every one it skips lies below the lowest band edge."""

    @settings(max_examples=150, derandomize=True)
    @given(screened_tiles(), st.integers(-3, 3))
    def test_computed_entries_are_z_block_bitwise_and_skipped_ones_below_the_cut(self, tile, reach):
        s, rows = tile
        plan = SIM._plan(s)
        # screened even where the screen would not pay
        screen = SIM._screen_for(s, plan.shift, SIM._distinct(plan.shift)[0], plan.test)
        plan = dataclasses.replace(plan, screen=screen)
        scratch = SIM._Scratch(plan, s, rows, rows)
        seeds = rep_seed_block(s.seed, 0, rows)
        words = word_block(seeds, SIM._draws(s))

        # this tile's word bounds, (2, shifts, rows or 1); then half of the
        # test words are planted within a few tops of their replication's edges
        SIM._screened_z(plan, s, seeds, scratch)
        columns = 1 if s.design.kind == "independent" else rows
        bounds = SIM._carve(scratch.bounds, (2, screen.edges.shape[1], columns))[:, screen.column]
        rng = np.random.default_rng(s.seed % 2**32)
        edge = np.where(rng.integers(0, 2, size=(s.k, rows)) == 1, bounds[1], bounds[0])
        tops = (edge >> np.uint64(11)).astype(np.int64) + reach + rng.integers(-3, 4, size=(s.k, rows))
        tops = np.clip(tops, 0, 2**53 - 1).astype(np.uint64)
        planted = (tops << np.uint64(11)) | rng.integers(0, 2048, size=tops.shape, dtype=np.uint64)
        keep = rng.random(planted.shape) < 0.5
        words[:, -s.k :] = np.where(keep, words[:, -s.k :].T, planted).T

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SIM, "word_block", lambda seeds, draws, out, scratch: np.copyto(out, words) or out)
            mp.setattr(SIM, "normal_block", lambda seeds, draws: normal_from_words(words.copy()))
            x = SIM._screened_z(plan, s, seeds, scratch)
            z = SIM._z_block(s, seeds, plan.shift).T
        assert np.shares_memory(x, scratch.stats)
        if s.sides is Sides.TWO_SIDED:
            z = np.abs(z)
        skipped = x == -np.inf
        assert np.array_equal(x[~skipped].view(np.uint64), z[~skipped].view(np.uint64))
        assert np.all(z[skipped] < plan.test.lower)

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("design", DESIGNS.values(), ids=DESIGNS.keys())
    def test_fills_the_tile_in_place(self, design, rows):
        # with and without the screen; a tile is (draws, rows), test-major
        mixed = [0.0, 0.0, 0.3, -0.2, 2.5] * 4
        s = scenario(20, nulls=[d == 0.0 for d in mixed], deltas=mixed, design=design,
                     sides=Sides.TWO_SIDED, method=AdjustmentMethod.HOCHBERG, reps=rows)
        seeds, plan = rep_seed_block(s.seed, 0, rows), SIM._plan(s)
        z = np.abs(SIM._z_block(s, seeds, plan.shift).T)
        distinct, _ = SIM._distinct(plan.shift)
        for screen in (None, SIM._screen_for(s, plan.shift, distinct, plan.test)):
            planned = dataclasses.replace(plan, screen=screen)
            scratch = SIM._Scratch(planned, s, rows, rows)
            x = SIM._screened_z(planned, s, seeds, scratch)
            assert x.shape == (20, rows) and np.shares_memory(x, scratch.stats)
            kept = x != -np.inf
            assert np.array_equal(x[kept].view(np.uint64), z[kept].view(np.uint64))
            assert bool(kept.all()) is (screen is None)

    @settings(max_examples=100, derandomize=True)
    @given(head_tiles(), st.integers(-3, 3))
    def test_head_tiles_make_the_whole_tiles_maxima_and_columns(self, tile, reach):
        # a tile screened with segments makes z only for the kept extremes of
        # each segment and for the columns it sorts: its maxima and columns
        # are bitwise those of the same words judged whole
        s, rows = tile
        plan = SIM._plan(s)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SIM, "_SEGMENT_COST", 2)  # segments at small k too
            screen = SIM._screen_for(s, plan.shift, SIM._distinct(plan.shift)[0], plan.test)
        assert screen.segments is not None
        plan = dataclasses.replace(plan, screen=screen)
        seeds = rep_seed_block(s.seed, 0, rows)
        words = word_block(seeds, SIM._draws(s))
        scratch = SIM._Scratch(plan, s, rows, rows)

        # half of the test words within a few tops of their replication's
        # screen edges, where the whole tile's words turn from -inf to z
        tile = SIM._screened_words(plan, s, seeds, scratch)
        lower, width = (b[np.broadcast_to(screen.column, (s.k,))].astype(np.int64) >> 11 for b in tile.bounds)
        rng = np.random.default_rng(s.seed % 2**32)
        edge = np.where(rng.integers(0, 2, size=(s.k, rows)) == 1, lower, lower + width)
        tops = np.clip(edge + reach + rng.integers(-3, 4, size=(s.k, rows)), 0, 2**53 - 1).astype(np.uint64)
        planted = (tops << np.uint64(11)) | rng.integers(0, 2048, size=tops.shape, dtype=np.uint64)
        words[:, -s.k :] = np.where(rng.random(planted.shape) < 0.5, words[:, -s.k :].T, planted).T
        # and replication 0's all on the lowest word kept above the screen
        words[0, -s.k :] = np.minimum(lower + width, 2**53 - 1)[:, 0].astype(np.uint64) << np.uint64(11)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SIM, "word_block", lambda seeds, draws, out, scratch: np.copyto(out, words) or out)
            whole = SIM._screened_z(dataclasses.replace(plan, screen=dataclasses.replace(screen, segments=None)),
                                    s, seeds, SIM._Scratch(plan, s, rows, rows)).copy()
            top = SIM._extreme_top(plan, s, SIM._screened_words(plan, s, seeds, scratch), scratch)
            # within a segment z only grows with the word, to within an ulp of
            # ndtri, and no two random or planted words of one are that close
            assert np.array_equal(top.view(np.uint64), whole.max(axis=0).view(np.uint64))
            assert np.shares_memory(top, scratch.top)
            unsettled = rng.permutation(rows)[: rng.integers(1, rows + 1)]
            columns = SIM._kept_columns(plan, s, SIM._screened_words(plan, s, seeds, scratch), unsettled, scratch)
        assert np.array_equal(columns.view(np.uint64), whole[:, unsettled].view(np.uint64))
        assert np.shares_memory(columns, scratch.bits)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        design=st.sampled_from(SCREEN_DESIGNS),
        sides=st.sampled_from(list(Sides)),
        method=st.sampled_from(FWER_METHODS),
        shifts=st.sampled_from(["one", "two", "interleaved", "per test"]),
        k=st.integers(2, 40),
        reps=st.integers(1, 300) | st.just(CHUNK_REPS + 5),
        alpha=st.sampled_from([1e-6, 0.05, 0.3]),
        cost=st.sampled_from([None, 2]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_screened_runs_equal_unscreened_ones(self, design, sides, method, shifts, k, reps, alpha, cost, seed):
        # the estimates of a run with the screen forced on, on its heads where
        # it finds segments, equal those with it forced off, at 1 and 2 threads
        if reps > CHUNK_REPS:
            k = min(k, 12)
        deltas = {"one": [0.0] * k, "two": [0.0] * (k // 2) + [0.5] * (k - k // 2),
                  "interleaved": [(0.0, 0.5, 1.5)[i % 3] for i in range(k)],
                  "per test": [0.1 * i for i in range(k)]}[shifts]
        s = scenario(k, alpha=alpha, nulls=[d == 0.0 for d in deltas], deltas=deltas, n=2, design=design,
                     sides=sides, method=method, reps=reps, seed=seed)
        for threads in (1, 2):
            estimates = []
            for screens in (False, True):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(SIM, "_screens", lambda *args: screens)
                    if cost is not None:
                        mp.setattr(SIM, "_SEGMENT_COST", cost)
                    estimates.append(simulate(s, threads=threads))
            assert estimates[0] == estimates[1]

    def test_normals_drawn_on_the_benchmark_shape(self, monkeypatch):
        # a count, not a time: on the benchmark's wide equicorrelated shape the
        # screen keeps about a fifth of the test draws, but only the shared
        # draw, the kept largest and smallest words of each shift's tests and
        # the kept draws of the replications Hochberg sorts become normals
        wide = [0.0] * 100 + [0.4] * 100
        s = scenario(200, nulls=[d == 0.0 for d in wide], deltas=wide, design=Design.equicorrelated(0.5),
                     sides=Sides.TWO_SIDED, method=AdjustmentMethod.HOCHBERG, reps=20_000, seed=3)
        drawn, ndtri_of = [], RNG.ndtri
        monkeypatch.setattr(RNG, "ndtri", lambda u, **kw: drawn.append(u.size) or ndtri_of(u, **kw))
        simulate(s, threads=2)
        # the shared draw, at most four kept extremes and the kept draws of the
        # few sorted replications: about 6 normals per replication, not 42
        assert s.reps < sum(drawn) <= 10 * s.reps

    @pytest.mark.parametrize("shifts", [1, 64], ids=["heads", "whole"])
    def test_a_one_row_tile_assembles_its_kept_draws_at_once(self, shifts, monkeypatch):
        # at reps 1 a chunk is one replication long; the kept draws' z were
        # once gathered in pieces of that length, one _assemble call each. With
        # 64 shifts in turn a tile is judged whole, and with one on its heads,
        # where the kept extremes and any sorted column are each a block
        k = CHUNK_REPS + 3_616
        deltas = [0.01 * (i % shifts) for i in range(k)]
        s = scenario(k, nulls=[d == 0.0 for d in deltas], deltas=deltas, design=Design.equicorrelated(0.25),
                     sides=Sides.TWO_SIDED, method=AdjustmentMethod.HOCHBERG, reps=1)
        screen = SIM._plan(s).screen
        assert screen is not None and (screen.segments is None) is (shifts > 1)
        calls, blocks, assemble, kept_z = [], [], SIM._assemble, SIM._kept_z
        monkeypatch.setattr(SIM, "_assemble", lambda *args, **kwargs: calls.append(1) or assemble(*args, **kwargs))
        monkeypatch.setattr(SIM, "_kept_z", lambda *args: blocks.append(args[1].size) or kept_z(*args))
        monkeypatch.setattr(SIM, "_z_block", lambda *args: pytest.fail("no statistic should fall in a band"))
        simulate(s)
        assert len(calls) == len(blocks) and blocks[0] == (k if shifts > 1 else 2)

    @pytest.mark.parametrize(
        "design, sides, alpha, deltas, screened",
        [(Design.equicorrelated(0.5), Sides.TWO_SIDED, 0.05, [0.0] * 20, True),
         (Design.equicorrelated(0.5), Sides.ONE_SIDED, 0.7, [0.0] * 20, False),
         (Design.equicorrelated(0.5), Sides.TWO_SIDED, 0.05, [0.1 * i for i in range(20)], False),
         (Design.equicorrelated(0.5), Sides.TWO_SIDED, 0.05, [0.0] * 3, False),
         # no shared draw moves the independent design's edges: they cost nothing per replication
         (Design.independent(), Sides.TWO_SIDED, 0.05, [0.0] * 3, True)],
        ids=["pays", "keeps-most-draws", "a-shift-per-test", "few-tests", "few-independent-tests"],
    )
    def test_runs_only_where_it_pays(self, design, sides, alpha, deltas, screened):
        s = scenario(len(deltas), alpha=alpha, nulls=[d == 0.0 for d in deltas], deltas=deltas,
                     design=design, sides=sides, method=AdjustmentMethod.HOCHBERG)
        assert (SIM._plan(s).screen is not None) is screened


def order_keys(x):
    bits = np.asarray(x, dtype=np.float64).view(np.int64)
    return np.where(bits < 0, -(bits & 0x7FFFFFFFFFFFFFFF), bits)


def word_z(shift, tops):
    """z of 53-bit word tops under the independent design, as the draws make it."""
    return shift + normal_from_words(tops << np.uint64(11))


def double_at(keys):
    """The doubles whose order keys are ``keys``: the inverse of order_keys."""
    keys = np.asarray(keys, dtype=np.int64)
    magnitude = np.abs(keys).astype(np.uint64)
    return np.where(keys < 0, magnitude | np.uint64(1 << 63), magnitude).view(np.float64)


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
        below = double_at(order_keys(band.lower)[:, None] - steps)
        above = double_at(order_keys(band.upper)[:, None] + steps - 1)
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
            assert np.all(p_from_z(word_z(shift, below), Sides.ONE_SIDED) > t[j])
            assert np.all(p_from_z(word_z(shift, above), Sides.ONE_SIDED) <= t[j])
        if shift == 12.0:
            assert tops.lower.max() == 0  # no top surely fails
        if shift == -12.0:
            assert tops.upper.min() == 2**53  # no top surely passes


#: Thresholds log-uniform over the doubles in (0, 1), with 0 and values
#: within 1e-12 of 1.
THRESHOLD_DRAWS = (
    st.floats(math.log(5e-324), 0.0, exclude_max=True).map(math.exp)
    | st.just(0.0)
    | st.floats(1e-16, 1e-12).map(lambda d: 1.0 - d)
)
SHIFT_DRAWS = st.builds(lambda sign, size: sign * size, st.sampled_from([1.0, -1.0]),
                        st.floats(0.0, 40.0) | st.just(1e300))


class TestBandCertainty:
    """The claim of every band, over generated thresholds and shifts: on the
    256 doubles or word tops on each side of every finite edge, p_from_z is
    above t below the lower edge and at or below t from the upper edge on."""

    @settings(max_examples=300)
    @given(st.lists(THRESHOLD_DRAWS, min_size=1, max_size=8), st.sampled_from(list(Sides)))
    def test_z_edges(self, t, sides):
        t = np.array(t)
        band = SIM._z_bands(t, sides)
        steps = np.arange(1, 257)
        for edge, keys, certain in ((band.lower, -steps, np.greater), (band.upper, steps - 1, np.less_equal)):
            finite = np.isfinite(edge)
            z = double_at(order_keys(edge[finite])[:, None] + keys)
            # a two-sided statistic is |z|
            seen = z >= 0 if sides is Sides.TWO_SIDED else np.full(z.shape, True)
            assert np.all(certain(p_from_z(z, sides), t[finite, None]) | ~seen), (t, sides)

    @settings(max_examples=200)
    @given(st.lists(THRESHOLD_DRAWS, min_size=1, max_size=4), st.lists(SHIFT_DRAWS, min_size=1, max_size=3))
    def test_word_edges(self, t, shift):
        t, shift = np.array(t), np.array(shift)
        z = SIM._z_bands(t, Sides.ONE_SIDED)
        tops = SIM._word_bands(shift, z.lower, z.upper)
        steps = np.arange(1, 257)
        for edge, offsets, certain in ((tops.lower, -steps, np.greater), (tops.upper, steps - 1, np.less_equal)):
            near = edge.astype(np.int64)[..., None] + offsets
            seen = (near >= 0) & (near < 2**53)
            words = np.clip(near, 0, 2**53 - 1).astype(np.uint64)
            p = p_from_z(word_z(shift[:, None, None], words), Sides.ONE_SIDED)
            assert np.all(certain(p, t[None, :, None]) | ~seen), (t, shift)


def relative_error(computed, exact):
    """The largest |computed - exact| / |exact| over paired floats and mpfs."""
    return max(float(abs(mpmath.mpf(float(c)) - e) / abs(e)) for c, e in zip(computed, exact))


class TestBandPremises:
    """The error of each kernel the bands lean on, against mpmath at 40
    digits, beside the margin that covers it. Measured with scipy 1.17.1:
    p_from_z's relative error is 4.1e-15 for z below 5, 5.9e-14 for z in
    10-20 and 2.6e-13 for z in 30-37.68, which is 3.4 times below 2**-40;
    ndtri's |dz| / (1 + |z|) is at most 2.5e-16 and ndtr's relative error at
    most 2.4e-13."""

    @pytest.mark.parametrize("sides", list(Sides), ids=lambda s: s.value)
    @pytest.mark.parametrize("lo, hi", [(-10, 0), (0, 5), (5, 10), (10, 20), (20, 30), (30, 37.5), (37.5, None)])
    def test_p_from_z(self, lo, hi, sides):
        # up to the z from which p_from_z is 0
        z = np.random.default_rng(int(lo) + 100).uniform(lo, SIM._P_ZERO if hi is None else hi, 300)
        with mpmath.workdps(40):
            if sides is Sides.ONE_SIDED:
                exact = [mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)) / 2 for x in z.tolist()]
            else:
                exact = [min(mpmath.erfc(abs(mpmath.mpf(x)) / mpmath.sqrt(2)), 1) for x in z.tolist()]
            error = relative_error(p_from_z(z, sides), exact)
        assert error <= SIM._P_REL_ERR, f"{error:.2e}: {SIM._P_REL_ERR / error:.1f}x headroom"

    def test_ndtri(self):
        rng = np.random.default_rng(7)
        u = np.exp(rng.uniform(math.log(5e-324), 0.0, 1000))
        u = np.concatenate([u, 1.0 - u[:300] / 2])
        z = ndtri(u[u < 1.0])
        with mpmath.workdps(40):
            # one Newton step from z: the exact inverse's distance from z
            error = max(float(abs((mpmath.ncdf(x) - mpmath.mpf(v)) / mpmath.npdf(x))) / (1 + abs(x))
                        for x, v in zip(z.tolist(), u[u < 1.0].tolist()))
        assert error <= SIM._P_REL_ERR, f"{error:.2e}: {SIM._P_REL_ERR / error:.0f}x headroom"

    def test_ndtr(self):
        # down to where ndtr's value is the smallest normal double
        x = np.random.default_rng(8).uniform(-37.5, 9.0, 1000)
        with mpmath.workdps(40):
            error = relative_error(ndtr(x), [mpmath.ncdf(v) for v in x.tolist()])
        assert error <= SIM._SCREEN_MARGIN, f"{error:.2e}: {SIM._SCREEN_MARGIN / error:.0f}x headroom"

    @pytest.mark.parametrize("sides", list(Sides), ids=lambda s: s.value)
    def test_p_from_z_is_0_from_the_cap(self, sides):
        # the capped upper edge of t = 0, which no p-value but 0 reaches
        cap = SIM._z_bands(np.array([0.0]), sides).upper[0]
        above = double_at(order_keys(cap) + np.arange(256))
        assert np.all(p_from_z(np.concatenate([above, [38.0, 40.0, 1e300, np.inf]]), sides) == 0)
        # and the cap is within 1e-10 of the last nonzero p-value
        below = double_at(order_keys(37.677) - np.arange(256))
        assert np.all(p_from_z(np.concatenate([below, [cap - 1e-10]]), sides) > 0)


def unmix_last(words):
    """The states before the mix's last xorshift, z ^ (z >> 31), that give
    ``words``: the xorshift undone."""
    return words ^ (words >> np.uint64(31)) ^ (words >> np.uint64(62))


HEAD_DESIGNS = [Design.independent(), Design.equicorrelated(0.3), Design.shared_control()]


class TestInsideBands:
    """Statistics planted inside and around every band: the decisions must
    still equal the p-value route's, so the in-band fallback is exact. They
    are planted where the tile's statistics are made, in the tile's own
    memory: ``_screened_z`` writes ``scratch.stats``, ``_premixed_block``
    and, for a tile judged on heads, ``word_block`` their ``out``. Both
    fallbacks draw their replications again with ``_z_block``, which hands
    back the planted rows of the seeds it gets."""

    @staticmethod
    def near(edges, rng, shape, reach=300):
        """Values whose order keys lie within ``reach`` of a random edge."""
        pick = rng.integers(0, len(edges), size=shape)
        offsets = rng.integers(-reach, reach, size=shape)
        return edges[pick] + offsets

    @staticmethod
    def decide(s, plan, z, monkeypatch):
        """Decide one tile of len(z) replications, whose redraws give the rows
        of ``z``; the decisions and the redrawn rows, one array per call."""
        redrawn = []

        def z_block(scenario, seeds, shift):
            redrawn.append(seeds.astype(np.intp))
            return z[redrawn[-1]]

        monkeypatch.setattr(SIM, "_z_block", z_block)
        scratch = SIM._Scratch(plan, s, len(z), 1)
        counts = np.empty(len(z), dtype=np.uint8)
        rejected, joint = SIM._decide(plan, s, np.arange(len(z), dtype=np.uint64), scratch, counts)
        assert np.shares_memory(rejected, scratch.rejected) and np.shares_memory(joint, scratch.joint)
        p = p_from_z(z, s.sides)
        assert np.array_equal(rejected.T, p <= s.alpha_joint)
        assert np.array_equal(counts, (p <= s.alpha_joint).sum(axis=1))
        return rejected, joint, redrawn

    @classmethod
    def check(cls, s, plan, z, monkeypatch):
        """Decide one tile of len(z) replications; the joint fallback, which
        judges a whole replication on its p-values, must run. The redrawn
        rows, one array per call."""
        fallbacks = []

        def counted(p, alpha, method):
            fallbacks.append(len(p))
            return reject(p, alpha, method)

        monkeypatch.setattr(SIM, "reject", counted)
        _, joint, redrawn = cls.decide(s, plan, z, monkeypatch)
        assert np.array_equal(joint, p_space_joint(p_from_z(z, s.sides), s.alpha_joint, s.method))
        assert fallbacks and sum(fallbacks) < len(z)
        return redrawn

    @pytest.mark.parametrize("method", FWER_METHODS, ids=lambda m: m.value)
    @pytest.mark.parametrize("sides", list(Sides), ids=lambda s: s.value)
    def test_z_route(self, sides, method, monkeypatch):
        k, rng = 7, np.random.default_rng(5)
        s = scenario(k, design=Design.equicorrelated(0.3), sides=sides, method=method, alpha=0.3)
        plan = SIM._plan(s)
        edges = order_keys(np.concatenate([np.ravel(b) for b in (
            plan.test.lower, plan.test.upper, plan.joint.lower, plan.joint.upper)]))
        z = double_at(self.near(edges, rng, (3000, k)))
        if method is AdjustmentMethod.HOCHBERG:  # sorted column j near step j's band
            step = rng.integers(0, 2, size=(3000, k)) * k + np.arange(k)
            hochberg = order_keys(np.concatenate([np.ravel(plan.joint.lower), np.ravel(plan.joint.upper)]))
            planted = double_at(hochberg[step] + rng.integers(-300, 300, size=(3000, k)))
            z = np.concatenate([z, rng.permuted(planted, axis=1)])
        if sides is Sides.TWO_SIDED:
            z *= rng.choice([-1.0, 1.0], size=z.shape)
        inside = (np.abs(z) >= plan.test.lower) & (np.abs(z) < plan.test.upper)
        assert inside.any()

        def plant(plan, scenario, seeds, scratch):
            # the statistics of the tile, test-major, as the screen leaves them
            x = SIM._head(scratch.stats, len(seeds))[-k:]
            np.abs(z.T, out=x) if sides is Sides.TWO_SIDED else np.copyto(x, z.T)
            return x

        monkeypatch.setattr(SIM, "_screened_z", plant)
        self.check(s, plan, z, monkeypatch)

    @pytest.mark.parametrize("lowered", [False, True], ids=["exact", "maxima-an-ulp-low"])
    @pytest.mark.parametrize(
        "design, sides, method",
        [(design, sides, method) for design in HEAD_DESIGNS for sides in Sides for method in FWER_METHODS
         # the independent design's one-sided single-step runs take the word route
         if design.kind != "independent" or sides is Sides.TWO_SIDED or method is AdjustmentMethod.HOCHBERG],
        ids=lambda v: getattr(v, "kind", getattr(v, "value", v)),
    )
    def test_head_route(self, design, sides, method, lowered, monkeypatch):
        k, rows, rng = 16, 3000, np.random.default_rng(8)
        deltas = [0.0] * 8 + [0.3] * 8
        s = scenario(k, nulls=[d == 0.0 for d in deltas], deltas=deltas, design=design, sides=sides,
                     method=method, alpha=0.3, reps=rows)
        plan = SIM._plan(s)
        monkeypatch.setattr(SIM, "_SEGMENT_COST", 2)  # segments at k = 16
        plan = dataclasses.replace(plan, screen=SIM._screen_for(s, plan.shift, SIM._distinct(plan.shift)[0], plan.test))
        assert not plan.words and plan.screen.segments is not None
        seeds = np.arange(rows, dtype=np.uint64)
        words = word_block(seeds, SIM._draws(s))
        monkeypatch.setattr(SIM, "word_block", lambda seeds, draws, out, scratch: np.copyto(out, words) or out)

        # each test's four head edges in each replication, which its shared
        # draw moves: the screened interval [edges[0], edges[1]) and the one
        # [edges[2], edges[3]) outside which a test surely rejects
        column = np.broadcast_to(plan.screen.column, (k,))
        tile = SIM._screened_words(plan, s, seeds, SIM._Scratch(plan, s, rows, 1))
        lower, width = (h.astype(np.int64)[:, column] for h in tile.heads)
        edges = np.stack([lower[0], lower[0] + width[0], lower[1], lower[1] + width[1]])
        edges = np.broadcast_to(edges, (4, k, rows)).transpose(0, 2, 1)
        # words whose heads are at every edge, and a step to either side
        pick = rng.integers(0, 4, size=(rows, k))
        heads = np.take_along_axis(edges, pick[None], axis=0)[0] + rng.integers(-1, 2, size=pick.shape)
        heads = np.clip(heads, 0, 2**31 - 1).astype(np.uint64)
        planted = (heads << np.uint64(33)) | rng.integers(0, 2**33, size=heads.shape, dtype=np.uint64)
        words[:, -k:] = np.where(rng.random(planted.shape) < 0.3, words[:, -k:], planted)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SIM, "normal_block", lambda seeds, draws: normal_from_words(words[seeds.astype(np.intp)]))
            z = SIM._z_block(s, seeds, plan.shift)

        if lowered:
            # ndtri is monotone only to within an ulp, so a segment's largest
            # word may give a maximum an ulp below the largest z. That moves a
            # maximum into a band or into the sort, both exact, but never
            # across a band, which is 2**-40 relative wide: each decision holds
            def extreme_top(plan, scenario, tile, scratch, extreme_top=SIM._extreme_top):
                top = extreme_top(plan, scenario, tile, scratch)
                return np.nextafter(top, -np.inf, out=top)

            monkeypatch.setattr(SIM, "_extreme_top", extreme_top)
        _, joint, redrawn = self.decide(s, plan, z, monkeypatch)
        assert np.array_equal(joint, p_space_joint(p_from_z(z, sides), s.alpha_joint, method))

        # exactly the replications with a head that ties an edge or falls
        # between the intervals are redrawn for their tests' verdicts
        head = (words[:, -k:] >> np.uint64(33)).astype(np.int64)
        screened = (head >= edges[0]) & (head < edges[1])
        certain = screened | (head < edges[2]) | (head >= edges[3])
        assert screened.any() and (certain & ~screened).any() and (~certain).any()
        assert np.all(edges[0] >= edges[2]) and np.all(edges[1] <= edges[3])
        for index in range(4):
            assert (head == edges[index]).any()
        assert np.array_equal(redrawn[0], np.flatnonzero((~certain).any(axis=1)))

    @pytest.mark.parametrize("method", FWER_METHODS[:3], ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "deltas",
        [[0.3] * 6, [0.0, 0.0, 0.3, 0.3, -0.5, 2.0], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
         # n = 32, so shifts of +-12: at +12 no top surely fails, at -12 none surely passes
         [0.0, 0.3, 3.0, -3.0, 3.0, -3.0]],
        ids=["equal", "mixed", "distinct", "far"],
    )
    def test_word_route(self, deltas, method, monkeypatch):
        k, rng = len(deltas), np.random.default_rng(6)
        s = scenario(k, nulls=[d == 0.0 for d in deltas], deltas=deltas, method=method, alpha=0.3)
        plan = SIM._plan(s)
        assert plan.words
        # a scalar band when every shift is equal, else a column of them per test
        assert np.ndim(plan.joint.upper) == (0 if len(set(deltas)) == 1 else 2)
        # the plan's edges on the top 31 bits of a word, where 2**31 is never
        edges = np.stack([np.broadcast_to(b, (k, 1))[:, 0] for b in (
            plan.test.lower, plan.test.upper, plan.joint.lower, plan.joint.upper)]).astype(np.int64)
        if deltas[-1] == -3.0:
            assert edges.min() == 0 and edges.max() == 2**31

        # words whose 53-bit tops lie near the bands on word tops the edges round
        z_bands = SIM._z_bands(np.array([s.alpha_joint, SIM.steps(method, s.alpha_joint, k)[0]]), s.sides)
        bands = SIM._word_bands(plan.shift, z_bands.lower, z_bands.upper)
        fine = np.stack([bands.lower[:, 0], bands.upper[:, 0], bands.lower[:, 1], bands.upper[:, 1]])
        pick = rng.integers(0, 4, size=(3000, k))
        tops = fine[pick, np.arange(k)].astype(np.int64) + rng.integers(-300, 300, size=(3000, k))
        tops = np.clip(tops, 0, 2**53 - 1).astype(np.uint64)
        words = (tops << np.uint64(11)) | rng.integers(0, 2048, size=tops.shape, dtype=np.uint64)
        inside = (tops >= fine[0]) & (tops < fine[1])
        assert inside.any()
        # and states whose top 31 bits are at every edge, and a step to either side
        pick = rng.integers(0, 4, size=(1200, k))
        heads = edges[pick, np.arange(k)] + rng.integers(-1, 2, size=pick.shape)
        heads = np.clip(heads, 0, 2**31 - 1).astype(np.uint64)
        tied = (heads << np.uint64(33)) | rng.integers(0, 2**33, size=heads.shape, dtype=np.uint64)
        states = np.concatenate([unmix_last(words), tied])
        words = states ^ (states >> np.uint64(31))
        assert np.array_equal(unmix_last(words), states)
        z = plan.shift + ndtri(uniform_from_words(words.copy()))

        def plant(seeds, draws, out, scratch):
            # out is the (rows, k) transpose of the test-major tile
            np.copyto(out, states)
            return out

        monkeypatch.setattr(SIM, "_premixed_block", plant)
        redrawn = self.check(s, plan, z, monkeypatch)

        # exactly the replications with a statistic in a band are redrawn,
        # and a tie with an edge is in its band
        head = (states >> np.uint64(33)).astype(np.int64)
        in_test = ((head >= edges[0]) & (head < edges[1])).any(axis=1)
        # the joint band holds a replication that reaches some test's lower edge and no upper one
        in_joint = (head >= edges[2]).any(axis=1) & ~(head >= edges[3]).any(axis=1)
        ties = ((head == edges[0]) & (edges[0] < edges[1])).any(axis=1)
        assert ties[3000:].any() and not np.any(ties & ~in_test)
        assert np.array_equal(np.unique(np.concatenate(redrawn)), np.flatnonzero(in_test | in_joint))

    @pytest.mark.parametrize("route", ["words", "z", "heads"])
    def test_a_redrawn_p_value_at_alpha_rejects(self, route, monkeypatch):
        # alpha is exactly the p-value of one redrawn statistic z0, which
        # p_from_z(z0) <= alpha rejects and p_from_z(z0) < alpha would not
        k, rows, rng = 8, 8, np.random.default_rng(10)
        words = rng.integers(0, 2**64, size=(rows, k), dtype=np.uint64)
        # z0 = -1.96: on the z routes the tile judges |z0|, the redraw z0 itself
        words[3, 1] = np.uint64((int((0.975 if route == "words" else 0.025) * 2**53) << 11) | 0x3A5)
        z = ndtri(uniform_from_words(words.copy()))
        sides = Sides.ONE_SIDED if route == "words" else Sides.TWO_SIDED
        alpha = p_from_z(float(z[3, 1]), sides)
        s = scenario(k, alpha=alpha, sides=sides, method=AdjustmentMethod.BONFERRONI, reps=rows)
        plan = SIM._plan(s)
        assert plan.words is (route == "words")
        if plan.words:
            states = unmix_last(words)
            monkeypatch.setattr(SIM, "_premixed_block", lambda seeds, draws, out, scratch: np.copyto(out, states) or out)
        else:
            # the independent design's z is its draw: judged whole, or on heads
            monkeypatch.setattr(SIM, "_SEGMENT_COST", 2 if route == "heads" else k + 1)
            plan = dataclasses.replace(plan, screen=SIM._screen_for(s, plan.shift, SIM._distinct(plan.shift)[0],
                                                                    plan.test))
            assert (plan.screen.segments is None) is (route == "z")
            monkeypatch.setattr(SIM, "word_block", lambda seeds, draws, out, scratch: np.copyto(out, words) or out)
        rejected, _, redrawn = self.decide(s, plan, z, monkeypatch)
        assert rejected[1, 3] and 3 in redrawn[0]


@st.composite
def bracket_tiles(draw):
    """A Hochberg scenario of k <= 64 tests, judged in one tile of at least
    three replications, on either sides and any alpha."""
    k = draw(st.integers(1, 64))
    return scenario(
        k,
        alpha=draw(st.sampled_from([0.05, 0.3, 0.7]) | st.floats(1e-4, 0.99)),
        design=Design.equicorrelated(0.3),
        sides=draw(st.sampled_from(list(Sides))),
        method=AdjustmentMethod.HOCHBERG,
        reps=draw(st.integers(3, 24)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestHochbergBracket:
    """Hochberg's bracket: a replication whose maximum reaches the band of
    step alpha / k rejects, one with K rejections at alpha whose maximum is
    below the lower edge of step alpha / (k - K + 1) retains (step alpha / k
    when K = 0), and only the rest go through the sort."""

    @staticmethod
    def plant(s, plan, rng):
        """(tile, z): a test-major tile as the screen leaves it, -inf for a
        screened-out draw, and the z that _z_block would give. Replication 0
        has no rejection at alpha and replication 1 rejects every test; each
        maximum lies within a few order keys of a retain cut, of the band of
        step alpha / k or of an edge of the test band."""
        k, rows = s.k, s.reps
        test_lower, test_upper = (order_keys(plan.test.lower), order_keys(plan.test.upper))
        bonferroni = order_keys(plan.joint.upper[-1, 0])
        keys = np.empty((k, rows), dtype=np.int64)
        for rep in range(rows):
            count = 0 if rep == 0 else k if rep == 1 else int(rng.integers(0, k + 1))
            anchors = [order_keys(plan.joint.lower[min(k - count, k - 1), 0]), bonferroni, test_lower, test_upper]
            top = anchors[rng.integers(0, 4)] + int(rng.integers(-3, 4))
            if count == 0:
                top = min(top, test_lower - 1)
            if count == k:
                top = max(top, test_upper)
            # the other rejections lie between the test band and the maximum,
            # and the draws that are not rejected below the test band or near it
            column = np.concatenate([
                rng.integers(min(test_lower - 3, top), top + 1, size=max(count - 1, 0)),
                test_lower - rng.integers(1, 2000, size=k - max(count, 1)),
            ])
            if count == k:
                column = rng.integers(test_upper, top + 1, size=k - 1)
            keys[:, rep] = rng.permutation(np.append(column, top))
        if s.sides is Sides.TWO_SIDED:
            keys = np.maximum(keys, 0)
        tile = double_at(keys)
        # a screened-out draw is below the test band in z
        screened = (rng.random(tile.shape) < 0.5) & (tile < plan.test.lower)
        if s.sides is Sides.TWO_SIDED:
            inside = rng.random(tile.shape) * plan.test.lower * 0.5
            z = np.where(screened, inside, tile) * rng.choice([-1.0, 1.0], size=tile.shape)
        else:
            z = np.where(screened, plan.test.lower - 1.0 - rng.random(tile.shape), tile)
        tile[screened] = -np.inf
        return tile, z.T

    @settings(max_examples=150)
    @given(bracket_tiles())
    @example(scenario(1, design=Design.equicorrelated(0.3), sides=Sides.TWO_SIDED,
                      method=AdjustmentMethod.HOCHBERG, reps=3, seed=7))
    def test_settled_verdicts_equal_the_sort_and_the_rest_are_sorted(self, s):
        k, rows = s.k, s.reps
        plan = SIM._plan(s)
        # screened and judged whole, so the joint fallback draws its
        # replications again
        screen = SIM._screen_for(s, plan.shift, SIM._distinct(plan.shift)[0], plan.test)
        plan = dataclasses.replace(plan, screen=dataclasses.replace(screen, segments=None))
        tile, z = self.plant(s, plan, np.random.default_rng(s.seed))
        sorted_columns = []

        def step_up(plan, columns, passes, sort=SIM._step_up):
            verdict = sort(plan, columns, passes)
            sorted_columns.append(columns.copy())
            return verdict

        def screened_z(plan, scenario, seeds, scratch):
            x = SIM._head(scratch.stats, len(seeds))[-k:]
            np.copyto(x, tile)
            return x

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SIM, "_step_up", step_up)
            mp.setattr(SIM, "_screened_z", screened_z)
            mp.setattr(SIM, "_z_block", lambda scenario, seeds, shift: z[seeds.astype(np.intp)])
            counts = np.empty(rows, dtype=np.uint8)
            rejected, joint = SIM._decide(plan, s, np.arange(rows, dtype=np.uint64), SIM._Scratch(plan, s, rows, rows),
                                          counts)

        p = p_from_z(z, s.sides)
        assert np.array_equal(rejected.T, p <= s.alpha_joint)
        assert np.array_equal(joint, p_space_joint(p, s.alpha_joint, s.method))
        # the bracket, from the p-values' counts and the joint bands
        counts = (p <= s.alpha_joint).sum(axis=1)
        assert counts[0] == 0 and counts[1] == k
        top = tile.max(axis=0)
        retains = top < plan.joint.lower[np.minimum(k - counts, k - 1), 0]
        rejects = top >= plan.joint.upper[-1, 0]
        unsettled = ~retains & ~rejects
        if unsettled.any():
            assert len(sorted_columns) == 1
            assert np.array_equal(sorted_columns[0], np.sort(tile[:, unsettled], axis=0))
        else:
            assert not sorted_columns

    @settings(max_examples=100, derandomize=True)
    @given(bracket_tiles())
    def test_head_tiles_sort_the_whole_tiles_columns(self, s):
        # the same bracket on a tile judged on its heads, from planted words:
        # its maxima come from each segment's extremes and its sorted columns
        # from their own kept draws, and both equal those of the tile judged whole
        k, rows = s.k, s.reps
        plan = SIM._plan(s)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SIM, "_SEGMENT_COST", 2)  # segments at small k too
            screen = SIM._screen_for(s, plan.shift, SIM._distinct(plan.shift)[0], plan.test)
        assume(screen.segments is not None)
        plan, rng = dataclasses.replace(plan, screen=screen), np.random.default_rng(s.seed)
        seeds = np.arange(rows, dtype=np.uint64)
        words = word_block(seeds, SIM._draws(s))
        # each replication's test words put a statistic within a few ulps of a
        # retain cut, of the band of step alpha / k or of an edge of the test
        # band, and others near the test band
        common = SIM._common(s.design, normal_from_words(words[:, :1].copy()))
        anchors = np.concatenate([plan.joint.lower[:, 0], plan.joint.upper[-1:, 0], [plan.test.lower, plan.test.upper]])
        target = anchors[rng.integers(0, len(anchors), size=(rows, k))]
        target = np.where(rng.random(target.shape) < 0.5, target, plan.test.lower * rng.uniform(0.5, 1.0, target.shape))
        if s.sides is Sides.TWO_SIDED:
            target *= rng.choice([-1.0, 1.0], size=target.shape)
        own = (target - plan.shift - common) / math.sqrt(1.0 - s.design.rho)
        tops = np.clip(ndtr(own) * 2.0**53, 0, 2**53 - 1).astype(np.uint64)
        planted = (tops << np.uint64(11)) | rng.integers(0, 2048, size=tops.shape, dtype=np.uint64)
        words[:, 1:] = np.where(rng.random(planted.shape) < 0.3, words[:, 1:], planted)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SIM, "word_block", lambda seeds, draws, out, scratch: np.copyto(out, words) or out)
            whole = SIM._screened_z(dataclasses.replace(plan, screen=dataclasses.replace(screen, segments=None)),
                                    s, seeds, SIM._Scratch(plan, s, rows, rows)).copy()
            mp.setattr(SIM, "normal_block", lambda seeds, draws: normal_from_words(words[seeds.astype(np.intp)]))
            z = SIM._z_block(s, seeds, plan.shift)
        sorted_columns = []

        def step_up(plan, columns, passes, sort=SIM._step_up):
            verdict = sort(plan, columns, passes)
            sorted_columns.append(columns.copy())
            return verdict

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SIM, "_step_up", step_up)
            mp.setattr(SIM, "word_block", lambda seeds, draws, out, scratch: np.copyto(out, words) or out)
            mp.setattr(SIM, "_z_block", lambda scenario, seeds, shift: z[seeds.astype(np.intp)])
            counts = np.empty(rows, dtype=np.uint8)
            rejected, joint = SIM._decide(plan, s, seeds, SIM._Scratch(plan, s, rows, rows), counts)

        p = p_from_z(z, s.sides)
        assert np.array_equal(rejected.T, p <= s.alpha_joint)
        assert np.array_equal(joint, p_space_joint(p, s.alpha_joint, s.method))
        counts = (p <= s.alpha_joint).sum(axis=1)
        top = whole.max(axis=0)
        retains = top < plan.joint.lower[np.minimum(k - counts, k - 1), 0]
        rejects = top >= plan.joint.upper[-1, 0]
        unsettled = ~retains & ~rejects
        if unsettled.any():
            assert len(sorted_columns) == 1
            assert np.array_equal(sorted_columns[0], np.sort(whole[:, unsettled], axis=0))
        else:
            assert not sorted_columns

    def test_sorts_few_replications_on_the_benchmark_shape(self, monkeypatch):
        # a count, not a time: the benchmark's wide equicorrelated Hochberg
        # shape leaves about 3% of its replications to the sort
        wide = [0.0] * 100 + [0.4] * 100
        s = scenario(200, nulls=[d == 0.0 for d in wide], deltas=wide, design=Design.equicorrelated(0.5),
                     sides=Sides.TWO_SIDED, method=AdjustmentMethod.HOCHBERG, reps=2 * CHUNK_REPS, seed=3)
        sorted_reps, sort = [], SIM._step_up
        monkeypatch.setattr(SIM, "_step_up", lambda plan, columns, passes: sorted_reps.append(columns.shape[1])
                            or sort(plan, columns, passes))
        simulate(s, threads=2)
        assert 0 < sum(sorted_reps) <= 0.05 * s.reps
