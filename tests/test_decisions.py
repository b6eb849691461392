"""Decision rules: worked examples, boundary behaviour, and set-dominance laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphagate.decisions import (
    NOTE_FDR_NOT_FWER,
    NOTE_JOINT_INFERENCE_ONLY,
    Verdict,
    apply_bh,
    decide_conjunction,
    decide_disjunction,
    decide_individual,
    reject,
    steps,
)
from alphagate.errors import DomainError, InvalidBattery, InvalidMethod
from alphagate.families import AdjustmentMethod, TestBattery
from alphagate.rates import bonferroni_adjust, sidak_adjust


def battery(*pairs):
    return TestBattery(tuple(pairs))


def numbered(pvalues):
    return TestBattery(tuple((f"t{i}", p) for i, p in enumerate(pvalues, start=1)))


def rejected_ids(decision):
    return {hid for hid, v in decision.per_hypothesis.items() if v is Verdict.REJECT}


class TestDecideIndividual:
    def test_significant_green(self):
        decision = decide_individual(battery(("green", 0.030)), 0.05)
        assert decision.per_hypothesis["green"] is Verdict.REJECT
        assert decision.joint is Verdict.NOT_APPLICABLE

    def test_twenty_colours_one_significant(self):
        pvalues = [0.030] + [0.06 + i / 100 for i in range(19)]
        decision = decide_individual(numbered(pvalues), 0.05)
        assert rejected_ids(decision) == {"t1"}
        assert set(decision.thresholds_used.values()) == {0.05}

    def test_rejection_at_equality(self):
        decision = decide_individual(battery(("edge", 0.05)), 0.05)
        assert decision.per_hypothesis["edge"] is Verdict.REJECT

    def test_threshold_invariant_to_battery_size(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            size = int(rng.integers(1, 30))
            pvalues = rng.uniform(0, 1, size=size).tolist()
            alpha = float(rng.uniform(0.01, 0.2))
            base = decide_individual(numbered(pvalues), alpha)
            extended = decide_individual(
                numbered(pvalues + rng.uniform(0, 1, size=5).tolist()), alpha
            )
            for hid in base.per_hypothesis:
                assert extended.per_hypothesis[hid] is base.per_hypothesis[hid]
                assert extended.thresholds_used[hid] == base.thresholds_used[hid]

    def test_empty_battery(self):
        with pytest.raises(InvalidBattery):
            decide_individual(TestBattery(()), 0.05)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            decide_individual(battery(("a", 0.5)), 0.0)


class TestDecideDisjunction:
    def test_sidak_two_jar_example(self):
        decision = decide_disjunction(
            battery(("green", 0.030), ("red", 0.070)), 0.05, AdjustmentMethod.SIDAK
        )
        assert decision.joint is Verdict.RETAIN
        assert rejected_ids(decision) == set()
        assert decision.thresholds_used["green"] == pytest.approx(0.02532056551910361, rel=1e-12)

    def test_holm_rejects_more_than_bonferroni(self):
        b = battery(("a", 0.01), ("b", 0.04))
        holm = decide_disjunction(b, 0.05, AdjustmentMethod.HOLM)
        bonf = decide_disjunction(b, 0.05, AdjustmentMethod.BONFERRONI)
        assert rejected_ids(holm) == {"a", "b"}
        assert holm.thresholds_used == {"a": 0.025, "b": 0.05}
        assert rejected_ids(bonf) == {"a"}
        assert holm.joint is Verdict.REJECT and bonf.joint is Verdict.REJECT

    def test_holm_stops_at_first_failure(self):
        # p=.04 passes its own step (.05) but the scan already stopped at .03
        decision = decide_disjunction(
            battery(("a", 0.015), ("b", 0.03), ("c", 0.04)), 0.05, AdjustmentMethod.HOLM
        )
        assert rejected_ids(decision) == {"a"}

    def test_hochberg_steps_up(self):
        # largest passing position: p_(2) = .04 <= .05/1; step-up rejects both,
        # where step-down Holm would have rejected neither
        b = battery(("a", 0.03), ("b", 0.04))
        assert rejected_ids(decide_disjunction(b, 0.05, AdjustmentMethod.HOCHBERG)) == {"a", "b"}
        assert rejected_ids(decide_disjunction(b, 0.05, AdjustmentMethod.HOLM)) == set()

    def test_single_nonsignificant_test(self):
        for method in (
            AdjustmentMethod.BONFERRONI,
            AdjustmentMethod.SIDAK,
            AdjustmentMethod.HOLM,
            AdjustmentMethod.HOCHBERG,
        ):
            decision = decide_disjunction(battery(("only", 0.5)), 0.05, method)
            assert decision.joint is Verdict.RETAIN

    def test_joint_iff_any_constituent(self):
        rng = np.random.default_rng(5)
        methods = list(
            (AdjustmentMethod.BONFERRONI, AdjustmentMethod.SIDAK, AdjustmentMethod.HOLM, AdjustmentMethod.HOCHBERG)
        )
        for _ in range(300):
            pvalues = rng.uniform(0, 0.2, size=int(rng.integers(1, 12))).tolist()
            method = methods[int(rng.integers(0, 4))]
            decision = decide_disjunction(numbered(pvalues), 0.05, method)
            assert (decision.joint is Verdict.REJECT) == bool(rejected_ids(decision))

    def test_monotone_in_p(self):
        """Lowering any p never flips the joint verdict from reject to retain."""
        rng = np.random.default_rng(17)
        for _ in range(300):
            pvalues = rng.uniform(0, 1, size=int(rng.integers(2, 10)))
            method = (AdjustmentMethod.SIDAK, AdjustmentMethod.HOLM, AdjustmentMethod.HOCHBERG)[
                int(rng.integers(0, 3))
            ]
            before = decide_disjunction(numbered(pvalues.tolist()), 0.05, method)
            lowered = pvalues.copy()
            i = int(rng.integers(0, len(pvalues)))
            lowered[i] *= float(rng.uniform(0, 1))
            after = decide_disjunction(numbered(lowered.tolist()), 0.05, method)
            if before.joint is Verdict.REJECT:
                assert after.joint is Verdict.REJECT

    def test_notes_report_trigger_and_scope(self):
        decision = decide_disjunction(
            battery(("green", 0.001), ("red", 0.9)), 0.05, AdjustmentMethod.BONFERRONI
        )
        assert NOTE_JOINT_INFERENCE_ONLY in decision.notes
        assert "triggered-by=green" in decision.notes

    def test_bh_is_not_a_disjunction_method(self):
        with pytest.raises(InvalidMethod):
            decide_disjunction(battery(("a", 0.01)), 0.05, AdjustmentMethod.BENJAMINI_HOCHBERG)
        with pytest.raises(InvalidMethod):
            decide_disjunction(battery(("a", 0.01)), 0.05, AdjustmentMethod.NONE)


class TestDecideConjunction:
    def test_two_jar_example(self):
        decision = decide_conjunction(battery(("green", 0.030), ("red", 0.070)), 0.05)
        assert decision.joint is Verdict.RETAIN
        assert decision.per_hypothesis["green"] is Verdict.REJECT

    def test_both_below_threshold(self):
        decision = decide_conjunction(battery(("a", 0.01), ("b", 0.02)), 0.05)
        assert decision.joint is Verdict.REJECT

    def test_boundary_equality(self):
        decision = decide_conjunction(battery(("a", 0.05), ("b", 0.05)), 0.05)
        assert decision.joint is Verdict.REJECT

    def test_unadjusted_threshold(self):
        decision = decide_conjunction(numbered([0.01] * 10), 0.05)
        assert set(decision.thresholds_used.values()) == {0.05}

    def test_antitone_in_p(self):
        """Raising any p never flips the joint verdict from retain to reject."""
        rng = np.random.default_rng(23)
        for _ in range(300):
            pvalues = rng.uniform(0, 0.2, size=int(rng.integers(2, 10)))
            before = decide_conjunction(numbered(pvalues.tolist()), 0.05)
            raised = pvalues.copy()
            i = int(rng.integers(0, len(pvalues)))
            raised[i] = float(min(1.0, raised[i] + rng.uniform(0, 1)))
            after = decide_conjunction(numbered(raised.tolist()), 0.05)
            if before.joint is Verdict.RETAIN:
                assert after.joint is Verdict.RETAIN


class TestApplyBh:
    def test_step_up_example(self):
        decision = apply_bh(numbered([0.01, 0.02, 0.04, 0.2]), 0.05)
        assert rejected_ids(decision) == {"t1", "t2"}
        assert decision.thresholds_used == pytest.approx(
            {"t1": 0.0125, "t2": 0.025, "t3": 0.0375, "t4": 0.05}, rel=1e-12
        )
        assert decision.joint is Verdict.NOT_APPLICABLE
        assert NOTE_FDR_NOT_FWER in decision.notes

    def test_all_ones_reject_none(self):
        decision = apply_bh(numbered([1.0, 1.0, 1.0]), 0.05)
        assert rejected_ids(decision) == set()

    def test_single_test_reduces_to_p_leq_q(self):
        assert rejected_ids(apply_bh(battery(("only", 0.04)), 0.05)) == {"only"}
        assert rejected_ids(apply_bh(battery(("only", 0.06)), 0.05)) == set()


class TestProcedureDominance:
    def test_rejection_set_chain(self):
        """Bonferroni <= Holm <= Hochberg <= BH(q=alpha) over random batteries."""
        rng = np.random.default_rng(2021)
        for _ in range(1000):
            k = int(rng.integers(1, 51))
            # mix uniform p with a cluster near the thresholds to stress ties
            pvalues = np.concatenate(
                [rng.uniform(0, 1, size=k // 2), rng.uniform(0, 0.15, size=k - k // 2)]
            )
            rng.shuffle(pvalues)
            b = numbered(pvalues.tolist())
            alpha = float(rng.choice([0.01, 0.05, 0.1]))
            bonf = rejected_ids(decide_disjunction(b, alpha, AdjustmentMethod.BONFERRONI))
            holm = rejected_ids(decide_disjunction(b, alpha, AdjustmentMethod.HOLM))
            hoch = rejected_ids(decide_disjunction(b, alpha, AdjustmentMethod.HOCHBERG))
            bh = rejected_ids(apply_bh(b, alpha))
            assert bonf <= holm <= hoch <= bh

    def test_tied_pvalues_permutation_invariant(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            k = int(rng.integers(2, 12))
            pool = rng.choice([0.005, 0.01, 0.025, 0.05, 0.2], size=k)
            ids = [f"t{i}" for i in range(k)]
            perm = rng.permutation(k)
            original = TestBattery(tuple(zip(ids, pool.tolist())))
            shuffled = TestBattery(
                tuple((ids[i], float(pool[i])) for i in perm)
            )
            for method in (AdjustmentMethod.HOLM, AdjustmentMethod.HOCHBERG):
                assert rejected_ids(
                    decide_disjunction(original, 0.05, method)
                ) == rejected_ids(decide_disjunction(shuffled, 0.05, method))
            assert rejected_ids(apply_bh(original, 0.05)) == rejected_ids(
                apply_bh(shuffled, 0.05)
            )

    def test_deterministic(self):
        b = numbered([0.01, 0.02, 0.04, 0.2])
        assert apply_bh(b, 0.05) == apply_bh(b, 0.05)
        assert decide_disjunction(b, 0.05, AdjustmentMethod.HOLM) == decide_disjunction(
            b, 0.05, AdjustmentMethod.HOLM
        )


# -- the kernel against the plain-Python loops it replaced -----------------------

M = AdjustmentMethod


def reference(pvalues, alpha, method):
    """(rejected, thresholds) in battery order, by explicit loops over the
    stably sorted p-values."""
    k = len(pvalues)
    if method in (M.NONE, M.BONFERRONI, M.SIDAK):
        level = {M.NONE: alpha, M.BONFERRONI: bonferroni_adjust(alpha, k), M.SIDAK: sidak_adjust(alpha, k)}
        return [p <= level[method] for p in pvalues], [level[method]] * k
    order = sorted(range(k), key=lambda i: pvalues[i])
    if method is M.BENJAMINI_HOCHBERG:  # the last step is q itself
        sorted_steps = [(rank + 1) * alpha / k for rank in range(k - 1)] + [alpha]
    else:
        sorted_steps = [alpha / (k - rank) for rank in range(k)]
    n_reject = 0
    if method is M.HOLM:
        for rank, idx in enumerate(order):
            if pvalues[idx] > sorted_steps[rank]:
                break
            n_reject = rank + 1
    else:  # Hochberg, BH
        for rank in range(k - 1, -1, -1):
            if pvalues[order[rank]] <= sorted_steps[rank]:
                n_reject = rank + 1
                break
    rejected, thresholds = [False] * k, [0.0] * k
    for rank, idx in enumerate(order):
        rejected[idx] = rank < n_reject
        thresholds[idx] = sorted_steps[rank]
    return rejected, thresholds


@st.composite
def batteries(draw, rows=1):
    """(p of shape (rows, k), alpha). Each p-value is a uniform draw, a draw
    near the thresholds, a value exactly on some method's threshold (or 0 or
    1), or one of a few tie values; hypothesis picks k, alpha and the seed
    of the draws."""
    k = draw(st.integers(1, 24))
    alpha = draw(st.sampled_from([0.01, 0.05, 0.1, 0.5]) | st.floats(1e-6, 0.999))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    on_steps = np.concatenate([steps(method, alpha, k) for method in M] + [[0.0, 1.0]])
    ties = rng.choice(np.concatenate([on_steps, rng.uniform(size=2)]), size=3)
    shape = (rows, k)
    cells = [
        rng.uniform(size=shape),
        rng.uniform(0.0, min(1.0, 2.0 * alpha), size=shape),
        rng.choice(on_steps, size=shape),
        rng.choice(ties, size=shape),
    ]
    return np.choose(rng.integers(0, len(cells), size=shape), cells), alpha


EXAMPLES = settings(max_examples=300)


class TestKernel:
    @EXAMPLES
    @given(batteries(rows=3))
    def test_reject_equals_reference(self, battery):
        p, alpha = battery
        for method in M:
            rejected, thresholds = reject(p, alpha, method)
            for row, got, used in zip(p.tolist(), rejected.tolist(), thresholds.tolist()):
                assert (got, used) == reference(row, alpha, method)

    @EXAMPLES
    @given(batteries())
    def test_rejection_set_chain(self, battery):
        p, alpha = battery
        bonf, holm, hoch, bh = (reject(p, alpha, method)[0] for method in (M.BONFERRONI, M.HOLM, M.HOCHBERG, M.BENJAMINI_HOCHBERG))
        assert not (bonf & ~holm).any() and not (holm & ~hoch).any() and not (hoch & ~bh).any()

    @EXAMPLES
    @given(batteries(rows=4))
    def test_each_row_of_a_batch_equals_a_one_row_call(self, battery):
        p, alpha = battery
        for method in M:
            rejected, thresholds = reject(p, alpha, method)
            for i in range(len(p)):
                one_rejected, one_thresholds = reject(p[i : i + 1], alpha, method)
                assert np.array_equal(rejected[i], one_rejected[0])
                assert np.array_equal(thresholds[i], one_thresholds[0])

    @EXAMPLES
    @given(batteries(rows=2))
    def test_individual_decisions_ignore_appended_tests(self, battery):
        p, alpha = battery
        base = decide_individual(numbered(p[0].tolist()), alpha)
        extended = decide_individual(numbered(p[0].tolist() + p[1].tolist()), alpha)
        for hid, verdict in base.per_hypothesis.items():
            assert extended.per_hypothesis[hid] is verdict
            assert extended.thresholds_used[hid] == base.thresholds_used[hid]

    @EXAMPLES
    @given(batteries())
    def test_decide_rules_equal_reference(self, battery):
        """Every mode/method of ``decide``: verdicts, thresholds, joint and notes."""
        p, alpha = battery
        b = numbered(p[0].tolist())
        rules = [
            (decide_individual(b, alpha), M.NONE),
            (decide_conjunction(b, alpha), M.NONE),
            (apply_bh(b, alpha), M.BENJAMINI_HOCHBERG),
        ] + [(decide_disjunction(b, alpha, method), method) for method in (M.BONFERRONI, M.SIDAK, M.HOLM, M.HOCHBERG)]
        for decision, method in rules:
            rejected, thresholds = reference(list(b.pvalues), alpha, method)
            hits = [hid for hid, r in zip(b.ids, rejected) if r]
            assert list(decision.per_hypothesis) == list(b.ids)
            assert rejected_ids(decision) == set(hits)
            assert list(decision.thresholds_used.values()) == thresholds
            assert all(type(t) is float for t in decision.thresholds_used.values())
            if decision.mode.value == "disjunction":
                assert (decision.joint is Verdict.REJECT) == bool(hits)
                assert decision.notes == (NOTE_JOINT_INFERENCE_ONLY,) + (
                    (f"triggered-by={','.join(hits)}",) if hits else ()
                )
            elif decision.mode.value == "conjunction":
                assert (decision.joint is Verdict.REJECT) == all(rejected)

    def test_steps_sequences(self):
        assert steps(M.NONE, 0.05, 3).tolist() == [0.05] * 3
        assert steps(M.BONFERRONI, 0.05, 4).tolist() == [0.05 / 4] * 4
        assert steps(M.SIDAK, 0.05, 2).tolist() == [sidak_adjust(0.05, 2)] * 2
        assert steps(M.HOLM, 0.05, 3).tolist() == [0.05 / 3, 0.05 / 2, 0.05 / 1]
        assert steps(M.HOCHBERG, 0.05, 3).tolist() == steps(M.HOLM, 0.05, 3).tolist()
        assert steps(M.BENJAMINI_HOCHBERG, 0.05, 4).tolist() == [1 * 0.05 / 4, 2 * 0.05 / 4, 3 * 0.05 / 4, 4 * 0.05 / 4]
        # 3 * q / 3 rounds one double below this q; BH's last step is q itself
        q = 0.365580679783838
        assert 3 * q / 3 < q
        assert steps(M.BENJAMINI_HOCHBERG, q, 3).tolist() == [1 * q / 3, 2 * q / 3, q]
        with pytest.raises(InvalidMethod):
            steps("holm", 0.05, 3)
