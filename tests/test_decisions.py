"""Decision rules: worked examples, boundary behaviour, and set-dominance laws."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphagate.decisions import (
    NOTE_FDR_NOT_FWER,
    Decision,
    NOTE_JOINT_INFERENCE_ONLY,
    Verdict,
    apply_bh,
    decide_conjunction,
    decide_disjunction,
    decide_individual,
    reject,
    steps,
)
from alphagate import battery as battery_module
from alphagate.errors import DomainError, InvalidBattery, InvalidMethod
from alphagate.families import AdjustmentMethod, TestBattery
from alphagate.rates import bonferroni_adjust, sidak_adjust


def battery(*pairs):
    return TestBattery(tuple(pairs))


def numbered(pvalues):
    return TestBattery(tuple((f"t{i}", p) for i, p in enumerate(pvalues, start=1)))


def rejected_ids(decision):
    return {hid for hid, v in decision.per_hypothesis.items() if v is Verdict.REJECT}


class TestDecision:
    def test_a_decision_is_a_read_only_unhashable_value(self):
        decision = decide_disjunction(battery(("a", 0.01), ("b", 0.2)), 0.05, AdjustmentMethod.HOLM)
        same = Decision(mode=decision.mode, ids=("a", "b"), rejected=np.array([True, False]),
                        thresholds=np.array([0.025, 0.05]), joint=Verdict.REJECT, notes=decision.notes)
        assert decision == same == copy.copy(decision) == pickle.loads(pickle.dumps(decision))
        assert Decision(decision.mode, decision.ids, decision.rejected, decision.thresholds, decision.joint).notes == ()
        assert decision != apply_bh(battery(("a", 0.01), ("b", 0.2)), 0.05)
        assert repr(decision).startswith("Decision(mode=<TestingMode.DISJUNCTION: 'disjunction'>, ids=('a', 'b'), ")
        with pytest.raises(TypeError, match="unhashable"):
            hash(decision)
        assert decision.per_hypothesis is decision.per_hypothesis  # built once
        for name in ("joint", "per_hypothesis", "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(decision, name, None)
        with pytest.raises(AttributeError, match="cannot delete field 'joint'"):
            del decision.joint


@pytest.mark.parametrize("judge", [
    lambda entries: decide_individual(entries, 0.05),
    lambda entries: decide_disjunction(entries, 0.05, AdjustmentMethod.HOLM),
    lambda entries: decide_conjunction(entries, 0.05),
    lambda entries: apply_bh(entries, 0.05),
], ids=["individual", "disjunction", "conjunction", "bh"])
def test_procedures_refuse_a_non_battery(judge):
    with pytest.raises(InvalidBattery, match="^expected a TestBattery, got tuple$"):
        judge((("a", 0.01), ("b", 0.2)))


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


def rules(b, alpha):
    """(decision, the method its thresholds follow) of every mode/method of ``decide``."""
    return [
        (decide_individual(b, alpha), M.NONE),
        (decide_conjunction(b, alpha), M.NONE),
        (apply_bh(b, alpha), M.BENJAMINI_HOCHBERG),
    ] + [(decide_disjunction(b, alpha, method), method) for method in (M.BONFERRONI, M.SIDAK, M.HOLM, M.HOCHBERG)]


def assert_rules_equal_reference(b, alpha):
    for decision, method in rules(b, alpha):
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
        """Every mode/method of ``decide``: verdicts, thresholds, joint and
        notes. k <= 24 here, so this reaches only the plain-Python route;
        :class:`TestRoutes` takes both."""
        p, alpha = battery
        assert_rules_equal_reference(numbered(p[0].tolist()), alpha)

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


# -- the plain-Python and the numpy route ---------------------------------------

N = battery_module.SMALL_ROWS
#: battery sizes on both sides of the route limit, and a few small ones
SIZES = [1, 2, 3, 7, N - 1, N, N + 1]
#: the q whose last BH step k * q / k rounds below q at k = 3
LAST_STEP_Q = 0.365580679783838
ALPHAS = [0.05, LAST_STEP_Q, 1e-300]
#: route -> the SMALL_ROWS that takes every battery here to it
ROUTES = {"list": 10**9, "array": 0}


def edge_pvalues(k, alpha, seed):
    """k p-values: uniform draws, draws near the thresholds, values exactly on
    some method's step, 0, 1, -0.0 and subnormals, and ties among them."""
    rng = np.random.default_rng(seed)
    on_steps = np.concatenate([steps(method, alpha, k) for method in M] + [[0.0, -0.0, 1.0, 5e-324, 2.2e-308]])
    cells = [
        rng.uniform(size=k),
        rng.uniform(0.0, min(1.0, 2.0 * alpha), size=k),
        rng.choice(on_steps, size=k),
        rng.choice(rng.choice(on_steps, size=3), size=k),
    ]
    return np.choose(rng.integers(0, len(cells), size=k), cells).tolist()


def route_batteries():
    """(size, alpha, p-values) of every case, the last-step BH case among them."""
    cases = [(k, alpha, edge_pvalues(k, alpha, seed)) for seed, (k, alpha) in
             enumerate((k, alpha) for k in SIZES for alpha in ALPHAS)]
    cases += [(3, LAST_STEP_Q, [0.0, 0.0, LAST_STEP_Q]), (N + 1, LAST_STEP_Q, [0.0] * N + [LAST_STEP_Q])]
    return [pytest.param(*case, id=f"k{case[0]}-alpha{case[1]:g}-{i}") for i, case in enumerate(cases)]


class TestRoutes:
    @pytest.mark.parametrize("k, alpha, pvalues", route_batteries())
    def test_decide_rules_equal_reference(self, k, alpha, pvalues):
        b = numbered(pvalues)
        assert isinstance(b._column, list) == (k <= N)
        assert_rules_equal_reference(b, alpha)

    @pytest.mark.parametrize("k, alpha, pvalues", route_batteries())
    def test_routes_agree(self, monkeypatch, k, alpha, pvalues):
        judged = {}
        for route, limit in ROUTES.items():
            monkeypatch.setattr(battery_module, "SMALL_ROWS", limit)
            b = numbered(pvalues)
            assert isinstance(b._column, list) == (route == "list")
            judged[route] = b, [decision for decision, _ in rules(b, alpha)]
        (small, small_decisions), (large, large_decisions) = judged.values()
        assert small == large and hash(small) == hash(large) and small.entries == large.entries
        assert pickle.dumps(small) == pickle.dumps(large)
        for one, other in zip(small_decisions, large_decisions):
            assert one == other and pickle.dumps(one) == pickle.dumps(other)
            assert list(one.per_hypothesis.items()) == list(other.per_hypothesis.items())
            assert list(one.thresholds_used.items()) == list(other.thresholds_used.items())
            assert repr(one) == repr(other)
        for b, decisions in judged.values():
            assert b.p.dtype == np.float64 and not b.p.flags.writeable and b.p is b.p
            assert b.p.tolist() == list(b.pvalues) and all(math.copysign(1.0, x) == 1.0 for x in b.pvalues)
            for decision in decisions:
                assert decision.rejected.dtype == np.bool_ and decision.thresholds.dtype == np.float64
                assert not decision.rejected.flags.writeable and not decision.thresholds.flags.writeable
                assert decision.rejected is decision.rejected


# -- the tie-free sort -------------------------------------------------------------

#: battery sizes from just above the route limit to 5,000
SORT_SIZES = [N + 1, 1_000, 5_000]
STEP_METHODS = (M.HOLM, M.HOCHBERG, M.BENJAMINI_HOCHBERG)


def stable_reject(p, alpha, method):
    """:func:`reject` with every row sorted by numpy's stable sort."""
    t = steps(method, alpha, p.shape[1])
    if method in (M.NONE, M.BONFERRONI, M.SIDAK):
        return p <= t, np.broadcast_to(t, p.shape)
    order = np.argsort(p, axis=1, kind="stable")
    passes = np.take_along_axis(p, order, axis=1) <= t
    if method is M.HOLM:
        passes = np.logical_and.accumulate(passes, axis=1)
    else:
        passes = np.logical_or.accumulate(passes[:, ::-1], axis=1)[:, ::-1]
    rejected, thresholds = np.empty_like(passes), np.empty_like(p)
    np.put_along_axis(rejected, order, passes, axis=1)
    np.put_along_axis(thresholds, order, np.broadcast_to(t, p.shape), axis=1)
    return rejected, thresholds


def distinct_pvalues(k, seed):
    """k distinct p-values in random order: uniform draws, one in ten
    log-uniform on [1e-12, 1e-4] (so every step method rejects some), and a
    few distinct subnormals."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(size=k)
    signal = rng.random(k) < 0.1
    values[signal] = 10.0 ** rng.uniform(-12.0, -4.0, int(signal.sum()))
    values[:5] = 5e-324 * np.arange(1, 6)
    values = np.unique(values)
    assert len(values) == k
    return rng.permutation(values)


def sort_cases():
    """(name, alpha, p-values) at each size: distinct values, one tie
    planted at the first rank, at the last rank and across each step
    method's rejection boundary, all-equal values, runs of 0 and 1, tied
    subnormals, values rounded to 3 decimals, and signed zeros."""
    cases = []
    for seed, k in enumerate(SORT_SIZES):
        alpha = 0.05
        p = distinct_pvalues(k, seed)
        rng = np.random.default_rng([seed, 1])
        order = np.argsort(p, kind="stable")
        cases.append(("distinct", alpha, p))
        for name, rank in (("first", 0), ("last", k - 1)):
            tied = p.copy()
            tied[order[rng.integers(1, k - 1)]] = p[order[rank]]
            cases.append((f"tie-at-{name}-rank", alpha, tied))
        for method in STEP_METHODS:
            n = int(stable_reject(p[None, :], alpha, method)[0].sum())  # rejected ranks 0..n-1
            assert 0 < n < k
            # the first retained rank takes the last rejected one's value, or the reverse
            for to, source, label in ((n, n - 1, "retained"), (n - 1, n, "rejected")):
                tied = p.copy()
                tied[order[to]] = p[order[source]]
                cases.append((f"tie-at-{method.value}-boundary-{label}", alpha, tied))
        cases.append(("all-equal", alpha, np.full(k, 0.03)))
        runs = p.copy()
        runs[: k // 4], runs[k // 4 : k // 2] = 0.0, 1.0
        cases.append(("runs-of-0-and-1", alpha, rng.permutation(runs)))
        subnormal = p.copy()
        subnormal[rng.choice(k, size=k // 3, replace=False)] = rng.choice([5e-324, 1e-310, 2.2e-308], size=k // 3)
        cases.append(("tied-subnormals", alpha, subnormal))
        cases.append(("3-decimals", alpha, np.round(p, 3)))
        zeros = p.copy()
        zeros[rng.choice(k, size=k // 5, replace=False)] = rng.choice([0.0, -0.0], size=k // 5)
        cases.append(("signed-zeros", alpha, zeros))
    return [pytest.param(alpha, p, id=f"k{len(p)}-{name}") for name, alpha, p in cases]


class TestTieFreeSort:
    """:func:`reject` keeps numpy's default sort only for a batch without
    ties or NaN, and keys a tied one's places again; every battery here
    judges as a stable sort judges it."""

    @pytest.mark.parametrize("alpha, p", sort_cases())
    def test_reject_equals_the_stable_sort(self, alpha, p):
        for method in M:
            rejected, thresholds = reject(p[None, :], alpha, method)
            want_rejected, want_thresholds = stable_reject(p[None, :], alpha, method)
            assert np.array_equal(rejected, want_rejected) and np.array_equal(thresholds, want_thresholds), method

    @pytest.mark.parametrize("alpha, p", sort_cases())
    def test_decide_rules_equal_reference(self, alpha, p):
        b = numbered(p.tolist())
        assert not isinstance(b._column, list)
        assert_rules_equal_reference(b, alpha)

    @pytest.mark.parametrize("k", SORT_SIZES)
    def test_nan_rows_and_tie_free_rows_in_one_batch(self, k):
        # a batch whose tied rows (NaN among them) sit between tie-free ones:
        # the runs of equal values are numbered across rows
        rng = np.random.default_rng(k)
        p = np.stack([distinct_pvalues(k, k + row) for row in range(5)])
        p[1, rng.choice(k, size=k // 10, replace=False)] = np.nan
        p[2, rng.choice(k, size=k // 2, replace=False)] = 0.0
        p[3] = np.round(p[3], 2)
        for method in M:
            rejected, thresholds = reject(p, 0.05, method)
            want_rejected, want_thresholds = stable_reject(p, 0.05, method)
            assert np.array_equal(rejected, want_rejected) and np.array_equal(thresholds, want_thresholds), method
