"""Tests of the benchmark's own parts: python -m pytest bench/tests -q"""

import importlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

import inputs
import metrics
import oracle
import spans
import worker

from alphagate.decisions import apply_bh, decide_conjunction, decide_disjunction
from alphagate.families import AdjustmentMethod, TestBattery



@pytest.mark.parametrize("n", [11, 12, 17, 40, 100])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n):
    values = list(range(1, n + 1))
    random.Random(n).shuffle(values)
    value, percentile, count = metrics.tail(values)
    assert count == n
    assert sum(v > value for v in values) == metrics.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (n - metrics.TAIL_BEYOND) / n)
    # one rank higher would leave fewer than ten beyond it
    assert sum(v > value + 1 for v in values) < metrics.TAIL_BEYOND


def test_tail_needs_eleven_samples():
    assert metrics.tail(range(10)) is None
    assert metrics.tail(range(11))[0] == 0


def _batteries(count):
    rng = random.Random(7)
    pool = [0.0, 1.0, 0.05, 0.025, 0.0125, 0.01, 0.005, 1e-12, 0.5]
    for _ in range(count):
        m = rng.randint(1, 12)
        p = [rng.choice(pool) if rng.random() < 0.6 else rng.random() * 0.1 for _ in range(m)]
        yield TestBattery(entries=tuple((f"h{i}", x) for i, x in enumerate(p)))


def _rejected(decision):
    return np.array([v.value == "reject" for v in decision.per_hypothesis.values()])


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.01])
def test_oracle_agrees_with_alphagate_including_ties_and_endpoints(alpha):
    for battery in _batteries(400):
        p = np.array(battery.pvalues)
        decisions = {
            "bh": apply_bh(battery, alpha),
            "holm": decide_disjunction(battery, alpha, AdjustmentMethod.HOLM),
            "hochberg": decide_disjunction(battery, alpha, AdjustmentMethod.HOCHBERG),
            "conjunction": decide_conjunction(battery, alpha),
        }
        for mode, decision in decisions.items():
            want = oracle.REJECT[mode](p, alpha)
            assert np.array_equal(_rejected(decision), want), (mode, battery)
            assert decision.joint.value == oracle.expected_joint(mode, want), (mode, battery)


def _all_targets():
    return worker.sim_targets() + worker.decide_targets()


def test_wrapping_and_restoring_leaves_module_attributes_identical():
    before = [(module, attr, getattr(module, attr)) for module, attr, _, _ in _all_targets()]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched(_all_targets()):
            assert all(getattr(module, attr) is not original for module, attr, original in before)
            raise RuntimeError("leave the block early")
    assert all(getattr(module, attr) is original for module, attr, original in before)


def test_traced_simulate_self_times_account_for_its_wall_time():
    sim = importlib.import_module("alphagate.simulate")
    scenario = worker.setup_sim({"simulation": dict(inputs.SIMULATIONS["sim-equi-wide"], reps=40_000),
                                 "seeds": [3]})[0]
    tracer = spans.Tracer()
    with tracer.patched(worker.sim_targets()), tracer.op(0, "simulate"):
        traced = sim.simulate(scenario, threads=1)
    assert traced == sim.simulate(scenario, threads=2)
    (op,) = spans.per_op(tracer.spans).values()
    assert sum(op["self"].values()) == pytest.approx(op["wall"], rel=1e-9)
    assert op["counts"]["chunks"] == 3
    assert op["counts"]["words"] == 40_000 * 201
    assert op["counts"]["stats"] == 40_000 * 200


def _snapshot(workload, seed, directory, nproc=2):
    directory.mkdir()
    cfg = json.dumps(inputs.write_inputs(workload, seed, directory, nproc)).replace(str(directory), "DIR")
    files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    return cfg, files


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generated_inputs_are_stable_for_a_fixed_seed(workload, tmp_path):
    first = _snapshot(workload, 5, tmp_path / "a")
    assert first == _snapshot(workload, 5, tmp_path / "b")
    assert first != _snapshot(workload, 6, tmp_path / "c")


def test_threads_never_exceed_nproc(tmp_path):
    for workload in inputs.SIMULATIONS:
        assert inputs.write_inputs(workload, 1, tmp_path, nproc=1)["simulation"]["threads"] == 1


def test_decide_operation_check_accepts_its_output_and_rejects_a_changed_one(tmp_path):
    cfg = dict(inputs.write_inputs("decide-battery", 2, tmp_path, nproc=1), workload="decide-battery")
    operation = worker.decide_operation(cfg, worker.setup_decide(cfg))
    for i in range(len(inputs.DECIDE_MODES)):
        _, _, problem = operation.run(i)
        assert problem is None, (operation.label(i), problem)
    out = Path(cfg["out"])
    out.write_text(out.read_text().replace("\treject\n", "\tretain\n", 1))
    assert operation.check(len(inputs.DECIDE_MODES) - 1, 0) == "output differs from the verified output"
    operation.checker.verified.clear()
    assert "differ from the oracle" in operation.check(len(inputs.DECIDE_MODES) - 1, 0)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_loop_pairs_every_timed_call_with_a_reference_time(threads):
    calls = []
    operation = worker.Operation(label=lambda i: "op", call=calls.append, check=lambda i, result: None, work=1)
    rec = worker.Record()
    worker.run_loop({"seconds": 0, "simulation": {"threads": threads}}, operation, rec, worker.loop_kernel)
    # one untimed warm-up call, then the closed loop
    assert calls == [0, *range(worker.MIN_OPS)]
    assert rec.attempted == worker.MIN_OPS + 1 and not rec.failures
    assert len(rec.samples) == worker.MIN_OPS
    assert all(sample["reference"] > 0 for sample in rec.samples)
