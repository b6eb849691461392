"""Benchmark client: one fresh process per run, sending operations from a
single thread (``simulate`` may start its own pool of ``threads``).

Usage: ``python worker.py CONFIG_JSON`` (started by run.py). It imports
alphagate from the checkout's ``src/``, builds the workload's program-side
inputs and prints ``{"ready": <CLOCK_MONOTONIC seconds>}``. A probe (the
config has ``probe``) stops there or, when ``probe`` is an index, runs that
one operation and prints its peak resident set. Otherwise the worker runs
the workload as a closed loop with one client and prints one JSON line with
the raw samples, output-check results and, for a traced run, per-layer
numbers.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

#: Operations to time even when a run's seconds are spent (a tail needs 11).
MIN_OPS = 11
#: Hard stop for the timed loop, far below the 180 s a run may take.
LOOP_LIMIT_S = 120.0
#: Output checks allow this many binomial standard errors.
SE_BAND = 5.0
#: After each timed operation the reference kernel runs for at least this
#: share of the operation's latency.
REFERENCE_SHARE = 0.25


class Record:
    """Attempts, failures and per-operation samples of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: list[dict] = []

    def add(self, label: str, latency: float, work: float, problem: str | None, timed: bool = True,
            reference: float | None = None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{label}: {problem}")
        if timed:
            sample = {"label": label, "latency": latency, "work": work}
            if reference is not None:
                sample["reference"] = reference
            self.samples.append(sample)


class Operation:
    """A workload's single operation, the same in the timed loop, the traced
    run and the probes. ``call(i)`` is the program call for index ``i`` and
    the only part that is timed; ``check(i, result)`` is its output check,
    which returns a problem or None; ``label(i)`` names the call and
    ``work`` counts its items."""

    def __init__(self, label, call, check, work: float) -> None:
        self.label, self.call, self.check, self.work = label, call, check, work

    def run(self, i: int):
        """Time ``call(i)`` and check its result: (result, seconds, problem)."""
        t0 = time.perf_counter()
        result = self.call(i)
        dt = time.perf_counter() - t0
        return result, dt, self.check(i, result)


def closed_loop(seconds: float, op) -> None:
    """Call ``op(i)`` back to back for ``seconds`` (and at least MIN_OPS times)."""
    start = time.monotonic()
    i = 0
    while True:
        elapsed = time.monotonic() - start
        if (elapsed >= seconds and i >= MIN_OPS) or elapsed >= LOOP_LIMIT_S:
            return
        op(i)
        i += 1


def loop_kernel(x) -> None:
    """An interpreter integer loop and numpy sort and exp; its speed follows
    the simulator's and that of a CLI process's start-up and imports."""
    import numpy as np

    total = 0
    for i in range(60_000):
        total += i * i
    np.sort(x)
    np.exp(x).sum()


def text_kernel(x) -> None:
    """Float parsing, string formatting and small-object allocation, as in
    the CLI's parse and render, and a numpy sort; its speed follows that of
    an in-process ``decide``."""
    import numpy as np

    values = [float(repr(v)) for v in x[:4000].tolist()]
    rows = [f"h{i:06d}\t{v:.6g}\t{'reject' if v < 0.05 else 'retain'}" for i, v in enumerate(values)]
    lengths = {row[:7]: len(row) for row in rows}
    "\n".join(rows) + str(len(lengths))
    np.sort(x)


class Reference:
    """A fixed kernel that shares no code with alphagate, timed between the
    operations to follow the speed of the machine. A workload that runs on
    ``threads`` threads gets the kernel on as many threads at once, so that
    the speed of every core it uses is followed.

    A vCPU of a shared host runs at two speeds, about 1.4x apart on a 2-vCPU
    Xeon VM, for seconds to minutes at a time, and the share of a run spent
    at the slow speed varies from run to run. Every operation's latency is
    therefore paired with the reference time measured around it; their
    ratio stays with the program when the machine's speed moves. Code of
    different kinds slows by different factors, so each workload has a
    kernel of its own kind."""

    def __init__(self, kernel, threads: int) -> None:
        import numpy as np

        self.kernel = kernel
        self.arrays = [np.random.default_rng(t).random(1 << 16) for t in range(threads)]

    def once(self, pool) -> float:
        t0 = time.perf_counter()
        if pool is None:
            self.kernel(self.arrays[0])
        else:
            list(pool.map(self.kernel, self.arrays))
        return time.perf_counter() - t0

    def mean_over(self, seconds: float, pool) -> float:
        """Mean time of one kernel run, over as many runs as fill ``seconds``
        (at least one)."""
        times = [self.once(pool)]
        while sum(times) < seconds:
            times.append(self.once(pool))
        return sum(times) / len(times)


def run_loop(cfg, operation: Operation, rec: Record, kernel) -> None:
    """The untraced run: one warm-up call (first-touch pages, thread
    start-up), then the closed loop. The reference kernel runs after every
    call; a timed call's reference time is the mean of the runs before and
    after it."""
    from concurrent.futures import ThreadPoolExecutor

    threads = cfg.get("simulation", {}).get("threads", 1)
    reference = Reference(kernel, threads)
    before = None

    def step(i, timed=True):
        nonlocal before
        _, dt, problem = operation.run(i)
        after = reference.mean_over(REFERENCE_SHARE * dt, pool)
        rec.add(operation.label(i), dt, operation.work, problem, timed, (before + after) / 2 if timed else None)
        before = after

    with ThreadPoolExecutor(threads) if threads > 1 else contextlib.nullcontext() as pool:
        step(0, timed=False)
        closed_loop(cfg["seconds"], step)


# -- simulator workloads -------------------------------------------------------


def setup_sim(cfg):
    from alphagate.families import AdjustmentMethod
    from alphagate.simulate import Design, Scenario, Sides

    sim = cfg["simulation"]
    k, nulls = sim["k"], sim["true_nulls"]
    design = Design(sim["design"], sim["rho"])
    return [
        Scenario(
            k=k,
            null_pattern=(True,) * nulls + (False,) * (k - nulls),
            deltas=(0.0,) * nulls + (sim["delta"],) * (k - nulls),
            n=sim["n"],
            design=design,
            sides=Sides(sim["sides"]),
            alpha_joint=0.05,
            method=AdjustmentMethod(sim["method"]),
            reps=sim["reps"],
            seed=seed,
        )
        for seed in cfg["seeds"]
    ]


def _outside(value: float, target: float, reps: int) -> bool:
    return abs(value - target) > SE_BAND * (target * (1.0 - target) / reps) ** 0.5


def check_sim(cfg, scenario, est) -> str | None:
    from alphagate.families import TestingMode

    alpha, k, reps = scenario.alpha_joint, scenario.k, est.reps
    if cfg["simulation"]["design"] == "independent":
        fwer = 1.0 - (1.0 - alpha) ** k
        if _outside(est.fwer_hat, fwer, reps):
            return f"fwer_hat {est.fwer_hat} is more than {SE_BAND} SE from {fwer}"
        disjunction = est.joint_reject_rate[TestingMode.DISJUNCTION]
        if _outside(disjunction, alpha, reps):
            return f"disjunction rate {disjunction} is more than {SE_BAND} SE from {alpha}"
        return None
    for i, (is_null, rate) in enumerate(zip(scenario.null_pattern, est.per_test_rejection)):
        if is_null and _outside(rate, alpha, reps):
            return f"true null {i} rejected at rate {rate}, more than {SE_BAND} SE from {alpha}"
    return None


def sim_operation(cfg, scenarios, threads: int | None = None) -> Operation:
    """One ``simulate`` call at ``threads`` (the workload's count by default)."""
    from alphagate.simulate import simulate

    threads = threads or cfg["simulation"]["threads"]

    def scenario(i):
        return scenarios[i % len(scenarios)]

    return Operation(
        label=lambda i: "simulate",
        call=lambda i: simulate(scenario(i), threads=threads),
        check=lambda i, est: check_sim(cfg, scenario(i), est),
        work=scenarios[0].reps * scenarios[0].k,
    )


def sim_targets():
    import importlib

    # alphagate re-exports the function simulate, which hides the submodule
    # of that name as a package attribute
    rng = importlib.import_module("alphagate.rng")
    sim = importlib.import_module("alphagate.simulate")

    def nbytes(args, kwargs, result):
        return {"bytes": int(result.nbytes)}

    def chunk(args, kwargs, result):
        return {"chunks": 1, "bytes": int(result.nbytes)}

    def words(args, kwargs, result):
        return {"words": int(result.size), "bytes": int(result.nbytes)}

    def stats(args, kwargs, result):
        return {"stats": int(result.size)}

    return [
        (sim, "rep_seed_block", "rep_seed_block", chunk),
        (sim, "normal_block", "normal_block", None),
        (sim, "p_from_z", "p_from_z", stats),
        (rng, "uniform_block", "uniform_block", words),
        (rng, "ndtri", "ndtri", nbytes),
    ]


def trace_sim(cfg, scenarios, rec: Record, tracer) -> dict:
    """Per cycle and seed: a traced 1-thread call, an untraced 1-thread call
    and, when the workload uses more threads, an untraced call at that
    count. All must return equal Estimates."""
    from metrics import median
    from spans import per_op

    threads = cfg["simulation"]["threads"]
    single = sim_operation(cfg, scenarios, 1)
    untraced_ops = {"untraced": single}
    if threads > 1:
        untraced_ops["threaded"] = sim_operation(cfg, scenarios, threads)
    targets = sim_targets()
    walls = {"traced": [], "untraced": [], "threaded": []}

    def op(i):
        def run_untraced():
            return {kind: operation.run(i) for kind, operation in untraced_ops.items()}

        # every other cycle runs the untraced calls first, so order effects cancel
        untraced = run_untraced() if i % 2 else None
        with tracer.patched(targets), tracer.op(i, "simulate") as root:
            traced = single.call(i)
        untraced = untraced or run_untraced()
        walls["traced"].append(root.end - root.start)
        rec.add("simulate traced", walls["traced"][-1], single.work, single.check(i, traced))
        for kind, (est, dt, problem) in untraced.items():
            walls[kind].append(dt)
            if problem is None and est != traced:
                problem = f"Estimates {kind} differ from the traced threads=1 Estimates"
            rec.add(f"simulate {kind}", dt, single.work, problem)

    untraced_ops.get("threaded", single).call(0)  # warm-up
    closed_loop(cfg["seconds"], op)

    ops = list(per_op(tracer.spans).values())
    n = len(ops)

    def mean_self(name):
        return sum(o["self"][name] for o in ops) / n

    counts = ops[0]["counts"]
    layers = {
        "rng.rep_seed_block_s": mean_self("rep_seed_block"),
        "rng.uniform_block_s": mean_self("uniform_block"),
        "rng.ndtri_s": mean_self("ndtri"),
        "rng.normal_block_s": mean_self("normal_block"),
        "rng.words": counts["words"],
        "rng.bytes_computed": counts["bytes"],
        "simulate.p_from_z_s": mean_self("p_from_z"),
        "simulate.self_s": mean_self("simulate"),
        "simulate.chunks": counts["chunks"],
        "simulate.stats": counts["stats"],
        "trace.overhead_ratio": sum(walls["traced"]) / sum(walls["untraced"]),
    }
    if walls["threaded"]:
        # rate at T threads untraced over T x the traced 1-thread rate
        layers["simulate.thread_efficiency"] = median(walls["traced"]) / (
            threads * median(walls["threaded"])
        )
    layers["simulate.traced_wall_s"] = sum(o["wall"] for o in ops) / n
    return layers


# -- decide-battery ------------------------------------------------------------


def setup_decide(cfg):
    import alphagate.cli  # noqa: F401  (the in-process CLI is the program under test)

    return cfg["battery"]


class DecideChecker:
    """Compares each decide output with the numpy oracle. An output that is
    byte-identical to one already verified for the same mode passes. The
    battery is read on the first check, so a probe that never checks does
    not hold it."""

    def __init__(self, cfg) -> None:
        self.cfg = cfg
        self.ids: list[str] | None = None
        self.verified: dict[str, tuple[str, int, int]] = {}

    def _load(self) -> None:
        import numpy as np

        with open(self.cfg["battery"], encoding="utf-8") as handle:
            rows = [line.rstrip("\n").split(",") for line in handle][1:]
        self.ids = [hid for hid, _ in rows]
        self.p = np.array([float(p) for _, p in rows])

    def check(self, mode: str, path: str) -> str | None:
        import hashlib

        import numpy as np

        from oracle import REJECT, expected_joint

        if self.ids is None:
            self._load()
        with open(path, "rb") as handle:
            data = handle.read()
        digest = hashlib.sha256(data).hexdigest()
        if mode in self.verified:
            return None if self.verified[mode][0] == digest else "output differs from the verified output"
        tests, joint = [], None
        for line in data.decode("utf-8").splitlines()[1:]:
            cells = line.split("\t")
            if cells[0] == "test":
                tests.append((cells[1], cells[4]))
            elif cells[0] == "joint":
                joint = cells[4]
        if [hid for hid, _ in tests] != self.ids:
            return "output rows do not follow the battery"
        got = np.array([verdict == "reject" for _, verdict in tests])
        want = REJECT[mode](self.p, self.cfg["alpha"])
        if not np.array_equal(got, want):
            return f"{int((got != want).sum())} decisions differ from the oracle"
        if joint != expected_joint(mode, want):
            return f"joint verdict {joint!r}, expected {expected_joint(mode, want)!r}"
        self.verified[mode] = (digest, int(want.sum()), len(data))
        return None


def decide_operation(cfg, battery) -> Operation:
    """One in-process ``cli.main(["decide", ...])`` call; calls cycle
    through the modes. ``operation.checker`` holds the verified outputs."""
    from alphagate import cli

    modes = cfg["modes"]
    checker = DecideChecker(cfg)

    def mode(i):
        return modes[i % len(modes)]

    def check(i, code):
        return f"exit code {code}" if code else checker.check(mode(i)[0], cfg["out"])

    operation = Operation(
        label=lambda i: mode(i)[0],
        call=lambda i: cli.main(["decide", "--battery", battery, "--out", cfg["out"],
                                 "--alpha", repr(cfg["alpha"]), *mode(i)[1]]),
        check=check,
        work=cfg["rows"],
    )
    operation.checker = checker
    return operation


def decide_targets():
    import alphagate.cli as cli

    def parsed(args, kwargs, result):
        return {"rows": len(result), "bytes_in": os.path.getsize(args[0])}

    return [
        (cli, "load_battery_file", "load_battery_file", parsed),
        (cli, "apply_bh", "procedure", None),
        (cli, "decide_disjunction", "procedure", None),
        (cli, "decide_conjunction", "procedure", None),
    ]


def trace_decide(cfg, operation: Operation, rec: Record, tracer) -> dict:
    """Per mode: one traced and one untraced cli.main call."""
    from spans import per_op

    modes = cfg["modes"]
    targets = decide_targets()
    labels: dict[int, str] = {}
    walls = {"traced": 0.0, "untraced": 0.0}

    def untraced(i):
        _, dt, problem = operation.run(i)
        rec.add(operation.label(i), dt, operation.work, problem)
        walls["untraced"] += dt

    def op(i):
        labels[i] = operation.label(i)
        # every other cycle runs the untraced call first, so order effects cancel
        first = (i // len(modes)) % 2
        if first:
            untraced(i)
        with tracer.patched(targets), tracer.op(i, "cli.main") as root:
            code = operation.call(i)
        rec.add(f"{labels[i]} traced", root.end - root.start, operation.work, operation.check(i, code))
        walls["traced"] += root.end - root.start
        if not first:
            untraced(i)

    operation.call(0)  # warm-up
    closed_loop(cfg["seconds"], op)  # MIN_OPS covers every mode at least once

    ops = per_op(tracer.spans)

    def mean(values):
        values = list(values)
        return sum(values) / len(values)

    layers = {
        "fileio.parse_s": mean(o["self"]["load_battery_file"] for o in ops.values()),
        "cli.render_s": mean(o["self"]["cli.main"] for o in ops.values()),
        "trace.overhead_ratio": walls["traced"] / walls["untraced"],
    }
    first = ops[0]["counts"]
    layers["fileio.rows"] = first["rows"]
    layers["fileio.bytes_in"] = first["bytes_in"]
    for mode, _ in modes:
        layers[f"decisions.{mode}_s"] = mean(o["self"]["procedure"] for i, o in ops.items() if labels[i] == mode)
    # counted from the checked outputs, so a failed check leaves them short
    verified = operation.checker.verified.values()
    layers["decisions.rejections"] = sum(rejected for _, rejected, _ in verified)
    layers["cli.bytes_out"] = sum(size for _, _, size in verified)
    return layers


# -- cli-cold ------------------------------------------------------------------


def setup_cli(cfg):
    import alphagate.cli  # noqa: F401  (reference outputs are rendered in process)

    return cfg["commands"]


def cli_references(commands) -> list[bytes | None]:
    import contextlib
    import io

    from alphagate import cli

    refs = []
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        refs.append(buf.getvalue().encode("utf-8") if code == 0 else None)
    return refs


def cli_operation(cfg, commands) -> Operation:
    """One ``python -m alphagate.cli`` subprocess on the checkout's src/;
    calls cycle through the commands. Its stdout must equal the same argv
    run in process; ``operation.references()`` renders those on first use."""
    import functools
    import subprocess

    env = dict(os.environ, PYTHONPATH=cfg["src"], PYTHONIOENCODING="utf-8")
    env.pop("ALPHAGATE_SEED", None)
    references = functools.cache(lambda: cli_references(commands))

    def argv(i):
        return commands[i % len(commands)]

    def call(i):
        return subprocess.run([sys.executable, "-m", "alphagate.cli", *argv(i)],
                              cwd=cfg["root"], env=env, capture_output=True, timeout=60)

    def check(i, proc):
        ref = references()[i % len(commands)]
        if proc.returncode:
            return f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}"
        if ref is None:
            return "the in-process reference run failed"
        if proc.stdout != ref:
            return "stdout differs from the in-process run"
        return None

    operation = Operation(label=lambda i: argv(i)[0], call=call, check=check, work=1)
    operation.references = references
    return operation


# -- entry point ---------------------------------------------------------------


def peak_rss_kib(workload: str) -> int:
    # on cli-cold the work happens in the CLI children
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


#: workload -> (set-up that builds the program-side inputs, its Operation,
#: the reference kernel)
WORKLOADS = {
    "sim-indep": (setup_sim, sim_operation, loop_kernel),
    "sim-equi-wide": (setup_sim, sim_operation, loop_kernel),
    "decide-battery": (setup_decide, decide_operation, text_kernel),
    "cli-cold": (setup_cli, cli_operation, loop_kernel),
}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, cfg["src"])
    import alphagate

    workload, trace = cfg["workload"], cfg["trace"]
    setup, make_operation, kernel = WORKLOADS[workload]
    inputs = setup(cfg)
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    operation = make_operation(cfg, inputs)
    if "probe" in cfg:
        if cfg["probe"] is not None:
            operation.call(cfg["probe"])
            print(json.dumps({"peak_rss_kib": peak_rss_kib(workload)}), flush=True)
        return 0

    import numpy
    import scipy

    from spans import Tracer

    rec = Record()
    tracer = Tracer()
    layers = {}
    if not trace or workload == "cli-cold":  # cli-cold has no tracing inside the program
        run_loop(cfg, operation, rec, kernel)
    elif workload == "decide-battery":
        layers = trace_decide(cfg, operation, rec, tracer)
    else:
        layers = trace_sim(cfg, inputs, rec, tracer)
    if workload == "cli-cold":
        layers["cli.bytes_out"] = sum(len(r or b"") for r in operation.references())
    if tracer.spans:
        with open(cfg["spans_path"], "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)

    print(json.dumps({
        "attempted": rec.attempted,
        "failures": rec.failures,
        "samples": rec.samples,
        "layers": layers,
        "peak_rss_kib": peak_rss_kib(workload),
        "alphagate_file": alphagate.__file__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
