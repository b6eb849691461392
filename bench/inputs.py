"""Seeded workload definitions and input generation.

Everything a workload feeds the program is derived from ``--seed`` here, so
one seed gives byte-identical files and argument lists. This module needs
only the standard library and numpy; it never imports alphagate, so the
program under test receives nothing but the generated inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("sim-indep", "sim-equi-wide", "decide-battery", "cli-cold")

ALPHA = 0.05

# Replications per call are sized so that a 25 s run holds a few hundred
# calls: many short calls give the fast 10th-percentile latency (see
# metrics.FAST_SHARE) enough samples, and a tail percentile 10 samples beyond.
# Chunks stay at the simulator's fixed 16,384 replications, so statistics/s is
# comparable with larger runs.
SIMULATIONS = {
    # the paper's headline setting: FWER = 1 - (1 - alpha)^k in closed form
    "sim-indep": {
        "k": 20,
        "true_nulls": 20,
        "delta": 0.0,
        "n": 2,
        "design": "independent",
        "rho": None,
        "sides": "one_sided",
        "method": "sidak",
        "reps": 2**16,
        "threads": 1,
    },
    # k + 1 draws per replication, sorted-row step-up kernel, shared-factor
    # z assembly and a chunk-order reduction over a two-thread pool
    "sim-equi-wide": {
        "k": 200,
        "true_nulls": 100,
        "delta": 0.4,
        "n": 32,
        "design": "equicorrelated",
        "rho": 0.5,
        "sides": "two_sided",
        "method": "hochberg",
        "reps": 2**15,
        "threads": 2,
    },
}

#: Distinct scenario seeds per run; calls cycle through them.
SCENARIO_SEEDS = 64

BATTERY_ROWS = 20_000
#: Share of battery rows drawn log-uniform in [1e-12, 1e-4] so that every
#: procedure rejects a non-trivial set; the rest are uniform on (0, 1).
SIGNAL_SHARE = 0.02

#: One decide-battery cycle: (mode label, decide arguments after --alpha).
DECIDE_MODES = (
    ("bh", ["--mode", "bh"]),
    ("holm", ["--mode", "disjunction", "--method", "holm"]),
    ("hochberg", ["--mode", "disjunction", "--method", "hochberg"]),
    ("conjunction", ["--mode", "conjunction"]),
)

CLI_SUBCOMMANDS = ("rates", "adjust", "table1", "power", "classify", "decide")


def scenario_seeds(seed: int) -> list[int]:
    rng = np.random.default_rng([seed, 1])
    return [int(s) for s in rng.integers(0, 2**64, size=SCENARIO_SEEDS, dtype=np.uint64)]


def battery_text(seed: int) -> str:
    """Battery CSV ('id,p') with a seeded uniform / log-uniform mixture."""
    rng = np.random.default_rng([seed, 2])
    p = rng.random(BATTERY_ROWS)
    signal = rng.random(BATTERY_ROWS) < SIGNAL_SHARE
    p[signal] = 10.0 ** rng.uniform(-12.0, -4.0, int(signal.sum()))
    lines = ["id,p"] + [f"h{i:06d},{float(x)!r}" for i, x in enumerate(p)]
    return "\n".join(lines) + "\n"


def scenario_document(seed: int) -> dict:
    """A full scenario document (family, alpha, simulation, classification)
    for ``classify``, which parses every section of it."""
    rng = np.random.default_rng([seed, 3])
    k = int(rng.integers(2, 9))
    flags = [bool(b) for b in rng.integers(0, 2, size=7)]
    ids = [f"c{i}" for i in range(1, k + 1)]
    return {
        "family": {
            "joint_id": "J",
            "constituents": ids,
            "mode": "disjunction",
            "exchangeable": flags[0],
            "independent": flags[1],
        },
        "alpha": {
            "alpha_joint": ALPHA,
            "method": str(rng.choice(["bonferroni", "sidak", "holm", "hochberg"])),
            "mode": "disjunction",
        },
        "simulation": {
            "k": k,
            "null_pattern": [True] * k,
            "deltas": [0.0] * k,
            "n": int(rng.integers(2, 100)),
            "design": {"kind": "equicorrelated", "rho": 0.25},
            "sides": "two_sided",
            "reps": 1000,
            "seed": int(rng.integers(0, 2**32)),
        },
        "classification": {
            "statistical_claim": flags[2],
            "joint_inference": flags[3],
            "all_constituents_required": flags[4],
            "exchangeable": flags[5],
            "family_theoretically_relevant": flags[6],
        },
    }


def cli_commands(seed: int, workdir: Path) -> list[list[str]]:
    """One cli-cold cycle: an argv per entry of :data:`CLI_SUBCOMMANDS`."""
    rng = np.random.default_rng([seed, 4])
    k = str(int(rng.integers(2, 51)))
    h = int(rng.integers(1, 6))
    t = str(h * int(rng.integers(1, 6)))
    delta = f"{rng.uniform(0.1, 1.0):.3f}"
    n = str(int(rng.integers(5, 200)))
    p3 = rng.random(3) * 0.05
    (workdir / "battery3.csv").write_text(
        "id,p\n" + "".join(f"t{i},{float(p)!r}\n" for i, p in enumerate(p3, start=1)),
        encoding="utf-8",
    )
    (workdir / "scenario.json").write_text(
        json.dumps(scenario_document(seed), indent=2) + "\n", encoding="utf-8"
    )
    a = repr(ALPHA)
    return [
        ["rates", "--alpha", a, "--k", k],
        ["adjust", "--alpha", a, "--k", k, "--method", "sidak"],
        ["table1", "--t", t, "--h", str(h), "--alpha", a],
        ["power", "--alpha", a, "--delta", delta, "--n", n, "--k", k, "--conjunction"],
        ["classify", "--input", str(workdir / "scenario.json")],
        ["decide", "--battery", str(workdir / "battery3.csv"), "--mode", "disjunction",
         "--method", "holm", "--alpha", a],
    ]


def write_inputs(workload: str, seed: int, workdir: Path, nproc: int) -> dict:
    """Write the workload's input files under ``workdir`` and return the
    JSON-serializable part of the worker configuration that describes them."""
    if workload in SIMULATIONS:
        sim = dict(SIMULATIONS[workload])
        # never more worker threads than cores, and never the CLI's default
        sim["threads"] = max(1, min(sim["threads"], nproc))
        return {"simulation": sim, "seeds": scenario_seeds(seed)}
    if workload == "decide-battery":
        battery = workdir / "battery.csv"
        battery.write_text(battery_text(seed), encoding="utf-8")
        return {
            "battery": str(battery),
            "rows": BATTERY_ROWS,
            "out": str(workdir / "decide.tsv"),
            "alpha": ALPHA,
            "modes": [list(m) for m in DECIDE_MODES],
        }
    if workload == "cli-cold":
        return {"commands": cli_commands(seed, workdir)}
    raise ValueError(f"unknown workload {workload!r}")
