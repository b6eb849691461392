"""alphagate benchmark: one workload per invocation.

    python3 bench/run.py --workload sim-indep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from anywhere; the checkout is the parent of this directory and the
program under test is its ``src/alphagate``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics from a separate
traced run. The last line of stdout is the result object; the line before it
holds the report (provenance, sample counts, tail percentile, failures),
which is also written with the spans under ``bench/_work/``. ``--workload
all`` runs every workload in both modes and prints a table of every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

from inputs import CLI_SUBCOMMANDS, WORKLOADS, write_inputs
from metrics import median, tail

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

#: Fresh processes per end-to-end run that set up and report ready; setup_s
#: is their median. Half start before the measured worker and half after,
#: so that one slow spell of the machine does not cover all of them.
SETUP_PROBES = 12
#: Of those, how many also run one operation and report their peak
#: resident set; fresh_peak_rss_mb is their median.
OP_PROBES = 3
#: Interpreter runs under ``-X importtime`` for the import.* metrics.
IMPORT_PROBES = 5
WORKER_TIMEOUT_S = 160


def spawn_worker(cfg: dict, timeout: float) -> tuple[float, dict | None]:
    """Run worker.py on ``cfg``; return (seconds from spawn to ready, result)."""
    spawned = time.monotonic()  # CLOCK_MONOTONIC, the clock the worker reports
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(cfg)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker for {cfg['workload']} ran over {timeout} s") from None
    if proc.returncode:
        raise RuntimeError(f"worker for {cfg['workload']} exited with code {proc.returncode}")
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    return lines[0]["ready"] - spawned, (lines[1] if len(lines) > 1 else None)


def import_times() -> dict[str, float]:
    """Median cumulative import time of alphagate, scipy.special and numpy
    from ``python -X importtime -c 'import alphagate'``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    wanted = {"alphagate": "import.alphagate_s", "scipy.special": "import.scipy_special_s",
              "numpy": "import.numpy_s"}
    samples: dict[str, list[float]] = {metric: [] for metric in wanted.values()}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import alphagate"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            if name.strip() in wanted and cumulative.strip().isdigit():
                samples[wanted[name.strip()]].append(int(cumulative) / 1e6)
    return {metric: median(values) for metric, values in samples.items() if values}


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def provenance() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read(Path("/proc/cpuinfo")).splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = _read(index / "type")
        if kind in ("Data", "Unified"):
            caches[f"L{_read(index / 'level')}"] = _read(index / "size")
    digest = hashlib.sha256()
    for path in sorted((SRC / "alphagate").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "src_sha256": digest.hexdigest(),
        "git_commit": commit,
        "note": "rng.bytes_computed is computed from array sizes, not measured; a chunk "
                "temporary (16,384 x (k+1) x 8 B, 26 MB at k=200) can sit in the last-level "
                "cache listed above, so it says nothing about memory bandwidth",
    }


def metric_units(mode: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[mode]}


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Run one workload; return (result object, report)."""
    units = metric_units("per_layer" if trace else "end_to_end")
    prov = provenance()
    WORK.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    workdir = WORK / f"inputs-{stem}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        cfg = {
            "workload": workload, "seconds": seconds, "trace": trace,
            "root": str(ROOT), "src": str(SRC), "spans_path": str(WORK / f"{stem}.spans.json"),
            **write_inputs(workload, seed, workdir, prov["nproc"]),
        }

        def run_probes(indices):
            return [spawn_worker({**cfg, "probe": i if i < OP_PROBES else None}, 60) for i in indices]

        probes = run_probes(range(SETUP_PROBES // 2)) if not trace else []
        _, out = spawn_worker(cfg, WORKER_TIMEOUT_S)
        if not trace:
            probes += run_probes(range(SETUP_PROBES // 2, SETUP_PROBES))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if out is None:
        raise RuntimeError(f"worker for {workload} printed no result")

    expected_src = SRC / "alphagate"
    if Path(out["alphagate_file"]).resolve().parent != expected_src.resolve():
        raise RuntimeError(f"imported {out['alphagate_file']}, not the checkout's {expected_src}")
    prov.update(alphagate_file=out["alphagate_file"], numpy=out["numpy"], scipy=out["scipy"])

    samples = out["samples"]
    latencies = [s["latency"] for s in samples]
    failed = len(out["failures"])
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": out["attempted"], "failed": failed,
        "fail_ratio": failed / out["attempted"], "failures": out["failures"][:10],
        "timed_samples": len(samples), "provenance": prov,
    }
    if trace:
        values = dict.fromkeys(units, 0)
        values.update({k: v for k, v in out["layers"].items() if k in units})
        if workload == "cli-cold":
            for sub in CLI_SUBCOMMANDS:
                mine = [s["latency"] for s in samples if s["label"] == sub]
                values[f"cli.{sub}_p50_s"] = median(mine)
        values.update(import_times())
        report["layers_extra"] = {k: v for k, v in out["layers"].items() if k not in units}
    else:
        # each latency over the reference time measured around it (worker.Reference)
        ratios = [s["latency"] / s["reference"] for s in samples]
        if tail(ratios) is None:
            raise RuntimeError(f"{workload} timed {len(samples)} operations, too few for a tail")
        tail_ratio, percentile, count = tail(ratios)
        values = {
            "call_rel": sum(latencies) / sum(s["reference"] for s in samples),
            "call_tail_rel": tail_ratio,
            "setup_s": median([ready for ready, _ in probes]),
            "peak_rss_mb": out["peak_rss_kib"] / 1024,
            "fresh_peak_rss_mb": median([probe["peak_rss_kib"] for _, probe in probes if probe]) / 1024,
        }
        alias = {"sim-indep": "stats_per_s", "sim-equi-wide": "stats_per_s",
                 "decide-battery": "rows_per_s", "cli-cold": "calls_per_s"}[workload]
        report.update(call_tail_rel={"percentile": percentile, "samples": count},
                      call_p50_s=median(latencies), call_tail_s=tail(latencies)[0],
                      reference_p50_s=median([s["reference"] for s in samples]),
                      setup_samples=[ready for ready, _ in probes],
                      **{alias: median([s["work"] / s["latency"] for s in samples])})
    result = {
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    saved = {"report": report, "result": result, "samples": samples}
    (WORK / f"{stem}.report.json").write_text(json.dumps(saved, indent=1))
    return result, report


def run_all(seed: int, seconds: int) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, report = run_workload(workload, seed, seconds, trace)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            print(f"# {workload} trace={trace} attempted={result['attempted']} "
                  f"failed={result['failed']} fail_ratio={report['fail_ratio']}")
            for name, metric in result["metrics"].items():
                print(f"{workload:15s} {name:28s} {metric['value']:>20} {metric['unit']}")
                combined["metrics"][f"{workload}:{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "alphagate" / "__init__.py").is_file():
        print(f"bench: no program to measure: {SRC / 'alphagate'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds)))
        return 0
    result, report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
