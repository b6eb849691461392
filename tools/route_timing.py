"""Time the simulator's screened z route on two trees, in one process.

    python3 tools/route_timing.py PARENT_SRC CHANGE_SRC [ROUNDS]

PARENT_SRC and CHANGE_SRC are directories that each hold an ``alphagate``
package (``src`` in a checkout). Both packages are imported into this
process apart, and each shape of a fixed grid is run by ``simulate`` on
both trees in turn, ROUNDS times (default 8, at least 8), alternating which
tree goes first. Each call is timed in process CPU time, which the time
the process waits for a core does not inflate. A line per shape gives each
tree's median time per call and the median over rounds of the change's time
over the parent's in the same round; the last line gives the worst of those
ratios. The two trees must give equal ``Estimates`` on every shape: a shape
where they differ is reported, and the exit status is then 1. Two copies
of one tree read 0.91 to 1.05 over the grid on a 2-vCPU Xeon, the noise a
ratio must clear.

The grid holds the shapes the screen takes (``_plan(...).screen`` is not
None on the change): the independent, equicorrelated (rho 0.5) and shared
control designs, both sides, Bonferroni, Holm and Hochberg at alpha 0.05,
and k 20 and 200 tests with 1 distinct shift (all null), 2 (a null half,
then a half at 1.6), 4 interleaved (0, 0.5, 1, 1.5 in turn) or one per
test (0 to 1.6, ascending). A shape the screen refuses, as every dependent
one with a shift per test, is listed as skipped. Each call runs at one
thread and about 2**21 draws, so a call takes tens of milliseconds on a
2-vCPU Xeon and the whole grid about a minute.
"""

from __future__ import annotations

import dataclasses
import importlib
import statistics
import sys
import time

DRAWS = 2**21
KS = (20, 200)
METHODS = ("bonferroni", "holm", "hochberg")
SHIFTS = ("1", "2", "4 interleaved", "one per test")


def load(src: str):
    """The ``alphagate.simulate`` and ``alphagate.families`` modules of the
    package in ``src``, imported apart from any other tree's."""
    for name in [name for name in sys.modules if name.split(".")[0] == "alphagate"]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        return importlib.import_module("alphagate.simulate"), importlib.import_module("alphagate.families")
    finally:
        sys.path.remove(src)
        for name in [name for name in sys.modules if name.split(".")[0] == "alphagate"]:
            del sys.modules[name]


def deltas(shifts: str, k: int) -> list[float]:
    if shifts == "1":
        return [0.0] * k
    if shifts == "2":
        return [0.0] * (k // 2) + [1.6] * (k - k // 2)
    if shifts == "4 interleaved":
        return [(0.0, 0.5, 1.0, 1.5)[i % 4] for i in range(k)]
    return [1.6 * i / k for i in range(k)]


def scenario(families, design: str, sides: str, method: str, shifts: str, k: int):
    shift = deltas(shifts, k)
    return families.Scenario(
        k=k,
        null_pattern=tuple(d == 0.0 for d in shift),
        deltas=tuple(shift),
        n=2,  # each shift is its delta
        design=families.Design.equicorrelated(0.5) if design == "equicorrelated" else families.Design(design),
        sides=families.Sides(sides),
        alpha_joint=0.05,
        method=families.AdjustmentMethod(method),
        reps=DRAWS // k,
        seed=2021,
    )


def grid():
    for design in ("independent", "equicorrelated", "shared_control"):
        for sides in ("one_sided", "two_sided"):
            for method in METHODS:
                for shifts in SHIFTS:
                    for k in KS:
                        yield design, sides, method, shifts, k


def timed(simulate, s) -> tuple[float, object]:
    """The CPU time of one call, which time the process spends waiting for a
    core does not inflate, and its estimates."""
    start = time.process_time()
    estimates = simulate(s)
    return time.process_time() - start, dataclasses.replace(estimates, elapsed=0.0)


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    rounds = max(8, int(argv[3]) if len(argv) == 4 else 8)
    trees = [load(argv[1]), load(argv[2])]
    worst, differs = None, 0
    for shape in grid():
        cases = [(simulation, scenario(families, *shape)) for simulation, families in trees]
        label = "{} {} {} shifts={} k={}".format(*shape)
        if cases[1][0]._plan(cases[1][1]).screen is None:
            print(f"{label}: skipped, not screened")
            continue
        for simulation, s in cases:  # a warm-up call each: scipy, page faults
            simulation.simulate(s)
        times, results = ([], []), [None, None]
        for index in range(rounds):
            order = (0, 1) if index % 2 == 0 else (1, 0)
            for tree in order:
                seconds, results[tree] = timed(cases[tree][0].simulate, cases[tree][1])
                times[tree].append(seconds)
        parent, change = (statistics.median(t) for t in times)
        # the median of each round's ratio: a round's two calls run back to
        # back, so a slow spell of the machine moves both
        ratio = statistics.median(new / old for old, new in zip(*times))
        same = repr(results[0]) == repr(results[1])
        differs += not same
        print(f"{label}: {1e3 * parent:.2f} -> {1e3 * change:.2f} ms, ratio {ratio:.3f}"
              + ("" if same else ", ESTIMATES DIFFER"), flush=True)
        if worst is None or ratio > worst[0]:
            worst = (ratio, label)
    if worst is not None:
        print(f"worst ratio {worst[0]:.3f}: {worst[1]}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
