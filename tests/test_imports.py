"""Import weight: numpy, scipy and each alphagate submodule load only where
they are called (scipy only for the simulator's large array conversions),
and the package attribute ``simulate`` stays the function.
Each case runs in a fresh interpreter, since this process has long imported
everything."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import alphagate

SRC = str(Path(alphagate.__file__).resolve().parents[1])
HEAVY = ("numpy", "scipy")
#: the submodules every subcommand loads: alphagate.cli and what its parser needs
CLI = ["cli", "enums", "errors", "validators"]


def fresh(code: str) -> str:
    """The last stdout line of ``code`` run by a new interpreter on this package."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def loaded(code: str) -> tuple[list[str], list[str]]:
    """The heavy libraries and the alphagate submodules loaded once ``code`` has run."""
    return tuple(json.loads(fresh(
        f"import json, sys\n{code}\n"
        f"print(json.dumps([[m for m in {HEAVY!r} if m in sys.modules],\n"
        "                  sorted(m.removeprefix('alphagate.') for m in sys.modules if m.startswith('alphagate.'))]))\n"
    )))


def loaded_by(argv: list[str]) -> tuple[list[str], list[str]]:
    return loaded(f"from alphagate.cli import main\nassert main({argv!r}) == 0")


@pytest.fixture
def inputs(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "family": {"joint_id": "j", "constituents": ["a", "b"], "mode": "disjunction",
                   "exchangeable": True, "independent": True},
        "alpha": {"alpha_joint": 0.05, "method": "holm", "mode": "disjunction"},
        "simulation": {"n": 16, "reps": 100, "seed": 1, "design": {"kind": "equicorrelated", "rho": 0.3}},
        "classification": {"statistical_claim": True, "joint_inference": True, "all_constituents_required": False,
                           "exchangeable": True, "family_theoretically_relevant": True},
    }), encoding="utf-8")
    # the paper's headline case: k independent one-sided tests under Sidak,
    # which the simulator decides on raw words
    headline = tmp_path / "headline.json"
    headline.write_text(json.dumps({
        "family": {"joint_id": "j", "constituents": [f"t{i}" for i in range(20)], "mode": "disjunction",
                   "exchangeable": True, "independent": True},
        "alpha": {"alpha_joint": 0.05, "method": "sidak", "mode": "disjunction"},
        "simulation": {"reps": 1000, "seed": 1, "design": "independent", "sides": "one_sided"},
    }), encoding="utf-8")
    battery = tmp_path / "battery.csv"
    battery.write_text("id,p\na,0.01\nb,0.2\n", encoding="utf-8")
    return {"scenario": str(scenario), "headline": str(headline), "battery": str(battery),
            "out": str(tmp_path / "out.tsv")}


#: argv (with {scenario}/{headline}/{battery} filled in) -> the heavy libraries it loads,
#: and the alphagate submodules it loads besides :data:`CLI`
COMMANDS = [
    (["rates", "--alpha", "0.05", "--k", "20"], [], ["rates"]),
    (["adjust", "--alpha", "0.05", "--k", "20", "--method", "sidak"], [], ["rates"]),
    (["table1", "--t", "20", "--h", "4", "--alpha", "0.05"], [], ["rates"]),
    (["classify", "--input", "{scenario}"], [], ["battery", "families", "fileio"]),
    (["decide", "--battery", "{battery}", "--mode", "disjunction", "--alpha", "0.05", "--method", "holm"], ["numpy"],
     ["battery", "decisions", "rates"]),
    (["power", "--alpha", "0.05", "--delta", "0.5", "--n", "64", "--k", "3", "--conjunction"], [], ["normal", "rates"]),
    (["simulate", "--scenario", "{scenario}", "--threads", "1"], ["numpy", "scipy"],
     ["battery", "decisions", "families", "fileio", "normal", "rates", "rng", "simulate"]),
    (["simulate", "--scenario", "{headline}", "--threads", "1"], ["numpy"],
     ["battery", "decisions", "families", "fileio", "normal", "rates", "rng", "simulate"]),
]


def command_id(argv: list[str]) -> str:
    return argv[0] + ("-headline" if "{headline}" in argv else "")


#: subcommand -> the standard-library modules it must not load: dataclasses,
#: and inspect through it, cost a cold process milliseconds, and json is the
#: scenario reader's. numpy imports inspect itself, so decide may load it.
UNLOADED = {
    "rates": ["dataclasses", "inspect", "json"],
    "adjust": ["dataclasses", "inspect", "json"],
    "table1": ["dataclasses", "inspect", "json"],
    "power": ["dataclasses", "inspect", "json"],
    "decide": ["dataclasses", "json"],
}


@pytest.mark.parametrize("fmt", ["tsv", "pretty"])
@pytest.mark.parametrize("argv, heavy, modules", [pytest.param(*case, id=command_id(case[0])) for case in COMMANDS])
def test_subcommands_load_only_what_they_call(inputs, argv, heavy, modules, fmt):
    argv = [arg.format(**inputs) for arg in argv] + ["--format", fmt, "--out", inputs["out"]]
    assert loaded_by(argv) == (heavy, sorted(CLI + modules))


@pytest.mark.parametrize("argv", [pytest.param(case[0], id=case[0][0]) for case in COMMANDS if case[0][0] in UNLOADED])
def test_arithmetic_and_decide_load_no_dataclasses_or_json(inputs, argv):
    argv = [arg.format(**inputs) for arg in argv] + ["--format", "pretty", "--out", inputs["out"]]
    unloaded = UNLOADED[argv[0]]
    # modules the interpreter loaded at start-up do not count
    assert fresh(
        f"import sys\nbefore = set(sys.modules)\nfrom alphagate.cli import main\nassert main({argv!r}) == 0\n"
        f"print([m for m in {unloaded!r} if m in sys.modules and m not in before])"
    ) == "[]"


@pytest.mark.parametrize(
    "prelude",
    ["pass", "import alphagate.simulate", "from alphagate.simulate import Scenario", "import alphagate.rng"],
)
def test_package_simulate_is_the_function(prelude):
    assert fresh(f"{prelude}\nfrom alphagate import simulate\nprint(type(simulate).__name__)") == "function"


def test_star_import_binds_all_names():
    count = fresh(
        "from alphagate import *\nimport alphagate\n"
        "missing = [name for name in alphagate.__all__ if name not in globals()]\n"
        "assert not missing, missing\nprint(len(alphagate.__all__))"
    )
    assert count == "41"


def test_package_import_loads_neither():
    assert loaded("import alphagate") == ([], [])


def test_power_function_loads_neither():
    assert fresh(
        "import sys, alphagate\n"
        "assert 0 < alphagate.power_one_sided_z(0.05, 0.5, 64) < 1\n"
        f"print([m for m in {HEAVY!r} if m in sys.modules])"
    ) == "[]"


@pytest.mark.parametrize("module", ["alphagate.rng", "alphagate.simulate"])
def test_simulator_modules_load_no_scipy(module):
    assert loaded(f"import {module}")[0] == ["numpy"]


def test_headline_simulation_loads_no_scipy():
    # sim-indep's shape: k 20, all null, independent, one-sided, Sidak
    heavy, _ = loaded(
        "from alphagate.simulate import AdjustmentMethod, Design, Scenario, Sides, simulate\n"
        "s = Scenario(k=20, null_pattern=(True,) * 20, deltas=(0.0,) * 20, n=2, design=Design.independent(),\n"
        "             sides=Sides.ONE_SIDED, alpha_joint=0.05, method=AdjustmentMethod.SIDAK, reps=2**16, seed=1)\n"
        "assert 0.6 < simulate(s).fwer_hat < 0.7"
    )
    assert heavy == ["numpy"]
