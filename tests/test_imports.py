"""Import weight: numpy and scipy load only where they are called, and the
package attribute ``simulate`` stays the function. Each case runs in a fresh
interpreter, since this process has long imported everything."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import alphagate

SRC = str(Path(alphagate.__file__).resolve().parents[1])
HEAVY = ("numpy", "scipy")


def fresh(code: str) -> str:
    """The last stdout line of ``code`` run by a new interpreter on this package."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def loaded_by(argv: list[str]) -> list[str]:
    return json.loads(fresh(
        "import json, sys\n"
        "from alphagate.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    ))


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
    battery = tmp_path / "battery.csv"
    battery.write_text("id,p\na,0.01\nb,0.2\n", encoding="utf-8")
    return {"scenario": str(scenario), "battery": str(battery), "out": str(tmp_path / "out.tsv")}


#: argv (with {scenario}/{battery} filled in) -> the heavy libraries it loads
COMMANDS = [
    (["rates", "--alpha", "0.05", "--k", "20"], []),
    (["adjust", "--alpha", "0.05", "--k", "20", "--method", "sidak"], []),
    (["table1", "--t", "20", "--h", "4", "--alpha", "0.05"], []),
    (["classify", "--input", "{scenario}"], []),
    (["decide", "--battery", "{battery}", "--mode", "disjunction", "--alpha", "0.05", "--method", "holm"], ["numpy"]),
    (["power", "--alpha", "0.05", "--delta", "0.5", "--n", "64", "--k", "3", "--conjunction"], []),
    (["simulate", "--scenario", "{scenario}", "--threads", "1"], ["numpy", "scipy"]),
]


@pytest.mark.parametrize("fmt", ["tsv", "pretty"])
@pytest.mark.parametrize("argv, heavy", [pytest.param(*case, id=case[0][0]) for case in COMMANDS])
def test_subcommands_load_only_what_they_call(inputs, argv, heavy, fmt):
    argv = [arg.format(**inputs) for arg in argv] + ["--format", fmt, "--out", inputs["out"]]
    assert loaded_by(argv) == heavy


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
    assert fresh(f"import sys, alphagate\nprint([m for m in {HEAVY!r} if m in sys.modules])") == "[]"


def test_power_function_loads_neither():
    assert fresh(
        "import sys, alphagate\n"
        "assert 0 < alphagate.power_one_sided_z(0.05, 0.5, 64) < 1\n"
        f"print([m for m in {HEAVY!r} if m in sys.modules])"
    ) == "[]"
