"""Command-line surface: output formats, exit codes, determinism."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from alphagate import cli, simulate
from alphagate.cli import main
from alphagate.decisions import apply_bh, decide_conjunction, decide_disjunction, decide_individual, steps
from alphagate.families import AdjustmentMethod, Scenario, TestingMode, classify_testing_mode
from alphagate.fileio import load_classification_file, load_scenario_file, parse_battery_text
from alphagate.rates import (
    bonferroni_adjust,
    conjunction_power,
    conjunction_type2,
    error_rate_report,
    fwer_independent,
    per_family_rate,
    power_one_sided_z,
    sidak_adjust,
)


@pytest.fixture
def run(capsys):
    def _run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def write_scenario(tmp_path, *, k=8, reps=20_000, seed=1, method="sidak", name="scenario.json", **simulation):
    document = {
        "family": {
            "joint_id": "joint",
            "constituents": [f"t{i}" for i in range(1, k + 1)],
            "mode": "disjunction",
            "exchangeable": True,
            "independent": True,
        },
        "alpha": {"alpha_joint": 0.05, "method": method, "mode": "disjunction"},
        "simulation": {"n": 16, "reps": reps, "seed": seed, **simulation},
    }
    path = tmp_path / name
    path.write_text(json.dumps(document, indent=2), encoding="utf-8")
    return str(path)


class TestScalarCommands:
    def test_rates(self, run):
        code, out, _ = run(["rates", "--alpha", "0.05", "--k", "20"])
        assert code == 0
        assert out == "metric\tvalue\nfwer\t0.641514\nper_family_rate\t1.000000\n"

    def test_adjust_sidak(self, run):
        code, out, _ = run(["adjust", "--alpha", "0.05", "--k", "2", "--method", "sidak"])
        assert code == 0
        assert "alpha_per_test\t0.025321" in out

    def test_adjust_bonferroni_scientific_notation(self, run):
        code, out, _ = run(["adjust", "--alpha", "0.05", "--k", "167355", "--method", "bonferroni"])
        assert code == 0
        assert "alpha_per_test\t2.987661e-07" in out

    def test_precision_flag(self, run):
        code, out, _ = run(["rates", "--alpha", "0.05", "--k", "20", "--precision", "3"])
        assert code == 0
        assert "fwer\t0.642" in out

    def test_table1_both_columns(self, run):
        code, joint, _ = run(["table1", "--t", "20", "--h", "1", "--alpha", "0.05"])
        assert code == 0
        assert "tests_per_hypothesis\t20" in joint
        assert "per_family_rate\t1.000000" in joint
        assert "fwer\t0.641514" in joint
        code, individual, _ = run(["table1", "--t", "20", "--h", "20", "--alpha", "0.05"])
        assert code == 0
        assert "tests_per_hypothesis\t1" in individual
        assert "fwer\t0.050000" in individual

    def test_power(self, run):
        code, out, _ = run(["power", "--alpha", "0.05", "--delta", "0.5", "--n", "64"])
        assert code == 0
        assert "power_per_test\t0.881709" in out

    def test_power_conjunction(self, run):
        code, out, _ = run(
            ["power", "--alpha", "0.05", "--delta", "0.4396", "--n", "64", "--k", "2", "--conjunction"]
        )
        assert code == 0
        assert "conjunction_power\t0.64" in out
        assert "conjunction_type2\t0.3" in out

    def test_power_saturated(self, run):
        code, out, _ = run(["power", "--alpha", "0.05", "--delta", "50", "--n", "64", "--k", "3", "--precision", "17"])
        assert code == 0
        assert out == (
            "metric\tvalue\npower_per_test\t1.00000000000000000\n"
            "conjunction_power\t1.00000000000000000\nconjunction_type2\t0.00000000000000000\n"
        )

    def test_power_conjunction_requires_k(self, run):
        code, out, err = run(["power", "--alpha", "0.05", "--delta", "0.5", "--n", "64", "--conjunction"])
        assert code == 2
        assert out == ""
        assert "--conjunction requires --k" in err

    def test_pretty_format(self, run):
        code, out, _ = run(["rates", "--alpha", "0.05", "--k", "20", "--format", "pretty"])
        assert code == 0
        assert "(~0.642)" in out


class TestDecideCommand:
    def test_conjunction_two_jar(self, run, tmp_path):
        battery = tmp_path / "twojar.csv"
        battery.write_text("id,p\ngreen,0.030\nred,0.070\n", encoding="utf-8")
        code, out, _ = run(
            ["decide", "--battery", str(battery), "--mode", "conjunction", "--alpha", "0.05"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "row\tid\tp\tthreshold\tdecision"
        assert "test\tgreen\t0.030000\t0.050000\treject" in lines
        assert "test\tred\t0.070000\t0.050000\tretain" in lines
        assert "joint\t\t\t\tretain" in lines

    def test_disjunction_defaults_to_bonferroni_with_note(self, run, tmp_path):
        battery = tmp_path / "b.csv"
        battery.write_text("id,p\na,0.01\nb,0.04\n", encoding="utf-8")
        code, out, _ = run(
            ["decide", "--battery", str(battery), "--mode", "disjunction", "--alpha", "0.05"]
        )
        assert code == 0
        assert "note\tmethod-defaulted=bonferroni\t\t\t" in out
        assert "test\ta\t0.010000\t0.025000\treject" in out
        assert "joint\t\t\t\treject" in out
        assert "note\ttriggered-by=a\t\t\t" in out

    def test_bh_mode(self, run, tmp_path):
        battery = tmp_path / "b.csv"
        battery.write_text("id,p\na,0.01\nb,0.02\nc,0.04\nd,0.2\n", encoding="utf-8")
        code, out, _ = run(["decide", "--battery", str(battery), "--mode", "bh", "--alpha", "0.05"])
        assert code == 0
        assert "joint\t\t\t\tnot_applicable" in out
        assert "note\tfdr-control-not-fwer\t\t\t" in out
        assert "test\ta\t0.010000\t0.012500\treject" in out
        assert "test\tb\t0.020000\t0.025000\treject" in out
        assert "test\tc\t0.040000\t0.037500\tretain" in out

    @pytest.mark.parametrize("mode", [["--mode", "bh"], ["--mode", "disjunction", "--method", "hochberg"]])
    def test_largest_p_at_alpha_rejected_by_bh_and_hochberg(self, run, tmp_path, mode):
        # 3 * q / 3 rounds one double below this q; BH's last step is q itself
        battery = tmp_path / "b.csv"
        battery.write_text("id,p\na,0\nb,0\nc,0.365580679783838\n", encoding="utf-8")
        code, out, _ = run(["decide", "--battery", str(battery), "--alpha", "0.365580679783838",
                            "--precision", "17", *mode])
        assert code == 0
        assert "test\tc\t0.36558067978383801\t0.36558067978383801\treject" in out

    def test_method_rejected_outside_disjunction(self, run, tmp_path):
        battery = tmp_path / "b.csv"
        battery.write_text("id,p\na,0.01\n", encoding="utf-8")
        code, _, err = run(
            [
                "decide",
                "--battery",
                str(battery),
                "--mode",
                "conjunction",
                "--alpha",
                "0.05",
                "--method",
                "holm",
            ]
        )
        assert code == 2
        assert "--method" in err


    def test_tab_in_an_id_is_a_validation_failure(self, run, tmp_path):
        battery = tmp_path / "b.csv"
        battery.write_text('id,p\n"a\tb",0.01\n', encoding="utf-8")
        code, out, err = run(["decide", "--battery", str(battery), "--mode", "individual", "--alpha", "0.05"])
        assert code == 2
        assert out == ""
        assert f"{battery}:2: hypothesis id 'a\\tb' holds a tab or a line break" in err

    def test_failed_validation_leaves_out_file_and_stdout_untouched(self, run, tmp_path):
        battery = tmp_path / "b.csv"
        battery.write_text("id,p\n" + "".join(f"t{i},0.5\n" for i in range(100)) + "t7,0.5\n", encoding="utf-8")
        target = tmp_path / "out.tsv"
        target.write_bytes(b"earlier results\n")
        code, out, err = run(["decide", "--battery", str(battery), "--mode", "bh", "--alpha", "0.05", "--out", str(target)])
        assert code == 2
        assert out == ""
        assert f"{battery}:102: duplicate hypothesis id 't7'" in err
        assert target.read_bytes() == b"earlier results\n"

    @pytest.mark.parametrize("command", [
        ["decide", "--battery", "{battery}", "--mode", "bh", "--alpha", "0.05"],
        ["rates", "--alpha", "0.05", "--k", "20"],
    ], ids=lambda command: command[0])
    def test_pretty_sizing_failure_leaves_out_file_untouched(self, run, tmp_path, monkeypatch, command):
        battery = tmp_path / "b.csv"
        battery.write_text("id,p\na,0.01\nb,0.5\n", encoding="utf-8")
        target = tmp_path / "out.txt"
        target.write_bytes(b"earlier results\n")

        def fail(*_):
            raise MemoryError("no room")

        monkeypatch.setattr(cli, "_real_cells", fail)
        argv = [arg.format(battery=battery) for arg in command] + ["--format", "pretty"]
        code, out, err = run([*argv, "--out", str(target)])
        assert code == 3
        assert out == ""
        assert "internal error: MemoryError: no room" in err
        assert target.read_bytes() == b"earlier results\n"


def reference_cell(value, precision):
    """The per-cell rule of the renderer: fixed-point, except nonzero
    magnitudes below 1e-4 in scientific notation."""
    return format(value, f".{precision}e" if value != 0.0 and abs(value) < 1e-4 else f".{precision}f")


def reference_table(header, rows, precision, fmt, notes=()):
    """A table rendered cell by cell in plain Python: the header, ``rows``,
    then the ``notes`` rows, which do not size the pretty columns."""

    def cell(value):
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            text = reference_cell(value, precision)
            return f"{text} (~{value:.3g})" if fmt == "pretty" else text
        return str(value)

    cells = [[cell(v) for v in row] for row in [*rows, *notes]]
    if fmt == "tsv":
        return "".join("\t".join(row) + "\n" for row in [header, *cells])
    widths = [max(map(len, column)) for column in zip(header, *cells[: len(rows)])]
    lines = [header, ["-" * w for w in widths], *cells]
    return "".join("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() + "\n" for line in lines)


def reference_decide(battery, decision, notes, precision, fmt):
    """decide's table by :func:`reference_table`."""
    rows = [
        ["test", hid, p, t, decision.per_hypothesis[hid].value]
        for (hid, p), t in zip(battery.entries, decision.thresholds_used.values())
    ]
    rows.append(["joint", "", "", "", decision.joint.value])
    notes = [["note", note, "", "", ""] for note in (*decision.notes, *notes)]
    return reference_table(["row", "id", "p", "threshold", "decision"], rows, precision, fmt, notes)


#: (decide arguments, decision rule, notes the CLI adds)
DECIDE_MODES = [
    (["--mode", "individual"], lambda b, a: decide_individual(b, a), ()),
    (["--mode", "conjunction"], lambda b, a: decide_conjunction(b, a), ()),
    (["--mode", "bh"], lambda b, a: apply_bh(b, a), ()),
    (["--mode", "disjunction"], lambda b, a: decide_disjunction(b, a, AdjustmentMethod.BONFERRONI),
     ("method-defaulted=bonferroni",)),
] + [
    (["--mode", "disjunction", "--method", m.value], lambda b, a, m=m: decide_disjunction(b, a, m), ())
    for m in (AdjustmentMethod.BONFERRONI, AdjustmentMethod.SIDAK, AdjustmentMethod.HOLM, AdjustmentMethod.HOCHBERG)
]

#: the reals at the edges of the rule: zero, a subnormal, 1e-4 and the
#: double below it, one, negative zero
EDGE_VALUES = [0.0, 5e-310, 1e-4, math.nextafter(1e-4, 0.0), 1.0, -0.0]
#: every method's thresholds at k = 20,000, at the benchmark's alpha
K20000_THRESHOLDS = np.unique(np.concatenate([steps(m, 0.05, 20_000) for m in AdjustmentMethod]))


class TestDecideRender:
    @pytest.mark.parametrize("pretty", [False, True])
    @pytest.mark.parametrize("precision", range(cli.MAX_PRECISION + 1))
    def test_real_cells_follow_the_per_cell_rule(self, precision, pretty):
        values = np.concatenate([EDGE_VALUES, K20000_THRESHOLDS])
        cell = "{} (~{:.3g})" if pretty else "{}"
        expected = [cell.format(reference_cell(v, precision), v) for v in values.tolist()]
        assert cli._real_cells(values, precision, pretty) == expected
        assert cli._real_cells(values.tolist(), precision, pretty) == expected

    @pytest.mark.parametrize("fmt", ["tsv", "pretty"])
    @pytest.mark.parametrize("precision", range(cli.MAX_PRECISION + 1))
    def test_blocks_equal_the_reference(self, run, tmp_path, monkeypatch, precision, fmt):
        # 7-row blocks: a boundary falls mid-battery, between the edge values
        monkeypatch.setattr(cli, "BLOCK_ROWS", 7)
        rng = np.random.default_rng(precision)
        p = np.concatenate([EDGE_VALUES[:3], rng.choice(K20000_THRESHOLDS, 20), EDGE_VALUES[3:], rng.random(9)])
        text = "id,p\n" + "".join(f"t{i:0{i % 4}d},{v!r}\n" for i, v in enumerate(p.tolist()))
        path = tmp_path / "b.csv"
        path.write_text(text, encoding="utf-8")
        battery = parse_battery_text(text)
        for args, rule, notes in DECIDE_MODES:
            code, out, _ = run(["decide", "--battery", str(path), "--alpha", "0.05", "--precision", str(precision),
                                "--format", fmt, *args])
            assert code == 0
            assert out == reference_decide(battery, rule(battery, 0.05), notes, precision, fmt), args

    @pytest.mark.parametrize("fmt", ["tsv", "pretty"])
    def test_k20000_thresholds_equal_the_reference(self, run, tmp_path, fmt):
        rng = np.random.default_rng(7)
        p = rng.permutation(np.concatenate([EDGE_VALUES, rng.choice(K20000_THRESHOLDS, 20_000 - len(EDGE_VALUES))]))
        text = "id,p\n" + "".join(f"h{i},{v!r}\n" for i, v in enumerate(p.tolist()))
        path = tmp_path / "b.csv"
        path.write_text(text, encoding="utf-8")
        battery = parse_battery_text(text)
        for args, rule, notes in DECIDE_MODES[1:3] + DECIDE_MODES[4:]:  # one rule per threshold sequence
            code, out, _ = run(["decide", "--battery", str(path), "--alpha", "0.05", "--precision", "17",
                                "--format", fmt, *args])
            assert code == 0
            assert out == reference_decide(battery, rule(battery, 0.05), notes, 17, fmt), args


    def test_pretty_row_length_does_not_grow_with_rejections(self, run, tmp_path):
        # the same cell widths, with 1 or 199 rejections: only the triggered-by note grows
        lengths = []
        for rejected in (1, 199):
            p = ["0.0001"] * rejected + ["0.1"] * (200 - rejected)
            path = tmp_path / f"b{rejected}.csv"
            path.write_text("id,p\n" + "".join(f"h{i:03d},{v}\n" for i, v in enumerate(p)), encoding="utf-8")
            code, out, _ = run(["decide", "--battery", str(path), "--mode", "disjunction", "--method", "holm",
                                "--alpha", "0.05", "--format", "pretty"])
            assert code == 0
            lines = out.splitlines()
            assert lines[-1] == "note   triggered-by=" + ",".join(f"h{i:03d}" for i in range(rejected))
            lengths.append({len(line) for line in lines if line.startswith("test")})
        assert lengths[0] == lengths[1] and len(lengths[0]) == 1


def reference_rows(argv):
    """The rows of a non-decide subcommand's table, from the library."""
    command, options = argv[0], dict(zip(argv[1::2], argv[2::2]))
    alpha = float(options.get("--alpha", "nan"))
    if command == "rates":
        k = int(options["--k"])
        return [["fwer", fwer_independent(alpha, k)], ["per_family_rate", per_family_rate(alpha, k)]]
    if command == "adjust":
        adjust = bonferroni_adjust if options["--method"] == "bonferroni" else sidak_adjust
        return [["alpha_per_test", adjust(alpha, int(options["--k"]))]]
    if command == "table1":
        r = error_rate_report(int(options["--t"]), int(options["--h"]), alpha)
        return [["tests", r.t], ["primary_hypotheses", r.h], ["tests_per_hypothesis", r.k],
                ["alpha_per_test", r.alpha_per_test], ["per_family_rate", r.per_family_rate], ["fwer", r.fwer]]
    if command == "power":
        power = power_one_sided_z(alpha, float(options["--delta"]), int(options["--n"]))
        k = int(options["--k"])
        return [["power_per_test", power], ["conjunction_power", conjunction_power(power, k)],
                ["conjunction_type2", conjunction_type2(1.0 - power, k)]]
    if command == "classify":
        rec = classify_testing_mode(load_classification_file(options["--input"]))
        return [["mode", rec.mode.value if rec.mode is not None else "not_applicable", ""],
                ["adjust_alpha", rec.adjust_alpha, ""], *(["rationale", e.code, e.text] for e in rec.rationale)]
    est = simulate(load_scenario_file(options["--scenario"]).scenario, threads=1)
    return [
        ["reps", est.reps, "", ""],
        ["seed", est.seed_echo, "", ""],
        ["fwer", est.fwer_hat, *est.fwer_ci],
        ["mean_false_positives", est.mean_false_positives, "", ""],
        ["fdr", est.fdr_hat, "", ""],
        *([f"joint_reject_{mode.value}", est.joint_reject_rate[mode], "", ""] for mode in TestingMode),
        *([f"per_test_rejection_{i}", rate, "", ""] for i, rate in enumerate(est.per_test_rejection, start=1)),
    ]


class TestEveryCommandRender:
    @pytest.mark.parametrize("fmt", ["tsv", "pretty"])
    @pytest.mark.parametrize("precision", [0, 6, 17])
    def test_tables_equal_the_reference(self, run, tmp_path, monkeypatch, precision, fmt):
        # 7-row blocks: simulate's 20 per-test rows span three
        monkeypatch.setattr(cli, "BLOCK_ROWS", 7)
        monkeypatch.delenv("ALPHAGATE_SEED", raising=False)
        answers = tmp_path / "answers.json"
        answers.write_text(json.dumps({"statistical_claim": True, "joint_inference": True,
                                       "all_constituents_required": True, "exchangeable": False,
                                       "family_theoretically_relevant": True}), encoding="utf-8")
        nulls = [i % 3 != 0 for i in range(20)]
        scenario = write_scenario(tmp_path, k=20, reps=3_000, null_pattern=nulls,
                                  deltas=[0.0 if null else 0.6 for null in nulls])
        commands = [
            ["rates", "--alpha", "0.05", "--k", "20"],
            ["rates", "--alpha", "1e-06", "--k", "3"],
            ["adjust", "--alpha", "0.05", "--k", "2", "--method", "sidak"],
            ["adjust", "--alpha", "0.05", "--k", "167355", "--method", "bonferroni"],
            ["table1", "--t", "20", "--h", "4", "--alpha", "0.05"],
            ["power", "--alpha", "0.05", "--delta", "0.4396", "--n", "64", "--k", "2", "--conjunction"],
            ["power", "--alpha", "1e-09", "--delta", "0.1", "--n", "2", "--k", "3"],
            ["classify", "--input", str(answers)],
            ["simulate", "--scenario", scenario, "--threads", "1"],
        ]
        header = {"classify": ["field", "value", "detail"], "simulate": ["metric", "value", "ci95_low", "ci95_high"]}
        for argv in commands:
            code, out, _ = run([*argv, "--precision", str(precision), "--format", fmt])
            assert code == 0
            expected = reference_table(header.get(argv[0], ["metric", "value"]), reference_rows(argv), precision, fmt)
            assert out == expected, argv


class TestDecideMemory:
    def test_bh_out_peak(self, tmp_path):
        # 1e5 rows: about 26 MiB by column; a renderer holding an object per row peaks near 68 MiB
        battery = tmp_path / "b.csv"
        battery.write_text("id,p\n" + "".join(f"h{i},{i * 0.6180339887498949 % 1.0!r}\n" for i in range(100_000)),
                           encoding="utf-8")
        argv = ["decide", "--battery", str(battery), "--mode", "bh", "--alpha", "0.05", "--out", str(tmp_path / "o.tsv")]
        assert main(argv) == 0  # the first call loads numpy
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


class TestClassifyCommand:
    def test_recommendation_output(self, run, tmp_path):
        answers = tmp_path / "answers.json"
        answers.write_text(
            json.dumps(
                {
                    "statistical_claim": True,
                    "joint_inference": True,
                    "all_constituents_required": False,
                    "exchangeable": True,
                    "family_theoretically_relevant": True,
                }
            ),
            encoding="utf-8",
        )
        code, out, _ = run(["classify", "--input", str(answers)])
        assert code == 0
        assert "mode\tdisjunction\t" in out
        assert "adjust_alpha\ttrue\t" in out
        assert "rationale\tdisjunction-any-suffices" in out


class TestSimulateCommand:
    def test_byte_identical_runs_and_thread_counts(self, run, tmp_path):
        path = write_scenario(tmp_path)
        outputs = set()
        for argv in (
            ["simulate", "--scenario", path, "--threads", "1"],
            ["simulate", "--scenario", path, "--threads", "1"],
            ["simulate", "--scenario", path, "--threads", "4"],
        ):
            code, out, err = run(argv)
            assert code == 0
            assert "simulated" in err  # diagnostics stay on stderr
            outputs.add(out)
        assert len(outputs) == 1

    def test_seed_flag_beats_environment(self, run, tmp_path, monkeypatch):
        path = write_scenario(tmp_path, reps=5_000)
        monkeypatch.setenv("ALPHAGATE_SEED", "7")
        code, env_out, _ = run(["simulate", "--scenario", path, "--threads", "1"])
        assert code == 0
        assert "seed\t7" in env_out
        code, flag_out, _ = run(["simulate", "--scenario", path, "--threads", "1", "--seed", "3"])
        assert code == 0
        assert "seed\t3" in flag_out

    def test_overrides_build_the_scenario_once(self, run, tmp_path, monkeypatch):
        # --reps and --seed replace two fields; the k-entry columns are not
        # checked again
        path = write_scenario(tmp_path, reps=5_000)
        built = []
        check = Scenario.__post_init__
        monkeypatch.setattr(Scenario, "__post_init__", lambda self: built.append(check(self)))
        code, out, _ = run(["simulate", "--scenario", path, "--threads", "1", "--reps", "300", "--seed", "3"])
        assert code == 0 and "reps\t300\t\t\nseed\t3\t\t\n" in out
        assert len(built) == 1

    def test_environment_seed_must_be_integer(self, run, tmp_path, monkeypatch):
        path = write_scenario(tmp_path, reps=5_000)
        monkeypatch.setenv("ALPHAGATE_SEED", "not-a-number")
        code, out, err = run(["simulate", "--scenario", path])
        assert code == 2
        assert out == ""
        assert "ALPHAGATE_SEED" in err

    def test_reps_cap(self, run, tmp_path):
        path = write_scenario(tmp_path)
        code, out, err = run(["simulate", "--scenario", path, "--reps", "100000001"])
        assert code == 2
        assert out == ""
        assert "reps" in err

    def test_threads_bound_is_a_validation_failure(self, run, tmp_path):
        path = write_scenario(tmp_path, reps=1_000)
        code, out, err = run(["simulate", "--scenario", path, "--threads", "1025"])
        assert code == 2
        assert out == ""
        assert "threads" in err
        code, _, _ = run(["simulate", "--scenario", path, "--threads", "1024"])
        assert code == 0

    def test_out_file(self, run, tmp_path):
        path = write_scenario(tmp_path, reps=5_000)
        target = tmp_path / "estimates.tsv"
        code, out, _ = run(["simulate", "--scenario", path, "--out", str(target), "--threads", "1"])
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith("metric\tvalue")


class TestExitCodes:
    def test_usage_error_is_one(self, run):
        code, _, _ = run(["rates", "--alpha", "0.05"])  # missing --k
        assert code == 1
        code, _, _ = run(["nonsense"])
        assert code == 1

    def test_validation_error_is_two_with_clean_stdout(self, run):
        code, out, err = run(["rates", "--alpha", "1.5", "--k", "3"])
        assert code == 2
        assert out == ""
        assert "alpha" in err

    def test_missing_file_is_two(self, run):
        code, _, err = run(["decide", "--battery", "/no/such.csv", "--mode", "individual", "--alpha", "0.05"])
        assert code == 2
        assert "/no/such.csv" in err

    def test_invalid_battery_names_row(self, run, tmp_path):
        battery = tmp_path / "bad.csv"
        battery.write_text("id,p\na,0.05\nb,2.0\n", encoding="utf-8")
        code, out, err = run(["decide", "--battery", str(battery), "--mode", "individual", "--alpha", "0.05"])
        assert code == 2
        assert out == ""
        assert f"{battery}:3" in err

    def test_precision_out_of_range_names_the_flag(self, run):
        for value in ("-1", "18", "100000", "six"):
            code, out, err = run(["rates", "--alpha", "0.05", "--k", "3", "--precision", value])
            assert code == 1
            assert out == ""
            assert "--precision" in err and "[0, 17]" in err

    def test_non_utf8_battery_names_file_and_offset(self, run, tmp_path):
        battery = tmp_path / "latin1.csv"
        battery.write_bytes(b"id,p\nt1,0.01\n\xe9t2,0.2\n")
        code, out, err = run(["decide", "--battery", str(battery), "--mode", "individual", "--alpha", "0.05"])
        assert code == 2
        assert out == ""
        assert str(battery) in err
        assert "byte offset 13" in err

    def test_deeply_nested_scenario_is_two(self, run, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, out, err = run(["simulate", "--scenario", str(path)])
        assert code == 2
        assert out == ""
        assert "nests too deeply" in err

    def test_power_k_checked_when_power_saturates(self, run):
        for delta in ("100", "0.5"):
            for k in ("0", "-3"):
                code, out, err = run(
                    ["power", "--alpha", "0.05", "--delta", delta, "--n", "100", "--k", k, "--conjunction"]
                )
                assert code == 2
                assert out == ""
                assert f"k must be an integer in [1, 10000000], got {k}" in err

    def test_power_huge_n_is_two(self, run):
        code, out, err = run(["power", "--alpha", "0.05", "--delta", "0.5", "--n", "1" + "0" * 400])
        assert code == 2
        assert out == ""
        assert "n must be an integer in [2, 2**53]" in err

    def test_scenario_huge_n_is_two(self, run, tmp_path):
        code, out, err = run(["simulate", "--scenario", write_scenario(tmp_path, k=2, reps=100, n=10**400)])
        assert code == 2
        assert out == ""
        assert "n must be an integer in [2, 2**53]" in err
        assert "internal error" not in err

    def test_scenario_integer_too_long_names_the_file(self, run, tmp_path):
        path = write_scenario(tmp_path, k=2, reps=100, n=0)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace('"n": 0', '"n": 1' + "0" * 5000))
        code, out, err = run(["simulate", "--scenario", path])
        assert code == 2
        assert out == ""
        assert err.startswith(f"alphagate: error: {path}: ")

    def test_scenario_infinite_shift_is_two(self, run, tmp_path):
        path = write_scenario(tmp_path, k=2, reps=100, n=10, null_pattern=[True, False], deltas=[0, 1e308])
        code, out, err = run(["simulate", "--scenario", path])
        assert code == 2
        assert out == ""
        assert "deltas[1] * sqrt(n/2) must be finite" in err

    def test_help_exits_zero(self, run):
        code, _, _ = run(["--help"])
        assert code == 0
