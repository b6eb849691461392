"""Scenario JSON and battery CSV parsing, including error anchoring."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphagate import cli, fileio
from alphagate.battery import _battery_from_rows, _csv_rows, load_battery_file, parse_battery_text
from alphagate.errors import FileFormatError
from alphagate.families import AdjustmentMethod, TestingMode
from alphagate.fileio import parse_classification_text, parse_scenario_text
from alphagate.simulate import Sides


def doc(**overrides):
    base = {
        "family": {
            "joint_id": "jelly-beans",
            "constituents": ["green", "red"],
            "mode": "disjunction",
            "exchangeable": True,
            "independent": True,
        },
        "alpha": {"alpha_joint": 0.05, "method": "sidak", "mode": "disjunction"},
    }
    base.update(overrides)
    return base


def render(document):
    return json.dumps(document, indent=2)


class TestScenarioDocument:
    def test_minimal_document(self):
        parsed = parse_scenario_text(render(doc()))
        assert parsed.family.k == 2
        assert parsed.family.mode is TestingMode.DISJUNCTION
        assert parsed.alpha.method is AdjustmentMethod.SIDAK
        assert parsed.scenario is None
        assert parsed.classification is None

    def test_simulation_defaults(self):
        parsed = parse_scenario_text(render(doc(simulation={"n": 16})))
        s = parsed.scenario
        assert s.k == 2
        assert s.null_pattern == (True, True)
        assert s.deltas == (0.0, 0.0)
        assert s.sides is Sides.ONE_SIDED
        assert s.design.kind == "independent"
        assert s.reps == 100_000 and s.seed == 0
        assert s.method is AdjustmentMethod.SIDAK
        assert s.alpha_joint == 0.05

    def test_unknown_key_rejected_with_line_anchor(self):
        text = render(doc(simulation={"n": 16, "bogus_key": 3}))
        with pytest.raises(FileFormatError) as err:
            parse_scenario_text(text, source="scn.json")
        message = str(err.value)
        assert "bogus_key" in message
        expected_line = next(
            i for i, line in enumerate(text.splitlines(), start=1) if '"bogus_key"' in line
        )
        assert f"scn.json:{expected_line}:" in message

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(FileFormatError, match="extras"):
            parse_scenario_text(render(doc(extras={})))

    def test_missing_required_section(self):
        with pytest.raises(FileFormatError, match="alpha"):
            parse_scenario_text(json.dumps({"family": doc()["family"]}))

    def test_missing_family_key(self):
        document = doc()
        del document["family"]["exchangeable"]
        with pytest.raises(FileFormatError, match="exchangeable"):
            parse_scenario_text(render(document))

    def test_alpha_mode_must_match_family(self):
        document = doc(alpha={"alpha_joint": 0.05, "method": "none", "mode": "conjunction"})
        with pytest.raises(FileFormatError, match="must match family.mode"):
            parse_scenario_text(render(document))

    def test_alpha_invariants_enforced(self):
        document = doc(alpha={"alpha_joint": 0.05, "method": "none", "mode": "disjunction"})
        with pytest.raises(FileFormatError, match="adjustment method"):
            parse_scenario_text(render(document))

    def test_conjunction_family_falls_back_to_sidak_when_independent(self):
        document = doc(
            alpha={"alpha_joint": 0.05, "method": "none", "mode": "conjunction"},
            simulation={"n": 8},
        )
        document["family"]["mode"] = "conjunction"
        parsed = parse_scenario_text(render(document))
        assert parsed.scenario.method is AdjustmentMethod.SIDAK

    def test_fallback_is_bonferroni_under_declared_dependence(self):
        document = doc(
            alpha={"alpha_joint": 0.05, "method": "none", "mode": "conjunction"},
            simulation={"n": 8},
        )
        document["family"]["mode"] = "conjunction"
        document["family"]["independent"] = False
        parsed = parse_scenario_text(render(document))
        assert parsed.scenario.method is AdjustmentMethod.BONFERRONI

    def test_bh_rejected_for_simulation(self):
        document = doc(
            alpha={"alpha_joint": 0.05, "method": "bh", "mode": "disjunction"},
            simulation={"n": 8},
        )
        with pytest.raises(FileFormatError, match="false discovery rate"):
            parse_scenario_text(render(document))

    def test_bh_rejected_without_simulation(self):
        # the alpha section alone: disjunction testing needs a FWER method
        document = doc(alpha={"alpha_joint": 0.05, "method": "bh", "mode": "disjunction"})
        with pytest.raises(FileFormatError, match="alpha: method 'bh' controls the false discovery rate"):
            parse_scenario_text(render(document))

    def test_k_must_match_family(self):
        with pytest.raises(FileFormatError, match="constituent count"):
            parse_scenario_text(render(doc(simulation={"k": 5, "n": 8})))

    def test_explicit_design_object(self):
        document = doc(simulation={"n": 8, "design": {"kind": "equicorrelated", "rho": 0.5}})
        parsed = parse_scenario_text(render(document))
        assert parsed.scenario.design.kind == "equicorrelated"
        assert parsed.scenario.design.rho == 0.5

    def test_design_string_shorthand(self):
        document = doc(simulation={"n": 8, "design": "shared_control"})
        assert parse_scenario_text(render(document)).scenario.design.kind == "shared_control"

    def test_equicorrelated_needs_rho(self):
        document = doc(simulation={"n": 8, "design": "equicorrelated"})
        with pytest.raises(FileFormatError, match="rho"):
            parse_scenario_text(render(document))

    @pytest.mark.parametrize("rho", [[0.5], "0.5"])
    def test_rho_must_be_a_number(self, rho):
        text = render(doc(simulation={"n": 8, "design": {"kind": "equicorrelated", "rho": rho}}))
        line = next(i for i, row in enumerate(text.splitlines(), start=1) if '"rho"' in row)
        with pytest.raises(FileFormatError) as err:
            parse_scenario_text(text, source="scn.json")
        assert str(err.value) == f"scn.json:{line}: design.rho must be a number, got {rho!r}"

    def test_delta_null_contradiction_caught(self):
        document = doc(
            simulation={"n": 8, "null_pattern": [True, True], "deltas": [0.0, 0.4]}
        )
        with pytest.raises(FileFormatError, match="null"):
            parse_scenario_text(render(document))

    def test_invalid_json_carries_line(self):
        with pytest.raises(FileFormatError, match="not valid JSON"):
            parse_scenario_text("{\n  broken\n}", source="bad.json")

    def test_wrong_type_for_boolean(self):
        document = doc()
        document["family"]["exchangeable"] = "yes"
        with pytest.raises(FileFormatError, match="boolean"):
            parse_scenario_text(render(document))

    def test_field_error_carries_one_location_prefix(self):
        text = render(doc(simulation={"n": float("nan")}))
        with pytest.raises(FileFormatError) as info:
            parse_scenario_text(text, source="s.json")
        message = str(info.value)
        assert message.startswith("s.json:")
        assert "simulation.n must be an integer, got nan" in message
        assert message.count("s.json") == 1

    def test_deep_nesting_is_a_format_error(self):
        deep = '{"family": ' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(FileFormatError, match="nests too deeply"):
            parse_scenario_text(deep, source="deep.json")

    def test_family_structure_enforced_at_parse(self):
        duplicated = doc()
        duplicated["family"]["constituents"] = ["green", "green"]
        with pytest.raises(FileFormatError, match="more than once"):
            parse_scenario_text(render(duplicated))
        empty = doc()
        empty["family"]["constituents"] = []
        with pytest.raises(FileFormatError, match="no constituent"):
            parse_scenario_text(render(empty))


class TestClassificationDocument:
    ANSWERS = {
        "statistical_claim": True,
        "joint_inference": True,
        "all_constituents_required": False,
        "exchangeable": True,
        "family_theoretically_relevant": True,
    }

    def test_bare_object(self):
        parsed = parse_classification_text(json.dumps(self.ANSWERS))
        assert parsed.statistical_claim is True
        assert parsed.all_constituents_required is False

    def test_embedded_in_scenario_document(self):
        parsed = parse_classification_text(render(doc(classification=self.ANSWERS)))
        assert parsed.joint_inference is True

    def test_missing_answer(self):
        incomplete = dict(self.ANSWERS)
        del incomplete["exchangeable"]
        with pytest.raises(FileFormatError, match="exchangeable"):
            parse_classification_text(json.dumps(incomplete))

    def test_scenario_document_without_classification(self):
        with pytest.raises(FileFormatError, match="no classification section"):
            parse_classification_text(render(doc()))


def full_doc():
    """A valid document with every section and every key."""
    return doc(
        simulation={
            "k": 2,
            "null_pattern": [True, False],
            "deltas": [0.0, 0.5],
            "n": 16,
            "design": {"kind": "equicorrelated", "rho": 0.3},
            "sides": "two_sided",
            "reps": 1000,
            "seed": 7,
        },
        classification=dict(TestClassificationDocument.ANSWERS),
    )


def section_of(document, path):
    """The object at ``path`` ("" for the document itself, "design" for the
    simulation's design object)."""
    if path == "":
        return document
    if path == "design":
        return document["simulation"]["design"]
    return document[path]


def line_of(text, key, section=""):
    """The first line mentioning ``"key"`` at or after the line of ``"section"``."""
    lines = text.splitlines()
    start = next(i for i, row in enumerate(lines) if f'"{section}"' in row) if section else 0
    return next(i for i, row in enumerate(lines[start:], start=start + 1) if f'"{key}"' in row)


DROP = object()


def edited(document, path, key, value):
    """``document`` with ``key`` of section ``path`` set to ``value``, or
    removed if ``value`` is DROP."""
    section = section_of(document, path)
    if value is DROP:
        del section[key]
    else:
        section[key] = value
    return document

FAMILY_KEYS = "constituents, exchangeable, independent, joint_id, mode"
CLASSIFICATION_KEYS = "all_constituents_required, exchangeable, family_theoretically_relevant, joint_inference, statistical_claim"
MODES = "individual, disjunction, conjunction"


class TestScenarioMessages:
    """The full ``path:line: message`` of every key of every section given a
    value of the wrong JSON kind, of every required key removed, and of a
    stray key in each section. ``anchor`` is the (section, key) whose line
    the message names, or None for no line."""

    ROWS = [
        # each section of the wrong kind
        ("", "family", [], "family must be a JSON object", ("", "family")),
        ("", "alpha", "x", "alpha must be a JSON object", ("", "alpha")),
        ("", "simulation", 1, "simulation must be a JSON object", ("", "simulation")),
        ("", "classification", None, "classification must be a JSON object", ("", "classification")),
        # each key of the wrong kind
        ("family", "joint_id", 5, "family: joint_id must be a non-empty string, got 5", ("family", "joint_id")),
        ("family", "constituents", "green", "family.constituents must be a list of strings", ("family", "constituents")),
        ("family", "mode", 1, f"family.mode must be one of: {MODES}; got 1", ("family", "mode")),
        ("family", "exchangeable", "yes", "family.exchangeable must be a boolean, got 'yes'", ("family", "exchangeable")),
        ("family", "independent", 0, "family.independent must be a boolean, got 0", ("family", "independent")),
        ("alpha", "alpha_joint", "0.05", "alpha.alpha_joint must be a number, got '0.05'", ("alpha", "alpha_joint")),
        ("alpha", "method", None,
         "alpha.method must be one of: none, bonferroni, sidak, holm, hochberg, bh; got None", ("alpha", "method")),
        ("alpha", "mode", ["disjunction"], f"alpha.mode must be one of: {MODES}; got ['disjunction']", ("alpha", "mode")),
        ("simulation", "k", 2.0, "simulation.k must be an integer, got 2.0", ("simulation", "k")),
        ("simulation", "null_pattern", [1, 0], "simulation.null_pattern must be a list of booleans",
         ("simulation", "null_pattern")),
        ("simulation", "deltas", ["0", "0.5"], "simulation.deltas must be a list of numbers", ("simulation", "deltas")),
        ("simulation", "n", "16", "simulation.n must be an integer, got '16'", ("simulation", "n")),
        ("simulation", "design", 3, "simulation.design must be a string or an object with a 'kind' key",
         ("simulation", "design")),
        ("simulation", "sides", "both", "simulation.sides must be one of: one_sided, two_sided; got 'both'",
         ("simulation", "sides")),
        ("simulation", "reps", 1e3, "simulation.reps must be an integer, got 1000.0", ("simulation", "reps")),
        ("simulation", "seed", True, "simulation.seed must be an integer, got True", ("simulation", "seed")),
        ("design", "kind", 5, "simulation.design: unknown design kind 5", ("design", "kind")),
        ("design", "rho", "0.3", "design.rho must be a number, got '0.3'", ("design", "rho")),
        ("classification", "statistical_claim", "yes", "classification.statistical_claim must be a boolean, got 'yes'",
         ("classification", "statistical_claim")),
        ("classification", "joint_inference", 1, "classification.joint_inference must be a boolean, got 1",
         ("classification", "joint_inference")),
        ("classification", "all_constituents_required", None,
         "classification.all_constituents_required must be a boolean, got None",
         ("classification", "all_constituents_required")),
        ("classification", "exchangeable", "no", "classification.exchangeable must be a boolean, got 'no'",
         ("classification", "exchangeable")),
        ("classification", "family_theoretically_relevant", [True],
         "classification.family_theoretically_relevant must be a boolean, got [True]",
         ("classification", "family_theoretically_relevant")),
        # each required key removed
        ("", "family", DROP, "document is missing required key 'family'", None),
        ("", "alpha", DROP, "document is missing required key 'alpha'", None),
        *[("family", key, DROP, f"family is missing required key {key!r}", ("", "family"))
          for key in ["joint_id", "constituents", "mode", "exchangeable", "independent"]],
        *[("alpha", key, DROP, f"alpha is missing required key {key!r}", ("", "alpha"))
          for key in ["alpha_joint", "method", "mode"]],
        ("design", "kind", DROP, "design is missing required key 'kind'", ("", "design")),
        *[("classification", key, DROP, f"classification is missing required key {key!r}", ("", "classification"))
          for key in CLASSIFICATION_KEYS.split(", ")],
        # a stray key in each section
        ("", "stray", 0, "unknown key 'stray' in document (allowed: alpha, classification, family, simulation)",
         ("", "stray")),
        ("family", "stray", 0, f"unknown key 'stray' in family (allowed: {FAMILY_KEYS})", ("family", "stray")),
        ("alpha", "stray", 0, "unknown key 'stray' in alpha (allowed: alpha_joint, method, mode)", ("alpha", "stray")),
        ("simulation", "stray", 0,
         "unknown key 'stray' in simulation (allowed: deltas, design, k, n, null_pattern, reps, seed, sides)",
         ("simulation", "stray")),
        ("design", "stray", 0, "unknown key 'stray' in design (allowed: kind, rho)", ("design", "stray")),
        ("classification", "stray", 0, f"unknown key 'stray' in classification (allowed: {CLASSIFICATION_KEYS})",
         ("classification", "stray")),
    ]

    #: a value the type checks refuse is anchored at its key, not its section
    RANGE_ROWS = [
        ("family", "joint_id", "", "family: joint_id must be a non-empty string, got ''", ("family", "joint_id")),
        ("alpha", "alpha_joint", 1.5, "alpha: alpha_joint must be a real in (0, 1), got 1.5", ("alpha", "alpha_joint")),
        ("simulation", "deltas", [0.5, 0.0], "simulation: deltas[0] must be 0 where the null is true, got 0.5",
         ("simulation", "deltas")),
        ("simulation", "n", 1, "simulation: n must be an integer in [2, 2**53], got 1", ("simulation", "n")),
        ("simulation", "seed", -1, "simulation: seed must be an integer in [0, 18446744073709551615], got -1",
         ("simulation", "seed")),
        ("design", "rho", 1.5, "simulation.design: rho must be a real in [0, 1), got 1.5", ("design", "rho")),
    ]

    #: a rule over more than one value is anchored at the key it names
    RULE_ROWS = [
        ("family", "mode", "individual",
         "family: a family implies a joint hypothesis; mode cannot be 'individual'", ("family", "mode")),
        ("alpha", "method", "none", "alpha: disjunction testing requires an adjustment method", ("alpha", "method")),
        ("design", "kind", "bogus", "simulation.design: unknown design kind 'bogus'", ("design", "kind")),
        ("design", "kind", "independent", "simulation.design: design 'independent' takes no rho", ("design", "rho")),
    ]

    @staticmethod
    def ids(rows):
        return [f"{path or 'document'}.{key}-{'dropped' if value is DROP else 'wrong'}" for path, key, value, *_ in rows]

    @staticmethod
    def assert_refused(document, message, anchor, parse=parse_scenario_text):
        text = render(document)
        where = f"s.json:{line_of(text, anchor[1], anchor[0])}" if anchor else "s.json"
        with pytest.raises(FileFormatError) as err:
            parse(text, source="s.json")
        assert str(err.value) == f"{where}: {message}"

    @pytest.mark.parametrize("path, key, value, message, anchor", ROWS, ids=ids(ROWS))
    def test_message_and_line(self, path, key, value, message, anchor):
        self.assert_refused(edited(full_doc(), path, key, value), message, anchor)

    @pytest.mark.parametrize("path, key, value, message, anchor", RANGE_ROWS,
                             ids=[f"{path}.{key}" for path, key, *_ in RANGE_ROWS])
    def test_range_error_is_anchored_at_its_key(self, path, key, value, message, anchor):
        self.assert_refused(edited(full_doc(), path, key, value), message, anchor)

    @pytest.mark.parametrize("path, key, value, message, anchor", RULE_ROWS,
                             ids=[f"{path}.{key}-{value}" for path, key, value, *_ in RULE_ROWS])
    def test_rule_error_is_anchored_at_the_key_it_names(self, path, key, value, message, anchor):
        self.assert_refused(edited(full_doc(), path, key, value), message, anchor)

    def test_a_value_equal_to_a_key_name_takes_no_anchor(self):
        # "mode" is a constituent on line 5 and the refused key on line 8
        document = doc()
        document["family"].update(constituents=["mode", "x"], mode="bogus")
        text = render(document)
        assert [i for i, row in enumerate(text.splitlines(), start=1) if '"mode"' in row][:2] == [5, 8]
        with pytest.raises(FileFormatError) as err:
            parse_scenario_text(text, source="s.json")
        assert str(err.value) == f"s.json:8: family.mode must be one of: {MODES}; got 'bogus'"

    BARE = [row for row in ROWS if row[0] == "classification"]

    @pytest.mark.parametrize("path, key, value, message, anchor", BARE, ids=ids(BARE))
    def test_bare_classification_object(self, path, key, value, message, anchor):
        answers = edited(dict(TestClassificationDocument.ANSWERS), "", key, value)
        self.assert_refused(answers, message, None if value is DROP else ("", key), parse_classification_text)


def test_deep_nesting_in_classification_is_a_format_error():
    deep = '{"exchangeable": ' + "[" * 100_000 + "]" * 100_000 + "}"
    with pytest.raises(FileFormatError, match="nests too deeply"):
        parse_classification_text(deep, source="deep.json")


class TestBatteryFile:
    def test_round_trip(self):
        battery = parse_battery_text("id,p\ngreen,0.030\nred,0.070\n")
        assert battery.entries == (("green", 0.030), ("red", 0.070))

    def test_blank_lines_skipped(self):
        battery = parse_battery_text("id,p\ngreen,0.030\n\nred,0.070\n")
        assert len(battery) == 2

    def test_header_enforced(self):
        with pytest.raises(FileFormatError, match="header"):
            parse_battery_text("hypothesis,pvalue\na,0.05\n")

    def test_bad_p_names_row(self):
        with pytest.raises(FileFormatError, match="btt.csv:3"):
            parse_battery_text("id,p\na,0.05\nb,oops\n", source="btt.csv")

    def test_out_of_range_p_names_row(self):
        with pytest.raises(FileFormatError, match=":2"):
            parse_battery_text("id,p\na,1.5\n")

    def test_duplicate_id_names_row(self):
        with pytest.raises(FileFormatError, match=":3.*duplicate"):
            parse_battery_text("id,p\na,0.1\na,0.2\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("id,p\na,0.1\n\nb,oops\na,0.2\n", ":4: p-value for 'b' is not a number: 'oops'"),
            ("id,p\na,0.1\n ,0.2\n", ":3: hypothesis id must be a non-empty string, got ''"),
            ("id,p\na,0.1\na,0.2\n\nb,oops\n", ":3: duplicate hypothesis id 'a'"),
            ("id,p\na,0.1\na,0.2\nb,0.3,4\n", ":3: duplicate hypothesis id 'a'"),
            ("id,p\na,0.1\nb,0.3,4\na,0.2\n", ":3: expected two cells 'id,p', got 3"),
        ],
    )
    def test_first_bad_row_in_file_order_is_named(self, text, message):
        with pytest.raises(FileFormatError) as err:
            parse_battery_text(text, source="b.csv")
        assert str(err.value) == "b.csv" + message

    def test_empty_file(self):
        with pytest.raises(FileFormatError):
            parse_battery_text("")
        with pytest.raises(FileFormatError, match="no test rows"):
            parse_battery_text("id,p\n")

    def test_quoted_cells(self):
        battery = parse_battery_text('id,p\n"a,1",0.1\n"b""2",0.2\nc," 0.3"\n')
        assert battery.entries == (("a,1", 0.1), ('b"2', 0.2), ("c", 0.3))

    def test_tab_in_an_id_is_rejected(self):
        with pytest.raises(FileFormatError) as err:
            parse_battery_text('id,p\n"a\tb",0.01\n', source="b.csv")
        assert str(err.value) == "b.csv:2: hypothesis id 'a\\tb' holds a tab or a line break"

    def test_quoted_cell_spanning_lines_keeps_its_line_break(self):
        with pytest.raises(FileFormatError) as err:
            parse_battery_text('id,p\nz,0.5\n"a\nb",0.01\n', source="b.csv")
        assert str(err.value) == "b.csv:3: hypothesis id 'a\\nb' holds a tab or a line break"

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_rows_after_a_multiline_cell_are_numbered_by_physical_line(self, end):
        text = end.join(["id,p", 'a,"0.01', '"', "b,0.1", "b,0.2", ""])
        with pytest.raises(FileFormatError) as err:
            parse_battery_text(text, source="b.csv")
        assert str(err.value) == "b.csv:5: duplicate hypothesis id 'b'"
        assert parse_battery_text(text.replace("b,0.2", "c,0.2")).entries == (("a", 0.01), ("b", 0.1), ("c", 0.2))

    def test_csv_error_names_the_line(self):
        text = 'id,p\n"a",0.1\nb,' + "9" * 200_000 + "\n"
        with pytest.raises(FileFormatError, match=r"^b\.csv:3: not valid CSV: field larger than field limit"):
            parse_battery_text(text, source="b.csv")
        with pytest.raises(FileFormatError) as err:  # a bad row above the unreadable record comes first
            parse_battery_text(text.replace("\nb,", "\na,0.2\nb,"), source="b.csv")
        assert str(err.value) == "b.csv:3: duplicate hypothesis id 'a'"
        with pytest.raises(FileFormatError, match=r"^b\.csv:1: not valid CSV: field larger than field limit"):
            parse_battery_text("i" * 200_000 + ",p\n", source="b.csv")

    def test_blank_lines_keep_line_numbers(self):
        with pytest.raises(FileFormatError) as err:
            parse_battery_text("id,p\n\na,0.1\n  \r\n\na,0.2\n", source="b.csv")
        assert str(err.value) == "b.csv:6: duplicate hypothesis id 'a'"


class TestByteOrderMark:
    """Excel's "CSV UTF-8" and Notepad start a file with a UTF-8 byte order
    mark; every input file reads as if it had none."""

    FILES = {
        "battery": (load_battery_file, "id,p\ngreen,0.030\nred,0.070\n"),
        "scenario": (fileio.load_scenario_file, render(doc(classification=TestClassificationDocument.ANSWERS))),
        "classification": (fileio.load_classification_file, json.dumps(TestClassificationDocument.ANSWERS)),
    }

    @pytest.mark.parametrize("kind", FILES)
    def test_a_leading_mark_is_dropped(self, tmp_path, kind):
        load, text = self.FILES[kind]
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        assert load(marked) == load(plain)

    def test_a_bad_byte_offset_counts_the_mark(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_bytes(b"\xef\xbb\xbfid,p\n\xff")
        with pytest.raises(FileFormatError, match=r"not UTF-8 text: byte offset 8: invalid start byte"):
            load_battery_file(path)


#: quote-free cells, chosen to reach every rule: spaces around cells,
#: numbers Python's float reads and C's strtod does not, out-of-range,
#: non-finite and empty p, empty, repeated and blank ids
ID_CELLS = ["a", " a ", "", " ", "a b", "é", "\x00"]
P_CELLS = ["0", "1", "-0.0", " 0.5 ", "1_0", "1e-5", "nan", "inf", "-1", "2", "", "oops", "0x1p-3", "1e400"]
HEADERS = ["id,p", " id , p ", "id,p,", "ID,p", "id", ""]


@st.composite
def battery_texts(draw):
    """A quote-free battery text: a header, rows of two cells, rows of one
    to four cells and blank lines, each line ended by LF, CRLF or CR (or
    not at all, last). Headers and rows are mostly well formed, so that
    most texts reach the checks of later rows."""
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    hid = st.text("abcxyz", min_size=1, max_size=3) | st.sampled_from(ID_CELLS)
    p = st.floats(0.0, 1.0).map(repr) | st.sampled_from(P_CELLS)
    good = st.tuples(hid, p).map(",".join)
    row = good | good | good | good | good | st.sampled_from(["", "  ", "\t"]) | st.lists(hid | p, min_size=1, max_size=4).map(",".join)
    header = draw(st.just("id,p") | st.just("id,p") | st.sampled_from(HEADERS))
    lines = [header] + draw(st.lists(row, min_size=1, max_size=10))
    text = "".join(line + draw(ends) for line in lines)
    return text[: len(text) - draw(st.integers(0, 2))]


def outcome(parse):
    try:
        battery = parse()
    except FileFormatError as exc:
        return str(exc)
    return battery.ids, battery.pvalues


@settings(max_examples=400)
@given(battery_texts(), st.sampled_from([["individual"], ["bh"], ["conjunction"], ["disjunction", "--method", "hochberg"]]))
def test_quote_free_text_parses_as_the_csv_module_reads_it(text, mode):
    assert '"' not in text
    fast = outcome(lambda: parse_battery_text(text, source="b.csv"))
    assert fast == outcome(lambda: _battery_from_rows(_csv_rows(text, "b.csv"), "b.csv"))
    with tempfile.TemporaryDirectory() as tmp:
        battery = Path(tmp, "b.csv")
        battery.write_bytes(text.encode("utf-8"))
        code = cli.main(["decide", "--battery", str(battery), "--alpha", "0.05", "--mode", *mode, "--out", str(Path(tmp, "out.tsv"))])
    assert code == (2 if isinstance(fast, str) else 0)


#: line breaks str.splitlines splits at, CRLF among them
BREAKS = ["\n", "\r\n", "\r", "\x85", "\u2028"]
#: id characters: non-ASCII, a tab, a space and lone surrogates
SHAPE_CHARS = "ab1é\tÿ中\U0001f600 \ud800\udfff"


@st.composite
def shaped_texts(draw):
    """A quote-free battery text for the shape check: a header alone or
    followed by lines of zero, one or two commas and blank lines, whose ids
    hold non-ASCII characters, tabs and lone surrogates, each line ended by
    any line break the reader splits at, the last one maybe by none."""
    hid = st.text(st.sampled_from(SHAPE_CHARS), min_size=1, max_size=3)
    p = st.floats(0.0, 1.0).map(repr) | st.sampled_from(["0", "1", "nan", "", "x"])
    good = st.tuples(hid, p).map(",".join)
    row = good | good | st.just("") | st.lists(hid | p, min_size=1, max_size=3).map(",".join)
    lines = [draw(st.sampled_from(["id,p", "id,p", " id , p ", "id", "id,p,"]))] + draw(st.lists(row, max_size=8))
    ends = [draw(st.sampled_from(BREAKS)) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends))


@settings(max_examples=400)
@given(shaped_texts())
@example("id,p\na\nb,0.5,c\n")  # a 0-comma and a 2-comma line: one comma per line in all
@example("id,p\nb,0.5,c\na\n")
@example("id,p\r\na,0.5\x85b\u2028c,0.25\rd,0.1,0.2")
@example("id,p\n")  # a header alone
@example("id,p")
@example("id,p\n\n")
@example("id,p\n\ud800,0.5\nb\udfff,0.25\n")  # lone surrogates
@example("id,p\n\ud800\n\udfff,0.5,\n")
def test_shape_check_reads_as_the_csv_module(text):
    assert '"' not in text
    fast = outcome(lambda: parse_battery_text(text, source="b.csv"))
    assert fast == outcome(lambda: _battery_from_rows(_csv_rows(text, "b.csv"), "b.csv"))


def run_cli(argv, name, text):
    """Exit code and stdout of the CLI on ``argv``, whose ``{path}`` is a file
    holding ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, name)
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([arg.format(path=path) for arg in argv])
    return code, out.getvalue()


#: quoted cells: commas, doubled quotes, line breaks and spaces inside
#: quotes, an unterminated quote and quotes in the middle of a cell
QUOTED_CELLS = ['"a"', '"a,b"', '"a""b"', '""', '"0.5"', '" 0.5 "', '"0.5\n"', '"a\r\nb"', '"unterminated', 'a"b',
                '"a"b', '"', '"\t"', '"1e-3"', '"id"', '"p"']


@st.composite
def quoted_battery_texts(draw):
    """A battery text with quoted cells, blank lines, odd cells and rows of
    one to four cells, each line ended by LF, CRLF or CR."""
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    quoted = st.text('abcxyz ,"', min_size=1, max_size=4).map(lambda t: '"' + t.replace('"', '""') + '"')
    plain = st.text("abcxyz", min_size=1, max_size=4)
    hid = plain | plain | quoted | quoted | st.sampled_from(ID_CELLS + QUOTED_CELLS)
    number = st.floats(0.0, 1.0).map(repr)
    p = number | number | number.map('"{}"'.format) | st.sampled_from(P_CELLS + QUOTED_CELLS)
    good = st.tuples(hid, p).map(",".join)
    odd = st.sampled_from(["", "  ", '""', '"",""']) | st.lists(hid | p, min_size=1, max_size=4).map(",".join)
    good_header = st.sampled_from(["id,p", '"id","p"', 'id,"p"', '"id",p'])
    lines = draw(st.lists(good, min_size=1, max_size=8))
    for row in draw(st.lists(odd, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), row)
    lines.insert(0, draw(good_header | good_header | st.sampled_from(['"id,p"', ' "id" ,p', *HEADERS])))
    text = "".join(line + draw(ends) for line in lines)
    return text[: len(text) - draw(st.integers(0, 2))]


@settings(max_examples=120, deadline=None)
@given(quoted_battery_texts(), st.sampled_from([["bh"], ["disjunction", "--method", "hochberg"]]),
       st.sampled_from(["tsv", "pretty"]))
def test_quoted_battery_exits_0_or_2(text, mode, fmt):
    argv = ["decide", "--battery", "{path}", "--alpha", "0.05", "--mode", *mode, "--format", fmt]
    code, out = run_cli(argv, "b.csv", text)
    assert code in (0, 2)
    assert (out == "") == (code == 2)
    parsed = outcome(lambda: parse_battery_text(text.replace("\r\n", "\n").replace("\r", "\n")))
    assert code == (2 if isinstance(parsed, str) else 0)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def answer_objects(draw):
    """The five answers, up to two of them dropped or replaced by any JSON
    value, or a stray key added."""
    answers = {key: draw(st.booleans()) for key in sorted(TestClassificationDocument.ANSWERS)}
    for key in draw(st.lists(st.sampled_from([*answers, "extra"]), max_size=2)):
        if draw(st.booleans()):
            answers.pop(key, None)
        else:
            answers[key] = draw(json_values)
    return answers


#: a bare answers object, a scenario document holding one, any JSON value,
#: or any text
classification_texts = (
    (answer_objects() | answer_objects().map(lambda answers: doc(classification=answers)) | json_values).map(json.dumps)
    | st.text(max_size=8)
)


@settings(max_examples=120, deadline=None)
@given(classification_texts)
def test_classification_file_exits_0_or_2(text):
    code, out = run_cli(["classify", "--input", "{path}"], "answers.json", text)
    assert code in (0, 2)
    assert (out == "") == (code == 2)


@st.composite
def scenario_documents(draw):
    """The full document, with up to two keys of any section dropped or
    replaced by any JSON value, or a stray key added."""
    document = full_doc()
    for path in draw(st.lists(st.sampled_from(["", "family", "alpha", "simulation", "design", "classification"]),
                              max_size=2)):
        try:
            section = section_of(document, path)
        except (KeyError, TypeError):  # an edit above took the section away
            continue
        if not isinstance(section, dict):
            continue
        key = draw(st.sampled_from([*section, "stray"]))
        if draw(st.booleans()):
            section.pop(key, None)
        else:
            section[key] = draw(json_values)
    return document


@settings(max_examples=120, deadline=None)
@given(scenario_documents())
def test_scenario_file_exits_0_or_2(document):
    argv = ["simulate", "--scenario", "{path}", "--reps", "10", "--threads", "1"]
    code, out = run_cli(argv, "scenario.json", render(document))
    assert code in (0, 2)
    assert (out == "") == (code == 2)
