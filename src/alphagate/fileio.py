"""Input file parsing: scenario JSON documents and battery CSV files.

A scenario document is a JSON object with top-level keys ``family`` and
``alpha`` (required) plus ``simulation`` and ``classification`` (optional).
Unknown keys are rejected everywhere, and every validation failure names
the offending key or row, anchored to a line of the source file.

Battery files are CSV with the exact header ``id,p`` and one hypothesis per
row. A text with no ``"`` is split at line breaks and commas; one with a
quote is read by the csv module, and a quoted cell may then span lines.
"""

from __future__ import annotations

import csv
import json
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path

from .errors import FileFormatError, InvalidBattery
from .families import (
    AdjustmentMethod,
    AlphaConfig,
    ClassificationInput,
    Design,
    FamilySpec,
    Scenario,
    Sides,
    TestBattery,
    TestingMode,
    validate_family,
)

DEFAULT_REPS = 100_000

#: A key's JSON kind: the exact types its value may take (JSON makes only
#: bool, int, float, str, list, dict and None), the types of a list's
#: entries, and how a message names the kind, with the value at ``{!r}``.
#: An enum class is a kind whose values are its members' values; None leaves
#: the value to the type it feeds, which checks every range.
_BOOLEAN = ((bool,), None, "a boolean, got {!r}")
_INTEGER = ((int,), None, "an integer, got {!r}")
_NUMBER = ((int, float), None, "a number, got {!r}")
_STRINGS = ((list,), {str}, "a list of strings")
_BOOLEANS = ((list,), {bool}, "a list of booleans")
_NUMBERS = ((list,), {int, float}, "a list of numbers")

#: Each section's keys and their kinds, in the order they are checked
_DOCUMENT = dict.fromkeys(("family", "alpha", "simulation", "classification"))
_FAMILY = {"joint_id": None, "constituents": _STRINGS, "mode": TestingMode, "exchangeable": _BOOLEAN,
           "independent": _BOOLEAN}
_ALPHA = {"mode": TestingMode, "method": AdjustmentMethod, "alpha_joint": _NUMBER}
_SIMULATION = {
    "k": _INTEGER,
    "null_pattern": _BOOLEANS,
    "deltas": _NUMBERS,
    "design": ((str, dict), None, "a string or an object with a 'kind' key"),
    "sides": Sides,
    "n": _INTEGER,
    "reps": _INTEGER,
    "seed": _INTEGER,
}
_DESIGN = {"kind": None, "rho": _NUMBER}
_CLASSIFICATION = dict.fromkeys(
    ("statistical_claim", "joint_inference", "all_constituents_required", "exchangeable",
     "family_theoretically_relevant"),
    _BOOLEAN,
)


@dataclass(frozen=True)
class ScenarioDoc:
    """Parsed contents of a scenario JSON document."""

    family: FamilySpec
    alpha: AlphaConfig
    scenario: Scenario | None
    classification: ClassificationInput | None


class _Locator:
    """Best-effort line anchoring: first line holding a quoted key followed
    by its colon, so that a string value equal to a key name is passed
    over. The text is split into lines only when a message needs one."""

    def __init__(self, text: str, source: str):
        self.text = text
        self.source = source

    @cached_property
    def lines(self) -> list[str]:
        return self.text.splitlines()

    def line_of(self, key: str, after: int = 0) -> int | None:
        needle = re.compile(rf'"{re.escape(key)}"\s*:')
        for i in range(after, len(self.lines)):
            if needle.search(self.lines[i]):
                return i + 1
        return None

    def fail(self, message: str, key: str = "", section: str = "") -> FileFormatError:
        """``message`` anchored at the first line naming ``key`` from the line
        of ``section`` on."""
        after = (self.line_of(section) or 1) - 1 if section else 0
        line = self.line_of(key, after) if key else None
        where = f"{self.source}:{line}" if line else self.source
        return FileFormatError(f"{where}: {message}")


def _section(obj, name: str, kinds: dict, required, loc: _Locator) -> dict:
    """The keys of section ``name`` that ``obj`` holds, each checked against
    its kind in ``kinds`` in table order; an enum value comes back as its
    member. Unknown keys, then missing ``required`` keys, are refused first."""
    if not isinstance(obj, dict):
        raise loc.fail(f"{name} must be a JSON object", name)
    where = name or "document"
    for key in obj:
        if key not in kinds:
            raise loc.fail(f"unknown key {key!r} in {where} (allowed: {', '.join(sorted(kinds))})", key, name)
    for key in required:
        if key not in obj:
            raise loc.fail(f"{where} is missing required key {key!r}", name)
    values = {}
    for key, kind in kinds.items():
        if key not in obj:
            continue
        value = values[key] = obj[key]
        if isinstance(kind, type):
            try:
                values[key] = kind(value)
            except ValueError:
                options = ", ".join(member.value for member in kind)
                raise loc.fail(f"{name}.{key} must be one of: {options}; got {value!r}", key, name) from None
        elif kind is not None:
            types, entries, text = kind
            if type(value) not in types or (entries is not None and not set(map(type, value)) <= entries):
                raise loc.fail(f"{name}.{key} must be {text.format(value)}", key, name)
    return values


def _build(cls, values: dict, obj, name: str, loc: _Locator, label: str = ""):
    """``cls(**values)``, whose checks refuse a value out of range: anchored
    at the key the error's ``field`` names, if ``obj`` holds it (``deltas[2]``
    names ``deltas``), else at section ``name``."""
    try:
        return cls(**values)
    except ValueError as exc:
        key = (getattr(exc, "field", None) or "").partition("[")[0]
        anchor = (key, name) if isinstance(obj, dict) and key in obj else (name,)
        raise loc.fail(f"{label or name}: {exc}", *anchor) from None


def _parse_family(obj, loc: _Locator) -> FamilySpec:
    family = _build(FamilySpec, _section(obj, "family", _FAMILY, _FAMILY, loc), obj, "family", loc)
    report = validate_family(family)
    if report.errors:
        raise loc.fail(
            "family: " + "; ".join(issue.message for issue in report.errors), "constituents", "family"
        )
    return family


def _parse_alpha(obj, family: FamilySpec, loc: _Locator) -> AlphaConfig:
    values = _section(obj, "alpha", _ALPHA, _ALPHA, loc)
    if values["mode"] is not family.mode:
        raise loc.fail(
            f"alpha.mode {values['mode'].value!r} must match family.mode {family.mode.value!r} "
            "(individual testing involves no family and no scenario document)",
            "mode",
            "alpha",
        )
    return _build(AlphaConfig, values, obj, "alpha", loc)


def _parse_design(value, loc: _Locator) -> Design:
    values = _section(value, "design", _DESIGN, ("kind",), loc) if isinstance(value, dict) else {"kind": value}
    return _build(Design, values, value, "design", loc, "simulation.design")


def _parse_simulation(obj, family: FamilySpec, alpha: AlphaConfig, loc: _Locator) -> Scenario:
    values = _section(obj, "simulation", _SIMULATION, (), loc)
    k = values.setdefault("k", family.k)
    if k != family.k:
        raise loc.fail(
            f"simulation.k ({k}) must match the family's constituent count ({family.k})", "k", "simulation"
        )
    design = _parse_design(values["design"], loc) if "design" in values else Design.independent()
    method = alpha.method
    if method is AdjustmentMethod.NONE:
        # tool default for the simulator's disjunction arm: Sidak is exact
        # under the declared independence, Bonferroni is safe otherwise
        method = AdjustmentMethod.SIDAK if family.independent else AdjustmentMethod.BONFERRONI
    defaults = {"null_pattern": [True] * k, "deltas": [0.0] * k, "sides": Sides.ONE_SIDED, "n": 2,
                "reps": DEFAULT_REPS, "seed": 0}
    run = {"design": design, "alpha_joint": alpha.alpha_joint, "method": method}
    return _build(Scenario, {**defaults, **values, **run}, obj, "simulation", loc)


def _parse_classification(obj, loc: _Locator) -> ClassificationInput:
    return ClassificationInput(**_section(obj, "classification", _CLASSIFICATION, _CLASSIFICATION, loc))


def _load_json_object(text: str, source: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{source}:{exc.lineno}: not valid JSON: {exc.msg}") from None
    except RecursionError:
        raise FileFormatError(f"{source}: JSON nests too deeply") from None
    except ValueError as exc:  # an integer longer than Python converts
        raise FileFormatError(f"{source}: JSON integer too long: {exc}") from None
    if not isinstance(doc, dict):
        raise FileFormatError(f"{source}: top level must be a JSON object")
    return doc


def parse_scenario_text(text: str, source: str = "<scenario>") -> ScenarioDoc:
    loc = _Locator(text, source)
    doc = _section(_load_json_object(text, source), "", _DOCUMENT, ("family", "alpha"), loc)
    family = _parse_family(doc["family"], loc)
    alpha = _parse_alpha(doc["alpha"], family, loc)
    scenario = _parse_simulation(doc["simulation"], family, alpha, loc) if "simulation" in doc else None
    classification = (
        _parse_classification(doc["classification"], loc) if "classification" in doc else None
    )
    return ScenarioDoc(family=family, alpha=alpha, scenario=scenario, classification=classification)


def _read_text(path: Path) -> str:
    """The file's UTF-8 text without a leading byte order mark, which Excel
    and Notepad write. The mark is dropped after decoding, so the offset of
    a bad byte still counts it."""
    try:
        return path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text: byte offset {exc.start}: {exc.reason}") from None


def load_scenario_file(path: str | Path) -> ScenarioDoc:
    path = Path(path)
    return parse_scenario_text(_read_text(path), source=str(path))


def parse_classification_text(text: str, source: str = "<classification>") -> ClassificationInput:
    """Classification answers: either a bare object of the five booleans, or a
    full scenario document whose ``classification`` section is used."""
    loc = _Locator(text, source)
    doc = _load_json_object(text, source)
    if "family" in doc or "alpha" in doc or "classification" in doc:
        parsed = parse_scenario_text(text, source)
        if parsed.classification is None:
            raise FileFormatError(f"{source}: document has no classification section")
        return parsed.classification
    return _parse_classification(doc, loc)


def load_classification_file(path: str | Path) -> ClassificationInput:
    path = Path(path)
    return parse_classification_text(_read_text(path), source=str(path))


def _battery(ids: Sequence[str], raw_p: Sequence[str], lines: Sequence[int], source: str) -> TestBattery:
    """TestBattery checks the (id, p) pairs; ``lines[i]`` is the line of entry i."""
    try:
        return TestBattery.from_columns(ids, raw_p)
    except InvalidBattery as exc:
        raise FileFormatError(f"{source}:{lines[exc.index]}: {exc}") from None


def _check_header(cells: list[str], source: str) -> None:
    header = [cell.strip() for cell in cells]
    if header != ["id", "p"]:
        raise FileFormatError(f"{source}:1: battery header must be exactly 'id,p', got {','.join(header)!r}")


def _battery_from_rows(rows: Iterator[tuple[int, list[str]]], source: str) -> TestBattery:
    """The battery of ``rows``, each record's first line number and cells,
    header first."""
    first = next(rows, None)
    if first is None:
        raise FileFormatError(f"{source}:1: battery file is empty; expected header 'id,p'")
    _check_header(first[1], source)
    ids: list[str] = []
    raw_p: list[str] = []
    lines: list[int] = []
    error: FileFormatError | None = None
    try:
        for lineno, row in rows:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            if len(row) != 2:
                error = FileFormatError(f"{source}:{lineno}: expected two cells 'id,p', got {len(row)}")
                break
            ids.append(row[0].strip())
            raw_p.append(row[1])
            lines.append(lineno)
    except FileFormatError as exc:  # a record the csv module cannot read
        error = exc
    if error is None and not ids:
        raise FileFormatError(f"{source}: battery file holds no test rows")
    battery = _battery(ids, raw_p, lines, source)  # a bad row above the error is reported first
    if error is not None:
        raise error
    return battery


def _csv_rows(text: str, source: str) -> Iterator[tuple[int, list[str]]]:
    """Records read by the csv module. Each physical line keeps a line end,
    so a quoted cell that spans lines keeps its line break, and a record is
    numbered by its first line."""
    reader = csv.reader(line + "\n" for line in text.splitlines())
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise FileFormatError(f"{source}:{start}: not valid CSV: {exc}") from None


def parse_battery_text(text: str, source: str = "<battery>") -> TestBattery:
    lines = text.splitlines()
    rows = lines[1:]
    if '"' not in text and rows and set(map(str.count, rows, repeat(","))) == {1}:
        # every line after the header is one quote-free 'id,p' row
        _check_header(lines[0].split(","), source)
        cells = ",".join(rows).split(",")  # whole columns at once: no object per row
        del lines, rows  # the lines are dead now; freeing them lowers decide's peak memory by a fifth
        return _battery(list(map(str.strip, cells[0::2])), cells[1::2], range(2, len(cells) // 2 + 2), source)
    return _battery_from_rows(_csv_rows(text, source), source)


def load_battery_file(path: str | Path) -> TestBattery:
    path = Path(path)
    return parse_battery_text(_read_text(path), source=str(path))
