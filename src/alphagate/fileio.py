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

_FAMILY_KEYS = {"joint_id", "constituents", "mode", "exchangeable", "independent"}
_ALPHA_KEYS = {"alpha_joint", "method", "mode"}
_SIMULATION_KEYS = {"k", "null_pattern", "deltas", "n", "design", "sides", "reps", "seed"}
_CLASSIFICATION_KEYS = {
    "statistical_claim",
    "joint_inference",
    "all_constituents_required",
    "exchangeable",
    "family_theoretically_relevant",
}
_DESIGN_KEYS = {"kind", "rho"}


@dataclass(frozen=True)
class ScenarioDoc:
    """Parsed contents of a scenario JSON document."""

    family: FamilySpec
    alpha: AlphaConfig
    scenario: Scenario | None
    classification: ClassificationInput | None


class _Locator:
    """Best-effort line anchoring: first line mentioning a quoted key. The
    text is split into lines only when a message needs one."""

    def __init__(self, text: str, source: str):
        self.text = text
        self.source = source

    @cached_property
    def lines(self) -> list[str]:
        return self.text.splitlines()

    def line_of(self, key: str, after: int = 0) -> int | None:
        needle = f'"{key}"'
        for i in range(after, len(self.lines)):
            if needle in self.lines[i]:
                return i + 1
        return None

    def fail(self, message: str, key: str | None = None, after: int = 0) -> FileFormatError:
        line = self.line_of(key, after) if key else None
        where = f"{self.source}:{line}" if line else self.source
        return FileFormatError(f"{where}: {message}")


def _require_keys(obj: dict, allowed: set[str], required: set[str], section: str, loc: _Locator) -> None:
    for key in obj:
        if key not in allowed:
            raise loc.fail(
                f"unknown key {key!r} in {section or 'document'} "
                f"(allowed: {', '.join(sorted(allowed))})",
                key,
                (loc.line_of(section) or 1) - 1 if section else 0,
            )
    for key in required:
        if key not in obj:
            raise loc.fail(f"{section or 'document'} is missing required key {key!r}", section)


def _as_bool(obj: dict, key: str, section: str, loc: _Locator) -> bool:
    value = obj[key]
    if not isinstance(value, bool):
        raise loc.fail(f"{section}.{key} must be a boolean, got {value!r}", key)
    return value


def _as_int(obj: dict, key: str, section: str, loc: _Locator) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise loc.fail(f"{section}.{key} must be an integer, got {value!r}", key)
    return value


def _as_real(obj: dict, key: str, section: str, loc: _Locator) -> int | float:
    """A JSON number as it is: the type it feeds checks its range."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise loc.fail(f"{section}.{key} must be a number, got {value!r}", key)
    return value


def _parse_enum(enum_cls, value, key: str, section: str, loc: _Locator):
    try:
        return enum_cls(value)
    except ValueError:
        options = ", ".join(member.value for member in enum_cls)
        raise loc.fail(f"{section}.{key} must be one of: {options}; got {value!r}", key) from None


def _parse_family(obj, loc: _Locator) -> FamilySpec:
    if not isinstance(obj, dict):
        raise loc.fail("family must be a JSON object", "family")
    _require_keys(obj, _FAMILY_KEYS, _FAMILY_KEYS, "family", loc)
    constituents = obj["constituents"]
    if not isinstance(constituents, list) or not set(map(type, constituents)) <= {str}:
        raise loc.fail("family.constituents must be a list of strings", "constituents")
    mode = _parse_enum(TestingMode, obj["mode"], "mode", "family", loc)
    exchangeable = _as_bool(obj, "exchangeable", "family", loc)
    independent = _as_bool(obj, "independent", "family", loc)
    try:
        family = FamilySpec(
            joint_id=obj["joint_id"],
            constituents=tuple(constituents),
            mode=mode,
            exchangeable=exchangeable,
            independent=independent,
        )
    except ValueError as exc:
        raise loc.fail(f"family: {exc}", "family") from None
    report = validate_family(family)
    if report.errors:
        raise loc.fail(
            "family: " + "; ".join(issue.message for issue in report.errors), "constituents"
        )
    return family


def _parse_alpha(obj, family: FamilySpec, loc: _Locator) -> AlphaConfig:
    if not isinstance(obj, dict):
        raise loc.fail("alpha must be a JSON object", "alpha")
    _require_keys(obj, _ALPHA_KEYS, _ALPHA_KEYS, "alpha", loc)
    mode = _parse_enum(TestingMode, obj["mode"], "mode", "alpha", loc)
    method = _parse_enum(AdjustmentMethod, obj["method"], "method", "alpha", loc)
    if mode is not family.mode:
        raise loc.fail(
            f"alpha.mode {mode.value!r} must match family.mode {family.mode.value!r} "
            "(individual testing involves no family and no scenario document)",
            "mode",
            (loc.line_of("alpha") or 1) - 1,
        )
    alpha_joint = _as_real(obj, "alpha_joint", "alpha", loc)
    try:
        return AlphaConfig(alpha_joint=alpha_joint, method=method, mode=mode)
    except ValueError as exc:
        raise loc.fail(f"alpha: {exc}", "alpha") from None


def _parse_design(value, loc: _Locator) -> Design:
    if isinstance(value, dict):
        _require_keys(value, _DESIGN_KEYS, {"kind"}, "design", loc)
        kind, rho = value["kind"], _as_real(value, "rho", "design", loc) if "rho" in value else None
    elif isinstance(value, str):
        kind, rho = value, None
    else:
        raise loc.fail("simulation.design must be a string or an object with a 'kind' key", "design")
    try:
        return Design(kind, rho)
    except ValueError as exc:
        raise loc.fail(f"simulation.design: {exc}", "design") from None


def _resolve_method(alpha: AlphaConfig, family: FamilySpec, loc: _Locator) -> AdjustmentMethod:
    if alpha.method is AdjustmentMethod.NONE:
        # tool default for the simulator's disjunction arm: Sidak is exact
        # under the declared independence, Bonferroni is safe otherwise
        return AdjustmentMethod.SIDAK if family.independent else AdjustmentMethod.BONFERRONI
    if alpha.method is AdjustmentMethod.BENJAMINI_HOCHBERG:
        raise loc.fail(
            "alpha.method 'bh' controls the false discovery rate, not the FWER; pick "
            "bonferroni, sidak, holm, or hochberg for simulation",
            "method",
        )
    return alpha.method


def _parse_simulation(obj, family: FamilySpec, alpha: AlphaConfig, loc: _Locator) -> Scenario:
    if not isinstance(obj, dict):
        raise loc.fail("simulation must be a JSON object", "simulation")
    _require_keys(obj, _SIMULATION_KEYS, set(), "simulation", loc)
    k = _as_int(obj, "k", "simulation", loc) if "k" in obj else family.k
    if k != family.k:
        raise loc.fail(
            f"simulation.k ({k}) must match the family's constituent count ({family.k})", "k"
        )
    null_pattern = obj.get("null_pattern", [True] * k)
    # JSON makes only the exact types bool, int, float, str, list, dict and None
    if not isinstance(null_pattern, list) or not set(map(type, null_pattern)) <= {bool}:
        raise loc.fail("simulation.null_pattern must be a list of booleans", "null_pattern")
    deltas = obj.get("deltas", [0.0] * k)
    if not isinstance(deltas, list) or not set(map(type, deltas)) <= {int, float}:
        raise loc.fail("simulation.deltas must be a list of numbers", "deltas")
    design = _parse_design(obj["design"], loc) if "design" in obj else Design.independent()
    sides = (
        _parse_enum(Sides, obj["sides"], "sides", "simulation", loc)
        if "sides" in obj
        else Sides.ONE_SIDED
    )
    n = _as_int(obj, "n", "simulation", loc) if "n" in obj else 2
    method = _resolve_method(alpha, family, loc)
    reps = _as_int(obj, "reps", "simulation", loc) if "reps" in obj else DEFAULT_REPS
    seed = _as_int(obj, "seed", "simulation", loc) if "seed" in obj else 0
    try:
        return Scenario(
            k=k,
            null_pattern=tuple(null_pattern),
            deltas=tuple(deltas),
            n=n,
            design=design,
            sides=sides,
            alpha_joint=alpha.alpha_joint,
            method=method,
            reps=reps,
            seed=seed,
        )
    except ValueError as exc:
        raise loc.fail(f"simulation: {exc}", "simulation") from None


def _parse_classification(obj, loc: _Locator) -> ClassificationInput:
    if not isinstance(obj, dict):
        raise loc.fail("classification must be a JSON object", "classification")
    _require_keys(obj, _CLASSIFICATION_KEYS, _CLASSIFICATION_KEYS, "classification", loc)
    return ClassificationInput(
        **{key: _as_bool(obj, key, "classification", loc) for key in _CLASSIFICATION_KEYS}
    )


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
    doc = _load_json_object(text, source)
    _require_keys(doc, {"family", "alpha", "simulation", "classification"}, {"family", "alpha"}, "", loc)
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
