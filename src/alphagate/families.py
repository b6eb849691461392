"""Domain vocabulary for multiple testing.

A *joint* hypothesis bundles two or more *constituent* hypotheses into a
family and is judged by either a disjunction rule (at least one constituent
test significant) or a conjunction rule (all constituent tests significant).
*Individual* testing makes one decision per hypothesis and never forms a
family. Only disjunction testing requires lowering the per-test alpha;
conjunction and individual testing run each test at the unadjusted level.

This module holds the value types for families, batteries of p-values,
alpha configurations and simulation scenarios, plus two operations:

* :func:`validate_family` checks the declared structure of a family and
  warns when a disjunction family is not declared exchangeable.
* :func:`classify_testing_mode` maps five explicit yes/no study questions to
  a recommended testing mode and tells you whether to adjust alpha.

Family membership is always declared by the caller; nothing here tries to
infer it from data, and exchangeability/independence are taken as the
theoretical judgments they are.
"""

from __future__ import annotations

import copy
import math
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields

from .enums import FWER_METHODS, AdjustmentMethod, Sides, TestingMode
from .errors import DomainError, InvalidBattery, InvalidScenario
from .validators import K_MAX, MAX_REPS, N_MAX, integer, is_bool, real


def _check_id(token: str, what: str) -> None:
    if not isinstance(token, str) or not token:
        raise DomainError(f"{what} must be a non-empty string, got {token!r}", what)


def _check_enum(value, kind: type, name: str) -> None:
    # not ``in``: ``"holm" in AdjustmentMethod`` raises on Python 3.11 and is True on 3.12
    if not isinstance(value, kind):
        raise DomainError(f"{name} must be a {kind.__name__}, got {value!r}", name)


@dataclass(frozen=True)
class FamilySpec:
    """A declared joint hypothesis and its constituent hypotheses.

    ``constituents`` may be structurally invalid (empty, duplicated ids);
    :func:`validate_family` reports those as errors rather than raising, so
    callers can surface every problem at once.
    """

    joint_id: str
    constituents: tuple[str, ...]
    mode: TestingMode
    exchangeable: bool
    independent: bool

    def __post_init__(self) -> None:
        _check_id(self.joint_id, "joint_id")
        for flag in ("exchangeable", "independent"):
            if not is_bool(value := getattr(self, flag)):
                raise DomainError(f"{flag} must be a boolean, got {value!r}", flag)
        object.__setattr__(self, "constituents", _column(self.constituents, "constituents", error=DomainError))
        for token in self.constituents:
            _check_id(token, "constituent id")
        _check_enum(self.mode, TestingMode, "mode")
        if self.mode is TestingMode.INDIVIDUAL:
            raise DomainError("a family implies a joint hypothesis; mode cannot be 'individual'", "mode")

    @property
    def k(self) -> int:
        return len(self.constituents)


#: A tab or any character ``str.splitlines`` breaks at: none may sit in an id,
#: so every id is one cell of a TSV row
_ID_BREAKS = re.compile("[\t\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")


class TestBattery:
    """An ordered set of (hypothesis id, p-value) pairs awaiting judgment.

    A battery is held as two columns: ``ids``, a tuple of non-empty, distinct
    strings free of tabs and line breaks, and ``p``, a read-only float64
    array of p-values in [0, 1]. ``TestBattery(entries)`` takes (id, p)
    pairs, each a tuple or list, and :meth:`from_columns` the two columns;
    p may be given as numbers or numeric strings, and a p-value of -0 is
    stored as 0. ``entries`` is built from the columns on each access.
    """

    __slots__ = ("ids", "p")

    def __init__(self, entries: Iterable[tuple[str, object]] = ()) -> None:
        entries = tuple(entries)
        for index, entry in enumerate(entries):
            if not isinstance(entry, (tuple, list)) or len(entry) != 2:
                raise InvalidBattery(f"entry must be an (id, p-value) pair, got {entry!r}", index)
        self._fill(tuple(hid for hid, _ in entries), [raw for _, raw in entries])

    @classmethod
    def from_columns(cls, ids: Sequence[str], raw_p: Sequence[object]) -> TestBattery:
        battery = cls.__new__(cls)
        battery._fill(tuple(ids), raw_p)
        return battery

    def _fill(self, ids: tuple, raw_p: Sequence[object]) -> None:
        # the one place a battery is checked: parse_battery_text relies on it
        # and names the file line of the entry at fault
        import numpy as np  # a battery is an array, so importing families stays light

        if len(ids) != len(raw_p):
            raise InvalidBattery(f"{len(ids)} hypothesis ids but {len(raw_p)} p-values")
        p = _checked_columns(ids, raw_p)
        if p is None:  # some check failed: find the first entry at fault
            p = np.array(_checked_entries(ids, raw_p), dtype=np.float64)
        p += 0.0  # -0.0 lies in [0, 1] but would print as negative
        p.flags.writeable = False
        for name, value in (("ids", ids), ("p", p)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"TestBattery is immutable; cannot set {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through the checks
        return TestBattery.from_columns, (self.ids, self.p)

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TestBattery):
            return NotImplemented
        return self.ids == other.ids and self.pvalues == other.pvalues

    def __hash__(self) -> int:
        return hash((self.ids, self.pvalues))

    @property
    def entries(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self.ids, self.p.tolist()))

    @property
    def pvalues(self) -> tuple[float, ...]:
        return tuple(self.p.tolist())


def _checked_columns(ids: tuple, raw_p: Sequence[object]):
    """The p column as a float64 array if every check passes on the whole
    columns at once, else None."""
    import numpy as np

    try:
        unique = set(ids)
        breaks = _ID_BREAKS.search("".join(ids))  # TypeError for an id that is no str
        p = np.fromiter(map(float, raw_p), np.float64, len(raw_p))
    except (TypeError, ValueError, OverflowError):
        return None
    if len(unique) != len(ids) or "" in unique or breaks:
        return None
    if len(p) and not (0.0 <= p.min() and p.max() <= 1.0):  # also false for nan
        return None
    return p


def _checked_entries(ids: tuple, raw_p: Sequence[object]) -> list[float]:
    """The p column, checked entry by entry; raises InvalidBattery naming the
    first entry at fault."""
    out = []
    seen: set[str] = set()
    for index, (hid, raw) in enumerate(zip(ids, raw_p)):
        if not isinstance(hid, str) or not hid:
            raise InvalidBattery(f"hypothesis id must be a non-empty string, got {hid!r}", index)
        if _ID_BREAKS.search(hid):
            raise InvalidBattery(f"hypothesis id {hid!r} holds a tab or a line break", index)
        if hid in seen:
            raise InvalidBattery(f"duplicate hypothesis id {hid!r}", index)
        seen.add(hid)
        try:
            p = float(raw)
        except (TypeError, ValueError, OverflowError):
            raise InvalidBattery(f"p-value for {hid!r} is not a number: {raw!r}", index) from None
        if not 0.0 <= p <= 1.0:
            raise InvalidBattery(f"p-value for {hid!r} must lie in [0, 1], got {p}", index)
        out.append(p)
    return out


@dataclass(frozen=True)
class AlphaConfig:
    """The joint-level alpha, the adjustment method, and the mode it serves.

    Disjunction testing must name a FWER method; conjunction and individual
    testing must not (their per-test alpha equals ``alpha_joint``).
    """

    alpha_joint: float
    method: AdjustmentMethod
    mode: TestingMode

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha_joint", real(self.alpha_joint, "alpha_joint", 0, 1))
        _check_enum(self.method, AdjustmentMethod, "method")
        _check_enum(self.mode, TestingMode, "mode")
        if self.mode is TestingMode.DISJUNCTION:
            if self.method is AdjustmentMethod.NONE:
                raise DomainError("disjunction testing requires an adjustment method", "method")
            if self.method not in FWER_METHODS:
                raise DomainError("method 'bh' controls the false discovery rate, not the FWER", "method")
        elif self.method is not AdjustmentMethod.NONE:
            raise DomainError(
                f"{self.mode.value} testing uses the unadjusted alpha; method must be 'none'", "method"
            )


@dataclass(frozen=True, kw_only=True)
class ClassificationInput:
    """Answers to the five questions that pick a testing mode.

    Every answer is required; there are no defaults, because each one is a
    substantive judgment about the study.
    """

    statistical_claim: bool
    joint_inference: bool
    all_constituents_required: bool
    exchangeable: bool
    family_theoretically_relevant: bool

    def __post_init__(self) -> None:
        for answer in fields(self):
            if not isinstance(getattr(self, answer.name), bool):
                raise DomainError(f"{answer.name} must be an explicit boolean")


@dataclass(frozen=True)
class Rationale:
    """One applied classification rule: a stable code plus readable text."""

    code: str
    text: str


@dataclass(frozen=True)
class Recommendation:
    """Recommended testing mode (None = no statistical claim, not applicable)."""

    mode: TestingMode | None
    rationale: tuple[Rationale, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rationale", tuple(self.rationale))

    @property
    def adjust_alpha(self) -> bool:
        """Only disjunction testing lowers the per-test alpha."""
        return self.mode is TestingMode.DISJUNCTION


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[ValidationIssue, ...]
    warnings: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass(frozen=True)
class Design:
    """Dependence structure of the k test statistics."""

    kind: str
    rho: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("independent", "equicorrelated", "shared_control"):
            raise InvalidScenario(f"unknown design kind {self.kind!r}", "kind")
        if self.kind == "equicorrelated":
            if self.rho is None:
                raise InvalidScenario("equicorrelated design requires rho")
            object.__setattr__(self, "rho", real(self.rho, "rho", 0, 1, "[)", error=InvalidScenario))
        elif self.rho is not None:
            raise InvalidScenario(f"design {self.kind!r} takes no rho", "rho")

    @classmethod
    def independent(cls) -> "Design":
        return cls("independent")

    @classmethod
    def equicorrelated(cls, rho: float) -> "Design":
        return cls("equicorrelated", rho)

    @classmethod
    def shared_control(cls) -> "Design":
        return cls("shared_control")


def _column(value, name: str, k: int | None = None, error: type[ValueError] = InvalidScenario) -> tuple:
    """``value`` as a tuple, of k entries unless k is None; a string is no
    sequence of them."""
    try:
        if isinstance(value, (str, bytes)):
            raise TypeError
        column = tuple(value)
    except TypeError:
        length = "" if k is None else f" of length k={k}"
        raise error(f"{name} must be a sequence{length}, got {type(value).__name__}", name) from None
    if k is not None and len(column) != k:
        raise InvalidScenario(f"{name} has length {len(column)}, expected k={k}", name)
    return column


@dataclass(frozen=True)
class Scenario:
    """Full specification of one Monte Carlo run."""

    k: int
    null_pattern: tuple[bool, ...]
    deltas: tuple[float, ...]
    n: int
    design: Design
    sides: Sides
    alpha_joint: float
    method: AdjustmentMethod
    reps: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", integer(self.k, "k", 1, K_MAX, error=InvalidScenario))
        nulls = _column(self.null_pattern, "null_pattern", self.k)
        deltas = list(_column(self.deltas, "deltas", self.k))
        object.__setattr__(self, "n", integer(self.n, "n", 2, N_MAX, error=InvalidScenario))
        scale = math.sqrt(self.n / 2.0)
        # one pass over the columns; a finite float delta needs no conversion
        for i, (is_null, delta) in enumerate(zip(nulls, deltas)):
            if type(is_null) is not bool and not is_bool(is_null):
                raise InvalidScenario(f"null_pattern[{i}] must be a bool, got {is_null!r}", f"null_pattern[{i}]")
            if type(delta) is not float or not math.isfinite(delta):
                delta = deltas[i] = real(delta, f"deltas[{i}]", -math.inf, math.inf, error=InvalidScenario)
            if not math.isfinite(delta * scale):
                raise InvalidScenario(f"deltas[{i}] * sqrt(n/2) must be finite, got {delta}", f"deltas[{i}]")
            if is_null and delta != 0.0:
                raise InvalidScenario(f"deltas[{i}] must be 0 where the null is true, got {delta}", f"deltas[{i}]")
        object.__setattr__(self, "null_pattern", tuple(map(bool, nulls)))
        object.__setattr__(self, "deltas", tuple(deltas))
        if not isinstance(self.design, Design):
            raise InvalidScenario(f"design must be a Design, got {type(self.design).__name__}")
        if not isinstance(self.sides, Sides):
            raise InvalidScenario(f"sides must be a Sides value, got {self.sides!r}")
        object.__setattr__(self, "alpha_joint", real(self.alpha_joint, "alpha_joint", 0, 1, error=InvalidScenario))
        if self.method not in FWER_METHODS:
            raise InvalidScenario(
                f"scenario method must control the FWER ({', '.join(m.value for m in FWER_METHODS)}), "
                f"got {getattr(self.method, 'value', self.method)!r}"
            )
        self._set_run(self.reps, self.seed)

    def _set_run(self, reps, seed) -> None:
        object.__setattr__(self, "reps", integer(reps, "reps", 1, MAX_REPS, error=InvalidScenario))
        object.__setattr__(self, "seed", integer(seed, "seed", 0, 2**64 - 1, error=InvalidScenario))

    def with_run(self, reps: int, seed: int) -> Scenario:
        """This scenario with ``reps`` and ``seed`` replaced. Only those two
        are checked: the k-entry columns, checked when ``self`` was built,
        are shared rather than walked again."""
        run = copy.copy(self)
        run._set_run(reps, seed)
        return run


def validate_family(spec: FamilySpec) -> ValidationReport:
    """Check the declared structure of a family.

    Structural violations (no constituents, duplicated ids) are errors.
    A disjunction family whose constituents are not declared exchangeable
    gets a warning, not an error: exchangeability is required for any
    constituent rejection to license the joint inference, but it is a
    theoretical judgment the caller may stand behind deliberately.
    """
    errors: list[ValidationIssue] = []
    warnings: list[ValidationIssue] = []
    if spec.k == 0:
        errors.append(ValidationIssue("EmptyFamily", "family declares no constituent hypotheses"))
    seen: set[str] = set()
    for token in spec.constituents:
        if token in seen:
            errors.append(
                ValidationIssue("DuplicateConstituent", f"constituent {token!r} appears more than once")
            )
        seen.add(token)
    if spec.mode is TestingMode.DISJUNCTION and not spec.exchangeable:
        warnings.append(
            ValidationIssue(
                "NotExchangeable",
                "constituents must be theoretically exchangeable for disjunction testing: "
                "a significant result for any one of them has to carry the same inferential "
                "weight for the joint hypothesis",
            )
        )
    return ValidationReport(errors=tuple(errors), warnings=tuple(warnings))


def classify_testing_mode(answers: ClassificationInput) -> Recommendation:
    """Deterministic rule cascade from study questions to a testing mode.

    No statistical claim -> not applicable. No joint inference -> individual
    testing, unadjusted. A joint inference over a family with no theoretical
    relevance is a heap of unrelated hypotheses: downgrade to individual
    testing with a warning. Otherwise conjunction (all constituents must
    succeed, unadjusted) or disjunction (any success suffices, adjust alpha).
    """
    if not answers.statistical_claim:
        return Recommendation(
            mode=None,
            rationale=(
                Rationale(
                    "no-statistical-claim",
                    "the conclusion is not tied to a specific p-value and alpha level, so "
                    "no alpha policy applies",
                ),
            ),
        )
    if not answers.joint_inference:
        return Recommendation(
            mode=TestingMode.INDIVIDUAL,
            rationale=(
                Rationale(
                    "individual-decisions",
                    "each hypothesis is decided by its own single test, so the per-test "
                    "alpha stays unadjusted regardless of how many tests run side by side",
                ),
            ),
        )
    if not answers.family_theoretically_relevant:
        return Recommendation(
            mode=TestingMode.INDIVIDUAL,
            rationale=(
                Rationale(
                    "heap-of-hypotheses",
                    "the declared family has no theoretical or practical relevance as a joint "
                    "hypothesis; a joint inference over it would answer a question nobody is asking",
                ),
                Rationale(
                    "downgraded-to-individual",
                    "recommending individual testing of the constituents instead; override "
                    "deliberately if the joint hypothesis really is of interest",
                ),
            ),
        )
    if answers.all_constituents_required:
        return Recommendation(
            mode=TestingMode.CONJUNCTION,
            rationale=(
                Rationale(
                    "conjunction-all-required",
                    "the joint claim needs every constituent test to succeed, which leaves a "
                    "single opportunity to reject the joint null; the per-test alpha equals the "
                    "joint alpha with no adjustment",
                ),
            ),
        )
    rationale = [
        Rationale(
            "disjunction-any-suffices",
            "any single significant constituent rejects the joint null, so each test is an "
            "extra opportunity for a false joint rejection; lower the per-test alpha to hold "
            "the joint alpha",
        )
    ]
    if not answers.exchangeable:
        rationale.append(
            Rationale(
                "not-exchangeable",
                "constituents are not declared exchangeable; disjunction testing assumes any "
                "constituent rejection licenses the joint inference equally",
            )
        )
    return Recommendation(mode=TestingMode.DISJUNCTION, rationale=tuple(rationale))
