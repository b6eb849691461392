"""Domain vocabulary for multiple testing.

A *joint* hypothesis bundles two or more *constituent* hypotheses into a
family and is judged by either a disjunction rule (at least one constituent
test significant) or a conjunction rule (all constituent tests significant).
*Individual* testing makes one decision per hypothesis and never forms a
family. Only disjunction testing requires lowering the per-test alpha;
conjunction and individual testing run each test at the unadjusted level.

This module holds the value types for families, alpha configurations and
simulation scenarios, plus two operations:

* :func:`validate_family` checks the declared structure of a family and
  warns when a disjunction family is not declared exchangeable.
* :func:`classify_testing_mode` maps five explicit yes/no study questions to
  a recommended testing mode and tells you whether to adjust alpha.

Family membership is always declared by the caller; nothing here tries to
infer it from data, and exchangeability/independence are taken as the
theoretical judgments they are.

:class:`~alphagate.battery.TestBattery`, the battery of p-values, lives in
:mod:`alphagate.battery` and is re-exported here, as are the names of
:mod:`alphagate.enums`.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields

from .battery import TestBattery  # noqa: F401  (re-exported)
from .enums import FWER_METHODS, AdjustmentMethod, Sides, TestingMode
from .errors import DomainError, InvalidScenario
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


#: The text of each rationale code :func:`classify_testing_mode` gives, in
#: the order of its rule cascade
_RATIONALE = {
    "no-statistical-claim": "the conclusion is not tied to a specific p-value and alpha level, so no alpha "
        "policy applies",
    "individual-decisions": "each hypothesis is decided by its own single test, so the per-test alpha stays "
        "unadjusted regardless of how many tests run side by side",
    "heap-of-hypotheses": "the declared family has no theoretical or practical relevance as a joint "
        "hypothesis; a joint inference over it would answer a question nobody is asking",
    "downgraded-to-individual": "recommending individual testing of the constituents instead; override "
        "deliberately if the joint hypothesis really is of interest",
    "conjunction-all-required": "the joint claim needs every constituent test to succeed, which leaves a "
        "single opportunity to reject the joint null; the per-test alpha equals the joint alpha with no "
        "adjustment",
    "disjunction-any-suffices": "any single significant constituent rejects the joint null, so each test is "
        "an extra opportunity for a false joint rejection; lower the per-test alpha to hold the joint alpha",
    "not-exchangeable": "constituents are not declared exchangeable; disjunction testing assumes any "
        "constituent rejection licenses the joint inference equally",
}


def classify_testing_mode(answers: ClassificationInput) -> Recommendation:
    """Deterministic rule cascade from study questions to a testing mode.

    No statistical claim -> not applicable. No joint inference -> individual
    testing, unadjusted. A joint inference over a family with no theoretical
    relevance is a heap of unrelated hypotheses: downgrade to individual
    testing with a warning. Otherwise conjunction (all constituents must
    succeed, unadjusted) or disjunction (any success suffices, adjust alpha).
    """
    if not answers.statistical_claim:
        mode, codes = None, ["no-statistical-claim"]
    elif not answers.joint_inference:
        mode, codes = TestingMode.INDIVIDUAL, ["individual-decisions"]
    elif not answers.family_theoretically_relevant:
        mode, codes = TestingMode.INDIVIDUAL, ["heap-of-hypotheses", "downgraded-to-individual"]
    elif answers.all_constituents_required:
        mode, codes = TestingMode.CONJUNCTION, ["conjunction-all-required"]
    else:
        mode, codes = TestingMode.DISJUNCTION, ["disjunction-any-suffices"]
        if not answers.exchangeable:
            codes.append("not-exchangeable")
    return Recommendation(mode, [Rationale(code, _RATIONALE[code]) for code in codes])
