"""alphagate: a multiple-testing decision engine.

Three testing modes (individual, disjunction, conjunction) with their
alpha-adjustment contracts, closed-form error-rate math, FWER/FDR decision
procedures, and a seeded Monte Carlo simulator that verifies the analytic
claims over independent, equicorrelated, and shared-control test designs.

The simulator's names (and ``derive_rep_seed``) load on first access, so
importing the package does not import numpy or scipy.
"""

import importlib
import sys
from types import ModuleType

from .decisions import (
    Decision,
    Verdict,
    apply_bh,
    decide_conjunction,
    decide_disjunction,
    decide_individual,
)
from .errors import (
    DomainError,
    FileFormatError,
    InvalidBattery,
    InvalidMethod,
    InvalidScenario,
)
from .families import (
    AdjustmentMethod,
    AlphaConfig,
    ClassificationInput,
    Design,
    FamilySpec,
    Rationale,
    Recommendation,
    Scenario,
    Sides,
    TestBattery,
    TestingMode,
    ValidationIssue,
    ValidationReport,
    classify_testing_mode,
    validate_family,
)
from .rates import (
    ErrorRateReport,
    bonferroni_adjust,
    conjunction_power,
    conjunction_type2,
    error_rate_report,
    fwer_independent,
    per_family_rate,
    power_one_sided_z,
    sidak_adjust,
)

__version__ = "0.1.0"

#: names resolved on first access -> the submodule that defines them
_LAZY = {
    "derive_rep_seed": "rng",
    "Estimates": "simulate",
    "p_from_z": "simulate",
    "sample_statistics": "simulate",
    "simulate": "simulate",
    "wilson_ci": "simulate",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


class _Package(ModuleType):
    # importing the submodule simulate assigns it to the package attribute of
    # that name, which is the function simulate
    def __setattr__(self, name, value):
        if not (name == "simulate" and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__all__ = [
    "AdjustmentMethod",
    "AlphaConfig",
    "ClassificationInput",
    "Decision",
    "Design",
    "DomainError",
    "ErrorRateReport",
    "Estimates",
    "FamilySpec",
    "FileFormatError",
    "InvalidBattery",
    "InvalidMethod",
    "InvalidScenario",
    "Rationale",
    "Recommendation",
    "Scenario",
    "Sides",
    "TestBattery",
    "TestingMode",
    "ValidationIssue",
    "ValidationReport",
    "Verdict",
    "apply_bh",
    "bonferroni_adjust",
    "classify_testing_mode",
    "conjunction_power",
    "conjunction_type2",
    "decide_conjunction",
    "decide_disjunction",
    "decide_individual",
    "derive_rep_seed",
    "error_rate_report",
    "fwer_independent",
    "p_from_z",
    "per_family_rate",
    "power_one_sided_z",
    "sample_statistics",
    "sidak_adjust",
    "simulate",
    "validate_family",
    "wilson_ci",
]
