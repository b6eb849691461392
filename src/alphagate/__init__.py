"""alphagate: a multiple-testing decision engine.

Three testing modes (individual, disjunction, conjunction) with their
alpha-adjustment contracts, closed-form error-rate math, FWER/FDR decision
procedures, and a seeded Monte Carlo simulator that verifies the analytic
claims over independent, equicorrelated, and shared-control test designs.

Every public name loads its submodule on first access, so importing the
package imports none of them, and neither numpy nor scipy.
"""

import importlib
import sys
from types import ModuleType

__version__ = "0.1.0"

#: public names, each resolved on first access -> the submodule that defines it
_LAZY = {
    "Decision": "decisions",
    "Verdict": "decisions",
    "apply_bh": "decisions",
    "decide_conjunction": "decisions",
    "decide_disjunction": "decisions",
    "decide_individual": "decisions",
    "AdjustmentMethod": "enums",
    "Sides": "enums",
    "TestingMode": "enums",
    "DomainError": "errors",
    "FileFormatError": "errors",
    "InvalidBattery": "errors",
    "InvalidMethod": "errors",
    "InvalidScenario": "errors",
    "AlphaConfig": "families",
    "ClassificationInput": "families",
    "Design": "families",
    "FamilySpec": "families",
    "Rationale": "families",
    "Recommendation": "families",
    "Scenario": "families",
    "TestBattery": "battery",
    "ValidationIssue": "families",
    "ValidationReport": "families",
    "classify_testing_mode": "families",
    "validate_family": "families",
    "ErrorRateReport": "rates",
    "bonferroni_adjust": "rates",
    "conjunction_power": "rates",
    "conjunction_type2": "rates",
    "error_rate_report": "rates",
    "fwer_independent": "rates",
    "per_family_rate": "rates",
    "power_one_sided_z": "rates",
    "sidak_adjust": "rates",
    "derive_rep_seed": "rng",
    "Estimates": "simulate",
    "p_from_z": "simulate",
    "sample_statistics": "simulate",
    "simulate": "simulate",
    "wilson_ci": "simulate",
}

__all__ = list(_LAZY)


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
