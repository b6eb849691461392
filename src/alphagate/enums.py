"""The package's enumerations and its set of FWER methods.

This module imports nothing but ``enum``, so the CLI can build its parser
from it without loading the value types of :mod:`alphagate.families`.
"""

from enum import Enum


class TestingMode(Enum):
    """How multiple test results feed decisions about hypotheses."""

    INDIVIDUAL = "individual"
    DISJUNCTION = "disjunction"
    CONJUNCTION = "conjunction"


class AdjustmentMethod(Enum):
    """Per-test alpha adjustment procedures (NONE = unadjusted)."""

    NONE = "none"
    BONFERRONI = "bonferroni"
    SIDAK = "sidak"
    HOLM = "holm"
    HOCHBERG = "hochberg"
    BENJAMINI_HOCHBERG = "bh"


#: Methods that control the familywise error rate: the ones disjunction
#: testing and the simulator accept.
FWER_METHODS = (
    AdjustmentMethod.BONFERRONI,
    AdjustmentMethod.SIDAK,
    AdjustmentMethod.HOLM,
    AdjustmentMethod.HOCHBERG,
)


class Sides(Enum):
    ONE_SIDED = "one_sided"
    TWO_SIDED = "two_sided"
