"""Closed-form error rates, alpha adjustments, and power arithmetic.

All formulas assume k independent tests of true nulls at per-test level
``alpha``:

* familywise error rate (probability of at least one false rejection):
  ``1 - (1 - alpha)**k``
* per-family error rate (expected count of false rejections): ``k * alpha``,
  which may exceed 1 because it is an expectation, not a probability
* Sidak adjustment (exact inverse of the FWER formula):
  ``1 - (1 - alpha_joint)**(1/k)``
* Bonferroni adjustment: ``alpha_joint / k``, valid under arbitrary dependence

Conjunction testing flips the arithmetic to Type II errors: if each of k
tests has Type II rate ``beta``, the joint Type II rate is
``1 - (1 - beta)**k`` and the joint power is ``power**k``.

Powers of (1 - x) are evaluated as ``expm1(k * log1p(-x))`` so tiny alphas
(down to genome-scale thresholds such as 5e-8) keep full precision; k is
capped at K_MAX to keep that evaluation numerically benign.

The power model's normal CDF and quantile come from :mod:`alphagate.normal`,
which returns scipy's bits without scipy, so nothing here loads scipy or
numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .validators import K_MAX, N_MAX, integer, real


def _any_of(x: float, k: int) -> float:
    """``1 - (1 - x)**k``: the chance that at least one of k independent
    events of probability x occurs."""
    if k == 1 or x == 1.0:  # log1p(-1) is a domain error
        return x
    return -math.expm1(k * math.log1p(-x))


def fwer_independent(alpha: float, k: int) -> float:
    """Familywise error rate for k independent tests at per-test level alpha."""
    return _any_of(real(alpha, "alpha", 0, 1), integer(k, "k", 1, K_MAX))


def per_family_rate(alpha: float, k: int) -> float:
    """Expected count of false positives among k true-null tests (k * alpha)."""
    alpha = real(alpha, "alpha", 0, 1)
    k = integer(k, "k", 1, K_MAX)
    return k * alpha


def sidak_adjust(alpha_joint: float, k: int) -> float:
    """Per-test alpha whose k-test FWER is exactly alpha_joint (under independence)."""
    alpha_joint = real(alpha_joint, "alpha_joint", 0, 1)
    k = integer(k, "k", 1, K_MAX)
    if k == 1:
        return alpha_joint
    return -math.expm1(math.log1p(-alpha_joint) / k)


def bonferroni_adjust(alpha_joint: float, k: int) -> float:
    """Per-test alpha alpha_joint / k; controls FWER under any dependence."""
    alpha_joint = real(alpha_joint, "alpha_joint", 0, 1)
    k = integer(k, "k", 1, K_MAX)
    return alpha_joint / k


def conjunction_type2(beta_constituent: float, k: int) -> float:
    """Joint Type II rate when all k tests must succeed and each misses at rate beta."""
    return _any_of(real(beta_constituent, "beta_constituent", 0, 1, "[]"), integer(k, "k", 1, K_MAX))


def conjunction_power(power_constituent: float, k: int) -> float:
    """Joint power of a conjunction test: per-test power raised to the k-th."""
    power_constituent = real(power_constituent, "power_constituent", 0, 1, "[]")
    k = integer(k, "k", 1, K_MAX)
    return power_constituent**k


def power_one_sided_z(alpha: float, delta: float, n: int) -> float:
    """Power of a one-sided two-sample z test with per-group size n.

    The test statistic is the standardized mean difference with known unit
    variance, so power is ``Phi(delta * sqrt(n/2) - z_{1-alpha})``. This is
    the simplest power model consistent with two-group comparisons and is a
    modeling choice of this tool.
    """
    alpha = real(alpha, "alpha", 0, 1)
    delta = real(delta, "delta", 0, math.inf, "[)")
    n = integer(n, "n", 2, N_MAX)
    from .normal import ndtr, ndtri  # imported here so that the other commands never load it

    # z_{1-alpha} is exactly -ndtri(alpha); ndtri(1 - alpha) would lose a
    # tiny alpha to the rounding of 1 - alpha
    return ndtr(delta * math.sqrt(n / 2.0) + ndtri(alpha))


@dataclass(frozen=True)
class ErrorRateReport:
    """Error-rate bookkeeping for t tests spread over h primary hypotheses."""

    t: int
    h: int
    k: int
    alpha_per_test: float
    per_family_rate: float
    fwer: float

    def __post_init__(self) -> None:
        if self.t != self.k * self.h:
            raise DomainError(f"t must equal k * h, got t={self.t}, k={self.k}, h={self.h}")
        if self.per_family_rate != self.k * self.alpha_per_test:
            raise DomainError("per_family_rate must equal k * alpha_per_test")
        if not 0.0 <= self.fwer <= 1.0 or self.fwer > self.per_family_rate:
            raise DomainError("fwer must lie in [0, 1] and never exceed the per-family rate")


def error_rate_report(t: int, h: int, alpha: float) -> ErrorRateReport:
    """Contrast joint-level and per-hypothesis Type I error rates.

    With t significance tests spread over h primary hypotheses, each primary
    hypothesis rests on k = t/h tests. Its familywise error rate is
    ``1 - (1 - alpha)**k`` and the expected false-positive count across the
    k tests is ``k * alpha``. At k = 1 (one test per hypothesis) both
    collapse to alpha: running many individual tests never inflates the
    error rate of any single one of them.
    """
    t, h = integer(t, "t", 1), integer(h, "h", 1)
    if t % h != 0:
        raise DomainError(f"h must divide t, got t={t}, h={h}")
    alpha = real(alpha, "alpha", 0, 1)
    k = t // h
    return ErrorRateReport(
        t=t,
        h=h,
        k=k,
        alpha_per_test=alpha,
        per_family_rate=per_family_rate(alpha, k),
        fwer=fwer_independent(alpha, k),
    )
