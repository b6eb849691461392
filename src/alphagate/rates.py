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

from .errors import DomainError
from .validators import K_MAX, N_MAX, Record, integer, real


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


class ErrorRateReport(Record):
    """Error-rate bookkeeping for t tests spread over h primary hypotheses;
    ``k`` = t/h, ``per_family_rate`` and ``fwer`` are derived. A report is
    a read-only :class:`~alphagate.validators.Record`, equal to (and hashed
    as) any report of the same fields."""

    __match_args__ = ("t", "h", "alpha_per_test")

    def __init__(self, t: int, h: int, alpha_per_test: float) -> None:
        t = integer(t, "t", 1)
        h = integer(h, "h", 1)
        if t % h != 0:
            raise DomainError(f"h must divide t, got t={t}, h={h}")
        alpha_per_test = real(alpha_per_test, "alpha", 0, 1)
        integer(t // h, "k", 1, K_MAX)  # so that the rates below never raise
        self._set(t=t, h=h, alpha_per_test=alpha_per_test)

    def _key(self) -> tuple:
        return self.t, self.h, self.alpha_per_test

    @property
    def k(self) -> int:
        return self.t // self.h

    @property
    def per_family_rate(self) -> float:
        return per_family_rate(self.alpha_per_test, self.k)

    @property
    def fwer(self) -> float:
        return fwer_independent(self.alpha_per_test, self.k)


def error_rate_report(t: int, h: int, alpha: float) -> ErrorRateReport:
    """Contrast joint-level and per-hypothesis Type I error rates.

    With t significance tests spread over h primary hypotheses, each primary
    hypothesis rests on k = t/h tests. Its familywise error rate is
    ``1 - (1 - alpha)**k`` and the expected false-positive count across the
    k tests is ``k * alpha``. At k = 1 (one test per hypothesis) both
    collapse to alpha: running many individual tests never inflates the
    error rate of any single one of them.
    """
    return ErrorRateReport(t, h, alpha)
