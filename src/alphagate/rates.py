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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

#: Largest supported family size.
K_MAX = 10_000_000
#: Largest supported per-group sample size: every integer up to it is a double.
N_MAX = 2**53

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _check_unit_open(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise DomainError(f"{name} must lie strictly inside (0, 1), got {value}")
    return value


def _check_k(k: int) -> int:
    if not isinstance(k, int) or isinstance(k, bool):
        raise DomainError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= K_MAX:
        raise DomainError(f"k must lie in [1, {K_MAX}], got {k}")
    return k


def _check_n(n: int, error: type[ValueError] = DomainError) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or not 2 <= n <= N_MAX:
        raise error(f"n must be an integer in [2, 2**53], got {n!r}")
    return n


def fwer_independent(alpha: float, k: int) -> float:
    """Familywise error rate for k independent tests at per-test level alpha."""
    alpha = _check_unit_open(alpha, "alpha")
    k = _check_k(k)
    if k == 1:
        return alpha
    return -math.expm1(k * math.log1p(-alpha))


def per_family_rate(alpha: float, k: int) -> float:
    """Expected count of false positives among k true-null tests (k * alpha)."""
    alpha = _check_unit_open(alpha, "alpha")
    k = _check_k(k)
    return k * alpha


def sidak_adjust(alpha_joint: float, k: int) -> float:
    """Per-test alpha whose k-test FWER is exactly alpha_joint (under independence)."""
    alpha_joint = _check_unit_open(alpha_joint, "alpha_joint")
    k = _check_k(k)
    if k == 1:
        return alpha_joint
    return -math.expm1(math.log1p(-alpha_joint) / k)


def bonferroni_adjust(alpha_joint: float, k: int) -> float:
    """Per-test alpha alpha_joint / k; controls FWER under any dependence."""
    alpha_joint = _check_unit_open(alpha_joint, "alpha_joint")
    k = _check_k(k)
    return alpha_joint / k


def conjunction_type2(beta_constituent: float, k: int) -> float:
    """Joint Type II rate when all k tests must succeed and each misses at rate beta."""
    beta_constituent = _check_unit_open(beta_constituent, "beta_constituent")
    k = _check_k(k)
    if k == 1:
        return beta_constituent
    return -math.expm1(k * math.log1p(-beta_constituent))


def conjunction_power(power_constituent: float, k: int) -> float:
    """Joint power of a conjunction test: per-test power raised to the k-th."""
    power_constituent = _check_unit_open(power_constituent, "power_constituent")
    k = _check_k(k)
    return power_constituent**k


def power_one_sided_z(alpha: float, delta: float, n: int) -> float:
    """Power of a one-sided two-sample z test with per-group size n.

    The test statistic is the standardized mean difference with known unit
    variance, so power is ``Phi(delta * sqrt(n/2) - z_{1-alpha})``. This is
    the simplest power model consistent with two-group comparisons and is a
    modeling choice of this tool, used by :func:`optimal_alpha`.
    """
    alpha = _check_unit_open(alpha, "alpha")
    delta = float(delta)
    if not delta >= 0.0 or not math.isfinite(delta):
        raise DomainError(f"delta must be a finite real >= 0, got {delta}")
    n = _check_n(n)
    from scipy.special import ndtr, ndtri  # the rest of this module needs no scipy

    # z_{1-alpha} is exactly -ndtri(alpha); ndtri(1 - alpha) would lose a
    # tiny alpha to the rounding of 1 - alpha
    return float(ndtr(delta * math.sqrt(n / 2.0) + ndtri(alpha)))


@dataclass(frozen=True)
class CostModel:
    """Inputs to the optimal-alpha search.

    ``omega`` weights the cost of a Type I error relative to a Type II error
    at the critical effect size ``delta`` and per-group sample size ``n``;
    the search is confined to ``alpha_bounds`` (a closed interval inside
    (0, 1)).
    """

    omega: float
    delta: float
    n: int
    alpha_bounds: tuple[float, float]

    def __post_init__(self) -> None:
        if not 0.0 <= self.omega <= 1.0:
            raise DomainError(f"omega must lie in [0, 1], got {self.omega}")
        if not self.delta >= 0.0 or not math.isfinite(self.delta):
            raise DomainError(f"delta must be a finite real >= 0, got {self.delta}")
        _check_n(self.n)
        lower, upper = self.alpha_bounds
        if not (0.0 < lower < upper < 1.0):
            raise DomainError(
                f"alpha_bounds must satisfy 0 < lower < upper < 1, got ({lower}, {upper})"
            )
        object.__setattr__(self, "alpha_bounds", (float(lower), float(upper)))


def optimal_alpha(cost: CostModel) -> tuple[float, float]:
    """Alpha in ``cost.alpha_bounds`` minimizing the weighted error cost.

    The objective is ``omega * alpha + (1 - omega) * beta(alpha)`` with
    ``beta = 1 - power_one_sided_z(alpha, delta, n)``; this weighted sum is
    one reasonable instantiation of cost-balanced alpha choice, labeled as a
    tool convention rather than a canonical definition. Golden-section search
    narrows the bracket to 1e-9, the bracket endpoints are compared against
    the original bounds, and ties break toward the smaller alpha.
    """
    if not isinstance(cost, CostModel):
        raise DomainError(f"expected a CostModel, got {type(cost).__name__}")

    def objective(alpha: float) -> float:
        return cost.omega * alpha + (1.0 - cost.omega) * (
            1.0 - power_one_sided_z(alpha, cost.delta, cost.n)
        )

    lower, upper = cost.alpha_bounds
    a, b = lower, upper
    while b - a > 1e-9:
        c = b - (b - a) * _INVPHI
        d = a + (b - a) * _INVPHI
        # <= keeps the left subinterval on ties: smaller alpha wins
        if objective(c) <= objective(d):
            b = d
        else:
            a = c
    candidates = sorted({lower, 0.5 * (a + b), upper})
    alpha_star = min(candidates, key=lambda x: (objective(x), x))
    return alpha_star, objective(alpha_star)


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
    for name, value in (("t", t), ("h", h)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise DomainError(f"{name} must be an integer >= 1, got {value!r}")
    if t % h != 0:
        raise DomainError(f"h must divide t, got t={t}, h={h}")
    alpha = _check_unit_open(alpha, "alpha")
    k = t // h
    return ErrorRateReport(
        t=t,
        h=h,
        k=k,
        alpha_per_test=alpha,
        per_family_rate=per_family_rate(alpha, k),
        fwer=fwer_independent(alpha, k),
    )


@dataclass(frozen=True)
class PowerSpec:
    """Per-test and joint Type II rates for a k-test conjunction design."""

    beta_constituent: float
    beta_joint: float
    k: int

    def __post_init__(self) -> None:
        expected = conjunction_type2(self.beta_constituent, self.k)
        if abs(self.beta_joint - expected) > 1e-12:
            raise DomainError(
                f"beta_joint must equal 1 - (1 - beta_constituent)**k = {expected!r}, "
                f"got {self.beta_joint!r}"
            )

    @classmethod
    def for_constituents(cls, beta_constituent: float, k: int) -> "PowerSpec":
        return cls(
            beta_constituent=float(beta_constituent),
            beta_joint=conjunction_type2(beta_constituent, k),
            k=k,
        )
