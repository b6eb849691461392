"""Decision rules for judging a battery of p-values.

Three rules cover the three testing modes:

* :func:`decide_individual`: one decision per hypothesis at the unadjusted
  alpha; no joint verdict exists.
* :func:`decide_disjunction`: the joint null falls if at least one
  constituent is significant at its adjusted threshold (single-step
  Bonferroni/Sidak, step-down Holm, or step-up Hochberg).
* :func:`decide_conjunction`: the joint null falls only if every
  constituent is significant at the unadjusted joint alpha.

:func:`apply_bh` adds the Benjamini-Hochberg step-up procedure for screening
use; it controls the false discovery rate, not the familywise error rate,
and its per-hypothesis decisions remain individual decisions.

Every rule is the same two steps. :func:`steps` gives the threshold the
i-th smallest p-value faces: the unadjusted alpha (individual and
conjunction testing), the Bonferroni or Sidak level, ``alpha / (k - i + 1)``
(Holm and Hochberg) or ``i * q / m`` (Benjamini-Hochberg, whose last
step is exactly q). :func:`reject` meets a batch of batteries with those
thresholds: single-step, step-down (Holm: reject up to the first failure)
or step-up (Hochberg and BH: reject up to the last pass). The rules above judge a one-row batch; the simulator
takes its joint thresholds from the same :func:`steps`.

Throughout, a test is significant when ``p <= threshold`` (rejection at
equality). Ties in p are ordered stably by battery position, which never
changes which hypotheses get rejected, only the bookkeeping order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING

from .errors import InvalidBattery, InvalidMethod
from .families import FWER_METHODS, AdjustmentMethod, TestBattery, TestingMode
from .rates import bonferroni_adjust, sidak_adjust
from .validators import real

if TYPE_CHECKING:
    import numpy as np


class Verdict(Enum):
    REJECT = "reject"
    RETAIN = "retain"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True, eq=False)
class Decision:
    """Outcome of judging one battery under one testing mode.

    ``ids``, ``rejected`` (bool) and ``thresholds`` (float64) are columns in
    battery order. ``per_hypothesis`` and ``thresholds_used`` give the same
    by id, as dicts built on first access. ``joint`` is NOT_APPLICABLE
    exactly when the mode makes no joint claim. ``notes`` carries stable
    advisory codes (documented in the README).
    """

    mode: TestingMode
    ids: tuple[str, ...]
    rejected: np.ndarray
    thresholds: np.ndarray
    joint: Verdict
    notes: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return self.mode, self.ids, self.rejected.tolist(), self.thresholds.tolist(), self.joint, self.notes

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, Decision) else NotImplemented

    @cached_property
    def per_hypothesis(self) -> dict[str, Verdict]:
        verdicts = (Verdict.RETAIN, Verdict.REJECT)
        return dict(zip(self.ids, map(verdicts.__getitem__, self.rejected.tolist())))

    @cached_property
    def thresholds_used(self) -> dict[str, float]:
        return dict(zip(self.ids, self.thresholds.tolist()))


#: Advisory note attached to every disjunction decision: constituent-level
#: outcomes under disjunction testing license only the joint inference.
NOTE_JOINT_INFERENCE_ONLY = "joint-inference-only"
NOTE_FDR_NOT_FWER = "fdr-control-not-fwer"

_SINGLE_STEP = (AdjustmentMethod.NONE, AdjustmentMethod.BONFERRONI, AdjustmentMethod.SIDAK)


def steps(method: AdjustmentMethod, alpha: float, k: int) -> np.ndarray:
    """Threshold that the i-th smallest of k p-values faces, i = 1..k."""
    import numpy as np  # only the kernel needs numpy, so importing decisions stays light

    if method is AdjustmentMethod.HOLM or method is AdjustmentMethod.HOCHBERG:
        return alpha / np.arange(k, 0, -1, dtype=np.float64)
    if method is AdjustmentMethod.BENJAMINI_HOCHBERG:
        t = np.arange(1, k + 1, dtype=np.float64) * alpha / k
        # k * q / k can round one double below q, Hochberg's last step, which
        # would let Hochberg reject a battery that BH retains
        t[-1] = alpha
        return t
    if method is AdjustmentMethod.BONFERRONI:
        alpha = bonferroni_adjust(alpha, k)
    elif method is AdjustmentMethod.SIDAK:
        alpha = sidak_adjust(alpha, k)
    elif method is not AdjustmentMethod.NONE:
        raise InvalidMethod(f"unknown adjustment method {method!r}")
    return np.full(k, alpha)


def reject(p: np.ndarray, alpha: float, method: AdjustmentMethod) -> tuple[np.ndarray, np.ndarray]:
    """Rejections and thresholds, both in input order, of each row of p
    (shape (rows, k)) under ``method`` at level ``alpha``."""
    import numpy as np

    p = np.asarray(p, dtype=np.float64)
    t = steps(method, alpha, p.shape[1])
    if method in _SINGLE_STEP:
        return p <= t, np.broadcast_to(t, p.shape)
    order = np.argsort(p, axis=1, kind="stable")  # ties keep battery order
    passes = np.take_along_axis(p, order, axis=1) <= t
    if method is AdjustmentMethod.HOLM:  # step down: every rank before the first failure
        passes = np.logical_and.accumulate(passes, axis=1)
    else:  # step up: every rank up to the last pass
        passes = np.logical_or.accumulate(passes[:, ::-1], axis=1)[:, ::-1]
    rejected = np.empty_like(passes)
    np.put_along_axis(rejected, order, passes, axis=1)
    thresholds = np.empty_like(p)
    np.put_along_axis(thresholds, order, np.broadcast_to(t, p.shape), axis=1)
    return rejected, thresholds


def _judge(
    battery: TestBattery, alpha: float, name: str, method: AdjustmentMethod
) -> tuple[np.ndarray, np.ndarray]:
    """Rejections and thresholds, in battery order, of one battery."""
    if not isinstance(battery, TestBattery):
        raise InvalidBattery(f"expected a TestBattery, got {type(battery).__name__}")
    if len(battery) == 0:
        raise InvalidBattery("battery holds no tests")
    alpha = real(alpha, name, 0, 1)
    rejected, thresholds = (column[0] for column in reject(battery.p[None, :], alpha, method))
    rejected.flags.writeable = thresholds.flags.writeable = False
    return rejected, thresholds


def decide_individual(battery: TestBattery, alpha_individual: float) -> Decision:
    """Judge each hypothesis on its own test; make no joint claim.

    The threshold is ``alpha_individual`` for every entry no matter how many
    entries the battery holds: each decision depends only on its own p-value,
    so adding unrelated tests can never flip an existing decision.
    """
    rejected, thresholds = _judge(battery, alpha_individual, "alpha_individual", AdjustmentMethod.NONE)
    return Decision(TestingMode.INDIVIDUAL, battery.ids, rejected, thresholds, Verdict.NOT_APPLICABLE)


def decide_disjunction(
    battery: TestBattery, alpha_joint: float, method: AdjustmentMethod
) -> Decision:
    """Reject the joint null if any constituent clears its adjusted threshold.

    Bonferroni and Sidak are single-step: every p-value faces the same
    adjusted threshold. Holm steps down through the sorted p-values and stops
    at the first failure; Hochberg steps up and rejects everything at or
    below the largest passing position. Both use thresholds
    ``alpha_joint / (k - i + 1)`` at sorted position i.
    """
    if method not in FWER_METHODS:
        raise InvalidMethod(
            f"disjunction testing needs a FWER-controlling method "
            f"({', '.join(m.value for m in FWER_METHODS)}), got {getattr(method, 'value', method)!r}"
        )
    rejected, thresholds = _judge(battery, alpha_joint, "alpha_joint", method)
    triggered = ",".join(compress(battery.ids, rejected.tolist()))
    notes = (NOTE_JOINT_INFERENCE_ONLY,) + ((f"triggered-by={triggered}",) if triggered else ())
    joint = Verdict.REJECT if triggered else Verdict.RETAIN
    return Decision(TestingMode.DISJUNCTION, battery.ids, rejected, thresholds, joint, notes)


def decide_conjunction(battery: TestBattery, alpha_joint: float) -> Decision:
    """Reject the joint null only if every constituent is significant.

    All-tests-significant leaves a single opportunity to reject the joint
    null, so each constituent is compared to the unadjusted ``alpha_joint``
    (the per-test level can never sit above the joint level, and raising it
    is not on offer either).
    """
    rejected, thresholds = _judge(battery, alpha_joint, "alpha_joint", AdjustmentMethod.NONE)
    joint = Verdict.REJECT if rejected.all() else Verdict.RETAIN
    return Decision(TestingMode.CONJUNCTION, battery.ids, rejected, thresholds, joint)


def apply_bh(battery: TestBattery, q: float) -> Decision:
    """Benjamini-Hochberg step-up procedure at FDR level q.

    Sorting p ascending, find the largest position i with
    ``p_(i) <= i * q / m`` (``q`` itself at i = m) and reject positions
    1..i (none when no position passes). The decisions are individual screening decisions (the
    procedure bounds the expected fraction of false rejections, not the
    probability of any false rejection), so no joint verdict is made.
    """
    rejected, thresholds = _judge(battery, q, "q", AdjustmentMethod.BENJAMINI_HOCHBERG)
    return Decision(
        TestingMode.INDIVIDUAL, battery.ids, rejected, thresholds, Verdict.NOT_APPLICABLE, (NOTE_FDR_NOT_FWER,)
    )
