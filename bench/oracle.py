"""Reference rejection sets for the decide-battery output check.

Plain numpy, independent of alphagate's code: stable argsort on p, the
textbook threshold sequences, and rejection at equality (p <= threshold).
Thresholds are formed with the same float operations the procedures
document, so a p-value sitting exactly on a threshold is judged the same.
"""

from __future__ import annotations

import numpy as np


def _sorted_passes(p: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(p, kind="stable")
    return order, p[order] <= steps


def _reject_first(order: np.ndarray, n_reject: int, m: int) -> np.ndarray:
    rejected = np.zeros(m, dtype=bool)
    rejected[order[:n_reject]] = True
    return rejected


def _step_up(p: np.ndarray, steps: np.ndarray) -> np.ndarray:
    order, passes = _sorted_passes(p, steps)
    hits = np.flatnonzero(passes)
    return _reject_first(order, int(hits[-1]) + 1 if hits.size else 0, p.size)


def reject_bh(p: np.ndarray, q: float) -> np.ndarray:
    """Benjamini-Hochberg: reject the i smallest for the largest i with
    p_(i) <= i * q / m."""
    m = p.size
    return _step_up(p, np.arange(1, m + 1, dtype=np.float64) * q / m)


def _holm_steps(m: int, alpha: float) -> np.ndarray:
    return alpha / (m - np.arange(m, dtype=np.float64))


def reject_holm(p: np.ndarray, alpha: float) -> np.ndarray:
    """Holm step-down: reject in sorted order until p_(i) > alpha / (m - i + 1)."""
    order, passes = _sorted_passes(p, _holm_steps(p.size, alpha))
    n_reject = p.size if passes.all() else int(np.argmin(passes))
    return _reject_first(order, n_reject, p.size)


def reject_hochberg(p: np.ndarray, alpha: float) -> np.ndarray:
    """Hochberg step-up over the Holm thresholds."""
    return _step_up(p, _holm_steps(p.size, alpha))


def reject_conjunction(p: np.ndarray, alpha: float) -> np.ndarray:
    """Each constituent at the unadjusted alpha; the joint null falls only
    when every entry is rejected."""
    return p <= alpha


REJECT = {
    "bh": reject_bh,
    "holm": reject_holm,
    "hochberg": reject_hochberg,
    "conjunction": reject_conjunction,
}


def expected_joint(mode: str, rejected: np.ndarray) -> str:
    """Joint verdict the CLI prints for ``mode`` given the rejected set."""
    if mode == "bh":
        return "not_applicable"
    if mode == "conjunction":
        return "reject" if rejected.all() else "retain"
    return "reject" if rejected.any() else "retain"
