"""Seeded Monte Carlo verification of multiple-testing error rates.

Each replication draws k z-statistics for two-group comparisons with known
unit variance (a z model rather than t keeps the estimates directly
comparable to the closed-form binomial arithmetic in :mod:`alphagate.rates`),
converts them to p-values, and judges the same battery three ways:
individual testing at the unadjusted joint alpha, disjunction testing with
the scenario's adjustment method, and conjunction testing. Accumulated over
replications this yields the familywise error rate, the expected
false-positive count, the false discovery rate, per-test rejection rates,
and joint-decision rates per mode.

Three dependence designs are supported:

* ``independent``: Z_i = delta_i * sqrt(n/2) + E_i with E_i iid N(0,1)
* ``equicorrelated(rho)``: E_i = sqrt(rho) * W + sqrt(1-rho) * G_i with a
  shared factor W, giving pairwise correlation rho
* ``shared_control``: every treatment mean is compared against one control
  mean, which induces pairwise correlation 1/2 among the statistics

Determinism contract: results are bit-identical for a fixed seed no matter
how replications are scheduled. Replications are seeded individually by a
counter-based derivation (:mod:`alphagate.rng`), work is cut into
fixed-size chunks independent of the thread count, and partial sums are
combined in chunk order. Each chunk is judged in row tiles of about
:data:`TILE_BYTES` per (rows, k + 1) temporary, so a worker's memory does not
grow with k times the chunk length; rows are judged independently and every
per-tile total is an integer, so the estimates never depend on the tile size.

Decisions are made in threshold space. Every rule compares p-values with
thresholds (alpha, the single-step level, Hochberg's alpha/(k-i+1)), and a
p-value falls as z (|z| when two-sided) grows, so once per run each
threshold t becomes a cutoff on z found by bisection over the ordered
doubles against :func:`p_from_z` itself. The chunks then compare z with
the cutoffs and never call erfc; Hochberg compares each sorted row with the
reversed cutoff vector. Under the independent design with one-sided tests
and a single-step rule, z = shift + ndtri(u(word)) only grows with the top
53 bits of the word, so a second bisection per distinct shift turns each
cutoff into an integer, and the chunks compare raw SplitMix64 words: no
ndtri either. Because scipy's erfc and ndtri are monotone only to within an
ulp, each cutoff is a narrow band (about 1e-13 wide in z) rather than a
point: the bisections run at thresholds loosened by far more than those
functions' error, so outside the band the answer is certain, and the rare
statistic inside it is judged by p_from_z. Every decision therefore equals
the one the p-values give, and so do the estimates.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.special import erfc, ndtr, ndtri

from .decisions import reject, steps
from .errors import DomainError, InvalidScenario
# the scenario types live in families, which needs no numpy; they stay
# importable from here
from .families import MAX_THREADS, AdjustmentMethod, Design, Scenario, Sides, TestingMode  # noqa: F401
from .rng import normal_block, rep_seed_block, uniform_from_words, word_block
from .validators import N_MAX, integer, real

_SQRT2 = math.sqrt(2.0)

#: Replications per work unit. Fixed (never derived from the thread count)
#: so that chunk boundaries, and therefore partial-sum order, are stable.
CHUNK_REPS = 16_384

#: Bytes of one (rows, k + 1) float64 temporary while a chunk is judged; a
#: tile that fits in a core's cache saves streaming whole-chunk arrays
#: through memory at every step.
TILE_BYTES = 1 << 19


@dataclass(frozen=True)
class Estimates:
    """Simulator output. ``elapsed`` is wall time and excluded from equality."""

    reps: int
    fwer_hat: float
    fwer_ci: tuple[float, float]
    fwer_events: int
    mean_false_positives: float
    fdr_hat: float
    per_test_rejection: tuple[float, ...]
    joint_reject_rate: dict[TestingMode, float]
    seed_echo: int
    elapsed: float = field(compare=False)


def p_from_z(z, sides: Sides):
    """p-value of a z statistic; one-sided tests reject for large positive z."""
    if not isinstance(sides, Sides):
        raise DomainError(f"sides must be a Sides value, got {sides!r}")
    z_arr = np.asarray(z, dtype=np.float64)
    if sides is Sides.ONE_SIDED:
        result = 0.5 * erfc(z_arr / _SQRT2)
    else:
        result = np.minimum(erfc(np.abs(z_arr) / _SQRT2), 1.0)
    return float(result) if np.isscalar(z) or np.ndim(z) == 0 else result


def wilson_ci(successes: int, trials: int, level: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    trials = integer(trials, "trials", 1, N_MAX)  # so that trials converts to a double
    successes = integer(successes, "successes", 0, trials)
    level = real(level, "level", 0, 1)
    z = float(ndtri((1.0 + level) / 2.0))
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    lower = 0.0 if successes == 0 else max(0.0, center - half)
    upper = 1.0 if successes == trials else min(1.0, center + half)
    return (lower, upper)


def _shift(scenario: Scenario) -> np.ndarray:
    """Mean of each test's z statistic."""
    return np.asarray(scenario.deltas, dtype=np.float64) * math.sqrt(scenario.n / 2.0)


def _z_block(scenario: Scenario, rep_seeds: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Z statistics for one batch of replications, shape (len(rep_seeds), k),
    given the scenario's :func:`_shift`."""
    k = scenario.k
    kind = scenario.design.kind
    # in-place steps keep one (rows, k) temporary alive; each step is the
    # same IEEE operation on the same operands as the plain expression
    if kind == "independent":
        z = normal_block(rep_seeds, k)
        z += shift
        return z
    draws = normal_block(rep_seeds, k + 1)
    if kind == "equicorrelated":
        rho = scenario.design.rho
        z = shift + math.sqrt(rho) * draws[:, :1]
        own = draws[:, 1:]
        own *= math.sqrt(1.0 - rho)
        z += own
        return z
    # shared control: Z_i = (mean_i - mean_0) / sqrt(2/n) with all group
    # means at their defining variance 1/n
    z = draws[:, 1:] - draws[:, :1]
    z /= _SQRT2
    z += shift
    return z


def sample_statistics(scenario: Scenario, rep_seed: int) -> tuple[float, ...]:
    """The k test statistics of a single replication, given its derived seed."""
    if not isinstance(scenario, Scenario):
        raise InvalidScenario(f"expected a Scenario, got {type(scenario).__name__}")
    return tuple(_z_block(scenario, np.asarray([rep_seed], dtype=np.uint64), _shift(scenario))[0].tolist())


@dataclass
class _ChunkTotals:
    fwer_events: int
    v_sum: int
    fdp_sum: float
    any_reject: int
    disjunction_rejects: int
    conjunction_rejects: int
    per_test: np.ndarray

    def add(self, other: _ChunkTotals) -> None:
        for total in fields(self):
            setattr(self, total.name, getattr(self, total.name) + getattr(other, total.name))


# -- threshold space (see the module docstring) ----------------------------------

#: Relative and absolute error allowed to p_from_z when loosening a threshold
#: (erfc is good to about 1e-15; the absolute part covers subnormal p-values).
_P_REL_ERR = 2.0**-40
_P_ABS_ERR = 2.0**-1060
#: Error allowed to a word's z = shift + ndtri(u), relative to 1 + |shift|.
_Z_REL_ERR = 2.0**-40
#: Order key of +inf. Keys number the doubles upward and -x has key -key(x).
_INF_KEY = 0x7FF0000000000000
_SIGN_BIT = np.uint64(1 << 63)
_MAGNITUDE_BITS = np.int64((1 << 63) - 1)
#: A uniform is made of the top 53 bits of a word.
_WORD_DROP = np.uint64(11)
_TOPS = 1 << 53


def _double_at(key: np.ndarray) -> np.ndarray:
    magnitude = np.abs(key).astype(np.uint64)
    return np.where(key < 0, magnitude | _SIGN_BIT, magnitude).view(np.float64)


def _key_of(x: np.ndarray) -> np.ndarray:
    bits = np.asarray(x, dtype=np.float64).view(np.int64)
    return np.where(bits < 0, -(bits & _MAGNITUDE_BITS), bits)


def _first_true(pred, lo: np.ndarray, hi: np.ndarray, guess: np.ndarray, reach: int) -> np.ndarray:
    """Per entry, an integer x in (lo, hi] with pred false at x - 1 (or
    x - 1 == lo) and true at x (or x == hi), by bisection; ``pred(x, idx)``
    judges the integers x of the entries idx and never sees lo or hi. The
    bisection starts from [guess - reach, guess + reach] where pred bears
    that bracket out, and from (lo, hi] elsewhere."""
    a = np.clip(guess - reach, lo + 1, hi - 1)
    b = np.clip(guess + reach, lo + 1, hi - 1)
    every = np.arange(lo.size)
    ok = pred(np.concatenate([a, b]), np.concatenate([every, every]))
    lo, hi = np.where(ok[: lo.size], lo, a), np.where(ok[lo.size :], b, hi)
    while True:
        idx = np.flatnonzero(lo < hi - 1)
        if idx.size == 0:
            return hi
        a, b = lo[idx], hi[idx]
        mid = (a & b) + ((a ^ b) >> 1)  # floor((a + b) / 2) without overflow
        ok = pred(mid, idx)
        hi[idx[ok]] = mid[ok]
        lo[idx[~ok]] = mid[~ok]


@dataclass(frozen=True)
class _Band:
    """A cutoff: below ``lower`` the statistic never passes, from ``upper``
    on it always does, and in between p_from_z decides."""

    lower: np.ndarray
    upper: np.ndarray


def _z_bands(t: np.ndarray, sides: Sides) -> _Band:
    """Bands on z (on |z| when two-sided) for ``p_from_z(z) <= t``."""
    loose = np.concatenate([t * (1.0 + _P_REL_ERR) + _P_ABS_ERR, t * (1.0 - _P_REL_ERR) - _P_ABS_ERR])
    start = -_INF_KEY if sides is Sides.ONE_SIDED else 0
    guess = -ndtri(loose if sides is Sides.ONE_SIDED else loose / 2.0)
    keys = _first_true(
        lambda key, idx: p_from_z(_double_at(key), sides) <= loose[idx],
        np.full(loose.size, start - 1, dtype=np.int64),
        np.full(loose.size, _INF_KEY + 1, dtype=np.int64),
        _key_of(guess),
        1 << 24,
    )
    # p_from_z(+inf) = 0 <= t, so +inf is a valid top for every band
    cut = _double_at(np.minimum(keys, _INF_KEY))
    return _Band(cut[: t.size], cut[t.size :])


def _word_z(shift, tops):
    """z of 53-bit word tops under the independent design, by the same
    operations on the same values as the draws."""
    return shift + ndtri(uniform_from_words(tops << _WORD_DROP))


def _word_bands(shift: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> _Band:
    """Bands on word tops, shape (len(shift), len(lower)), for z >= the z
    band (lower, upper) at each shift; 2**53 stands for never."""
    slack = (_Z_REL_ERR * (1.0 + np.abs(shift)))[:, None]
    goal = np.concatenate([lower - slack, upper + slack], axis=1)
    shifts = np.broadcast_to(shift[:, None], goal.shape).ravel()
    # the guess only starts the bisection, so it comes from the z band: a
    # z cutoff is infinite or small, and goal - shift can overflow
    guess = (ndtr(np.concatenate([lower, upper]) - shift[:, None]).ravel() * _TOPS).astype(np.int64)
    tops = _first_true(
        lambda m, idx: _word_z(shifts[idx], m.astype(np.uint64)) >= goal.flat[idx],
        np.full(goal.size, -1, dtype=np.int64),
        np.full(goal.size, _TOPS, dtype=np.int64),
        guess,
        1 << 20,
    ).astype(np.uint64).reshape(goal.shape)
    return _Band(tops[:, : lower.size], tops[:, lower.size :])


@dataclass(frozen=True)
class _Plan:
    """How one run decides. With ``words`` the statistics are the word tops
    of the draws; otherwise they are z (|z| when two-sided). ``test`` bands
    each test's decision at alpha. ``joint`` bands the disjunction: a scalar
    band meets the row maximum, a band per column meets the row as it is,
    or, for Hochberg, sorted ascending. Rows that fall inside a joint band
    are judged on their p-values by :func:`~alphagate.decisions.reject`."""

    words: bool
    hochberg: bool
    shift: np.ndarray
    test: _Band
    joint: _Band


def _plan(scenario: Scenario) -> _Plan:
    k, alpha, method = scenario.k, scenario.alpha_joint, scenario.method
    hochberg = method is AdjustmentMethod.HOCHBERG
    t = steps(method, alpha, k)
    # the sorted row's column j meets alpha / (j + 1); otherwise the joint
    # verdict is the row minimum against the first step (Holm's is Bonferroni's)
    joint_t = t[::-1] if hochberg else t[:1]
    z = _z_bands(np.concatenate([[alpha], joint_t]), scenario.sides)
    test = _Band(z.lower[0], z.upper[0])
    joint = _Band(z.lower[1:], z.upper[1:]) if hochberg else _Band(z.lower[1], z.upper[1])
    shift = _shift(scenario)
    words = scenario.design.kind == "independent" and scenario.sides is Sides.ONE_SIDED and not hochberg
    if words:
        distinct, column = np.unique(shift, return_inverse=True)
        if distinct.size == 1:  # every test has the same cutoffs
            column = 0
        tops = _word_bands(distinct, z.lower[:2], z.upper[:2])
        test = _Band(tops.lower[column, 0], tops.upper[column, 0])
        joint = _Band(tops.lower[column, 1], tops.upper[column, 1])
    return _Plan(words, hochberg, shift, test, joint)


def _decide(plan: _Plan, scenario: Scenario, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-test rejections at alpha and the disjunction verdict of each
    replication, equal to judging p_from_z of each statistic."""
    if plan.words:
        x = word_block(seeds, scenario.k)
        np.right_shift(x, _WORD_DROP, out=x)

        def z_of(rows, cols):
            return _word_z(plan.shift[cols], x[rows, cols])
    else:
        x = _z_block(scenario, seeds, plan.shift)
        if scenario.sides is Sides.TWO_SIDED:
            np.abs(x, out=x)

        def z_of(rows, cols):
            return x[rows, cols]

    rejected = x >= plan.test.upper
    if np.count_nonzero(x >= plan.test.lower) != np.count_nonzero(rejected):
        rows, cols = np.nonzero((x >= plan.test.lower) & ~rejected)
        rejected[rows, cols] = p_from_z(z_of(rows, cols), scenario.sides) <= scenario.alpha_joint

    if plan.hochberg:
        x.sort(axis=1)
    if np.ndim(plan.joint.upper) == 0:
        top = x.max(axis=1)
        joint, maybe = top >= plan.joint.upper, top >= plan.joint.lower
    else:
        joint, maybe = (x >= plan.joint.upper).any(axis=1), (x >= plan.joint.lower).any(axis=1)
    rows = np.flatnonzero(maybe & ~joint)
    if rows.size:
        p = p_from_z(z_of(rows[:, None], np.arange(scenario.k)), scenario.sides)
        joint[rows] = reject(p, scenario.alpha_joint, scenario.method)[0].any(axis=1)
    return rejected, joint


def simulate(scenario: Scenario, *, threads: int = 1) -> Estimates:
    """Run the scenario and estimate its error rates.

    ``fwer_hat`` is the fraction of replications with at least one rejected
    true null under individual testing at the unadjusted joint alpha, with a
    95% Wilson interval; ``fdr_hat`` averages V/max(R, 1) per replication
    (0/0 counts as 0). ``joint_reject_rate`` reports, per mode, how often
    the joint decision was a rejection; for individual mode this is the
    rate of at least one rejection of any kind, i.e. what an unadjusted
    disjunction reading of the same results would conclude.

    ``threads`` (1 to :data:`MAX_THREADS`) bounds the worker threads, which
    are also capped at the chunk count and the CPU count; the estimates
    never depend on it.
    """
    if not isinstance(scenario, Scenario):
        raise InvalidScenario(f"expected a Scenario, got {type(scenario).__name__}")
    threads = integer(threads, "threads", 1, MAX_THREADS)

    start_time = time.perf_counter()
    k, reps = scenario.k, scenario.reps
    nulls = np.asarray(scenario.null_pattern, dtype=bool)
    all_nulls, any_nulls = bool(nulls.all()), bool(nulls.any())
    plan = _plan(scenario)

    tile = max(1, TILE_BYTES // (8 * (k + 1)))

    def run_chunk(chunk_index: int) -> _ChunkTotals:
        start = chunk_index * CHUNK_REPS
        count = min(CHUNK_REPS, reps - start)
        seeds = rep_seed_block(scenario.seed, start, count)
        r = np.empty(count, dtype=np.int64)
        v = r if all_nulls else np.zeros(count, dtype=np.int64)
        joint = np.empty(count, dtype=bool)
        per_test = np.zeros(k, dtype=np.int64)
        for lo in range(0, count, tile):
            hi = min(lo + tile, count)
            rejected, joint[lo:hi] = _decide(plan, scenario, seeds[lo:hi])
            rejected.sum(axis=1, out=r[lo:hi])
            if any_nulls and not all_nulls:
                rejected[:, nulls].sum(axis=1, out=v[lo:hi])
            per_test += rejected.sum(axis=0, dtype=np.int64)
        return _ChunkTotals(
            fwer_events=int((v >= 1).sum()),
            v_sum=int(v.sum()),
            # one sum over the whole chunk: per-tile float sums would round differently
            fdp_sum=float(np.sum(v / np.maximum(r, 1))),
            any_reject=int((r >= 1).sum()),
            disjunction_rejects=int(joint.sum()),
            conjunction_rejects=int((r == k).sum()),
            per_test=per_test,
        )

    n_chunks = (reps + CHUNK_REPS - 1) // CHUNK_REPS
    workers = min(threads, n_chunks, os.cpu_count() or 1)
    # map yields in chunk order, so float accumulation is schedule-independent;
    # adding each chunk as it arrives keeps alive only the totals of chunks
    # that finished ahead of the next one in order
    total = _ChunkTotals(0, 0, 0.0, 0, 0, 0, np.zeros(k, dtype=np.int64))
    if workers == 1:
        for chunk in map(run_chunk, range(n_chunks)):
            total.add(chunk)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(run_chunk, range(n_chunks)):
                total.add(chunk)

    return Estimates(
        reps=reps,
        fwer_hat=total.fwer_events / reps,
        fwer_ci=wilson_ci(total.fwer_events, reps, 0.95),
        fwer_events=total.fwer_events,
        mean_false_positives=total.v_sum / reps,
        fdr_hat=total.fdp_sum / reps,
        per_test_rejection=tuple(float(c) / reps for c in total.per_test),
        joint_reject_rate={
            TestingMode.INDIVIDUAL: total.any_reject / reps,
            TestingMode.DISJUNCTION: total.disjunction_rejects / reps,
            TestingMode.CONJUNCTION: total.conjunction_rejects / reps,
        },
        seed_echo=scenario.seed,
        elapsed=time.perf_counter() - start_time,
    )
