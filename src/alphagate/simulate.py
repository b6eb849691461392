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
combined in chunk order. Each chunk is judged in tiles of about
:data:`TILE_BYTES` per (k + 1, rows) temporary when one worker runs, and
twice that when more do, so a worker's memory is O(tile * (k + 1) +
CHUNK_REPS) and does not grow with k times the chunk length; replications
are judged independently and every per-tile total is an integer, so the
estimates never depend on the tile size or the number of workers. Each worker
judges all its chunks in one scratch block, made on its first chunk and
sized only by the tile, k, the chunk length and the number of distinct
shifts: the draws, statistics, masks and counts of every tile are written
in place into views of it.
Every tile is test-major, (draws, rows), so the per-replication counts and
maxima reduce down contiguous rows of replications, the per-test counts
along each row, and Hochberg sorts a replication down its column.

Decisions are made in threshold space. Every rule compares p-values with
thresholds (alpha, the single-step level, Hochberg's alpha/(k-i+1)), and a
p-value falls as z (|z| when two-sided) grows, so once per run each
threshold t becomes a cutoff on z in closed form, -ndtri(t) (of t/2 when
two-sided), and the chunks compare z with the cutoffs and never call erfc.
As p_from_z's relative error grows with z, from 4e-15 below z = 5 to
2.6e-13 near 37.68 (against mpmath at 40 digits, scipy 1.17.1), each cutoff
is a narrow band (about 1e-11 wide in z): its edges are the z of t loosened
by 2**-40 relative and 2**-1022 absolute, each moved outward by 2**-40
times 1 + |z|. 2**-1022, the smallest normal double, keeps every edge where
p-values are normal, since erfc underflows before ndtri reaches the z of a
subnormal t, and every upper edge is capped where erfc's underflow branch
makes p_from_z 0 on both sides (:data:`_P_ZERO`), so a t below 2**-1022
bands [37.52, 37.68), not [37.52, +inf). Outside the band the answer is
certain; a statistic inside it has its replication's z drawn again by
:func:`_z_block`, on every route, and judged by p_from_z and
:func:`~alphagate.decisions.reject`, so every decision, and every estimate,
equals what the p-values give. Hochberg brackets each replication by its
maximum and its count K of rejections at alpha: a maximum at the cutoff of
step alpha/k rejects, as Bonferroni does, and one below that of step
alpha/(k-K+1) retains, since a rejection at rank i needs i p-values at or
below alpha/(k-i+1) <= alpha, so i <= K. Only the few replications in
between are sorted and compared with the reversed cutoff vector. Under the
independent design with one-sided tests and a single-step rule, z = shift +
ndtri(u(word)) only grows with the top 53 bits of the word, so the screen's
conversion (below) turns each band into word tops per distinct shift, and
the chunks compare raw SplitMix64 words: no ndtri either.

On every other run (the z route) a screen spares ndtri the draws that
cannot matter. Every joint threshold is at most alpha, so a statistic below
the lower edge of the band at alpha is never rejected and never moves
Hochberg's sorted verdict. A tile draws the raw words and makes only the
shared draw W of each replication a normal. Per replication and distinct
shift, ndtr of that edge in the space of a test's own draw G gives an
interval of word tops inside which z (|z| when two-sided) stays below it.
The interval is narrowed by 2**-30 relative in z and in the uniform, far
more than the error of ndtr and ndtri and the rounding of z, and rounded
inward, by :func:`_word_tops`, which also makes the word route's bands.
Only the words outside it go through ndtri, and their z is assembled in a
compact array, each with its own test's shift and its replication's shared
term, by the same IEEE operations as :func:`_z_block`'s, so it is the same
double. It is scattered into a tile that holds -inf everywhere else, below
every band. On the dependent designs the screen spends two ndtr per
distinct shift and replication, so a run uses it only where that and the
draws it expects to keep come to a measured share of k (:func:`_screens`).

ndtri, ndtr and erfc are :mod:`alphagate.rng`'s kernels, which give scipy's
bits through :mod:`alphagate.normal`'s ports for small arrays and through
scipy for large ones. The word route converts only its plan's few cutoffs
and, rarely, the k draws of a replication inside a band, so on it scipy
stays unloaded; the z route converts whole tiles, so its plan loads scipy
and sends every conversion of the run there.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import normal
from .decisions import reject, steps
from .errors import DomainError, InvalidScenario
# the scenario types live in families, which needs no numpy; they stay
# importable from here
from .families import AdjustmentMethod, Design, Scenario, Sides, TestingMode  # noqa: F401
from .rng import erfc, load_scipy, ndtr, ndtri, normal_block, normal_from_words, rep_seed_block, word_block
from .validators import MAX_THREADS, N_MAX, integer, real

_SQRT2 = math.sqrt(2.0)

#: Replications per work unit. Fixed (never derived from the thread count)
#: so that chunk boundaries, and therefore partial-sum order, are stable.
CHUNK_REPS = 16_384

#: Bytes of one (k + 1, rows) float64 temporary while a single worker
#: judges a chunk; a tile that fits in a core's cache saves streaming
#: whole-chunk arrays through memory at every step. Workers that share the
#: GIL judge tiles of twice this: each hands the GIL over around every
#: numpy call, and the wider tile halves the calls per replication, which
#: outweighs the cache (measured on 2 vCPUs; one worker is slower at twice
#: the size). Twice, not the worker count, so that a worker's memory does
#: not grow with the cores.
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
    z = normal.ndtri((1.0 + level) / 2.0)
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


def _draws(scenario: Scenario) -> int:
    """Normal draws per replication: one per test, plus the shared one of
    the dependent designs."""
    return scenario.k if scenario.design.kind == "independent" else scenario.k + 1


def _common(design: Design, draws: np.ndarray) -> np.ndarray:
    """The shared term of the dependent designs from their shared draws W, in
    place: sqrt(rho) * W when equicorrelated, W itself under shared control."""
    if design.kind == "equicorrelated":
        draws *= math.sqrt(design.rho)
    return draws


def _assemble(design: Design, own: np.ndarray, common, shift: np.ndarray, out=None) -> np.ndarray:
    """z from each test's own normal draw G, in place in ``own``, given the
    :func:`_common` term and the :func:`_shift`, all broadcast together;
    ``out`` (a new array when None) takes the equicorrelated mean."""
    if design.kind == "independent":
        own += shift
    elif design.kind == "equicorrelated":
        # (shift + common) + sqrt(1 - rho) * G: addition commutes exactly
        own *= math.sqrt(1.0 - design.rho)
        own += np.add(shift, common, out=out)
    else:
        # shared control: Z_i = (mean_i - mean_0) / sqrt(2/n) with all group
        # means at their defining variance 1/n
        own -= common
        own /= _SQRT2
        own += shift
    return own


def _z_block(scenario: Scenario, rep_seeds: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Z statistics for one batch of replications, shape (len(rep_seeds), k),
    given the scenario's :func:`_shift`."""
    design = scenario.design
    draws = normal_block(rep_seeds, _draws(scenario))
    if design.kind == "independent":
        return _assemble(design, draws, None, shift)
    return _assemble(design, draws[:, 1:], _common(design, draws[:, :1]), shift)


def sample_statistics(scenario: Scenario, rep_seed: int) -> tuple[float, ...]:
    """The k test statistics of a single replication, given its derived seed."""
    if not isinstance(scenario, Scenario):
        raise InvalidScenario(f"expected a Scenario, got {type(scenario).__name__}")
    rep_seed = integer(rep_seed, "rep_seed", 0, 2**64 - 1)
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

#: Relative and absolute error allowed to p_from_z when loosening a threshold,
#: and to ndtri's z relative to 1 + |z| (see the module docstring).
_P_REL_ERR = 2.0**-40
_P_ABS_ERR = 2.0**-1022
#: p_from_z is 0 on both sides from this z on, where erfc(x) takes its
#: underflow branch (x * x above MAXLOG = log(DBL_MAX)); it caps upper edges.
_P_ZERO = math.sqrt(2.0 * math.log(np.finfo(np.float64).max))
#: A uniform is made of the top 53 bits of a word.
_WORD_DROP = np.uint64(11)
_TOPS = 1 << 53
#: Relative margin of every conversion of a z edge into word tops, in z and
#: in the uniform: far above the error of ndtr, ndtri and the rounding of z's
#: assembly.
_SCREEN_MARGIN = 2.0**-30
#: Above the largest |normal| a word stands for (ndtri(2**-54) = -8.29...).
_NORMAL_MAX = 9.0
#: Uniform -> word top, narrowing the upper edge and widening the lower one.
_SCREEN_SCALE = np.array([_TOPS * (1.0 - _SCREEN_MARGIN), _TOPS * (1.0 + _SCREEN_MARGIN)])[:, None, None]
#: Each band's lower edge moves down and its upper edge up.
_OUTWARD = np.array([-1.0, 1.0])[:, None]
#: The shared term of the independent design, which has none.
_NO_COMMON = np.zeros(1)
#: The share of a replication's k ndtri that the screen may spend (see
#: :func:`_screens`). Timed at one thread on a 2-vCPU Xeon over 256 z-route
#: shapes (k 2 to 200, one to k distinct shifts, alpha 1e-4 to 0.7), the
#: screened run's time over the unscreened one's crosses 1 at about 0.7 of
#: k on the dependent designs and 0.56 on the independent one. That was
#: before screened tiles assembled only their kept draws, which made them
#: cheaper; the crossover waits to be timed again on an unscreened workload.
_SCREEN_BUDGET = 0.6


@dataclass(frozen=True)
class _Band:
    """A cutoff: below ``lower`` the statistic never passes, from ``upper``
    on it always does, and in between p_from_z decides."""

    lower: np.ndarray
    upper: np.ndarray


def _z_bands(t: np.ndarray, sides: Sides) -> _Band:
    """Bands on z (on |z| when two-sided) for ``p_from_z(z) <= t``, in
    closed form with an error margin (see the module docstring)."""
    loose = np.clip(np.stack([t * (1.0 + _P_REL_ERR) + _P_ABS_ERR, t * (1.0 - _P_REL_ERR) - _P_ABS_ERR]), 0.0, 1.0)
    z = -ndtri(loose if sides is Sides.ONE_SIDED else loose / 2.0)
    np.minimum(z[1], _P_ZERO, out=z[1])
    z += _OUTWARD * _P_REL_ERR * (1.0 + np.abs(z))
    return _Band(z[0], z[1])


def _word_tops(edges: np.ndarray) -> np.ndarray:
    """Word tops of (2, ...) edges on a test's own normal draw G, in place:
    a word whose top is below that of ``edges[0]`` has G below edges[0], and
    one whose top is at or above that of ``edges[1]`` has G above edges[1],
    by a margin far above the error of ndtr and ndtri."""
    ndtr(edges, out=edges)
    edges *= _SCREEN_SCALE
    np.floor(edges[0], out=edges[0])
    np.ceil(edges[1], out=edges[1])
    return edges


def _word_bands(shift: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> _Band:
    """Bands on word tops, shape (len(shift), len(lower)), for z >= the z
    band (lower, upper) at each shift; 2**53 stands for never."""
    z = np.stack([lower, upper])[:, None, :]
    margin = _SCREEN_MARGIN * (1.0 + np.abs(z) + np.abs(shift)[:, None] + _NORMAL_MAX)
    # a huge shift puts an edge at infinity, where no top or every top passes
    with np.errstate(over="ignore"):
        edges = z + _OUTWARD[:, :, None] * margin - shift[:, None]
    tops = np.minimum(_word_tops(edges), _TOPS).astype(np.uint64)
    return _Band(tops[0], tops[1])


def _distinct(shift: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct shifts, ascending, and how many tests have each; as
    np.unique gives them, without the quarter MiB its first call adds to a
    process."""
    ordered = np.sort(shift)
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1], [True]]))
    return ordered[starts[:-1]], np.diff(starts)


@dataclass(frozen=True)
class _Screen:
    """Where the z route's screen cuts each test's own normal draw G.
    ``column`` gives the index of each test's shift among the distinct
    shifts, or is the single index 0. With c the replication's
    :func:`_common` term, a G strictly between ``edges[1, j] + slope * c``
    and ``edges[0, j] + slope * c`` gives a test of shift j a z (|z| when
    two-sided) below the cut, by a margin far above the rounding of z and of
    these edges. ``edges`` has shape (2, distinct shifts, 1)."""

    edges: np.ndarray
    column: np.ndarray
    slope: float


def _screen_for(scenario: Scenario, shift: np.ndarray, distinct: np.ndarray, cut: float) -> _Screen:
    """The screen below ``cut`` for tests of the given shifts, whose distinct
    values, ascending, are ``distinct``."""
    design = scenario.design
    margin = _SCREEN_MARGIN * (1.0 + abs(cut) + np.abs(distinct) + _NORMAL_MAX)
    floor = -cut + margin if scenario.sides is Sides.TWO_SIDED else np.full(distinct.size, -np.inf)
    # a huge shift puts an edge at infinity, where it screens all or nothing
    with np.errstate(over="ignore"):
        edges = np.stack([cut - margin, floor])[:, :, None] - distinct[:, None]
        if design.kind == "equicorrelated":
            scale = math.sqrt(1.0 - design.rho)  # z = (shift + c) + scale * G
            edges, slope = edges / scale, -1.0 / scale
        elif design.kind == "shared_control":  # z = (G - c) / sqrt(2) + shift
            edges, slope = edges * _SQRT2, 1.0
        else:
            slope = 0.0
    column = np.searchsorted(distinct, shift) if distinct.size > 1 else np.zeros(1, dtype=np.intp)
    return _Screen(edges, column, slope)


def _screens(scenario: Scenario, distinct: np.ndarray, counts: np.ndarray, cut: float) -> bool:
    """Whether a run should screen below ``cut``: where the draws it expects
    to keep, plus two ndtr per distinct shift when a shared draw moves the
    screen's edges, come to at most :data:`_SCREEN_BUDGET` of the k ndtri a
    replication would otherwise spend."""
    budget = _SCREEN_BUDGET * scenario.k
    if scenario.design.kind != "independent":
        budget -= 2 * distinct.size
    if budget < 0:
        return False
    # every design's z is marginally normal about its shift, so this is the
    # expected number of draws the screen keeps
    kept = ndtr(distinct - cut)
    if scenario.sides is Sides.TWO_SIDED:
        kept += ndtr(-distinct - cut)
    # a product and sum: a matmul would page in BLAS, about 90 KiB resident
    return float(np.sum(counts * kept)) <= budget


@dataclass(frozen=True)
class _Plan:
    """How one run decides. With ``words`` the statistics are the word tops
    of the draws; otherwise they are z (|z| when two-sided). Either way a
    tile holds them test-major, (k, rows). ``test`` bands each test's
    decision at alpha. ``joint`` bands the disjunction: a scalar band meets
    each replication's maximum, a (k, 1) column of bands, one per test,
    meets its statistics as they are, or, for Hochberg, sorted ascending.
    Hochberg sorts only the replications its bracket leaves open: one whose
    maximum reaches the band of step alpha / k rejects, and one with K
    rejections at alpha whose maximum is below ``retain[K]`` retains.
    Replications that fall inside a joint band are judged on their p-values
    by :func:`~alphagate.decisions.reject`. ``screen`` is the z route's
    :class:`_Screen`, if it has one."""

    words: bool
    hochberg: bool
    shift: np.ndarray
    test: _Band
    joint: _Band
    screen: _Screen | None
    retain: np.ndarray | None = None


def _plan(scenario: Scenario) -> _Plan:
    k, alpha, method = scenario.k, scenario.alpha_joint, scenario.method
    hochberg = method is AdjustmentMethod.HOCHBERG
    t = steps(method, alpha, k)
    # the sorted column's entry j meets alpha / (j + 1); otherwise the joint
    # verdict is the column maximum against the first step (Holm's is Bonferroni's)
    joint_t = t[::-1] if hochberg else t[:1]
    z = _z_bands(np.concatenate([[alpha], joint_t]), scenario.sides)
    test = _Band(z.lower[0], z.upper[0])
    joint = _Band(z.lower[1:, None], z.upper[1:, None]) if hochberg else _Band(z.lower[1], z.upper[1])
    shift = _shift(scenario)
    distinct, counts = _distinct(shift)
    words = scenario.design.kind == "independent" and scenario.sides is Sides.ONE_SIDED and not hochberg
    if not words:
        # the z route converts whole tiles: every conversion goes through scipy
        load_scipy()
        # every joint step is at most alpha, so the test band's lower edge
        # is the lowest of all: a statistic below it changes no decision
        screen = None
        if _screens(scenario, distinct, counts, test.lower):
            screen = _screen_for(scenario, shift, distinct, test.lower)
        retain = None
        if hochberg:
            # a rejection at rank i puts i p-values at or below alpha / (k - i + 1),
            # which is at most alpha: so i <= K, and the smallest p is at most
            # alpha / (k - K + 1), the step of sorted entry k - K (k - 1 when K = 0)
            retain = z.lower[1:][np.minimum(k - np.arange(k + 1), k - 1)]
        return _Plan(words, hochberg, shift, test, joint, screen, retain)
    # every test has the same cutoffs, or a column of them per test
    column = 0 if distinct.size == 1 else np.searchsorted(distinct, shift)[:, None]
    tops = _word_bands(distinct, z.lower[:2], z.upper[:2])
    test = _Band(tops.lower[column, 0], tops.upper[column, 0])
    joint = _Band(tops.lower[column, 1], tops.upper[column, 1])
    return _Plan(words, hochberg, shift, test, joint, None)


class _Scratch:
    """The memory one worker judges its chunks in: a single ``np.empty`` block,
    carved into a chunk's seeds and totals and a tile's statistics and masks.
    Its size depends only on the tile, k, the chunk length and the number of
    distinct shifts, so every chunk and tile the worker judges reuses it and
    allocates nothing of that size.

    The tile views are test-major: (draws, tile) for the statistics ``stats``
    (uint64 words on the word route, float64 z on the z route) and the
    uint64 working memory ``bits`` (the z route's words), (k, tile) for the
    booleans ``rejected`` and ``mask``.
    ``top``, of the statistics' type, ``maybe``, ``joint`` and, for
    Hochberg, ``cut`` (the bracket's retain cut) hold one value per
    replication. A shorter tile takes their heads. The z route's screen
    carves its (2, distinct shifts, rows) edges and word bounds from
    ``edges`` and ``bounds``, one column only for the independent design, whose bounds no
    shared draw moves.

    Views that are idle while a tile is judged hold its compact arrays: the
    screen's kept draws take their shared terms in ``stats``, and their test
    and replication indices and shifts in ``seed_bits`` and ``ratio``, which
    the chunk needs only before its first tile and after its last. Those two
    hold the longer of a chunk and k, so that the kept draws of a tile of
    one replication are gathered in one piece. Hochberg
    copies the replications its bracket leaves open to ``bits``, and once a
    tile is decided ``mask`` takes its rejections of true nulls.

    A chunk's per-replication counts ``r`` and ``v`` take the smallest
    unsigned type that holds k, and a tile's per-test ``counts`` the one that
    holds the tile length: the reductions then add bytes without widening."""

    def __init__(self, plan: _Plan, scenario: Scenario, tile: int, chunk: int):
        k = scenario.k
        draws = _draws(scenario)  # k on the word route, whose design is independent
        stat_type = np.uint64 if plan.words else np.float64
        count_type = np.min_scalar_type(k)
        # the screen gathers its kept draws in pieces of this length: at least
        # k, so that a one-row tile, as at large k and few reps, is one piece
        piece = max(chunk, k)
        parts = {
            "seeds": ((chunk,), np.uint64),
            "seed_bits": ((piece,), np.uint64),
            "r": ((chunk,), count_type),
            "v": ((chunk,), count_type),
            "ratio": ((piece,), np.float64),
            "flags": ((chunk,), np.bool_),
            "counts": ((k,), np.min_scalar_type(tile)),
            "stats": ((draws, tile), stat_type),
            "bits": ((draws, tile), np.uint64),
            "rejected": ((k, tile), np.bool_),
            "mask": ((k, tile), np.bool_),
            "top": ((tile,), stat_type),
            "maybe": ((tile,), np.bool_),
            "joint": ((tile,), np.bool_),
        }
        if plan.hochberg:
            parts["cut"] = ((tile,), np.float64)
        if plan.screen is not None:
            bounds = plan.screen.edges.size * (1 if scenario.design.kind == "independent" else tile)
            parts.update(edges=((bounds,), np.float64), bounds=((bounds,), np.uint64))
        sizes = {name: math.prod(shape) * np.dtype(dtype).itemsize for name, (shape, dtype) in parts.items()}
        # each view starts on a 64-byte boundary of the block
        self.block = np.empty(sum(-(-size // 64) * 64 for size in sizes.values()), dtype=np.uint8)
        offset = 0
        for name, (shape, dtype) in parts.items():
            setattr(self, name, self.block[offset : offset + sizes[name]].view(dtype).reshape(shape))
            offset += -(-sizes[name] // 64) * 64


def _carve(view: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """An array of ``shape`` in the head of a contiguous scratch view."""
    return view.reshape(-1)[: math.prod(shape)].reshape(shape)


def _head(view: np.ndarray, rows: int) -> np.ndarray:
    """A (len(view), rows) tile in the memory of a (len(view), tile) scratch
    view: its contiguous head, since a short tile judged in strided columns
    costs about twice as much per replication."""
    return _carve(view, (len(view), rows))


def _screened_z(plan: _Plan, scenario: Scenario, seeds: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """The z route's statistics of one tile, (k, rows), in ``scratch.stats``:
    z (|z| when two-sided) bitwise as :func:`_z_block` makes it wherever it
    can reach ``plan.test.lower``, and -inf wherever the plan's screen shows
    that it cannot. Only the draws of the first kind go through ndtri (see
    the module docstring)."""
    design, k, rows, screen = scenario.design, scenario.k, len(seeds), plan.screen
    stats, bits = _head(scratch.stats, rows), _head(scratch.bits, rows)
    # word_block fills (rows, draws); its transposes make the tile test-major.
    # The words go to bits and the normals to stats: numpy would copy words
    # mapped to floats in their own memory
    words = word_block(seeds, len(bits), bits.T, stats.view(np.uint64).T).T
    tests, x = words[-k:], stats[-k:]  # after the shared draw, if any
    common = _NO_COMMON if design.kind == "independent" else _common(design, normal_from_words(words[0], stats[0]))
    if screen is None:
        normal_from_words(tests, x)
        _assemble(design, x, common, plan.shift[:, None], out=_carve(bits.view(np.float64), x.shape))
        if scenario.sides is Sides.TWO_SIDED:
            np.abs(x, out=x)
        return x

    # a test's words in [bounds[1], bounds[0]) are screened out: the edges
    # in G become word tops, narrowed by the margin, then words
    edges = _carve(scratch.edges, (*screen.edges.shape[:2], common.size))
    np.multiply(common, screen.slope, out=edges)
    edges += screen.edges
    _word_tops(edges)
    np.minimum(edges[1], edges[0], out=edges[1])  # an empty interval stays below 2**64
    edges *= float(1 << int(_WORD_DROP))
    bounds = _carve(scratch.bounds, edges.shape)
    np.copyto(bounds, edges, casting="unsafe")

    # x held the mixing states; now each test's bounds, then the picked
    # words, whose normals go to bits. Every index is in range: take's
    # "clip" only spares it a buffered out
    each = _carve(x.view(np.uint64), (screen.column.size, common.size))
    np.take(bounds[0], screen.column, axis=0, out=each, mode="clip")
    above = np.greater_equal(tests, each, out=_head(scratch.rejected, rows))
    np.take(bounds[1], screen.column, axis=0, out=each, mode="clip")
    keep = np.less(tests, each, out=_head(scratch.mask, rows))
    keep |= above
    where = np.flatnonzero(keep)
    picked = np.take(tests, where, out=x.view(np.uint64).reshape(-1)[: where.size], mode="clip")
    kept = normal_from_words(picked, bits.view(np.float64).reshape(-1)[: where.size])

    # z of the kept draws alone, by _assemble's operations on their own test's
    # shift and replication's shared term, gathered in pieces as long as the
    # spare views, at least k; their shared terms go where the picked words were
    shared = x.reshape(-1)
    step = scratch.ratio.size
    for lo in range(0, where.size, step):
        hi = min(lo + step, where.size)
        index = np.floor_divide(where[lo:hi], rows, out=scratch.seed_bits[: hi - lo].view(np.intp))
        shift = np.take(plan.shift, index, out=scratch.ratio[: hi - lo], mode="clip")
        term = None
        if design.kind != "independent":
            index *= rows
            np.subtract(where[lo:hi], index, out=index)
            term = np.take(common, index, out=shared[lo:hi], mode="clip")
        _assemble(design, kept[lo:hi], term, shift, out=term)
    if scenario.sides is Sides.TWO_SIDED:
        np.abs(kept, out=kept)
    # a screened-out draw is -inf, below every band
    x.fill(-np.inf)
    shared[where] = kept
    return x


def _step_up(plan: _Plan, columns: np.ndarray, passes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hochberg's joint verdict on the bands, for each replication of a
    (k, n) array of its statistics, sorted in place: whether some sorted
    entry reaches its step's band, and whether one reaches the band's lower
    edge. ``passes`` is (k, n) boolean scratch."""
    columns.sort(axis=0)
    reaches = np.logical_or.reduce(np.greater_equal(columns, plan.joint.upper, out=passes), axis=0)
    near = np.logical_or.reduce(np.greater_equal(columns, plan.joint.lower, out=passes), axis=0)
    return reaches, near


def _decide(
    plan: _Plan, scenario: Scenario, seeds: np.ndarray, scratch: _Scratch, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-test rejections at alpha, (k, rows), and the disjunction verdict of
    each replication, equal to judging p_from_z of each statistic; both are
    views of ``scratch``. ``counts`` takes each replication's count of
    rejections at alpha. Both fallbacks judge the replications with a
    statistic inside a band on the p-values of their z, drawn again by
    :func:`_z_block`."""
    k, sides, alpha = scenario.k, scenario.sides, scenario.alpha_joint
    rows = len(seeds)
    if plan.words:
        # word_block fills (rows, k); its transposes make the tile test-major
        x = word_block(seeds, k, _head(scratch.stats, rows).T, _head(scratch.bits, rows).T).T
        np.right_shift(x, _WORD_DROP, out=x)
    else:
        x = _screened_z(plan, scenario, seeds, scratch)

    rejected = np.greater_equal(x, plan.test.upper, out=_head(scratch.rejected, rows))
    mask = _head(scratch.mask, rows)
    maybe = np.greater_equal(x, plan.test.lower, out=mask)
    if np.count_nonzero(maybe) != np.count_nonzero(rejected):
        # maybe and not rejected: inside the band; outside it p_from_z agrees
        reps = np.flatnonzero(np.logical_or.reduce(np.greater(maybe, rejected, out=maybe), axis=0))
        rejected[:, reps] = p_from_z(_z_block(scenario, seeds[reps], plan.shift), sides).T <= alpha

    np.add.reduce(rejected.view(np.uint8), axis=0, dtype=counts.dtype, out=counts)

    joint, maybe = scratch.joint[:rows], scratch.maybe[:rows]
    if plan.hochberg:
        # the bracket: a maximum that reaches the band of step alpha / k
        # rejects, one below the retain cut of its replication's count
        # retains, and only the replications in between are sorted
        top = np.max(x, axis=0, out=scratch.top[:rows])
        np.greater_equal(top, plan.joint.upper[-1, 0], out=joint)
        np.greater_equal(top, np.take(plan.retain, counts, out=scratch.cut[:rows], mode="clip"), out=maybe)
        unsettled = np.flatnonzero(np.greater(maybe, joint, out=maybe))
        if unsettled.size:
            # bits is spent once the tile's z is made
            columns = _carve(scratch.bits.view(np.float64), (k, unsettled.size))
            np.take(x, unsettled, axis=1, out=columns, mode="clip")
            joint[unsettled], maybe[unsettled] = _step_up(plan, columns, _carve(scratch.mask, columns.shape))
    elif np.ndim(plan.joint.upper) == 0:
        top = np.max(x, axis=0, out=scratch.top[:rows])
        np.greater_equal(top, plan.joint.upper, out=joint)
        np.greater_equal(top, plan.joint.lower, out=maybe)
    else:
        np.logical_or.reduce(np.greater_equal(x, plan.joint.upper, out=mask), axis=0, out=joint)
        np.logical_or.reduce(np.greater_equal(x, plan.joint.lower, out=mask), axis=0, out=maybe)
    # maybe and not joint: inside the band
    if np.greater(maybe, joint, out=maybe).any():
        reps = np.flatnonzero(maybe)
        p = p_from_z(_z_block(scenario, seeds[reps], plan.shift), sides)
        joint[reps] = reject(p, alpha, scenario.method)[0].any(axis=1)
    return rejected, joint


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, which taskset or a container's cpuset may make smaller than the
    machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    are also capped at the chunk count and the CPUs the process may run on;
    the estimates never depend on it.
    """
    if not isinstance(scenario, Scenario):
        raise InvalidScenario(f"expected a Scenario, got {type(scenario).__name__}")
    threads = integer(threads, "threads", 1, MAX_THREADS)

    start_time = time.perf_counter()
    k, reps = scenario.k, scenario.reps
    nulls = np.asarray(scenario.null_pattern, dtype=bool)[:, None]
    all_nulls = bool(nulls.all())
    plan = _plan(scenario)

    n_chunks = (reps + CHUNK_REPS - 1) // CHUNK_REPS
    workers = min(threads, n_chunks, _cpus())
    chunk_reps = min(CHUNK_REPS, reps)
    # workers that share the GIL judge twice the rows per call (see TILE_BYTES)
    tile_bytes = TILE_BYTES if workers == 1 else 2 * TILE_BYTES
    tile = min(max(1, tile_bytes // (8 * (k + 1))), chunk_reps)
    # each worker thread makes its scratch on its first chunk
    local = threading.local()

    def run_chunk(chunk_index: int) -> _ChunkTotals:
        scratch = getattr(local, "scratch", None)
        if scratch is None:
            scratch = local.scratch = _Scratch(plan, scenario, tile, chunk_reps)
        start = chunk_index * CHUNK_REPS
        count = min(CHUNK_REPS, reps - start)
        seeds = rep_seed_block(scenario.seed, start, count, scratch.seeds[:count], scratch.seed_bits[:count])
        r = scratch.r[:count]
        v = r if all_nulls else scratch.v[:count]
        per_test = np.zeros(k, dtype=np.int64)
        disjunction_rejects = 0
        for lo in range(0, count, tile):
            hi = min(lo + tile, count)
            rejected, joint = _decide(plan, scenario, seeds[lo:hi], scratch, r[lo:hi])
            if not all_nulls:
                hits = np.logical_and(rejected, nulls, out=_head(scratch.mask, hi - lo))
                np.add.reduce(hits.view(np.uint8), axis=0, dtype=v.dtype, out=v[lo:hi])
            per_test += np.add.reduce(rejected.view(np.uint8), axis=1, dtype=scratch.counts.dtype, out=scratch.counts)
            disjunction_rejects += int(np.count_nonzero(joint))
        # V / max(R, 1), as doubles
        fdp = np.maximum(r, 1, out=scratch.ratio[:count])
        np.divide(v, fdp, out=fdp)
        return _ChunkTotals(
            fwer_events=int(np.count_nonzero(v)),
            v_sum=int(v.sum()),
            # one sum over the whole chunk: per-tile float sums would round differently
            fdp_sum=float(np.sum(fdp)),
            any_reject=int(np.count_nonzero(r)),
            disjunction_rejects=disjunction_rejects,
            conjunction_rejects=int(np.count_nonzero(np.equal(r, k, out=scratch.flags[:count]))),
            per_test=per_test,
        )

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
        per_test_rejection=tuple((total.per_test / reps).tolist()),
        joint_reject_rate={
            TestingMode.INDIVIDUAL: total.any_reject / reps,
            TestingMode.DISJUNCTION: total.disjunction_rejects / reps,
            TestingMode.CONJUNCTION: total.conjunction_rejects / reps,
        },
        seed_echo=scenario.seed,
        elapsed=time.perf_counter() - start_time,
    )
