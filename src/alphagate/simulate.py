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
the chunks compare SplitMix64 words: no ndtri either. They compare each
word's top 31 bits, which its state holds before the mix's last xorshift
(:mod:`alphagate.rng`), so that step is skipped. Each band on word tops
[L, U) widens to [L >> 22, ceil(U / 2**22)) on those bits, 2**31 standing
for never; a draw that ties an edge goes to the fallback, about once in
2**30 draws per band.

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

Where each shift's tests form a few runs or phases (:func:`_segments`), a
tile never makes the z of most of its kept draws. It judges each test at
alpha on its word's 31-bit head, word >> 33, against four edges per
replication and distinct shift from the same conversion: the screened
interval rounded inward, and, from the upper edge of the band at alpha
moved outward, an interval outside which the test surely rejects, rounded
outward. A head outside both is certain; one that ties an edge or falls
between them, typically a few to a few dozen heads, sends its replication
to the fallback below, about once in 2**27 draws per side. The count K
comes from these verdicts. Within a segment z only grows with the word, so
a replication's largest z is one of its segments' extremes': the largest
word, and the smallest when two-sided. Only the extremes outside the screened interval go through
ndtri, and a replication with none gets -inf. ndtri is monotone only to
within an ulp, so that maximum may be an ulp below the largest z; that can
move it into a band or into Hochberg's sort, both exact, but never across a
band, which is 2**-40 relative wide. The replications Hochberg sorts make
the z of their own kept draws, so the sort sees the columns a whole tile
would hold. Elsewhere, as with a shift per test, a tile is judged whole:
the words outside the screened interval go through ndtri and their z is
scattered into a tile that holds -inf everywhere else, below every band.
Either way the kept z are assembled in a compact array, each with its own
test's shift and its replication's shared term, by the same IEEE
operations as :func:`_z_block`'s, so each is the same double. On the
dependent designs the screen spends two ndtr per distinct shift and
replication, four with heads, so a run uses it only where that and the
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
from typing import NamedTuple

import numpy as np

from . import normal
from .decisions import reject, steps
from .errors import DomainError, InvalidScenario
# the scenario types live in families, which needs no numpy; they stay
# importable from here
from .families import AdjustmentMethod, Design, Scenario, Sides, TestingMode  # noqa: F401
from .rng import (
    _premixed_block,
    erfc,
    load_scipy,
    ndtr,
    ndtri,
    normal_block,
    normal_from_words,
    rep_seed_block,
    word_block,
)
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
        result = erfc(np.abs(z_arr) / _SQRT2)  # at most 1, since |z| >= 0
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
#: The word route judges the top 31 bits of each word, which its state
#: before the last xorshift of the mix already holds: a state's bits from
#: bit 33 on, a word top's from bit 22 on.
_STATE_DROP = np.uint64(33)
_TOP_DROP = 22
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
#: before screened tiles assembled only their kept draws, and before tiles
#: with few segments judged their tests on heads and spent no ndtri on most
#: kept draws: both made screened runs cheaper, so the budget is now
#: conservative. The crossover waits to be timed again on an unscreened
#: workload (ROADMAP item 1).
_SCREEN_BUDGET = 0.6
#: Where a screened tile judges each test on its word's head and makes z
#: only for the extremes of each run or phase of one shift's tests (see
#: :func:`_segments`): k must be at least _SEGMENT_COST times the extremes
#: per replication, one per segment and side, plus the two ndtr per distinct
#: shift that the second pair of head edges adds on the dependent designs,
#: and the segments at most _SEGMENTS_MAX, as each costs a few numpy calls
#: per tile. Elsewhere, as with a shift per test, a tile is judged whole.
#: Set with tools/route_timing.py at one thread on a 2-vCPU Xeon: at 8,
#: two-sided Hochberg on four interleaved shifts at k 200 on the dependent
#: designs took 1.04 to 1.07 of the time judged whole, and at 16 no shape
#: of its grid is measurably slower.
_SEGMENT_COST = 16
_SEGMENTS_MAX = 8


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
    two-sided) below the band at alpha, by a margin far above the rounding
    of z and of these edges. ``edges`` has shape (2, distinct shifts, 1).

    With ``segments`` (see :func:`_segments`), each a slice of tests and
    the index of their shift, tiles judge each test on its word's head, and
    ``edges`` has shape (2, 2 * distinct shifts, 1): its second half holds
    for each shift the pair from the band's upper edge, a G below
    ``edges[0]`` or above ``edges[1]`` of which surely rejects. ``ends``
    gives the shift of each row of a tile's extremes: each segment's
    largest word, then, when two-sided, each one's smallest."""

    edges: np.ndarray
    column: np.ndarray
    slope: float
    segments: tuple[tuple[slice, int], ...] | None = None
    ends: np.ndarray | None = None


def _segments(column: np.ndarray, k: int, limit: int) -> tuple[tuple[slice, int], ...] | None:
    """The tests of each distinct shift as slices, given each test's shift
    index ``column``: one per run of adjacent tests of a shift, or, where the
    shifts repeat with a period, one per phase; None where that is more than
    ``limit`` slices."""
    column = np.broadcast_to(column, (k,))
    starts = np.flatnonzero(column[1:] != column[:-1]) + 1
    if starts.size < limit:
        ends = [*starts.tolist(), k]
        return tuple((slice(first, last), int(column[first])) for first, last in zip([0, *ends[:-1]], ends))
    if limit > 0:
        # the first repeat of the first test's shift, as in 0 1 2 0 1 2 ...
        period = int(np.argmax(column[1:] == column[0])) + 1
        if period <= limit and np.array_equal(column[period:], column[:-period]):
            return tuple((slice(phase, k, period), int(column[phase])) for phase in range(period))
    return None


def _screen_for(scenario: Scenario, shift: np.ndarray, distinct: np.ndarray, band: _Band) -> _Screen:
    """The screen below ``band.lower`` for tests of the given shifts, whose
    distinct values, ascending, are ``distinct``; with segments, also the
    pair that surely rejects from ``band.upper`` on."""
    design, two_sided = scenario.design, scenario.sides is Sides.TWO_SIDED
    column = np.searchsorted(distinct, shift) if distinct.size > 1 else np.zeros(1, dtype=np.intp)
    # a tile keeps one extreme word per segment and side, and their z, in the
    # memory of its (k, rows) statistics: a _SEGMENT_COST of 2 or more leaves
    # room for them
    sides, extra = 2 if two_sided else 1, 0 if design.kind == "independent" else 2 * distinct.size
    segments = _segments(column, scenario.k, min(_SEGMENTS_MAX, (scenario.k // _SEGMENT_COST - extra) // sides))
    never = np.full(distinct.size, -np.inf)
    pairs = []
    for z, outward in ((band.lower, -1.0), (band.upper, 1.0))[: 1 if segments is None else 2]:
        # each edge moved away from the band by a margin: a z below the lower
        # edge has G between the first pair, one at or above the upper edge
        # G outside the second
        edge = z + outward * _SCREEN_MARGIN * (1.0 + abs(z) + np.abs(distinct) + _NORMAL_MAX)
        pair = [edge, -edge if two_sided else never]
        pairs.append(np.stack(pair if outward < 0 else pair[::-1]))
    # a huge shift puts an edge at infinity, where it screens all or nothing
    with np.errstate(over="ignore"):
        edges = np.concatenate(pairs, axis=1)[:, :, None] - np.tile(distinct, len(pairs))[:, None]
        if design.kind == "equicorrelated":
            scale = math.sqrt(1.0 - design.rho)  # z = (shift + c) + scale * G
            edges, slope = edges / scale, -1.0 / scale
        elif design.kind == "shared_control":  # z = (G - c) / sqrt(2) + shift
            edges, slope = edges * _SQRT2, 1.0
        else:
            slope = 0.0
    ends = None
    if segments is not None:
        ends = np.tile(distinct[[j for _, j in segments]], 2 if two_sided else 1)
    return _Screen(edges, column, slope, segments, ends)


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
    """How one run decides. With ``words`` the statistics are the top 31
    bits of the draws' words, read off their states before the mix's last
    xorshift, and the bands are on those bits; otherwise the statistics are
    z (|z| when two-sided). ``test`` bands each test's decision at alpha.
    ``joint`` bands the disjunction: a scalar band meets each replication's
    maximum, a (k, 1) column of bands, one per test, meets its statistics
    as they are, or, for Hochberg, sorted ascending. Hochberg sorts only the
    replications its bracket leaves open: one whose maximum reaches the band
    of step alpha / k rejects, and one with K rejections at alpha whose
    maximum is below ``retain[K]`` retains. Replications that fall inside a
    joint band are judged on their p-values by
    :func:`~alphagate.decisions.reject`. ``screen`` is the z route's
    :class:`_Screen`, if it has one.

    A tile judged whole holds its statistics test-major, (k, rows). A tile
    of a screen with segments holds none: it judges each test at alpha on
    its word's head, takes each replication's maximum from its segments'
    extremes, and makes the z of the replications Hochberg sorts alone, each
    as a whole tile would hold it."""

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
            screen = _screen_for(scenario, shift, distinct, test)
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
    # a word top's 31-bit head: the lower edge rounds down and the upper one
    # up, so each band only widens, and 2**31 stands for never
    lower = (tops.lower >> _TOP_DROP).astype(np.uint32)
    upper = ((tops.upper + (1 << _TOP_DROP) - 1) >> _TOP_DROP).astype(np.uint32)
    test = _Band(lower[column, 0], upper[column, 0])
    joint = _Band(lower[column, 1], upper[column, 1])
    return _Plan(words, hochberg, shift, test, joint, None)


class _Scratch:
    """The memory one worker judges its chunks in: a single ``np.empty`` block,
    carved into a chunk's seeds and totals and a tile's statistics and masks.
    Its size depends only on the tile, k, the chunk length and the number of
    distinct shifts, so every chunk and tile the worker judges reuses it and
    allocates nothing of that size.

    The tile views are test-major: (draws, tile) for the statistics ``stats``
    (float64 z on the z route, the uint64 states before the mix's last
    xorshift on the word route) and the uint64 working memory ``bits`` (the
    z route's words; on the word route the mixing's scratch, then in its
    head the statistics, the states' uint32 top 31 bits), (k, tile) for the
    booleans ``rejected`` and ``mask``.
    ``top``, of the statistics' type, ``maybe``, ``joint`` and, for
    Hochberg, ``cut`` (the bracket's retain cut) hold one value per
    replication. A shorter tile takes their heads. The z route's screen
    converts its (2, edges, rows) edges in ``edges`` and keeps the word
    bounds they give, and with segments the head edges too, in ``bounds``:
    one column only for the independent design, whose bounds no shared draw
    moves.

    Views that are idle while a tile is judged hold its compact arrays. A
    tile screened with segments, which makes no statistics, holds in
    ``stats`` first its tests' heads, as uint32, then its extremes' words
    and their z, and its sorted replications' words. The kept draws take
    their shared terms where their words were picked, and their test and
    replication indices and shifts in ``seed_bits`` and ``ratio``, which the
    chunk needs only before its first tile and after its last. Those two
    hold the longer of a chunk and k, so that the kept draws of a tile of
    one replication are gathered in one piece. Hochberg copies, or makes,
    the statistics of the replications its bracket leaves open in ``bits``,
    and once a tile is decided ``mask`` takes its rejections of true nulls.

    A chunk's per-replication counts ``r`` and ``v`` take the smallest
    unsigned type that holds k, and a tile's per-test ``counts`` the one that
    holds the tile length: the reductions then add bytes without widening."""

    def __init__(self, plan: _Plan, scenario: Scenario, tile: int, chunk: int):
        k = scenario.k
        draws = _draws(scenario)  # k on the word route, whose design is independent
        stat_type = np.uint32 if plan.words else np.float64
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
            "stats": ((draws, tile), np.uint64 if plan.words else np.float64),
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


def _tile_words(scenario: Scenario, seeds: np.ndarray, scratch: _Scratch) -> tuple[np.ndarray, np.ndarray]:
    """The z route's words of one tile: its tests' words, (k, rows) in
    ``scratch.bits``, and each replication's :func:`_common` term, in the
    head of ``scratch.stats`` (:data:`_NO_COMMON` under the independent
    design)."""
    design, rows = scenario.design, len(seeds)
    stats, bits = _head(scratch.stats, rows), _head(scratch.bits, rows)
    # word_block fills (rows, draws); its transposes make the tile test-major.
    # The words go to bits and the normals to stats: numpy would copy words
    # mapped to floats in their own memory
    words = word_block(seeds, len(bits), bits.T, stats.view(np.uint64).T).T
    common = _NO_COMMON if design.kind == "independent" else _common(design, normal_from_words(words[0], stats[0]))
    return words[-scenario.k :], common


def _screen_tops(screen: _Screen, common: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """The word tops of the screen's edges for each :func:`_common` term,
    (2, edges, len(common)), in ``scratch.edges``. A test's tops in
    [tops[1, j], tops[0, j]) are screened out; an empty interval starts at
    its end."""
    edges = _carve(scratch.edges, (*screen.edges.shape[:2], common.size))
    np.multiply(common, screen.slope, out=edges)
    edges += screen.edges
    _word_tops(edges)
    shifts = len(screen.edges[0]) // (1 if screen.segments is None else 2)
    np.minimum(edges[1, :shifts], edges[0, :shifts], out=edges[1, :shifts])
    return edges


def _kept_z(
    scenario: Scenario, words: np.ndarray, keep: np.ndarray, shift: np.ndarray, common: np.ndarray,
    out: np.ndarray, scratch: _Scratch,
) -> np.ndarray:
    """z (|z| when two-sided) of each word of a (m, n) block that ``keep``
    marks, with its row's ``shift`` and its column's :func:`_common` term, as
    :func:`_z_block` makes it, and -inf elsewhere, below every band; in
    ``out``, a float64 block of the same shape. Only the kept words go
    through ndtri: they are picked into ``out``, made normals in the memory
    of ``words``, which they spend, and assembled compactly by the same IEEE
    operations as _z_block's, so each is the same double."""
    design, n = scenario.design, words.shape[1]
    where = np.flatnonzero(keep)
    # every index is in range: take's "clip" only spares it a buffered out
    picked = np.take(words, where, out=out.view(np.uint64).reshape(-1)[: where.size], mode="clip")
    kept = normal_from_words(picked, words.view(np.float64).reshape(-1)[: where.size])

    # gathered in pieces as long as the spare views, at least k; the shared
    # terms go where the picked words were
    shared = out.reshape(-1)
    step = scratch.ratio.size
    for lo in range(0, where.size, step):
        hi = min(lo + step, where.size)
        index = np.floor_divide(where[lo:hi], n, out=scratch.seed_bits[: hi - lo].view(np.intp))
        row_shift = np.take(shift, index, out=scratch.ratio[: hi - lo], mode="clip")
        term = None
        if design.kind != "independent":
            index *= n
            np.subtract(where[lo:hi], index, out=index)
            term = np.take(common, index, out=shared[lo:hi], mode="clip")
        _assemble(design, kept[lo:hi], term, row_shift, out=term)
    if scenario.sides is Sides.TWO_SIDED:
        np.abs(kept, out=kept)
    out.fill(-np.inf)
    shared[where] = kept
    return out


def _screened_z(plan: _Plan, scenario: Scenario, seeds: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """The z route's statistics of one tile judged whole, (k, rows), in
    ``scratch.stats``: z (|z| when two-sided) bitwise as :func:`_z_block`
    makes it wherever it can reach ``plan.test.lower``, and -inf wherever
    the plan's screen shows that it cannot. Only the draws of the first kind
    go through ndtri (see the module docstring)."""
    design, k, rows, screen = scenario.design, scenario.k, len(seeds), plan.screen
    tests, common = _tile_words(scenario, seeds, scratch)
    x = _head(scratch.stats, rows)[-k:]  # after the shared draw, if any
    if screen is None:
        normal_from_words(tests, x)
        _assemble(design, x, common, plan.shift[:, None], out=_carve(scratch.bits.view(np.float64), x.shape))
        if scenario.sides is Sides.TWO_SIDED:
            np.abs(x, out=x)
        return x

    # a test's words in [bounds[1], bounds[0]) are screened out
    tops = _screen_tops(screen, common, scratch)
    tops *= float(1 << int(_WORD_DROP))
    bounds = _carve(scratch.bounds, tops.shape)
    np.copyto(bounds, tops, casting="unsafe")
    # x held the mixing states; now each test's bounds
    each = _carve(x.view(np.uint64), (screen.column.size, common.size))
    np.take(bounds[0], screen.column, axis=0, out=each, mode="clip")
    above = np.greater_equal(tests, each, out=_head(scratch.rejected, rows))
    np.take(bounds[1], screen.column, axis=0, out=each, mode="clip")
    keep = np.less(tests, each, out=_head(scratch.mask, rows))
    keep |= above
    return _kept_z(scenario, tests, keep, plan.shift, common, x, scratch)


class _Words(NamedTuple):
    """One tile of a run screened with segments, before any z of its tests is
    made (:func:`_screened_words`). ``tests`` are its tests' words, (k, rows)
    in ``scratch.bits``, and ``common`` each replication's :func:`_common`
    term. ``bounds`` holds the lower end and then the width of each distinct
    shift's screened words, (2, distinct shifts, rows or 1), and ``heads``
    the lower ends and then the widths of its screened heads and of its heads
    that may not reject, (2, 2, distinct shifts, rows or 1)."""

    tests: np.ndarray
    common: np.ndarray
    bounds: np.ndarray
    heads: np.ndarray


def _screened_words(plan: _Plan, scenario: Scenario, seeds: np.ndarray, scratch: _Scratch) -> _Words:
    """One tile of a run screened with segments: its words and the screen's
    word bounds and head edges, in ``scratch.bounds``, from one conversion
    of the screen's edges for the tile's shared terms."""
    tests, common = _tile_words(scenario, seeds, scratch)
    tops = _screen_tops(plan.screen, common, scratch)
    shifts, columns = len(tops[0]) // 2, common.size
    # the words of [b1, b0) as a lower end and a width, which a word minus
    # the lower end, wrapping around, is below exactly when it is inside
    bounds = _carve(scratch.bounds, (2, shifts, columns))
    np.copyto(bounds[0], tops[1, :shifts], casting="unsafe")
    np.subtract(tops[0, :shifts], tops[1, :shifts], out=bounds[1], casting="unsafe")
    bounds <<= _WORD_DROP
    # the same tops' 31-bit heads: the screened interval rounded inward and
    # the pair that surely rejects outward, as [lower, upper) intervals that
    # nest, 2**31 standing for never
    tops *= 2.0**-_TOP_DROP
    np.floor(tops[0], out=tops[0])
    np.ceil(tops[1], out=tops[1])
    np.minimum(tops, 2.0**31, out=tops)
    screened_upper, unrejected_lower = tops[0, :shifts], tops[0, shifts:]
    screened_lower, unrejected_upper = tops[1, :shifts], tops[1, shifts:]
    np.minimum(screened_lower, screened_upper, out=screened_lower)
    np.minimum(unrejected_lower, screened_lower, out=unrejected_lower)
    np.maximum(unrejected_upper, screened_upper, out=unrejected_upper)
    heads = _carve(scratch.bounds[bounds.size :].view(np.uint32), (2, 2, shifts, columns))
    for index, (lower, upper) in enumerate(((screened_lower, screened_upper), (unrejected_lower, unrejected_upper))):
        np.copyto(heads[0, index], lower, casting="unsafe")
        np.subtract(upper, lower, out=heads[1, index], casting="unsafe")
    return _Words(tests, common, bounds, heads)


def _head_verdicts(plan: _Plan, scenario: Scenario, tile: _Words, scratch: _Scratch) -> tuple[np.ndarray, np.ndarray]:
    """Each test's verdicts at alpha, (k, rows), on its word's 31-bit head:
    whether it surely rejects, outside the second interval, and whether it
    may, outside the screened one. A test that may but does not surely
    reject ties an edge or falls between the intervals, where its band is.
    The heads take the memory the tile's mixing used."""
    k, rows = tile.tests.shape
    heads = _head(scratch.stats, rows)[-k:].reshape(-1).view(np.uint32)
    heads, shifted = heads[: k * rows].reshape(k, rows), heads[k * rows :].reshape(k, rows)
    np.right_shift(tile.tests, _STATE_DROP, out=heads, casting="unsafe")
    rejected, outside = _head(scratch.rejected, rows), _head(scratch.mask, rows)
    lower, width = tile.heads
    for tests, j in plan.screen.segments:
        for index, verdict in enumerate((outside, rejected)):
            head = heads[tests]
            if scenario.sides is Sides.TWO_SIDED:  # the lower ends are 0 when one-sided
                head = np.subtract(head, lower[index, j], out=shifted[tests])
            np.greater_equal(head, width[index, j], out=verdict[tests])
    return rejected, outside


def _extreme_top(plan: _Plan, scenario: Scenario, tile: _Words, scratch: _Scratch) -> np.ndarray:
    """Each replication's largest z (|z| when two-sided) among the draws the
    screen keeps, -inf where it keeps none, in ``scratch.top``. Within a
    segment z only grows with the word, so that z is one of its extremes':
    the largest word, and the smallest when two-sided. Only the kept
    extremes go through ndtri. They take the memory of the tile's heads."""
    screen, (k, rows) = plan.screen, tile.tests.shape
    count, m = len(screen.segments), screen.ends.size
    spare = _head(scratch.stats, rows)[-k:].reshape(-1)
    ends, z = spare[: m * rows].view(np.uint64).reshape(m, rows), spare[m * rows : 2 * m * rows].reshape(m, rows)
    keep, offset = _carve(scratch.mask, (m, rows)), z.view(np.uint64)
    lower, width = tile.bounds
    for row in range(m):
        tests, j = screen.segments[row % count]
        (np.max if row < count else np.min)(tile.tests[tests], axis=0, out=ends[row])
        np.subtract(ends[row], lower[j], out=offset[row])
        np.greater_equal(offset[row], width[j], out=keep[row])
    _kept_z(scenario, ends, keep, screen.ends, tile.common, z, scratch)
    return np.max(z, axis=0, out=scratch.top[:rows])


def _kept_columns(
    plan: _Plan, scenario: Scenario, tile: _Words, unsettled: np.ndarray, scratch: _Scratch
) -> np.ndarray:
    """The statistics of the given replications of a tile screened with
    segments, (k, len(unsettled)), in ``scratch.bits``: bitwise those
    :func:`_screened_z` would make, with only their kept draws through
    ndtri."""
    screen, (k, rows) = plan.screen, tile.tests.shape
    n = unsettled.size
    words = _carve(_head(scratch.stats, rows)[-k:].view(np.uint64), (k, n))
    np.take(tile.tests, unsettled, axis=1, out=words, mode="clip")
    columns = _carve(scratch.bits.view(np.float64), (k, n))  # the tile's words are spent
    bounds, common = tile.bounds, tile.common
    if common.size > 1:
        bounds = np.take(bounds, unsettled, axis=2, out=_carve(scratch.edges.view(np.uint64), (*bounds.shape[:2], n)),
                         mode="clip")
        common = np.take(common, unsettled, out=scratch.cut[:n], mode="clip")
    lower, width = bounds
    keep, offset = _carve(scratch.mask, (k, n)), columns.view(np.uint64)
    for tests, j in screen.segments:
        np.subtract(words[tests], lower[j], out=offset[tests])
        np.greater_equal(offset[tests], width[j], out=keep[tests])
    return _kept_z(scenario, words, keep, plan.shift, common, columns, scratch)


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
    x = tile = None
    if plan.words:
        # the top 31 bits of each word, from its state before the mix's last
        # xorshift; _premixed_block fills (rows, k), and its transposes make
        # the tile test-major. As uint32 they take half the memory traffic of
        # every compare and maximum below
        state = _premixed_block(seeds, k, _head(scratch.stats, rows).T, _head(scratch.bits, rows).T).T
        x = _carve(scratch.bits.view(np.uint32), state.shape)
        np.right_shift(state, _STATE_DROP, out=x, casting="unsafe")
    elif plan.screen is None or plan.screen.segments is None:
        x = _screened_z(plan, scenario, seeds, scratch)
    else:
        tile = _screened_words(plan, scenario, seeds, scratch)

    if tile is None:
        rejected = np.greater_equal(x, plan.test.upper, out=_head(scratch.rejected, rows))
        maybe = np.greater_equal(x, plan.test.lower, out=_head(scratch.mask, rows))
    else:
        rejected, maybe = _head_verdicts(plan, scenario, tile, scratch)
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
        top = np.max(x, axis=0, out=scratch.top[:rows]) if tile is None else _extreme_top(plan, scenario, tile, scratch)
        np.greater_equal(top, plan.joint.upper[-1, 0], out=joint)
        np.greater_equal(top, np.take(plan.retain, counts, out=scratch.cut[:rows], mode="clip"), out=maybe)
        unsettled = np.flatnonzero(np.greater(maybe, joint, out=maybe))
        if unsettled.size:
            if tile is None:
                # bits is spent once the tile's z is made
                columns = _carve(scratch.bits.view(np.float64), (k, unsettled.size))
                np.take(x, unsettled, axis=1, out=columns, mode="clip")
            else:
                columns = _kept_columns(plan, scenario, tile, unsettled, scratch)
            joint[unsettled], maybe[unsettled] = _step_up(plan, columns, _carve(scratch.mask, columns.shape))
    elif np.ndim(plan.joint.upper) == 0:
        top = np.max(x, axis=0, out=scratch.top[:rows]) if tile is None else _extreme_top(plan, scenario, tile, scratch)
        np.greater_equal(top, plan.joint.upper, out=joint)
        np.greater_equal(top, plan.joint.lower, out=maybe)
    else:
        mask = _head(scratch.mask, rows)
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
