"""Counter-based pseudo-random streams built on the SplitMix64 finalizer.

SplitMix64 advances a 64-bit state by the golden-ratio increment and feeds
it through an avalanching bit-mix (Steele, Lea & Flood, 2014; Vigna's
reference C at https://prng.di.unimi.it/splitmix64.c). Because the state at
step i is just ``seed + (i + 1) * GOLDEN_GAMMA``, any output can be computed
directly from its index: the whole stream is a pure function of
(seed, index). That makes replication-level seeding order-free: every
replication derives its own seed, and every draw within a replication is
addressed by a counter, so parallel scheduling can never change results.

Reference sequence from seed 0 (first outputs):
``e220a8397b1dcdaf 6e789e6aa1b965f4 06c45d188009454f``.

Uniforms take the top 53 bits of a mixed word plus a half-ulp offset; the
one word whose top bits are all ones would round to exactly 1.0 and is
capped at the largest double below 1, so uniforms lie strictly inside
(0, 1). Normals are the inverse normal CDF of those uniforms, so each draw
consumes exactly one counter slot. :func:`uniform_from_words` is the only
word-to-uniform map: the simulator also applies it to search the words at
which a decision changes.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .validators import integer

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB

_U64_GAMMA = np.uint64(GOLDEN_GAMMA)
_U64_MULT1 = np.uint64(_MULT1)
_U64_MULT2 = np.uint64(_MULT2)
_SHIFT30 = np.uint64(30)
_SHIFT27 = np.uint64(27)
_SHIFT31 = np.uint64(31)
_SHIFT11 = np.uint64(11)
_TWO_NEG53 = 2.0**-53
_BELOW_ONE = np.nextafter(1.0, 0.0)


def mix64(state: int) -> int:
    """SplitMix64 output function: avalanche one 64-bit state word."""
    z = state & _MASK64
    z = ((z ^ (z >> 30)) * _MULT1) & _MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_rep_seed(seed: int, rep: int) -> int:
    """Seed for replication ``rep`` of the stream rooted at ``seed``.

    Applies the SplitMix64 finalizer at state ``seed + rep * GOLDEN_GAMMA``
    (the finalizer advances by one gamma before mixing, so this is output
    ``rep`` of the reference splitmix64 stream seeded with ``seed``).
    """
    rep = integer(rep, "rep", 0)
    return mix64(seed + (rep + 1) * GOLDEN_GAMMA)


def _mix64_array(state: np.ndarray) -> np.ndarray:
    """Mix a uint64 array in place (the caller's array is consumed) and return it."""
    z = state
    z ^= z >> _SHIFT30
    z *= _U64_MULT1
    z ^= z >> _SHIFT27
    z *= _U64_MULT2
    z ^= z >> _SHIFT31
    return z


def rep_seed_block(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized :func:`derive_rep_seed` for replications start..start+count-1."""
    reps = np.arange(start, start + count, dtype=np.uint64)
    return _mix64_array(np.uint64(seed & _MASK64) + (reps + np.uint64(1)) * _U64_GAMMA)


def word_block(seeds: np.ndarray, draws: int) -> np.ndarray:
    """Raw 64-bit words, shape (len(seeds), draws); word j of row i is
    output j of the splitmix64 stream seeded with seeds[i]."""
    counters = np.arange(1, draws + 1, dtype=np.uint64) * _U64_GAMMA
    return _mix64_array(seeds[:, None].astype(np.uint64) + counters[None, :])


def uniform_from_words(words: np.ndarray) -> np.ndarray:
    """The uniform in (0, 1) that each word stands for: its top 53 bits plus
    one half, times 2**-53, capped at the largest double below 1."""
    u = (words >> _SHIFT11).astype(np.float64)
    u += 0.5
    u *= _TWO_NEG53
    return np.minimum(u, _BELOW_ONE, out=u)


def uniform_block(seeds: np.ndarray, draws: int) -> np.ndarray:
    """Uniforms in (0, 1) of :func:`word_block`'s words."""
    return uniform_from_words(word_block(seeds, draws))


def normal_block(seeds: np.ndarray, draws: int) -> np.ndarray:
    """Standard normals via inverse-CDF transform of :func:`uniform_block`."""
    return ndtri(uniform_block(seeds, draws))
