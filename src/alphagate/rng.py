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
consumes exactly one counter slot. :func:`uniform_from_words` and
:func:`normal_from_words` are the only word-to-uniform and word-to-normal
maps: the simulator also applies them to the words it picks out of a block
and to the words whose decision falls inside a band.

:func:`word_block` takes an ``out`` array for its words and a uint64
``scratch`` array of the same shape for the mixing, each made anew when
None, so that a caller can draw block after block into the same memory.

:func:`ndtri`, :func:`ndtr` and :func:`erfc` are the array kernels of this
module and of :mod:`alphagate.simulate`. An array of at most
:data:`PORT_MAX` entries goes through :mod:`alphagate.normal`'s scalar ports
and a larger one through scipy's ufunc, imported on its first call
(:func:`load_scipy`), after which every array goes through scipy. Both give
the same bits, so the choice changes only the time and memory a run takes:
a run that converts only small arrays, as the simulator's word route does,
never loads scipy.
"""

from __future__ import annotations

import numpy as np

from . import normal
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

#: Arrays of at most this many entries go through alphagate.normal's scalar
#: ports until scipy is loaded, larger ones through scipy. A port costs about
#: 1.1 to 1.3 us per value on a 2-vCPU Xeon, so a conversion of this size
#: costs at most about 0.1 ms, under 2% of a sim-indep call (6.6 ms), and only
#: when a conversion is that large; importing scipy.special costs about
#: 0.35 s and 26 MiB per process. 64 holds each conversion of the word
#: route's plan (4 values, then 4 per distinct shift, up to 16 of them) and
#: the redraw of one in-band replication at k up to 64.
PORT_MAX = 64

_scipy = None


def load_scipy():
    """scipy.special, imported on the first call; from then on every array
    goes through it, whatever its size. Worker threads may race to the first
    call: the import lock hands them all the one module."""
    global _scipy
    if _scipy is None:
        import scipy.special

        _scipy = scipy.special
    return _scipy


def _kernel(name: str):
    """scipy.special's ``name`` as an array kernel: float64 in, an ndarray out
    (``out`` when given), also for a 0-d input. Until scipy is loaded, up to
    :data:`PORT_MAX` entries go through alphagate.normal's port of it, which
    gives the same bits."""
    port = getattr(normal, name)

    def kernel(x, out=None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        # given an out, a ufunc returns it: an ndarray, also where it is 0-d
        if out is None:
            out = np.empty(x.shape)
        if x.size > PORT_MAX or _scipy is not None:
            return getattr(load_scipy(), name)(x, out=out)
        out[...] = np.fromiter(map(port, x.reshape(-1).tolist()), np.float64, x.size).reshape(x.shape)
        return out

    kernel.__name__ = kernel.__qualname__ = name
    kernel.__doc__ = f"scipy.special.{name}; through alphagate.normal.{name} up to PORT_MAX entries."
    return kernel


ndtri = _kernel("ndtri")
ndtr = _kernel("ndtr")
erfc = _kernel("erfc")


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
    seed = integer(seed, "seed", 0, 2**64 - 1)
    rep = integer(rep, "rep", 0)
    return mix64(seed + (rep + 1) * GOLDEN_GAMMA)


def _mix64_array(state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Mix a uint64 array into ``out`` (a new array when None) and return it;
    ``state`` serves as the scratch of the shifts and is overwritten."""
    z = np.right_shift(state, _SHIFT30, out=out)
    z ^= state
    z *= _U64_MULT1
    np.right_shift(z, _SHIFT27, out=state)
    z ^= state
    z *= _U64_MULT2
    np.right_shift(z, _SHIFT31, out=state)
    z ^= state
    return z


def rep_seed_block(seed: int, start: int, count: int, out=None, scratch=None) -> np.ndarray:
    """Vectorized :func:`derive_rep_seed` for replications start..start+count-1.

    ``out`` receives the seeds and ``scratch``, a uint64 array of the same
    length, is overwritten; each is a new array when None."""
    state = np.empty(count, dtype=np.uint64) if scratch is None else scratch
    state.fill(_U64_GAMMA)
    # the running sums are (rep - start + 1) * gamma, modulo 2**64 like the states
    np.cumsum(state, out=state)
    state += np.uint64((seed + start * GOLDEN_GAMMA) & _MASK64)
    return _mix64_array(state, out)


def word_block(seeds: np.ndarray, draws: int, out=None, scratch=None) -> np.ndarray:
    """Raw 64-bit words, shape (len(seeds), draws); word j of row i is
    output j of the splitmix64 stream seeded with seeds[i].

    ``out`` receives the words and ``scratch``, a uint64 array of the same
    shape, is overwritten; each is a new array when None. Either may be the
    transpose of a (draws, len(seeds)) array."""
    counters = np.arange(1, draws + 1, dtype=np.uint64) * _U64_GAMMA
    state = np.add(np.asarray(seeds, dtype=np.uint64)[:, None], counters, out=scratch)
    return _mix64_array(state, out)


def uniform_from_words(words: np.ndarray, out=None) -> np.ndarray:
    """The uniform in (0, 1) that each word stands for: its top 53 bits plus
    one half, times 2**-53, capped at the largest double below 1.

    ``out`` (a new array when None) receives the uniforms; ``words`` is
    overwritten with its top 53 bits."""
    u = np.add(np.right_shift(words, _SHIFT11, out=words), 0.5, out=out)
    u *= _TWO_NEG53
    return np.minimum(u, _BELOW_ONE, out=u)


def normal_from_words(words: np.ndarray, out=None) -> np.ndarray:
    """The standard normal that each word stands for: ndtri of
    :func:`uniform_from_words`, in place in its ``out``. Give ``out`` memory
    of its own: numpy copies words mapped to floats in the same memory."""
    u = uniform_from_words(words, out)
    return ndtri(u, out=u)


def uniform_block(seeds: np.ndarray, draws: int) -> np.ndarray:
    """Uniforms in (0, 1) of :func:`word_block`'s words, shape (len(seeds), draws)."""
    return uniform_from_words(word_block(seeds, draws))


def normal_block(seeds: np.ndarray, draws: int) -> np.ndarray:
    """Standard normals of :func:`word_block`'s words, shape (len(seeds), draws)."""
    return normal_from_words(word_block(seeds, draws))
