"""Counter-based seed derivation against a stateful SplitMix64 reference,
and the array kernels against scipy's bits."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.special as sp
from scipy.special import ndtri

from alphagate import rng as RNG
from alphagate.errors import DomainError
from alphagate.rng import (
    GOLDEN_GAMMA,
    PORT_MAX,
    derive_rep_seed,
    mix64,
    normal_block,
    normal_from_words,
    rep_seed_block,
    uniform_block,
    uniform_from_words,
    word_block,
)

_MASK = (1 << 64) - 1


class _ReferenceSplitMix64:
    """Independent oracle: the classic stateful generator, advanced one
    step at a time exactly as in the reference C implementation."""

    def __init__(self, seed):
        self.state = seed & _MASK

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) & _MASK


PUBLISHED_FROM_SEED_0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_published_reference_sequence():
    ref = _ReferenceSplitMix64(0)
    assert [ref.next() for _ in range(3)] == PUBLISHED_FROM_SEED_0
    assert derive_rep_seed(0, 0) == 0xE220A8397B1DCDAF


def test_matches_stateful_reference_for_any_seed():
    rng = np.random.default_rng(3)
    for seed in [0, 1, 42, *map(int, rng.integers(0, 2**63, size=20))]:
        ref = _ReferenceSplitMix64(seed)
        for rep in range(10):
            assert derive_rep_seed(seed, rep) == ref.next()


def test_deterministic():
    assert derive_rep_seed(123, 456) == derive_rep_seed(123, 456)


def test_negative_rep_is_a_domain_error():
    with pytest.raises(DomainError, match=r"^rep must be an integer >= 0, got -1$"):
        derive_rep_seed(1, -1)


def test_stream_distinctness_over_a_million_seeds():
    # derive(s, 0) = mix64(s + gamma) and derive(s, 1) = mix64(s + 2*gamma),
    # so the check vectorizes over seeds
    from alphagate.rng import _mix64_array

    seeds = np.arange(1_000_000, dtype=np.uint64)
    g = np.uint64(GOLDEN_GAMMA)
    g2 = np.uint64((2 * GOLDEN_GAMMA) & ((1 << 64) - 1))
    rep0 = _mix64_array(seeds + g)
    rep1 = _mix64_array(seeds + g2)
    assert not np.any(rep0 == rep1)
    assert int(rep0[0]) == derive_rep_seed(0, 0)
    assert int(rep1[0]) == derive_rep_seed(0, 1)


def test_vectorized_block_matches_scalar():
    block = rep_seed_block(987654321, 100, 50)
    for offset in range(50):
        assert int(block[offset]) == derive_rep_seed(987654321, 100 + offset)


def test_block_matches_scalar_across_the_wrap():
    # seed + rep * gamma passes 2**64 many times over from start 2**40 on
    seed, start = 2**64 - 1, 2**40
    out, scratch = np.empty(64, dtype=np.uint64), np.empty(64, dtype=np.uint64)
    block = rep_seed_block(seed, start, 64, out, scratch)
    assert block is out
    assert block.tolist() == [derive_rep_seed(seed, start + offset) for offset in range(64)]
    assert rep_seed_block(seed, start, 0).size == 0


def finish(states):
    """The last xorshift of the mix, z ^ (z >> 31)."""
    return states ^ (states >> np.uint64(31))


def test_the_mix_before_its_last_xorshift_holds_the_top_31_bits_of_the_words():
    states = np.concatenate([
        np.random.default_rng(13).integers(0, 2**64, size=10_000, dtype=np.uint64),
        np.array([0, 2**64 - 1], dtype=np.uint64),
    ])
    words = RNG._mix64_array(states.copy())
    premixed = RNG._premix64_array(states.copy())
    assert words.tolist() == [mix64(int(state)) for state in states]
    assert np.array_equal(finish(premixed), words)
    assert np.array_equal(premixed >> np.uint64(33), words >> np.uint64(33))


def test_premixed_block_finishes_to_the_reference_words():
    premixed = RNG._premixed_block(np.array([0], dtype=np.uint64), 3)[0]
    assert finish(premixed).tolist() == PUBLISHED_FROM_SEED_0
    assert (premixed >> np.uint64(33)).tolist() == [word >> 33 for word in PUBLISHED_FROM_SEED_0]
    seeds = rep_seed_block(17, 0, 50)
    out, scratch = np.empty((6, 50), dtype=np.uint64), np.empty((6, 50), dtype=np.uint64)
    premixed = RNG._premixed_block(seeds, 6, out.T, scratch.T)
    assert np.shares_memory(premixed, out)
    assert np.array_equal(finish(premixed), word_block(seeds, 6))


def test_mix64_wraps_to_64_bits():
    assert 0 <= mix64(2**64 + 5) < 2**64
    assert mix64(2**64 + 5) == mix64(5)


def test_uniform_block_stays_inside_open_interval():
    seeds = rep_seed_block(7, 0, 1000)
    u = uniform_block(seeds, 8)
    assert u.shape == (1000, 8)
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_uniform_block_is_counter_addressable():
    """Draw j of a row equals output j of a fresh stream seeded with that row."""
    seeds = rep_seed_block(11, 0, 4)
    u = uniform_block(seeds, 6)
    for i in range(4):
        ref = _ReferenceSplitMix64(int(seeds[i]))
        for j in range(6):
            expected = ((ref.next() >> 11) + 0.5) * 2.0**-53
            assert u[i, j] == expected


def test_normal_block_moments():
    seeds = rep_seed_block(2024, 0, 20_000)
    z = normal_block(seeds, 4)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


@pytest.mark.parametrize("rows", [1, 7])
def test_normal_from_words_fills_transposed_arrays(rows):
    seeds = rep_seed_block(3, 0, rows)
    out = np.empty((6, rows))
    z = normal_from_words(word_block(seeds, 6, np.empty((6, rows), dtype=np.uint64).T), out.T)
    assert np.shares_memory(z, out)
    assert np.array_equal(z.view(np.uint64), normal_block(seeds, 6).view(np.uint64))


def test_word_block_is_counter_addressable():
    seeds = rep_seed_block(11, 0, 4)
    words = word_block(seeds, 6)
    assert words.dtype == np.uint64
    for i in range(4):
        ref = _ReferenceSplitMix64(int(seeds[i]))
        assert [int(w) for w in words[i]] == [ref.next() for _ in range(6)]


def test_uniform_block_maps_word_block():
    seeds = rep_seed_block(5, 0, 300)
    assert np.array_equal(uniform_block(seeds, 7), uniform_from_words(word_block(seeds, 7)))


def test_all_ones_top_word_stays_below_one():
    """(2**53 - 1) + 0.5 rounds to 2**53; the map caps that one word."""
    tops = np.array([2**53 - 1, 2**53 - 2, 0], dtype=np.uint64)
    words = (tops << np.uint64(11)) | np.uint64(0x7FF)
    u = uniform_from_words(words)
    assert u[0] == np.nextafter(1.0, 0.0)
    assert u[1] == ((2**53 - 2) + 0.5) * 2.0**-53
    assert u[2] == 0.5 * 2.0**-53
    assert np.all(np.isfinite(ndtri(u)))


# -- the array kernels: alphagate.normal's ports up to PORT_MAX entries, scipy beyond

#: the branch edges of tests/test_normal.py, with both zeros, infinities and nans
KERNEL_EDGES = [0.0, -0.0, 5e-324, 2.0**-1022, math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 1.0, -1.0,
                8.0, -8.0, 1.0 - 2.0**-53, math.inf, -math.inf, math.nan, -math.nan]
KERNELS = ["ndtri", "ndtr", "erfc"]


def kernel_inputs(size: int) -> np.ndarray:
    """``size`` values: the edges, then uniforms and normals of either sign."""
    gen = np.random.default_rng(size)
    pool = KERNEL_EDGES + gen.random(size).tolist() + (8.0 * gen.standard_normal(size)).tolist()
    return np.array(pool[:size])


def same_bits(got, want) -> bool:
    return np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


@pytest.fixture
def unloaded(monkeypatch):
    """The kernels as in a process that has not loaded scipy through them."""
    monkeypatch.setattr(RNG, "_scipy", None)


@pytest.mark.parametrize("name", KERNELS)
@pytest.mark.parametrize("size", [PORT_MAX, PORT_MAX + 1])
def test_kernels_give_scipy_bits_on_both_sides_of_port_max(unloaded, name, size):
    x = kernel_inputs(size)
    got = getattr(RNG, name)(x)
    assert type(got) is np.ndarray and same_bits(got, getattr(sp, name)(x))
    # up to PORT_MAX entries the ports serve, and scipy stays unloaded
    assert (RNG._scipy is None) is (size <= PORT_MAX)


@pytest.mark.parametrize("name", KERNELS)
@pytest.mark.parametrize("size", [1, PORT_MAX, PORT_MAX + 1])
@pytest.mark.parametrize("loaded", [False, True])
def test_kernels_write_a_strided_out_and_return_it(monkeypatch, name, size, loaded):
    monkeypatch.setattr(RNG, "_scipy", sp if loaded else None)
    x = kernel_inputs(size)
    block = np.zeros((size, 2))
    got = getattr(RNG, name)(x, out=block[:, 1])
    assert got is not None and np.shares_memory(got, block[:, 1]) and got.strides == (16,)
    assert same_bits(block[:, 1], getattr(sp, name)(x)) and not block[:, 0].any()
    # in place, as normal_from_words converts its uniforms
    want = getattr(sp, name)(x)
    assert getattr(RNG, name)(x, out=x) is x and same_bits(x, want)


@pytest.mark.parametrize("name", KERNELS)
@pytest.mark.parametrize("loaded", [False, True])
@pytest.mark.parametrize("value", [0.3, np.float64(-0.0), np.array(math.nan), np.array(1.0 - math.exp(-2.0))])
def test_kernels_return_an_ndarray_for_a_0d_input(monkeypatch, name, loaded, value):
    monkeypatch.setattr(RNG, "_scipy", sp if loaded else None)
    got = getattr(RNG, name)(value)
    assert type(got) is np.ndarray and got.shape == () and same_bits(got, getattr(sp, name)(value))


def test_load_scipy_keeps_one_module(unloaded):
    assert RNG.load_scipy() is sp and RNG._scipy is sp and RNG.load_scipy() is sp


def test_threads_racing_to_the_first_scipy_call_share_one_module(unloaded):
    # simulate's worker threads may make the first large conversion together
    x = kernel_inputs(PORT_MAX + 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(lambda _: RNG.ndtri(x), range(16), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert RNG._scipy is sp and all(same_bits(got, sp.ndtri(x)) for got in results)
