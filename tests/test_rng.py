"""Counter-based seed derivation against a stateful SplitMix64 reference."""

import numpy as np
import pytest
from scipy.special import ndtri

from alphagate.errors import DomainError
from alphagate.rng import (
    GOLDEN_GAMMA,
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
