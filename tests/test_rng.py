from __future__ import annotations

import pytest

import pathcomb as pc
from pathcomb import rng

SEEDS = (0, 1, -1, 2 ** 63, 2 ** 64 + 7)


def scalar_bits(seed, count):
    gen = pc.SplitMix64(seed)
    return bytes(gen.next_bit() for _ in range(count))


def test_known_answers():
    gen = pc.SplitMix64(1234567)
    assert [gen.next_u64() for _ in range(5)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821]


@pytest.mark.parametrize("seed", SEEDS)
def test_lanes_match_the_scalar_walk(seed):
    # 1,024 lanes per block: counts on both sides of one and two block ends
    for count in (0, 1, 1023, 1024, 1025, 2048, 2049):
        assert rng._bits(seed, count) == scalar_bits(seed, count), count


@pytest.mark.parametrize("seed", SEEDS)
def test_triangles_match_the_scalar_walk(seed):
    for n in [*range(51), 180, 200]:
        gen = pc.SplitMix64(seed)
        want = tuple(tuple(gen.next_bit() for _ in range(i)) for i in range(n))
        assert pc.random_triangle(n, seed).bits == want, n
