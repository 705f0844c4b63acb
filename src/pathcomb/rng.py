"""Deterministic bit source for reproducible sampling.

SplitMix64 (Steele, Lea and Flood, "Fast splittable pseudorandom number
generators", OOPSLA 2014): state advances by the golden-gamma constant and
is finalised by two xor-multiply rounds.  Output is a pure function of the
seed, with identical results on every platform.  Triangle bits are drawn
row-major (row 1 first, each row left to right), one 64-bit output per bit,
taking the top bit.

The class is the scalar reference.  random_triangle computes the same
outputs in lanes: 1,024 of them at a time side by side in one Python int,
each in its own 128-bit lane, so that one int operation advances them all.
The bit order is the scalar walk's.
"""

from __future__ import annotations

from .families import BitTriangle

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MUL1) & _MASK
        z = ((z ^ (z >> 27)) * _MUL2) & _MASK
        return z ^ (z >> 31)

    def next_bit(self) -> int:
        return self.next_u64() >> 63


_LANES = 1024  # a power of two
_LANE = 128  # bits per lane: room for a 64 x 64-bit product


def _counting_lanes() -> tuple[int, int]:
    """1 in every lane, and j + 1 in lane j, built by doubling the lanes
    filled: lanes k..2k-1 get the values of lanes 0..k-1, plus 0 and k."""
    ones = counts = 1
    k = 1
    while k < _LANES:
        counts |= (counts + k * ones) << _LANE * k
        ones |= ones << _LANE * k
        k *= 2
    return ones, counts


_ONES, _COUNTS = _counting_lanes()
_LOW = _ONES * _MASK  # the low 64 bits of every lane
_STEPS = _COUNTS * _GAMMA  # (j+1)*gamma in lane j


def _bits(seed: int, count: int) -> bytes:
    """The top bits of the first count outputs of SplitMix64(seed), one 0/1
    byte each, computed 1,024 outputs per int operation.

    Lane j of a block holds the state of output j.  A right shift lets the
    next lane's low bits into the top of lane j, so each xor-shift is masked
    back to 64 bits before its multiply, and the product stays in its lane.
    The output's top bit is bit 63 of the second product, since z >> 31
    cannot reach bit 63, so that product needs no mask.
    """
    blocks = []
    state = seed & _MASK
    for _ in range(0, count, _LANES):
        z = (state * _ONES + _STEPS) & _LOW
        z = ((z ^ z >> 30) & _LOW) * _MUL1 & _LOW
        z = ((z ^ z >> 27) & _LOW) * _MUL2
        blocks.append((z >> 63 & _ONES).to_bytes(_LANE // 8 * _LANES, "little")[::_LANE // 8])
        state = (state + _LANES * _GAMMA) & _MASK
    return b"".join(blocks)[:count]


def random_triangle(n: int, seed: int) -> BitTriangle:
    """A uniformly random order-n bit triangle, determined by the seed."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    bits = _bits(seed, n * (n - 1) // 2)
    return BitTriangle(tuple(tuple(bits[i * (i - 1) // 2:i * (i + 1) // 2]) for i in range(n)))
