"""Deterministic 64-bit pseudo-random numbers for reproducible experiments.

The generator is SplitMix64 (Steele, Lea, Flood: "Fast splittable
pseudorandom number generators", OOPSLA 2014).  It is tiny, bit-exact on
every platform, and splittable: independent streams are derived by hashing
a stream key into the seed, so a value can be attached to a fixed label
(for example a group element index) without generating the whole stream.

All randomized code in this package draws from this module and records the
seed it was given, so runs are reproducible from the reported seed alone.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1

# SplitMix64 constants.
GAMMA = 0x9E3779B97F4B7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """Finalizing mixer of SplitMix64: a 64-bit bijection with good diffusion."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive(seed: int, *labels: int) -> int:
    """Derive a substream seed from ``seed`` and integer labels.

    Labels may be any ints (negative allowed); each is folded in with the
    SplitMix64 mixer so distinct label tuples give unrelated seeds.
    """
    z = seed & _MASK
    for lab in labels:
        z = mix64(z ^ ((lab * GAMMA) & _MASK))
    return z


class SplitMix64:
    """Sequential SplitMix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next64(self) -> int:
        self._state = (self._state + GAMMA) & _MASK
        return mix64(self._state)

    def uniform(self) -> float:
        # 53-bit mantissa, uniform on [0, 1).
        return (self.next64() >> 11) * (2.0 ** -53)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, exact for any n >= 1."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        # smallest power-of-two mask covering n
        mask = (1 << (n - 1).bit_length()) - 1 if n > 1 else 0
        while True:
            v = self.next64() & mask
            if v < n:
                return v


def site_uniform(seed: int, site: int) -> float:
    """Uniform [0,1) value attached to (seed, site), independent per site."""
    return (derive(seed, site) >> 11) * (2.0 ** -53)


def site_uniforms(seed: int, sites: np.ndarray) -> np.ndarray:
    """site_uniform(seed, g) for every g of a uint64 array, bit for bit.

    ``sites`` holds each index reduced mod 2**64 (in exact Python where an
    index leaves [0, 2**64)), which is all that derive reads of it; uint64
    arithmetic wraps mod 2**64 like the masks of mix64.
    """
    # in place, so that one shifted temporary is the only other array alive
    z = sites * np.uint64(GAMMA)
    z ^= np.uint64(seed & _MASK)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z.astype(np.float64) * 2.0 ** -53
