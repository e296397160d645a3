"""Deterministic randomness built on SplitMix64.

Every random draw in the package flows through a Stream so that results are
reproducible from (seed, trial index) alone, with a splitting rule simple
enough for an independent implementation to replay:

    state_0(seed, t) = splitmix64(splitmix64(seed) XOR t)

and the stream then yields splitmix64 outputs of successive states
(state += 0x9E3779B97F4A7C15 per draw).  Draw k (k = 1, 2, ...) of a stream
is therefore mix(state_0 + k * 0x9E3779B97F4A7C15 mod 2^64), which lets
trial_states and stream_draws produce whole batches of draws at once.
"""
from __future__ import annotations

import numpy as np

from .errors import OutOfRangeError

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & MASK64
    return z ^ (z >> 31)


def splitmix64(x: int) -> int:
    """First output of a SplitMix64 generator seeded with x."""
    return _mix((x + _GOLDEN) & MASK64)


def check_seed(seed: int) -> None:
    """Seeds are unsigned 64-bit values; anything else would alias one of them."""
    if not 0 <= seed <= MASK64:
        raise OutOfRangeError(f"seed must lie in [0, 2^64), got {seed}")


class Stream:
    """A SplitMix64 sequence with unbiased integer and Bernoulli draws."""

    def __init__(self, state: int):
        self._state = state & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        return _mix(self._state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), rejection-sampled to avoid modulo bias."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def bernoulli(self, p: float) -> bool:
        """True with probability p (resolved at 2^-64 granularity)."""
        threshold = int(p * (1 << 64))
        return self.next_u64() < threshold


def substream(seed: int, index: int) -> Stream:
    """Independent stream for one trial, per the documented splitting rule."""
    check_seed(seed)
    return Stream(splitmix64(splitmix64(seed) ^ (index & MASK64)))


def _mix_array(z: np.ndarray) -> np.ndarray:
    """_mix over a uint64 array, in place; uint64 arithmetic wraps mod 2^64."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MUL1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MUL2)
    z ^= z >> np.uint64(31)
    return z


def trial_states(seed: int, first: int, count: int) -> np.ndarray:
    """Initial states of the substreams of trials first .. first + count - 1."""
    check_seed(seed)
    trials = np.arange(first, first + count, dtype=np.uint64)
    return _mix_array((np.uint64(splitmix64(seed)) ^ trials) + np.uint64(_GOLDEN))


def stream_draws(states: np.ndarray, count: int) -> np.ndarray:
    """Draws 1 .. count of the streams starting at `states`, one row per stream."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    return _mix_array(states[:, None] + steps)
