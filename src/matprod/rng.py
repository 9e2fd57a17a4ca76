"""Deterministic hierarchical random-number streams.

A stream is a value object: a 64-bit master seed plus a derivation path of
nonnegative integers. Identical (seed, path) pairs always reproduce the same
scalar sequence, and distinct paths give statistically independent streams,
so replications can be farmed out to any number of workers without changing
a single sampled bit.

A stream's generator is a Philox, a counter-based generator (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11) whose stream is set
by a 128-bit key: here numpy's SeedSequence(seed, spawn_key=path) gives it.
Sibling streams, one per chunk of replications, differ only in the last
word of that SeedSequence's entropy, and its mixing is 32-bit integer
arithmetic. So philox_keys computes the keys of a whole run of siblings in
one call, bit for bit those of SeedSequence, without building one a
sibling, and philox_generator builds a sibling's generator from its key.
RngStream.generator stays the general path, and the reference both are
tested against.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RngStream", "as_generator", "philox_generator", "philox_keys"]

_SEED_MAX = 2**64 - 1

# numpy's SeedSequence arithmetic (numpy/random/bit_generator.pyx): 32-bit
# words, a pool of 4, and the hash constants of its entropy mixing (A) and
# of generate_state's output (B).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# (constant, next constant) of each of generate_state's first 4 output hashes
_OUT_HASH = [(_INIT_B * _MULT_B**k & _MASK32, _INIT_B * _MULT_B**(k + 1) & _MASK32) for k in range(4)]


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream identified by (seed, path)."""

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or not 0 <= self.seed <= _SEED_MAX:
            raise ValueError(f"seed must be a 64-bit nonnegative integer, got {self.seed!r}")
        path = tuple(map(int, self.path))
        if path and min(path) < 0:
            raise ValueError(f"derivation path must be nonnegative integers, got {self.path!r}")
        object.__setattr__(self, "path", path)

    def derive(self, *indices: int) -> "RngStream":
        """Child stream obtained by appending indices to the path."""
        return RngStream(self.seed, self.path + indices)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the origin of this stream."""
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))


def philox_keys(stream: RngStream, indices: Sequence[int]) -> np.ndarray:
    """Philox keys of stream.derive(i).generator() for each i, (len(indices), 2) uint64.

    Such a key is generate_state(2, uint64) of SeedSequence(seed,
    spawn_key=path + (i,)): 4 output hashes of its pool of 4 words. The pool
    mixes the entropy words (the seed padded to 4, then the path's, then
    i's) in one after the other, each word by 4 hashes. So the pool before i
    is SeedSequence(seed, spawn_key=path).pool, the hash constant there is
    INIT_A * MULT_A^(16 + 4w), w the path's words, and each index is mixed
    in from there. An index of 2^32 or more is two words, and a lone index
    costs less as one SeedSequence than as a pool and its mixing: their
    pools come from SeedSequence itself.
    """
    indices = [int(i) for i in indices]
    lanes = _index_lanes(stream) if len(indices) > 1 else ()
    keys = []
    for i in indices:
        if lanes and 0 <= i <= _MASK32:
            pool = []
            for p, a0, a1 in lanes:
                v = (i ^ a0) * a1 & _MASK32
                x = _MIX_L * p - _MIX_R * (v ^ v >> 16) & _MASK32
                pool.append(x ^ x >> 16)
        else:
            pool = np.random.SeedSequence(stream.seed, spawn_key=stream.path + (i,)).pool.tolist()
        w = []
        for p, (b0, b1) in zip(pool, _OUT_HASH):
            x = (p ^ b0) * b1 & _MASK32
            w.append(x ^ x >> 16)
        keys.append((w[0] | w[1] << 32, w[2] | w[3] << 32))
    return np.array(keys, dtype=np.uint64).reshape(-1, 2)


def _index_lanes(stream: RngStream) -> list[tuple[int, int, int]]:
    """Per pool word of SeedSequence(stream.seed, spawn_key=stream.path): the
    word, and the hash constant before and after the hash that mixes an index
    word into it."""
    pool = np.random.SeedSequence(stream.seed, spawn_key=stream.path).pool.tolist()
    words = sum(max(1, -(-p.bit_length() // 32)) for p in stream.path)
    a = _INIT_A * pow(_MULT_A, 16 + 4 * words, 1 << 32) & _MASK32
    lanes = []
    for p in pool:
        lanes.append((p, a, a * _MULT_A & _MASK32))
        a = lanes[-1][2]
    return lanes


class _PhiloxKey(ISeedSequence):
    """A seed that is one Philox key: the state Philox asks for, generate_state(2, uint64)."""

    def __init__(self, key: np.ndarray) -> None:
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or dtype is not np.uint64:
            raise ValueError(f"a Philox key is 2 uint64 words, asked for {n_words} of {dtype}")
        return self.key


def philox_generator(key: np.ndarray) -> np.random.Generator:
    """Fresh generator at the origin of the stream whose Philox key is key (a row of philox_keys)."""
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


def as_generator(rng: "RngStream | np.random.Generator") -> np.random.Generator:
    """Accept either a stream or a live generator.

    Passing a generator lets one routine make several draws in sequence;
    passing a stream always restarts from the stream origin.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng).__name__}")
