"""Seeded samplers for the two heavy-tailed noise distributions used by the wrappers.

Both samplers use explicit inverse-CDF transforms, one body for a scalar and
an array draw, so that a fixed seed yields the same sequence on every run and
platform, independent of any library internals for these distributions. Scale
0 is the degenerate "no noise" case and returns exactly 0. make_rng builds the
generator of one (seed, stream) pair; make_rngs builds the same generators for
many streams in batches. Tail facts used by the tests:

    Laplace(b):  Pr[|X| >= l*b] = exp(-l)
    Cauchy(b):   Pr[|X| >= l*b] = 1 - (2/pi) * arctan(l)
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

__all__ = ["make_rng", "make_rngs", "sample_laplace", "sample_cauchy"]

# The constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx).
# make_rngs replays that hash, so they must stay numpy's.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_MASK32 = 0xFFFFFFFF
# Streams hashed per batch: their seed rows take at most 2 MiB.
_RNG_CHUNK = 1 << 16


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Dedicated generator for (seed, stream).

    Distinct stream ids give statistically independent sequences, which is how
    parallel trials avoid sharing state. The same (seed, stream) pair always
    produces the same sequence.
    """
    return np.random.default_rng([int(seed), int(stream)])


def make_rngs(seed: int, streams: Iterable[int]) -> Iterator[np.random.Generator]:
    """One generator per stream, each equal to make_rng(seed, stream) bit for bit.

    numpy's SeedSequence([seed, stream]) hashes its entropy words into the
    state it gives PCG64, which costs far more than the PCG64 and Generator
    built from that state. Here the hash runs as 32-bit array arithmetic over
    up to 2^16 streams at a time, and each generator is built from its row
    when the iterator reaches it. A seed or stream of 2^64 or more gets
    make_rng(seed, stream) itself. Spawning from a generator is also that of
    make_rng: the SeedSequence is built on the first spawn.

    Raises:
        ValueError: at the call for a negative seed; when reached, for a
            negative stream.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seeds and streams must be nonnegative, got {seed}")
    if seed >= 2 ** 64:
        return (make_rng(seed, stream) for stream in streams)
    return _batched_rngs(seed, iter(streams))


def _batched_rngs(seed, streams):
    # SeedSequence reads an int as its 32-bit words, least significant first,
    # and hashes zero words at the end of its 4-word pool as if they were
    # absent. So the seed's one or two words, two words of any stream below
    # 2^64 and zeros give the state of SeedSequence([seed, stream]).
    seed_words = [seed & _MASK32] + ([seed >> 32] if seed > _MASK32 else [])
    k = len(seed_words)
    generator, pcg64 = np.random.Generator, np.random.PCG64
    while chunk := [int(s) for s in islice(streams, _RNG_CHUNK)]:
        fits = [0 <= s < 2 ** 64 for s in chunk]
        ints = np.array([s if ok else 0 for s, ok in zip(chunk, fits)], dtype="<u8")
        entropy = np.zeros((len(chunk), _POOL_WORDS), dtype=np.uint32)
        entropy[:, :k] = seed_words
        entropy[:, k:k + 2] = ints.view("<u4").reshape(-1, 2)
        for stream, ok, row in zip(chunk, fits, _pcg64_rows(entropy)):
            yield generator(pcg64(_SeedRow(row, [seed, stream]))) if ok \
                else make_rng(seed, stream)


def _pcg64_rows(entropy):
    """SeedSequence(entropy row).generate_state(4, np.uint64) for every row of
    an (n, 4) uint32 matrix, as an (n, 4) uint64 array. The multipliers step
    the same way for every row, so they stay Python ints."""
    # One hash step for both constant pairs: (A) mixes the entropy into the
    # pool, (B) hashes the pool, cycled twice, into the state.
    const, mult = _INIT_A, _MULT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(entropy[:, i]) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    const, mult = _INIT_B, _MULT_B
    state = np.stack([hashmix(word) for word in pool + pool], axis=1)
    # Pairs of words read as little-endian uint64, as numpy does on any host.
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedRow(ISpawnableSeedSequence):
    """Seeds PCG64 with the row that SeedSequence(entropy) would generate for
    it. Any other request, and spawn, goes to that SeedSequence itself, built
    on first use, so spawned children match make_rng's too."""

    def __init__(self, row, entropy):
        self._row = row
        self._entropy = entropy
        self._sequence = None

    def _seq(self):
        if self._sequence is None:
            self._sequence = np.random.SeedSequence(self._entropy)
        return self._sequence

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:
            return self._row
        return self._seq().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._seq().spawn(n_children)


def _check_scale(scale) -> float:
    b = float(scale)
    if not np.isfinite(b) or b < 0.0:
        raise ValueError(f"noise scale must be a finite nonnegative real, got {scale!r}")
    return b


def sample_laplace(scale, rng: np.random.Generator, size=None):
    """Draw from the zero-mean Laplace distribution with the given scale.

    Inverse CDF: for u uniform on [0,1), x = -b * sign(u - 1/2) * ln(1 - 2|u - 1/2|).
    Returns a Python float when size is None, else an ndarray of that shape.

    Raises:
        ValueError: if the scale is negative or not finite.
    """
    b = _check_scale(scale)
    if b == 0.0:
        return 0.0 if size is None else np.zeros(size)
    u = rng.random(size) - 0.5
    x = -b * np.sign(u) * np.log1p(-2.0 * abs(u))
    return float(x) if size is None else x


def sample_cauchy(scale, rng: np.random.Generator, size=None):
    """Draw from the zero-location Cauchy distribution with the given scale.

    Inverse CDF: x = b * tan(pi * (u - 1/2)) for u uniform on [0,1).
    Returns a Python float when size is None, else an ndarray of that shape.

    Raises:
        ValueError: if the scale is negative or not finite.
    """
    b = _check_scale(scale)
    if b == 0.0:
        return 0.0 if size is None else np.zeros(size)
    x = b * np.tan(np.pi * (rng.random(size) - 0.5))
    return float(x) if size is None else x
