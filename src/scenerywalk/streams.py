"""Counter-based random streams for reproducible, parallelisable Monte Carlo.

Every estimator derives its randomness from Philox streams keyed by the
master seed plus a small tuple of integers (kernel tag, chunk index, ...).
Streams are independent of execution order and of the parallelism degree:
the same master seed always reproduces the same numbers, chunk by chunk.

Vectorised kernels consume one stream per fixed-size replica chunk rather
than one per replica; the chunk size is a package constant so results are
bit-stable across runs and job counts.
"""

from __future__ import annotations

import numpy as np

#: replicas per Philox stream in vectorised kernels (fixed: results depend on it)
CHUNK = 8192


def key_word(*key_parts: int) -> int:
    """Second 64-bit Philox key word: the parts folded with multiplicative mixing."""
    mask = 0xFFFFFFFFFFFFFFFF
    word = 0x9E3779B97F4A7C15
    for part in key_parts:
        word = (word * 0x100000001B3) & mask
        word ^= int(part) & mask
        word = (word * 0xC2B2AE3D27D4EB4F) & mask
    return word


def philox(master_seed: int, *key_parts: int) -> np.random.Generator:
    """Generator on an independent Philox stream keyed by (seed, parts...).

    The variadic parts are folded into the second 64-bit key word by
    :func:`key_word`, so distinct tuples give distinct streams.
    """
    key = np.array([int(master_seed) & 0xFFFFFFFFFFFFFFFF, key_word(*key_parts)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunk_ranges(total: int, chunk: int = CHUNK) -> list[tuple[int, int]]:
    """[(start, stop), ...] partition of range(total) into fixed chunks."""
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
