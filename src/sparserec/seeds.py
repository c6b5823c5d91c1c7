"""Deterministic seed derivation and counter-based integer streams.

Every random object in the toolkit is reproducible from a single 64-bit
master seed.  Child seeds are derived by hashing a label string with the
parent seed (keyed blake2b), so a system descriptor only ever stores the
master seed and the labels of its parts.

Bucket choices and table entries that must be regenerable per-index in
O(1) (the recursion works over implicit domains far too large to
materialize) come from a splitmix64 counter stream, vectorized over
numpy uint64 arrays; one pass can serve many streams, each index
carrying its own seed.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def derive_seed(seed: int, label: str) -> int:
    """Derive a 64-bit child seed from ``seed`` and a label string."""
    key = int(seed).to_bytes(8, "little", signed=False)
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little")


def mix64(z: np.ndarray | int):
    """SplitMix64 finalizer; accepts uint64 arrays or Python ints."""
    if isinstance(z, (int, np.integer)):
        z = (int(z) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return z ^ (z >> 31)
    z = z.astype(np.uint64, copy=True)
    z += np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def counter_stream(seed, index: np.ndarray | int):
    """Deterministic 64-bit values addressed by integer index.

    ``counter_stream(seed, i)`` is a pure function of (seed, i); distinct
    seeds give statistically independent-looking streams.  With an index
    array, seed may also be a uint64 array giving each index its own.
    """
    if isinstance(index, (int, np.integer)):
        return mix64((int(index) ^ mix64(seed)) & 0xFFFFFFFFFFFFFFFF)
    base = (np.uint64(mix64(seed)) if isinstance(seed, (int, np.integer))
            else mix64(np.asarray(seed, dtype=np.uint64)))
    return mix64(np.asarray(index, dtype=np.uint64) ^ base)


def rng_for(seed: int, label: str) -> np.random.Generator:
    """numpy Generator seeded from the derivation tree."""
    return np.random.default_rng(derive_seed(seed, label))
