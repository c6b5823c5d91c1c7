"""Small helpers for head/tail splits of real vectors.

Ties in magnitude break toward the smaller index everywhere, so head
selection is deterministic.
"""

from __future__ import annotations

import numpy as np

from sparserec.errors import UsageError


def head_indices(x: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest-magnitude entries, sorted ascending.

    Ties at the k-th magnitude are filled from the smallest index, and NaN
    entries rank below every number, in index order: the first k of a
    stable sort by decreasing magnitude.  One partition finds the k-th
    magnitude, so the cost is linear in x.size.
    """
    x = np.asarray(x)
    k = min(k, x.size)
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    if k == x.size:
        return np.arange(k, dtype=np.int64)
    key = -np.abs(x)  # ascending key; np.partition puts NaN last
    kth = np.partition(key, k - 1)[k - 1]
    if np.isnan(kth):  # fewer than k numbers: all of them, then NaNs
        above, ties = np.flatnonzero(~np.isnan(key)), np.flatnonzero(np.isnan(key))
    else:
        above, ties = np.flatnonzero(key < kth), np.flatnonzero(key == kth)
    return np.sort(np.concatenate([above, ties[: k - above.size]]))


def nonzeros(x, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of the nonzero entries of a length-n float
    vector; UsageError for any other shape."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise UsageError(f"expected a vector of length {n}, got shape {x.shape}")
    nz = np.flatnonzero(x != 0)  # a float array's own nonzero() is several times slower
    return nz, x[nz]


def distinct(x: np.ndarray) -> np.ndarray:
    """np.unique(x): the distinct values in increasing order, by a sort
    that drops repeats, several times faster than np.unique's hash table
    on the short index arrays of a decode."""
    x = np.sort(x, axis=None)
    return x[np.concatenate(([True], x[1:] != x[:-1]))] if x.size else x


def best_k_term(x: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros_like(np.asarray(x, dtype=np.float64))
    idx = head_indices(x, k)
    out[idx] = x[idx]
    return out


def tail_norm(x: np.ndarray, k: int) -> float:
    """l2 norm of x minus its best k-term approximation."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.linalg.norm(x - best_k_term(x, k)))
