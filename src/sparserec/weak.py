"""The weak recovery layer: median estimation over signed sketches.

Given u = Mx for a signed expander sketch M, the estimate of coordinate
i is the lower median of the multiset of its ell sign-corrected bucket
readings.  Identification keeps the k + ceil(k/eta) largest estimates by
magnitude over a candidate set; estimation keeps the k + ceil(k/sqrt(eta))
largest as values.  Independent copies are combined by majority vote.

Ties in top selection break toward the smaller index, NaN estimates rank
below every number (in index order), and even-length medians take the
lower order statistic, so every output is deterministic in (seed,
parameters, signal).  Top selection is `vectors.head_indices`.

Candidate sets are index arrays.  Every caller in the package passes them
sorted and distinct (an `arange` scan, list-recovery output, a majority
vote or a scheme inversion), which is checked in O(n); other input is
sorted and deduplicated first, so the result is always that of
`np.unique(candidates)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from sparserec.errors import UsageError
from sparserec.expander import (SignedSketchOperator, apply_sparse_many, edges_many,
                                row_blocks)
from sparserec.seeds import derive_seed
from sparserec.vectors import head_indices


@dataclass(frozen=True)
class WeakParams:
    """One (k, eta) layer configuration.

    s counts independent identification copies for majority amplification.
    """

    k: int
    eta: float
    ell: int
    s: int = 1

    def __post_init__(self):
        if self.k < 1 or self.s < 1:
            raise UsageError("k and s must be positive")
        if not 0 < self.eta < 1:
            raise UsageError("eta must lie in (0, 1)")

    @property
    def ident_count(self) -> int:
        """Identification keeps the top k + ceil(k/eta) estimates."""
        return self.k + math.ceil(self.k / self.eta)

    @property
    def est_count(self) -> int:
        """Estimation keeps the top k + ceil(k/sqrt(eta)) values."""
        return self.k + math.ceil(self.k / math.sqrt(self.eta))


def lower_median(readings: np.ndarray) -> np.ndarray:
    """Row-wise lower median (order statistic ceil(n/2) of n) of a copy."""
    return _medians(np.array(readings))


def _medians(readings: np.ndarray) -> np.ndarray:
    """In-place `lower_median` of readings the caller owns, as np.partition does to its copy."""
    idx = (readings.shape[-1] - 1) // 2
    readings.partition(idx, axis=-1)
    return readings[..., idx]


def median_estimates(op: SignedSketchOperator, sketch: np.ndarray,
                     indices: np.ndarray) -> np.ndarray:
    return _median_readings([(op, sketch, indices)])[0]


def _median_readings(requests) -> list[np.ndarray]:
    """`_medians(op.readings(sketch, rows))` of each (op, sketch, rows)
    request, from one `edges_many` call, one `row_blocks` block at a time."""
    edges = edges_many([(op, rows) for op, _, rows in requests])
    out = []
    for (_, sketch, _), (nbrs, signs) in zip(requests, edges):
        medians = np.empty(len(nbrs))
        for rows in row_blocks(*nbrs.shape):
            medians[rows] = _medians(signs[rows] * sketch[nbrs[rows]])
        out.append(medians)
    return out


def _candidate_set(candidates) -> np.ndarray:
    """The distinct candidates in increasing order, as int64."""
    cand = np.asarray(candidates, dtype=np.int64).ravel()
    if cand.size > 1 and not np.all(cand[1:] > cand[:-1]):
        cand = np.sort(cand)
        cand = cand[np.concatenate(([True], cand[1:] != cand[:-1]))]
    return cand


def weak_identify(op: SignedSketchOperator, sketch: np.ndarray,
                  candidates: np.ndarray, params: WeakParams) -> np.ndarray:
    """Candidate indices with the top k + ceil(k/eta) median estimates."""
    return _identify(params, [(op, sketch)], candidates)


def _identify(params: WeakParams, copies, candidates) -> np.ndarray:
    """The candidates in more than half of the (op, sketch) copies' top
    k + ceil(k/eta) median estimates; one `_median_readings` call reads
    every copy."""
    cand = _candidate_set(candidates)
    if cand.size == 0:
        return cand
    medians = _median_readings([(op, u, cand) for op, u in copies])
    return majority_amplify([cand[head_indices(m, params.ident_count)] for m in medians])


@dataclass
class WeakDecomposition:
    """Sparse estimate x_hat; the y/z split is reconstructed by tests."""

    indices: np.ndarray
    values: np.ndarray
    n: int

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.n)
        out[self.indices] = self.values
        return out

    @property
    def support_size(self) -> int:
        return int(self.indices.size)


def weak_estimate(op: SignedSketchOperator, sketch: np.ndarray,
                  candidates: np.ndarray, params: WeakParams) -> WeakDecomposition:
    """Sparse vector of the top k + ceil(k/sqrt(eta)) median estimates."""
    cand = _candidate_set(candidates)
    if cand.size == 0:
        return WeakDecomposition(cand, np.zeros(0), op.n_left)
    ests = median_estimates(op, sketch, cand)
    keep = head_indices(ests, params.est_count)
    return WeakDecomposition(cand[keep], ests[keep], op.n_left)


def majority_amplify(lists) -> np.ndarray:
    """Items present in more than half of the identification lists."""
    lists = [np.asarray(lst, dtype=np.int64) for lst in lists]
    s = len(lists)
    if s == 0:
        raise UsageError("need at least one list")
    if s == 1:
        return np.sort(np.unique(lists[0]))
    merged = np.concatenate([np.unique(l) for l in lists])
    items, counts = np.unique(merged, return_counts=True)
    return items[counts * 2 > s]


@dataclass
class WeakLayer:
    """A full weak system: s identification copies plus one estimation sketch.

    All operators share (domain, ell, n_buckets) and are independently
    seeded from the layer seed.  Each role's operators are built on first
    use, so a role that no decode reads (a tree node's estimation sketch,
    a recursive stage's identification copies) is never built.
    """

    params: WeakParams
    domain: int
    n_buckets: int
    seed: int
    sign_independence: int = 32

    def _build(self, role: str) -> SignedSketchOperator:
        return SignedSketchOperator.build(
            self.domain, self.params.ell, self.n_buckets,
            derive_seed(self.seed, role), self.sign_independence)

    @cached_property
    def ident_ops(self) -> list[SignedSketchOperator]:
        return [self._build(f"ident/{c}") for c in range(self.params.s)]

    @cached_property
    def est_op(self) -> SignedSketchOperator:
        return self._build("estimate")

    @property
    def operators(self) -> list[SignedSketchOperator]:
        """Operators in sketch order: identification copies, then estimation."""
        return [*self.ident_ops, self.est_op]

    def encode_sparse(self, indices: np.ndarray, values: np.ndarray) -> list[np.ndarray]:
        return apply_sparse_many([(op, indices, values) for op in self.operators])

    def encode(self, x: np.ndarray) -> list[np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        nz = np.flatnonzero(x)
        return self.encode_sparse(nz, x[nz])

    def identify(self, sketches: list[np.ndarray],
                 candidates: np.ndarray) -> np.ndarray:
        return _identify(self.params, zip(self.ident_ops, sketches), candidates)

    def estimate(self, sketches: list[np.ndarray],
                 candidates: np.ndarray) -> WeakDecomposition:
        return weak_estimate(self.est_op, sketches[-1], candidates, self.params)
