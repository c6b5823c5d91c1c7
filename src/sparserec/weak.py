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

Medians: the estimate is order statistic ceil(ell/2) of the ell
readings, and a zero median is +0.0 (readings hold both +0.0 and -0.0,
where an empty bucket meets a -1 sign).  One kernel computes every
median (`_medians`): a lower-median selection network, generated per ell
on first use from Batcher's odd-even merge sort and pruned to the
comparators the median needs (24 of 28 at ell = 9, 17 of 19 at ell = 8),
runs np.fmin/np.maximum over the ell readings of a block laid out as
contiguous columns.  Each comparator's low side skips a NaN and its high
side keeps one, so NaN ranks above every number, as in np.partition.
Both return one of their inputs, so every non-NaN median is the element
np.partition would pick, bit for bit.

Candidate sets are index arrays.  Every caller in the package passes them
sorted and distinct (an `arange` scan, list-recovery output, a majority
vote or a scheme inversion), which is checked in O(n); other input is
sorted and deduplicated first, so the result is always that of
`np.unique(candidates)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from sparserec.errors import UsageError
from sparserec.expander import (SignedSketchOperator, apply_sparse_many, edge_blocks,
                                fill_tables)
from sparserec.seeds import derive_seed
from sparserec.vectors import distinct, head_indices, nonzeros


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
    """Lower median (order statistic ceil(n/2) of n, NaN ranked last) along
    the last axis of float readings, as a new array; a zero median is +0.0."""
    readings = np.asarray(readings, dtype=np.float64)
    return _medians(readings.reshape(-1, readings.shape[-1])).reshape(readings.shape[:-1])


def _medians(readings: np.ndarray) -> np.ndarray:
    """`lower_median` of (rows, ell) readings: the median network over a
    transposed copy."""
    steps, median = _median_network(readings.shape[-1])
    columns = np.empty((readings.shape[-1] + 1, readings.shape[0]))  # the last is scratch
    columns[:-1] = readings.T
    wires = list(columns)
    for ufunc, a, b, out in steps:
        ufunc(wires[a], wires[b], out=wires[out])
    return wires[median] + 0.0


@cache
def _median_network(ell: int) -> tuple[tuple, int]:
    """The lower-median selection network on ell columns plus one scratch
    column, built on first use at each ell: (np.fmin or np.maximum, in,
    in, out) column steps and the column that ends holding the median.

    It is Batcher's odd-even merge sort on the next power of two, without
    the comparators that touch a pad (a pad ranks above every input, NaN
    included, so those are no-ops), pruned backwards to the comparators
    the median depends on.  A comparator whose outputs are both read
    writes its min to the scratch column, which then takes the place of
    its lower input; one with a single read output computes only that
    side in place."""
    size, comparators = 1 << (ell - 1).bit_length(), []
    for p in (1 << e for e in range(size.bit_length() - 1)):
        for k in (p >> e for e in range(p.bit_length())):
            for j in range(k % p, size - k, 2 * k):
                comparators += [(i + j, i + j + k) for i in range(min(k, size - j - k))
                                if (i + j) // (2 * p) == (i + j + k) // (2 * p)
                                and i + j + k < ell]
    read, kept = {(ell - 1) // 2}, []
    for lo, hi in reversed(comparators):
        if lo in read or hi in read:
            kept.append((lo, hi, lo in read, hi in read))
            read |= {lo, hi}
    column, scratch, steps = list(range(ell)), ell, []
    for lo, hi, min_read, max_read in reversed(kept):
        a, b = column[lo], column[hi]
        if min_read:
            steps.append((np.fmin, a, b, scratch if max_read else a))
        if max_read:
            steps.append((np.maximum, a, b, b))
        if min_read and max_read:
            column[lo], scratch = scratch, a
    return tuple(steps), column[(ell - 1) // 2]


def median_estimates(op: SignedSketchOperator, sketch: np.ndarray,
                     indices: np.ndarray) -> np.ndarray:
    return _median_readings([(op, sketch, indices)])[0]


def _median_readings(requests) -> list[np.ndarray]:
    """`lower_median(op.readings(sketch, rows))` of each (op, sketch, rows)
    request, one `edge_blocks` block at a time."""
    out = []
    for op, sketch, rows in requests:
        medians = np.empty(len(rows))
        for block, nbrs, signs in edge_blocks(op, rows):
            medians[block] = _medians(signs * sketch[nbrs])
        out.append(medians)
    return out


def _candidate_set(candidates) -> np.ndarray:
    """The distinct candidates in increasing order, as int64."""
    cand = np.asarray(candidates, dtype=np.int64).ravel()
    if cand.size > 1 and not np.all(cand[1:] > cand[:-1]):
        cand = distinct(cand)
    return cand


def weak_identify(op: SignedSketchOperator, sketch: np.ndarray,
                  candidates: np.ndarray, params: WeakParams) -> np.ndarray:
    """Candidate indices with the top k + ceil(k/eta) median estimates."""
    return _identify(params, [(op, sketch)], candidates)


def _identify(params: WeakParams, copies, candidates) -> np.ndarray:
    """The candidates in more than half of the (op, sketch) copies' top
    k + ceil(k/eta) median estimates; one `_median_readings` call reads
    every copy, after `fill_tables` of the copies' operators."""
    cand = _candidate_set(candidates)
    if cand.size == 0:
        return cand
    fill_tables([op for op, _ in copies])
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
        return distinct(lists[0])
    merged = np.concatenate([distinct(l) for l in lists])
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
        return apply_sparse_many(self.operators, [indices] * (self.params.s + 1), values)

    def encode(self, x: np.ndarray) -> list[np.ndarray]:
        return self.encode_sparse(*nonzeros(x, self.domain))

    def identify(self, sketches: list[np.ndarray],
                 candidates: np.ndarray) -> np.ndarray:
        return _identify(self.params, [*zip(self.ident_ops, sketches)], candidates)

    def estimate(self, sketches: list[np.ndarray],
                 candidates: np.ndarray) -> WeakDecomposition:
        return weak_estimate(self.est_op, sketches[-1], candidates, self.params)
