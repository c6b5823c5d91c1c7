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

A full-domain identification read (candidates 0..N-1) on an operator
holding a fold table, after a dense encode has built one, ranks only the
rows that can reach the top (`_heads`): the medians of the first
`row_blocks` block set a cut t, and a later row is read only if at least
ceil(ell/2) of its edges land in buckets with |u_j| > t, which every row
with |median| > t has; the bucket-to-row count reads the fold table
(`expander.edges_into`).  Its result is the full read's, bit for bit; at
N = 2^16, ell = 9 it ranks 5,500 to 9,400 of the 65,536 rows on noisy
signals.

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
from sparserec.expander import (SignedSketchOperator, _all_rows, apply_sparse_many,
                                edge_blocks, edges_into, fill_tables, row_blocks)
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
    return _median_readings(op, sketch, indices)


def _median_readings(op: SignedSketchOperator, sketch: np.ndarray,
                     rows: np.ndarray) -> np.ndarray:
    """`lower_median(op.readings(sketch, rows))`, one `edge_blocks` block
    at a time."""
    medians = np.empty(len(rows))
    for block, nbrs, signs in edge_blocks(op, rows):
        medians[block] = _medians(signs * sketch[nbrs])
    return medians


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
    k + ceil(k/eta) median estimates (`_heads`), after `fill_tables` of
    the copies' operators."""
    cand = _candidate_set(candidates)
    if cand.size == 0:
        return cand
    fill_tables([op for op, _ in copies])
    return majority_amplify([_heads(op, u, cand, params.ident_count) for op, u in copies])


def _heads(op: SignedSketchOperator, sketch: np.ndarray, cand: np.ndarray,
           count: int) -> np.ndarray:
    """`cand[head_indices(medians, count)]` of the cand rows' median
    estimates (`_median_readings`).

    Only the rows that can reach the top are ranked where cand is the
    rows 0..N-1 of an operator holding a fold table, the sketch is finite
    (a NaN median has no place in the order below) and N exceeds one
    `row_blocks` block of at least count rows.  That block, the sample,
    is read in full, and t is the count-th largest |median| in it.  Those
    count rows rank above every later row whose |median| is at most t (a
    tie breaks toward the smaller index), so only later rows with
    |median| > t can reach the top.  The lower median is order statistic
    q = ceil(ell/2) of ell readings, so a median > t needs ell - q + 1 >= q
    readings > t and one < -t needs q readings < -t: such a row has at
    least q edges into the buckets with |u_j| > t (`edges_into`).  The
    sample and those rows, ranked together in index order, give the top
    of all N rows; where fewer than count medians are nonzero, the zero
    fill comes from the sample."""
    n_left, ell = op.n_left, op.graph.ell
    if not (op.folded and _all_rows(cand, n_left) and np.shape(sketch) == (op.n_buckets,)
            and np.isfinite(sketch).all()
            and count <= (sample := row_blocks(n_left, ell)[0].stop) < n_left):
        return cand[head_indices(_median_readings(op, sketch, cand), count)]
    head = _median_readings(op, sketch, cand[:sample])
    cut = np.partition(np.abs(head), sample - count)[sample - count]
    heavy = np.flatnonzero(np.abs(sketch) > cut)
    rest = sample + np.flatnonzero(edges_into(op, heavy)[sample:] >= (ell + 1) // 2)
    medians = np.concatenate((head, _median_readings(op, sketch, rest)))
    return np.concatenate((cand[:sample], rest))[head_indices(medians, count)]


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
