"""Random regular bipartite graphs, expansion certificates, signed sketches.

A graph maps each of N left vertices to ell buckets in [M], drawn with
replacement from a counter-based stream, so neighbor lists regenerate in
O(1) from (seed, N, ell, M) alone.  That matters because the recursion
works over implicit domains (up to 2^61) that can never be materialized.

The signed sketch operator multiplies each edge by a +-1 value from a
limited-independence sign family; applying it to a vector x produces the
bucket sums u_j = sum over edges (i -> j) of sign(i, j) * x_i, with
duplicate edges contributing twice.

A graph's neighbor table and an operator's int8 (N, ell) sign table
belong to the design, not to the signal, so they are kept once some
call needs the rows of the whole domain (a call on at least N rows: a
dense encode, a full-domain identification), and only where N * ell <=
_MATERIALIZE_LIMIT (the sign table is then at most 1 MiB, the neighbor
table 8 MiB).  Until
then, and always on larger graphs, each call generates and hashes only
the rows it touches: a design whose decoder scans few of its operators
never builds the others' tables.  `apply_sparse_many`, the one sparse
encode path, lays the edges of all its small jobs on table-less graphs
out flat, as per-edge (job, row, slot) arrays, and computes each
per-edge quantity in one numpy pass over them: bucket ids from one
counter-stream pass, signs from one Horner pass per sign field, weights
and offset bucket ids.  A call then costs a fixed number of numpy calls
however many operators it touches, and one bincount sums all small jobs.
Rows outside [0, N) raise UsageError on every path.

Once both tables are in memory, a call whose rows are exactly 0..N-1 in
order (a dense encode, the readings of a full-domain scan) reads the
neighbor and sign tables in place instead of gathering copies of them;
other calls gather the rows they name.  Either way the bucket sums and
readings take the same values in the same (row, slot) order, so the
results are identical.  The tables never leave the
operator: `readings` and the sketches are new arrays, and
`BipartiteGraph.neighbors_of` returns a copy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from sparserec.errors import InfeasibleError, UsageError
from sparserec.hashing import BATCH_POINTS, SignFamily, batches, horner_signs
from sparserec.seeds import counter_stream

_MATERIALIZE_LIMIT = 1 << 20  # cache neighbor tables up to this many edges


class BipartiteGraph:
    """ell-regular bipartite graph [N] x [ell] -> [M], seed-reproducible."""

    def __init__(self, n_left: int, ell: int, n_buckets: int, seed: int,
                 neighbors: np.ndarray | None = None):
        if n_left < 1:
            raise UsageError("need at least one left vertex")
        if not 1 <= ell <= n_buckets:
            raise UsageError("left degree must satisfy 1 <= ell <= M")
        self.n_left = n_left
        self.ell = ell
        self.n_buckets = n_buckets
        self.seed = int(seed)
        self._table = None
        if neighbors is not None:
            neighbors = np.asarray(neighbors, dtype=np.int64)
            if neighbors.shape != (n_left, ell):
                raise UsageError("neighbor table shape mismatch")
            if neighbors.min() < 0 or neighbors.max() >= n_buckets:
                raise UsageError("neighbor outside bucket range")
            self._table = neighbors

    @staticmethod
    def from_neighbors(neighbors: np.ndarray, n_buckets: int) -> "BipartiteGraph":
        neighbors = np.asarray(neighbors, dtype=np.int64)
        return BipartiteGraph(neighbors.shape[0], neighbors.shape[1], n_buckets,
                              seed=0, neighbors=neighbors)

    @property
    def materialized(self) -> bool:
        """Whether the neighbor table is held in memory."""
        return self._table is not None

    def table(self) -> np.ndarray | None:
        """The read-only (N, ell) neighbor table, built by the first call if
        N * ell <= _MATERIALIZE_LIMIT; None for a larger graph without one."""
        if self._table is None and self.n_left * self.ell <= _MATERIALIZE_LIMIT:
            self._table = self._generate(np.arange(self.n_left))
            self._table.flags.writeable = False
        return self._table

    def _generate(self, indices: np.ndarray) -> np.ndarray:
        """The rows of the given vertices from the counter stream, building
        no table: slot s of row i is counter_stream(seed, i * ell + s) mod M."""
        keys = (np.asarray(indices, dtype=np.uint64)[:, None] * np.uint64(self.ell)
                + np.arange(self.ell, dtype=np.uint64))
        return (counter_stream(self.seed, keys) % np.uint64(self.n_buckets)).astype(np.int64)

    def neighbors_of(self, indices: np.ndarray) -> np.ndarray:
        """(len(indices), ell) bucket table for the given left vertices, as
        a new array; UsageError for a vertex outside [0, N).  A call on at
        least N rows builds the neighbor table first."""
        indices = np.asarray(indices)
        if indices.size and not (0 <= indices.min() and indices.max() < self.n_left):
            raise UsageError(f"vertex outside [0, {self.n_left})")
        if indices.size >= self.n_left:
            self.table()
        return self._generate(indices) if self._table is None else self._table[indices]

    def neighbors(self, i: int) -> list[int]:
        return self.neighbors_of(np.array([i]))[0].tolist()

    def gamma(self, vertices) -> set[int]:
        """Neighborhood Gamma(S) with duplicates collapsed."""
        idx = np.asarray(list(vertices), dtype=np.int64)
        if idx.size == 0:
            return set()
        return set(self.neighbors_of(idx).ravel().tolist())

    # -- serialization --

    def to_params(self) -> dict:
        return {"n_left": self.n_left, "ell": self.ell,
                "n_buckets": self.n_buckets, "seed": self.seed}

    @staticmethod
    def from_params(params: dict) -> "BipartiteGraph":
        return BipartiteGraph(params["n_left"], params["ell"],
                              params["n_buckets"], params["seed"])

    def dump_adjacency(self) -> str:
        """Debug listing, one line per vertex: 'i: j1 j2 ... jell'."""
        if self.n_left * self.ell > _MATERIALIZE_LIMIT:
            raise InfeasibleError("graph too large for an explicit dump")
        table = self.neighbors_of(np.arange(self.n_left))
        return "\n".join(
            f"{i}: " + " ".join(str(j) for j in row) for i, row in enumerate(table)
        ) + "\n"


@dataclass(frozen=True)
class ExpansionCertificate:
    t: int
    eps: float
    verified: bool
    worst_ratio: float


def verify_expansion(graph: BipartiteGraph, t: int, eps: float,
                     max_subsets: int = 10_000_000) -> ExpansionCertificate:
    """Exhaustively check |Gamma(S)| >= |S| * ell * (1 - eps) for |S| <= t.

    Test infrastructure: refuses rather than samples when the subset
    count exceeds the guard, since a sampled certificate would overclaim.
    """
    n = graph.n_left
    if t < 1 or t > n:
        raise UsageError("subset size bound t must be in 1..N")
    total = sum(math.comb(n, s) for s in range(1, t + 1))
    if total > max_subsets:
        raise InfeasibleError(
            f"enumerating {total} subsets exceeds the {max_subsets} guard"
        )
    table = graph.neighbors_of(np.arange(n))
    masks = []
    for i in range(n):
        m = 0
        for j in table[i]:
            m |= 1 << int(j)
        masks.append(m)

    ell = graph.ell
    worst = 1.0
    verified = True
    threshold = 1.0 - eps

    def explore(start: int, depth: int, acc: int):
        nonlocal worst, verified
        for v in range(start, n):
            m = acc | masks[v]
            ratio = m.bit_count() / ((depth + 1) * ell)
            if ratio < worst:
                worst = ratio
            if ratio < threshold - 1e-12:
                verified = False
            if depth + 1 < t:
                explore(v + 1, depth + 1, m)

    explore(0, 0, 0)
    return ExpansionCertificate(t=t, eps=eps, verified=verified, worst_ratio=worst)


def unique_neighbor_count(graph: BipartiteGraph, vertices) -> int:
    """Number of buckets adjacent to exactly one vertex of the set."""
    idx = np.asarray(sorted(set(int(v) for v in vertices)), dtype=np.int64)
    if idx.size == 0:
        return 0
    counts: dict[int, int] = {}
    table = graph.neighbors_of(idx)
    for row in table:
        for j in set(row.tolist()):
            counts[j] = counts.get(j, 0) + 1
    return sum(1 for c in counts.values() if c == 1)


class SignedSketchOperator:
    """Implicit measurement matrix: expander adjacency with +-1 edge signs."""

    def __init__(self, graph: BipartiteGraph, signs: SignFamily):
        if signs.n_left < graph.n_left or signs.n_buckets < graph.n_buckets:
            raise UsageError("sign family domain smaller than the graph")
        self.graph = graph
        self.signs = signs
        self._sign_table = None  # int8 (n_left, ell), filled on demand

    @property
    def n_left(self) -> int:
        return self.graph.n_left

    @property
    def n_buckets(self) -> int:
        return self.graph.n_buckets

    @staticmethod
    def build(n_left: int, ell: int, n_buckets: int, seed: int,
              sign_independence: int) -> "SignedSketchOperator":
        graph = BipartiteGraph(n_left, ell, n_buckets, seed)
        fam = SignFamily(seed=seed, independence=sign_independence,
                         n_left=n_left, n_buckets=n_buckets)
        return SignedSketchOperator(graph, fam)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.graph.n_left,):
            raise UsageError(
                f"expected vector of length {self.graph.n_left}, got {x.shape}"
            )
        nz = np.flatnonzero(x)
        return self.apply_sparse(nz, x[nz])

    def _rows(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(neighbors, edge signs) of the given rows, each (len(indices), ell):
        the read-only tables themselves for the rows 0..N-1 in order once
        both are in memory, else gathered copies or hashed signs.  A call on
        at least N rows builds both tables where they fit.  Telling
        the whole domain apart costs O(1) unless the row count and both ends
        match, then one O(N) order check."""
        n, ell = self.graph.n_left, self.graph.ell
        if (self._sign_table is None and indices.size >= n and n * ell <= _MATERIALIZE_LIMIT
                and self.graph.table() is not None):
            signs = self.signs.sign_vec(np.repeat(np.arange(n, dtype=np.int64), ell),
                                        self.graph._table.ravel())
            self._sign_table = signs.astype(np.int8).reshape(n, ell)
            self._sign_table.flags.writeable = False
        if self._sign_table is None:
            nbrs = self.graph.neighbors_of(indices)
            return nbrs, self.signs.sign_vec(np.repeat(indices, ell),
                                             nbrs.ravel()).reshape(nbrs.shape)
        if (indices.shape == (n,) and indices[0] == 0 and indices[-1] == n - 1
                and np.all(indices[1:] > indices[:-1])):
            return self.graph._table, self._sign_table
        return self.graph.neighbors_of(indices), self._sign_table[indices]

    @cached_property
    def _edge_row(self) -> tuple:
        """(sign field, uint64 [N, ell, graph seed, M, sign family's M, the
        sign polynomial's coefficients]): what `_edge_pass` reads of the
        operator, built by the first pass that needs it."""
        g, h = self.graph, self.signs.hash
        return h.field, np.array((g.n_left, g.ell, g.seed, g.n_buckets, self.signs.n_buckets,
                                  *h.coefficients), dtype=np.uint64)

    def apply_sparse(self, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Sketch of the vector with the given nonzero entries."""
        return apply_sparse_many([(self, indices, values)])[0]

    def readings(self, sketch: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """(len(indices), ell) sign-corrected bucket readings for each index,
        as a new array.  For the indices 0..N-1 in order (a full-domain
        scan) the neighbor and sign tables, once in memory, are read in
        place rather than copied."""
        nbrs, signs = self._rows(np.asarray(indices, dtype=np.int64))
        return signs * sketch[nbrs]

    def dense_matrix(self) -> np.ndarray:
        """Materialized M x N matrix; small instances only (testing)."""
        n, m = self.graph.n_left, self.graph.n_buckets
        if n * m > _MATERIALIZE_LIMIT:
            raise InfeasibleError("dense materialization too large")
        out = np.zeros((m, n))
        for i in range(n):
            for j in self.graph.neighbors(i):
                out[j, i] += self.signs.sign(i, j)
        return out

    def to_params(self) -> dict:
        return {
            "graph": self.graph.to_params(),
            "sign_seed": self.signs.seed,
            "sign_independence": self.signs.independence,
        }

    @staticmethod
    def from_params(params: dict) -> "SignedSketchOperator":
        graph = BipartiteGraph.from_params(params["graph"])
        fam = SignFamily(seed=params["sign_seed"],
                         independence=params["sign_independence"],
                         n_left=graph.n_left, n_buckets=graph.n_buckets)
        return SignedSketchOperator(graph, fam)

    def to_json(self) -> str:
        return json.dumps(self.to_params(), sort_keys=True)


def apply_sparse_many(jobs) -> list[np.ndarray]:
    """`op.apply_sparse(indices, values)` of each (op, indices, values) job.

    Small jobs (fewer than n_left rows, at most BATCH_POINTS edges) share
    work and build no table.  Those on graphs that generate their rows (no
    neighbor table held) are laid out flat by `_edge_pass`: their rows are
    concatenated and expanded once into per-edge (job, row, slot) arrays,
    and one numpy pass over them gives each of the bucket ids (one
    counter-stream pass, each edge carrying its graph's seed, ell and
    bucket count), the pair points, the signs (one Horner pass per sign
    field, each edge carrying its operator's coefficients), the weights and
    the offset bucket ids.  Each operator's static row is built on first
    use.  A pass holds at most BATCH_POINTS edges and costs a fixed number
    of numpy calls however many jobs it holds.  The other small jobs gather
    their rows, and their signs from a filled sign table or by hashing.
    One bincount over offset bucket ids sums all small jobs.  Each job's
    entries stay contiguous and in (row, slot) order, so every bucket takes
    the same additions from +0.0 as in a bincount of its own.

    Every other job runs alone, holding one operator's temporaries at a
    time; its weights are the edge signs cast to float64 and scaled in
    place, which is faster than a mixed int8-float64 product and gives the
    same values.  A job on at least N rows (a dense encode) builds its
    operator's tables where they fit, and one whose rows are exactly 0..N-1
    in order reads them in place, at the cost of one O(N) order check.

    Rows outside [0, N), and value arrays whose shape differs from the
    rows', raise UsageError.  The sketches are new arrays or disjoint views
    of one.
    """
    jobs = [(op, np.asarray(indices, dtype=np.int64), np.asarray(values, dtype=np.float64))
            for op, indices, values in jobs]
    if any(indices.shape != values.shape for _, indices, values in jobs):
        raise UsageError("need one value per row")
    small, generated, ids, weights, offset = [], [], [], [], 0
    for t, (op, indices, values) in enumerate(jobs):
        if indices.size >= op.n_left or indices.size * op.graph.ell > BATCH_POINTS:
            continue
        small.append((t, offset))
        if indices.size and op.graph._table is None:
            generated.append((op, indices, values, offset))
        elif indices.size:
            nb, edge = op._rows(indices)
            ids.append((nb + offset).ravel())
            weights.append((edge * values[:, None]).ravel())
        offset += op.n_buckets
    generated.sort(key=lambda job: job[0]._edge_row[0].q)  # each field's edges together
    for batch in batches(generated, lambda job: job[1].size * job[0].graph.ell):
        batch_ids, batch_weights = _edge_pass(batch)
        ids.append(batch_ids)
        weights.append(batch_weights)
    # an empty bincount would count in int64
    sums = (np.bincount(np.concatenate(ids), weights=np.concatenate(weights),
                        minlength=offset) if ids else np.zeros(offset))
    out = [None] * len(jobs)
    for t, start in small:
        out[t] = sums[start:start + jobs[t][0].n_buckets]
    for t, (op, indices, values) in enumerate(jobs):
        if out[t] is None:
            nb, edge = op._rows(indices)
            weights = edge.astype(np.float64, copy=False)
            weights *= values[:, None]
            out[t] = np.bincount(nb.ravel(), weights=weights.ravel(), minlength=op.n_buckets)
            del nb, edge, weights  # before the next job's rows are gathered
    return out


def _edge_pass(jobs) -> tuple[np.ndarray, np.ndarray]:
    """Offset bucket ids and weights of every edge of the (op, indices,
    values, offset) jobs: non-empty, on graphs without a neighbor table,
    grouped by sign field, at most BATCH_POINTS edges in all.  Slot s of
    row i takes bucket counter_stream(seed, i * ell + s) mod M and the sign
    of pair point i * M' + bucket, M' being the sign family's bucket count:
    the arithmetic of `BipartiteGraph._generate` and `SignFamily.sign_vec`,
    so the values are identical."""
    counts = [indices.size for _, indices, _, _ in jobs]
    ells = [op.graph.ell for op, *_ in jobs]
    sizes = [count * ell for count, ell in zip(counts, ells)]
    static = [op._edge_row[1] for op, *_ in jobs]
    width = max(row.size for row in static)  # shorter coefficient rows end in zeros
    params = np.array([row if row.size == width else
                       np.concatenate((row, np.zeros(width - row.size, np.uint64)))
                       for row in static])
    job = np.repeat(np.arange(len(jobs)), sizes)
    n_left, ell, seed, n_buckets, sign_buckets = params[job, :5].T
    row_ell = np.repeat(ells, counts)
    edge_row = np.repeat(np.arange(row_ell.size), row_ell)
    indices = np.concatenate([indices for _, indices, _, _ in jobs]).astype(np.uint64)[edge_row]
    if np.any(indices >= n_left):  # a negative row wraps above every N
        raise UsageError("row outside [0, N)")
    slots = np.arange(job.size) - (np.cumsum(row_ell) - row_ell)[edge_row]
    buckets = counter_stream(seed, indices * ell + slots.astype(np.uint64)) % n_buckets
    points = indices * sign_buckets + buckets
    signs, start = np.empty(job.size), 0
    for field, group in groupby(zip(jobs, sizes), key=lambda pair: pair[0][0]._edge_row[0]):
        stop = start + sum(size for _, size in group)
        signs[start:stop] = horner_signs(field, params[job[start:stop], 5:].T, points[start:stop])
        start = stop
    signs *= np.concatenate([values for _, _, values, _ in jobs])[edge_row]
    return buckets.astype(np.int64) + np.repeat([offset for *_, offset in jobs], sizes), signs
