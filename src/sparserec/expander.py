"""Random regular bipartite graphs, expansion certificates, signed sketches.

A graph maps each of N left vertices to ell buckets in [M], drawn with
replacement from a counter-based stream, so neighbor lists regenerate in
O(1) from (seed, N, ell, M) alone.  That matters because the recursion
works over implicit domains (up to 2^61) that can never be materialized.

The signed sketch operator multiplies each edge (vertex i, slot s) by a
+-1 sign from a limited-independence family that hashes each vertex once
and gives slot s bit s of the value (`hashing.SignFamily`); applying it
to a vector x produces the bucket sums u_j = sum over the edges (i, s)
landing in bucket j of sign(i, s) * x_i.  A vertex's duplicate edges
(two slots on one bucket) carry their own slots' signs, so they add
2 * x_i or cancel.

Every edge's bucket comes from one formula (`_bucket_ids`) and its sign
from one function (`hashing.edge_signs`, which hashes each row once for
all its slots), with the design tables as their cache.  A graph's
neighbor table and an operator's int8 sign table belong to the design,
not to the signal: the first request on at least N rows (a dense encode,
a full-domain identification) or the first identification read of any
rows (`fill_tables`) builds them, where N * ell <= _MATERIALIZE_LIMIT
(then at most 8 MiB and 1 MiB); an estimation read of a few candidates
builds none.  The third design table, an operator's int32 fold table
(`_fold_table`), lists each bucket's edges as signed vertex ids, padded
to the largest bucket load L: about 4 bytes per edge (21.5 MiB over the
9 operators of a scan design at N = 2^16, ell = 9).  A dense encode
builds it, in the calling thread, for each of its jobs whose operator
held both tables before the call; the call that fills the tables builds
none, so a one-shot encode pays nothing, and a refused table (uneven
loads) is remembered, so no later encode tries again.  A decode builds
none, but a full-domain identification read on an operator holding one
counts each row's edges into its heaviest buckets from it (`edges_into`)
and ranks only the rows that can reach the top.  Rows outside [0, N) raise
UsageError.  Readings and sketches are new arrays, and
`BipartiteGraph.neighbors_of` returns a copy.

Readings, table builds and jobs that run alone take their edges from
`edges_many`, which maps (operator, rows) requests to (buckets, signs)
arrays of shape (rows, ell) in (row, slot) order, one request at a time:
a request on exactly the rows 0..N-1 (`_all_rows`, a dense job) reads
both tables in place, other requests on tabled operators gather rows,
and each of the rest makes one counter-stream pass for its bucket ids
and one Horner pass for its signs (`_hashed_edges`).

`apply_sparse_many` (the encode) sketches one signal's values with many
operators, each at its own rows: a system's encode, or a decode's
residual re-encode.  Its small jobs share one fixed set of numpy passes
(one row gather, one counter-stream pass, one Horner pass per sign
field, one bincount) over per-job columns cached on first use
(`_JobColumns`), plus one gather per job on a tabled operator, when
their edges fit in one pass; every other job runs alone.  A dense job
on an operator with a fold table is a gather and a fold (`_folded`):
np.take of the signed values [x, x * -1.0, +0.0] through blocks of the
table, and np.add.reduce down its columns, both of which release the
GIL, with each bucket taking the same additions in the same order from
+0.0 as np.add.at would.  The jobs of one call whose operators hold
both tables run on one thread per CPU the process may run on: the
calling thread and a pool of workers, started on first use and dropped
in a forked child.  Every other job that runs alone, and the weak
layer's medians, pass over their edges in `row_blocks` (`edge_blocks`),
so on an operator with tables a full-domain read allocates no N *
ell-sized array, whose fresh pages would fault on every call, and an
operator without them (N * ell > _MATERIALIZE_LIMIT) hashes one block
of rows at a time, never holding a request's (rows, ell) edges or the
hash passes' temporaries of that size.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import accumulate, groupby

import numpy as np

from sparserec.errors import InfeasibleError, UsageError
from sparserec.hashing import BATCH_POINTS, SignFamily, coefficient_columns, edge_signs
from sparserec.seeds import counter_stream
from sparserec.vectors import nonzeros

_MATERIALIZE_LIMIT = 1 << 20  # cache neighbor tables up to this many edges
BLOCK_EDGES = 1 << 15  # edges per block of a dense pass: 256 KiB of float64


class BipartiteGraph:
    """ell-regular bipartite graph [N] x [ell] -> [M], seed-reproducible."""

    def __init__(self, n_left: int, ell: int, n_buckets: int, seed: int,
                 neighbors: np.ndarray | None = None):
        if n_left < 1:
            raise UsageError("need at least one left vertex")
        if not 1 <= ell <= n_buckets:
            raise UsageError("left degree must satisfy 1 <= ell <= M")
        if neighbors is None and n_left * ell > 1 << 64:
            # beyond this, two edges' stream indices i * ell + s would coincide
            raise InfeasibleError("bucket stream index i * ell + s exceeds 64 bits")
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
            self._table = _hashed_edges(self, None, np.arange(self.n_left))[0]
            self._table.flags.writeable = False
        return self._table

    def neighbors_of(self, indices: np.ndarray) -> np.ndarray:
        """(len(indices), ell) bucket table for the given left vertices, as
        a new array (`edges_many`)."""
        return edges_many([(self, indices)])[0][0]

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
        if signs.n_left < graph.n_left or signs.ell < graph.ell:
            raise UsageError("sign family domain smaller than the graph")
        self.graph = graph
        self.signs = signs
        self._sign_table = None  # int8 (n_left, ell), filled on demand
        # int32 (largest bucket load, n_buckets), see `_fold_table`; False once refused
        self._fold_table = None

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
        fam = SignFamily(seed=seed, independence=sign_independence, n_left=n_left, ell=ell)
        return SignedSketchOperator(graph, fam)

    @property
    def folded(self) -> bool:
        """Whether the operator holds a fold table (`_fold_table`)."""
        return isinstance(self._fold_table, np.ndarray)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.apply_sparse(*nonzeros(x, self.graph.n_left))

    def apply_sparse(self, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Sketch of the vector with the given nonzero entries."""
        return apply_sparse_many([self], [indices], values)[0]

    def readings(self, sketch: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """(len(indices), ell) sign-corrected bucket readings for each index,
        as a new array."""
        nbrs, signs = edges_many([(self, indices)])[0]
        return signs * sketch[nbrs]


def edges_many(requests) -> list[tuple]:
    """(buckets, signs) of each (op, rows) request, an operator's or a
    graph's (signs None): int64 bucket ids and +-1 signs, each (len(rows),
    ell) in (row, slot) order.  After `fill_tables`, tables are read in
    place (read-only) by a request on exactly the rows 0..N-1 (`_all_rows`)
    of an operator holding both, else gathered; `_hashed_edges` makes the
    rest, each request on its own.  A row outside [0, N) raises
    UsageError."""
    requests = [(op, np.asarray(rows, dtype=np.int64)) for op, rows in requests]
    fill_tables([op for op, rows in requests if rows.size >= op.n_left])
    out = []
    for op, rows in requests:
        graph, family, signs = ((op, None, None) if isinstance(op, BipartiteGraph)
                                else (op.graph, op.signs, op._sign_table))
        if signs is not None and _all_rows(rows, graph.n_left):
            out.append((graph._table, signs))
        elif graph._table is None:
            out.append(_hashed_edges(graph, family, rows))
        else:
            _check_rows(rows, graph.n_left)
            out.append(_gathered(op, rows))
    return out


def _all_rows(rows: np.ndarray, n_left: int) -> bool:
    """Whether int64 rows are exactly 0..N-1 in order (a dense job): one
    O(N) check once the count and both ends match."""
    return (rows.shape == (n_left,) and rows[0] == 0 and rows[-1] == n_left - 1
            and bool(np.all(rows[1:] > rows[:-1])))


def edge_blocks(op: "SignedSketchOperator", rows):
    """Yield (block, buckets, signs) of one (op, rows) request per
    `row_blocks` block of its rows, after `fill_tables` if it is on at
    least N rows: an operator holding its sign table slices one
    `edges_many` request, any other makes one request per block, so it
    never holds the request's (rows, ell) edges, or the hash passes'
    temporaries of that size, at once."""
    rows = np.asarray(rows, dtype=np.int64)
    fill_tables([op] if rows.size >= op.n_left else [])
    whole = None if op._sign_table is None else edges_many([(op, rows)])[0]
    for block in row_blocks(rows.size, op.graph.ell):
        buckets, signs = (edges_many([(op, rows[block])])[0] if whole is None
                          else (whole[0][block], whole[1][block]))
        yield block, buckets, signs


def _gathered(op, rows: np.ndarray) -> tuple:
    """`edges_many` of rows in [0, N) on an operator or graph (signs None)
    whose graph holds its neighbor table: buckets gathered from it, and
    signs from the operator's sign table, or from one `edge_signs` pass
    when it has none."""
    if isinstance(op, BipartiteGraph):
        return op._table[rows], None
    signs = op._sign_table
    return op.graph._table[rows], (signs[rows] if signs is not None else edge_signs(
        [op.signs], None, rows[:, None], np.arange(op.graph.ell)))


def _check_rows(rows: np.ndarray, n_left) -> None:
    """UsageError for a row outside [0, N), N a scalar or one per row: a
    negative int64 row read as uint64 lies above every N."""
    if np.any(rows.view(np.uint64) >= n_left):
        raise UsageError("row outside [0, N)")


def fill_tables(ops) -> None:
    """Build, in order, the neighbor table of each operator or graph and,
    for an operator, its read-only int8 (N, ell) sign table, where N * ell
    <= _MATERIALIZE_LIMIT: the graphs and operators of requests on at least
    N rows, and those an identification reads."""
    for op in ops:
        graph = op if isinstance(op, BipartiteGraph) else op.graph
        if (graph.n_left * graph.ell <= _MATERIALIZE_LIMIT and graph.table() is not None
                and graph is not op and op._sign_table is None):
            signs = edge_signs([op.signs], None, np.arange(graph.n_left)[:, None],
                               np.arange(graph.ell))
            op._sign_table = signs.astype(np.int8)
            op._sign_table.flags.writeable = False


def _fold_table(op: "SignedSketchOperator") -> np.ndarray | bool:
    """The read-only int32 (L, M) fold table of an operator holding both
    tables, L its largest bucket load: column j lists bucket j's edges in
    (row, slot) order as signed vertex ids, i for sign +1 and N + i for
    -1, then 2N (padding) up to L.  False (the refusal, kept so that no
    later encode tries again) where L * M exceeds 2 * N * ell, so that it
    never takes more memory than the neighbor table: only
    uneven bucket loads (an explicit graph's, or a graph's with a few
    edges per bucket) make that.  Built one `row_blocks` block at a
    time: a stable sort of the block's bucket ids (uint16 keys, a radix
    sort, where M <= 2^16) ranks each of its edges in its bucket after
    those of earlier blocks."""
    table, signs = op.graph._table, op._sign_table
    n_left, n_buckets = op.n_left, op.n_buckets
    loads = np.bincount(table.ravel(), minlength=n_buckets)
    if loads.max() * n_buckets > 2 * table.size:
        return False
    fold = np.full((loads.max(), n_buckets), 2 * n_left, dtype=np.int32)
    filled = np.zeros(n_buckets, dtype=np.int64)  # edges placed per bucket
    key = np.uint16 if n_buckets <= 1 << 16 else np.int64
    rows = np.arange(n_left)
    for block in row_blocks(n_left, op.graph.ell):
        buckets = table[block].astype(key).ravel()
        order = np.argsort(buckets, kind="stable")
        buckets = buckets[order]
        count = np.bincount(buckets, minlength=n_buckets)
        # sorted edge e is edge e - first[b] of its bucket b in this block
        rank = np.arange(buckets.size) + (filled + count - np.cumsum(count))[buckets]
        fold[rank, buckets] = (rows[block, None] + n_left * (signs[block] < 0)).ravel()[order]
        filled += count
    fold.flags.writeable = False
    return fold


def edges_into(op: "SignedSketchOperator", buckets: np.ndarray) -> np.ndarray:
    """Per row of an operator holding a fold table, how many of its edges
    land in the given distinct buckets (a row with two slots on one of
    them counts two): one np.take of the table's columns and one bincount
    of their signed vertex ids, whose two halves (signs +1 and -1) are
    added; the padding 2N falls in the last bin."""
    n_left = op.n_left
    counts = np.bincount(np.take(op._fold_table, buckets, axis=1).ravel(),
                         minlength=2 * n_left + 1)
    return counts[:n_left] + counts[n_left:2 * n_left]


def _bucket_ids(seed, ell, n_buckets, vertices: np.ndarray, slots) -> np.ndarray:
    """uint64 bucket of each edge (vertex i, slot s): counter_stream(seed,
    i * ell + s) mod M.  Arguments broadcast; seed, ell and M are uint64,
    the vertices and slots int64 arrays, the vertices in [0, N).  The
    remainder is z - z // M * M: numpy divides by a scalar several times
    faster than it takes a remainder."""
    z = counter_stream(seed, vertices.view(np.uint64) * ell + slots.view(np.uint64))
    return z - z // n_buckets * n_buckets


def _hashed_edges(graph: BipartiteGraph, family: SignFamily | None, rows: np.ndarray) -> tuple:
    """`edges_many` of one request on a graph without a table; a row
    outside [0, N) raises UsageError.  Slot s of row i takes bucket
    counter_stream(seed, i * ell + s) mod M and sign(i, s): one
    counter-stream pass and one `edge_signs` pass, with the graph's seed,
    ell and M scalar and the (rows, 1) vertices broadcast against the ell
    slots."""
    seed, ell, n_buckets, n_left = np.array(
        (graph.seed, graph.ell, graph.n_buckets, graph.n_left), dtype=np.uint64)
    _check_rows(rows, n_left)
    vertices, slots = rows[:, None], np.arange(graph.ell)
    buckets = _bucket_ids(seed, ell, n_buckets, vertices, slots).view(np.int64)
    return buckets, None if family is None else edge_signs([family], None, vertices, slots)


def apply_sparse_many(ops, rows, values) -> list[np.ndarray]:
    """`ops[t].apply_sparse(rows[t], values)` for each t: one signal's
    nonzero values sketched by each operator at its own rows (the signal's
    indices, or a tree node's images of them; jobs may share one array).

    The small jobs (fewer than N rows, at most BATCH_POINTS edges) share
    one pass when their edges fit in BATCH_POINTS together: the cached
    `_JobColumns` of their operators give their edges, and one bincount
    over their flat bucket ids, offset per job, and weights (sign times
    value) sums them all.  Each job's edges stay in (row, slot) order, so
    every bucket takes the same additions from +0.0 as in a bincount of
    its own.  Every other job runs alone (`_sketch_alone`), after the
    calling thread has built the tables of those on at least N rows, in
    job order, and then the fold tables of the dense jobs (on exactly the
    rows 0..N-1) whose operators held both tables before the call; those
    jobs are folded from the signed values [x, x * -1.0, +0.0], formed
    once.  Two or more with both tables run on one thread per CPU in the
    affinity mask, the calling thread taking every CPU-th and the pool's
    workers the others, as numpy releases the GIL in their gathers and
    folds and in the others' products (not in np.add.at); the others then
    run in the calling thread.  Rows
    outside [0, N), values that are not 1-d, and a row count other than
    the operator count or row arrays shaped unlike the values raise
    UsageError.  The sketches are new arrays or disjoint views of one.
    """
    values = np.asarray(values, dtype=np.float64)
    if (values.ndim != 1 or len(rows) != len(ops)
            or any(np.shape(part) != values.shape for part in rows)):
        raise UsageError("need one row array per operator, each as long as the 1-d values")
    out = [None] * len(ops)
    if not ops:
        return out
    columns = _job_columns(ops)
    small = np.flatnonzero(values.size <= columns.small_rows)
    if small.size < len(ops):
        columns = _job_columns([ops[t] for t in small]) if small.size else None
    if columns is not None and values.size <= columns.pass_rows:
        shared = rows if small.size == len(ops) else [rows[t] for t in small]
        ids, weights = columns.edges(np.array(shared, dtype=np.int64), values)
        total = columns.starts[-1]
        sums = (np.bincount(np.concatenate(ids, axis=None),
                            weights=np.concatenate(weights, axis=None, dtype=np.float64),
                            minlength=total) if ids else np.zeros(total))
        for t, start, stop in zip(small, columns.starts[:-1], columns.starts[1:]):
            out[t] = sums[start:stop]
    alone = [t for t in range(len(ops)) if out[t] is None]
    # the dense jobs on operators that held both tables before this call,
    # one check per row array and N
    folds, dense = [], {}
    for t in alone:
        if ops[t]._sign_table is not None:
            key = id(rows[t]), ops[t].n_left
            if key not in dense:
                dense[key] = _all_rows(np.asarray(rows[t], dtype=np.int64), ops[t].n_left)
            if dense[key]:
                folds.append(t)
    # here, so no worker builds one
    fill_tables([ops[t] for t in alone if values.size >= ops[t].n_left])
    for t in folds:
        if ops[t]._fold_table is None:
            ops[t]._fold_table = _fold_table(ops[t])
    folds = [t for t in folds if ops[t].folded]
    signed = (dict.fromkeys(folds, np.concatenate((values, values * -1.0, [0.0])))
              if folds else {})
    tabled = [t for t in alone if ops[t]._sign_table is not None]
    if len(tabled) > 1:
        jobs = [(ops[t], rows[t], signed.get(t, values)) for t in tabled]
        for t, sketch in zip(tabled, _sketch_on_all_cpus(jobs)):
            out[t] = sketch
    for t in alone:
        if out[t] is None:
            out[t] = _sketch_alone(ops[t], rows[t], signed.get(t, values))
    return out


class _JobColumns:
    """The static columns of sketch jobs on a fixed sequence of operators,
    each job on the same number of rows and values: `apply_sparse_many`'s
    small jobs.  Built on first use by `_job_columns`, never with an operator.

    Jobs on graphs with a neighbor table ("tabled") gather their rows
    (`_gathered`).
    The others ("hashed") are laid out as columns, one per (job, slot),
    grouped by sign field: each column's job, slot, graph seed, ell, M
    and bucket offset (the job's start in the sums), and per field the
    families' `coefficient_columns`.  A call on r rows per job makes an
    (r, columns) edge array with one gather of the rows, one
    counter-stream pass and one `edge_signs` pass per field, and its C
    order keeps each job's edges in (row, slot) order.
    """

    def __init__(self, ops):
        graphs = [op.graph for op in ops]
        # the most rows per job whose edges fit in one pass
        self.pass_rows = BATCH_POINTS // sum(graph.ell for graph in graphs)
        self.n_left = np.array([graph.n_left for graph in graphs], dtype=np.uint64)
        # a small job has fewer than N rows and at most BATCH_POINTS edges
        self.small_rows = np.array([min(graph.n_left - 1, BATCH_POINTS // graph.ell)
                                    for graph in graphs])
        self.starts = list(accumulate((graph.n_buckets for graph in graphs), initial=0))
        self.tabled = [(t, op) for t, op in enumerate(ops) if op.graph._table is not None]
        field = [op.signs.hash.field.q for op in ops]
        hashed = sorted((t for t, graph in enumerate(graphs) if graph._table is None),
                        key=field.__getitem__)
        # what a table build would change: a hashed job's graph, or a
        # tabled job's operator that still hashes its signs
        self._untabled = ([graphs[t] for t in hashed],
                          [op for _, op in self.tabled if op._sign_table is None])
        ells = [graphs[t].ell for t in hashed]
        # per column: its job, slot, graph seed, ell, M and bucket offset
        self.job = np.repeat(np.array(hashed, dtype=np.int64), ells)
        self.slot = np.array([s for ell in ells for s in range(ell)], dtype=np.int64)
        params = np.array([(graphs[t].seed, graphs[t].ell, graphs[t].n_buckets, self.starts[t])
                           for t in hashed], dtype=np.uint64).reshape(-1, 4)
        self.seed, self.ell, self.n_buckets, self.offset = np.repeat(params, ells, axis=0).T
        self.signs = []  # (families, their coefficient columns, jobs, spread, columns)
        first = 0
        for _, group in groupby(hashed, key=field.__getitem__):
            group = list(group)
            families = [ops[t].signs for t in group]
            spread = np.repeat(np.arange(len(group)), [graphs[t].ell for t in group])
            self.signs.append((families, coefficient_columns([f.hash for f in families]),
                               np.array(group), spread, slice(first, first + spread.size)))
            first += spread.size

    def edges(self, rows: np.ndarray, values: np.ndarray) -> tuple[list, list]:
        """Flat int64 bucket ids, offset by each job's start, and float64
        weights of the jobs' edges, as lists of parts: rows is a (jobs, r)
        array and values the r values every job shares, row i of each job
        carrying values[i].  A row outside [0, N) raises UsageError."""
        _check_rows(rows, self.n_left[:, None])
        ids, weights = [], []
        if not rows.size:
            return ids, weights
        r = rows.shape[1]
        if self.job.size:
            # edge (i, column c) reads flat entry job[c] * r + i of a (jobs, r) array
            at = self.job * r + np.arange(r)[:, None]
            buckets = _bucket_ids(self.seed, self.ell, self.n_buckets, rows.ravel()[at], self.slot)
            buckets += self.offset
            signs = np.empty(at.shape)
            for families, columns, group, spread, cut in self.signs:
                # one point per (job, row), each under its job's coefficients
                signs[:, cut] = edge_signs(families, np.repeat(columns, r, axis=1),
                                           rows[group].ravel(), self.slot[cut],
                                           spread * r + np.arange(r)[:, None])
            signs *= values[:, None]
            ids.append(buckets.view(np.int64))
            weights.append(signs)
        for t, op in self.tabled:
            buckets, edge = _gathered(op, rows[t])
            ids.append(buckets + self.starts[t])
            weights.append(edge * values[:, None])
        return ids, weights

    def stale(self) -> bool:
        """Whether one of the jobs' tables has been built since."""
        graphs, ops = self._untabled
        return (any(graph._table is not None for graph in graphs)
                or any(op._sign_table is not None for op in ops))


def _job_columns(ops) -> _JobColumns:
    """The `_JobColumns` of an operator sequence, cached on its first
    operator on first use, and rebuilt once a table of one of its jobs has
    been built (the job's tabled or hashed status changed)."""
    cache = vars(ops[0]).setdefault("_job_columns", {})
    key = tuple(ops)
    columns = cache.get(key)
    if columns is None or columns.stale():
        columns = cache[key] = _JobColumns(key)
    return columns


def _sketch_alone(op, indices, values) -> np.ndarray:
    """One job's sketch.  A dense job on an operator with a fold table
    comes with the call's signed values [x, x * -1.0, +0.0] (2N + 1 of
    them, not one per row) and is folded (`_folded`).  Any other takes
    its edges from `edge_blocks`, and each block's weights (sign times
    value) are added into float64 zeros by `np.add.at`, in (row, slot)
    order, as one bincount adds them."""
    if values.size != len(indices):
        return _folded(op._fold_table, values)
    out = np.zeros(op.n_buckets)
    for rows, nb, edge in edge_blocks(op, indices):
        np.add.at(out, nb.ravel(), (edge * values[rows, None]).ravel())
    return out


def _folded(fold: np.ndarray, signed: np.ndarray) -> np.ndarray:
    """The bucket sums of a dense job from its operator's fold table and
    the signed values [x, x * -1.0, +0.0]: blocks of about BLOCK_EDGES
    table entries are cast to intp and gathered (np.take) into the rows
    below a running-sum row that starts at +0.0, and np.add.reduce folds
    each block down its columns, one row after another.  So every bucket
    takes the edges' weights in (row, slot) order from +0.0, as np.add.at
    adds them; a padding entry adds +0.0, which leaves every such sum as
    it is (none is -0.0).  Both numpy calls release the GIL."""
    loads, n_buckets = fold.shape
    step = min(loads, max(1, BLOCK_EDGES // n_buckets))
    ids = np.empty((step, n_buckets), dtype=np.intp)
    terms = np.empty((step + 1, n_buckets))
    terms[0] = 0.0
    out = np.empty(n_buckets)
    for at in range(0, loads, step):
        size = min(step, loads - at)
        ids[:size] = fold[at:at + size]
        np.take(signed, ids[:size], out=terms[1:size + 1], mode="clip")
        np.add.reduce(terms[:size + 1], axis=0, out=out)
        terms[0] = out
    return out


def row_blocks(rows: int, ell: int) -> list[slice]:
    """Slices cutting range(rows) into blocks of at most BLOCK_EDGES
    edges (one row at least), for a pass over a whole (rows, ell) edge
    array whose per-block temporaries stay small."""
    step = max(1, BLOCK_EDGES // ell)
    return [slice(at, at + step) for at in range(0, rows, step)]


def _sketch_on_all_cpus(jobs) -> list[np.ndarray]:
    """`_sketch_alone` of each job, in order, on one thread per CPU the
    process may run on: the calling thread takes every CPU-th job and the
    pool's workers the others."""
    threads, pool = _pool()
    futures = {i: pool.submit(_sketch_alone, *job) for i, job in enumerate(jobs) if i % threads}
    mine = {i: _sketch_alone(*jobs[i]) for i in range(0, len(jobs), threads)}
    return [mine[i] if i in mine else futures[i].result() for i in range(len(jobs))]


_POOL = None  # (threads, worker pool), started by the first call that fans out


def _pool() -> tuple:
    """The number of CPUs in the process's affinity mask and a
    ThreadPoolExecutor of one worker per CPU but the calling thread's; no
    pool on one CPU.  A process that never fans out never imports it."""
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor

        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        _POOL = cpus, (ThreadPoolExecutor(max_workers=cpus - 1,
                                          thread_name_prefix="sparserec-sketch")
                       if cpus > 1 else None)
    return _POOL


def _drop_pool() -> None:
    """A forked child holds none of its parent's workers: it starts its own."""
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)
