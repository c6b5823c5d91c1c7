import hashlib
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import sparserec
from sparserec import expander
from sparserec.errors import InfeasibleError, UsageError
from sparserec.expander import (
    _MATERIALIZE_LIMIT,
    BipartiteGraph,
    SignedSketchOperator,
    apply_sparse_many,
    edges_many,
    unique_neighbor_count,
    verify_expansion,
)
from sparserec import hashing
from sparserec.hashing import BATCH_POINTS, SignFamily
from sparserec.seeds import counter_stream


def _disjoint_graph(n, ell, m):
    # vertex i owns buckets [i*ell, (i+1)*ell)
    table = np.arange(n * ell).reshape(n, ell) % m
    assert n * ell <= m
    return BipartiteGraph.from_neighbors(table, m)


def test_build_graph_shape():
    g = BipartiteGraph(1, 3, 10, seed=5)
    nbrs = g.neighbors(0)
    assert len(nbrs) == 3
    assert all(0 <= j < 10 for j in nbrs)


def test_build_graph_deterministic():
    a = BipartiteGraph(50, 6, 40, seed=9)
    b = BipartiteGraph(50, 6, 40, seed=9)
    idx = np.arange(50)
    assert np.array_equal(a.neighbors_of(idx), b.neighbors_of(idx))
    c = BipartiteGraph(50, 6, 40, seed=10)
    assert not np.array_equal(a.neighbors_of(idx), c.neighbors_of(idx))


def test_build_graph_validates_parameters():
    with pytest.raises(UsageError):
        BipartiteGraph(0, 3, 10, seed=1)
    with pytest.raises(UsageError):
        BipartiteGraph(5, 11, 10, seed=1)
    with pytest.raises(UsageError):
        BipartiteGraph(5, 0, 10, seed=1)


def test_lazy_generation_matches_table():
    g = BipartiteGraph(200, 4, 64, seed=3)
    lazy = BipartiteGraph(200, 4, 64, seed=3)
    assert not g.materialized  # built by the first call that needs it
    assert g.table() is g.table() and g.materialized
    idx = np.array([0, 7, 199, 42])
    assert np.array_equal(g.neighbors_of(idx), lazy.neighbors_of(idx))
    assert not lazy.materialized  # a call on fewer than N rows builds none


def test_neighbor_table_pinned():
    graph = BipartiteGraph(1 << 16, 9, 1000, seed=2026)
    rows = graph.neighbors_of(np.arange(1 << 16))  # a full-domain call builds it
    assert graph.materialized
    for table in (graph._table, rows):
        assert hashlib.sha256(table.tobytes()).hexdigest() == (
            "4e816876fc874b27e73e2df4838a39c32bcbf9b7f0db74210b176291fbbd735e")


def test_neighbors_of_many_graphs_match_each_counter_stream():
    graphs = [BipartiteGraph(300, 5, 64, seed=7), BipartiteGraph(300, 5, 64, seed=8),
              BipartiteGraph(1 << 20, 3, 1000, seed=9),  # too large for a table
              BipartiteGraph(50, 6, 7, seed=10), BipartiteGraph(40, 2, 1 << 40, seed=11)]
    graphs[3].table()
    rng = np.random.default_rng(4)
    requests = [(graphs[0], np.array([5, 5, 299, 0, 17])),
                (graphs[1], np.zeros(0, dtype=np.int64)),
                (graphs[2], rng.choice(1 << 20, 30)), (graphs[3], np.array([49, 3, 3])),
                (graphs[4], np.arange(39, -1, -1)), (graphs[0], np.array([1]))]

    def reference(graph, indices):
        keys = (np.asarray(indices, dtype=np.uint64)[:, None] * np.uint64(graph.ell)
                + np.arange(graph.ell, dtype=np.uint64))
        return (counter_stream(graph.seed, keys) % np.uint64(graph.n_buckets)).astype(np.int64)

    for graph, indices in requests:
        got = graph.neighbors_of(indices)
        assert got.dtype == np.int64 and got.shape == (indices.size, graph.ell)
        assert np.array_equal(got, reference(graph, indices))
    # neighbors_of on all N rows builds the table; fewer rows build none
    assert [g.materialized for g in graphs] == [False, False, False, True, True]


def test_disjoint_neighborhoods_expand_perfectly():
    g = _disjoint_graph(12, 4, 48)
    for t in (1, 2, 3):
        cert = verify_expansion(g, t, eps=0.0)
        assert cert.verified
        assert cert.worst_ratio == 1.0


def test_identical_neighbor_lists_fail_pairs():
    table = np.tile(np.arange(5), (8, 1))
    g = BipartiteGraph.from_neighbors(table, 16)
    cert = verify_expansion(g, t=2, eps=0.4)
    assert not cert.verified
    assert cert.worst_ratio == pytest.approx(0.5)


def test_verify_expansion_refuses_infeasible_enumeration():
    g = BipartiteGraph(600, 4, 256, seed=0)
    with pytest.raises(InfeasibleError):
        verify_expansion(g, t=4, eps=0.25)


def test_random_graphs_usually_verify():
    # regime computed with this oracle: N=64, ell=8, M=1024 at (4, 0.25)
    verified = sum(
        verify_expansion(BipartiteGraph(64, 8, 1024, seed=s), 4, 0.25).verified
        for s in range(50)
    )
    assert verified >= 45


def test_unique_neighbor_count_basics():
    g = _disjoint_graph(10, 5, 50)
    assert unique_neighbor_count(g, [3]) == 5
    assert unique_neighbor_count(g, [1, 4, 7]) == 15
    dup = BipartiteGraph.from_neighbors(np.array([[2, 2, 3]]), 8)
    assert unique_neighbor_count(dup, [0]) == 2


def test_unique_neighbors_bounded_on_verified_expander():
    g = BipartiteGraph(64, 8, 1024, seed=2)
    cert = verify_expansion(g, t=2, eps=0.25)
    assert cert.verified
    eps = 1.0 - cert.worst_ratio
    rng = np.random.default_rng(0)
    for _ in range(50):
        pair = rng.choice(64, size=2, replace=False)
        gamma = g.gamma(pair)
        non_unique = len(gamma) - unique_neighbor_count(g, pair)
        assert non_unique <= 2 * eps * 2 * g.ell + 1e-9


def test_intersection_bound_on_verified_expander():
    # Gamma(S) and Gamma(T) overlap little when the graph (2t, eps)-expands
    g = BipartiteGraph(64, 8, 1024, seed=4)
    t = 2
    cert = verify_expansion(g, 2 * t, eps=0.5)
    eps = 1.0 - cert.worst_ratio
    rng = np.random.default_rng(1)
    for _ in range(40):
        picks = rng.choice(64, size=3 * t, replace=False)
        T, S = picks[:t], picks[t:]
        inter = g.gamma(S) & g.gamma(T)
        assert len(inter) <= 4 * len(S) * g.ell * eps + 1e-9


def test_right_neighborhood_bound_on_verified_expander():
    # few vertices can have >= ell/a of their edges inside a small bucket set
    g = BipartiteGraph(64, 8, 1024, seed=6)
    t, a = 4, 2
    cert = verify_expansion(g, t, eps=0.25)
    assert cert.verified and 1.0 - cert.worst_ratio < 1 / (2 * a)
    rng = np.random.default_rng(2)
    for gamma_frac in (0.25, 0.5):
        r_size = int(gamma_frac * t * g.ell)
        R = set(rng.choice(1024, size=r_size, replace=False).tolist())
        heavy = 0
        table = g.neighbors_of(np.arange(64))
        for i in range(64):
            if sum(int(j) in R for j in table[i]) >= g.ell / a:
                heavy += 1
        assert heavy < 2 * a * gamma_frac * t


def _operator(n, ell, m, seed=1, indep=16):
    return SignedSketchOperator.build(n, ell, m, seed=seed, sign_independence=indep)


def test_apply_zero_is_zero():
    op = _operator(32, 4, 64)
    assert np.array_equal(op.apply(np.zeros(32)), np.zeros(64))
    # no edge to sum: the sketches are float64 zeros all the same
    for u in (op.apply(np.zeros(32)), op.apply_sparse([], []),
              *apply_sparse_many([op, _operator(16, 3, 8)], [[], []], [])):
        assert u.dtype == np.float64


def test_apply_single_column_with_multiedges():
    table = np.array([[2, 2, 5], [1, 3, 4]])
    g = BipartiteGraph.from_neighbors(table, 8)
    fam = SignFamily(seed=7, independence=4, n_left=2, ell=3)
    op = SignedSketchOperator(g, fam)
    u = op.apply(np.array([1.0, 0.0]))
    expected = np.zeros(8)
    # vertex 0's slots 0 and 1 both land in bucket 2, each with its own sign
    expected[2] = fam.sign(0, 0) + fam.sign(0, 1)
    expected[5] = fam.sign(0, 2)
    assert np.array_equal(u, expected)


def _dense_matrix(op):
    """The operator's M x N matrix, entry by entry from the scalar
    `graph.neighbors` and `signs.sign`: the sketches' oracle."""
    out = np.zeros((op.n_buckets, op.n_left))
    for i in range(op.n_left):
        for s, j in enumerate(op.graph.neighbors(i)):
            out[j, i] += op.signs.sign(i, s)
    return out


def test_apply_matches_dense_matrix_exactly():
    op = _operator(32, 6, 64, seed=11)
    dense = _dense_matrix(op)
    rng = np.random.default_rng(5)
    x = rng.integers(-3, 4, size=32).astype(float)
    assert np.max(np.abs(op.apply(x) - dense @ x)) == 0.0


def test_apply_is_linear():
    op = _operator(48, 5, 96, seed=13)
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=48), rng.normal(size=48)
    a, b = 1.7, -0.3
    lhs = op.apply(a * x + b * y)
    rhs = a * op.apply(x) + b * op.apply(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_apply_dimension_mismatch_errors():
    op = _operator(32, 4, 64)
    with pytest.raises(UsageError):
        op.apply(np.zeros(33))


def _lazy_twin(op):
    """The same design over a graph without a materialized neighbor
    table, so it hashes its edge signs on every call."""
    g = op.graph
    lazy = BipartiteGraph(g.n_left, g.ell, g.n_buckets, g.seed)
    lazy.table = lambda: None  # never builds its table
    return SignedSketchOperator(lazy, op.signs)


@pytest.mark.parametrize("fill_by", ["apply", "readings"])
def test_sign_table_keeps_apply_and_readings_identical(fill_by):
    n, ell, m = 300, 5, 64
    op = _operator(n, ell, m, seed=17)
    twin = _lazy_twin(op)
    rng = np.random.default_rng(12)
    x = rng.normal(size=n)
    sketch = twin.apply(x)
    full = np.arange(n)
    subsets = [np.sort(rng.choice(n, size=s, replace=False)) for s in (1, 40, n - 1)]
    before = [(op.apply_sparse(i, x[i]), op.readings(sketch, i)) for i in subsets]
    assert op._sign_table is None  # calls on fewer than n rows do not fill

    if fill_by == "apply":
        assert np.array_equal(op.apply(x), sketch)
    else:
        assert np.array_equal(op.readings(sketch, full), twin.readings(sketch, full))
    assert op._sign_table.dtype == np.int8
    assert op._sign_table.shape == (n, ell)
    assert np.array_equal(op.apply(x), sketch)
    assert np.array_equal(op.readings(sketch, full), twin.readings(sketch, full))
    for i, (u, r) in zip(subsets, before):
        assert np.array_equal(op.apply_sparse(i, x[i]), u)
        assert np.array_equal(op.readings(sketch, i), r)
    # every row of the dense x, in order: the tables are read in place, and
    # the twin hashes the same (row, slot) order
    got = op.readings(sketch, full).view(np.int64)
    assert np.array_equal(op.apply_sparse(full, x).view(np.int64),
                          twin.apply_sparse(full, x).view(np.int64))
    assert np.array_equal(got, twin.readings(sketch, full).view(np.int64))
    assert np.array_equal(got, op.readings(sketch, full[::-1])[::-1].view(np.int64))
    assert twin._sign_table is None and not twin.graph.materialized


def _hashed_apply(op, indices, values):
    """One bincount of hashed edge signs over the (row, slot) order."""
    indices = np.asarray(indices, dtype=np.int64)
    nbrs = op.graph.neighbors_of(indices)
    signs = op.signs.sign_vec(np.repeat(indices, op.graph.ell),
                              np.tile(np.arange(op.graph.ell), indices.size))
    return np.bincount(nbrs.ravel(), weights=signs * np.repeat(values, op.graph.ell),
                       minlength=op.n_buckets)


def test_apply_sparse_many_mixed_jobs_match_each_own_apply(monkeypatch):
    rng = np.random.default_rng(23)
    hashed = _operator(400, 5, 96, seed=31)
    other_degree = _operator(400, 5, 96, seed=32, indep=4)
    wide = _operator(1 << 32, 5, 1 << 16, seed=33)  # vertex domain above 2^31: M61
    filled = _operator(300, 5, 64, seed=34)
    filled.apply(np.ones(300))
    dense = _operator(10, 4, 32, seed=35)
    tiny = _operator(8, 3, 16, seed=36)
    tree_ell, stage_ell = _operator(500, 8, 128, seed=37), _operator(500, 9, 128, seed=38)
    explicit = SignedSketchOperator(  # rows gathered from its table, signs hashed
        BipartiteGraph.from_neighbors(rng.integers(0, 40, size=(60, 4)), 40),
        SignFamily(seed=39, independence=8, n_left=60, ell=4))
    assert filled._sign_table is not None and wide.signs.hash.field.q == (1 << 61) - 1
    assert explicit._sign_table is None

    def sparse(op, size):
        return np.sort(rng.choice(op.n_left, size, replace=False))

    def counted(ops, rows, values):
        points, bincounts, alone = [], [], []
        horner, bincount, sketch_alone = hashing._horner_vec, np.bincount, expander._sketch_alone
        monkeypatch.setattr(hashing, "_horner_vec",
                            lambda f, c, xs: points.append(xs.size) or horner(f, c, xs))
        monkeypatch.setattr(np, "bincount",
                            lambda *a, **k: bincounts.append(1) or bincount(*a, **k))
        monkeypatch.setattr(expander, "_sketch_alone",
                            lambda op, *rest: alone.append(op) or sketch_alone(op, *rest))
        got = apply_sparse_many(ops, rows, values)
        monkeypatch.undo()
        assert max(points) <= BATCH_POINTS
        for op, indices, g in zip(ops, rows, got):
            want = _hashed_apply(op, indices, values).view(np.int64)
            assert g.shape == (op.n_buckets,)
            assert np.array_equal(g.view(np.int64), want)
            assert np.array_equal(op.apply_sparse(indices, values).view(np.int64), want)
        return got, len(bincounts), alone

    ops = [hashed, filled, wide, other_degree, tree_ell, dense, stage_ell, tiny, explicit, hashed]
    rows = [np.array([5, 5, 17, 5, 0, 399, 17, 5, 3, 5]), *map(sparse, ops[1:5], [10] * 4),
            np.arange(10), sparse(stage_ell, 10), np.array([0, 3, 3, 7, 1, 0, 2, 6, 5, 4]),
            sparse(explicit, 10), sparse(hashed, 10)]
    values = rng.normal(size=10)
    values[2] = -0.0
    got, bincounts, alone = counted(ops, rows, values)
    # the small jobs' one bincount, and each job on at least N rows alone
    assert bincounts == 1
    assert len(alone) == 2 and {id(op) for op in alone} == {id(dense), id(tiny)}
    want = [g.view(np.int64).copy() for g in got]
    for t in range(len(got)):
        got[t][:] = np.nan
        for g, w in zip(got[t + 1:], want[t + 1:]):
            assert np.array_equal(g.view(np.int64), w)
    # small jobs share one pass up to BATCH_POINTS edges in all; one row
    # more, and each runs alone
    big = _operator(1 << 16, 5, 1024, seed=40)
    fit = BATCH_POINTS // (big.graph.ell + wide.graph.ell)
    for r, shared in ((fit, True), (fit + 1, False)):
        _, bincounts, alone = counted([big, wide], [sparse(big, r), sparse(wide, r)],
                                      rng.normal(size=r))
        assert (bincounts, len(alone)) == ((1, 0) if shared else (0, 2))
    # a bad row in any job, small or alone, refuses the whole call
    for t, bad in [(0, -1), (0, 400), (1, -2), (8, 60), (5, 10), (7, 8)]:
        rows_t = rows[t].copy()
        rows_t[3] = bad
        with pytest.raises(UsageError):
            apply_sparse_many(ops, rows[:t] + [rows_t] + rows[t + 1:], values)


def test_apply_sparse_many_refuses_rows_unlike_ops_or_values():
    small, dense = _operator(400, 5, 96, seed=31), _operator(10, 4, 32, seed=35)
    ops, rows, values = [small, dense], [np.array([3, 7, 9]), np.array([0, 1, 2])], np.ones(3)
    assert [u.shape for u in apply_sparse_many(ops, rows, values)] == [(96,), (32,)]
    for bad_rows, bad_values in [(rows[:1], values), (rows + rows[:1], values),
                                 ([rows[0], rows[1][:2]], values), ([rows[0][:2], rows[1]], values),
                                 ([rows[0][:2], rows[1][:2]], values), (rows, np.ones(4)),
                                 ([rows[0], np.zeros((3, 1), dtype=np.int64)], values)]:
        with pytest.raises(UsageError, match="one row array per operator"):
            apply_sparse_many(ops, bad_rows, bad_values)


def test_dense_jobs_fan_out_match_single_job_calls(monkeypatch):
    rng = np.random.default_rng(29)
    r = 4096
    shared, reversed_rows = _operator(r, 5, 256, seed=41), _operator(3000, 4, 128, seed=42)
    # no tables (N * ell above the limit), and more edges than one pass
    above = _operator(_MATERIALIZE_LIMIT // 17 + 1, 17, 64, seed=43, indep=4)
    small = _operator(5000, 5, 64, seed=44)
    assert r * 17 > BATCH_POINTS
    index = np.arange(r)
    ops = [shared, small, reversed_rows, above, shared]  # the same operator again
    # the dense jobs share one row array
    rows = [index, rng.choice(5000, r), np.arange(r - 1, -1, -1) % 3000,
            np.sort(rng.choice(above.n_left, r, replace=False)), index]
    values = rng.normal(size=r)
    ran = []  # (thread, op, rows) of every job sketched alone
    alone = expander._sketch_alone
    monkeypatch.setattr(expander, "_sketch_alone", lambda op, indices, values: ran.append(
        (threading.current_thread(), op, indices)) or alone(op, indices, values))
    got = apply_sparse_many(ops, rows, values)
    tables = [(op.graph._table, op._sign_table) for op in (shared, reversed_rows)]
    assert all(t is not None for pair in tables for t in pair)
    for op in (above, small):
        assert op._sign_table is None and not op.graph.materialized
    again = apply_sparse_many(ops, rows, values)  # reuses the tables the first call built
    assert all(a is b for pair, op in zip(tables, (shared, reversed_rows))
               for a, b in zip(pair, (op.graph._table, op._sign_table)))
    workers = {t for t, _, _ in ran if t is not threading.main_thread()}
    assert len(ran) == 8 and bool(workers) == (expander._pool()[0] > 1)
    assert all(t is threading.main_thread() for t, op, _ in ran if op is above)
    assert all(indices is index for _, op, indices in ran if op is shared)
    for op, indices, g, h in zip(ops, rows, got, again):
        want = apply_sparse_many([op], [indices], values)[0].view(np.int64)
        assert np.array_equal(g.view(np.int64), want)
        assert np.array_equal(h.view(np.int64), want)
    # a worker's UsageError reaches the caller: the bad job is the second
    # table-backed job, which the calling thread leaves to the pool
    ran.clear()
    bad = rows[2].copy()
    bad[-1] = 3000
    with pytest.raises(UsageError):
        apply_sparse_many([shared, reversed_rows], [index, bad], values)
    assert [t is threading.main_thread() for t, op, _ in ran if op is reversed_rows] == [
        expander._pool()[0] == 1]


def test_dense_encode_exits_and_forks_cleanly():
    # a dense encode starts the workers; a child forked after that encodes
    # too, and the process exits with no worker left behind
    script = textwrap.dedent("""
        import os, signal, threading
        import numpy as np
        from sparserec import TopLevelConfig, TopLevelSystem
        system = TopLevelSystem(TopLevelConfig(n=4096, k=8, epsilon=0.5, engine="scan",
                                               ell=9), seed=1)
        x = np.random.default_rng(0).normal(size=4096)
        want = system.encode(x).tobytes()
        from sparserec import expander
        workers = [t for t in threading.enumerate() if t.name.startswith("sparserec")]
        assert bool(workers) == (expander._pool()[0] > 1), workers
        pid = os.fork()
        if pid == 0:
            signal.alarm(20)  # a child stuck on its parent's workers dies
            os._exit(0 if system.encode(x).tobytes() == want else 1)
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        assert system.encode(x).tobytes() == want
    """)
    src = str(Path(sparserec.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_rows_outside_the_domain_are_refused():
    op = SignedSketchOperator.build(64, 4, 16, 7, 8)
    u = op.apply(np.ones(64))  # fills the tables
    for rows in ([-1], [64], [1 << 40]):
        for target in (op, _lazy_twin(op)):
            with pytest.raises(UsageError):
                target.apply_sparse(np.array(rows), np.array([1.0]))
            with pytest.raises(UsageError):
                target.readings(u, np.array([0] + rows))
            with pytest.raises(UsageError):  # a bad request refuses the whole call
                edges_many([(target, np.arange(64)), (target, np.array(rows))])
            with pytest.raises(UsageError):
                target.graph.neighbors_of(np.array(rows))
    with pytest.raises(UsageError):
        op.readings(u, np.array([-1, 64]))
    with pytest.raises(UsageError):
        op.apply_sparse(np.array([1, 2]), np.array([1.0]))


def test_edges_many_matches_scalar_neighbors_and_signs(monkeypatch):
    rng = np.random.default_rng(61)
    tabled = _operator(300, 5, 64, seed=51)
    tabled.apply(np.ones(300))  # fills both tables
    explicit = SignedSketchOperator(  # rows from its table, signs hashed
        BipartiteGraph.from_neighbors(rng.integers(0, 40, size=(60, 4)), 40),
        SignFamily(seed=52, independence=8, n_left=60, ell=4))
    low_degree, high_degree = _operator(400, 5, 96, seed=53, indep=4), _operator(500, 8, 128, 54)
    wide = _operator(1 << 32, 5, 1 << 16, seed=55)  # vertex domain above 2^31: M61
    big = _operator(1 << 12, 9, 256, seed=56)
    assert wide.signs.hash.field.q == (1 << 61) - 1 and big.signs.hash.field.q == (1 << 31) - 1
    requests = [
        (tabled, np.arange(300)),  # the tables in place
        (tabled, np.array([7, 7, 299, 0])),  # gathered from the tables
        (explicit, np.array([59, 0, 3, 3])),
        (low_degree, rng.choice(400, 30)),
        (wide, rng.integers(0, 1 << 32, 12)),
        (high_degree, rng.choice(500, 20)),
        (big, rng.integers(0, 512, 4000)),  # two requests on one operator
        (big, rng.integers(0, 512, 4000)),
        (wide.graph, np.array([3, 1, 3])),  # a graph's request: buckets alone
    ]
    passes, edge_signs = [], expander.edge_signs
    monkeypatch.setattr(expander, "edge_signs", lambda families, sizes, vertices, *rest: (
        passes.append(([f.independence for f in families], np.size(vertices)))
        or edge_signs(families, sizes, vertices, *rest)))
    got = edges_many(requests)
    monkeypatch.undo()
    # each request that hashes signs makes one single-family pass, in
    # request order, which hashes a row once for all its slots
    assert passes == [([op.signs.independence], rows.size) for op, rows in requests[2:8]]
    assert sum(size for _, size in passes) == sum(rows.size for _, rows in requests[2:8])
    assert got[0][0] is tabled.graph._table and got[0][1] is tabled._sign_table
    scalar = {}  # (op, row) -> the row's scalar neighbors and signs
    for (op, rows), (buckets, edge) in zip(requests, got):
        graph = getattr(op, "graph", op)
        assert buckets.dtype == np.int64 and buckets.shape == (rows.size, graph.ell)
        assert (edge is None) == (graph is op)
        for at, i in enumerate(rows.tolist()):
            if (id(op), i) not in scalar:
                row = graph.neighbors(i)
                scalar[id(op), i] = row, None if edge is None else [op.signs.sign(i, s)
                                                                    for s in range(len(row))]
            row, row_signs = scalar[id(op), i]
            assert buckets[at].tolist() == row
            assert edge is None or edge[at].tolist() == row_signs
    for (op, rows), (buckets, edge) in zip(requests[1:], got[1:]):
        if edge is not None:  # gathered or hashed: never the tables themselves
            assert not np.shares_memory(edge, tabled._sign_table)


def test_sign_table_never_filled_above_materialize_limit():
    n, ell, m = _MATERIALIZE_LIMIT // 4 + 1, 4, 64
    lazy = _operator(n, ell, m, seed=5)
    assert not lazy.graph.materialized
    explicit = SignedSketchOperator(
        BipartiteGraph.from_neighbors(np.zeros((n, ell), dtype=np.int64), m),
        SignFamily(seed=5, independence=4, n_left=n, ell=ell))
    assert explicit.graph.materialized
    for op in (lazy, explicit):
        op.readings(np.ones(m), np.arange(n))
        op.apply_sparse(np.arange(n), np.ones(n))
        assert op._sign_table is None


def test_generated_graph_beyond_64_bit_stream_indices_is_infeasible():
    # edge (i, s) takes bucket counter_stream(seed, i * ell + s): past 2^64
    # indices two edges would share one
    assert BipartiteGraph(1 << 61, 8, 64, seed=1).neighbors(0)
    with pytest.raises(InfeasibleError):
        BipartiteGraph((1 << 61) - 1, 9, 64, seed=1)
    with pytest.raises(InfeasibleError):
        SignedSketchOperator.build((1 << 61) - 1, 9, 64, 1, 4)


def test_more_slots_than_m31_bits_hash_in_m61():
    # a vertex's ell signs are ell bits of one field element: more than 31
    # take M61, more than 61 fit no field
    wide = _operator(64, 40, 128, seed=12)
    assert wide.signs.hash.field.q == (1 << 61) - 1
    x = np.random.default_rng(6).choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], size=64)
    dense = _dense_matrix(wide)
    assert np.max(np.abs(_lazy_twin(wide).apply(x) - dense @ x)) == 0.0
    assert np.max(np.abs(wide.apply(x) - dense @ x)) == 0.0  # from the sign table
    assert wide._sign_table is not None
    with pytest.raises(InfeasibleError):
        _operator(64, 62, 128)


def test_dense_matrix_agrees_with_sign_table():
    n, ell, m = 32, 6, 64
    op = _operator(n, ell, m, seed=11)
    op.apply(np.ones(n))
    dense = np.zeros((m, n))
    nbrs = op.graph.neighbors_of(np.arange(n))
    np.add.at(dense, (nbrs.ravel(), np.repeat(np.arange(n), ell)),
              op._sign_table.ravel())
    assert np.array_equal(dense, _dense_matrix(op))


def test_adjacency_dump_format():
    g = BipartiteGraph(3, 2, 10, seed=1)
    lines = g.dump_adjacency().strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("0: ")
    assert len(lines[0].split()) == 3


def _add_at_sketch(op, rows, values):
    """The bucket sums of a job from the operator's tables: np.add.at of
    sign times value into +0.0, in (row, slot) order."""
    out = np.zeros(op.n_buckets)
    weights = op._sign_table[rows] * np.asarray(values)[:, None]
    np.add.at(out, op.graph._table[rows].ravel(), weights.ravel())
    return out


def _awkward_values(n, rng):
    """Dense values whose bucket sums depend on the order of the additions
    (O(1) values among +-1e16), with +-0.0, subnormals, +-inf and NaNs of
    both sign bits."""
    x = rng.normal(size=n)
    big = rng.choice(n, n // 64, replace=False)
    x[big] = rng.choice([-1e16, 1e16], big.size)
    x[rng.choice(n, 12, replace=False)] = [0.0, -0.0, 0.0, -0.0, 5e-324, -5e-324, 2.2e-310,
                                           np.inf, -np.inf, np.nan, -np.nan, -0.0]
    return x


def _fold_counter(monkeypatch):
    built, fold_table = [], expander._fold_table
    monkeypatch.setattr(expander, "_fold_table",
                        lambda op: built.append(op) or fold_table(op))
    return built


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_fold_table_sums_match_add_at_on_the_scan_design(monkeypatch):
    # every operator of the scan-noisy-n16 design (bench/workloads.py)
    system = sparserec.TopLevelSystem(sparserec.TopLevelConfig(
        n=1 << 16, k=8, epsilon=0.5, ell=9, sign_independence=16, engine="scan"), 13046232)
    ops = [op for stage in system.stages for op in stage.layer.operators]
    assert sorted({op.n_buckets for op in ops}) == [72, 144, 288, 576]
    x = _awkward_values(1 << 16, np.random.default_rng(71))
    rows = np.arange(1 << 16)
    built = _fold_counter(monkeypatch)
    fill = apply_sparse_many(ops, [rows] * len(ops), x)
    assert not built and all(op._fold_table is None for op in ops)
    want = [_add_at_sketch(op, rows, x).view(np.int64) for op in ops]
    build = apply_sparse_many(ops, [rows] * len(ops), x)
    assert [id(op) for op in built] == [id(op) for op in ops]
    reuse = apply_sparse_many(ops, [rows] * len(ops), x)
    assert len(built) == len(ops)
    for op, w, *got in zip(ops, want, fill, build, reuse):
        for g in got:
            assert np.array_equal(g.view(np.int64), w)
        fold = op._fold_table
        load = np.bincount(op.graph._table.ravel(), minlength=op.n_buckets)
        assert fold.dtype == np.int32 and fold.shape == (load.max(), op.n_buckets)
        assert not fold.flags.writeable
        # column j: bucket j's signed vertex ids in (row, slot) order, then padding
        for j in (0, op.n_buckets - 1):
            vertex, slot = np.nonzero(op.graph._table == j)
            ids = vertex + (1 << 16) * (op._sign_table[vertex, slot] < 0)
            assert np.array_equal(fold[:load[j], j], ids)
            assert np.all(fold[load[j]:, j] == 2 << 16)
    # the sums depend on their order: one pairwise sum per bucket reads other bits
    signed = np.concatenate((x, x * -1.0, [0.0]))
    pairwise = np.array([np.sum(signed[col]) for col in ops[0]._fold_table.T])
    assert not np.array_equal(pairwise.view(np.int64), want[0])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_fold_table_with_an_empty_bucket_and_zero_sums():
    # one edge in each of buckets 0..127 and none in bucket 128: every
    # bucket's sum is one weight added to +0.0, or none
    n, ell, m = 64, 2, 129
    op = SignedSketchOperator(BipartiteGraph.from_neighbors(np.arange(n * ell).reshape(n, ell), m),
                              SignFamily(seed=72, independence=4, n_left=n, ell=ell))
    rng = np.random.default_rng(73)
    rows = np.arange(n)
    # -0.0 values: a +1 edge's weight is -0.0, which +0.0 absorbs
    for x in (np.full(n, -0.0), _awkward_values(n, rng), np.zeros(n)):
        first = op.apply_sparse(rows, x)  # the first fills the tables
        want = _add_at_sketch(op, rows, x).view(np.int64)
        assert np.array_equal(first.view(np.int64), want)
        assert np.array_equal(op.apply_sparse(rows, x).view(np.int64), want)
        assert op._fold_table.shape == (1, m) and op._fold_table[0, m - 1] == 2 * n
        assert want[m - 1] == 0  # the empty bucket: +0.0
    assert np.any(op._sign_table == 1) and np.any(op._sign_table == -1)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_fold_table_lifecycle(monkeypatch):
    built = _fold_counter(monkeypatch)
    n, ell, m = 4096, 9, 256
    op = _operator(n, ell, m, seed=74)
    rng = np.random.default_rng(75)
    x = _awkward_values(n, rng)
    rows = np.arange(n)
    first = op.apply_sparse(rows, x)  # fills the tables: no fold table
    assert op._sign_table is not None and op._fold_table is None and not built
    want = _add_at_sketch(op, rows, x).view(np.int64)
    assert np.array_equal(first.view(np.int64), want)
    assert np.array_equal(op.apply_sparse(rows, x).view(np.int64), want)
    fold = op._fold_table
    assert built == [op] and fold is not None
    assert np.array_equal(op.apply_sparse(rows, x).view(np.int64), want)
    assert op._fold_table is fold and built == [op]
    # a full-size row set other than 0..N-1 sums with np.add.at
    reversed_rows, repeated = rows[::-1].copy(), rows.copy()
    repeated[7] = 6
    other = _operator(n, ell, m, seed=74)
    other.apply(np.ones(n))
    for r in (reversed_rows, repeated):
        for target in (op, other):
            got = target.apply_sparse(r, x[r])
            assert np.array_equal(got.view(np.int64), _add_at_sketch(target, r, x[r]).view(np.int64))
    assert other._fold_table is None and built == [op]
    # readings and a decode build none, nor does a sparse or recursive encode
    assert np.array_equal(op.readings(first, rows).view(np.int64),
                          _lazy_twin(op).readings(first, rows).view(np.int64))
    scan = sparserec.TopLevelSystem(sparserec.TopLevelConfig(
        n=n, k=8, epsilon=0.5, ell=9, sign_independence=16, engine="scan"), 76)
    scan.decode(scan.encode(rng.normal(size=n)))  # fills the tables
    tree_rs = sparserec.TopLevelSystem(sparserec.TopLevelConfig(
        n=1 << 14, k=8, epsilon=0.5, ell=9, sign_independence=16, engine="recursive",
        tree=dict(code_kind="rs", arity=4, rs_b=2, rho=0.2, leaf_target=256,
                  scheme="scheme2", ell=8, s=1)), 13046232)
    exact = np.zeros(1 << 14)
    exact[rng.choice(1 << 14, 8, replace=False)] = rng.choice([-1.0, 1.0], 8)
    for _ in range(3):
        tree_rs.decode(tree_rs.encode(exact))
    assert built == [op]
    # uneven loads, every edge in one bucket: a fold table would outgrow
    # the neighbor table, so dense jobs keep np.add.at, and the refusal is
    # kept: the third encode does not try again
    skewed = SignedSketchOperator(BipartiteGraph.from_neighbors(np.zeros((300, 3), np.int64), 64),
                                  SignFamily(seed=80, independence=4, n_left=300, ell=3))
    y = rng.normal(size=300)
    for _ in range(3):
        assert np.array_equal(skewed.apply(y).view(np.int64),
                              _add_at_sketch(skewed, np.arange(300), y).view(np.int64))
    assert skewed._sign_table is not None and not skewed.folded
    assert built == [op, skewed]


def test_untabled_operators_hash_one_block_at_a_time(monkeypatch):
    from sparserec import weak

    n, ell, m = 20_000, 5, 256
    tabled = _operator(n, ell, m, seed=77)
    lazy = _lazy_twin(tabled)  # never holds tables
    above = _operator(_MATERIALIZE_LIMIT // 9 + 1, 9, 512, seed=78, indep=4)
    rng = np.random.default_rng(79)
    hashed, hashed_edges = [], expander._hashed_edges
    monkeypatch.setattr(expander, "_hashed_edges", lambda graph, family, rows: (
        hashed.append((graph, rows.size)) or hashed_edges(graph, family, rows)))
    for op in (tabled, lazy, above):
        rows_of = {"dense": np.arange(op.n_left),
                   "sparse": np.sort(rng.choice(op.n_left, 15_000, replace=False))}
        for rows in rows_of.values():
            values = rng.normal(size=rows.size)
            got = apply_sparse_many([op], [rows], values)[0]
            readings = weak._median_readings(op, got, rows)
            buckets, signs = hashed_edges(op.graph, op.signs, rows)
            want = np.zeros(m if op is not above else 512)
            np.add.at(want, buckets.ravel(), (signs * values[:, None]).ravel())
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert np.array_equal(readings.view(np.int64),
                                  weak.lower_median(signs * want[buckets]).view(np.int64))
    assert tabled._sign_table is not None and lazy._sign_table is None
    assert above._sign_table is None and not above.graph.materialized
    # the operators without tables hash one block's rows at a time; the
    # tabled one hashed only its neighbor table, in one request
    untabled = [(graph, size) for graph, size in hashed if graph is not tabled.graph]
    assert {id(graph) for graph, _ in untabled} == {id(lazy.graph), id(above.graph)}
    assert all(size <= expander.BLOCK_EDGES // graph.ell for graph, size in untabled)
    assert max(size for graph, size in untabled if graph is lazy.graph) == expander.BLOCK_EDGES // 5
    assert [size for graph, size in hashed if graph is tabled.graph] == [n]
