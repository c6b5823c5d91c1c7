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


def test_apply_single_column_with_multiedges():
    table = np.array([[2, 2, 5], [1, 3, 4]])
    g = BipartiteGraph.from_neighbors(table, 8)
    fam = SignFamily(seed=7, independence=4, n_left=2, n_buckets=8)
    op = SignedSketchOperator(g, fam)
    u = op.apply(np.array([1.0, 0.0]))
    expected = np.zeros(8)
    expected[2] = 2 * fam.sign(0, 2)
    expected[5] = fam.sign(0, 5)
    assert np.array_equal(u, expected)


def test_apply_matches_dense_matrix_exactly():
    op = _operator(32, 6, 64, seed=11)
    dense = op.dense_matrix()
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


def test_operator_serialization_roundtrip():
    op = _operator(40, 4, 80, seed=21)
    clone = SignedSketchOperator.from_params(op.to_params())
    x = np.random.default_rng(3).normal(size=40)
    assert np.array_equal(op.apply(x), clone.apply(x))


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
    signs = op.signs.sign_vec(np.repeat(indices, op.graph.ell), nbrs.ravel())
    return np.bincount(nbrs.ravel(), weights=signs * np.repeat(values, op.graph.ell),
                       minlength=op.n_buckets)


def test_apply_sparse_many_mixed_jobs_match_each_own_apply(monkeypatch):
    rng = np.random.default_rng(23)
    hashed = _operator(400, 5, 96, seed=31)
    other_degree = _operator(400, 5, 96, seed=32, indep=4)
    wide = _operator(1 << 16, 5, 1 << 16, seed=33)  # pair domain above 2^31: M61
    filled = _operator(300, 5, 64, seed=34)
    filled.apply(np.ones(300))
    dense = _operator(200, 4, 32, seed=35)
    tiny = _operator(8, 3, 16, seed=36)
    tree_ell, stage_ell = _operator(500, 8, 128, seed=37), _operator(500, 9, 128, seed=38)
    explicit = SignedSketchOperator(  # rows gathered from its table, signs hashed
        BipartiteGraph.from_neighbors(rng.integers(0, 40, size=(60, 4)), 40),
        SignFamily(seed=39, independence=8, n_left=60, n_buckets=40))
    big = _operator(1 << 16, 5, 1024, seed=40)  # two jobs: more edges than one pass
    assert filled._sign_table is not None and wide.signs.hash.field.q == (1 << 61) - 1
    assert explicit._sign_table is None

    def sparse(op, size):
        return np.sort(rng.choice(op.n_left, size, replace=False)), rng.normal(size=size)

    jobs = [
        (hashed, np.zeros(0, dtype=np.int64), np.zeros(0)),
        (hashed, np.array([5, 5, 17, 5]), np.array([1.0, -2.5, -0.0, 3.0])),
        (filled, *sparse(filled, 20)),
        (wide, *sparse(wide, 8)),
        (big, *sparse(big, 7000)),
        (other_degree, *sparse(other_degree, 12)),
        (tree_ell, *sparse(tree_ell, 8)),
        (dense, np.arange(200), rng.normal(size=200)),
        (stage_ell, *sparse(stage_ell, 8)),
        (tiny, np.array([0, 3, 3, 7, 1, 0, 2, 6, 5, 4]), rng.normal(size=10)),
        (explicit, *sparse(explicit, 9)),
        (big, *sparse(big, 7000)),
        (hashed, *sparse(hashed, 30)),
    ]
    assert sum(job[1].size * job[0].graph.ell for job in jobs[4::7]) > BATCH_POINTS
    want = [_hashed_apply(*job).view(np.int64) for job in jobs]
    points, bincounts = [], []
    horner, bincount = hashing._horner_vec, np.bincount
    monkeypatch.setattr(hashing, "_horner_vec",
                        lambda f, c, xs: points.append(xs.size) or horner(f, c, xs))
    monkeypatch.setattr(np, "bincount", lambda *a, **k: bincounts.append(1) or bincount(*a, **k))
    got = apply_sparse_many(jobs)
    monkeypatch.undo()
    assert max(points) <= BATCH_POINTS and len(points) > 2  # the edges took several passes
    assert len(bincounts) == 3  # the small jobs' one, and one per job on at least N rows
    for job, g, w in zip(jobs, got, want):
        assert g.shape == (job[0].n_buckets,)
        assert np.array_equal(g.view(np.int64), w)
        assert np.array_equal(job[0].apply_sparse(job[1], job[2]).view(np.int64), w)
    for t in range(len(got)):
        got[t][:] = np.nan
        for g, w in zip(got[t + 1:], want[t + 1:]):
            assert np.array_equal(g.view(np.int64), w)
    # a bad job anywhere in a call refuses the whole call
    for op, indices, values in [(hashed, [3, -1], [1.0, 2.0]), (hashed, [400], [1.0]),
                                (filled, [-2], [1.0]), (explicit, [60], [1.0]),
                                (dense, np.r_[1:200, 200], np.ones(200)),
                                (hashed, [1, 2], [1.0]), (dense, np.arange(200), np.ones(199))]:
        with pytest.raises(UsageError):
            apply_sparse_many(jobs[:3] + [(op, indices, values)] + jobs[3:])


def test_dense_jobs_fan_out_match_single_job_calls(monkeypatch):
    rng = np.random.default_rng(29)
    shared, reversed_rows = _operator(4096, 5, 256, seed=41), _operator(3000, 4, 128, seed=42)
    above = _operator(_MATERIALIZE_LIMIT // 4 + 1, 4, 64, seed=43, indep=4)  # no tables
    small = _operator(500, 5, 64, seed=44)
    jobs = [
        (shared, np.arange(4096), rng.normal(size=4096)),
        (small, np.array([3, 499, 3]), rng.normal(size=3)),
        (reversed_rows, np.arange(2999, -1, -1), rng.normal(size=3000)),
        (above, np.arange(above.n_left), rng.normal(size=above.n_left)),
        (shared, np.arange(4096), rng.normal(size=4096)),  # the same operator again
        (shared, np.array([17, 5]), rng.normal(size=2)),
    ]
    ran = []  # (thread, op, rows) of every job sketched alone
    alone = expander._sketch_alone
    monkeypatch.setattr(expander, "_sketch_alone", lambda op, indices, values: ran.append(
        (threading.current_thread(), op, indices.size)) or alone(op, indices, values))
    got = apply_sparse_many(jobs)
    tables = [(op.graph._table, op._sign_table) for op in (shared, reversed_rows)]
    assert all(t is not None for pair in tables for t in pair)
    for op in (above, small):
        assert op._sign_table is None and not op.graph.materialized
    again = apply_sparse_many(jobs)  # reuses the tables the first call built
    assert all(a is b for pair, op in zip(tables, (shared, reversed_rows))
               for a, b in zip(pair, (op.graph._table, op._sign_table)))
    workers = {t for t, _, _ in ran if t is not threading.main_thread()}
    assert len(ran) == 8 and bool(workers) == (expander._pool()[0] > 1)
    assert all(t is threading.main_thread() for t, op, _ in ran if op is above)
    for job, g, h in zip(jobs, got, again):
        want = apply_sparse_many([job])[0].view(np.int64)
        assert np.array_equal(g.view(np.int64), want)
        assert np.array_equal(h.view(np.int64), want)
    # a worker's UsageError reaches the caller: the bad job is the second
    # table-backed job, which the calling thread leaves to the pool
    ran.clear()
    with pytest.raises(UsageError):
        apply_sparse_many([jobs[0], (reversed_rows, np.r_[1:3000, 3000], np.ones(3000))])
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
            with pytest.raises(UsageError):
                target.graph.neighbors_of(np.array(rows))
    with pytest.raises(UsageError):
        op.readings(u, np.array([-1, 64]))
    with pytest.raises(UsageError):
        op.apply_sparse(np.array([1, 2]), np.array([1.0]))


def test_sign_table_never_filled_above_materialize_limit():
    n, ell, m = _MATERIALIZE_LIMIT // 4 + 1, 4, 64
    lazy = _operator(n, ell, m, seed=5)
    assert not lazy.graph.materialized
    explicit = SignedSketchOperator(
        BipartiteGraph.from_neighbors(np.zeros((n, ell), dtype=np.int64), m),
        SignFamily(seed=5, independence=4, n_left=n, n_buckets=m))
    assert explicit.graph.materialized
    for op in (lazy, explicit):
        op.readings(np.ones(m), np.arange(n))
        op.apply_sparse(np.arange(n), np.ones(n))
        assert op._sign_table is None


def test_dense_matrix_agrees_with_sign_table():
    n, ell, m = 32, 6, 64
    op = _operator(n, ell, m, seed=11)
    op.apply(np.ones(n))
    dense = np.zeros((m, n))
    nbrs = op.graph.neighbors_of(np.arange(n))
    np.add.at(dense, (nbrs.ravel(), np.repeat(np.arange(n), ell)),
              op._sign_table.ravel())
    assert np.array_equal(dense, op.dense_matrix())


def test_adjacency_dump_format():
    g = BipartiteGraph(3, 2, 10, seed=1)
    lines = g.dump_adjacency().strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("0: ")
    assert len(lines[0].split()) == 3
