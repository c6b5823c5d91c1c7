import json
import math

import numpy as np
import pytest

from sparserec import expander, hashing, toplevel, weak
from sparserec.errors import InfeasibleError, UsageError
from sparserec.expander import BipartiteGraph, SignedSketchOperator
from sparserec.recursive import RecursionTree
from sparserec.toplevel import (
    StageSchedule,
    TopLevelConfig,
    TopLevelSystem,
    _encode_stages,
    build_toplevel,
    omp_baseline,
    repeat_median_amplify,
)
from sparserec.vectors import head_indices


def test_schedule_single_stage_for_k1():
    sch = StageSchedule.build(1, 0.5)
    assert len(sch.stages) == 1
    assert sch.stages[0].k == 1


def test_schedule_halving_sequence():
    sch = StageSchedule.build(8, 0.5)
    assert [s.k for s in sch.stages] == [8, 4, 2, 1]
    sch = StageSchedule.build(5, 0.5)
    assert [s.k for s in sch.stages] == [5, 2, 1]
    for s in sch.stages:
        assert 0 < s.precision < 1
        assert s.copies >= 1


def test_schedule_precision_decays_like_power_law():
    sch = StageSchedule.build(16, 0.5, alpha=0.5)
    for s in sch.stages:
        assert s.precision == pytest.approx(min(0.9, 0.5 / s.index**1.5))


def test_measurement_accounting_exact():
    cfg = TopLevelConfig(n=4096, k=64, epsilon=0.5, engine="scan", ell=8,
                         bucket_factor=4.0, min_buckets=32)
    system = TopLevelSystem(cfg, seed=9)
    # independent summation from the schedule
    expected = 0
    for spec in system.schedule.stages:
        buckets = max(32, int(4.0 * spec.k * 8))
        expected += (spec.copies + 1) * buckets
    assert system.measurement_count == expected
    flat = system.encode(np.zeros(4096))
    assert flat.size == expected
    # recursive engine: every tree node sketches its s_i identification
    # copies, the stage one estimation sketch
    for tree, nodes in [(dict(code_kind="split", leaf_target=64, buckets_per_node=100), 7),
                        (dict(code_kind="lw", arity=3, leaf_target=128), 13)]:
        cfg = TopLevelConfig(n=4096, k=8, epsilon=0.5, engine="recursive", ell=9,
                             bucket_factor=4.0, min_buckets=32, tree=tree)
        system = TopLevelSystem(cfg, seed=9)
        expected = 0
        for spec in system.schedule.stages:
            node_buckets = tree.get("buckets_per_node") or 8 * spec.k * 9
            expected += nodes * spec.copies * node_buckets + max(32, int(4.0 * spec.k * 9))
        assert [stage.tree.node_count for stage in system.stages] == [nodes] * 4
        assert system.measurement_count == expected
        assert system.encode(np.zeros(4096)).size == expected


@pytest.mark.parametrize("n,engine,tree", [
    (1 << 10, "scan", {}),
    (1 << 10, "recursive", dict(code_kind="rs", arity=4, rs_b=2, rho=0.2)),
    (1 << 12, "recursive", dict(code_kind="split", leaf_target=64)),
    (1 << 12, "recursive", dict(code_kind="lw", arity=3, leaf_target=128)),
], ids=["scan-n10", "rs42-n10", "split-n12", "lw3-n12"])
def test_every_encoded_operator_is_read(monkeypatch, n, engine, tree):
    # roomy sketches and 48 geometrically decaying heads on a faint noise
    # floor: every stage runs (the residual is never exactly zero) and
    # still has heads left, so every tree node gets candidates
    if tree:
        tree = dict(tree, buckets_per_node=1024)
    system = TopLevelSystem(TopLevelConfig(n=n, k=8, epsilon=0.5, engine=engine, ell=9,
                                           bucket_factor=32, sign_independence=16,
                                           tree=tree), seed=6)
    rng = np.random.default_rng(8)
    x = rng.normal(size=n) * 1e-9
    x[rng.choice(n, 48, replace=False)] += rng.choice([-1.0, 1.0], 48) * 0.8 ** np.arange(48)
    encoded, read = [], []
    apply_many = toplevel.apply_sparse_many
    monkeypatch.setattr(toplevel, "apply_sparse_many",
                        lambda ops, rows, values: encoded.extend(ops)
                        or apply_many(ops, rows, values))
    sketch = system.encode(x)
    monkeypatch.setattr(toplevel, "apply_sparse_many", apply_many)
    # identification reads all its copies through one _median_readings
    # call, and estimation its one operator
    medians = weak._median_readings
    monkeypatch.setattr(weak, "_median_readings",
                        lambda requests: read.extend(req[0] for req in requests)
                        or medians(requests))
    trace = []
    system.decode(sketch, trace=trace)
    assert len(trace) == len(system.stages)
    assert all(rec["candidates"] for rec in trace)
    assert len(encoded) == len({id(op) for op in encoded})
    assert {id(op) for op in read} == {id(op) for op in encoded}
    # what no decode reads is never built
    for stage in system.stages:
        if stage.tree is not None:
            assert "ident_ops" not in vars(stage.layer)
            assert not any("est_op" in vars(node.layer) for node in stage.tree.nodes)


def test_stage_measurements_non_increasing():
    cfg = TopLevelConfig(n=4096, k=64, epsilon=0.5, engine="scan")
    system = TopLevelSystem(cfg, seed=3)
    counts = [st.measurement_count for st in system.stages]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_zero_signal_decodes_to_zero():
    system = build_toplevel(256, 4, 0.5, seed=5, engine="scan", ell=7)
    flat = system.encode(np.zeros(256))
    assert flat.dtype == np.float64 and np.array_equal(flat, np.zeros_like(flat))
    assert np.array_equal(system.decode(flat), np.zeros(256))


def test_exact_sparse_scan_recovery():
    system = build_toplevel(1024, 8, 0.5, seed=7, engine="scan", ell=9)
    rng = np.random.default_rng(1)
    x = np.zeros(1024)
    supp = rng.choice(1024, 8, replace=False)
    x[supp] = rng.choice([-1.0, 1.0], 8) * (1 + rng.random(8))
    x_hat = system.decode(system.encode(x))
    assert np.linalg.norm(x - x_hat) <= 1e-12


def test_exact_sparse_recursive_recovery():
    system = build_toplevel(
        4096, 8, 0.5, seed=11, engine="recursive", ell=9,
        tree=dict(code_kind="lw", arity=3, leaf_target=128, scheme="scheme2"),
    )
    rng = np.random.default_rng(2)
    x = np.zeros(4096)
    supp = rng.choice(4096, 8, replace=False)
    x[supp] = rng.choice([-1.0, 1.0], 8) * (1 + rng.random(8))
    x_hat = system.decode(system.encode(x))
    assert np.linalg.norm(x - x_hat) <= 1e-12


def test_default_recursive_system_recovers_exact_sparse():
    # no tree options: an LW(2) tree, the split tree
    system = build_toplevel(4096, 4, 0.5, seed=1, engine="recursive")
    assert all(stage.tree.params.arity == 2 for stage in system.stages)
    rng = np.random.default_rng(3)
    x = np.zeros(4096)
    x[rng.choice(4096, 4, replace=False)] = rng.choice([-1.0, 1.0], 4) * (1 + rng.random(4))
    x_hat = system.decode(system.encode(x))
    assert np.linalg.norm(x - x_hat) <= 1e-12


def test_residual_sketch_consistency():
    # encode(x) - encode(acc) must equal encode(x - acc) stage by stage
    system = build_toplevel(512, 4, 0.5, seed=13, engine="scan", ell=7)
    rng = np.random.default_rng(3)
    x = rng.normal(size=512)
    acc = np.zeros(512)
    acc[rng.choice(512, 6, replace=False)] = rng.normal(size=6)
    direct = _encode_stages(system.stages, *_nz(x - acc))
    via_diff = [u - v for u, v in zip(_encode_stages(system.stages, *_nz(x)),
                                      _encode_stages(system.stages, *_nz(acc)))]
    for a, b in zip(direct, via_diff):
        assert np.max(np.abs(a - b)) <= 1e-9


def _nz(v):
    idx = np.flatnonzero(v)
    return idx, v[idx]


def _replay(trace, n):
    """The estimate a decode trace describes: each stage's additions, in order."""
    acc = np.zeros(n)
    for rec in trace:
        acc[np.asarray(rec["indices"], dtype=np.int64)] += rec["values"]
    return acc


def test_loop_invariant_under_forced_success(monkeypatch):
    n, k = 1024, 16
    system = build_toplevel(n, k, 0.5, seed=17, engine="scan", ell=9)
    rng = np.random.default_rng(4)
    x = np.zeros(n)
    supp = rng.choice(n, k, replace=False)
    x[supp] = rng.choice([-1.0, 1.0], k) * (1 + rng.random(k))
    trace = []

    def forced_success(sketches):
        # deliver the residual heads, withholding the allowed half
        residual = x - _replay(trace, n)
        heads = head_indices(residual, k)
        heads = heads[np.abs(residual[heads]) > 1e-9]
        allowed_loss = len(heads) // 2
        return (heads[: len(heads) - allowed_loss] if allowed_loss else heads), None

    for stage in system.stages:
        monkeypatch.setattr(stage, "identify", forced_success)
    system.decode(system.encode(x), trace=trace)
    assert len(trace) == len(system.stages)
    truth = set(head_indices(x, k).tolist())
    for i, spec in enumerate(system.schedule.stages):
        found = set(np.flatnonzero(_replay(trace[: i + 1], n)).tolist())
        assert len(truth - found) <= k / 2**spec.index


def test_decode_sign_equivariant_with_odd_degree():
    system = build_toplevel(512, 4, 0.5, seed=19, engine="scan", ell=9)
    rng = np.random.default_rng(5)
    x = rng.normal(size=512)
    a = system.decode(system.encode(x))
    b = system.decode(system.encode(-x))
    assert np.array_equal(a, -b)


def test_sketch_length_validation():
    system = build_toplevel(128, 2, 0.5, seed=23, engine="scan", ell=5)
    with pytest.raises(UsageError):
        system.decode(np.zeros(system.measurement_count + 1))
    with pytest.raises(UsageError):
        system.encode(np.zeros(129))


def test_json_roundtrip_reproduces_decoding():
    system = build_toplevel(256, 4, 0.5, seed=29, engine="scan", ell=7)
    clone = TopLevelSystem.from_json(system.to_json())
    rng = np.random.default_rng(6)
    x = rng.normal(size=256)
    assert np.array_equal(system.decode(system.encode(x)),
                          clone.decode(clone.encode(x)))


_TREE = dict(code_kind="lw", arity=3, leaf_target=128, scheme="scheme2")


def _sparse_signal(n, k, seed):
    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    x[rng.choice(n, k, replace=False)] = rng.choice([-1.0, 1.0], k) * (1 + rng.random(k))
    return x


@pytest.mark.parametrize("engine", ["scan", "recursive"])
def test_descriptor_with_d_exp_loads_identically(engine):
    system = build_toplevel(1024, 4, 0.5, seed=31, engine=engine, ell=7, tree=_TREE)
    blob = json.loads(system.to_json())
    assert "d_exp" not in blob["config"]
    plain = TopLevelSystem.from_json(json.dumps(blob))
    blob["config"]["d_exp"] = 6
    old = TopLevelSystem.from_json(json.dumps(blob))
    x = _sparse_signal(1024, 4, seed=7)
    sketch = plain.encode(x)
    assert np.array_equal(old.encode(x), sketch)
    assert np.array_equal(old.decode(sketch), plain.decode(sketch))


@pytest.mark.parametrize("engine", ["scan", "recursive"])
def test_tree_gamma_is_accepted_and_dropped(engine):
    # a tree loss fraction no layer read: configs and descriptors that
    # carry it build the same system as ones without it
    tree = dict(_TREE, gamma=0.1)
    plain = build_toplevel(1024, 4, 0.5, seed=31, engine=engine, ell=7, tree=_TREE)
    direct = build_toplevel(1024, 4, 0.5, seed=31, engine=engine, ell=7, tree=tree)
    assert "gamma" in tree and direct.config == plain.config
    blob = json.loads(plain.to_json())
    blob["config"]["tree"]["gamma"] = 0.1
    loaded = TopLevelSystem.from_json(json.dumps(blob))
    x = _sparse_signal(1024, 4, seed=7)
    sketch = plain.encode(x)
    for system in (direct, loaded):
        assert system.measurement_count == plain.measurement_count
        assert system.encode(x).tobytes() == sketch.tobytes()
        assert system.decode(sketch).tobytes() == plain.decode(sketch).tobytes()


@pytest.mark.parametrize("engine", ["scan", "recursive"])
@pytest.mark.parametrize("key,value", [("alpha", 0.5), ("fingerprint_degree", 0)])
def test_descriptor_naming_a_removed_tree_option_is_refused(engine, key, value):
    # the tree fixes its fingerprint; even the old defaults are refused
    system = build_toplevel(1024, 4, 0.5, seed=31, engine=engine, ell=7, tree=_TREE)
    blob = json.loads(system.to_json())
    blob["config"]["tree"][key] = value
    with pytest.raises(UsageError, match=key):
        TopLevelSystem.from_json(json.dumps(blob))


def test_descriptor_with_another_measurement_count_is_refused():
    tree = dict(code_kind="split", leaf_target=64, scheme="scheme2")
    system = build_toplevel(1024, 4, 0.5, seed=43, engine="recursive", ell=7, tree=tree)
    assert system.measurement_count == 4712
    blob = json.loads(system.to_json())
    blob["measurements"] = 8080  # the count an older layout recorded
    with pytest.raises(UsageError, match="8080.*4712"):
        TopLevelSystem.from_json(json.dumps(blob))
    del blob["measurements"]  # a descriptor without the count still loads
    assert TopLevelSystem.from_json(json.dumps(blob)).measurement_count == 4712


def test_descriptor_without_the_sign_family_is_refused():
    system = build_toplevel(1024, 4, 0.5, seed=43, engine="scan", ell=7)
    blob = json.loads(system.to_json())
    assert blob["sign_family"] == hashing.SignFamily.NAME
    # a descriptor written before signs were hashed per vertex: same
    # measurement count, other signs
    del blob["sign_family"]
    with pytest.raises(UsageError, match="sign family None"):
        TopLevelSystem.from_json(json.dumps(blob))
    blob["sign_family"] = "pairs"
    with pytest.raises(UsageError, match="sign family 'pairs'"):
        TopLevelSystem.from_json(json.dumps(blob))


def test_split_descriptor_decodes_like_lw2():
    tree = dict(code_kind="lw", arity=2, leaf_target=64, scheme="scheme2")
    lw = build_toplevel(4096, 4, 0.5, seed=41, engine="recursive", ell=7, tree=tree)
    blob = json.loads(lw.to_json())
    blob["config"]["tree"] = dict(leaf_target=64, scheme="scheme2", code_kind="split")
    split = TopLevelSystem.from_json(json.dumps(blob))
    assert split.measurement_count == lw.measurement_count
    x = _sparse_signal(4096, 4, seed=9)
    sketch = lw.encode(x)
    assert split.encode(x).tobytes() == sketch.tobytes()
    x_hat = split.decode(sketch)
    assert x_hat.tobytes() == lw.decode(sketch).tobytes()
    assert np.linalg.norm(x - x_hat) <= 1e-12


@pytest.mark.parametrize("engine", ["scan", "recursive"])
def test_decode_trace_replays_to_the_estimate(engine):
    system = build_toplevel(1024, 4, 0.5, seed=43, engine=engine, ell=7, tree=_TREE)
    exact = _sparse_signal(1024, 4, seed=10)
    noisy = exact + np.random.default_rng(11).normal(scale=0.01, size=1024)
    for x in (np.zeros(1024), exact, noisy):
        sketch = system.encode(x)
        trace = []
        x_hat = system.decode(sketch, trace=trace)
        assert x_hat.tobytes() == system.decode(sketch).tobytes()
        assert [rec["stage"] for rec in trace] == [s.index for s in system.schedule.stages]
        assert _replay(trace, 1024).tobytes() == x_hat.tobytes()
        assert json.loads(json.dumps(trace)) == trace
        # a stage whose residual sketch is exactly zero is skipped
        skipped = [rec == {"stage": rec["stage"], "candidates": 0, "nodes": None,
                           "indices": [], "values": []} for rec in trace]
        if x is noisy:
            assert not any(skipped)
        elif not x.any():
            assert all(skipped)
        for stage, rec, skip in zip(system.stages, trace, skipped):
            if engine == "scan":
                assert rec["nodes"] is None
            elif not skip:
                assert (sorted(r["node"] for r in rec["nodes"])
                        == list(range(stage.tree.node_count)))


@pytest.mark.parametrize("engine", ["scan", "recursive"])
def test_decode_refuses_a_sketch_with_nan_or_inf(engine):
    system = build_toplevel(1024, 4, 0.5, seed=43, engine=engine, ell=7, tree=_TREE)
    sketch = system.encode(_sparse_signal(1024, 4, seed=10))
    for at, bad in ((0, np.nan), (sketch.size // 2, np.inf), (sketch.size - 1, -np.inf)):
        held = sketch.copy()
        held[at] = bad
        with pytest.raises(UsageError, match="NaN or infinite"):
            system.decode(held)


def test_unknown_tree_option_is_a_usage_error():
    with pytest.raises(UsageError, match="leaf_targte"):
        TopLevelConfig(n=1024, k=4, engine="recursive", tree={"leaf_targte": 64})


@pytest.mark.parametrize("engine", ["scan", "recursive"])
@pytest.mark.parametrize("tree,match", [
    (dict(scheme="scheme1", code_kind="bogus", arity=-5), "bogus"),
    (dict(code_kind="bogus"), "bogus"),
    (dict(code_kind="lw", arity=-5), "arity"),
    (dict(code_kind="rs", arity=2, rs_b=2), "r > b"),
    (dict(code_kind="rs", arity=4, rs_b=2, rho=0.3), "rho"),
    (dict(scheme="scheme1"), "scheme1"),
], ids=["repro", "code_kind", "arity", "rs_b", "rho", "scheme"])
def test_bad_tree_option_values_are_refused_on_both_engines(engine, tree, match):
    # a scan system builds no tree, but refuses what a recursive one would
    with pytest.raises(UsageError, match=match):
        build_toplevel(256, 2, 0.5, seed=3, engine=engine, ell=7, tree=tree)
    if engine == "scan":
        good = build_toplevel(256, 2, 0.5, seed=3, engine="scan", ell=7)
        blob = json.loads(good.to_json())
        blob["config"]["tree"] = tree
        with pytest.raises(UsageError, match=match):
            TopLevelSystem.from_json(json.dumps(blob))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("engine", ["scan", "recursive"])
@pytest.mark.parametrize("fields,match", [
    # tree options, checked where RecursiveParams is built
    (dict(tree=dict(ell=2.5)), "ell"),
    (dict(tree=dict(s="2")), "s must"),
    (dict(tree=dict(cap=8.0)), "cap"),
    (dict(tree=dict(buckets_per_node=True)), "buckets_per_node"),
    (dict(tree=dict(lw_errors=None)), "lw_errors"),
    (dict(tree=dict(leaf_target="x")), "leaf_target"),
    (dict(tree=dict(arity=3.0)), "arity"),
    (dict(tree=dict(code_kind="rs", arity=4, rs_b=2.0, rho=0.2)), "rs_b"),
    (dict(tree=dict(max_leaf_domain=1e6)), "max_leaf_domain"),
    (dict(tree=dict(cap=-5)), "cap >= 0"),
    (dict(tree=dict(ell=0, s=0, cap=-5)), "ell >= 1"),
    (dict(tree=dict(s=0)), "s >= 1"),
    (dict(tree=dict(leaf_target=1)), "leaf_target >= 2"),
    (dict(tree=dict(buckets_per_node=-1)), "buckets_per_node"),
    (dict(tree=dict(ell=8, buckets_per_node=7)), "buckets_per_node"),
    (dict(ell=8, tree=dict(buckets_per_node=1)), "buckets_per_node"),
    (dict(tree=dict(code_kind="lw", arity=3, lw_errors=5)), "lw_errors"),
    (dict(tree=dict(code_kind="lw", arity=3, lw_errors=-1)), "lw_errors"),
    (dict(tree=dict(code_kind="split", lw_errors=1)), "lw_errors"),
    (dict(tree=dict(code_kind="rs", arity=4, rs_b=0, rho=0.2)), "r > b >= 1"),
    # the config's own fields
    (dict(n=1024.0), "n must"),
    (dict(n=True), "n must"),
    (dict(k=2.5), "k must"),
    (dict(ell=2.5), "ell must"),
    (dict(ell=0), "ell >= 1"),
    (dict(min_buckets=64.0), "min_buckets"),
    (dict(c_exp=True), "c_exp"),
    (dict(sign_independence="16"), "sign_independence"),
    (dict(epsilon=_NAN), "epsilon"),
    (dict(epsilon="0.5"), "epsilon"),
    (dict(alpha=_INF), "alpha"),
    (dict(alpha=False), "alpha"),
    (dict(bucket_factor=_NAN), "bucket_factor"),
    (dict(bucket_factor=0.0), "bucket_factor > 0"),
    (dict(bucket_factor=-8.0), "bucket_factor > 0"),
    (dict(tree=5), "tree must"),
    (dict(tree=["ell"]), "tree must"),
], ids=lambda value: repr(value) if isinstance(value, dict) else None)
def test_bad_config_values_are_refused_when_the_config_is_built(engine, fields, match):
    config = dict(dict(n=1024, k=4, ell=7), **fields)
    with pytest.raises(UsageError, match=match):
        TopLevelConfig(**config, engine=engine)


def test_negative_rho_is_refused_and_a_valid_one_recovers():
    # with rho -0.5 the tree asked every parent message to agree with more
    # than r children, so this signal decoded to zeros without a warning
    tree = dict(code_kind="rs", arity=4, rs_b=2, leaf_target=64, ell=8, s=1)
    config = dict(n=2**10, k=4, ell=9, sign_independence=16, engine="recursive")
    for rho in (-0.5, -1e-9):
        with pytest.raises(UsageError, match="unique-decoding regime"):
            TopLevelConfig(**config, tree=dict(tree, rho=rho))
    x = np.zeros(2**10)
    x[[3, 200, 511, 1000]] = [1, -2, 1.5, 3]
    system = TopLevelSystem(TopLevelConfig(**config, tree=dict(tree, rho=0.2)), seed=5)
    np.testing.assert_array_equal(system.decode(system.encode(x)), x)


@pytest.mark.parametrize("engine", ["scan", "recursive"])
def test_loaded_system_decodes_without_encoding(engine, monkeypatch):
    system = build_toplevel(1024, 4, 0.5, seed=37, engine=engine, ell=7, tree=_TREE)
    x = _sparse_signal(1024, 4, seed=8)
    sketch = system.encode(x)
    expect = system.decode(sketch)

    def refuse(self, x):
        raise AssertionError("decoding must not encode")

    monkeypatch.setattr(TopLevelSystem, "encode", refuse)
    loaded = TopLevelSystem.from_json(system.to_json())
    assert np.array_equal(loaded.decode(sketch), expect)


def test_repeated_dense_encode_and_decode_reuse_sign_tables(monkeypatch):
    system = build_toplevel(1024, 4, 0.5, seed=41, engine="scan", ell=7)
    rng = np.random.default_rng(9)
    x = rng.normal(size=1024) * 0.01
    x[rng.choice(1024, 4, replace=False)] += 3.0
    sketch = system.encode(x)
    x_hat = system.decode(sketch)

    def refuse(*args):
        raise AssertionError("edge signs must come from the sign tables")

    # the edge kernel's one hashing entry
    monkeypatch.setattr(expander, "edge_signs", refuse)
    assert np.array_equal(system.encode(x), sketch)
    assert np.array_equal(system.decode(sketch), x_hat)


def _stage_operators(stage):
    """(tree node or None, operator) pairs in sketch order, by the rule: a
    tree node's identification copies, then the stage's estimation
    operator on the recursive engine; the stage's whole layer on the scan."""
    if stage.tree is None:
        return [(None, op) for op in stage.layer.operators]
    return ([(node, op) for node in stage.tree.nodes for op in node.layer.ident_ops]
            + [(None, stage.layer.est_op)])


def _operators(system):
    return [op for stage in system.stages for _, op in _stage_operators(stage)]


def _per_operator_sketch(system, indices, values):
    """Every operator's own apply_sparse, in sketch order."""
    out = []
    for stage in system.stages:
        images = {} if stage.tree is None else stage.tree.node_images(indices)
        out += [op.apply_sparse(indices if node is None else images[node.node_id], values)
                for node, op in _stage_operators(stage)]
    return np.concatenate(out)


def _eager_twin(system):
    """The same system with every neighbor table built up front."""
    twin = TopLevelSystem(system.config, system.seed)
    for op in _operators(twin):
        op.graph.table()
    return twin


def _tables_built(system):
    return [op.graph.materialized for op in _operators(system)]


def _check_batched_encodes(system, rng, dense=False):
    # no rows; 3000 rows per operator spread over several passes; with
    # dense, every row: heads on a Gaussian tail.  Each sketch is also that
    # of an eagerly built twin.
    twin = _eager_twin(system)
    sizes = [0, 8, min(3000, system.n // 2)] + [system.n] * dense
    for size in sizes:
        idx = np.sort(rng.choice(system.n, size, replace=False))
        vals = rng.normal(size=size)
        if size == system.n:
            vals = vals * 1e-3
            vals[rng.choice(size, 8, replace=False)] += 1.0 + rng.random(8)
        want = _per_operator_sketch(system, idx, vals).view(np.int64)
        x = np.zeros(system.n)
        x[idx] = vals
        assert np.array_equal(system.encode(x).view(np.int64), want)
        assert np.array_equal(twin.encode(x).view(np.int64), want)
        staged = np.concatenate(_encode_stages(system.stages, idx, vals))
        assert np.array_equal(staged.view(np.int64), want)


_BENCH_TREE = dict(leaf_target=256, scheme="scheme2", ell=8, gamma=0.1, s=1)


# the sign fields of the operators without tables: only the split tree's
# 2^32-value root needs M61
@pytest.mark.parametrize("n,tree,dense,unfilled_fields", [
    (1 << 16, dict(_BENCH_TREE, code_kind="split", arity=2), False,
     {(1 << 61) - 1, (1 << 31) - 1}),
    (1 << 14, dict(_BENCH_TREE, code_kind="rs", arity=4, rs_b=2, rho=0.2), True,
     {(1 << 31) - 1}),
    (1 << 12, dict(code_kind="lw", arity=3, leaf_target=128, scheme="scheme2"), False,
     {(1 << 31) - 1}),
], ids=["split-n16", "rs42-n14", "lw3-n12"])
def test_batched_tree_encode_matches_per_operator_apply(n, tree, dense, unfilled_fields):
    system = TopLevelSystem(TopLevelConfig(n=n, k=8, epsilon=0.5, engine="recursive",
                                           ell=9, sign_independence=16, tree=tree),
                            seed=2)
    ops = _operators(system)
    assert not any(_tables_built(system))  # a fresh system builds no table
    rng = np.random.default_rng(17)
    x = np.zeros(n)
    x[rng.choice(n, 8, replace=False)] = 1.0 + rng.random(8)
    sketch = system.encode(x)
    assert not any(_tables_built(system))  # nor does a sparse encode
    assert np.array_equal(sketch.view(np.int64),
                          _eager_twin(system).encode(x).view(np.int64))
    trace = []
    assert np.allclose(system.decode(sketch, trace=trace), x)
    # a decode builds the tables of the identification operators it reads
    # (every leaf it scans; the split tree's 2^16-value depth-1 nodes) where
    # N * ell <= _MATERIALIZE_LIMIT, and only those
    read = {id(op) for stage, record in zip(system.stages, trace) if record["nodes"]
            for node in record["nodes"] if node["candidates"]
            for op in stage.tree.nodes[node["node"]].layer.ident_ops
            if op.n_left * op.graph.ell <= expander._MATERIALIZE_LIMIT}
    assert read and _tables_built(system) == [id(op) in read for op in ops]
    filled = [op._sign_table is not None for op in ops]
    assert filled == _tables_built(system)
    fields = {op.signs.hash.field.q for op, f in zip(ops, filled) if not f}
    assert fields == unfilled_fields
    _check_batched_encodes(system, rng, dense)


def test_sparse_system_encode_makes_one_sign_pass_per_field(monkeypatch):
    tree = dict(_BENCH_TREE, code_kind="rs", arity=4, rs_b=2, rho=0.2)
    system = TopLevelSystem(TopLevelConfig(n=1 << 14, k=8, epsilon=0.5, engine="recursive",
                                           ell=9, sign_independence=16, tree=tree),
                            seed=2)
    passes, streams = [], []
    horner, stream = hashing._horner_vec, expander.counter_stream

    def counted(f, coefficients, xs):
        passes.append((repr(f), xs.size))
        return horner(f, coefficients, xs)

    def counted_stream(seed, index):
        streams.append(np.size(index))
        return stream(seed, index)

    monkeypatch.setattr(hashing, "_horner_vec", counted)
    monkeypatch.setattr(expander, "counter_stream", counted_stream)
    bincounts, bincount = [], np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **k: bincounts.append(1) or bincount(*a, **k))
    rng = np.random.default_rng(23)
    x = np.zeros(system.n)
    x[rng.choice(system.n, 8, replace=False)] = 1.0 + rng.random(8)
    system.encode(x)
    # every stage's tree nodes and weak layer hash their rows together, one
    # point per (operator, row) and all in M31 (the stage trees' 2^28-value
    # roots included), the four stage trees share one fingerprint pass,
    # every operator's neighbor rows come from one counter-stream pass, and
    # one bincount sums every sketch
    ops = _operators(system)
    assert 8 * len(ops) == 192
    assert [name for name, _ in sorted(passes)] == ["GF(2147483647)", "GF(2^14)"]
    assert ("GF(2147483647)", 192) in passes
    assert streams == [sum(8 * op.graph.ell for op in ops)]
    assert len(bincounts) == 1
    assert not any(_tables_built(system))
    passes.clear()
    streams.clear()
    bincounts.clear()
    _encode_stages(system.stages[1:], np.flatnonzero(x), x[np.flatnonzero(x)])
    assert [name for name, _ in sorted(passes)] == ["GF(2147483647)", "GF(2^14)"]
    assert ("GF(2147483647)", 8 * sum(len(_stage_operators(stage))
                                      for stage in system.stages[1:])) in passes
    assert len(streams) == 1
    assert len(bincounts) == 1
    # the warm state a stream of signals runs in: a decode has filled the
    # stage-1 leaves' tables, whose jobs now gather their rows, while the
    # other jobs still share one counter-stream pass and one pass per field
    cold = system.encode(x)
    monkeypatch.undo()
    trace = []
    assert np.allclose(system.decode(cold, trace=trace), x)
    tabled = [op.graph.materialized for op in ops]
    assert any(tabled) and not all(tabled)
    assert tabled == [op._sign_table is not None for op in ops]
    monkeypatch.setattr(hashing, "_horner_vec", counted)
    monkeypatch.setattr(expander, "counter_stream", counted_stream)
    monkeypatch.setattr(np, "bincount", lambda *a, **k: bincounts.append(1) or bincount(*a, **k))
    y = np.zeros(system.n)
    y[rng.choice(system.n, 8, replace=False)] = rng.choice([-1.0, 1.0], 8) * (1 + rng.random(8))
    for signal in (x, y):
        for stages in (system.stages, system.stages[1:]):
            passes.clear()
            streams.clear()
            bincounts.clear()
            indices = np.flatnonzero(signal)
            sketches = _encode_stages(stages, indices, signal[indices])
            hashed = [op for stage in stages for _, op in _stage_operators(stage)
                      if not op.graph.materialized]
            assert [name for name, _ in sorted(passes)] == ["GF(2147483647)", "GF(2^14)"]
            assert ("GF(2147483647)", 8 * len(hashed)) in passes
            assert streams == [sum(8 * op.graph.ell for op in hashed)]
            assert len(bincounts) == 1
            want = _per_operator_sketch(system, indices, signal[indices])
            assert np.array_equal(np.concatenate(sketches).view(np.int64),
                                  want[want.size - sum(map(len, sketches)):].view(np.int64))
    assert [op._sign_table is not None for op in ops] == tabled == _tables_built(system)
    assert np.array_equal(system.encode(x).view(np.int64), cold.view(np.int64))
    # a row outside [0, N) in any one job of a call of small jobs, tabled
    # or hashed, refuses the whole call
    rows, values = [rng.choice(op.n_left, 8, replace=False) for op in ops], rng.normal(size=8)
    for t in (tabled.index(True), tabled.index(False)):
        for bad in (-1, ops[t].n_left):
            rows_t = rows[t].copy()
            rows_t[3] = bad
            with pytest.raises(UsageError):
                expander.apply_sparse_many(ops, rows[:t] + [rows_t] + rows[t + 1:], values)


def test_split_tree_builds_at_2_26_and_refuses_roots_beyond_m61():
    def split_system(bits):
        tree = dict(_BENCH_TREE, code_kind="split", arity=2)
        return TopLevelSystem(TopLevelConfig(n=1 << bits, k=8, epsilon=0.5, engine="recursive",
                                             ell=9, sign_independence=16, tree=tree), seed=2)

    at24, at26 = split_system(24), split_system(26)
    assert at26.measurement_count == at24.measurement_count == 15_480
    # the stage trees' roots hold 2^52 values: their signs hash in M61
    roots = [stage.tree.nodes[0].layer.ident_ops[0] for stage in at26.stages]
    assert {(op.n_left, op.signs.hash.field.q) for op in roots} == {(1 << 52, (1 << 61) - 1)}
    rng = np.random.default_rng(26)
    idx = np.sort(rng.choice(1 << 26, 8, replace=False))
    vals = rng.choice([-1.0, 1.0], 8) * (1 + rng.random(8))
    staged = np.concatenate(_encode_stages(at26.stages, idx, vals))
    assert staged.size == 15_480
    assert np.array_equal(staged.view(np.int64),
                          _per_operator_sketch(at26, idx, vals).view(np.int64))
    # 2^64-value roots: past both M61 and the bucket stream's 64-bit index
    with pytest.raises(InfeasibleError, match="2\\^61-1|64 bits"):
        split_system(32)


def test_warm_tree_decode_identifies_each_node_in_one_sign_pass(monkeypatch):
    # criterion 8's split tree at 2^16, and its signal
    tree = dict(_BENCH_TREE, code_kind="split", arity=2)
    system = TopLevelSystem(TopLevelConfig(n=1 << 16, k=8, epsilon=0.5, engine="recursive",
                                           ell=9, sign_independence=16, tree=tree), seed=2)
    rng = np.random.default_rng(8080)
    x = np.zeros(system.n)
    x[rng.choice(system.n, 8, replace=False)] = rng.choice([-1.0, 1.0], 8) * (1 + rng.random(8))
    sketch = system.encode(x)
    trace = []
    system.decode(sketch, trace=trace)  # fills the leaves' and depth-1 nodes' tables
    passes, identifying = [], []
    horner, identify = hashing._horner_vec, RecursionTree.identify

    def counted(f, coefficients, xs):
        if identifying and f.kind == "prime":  # a sign pass, not a fingerprint's
            passes.append((repr(f), xs.size))
        return horner(f, coefficients, xs)

    def tree_identify(tree, sketches):
        identifying.append(tree)
        try:
            return identify(tree, sketches)
        finally:
            identifying.pop()

    monkeypatch.setattr(hashing, "_horner_vec", counted)
    monkeypatch.setattr(RecursionTree, "identify", tree_identify)
    again = []
    system.decode(sketch, trace=again)
    assert again == trace
    # only stage 1 identifies this exact signal; its leaves and its two
    # 2^16-value depth-1 nodes read their tables, and its root, whose domain
    # holds 2^32 values, hashes its candidates in one M61 pass, one point
    # per candidate
    [records] = [stage["nodes"] for stage in trace if stage["nodes"]]
    stage_tree = system.stages[0].tree
    assert stage_tree.height == 2 and all(
        len(node.layer.ident_ops) == 1 and node.layer.params.ell == 8 for node in stage_tree.nodes)
    inner = [(r["depth"], r["candidates"]) for r in records if r["depth"] < 2]
    assert inner[:2] == [(1, 576), (1, 576)] and inner[2][0] == 0
    assert passes == [("GF(2305843009213693951)", inner[2][1])]


def _hashed_sketch(system, x):
    """Scan-engine sketch of x from twins of the operators whose graphs
    hold no neighbor table, so every row is generated and hashed."""
    out = []
    for op in _operators(system):
        g = op.graph
        lazy = BipartiteGraph(g.n_left, g.ell, g.n_buckets, g.seed)
        lazy.table = lambda: None  # never builds its table
        out.append(SignedSketchOperator(lazy, op.signs).apply(x))
    return np.concatenate(out)


@pytest.mark.parametrize("n", [1 << 16, 1 << 10], ids=["n16", "n10"])
def test_batched_scan_encode_matches_per_operator_apply_and_dense_fills_tables(n):
    system = TopLevelSystem(TopLevelConfig(n=n, k=8, epsilon=0.5, engine="scan",
                                           ell=9, sign_independence=16), seed=1)
    rng = np.random.default_rng(19)
    ops = _operators(system)
    assert not any(_tables_built(system))  # a fresh system builds no table
    assert all(op._sign_table is None for op in ops)
    _check_batched_encodes(system, rng)
    assert not any(_tables_built(system))  # nor do sparse encodes
    assert all(op._sign_table is None for op in ops)
    dense = rng.normal(size=system.n)  # every row nonzero
    want = _hashed_sketch(system, dense).view(np.int64)
    assert np.array_equal(system.encode(dense).view(np.int64), want)
    assert all(_tables_built(system))  # a dense encode builds every table
    assert all(op._sign_table is not None for op in ops)
    # the filled tables, read in place, give the hashed sketch bit for bit
    assert np.array_equal(system.encode(dense).view(np.int64), want)
    assert np.array_equal(_eager_twin(system).encode(dense).view(np.int64), want)
    _check_batched_encodes(system, rng)


class _RefuseFullGather(np.ndarray):
    """A design table that refuses to be gathered over all its rows; what
    arithmetic on it produces is a plain array."""

    def __getitem__(self, key):
        if isinstance(key, np.ndarray) and key.size >= self.shape[0]:
            raise AssertionError("full-domain gather of a design table")
        return super().__getitem__(key)

    def __array_wrap__(self, array, context=None, return_scalar=False):
        return array[()] if return_scalar else array


def test_dense_encode_and_scan_decode_read_the_design_tables_in_place(monkeypatch):
    system = TopLevelSystem(TopLevelConfig(n=1 << 12, k=8, epsilon=0.5, engine="scan",
                                           ell=9, sign_independence=16), seed=4)
    rng = np.random.default_rng(23)
    x = rng.normal(size=system.n)  # every row nonzero
    sketch = system.encode(x)  # fills the sign tables
    trace = []
    x_hat = system.decode(sketch, trace=trace)
    ops = _operators(system)
    assert all(op._sign_table is not None for op in ops)

    gather = BipartiteGraph.neighbors_of

    def refuse(graph, indices):
        if np.size(indices) >= graph.n_left:
            raise AssertionError("full-domain gather of a neighbor table")
        return gather(graph, indices)

    monkeypatch.setattr(BipartiteGraph, "neighbors_of", refuse)
    for op in ops:
        monkeypatch.setattr(op, "_sign_table", op._sign_table.view(_RefuseFullGather))
    assert np.array_equal(system.encode(x).view(np.int64), sketch.view(np.int64))
    again = []
    assert np.array_equal(system.decode(sketch, trace=again).view(np.int64),
                          x_hat.view(np.int64))
    assert again == trace


def test_mutating_returned_rows_leaves_the_design_unchanged():
    system = build_toplevel(1024, 4, 0.5, seed=29, engine="scan", ell=7)
    x = np.random.default_rng(31).normal(size=1024)
    sketch = system.encode(x)
    op = system.stages[0].layer.ident_ops[0]
    full = np.arange(1024)
    tables = (op.graph._table, op._sign_table)
    for got in (op.graph.neighbors_of(full), op.readings(sketch[:op.n_buckets], full)):
        if got.flags.writeable:
            assert not any(np.shares_memory(got, t) for t in tables)
            got[...] = 0
    assert np.array_equal(system.encode(x).view(np.int64), sketch.view(np.int64))


def test_repeat_median_single_copy_is_identity():
    system = build_toplevel(256, 4, 0.5, seed=31, engine="scan", ell=7)
    rng = np.random.default_rng(7)
    x = rng.normal(size=256)
    flat = system.encode(x)
    assert np.array_equal(repeat_median_amplify([system], [flat]),
                          system.decode(flat))


def test_repeat_median_identical_copies_unchanged():
    systems = [build_toplevel(256, 4, 0.5, seed=37, engine="scan", ell=7)
               for _ in range(3)]
    rng = np.random.default_rng(8)
    x = rng.normal(size=256)
    flats = [s.encode(x) for s in systems]
    merged = repeat_median_amplify(systems, flats)
    assert np.array_equal(merged, systems[0].decode(flats[0]))


def test_repeat_median_bounds_error_when_all_copies_good():
    # all copies within D => median within sqrt(3) * D
    n, k, s = 256, 4, 5
    rng = np.random.default_rng(9)
    x = rng.normal(size=n) * 0.05
    x[rng.choice(n, k, replace=False)] = rng.choice([-1.0, 1.0], k) * 2.0
    systems = [build_toplevel(n, k, 0.5, seed=100 + c, engine="scan", ell=9)
               for c in range(s)]
    flats = [sys_.encode(x) for sys_ in systems]
    errs = [np.linalg.norm(x - sys_.decode(fl)) for sys_, fl in zip(systems, flats)]
    d_bound = max(errs)
    merged = repeat_median_amplify(systems, flats)
    assert np.linalg.norm(x - merged) <= math.sqrt(3) * d_bound + 1e-12


def test_omp_orthonormal_exact_recovery():
    rng = np.random.default_rng(10)
    q, _ = np.linalg.qr(rng.normal(size=(64, 64)))
    phi = q[:, :].T[:64]
    x = np.zeros(64)
    supp = rng.choice(64, 5, replace=False)
    x[supp] = rng.normal(size=5) + 2.0
    x_hat = omp_baseline(phi, phi @ x, 5, iterations=5)
    assert np.linalg.norm(x - x_hat) < 1e-9


def test_omp_zero_sketch_returns_zero():
    rng = np.random.default_rng(11)
    phi = rng.normal(size=(20, 50))
    assert np.array_equal(omp_baseline(phi, np.zeros(20), 3), np.zeros(50))


def test_omp_rejects_zero_column():
    phi = np.ones((4, 6))
    phi[:, 2] = 0.0
    with pytest.raises(UsageError):
        omp_baseline(phi, np.ones(4), 2)


def test_omp_gaussian_standard_regime():
    rng = np.random.default_rng(12)
    n, k = 1024, 10
    m = math.ceil(4 * k * math.log(n / k))
    wins = 0
    for trial in range(10):
        phi = rng.normal(size=(m, n)) / math.sqrt(m)
        x = np.zeros(n)
        supp = rng.choice(n, k, replace=False)
        x[supp] = rng.choice([-1.0, 1.0], k) * (1 + rng.random(k))
        x_hat = omp_baseline(phi, phi @ x, k)
        got = set(np.argsort(-np.abs(x_hat))[:k].tolist())
        wins += got == set(supp.tolist())
    assert wins >= 9
