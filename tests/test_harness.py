import json

import numpy as np
import pytest

from sparserec import binio
from sparserec.cli import main
from sparserec.errors import UsageError
from sparserec.experiment import (
    records_to_csv,
    run_experiment,
    validate_config,
    wilson_interval,
)
from sparserec.signals import SignalSpec, gen_signal
from sparserec.vectors import tail_norm


# --- signals ---

def test_no_tail_is_exactly_sparse():
    x, head = gen_signal(SignalSpec(n=256, k=8, seed=1))
    assert np.count_nonzero(x) == 8
    assert np.array_equal(np.flatnonzero(x), head)
    assert tail_norm(x, 8) == 0.0


def test_zero_head_gaussian_tail_is_pure_noise():
    spec = SignalSpec(n=128, k=0, tail_model="gaussian", tail_sigma=0.5, seed=2)
    x, head = gen_signal(spec)
    assert head.size == 0
    assert np.count_nonzero(x) > 100
    assert tail_norm(x, 0) == pytest.approx(np.linalg.norm(x))


def test_power_law_magnitudes():
    x, head = gen_signal(SignalSpec(n=512, k=16, value_model="power-law", seed=3))
    mags = np.sort(np.abs(x[head]))[::-1]
    assert np.allclose(mags, 1.0 / np.arange(1, 17))


def test_signal_reproducible_and_seed_sensitive():
    spec = dict(n=256, k=4, tail_model="gaussian", tail_sigma=0.1)
    a, _ = gen_signal(SignalSpec(seed=7, **spec))
    b, _ = gen_signal(SignalSpec(seed=7, **spec))
    c, _ = gen_signal(SignalSpec(seed=8, **spec))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_head_and_tail_disjoint():
    spec = SignalSpec(n=256, k=8, value_model="unit", tail_model="heavy-tail",
                      tail_count=16, tail_level=0.3, seed=4)
    x, head = gen_signal(spec)
    assert np.all(np.abs(x[head]) == 1.0)
    assert np.count_nonzero(x) == 8 + 16


def test_clustered_support_is_contiguous():
    x, head = gen_signal(SignalSpec(n=100, k=5,
                                    support_model="adversarial-clustered", seed=5))
    span = (head - head[0]) % 100
    assert sorted(span.tolist()) == [0, 1, 2, 3, 4]


def test_signal_spec_validation():
    with pytest.raises(UsageError):
        SignalSpec(n=10, k=11)
    with pytest.raises(UsageError):
        SignalSpec(n=10, k=2, value_model="cauchy")
    with pytest.raises(UsageError):
        SignalSpec(n=10, k=2, tail_model="heavy-tail", tail_count=9)


# --- binary format ---

def test_vector_roundtrip_bytes():
    x = np.array([1.5, -2.25, 0.0, 1e-300])
    blob = binio.vector_to_bytes(x)
    assert blob[:8] == b"SPRSREC1"
    assert np.array_equal(binio.vector_from_bytes(blob), x)


def test_vector_bad_magic_and_truncation():
    x = np.arange(4, dtype=float)
    blob = binio.vector_to_bytes(x)
    with pytest.raises(UsageError):
        binio.vector_from_bytes(b"WRONGMAG" + blob[8:])
    with pytest.raises(UsageError):
        binio.vector_from_bytes(blob[:-8])


def test_vector_file_roundtrip(tmp_path):
    path = tmp_path / "x.bin"
    x = np.random.default_rng(0).normal(size=33)
    binio.write_vector(path, x)
    assert np.array_equal(binio.read_vector(path), x)


def test_matrix_csv_roundtrip(tmp_path):
    path = tmp_path / "phi.csv"
    m = np.random.default_rng(1).normal(size=(5, 7))
    binio.write_matrix_csv(path, m)
    assert np.array_equal(binio.read_matrix_csv(path), m)


# --- experiment runner ---

def _base_config(**overrides):
    cfg = {
        "schema_version": 1,
        "seed": 12345,
        "trials": 4,
        "system": {"type": "toplevel", "n": 128, "k": 2, "epsilon": 0.5,
                   "engine": "scan", "ell": 7, "bucket_factor": 8.0},
        "signal": {"n": 128, "k": 2, "tail_model": "gaussian",
                   "tail_sigma": 0.02},
        "success": {"ratio_threshold": 2.0},
    }
    cfg.update(overrides)
    return cfg


def test_zero_trials_flagged():
    records, summary = run_experiment(_base_config(trials=0))
    assert records == []
    assert summary["failure_rate"] is None
    assert summary["failure_rate_defined"] is False


def test_oracle_decoder_never_fails():
    cfg = _base_config(trials=6)
    cfg["system"] = {"type": "oracle"}
    records, summary = run_experiment(cfg)
    assert summary["failures"] == 0
    assert all(r.l2_error == 0 for r in records)


def test_experiment_csv_byte_identical():
    a = records_to_csv(run_experiment(_base_config())[0])
    b = records_to_csv(run_experiment(_base_config())[0])
    assert a == b
    c = records_to_csv(run_experiment(_base_config(seed=999))[0])
    assert a != c


def test_experiment_metrics_self_consistent():
    records, _ = run_experiment(_base_config())
    from sparserec.seeds import derive_seed
    from sparserec.toplevel import TopLevelConfig, TopLevelSystem

    cfg = _base_config()
    for r in records:
        spec = SignalSpec(seed=derive_seed(r.seed, "signal"), **cfg["signal"])
        x, _ = gen_signal(spec)
        base = {k: v for k, v in cfg["system"].items() if k not in ("type", "copies")}
        system = TopLevelSystem(TopLevelConfig(**base),
                                derive_seed(r.seed, "system/0"))
        x_hat = system.decode(system.encode(x))
        assert abs(float(np.linalg.norm(x - x_hat)) - r.l2_error) <= 1e-12
        if r.tail_norm > 0:
            assert r.ratio == pytest.approx(r.l2_error / r.tail_norm)


def test_config_validation_rejects_unknown_keys():
    for mutate in (
        lambda c: c.update(bogus=1),
        lambda c: c["system"].update(bogus=1),
        lambda c: c["signal"].update(bogus=1),
        lambda c: c["success"].update(bogus=1),
    ):
        cfg = _base_config()
        mutate(cfg)
        with pytest.raises(UsageError):
            validate_config(cfg)
    with pytest.raises(UsageError):
        validate_config(_base_config(schema_version=2))
    bad = _base_config()
    del bad["seed"]
    with pytest.raises(UsageError):
        validate_config(bad)


def test_config_d_exp_is_accepted_and_ignored():
    cfg = _base_config()
    cfg["system"]["d_exp"] = 6
    validate_config(cfg)
    assert (records_to_csv(run_experiment(cfg)[0])
            == records_to_csv(run_experiment(_base_config())[0]))


@pytest.mark.parametrize("engine", ["scan", "recursive"])
def test_config_tree_gamma_is_accepted_and_ignored(engine):
    tree = {"code_kind": "lw", "arity": 3, "leaf_target": 64}
    plain, cfg = _base_config(), _base_config()
    plain["system"].update(engine=engine, tree=tree)
    cfg["system"].update(engine=engine, tree=dict(tree, gamma=0.1))
    validate_config(cfg)
    records, summary = run_experiment(cfg)
    plain_records, plain_summary = run_experiment(plain)
    assert summary["measurements"] == plain_summary["measurements"]
    assert records_to_csv(records) == records_to_csv(plain_records)


def test_config_system_block_accepts_every_config_field():
    from dataclasses import asdict

    from sparserec.toplevel import TopLevelConfig

    cfg = _base_config()
    cfg["system"] = {"type": "toplevel", "copies": 1,
                     **asdict(TopLevelConfig(n=128, k=2, ell=7))}
    validate_config(cfg)


def test_amplification_sweep_failure_non_increasing():
    rates = {}
    for copies in (1, 3, 5):
        cfg = {
            "schema_version": 1,
            "seed": 4242,
            "trials": 60,
            "system": {"type": "toplevel", "n": 256, "k": 4, "epsilon": 0.5,
                       "engine": "scan", "ell": 7, "bucket_factor": 2.0,
                       "min_buckets": 16, "sign_independence": 16,
                       "copies": copies},
            "signal": {"n": 256, "k": 4, "value_model": "unit",
                       "tail_model": "gaussian", "tail_sigma": 0.05},
            "success": {"ratio_threshold": 3.0},
        }
        _, summary = run_experiment(cfg)
        rates[copies] = summary["failure_rate"]
    tolerance = 1.645 * np.sqrt(0.25 / 60)  # one-sided binomial slack
    assert rates[3] <= rates[1] + tolerance
    assert rates[5] <= rates[3] + tolerance
    assert rates[1] > 0  # the regime is marginal on purpose


def test_wilson_interval_basics():
    assert wilson_interval(0, 0) is None
    lo, hi = wilson_interval(0, 100)
    assert lo <= 1e-12 and 0 < hi < 0.06
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi


# --- command line ---

def test_cli_gen_matrix_and_verify(tmp_path):
    out = tmp_path / "g.json"
    assert main(["gen-matrix", "--n", "32", "--ell", "4", "--buckets", "64",
                 "--seed", "3", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["n_left"] == 32
    cert = tmp_path / "cert.json"
    assert main(["verify-expander", "--n", "32", "--ell", "4", "--buckets",
                 "512", "--seed", "3", "--t", "2", "--eps", "0.5",
                 "--out", str(cert)]) == 0
    assert json.loads(cert.read_text())["verified"] is True


def test_cli_verify_expander_infeasible_exit_code():
    assert main(["verify-expander", "--n", "4096", "--ell", "4", "--buckets",
                 "64", "--t", "4", "--eps", "0.25"]) == 2


def test_cli_encode_decode_roundtrip(tmp_path):
    from sparserec.toplevel import TopLevelConfig, TopLevelSystem

    system = TopLevelSystem(TopLevelConfig(n=128, k=2, engine="scan", ell=7), seed=5)
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(system.to_json())
    x = np.zeros(128)
    x[[3, 77]] = [2.0, -1.0]
    binio.write_vector(tmp_path / "x.bin", x)
    assert main(["encode", "--system", str(sys_path), "--signal",
                 str(tmp_path / "x.bin"), "--out", str(tmp_path / "u.bin")]) == 0
    assert main(["decode", "--system", str(sys_path), "--sketch",
                 str(tmp_path / "u.bin"), "--out", str(tmp_path / "xh.bin")]) == 0
    x_hat = binio.read_vector(tmp_path / "xh.bin")
    assert np.linalg.norm(x - x_hat) <= 1e-9


def test_cli_decode_refuses_a_descriptor_with_another_measurement_count(tmp_path, capsys):
    from sparserec.toplevel import TopLevelConfig, TopLevelSystem

    tree = dict(code_kind="split", leaf_target=64, scheme="scheme2")
    system = TopLevelSystem(TopLevelConfig(n=1024, k=4, engine="recursive", ell=7,
                                           tree=tree), seed=43)
    blob = json.loads(system.to_json())
    assert blob["measurements"] == 4712
    blob["measurements"] = 8080
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps(blob))
    binio.write_vector(tmp_path / "u.bin", np.zeros(8080))
    assert main(["decode", "--system", str(sys_path), "--sketch", str(tmp_path / "u.bin"),
                 "--out", str(tmp_path / "xh.bin")]) == 1
    err = capsys.readouterr().err
    assert "8080" in err and "4712" in err
    assert not (tmp_path / "xh.bin").exists()


def test_cli_decode_refuses_a_descriptor_without_the_sign_family(tmp_path, capsys):
    from sparserec.toplevel import TopLevelConfig, TopLevelSystem

    system = TopLevelSystem(TopLevelConfig(n=1024, k=4, engine="scan", ell=7), seed=43)
    blob = json.loads(system.to_json())
    del blob["sign_family"]  # as written before signs were hashed per vertex
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps(blob))
    binio.write_vector(tmp_path / "u.bin", np.zeros(system.measurement_count))
    assert main(["decode", "--system", str(sys_path), "--sketch", str(tmp_path / "u.bin"),
                 "--out", str(tmp_path / "xh.bin")]) == 1
    assert "sign family None" in capsys.readouterr().err
    assert not (tmp_path / "xh.bin").exists()


@pytest.mark.parametrize("engine", ["scan", "recursive"])
def test_cli_decode_trace_replays_to_the_output(tmp_path, engine):
    from sparserec.toplevel import TopLevelConfig, TopLevelSystem

    tree = dict(code_kind="lw", arity=3, leaf_target=64, scheme="scheme2")
    system = TopLevelSystem(TopLevelConfig(n=1024, k=4, engine=engine, ell=7, tree=tree),
                            seed=6)
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(system.to_json())
    rng = np.random.default_rng(9)
    x = rng.normal(size=1024) * 0.08  # a tail, so several stages add entries
    x[rng.choice(1024, 4, replace=False)] += [3.0, -2.0, 1.5, 2.5]
    binio.write_vector(tmp_path / "u.bin", system.encode(x))
    assert main(["decode", "--system", str(sys_path), "--sketch", str(tmp_path / "u.bin"),
                 "--out", str(tmp_path / "xh.bin"),
                 "--trace", str(tmp_path / "trace.json")]) == 0
    x_hat = binio.read_vector(tmp_path / "xh.bin")
    records = json.loads((tmp_path / "trace.json").read_text())
    assert [r["stage"] for r in records] == [s.spec.index for s in system.stages]
    assert sum(len(r["indices"]) > 0 for r in records) >= 2
    replay = np.zeros(1024)
    for rec in records:
        replay[np.asarray(rec["indices"], dtype=np.int64)] += rec["values"]
    assert replay.tobytes() == x_hat.tobytes()


def test_cli_experiment_runs_and_reruns_identically(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(trials=3)))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    summary = tmp_path / "s.json"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out1),
                 "--summary", str(summary)]) == 0
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(summary.read_text())["trials"] == 3


def test_cli_experiment_rejects_unknown_tree_option(tmp_path, capsys):
    cfg = _base_config(trials=2)
    cfg["system"].update(engine="recursive", tree={"leaf_targte": 64})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "leaf_targte" in err
    assert not out.exists()


@pytest.mark.parametrize("where,key,value", [
    (None, "seed", "abc"), (None, "seed", -5), (None, "seed", 1 << 64), (None, "seed", True),
    ("system", "copies", "two"), ("system", "copies", 2.7), ("system", "copies", 0),
    ("system", "copies", True), ("success", "ratio_threshold", "x"),
    ("success", "exact_rel_tol", None), ("success", "ratio_threshold", False),
])
def test_cli_experiment_refuses_bad_seed_copies_and_thresholds(tmp_path, capsys, where, key,
                                                               value):
    cfg = _base_config(trials=1)
    (cfg if where is None else cfg[where])[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage error:" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("system,key", [
    (dict(ell=2.5), "ell"), (dict(tree=dict(cap=-5)), "cap"),
    (dict(bucket_factor=float("nan")), "bucket_factor"),
])
def test_cli_experiment_refuses_bad_system_values(tmp_path, capsys, system, key):
    # on the recursive engine, cap -5 decoded nothing and ell 2.5 failed with
    # a TypeError at the first encode
    cfg = _base_config(trials=1)
    cfg["system"].update(engine="recursive", **system)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage error:" in err and key in err
    assert not out.exists()


def test_cli_experiment_refuses_a_negative_seed_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(trials=1)))
    out = tmp_path / "out.csv"
    assert main(["experiment", "--config", str(cfg_path), "--seed", "-5",
                 "--out", str(out)]) == 1
    assert "usage error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_lw_join(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "projections": [[[0], [1]], [[0], [2]]],
    }))
    out = tmp_path / "out.json"
    assert main(["lw-join", "--in", str(inst), "--out", str(out)]) == 0
    got = {tuple(v) for v in json.loads(out.read_text())["vectors"]}
    from sparserec.codes import lw_join

    want = set(lw_join([{(0,), (1,)}, {(0,), (2,)}]))
    assert got == want


def test_cli_rs_recover(tmp_path):
    from sparserec.codes import RSCode
    from sparserec.fields import FieldSpec

    code = RSCode(FieldSpec.of_size(16), b=2, r=5)
    cw = code.encode(200)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"q": 16, "b": 2, "r": 5, "rho": 0.0,
                                "sets": [[c] for c in cw]}))
    out = tmp_path / "out.json"
    assert main(["rs-recover", "--in", str(inst), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["messages"] == [200]


@pytest.mark.parametrize("change", [
    dict(sets=3), dict(sets=5), dict(symbol="a"), dict(symbol=1.5),
    dict(points=[0, 1, 2, 99]),
])
def test_cli_rs_recover_refuses_malformed_input(tmp_path, capsys, change):
    from sparserec.codes import RSCode
    from sparserec.fields import FieldSpec

    sets = [[c] for c in RSCode(FieldSpec.of_size(16), b=2, r=4).encode(200)]
    sets = (sets + sets)[:change.get("sets", 4)]
    if "symbol" in change:
        sets[2].append(change["symbol"])
    blob = {"q": 16, "b": 2, "r": 4, "rho": 0.0, "sets": sets}
    if "points" in change:
        blob["points"] = change["points"]
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(blob))
    out = tmp_path / "out.json"
    assert main(["rs-recover", "--in", str(inst), "--out", str(out)]) == 1
    assert "usage error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("change", [
    dict(sets=[1, 2, 3, 4]), dict(points=["a", 1, 2, 3]), dict(points=[0.0, 1.5, 2, 3]),
    dict(points=5), dict(rho="x"), dict(q="x"), dict(b="2"), dict(r=4.0), dict(q=True),
    dict(b=True),
], ids=["bare-int-sets", "text-point", "float-points", "bare-int-points", "text-rho", "text-q",
        "text-b", "float-r", "bool-q", "bool-b"])
def test_cli_rs_recover_refuses_values_of_the_wrong_type(tmp_path, capsys, change):
    blob = {"q": 16, "b": 2, "r": 4, "rho": 0.0, "sets": [[1], [2], [3], [4]], **change}
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(blob))
    out = tmp_path / "out.json"
    assert main(["rs-recover", "--in", str(inst), "--out", str(out)]) == 1
    assert "usage error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rs_recover_refuses_a_negative_rho(tmp_path, capsys):
    # it printed {"messages": []}: no message agrees on more than r coordinates
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    inst.write_text(json.dumps({"q": 16, "b": 2, "r": 4, "rho": -1.0,
                                "sets": [[1], [2], [3], [4]]}))
    assert main(["rs-recover", "--in", str(inst), "--out", str(out)]) == 1
    assert "usage error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_decode_refuses_a_sketch_with_nan(tmp_path, capsys):
    from sparserec.toplevel import TopLevelConfig, TopLevelSystem

    system = TopLevelSystem(TopLevelConfig(n=128, k=2, engine="scan", ell=7), seed=5)
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(system.to_json())
    x = np.zeros(128)
    x[[3, 77]] = [2.0, -1.0]
    sketch = system.encode(x)
    sketch[5] = np.nan
    binio.write_vector(tmp_path / "u.bin", sketch)
    assert main(["decode", "--system", str(sys_path), "--sketch",
                 str(tmp_path / "u.bin"), "--out", str(tmp_path / "xh.bin")]) == 1
    assert "usage error:" in capsys.readouterr().err
    assert not (tmp_path / "xh.bin").exists()


@pytest.mark.parametrize("projections", [[[0, 1], [0, 2]], [[[0], 1], [[0], [2]]], [5, 6]])
def test_cli_lw_join_refuses_projection_vectors_that_are_not_lists(tmp_path, capsys,
                                                                   projections):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"projections": projections}))
    out = tmp_path / "out.json"
    assert main(["lw-join", "--in", str(inst), "--out", str(out)]) == 1
    assert "usage error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rs_recover_large_fields(tmp_path, capsys):
    # GF(4294967311) with b = 1 is recovered; with b = 2 its message space
    # passes 2^63, which the int64 keys of RS recovery cannot hold
    inst = tmp_path / "inst.json"
    out = tmp_path / "out.json"
    inst.write_text(json.dumps({"q": 4294967311, "b": 1, "r": 3, "rho": 0.0,
                                "sets": [[4294967300]] * 3}))
    assert main(["rs-recover", "--in", str(inst), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["messages"] == [4294967300]
    for q, b in [(4294967311, 2), (2**64, 1)]:
        inst.write_text(json.dumps({"q": q, "b": b, "r": 3, "rho": 0.0,
                                    "sets": [[1]] * 3}))
        assert main(["rs-recover", "--in", str(inst), "--out", str(out)]) == 2
        assert "2^63" in capsys.readouterr().err


def test_cli_lowerbound_demo(tmp_path):
    out = tmp_path / "report.json"
    assert main(["lowerbound-demo", "--m", "20", "--n", "400", "--c", "1.0",
                 "--gamma", str(1 / 28), "--seed", "4", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["fails_on_v"] or report["fails_on_v_prime"]
    assert report["sketch_gap"] <= 1e-9 * 400


def test_cli_omp(tmp_path):
    rng = np.random.default_rng(6)
    phi = rng.normal(size=(40, 100))
    x = np.zeros(100)
    x[[5, 50]] = [1.0, -2.0]
    binio.write_matrix_csv(tmp_path / "phi.csv", phi)
    binio.write_vector(tmp_path / "y.bin", phi @ x)
    assert main(["omp", "--phi", str(tmp_path / "phi.csv"), "--sketch",
                 str(tmp_path / "y.bin"), "--k", "2",
                 "--out", str(tmp_path / "xh.bin")]) == 0
    x_hat = binio.read_vector(tmp_path / "xh.bin")
    assert np.linalg.norm(x - x_hat) < 1e-8


def test_cli_usage_errors_exit_1(tmp_path, capsys):
    assert main(["encode", "--system", "/nonexistent", "--signal", "x",
                 "--out", "y"]) == 1
    assert main(["lw-join", "--in", str(tmp_path / "missing.json")]) == 1
    assert main(["bogus-command"]) == 1
    assert main(["lowerbound-demo", "--m", "50", "--n", "100",
                 "--gamma", "0.5"]) == 1  # infeasible gamma/delta pair

    from sparserec.toplevel import TopLevelConfig, TopLevelSystem

    # a descriptor naming a shuffling scheme the library does not have
    system = TopLevelSystem(TopLevelConfig(n=256, k=2, engine="recursive", ell=7,
                                           tree=dict(leaf_target=64)), seed=3)
    blob = json.loads(system.to_json())
    blob["config"]["tree"]["scheme"] = "scheme1"
    (tmp_path / "sys.json").write_text(json.dumps(blob))
    binio.write_vector(tmp_path / "u.bin", system.encode(np.zeros(256)))
    capsys.readouterr()
    assert main(["decode", "--system", str(tmp_path / "sys.json"), "--sketch",
                 str(tmp_path / "u.bin"), "--out", str(tmp_path / "xh.bin")]) == 1
    assert "scheme1" in capsys.readouterr().err
    assert not (tmp_path / "xh.bin").exists()


@pytest.mark.parametrize("key,value", [("alpha", 0.5), ("fingerprint_degree", 0)])
def test_cli_decode_refuses_a_removed_tree_option(tmp_path, capsys, key, value):
    from sparserec.toplevel import TopLevelConfig, TopLevelSystem

    system = TopLevelSystem(TopLevelConfig(n=256, k=2, engine="recursive", ell=7,
                                           tree=dict(leaf_target=64)), seed=3)
    blob = json.loads(system.to_json())
    blob["config"]["tree"][key] = value
    (tmp_path / "sys.json").write_text(json.dumps(blob))
    binio.write_vector(tmp_path / "u.bin", system.encode(np.zeros(256)))
    capsys.readouterr()
    assert main(["decode", "--system", str(tmp_path / "sys.json"), "--sketch",
                 str(tmp_path / "u.bin"), "--out", str(tmp_path / "xh.bin")]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "xh.bin").exists()


def test_cli_numerical_failures_exit_3(monkeypatch):
    from sparserec import cli
    from sparserec.errors import NumericalError

    def boom(args):
        raise NumericalError("synthetic")

    monkeypatch.setitem(cli.build_parser.__globals__, "_cmd_omp", boom)
    assert main(["omp", "--phi", "p", "--sketch", "s", "--k", "1",
                 "--out", "o"]) == 3
