"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print; tolerances are pinned here and nowhere else.
"""

import itertools
import math
import time

import numpy as np

from sparserec.codes import (
    ListRecoveryInstance,
    LWCode,
    RSCode,
    lw_join,
    rs_list_recover,
)
from sparserec.expander import SignedSketchOperator, verify_expansion
from sparserec.experiment import records_to_csv, run_experiment
from sparserec.fields import FieldSpec
from sparserec.lowerbound import adversarial_pair, decoder_fails, find_spike, null_projector
from sparserec.seeds import derive_seed
from sparserec.signals import SignalSpec, gen_signal
from sparserec.toplevel import (
    TopLevelConfig,
    TopLevelSystem,
    omp_baseline,
    repeat_median_amplify,
)
from sparserec.vectors import tail_norm
from sparserec.weak import WeakParams, median_estimates, weak_identify


def _report(num: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _random_projection_sets(rng, d, sigma, max_size):
    full = list(itertools.product(range(sigma), repeat=d - 1))
    out = []
    for _ in range(d):
        size = int(rng.integers(0, min(max_size, len(full)) + 1))
        picks = rng.choice(len(full), size=size, replace=False)
        out.append({full[int(j)] for j in picks})
    return out


def _oracle_join(sets, d, sigma, agree_at_least):
    sets = [set(map(tuple, s)) for s in sets]
    return sorted(
        v for v in itertools.product(range(sigma), repeat=d)
        if sum(v[:i] + v[i + 1:] in sets[i] for i in range(d)) >= agree_at_least
    )


def test_criterion_1_lw_join_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst_elapsed = 0.0
    for trial in range(500):
        d = int(rng.choice([2, 3, 4]))
        sigma = int(rng.integers(2, 7))
        sets = _random_projection_sets(rng, d, sigma, max_size=20)
        started = time.perf_counter()
        got = lw_join(sets)
        worst_elapsed = max(worst_elapsed, time.perf_counter() - started)
        assert got == _oracle_join(sets, d, sigma, d)
        ks = [len(s) for s in sets]
        if min(ks) > 0:
            bound = (d - 1) * float(np.prod(ks)) ** (1.0 / (d - 1))
            assert len(got) <= math.ceil(bound)
    _report(1, worst_elapsed < 1.0,
            f"500 joins match the brute-force oracle; slowest {worst_elapsed:.3f}s")


def test_criterion_2_error_tolerant_lw():
    rng = np.random.default_rng(202)
    checked = 0
    for trial in range(500):
        d = int(rng.choice([2, 3, 4]))
        e = int(rng.integers(0, min(1, d - 2) + 1))
        sigma = int(rng.integers(2, 7))
        sets = _random_projection_sets(rng, d, sigma, max_size=20)
        got = lw_join(sets, errors=e)
        assert got == _oracle_join(sets, d, sigma, d - e)
        ks = [len(s) for s in sets]
        bound = sum(
            (d - i - 1) * float(np.prod([ks[j] for j in range(d) if j not in bad]))
            ** (1.0 / (d - i - 1))
            for i in range(e + 1)
            for bad in itertools.combinations(range(d), i)
        )
        assert len(got) <= math.ceil(bound)
        checked += 1
    _report(2, checked == 500,
            "500 tolerant joins (e in {0,1}) match the >= d-e agreement oracle")


def _oracle_rs(code, sets, rho):
    need = code.r - code.max_disagreements(rho)
    table = code.encode_all()
    hits = np.zeros(code.n, dtype=np.int64)
    for i in range(code.r):
        vals = sorted(set(sets[i]))
        if vals:
            hits += np.isin(table[:, i], vals)
    return sorted(np.flatnonzero(hits >= need).tolist())


def test_criterion_3_rs_list_recovery_oracle_equivalence():
    rng = np.random.default_rng(303)
    codes = {}
    for trial in range(200):
        q = int(rng.choice([16, 64]))
        b = int(rng.integers(1, 4))
        r = int(rng.integers(b + 1, 8))
        regime = 0.5 * (1 - b / r)
        if regime <= 0:
            continue
        rho = float(rng.random()) * (regime - 1e-9)
        key = (q, b, r)
        if key not in codes:
            codes[key] = RSCode(FieldSpec.of_size(q), b=b, r=r)
        code = codes[key]
        ell = 4
        sets = [
            set(rng.choice(q, size=int(rng.integers(0, ell + 1)),
                           replace=False).tolist())
            for _ in range(r)
        ]
        inst = ListRecoveryInstance(sets=sets, rho=rho, ell=ell)
        assert rs_list_recover(code, inst) == _oracle_rs(code, sets, rho)
    _report(3, True, "200 Reed-Solomon instances match exhaustive enumeration")


def test_criterion_4_code_uniformity():
    codes = [
        LWCode(4096, 2),
        LWCode(4096, 3),
        LWCode(4096, 4),
        RSCode(FieldSpec.binary(4), b=3, r=7),   # n = 4096 over GF(16)
        RSCode(FieldSpec.binary(6), b=2, r=7),   # n = 4096 over GF(64)
    ]
    for code in codes:
        table = code.encode_all()
        per_symbol = code.n // code.q
        for i in range(code.r):
            counts = np.bincount(table[:, i], minlength=code.q)
            assert np.all(counts == per_symbol), (code.kind, i)
    _report(4, True,
            "LW/RS coordinate histograms exactly flat by full enumeration")


def test_criterion_5_orthoprojector_identities():
    rng = np.random.default_rng(505)
    for trial in range(50):
        m = int(rng.integers(1, 51))
        n = int(rng.integers(max(2 * m, 20), 501))
        phi = rng.normal(size=(m, n))
        proj = null_projector(phi)
        p = proj.matrix
        assert np.linalg.norm(p @ p - p) <= 1e-9
        assert np.linalg.norm(phi @ p) <= 1e-9 * np.linalg.norm(phi)
        assert abs(np.trace(p) - (n - m)) <= 1e-6
        _, value = find_spike(proj)
        assert value >= 1 - m / n - 1e-9
    _report(5, True, "50 random projectors satisfy all identities")


def test_criterion_6_adversarial_dichotomy():
    rng = np.random.default_rng(606)
    gamma = c = None
    for trial in range(20):
        phi = rng.normal(size=(20, 400))
        gamma, c = 1.0 / 28, 1.0
        pair = adversarial_pair(phi, gamma, c, seed=trial)
        assert np.linalg.norm(phi @ (pair.v - pair.v_prime)) <= 1e-9 * np.linalg.norm(phi)

        def omp_decoder(y, phi=phi):
            return omp_baseline(phi, y, k=1)

        fails_v = decoder_fails(omp_decoder, phi, pair.v, 1, c)
        fails_vp = decoder_fails(omp_decoder, phi, pair.v_prime, 1, c)
        assert fails_v or fails_vp
    _report(6, True,
            "20 reflection pairs share sketches and defeat the OMP wrapper")


def test_criterion_7_weak_system_estimation():
    n, k, eta, ell, gamma = 2048, 16, 0.25, 16, 0.1
    buckets = 1024
    params = WeakParams(k=k, eta=eta, ell=ell)
    cert = verify_expansion(
        SignedSketchOperator.build(n, ell, buckets, seed=derive_seed(707, "g"),
                                   sign_independence=64).graph,
        t=2, eps=0.25)
    assert cert.verified
    good = total = 0
    trials_ok = 0
    for t in range(50):
        seed = derive_seed(707, f"trial/{t}")
        op = SignedSketchOperator.build(n, ell, buckets, seed=seed,
                                        sign_independence=64)
        rng = np.random.default_rng(seed & 0xFFFF)
        supp = rng.choice(n, k, replace=False)
        x = rng.normal(size=n) / math.sqrt(n)
        x[supp] = rng.choice([-1.0, 1.0], k)
        z_norm = tail_norm(x, k)
        sketch = op.apply(x)
        est = median_estimates(op, sketch, np.arange(n))
        good += int(np.sum(np.abs(x - est) <= math.sqrt(eta / k) * z_norm))
        total += n
        found = weak_identify(op, sketch, np.arange(n), params)
        missed = len(set(supp.tolist()) - set(found.tolist()))
        trials_ok += missed <= gamma * k
    frac = good / total
    ok = frac >= 0.90 and trials_ok >= 45
    _report(7, ok,
            f"estimate bound holds for {frac:.1%} of coordinates; "
            f"identification within the miss budget in {trials_ok}/50 trials")


def _recursive_config(n: int, code_kind: str, arity: int) -> TopLevelConfig:
    return TopLevelConfig(
        n=n, k=8, epsilon=0.5, engine="recursive", ell=9, sign_independence=16,
        tree=dict(code_kind=code_kind, arity=arity, leaf_target=128 if n <= 4096 else 256,
                  scheme="scheme2", ell=8, gamma=0.1, s=1),
    )


def test_criterion_8_end_to_end_and_sublinear_decode():
    # part 1: exact-sparse recovery through the LW(3) recursive system
    n, k = 4096, 8
    cfg = _recursive_config(n, "lw", 3)
    wins = 0
    trials = 200
    for t in range(trials):
        seed = derive_seed(808, f"trial/{t}")
        system = TopLevelSystem(cfg, seed)
        rng = np.random.default_rng(seed & 0xFFFFFF)
        x = np.zeros(n)
        supp = rng.choice(n, k, replace=False)
        x[supp] = rng.choice([-1.0, 1.0], k) * (1 + rng.random(k))
        x_hat = system.decode(system.encode(x))
        wins += np.linalg.norm(x - x_hat) <= 1e-6 * np.linalg.norm(x)
    recovery_ok = wins >= 0.9 * trials

    # part 2: decode time against the all-N median scan at N = 2^16
    big = 1 << 16
    scan_cfg = TopLevelConfig(n=big, k=k, epsilon=0.5, engine="scan", ell=9,
                              sign_independence=16)
    rec_cfg = _recursive_config(big, "split", 2)
    rng = np.random.default_rng(8080)
    x = np.zeros(big)
    supp = rng.choice(big, k, replace=False)
    x[supp] = rng.choice([-1.0, 1.0], k) * (1 + rng.random(k))
    scan_sys = TopLevelSystem(scan_cfg, seed=1)
    rec_sys = TopLevelSystem(rec_cfg, seed=2)
    scan_sk, rec_sk = scan_sys.encode(x), rec_sys.encode(x)

    def timed_decode(system, sketch):
        t0 = time.perf_counter()
        out = system.decode(sketch)
        return time.perf_counter() - t0, out

    # five decodes each, alternating scan and recursive, so host drift
    # lands on both sides
    scan_times, rec_times = [], []
    for _ in range(5):
        t, xh_scan = timed_decode(scan_sys, scan_sk)
        scan_times.append(t)
        t, xh_rec = timed_decode(rec_sys, rec_sk)
        rec_times.append(t)
    t_scan, t_rec = float(np.median(scan_times)), float(np.median(rec_times))
    assert np.linalg.norm(x - xh_scan) <= 1e-6 * np.linalg.norm(x)
    assert np.linalg.norm(x - xh_rec) <= 1e-6 * np.linalg.norm(x)
    ratio = t_rec / t_scan
    ok = recovery_ok and ratio < 0.5
    _report(8, ok,
            f"exact recovery in {wins}/{trials} trials; decode-time ratio "
            f"{ratio:.3f} at N=2^16 (recursive {t_rec*1e3:.0f}ms vs scan "
            f"{t_scan*1e3:.0f}ms)")


def test_criterion_9_amplification_monotone_and_median_bound():
    n, k, s, c_factor = 256, 4, 5, 3.0
    cfg = TopLevelConfig(n=n, k=k, epsilon=0.5, engine="scan", ell=7,
                         bucket_factor=2.0, min_buckets=16, sign_independence=16)
    trials = 500
    fail1 = fail5 = joint = violations = 0
    for t in range(trials):
        seed = derive_seed(909, f"trial/{t}")
        spec = SignalSpec(n=n, k=k, value_model="unit", tail_model="gaussian",
                          tail_sigma=0.05, seed=derive_seed(seed, "sig"))
        x, _ = gen_signal(spec)
        bound = c_factor * tail_norm(x, k)
        systems = [TopLevelSystem(cfg, derive_seed(seed, f"copy/{c}"))
                   for c in range(s)]
        flats = [sys_.encode(x) for sys_ in systems]
        errs = [float(np.linalg.norm(x - sys_.decode(fl)))
                for sys_, fl in zip(systems, flats)]
        err5 = float(np.linalg.norm(x - repeat_median_amplify(systems, flats)))
        fail1 += errs[0] > bound
        fail5 += err5 > bound
        if max(errs) <= bound:  # every copy individually within D
            joint += 1
            violations += err5 > math.sqrt(3) * bound
    ok = fail5 <= fail1 and violations == 0 and fail1 > 0 and joint > 0
    _report(9, ok,
            f"failures s=5: {fail5} <= s=1: {fail1}; median within sqrt(3)*D "
            f"on all {joint} jointly successful trials")


def test_criterion_10_omp_baseline():
    n, k = 1024, 10
    m = math.ceil(4 * k * math.log(n / k))
    rng = np.random.default_rng(1010)
    wins = 0
    for trial in range(100):
        phi = rng.normal(size=(m, n)) / math.sqrt(m)
        x = np.zeros(n)
        supp = rng.choice(n, k, replace=False)
        x[supp] = rng.choice([-1.0, 1.0], k) * (1 + rng.random(k))
        x_hat = omp_baseline(phi, phi @ x, k)
        got = set(np.argsort(-np.abs(x_hat))[:k].tolist())
        wins += got == set(supp.tolist())
    _report(10, wins >= 95, f"exact support recovery in {wins}/100 trials "
            f"(m={m})")


def test_criterion_11_experiment_determinism():
    config = {
        "schema_version": 1,
        "seed": 24601,
        "trials": 5,
        "system": {"type": "toplevel", "n": 1024, "k": 4, "epsilon": 0.5,
                   "engine": "recursive", "ell": 9, "sign_independence": 16,
                   "tree": {"code_kind": "lw", "arity": 3, "leaf_target": 64,
                            "scheme": "scheme2", "ell": 8, "s": 1}},
        "signal": {"n": 1024, "k": 4, "tail_model": "gaussian",
                   "tail_sigma": 0.01},
        "success": {"ratio_threshold": 2.0},
    }
    first = records_to_csv(run_experiment(dict(config))[0])
    second = records_to_csv(run_experiment(dict(config))[0])
    _report(11, first == second and len(first.splitlines()) == 6,
            "repeated experiment reproduces byte-identical CSV")
