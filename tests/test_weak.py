import math

import numpy as np
import pytest

from sparserec import expander, weak
from sparserec.errors import UsageError
from sparserec.expander import BipartiteGraph, SignedSketchOperator
from sparserec.hashing import SignFamily
from sparserec.vectors import head_indices
from sparserec.weak import (
    WeakLayer,
    WeakParams,
    lower_median,
    majority_amplify,
    median_estimates,
    weak_estimate,
    weak_identify,
)


def _operator(n, ell, m, seed=1):
    return SignedSketchOperator.build(n, ell, m, seed=seed, sign_independence=16)


def test_lower_median_convention():
    assert lower_median(np.array([[1.0, 2.0, 3.0, 4.0]])) == 2.0
    assert lower_median(np.array([[5.0, 1.0]])) == 1.0
    assert lower_median(np.array([[3.0]])) == 3.0
    assert lower_median(np.array([[-1.0, -2.0]])) == -2.0


def test_median_estimates_pick_lower_medians_signed_zeros_included():
    # three heads in roomy buckets: most readings are +0.0, or -0.0 where
    # an empty bucket meets a -1 sign, and every zero median is +0.0
    op = _operator(400, 7, 512, seed=21)
    x = np.zeros(400)
    x[[5, 77, 301]] = [1.5, -2.0, 0.75]
    u = op.apply(x)
    full, some = np.arange(400), np.array([301, 5, 5, 0, 399])
    tables = None
    for indices in (full, some, full):  # the first full-domain call fills the tables
        readings = op.readings(u, indices)
        kept = readings.copy()
        want = lower_median(readings)
        assert np.array_equal(readings.view(np.int64), kept.view(np.int64))  # a copy
        got = median_estimates(op, u, indices)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        if tables is None:
            tables = [t.copy() for t in (op.graph._table, op._sign_table)]
    zeros = np.signbit(median_estimates(op, u, full)[lower_median(op.readings(u, full)) == 0])
    assert not zeros.any()
    # the full-domain readings read the tables in place: the tables are
    # untouched
    assert all(np.array_equal(a, b) for a, b in zip(tables, (op.graph._table, op._sign_table)))


def test_single_spike_estimated_exactly():
    op = _operator(64, 8, 128)
    x = np.zeros(64)
    x[17] = 2.5
    u = op.apply(x)
    assert median_estimates(op, u, np.array([17]))[0] == 2.5


def test_zero_signal_estimates_zero():
    op = _operator(64, 8, 128)
    u = op.apply(np.zeros(64))
    ests = median_estimates(op, u, np.arange(64))
    assert np.array_equal(ests, np.zeros(64))


def test_estimate_depends_only_on_own_buckets():
    op = _operator(128, 6, 256, seed=3)
    rng = np.random.default_rng(0)
    x = rng.normal(size=128)
    u = op.apply(x)
    i = 40
    own = set(op.graph.neighbors(i))
    masked = np.zeros_like(u)
    for j in own:
        masked[j] = u[j]
    i = np.array([i])
    assert median_estimates(op, u, i)[0] == median_estimates(op, masked, i)[0]


def test_weak_identify_recovers_exact_sparse_support():
    params = WeakParams(k=4, eta=0.25, ell=8)
    op = _operator(256, 8, 256, seed=5)
    rng = np.random.default_rng(2)
    supp = rng.choice(256, size=4, replace=False)
    x = np.zeros(256)
    x[supp] = rng.choice([-1.0, 1.0], size=4) * (1 + rng.random(4))
    u = op.apply(x)
    found = weak_identify(op, u, np.arange(256), params)
    assert set(supp.tolist()) <= set(found.tolist())
    assert len(found) <= params.k + math.ceil(params.k / params.eta)


def test_weak_identify_empty_candidates():
    params = WeakParams(k=4, eta=0.25, ell=8)
    op = _operator(64, 8, 64)
    u = op.apply(np.zeros(64))
    assert weak_identify(op, u, [], params).size == 0


def test_weak_identify_permutation_equivariant(monkeypatch):
    n, ell, m = 96, 6, 192
    params = WeakParams(k=3, eta=0.25, ell=ell)
    base = _operator(n, ell, m, seed=9)
    rng = np.random.default_rng(6)
    # dense generic signal with dyadic values: bucket sums are exact in
    # any summation order.  Two indices whose medians read one bucket tie
    # in |estimate|, and a tie across the identification cut would let
    # the smaller-index tie rule break equivariance, so the fixture has none
    x = rng.integers(-(1 << 20), 1 << 20, size=n).astype(float) / (1 << 20)
    supp = rng.choice(n, size=3, replace=False)
    x[supp] += 4.0
    u = base.apply(x)
    found = weak_identify(base, u, np.arange(n), params)
    ranked = np.sort(np.abs(median_estimates(base, u, np.arange(n))))[::-1]
    assert ranked[params.ident_count - 1] > ranked[params.ident_count]

    perm = rng.permutation(n)  # new label of each old index
    inv = np.argsort(perm)
    table = base.graph.neighbors_of(np.arange(n))

    class _RelabeledSigns(SignFamily):
        """base's signs with vertex p read as inv[p]; the edge kernel's one
        hashing entry, `edge_signs`, relabels this family's vertices."""

        def sign(self, i, s):
            return super().sign(int(inv[i]), s)

    edge_signs = expander.edge_signs

    def relabeled(families, sizes, vertices, *rest):
        if isinstance(families[0], _RelabeledSigns):
            assert len(families) == 1
            vertices = inv[np.asarray(vertices)]
        return edge_signs(families, sizes, vertices, *rest)

    monkeypatch.setattr(expander, "edge_signs", relabeled)
    pg = BipartiteGraph.from_neighbors(table[inv], m)
    pop = SignedSketchOperator(pg, _RelabeledSigns(base.signs.seed, base.signs.independence,
                                                   n, ell))
    xp = np.zeros(n)
    xp[perm] = x
    up = pop.apply(xp)
    assert np.array_equal(up, u)
    found_p = weak_identify(pop, up, np.arange(n), params)
    assert np.array_equal(found_p, np.sort(perm[found]))


def test_weak_estimate_exact_on_sparse_signal():
    params = WeakParams(k=4, eta=0.25, ell=8)
    op = _operator(256, 8, 512, seed=6)
    rng = np.random.default_rng(3)
    supp = rng.choice(256, size=4, replace=False)
    x = np.zeros(256)
    x[supp] = rng.normal(size=4) + 3.0
    u = op.apply(x)
    dec = weak_estimate(op, u, np.arange(256), params)
    assert dec.support_size <= params.k + math.ceil(params.k / math.sqrt(params.eta))
    assert np.max(np.abs(dec.to_dense() - x)) < 1e-12


def test_weak_estimate_zero_signal():
    params = WeakParams(k=4, eta=0.25, ell=8)
    op = _operator(64, 8, 64)
    dec = weak_estimate(op, op.apply(np.zeros(64)), np.arange(64), params)
    assert np.array_equal(dec.to_dense(), np.zeros(64))


def test_weak_layer_accepts_unsorted_duplicated_candidates():
    params = WeakParams(k=3, eta=0.25, ell=6)
    op = _operator(200, 6, 96, seed=12)
    rng = np.random.default_rng(5)
    x = rng.normal(size=200) * 0.05
    x[[7, 60, 133]] += [2.0, -3.0, 1.5]
    u = op.apply(x)
    sorted_cands = np.union1d(rng.choice(200, size=90, replace=False), [7, 60, 133])
    messy = [
        np.concatenate([sorted_cands[::-1], sorted_cands[:30]]),  # reversed, repeats
        rng.permutation(np.repeat(sorted_cands, 2)),
        sorted_cands[::-1].tolist(),
        np.sort(np.append(sorted_cands, 60)),  # sorted, one head repeated
    ]
    want_id = weak_identify(op, u, sorted_cands, params)
    want = weak_estimate(op, u, sorted_cands, params)
    for cands in messy:
        assert np.array_equal(np.unique(cands), sorted_cands)
        assert np.array_equal(weak_identify(op, u, cands, params), want_id)
        got = weak_estimate(op, u, cands, params)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))


def test_weak_params_validation():
    with pytest.raises(UsageError):
        WeakParams(k=0, eta=0.25, ell=4)
    with pytest.raises(UsageError):
        WeakParams(k=2, eta=0.0, ell=4)
    with pytest.raises(UsageError):
        WeakParams(k=2, eta=1.0, ell=4)
    p = WeakParams(k=8, eta=0.25, ell=4)
    assert p.ident_count == 8 + 32
    assert p.est_count == 8 + 16


def test_majority_amplify_single_list_identity():
    out = majority_amplify([np.array([5, 1, 9])])
    assert np.array_equal(out, np.array([1, 5, 9]))


def test_majority_amplify_keeps_unanimous_items():
    lists = [np.array([3, 7, 11]), np.array([7, 2, 3]), np.array([3, 7, 50])]
    out = majority_amplify(lists)
    assert {3, 7} <= set(out.tolist())
    assert 11 not in out and 2 not in out and 50 not in out


def test_majority_amplify_output_size_bound():
    rng = np.random.default_rng(7)
    for s in (3, 5, 7):
        lists = [rng.choice(100, size=10, replace=False) for _ in range(s)]
        out = majority_amplify(lists)
        assert len(out) < 2 * 10


def test_weak_layer_measurement_accounting():
    params = WeakParams(k=4, eta=0.25, ell=6, s=3)
    layer = WeakLayer(params=params, domain=128, n_buckets=64, seed=1)
    sketches = layer.encode(np.zeros(128))
    assert len(layer.operators) == len(sketches) == 3 + 1
    assert all(len(u) == 64 for u in sketches)


def test_weak_layer_amplified_pipeline_recovers_planted():
    params = WeakParams(k=4, eta=0.25, ell=8, s=3)
    layer = WeakLayer(params=params, domain=256, n_buckets=256, seed=2)
    rng = np.random.default_rng(5)
    x = np.zeros(256)
    supp = rng.choice(256, size=4, replace=False)
    x[supp] = 5.0
    sketches = layer.encode(x)
    found = layer.identify(sketches, np.arange(256))
    assert set(supp.tolist()) <= set(found.tolist())
    dec = layer.estimate(sketches, found)
    assert np.max(np.abs(dec.to_dense() - x)) < 1e-12


def test_weak_layer_identify_reads_its_copies_in_one_sign_pass_per_copy(monkeypatch):
    # a domain too large for tables: N * ell > _MATERIALIZE_LIMIT
    params = WeakParams(k=4, eta=0.25, ell=6, s=3)
    layer = WeakLayer(params=params, domain=1 << 18, n_buckets=96, seed=17)
    rng = np.random.default_rng(17)
    supp = rng.choice(1 << 18, 4, replace=False)
    x = np.zeros(1 << 18)
    x[supp] = 1.0 + rng.random(4)
    sketches = layer.encode(x)
    cand = np.concatenate([rng.choice(1 << 18, 300), supp])
    want = majority_amplify([weak_identify(op, u, cand, params)
                             for op, u in zip(layer.ident_ops, sketches)])
    passes, edge_signs = [], expander.edge_signs
    monkeypatch.setattr(expander, "edge_signs", lambda families, *rest: (
        passes.append(len(families)) or edge_signs(families, *rest)))
    found = layer.identify(sketches, cand)
    # each copy's candidate rows hash in one single-family pass, tables unbuilt
    assert passes == [1, 1, 1] and not any(op.graph.materialized for op in layer.ident_ops)
    assert np.array_equal(found, want) and set(supp.tolist()) <= set(found.tolist())


def _planted_trial(seed, n, k, ell, m, s, head=1.0, sigma=None):
    """Returns (missed_s1, missed_amplified) for one planted instance."""
    params = WeakParams(k=k, eta=0.25, ell=ell, s=s)
    layer = WeakLayer(params=params, domain=n, n_buckets=m, seed=seed)
    rng = np.random.default_rng(seed ^ 0xABCDEF)
    supp = rng.choice(n, size=k, replace=False)
    x = rng.normal(size=n) * (sigma if sigma is not None else 1.0 / math.sqrt(n))
    x[supp] = head * rng.choice([-1.0, 1.0], size=k)
    sketches = layer.encode(x)
    head_set = set(supp.tolist())
    single = weak_identify(layer.ident_ops[0], sketches[0], np.arange(n), params)
    amplified = layer.identify(sketches, np.arange(n))
    return (len(head_set - set(single.tolist())),
            len(head_set - set(amplified.tolist())))


def test_amplification_failure_rate_not_worse():
    # paired trials; failure = missing more than k/4 planted heads
    n, k, trials = 256, 4, 500
    allowed = 0.25 * k
    fail1 = fail5 = 0
    for t in range(trials):
        m1, m5 = _planted_trial(seed=t, n=n, k=k, ell=4, m=48, s=5, head=0.85)
        fail1 += m1 > allowed
        fail5 += m5 > allowed
    p1, p5 = fail1 / trials, fail5 / trials
    tolerance = 1.645 * math.sqrt(max(p1 * (1 - p1), 1e-4) / trials)
    assert p5 <= p1 + tolerance
    assert fail1 > 0  # the regime is genuinely marginal


def test_median_estimates_mostly_good_under_gaussian_tail():
    n, k, eta, ell, m = 512, 8, 0.25, 12, 512
    good = total = 0
    for seed in range(3):
        op = _operator(n, ell, m, seed=100 + seed)
        rng = np.random.default_rng(seed)
        supp = rng.choice(n, k, replace=False)
        x = rng.normal(size=n) / math.sqrt(n)
        x[supp] = rng.choice([-1.0, 1.0], k)
        order = np.lexsort((np.arange(n), -np.abs(x)))
        z = x.copy()
        z[order[:k]] = 0.0
        u = op.apply(x)
        ests = median_estimates(op, u, np.arange(n))
        good += int(np.sum(np.abs(x - ests) <= math.sqrt(eta / k) * np.linalg.norm(z)))
        total += n
    assert good / total >= 0.95


def test_weak_decomposition_oracle_bounds():
    # rebuild y-hat per the estimator's case analysis and check the
    # residual inflation (1 + 22*sqrt(eta)) on the squared norm
    n, k, ell, m = 512, 8, 12, 1024
    eta = 0.25
    params = WeakParams(k=k, eta=eta, ell=ell)
    op = _operator(n, ell, m, seed=11)
    rng = np.random.default_rng(9)
    supp = rng.choice(n, size=k, replace=False)
    x = rng.normal(size=n) / math.sqrt(n)
    x[supp] = rng.choice([-1.0, 1.0], size=k) * 1.0
    u = op.apply(x)
    dec = weak_estimate(op, u, np.arange(n), params)

    order = np.lexsort((np.arange(n), -np.abs(x)))
    z = x.copy()
    z[order[:k]] = 0.0
    z_norm = np.linalg.norm(z)
    good_bound = math.sqrt(eta / k) * z_norm
    ests = median_estimates(op, u, np.arange(n))
    bad = np.abs(x - ests) > good_bound

    kp = params.est_count
    head_kp = set(order[:kp].tolist())
    sel = set(dec.indices.tolist())
    y_hat = np.zeros(n)
    for i in dec.indices:
        if bad[i]:
            y_hat[i] = x[i] - ests[i]
    displaced = sorted(head_kp - sel)
    intruders = sorted(sel - head_kp)
    for rank, i in enumerate(displaced):
        if bad[i] or (rank < len(intruders) and bad[intruders[rank]]):
            y_hat[i] = x[i]
    z_hat = x - dec.to_dense() - y_hat
    assert np.count_nonzero(y_hat) <= 2 * np.count_nonzero(bad)
    assert np.linalg.norm(z_hat) ** 2 <= (1 + 22 * math.sqrt(eta)) * z_norm**2
    fitted_c = (np.linalg.norm(z_hat) / z_norm - 1) / eta
    assert fitted_c <= 25


def _partition_median(readings):
    """The NaN-last lower median np.partition picks, with +0.0 for a zero."""
    idx = (readings.shape[-1] - 1) // 2
    return np.partition(readings, idx, axis=-1)[..., idx] + 0.0


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("ell", range(1, 17))
def test_median_network_is_a_lower_median_selector_by_the_zero_one_principle(ell):
    # a comparator network selects an order statistic of every input if it
    # does of every 0/1 input: all 2^ell of them at once
    bits = ((np.arange(1 << ell)[:, None] >> np.arange(ell)) & 1).astype(np.float64)
    want = np.sort(bits, axis=1)[:, (ell - 1) // 2]
    assert _same_bits(lower_median(bits), want)
    assert _same_bits(weak._medians(bits), want)


def test_lower_median_matches_partition_on_ties_up_to_ell_61():
    rng = np.random.default_rng(61)
    for ell in range(1, 62):
        readings = rng.integers(-3, 4, size=(300, ell)).astype(np.float64)
        zeros = readings == 0
        readings[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
        kept = readings.copy()
        assert _same_bits(lower_median(readings), _partition_median(readings))
        assert _same_bits(readings, kept)  # the input is not touched
    stacked = rng.integers(-2, 3, size=(4, 5, 9)).astype(np.float64)
    assert _same_bits(lower_median(stacked), _partition_median(stacked))


def test_infinite_readings_give_partition_medians():
    rng = np.random.default_rng(5)
    readings = rng.choice([-np.inf, -1.0, -0.0, 0.0, 2.0, np.inf], size=(500, 9))
    assert _same_bits(lower_median(readings), _partition_median(readings))
    assert lower_median(np.full((1, 8), np.inf))[0] == np.inf


def test_median_network_ranks_nan_last():
    # fmin skips a NaN on each comparator's low side, maximum keeps it on
    # the high side, so NaN ranks above every number, as in np.partition
    readings = np.array([[np.nan, 1.0, 2.0, 3.0, -0.0], [np.nan, np.nan, np.nan, 4.0, 0.0]])
    assert np.array_equal(lower_median(readings), [2.0, np.nan], equal_nan=True)
    op = _operator(300, 9, 64, seed=4)
    x = np.zeros(300)
    x[[3, 150]] = [1.0, -2.0]
    u = op.apply(x)
    u[op.graph.neighbors(3)[0]] = np.nan
    for rows in (np.arange(300), np.array([150, 3, 7])):
        want = _partition_median(op.readings(u, rows))
        assert np.array_equal(median_estimates(op, u, rows), want, equal_nan=True)
        assert np.isnan(want).sum() < rows.size
    est = median_estimates(op, u, np.arange(300))
    assert not np.signbit(est[est == 0]).any()


def test_lower_median_matches_partition_on_nan_inf_and_signed_zeros_up_to_ell_61():
    rng = np.random.default_rng(1961)
    pool = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 2.5])
    for ell in range(1, 62):
        for _ in range(40):
            readings = rng.choice(pool[: rng.integers(1, pool.size + 1)], size=(12, ell))
            want = _partition_median(readings)
            got = lower_median(readings)
            assert np.array_equal(got, want, equal_nan=True)
            assert not np.signbit(got[got == 0]).any()


def test_every_zero_median_is_positive_zero():
    assert _same_bits(lower_median(np.full((3, 4), -0.0)), np.zeros(3))
    assert _same_bits(lower_median(np.array([[-0.0, 0.0, -0.0]])), np.zeros(1))
    op = _operator(400, 8, 512, seed=21)
    x = np.zeros(400)
    x[[5, 77, 301]] = [1.5, -2.0, 0.75]
    u = op.apply(x)
    readings = op.readings(u, np.arange(400))
    assert np.signbit(readings[readings == 0]).any()  # -0.0 readings do occur
    for ests in (median_estimates(op, u, np.arange(400)), lower_median(readings)):
        assert (ests == 0).any() and not np.signbit(ests[ests == 0]).any()


def test_median_estimates_over_filled_tables_equal_the_hashed_twin():
    op, twin = _operator(2048, 9, 96, seed=8), _operator(2048, 9, 96, seed=8)
    rng = np.random.default_rng(8)
    x = rng.normal(size=2048) * 1e-3
    x[rng.choice(2048, 6, replace=False)] += 1.0 + rng.random(6)
    u = op.apply(x)
    full, some = np.arange(2048), np.sort(rng.choice(2048, 300, replace=False))
    median_estimates(op, u, full)  # fills the tables
    assert op._sign_table is not None and twin._sign_table is None
    for rows in (some, some[::-1], full):  # the twin hashes all but the last
        assert twin._sign_table is None
        assert _same_bits(median_estimates(op, u, rows), median_estimates(twin, u, rows))


def test_identification_fills_small_operators_tables_and_estimation_does_not():
    params = WeakParams(k=4, eta=0.25, ell=6, s=3)
    layer, twin = (WeakLayer(params=params, domain=4096, n_buckets=96, seed=19)
                   for _ in range(2))
    rng = np.random.default_rng(19)
    x = np.zeros(4096)
    x[rng.choice(4096, 4, replace=False)] = 1.0 + rng.random(4)
    sketches = layer.encode(x)
    cand = np.sort(rng.choice(4096, 300, replace=False))
    layer.estimate(sketches, cand)
    assert not layer.est_op.graph.materialized and layer.est_op._sign_table is None
    found = layer.identify(sketches, cand)  # 300 of 4,096 rows
    assert all(op.graph.materialized and op._sign_table is not None
               for op in layer.ident_ops)
    # the twin's readings (fewer than N rows, no identification) hash them
    want = majority_amplify([cand[head_indices(lower_median(op.readings(u, cand)),
                                               params.ident_count)]
                             for op, u in zip(twin.ident_ops, sketches)])
    assert not any(op.graph.materialized for op in twin.ident_ops)
    assert np.array_equal(found, want)


def _folded(op):
    """op after two dense encodes: the first fills its tables, the second
    builds its fold table."""
    for _ in range(2):
        op.apply(np.ones(op.n_left))
    assert op.folded
    return op


def _ranked_rows(monkeypatch) -> list:
    """The row count of each block the median network ranks, from now on."""
    rows, medians = [], weak._medians
    monkeypatch.setattr(weak, "_medians", lambda readings: rows.append(len(readings))
                        or medians(readings))
    return rows


@pytest.mark.parametrize("ell", [8, 9])
@pytest.mark.parametrize("case", ["noisy", "graded", "sparse", "ties-past-sample",
                                  "ties-in-sample"])
def test_pruned_identification_ranks_as_the_full_read(monkeypatch, ell, case):
    n, m = 16384, 4096
    op = _folded(_operator(n, ell, m, seed=ell))
    block = expander.row_blocks(n, ell)[0].stop
    params = WeakParams(k=2, eta=0.5, ell=ell)  # the top 6
    rng = np.random.default_rng(ell)
    x = np.zeros(n)
    if case == "noisy":  # the sample's medians are nonzero: t > 0
        x += rng.normal(size=n) * 1e-3
        x[rng.choice(n, 8, replace=False)] += rng.choice([-1.0, 1.0], 8) * (1.0 + rng.random(8))
    elif case == "graded":  # in the sample 5 at 2.0 and 3 at 1.0 (t = 1), past it 4 at 1.5
        spikes = rng.choice(block, 8, replace=False)
        x[spikes] = [2.0] * 5 + [1.0] * 3
        x[block + rng.choice(n - block, 4, replace=False)] = 1.5
    elif case == "sparse":  # nothing in the sample: t = 0, and a zero fill
        x[block + rng.choice(n - block, 3, replace=False)] = 1.0 + rng.random(3)
    else:  # +-1 spikes, whose medians tie at the cut, 2 or 8 in the sample
        inside = 2 if case == "ties-past-sample" else 8
        x[rng.choice(block, inside, replace=False)] = rng.choice([-1.0, 1.0], inside)
        x[block + rng.choice(n - block, 10, replace=False)] = rng.choice([-1.0, 1.0], 10)
    u = op.apply(x)
    full = lower_median(op.readings(u, np.arange(n)))
    if case == "sparse":
        assert np.count_nonzero(full) < params.ident_count
    if case == "graded":
        assert head_indices(full, params.ident_count).max() >= block
    if case.startswith("ties"):
        assert np.count_nonzero(np.abs(full) == 1.0) > params.ident_count
        # the cut falls past the sample, or in it
        in_sample = np.count_nonzero(np.abs(full[:block]) == 1.0)
        assert (in_sample < params.ident_count) == (case == "ties-past-sample")
    rows = _ranked_rows(monkeypatch)
    found = weak_identify(op, u, np.arange(n), params)
    assert np.array_equal(found, head_indices(full, params.ident_count))
    assert block <= sum(rows) < n // 2


@pytest.mark.parametrize("ell", [8, 9])
def test_pruned_identification_counts_both_slots_of_a_shared_bucket(monkeypatch, ell):
    # a zero row past the sample whose median is -1 only through its two
    # slots on one bucket: its slots 0..q-1 read -1 from q - 1 spikes'
    # buckets, slots 0 and 1 from the same one, and its other slots read
    # empty buckets; counting that bucket once would prune it
    n, m, q = 16384, 1024, (ell + 1) // 2
    family = SignFamily(seed=31, independence=16, n_left=n, ell=ell)
    signs = expander.edge_signs([family], None, np.arange(n)[:, None], np.arange(ell))
    row = n - 1 - int(np.flatnonzero(signs[::-1, 0] == signs[::-1, 1])[0])
    # spike j's slots on buckets ell * j.., every other row's above them
    spikes = np.arange(q - 1) + 5000
    table = np.random.default_rng(32).integers(ell * q, m, size=(n, ell))
    table[spikes] = np.arange(ell * (q - 1)).reshape(q - 1, ell)
    table[row, :q] = ell * np.array([0, *range(q - 1)])
    op = _folded(SignedSketchOperator(BipartiteGraph.from_neighbors(table, m), family))
    x = np.zeros(n)
    # slot s >= 1 of the row reads spike s - 1 through that spike's slot 0
    x[spikes] = -signs[spikes, 0] * signs[row, 1:q]
    u = op.apply(x)
    full = lower_median(op.readings(u, np.arange(n)))
    assert full[row] == -1.0 and np.count_nonzero(full) == q
    params = WeakParams(k=2, eta=0.5, ell=ell)
    rows = _ranked_rows(monkeypatch)
    found = weak_identify(op, u, np.arange(n), params)
    assert row in found and np.array_equal(found, head_indices(full, params.ident_count))
    assert sum(rows) < n // 2


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("case", ["one-block", "no-fold-table", "nan", "inf", "-inf"])
def test_identification_reads_every_row_where_it_cannot_prune(monkeypatch, case):
    ell = 9
    block = expander.row_blocks(1 << 20, ell)[0].stop
    n = block if case == "one-block" else 16384
    op = _operator(n, ell, 1024, seed=33)
    if case != "no-fold-table":
        _folded(op)
    rng = np.random.default_rng(33)
    x = rng.normal(size=n) * 1e-3
    x[rng.choice(n, 8, replace=False)] += 1.0 + rng.random(8)
    u = op.apply(x)  # without a fold table, this fills the other tables
    assert op.folded == (case != "no-fold-table")
    if case in ("nan", "inf", "-inf"):
        u[rng.choice(u.size, 40, replace=False)] = float(case)
    params = WeakParams(k=2, eta=0.5, ell=ell)
    want = head_indices(lower_median(op.readings(u, np.arange(n))), params.ident_count)
    rows = _ranked_rows(monkeypatch)
    assert np.array_equal(weak_identify(op, u, np.arange(n), params), want)
    assert sum(rows) == n
