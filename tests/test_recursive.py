import math

import numpy as np
import pytest

from sparserec.codes import RSCode, _rows
from sparserec.errors import UsageError
from sparserec.fields import FieldSpec
from sparserec.recursive import (
    RecursionTree,
    RecursiveParams,
    Scheme2Map,
    tree_shape,
)
from sparserec.weak import weak_identify


def _params(**kw):
    base = dict(k=4, eta=0.25, ell=8, s=1)
    base.update(kw)
    return RecursiveParams(**base)


# --- tree shape ---

def test_shape_single_node_when_domain_fits():
    assert tree_shape(2**6, 2**8, 3) == (0, 1)
    assert tree_shape(2**8, 2**8, 3) == (0, 1)


def test_shape_ternary_height_one():
    h, count = tree_shape(2**24, 2**8, 3)
    assert (h, count) == (1, 4)


def test_shape_formula_examples():
    # (3^3 - 1) / 2 = 13 nodes at height 2
    assert tree_shape(2**72, 2**8, 3) == (2, 13)
    assert tree_shape(2**32, 2**8, 2) == (2, 7)


def test_depth_one_domains_match_compression():
    tree = RecursionTree(2**24, _params(max_leaf_domain=1 << 16, leaf_target=2**8,
                                        arity=3, scheme="none"), seed=1)
    assert tree.height == 1 and tree.node_count == 4
    for child_id in tree.nodes[0].children:
        node = tree.nodes[child_id]
        assert node.det_bits + node.rnd_bits == 16  # (2^24)^(2/3)


def test_rs_halves_pad_to_a_field_holding_r_points():
    # RS(6, 3): a 4-bit half pads to a multiple of b = 3, and further to
    # 9 bits so that its field GF(2^3) holds the 6 evaluation points
    tree = RecursionTree(2**12, _params(leaf_target=4, code_kind="rs", arity=6, rs_b=3,
                                        rho=0.0), seed=1)
    assert (tree.height, tree.node_count) == (2, 43)
    widths = [(v.depth, v.det_in, v.rnd_in, v.det_bits, v.rnd_bits) for v in tree.nodes]
    assert widths[0] == (0, 12, 12, 12, 12)
    assert set(widths[1:7]) == {(1, 4, 4, 9, 9)}
    assert set(widths[7:]) == {(2, 3, 3, 3, 3)}


# --- single node equivalence ---

def test_single_node_tree_equals_weak_identify():
    tree = RecursionTree(256, _params(leaf_target=512, arity=3, scheme="none"), seed=3)
    assert tree.node_count == 1
    rng = np.random.default_rng(0)
    x = np.zeros(256)
    supp = rng.choice(256, size=4, replace=False)
    x[supp] = 3.0
    sketches = tree.encode(x)
    found, _ = tree.identify(sketches)
    node = tree.nodes[0]
    direct = weak_identify(node.layer.ident_ops[0], sketches[0][0],
                           np.arange(256), tree.params.weak())
    assert np.array_equal(found, direct)


# --- coordinate maps ---

def _phi(tree, node_id, root_values):
    """Oracle for `node_images`: the symbol of each packed root-domain value
    at the given node (identity at the root), walking the codes down from
    the root."""
    if not 0 <= node_id < tree.node_count:
        raise UsageError(f"unknown node {node_id}")
    det, rnd = tree.nodes[0].unpack(np.asarray(root_values, dtype=np.int64))
    path, nid = [], node_id
    while nid != 0:
        parent = tree.nodes[nid].parent
        path.append((parent, tree.nodes[parent].children.index(nid)))
        nid = parent
    for parent, u in reversed(path):
        det, rnd = tree.nodes[parent].code.encode_part_vec(det, rnd, u)
    return tree.nodes[node_id].pack(det, rnd)


def test_phi_root_is_identity():
    tree = RecursionTree(4096, _params(leaf_target=128, arity=3), seed=5)
    vals = np.array([0, 17, 4095], dtype=np.int64)
    assert np.array_equal(_phi(tree, 0, vals), vals)


def test_phi_consistent_with_stepwise_encoding():
    tree = RecursionTree(4096, _params(leaf_target=128, arity=3), seed=7)
    rng = np.random.default_rng(1)
    root_vals = rng.integers(0, tree.nodes[0].domain, size=1000)
    for v in tree.nodes:
        if not v.children:
            continue
        det, rnd = v.unpack(_phi(tree, v.node_id, root_vals))
        for u, child_id in enumerate(v.children):
            cd, cr = v.code.encode_part_vec(det, rnd, u)
            expect = tree.nodes[child_id].pack(cd, cr)
            assert np.array_equal(_phi(tree, child_id, root_vals), expect)


def test_phi_unknown_node_errors():
    tree = RecursionTree(256, _params(leaf_target=512, arity=3, scheme="none"), seed=2)
    with pytest.raises(UsageError):
        _phi(tree, 99, np.array([0]))


def test_split_phi_takes_bit_halves():
    # split is LW(2): child u gets the digits without digit u, so child 0
    # carries the low half of the bits and child 1 the high half
    tree = RecursionTree(2**10, _params(leaf_target=2**5, code_kind="split", scheme="none"),
                         seed=4)
    assert tree.height >= 1
    vals = np.arange(0, 2**10, 37, dtype=np.int64)
    lo = _phi(tree, tree.nodes[0].children[0], vals)
    hi = _phi(tree, tree.nodes[0].children[1], vals)
    assert np.array_equal(lo, vals & 31)
    assert np.array_equal(hi, vals >> 5)


def test_split_is_an_alias_of_lw2():
    trees = [RecursionTree(2**12, _params(leaf_target=2**6, **kind), seed=8)
             for kind in (dict(code_kind="split"), dict(code_kind="lw", arity=2))]
    split, lw = trees
    for name in ("n_signal", "seed", "params"):
        assert getattr(split, name) == getattr(lw, name)
    for name in ("code_kind", "arity", "rs_b", "scheme", "leaf_target"):
        assert getattr(split.params, name) == getattr(lw.params, name)
    assert (split.params.code_kind, split.params.arity) == ("lw", 2)
    assert ([(v.det_bits, v.rnd_bits) for v in split.nodes]
            == [(v.det_bits, v.rnd_bits) for v in lw.nodes])
    assert split.measurement_count == lw.measurement_count
    rng = np.random.default_rng(12)
    for _ in range(3):
        x = np.zeros(2**12)
        x[rng.choice(2**12, size=4, replace=False)] = rng.choice([-2.0, 2.0], 4)
        sketches = [tree.encode(x) for tree in trees]
        for a, b in zip(*sketches):
            assert all(np.array_equal(u, v) for u, v in zip(a, b))
        (got_s, info_s), (got_l, info_l) = [tree.identify(sk) for tree, sk
                                            in zip(trees, sketches)]
        assert np.array_equal(got_s, got_l)
        assert info_s == info_l


def test_node_images_matches_phi():
    tree = RecursionTree(1024, _params(leaf_target=64, arity=3), seed=9)
    idx = np.array([5, 99, 1000], dtype=np.int64)
    det, rnd = idx, tree.mapper.fingerprint(idx)
    root_vals = tree.nodes[0].pack(det, rnd)
    images = tree.node_images(idx)
    for v in tree.nodes:
        assert np.array_equal(images[v.node_id], _phi(tree, v.node_id, root_vals))


# --- node list recovery against a brute-force oracle ---

_NODE_CASES = {
    "split": dict(code_kind="split", n_signal=2**6, scheme="scheme2"),
    "lw3": dict(code_kind="lw", arity=3, n_signal=2**6, scheme="scheme2"),
    "lw3-e1": dict(code_kind="lw", arity=3, n_signal=2**6, scheme="scheme2",
                   lw_errors=1),
    "rs4": dict(code_kind="rs", arity=4, rs_b=2, rho=0.2, n_signal=2**6,
                scheme="scheme2"),
    "rs5-one-disagreement": dict(code_kind="rs", arity=5, rs_b=2, rho=0.25,
                                 n_signal=2**6, scheme="scheme2"),
    "split-det-only": dict(code_kind="split", n_signal=2**12, scheme="none"),
    "lw3-det-only": dict(code_kind="lw", arity=3, n_signal=2**12, scheme="none"),
    "rs4-det-only": dict(code_kind="rs", arity=4, rs_b=2, rho=0.2,
                         n_signal=2**12, scheme="none"),
}


@pytest.mark.parametrize("case", sorted(_NODE_CASES))
def test_node_list_recovery_matches_oracle(case):
    opts = dict(_NODE_CASES[case])
    n_signal = opts.pop("n_signal")
    params = _params(leaf_target=2**6, **opts)
    tree = RecursionTree(n_signal, params, seed=41)
    root = tree.nodes[0]
    assert root.children and root.domain <= 2**12
    assert (root.rnd_bits > 0) == (tree.params.scheme == "scheme2")
    code, r = root.code, len(root.children)
    rs = tree.params.code_kind == "rs"
    if rs:
        need = r - math.floor(params.rho * r)
    else:
        need = r - (params.lw_errors if tree.params.code_kind == "lw" else 0)
    det_all, rnd_all = root.unpack(np.arange(root.domain, dtype=np.int64))
    width = code.child_rnd_bits
    packed = [(cd << width) | cr for cd, cr in
              (code.encode_part_vec(det_all, rnd_all, u) for u in range(r))]
    rng = np.random.default_rng(sum(map(ord, case)))
    for trial in range(6):
        planted = rng.choice(root.domain, size=(0 if trial == 5 else 5),
                             replace=False)
        child_sets = [set() for _ in range(r)]
        for m in planted:
            # erase up to the tolerated number of this message's symbols
            erased = rng.choice(r, size=(r - need) * (trial % 2), replace=False)
            for u in range(r):
                if u not in erased:
                    child_sets[u].add((int(packed[u][m] >> width),
                                       int(packed[u][m] & ((1 << width) - 1))))
        noise = 0 if trial < 2 else 6
        for s in child_sets:
            for _ in range(noise):
                s.add((int(rng.integers(1 << code.child_det_bits)),
                       int(rng.integers(1 << width))))
        hits = sum(np.isin(packed[u], [(d << width) | c for d, c in child_sets[u]])
                   for u in range(r))
        expect = {(int(det_all[m]), int(rnd_all[m]))
                  for m in np.flatnonzero(hits >= need)}
        assert set(planted.tolist()) <= set(np.flatnonzero(hits >= need).tolist())
        got = code.list_recover_pairs([_rows(sorted(s), 2) for s in child_sets],
                                      errors=params.lw_errors,
                                      rho=params.rho if rs else 0.0)
        got = list(map(tuple, got.tolist()))
        assert len(got) == len(set(got))
        assert set(got) == expect


# --- identification ---

def test_recursive_identification_recovers_planted_supports():
    params = _params(leaf_target=128, arity=3)
    hits = 0
    trials = 40
    for t in range(trials):
        tree = RecursionTree(4096, params, seed=2000 + t)
        rng = np.random.default_rng(t)
        supp = rng.choice(4096, size=4, replace=False)
        x = np.zeros(4096)
        x[supp] = rng.choice([-1.0, 1.0], size=4) * (1 + rng.random(4))
        found, _ = tree.identify(tree.encode(x))
        hits += set(supp.tolist()) <= set(found.tolist())
    assert hits >= int(0.9 * trials)


def test_identification_deterministic():
    params = _params(leaf_target=128, arity=3)
    rng = np.random.default_rng(3)
    x = np.zeros(4096)
    x[rng.choice(4096, size=4, replace=False)] = 2.0
    runs = []
    for _ in range(2):
        tree = RecursionTree(4096, params, seed=77)
        found, _ = tree.identify(tree.encode(x))
        runs.append(found)
    assert np.array_equal(runs[0], runs[1])


def test_root_output_size_within_cap():
    params = _params(leaf_target=128, arity=3)
    tree = RecursionTree(4096, params, seed=13)
    rng = np.random.default_rng(8)
    x = rng.normal(size=4096)  # dense worst case
    found, _ = tree.identify(tree.encode(x))
    assert len(found) <= 2 * params.weak().ident_count


def test_loss_accounting_covers_all_misses():
    # starve the nodes (tiny bucket arrays) so losses actually occur
    params = _params(buckets_per_node=48, leaf_target=128, arity=3)
    lost_total = 0
    for t in range(10):
        tree = RecursionTree(4096, params, seed=3000 + t)
        rng = np.random.default_rng(t)
        supp = rng.choice(4096, size=8, replace=False)
        x = np.zeros(4096)
        x[supp] = rng.choice([-1.0, 1.0], size=8)
        found, info = tree.identify(tree.encode(x))
        lost_total += _assert_losses_explained(tree, found, info, supp)
    assert lost_total > 0  # the starved regime really loses items


def _assert_losses_explained(tree, found, info, supp) -> int:
    """Every planted index missing from found is charged to a node;
    returns how many went missing."""
    missing = sorted(set(supp.tolist()) - set(found.tolist()))
    images = tree.node_images(np.asarray(missing, dtype=np.int64))
    per_node_lost = {d["node"]: set(d["planted_lost_here"])
                     for d in tree.planted_losses(info, supp)}
    for pos, idx in enumerate(missing):
        explained = any(
            int(images[v][pos]) in per_node_lost.get(v, set())
            for v in range(tree.node_count)
        )
        assert explained, f"missing index {idx} has no recorded loss"
    total_recorded = sum(len(s) for s in per_node_lost.values())
    assert len(missing) <= total_recorded
    return len(missing)


def test_truncation_warns_and_counts():
    # layers sized to find all 16 heads, but the recovery cap is tiny
    params = _params(k=16, cap=8, leaf_target=128, arity=3)
    tree = RecursionTree(4096, params, seed=17)
    rng = np.random.default_rng(9)
    supp = rng.choice(4096, size=16, replace=False)
    x = np.zeros(4096)
    x[supp] = 5.0
    with pytest.warns(UserWarning):
        found, info = tree.identify(tree.encode(x))
    assert any(d["truncated"] > 0 for d in info["nodes"])
    # a head that list recovery found and the cap cut away is lost there
    assert _assert_losses_explained(tree, found, info, supp) > 0


# --- schemes ---

def test_scheme2_inversion_is_projection():
    mapper = Scheme2Map(signal_bits=10, alpha=0.5, degree=9, seed=21)
    idx = np.arange(1024)
    back = mapper.invert(idx, mapper.fingerprint(idx), 1024)
    assert np.array_equal(back, idx)


def test_scheme2_rejects_mismatched_fingerprints():
    mapper = Scheme2Map(signal_bits=8, alpha=0.5, degree=5, seed=22)
    det = np.array([3, 10])
    rnd = mapper.fingerprint(det)
    rnd_bad = rnd.copy()
    rnd_bad[1] ^= 1
    assert np.array_equal(mapper.invert(det, rnd_bad, 256), np.array([3]))


def test_scheme2_fingerprint_above_16_bits_matches_scalar_eval():
    # GF(2^17) has no log tables: the fingerprint takes carry-less products
    mapper = Scheme2Map(signal_bits=17, alpha=0.5, degree=5, seed=23)
    idx = np.array([0, 1, 2, 977, 65535, 65536, (1 << 17) - 1], dtype=np.int64)
    want = [mapper.g.eval(int(i)) for i in idx]
    assert mapper.fingerprint(idx).tolist() == want
    with pytest.raises(UsageError):
        mapper.fingerprint(np.array([1 << 17]))


def test_scheme2_child_map_is_alpha_random():
    # split child symbol keeps half the fingerprint bits: for adversarial
    # sets sharing the deterministic half, collisions happen with
    # probability about |S| / M^(1-alpha), alpha = 1/2, M = 2^10
    n_bits, half = 10, 5
    m_domain = 1 << (2 * half)
    fresh = 77
    collide = {2: 0, 4: 0}
    seeds = 10_000
    for seed in range(seeds):
        mapper = Scheme2Map(signal_bits=n_bits, alpha=0.5, degree=7, seed=seed)
        for size in collide:
            group = np.array([fresh] + [(fresh & ~((1 << half) - 1)) | j
                                        for j in range(1, size + 1)])
            rnd = mapper.fingerprint(group)
            sym = ((group >> half) << half) | (rnd >> half)
            collide[size] += int(np.any(sym[1:] == sym[0]))
    for size, hits in collide.items():
        bound = 4.0 * size / math.sqrt(m_domain)
        assert hits / seeds <= bound


# --- one-step Reed-Solomon combination ---

def test_one_step_combine_recovers_full_codewords():
    code = RSCode(FieldSpec.binary(6), b=2, r=5)
    msgs = [17, 900, 3000]
    lists = [[code.encode(m)[j] for m in msgs] for j in range(5)]
    got = code.list_recover(lists, rho=0.25)
    assert set(msgs) <= set(got)


def test_one_step_combine_loss_fraction_bounded():
    code = RSCode(FieldSpec.binary(6), b=2, r=5)
    rho, zeta = 0.25, 0.05
    rng = np.random.default_rng(4)
    dropped = planted = 0
    for trial in range(200):
        msgs = rng.choice(code.n, size=8, replace=False)
        lists = []
        for j in range(5):
            keep = rng.random(8) > zeta  # each list loses a zeta fraction
            lists.append({int(code.encode(int(m))[j]) for m in msgs[keep]})
        got = set(code.list_recover(lists, rho=rho))
        planted += len(msgs)
        dropped += sum(int(m) not in got for m in msgs)
    assert dropped / planted <= 2 * zeta / rho


# --- structure and validation ---

def test_randomness_share_preserved_per_level():
    tree = RecursionTree(4096, _params(leaf_target=128, arity=3), seed=31)
    for v in tree.nodes:
        if v.children:
            for child_id in v.children:
                child = tree.nodes[child_id]
                assert child.det_in == v.code.child_det_bits
                assert child.rnd_in == v.code.child_rnd_bits
                assert child.rnd_in * v.rnd_bits == child.det_in * v.det_bits


def test_build_validation_errors():
    with pytest.raises(UsageError):
        RecursionTree(1000, _params(leaf_target=64, arity=3), seed=1)
    with pytest.raises(UsageError):
        RecursionTree(1024, _params(leaf_target=64, code_kind="rs", arity=2, rs_b=2), seed=1)
    with pytest.raises(UsageError):
        RecursionTree(1024, _params(leaf_target=64, code_kind="nope"), seed=1)
    with pytest.raises(UsageError, match="r > b"):
        RecursionTree(1024, _params(leaf_target=64, code_kind="rs"), seed=1)
    for scheme in ("wat", "scheme1"):
        with pytest.raises(UsageError, match=scheme):
            RecursionTree(1024, _params(leaf_target=64, arity=3, scheme=scheme), seed=1)


def test_leaf_domain_guard():
    from sparserec.errors import InfeasibleError

    with pytest.raises(InfeasibleError):
        RecursionTree(2**20, _params(max_leaf_domain=1 << 9, leaf_target=2**19,
                                     code_kind="split", scheme="none"), seed=1)


def test_measurement_count_is_sum_over_nodes():
    tree = RecursionTree(1024, _params(s=2, leaf_target=64, arity=3), seed=60)
    # a node sketches only its s = 2 identification copies
    expect = sum(2 * v.layer.n_buckets for v in tree.nodes)
    assert tree.measurement_count == expect
    sketches = tree.encode(np.zeros(1024))
    total = sum(len(u) for node_sk in sketches for u in node_sk)
    assert total == expect


def test_rs_tree_refuses_a_negative_rho():
    for rho in (-0.5, -1e-9):
        with pytest.raises(UsageError, match="unique-decoding regime"):
            RecursionTree(2**10, _params(rho=rho, leaf_target=64, code_kind="rs", arity=4,
                                         rs_b=2), seed=5)
    # an lw tree reads no rho
    RecursionTree(2**10, _params(rho=-0.5, leaf_target=64, arity=3), seed=5)
