import itertools
import math

import numpy as np
import pytest

from sparserec.errors import InfeasibleError, UsageError
from sparserec.codes import (
    ListRecoveryInstance,
    LWCode,
    RSCode,
    lw_join,
    rs_list_recover,
    rs_recover,
)
from sparserec.fields import FieldSpec


# --- brute-force oracles ---

def oracle_join(sets, d, sigma):
    sets = [set(map(tuple, s)) for s in sets]
    out = []
    for v in itertools.product(range(sigma), repeat=d):
        if all(v[:i] + v[i + 1 :] in sets[i] for i in range(d)):
            out.append(v)
    return out


def oracle_join_tolerant(sets, d, sigma, e):
    sets = [set(map(tuple, s)) for s in sets]
    out = []
    for v in itertools.product(range(sigma), repeat=d):
        if sum(v[:i] + v[i + 1 :] in sets[i] for i in range(d)) >= d - e:
            out.append(v)
    return out


def oracle_rs(code, sets, rho):
    need = code.r - code.max_disagreements(rho)
    table = code.encode_all()
    hits = np.zeros(code.n, dtype=np.int64)
    for i in range(code.r):
        vals = sorted(set(sets[i]))
        if vals:
            hits += np.isin(table[:, i], vals)
    return sorted(np.flatnonzero(hits >= need).tolist())


def random_projections(rng, d, sigma, size):
    full = list(itertools.product(range(sigma), repeat=d - 1))
    return [
        {full[j] for j in rng.choice(len(full), size=min(size, len(full)), replace=False)}
        for _ in range(d)
    ]


# --- encoders ---

def test_split_encode_example():
    # the split code is LW(2): symbol 0 is the low digit, symbol 1 the high
    code = LWCode(16, 2)
    assert code.encode(0b1011) == (0b11, 0b10)


def test_lw3_coordinate_deletion():
    code = LWCode(8, 3)
    # digits of x are (b0, b1, b2) most significant first
    for x in range(8):
        b = ((x >> 2) & 1, (x >> 1) & 1, x & 1)
        assert code.encode_tuple(x) == ((b[1], b[2]), (b[0], b[2]), (b[0], b[1]))


def test_rs_constant_polynomial():
    code = RSCode(FieldSpec.prime(5), b=1, r=3)
    for c in range(5):
        assert code.encode(c) == (c, c, c)


def test_encode_out_of_range():
    for code in (LWCode(16, 2), LWCode(8, 3), RSCode(FieldSpec.prime(5), 1, 3)):
        with pytest.raises(UsageError):
            code.encode(code.n)


def test_encode_all_matches_scalar():
    codes = [
        LWCode(64, 2),
        LWCode(64, 3),
        RSCode(FieldSpec.binary(4), b=2, r=5),
        RSCode(FieldSpec.prime(7), b=2, r=4),
    ]
    for code in codes:
        table = code.encode_all()
        for x in range(code.n):
            assert tuple(table[x]) == code.encode(x)


@pytest.mark.parametrize(
    "code",
    [
        LWCode(1024, 2),
        LWCode(512, 3),
        LWCode(256, 2),
        RSCode(FieldSpec.binary(4), b=2, r=6),
        RSCode(FieldSpec.binary(6), b=2, r=7),
        RSCode(FieldSpec.prime(13), b=2, r=5),
    ],
    ids=lambda c: f"{c.kind}-n{c.n}",
)
def test_uniformity_exhaustive(code):
    table = code.encode_all()
    per_symbol = code.n // code.q
    for i in range(code.r):
        counts = np.bincount(table[:, i], minlength=code.q)
        assert np.all(counts == per_symbol)


# --- Loomis-Whitney join ---

def test_join_d2_is_cross_product():
    s1 = {(0,), (2,)}   # candidate values for coordinate 1
    s2 = {(1,), (3,)}   # candidate values for coordinate 0
    got = lw_join([s1, s2])
    assert got == sorted({(a, b) for (a,) in s2 for (b,) in s1})


def test_join_empty_projection_gives_empty():
    assert lw_join([{(0,), (1,)}, set()]) == []


def test_join_arity_validation():
    with pytest.raises(UsageError):
        lw_join([{(0, 1)}, {(0,)}])
    with pytest.raises(UsageError):
        lw_join([{(0,)}])


def test_join_matches_oracle_d3():
    rng = np.random.default_rng(0)
    for trial in range(40):
        sets = random_projections(rng, d=3, sigma=4, size=6)
        got = lw_join(sets)
        assert got == oracle_join(sets, 3, 4)


def test_join_matches_oracle_various_shapes():
    rng = np.random.default_rng(1)
    for d, sigma, size in [(2, 5, 4), (3, 3, 5), (4, 3, 8), (4, 2, 4)]:
        for trial in range(10):
            sets = random_projections(rng, d, sigma, size)
            assert lw_join(sets) == oracle_join(sets, d, sigma)


def test_join_is_monotone():
    rng = np.random.default_rng(2)
    for trial in range(20):
        sets = random_projections(rng, d=3, sigma=4, size=4)
        small = lw_join(sets)
        full = list(itertools.product(range(4), repeat=2))
        grown = [s | {full[int(rng.integers(len(full)))]} for s in sets]
        assert set(small) <= set(lw_join(grown))


def test_join_size_bound():
    rng = np.random.default_rng(3)
    for trial in range(30):
        sets = random_projections(rng, d=3, sigma=4, size=7)
        ks = [len(s) for s in sets]
        bound = 2 * float(np.prod(ks)) ** 0.5
        assert len(lw_join(sets)) <= math.ceil(bound)


def test_tolerant_join_e0_equals_plain():
    rng = np.random.default_rng(4)
    for trial in range(20):
        sets = random_projections(rng, d=3, sigma=4, size=5)
        assert lw_join(sets, errors=0) == oracle_join(sets, 3, 4)


def test_tolerant_join_survives_erased_projection():
    rng = np.random.default_rng(5)
    for trial in range(20):
        sets = random_projections(rng, d=3, sigma=4, size=6)
        base = oracle_join(sets, 3, 4)
        erased = [set(sets[0]), set(sets[1]), set()]
        got = lw_join(erased, errors=1)
        # anything consistent on the two surviving projections remains
        assert set(got) >= set(base)
        assert got == oracle_join_tolerant(erased, 3, 4, 1)


def test_tolerant_join_matches_oracle():
    rng = np.random.default_rng(6)
    for d, e in [(3, 1), (4, 1), (4, 2)]:
        for trial in range(10):
            sets = random_projections(rng, d, 3, 5)
            assert lw_join(sets, errors=e) == oracle_join_tolerant(sets, d, 3, e)


def test_tolerant_join_error_budget_validation():
    sets = [{(0,), (1,)}, {(0,)}, {(1,)}]
    with pytest.raises(UsageError):
        lw_join(sets, errors=2)  # e > d-2
    with pytest.raises(UsageError):
        lw_join(sets, errors=-1)


def test_lw_code_list_recover_roundtrip():
    code = LWCode(64, 3)
    msgs = [0, 17, 63, 42]
    sets = [set() for _ in range(3)]
    for x in msgs:
        for i, sym in enumerate(code.encode(x)):
            sets[i].add(sym)
    got = code.list_recover(sets)
    assert set(msgs) <= set(got)


# --- Reed-Solomon list recovery ---

def test_rs_singleton_sets_recover_message():
    code = RSCode(FieldSpec.binary(4), b=2, r=5)
    cw = code.encode(123)
    inst = ListRecoveryInstance(sets=[{c} for c in cw], rho=0.0, ell=1)
    assert rs_list_recover(code, inst) == [123]


def test_rs_empty_set_with_zero_rho():
    code = RSCode(FieldSpec.binary(4), b=2, r=5)
    sets = [{c} for c in code.encode(7)]
    sets[2] = set()
    inst = ListRecoveryInstance(sets=sets, rho=0.0, ell=1)
    assert rs_list_recover(code, inst) == []


def test_rs_rho_regime_validation():
    code = RSCode(FieldSpec.binary(4), b=2, r=5)
    inst = ListRecoveryInstance(sets=[{0}] * 5, rho=0.4)  # >= (1/2)(1-2/5)=0.3
    with pytest.raises(UsageError):
        rs_list_recover(code, inst)


def test_rs_list_recover_refuses_a_negative_rho():
    # a negative rho would need agreement on more than r coordinates, so no
    # message could be returned
    code = RSCode(FieldSpec.binary(4), b=2, r=4)
    sets = [{c} for c in code.encode(200)]
    for rho in (-1.0, -0.5, -1e-9, -1):
        with pytest.raises(UsageError, match="unique-decoding regime"):
            code.list_recover(sets, rho)
    for rho in (0, 0.0, -0.0, 0.2, 0.25 - 1e-11):
        assert code.list_recover(sets, rho) == [200]


def test_rs_code_refuses_evaluation_points_outside_the_field():
    with pytest.raises(UsageError, match=r"\[0, q\)"):
        RSCode(FieldSpec.binary(4), b=2, r=4, points=[0, 1, 2, 99])
    with pytest.raises(UsageError, match=r"\[0, q\)"):
        RSCode(FieldSpec.binary(4), b=2, r=4, points=[-1, 1, 2, 3])
    assert RSCode(FieldSpec.binary(4), b=2, r=4, points=[12, 13, 14, 15]).points == [12, 13, 14, 15]


def test_rs_code_refuses_parameters_of_the_wrong_type():
    for q in ("16", 16.0, True):
        with pytest.raises(UsageError, match="field size must be an integer"):
            FieldSpec.of_size(q)
    for b, r in (("2", 4), (2, 4.0), (True, 4), (2, np.float64(4))):
        with pytest.raises(UsageError, match="b and r must be integers"):
            RSCode(FieldSpec.binary(4), b=b, r=r)
    for points in (["a", 1, 2, 3], [0.0, 1.5, 2, 3], [0, 1, 2, False]):
        with pytest.raises(UsageError, match="evaluation points must be integers"):
            RSCode(FieldSpec.binary(4), b=2, r=4, points=points)
    # numpy integers are integers
    code = RSCode(FieldSpec.of_size(np.int64(16)), b=2, r=4, points=np.arange(4))
    sets = [{c} for c in code.encode(200)]
    for rho in ("x", None, True):
        with pytest.raises(UsageError, match="rho must be a real number"):
            code.list_recover(sets, rho)
    assert code.list_recover(sets, np.float64(0.0)) == [200]


@pytest.mark.parametrize("count", [3, 5])
def test_rs_list_recover_needs_one_set_per_coordinate(count):
    code = RSCode(FieldSpec.binary(4), b=2, r=4)
    sets = [{c} for c in code.encode(200)]
    sets = (sets + sets)[:count]
    with pytest.raises(UsageError, match="one candidate set per coordinate"):
        rs_list_recover(code, ListRecoveryInstance(sets=sets, rho=0.0))


@pytest.mark.parametrize("bad", ["a", 1.5, True, None])
def test_rs_list_recover_refuses_non_integer_symbols(bad):
    code = RSCode(FieldSpec.binary(4), b=2, r=4)
    sets = [{c} for c in code.encode(200)]
    sets[1] = {sets[1].pop(), bad}
    with pytest.raises(UsageError, match="integers"):
        rs_list_recover(code, ListRecoveryInstance(sets=sets, rho=0.0))
    sets[1] = {np.int64(c) for c in sets[0]}  # numpy integers are integers
    rs_list_recover(code, ListRecoveryInstance(sets=sets, rho=0.0))


def test_rs_matches_oracle_small_sweep():
    rng = np.random.default_rng(7)
    configs = [
        (FieldSpec.binary(4), 2, 5, 0.2, 3),
        (FieldSpec.binary(4), 1, 4, 0.3, 2),
        (FieldSpec.prime(17), 2, 6, 0.25, 3),
        (FieldSpec.binary(4), 3, 7, 0.2, 3),
    ]
    for field, b, r, rho, ell in configs:
        code = RSCode(field, b=b, r=r)
        for trial in range(12):
            sets = [
                set(rng.choice(code.q, size=int(rng.integers(0, ell + 1)),
                               replace=False).tolist())
                for _ in range(r)
            ]
            inst = ListRecoveryInstance(sets=sets, rho=rho, ell=ell)
            assert rs_list_recover(code, inst) == oracle_rs(code, sets, rho)


def test_rs_with_planted_codeword_and_errors():
    code = RSCode(FieldSpec.binary(6), b=2, r=7)
    rho = 0.3  # tolerates floor(2.1) = 2 disagreements
    rng = np.random.default_rng(8)
    for trial in range(10):
        x = int(rng.integers(code.n))
        cw = list(code.encode(x))
        sets = [{c} for c in cw]
        for i in rng.choice(7, size=2, replace=False):
            sets[int(i)] = {int(rng.integers(code.q))}
        inst = ListRecoveryInstance(sets=sets, rho=rho)
        assert x in rs_list_recover(code, inst)


@pytest.mark.parametrize("first_empty", [False, True], ids=["all-occupied", "first-empty"])
@pytest.mark.parametrize(
    "field,b,r",
    [(FieldSpec.binary(4), 1, 7), (FieldSpec.binary(4), 2, 7), (FieldSpec.binary(4), 3, 8),
     (FieldSpec.prime(17), 1, 7), (FieldSpec.prime(17), 2, 7), (FieldSpec.prime(17), 3, 8)],
    ids=lambda v: str(v),
)
def test_rs_span_edge_matches_oracle(field, b, r, first_empty):
    # rho = 0.3 tolerates e = 2 misses.  Each planted codeword misses the first
    # occupied coordinates, as many as it may, so it agrees on exactly b
    # coordinates of the span |occupied| - need + b that recovery interpolates on.
    code = RSCode(field, b=b, r=r)
    rho = 0.3
    e = code.max_disagreements(rho)
    assert e >= 2
    rng = np.random.default_rng(b * r + field.q)
    for trial in range(4):
        planted = sorted({int(x) for x in rng.choice(code.n, size=3, replace=False)})
        words = [code.encode(x) for x in planted]
        misses = list(range(int(first_empty), e))
        sets = [set() if i < int(first_empty) else {w[i] for w in words} for i in range(r)]
        for i in misses:
            sets[i] = set(rng.choice(
                [v for v in range(code.q) if all(w[i] != v for w in words)],
                size=2, replace=False).tolist())
        got = rs_list_recover(code, ListRecoveryInstance(sets=sets, rho=rho))
        assert got == oracle_rs(code, sets, rho)
        assert set(planted) <= set(got)
        # one occupied coordinate short of need: nothing can pass
        need = r - e
        short = [s if i < need - 1 else set() for i, s in enumerate(sets[e:] + sets[:e])]
        assert rs_list_recover(code, ListRecoveryInstance(sets=short, rho=rho)) == []
        assert oracle_rs(code, short, rho) == []


def test_rs_refuses_keys_beyond_int64():
    too_big = [
        (RSCode(FieldSpec.binary(64), b=1, r=3),),
        (RSCode(FieldSpec.prime(4294967311), b=2, r=5),),
        (RSCode(FieldSpec.binary(32), b=1, r=3),) * 2,
    ]
    for codes in too_big:
        sets = [{(0,) * len(codes)} for _ in range(codes[0].r)]
        with pytest.raises(InfeasibleError, match="message space .* 2\\^63"):
            rs_recover(codes, sets, 0.0)


@pytest.mark.parametrize("q,b", [(2**31 - 1, 2), (4294967311, 1)])
def test_rs_large_prime_field_recovers_planted(q, b):
    code = RSCode(FieldSpec.prime(q), b=b, r=5)
    rng = np.random.default_rng(9)
    x = int(rng.integers(code.n))
    sets = [{c, int(rng.integers(q))} for c in code.encode(x)]
    sets[3] = {int(rng.integers(q))}
    got = rs_list_recover(code, ListRecoveryInstance(sets=sets, rho=0.2))
    assert x in got


def test_instance_ell_validation():
    with pytest.raises(UsageError):
        ListRecoveryInstance(sets=[{1, 2, 3}], rho=0.0, ell=2)
