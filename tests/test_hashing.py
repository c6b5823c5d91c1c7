import itertools

import numpy as np
import pytest

from sparserec import fields, hashing
from sparserec.errors import InfeasibleError, UsageError
from sparserec.fields import FieldSpec
from sparserec.hashing import PolyHash, SignFamily

M61 = (1 << 61) - 1


def test_constant_polynomial():
    h = PolyHash(FieldSpec.prime(7), [4], 7)
    assert all(h.eval(i) == 4 for i in range(7))


def test_identity_polynomial():
    h = PolyHash(FieldSpec.prime(13), [0, 1], 13)
    assert all(h.eval(i) == i for i in range(13))


def test_out_of_domain_point_errors():
    h = PolyHash(FieldSpec.prime(7), [1, 2], 5)
    with pytest.raises(UsageError):
        h.eval(5)


def test_gf5_degree1_joint_distribution_uniform():
    # all 25 degree-1 polynomials -> (h(0), h(1)) hits each pair once
    f = FieldSpec.prime(5)
    seen = {}
    for c0, c1 in itertools.product(range(5), repeat=2):
        h = PolyHash(f, [c0, c1], 5)
        key = (h.eval(0), h.eval(1))
        seen[key] = seen.get(key, 0) + 1
    assert len(seen) == 25
    assert set(seen.values()) == {1}


@pytest.mark.parametrize(
    "field,d",
    [
        (FieldSpec.prime(3), 1),
        (FieldSpec.prime(5), 2),
        (FieldSpec.prime(7), 2),
        (FieldSpec.binary(2), 2),
    ],
    ids=lambda v: str(v),
)
def test_kwise_independence_exhaustive(field, d):
    # enumerate all q^(d+1) polynomials; evaluations at d+1 distinct
    # points must hit every output tuple exactly once
    q = field.q
    points = list(range(d + 1))
    counts = {}
    for coeffs in itertools.product(range(q), repeat=d + 1):
        h = PolyHash(field, coeffs, q)
        key = tuple(h.eval(p) for p in points)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == q ** (d + 1)
    assert set(counts.values()) == {1}


def test_m61_eval_vec_matches_int_horner():
    field = FieldSpec.prime(M61)

    def horner(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % M61
        return acc

    rng = np.random.default_rng(11)
    random_poly = PolyHash.from_seed(field, 15, M61, seed=11)
    top_poly = PolyHash(field, [M61 - 1] * 16, M61)  # every coefficient p - 1
    random_x = rng.integers(0, M61, size=500, dtype=np.int64)
    edge_x = np.array([0, 1, M61 - 2, M61 - 1], dtype=np.int64)
    for h in (random_poly, top_poly):
        for xs in (random_x, edge_x):
            got = h.eval_vec(xs)
            want = [horner(h.coefficients, int(x)) for x in xs]
            assert got.dtype == np.int64
            assert got.tolist() == want


@pytest.mark.parametrize(
    "field",
    [FieldSpec.prime((1 << 31) - 1), FieldSpec.prime(M61), FieldSpec.binary(12),
     FieldSpec.prime(13), FieldSpec.binary(3),  # small fields: Horner passes 0
     FieldSpec.binary(17), FieldSpec.binary(20), FieldSpec.binary(24), FieldSpec.binary(31)],
    ids=str,
)
def test_eval_vec_matches_scalar(field):
    rng = np.random.default_rng(5)
    h = PolyHash.from_seed(field, 7, min(field.q, 1 << 40), seed=99)
    xs = rng.integers(0, min(field.q, 1 << 30), size=64, dtype=np.int64)
    xs = np.concatenate([xs, [0, h.domain_size - 1]])
    assert hashing._vectorized(field)  # one Horner pass, not one eval per point
    got = h.eval_vec(xs)
    want = np.array([h.eval(int(x)) for x in xs], dtype=np.int64)
    assert np.array_equal(got.astype(np.int64), want)


def test_sign_families_share_their_mersenne_fields(monkeypatch):
    monkeypatch.setattr(fields, "_is_prime", None)  # no primality test per family
    small = [SignFamily(seed=s, independence=8, n_left=1 << 10, ell=9) for s in (1, 2)]
    wide = [SignFamily(seed=s, independence=8, n_left=1 << 33, ell=9) for s in (1, 2)]
    assert small[0].hash.field is small[1].hash.field
    assert small[0].hash.field.q == (1 << 31) - 1
    assert wide[0].hash.field is wide[1].hash.field
    assert wide[0].hash.field.q == M61


def test_sign_family_deterministic_and_binary():
    fam = SignFamily(seed=42, independence=8, n_left=500, ell=9)
    fam2 = SignFamily(seed=42, independence=8, n_left=500, ell=9)
    vals = set()
    for i in range(0, 500, 7):
        for s in range(9):
            sign = fam.sign(i, s)
            assert sign == fam2.sign(i, s)
            vals.add(sign)
    assert vals == {-1, 1}


def test_sign_is_one_bit_of_one_hash_per_vertex():
    fam = SignFamily(seed=8, independence=5, n_left=1 << 12, ell=31)
    for i in (0, 1, 77, (1 << 12) - 1):
        word = fam.hash.eval(i)
        assert [fam.sign(i, s) for s in range(31)] == [1 - 2 * (word >> s & 1)
                                                       for s in range(31)]


def test_sign_vec_matches_scalar():
    fam = SignFamily(seed=3, independence=6, n_left=128, ell=7)
    rng = np.random.default_rng(0)
    i = rng.integers(0, 128, size=300)
    s = rng.integers(0, 7, size=300)
    got = fam.sign_vec(i, s)
    want = np.array([fam.sign(int(a), int(b)) for a, b in zip(i, s)], dtype=float)
    assert np.array_equal(got, want)
    # vertices broadcast against slots, as the edge kernel hashes a row
    table = fam.sign_vec(i[:, None], np.arange(7))
    assert table.shape == (300, 7)
    assert table.tolist() == [[fam.sign(int(a), b) for b in range(7)] for a in i]


def test_sign_family_empirical_mean_unbiased():
    n = 100_000
    fam = SignFamily(seed=17, independence=16, n_left=n, ell=1)
    i = np.arange(n)
    s = np.zeros(n, dtype=np.int64)
    mean = fam.sign_vec(i, s).mean()
    sigma = 1.0 / np.sqrt(n)
    assert abs(mean) <= 3 * sigma


def test_sign_family_large_domain_uses_wide_field():
    fam = SignFamily(seed=1, independence=4, n_left=1 << 33, ell=9)
    assert fam.hash.field.q == M61
    assert fam.sign(1 << 32, 5) in (-1, 1)


@pytest.mark.parametrize("n_left,ell,q", [
    (1 << 10, 31, (1 << 31) - 1),
    ((1 << 31) - 1, 9, (1 << 31) - 1),
    (1 << 31, 9, M61),  # the vertex domain alone picks the field
    (1 << 10, 32, M61),  # more slots than M31's bits
    (M61, 61, M61),
])
def test_sign_field_holds_the_vertices_and_the_slots(n_left, ell, q):
    fam = SignFamily(seed=2, independence=4, n_left=n_left, ell=ell)
    assert fam.hash.field.q == q
    assert fam.sign(n_left - 1, ell - 1) in (-1, 1)


@pytest.mark.parametrize("n_left,ell", [(M61 + 1, 9), (1 << 10, 62)])
def test_sign_domain_beyond_m61_is_infeasible(n_left, ell):
    with pytest.raises(InfeasibleError):
        SignFamily(seed=2, independence=4, n_left=n_left, ell=ell)


@pytest.mark.parametrize("t", [2, 3])
def test_sign_family_joint_distribution_chi_square(t):
    # joint law of t edges of distinct vertices over many seeds should be
    # uniform on {-1,1}^t
    n_seeds = 10_000
    edges = [(11 * a + 3, (7 * a + 1) % 9) for a in range(t)]
    counts = {}
    for s in range(n_seeds):
        fam = SignFamily(seed=s, independence=t, n_left=256, ell=9)
        key = tuple(fam.sign(i, slot) for i, slot in edges)
        counts[key] = counts.get(key, 0) + 1
    cells = 2**t
    expected = n_seeds / cells
    stat = sum((counts.get(k, 0) - expected) ** 2 / expected
               for k in itertools.product((-1, 1), repeat=t))
    # chi-square critical values at alpha=0.001: 16.27 (3 dof), 24.32 (7 dof)
    crit = {2: 16.27, 3: 24.32}[t]
    assert stat < crit


def test_one_vertex_slot_bits_chi_square():
    # one vertex's ell slot signs over many seeds should be uniform on
    # {-1,1}^ell: its ell bits come from one hash value
    n_seeds, ell = 10_000, 5
    counts = np.zeros(1 << ell, dtype=np.int64)
    for s in range(n_seeds):
        fam = SignFamily(seed=s, independence=4, n_left=256, ell=ell)
        counts[sum((fam.sign(123, slot) < 0) << slot for slot in range(ell))] += 1
    expected = n_seeds / (1 << ell)
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < 61.10  # chi-square critical value at alpha=0.001, 31 dof


def test_sign_out_of_domain_errors():
    fam = SignFamily(seed=0, independence=2, n_left=10, ell=10)
    for i, s in ((10, 0), (0, 10), (-1, 0)):
        with pytest.raises(UsageError):
            fam.sign(i, s)


def test_eval_many_shares_one_pass_only_when_every_point_fits(monkeypatch):
    # eval_many evaluates several polynomials at one point set: one Horner
    # pass when they share a vectorized field and len(polys) * points fits
    # in BATCH_POINTS, else one pass per polynomial
    passes = []
    horner = hashing._horner_vec
    monkeypatch.setattr(hashing, "_horner_vec",
                        lambda *args: passes.append(args) or horner(*args))
    gf20, gf16 = FieldSpec.binary(20), FieldSpec.binary(16)
    polys = [PolyHash.from_seed(gf20, degree, 1 << 20, seed)
             for degree, seed in ((19, 1), (19, 2), (5, 3))]
    other = PolyHash.from_seed(gf16, 7, 1 << 16, 4)
    rng = np.random.default_rng(26)

    def check(members, xs, count):
        passes.clear()
        got = hashing.eval_many(members, xs)
        assert len(passes) == count
        assert got.shape == (len(members), xs.size) and got.dtype == np.int64
        for poly, row in zip(members, got):
            assert row.tolist() == poly.eval_vec(xs).tolist()

    few = rng.integers(0, 1 << 16, 5_000)
    check(polys[:2], few, 1)  # two over one field, 10,000 points: one pass
    check(polys, rng.integers(0, 1 << 20, 30_000), 3)  # 90,000 points: one apiece
    check([polys[0], other], few, 2)  # two fields never share a pass
    check(polys, np.zeros(0, dtype=np.int64), 1)
    assert hashing.BATCH_POINTS == 1 << 16
    check(polys[:2], rng.integers(0, 1 << 20, hashing.BATCH_POINTS // 2), 1)
    check(polys[:2], rng.integers(0, 1 << 20, hashing.BATCH_POINTS // 2 + 1), 2)
