import hashlib

import numpy as np
import pytest

from sparserec.errors import UsageError
from sparserec.hashing import PolyHash, eval_many
from sparserec.fields import (
    CLMUL_WIDTH,
    FieldSpec,
    _LOW_WEIGHT_TAPS,
    _pm_mulmod,
    _tables_for_width,
    clmul,
    irreducible_poly,
    is_irreducible,
)


def test_gf7_examples():
    f = FieldSpec.prime(7)
    assert f.add(3, 0) == 3
    assert f.inv(3) == 5
    assert f.mul(3, 5) == 1


def test_gf16_all_inverses():
    f = FieldSpec.binary(4)
    for a in range(1, 16):
        assert f.mul(a, f.inv(a)) == 1


def test_inversion_of_zero_errors():
    for f in (FieldSpec.prime(7), FieldSpec.binary(4)):
        with pytest.raises(UsageError):
            f.inv(0)


def test_out_of_range_elements_error():
    f = FieldSpec.prime(7)
    with pytest.raises(UsageError):
        f.add(7, 0)
    with pytest.raises(UsageError):
        f.mul(2, -1)


@pytest.mark.parametrize(
    "f,triples",
    [
        (FieldSpec.prime(7), 1000),
        (FieldSpec.prime(31), 1000),
        (FieldSpec.prime((1 << 31) - 1), 1000),
        (FieldSpec.binary(4), 1000),
        (FieldSpec.binary(8), 1000),
        (FieldSpec.binary(20), 60),
        (FieldSpec.binary(64), 60),
    ],
    ids=str,
)
def test_field_axioms_random_triples(f, triples):
    rng = np.random.default_rng(7)
    for _ in range(triples):
        a, b, c = (int(v) for v in rng.integers(0, f.q, size=3, dtype=np.uint64))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1


def test_every_tabulated_polynomial_is_irreducible():
    for w in _LOW_WEIGHT_TAPS:
        assert is_irreducible(irreducible_poly(w)), f"width {w}"


def test_is_irreducible_rejects_composites():
    # x^2 (reducible), x^2 + 1 = (x+1)^2, x^4 + x^2 + 1 = (x^2+x+1)^2
    for mask in (0b100, 0b101, 0b10101):
        assert not is_irreducible(mask)


def test_table_mul_matches_carryless():
    for w in (4, 8):
        f = FieldSpec.binary(w)
        rng = np.random.default_rng(w)
        for _ in range(300):
            a, b = (int(v) for v in rng.integers(0, f.q, size=2))
            assert f.mul(a, b) == _pm_mulmod(a, b, f.poly)


def test_of_size_dispatch():
    assert FieldSpec.of_size(16).kind == "binary"
    assert FieldSpec.of_size(13).kind == "prime"
    with pytest.raises(UsageError):
        FieldSpec.of_size(15)


@pytest.mark.parametrize("f", [FieldSpec.prime(31), FieldSpec.binary(8),
                               FieldSpec.prime(4294967311), FieldSpec.binary(20),
                               FieldSpec.binary(17), FieldSpec.binary(24),
                               FieldSpec.binary(31), FieldSpec.binary(CLMUL_WIDTH)], ids=str)
def test_mul_vec_matches_scalar(f):
    rng = np.random.default_rng(3)
    edge = np.array([0, 1, 2, f.q - 2, f.q - 1], dtype=np.int64)
    a = np.concatenate([np.repeat(edge, edge.size), rng.integers(0, f.q, size=200)])
    b = np.concatenate([np.tile(edge, edge.size), rng.integers(0, f.q, size=200)])
    want = np.array([f.mul(int(x), int(y)) for x, y in zip(a, b)])
    for got in (f.mul_vec(a, b), f.mul_vec(b, a)):
        assert np.array_equal(got, want)
    if f.kind == "binary" and f._log is None:  # the carry-less kernel itself
        assert np.array_equal(clmul(a, b, f.width, f.poly), want)
    # a scalar operand broadcasts on either side, and every field returns int64
    c = int(b[edge.size**2])
    for got in (f.mul_vec(a, c), f.mul_vec(np.int64(c), a)):
        assert got.dtype == np.int64
        assert np.array_equal(got, [f.mul(int(x), c) for x in a])
    grid = f.mul_vec(edge[:, None], edge[None, :])
    assert grid.tolist() == [[f.mul(int(x), int(y)) for y in edge] for x in edge]


@pytest.mark.parametrize("f", [FieldSpec.prime(31), FieldSpec.binary(8),
                               FieldSpec.prime(2**63 - 25)], ids=str)
def test_add_vec_matches_scalar(f):
    # near 2^63, a + b would overflow int64
    rng = np.random.default_rng(4)
    a = f.q - 1 - rng.integers(0, min(f.q, 1 << 20), size=200).astype(np.int64)
    b = f.q - 1 - rng.integers(0, min(f.q, 1 << 20), size=200).astype(np.int64)
    assert np.array_equal(f.add_vec(a, b), [f.add(int(x), int(y)) for x, y in zip(a, b)])


def _orbit_tables(width, poly):
    """Reference exp/log tables: walk each candidate g = 2, 3, ... along its
    orbit, one scalar multiply per step, and keep the first whose orbit
    returns to 1 only after q - 1 steps."""
    q = 1 << width
    exp = np.zeros(max(2 * (q - 1), 2), dtype=np.int64)
    log = np.zeros(q, dtype=np.int64)
    if q == 2:
        exp[:] = 1
        return exp, log, None
    for g in range(2, q):
        x, ok = 1, True
        for i in range(q - 1):
            if x == 1 and i > 0:
                ok = False  # order of g divides i < q-1
                break
            exp[i] = x
            log[x] = i
            x = _pm_mulmod(x, g, poly)
        if ok:
            break
    exp[q - 1 : 2 * (q - 1)] = exp[: q - 1]
    return exp, log, g


@pytest.mark.parametrize("width", range(1, 17))
def test_tables_match_generator_orbit(width):
    poly = irreducible_poly(width)
    want_exp, want_log, g = _orbit_tables(width, poly)
    exp, log = _tables_for_width(width, poly)
    assert exp.dtype == log.dtype == np.int64
    assert np.array_equal(exp, want_exp) and np.array_equal(log, want_log)
    if g is not None:
        assert exp[1] == g


def test_gf2_14_tables_pinned():
    f = FieldSpec.binary(14)
    assert hashlib.sha256(f._exp.tobytes()).hexdigest() == (
        "661aa37bcc5b11f44be85b58c4ebd105ace68ce37249903a4f002081013b4978")
    assert hashlib.sha256(f._log.tobytes()).hexdigest() == (
        "3f29b4307cab48e08e5adc1d6152976aeb7590dc5ecb977b3e33f32072391466")


@pytest.mark.parametrize("width", range(1, 17))
def test_table_fields_multiply_through_zero(width):
    # the zero-absorbing tables give every product with a zero operand, and
    # Horner's accumulator passing through 0, with no test for zero
    f = FieldSpec.binary(width)
    q, top = f.q, f.q - 1
    rng = np.random.default_rng(width)
    points = np.unique(np.r_[0, 1, top, rng.integers(0, q, 20)])
    for p in (1, top):
        # Horner at p: top, then top * p ^ top * p = 0, then 0 * p ^ 0 = 0
        # (a zero coefficient), then 0 * p ^ c0 = c0
        c0 = 3 % q
        through = PolyHash(f, [c0, 0, f.mul(top, p), top], q)
        # from a zero leading coefficient: 0, top, then 0 twice
        leading = PolyHash(f, [0, f.mul(top, p), top, 0], q)
        assert (through.eval(p), leading.eval(p)) == (c0, 0)
        for poly in (through, leading):
            assert poly.eval_vec(points).tolist() == [poly.eval(int(v)) for v in points]
        # the two in one pass, each point under its own polynomial's coefficients
        for poly, got in zip((through, leading), eval_many([through, leading], points)):
            assert got.tolist() == [poly.eval(int(v)) for v in points]
    zeros = np.zeros(3, dtype=np.int64)
    for got in (f.mul_vec(points, 0), f.mul_vec(0, points), f.mul_vec(points, zeros[:1]),
                f.mul_vec(zeros[:1, None], points[None, :])):
        assert got.dtype == np.int64 and got.size == points.size and not got.any()
    assert f.mul_vec(zeros, zeros).tolist() == [0, 0, 0]
    grid = f.mul_vec(points[:, None], points[None, :])
    assert grid.tolist() == [[f.mul(int(a), int(b)) for b in points] for a in points]
