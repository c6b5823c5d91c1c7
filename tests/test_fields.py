import numpy as np
import pytest

from sparserec.errors import UsageError
from sparserec.fields import (
    FieldSpec,
    _LOW_WEIGHT_TAPS,
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
    from sparserec.fields import _pm_mulmod

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
                               FieldSpec.prime(4294967311), FieldSpec.binary(20)], ids=str)
def test_mul_vec_matches_scalar(f):
    rng = np.random.default_rng(3)
    a = rng.integers(0, f.q, size=200).astype(np.int64)
    b = rng.integers(0, f.q, size=200).astype(np.int64)
    got = f.mul_vec(a, b)
    want = np.array([f.mul(int(x), int(y)) for x, y in zip(a, b)])
    assert np.array_equal(got, want)
    # a scalar operand broadcasts, and every field returns int64
    c = int(b[0])
    got = f.mul_vec(a, c)
    assert got.dtype == np.int64
    assert np.array_equal(got, [f.mul(int(x), c) for x in a])


@pytest.mark.parametrize("f", [FieldSpec.prime(31), FieldSpec.binary(8),
                               FieldSpec.prime(2**63 - 25)], ids=str)
def test_add_vec_matches_scalar(f):
    # near 2^63, a + b would overflow int64
    rng = np.random.default_rng(4)
    a = f.q - 1 - rng.integers(0, min(f.q, 1 << 20), size=200).astype(np.int64)
    b = f.q - 1 - rng.integers(0, min(f.q, 1 << 20), size=200).astype(np.int64)
    assert np.array_equal(f.add_vec(a, b), [f.add(int(x), int(y)) for x, y in zip(a, b)])
