"""Limited-independence hash families via random polynomials.

A uniformly random degree-d polynomial over a field, evaluated at
distinct points, is (d+1)-wise independent.  PolyHash stores one such
polynomial; SignFamily turns a PolyHash into reproducible +-1 values on
(left vertex, bucket) pairs by keeping one output bit.

Sign evaluation sits on the hot path of every sketch, so SignFamily
defaults to a Mersenne-prime backing field (2^31-1, or 2^61-1 for large
pair domains) where Horner's rule vectorizes over numpy integer arrays.
The one kept bit of a uniform field element carries bias < 2^-31, far
below anything the estimators can see.
"""

from __future__ import annotations

import numpy as np

from sparserec.errors import InfeasibleError, UsageError
from sparserec.fields import FieldSpec
from sparserec.seeds import counter_stream, derive_seed

_M31 = (1 << 31) - 1
_M61 = (1 << 61) - 1
_P61 = np.uint64(_M61)


_MASK29 = np.uint64((1 << 29) - 1)
_MASK32 = np.uint64(0xFFFFFFFF)
_U3, _U29, _U32, _U61 = (np.uint64(v) for v in (3, 29, 32, 61))


def _horner_m61(coefficients, xs: np.ndarray) -> np.ndarray:
    """Horner's rule mod p = 2^61-1 at points 0 <= x < p, as int64 in [0, p).

    With acc = a1*2^32 + a0 and x = x1*2^32 + x0, acc*x is
    a1*x1*2^64 + mid*2^32 + a0*x0, and 2^61 = 1 (mod p) turns 2^64 into 8
    and mid*2^32 into (mid >> 29) + (mid mod 2^29)*2^32.  While acc < 2^62
    (a1 < 2^30, x1 < 2^29) every product fits in 64 bits and the reduced
    terms plus the next coefficient sum below 5*2^61, so one fold per step
    leaves acc < p + 5 (below 2^62, as the next step needs), and a single
    subtraction of p at the end makes the result canonical.
    """
    x = xs.astype(np.uint64)
    x0, x1 = x & _MASK32, x >> _U32
    acc = np.full(x.shape, coefficients[-1], dtype=np.uint64)
    for c in reversed(coefficients[:-1]):
        a0, a1 = acc & _MASK32, acc >> _U32
        mid = a1 * x0
        mid += a0 * x1
        lo = a0 * x0
        s = a1 * x1
        s <<= _U3
        s += mid >> _U29
        mid &= _MASK29
        mid <<= _U32
        s += mid
        s += lo & _P61
        lo >>= _U61
        s += lo
        s += np.uint64(c)
        acc = s & _P61
        s >>= _U61
        acc += s
    return np.where(acc >= _P61, acc - _P61, acc).astype(np.int64)


class PolyHash:
    """A fixed polynomial over a field, evaluated by Horner's rule.

    coefficients[j] multiplies x^j.  Drawn uniformly, a degree-d instance
    is (d+1)-wise independent over its evaluation points.
    """

    def __init__(self, field: FieldSpec, coefficients, domain_size: int):
        if domain_size > field.q:
            raise UsageError("domain does not embed in the field")
        self.field = field
        self.coefficients = tuple(int(c) % field.q for c in coefficients)
        if not self.coefficients:
            raise UsageError("need at least one coefficient")
        self.domain_size = domain_size

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @staticmethod
    def from_seed(field: FieldSpec, degree: int, domain_size: int, seed: int) -> "PolyHash":
        idx = np.arange(degree + 1, dtype=np.uint64)
        raw = counter_stream(seed, idx)
        coeffs = [int(v) % field.q for v in raw]
        return PolyHash(field, coeffs, domain_size)

    def eval(self, i: int) -> int:
        if not 0 <= i < self.domain_size:
            raise UsageError(f"point {i} outside domain [0, {self.domain_size})")
        f = self.field
        acc = 0
        for c in reversed(self.coefficients):
            acc = f.add(f.mul(acc, i) if acc else 0, c)
        return acc

    def eval_vec(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized Horner evaluation; xs must lie in the domain."""
        f = self.field
        if f.kind == "prime" and f.q == _M61:
            return _horner_m61(self.coefficients, xs)
        if f.kind == "prime" and f.q <= _M31 + 1:
            x = xs.astype(np.int64)
            acc = np.full(x.shape, self.coefficients[-1], dtype=np.int64)
            for c in reversed(self.coefficients[:-1]):
                acc = (acc * x + c) % f.q
            return acc
        if f.kind == "binary" and f._log is not None:
            x = xs.astype(np.int64)
            acc = np.full(x.shape, self.coefficients[-1], dtype=np.int64)
            for c in reversed(self.coefficients[:-1]):
                acc = f.mul_vec(acc, x) ^ c
            return acc
        return np.array([self.eval(int(v)) for v in np.ravel(xs)], dtype=np.int64).reshape(
            np.shape(xs)
        )


class SignFamily:
    """Reproducible +-1 values on (left vertex, bucket) index pairs.

    independence is the target wise-independence t; the backing
    polynomial has degree t-1 over a Mersenne-prime field large enough
    to embed the pair domain injectively.
    """

    def __init__(self, seed: int, independence: int, n_left: int, n_buckets: int,
                 field: FieldSpec | None = None):
        if independence < 1:
            raise UsageError("independence degree must be >= 1")
        self.seed = int(seed)
        self.independence = independence
        self.n_left = n_left
        self.n_buckets = n_buckets
        pairs = n_left * n_buckets
        if field is None:
            if pairs <= _M31:
                field = FieldSpec.prime(_M31)
            elif pairs <= _M61:
                field = FieldSpec.prime(_M61)
            else:
                raise InfeasibleError("pair domain exceeds 2^61-1")
        elif field.q < pairs:
            raise UsageError("explicit field too small for the pair domain")
        self.hash = PolyHash.from_seed(field, independence - 1, pairs, derive_seed(seed, "signs"))

    def sign(self, i: int, j: int) -> int:
        if not (0 <= i < self.n_left and 0 <= j < self.n_buckets):
            raise UsageError("pair outside the declared index domain")
        return 1 - 2 * (self.hash.eval(i * self.n_buckets + j) & 1)

    def sign_vec(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Vectorized signs as float64 (+1.0 / -1.0)."""
        pair = i.astype(np.uint64) * np.uint64(self.n_buckets) + j.astype(np.uint64)
        bits = self.hash.eval_vec(pair).astype(np.int64) & 1
        return 1.0 - 2.0 * bits
