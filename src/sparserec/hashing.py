"""Limited-independence hash families via random polynomials.

A uniformly random degree-d polynomial over a field, evaluated at
distinct points, is (d+1)-wise independent.  PolyHash stores one such
polynomial; SignFamily turns a PolyHash into reproducible +-1 signs on
the edges (vertex i, slot s) of an ell-regular graph: it hashes each
vertex once and gives slot s bit s of the value.

Sign evaluation sits on the hot path of every sketch, so SignFamily
uses a Mersenne-prime backing field, 2^31-1 while the vertex domain and
ell fit its 31 bits and 2^61-1 beyond, where Horner's rule vectorizes
over numpy integer arrays; below 2^31 each step takes two coefficients
(acc * x^2 + x * c_{j+1} + c_j), halving the steps.  Any t distinct
vertices get independent ell-bit sign vectors, each within total
variation 2^-w of uniform (w = 31 or 61): a uniform value in
[0, 2^w - 1) misses only the all-ones w-bit string.  Signs belong to (vertex, slot), not to buckets,
so a vertex's two slots on one bucket carry their own two signs.
`edge_signs`, the one function that evaluates sign polynomials, hashes
one family's vertices under scalar coefficients, or several families'
vertices over one field in one Horner pass, each point under its own
family's column of `coefficient_columns`.  numpy's per-call cost
dominates a call on a few rows of many families, so the sparse encode's
small jobs share one pass that way (`expander._JobColumns`); the
expander's other requests hash one family at a time.  eval_many
evaluates several polynomials at one point set, the recursion trees'
fingerprints of one signal's indices: in one Horner pass when all of
them share a vectorized field and their points fit in BATCH_POINTS,
else one polynomial at a time.

Over binary fields PolyHash evaluates vectors by the zero-absorbing
log/exp tables up to GF(2^16) (two gathers per Horner step, no test for
zero), by carry-less products up to GF(2^CLMUL_WIDTH), and point by
point beyond.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from sparserec.errors import InfeasibleError, UsageError
from sparserec.fields import CLMUL_WIDTH, FieldSpec, clmul, zero_absorbing_tables
from sparserec.seeds import counter_stream, derive_seed

_M31 = (1 << 31) - 1
_M61 = (1 << 61) - 1
_P61 = np.uint64(_M61)
# the sign families' backing fields, built (and primality-tested) once
_F31, _F61 = FieldSpec.prime(_M31), FieldSpec.prime(_M61)


_MASK30 = np.uint64((1 << 30) - 1)
_MASK31 = np.uint64((1 << 31) - 1)
_U1, _U30, _U31, _U61 = (np.uint64(v) for v in (1, 30, 31, 61))


def _horner_m61(coefficients, xs: np.ndarray) -> np.ndarray:
    """Horner's rule mod p = 2^61-1 at points 0 <= x < p, as int64 in [0, p).

    Each coefficient is an int, or an array giving every point its own.

    With acc = a1*2^31 + a0 and x = x1*2^31 + x0, acc*x is
    a1*x1*2^62 + mid*2^31 + a0*x0, and 2^61 = 1 (mod p) turns 2^62 into 2
    and mid*2^31 into (mid >> 30) + (mid mod 2^30)*2^31.  While acc < 2^62
    (a1 < 2^31; x0 < 2^31, x1 < 2^30) every product is below 2^62, mid is
    below 2^63, and the reduced terms plus the next coefficient sum below
    2^64, so one fold per step leaves acc < p + 8 (below 2^62, as the next
    step needs), and a single subtraction of p at the end makes the result
    canonical.
    """
    x = xs.astype(np.uint64)
    x0, x1 = x & _MASK31, x >> _U31
    x1_twice = x1 << _U1
    acc = np.full(x.shape, coefficients[-1], dtype=np.uint64)
    for c in reversed(coefficients[:-1]):
        a0 = acc & _MASK31
        acc >>= _U31  # a1
        mid = acc * x0
        mid += a0 * x1
        s = acc * x1_twice
        a0 *= x0
        s += a0
        s += mid >> _U30
        mid &= _MASK30
        mid <<= _U31
        s += mid
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

    @cached_property
    def coefficient_array(self) -> np.ndarray:
        """The coefficients as a read-only int64 array, built on first use
        (Horner passes over several polynomials stack them)."""
        out = np.array(self.coefficients, dtype=np.int64)
        out.flags.writeable = False
        return out

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

    def check_points(self, xs: np.ndarray):
        """Over a binary field without tables, UsageError for points outside
        the domain, as `eval` checks them: carry-less products of points
        outside the field are not field elements.  The other fields' hot
        paths skip the check."""
        f = self.field
        if f.kind == "binary" and f._log is None and np.size(xs) and not (
                0 <= np.min(xs) and np.max(xs) < self.domain_size):
            raise UsageError(f"points outside domain [0, {self.domain_size})")

    def eval_vec(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized Horner evaluation; xs must lie in the domain (see
        `check_points`)."""
        self.check_points(xs)
        if _vectorized(self.field):
            return _horner_vec(self.field, self.coefficients, xs)
        return np.array([self.eval(int(v)) for v in np.ravel(xs)], dtype=np.int64).reshape(
            np.shape(xs)
        )


def _vectorized(f: FieldSpec) -> bool:
    """Whether Horner's rule over f runs on numpy integer arrays."""
    if f.kind == "prime":
        return f.q == _M61 or f.q <= _M31 + 1
    return f.width <= CLMUL_WIDTH


def _horner_vec(f: FieldSpec, coefficients, xs: np.ndarray) -> np.ndarray:
    """Horner's rule over a vectorized field f, as int64.  Each coefficient
    is an int, or an array giving every point its own."""
    if f.kind == "prime" and f.q == _M61:
        return _horner_m61(coefficients, xs)
    x = xs.astype(np.int64)
    if f.kind == "prime":
        # two coefficients a step, from the top of an even count: with q <
        # 2^31, acc * x^2 + x * c[j + 1] + c[j] < 2^63 fits int64, and
        # numpy's floor division by a scalar is several times faster than
        # its remainder
        c = [*coefficients, *[0] * (len(coefficients) % 2)]
        x2 = x * x
        x2 -= x2 // f.q * f.q
        acc = np.zeros_like(x)
        for j in range(len(c) - 2, -1, -2):
            acc *= x2
            acc += x * c[j + 1]
            acc += c[j]
            acc -= acc // f.q * f.q
        return acc
    acc = np.full(x.shape, coefficients[-1], dtype=np.int64)
    if f._log is not None:
        # f.mul_vec(acc, x) ^ c from the zero-absorbing tables, with the
        # logarithms of x looked up once
        log, exp = zero_absorbing_tables(f.width, f.poly)
        log_x = log[x]
        for c in reversed(coefficients[:-1]):
            acc = exp[log[acc] + log_x]
            acc ^= c
    else:
        # carry-less products, looping over the bits of the points: no more
        # than the domain's bit length
        for c in reversed(coefficients[:-1]):
            acc = clmul(x, acc, f.width, f.poly)
            acc ^= c
    return acc


class SignFamily:
    """Reproducible +-1 signs on the edges (vertex i, slot s) of a graph
    with N left vertices and ell slots per vertex: bit s of h(i).

    h is a degree t-1 polynomial (t = independence) over M31 = 2^31-1 when
    N <= 2^31-1 and ell <= 31, else over M61 = 2^61-1 when N <= 2^61-1
    and ell <= 61; a larger domain raises InfeasibleError.  Any t distinct
    vertices get independent ell-bit sign vectors, each within total
    variation 2^-w of uniform (w = 31 or 61), because h(i) is uniform on
    [0, 2^w - 1), which misses only the all-ones w-bit string.
    """

    NAME = "vertex-bits"  # recorded in system descriptors

    def __init__(self, seed: int, independence: int, n_left: int, ell: int):
        if independence < 1:
            raise UsageError("independence degree must be >= 1")
        self.seed = int(seed)
        self.independence = independence
        self.n_left = n_left
        self.ell = ell
        if n_left <= _M31 and ell <= 31:
            field = _F31
        elif n_left <= _M61 and ell <= 61:
            field = _F61
        else:
            raise InfeasibleError("sign domain exceeds 2^61-1 vertices or 61 slots")
        self.hash = PolyHash.from_seed(field, independence - 1, n_left, derive_seed(seed, "signs"))

    def sign(self, i: int, s: int) -> int:
        if not (0 <= i < self.n_left and 0 <= s < self.ell):
            raise UsageError("edge outside the declared (vertex, slot) domain")
        return 1 - 2 * ((self.hash.eval(i) >> s) & 1)

    def sign_vec(self, i: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Vectorized signs as float64 (+1.0 / -1.0) of the edges (i, s)."""
        return edge_signs([self], None, i, s)


BATCH_POINTS = 1 << 16  # points per shared Horner pass; its coefficient
                        # columns take 8 bytes per point and coefficient


def coefficient_columns(polys) -> np.ndarray:
    """(t, len(polys)) int64 array whose column u holds polys[u]'s
    coefficients, lowest degree first; lower degrees are padded with
    leading zeros, which keep Horner's accumulator at 0 until the
    polynomial's own leading coefficient.  Repeated or gathered along its
    columns it gives points of several polynomials over one field their
    own coefficients in one Horner pass."""
    rows = [poly.coefficient_array for poly in polys]
    out = np.zeros((max(row.size for row in rows), len(rows)), dtype=np.int64)
    for u, row in enumerate(rows):
        out[: row.size, u] = row
    return out


def eval_many(polys, xs: np.ndarray) -> np.ndarray:
    """(len(polys), xs.size) int64 array whose row u is `polys[u].eval_vec(xs)`
    at the 1-d points xs: one Horner pass, each point under its own
    polynomial's column of `coefficient_columns`, when two or more
    polynomials share a field that Horner's rule vectorizes on and
    len(polys) * xs.size <= BATCH_POINTS; otherwise each polynomial's own
    eval_vec."""
    xs = np.asarray(xs, dtype=np.int64)
    fields = {(poly.field.kind, poly.field.q, poly.field.poly) for poly in polys}
    if (len(polys) < 2 or len(fields) > 1 or not _vectorized(polys[0].field)
            or len(polys) * xs.size > BATCH_POINTS):
        return np.array([poly.eval_vec(xs) for poly in polys], dtype=np.int64).reshape(
            len(polys), xs.size)
    for poly in polys:
        poly.check_points(xs)
    return _horner_vec(polys[0].field, np.repeat(coefficient_columns(polys), xs.size, axis=1),
                       np.tile(xs, len(polys))).reshape(len(polys), xs.size)


def edge_signs(families, columns, vertices, slots, spread=None) -> np.ndarray:
    """+-1.0 signs of the edges (vertex i, slot s) of sign families over one
    field: one Horner pass hashes each vertex once, and edge (i, s) keeps
    1 - 2 * bit s of h(i).  One family (columns None) takes its
    coefficients as scalars, and vertices and slots of any broadcastable
    shapes, such as (rows, 1) and (ell,).  Several take the families'
    `coefficient_columns` laid out to broadcast against the vertices, each
    vertex its own family's.  spread, if given, picks each edge's vertex
    value along the last axis (vertex r once per slot) against slots of
    the picked shape."""
    poly = families[0].hash
    values = _horner_vec(poly.field, poly.coefficients if columns is None else columns,
                         np.asarray(vertices))
    if spread is not None:
        values = values[..., spread]
    bits = values >> np.asarray(slots, dtype=np.int64)
    bits &= 1
    return 1.0 - 2.0 * bits
