"""Finite field arithmetic: prime fields GF(q) and binary extensions GF(2^w).

Binary fields use one fixed irreducible polynomial per width, taken from
the standard low-weight table (trinomials / pentanomials), so element
representations are bit-exact across runs.  Widths up to 16 get log/exp
tables, built with numpy from a primitive element.  Vector products over
them read a zero-absorbing pair derived from those tables once per width,
on first use (`zero_absorbing_tables`): log(0) points into a zero-filled
extension of exp, so a product is two gathers and an addition, with no
test for zero.  Widths up to CLMUL_WIDTH multiply numpy int64 arrays by
shift-and-xor carry-less products reduced mod the field polynomial
(`clmul`); only scalar arithmetic, and vectors over wider fields, use
Python ints.
"""

from __future__ import annotations

import numpy as np

from sparserec.errors import InfeasibleError, UsageError, check_int

# Middle-term exponents of the lowest-weight irreducible polynomial
# x^w + x^k1 [+ x^k2 + x^k3] + 1 for each width w.
_LOW_WEIGHT_TAPS = {
    1: (), 2: (1,), 3: (1,), 4: (1,), 5: (2,), 6: (1,), 7: (1,),
    8: (4, 3, 1), 9: (1,), 10: (3,), 11: (2,), 12: (3,), 13: (4, 3, 1),
    14: (5,), 15: (1,), 16: (5, 3, 1), 17: (3,), 18: (3,), 19: (5, 2, 1),
    20: (3,), 21: (2,), 22: (1,), 23: (5,), 24: (4, 3, 1), 25: (3,),
    26: (4, 3, 1), 27: (5, 2, 1), 28: (1,), 29: (2,), 30: (1,), 31: (3,),
    32: (7, 3, 2), 33: (10,), 34: (7,), 35: (2,), 36: (9,), 37: (6, 4, 1),
    38: (6, 5, 1), 39: (4,), 40: (5, 4, 3), 41: (3,), 42: (7,),
    43: (6, 4, 3), 44: (5,), 45: (4, 3, 1), 46: (1,), 47: (5,),
    48: (5, 3, 2), 49: (9,), 50: (4, 3, 2), 51: (6, 3, 1), 52: (3,),
    53: (6, 2, 1), 54: (9,), 55: (7,), 56: (7, 4, 2), 57: (4,),
    58: (19,), 59: (7, 4, 2), 60: (1,), 61: (5, 2, 1), 62: (29,),
    63: (1,), 64: (4, 3, 1),
}


def irreducible_poly(width: int) -> int:
    """Bitmask of the fixed irreducible polynomial for GF(2^width)."""
    if width not in _LOW_WEIGHT_TAPS:
        raise InfeasibleError(f"no irreducible polynomial tabulated for width {width}")
    mask = (1 << width) | 1
    for k in _LOW_WEIGHT_TAPS[width]:
        mask |= 1 << k
    return mask


# --- polynomial-over-GF(2) helpers (bitmask representation) ---

def _pm_mulmod(a: int, b: int, f: int) -> int:
    deg = f.bit_length() - 1
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> deg & 1:
            a ^= f
    return r


def _pm_powmod_x(e: int, f: int) -> int:
    """x^(2^e) mod f by repeated squaring."""
    r = 0b10  # x
    for _ in range(e):
        r = _pm_mulmod(r, r, f)
    return r


def _pm_powmod(a: int, e: int, f: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = _pm_mulmod(r, a, f)
        a = _pm_mulmod(a, a, f)
        e >>= 1
    return r


def _pm_gcd(a: int, b: int) -> int:
    while b:
        if a.bit_length() < b.bit_length():
            a, b = b, a
        while a.bit_length() >= b.bit_length() and a:
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def is_irreducible(f: int) -> bool:
    """Rabin's test for a GF(2)[x] polynomial given as a bitmask."""
    n = f.bit_length() - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    if _pm_powmod_x(n, f) != 0b10:
        return False
    for p in _prime_factors(n):
        h = _pm_powmod_x(n // p, f) ^ 0b10
        if _pm_gcd(h if h else f, f) != 1:
            return False
    return True


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin for 64-bit range
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


CLMUL_WIDTH = 32  # widest binary field `clmul` multiplies: an unreduced
                  # product of two elements has degree <= 62, inside int64


def _reduce(r: np.ndarray, width: int, poly: int) -> np.ndarray:
    """r mod poly, in place, for carry-less products r of degree <= 2*width - 2.

    x^width = taps (mod poly), so each round folds the bits at and above
    width back in as (r >> width) * taps; low-weight taps leave at most a
    few bits above width for the next round."""
    taps = [t for t in range(width) if poly >> t & 1]
    high = np.empty_like(r)
    shifted = np.empty_like(r)
    degree = 2 * width - 2
    while degree >= width:
        np.right_shift(r, width, out=high)
        r &= (1 << width) - 1
        for t in taps:
            r ^= np.left_shift(high, t, out=shifted)
        degree += taps[-1] - width
    return r


def clmul(a, b, width: int, poly: int) -> np.ndarray:
    """Products a*b in GF(2^width) mod poly, as int64, for width <= CLMUL_WIDTH.

    a and b are ints or int64 arrays with entries in [0, 2^width); they
    broadcast.  The product is the xor of b << k over the set bits k of a,
    so the loop runs over the bits of a (a Python loop for an int), then
    one reduction.
    """
    b = np.asarray(b, dtype=np.int64)
    if isinstance(a, (int, np.integer)):
        r = np.zeros_like(b)
        for k in range(int(a).bit_length()):
            if a >> k & 1:
                r ^= b << k
        return _reduce(r, width, poly)
    a = np.asarray(a, dtype=np.int64)
    shape = np.broadcast_shapes(a.shape, b.shape)
    r = np.zeros(shape, dtype=np.int64)
    bit = np.empty(a.shape, dtype=np.int64)
    term = np.empty(shape, dtype=np.int64)
    for k in range(int(a.max()).bit_length() if a.size else 0):
        np.right_shift(a, k, out=bit)
        bit &= 1
        np.left_shift(b, k, out=term)
        term *= bit
        r ^= term
    return _reduce(r, width, poly)


_TABLE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _tables_for_width(width: int, poly: int):
    """exp/log tables for GF(2^width) over its smallest primitive element g.

    g is the smallest g >= 2 with g^((q-1)/p) != 1 for every prime p
    dividing q-1.  exp[i] = g^i for i < 2(q-1), filled by doubling:
    exp[n:2n] = exp[:n] * g^n, one `clmul` per step; log is one scatter.
    """
    if width in _TABLE_CACHE:
        return _TABLE_CACHE[width]
    q = 1 << width
    exp = np.ones(max(2 * (q - 1), 2), dtype=np.int64)
    log = np.zeros(q, dtype=np.int64)
    if q > 2:
        cofactors = [(q - 1) // p for p in _prime_factors(q - 1)]
        g = next(g for g in range(2, q)
                 if all(_pm_powmod(g, c, poly) != 1 for c in cofactors))
        n, g_n = 1, g  # g_n = g^n
        while n < q - 1:
            step = min(n, q - 1 - n)
            exp[n : n + step] = clmul(g_n, exp[:step], width, poly)
            n += step
            g_n = _pm_mulmod(g_n, g_n, poly)
        log[exp[: q - 1]] = np.arange(q - 1)
        exp[q - 1 :] = exp[: q - 1]
    _TABLE_CACHE[width] = (exp, log)
    return exp, log


_ZERO_ABSORBING: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def zero_absorbing_tables(width: int, poly: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (log, exp) for GF(2^width), width <= 16, in which
    exp[log[a] + log[b]] is a * b for all a, b, zero included.

    They are `_tables_for_width`'s pair with log[0] set to n = 2(q-1),
    the length of its exp, and exp extended by n + 1 zeros: two nonzero
    logarithms sum below n, a zero and a nonzero one land in n..3n/2 - 1,
    and two zeros at 2n, the last entry.  Derived once per width, on
    first use, so building a field or its tables costs nothing more.
    """
    if width not in _ZERO_ABSORBING:
        exp, log = _tables_for_width(width, poly)
        n = exp.size
        log = log.copy()
        log[0] = n
        exp = np.concatenate([exp, np.zeros(n + 1, dtype=np.int64)])
        log.flags.writeable = exp.flags.writeable = False
        _ZERO_ABSORBING[width] = log, exp
    return _ZERO_ABSORBING[width]


class FieldSpec:
    """A finite field: kind 'prime' (modulus q) or 'binary' (GF(2^w)).

    Elements are plain ints in [0, q).  All operations validate range;
    inversion of zero raises UsageError.
    """

    def __init__(self, kind: str, q: int, width: int = 0, poly: int = 0):
        self.kind = kind
        self.q = q
        self.width = width
        self.poly = poly
        self._log = None
        self._exp = None
        if kind == "binary" and width <= 16:
            self._build_tables()

    # -- constructors --

    @staticmethod
    def prime(q: int) -> "FieldSpec":
        if not _is_prime(q):
            raise UsageError(f"{q} is not prime")
        return FieldSpec("prime", q)

    @staticmethod
    def binary(width: int) -> "FieldSpec":
        if not 1 <= width <= 64:
            raise InfeasibleError("binary field width must be in 1..64")
        return FieldSpec("binary", 1 << width, width, irreducible_poly(width))

    @staticmethod
    def of_size(q: int) -> "FieldSpec":
        """Field of size q: prime q, or 2^w for q a power of two."""
        check_int(q, "field size")
        q = int(q)
        if q >= 2 and q & (q - 1) == 0:
            return FieldSpec.binary(q.bit_length() - 1)
        return FieldSpec.prime(q)

    def _build_tables(self):
        self._exp, self._log = _tables_for_width(self.width, self.poly)

    # -- scalar arithmetic --

    def _check(self, *vals: int):
        for v in vals:
            if not 0 <= v < self.q:
                raise UsageError(f"element {v} outside [0, {self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        if self.kind == "prime":
            return (a + b) % self.q
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        self._check(a, b)
        if self.kind == "prime":
            return (a - b) % self.q
        return a ^ b

    def neg(self, a: int) -> int:
        self._check(a)
        if self.kind == "prime":
            return (-a) % self.q
        return a

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if self.kind == "prime":
            return a * b % self.q
        if self._log is not None:
            if a == 0 or b == 0:
                return 0
            return int(self._exp[self._log[a] + self._log[b]])
        return _pm_mulmod(a, b, self.poly)

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise UsageError("inversion of zero")
        if self.kind == "prime":
            return pow(a, self.q - 2, self.q)
        if self._log is not None:
            return int(self._exp[(self.q - 1) - self._log[a]])
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        r, base = 1, a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    # -- vectorized arithmetic on int64 numpy arrays --

    def add_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.kind == "prime":
            return (a - (self.q - b)) % self.q  # in (-q, q) first: no int64 overflow
        return a ^ b

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of int64 arrays (or scalars), broadcast; int64 for q < 2^63."""
        if self.kind == "prime" and self.q <= (1 << 31):
            return a * b % self.q
        if self.kind == "binary" and self._log is None and self.width <= CLMUL_WIDTH:
            if np.ndim(a) == 0:
                a, b = b, a  # loop over the bits of a scalar operand in Python
            return clmul(b if np.ndim(b) else int(b), a, self.width, self.poly)
        if self._log is not None:
            log, exp = zero_absorbing_tables(self.width, self.poly)
            return exp[log[a] + log[b]]
        av, bv = np.broadcast_arrays(np.asarray(a), np.asarray(b))
        flat = [self.mul(x, y) for x, y in zip(av.ravel().tolist(), bv.ravel().tolist())]
        return np.array(flat, dtype=np.int64).reshape(av.shape)

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.kind, self.q, self.poly) == (other.kind, other.q, other.poly)
        )

    def __repr__(self):
        if self.kind == "prime":
            return f"GF({self.q})"
        return f"GF(2^{self.width})"

