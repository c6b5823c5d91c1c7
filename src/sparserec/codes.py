"""Uniform list-recoverable codes: Loomis-Whitney and Reed-Solomon.

Messages are integers in [n]; codewords are r-tuples of integer symbols
in [q].  Both families are uniform (each coordinate of a uniform
message is uniform over the alphabet), which downstream layers rely on.

Each code also encodes vectorized, one symbol position at a time
(`encode_vec`), and its list recovery runs on tuple symbols: a product of
m same-kind codes maps a message tuple (x_1, ..., x_m) to the r symbols
(c_1(x_1)_i, ..., c_m(x_m)_i).  `lw_recover` and `rs_recover` take each
coordinate's distinct tuple symbols as the rows of an (k_i, m) int64
array and return the message tuples as rows of one.  A code's own
`list_recover` is the case m = 1; the recursion tree's node codes are
products of two codes, one on the deterministic and one on the random
half of a packed domain.

List recovery:
  * LW(d)      - reconstruct a set in Sigma^d from its d coordinate-
                 deleted projection sets via the labeled-binary-tree join,
                 output size at most (d-1) * (prod k_i)^(1/(d-1)); with an
                 error budget e, vectors agreeing with d - e of the sets.
                 At d = 2 the two projections share no coordinate, so the
                 join is their product; the split code (x -> its high and
                 low halves) is LW(2) with the two coordinates swapped,
                 and the recursion tree accepts it as an alias of LW(2);
  * Reed-Solomon - keep the polynomials agreeing with need = r -
                 floor(rho * r) sets, interpolated through the b-subsets
                 of the first |occupied| - need + b occupied coordinates
                 (exact by pigeonhole: such a polynomial misses at most
                 |occupied| - need of them; unique decoding for
                 0 <= rho < (1/2)(1 - b/r); message spaces below 2^63).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from sparserec.errors import InfeasibleError, NumericalError, UsageError
from sparserec.fields import FieldSpec
from sparserec.vectors import distinct

_KEY_LIMIT = 1 << 63  # RS messages and tuple symbols are packed into int64 keys

# ---------------------------------------------------------------------------
# the Loomis-Whitney join (coordinate-deleted projections)
# ---------------------------------------------------------------------------


def _project(coords: tuple[int, ...], vec: tuple[int, ...],
             target: tuple[int, ...]) -> tuple[int, ...]:
    pos = {c: i for i, c in enumerate(coords)}
    return tuple(vec[pos[c]] for c in target)


def _merge(coords_l, vec_l, coords_r, vec_r) -> tuple[int, ...]:
    out = {}
    for c, v in zip(coords_l, vec_l):
        out[c] = v
    for c, v in zip(coords_r, vec_r):
        out[c] = v
    return tuple(out[c] for c in sorted(out))


class _JoinNode:
    __slots__ = ("coords", "deter", "ndeter")

    def __init__(self, coords, deter, ndeter):
        self.coords = coords  # sorted tuple of live coordinates
        self.deter = deter    # set of full d-tuples
        self.ndeter = ndeter  # set of tuples over coords


def _combine(left: _JoinNode, right: _JoinNode, cap: float, is_root: bool) -> _JoinNode:
    common = tuple(sorted(set(left.coords) & set(right.coords)))
    by_proj_l: dict[tuple, list] = {}
    for w in left.ndeter:
        by_proj_l.setdefault(_project(left.coords, w, common), []).append(w)
    by_proj_r: dict[tuple, list] = {}
    for w in right.ndeter:
        by_proj_r.setdefault(_project(right.coords, w, common), []).append(w)
    shared = set(by_proj_l) & set(by_proj_r)

    deter = set(left.deter) | set(right.deter)
    if not shared:
        return _JoinNode(common, deter, set())

    if is_root:
        good = shared
        bad: set[tuple] = set()
    else:
        size_r = sum(len(by_proj_r[u]) for u in shared)
        threshold = math.ceil(cap / size_r) - 1
        good = {u for u in shared if len(by_proj_l[u]) <= threshold}
        bad = shared - good

    for u in good:
        for wl in by_proj_l[u]:
            for wr in by_proj_r[u]:
                deter.add(_merge(left.coords, wl, right.coords, wr))
    return _JoinNode(common, deter, bad)


def _join_over_leaves(leaves: list[int], proj_sets: dict[int, set], d: int,
                      cap: float) -> set[tuple[int, ...]]:
    """Left-leaning fold of the labeled join tree over the given leaves."""
    full = tuple(range(d))
    nodes = []
    for leaf in leaves:
        coords = tuple(c for c in full if c != leaf)
        nodes.append(_JoinNode(coords, set(), set(proj_sets[leaf])))
    acc = nodes[0]
    for i, node in enumerate(nodes[1:], start=2):
        acc = _combine(acc, node, cap, is_root=(i == len(nodes)))
    return acc.deter


def _validate_projections(projections) -> list[set[tuple[int, ...]]]:
    d = len(projections)
    if d < 2:
        raise UsageError("need at least two projection sets")
    sets = []
    for s in projections:
        cleaned = set()
        for v in s:
            tv = tuple(v)
            if len(tv) != d - 1:
                raise UsageError(
                    f"projection vectors must have arity {d - 1}, got {len(tv)}"
                )
            cleaned.add(tv)
        sets.append(cleaned)
    return sets


def lw_join(projections, errors: int = 0) -> list[tuple[int, ...]]:
    """All v in Sigma^d whose coordinate-deleted projections v_{-i} lie in
    at least d - errors of the given sets; exact, deduplicated, sorted."""
    sets = _validate_projections(projections)
    d = len(sets)
    if not 0 <= errors <= d - 2:
        raise UsageError("error budget must satisfy 0 <= e <= d-2")
    ks = [len(s) for s in sets]
    found: set[tuple[int, ...]] = set()
    bound = 0.0
    for e in range(errors + 1):
        for bad in itertools.combinations(range(d), e):
            keep = [i for i in range(d) if i not in bad]
            prod = float(np.prod([float(ks[i]) for i in keep]))
            bound += (d - e - 1) * prod ** (1.0 / (d - e - 1))
            if any(ks[i] == 0 for i in keep):
                continue
            cap = prod ** (1.0 / (d - e - 1))
            deter = _join_over_leaves(keep, dict(enumerate(sets)), d, cap)
            for v in deter:
                if all(v[:i] + v[i + 1 :] in sets[i] for i in keep):
                    found.add(v)
    out = sorted(
        v for v in found
        if sum(v[:i] + v[i + 1 :] in sets[i] for i in range(d)) >= d - errors
    )
    if len(out) > math.ceil(bound):
        raise NumericalError("join output exceeded its provable size bound")
    return out


# ---------------------------------------------------------------------------
# list recovery of products of same-kind codes
# ---------------------------------------------------------------------------


def _is_int(v) -> bool:
    """Whether v is an integer (a bool is not)."""
    return isinstance(v, Integral) and not isinstance(v, bool)


def _singletons(sets) -> list[np.ndarray]:
    """Each set of int symbols as the (k, 1) rows of its distinct values."""
    return [np.array(sorted({int(v) for v in s}), dtype=np.int64).reshape(-1, 1)
            for s in sets]


def _rows(tuples, width) -> np.ndarray:
    return np.fromiter(itertools.chain.from_iterable(tuples), dtype=np.int64,
                       count=len(tuples) * width).reshape(-1, width)


def _pack(columns, radices) -> np.ndarray:
    """Mixed-radix keys of the given digit arrays, first most significant."""
    key = columns[0]
    for col, radix in zip(columns[1:], radices[1:]):
        key = key * radix + col
    return key


def lw_recover(codes, syms, errors: int = 0) -> np.ndarray:
    """Messages of a product of LW(d) codes agreeing with at least
    d - errors of the tuple-symbol row arrays.

    Position t of every component's sub-digits combines into one
    mixed-radix digit (first component most significant), so the product
    is itself an LW(d) code and one join recovers it.  For d = 2 the join
    is the sorted product of the two projections, formed in numpy.
    """
    bases = [c.base for c in codes]
    d = codes[0].d
    powers = [base ** np.arange(d - 2, -1, -1) for base in bases]

    def merge(rows) -> np.ndarray:
        return _pack([rows[:, i:i + 1] // power % base
                      for i, (base, power) in enumerate(zip(bases, powers))], bases)

    projections = [merge(s) for s in syms]
    if d == 2 and not errors:
        # component c of the message joining first[i] and second[j] has
        # c's digit of first[i], then c's digit of second[j]
        first, second = distinct(projections[1]), distinct(projections[0])
        msgs = []
        for base in reversed(bases):
            (first, high), (second, low) = np.divmod(first, base), np.divmod(second, base)
            msgs.append(np.add.outer(high * base, low).ravel())
        return np.stack(msgs[::-1], axis=1)
    mixed = _rows(lw_join([set(map(tuple, p.tolist())) for p in projections], errors), d)
    msgs = []
    for base in reversed(bases):
        mixed, digits = np.divmod(mixed, base)
        msgs.append(_pack(digits.T, [base] * d))
    return np.stack(msgs[::-1], axis=1)


def check_rs_rho(rho, b: int, r: int) -> None:
    """UsageError for an RS disagreement tolerance rho that is not a real
    number or lies outside the unique-decoding regime 0 <= rho < (1/2)(1 -
    b/r): a negative rho would ask for more than r agreeing coordinates."""
    if isinstance(rho, bool) or not isinstance(rho, Real):
        raise UsageError(f"rho must be a real number, got {rho!r}")
    if not 0 <= rho < 0.5 * (1 - b / r) - 1e-12:
        raise UsageError("rho outside the rs unique-decoding regime 0 <= rho < (1/2)(1 - b/r)")


def rs_recover(codes, syms, rho: float) -> np.ndarray:
    """Messages of a product of RS codes (sharing b, r and the evaluation
    points) whose codewords agree with the tuple-symbol row arrays on at
    least need = r - floor(rho * r) coordinates.

    Such a message misses at most |occupied| - need occupied coordinates,
    so by pigeonhole it agrees on b of the first |occupied| - need + b of
    them: interpolating through the b-subsets of that span alone finds it.
    Per subset, every value combination is interpolated with one Lagrange
    basis, and the new messages are encoded and checked as int64 arrays.
    """
    first = codes[0]
    ns, qs = [c.n for c in codes], [c.q for c in codes]
    if math.prod(ns) >= _KEY_LIMIT:  # bounds the symbol space prod(q) too
        raise InfeasibleError(f"message space {math.prod(ns)} reaches 2^63: "
                              f"RS recovery packs it into int64 keys")
    need = first.r - first.max_disagreements(rho)
    occupied = [i for i in range(first.r) if len(syms[i])]
    out = [np.zeros((0, len(codes)), dtype=np.int64)]
    if len(occupied) < need:
        return out[0]
    keys = [_pack(s.T, qs) for s in syms]
    seen = np.zeros(0, dtype=np.int64)
    for coords in itertools.combinations(occupied[:len(occupied) - need + first.b], first.b):
        grid = np.indices([len(syms[c]) for c in coords]).reshape(len(coords), -1)
        values = [syms[c][g] for c, g in zip(coords, grid)]
        msgs = []
        for j, code in enumerate(codes):
            f = code.field
            coeffs = [np.zeros(grid.shape[1], dtype=np.int64) for _ in range(code.b)]
            for lt, y in zip(code.lagrange_basis(coords), values):
                coeffs = [f.add_vec(acc, f.mul_vec(y[:, j], c)) for acc, c in zip(coeffs, lt)]
            msgs.append(_pack(coeffs[::-1], [code.q] * code.b))
        # distinct value combinations give distinct messages; drop earlier subsets' ones
        key = _pack(msgs, ns)
        fresh = ~np.isin(key, seen)
        seen = np.concatenate([seen, key[fresh]])
        msgs = [x[fresh] for x in msgs]
        agree = sum(np.isin(_pack([c.encode_vec(x, u) for c, x in zip(codes, msgs)], qs),
                            keys[u]) for u in occupied)
        keep = agree >= need
        out.append(np.stack([x[keep] for x in msgs], axis=1))
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# code descriptors
# ---------------------------------------------------------------------------


class _Code:
    def encode_all(self) -> np.ndarray:
        """The codeword table: row x is the codeword of message x."""
        xs = np.arange(self.n, dtype=np.int64)
        return np.stack([self.encode_vec(xs, u) for u in range(self.r)], axis=1)


class LWCode(_Code):
    """x viewed as d digits; coordinate i of the codeword deletes digit i.

    Symbols are (d-1)-tuples of sub-digits, packed into ints base `base`
    most-significant digit first.
    """

    kind = "lw"

    def __init__(self, n: int, d: int):
        if d < 2:
            raise UsageError("need d >= 2")
        base = round(n ** (1.0 / d))
        while base**d < n:
            base += 1
        if base**d != n:
            raise UsageError(f"message space {n} is not a perfect {d}-th power")
        self.n = n
        self.d = d
        self.r = d
        self.base = base        # sub-digit alphabet
        self.q = base ** (d - 1)  # symbol alphabet
        self.b = d / (d - 1)

    def digits(self, x: int) -> tuple[int, ...]:
        out = []
        for j in range(self.d - 1, -1, -1):
            out.append((x // self.base**j) % self.base)
        return tuple(out)

    def pack_symbol(self, sub_digits) -> int:
        """A symbol from its d-1 sub-digits, most significant first."""
        v = 0
        for t in sub_digits:
            v = v * self.base + int(t)
        return v

    def encode_tuple(self, x: int) -> tuple[tuple[int, ...], ...]:
        if not 0 <= x < self.n:
            raise UsageError(f"message {x} outside [0, {self.n})")
        dig = self.digits(x)
        return tuple(dig[:i] + dig[i + 1 :] for i in range(self.d))

    def encode(self, x: int) -> tuple[int, ...]:
        return tuple(self.pack_symbol(t) for t in self.encode_tuple(x))

    def encode_vec(self, xs: np.ndarray, u) -> np.ndarray:
        """Symbol u of each message in xs: its digits without digit u, that
        is the digits above u shifted down by one place onto those below.
        An array of positions broadcasts against xs."""
        xs = np.asarray(xs, dtype=np.int64)
        below = np.int64(self.base) ** (self.d - 1 - np.asarray(u, dtype=np.int64))
        return xs // (below * self.base) * below + xs % below

    def list_recover(self, sets, rho: float = 0.0, errors: int = 0) -> list[int]:
        if rho != 0.0:
            raise UsageError("LW recovery corrects via an error budget, not rho")
        return lw_recover((self,), _singletons(sets), errors)[:, 0].tolist()


class RSCode(_Code):
    """Polynomial-evaluation code: message digits (base q, least
    significant first) are the coefficients, evaluated at r distinct
    field points (defaults 0..r-1)."""

    kind = "rs"

    def __init__(self, field: FieldSpec, b: int, r: int, points=None):
        if not (_is_int(b) and _is_int(r)):
            raise UsageError(f"b and r must be integers, got {b!r} and {r!r}")
        if b < 1:
            raise UsageError("need b >= 1")
        if r > field.q:
            raise UsageError("need r <= q distinct evaluation points")
        self.field = field
        self.q = field.q
        self.b = b
        self.r = r
        self.n = field.q**b
        if points is None:
            points = list(range(r))
        if not all(map(_is_int, points)):
            raise UsageError("evaluation points must be integers")
        points = [int(p) for p in points]
        if len(points) != r or len(set(points)) != r:
            raise UsageError("evaluation points must be r distinct elements")
        if not all(0 <= p < field.q for p in points):
            raise UsageError("evaluation points must lie in [0, q)")
        self.points = points

    def coefficients(self, x: int) -> list[int]:
        if not 0 <= x < self.n:
            raise UsageError(f"message {x} outside [0, {self.n})")
        return [(x // self.q**s) % self.q for s in range(self.b)]

    def encode(self, x: int) -> tuple[int, ...]:
        coeffs = self.coefficients(x)
        f = self.field
        out = []
        for beta in self.points:
            acc = 0
            for c in reversed(coeffs):
                acc = f.add(f.mul(acc, beta), c)
            out.append(acc)
        return tuple(out)

    def encode_vec(self, xs: np.ndarray, u) -> np.ndarray:
        """Symbol u of each message in xs: Horner evaluation of its
        coefficients at point u.  An array of positions broadcasts against
        xs."""
        xs = np.asarray(xs, dtype=np.int64)
        beta = self._point_array[u]
        acc = 0  # the first product is zeros shaped like beta, broadcast by the sum
        for s in range(self.b - 1, -1, -1):
            digit = (xs // self.q**s) % self.q
            acc = self.field.add_vec(self.field.mul_vec(acc, beta), digit)
        return acc

    @cached_property
    def _point_array(self) -> np.ndarray:
        return np.array(self.points, dtype=np.int64)

    @cached_property
    def _lagrange_bases(self) -> dict:
        return {}

    def lagrange_basis(self, coords) -> list[list[int]]:
        """Coefficients of the Lagrange basis polynomials L_t for the
        points self.points[c] of the given b coordinates (L_t is 1 at
        coordinate t and 0 at the others).  A design constant: each
        coordinate tuple's basis is computed once, on first use, and the
        same lists are returned after."""
        coords = tuple(coords)
        if coords not in self._lagrange_bases:
            self._lagrange_bases[coords] = self._lagrange_basis(coords)
        return self._lagrange_bases[coords]

    def _lagrange_basis(self, coords) -> list[list[int]]:
        f = self.field
        xs = [self.points[c] for c in coords]
        out = []
        for t, xt in enumerate(xs):
            denom = 1
            basis = [1]
            for u, xu in enumerate(xs):
                if u == t:
                    continue
                denom = f.mul(denom, f.sub(xt, xu))
                new = [0] * (len(basis) + 1)
                for p, c in enumerate(basis):
                    new[p + 1] = f.add(new[p + 1], c)
                    new[p] = f.sub(new[p], f.mul(c, xu))
                basis = new
            scale = f.inv(denom)
            out.append([f.mul(c, scale) for c in basis])
        return out

    def max_disagreements(self, rho: float) -> int:
        return int(math.floor(rho * self.r + 1e-9))

    def list_recover(self, sets, rho: float) -> list[int]:
        check_rs_rho(rho, self.b, self.r)
        if len(sets) != self.r:
            raise UsageError(f"need one candidate set per coordinate: {len(sets)} for r = {self.r}")
        if not all(_is_int(v) for s in sets for v in s):
            raise UsageError("candidate symbols must be integers")
        sets = [sorted({int(v) for v in s}) for s in sets]
        for s in sets:
            if s and not 0 <= min(s) <= max(s) < self.q:
                raise UsageError("candidate symbols must lie in [0, q)")
        return sorted(rs_recover((self,), _singletons(sets), rho)[:, 0].tolist())


@dataclass
class ListRecoveryInstance:
    """Per-coordinate candidate sets with disagreement tolerance rho."""

    sets: list
    rho: float = 0.0
    ell: int = dc_field(default=0)

    def __post_init__(self):
        if self.ell:
            for s in self.sets:
                if len(s) > self.ell:
                    raise UsageError("candidate set larger than the declared ell")


def rs_list_recover(code: RSCode, instance: ListRecoveryInstance) -> list[int]:
    """Exactly the messages whose codewords agree with the candidate sets
    on at least (1 - rho) * r coordinates."""
    out = code.list_recover(instance.sets, instance.rho)
    need = code.r - code.max_disagreements(instance.rho)
    ell = max((len(s) for s in instance.sets), default=0)
    if len(out) > max(1, ell) ** code.r:
        raise NumericalError("list recovery output exceeded ell^r")
    for x in out:
        cw = code.encode(x)
        agree = sum(cw[i] in set(instance.sets[i]) for i in range(code.r))
        if agree < need:
            raise NumericalError("recovered message fails the agreement check")
    return out
