"""Sublinear-time identification via an r-ary tree of shrinking domains.

Every tree node v owns a domain of packed (deterministic, random) bit
pairs, a weak layer over that domain, and (if internal) a code mapping
its messages to r child symbols: the product of two `codes` codes of the
tree's kind, one on each half of the pair.  Encoding pushes the signal
through the composed coordinate maps phi_v and sketches the aggregated
image at every node with the node's identification copies, the only
sketches its decode reads.  Identification runs leaves-first: leaves scan
their whole (small) domain; an internal node list-recovers its children's
candidate lists into a set S_v and prunes it with its own weak layer; the
root's survivors are inverted back to signal indices, with one record
per node; planted_losses charges each missed planted head to a node.

Index shuffling (scheme 2, sublinear space) appends a k-wise-independent
fingerprint: f(i) = (i, g(i)) with g a random polynomial, so inversion
is a projection and every code symbol keeps its proportional share of
the random bits.  scheme="none" leaves indices unshuffled (det-only
trees).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from sparserec.codes import LWCode, RSCode, _is_int, check_rs_rho, lw_recover, rs_recover
from sparserec.errors import InfeasibleError, UsageError
from sparserec.expander import apply_sparse_many
from sparserec.fields import FieldSpec
from sparserec.hashing import PolyHash, eval_many
from sparserec.seeds import derive_seed
from sparserec.vectors import distinct, nonzeros
from sparserec.weak import WeakLayer, WeakParams


def tree_shape(n_root: int, leaf_target: int, arity: int) -> tuple[int, int]:
    """Height ceil(log_r(log_A(n))) clamped at 0, and the node count of
    the complete r-ary tree of that height."""
    if leaf_target < 2 or n_root < 2 or arity < 2:
        raise UsageError("need n >= 2, A >= 2, r >= 2")
    depth_ratio = math.log(n_root) / math.log(leaf_target)
    if depth_ratio <= 1.0:
        h = 0
    else:
        h = max(0, math.ceil(math.log(depth_ratio) / math.log(arity) - 1e-9))
    count = (arity ** (h + 1) - 1) // (arity - 1)
    return h, count


# ---------------------------------------------------------------------------
# index shuffling
# ---------------------------------------------------------------------------


SCHEME2_ALPHA = 0.5  # t = ceil(1/alpha) = 2: as many random bits as signal bits


class Scheme2Map:
    """f(i) = (i, g(i)) with g a degree-d polynomial over GF(2^w),
    w = signal_bits * (t - 1), t = ceil(1/alpha)."""

    def __init__(self, signal_bits: int, alpha: float, degree: int, seed: int):
        if not 0 < alpha < 1:
            raise UsageError("alpha must lie in (0, 1)")
        self.signal_bits = signal_bits
        self.alpha = alpha
        self.t = math.ceil(1.0 / alpha)
        self.rnd_bits = signal_bits * (self.t - 1)
        self.degree = degree
        self.field = FieldSpec.binary(self.rnd_bits)
        self.g = PolyHash.from_seed(self.field, degree, 1 << signal_bits,
                                    derive_seed(seed, "scheme2/g"))

    def fingerprint(self, indices: np.ndarray) -> np.ndarray:
        return self.g.eval_vec(np.asarray(indices, dtype=np.int64))

    def invert(self, det: np.ndarray, rnd: np.ndarray, n_signal: int) -> np.ndarray:
        """Projection inverse; mapped values whose fingerprint does not
        match are not images of any index and are discarded."""
        det = np.asarray(det, dtype=np.int64)
        keep = det < n_signal
        if not np.any(keep):
            return np.zeros(0, dtype=np.int64)
        good = self.fingerprint(det[keep]) == np.asarray(rnd, dtype=np.int64)[keep]
        return distinct(det[keep][good])


# ---------------------------------------------------------------------------
# per-node codes over paired (det, rnd) bit domains
# ---------------------------------------------------------------------------


@dataclass
class NodeCode:
    """Code of one internal node, acting on packed (det, rnd) messages.

    It is the product of two codes of the tree's kind and arity: det_code
    on the deterministic half and rnd_code on the random half (absent when
    the node has no random bits).  Symbol u of (det, rnd) is the pair of
    their u-th symbols; a child's widths are log2 of the codes' alphabets.
    """

    det_code: LWCode | RSCode
    rnd_code: LWCode | RSCode | None = None

    @property
    def child_det_bits(self) -> int:
        return self.det_code.q.bit_length() - 1

    @property
    def child_rnd_bits(self) -> int:
        return 0 if self.rnd_code is None else self.rnd_code.q.bit_length() - 1

    def encode_part_vec(self, det: np.ndarray, rnd: np.ndarray, u):
        """Symbol u of each (det, rnd) message, as a (det, rnd) pair.  An
        array of positions broadcasts against the messages."""
        out_d = self.det_code.encode_vec(det, u)
        if self.rnd_code is None:
            return out_d, np.zeros_like(out_d)
        return out_d, self.rnd_code.encode_vec(rnd, u)

    def list_recover_pairs(self, child_rows: list[np.ndarray], errors: int = 0,
                           rho: float = 0.0) -> np.ndarray:
        """Parent (det, rnd) messages consistent with the children's symbols,
        as the rows of a (k, 2) int64 array; child u's distinct (det, rnd)
        symbols are the rows of child_rows[u]."""
        if self.rnd_code is None:
            codes = (self.det_code,)
            child_rows = [distinct(rows[:, 0])[:, None] for rows in child_rows]
        else:
            codes = (self.det_code, self.rnd_code)
        if self.det_code.kind == "lw":
            found = lw_recover(codes, child_rows, errors)
        else:
            found = rs_recover(codes, child_rows, rho)
        if self.rnd_code is None:
            return np.concatenate([found, np.zeros_like(found)], axis=1)
        return found


# ---------------------------------------------------------------------------
# the recursion tree
# ---------------------------------------------------------------------------


@dataclass
class RecursiveParams:
    """One record of a tree's design: its shape and code (leaf_target,
    code_kind, arity, rs_b, scheme), every node's weak layer (k, eta, ell,
    s, buckets), the list-recovery caps and the leaf-domain guard.

    Building it is where a tree's options are checked: UsageError for an
    integer option that is not an int (a bool is not), ell < 1, cap < 0,
    buckets_per_node < 0 or in 1..ell-1, leaf_target < 2, an LW lw_errors
    outside 0..arity-2, s < 1 and what `check_tree_code` refuses.  "split"
    is read as LW(2).
    """

    k: int
    eta: float = 0.25
    ell: int = 8
    buckets_per_node: int = 0      # 0 -> 8 * k * ell
    s: int = 1                     # identification copies per node
    sign_independence: int = 32
    cap: int = 0                   # 0 -> code-specific provable bound
    lw_errors: int = 0             # error budget for tolerant joins
    # disagreement tolerance for rs nodes: a parent keeps messages that
    # agree with r - floor(rho * r) child lists, and rho < (1/2)(1 - b/r),
    # so RS(r=4, b=2) tolerates no child loss; with b = 2 that starts at
    # r >= 5
    rho: float = 0.25
    max_leaf_domain: int = 1 << 20
    leaf_target: int = 256         # A: leaves scan domains of about A values
    code_kind: str = "lw"          # "lw" | "rs" | "split" (LW(2))
    arity: int = 2                 # r children per internal node
    rs_b: int = 2                  # RS message length in field symbols
    scheme: str = "scheme2"        # "scheme2" | "none" (det-only)

    def __post_init__(self):
        for name in ("ell", "s", "cap", "buckets_per_node", "lw_errors", "leaf_target",
                     "arity", "rs_b", "max_leaf_domain"):
            if not _is_int(getattr(self, name)):
                raise UsageError(f"tree option {name} must be an integer, "
                                 f"got {getattr(self, name)!r}")
        if self.ell < 1 or self.s < 1 or self.cap < 0 or self.leaf_target < 2:
            raise UsageError("tree options need ell >= 1, s >= 1, cap >= 0 and leaf_target >= 2")
        if self.buckets_per_node < 0 or 0 < self.buckets_per_node < self.ell:
            raise UsageError("tree option buckets_per_node must be 0 or at least ell")
        self.code_kind, self.arity = check_tree_code(self.code_kind, self.arity, self.rs_b,
                                                     self.rho, self.scheme)
        if self.code_kind == "lw" and not 0 <= self.lw_errors <= self.arity - 2:
            raise UsageError("tree option lw_errors must lie in 0..arity-2 on an lw tree")

    def weak(self) -> WeakParams:
        return WeakParams(k=self.k, eta=self.eta, ell=self.ell, s=self.s)

    def buckets(self) -> int:
        return self.buckets_per_node or 8 * self.k * self.ell


@dataclass
class _Node:
    node_id: int
    depth: int
    det_in: int                # structural widths delivered by the parent
    rnd_in: int
    det_bits: int              # padded widths used for the packed domain
    rnd_bits: int
    parent: int | None
    children: list[int]
    code: NodeCode | None
    layer: WeakLayer

    @property
    def domain(self) -> int:
        return 1 << (self.det_bits + self.rnd_bits)

    def pack(self, det: np.ndarray, rnd: np.ndarray) -> np.ndarray:
        return (np.asarray(det, dtype=np.int64) << self.rnd_bits) | np.asarray(
            rnd, dtype=np.int64)

    def unpack(self, packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        packed = np.asarray(packed, dtype=np.int64)
        return packed >> self.rnd_bits, packed & ((1 << self.rnd_bits) - 1)


def node_images_many(trees, indices: np.ndarray) -> list[np.ndarray]:
    """`tree.node_images(indices)` of each tree: a (nodes, len(indices))
    int64 array whose row v is the packed phi_v image of the signal
    indices at node v.

    The trees' fingerprints of the indices are one `hashing.eval_many`
    call: one Horner pass when the trees share a fingerprint field and
    all their points fit in one pass, else one pass per tree.  Depth by
    depth, the internal nodes of all trees with the same code (the same
    kind, arity and widths) stack their messages (`_image_groups`, cached
    per tree sequence), and the code runs once for all of them and all of
    their children.  Each tree then packs all its nodes' (det, rnd) rows
    at once.
    """
    idx = np.asarray(indices, dtype=np.int64)
    fingerprints = iter(eval_many([tree.mapper.g for tree in trees if tree.mapper is not None],
                                  idx))
    pairs = []  # per tree: (det, rnd) rows of every node, filled depth by depth
    for tree in trees:
        det, rnd = np.empty((2, len(tree.nodes), idx.size), dtype=np.int64)
        det[0] = idx
        rnd[0] = 0 if tree.mapper is None else next(fingerprints)
        pairs.append((det, rnd))
    for code, positions, members in _image_groups(trees):
        det, rnd = (np.concatenate([pairs[at][c][node_id] for at, node_id, _ in members])
                    for c in (0, 1))
        cd, cr = code.encode_part_vec(det, rnd, positions)
        for block, (at, _, children) in enumerate(members):
            cols = slice(block * idx.size, (block + 1) * idx.size)
            pairs[at][0][children] = cd[:, cols]
            pairs[at][1][children] = cr[:, cols]
    return [(det << tree.rnd_bits[:, None]) | rnd for tree, (det, rnd) in zip(trees, pairs)]


def _image_groups(trees) -> list[tuple]:
    """(code, symbol positions as a column, members) of each group of
    internal nodes that `node_images_many` encodes together, in depth
    order; a member is (tree position, node id, the slice of its
    children's ids, consecutive as `_build` numbers nodes breadth first).
    Cached on the first tree per tree sequence, on first use."""
    if not trees:
        return []
    cache = vars(trees[0]).setdefault("_image_groups", {})
    key = tuple(trees)
    if key not in cache:
        groups: dict = {}
        for at, tree in enumerate(trees):
            p = tree.params
            for node in tree.nodes:
                if node.children:
                    groups.setdefault((node.depth, p.code_kind, p.arity, p.rs_b,
                                       node.det_bits, node.rnd_bits), []).append(
                        (at, node.node_id, slice(node.children[0], node.children[-1] + 1)))
        cache[key] = [(trees[members[0][0]].nodes[members[0][1]].code,
                       np.arange(arity)[:, None], members)
                      for (_, _, arity, *_), members in sorted(groups.items(),
                                                               key=lambda item: item[0][0])]
    return cache[key]


def check_tree_code(code_kind: str, arity: int, rs_b: int, rho: float,
                    scheme: str) -> tuple[str, int]:
    """The tree's (code kind, arity), "split" read as LW(2); UsageError for
    an unknown code kind or scheme, an arity the code cannot take, or an
    RS rho `codes.check_rs_rho` refuses."""
    if code_kind == "split":  # LW(2) with its two coordinates swapped
        code_kind, arity = "lw", 2
    if code_kind not in ("lw", "rs"):
        raise UsageError(f"unknown code kind {code_kind!r}")
    if code_kind == "lw" and arity < 2:
        raise UsageError("lw code needs arity d >= 2")
    if code_kind == "rs":
        if not 0 < rs_b < arity:
            raise UsageError("rs code needs r > b >= 1")
        check_rs_rho(rho, rs_b, arity)
    if scheme not in ("scheme2", "none"):
        raise UsageError(f"unknown scheme {scheme!r}")
    return code_kind, arity


class RecursionTree:
    """Complete r-ary identification tree over a shuffled signal domain,
    of the shape and code that params record.

    Scheme 2 shuffles with Scheme2Map(alpha=SCHEME2_ALPHA, degree=2k + 3),
    k from params; the tree takes no other fingerprint options.
    """

    def __init__(self, n_signal: int, params: RecursiveParams, seed: int):
        if n_signal < 2 or n_signal & (n_signal - 1):
            raise UsageError("signal length must be a power of two")
        self.n_signal = n_signal
        self.signal_bits = n_signal.bit_length() - 1
        self.params = params
        self.seed = int(seed)

        if params.scheme == "scheme2":
            self.mapper = Scheme2Map(self.signal_bits, SCHEME2_ALPHA,
                                     2 * params.k + 3, self.seed)
            rnd_in = self.mapper.rnd_bits
        else:
            self.mapper, rnd_in = None, 0
        self.height, self.node_count = tree_shape(1 << (self.signal_bits + rnd_in),
                                                  params.leaf_target, params.arity)
        self.nodes: list[_Node] = []
        self._build(self.signal_bits, rnd_in)

    # -- construction --

    def _half_code(self, bits: int):
        """The tree's code on a half of `bits` bits (None when bits == 0),
        its message space padded up to a width the code takes: a multiple
        of d for LW(d), and for RS(r, b) a multiple of b whose field holds
        r evaluation points."""
        if not bits:
            return None
        p = self.params
        if p.code_kind == "lw":
            return LWCode(1 << (-(-bits // p.arity) * p.arity), p.arity)
        return RSCode(FieldSpec.binary(max(-(-bits // p.rs_b), (p.arity - 1).bit_length())),
                      b=p.rs_b, r=p.arity)

    def _build(self, root_det_in: int, root_rnd_in: int):
        pending = [(0, None, root_det_in, root_rnd_in)]
        while pending:
            depth, parent, det_in, rnd_in = pending.pop(0)
            node_id = len(self.nodes)
            internal = depth < self.height
            if internal:
                code = NodeCode(self._half_code(det_in), self._half_code(rnd_in))
                det_bits, rnd_bits = (0 if half is None else half.n.bit_length() - 1
                                      for half in (code.det_code, code.rnd_code))
            else:
                det_bits, rnd_bits, code = det_in, rnd_in, None
                if 1 << (det_bits + rnd_bits) > self.params.max_leaf_domain:
                    raise InfeasibleError(
                        f"leaf domain 2^{det_bits + rnd_bits} exceeds the "
                        f"scan guard; raise the leaf target or the guard"
                    )
            layer = WeakLayer(
                params=self.params.weak(),
                domain=1 << (det_bits + rnd_bits),
                n_buckets=self.params.buckets(),
                seed=derive_seed(self.seed, f"node/{node_id}"),
                sign_independence=self.params.sign_independence,
            )
            node = _Node(node_id=node_id, depth=depth, det_in=det_in,
                         rnd_in=rnd_in, det_bits=det_bits, rnd_bits=rnd_bits,
                         parent=parent, children=[], code=code, layer=layer)
            self.nodes.append(node)
            if parent is not None:
                self.nodes[parent].children.append(node_id)
            if internal:
                for _ in range(self.params.arity):
                    pending.append((depth + 1, node_id,
                                    code.child_det_bits, code.child_rnd_bits))
        assert len(self.nodes) == self.node_count

    # -- coordinate maps --

    @cached_property
    def rnd_bits(self) -> np.ndarray:
        """Each node's random-half width, the shift of its packed values."""
        return np.array([node.rnd_bits for node in self.nodes])

    def node_images(self, indices: np.ndarray) -> np.ndarray:
        """Packed phi_v image of the given signal indices at every node v,
        as row v of a (nodes, len(indices)) array."""
        return node_images_many([self], indices)[0]

    # -- encoding --

    @property
    def measurement_count(self) -> int:
        return sum(len(node.layer.ident_ops) * node.layer.n_buckets for node in self.nodes)

    def sketch_rows(self, images: np.ndarray) -> list[np.ndarray]:
        """Each node's row of `node_images`, once per identification copy:
        the rows of a sparse encode's operators, in sketch order."""
        return [row for row, node in zip(images, self.nodes) for _ in node.layer.ident_ops]

    def encode_sparse(self, indices: np.ndarray, values: np.ndarray) -> list[list[np.ndarray]]:
        ops = [op for node in self.nodes for op in node.layer.ident_ops]
        rows = self.sketch_rows(self.node_images(indices))
        sketches = iter(apply_sparse_many(ops, rows, values))
        return [[next(sketches) for _ in node.layer.ident_ops] for node in self.nodes]

    def encode(self, x: np.ndarray) -> list[list[np.ndarray]]:
        return self.encode_sparse(*nonzeros(x, self.n_signal))

    # -- identification --

    def identify(self, sketches: list[list[np.ndarray]]):
        """Candidate signal indices, leaves first, and info["nodes"]: one
        record of plain ints and lists per node, with its list-recovery
        output before truncation ("recovered", None at leaves) and its
        output list ("found")."""
        lists: dict[int, np.ndarray] = {}
        records = []
        for node in sorted(self.nodes, key=lambda v: -v.depth):
            recovered, truncated = None, 0
            if node.children:
                child_rows = []
                for child_id in node.children:
                    child = self.nodes[child_id]
                    det, rnd = child.unpack(lists[child_id])
                    ok = (det < (1 << child.det_in)) & (rnd < (1 << child.rnd_in))
                    child_rows.append(np.stack([det[ok], rnd[ok]], axis=1))
                pairs = node.code.list_recover_pairs(child_rows, self.params.lw_errors,
                                                     self.params.rho)
                cand = distinct(node.pack(pairs[:, 0], pairs[:, 1]))
                recovered = cand.tolist()
                cap = self.params.cap or self._default_cap()
                if cand.size > cap:
                    truncated = cand.size - cap
                    cand = cand[:cap]
                    warnings.warn(
                        f"node {node.node_id}: list recovery returned "
                        f"{cand.size + truncated} candidates, truncated to {cap} "
                        f"(counts as identification loss)",
                        stacklevel=2,
                    )
            else:
                cand = np.arange(node.domain, dtype=np.int64)
            found = node.layer.identify(sketches[node.node_id], cand)
            lists[node.node_id] = found
            records.append({
                "node": node.node_id,
                "depth": node.depth,
                "candidates": int(cand.size),
                "truncated": truncated,
                "recovered": recovered,
                "found": found.tolist(),
            })
        det, rnd = self.nodes[0].unpack(lists[0])
        if self.mapper is None:
            out = distinct(det[det < self.n_signal])
        else:
            out = self.mapper.invert(det, rnd, self.n_signal)
        return out, {"nodes": records}

    def planted_losses(self, info: dict, support: np.ndarray) -> list[dict]:
        """Per node record of identify: how many planted images were in its
        candidates (at a leaf all, else the list-recovery output before
        truncation, so a head the cap cut away is lost there), which of them
        it lost, and which of its planted images are missing from its output."""
        images = self.node_images(np.asarray(support, dtype=np.int64))
        out = []
        for record in info["nodes"]:
            alive = np.unique(images[record["node"]])
            present = (alive if record["recovered"] is None
                       else alive[np.isin(alive, record["recovered"])])
            out.append({
                "node": record["node"],
                "planted_in_candidates": int(present.size),
                "planted_lost_here": np.setdiff1d(present, record["found"]).tolist(),
                "planted_missing_after": np.setdiff1d(alive, record["found"]).tolist(),
            })
        return out

    def _default_cap(self) -> int:
        ell_in = 2 * self.params.weak().ident_count
        d = self.params.arity
        if self.params.code_kind == "rs":
            return ell_in**d
        return math.ceil((d - 1) * ell_in ** (d / (d - 1)))
