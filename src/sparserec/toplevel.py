"""Weak layers stacked into a full (k, 1+eps) recovery system.

The stage schedule halves the sparsity target per stage while tightening
precision as eps / i^(1+alpha); stage i runs its own weak layer (and
optionally a recursive identification tree) on the residual sketch,
i.e. the stage sketch of x minus the stage encoding of everything
recovered so far, and the estimates accumulate.  Residual sketches are
recomputed exactly from the accumulated estimate; no approximate
updates.  A system encode and the decode's residual re-encode share one
path: all stage trees' node images come from one `node_images_many`
call, and all stages' operators sketch through one `apply_sparse_many` call.
A decode can append one record per stage to a trace list: what the stage
identified and added to the estimate, and the tree's per-node records.

Also here: component-wise median amplification across independently
seeded system copies, and an orthogonal-matching-pursuit baseline for
dense Gaussian matrices.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field as dc_field, fields
from numbers import Real

import numpy as np

from sparserec.codes import _is_int
from sparserec.errors import UsageError
from sparserec.expander import apply_sparse_many
from sparserec.hashing import SignFamily
from sparserec.recursive import RecursionTree, RecursiveParams, node_images_many
from sparserec.seeds import derive_seed
from sparserec.vectors import distinct, nonzeros
from sparserec.weak import WeakLayer, WeakParams, lower_median


@dataclass(frozen=True)
class StageSpec:
    index: int          # 1-based stage number
    k: int              # sparsity target floor(k / 2^(index-1))
    precision: float    # eta for this stage: eps / index^(1+alpha)
    copies: int         # identification copies s_i


@dataclass
class StageSchedule:
    epsilon: float
    alpha: float
    c_exp: int
    stages: list[StageSpec]

    @staticmethod
    def build(k: int, epsilon: float, alpha: float = 0.5,
              c_exp: int = 4) -> "StageSchedule":
        if k < 1 or epsilon <= 0:
            raise UsageError("need k >= 1 and epsilon > 0")
        stages = []
        i = 1
        while True:
            ki = k >> (i - 1)
            if ki < 1:
                break
            precision = min(0.9, epsilon / i ** (1 + alpha))
            copies = max(1, round(2**i / i ** ((1 + alpha) * c_exp + 2 + alpha)))
            stages.append(StageSpec(index=i, k=ki, precision=precision, copies=copies))
            if ki == 1:
                break
            i += 1
        return StageSchedule(epsilon=epsilon, alpha=alpha, c_exp=c_exp,
                             stages=stages)


# Tree options a config may set; each stage supplies the rest.
_TREE_KEYS = {f.name for f in fields(RecursiveParams)} - {"k", "eta", "sign_independence"}


@dataclass
class TopLevelConfig:
    """Everything needed to rebuild a system from (config, seed)."""

    n: int
    k: int
    epsilon: float = 0.5
    alpha: float = 0.5
    c_exp: int = 4
    engine: str = "scan"            # "scan" | "recursive"
    ell: int = 12
    bucket_factor: float = 8.0
    min_buckets: int = 64
    sign_independence: int = 32
    tree: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.engine not in ("scan", "recursive"):
            raise UsageError(f"unknown stage engine {self.engine!r}")
        for name in ("n", "k", "ell", "min_buckets", "c_exp", "sign_independence"):
            if not _is_int(getattr(self, name)):
                raise UsageError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("epsilon", "alpha", "bucket_factor"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
                raise UsageError(f"{name} must be a finite real number, got {value!r}")
        if self.n < 2 or self.k < 1 or self.k > self.n:
            raise UsageError("need 2 <= n and 1 <= k <= n")
        if self.ell < 1 or self.bucket_factor <= 0:
            raise UsageError("need ell >= 1 and bucket_factor > 0")
        if not isinstance(self.tree, dict):
            raise UsageError(f"tree must be a mapping of tree options, got {self.tree!r}")
        if "gamma" in self.tree:
            # older configs and descriptors carry a tree loss fraction no
            # layer read; it is accepted and dropped
            self.tree = {key: v for key, v in self.tree.items() if key != "gamma"}
        unknown = sorted(set(self.tree) - _TREE_KEYS)
        if unknown:
            raise UsageError(f"unknown tree options: {unknown}")
        # the tree's own rules, on both engines, so a scan system refuses
        # the tree options a recursive one would
        RecursiveParams(k=self.k, **{"ell": self.ell, **self.tree})


class _Stage:
    def __init__(self, config: TopLevelConfig, spec: StageSpec, seed: int):
        self.spec = spec
        buckets = max(config.min_buckets,
                      int(config.bucket_factor * spec.k * config.ell))
        params = WeakParams(k=spec.k, eta=spec.precision, ell=config.ell, s=spec.copies)
        self.layer = WeakLayer(params=params, domain=config.n,
                               n_buckets=buckets, seed=derive_seed(seed, "layer"),
                               sign_independence=config.sign_independence)
        # The operators the decode reads, one list per weak layer in sketch
        # order; the stage sketches exactly these.  On the recursive engine
        # the tree nodes identify with their copies and the stage estimates.
        self.tree = None
        if config.engine == "scan":
            self.read_ops = [self.layer.operators]
        else:
            tree_params = RecursiveParams(
                k=spec.k, eta=spec.precision, sign_independence=config.sign_independence,
                **{"ell": config.ell, "s": spec.copies, **config.tree})
            self.tree = RecursionTree(config.n, tree_params, derive_seed(seed, "tree"))
            self.read_ops = ([node.layer.ident_ops for node in self.tree.nodes]
                             + [[self.layer.est_op]])
        self.ops = [op for group in self.read_ops for op in group]  # in sketch order
        self.measurement_count = sum(op.n_buckets for op in self.ops)

    def split(self, flat: np.ndarray) -> list[list[np.ndarray]]:
        """The stage's sketch arrays, as views of its flat slice, grouped
        like `read_ops`."""
        parts = iter(np.split(flat, np.cumsum([op.n_buckets for op in self.ops])[:-1]))
        return [[next(parts) for _ in group] for group in self.read_ops]

    def identify(self, sketches: list[list[np.ndarray]]) -> tuple[np.ndarray, list | None]:
        """Candidates and the tree's node records (None on the scan engine)."""
        if self.tree is not None:
            found, info = self.tree.identify(sketches[:-1])
            return found, info["nodes"]
        return self.layer.identify(sketches[-1], np.arange(self.layer.domain)), None

    def estimate(self, sketches: list[list[np.ndarray]], candidates):
        return self.layer.estimate(sketches[-1], candidates)


class TopLevelSystem:
    """Stacked stage systems with exact measurement accounting."""

    def __init__(self, config: TopLevelConfig, seed: int):
        self.config = config
        self.seed = int(seed)
        self.schedule = StageSchedule.build(config.k, config.epsilon,
                                            config.alpha, config.c_exp)
        self.stages = [
            _Stage(config, spec, derive_seed(self.seed, f"stage/{spec.index}"))
            for spec in self.schedule.stages
        ]

    @property
    def n(self) -> int:
        return self.config.n

    @property
    def measurement_count(self) -> int:
        return sum(stage.measurement_count for stage in self.stages)

    def encode(self, x: np.ndarray) -> np.ndarray:
        flat = np.concatenate(_encode_stages(self.stages, *nonzeros(x, self.n)))
        assert flat.size == self.measurement_count
        return flat

    def decode(self, flat_sketch: np.ndarray, trace: list | None = None) -> np.ndarray:
        """Accumulated estimate.  A trace list gets one record per stage:
        "stage", "candidates" (count), "nodes" (the tree's node records,
        None on the scan engine), and the "indices" and "values" the stage
        added (empty for an exactly-zero residual); replayed in order into
        a zero vector, they give the estimate bit for bit.

        The estimate is kept sparse, as sorted indices with nonzero values,
        and made dense only on return.  Its residual re-encode covers every
        remaining stage in one batch, which the later stages use as long as
        no stage in between changes the estimate.  A sketch of the wrong
        length, or holding a NaN or infinite entry, raises UsageError."""
        flat = np.asarray(flat_sketch, dtype=np.float64)
        if flat.size != self.measurement_count:
            raise UsageError(
                f"sketch has {flat.size} entries, expected {self.measurement_count}"
            )
        if not np.isfinite(flat).all():
            raise UsageError("sketch holds a NaN or infinite entry")
        indices, values = np.zeros(0, dtype=np.int64), np.zeros(0)
        encoded: dict = {}  # stage position -> flat sketch of the estimate
        pos = 0
        for at, stage in enumerate(self.stages):
            residual = flat[pos : pos + stage.measurement_count]
            pos += stage.measurement_count
            if indices.size:
                if at not in encoded:
                    encoded = dict(enumerate(
                        _encode_stages(self.stages[at:], indices, values), start=at))
                residual = residual - encoded[at]
            if not np.any(residual):
                # an exactly-zero residual sketch yields all-zero medians,
                # so the stage would accumulate nothing
                if trace is not None:
                    trace.append({"stage": stage.spec.index, "candidates": 0,
                                  "nodes": None, "indices": [], "values": []})
                continue
            sketches = stage.split(residual)
            candidates, nodes = stage.identify(sketches)
            dec = stage.estimate(sketches, candidates)
            indices, values = _accumulate(indices, values, dec.indices, dec.values)
            encoded = {}
            if trace is not None:
                trace.append({"stage": stage.spec.index, "candidates": len(candidates),
                              "nodes": nodes, "indices": dec.indices.tolist(),
                              "values": dec.values.tolist()})
        out = np.zeros(self.n)
        out[indices] = values
        return out

    # -- serialization --

    def to_json(self) -> str:
        blob = {"config": asdict(self.config), "seed": self.seed,
                "measurements": self.measurement_count, "sign_family": SignFamily.NAME}
        return json.dumps(blob, sort_keys=True, indent=2)

    @staticmethod
    def from_json(text: str) -> "TopLevelSystem":
        blob = json.loads(text)
        config = dict(blob["config"])
        if blob.get("sign_family") != SignFamily.NAME:
            # an older family gives sketches of the same length with other signs
            raise UsageError(f"descriptor records sign family {blob.get('sign_family')!r}, "
                             f"but sketches here use {SignFamily.NAME!r}; rebuild the "
                             "system and re-encode its signals")
        config.pop("d_exp", None)  # older descriptors store this unused exponent
        system = TopLevelSystem(TopLevelConfig(**config), blob["seed"])
        stored = blob.get("measurements", system.measurement_count)
        if stored != system.measurement_count:
            raise UsageError(f"descriptor records {stored} measurements, but its config "
                             f"builds {system.measurement_count} here")
        return system


def _encode_stages(stages, indices, values) -> list[np.ndarray]:
    """Flat sketch of one sparse vector in each of the given stages, from one
    `node_images_many` call and one `apply_sparse_many` call, so the stages
    share their fingerprint, code, neighbor-row and sign passes and their
    bucket sums: a system encode and the decode's residual re-encode."""
    trees = [stage.tree for stage in stages if stage.tree is not None]
    images = iter(node_images_many(trees, indices))
    # per stage: its tree nodes' rows of the images, then the indices
    rows = [row for stage in stages
            for row in ([] if stage.tree is None else stage.tree.sketch_rows(next(images)))
            + [indices] * len(stage.read_ops[-1])]
    sketches = iter(apply_sparse_many([op for stage in stages for op in stage.ops], rows, values))
    return [np.concatenate([next(sketches) for _ in stage.ops]) for stage in stages]


def _accumulate(indices, values, add_indices, add_values):
    """Sorted sparse sum of two sparse vectors with sorted, distinct indices,
    exact zeros dropped: the nonzeros of a dense `acc[add_indices] +=
    add_values`, bit for bit (each entry takes the same one addition)."""
    union = distinct(np.concatenate([indices, add_indices]))
    out = np.zeros(union.size)
    out[np.searchsorted(union, indices)] = values
    out[np.searchsorted(union, add_indices)] += add_values
    keep = out != 0
    return union[keep], out[keep]


def build_toplevel(n: int, k: int, epsilon: float, seed: int,
                   **kwargs) -> TopLevelSystem:
    return TopLevelSystem(TopLevelConfig(n=n, k=k, epsilon=epsilon, **kwargs), seed)


def repeat_median_amplify(systems: list[TopLevelSystem],
                          sketches: list[np.ndarray]) -> np.ndarray:
    """Component-wise (lower) median of the copies' decodes."""
    if not systems or len(systems) != len(sketches):
        raise UsageError("need one sketch per system copy")
    decs = np.stack([sys_.decode(sk) for sys_, sk in zip(systems, sketches)], axis=1)
    return lower_median(decs)


def omp_baseline(phi: np.ndarray, y: np.ndarray, k: int,
                 iterations: int | None = None) -> np.ndarray:
    """Orthogonal matching pursuit: 2k rounds of greedy correlation
    selection with a full least-squares refit each round."""
    phi = np.asarray(phi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m, n = phi.shape
    if m > n:
        raise UsageError("expected m <= N")
    col_norms = np.linalg.norm(phi, axis=0)
    if np.any(col_norms == 0):
        raise UsageError("measurement matrix has a zero column")
    if iterations is None:
        iterations = 2 * k
    selected: list[int] = []
    residual = y.copy()
    solution = np.zeros(0)
    for _ in range(iterations):
        if np.linalg.norm(residual) <= 1e-12:
            break
        scores = np.abs(phi.T @ residual) / col_norms
        scores[selected] = -1.0
        j = int(np.argmax(scores))
        selected.append(j)
        # least-squares refit; rank-deficient submatrices fall back to the
        # least-norm solution automatically
        solution, *_ = np.linalg.lstsq(phi[:, selected], y, rcond=None)
        residual = y - phi[:, selected] @ solution
    x_hat = np.zeros(n)
    if selected:
        x_hat[selected] = solution
    return x_hat
