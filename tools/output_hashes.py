"""Output-identity check: hash what a checkout's library outputs.

Usage: python3 tools/output_hashes.py CHECKOUT
       python3 tools/output_hashes.py PARENT CHANGE

With one checkout, imports ``CHECKOUT/src/sparserec`` (never an installed
copy) and prints one JSON object of sha256 prefixes (16 hex digits) of its
outputs on a fixed set of designs and signals.  With two, hashes each in
its own interpreter, prints the keys whose values differ (or that only one
side has), and exits 1 on any difference: a refactor that keeps every
output bit for bit prints none and exits 0.

Per design, five signals (zero, exact 8-sparse, 300-sparse, dense noisy
and 1,000-sparse; rng 4242) are encoded and decoded twice on one system, cold then
warm.  Each pass hashes the sketches (int64 views), the estimates (int64
views), ``repr`` of the decode trace and the truncation warnings.  The
designs are the two gated benchmark workloads (``bench/workloads.py``),
split 2^16, LW(3) 2^12 with scheme2 and with no scheme, and split 2^16
and RS 2^14 with default tree copies (s = 2), and RS(6, 3) 2^12 with leaf
target 4 and rho 0: 43 nodes per stage tree, whose depth-1 halves of 4 bits
pad to 9, the only design here that hits the RS minimum width (a field
holding r points).  Beside them: a LW(3) 2^12 tree with list-recovery cap
8 at s = 1 and s = 3 (sketches, identify output and info, truncation
warnings; built under the tree constructor of either checkout, options as
keywords or in ``RecursiveParams``), the experiment CSV on both engines
with 1 and 3 system copies, and decodes of sketches holding NaNs, hashed
by value (every NaN one NaN, -0.0 as +0.0), or the refusal's text where
the decode refuses them.  The 1,000-sparse signal gives a sparse encode
more small-job edges than one 2^16-edge pass (81,000 on the scan 2^16
design), so its small jobs run alone.  On designs with N >= 2^16 a sixth
signal, 20,000-sparse and drawn after the other five, gives the recursive
designs' four stage trees 80,000 fingerprint points, more than one
2^16-point Horner pass holds.  On scan-noisy-n16 a dense signal drawn
after those six, O(1) values with one entry in 64 set to +-1e16, has
bucket sums whose bits depend on the order of their additions; the
sketches of three encodes of it on one fresh system are hashed: the one
that fills the design tables, the one that builds the fold tables and
one that reuses them.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

# the benchmark's design (bench/workloads.py)
COMMON = dict(k=8, epsilon=0.5, ell=9, sign_independence=16)
TREE = dict(code_kind="split", arity=2, leaf_target=256, scheme="scheme2", ell=8, s=1)
RS_TREE = dict(TREE, code_kind="rs", arity=4, rs_b=2, rho=0.2)
LW3 = dict(TREE, code_kind="lw", arity=3)
SYSTEM_SEED = 13046232

DESIGNS = {  # name -> (config keywords, system seed)
    "tree-rs-n14": (dict(COMMON, n=1 << 14, engine="recursive", tree=RS_TREE), SYSTEM_SEED),
    "scan-noisy-n16": (dict(COMMON, n=1 << 16, engine="scan"), SYSTEM_SEED),
    "split-n16": (dict(COMMON, n=1 << 16, engine="recursive", tree=TREE), 2),
    "lw3-n12-scheme2": (dict(COMMON, n=1 << 12, engine="recursive", tree=LW3), 808),
    "lw3-n12-none": (dict(COMMON, n=1 << 12, engine="recursive",
                          tree=dict(LW3, scheme="none")), 808),
    "default-copies-split-n16": (dict(COMMON, n=1 << 16, engine="recursive",
                                      tree={k: v for k, v in TREE.items() if k != "s"}), 2),
    "default-copies-rs-n14": (dict(COMMON, n=1 << 14, engine="recursive",
                                   tree={k: v for k, v in RS_TREE.items() if k != "s"}),
                              SYSTEM_SEED),
    "rs63-n12-minimum-width": (dict(COMMON, n=1 << 12, engine="recursive",
                                    tree=dict(RS_TREE, arity=6, rs_b=3, rho=0.0, leaf_target=4)),
                               SYSTEM_SEED),
}
NAN_DESIGNS = ("tree-rs-n14", "scan-noisy-n16", "split-n16")


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else
                 np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else
                 repr(part).encode())
    return h.hexdigest()[:16]


def bits(arrays) -> list[bytes]:
    """Each float64 array as the bytes of its int64 view."""
    return [np.ascontiguousarray(a, dtype=np.float64).view(np.int64).tobytes() for a in arrays]


def by_value(x: np.ndarray) -> bytes:
    """x with every NaN one NaN and -0.0 as +0.0."""
    return np.where(np.isnan(x), np.nan, np.asarray(x, dtype=np.float64) + 0.0).tobytes()


def signals(n: int, rng=None) -> list[np.ndarray]:
    rng = np.random.default_rng(4242) if rng is None else rng
    zero = np.zeros(n)
    exact = np.zeros(n)
    exact[rng.choice(n, 8, replace=False)] = rng.choice([-1.0, 1.0], 8) * (1 + rng.random(8))
    many = np.zeros(n)
    many[rng.choice(n, 300, replace=False)] = rng.normal(size=300)
    noisy = rng.normal(size=n) * 1e-3
    noisy[rng.choice(n, 8, replace=False)] += rng.choice([-1.0, 1.0], 8) * 2.0
    # more small-job edges than one 2^16-edge pass on every design
    thousand = np.zeros(n)
    thousand[rng.choice(n, 1000, replace=False)] = rng.normal(size=1000)
    if n < 1 << 16:
        return [zero, exact, many, noisy, thousand]
    # the stage trees' fingerprints of its indices take more than one 2^16-point pass
    wide = np.zeros(n)
    wide[rng.choice(n, 20_000, replace=False)] = rng.normal(size=20_000)
    return [zero, exact, many, noisy, thousand, wide]


def order_sensitive(n: int) -> np.ndarray:
    """A dense signal drawn after `signals(n)`: O(1) values, one in 64
    of them replaced by +-1e16."""
    rng = np.random.default_rng(4242)
    signals(n, rng)
    x = rng.normal(size=n)
    big = rng.choice(n, n // 64, replace=False)
    x[big] = rng.choice([-1e16, 1e16], big.size)
    return x


def caught(call):
    """call()'s result and the text of the warnings it raised."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = call()
    return out, [f"{w.category.__name__}: {w.message}" for w in seen]


def design_hashes(sparserec, config: dict, seed: int) -> dict:
    system = sparserec.TopLevelSystem(sparserec.TopLevelConfig(**config), seed)
    xs = signals(config["n"])
    out = {"measurements": system.measurement_count}
    for name in ("cold", "warm"):
        sketches, estimates, traces, texts = [], [], [], []
        for x in xs:
            sketch = system.encode(x)
            trace = []
            x_hat, seen = caught(lambda: system.decode(sketch, trace=trace))
            sketches.append(sketch)
            estimates.append(x_hat)
            traces.append(repr(trace))
            texts += seen
        out.update({f"{name}_sketches": digest(*bits(sketches)),
                    f"{name}_estimates": digest(*bits(estimates)),
                    f"{name}_trace": digest(*traces),
                    f"{name}_warnings": digest(*texts), f"{name}_warning_count": len(texts)})
    return out


def fold_hashes(sparserec, config: dict, seed: int) -> dict:
    """The sketches of three encodes of `order_sensitive` on one fresh
    system: the table fill, the fold build and the reuse."""
    system = sparserec.TopLevelSystem(sparserec.TopLevelConfig(**config), seed)
    x = order_sensitive(config["n"])
    return {name: digest(*bits([system.encode(x)])) for name in ("fill", "fold", "reuse")}


def nan_hashes(sparserec, config: dict, seed: int) -> dict:
    """Decodes of sketches holding NaNs, hashed by value, or the text of
    the UsageError that refuses them."""
    system = sparserec.TopLevelSystem(sparserec.TopLevelConfig(**config), seed)
    rng = np.random.default_rng(77)
    out = {}
    for name, x in zip(("zero", "exact", "many", "noisy", "thousand"), signals(config["n"])):
        sketch = system.encode(x)
        for count in (1, 40, 400, 1500):
            held = sketch.copy()
            held[rng.choice(held.size, count, replace=False)] = np.nan
            trace = []
            try:
                x_hat, seen = caught(lambda: system.decode(held, trace=trace))
            except sparserec.UsageError as err:
                out[f"{name}-{count}"] = f"refused: {err}"
                continue
            stages = [(r["candidates"], r["indices"], by_value(np.array(r["values"])))
                      for r in trace]
            out[f"{name}-{count}"] = digest(by_value(x_hat), stages, *seen)
    return out


def capped_hashes(sparserec, copies: int) -> dict:
    from sparserec.recursive import RecursionTree, RecursiveParams

    shape = dict(leaf_target=128, code_kind="lw", arity=3, scheme="scheme2")
    params = dict(k=16, eta=0.25, ell=8, s=copies, cap=8)
    if "leaf_target" in {f.name for f in fields(RecursiveParams)}:
        tree = RecursionTree(4096, RecursiveParams(**params, **shape), 17)
    else:  # the shape and code as tree keywords
        tree = RecursionTree(n_signal=4096, params=RecursiveParams(**params), seed=17, **shape)
    rng = np.random.default_rng(9)
    x = np.zeros(4096)
    x[rng.choice(4096, size=16, replace=False)] = 5.0
    sketches = tree.encode(x)
    (found, info), seen = caught(lambda: tree.identify(sketches))
    return {"sketches": digest(*bits([s for node in sketches for s in node])),
            "found": digest(np.asarray(found, dtype=np.int64)), "info": digest(info),
            "warnings": digest(*seen), "warning_count": len(seen)}


def experiment_hash(sparserec, engine: str, copies: int) -> str:
    from sparserec.experiment import records_to_csv, run_experiment

    system = {"type": "toplevel", "n": 1024, "k": 4, "epsilon": 0.5, "engine": engine,
              "ell": 7, "tree": {"code_kind": "lw", "arity": 3, "leaf_target": 64},
              "copies": copies}
    config = {"schema_version": 1, "seed": 5, "trials": 3, "system": system,
              "signal": {"n": 1024, "k": 4, "tail_model": "gaussian", "tail_sigma": 0.01},
              "success": {"ratio_threshold": 2.0}}
    records, _ = run_experiment(config)
    return digest(records_to_csv(records).encode())


def compare(parent: str, change: str) -> int:
    """Hash both checkouts, each in a fresh interpreter; print the keys
    that differ and return 1 if any does."""
    flat = []
    for checkout in (parent, change):
        side = json.loads(subprocess.run([sys.executable, __file__, checkout], check=True,
                                         capture_output=True, text=True).stdout)
        out = {}
        for name, value in side.items():
            if isinstance(value, dict):
                out.update({f"{name}.{key}": item for key, item in value.items()})
            else:
                out[name] = value
        flat.append(out)
    keys = flat[0].keys() | flat[1].keys()
    differ = sorted(key for key in keys if flat[0].get(key) != flat[1].get(key))
    for key in differ:
        print(f"{key}: {flat[0].get(key)} -> {flat[1].get(key)}")
    print(f"{len(differ)} of {len(keys)} keys differ")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3:
        return compare(argv[1], argv[2])
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[1]).resolve() / "src"
    sys.path.insert(0, str(src))
    import sparserec

    if Path(sparserec.__file__).resolve().parent != src / "sparserec":
        raise SystemExit(f"sparserec was imported from {sparserec.__file__}, not {src}")
    out = {name: design_hashes(sparserec, *design) for name, design in DESIGNS.items()}
    out.update({f"nan-{name}": nan_hashes(sparserec, *DESIGNS[name]) for name in NAN_DESIGNS})
    out["order-sensitive-scan-noisy-n16"] = fold_hashes(sparserec, *DESIGNS["scan-noisy-n16"])
    out.update({f"capped-lw3-s{s}": capped_hashes(sparserec, s) for s in (1, 3)})
    out.update({f"experiment-{engine}-copies{c}": experiment_hash(sparserec, engine, c)
                for engine in ("scan", "recursive") for c in (1, 3)})
    print(json.dumps(out, sort_keys=True, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
