"""Workload definitions: one fixed system design and a stream of signals.

Every workload uses the acceptance-criterion-8 settings (k = 8,
epsilon = 0.5, ell = 9, sign_independence = 16) and differs in engine,
code and signal length N, so that each one is dominated by a different
layer (see README.md beside this file).  The system seed is fixed per
workload; every signal derives from the workload seed through numpy's
SeedSequence, so the inputs never depend on the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

K = 8
COMMON = dict(k=K, epsilon=0.5, ell=9, sign_independence=16)
TREE = dict(code_kind="split", arity=2, leaf_target=256, scheme="scheme2",
            ell=8, gamma=0.1, s=1)
RS_TREE = dict(TREE, code_kind="rs", arity=4, rs_b=2, rho=0.2)
TAIL_SIGMA = 0.001      # per-coordinate std of the dense Gaussian tail
NOISY_FACTOR = 2.0      # noisy success: ||x - x_hat|| <= 2 ||x_tail||
EXACT_TOLERANCE = 1e-6  # exact success: ||x - x_hat|| <= 1e-6 ||x||
# One fixed design per workload, as in the for-all setting: the workload
# seed varies the signals, never the system, so runs with different seeds
# measure the same sketch design.
SYSTEM_SEED = 13046232


@dataclass(frozen=True)
class Signal:
    x: np.ndarray
    tail_norm: float    # l2 norm of x off its k heads


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    engine: str
    noisy: bool
    signal_s: float     # nominal untraced encode+decode seconds per signal;
                        # sizes the traced run only
    tree: dict = field(default_factory=dict)
    encode_repeats: int = 1  # timed encodes per signal in the untraced run;
                             # more where encode is cheap beside decode

    def config_kwargs(self) -> dict:
        out = dict(COMMON, n=self.n, engine=self.engine)
        if self.tree:
            out["tree"] = dict(self.tree)
        return out

    def signal(self, seed: int, index: int) -> Signal:
        """Signal `index` of the stream for workload seed `seed`."""
        rng = np.random.default_rng([seed, index])
        head = np.sort(rng.choice(self.n, size=K, replace=False))
        signs = rng.choice([-1.0, 1.0], size=K)
        if self.noisy:
            x = rng.normal(size=self.n) * TAIL_SIGMA
            x[head] = 0.0
            tail_norm = float(np.linalg.norm(x))
            x[head] = signs * (1.0 + np.abs(rng.normal(size=K)))
        else:
            x = np.zeros(self.n)
            x[head] = signs * (1.0 + rng.random(K))
            tail_norm = 0.0
        return Signal(x, tail_norm)

    def recovered(self, sig: Signal, x_hat: np.ndarray) -> bool:
        """The workload's success test for one decode."""
        x_hat = np.asarray(x_hat, dtype=np.float64)
        if x_hat.shape != sig.x.shape or not np.all(np.isfinite(x_hat)):
            return False
        err = float(np.linalg.norm(sig.x - x_hat))
        if self.noisy:
            return err <= NOISY_FACTOR * sig.tail_norm
        return err <= EXACT_TOLERANCE * float(np.linalg.norm(sig.x))


# Why each workload is here: README.md, "Workloads".
WORKLOADS = {
    w.name: w for w in (
        Workload(name="scan-noisy-n16", n=1 << 16, engine="scan", noisy=True,
                 signal_s=1.2),
        Workload(name="tree-split-n22", n=1 << 22, engine="recursive",
                 noisy=False, signal_s=0.12, tree=TREE),
        Workload(name="tree-rs-n14", n=1 << 14, engine="recursive",
                 noisy=False, signal_s=0.35, tree=RS_TREE, encode_repeats=4),
    )
}

# Scaled-down copies for the smoke test: same engines, codes and signal
# models at small N, so a full run takes a second or two.
SMOKE_WORKLOADS = {
    w.name: w for w in (
        Workload(name="smoke-scan-noisy", n=1 << 10,
                 engine="scan", noisy=True, signal_s=0.02),
        Workload(name="smoke-tree-split", n=1 << 12,
                 engine="recursive", noisy=False, signal_s=0.03, tree=TREE),
        Workload(name="smoke-tree-rs", n=1 << 10,
                 engine="recursive", noisy=False, signal_s=0.05, tree=RS_TREE,
                 encode_repeats=4),
    )
}


def find(name: str) -> Workload:
    if name in WORKLOADS:
        return WORKLOADS[name]
    return SMOKE_WORKLOADS[name]
