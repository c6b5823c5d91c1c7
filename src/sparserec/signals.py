"""Reproducible test signals with declared head/tail structure.

The head support, head values, and tail never overlap, so every trial
knows its exact best-k-term baseline without re-deriving it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from sparserec.codes import _is_int
from sparserec.errors import UsageError
from sparserec.seeds import rng_for

SUPPORT_MODELS = ("uniform-random", "adversarial-clustered")
VALUE_MODELS = ("unit", "gaussian", "power-law")
TAIL_MODELS = ("none", "gaussian", "flat", "heavy-tail")


@dataclass
class SignalSpec:
    n: int
    k: int
    support_model: str = "uniform-random"
    value_model: str = "unit"
    tail_model: str = "none"
    tail_sigma: float = 0.0       # gaussian tail: per-coordinate std
    tail_mass: float = 0.0        # flat tail: total l2 norm
    tail_count: int = 0           # heavy-tail: number of planted tail spikes
    tail_level: float = 0.0       # heavy-tail: spike magnitude
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "k", "tail_count", "seed"):
            if not _is_int(getattr(self, name)):
                raise UsageError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("tail_sigma", "tail_mass", "tail_level"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
                raise UsageError(f"{name} must be a finite real number, got {value!r}")
        if self.k < 0 or self.k > self.n:
            raise UsageError("need 0 <= k <= n")
        if self.support_model not in SUPPORT_MODELS:
            raise UsageError(f"unknown support model {self.support_model!r}")
        if self.value_model not in VALUE_MODELS:
            raise UsageError(f"unknown value model {self.value_model!r}")
        if self.tail_model not in TAIL_MODELS:
            raise UsageError(f"unknown tail model {self.tail_model!r}")
        if self.tail_model == "heavy-tail" and self.tail_count > self.n - self.k:
            raise UsageError("heavy tail larger than the non-head domain")


def gen_signal(spec: SignalSpec) -> tuple[np.ndarray, np.ndarray]:
    """(x, head_indices); reproducible from spec.seed alone."""
    rng = rng_for(spec.seed, "signal")
    x = np.zeros(spec.n)

    if spec.support_model == "uniform-random":
        head = np.sort(rng.choice(spec.n, size=spec.k, replace=False))
    else:
        start = int(rng.integers(spec.n))
        head = np.sort((start + np.arange(spec.k)) % spec.n)

    signs = rng.choice([-1.0, 1.0], size=spec.k)
    if spec.value_model == "unit":
        values = signs
    elif spec.value_model == "gaussian":
        values = signs * (1.0 + np.abs(rng.normal(size=spec.k)))
    else:  # power-law: sorted magnitudes follow 1/i
        mags = 1.0 / np.arange(1, spec.k + 1)
        values = signs * rng.permutation(mags)
    x[head] = values

    non_head = np.setdiff1d(np.arange(spec.n), head)
    if spec.tail_model == "gaussian":
        x[non_head] = rng.normal(size=non_head.size) * spec.tail_sigma
    elif spec.tail_model == "flat":
        if non_head.size:
            x[non_head] = spec.tail_mass / np.sqrt(non_head.size)
    elif spec.tail_model == "heavy-tail":
        picks = rng.choice(non_head, size=spec.tail_count, replace=False)
        x[picks] = rng.choice([-1.0, 1.0], size=spec.tail_count) * spec.tail_level
    return x, head
