"""Monte-Carlo experiment runner: config in, trial records and CSV out.

Every output byte of the CSV is a function of (config, master seed):
per-trial seeds come from the derivation tree and trials are merged in
trial-id order.  Decode wall times are kept on the in-memory records and
in the summary, never in the CSV, so reruns are byte-identical.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, fields
from numbers import Real

import numpy as np

from sparserec.errors import UsageError, check_int
from sparserec.seeds import derive_seed
from sparserec.signals import SignalSpec, gen_signal
from sparserec.toplevel import TopLevelConfig, TopLevelSystem, repeat_median_amplify
from sparserec.vectors import tail_norm

SCHEMA_VERSION = 1

# a system block is a TopLevelConfig plus what only the experiment reads;
# older configs may also carry d_exp, an exponent no stage reads
_EXPERIMENT_KEYS = {"type", "copies", "d_exp"}
_SYSTEM_KEYS = {f.name for f in fields(TopLevelConfig)} | _EXPERIMENT_KEYS
_SIGNAL_KEYS = {
    "n", "k", "support_model", "value_model", "tail_model", "tail_sigma",
    "tail_mass", "tail_count", "tail_level",
}
_SUCCESS_KEYS = {"ratio_threshold", "exact_rel_tol"}
_TOP_KEYS = {"schema_version", "seed", "trials", "system", "signal", "success"}


@dataclass
class TrialRecord:
    trial: int
    seed: int
    l2_error: float
    tail_norm: float
    ratio: float | None
    success: bool
    decode_seconds: float
    measurements: int


def _reject_unknown(mapping: dict, allowed: set, where: str):
    unknown = set(mapping) - allowed
    if unknown:
        raise UsageError(f"unknown keys in {where}: {sorted(unknown)}")


def _toplevel_config(system: dict) -> TopLevelConfig:
    """The system block as a TopLevelConfig."""
    return TopLevelConfig(**{k: v for k, v in system.items() if k not in _EXPERIMENT_KEYS})


def validate_config(config: dict) -> dict:
    if not isinstance(config, dict):
        raise UsageError("config must be a JSON object")
    _reject_unknown(config, _TOP_KEYS, "config")
    for key in ("schema_version", "seed", "trials", "system", "signal"):
        if key not in config:
            raise UsageError(f"config missing required key {key!r}")
    if config["schema_version"] != SCHEMA_VERSION:
        raise UsageError(f"unsupported schema version {config['schema_version']}")
    check_int(config["seed"], "seed", 0, 1 << 64)  # derive_seed keys on 8 bytes
    check_int(config["trials"], "trials", 0)
    system = config["system"]
    _reject_unknown(system, _SYSTEM_KEYS, "config.system")
    if system.get("type", "toplevel") not in ("toplevel", "oracle"):
        raise UsageError(f"unknown system type {system.get('type')!r}")
    check_int(system.get("copies", 1), "copies", 1)
    _reject_unknown(config["signal"], _SIGNAL_KEYS, "config.signal")
    _reject_unknown(config.get("success", {}), _SUCCESS_KEYS, "config.success")
    for key, value in config.get("success", {}).items():
        if isinstance(value, bool) or not isinstance(value, Real) or value != value:
            raise UsageError(f"success.{key} must be a real number, got {value!r}")
    SignalSpec(seed=0, **config["signal"])  # field validation
    if system.get("type", "toplevel") == "toplevel":
        _toplevel_config(system)
    return config


def _run_trial(trial: int, config: dict, master_seed: int) -> TrialRecord:
    seed = derive_seed(master_seed, f"trial/{trial}")
    spec = SignalSpec(seed=derive_seed(seed, "signal"), **config["signal"])
    x, _ = gen_signal(spec)
    system_cfg = config["system"]
    kind = system_cfg.get("type", "toplevel")

    started = time.perf_counter()
    if kind == "oracle":
        x_hat = x.copy()
        measurements = 0
    else:
        copies = int(system_cfg.get("copies", 1))
        top_cfg = _toplevel_config(system_cfg)
        systems = [TopLevelSystem(top_cfg, derive_seed(seed, f"system/{c}"))
                   for c in range(copies)]
        sketches = [s.encode(x) for s in systems]
        started = time.perf_counter()
        if copies == 1:
            x_hat = systems[0].decode(sketches[0])
        else:
            x_hat = repeat_median_amplify(systems, sketches)
        measurements = sum(s.measurement_count for s in systems)
    decode_seconds = time.perf_counter() - started

    err = float(np.linalg.norm(x - x_hat))
    tail = tail_norm(x, spec.k)
    success_cfg = config.get("success", {})
    threshold = float(success_cfg.get("ratio_threshold", 2.0))
    exact_tol = float(success_cfg.get("exact_rel_tol", 1e-6))
    if tail > 0:
        ratio = err / tail
        success = ratio <= threshold
    else:
        ratio = None
        scale = float(np.linalg.norm(x))
        success = err <= exact_tol * scale if scale > 0 else err == 0.0
    return TrialRecord(trial=trial, seed=seed, l2_error=err, tail_norm=tail,
                       ratio=ratio, success=success,
                       decode_seconds=decode_seconds, measurements=measurements)


def wilson_interval(failures: int, trials: int, z: float = 1.959963984540054):
    if trials == 0:
        return None
    p = failures / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def run_experiment(config: dict) -> tuple[list[TrialRecord], dict]:
    config = validate_config(config)
    master_seed = int(config["seed"])
    records = [_run_trial(t, config, master_seed) for t in range(config["trials"])]
    records.sort(key=lambda r: r.trial)
    trials = len(records)
    failures = sum(not r.success for r in records)
    summary = {
        "trials": trials,
        "failures": failures,
        "failure_rate": failures / trials if trials else None,
        "failure_rate_defined": trials > 0,
        "wilson_95": wilson_interval(failures, trials),
        "median_decode_seconds": (float(np.median([r.decode_seconds for r in records]))
                                  if trials else None),
        "measurements": records[0].measurements if trials else None,
        "master_seed": master_seed,
    }
    return records, summary


_CSV_HEADER = "trial,seed,l2_error,tail_norm,ratio,success,measurements"


def records_to_csv(records: list[TrialRecord]) -> str:
    out = io.StringIO()
    out.write(_CSV_HEADER + "\n")
    for r in records:
        ratio = "" if r.ratio is None else repr(r.ratio)
        out.write(f"{r.trial},{r.seed},{r.l2_error!r},{r.tail_norm!r},"
                  f"{ratio},{int(r.success)},{r.measurements}\n")
    return out.getvalue()
