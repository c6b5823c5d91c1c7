"""Closed-loop runs of one workload: build one system, stream signals.

One caller builds the system (config, seed) once, then sketches and
decodes one signal after another, each only after the previous one is
checked.  This is the for-all usage the paper targets: one fixed design
applied to many signals.  The untraced run (trace off) gives the
end-to-end metrics; the traced run gives the per-layer metrics and the
tracing overhead, and never feeds the end-to-end figures.

The end-to-end path calls only TopLevelConfig, TopLevelSystem(config,
seed), .encode, .decode(sketch) and .measurement_count.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

from sparserec import TopLevelConfig, TopLevelSystem

import tracing
from checkout import BENCH_DIR, PACKAGE, PINNED_THREADS, ROOT
from workloads import SYSTEM_SEED

SETUP_SAMPLES = 7       # cold constructions per run; setup_s is their median
TAIL_BEYOND = 10        # the tail percentile has this many samples above it
MAX_OVERRUN = 1.2       # an untraced run stops at this many times --seconds
TRACE_PASSES = 2.5      # traced-run cost in untraced passes (sizes it)

E2E_UNITS = {
    "setup_s": "s",
    "encode_ms_best": "ms",
    "decode_ms_best": "ms",
    "signals_per_s": "1/s",
    "success_rate": "fraction",
    "measurements": "count",
    "peak_rss_mb": "MiB",
}


class Outcome:
    """Operations attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors_shown = 0

    def error(self, what: str) -> None:
        self.failed += 1
        if self.errors_shown < 3:
            self.errors_shown += 1
            print(f"bench: {what} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


class Timing(NamedTuple):
    encode_s: list[float]   # one per timed encode of the signal
    decode_s: float
    truncations: int    # list-recovery truncation warnings raised


def sketch_and_decode(system, m: int, workload, sig, outcome: Outcome,
                      encodes: int = 1):
    """One checked signal: `encodes` timed encodes, which must all give the
    same sketch, then one decode.  Its Timing, or None when a call raised."""
    outcome.attempted += 1
    clock = time.perf_counter
    encode_s, sketches = [], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            for _ in range(encodes):
                t0 = clock()
                sketches.append(system.encode(sig.x))
                encode_s.append(clock() - t0)
            sketch = sketches[0]
            t1 = clock()
            x_hat = system.decode(sketch)
            t2 = clock()
        except Exception:
            outcome.error("encode/decode")
            return None
    truncations = 0
    for w in caught:
        if "truncated" in str(w.message):
            truncations += 1
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    if (np.shape(sketch) != (m,) or not workload.recovered(sig, x_hat)
            or not all(np.array_equal(s, sketch) for s in sketches[1:])):
        outcome.failed += 1
    return Timing(encode_s, t2 - t1, truncations)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    v = sorted(values)
    n = len(v)
    if n <= TAIL_BEYOND:
        return v[-1], 100.0
    return v[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def cold_setups(workload, outcome: Outcome) -> list[float]:
    """SETUP_SAMPLES cold constructions, each in a fresh interpreter."""
    cmd = [sys.executable, str(BENCH_DIR / "cold_setup.py"), workload.name]
    times = []
    for _ in range(SETUP_SAMPLES):
        outcome.attempted += 1
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=120, check=True)
            times.append(float(proc.stdout.split()[-1]))
        except (subprocess.SubprocessError, ValueError, IndexError):
            outcome.error("cold set-up")
    return times


def run_untraced(workload, seed: int, seconds: float) -> tuple[dict, dict, Outcome]:
    outcome = Outcome()
    setups = cold_setups(workload, outcome)
    if not setups:
        raise RuntimeError("every cold set-up failed")
    setup_failures = outcome.failed
    system = TopLevelSystem(TopLevelConfig(**workload.config_kwargs()),
                            SYSTEM_SEED)
    m = system.measurement_count
    sketch_and_decode(system, m, workload, workload.signal(seed, 0), outcome)  # warm-up

    timed: list[Timing] = []
    start = time.perf_counter()
    index = 1
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(timed) > 2 * TAIL_BEYOND:
            break
        if elapsed >= MAX_OVERRUN * seconds and timed:
            break
        done = sketch_and_decode(system, m, workload, workload.signal(seed, index),
                                 outcome, workload.encode_repeats)
        index += 1
        if done is not None:
            timed.append(done)
    if not timed:
        raise RuntimeError("no signal was sketched and decoded")

    enc = [e for t in timed for e in t.encode_s]
    dec = [t.decode_s for t in timed]
    per_signal = [statistics.fmean(t.encode_s) + t.decode_s for t in timed]
    (enc_tail, enc_pct), (dec_tail, dec_pct) = tail(enc), tail(dec)
    attempted_signals = index  # warm-up plus the stream
    failed_signals = outcome.failed - setup_failures
    values = {
        "setup_s": statistics.median(setups),
        "encode_ms_best": 1e3 * min(enc),
        "decode_ms_best": 1e3 * min(dec),
        "signals_per_s": 1.0 / min(per_signal),
        "success_rate": (attempted_signals - failed_signals) / attempted_signals,
        "measurements": m,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    meta = {
        "system_seed": SYSTEM_SEED,
        "samples": len(dec),
        "encode_samples": len(enc),
        # Not gated: on a shared host they follow its load (README.md).
        "ungated_ms": {
            "encode_p50": 1e3 * statistics.median(enc),
            "encode_tail": 1e3 * enc_tail, "encode_tail_percentile": enc_pct,
            "decode_p50": 1e3 * statistics.median(dec),
            "decode_tail": 1e3 * dec_tail, "decode_tail_percentile": dec_pct},
        "setup_samples_s": setups,
        "truncation_warnings": sum(t.truncations for t in timed),
    }
    return {k: (values[k], E2E_UNITS[k]) for k in E2E_UNITS}, meta, outcome


def traced_signal_count(workload, seconds: float) -> int:
    """Signals in a traced run: fixed by (workload, seconds), so its
    counts repeat exactly for a given seed."""
    return max(3, int(seconds / (TRACE_PASSES * workload.signal_s)))


def run_traced(workload, seed: int, seconds: float,
               spans_path=None) -> tuple[dict, dict, Outcome]:
    outcome = Outcome()
    tracer = tracing.Tracer()
    tracer.trial = "setup"
    with tracing.instrumented(tracer):
        system = TopLevelSystem(TopLevelConfig(**workload.config_kwargs()),
                                SYSTEM_SEED)
    m = system.measurement_count
    n_stages = len(system.schedule.stages)
    sketch_and_decode(system, m, workload, workload.signal(seed, 0), outcome)  # warm-up

    trials = list(range(1, 1 + traced_signal_count(workload, seconds)))
    plain, traced, truncations = {}, {}, {}
    for i in trials:
        # alternate which pass goes first, so drift does not bias the overhead
        for is_traced in ((False, True) if i % 2 else (True, False)):
            tracer.trial = i
            with tracing.instrumented(tracer) if is_traced else nullcontext():
                done = sketch_and_decode(system, m, workload,
                                         workload.signal(seed, i), outcome)
            if done is None:
                continue
            if is_traced:
                traced[i] = sum(done.encode_s) + done.decode_s
                truncations[i] = done.truncations
            else:
                plain[i] = sum(done.encode_s) + done.decode_s
    both = [i for i in trials if i in plain and i in traced]
    if not both:
        raise RuntimeError("no signal was sketched and decoded")

    values, design = tracing.summarize(tracer, both, n_stages, truncations)
    base = sum(plain[i] for i in both)
    values["trace.overhead_ms"] = 1e3 * statistics.median(
        traced[i] - plain[i] for i in both)
    values["trace.overhead_pct"] = 100.0 * (sum(traced[i] for i in both) - base) / base
    if spans_path is not None:
        tracer.dump(spans_path)
    meta = {"system_seed": SYSTEM_SEED, "traced_signals": len(both),
            "spans": len(tracer.spans), "design": design}
    units = tracing.PER_LAYER_UNITS
    return {k: (values[k], units[k]) for k in units}, meta, outcome


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in PACKAGE.rglob("*.py"))


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata() -> dict:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pins": {v: os.environ.get(v) for v in PINNED_THREADS},
        "src_lines": src_lines(),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 spans_path=None) -> dict:
    """Result object: correct, attempted, failed, metrics and meta."""
    if trace:
        metrics, meta, outcome = run_traced(workload, seed, seconds, spans_path)
    else:
        metrics, meta, outcome = run_untraced(workload, seed, seconds)
    meta.update(run_metadata(), workload=workload.name, seed=seed,
                seconds=seconds, trace=int(trace))
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "meta": meta,
    }
