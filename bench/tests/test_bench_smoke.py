"""Smoke test of the benchmark on scaled-down copies of its workloads.

Run with: python -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from checkout import ROOT, require_sparserec  # noqa: E402

require_sparserec()

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import SMOKE_WORKLOADS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMOKE_WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_present_with_its_unit(name, trace):
    result = harness.run_workload(SMOKE_WORKLOADS[name], seed=3, seconds=0.3,
                                  trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert list(got) == [m["name"] for m in expected]
    for m in expected:
        assert got[m["name"]]["unit"] == m["unit"]
        assert isinstance(got[m["name"]]["value"], (int, float))
    if not trace:
        assert got["success_rate"]["value"] == 1.0
        assert got["measurements"]["value"] > 0


def test_traced_counts_repeat_for_a_seed():
    counts = [name for name, unit in tracing.PER_LAYER_UNITS.items()
              if unit == "count"]
    runs = [harness.run_workload(SMOKE_WORKLOADS["smoke-tree-rs"], seed=5,
                                 seconds=0.3, trace=True) for _ in range(2)]
    for name in counts:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name


def test_missing_trace_target_is_named(monkeypatch):
    target = ("sparserec.weak", "WeakLayer.no_such_method", "weak.x", None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [target])
    with pytest.raises(RuntimeError, match="WeakLayer.no_such_method"):
        with tracing.instrumented(tracing.Tracer()):
            pass
    # the wrappers installed before the failure are removed again
    from sparserec.weak import WeakLayer
    assert not hasattr(WeakLayer.identify, "__wrapped__")


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(40)]
    value, pct = harness.tail(values)
    assert value == 29.0 and pct == 75.0


def test_repeated_encodes_must_agree():
    sig = SMOKE_WORKLOADS["smoke-tree-rs"].signal(1, 0)

    class Drifting:  # each encode differs; decode is always right
        calls = 0

        def encode(self, x):
            self.calls += 1
            return np.array([float(self.calls)])

        def decode(self, sketch):
            return sig.x.copy()

    for encodes, failed in ((1, 0), (3, 1)):
        outcome = harness.Outcome()
        done = harness.sketch_and_decode(Drifting(), 1, SMOKE_WORKLOADS["smoke-tree-rs"],
                                         sig, outcome, encodes)
        assert len(done.encode_s) == encodes
        assert (outcome.attempted, outcome.failed) == (1, failed)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tree-split-n22",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
