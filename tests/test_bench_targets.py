"""The benchmark tracer (bench/tracing.py) wraps library methods by name
from outside the program.  Resolving its targets here makes a refactor
that renames or removes a traced method fail the main test suite, not
only the benchmark's own smoke tests."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _trace_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    targets = _trace_targets()
    assert targets
    for module_name, path, _, _ in targets:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = inspect.getattr_static(owner, part, None)
            assert owner is not None, f"trace target {module_name}.{path} is missing"
