"""The benchmark tracer (bench/tracing.py) wraps library methods by name
from outside the program.  Resolving its targets here makes a refactor
that renames or removes a traced method fail the main test suite, not
only the benchmark's own smoke tests."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from sparserec.recursive import RecursionTree, RecursiveParams
from sparserec.toplevel import TopLevelConfig, TopLevelSystem

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _load("tracing").TARGETS
    assert targets
    for module_name, path, _, _ in targets:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = inspect.getattr_static(owner, part, None)
            assert owner is not None, f"trace target {module_name}.{path} is missing"


def test_tree_identify_counter_reads_identify_result():
    params = RecursiveParams(k=4, rho=0.2, leaf_target=64, code_kind="rs", arity=4)
    tree = RecursionTree(1 << 10, params, seed=5)
    x = np.zeros(1 << 10)
    x[[3, 200, 511, 1000]] = [1.0, -2.0, 1.5, 3.0]
    sketches = tree.encode(x)
    result = tree.identify(sketches)
    counts = _load("tracing")._tree_identify((tree, sketches), {}, result)
    leaf_domains = sum(v.domain for v in tree.nodes if not v.children)
    assert counts == {"recursive.leaf_candidates": leaf_domains,
                      "recursive.survivors": len(result[0])}


def test_every_workload_config_loads():
    # building checks the tree option values too, not only their keys
    workloads = _load("workloads")
    for w in [*workloads.WORKLOADS.values(), *workloads.SMOKE_WORKLOADS.values()]:
        TopLevelSystem(TopLevelConfig(**w.config_kwargs()), workloads.SYSTEM_SEED)
