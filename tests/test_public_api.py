"""Public-API quality gate.

Every name exported via ``__all__`` in every subpackage must resolve
and carry a docstring — keeping deliverable (a)'s "clean, documented
public API" true by construction.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.poly",
    "repro.mpint",
    "repro.costmodel",
    "repro.sched",
    "repro.analysis",
    "repro.obs",
    "repro.charpoly",
    "repro.baselines",
    "repro.bench",
    "repro.verify",
    "repro.serve",
]

MODULES = [
    "repro.core.remainder",
    "repro.core.tree",
    "repro.core.interval",
    "repro.core.sieve",
    "repro.core.rootfinder",
    "repro.core.tasks",
    "repro.core.certify",
    "repro.core.scaling",
    "repro.core.refine",
    "repro.core.isolate",
    "repro.core.prefix",
    "repro.poly.dense",
    "repro.poly.matrix",
    "repro.poly.eval",
    "repro.poly.sturm",
    "repro.poly.gcd",
    "repro.poly.roots_bounds",
    "repro.poly.convert",
    "repro.mpint.mpint",
    "repro.costmodel.counter",
    "repro.costmodel.backend",
    "repro.sched.task",
    "repro.sched.graph",
    "repro.sched.simulator",
    "repro.sched.metrics",
    "repro.sched.executor",
    "repro.sched.render",
    "repro.sched.reference",
    "repro.obs.trace",
    "repro.obs.events",
    "repro.obs.chrometrace",
    "repro.obs.metrics",
    "repro.obs.rollup",
    "repro.obs.perf",
    "repro.obs.ledger",
    "repro.obs.jsonl",
    "repro.obs.tracediff",
    "repro.obs.profile",
    "repro.obs.export",
    "repro.analysis.bounds",
    "repro.analysis.predict",
    "repro.analysis.sizes",
    "repro.analysis.fit",
    "repro.charpoly.berkowitz",
    "repro.charpoly.generator",
    "repro.baselines.sturm_bisect",
    "repro.baselines.aberth",
    "repro.baselines.numpy_eig",
    "repro.bench.workloads",
    "repro.bench.runner",
    "repro.bench.report",
    "repro.verify.generators",
    "repro.verify.fuzz",
    "repro.verify.shrink",
    "repro.verify.faults",
    "repro.serve.protocol",
    "repro.serve.cache",
    "repro.serve.server",
    "repro.serve.stdio",
    "repro.serve.http",
    "repro.serve.loadtest",
    "repro.serve.reqtrace",
    "repro.obs.slo",
    "repro.cli",
]


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_importable_and_documented(name):
    mod = importlib.import_module(name)
    assert mod.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    for export in getattr(mod, "__all__", []):
        assert hasattr(mod, export), f"{name}.__all__ lists missing {export}"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    mod = importlib.import_module(name)
    for export in getattr(mod, "__all__", []):
        obj = getattr(mod, export)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__doc__, f"{name}.{export} lacks a docstring"


def test_top_level_version():
    import repro

    assert repro.__version__
