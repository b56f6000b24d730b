"""Lazy package re-exports: every package ``__init__`` maps names to modules.

A package runs none of its submodules at import; an exported name imports
its defining module on first access and is the object that module holds.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.core",
    "repro.dynamics",
    "repro.geometry",
    "repro.links",
    "repro.netsim",
    "repro.obs",
    "repro.runtime",
    "repro.sinr",
    "repro.state",
)

#: Exports named like their submodule, bound in the package namespace.
SAME_NAME = {("repro.sinr", "affectance"), ("repro.links", "sparsity")}


def _run(script: str) -> dict:
    """Run ``script`` in a fresh interpreter; it prints one JSON line."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("package_name", PACKAGES)
class TestExportMap:
    def test_all_is_the_export_map(self, package_name):
        package = importlib.import_module(package_name)
        exports = package._EXPORTS
        extra = ["__version__"] if package is repro else []
        assert package.__all__ == extra + exports.names

    def test_each_name_is_the_defining_modules_object(self, package_name):
        package = importlib.import_module(package_name)
        for name in package._EXPORTS.names:
            home = importlib.import_module(package._EXPORTS.home[name])
            value = getattr(package, name)
            assert value is getattr(home, name), name
            assert not isinstance(value, types.ModuleType), name
            if (package_name, name) not in SAME_NAME:
                # Resolved per access: a patch of the defining module shows.
                assert name not in vars(package), name

    def test_dir_lists_every_export(self, package_name):
        package = importlib.import_module(package_name)
        listed = dir(package)
        assert set(package._EXPORTS.names) <= set(listed)
        assert "_EXPORTS" in listed

    def test_unknown_name_raises_attribute_error(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match="no_such_export"):
            package.no_such_export  # noqa: B018


def test_a_name_listed_twice_is_rejected():
    from repro._lazy import LazyExports

    with pytest.raises(ValueError, match="'Point'"):
        LazyExports("pkg", {"point": ("Point",), "node": ("Node", "Point")})


def test_same_name_exports_stay_functions():
    importlib.import_module("repro.sinr.affectance")
    importlib.import_module("repro.links.sparsity")
    for package_name, name in SAME_NAME:
        package = importlib.import_module(package_name)
        module = sys.modules[f"{package_name}.{name}"]
        assert getattr(package, name) is getattr(module, name)
        assert callable(getattr(package, name))


def test_same_name_exports_in_a_fresh_interpreter():
    """The submodule imported first, by its dotted name, still leaves the
    package attribute the function."""
    result = _run(
        """
        import json
        import repro.sinr.affectance
        import repro.links.sparsity
        import repro.links, repro.sinr
        print(json.dumps([
            type(repro.sinr.affectance).__name__,
            type(repro.links.sparsity).__name__,
        ]))
        """
    )
    assert result == ["function", "function"]


def test_deploying_loads_no_protocol_module():
    result = _run(
        """
        import json, sys
        import numpy as np
        from repro import analysis, core, geometry, netsim, sinr
        nodes = geometry.uniform_random(64, np.random.default_rng(0))
        assert len(nodes) == 64
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
        """
    )
    for prefix in ("core", "analysis", "netsim", "dynamics", "experiments"):
        assert [m for m in result if m.startswith(f"repro.{prefix}.")] == [], prefix
    assert "repro.geometry.deployment" in result


@pytest.mark.parametrize("workload", ["pipeline-512", "init-3k", "lossy-512"])
def test_tracer_set_up_leaves_no_wrapper(workload):
    """A module first imported while perfbench's tracer is installed must not
    keep a wrapper once the tracer is removed."""
    result = _run(
        f"""
        import json, sys
        sys.path.insert(0, "perfbench")
        import tracer
        import workloads

        workload = workloads.WORKLOADS[{workload!r}]
        spy = tracer.Tracer()
        with spy.installed():
            spy.begin_pass(tracer.SETUP_PASS)
            deployments = workload.deploy(1, 24)

        def spans():
            return sum(entry["calls"] for entry in spy.group_stats(tracer.SETUP_PASS).values())

        before = spans()
        result = workload.run(deployments, 1)

        def wrapped(value):
            code = getattr(value, "__code__", None)
            return code is not None and code.co_filename == tracer.__file__

        leaks = []
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for key, value in vars(module).items():
                if wrapped(value):
                    leaks.append(f"{{name}}.{{key}}")
                if isinstance(value, type) and value.__module__ == name:
                    leaks += [f"{{name}}.{{key}}.{{a}}" for a, v in vars(value).items() if wrapped(v)]
        print(json.dumps({{
            "failures": result.checks.failures,
            "new_spans": spans() - before,
            "leaks": sorted(set(leaks)),
        }}))
        """
    )
    assert result == {"failures": [], "new_spans": 0, "leaks": []}
