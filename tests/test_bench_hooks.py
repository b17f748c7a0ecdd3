"""The benchmark reaches into the package by name; those names must hold.

The tracer in bench/spans.py replaces functions and methods by name from
outside the package, so renaming one of them breaks the benchmark's traced
runs. One test installs the tracer, checks that each hooked name was
replaced, and checks that uninstalling puts every original back. Another
binds every `rn.<name>(...)` call in bench/workloads.py to the package's
current signature, so a dropped or renamed parameter fails here rather
than in a benchmark run. A third requires every attribute the workloads
read off a returned object to be defined by some regnets class.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy.fft
import scipy.sparse.linalg

import regnets
import regnets.cli  # noqa: F401  (the CLI namespace is patched too)
import regnets.grid
import regnets.solver

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _hooked():
    return {
        "solver._cn_matrices": regnets.solver._cn_matrices,
        "FluxFormOperator.as_sparse": regnets.solver.FluxFormOperator.as_sparse,
        "GridFunction.__init__": regnets.grid.GridFunction.__init__,
        "regnets.solve": regnets.solve,
        "solver.build_operator": regnets.solver.build_operator,
        "numpy.fft.fftn": numpy.fft.fftn,
        "splu": scipy.sparse.linalg.splu,
    }


def test_tracer_patches_and_restores_hooked_names(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    before = _hooked()
    tracer = spans.Tracer()
    try:
        tracer.install()
        during = _hooked()
    finally:
        tracer.uninstall()
    after = _hooked()
    for name, original in before.items():
        assert during[name] is not original, f"{name} was not patched"
        assert during[name].__wrapped__ is original, f"{name} wraps the wrong function"
        assert after[name] is original, f"{name} was not restored"


def _package_calls(tree):
    """(dotted name, call node) for every call whose callee is an attribute chain on rn."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts = []
        func = node.func
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if parts and isinstance(func, ast.Name) and func.id == "rn":
            yield ".".join(reversed(parts)), node


def test_workload_calls_bind_to_package_signatures():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    calls = list(_package_calls(tree))
    assert len(calls) >= 30
    for name, call in calls:
        target = regnets
        for part in name.split("."):
            target = getattr(target, part)
        positional = [None] * len(call.args)
        keywords = {kw.arg: None for kw in call.keywords}
        try:
            inspect.signature(target).bind(*positional, **keywords)
        except TypeError as exc:
            raise AssertionError(f"bench/workloads.py:{call.lineno} rn.{name}: {exc}") from None


# Attributes the workloads read off stdlib objects (paths, strings, lists,
# StringIO, the seeded numpy Generator).
STDLIB_READS = {
    "write_text", "stem", "is_file", "getvalue", "strip", "join", "append", "clear", "uniform",
}


def _class_attributes():
    """Methods, properties, slots and dataclass fields of every regnets class."""
    names = set()
    for info in pkgutil.iter_modules(regnets.__path__):
        for cls in vars(importlib.import_module(f"regnets.{info.name}")).values():
            if not (inspect.isclass(cls) and cls.__module__.startswith("regnets")):
                continue
            for base in cls.__mro__:
                if base.__module__.startswith("regnets"):
                    names.update(vars(base))
            if dataclasses.is_dataclass(cls):
                names.update(f.name for f in dataclasses.fields(cls))
    return names


def _module_named(node, imports):
    """The object an import alias or an attribute chain on one names, else None."""
    if isinstance(node, ast.Name):
        return imports.get(node.id)
    if isinstance(node, ast.Attribute):
        return getattr(_module_named(node.value, imports), node.attr, None)
    return None


def test_workload_attribute_reads_are_defined_by_package_classes():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    imports = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name if alias.asname else alias.name.split(".")[0]
                imports[alias.asname or top] = importlib.import_module(top)
    defined = _class_attributes() | STDLIB_READS
    reads = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and not inspect.ismodule(_module_named(node.value, imports))
    ]
    assert len(reads) >= 20
    missing = sorted({f"{node.lineno}: .{node.attr}" for node in reads if node.attr not in defined})
    assert not missing, f"bench/workloads.py reads attributes no regnets class defines: {missing}"
