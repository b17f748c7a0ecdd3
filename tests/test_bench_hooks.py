"""The benchmark tracer in bench/spans.py patches package names; they must exist.

The tracer replaces functions and methods by name from outside the package,
so renaming one of them breaks the benchmark's traced runs. This test
installs the tracer, checks that each hooked name was replaced, and checks
that uninstalling puts every original back.
"""

import importlib
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
