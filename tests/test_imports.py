"""Every name a package module imports is used in that module, the
package's own modules are imported at module top, every raise follows
the package's one error rule, and the heavy scipy subpackages load only
on the paths that use them (scipy.special on none).

Parses each module of src/regnets except the package's __init__ (whose
imports are its public re-exports) and fails on any imported name that the
module never references, and on any import of a regnets module inside a
function body. Standard library only.
"""

import ast
import functools
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "regnets"


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items()) if name not in used]


def test_every_imported_name_is_used():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []


def _function_local_package_imports(path):
    found = []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else ["regnets"]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "regnets" for name in names):
                found.append(f"{path.name}:{node.lineno} in {func.name}")
    return found


def test_package_modules_are_imported_at_module_top():
    local = [entry for path in sorted(SRC.glob("*.py")) for entry in _function_local_package_imports(path)]
    assert local == []


# Raises that follow a protocol outside the package, by (module, function, class).
PROTOCOL_RAISES = {
    # parsed like float() and int(); parse_config turns each ValueError into a ConfigError
    ("cli.py", "parse_checked", "ValueError"),
    # argparse's type-converter protocol; argparse exits 2 on it
    ("cli.py", "_positive_int", "ArgumentTypeError"),
    # Python's protocol for a read-only attribute
    ("grid.py", "__setattr__", "AttributeError"),
}


def _input_error_classes():
    """InputError and every class errors.py derives from it, at any depth."""
    bases = {
        node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
        for node in ast.parse((SRC / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    }
    found = {"InputError"}
    while grown := {name for name, b in bases.items() if b & found} - found:
        found |= grown
    return found


def _raises(path):
    """(function, raised class name) for every raise of an exception in path."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                found.append((scope, name))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else scope)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_every_raise_is_an_input_error_or_a_computation_failure():
    # InputError and its subclasses: input the caller can fix (CLI exit 2);
    # plain RegnetsError: a computation that failed its own check (exit 1)
    allowed = _input_error_classes() | {"RegnetsError"}
    modules = sorted(SRC.glob("*.py"))
    raises = [(path.name, scope, name) for path in modules for scope, name in _raises(path)]
    # the walker sees every line that starts a raise statement
    lines = [line.lstrip() for path in modules for line in path.read_text().splitlines()]
    assert len(raises) == sum(line.startswith("raise ") for line in lines)
    stray = [r for r in raises if r[2] not in allowed and r not in PROTOCOL_RAISES]
    assert stray == []



# Loaded on first use only: the DCT of vague_convergence_check, the
# quadrature oracle, the sparse test references and the 2-D Krylov backend.
DEFERRED = ("scipy.fft", "scipy.integrate", "scipy.sparse", "scipy.sparse.linalg")

_COLD_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import regnets as rn
import regnets.cli
grid = rn.SpatialGrid(1, 4.0, 64)
g = rn.GridFunction.from_profile(grid, lambda x: np.exp(-x**2))
net = rn.CoefficientNet(c=[rn.constant_coefficient(1.0)], V=None, c0=1.0)
rn.solve(rn.CauchyProblem(grid, net, lambda e: g, None, T=0.1, time_steps=5), 1.0)
rn.scaled_mollifier(rn.MollifierSpec(dim=1, exponent=4.0), 1.0, grid)
print(" ".join(sorted(sys.modules)))
"""


@functools.cache
def _cold_run_modules():
    out = subprocess.run(
        [sys.executable, "-c", _COLD_RUN, str(SRC.parent)], capture_output=True, text=True, check=True
    )
    return set(out.stdout.split())


def test_a_1d_solve_loads_no_deferred_scipy_subpackage():
    loaded = _cold_run_modules()
    assert "regnets.solver" in loaded
    assert [m for m in DEFERRED if m in loaded] == []


def test_scipy_special_is_never_loaded():
    # Gamma quotients come from math.lgamma, so importing regnets and sampling
    # a mollifier (its normalization included) never pays for scipy.special
    assert "scipy.special" not in _cold_run_modules()
