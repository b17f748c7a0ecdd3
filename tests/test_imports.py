"""Every name a package module imports is used in that module, and the
package's own modules are imported at module top.

Parses each module of src/regnets except the package's __init__ (whose
imports are its public re-exports) and fails on any imported name that the
module never references, and on any import of a regnets module inside a
function body. Standard library only.
"""

import ast
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
