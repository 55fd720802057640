"""The library's public surface is what the program calls.

A function a module exports in ``__all__`` is referenced by code under
``src/``, ``scripts/`` or ``perfbench/``, not by tests alone, unless
``KEPT`` gives the reason it stays.  The package namespace re-exports
nothing: every caller imports from the modules.
"""

import ast
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "focksym"

# name -> why it stays in its module although no program path calls it
KEPT = {
    "apply_wco": "perfbench/tracing.py wraps it by name; it moves to the tests with the "
                 "benchmark's refresh",
    "check_generator_fd": "perfbench/tracing.py traces it, and acceptance criterion 05 "
                          "calls it",
    "compose_params": "the symbol calculus is to call it",
}


def _program_references() -> set[str]:
    """Every name the program's code loads, as a name or an attribute.

    A re-export in ``__init__.py`` is no use of a name, and an import alone
    is no reference: only a load counts.
    """
    names = set()
    for tree in ("src", "scripts", "perfbench"):
        for path in (ROOT / tree).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
    return names


def _exported_functions() -> dict[str, str]:
    """Function name -> module, over every module's ``__all__``."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"focksym.{path.stem}")
        for name in getattr(module, "__all__", ()):
            if inspect.isfunction(getattr(module, name)):
                out[name] = path.stem
    return out


def test_every_exported_function_is_called_by_the_program():
    used = _program_references()
    exported = _exported_functions()
    unused = sorted(f"{module}.{name}" for name, module in exported.items()
                    if name not in used and name not in KEPT)
    assert unused == []
    # a kept name that gained a caller, or left its module, leaves the list
    assert sorted(name for name in KEPT if name in used or name not in exported) == []


def test_package_namespace_imports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == []
