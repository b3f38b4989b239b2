"""Checks over the package source itself."""

import ast
from pathlib import Path

import boolcube

SOURCE = Path(boolcube.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    """__init__.py re-exports its imports; every other module uses each one."""
    unused = {}
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[path.name] = names
    assert unused == {}
