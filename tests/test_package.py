"""Checks over the package source itself."""

import ast
import os
import subprocess
import sys
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


def test_every_public_definition_is_exported_or_used():
    """A public top-level def or class of a module is exported from
    __init__.py or referenced somewhere in the package; a helper that only
    tests call belongs in tests/."""
    defined = {}
    referenced = set(boolcube.__all__)
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert sorted(f"{defined[name]}: {name}" for name in defined.keys() - referenced) == []


def test_one_worker_loads_no_process_pool():
    """multiprocessing loads only when a sweep starts two or more workers, not
    on import, in a CLI command or in a one-worker sweep."""
    script = (
        "import contextlib, io, sys, boolcube, boolcube.cli\n"
        "from boolcube.theorems import Exhaustive, sweep\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    boolcube.cli.main(['analyze', sys.argv[1]])\n"
        "sweep('ROBERT', Exhaustive(1), jobs=1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('multiprocessing', 'concurrent')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    example = Path(__file__).parent / "data" / "example1.bn"
    result = subprocess.run(
        [sys.executable, "-c", script, str(example)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout == "[]\n"
