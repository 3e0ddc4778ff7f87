"""The package runs on numpy and the standard library alone."""

import ast
import sys
from pathlib import Path

import ite_bench

PACKAGE = Path(ite_bench.__file__).resolve().parent


def _imported_modules(path):
    """(line, top-level module) of every absolute import in the file; a
    relative import yields None for the module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            top = None if node.level else node.module.split(".")[0]
            yield node.lineno, top


def test_every_import_is_relative_numpy_or_stdlib():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = [
        f"{path.name}:{line}: {module}"
        for path in sources
        for line, module in _imported_modules(path)
        if module is not None and module not in allowed
    ]
    assert outside == []
