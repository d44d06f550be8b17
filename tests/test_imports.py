"""Every module reads each name it imports.

A static scan with the standard-library ast: a name bound by an import
counts as read when the module loads it somewhere or lists it in
``__all__``.  ``from __future__`` imports are compiler directives and are
exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src/fracq", "tests", "scripts")
    for path in (ROOT / folder).glob("*.py")
)


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_module_reads_every_import(path):
    assert unread_imports(path.read_text()) == []


def test_scan_flags_an_unread_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b as c\n"
    assert unread_imports(source + "__all__ = ['c']\nsys.exit()\n") == ["os (line 2)"]
