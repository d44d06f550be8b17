"""Every module reads each name it imports, every private helper of the
library is named outside its own definition, and every experiment reads
each of its inputs.

Static scans with the standard-library ast.  A name bound by an import
counts as read when the module loads it somewhere or lists it in
``__all__``.  ``from __future__`` imports are compiler directives and are
exempt.  A private helper (a top-level function or class, or a method, whose
name starts with one underscore) counts as named when src/fracq or scripts/
loads it, reads it as an attribute, imports it or spells it as a whole
string, outside its own body.  The scan sees a dead helper, not a dead
branch inside a live one.  An experiment's parameter counts as read when
its body loads it or _experiment reads it from the bound call; recording it
among the report's parameters is not a reading.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from fracq import limitlab

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


# the one private helper that only tests name: the Mittag-Leffler
# large-argument expansion, an independent oracle for mittag_leffler
TEST_ORACLES = {"special._asymptotic_tail"}


def private_definitions(tree: ast.Module):
    """(qualified name, node) of each private top-level function or class
    and each private method."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)) and private(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and private(item.name):
                    yield f"{node.name}.{item.name}", item


def names_in(node: ast.AST) -> Counter:
    """How often each name is loaded, read as an attribute, imported or
    spelled as a whole string under node."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.asname or sub.name] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names[sub.value] += 1
    return names


def unnamed_helpers(sources: dict[str, str], scanned: dict[str, str]) -> list[str]:
    """'module.name' of each private helper defined in `sources` (module ->
    source) that no source of `scanned` names outside the helper's own body."""
    named = sum((names_in(ast.parse(source)) for source in scanned.values()), Counter())
    return [f"{module}.{qualname}"
            for module, source in sources.items()
            for qualname, node in private_definitions(ast.parse(source))
            if named[node.name] == names_in(node)[node.name]]


def test_every_private_helper_is_named():
    library = {path.stem: path.read_text() for path in (ROOT / "src/fracq").glob("*.py")}
    scripts = {f"scripts.{path.stem}": path.read_text() for path in (ROOT / "scripts").glob("*.py")}
    assert sorted(unnamed_helpers(library, {**library, **scripts})) == sorted(TEST_ORACLES)


def test_scan_flags_a_dead_helper():
    # a helper that only calls itself is dead; a call, a method read or a
    # whole-string spelling elsewhere keeps one alive; dunders are exempt
    source = (
        "import m\n"
        "def _dead(n):\n    return _dead(n - 1)\n"
        "def _called():\n    pass\n"
        "def _by_string():\n    pass\n"
        "class _Kind:\n"
        "    def _unused(self):\n        pass\n"
        "    def _used(self):\n        pass\n"
        "    def __len__(self):\n        return 0\n"
        "def run():\n    _called()\n    _Kind()._used()\n    setattr(m, '_by_string', 1)\n"
    )
    assert unnamed_helpers({"mod": source}, {"mod": source}) == ["mod._dead", "mod._Kind._unused"]


def unread_experiment_inputs(source: str) -> dict[str, list[str]]:
    """Each @_experiment function of `source` -> its parameters that neither
    its body loads nor _experiment reads from the bound call, given["name"]."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    by_decorator = {sub.slice.value for sub in ast.walk(functions["_experiment"])
                    if isinstance(sub, ast.Subscript) and isinstance(sub.slice, ast.Constant)}
    unread = {}
    for name, node in functions.items():
        if any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_experiment"
               for d in node.decorator_list):
            loaded = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                      if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            unread[name] = [arg.arg for arg in node.args.args + node.args.kwonlyargs
                            if arg.arg not in loaded | by_decorator]
    return unread


def test_every_experiment_reads_its_inputs():
    unread = unread_experiment_inputs((ROOT / "src/fracq/limitlab.py").read_text())
    assert sorted(unread) == sorted({verify.__name__ for _, verify, _ in limitlab.BATTERY.values()})
    assert [f"{name}.{arg}" for name, args in unread.items() for arg in args] == []


def test_scan_flags_an_unread_experiment_input():
    # y is only recorded; out_dir is read by the decorator, not the body
    source = (
        "def _experiment(name):\n"
        "    def run(given):\n        return given['out_dir']\n"
        "    return run\n"
        "@_experiment('demo')\n"
        "def check(x, y, out_dir=None, *, z):\n    return [x for _ in z]\n"
        "def plain(w):\n    pass\n"
    )
    assert unread_experiment_inputs(source) == {"check": ["y"]}
