"""Every module-level function and class in the package has a use.

A definition passes when the package names it somewhere (an ``ast.Name`` or
``ast.Attribute``), when ``ohslab.__all__`` exports it, or when a benchmark
script under ``bench/`` mentions it.  Code that only tests call fails: it
is deleted, not kept for its tests: a reference only tests use lives in the
test that uses it.
"""
import ast
import re
from pathlib import Path

import ohslab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ohslab"


def _definitions(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _names_used(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_module_level_definition_has_a_use():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*map(_names_used, trees.values()))
    bench_words = set(re.findall(r"\w+", "\n".join(
        path.read_text(encoding="utf-8") for path in sorted((ROOT / "bench").glob("*.py"))
    )))
    unused = [
        "%s.%s" % (module, name)
        for module, tree in trees.items()
        for name in _definitions(tree)
        if name not in used and name not in ohslab.__all__ and name not in bench_words
    ]
    assert unused == []
