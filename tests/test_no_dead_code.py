"""Every module-level function and class in the package, and every public
method of its classes, has a use.

A definition passes when the package names it somewhere (an ``ast.Name`` or
``ast.Attribute``), when ``ohslab.__all__`` exports it, or when a benchmark
script under ``bench/`` mentions it.  Code that only tests call fails: it
is deleted, not kept for its tests: a reference only tests use lives in the
test that uses it.  The rule goes by name alone, so a method whose name the
package also uses for something else (``MomentSeries.clamped`` was one: the
solver's ``clamped`` mass is a local of that name) escapes this check.
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


def _public_methods(tree):
    return [(cls.name, node.name) for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def _names_used(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _uses(trees):
    """Every name the package uses, ``ohslab.__all__`` exports or ``bench/`` mentions."""
    bench_words = set(re.findall(r"\w+", "\n".join(
        path.read_text(encoding="utf-8") for path in sorted((ROOT / "bench").glob("*.py"))
    )))
    return set().union(*map(_names_used, trees.values()), ohslab.__all__, bench_words)


def test_every_module_level_definition_has_a_use():
    trees = _trees()
    uses = _uses(trees)
    unused = ["%s.%s" % (module, name)
              for module, tree in trees.items()
              for name in _definitions(tree) if name not in uses]
    assert unused == []


def test_every_public_method_has_a_use():
    trees = _trees()
    uses = _uses(trees)
    unused = ["%s.%s.%s" % (module, cls, name)
              for module, tree in trees.items()
              for cls, name in _public_methods(tree) if name not in uses]
    assert unused == []
