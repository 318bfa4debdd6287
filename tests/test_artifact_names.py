"""Only ``runio`` names the files of a run or sweep directory.

The test reads every module of the package with ``ast`` and fails on any
string constant outside ``runio.py``, docstrings aside, that is exactly the
name of an artifact file: which files a directory holds, and which a
rewrite clears, is decided in one module.
"""
import ast
from pathlib import Path

from ohslab import runio

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ohslab"

ARTIFACTS = {"moments.csv", "final_state.json", "manifest.json", "check_report.json",
             "sweep.csv", "sweep.json"}


def _docstrings(tree):
    """The constant nodes that are docstrings of the module, a class or a function."""
    nodes = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                nodes.add(first.value)
    return nodes


def _artifact_names(path):
    """(line, name) of every artifact name a module spells out as a string constant."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = _docstrings(tree)
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node not in docstrings
            and node.value in ARTIFACTS]


def test_only_runio_names_an_artifact_file():
    found = ["%s:%d: %s" % (path.name, line, name)
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "runio.py"
             for line, name in _artifact_names(path)]
    assert found == []


def test_runio_names_every_artifact_file_once():
    names = [name for _, name in _artifact_names(PACKAGE / "runio.py")]
    assert sorted(names) == sorted(ARTIFACTS)
    assert {runio.MOMENTS, runio.FINAL_STATE, runio.MANIFEST, runio.CHECK_REPORT,
            runio.SWEEP_CSV, runio.SWEEP_JSON} == ARTIFACTS
