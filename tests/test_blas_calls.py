"""Every BLAS call of the package is small enough for OpenBLAS's calling thread.

OpenBLAS may thread a gemm of more than 2**18 multiply-adds and threads a ddot of more
than 10,000 elements, and after such a call its idle worker spins for about
0.1 s of CPU.  The package makes BLAS calls in two places only, the oracle's
contraction (``oracle._contract``) and the solver's finiteness test
(``solver._all_finite``), and both keep every call under those bounds.
"""
import ast
import importlib.util
import json
import math
import resource
import time
from pathlib import Path

import numpy as np
import pytest

from ohslab import ConstantKernel, SimConfig, checks, oracle, solver
from ohslab.cli import main
from ohslab.grid import build

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ohslab"

#: numpy functions that call BLAS; every ``np.linalg`` function counts too.
BLAS_FUNCTIONS = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum"}
#: (module, function) -> the BLAS functions it may call.
ALLOWED = {("oracle", "_contract"): {"matmul"}, ("solver", "_all_finite"): {"vdot"}}


def _blas_uses(tree):
    """(enclosing function, BLAS entry point) for every use in a module."""
    uses = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append((function, "@"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy"):
            if node.attr in BLAS_FUNCTIONS or node.attr == "linalg":
                uses.append((function, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            uses.extend((function, alias.name) for alias in node.names
                        if alias.name in BLAS_FUNCTIONS or alias.name == "linalg"
                        or node.module.startswith("numpy.linalg"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return uses


def test_blas_is_called_only_where_its_calls_are_bounded():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for function, name in _blas_uses(ast.parse(path.read_text(encoding="utf-8"))):
            if name not in ALLOWED.get((path.stem, function), ()):
                found.append("%s.%s: %s" % (path.stem, function, name))
    assert found == []


def _config(N, **changes):
    payload = json.loads((ROOT / "configs" / "bagland.json").read_text(encoding="utf-8"))
    payload["grid"]["N"] = N
    payload.update(changes)
    return payload


def test_every_blas_call_stays_under_its_threading_bound(tmp_path, monkeypatch):
    matmul, vdot = np.matmul, np.vdot
    madds, cells = [], []

    def spy_matmul(a, b, *args, **kwargs):
        m = a.shape[0] if a.ndim == 2 else 1
        p = b.shape[1] if b.ndim == 2 else 1
        madds.append(m * a.shape[-1] * p)
        return matmul(a, b, *args, **kwargs)

    def spy_vdot(a, b):
        cells.append(np.size(a))
        return vdot(a, b)

    monkeypatch.setattr(np, "matmul", spy_matmul)
    monkeypatch.setattr(np, "vdot", spy_vdot)
    # the shipped run, one of 1,001 records, and the shipped run at N = 4096,
    # with the exit codes of the check gates and a bound on the moment
    # residual (on the coarse 64-cell grid it is 0.456, above its 0.05 gate)
    runs = {"bagland": (_config(1024), 0, 0.05), "N4096": (_config(4096), 0, 0.05),
            "records": (_config(64, record_cadence=0.001), 1, 1.0)}
    for name, (payload, code, bound) in runs.items():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(payload))
        assert main(["--quiet", "check", str(path), "--out", str(tmp_path / name)]) == code
        report = json.loads((tmp_path / name / "check_report.json").read_text())
        by_name = {entry["name"]: entry for entry in report["checks"]}
        failing = [key for key, entry in by_name.items() if entry["status"] == "fail"]
        assert failing == ["moment_residual"] * code, name
        assert by_name["moment_residual"]["details"]["residual"] <= bound, name
        assert madds and cells, name  # the oracle and the steps ran
        assert max(madds) <= oracle._MATMUL_MADDS, name
        assert max(cells) <= solver._DOT_CELLS, name
        madds.clear()
        cells.clear()
    # a window of 12,000 cells: the whole grid is occupied from the start
    wide = dict(_config(12_000, t_end=0.001, record_cadence=0.001),
                initial={"kind": "uniform_on", "a": 0.0, "b": 8.0, "mass": 1.0})
    result = solver.run(SimConfig.from_dict(wide))
    assert not result.failed and result.steps > 0
    assert max(cells) == solver._DOT_CELLS
    assert sum(cells) == 12_000 * 2 * result.steps  # each cell once per test, two tests a step


def _openblas_threads():
    """The thread count numpy's OpenBLAS reports, read as the benchmark reads
    it (``bench/worker.py``), or None where it cannot be read."""
    spec = importlib.util.spec_from_file_location("bench_worker", ROOT / "bench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker._blas()[1]


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def test_check_leaves_no_blas_worker_spinning(bagland_runs):
    threads = _openblas_threads()
    if threads is None or threads < 2:
        pytest.skip("numpy's OpenBLAS reports one thread, or none can be read")
    result, _ = bagland_runs[1024]
    time.sleep(0.3)  # let workers woken by earlier tests settle
    checks.run_checks(result)
    before = _cpu_seconds()
    time.sleep(0.2)
    assert _cpu_seconds() - before < 0.02


def test_sliced_finiteness_test_finds_every_bad_cell():
    n = 2 * solver._DOT_CELLS + 5
    tables = solver.KernelTables(build("uniform", 1.0, n), ConstantKernel(1.0))
    x = np.ones(n)
    assert solver._all_finite(x, tables)
    for i in (0, solver._DOT_CELLS - 1, solver._DOT_CELLS, n - 1):
        for bad in (math.inf, -math.inf, math.nan):
            x[i] = bad
            assert not solver._all_finite(x, tables)
            x[i] = 1.0

