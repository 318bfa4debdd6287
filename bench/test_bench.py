"""Self-tests of the benchmark: python3 -m pytest bench -q"""
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _span(sid, start, end, parent=None, name="x"):
    return tracer.Span(sid, name, start, end, parent, 0)


def test_self_time_of_nested_spans():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),  # grandchild: counts against 1 only
        _span(3, 6.0, 7.0, parent=0),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),  # overlaps child 1 on [2, 3]
        _span(3, 4.0, 4.5, parent=0),  # inside child 2
        _span(4, 8.0, 12.0, parent=0),  # runs past its parent: clipped to [8, 10]
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 2.0)


def _fake_module(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def outer(x):
        return mod.inner(x) + 1

    def inner(x):
        return 2 * x

    mod.outer, mod.inner = outer, inner
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    return mod


def test_tracer_records_parents_and_restores(monkeypatch):
    mod = _fake_module(monkeypatch)
    original = mod.inner
    tr = tracer.Tracer().install(
        wraps=(("fake_layer", "outer", "fake.outer"), ("fake_layer", "inner", "fake.inner")),
        kernel_base=None,
    )
    tr.begin_command(7)
    assert mod.outer(3) == 7
    tr.uninstall()
    assert mod.inner is original
    by_name = {sp.name: sp for sp in tr.spans}
    assert by_name["fake.inner"].parent == by_name["fake.outer"].sid
    assert by_name["fake.outer"].parent is None
    assert {sp.cmd for sp in tr.spans} == {7}


def test_tracer_tolerates_deleted_names(monkeypatch):
    import ohslab.solver

    monkeypatch.delattr(ohslab.solver, "step")
    monkeypatch.delattr(ohslab.solver, "KernelTables")
    tr = tracer.Tracer().install()
    try:
        assert "ohslab.solver.step" in tr.missing
        assert "ohslab.solver.KernelTables.velocity" in tr.missing
        metrics = tracer.layer_metrics(tr.spans)
    finally:
        tr.uninstall()
    assert metrics["solver.steps"] == 0
    assert metrics["solver.matvecs"] == 0
    assert metrics["solver.matvec_s.N1024"] == 0.0


def test_traced_simulate_counts_steps(tmp_path):
    import ohslab.cli
    import ohslab.solver

    original_step = ohslab.solver.step
    plan = workloads.prepare("bagland_ladder", 0, tmp_path, ROOT, scale=16)
    tr = tracer.Tracer().install()
    try:
        assert ohslab.cli.main(["--quiet"] + plan.commands[0]) == 0
    finally:
        tr.uninstall()
    assert ohslab.solver.step is original_step
    assert not tr.missing
    metrics = tracer.layer_metrics(tr.spans)
    assert metrics["solver.runs"] == 1
    assert metrics["solver.steps"] > 0
    assert metrics["solver.matvecs"] == 2 * metrics["solver.steps"]
    assert metrics["moments.records"] == 101
    assert metrics["runio.bytes_written"] > 0
    assert set(metrics) | {"oracle.l1_error", "trace.overhead_pct"} == {
        m[0] for m in tracer.PER_LAYER
    }


@pytest.mark.parametrize("name", ["heun_geometric", "bagland_ladder", "cutoff_sweep"])
def test_tampered_moments_csv_is_a_failed_operation(tmp_path, name):
    import ohslab.cli

    plan = workloads.prepare(name, 3, tmp_path, ROOT, scale=16)
    rcs = [ohslab.cli.main(["--quiet"] + argv) for argv in plan.commands]
    attempted, failed, _ = plan.verify(rcs)
    assert attempted >= 1 and failed == 0
    victim = sorted(tmp_path.rglob("moments.csv"))[-1]
    lines = victim.read_text().splitlines()
    cells = lines[-1].split(",")
    col = lines[0].split(",").index("M1")
    cells[col] = repr(float(cells[col]) * (1 + 1e-6))
    lines[-1] = ",".join(cells)
    victim.write_text("\n".join(lines) + "\n")
    assert plan.verify(rcs)[1] == 1


def test_nonzero_exit_is_a_failed_operation(tmp_path):
    plan = workloads.prepare("cutoff_sweep", 0, tmp_path, ROOT, scale=16)
    attempted, failed, _ = plan.verify([3])
    assert attempted == failed == 4


def test_seed_zero_reproduces_checked_in_configs(tmp_path):
    plan = workloads.prepare("check_reference", 0, tmp_path, ROOT)
    generated = json.loads(Path(plan.setup[0][1]).read_text())
    assert generated == json.loads((ROOT / "configs" / "bagland.json").read_text())
    plan = workloads.prepare("cutoff_sweep", 0, tmp_path, ROOT)
    generated = json.loads(Path(plan.commands[0][1]).read_text())
    assert generated == json.loads((ROOT / "configs" / "gelation_sweep.json").read_text())


def test_seed_jitters_only_the_initial_block(tmp_path):
    a = workloads.prepare("bagland_ladder", 5, tmp_path / "a", ROOT)
    b = workloads.prepare("bagland_ladder", 5, tmp_path / "b", ROOT)
    cfg_a = json.loads(Path(a.commands[0][1]).read_text())
    cfg_b = json.loads(Path(b.commands[0][1]).read_text())
    base = json.loads((ROOT / "configs" / "bagland.json").read_text())
    assert cfg_a == cfg_b
    block = cfg_a.pop("initial")
    assert block["b"] == block["mass"] == a.mass
    assert abs(block["mass"] - 1.0) <= workloads.JITTER
    base.pop("initial")
    assert cfg_a == base


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in tracer.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_compare_prints_ratio_and_base(tmp_path, capsys):
    def result(value):
        return {"workloads": {"heun_geometric": {"trace0": {
            "metrics": {"wall_s": {"value": value, "unit": "s"}}}}}}

    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(result(2.0)))
    new.write_text(json.dumps(result(1.5)))
    run.compare(old, new)
    out = capsys.readouterr().out
    assert "heun_geometric" in out and "wall_s 0.75 (base 2 s)" in out


def test_smoke_pass_runs_every_workload():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith('{"correct"')]
    assert len(results) == 2 * len(workloads.NAMES)
    assert all(r["correct"] and r["failed"] == 0 for r in results)


def test_refuses_a_tree_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "heun_geometric", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
