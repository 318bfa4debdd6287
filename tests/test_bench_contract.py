"""The calls the benchmark's tracer counts, pinned on one Euler and one Heun
run and on one ``check``.

``bench/tracer.py`` wraps package callables by name and counts a step per
``solver.step`` call, a matvec per ``KernelTables.velocity`` or ``loss``
call and a record per ``MomentSeries.append_state`` call, whose spans its
``moments.records`` and ``moments.append_state_s`` read.  Its self-test reads
``solver.matvecs == 2 * solver.steps`` on an Euler run, so a change that
renames one of those callables, or calls them other than once per step,
once per stage and once per series row, fails here first.  On the ``check``
side each diagnostic it wraps must be called once per check, so that its
span's time is the diagnostic's and not 0.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from ohslab import GridSpec, MassConservingKernel, PowerSumKernel, SimConfig, UniformOn, solver
from ohslab import checks, moments, oracle
from ohslab.moments import MomentSeries
from ohslab.solver import KernelTables

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_wraps_exists():
    for module_name, path, _ in load_tracer().WRAPS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, "%s.%s" % (module_name, path)
        assert callable(owner), "%s.%s" % (module_name, path)


def counted(monkeypatch, owner, name, counts):
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("scheme, stages, kernel", [
    ("euler", 1, PowerSumKernel(1.0, 1.5)),
    ("heun", 2, MassConservingKernel(1.0, 1.5, "min", 0.5)),
])
def test_one_step_call_per_step_and_one_velocity_and_loss_per_stage(
        scheme, stages, kernel, monkeypatch):
    cfg = SimConfig(
        kernel=kernel, grid=GridSpec("geometric", 8.0, 128, q=1.02),
        initial=UniformOn(0.5, 1.0, 1.0), t_end=0.5, record_cadence=0.05,
        scheme=scheme, cfl=1.0,
    )
    counts = {}
    counted(monkeypatch, solver, "step", counts)
    counted(monkeypatch, KernelTables, "velocity", counts)
    counted(monkeypatch, KernelTables, "loss", counts)
    counted(monkeypatch, MomentSeries, "append_state", counts)
    result = solver.run(cfg)
    assert not result.failed and result.steps > 0
    assert counts == {"step": result.steps, "velocity": result.steps * stages,
                      "loss": result.steps * stages, "append_state": len(result.series.rows)}


@pytest.mark.parametrize("scheme, stages", [("euler", 1), ("heun", 2)])
def test_the_tracer_counts_the_steps_and_matvecs_a_run_takes(scheme, stages):
    tracer = load_tracer()
    cfg = SimConfig(
        kernel=PowerSumKernel(1.0, 1.5), grid=GridSpec("uniform", 4.0, 128),
        initial=UniformOn(0.5, 1.0, 1.0), t_end=0.5, record_cadence=0.05,
        scheme=scheme, cfl=1.0,
    )
    tr = tracer.Tracer().install()
    try:
        result = solver.run(cfg)
    finally:
        tr.uninstall()
    assert not tr.missing
    metrics = tracer.layer_metrics(tr.spans)
    assert metrics["solver.runs"] == 1
    assert metrics["solver.steps"] == result.steps > 0
    assert metrics["solver.matvecs"] == 2 * stages * result.steps
    assert metrics["moments.records"] == len(result.series.rows) == 11
    assert metrics["moments.append_state_s"] > 0
    assert sum(span.name == "solver.stable_dt" for span in tr.spans) == result.steps


def test_check_calls_each_diagnostic_the_tracer_wraps_once(powersum_run, monkeypatch):
    counts = {}
    for name in ("holder_check", "moment_residual", "weak_form_residual", "weak_rhs_quadrature"):
        counted(monkeypatch, moments, name, counts)
    counted(monkeypatch, oracle, "brute_force_weak_rhs", counts)
    checks.run_checks(powersum_run)
    assert counts == {"holder_check": 1, "moment_residual": 1, "weak_form_residual": 1,
                      "weak_rhs_quadrature": 1, "brute_force_weak_rhs": 1}
