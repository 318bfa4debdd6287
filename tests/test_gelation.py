"""Gel-time detection, cutoff sweep machinery and blow-up bounds."""
import multiprocessing
import os
import pickle
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ohslab import (
    ConstantKernel, GridSpec, PowerSumKernel, SimConfig, SweepSpec, UniformOn,
    gelation,
)
from ohslab.errors import InvalidInputError
from ohslab.gelation import (
    SweepRow,
    blowup_bound,
    comparison_ode_blowup,
    cutoff_sweep,
    gelation_time,
    row_config,
)
from ohslab.moments import MomentSeries
from ohslab.runio import read_manifest
from ohslab.solver import run

# regression baselines recorded from the deterministic reference run
POWERSUM_T_LOSS = 0.6019404632279971


def synthetic_series(times, gel):
    series = MomentSeries(orders=(0.0, 1.0), thresholds=())
    for k, t in enumerate(times):
        # t, M0, M1, gel_mass, clamped_mass
        series.rows.append([float(t), 1.0, 1.0 - gel[k], float(gel[k]), 0.0])
    return series


def test_gelation_time_linear_interpolation():
    series = synthetic_series([0.0, 1.0, 2.0], [0.0, 0.005, 0.02])
    assert gelation_time(series, 0.01) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_gelation_time_not_reached(bagland_runs):
    # support never gets near the cutoff within the horizon
    result, _ = bagland_runs[256]
    assert gelation_time(result.series, 0.01) is None


def test_gelation_time_validation():
    series = synthetic_series([0.0, 1.0], [0.0, 0.1])
    for eps in (0.0, 1.0, -0.2):
        with pytest.raises(InvalidInputError):
            gelation_time(series, eps)


def test_gelation_time_monotone_in_threshold(powersum_run):
    losses = [gelation_time(powersum_run.series, eps) for eps in (0.005, 0.01, 0.02)]
    assert all(t is not None for t in losses)
    assert losses[0] <= losses[1] <= losses[2]


def test_gelation_time_regression_value(powersum_run):
    t_loss = gelation_time(powersum_run.series, 0.01)
    assert t_loss == pytest.approx(POWERSUM_T_LOSS, rel=1e-3)


def constant_base(t_end=1.0):
    return SimConfig(
        kernel=ConstantKernel(1.0), grid=GridSpec("uniform", 4.0, 64),
        initial=UniformOn(0.0, 1.0, 1.0), t_end=t_end, record_cadence=0.05,
    )


def test_sweep_constant_kernel_never_reaches_cutoffs(tmp_path):
    # explicit-solution support stays in [0, M*(1+t_end)] = [0, 2]
    rows = cutoff_sweep(
        replace(constant_base(), sweep=SweepSpec((4.0, 8.0))), tmp_path, workers=1
    )
    assert [row.R for row in rows] == [4.0, 8.0]
    assert all(row.t_loss is None for row in rows)
    # upwind leakage beyond the support is at roundoff scale
    assert all(row.gel_fraction_final <= 1e-12 for row in rows)
    for name in ("R4", "R8"):
        assert read_manifest(tmp_path / name / "manifest.json")["status"] == "ok"
        assert (tmp_path / name / "moments.csv").exists()


def test_sweep_spec_rejects_empty_cutoffs():
    with pytest.raises(InvalidInputError):
        SweepSpec(cutoffs=())


def test_sweep_requires_increasing_cutoffs(tmp_path):
    with pytest.raises(InvalidInputError):
        cutoff_sweep(replace(constant_base(), sweep=SweepSpec((4.0, 4.0))), tmp_path)
    with pytest.raises(InvalidInputError):
        cutoff_sweep(replace(constant_base(), sweep=SweepSpec((8.0, 4.0))), tmp_path)


def test_sweep_requires_a_sweep_section(tmp_path):
    with pytest.raises(InvalidInputError, match="'sweep' section"):
        cutoff_sweep(constant_base(), tmp_path, workers=1)
    assert list(tmp_path.iterdir()) == []


def powersum_base():
    return SimConfig(
        kernel=PowerSumKernel(1.0, 1.5), grid=GridSpec("uniform", 2.0, 32),
        initial=UniformOn(0.5, 1.0, 1.0), t_end=1.0, record_cadence=0.02,
    )


def test_sweep_row_replicates_direct_run(tmp_path):
    base = powersum_base()
    rows = cutoff_sweep(
        replace(base, sweep=SweepSpec((2.0, 3.0), resolution=1.0 / 16.0)), tmp_path, workers=1
    )
    direct = run(base)  # R = 2, N = 32 equals the first row's configuration
    assert rows[0].N == 32
    assert rows[0].t_loss == gelation_time(direct.series, 0.01)
    assert rows[0].steps == direct.steps > 0


def test_sweep_parallel_matches_serial(tmp_path):
    base = powersum_base()
    sweep = SweepSpec((2.0, 3.0))
    serial = cutoff_sweep(replace(base, sweep=sweep), tmp_path / "serial", workers=1)
    parallel = cutoff_sweep(replace(base, sweep=sweep), tmp_path / "parallel", workers=2)
    for a, b in zip(serial, parallel):
        assert (a.R, a.N, a.t_loss, a.gel_fraction_final) == (b.R, b.N, b.t_loss, b.gel_fraction_final)


def failing_run(crash):
    """solver.run with the rows at R = 3 and R = 4 ending in ``crash``."""
    real_run = run

    def flaky(cfg, *args, **kwargs):
        if cfg.grid.R >= 3.0:
            crash(cfg.grid.R)
        return real_run(cfg, *args, **kwargs)

    return flaky


def raise_foreign_errors(R):
    raise MemoryError() if R == 3.0 else RuntimeError("boom")


def assert_only_a_failed_manifest(row_dir, error):
    """The directory of a row that raised or lost its worker: a failed manifest, no run."""
    assert sorted(p.name for p in row_dir.iterdir()) == ["manifest.json"]
    manifest = read_manifest(row_dir / "manifest.json")
    assert (manifest["status"], manifest["error"]) == ("failed", error)


def test_sweep_serial_contains_non_coagulation_errors(tmp_path, monkeypatch):
    monkeypatch.setattr(gelation.solver, "run", failing_run(raise_foreign_errors))
    rows = cutoff_sweep(
        replace(powersum_base(), sweep=SweepSpec((2.0, 3.0, 4.0))), tmp_path, workers=1
    )
    assert [row.failed for row in rows] == [False, True, True]
    assert rows[0].t_loss is not None and rows[0].steps > 0
    assert rows[1].error == "MemoryError: "
    assert rows[2].error == "RuntimeError: boom"
    assert rows[1].steps is None
    assert_only_a_failed_manifest(tmp_path / "R3", "MemoryError: ")
    assert (tmp_path / "R2" / "moments.csv").exists()


class CrashingPool:
    """Stands in for ProcessPoolExecutor; the worker of the R = 3 row dies.

    Every other result crosses a process boundary as a pool's would: through
    pickle, as a SweepRow under 1 KiB.
    """

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, job):
        future = Future()
        if job[0].grid.R == 3.0:
            future.set_exception(BrokenProcessPool("worker terminated abruptly"))
        else:
            sent = pickle.dumps(fn(job))
            assert len(sent) < 1024
            result = pickle.loads(sent)
            assert isinstance(result, SweepRow)
            future.set_result(result)
        return future


def test_sweep_pool_turns_a_lost_worker_into_a_failed_row(tmp_path, monkeypatch):
    monkeypatch.setattr(gelation.futures, "ProcessPoolExecutor", CrashingPool)
    rows = cutoff_sweep(
        replace(powersum_base(), sweep=SweepSpec((2.0, 3.0, 4.0))), tmp_path, workers=3
    )
    assert [row.failed for row in rows] == [False, True, False]
    error = "BrokenProcessPool: worker terminated abruptly"
    assert rows[1].error == error
    assert_only_a_failed_manifest(tmp_path / "R3", error)
    assert all(row.t_loss is not None for row in (rows[0], rows[2]))


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the crashing solver.run reaches the workers only through fork",
)
def test_sweep_pool_survives_a_worker_that_exits(tmp_path, monkeypatch):
    monkeypatch.setattr(gelation.solver, "run", failing_run(lambda R: os._exit(1)))
    rows = cutoff_sweep(
        replace(powersum_base(), sweep=SweepSpec((2.0, 3.0))), tmp_path, workers=2
    )
    assert [row.R for row in rows] == [2.0, 3.0]
    assert rows[1].failed
    assert rows[1].error.startswith("BrokenProcessPool: ")
    # the other row either finished before the pool broke or lost it too
    assert rows[0].t_loss is not None or "BrokenProcessPool" in rows[0].error


def test_row_config_moves_the_grid_and_drops_the_sweep():
    base = powersum_base()
    cfg = row_config(base, 4, 64)
    assert (cfg.grid.R, cfg.grid.N, cfg.sweep) == (4.0, 64, None)
    assert (cfg.kernel, cfg.initial, cfg.t_end) == (base.kernel, base.initial, base.t_end)


def test_sweep_scales_cell_count_with_cutoff(tmp_path):
    rows = cutoff_sweep(
        replace(powersum_base(), sweep=SweepSpec((2.0, 4.0), resolution=1.0 / 16.0)),
        tmp_path, workers=1,
    )
    assert [row.N for row in rows] == [32, 64]


def test_blowup_bound_spot_values():
    # sigma = 1/2: bound = (1/4)^(1/2) = 0.5
    assert blowup_bound(3, 0.0, 4.0, 1.0, 2.0, 1.0) == pytest.approx(0.5, rel=1e-15)
    # sigma = 1: bound = 1 + 1 = 2
    assert blowup_bound(2, 1.0, 1.0, 1.0, 2.0, 1.0) == pytest.approx(2.0, rel=1e-15)


def test_blowup_bound_validation():
    with pytest.raises(InvalidInputError):
        blowup_bound(1.5, 0.0, 1.0, 1.0, 2.0, 1.0)
    with pytest.raises(InvalidInputError):
        blowup_bound(2, 0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidInputError):
        blowup_bound(2, 0.0, 0.0, 1.0, 2.0, 1.0)
    with pytest.raises(InvalidInputError):
        blowup_bound(2, -0.1, 1.0, 1.0, 2.0, 1.0)
    with pytest.raises(InvalidInputError):
        blowup_bound(2, 0.0, 1.0, 0.0, 2.0, 1.0)


def test_blowup_bound_limit_with_huge_moment():
    # an enormous moment value pins the bound at delta
    assert blowup_bound(3, 0.25, 1e300, 1.0, 2.0, 1.0) == pytest.approx(0.25, abs=1e-12)


def test_blowup_bound_monotonicities():
    moments_grid = np.geomspace(0.1, 1e4, 13)
    bounds = [blowup_bound(3, 0.0, m, 1.0, 2.0, 1.0) for m in moments_grid]
    assert np.all(np.diff(bounds) < 0)
    theta_grid = np.geomspace(0.1, 100.0, 13)
    bounds = [blowup_bound(3, 0.0, 4.0, th, 2.0, 1.0) for th in theta_grid]
    assert np.all(np.diff(bounds) < 0)
    # fixed sigma = 0.5 realized through r = 1 + (beta - 1) / sigma >= 2
    betas = np.linspace(1.5, 3.0, 10)
    bounds = [blowup_bound(1.0 + (b - 1.0) / 0.5, 0.0, 4.0, 1.0, b, 1.0) for b in betas]
    assert np.all(np.diff(bounds) < 0)


def test_comparison_ode_spot_values():
    assert comparison_ode_blowup(1.0, 1.0, 1.0) == 1.0
    assert comparison_ode_blowup(4.0, 2.0, 0.5) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(InvalidInputError):
        comparison_ode_blowup(0.0, 1.0, 1.0)
    with pytest.raises(InvalidInputError):
        comparison_ode_blowup(1.0, -1.0, 1.0)
    with pytest.raises(InvalidInputError):
        comparison_ode_blowup(1.0, 1.0, 0.0)


def test_comparison_ode_matches_bound_under_identification():
    q0 = 4.0
    theta1, rho0 = 1.3, 0.8
    for r in (2, 3, 4, 5, 6):
        for beta in (1.2, 1.5, 2.0, 2.5, 3.0):
            sigma = (beta - 1.0) / (r - 1.0)
            c = theta1 * rho0 ** (1.0 - sigma) * (r - 1.0)
            bound = blowup_bound(r, 0.0, q0, theta1, beta, rho0)
            tstar = comparison_ode_blowup(q0, c, sigma)
            assert abs(bound - tstar) / tstar <= 1e-12


@pytest.mark.parametrize("params", [(1.0, 1.0, 1.0), (1.0, 1.0, 0.5), (2.0, 1.5, 2.0)])
def test_numerical_ode_diverges_at_predicted_time(params):
    q0, c, sigma = params
    tstar = comparison_ode_blowup(q0, c, sigma)

    def escaped(t, y):
        return y[0] - 1e6

    escaped.terminal = True
    escaped.direction = 1.0
    sol = solve_ivp(
        lambda t, y: c * y ** (sigma + 1.0), (0.0, tstar), [q0],
        rtol=1e-10, atol=1e-12, events=escaped, max_step=tstar / 50.0,
    )
    assert sol.t_events[0].size == 1
    t_escape = sol.t_events[0][0]
    assert 0.99 * tstar <= t_escape <= tstar
