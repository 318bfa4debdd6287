"""Shared reference runs, step helpers and the acceptance-summary hook."""
import json
import math
import time
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from ohslab import (
    ConstantKernel,
    GridSpec,
    MassConservingKernel,
    MomentSpec,
    PowerSumKernel,
    SimConfig,
    SweepSpec,
    UniformOn,
)
from ohslab import solver
from ohslab.gelation import cutoff_sweep
from ohslab.grid import State
from ohslab.moments import HOLDER_TOL, Power, moment_residual, pair_sums, stacked_moments
from ohslab.solver import run

#: ``tests/test_warnings.py`` runs small pytest sessions in subprocesses.
pytest_plugins = ["pytester"]

ACCEPTANCE_RESULTS = []


def record_criterion(num, name, passed, detail):
    ACCEPTANCE_RESULTS.append((num, name, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, passed, detail in sorted(ACCEPTANCE_RESULTS):
        flag = "PASS" if passed else "FAIL"
        terminalreporter.write_line("[%s] %d. %s: %s" % (flag, num, name, detail))


class Parts(NamedTuple):
    """Velocity, loss and boundary outflow rate of one right-hand side."""

    velocity: np.ndarray
    loss: np.ndarray
    boundary_outflow_rate: float


def stage(tables, xi):
    """(Parts, dxi/dt) of ``solver.rhs`` at xi, in new arrays."""
    dxi = np.empty(xi.size)
    v, L, rate = solver.rhs(tables, xi, dxi)
    return Parts(v.copy(), L.copy(), rate), dxi


def step_state(tables, state, t_next=math.inf, scheme="euler", cfl=1.0, dt_max=math.inf):
    """One ``solver.step`` from state towards t_next on tables of its grid.

    Loads the state's density into the tables and returns the new state, with
    a copy of the density; the step size is the step bound, cut to end at
    t_next.
    """
    tables.xi[:] = state.xi
    t, gel, clamped = solver.step(
        tables, state.t, t_next, state.gel_mass, state.clamped_mass, scheme, cfl, dt_max
    )
    return State(t=t, xi=tables.xi.copy(), gel_mass=gel, grid=state.grid, clamped_mass=clamped)


def moment(state, r):
    """The r-th moment of a state summed over its whole grid: the reference
    every moment the package sums is held to, bit for bit."""
    g = state.grid
    return float(np.add.reduce((g.power(r) * state.xi) * g.widths))


def truncated_moment(state, r, m):
    """The moment of the cells whose midpoint is at least m, summed over that
    whole suffix, from k = searchsorted(midpoints, m); 0.0 when no midpoint
    reaches m."""
    g = state.grid
    k = int(np.searchsorted(g.midpoints, m))
    if k == g.ncells:
        return 0.0
    return float(np.add.reduce((g.power(r)[k:] * state.xi[k:]) * g.widths[k:]))


def records(run):
    """The records of a replay as states: row k of its densities, with the
    time and the gel and clamped masses of row k of its series."""
    grid = run.final_state.grid
    return [State(t=row[0], xi=xi, gel_mass=row[-2], grid=grid, clamped_mass=row[-1])
            for row, xi in zip(run.series.rows, run.densities, strict=True)]


def replay_sums(run, test):
    """One test's pair sums at every record of a replay, as ``check`` hands
    them to the weak-form diagnostics."""
    return pair_sums(run.densities, run.tables, [test])[0]


def replay_moment_residual(run, r):
    """``moment_residual`` of a replay on the quadratures and moments it is handed in ``check``."""
    return moment_residual(run, r, replay_sums(run, Power(r))[:, 0],
                           stacked_moments(run.tables.grid, run.densities, (r,))[r])


def strict_json(path):
    """The JSON file at path, read as strict parsers read it: NaN and Infinity,
    which ``json`` writes and reads by default but JSON has not, raise."""
    def refuse(token):
        raise ValueError("%s holds %s, which is not JSON" % (path, token))
    return json.loads(path.read_text(), parse_constant=refuse)


def holder_sides(state, r, beta):
    """(lhs, rhs, satisfied) of the Hoelder bound at one state, from its whole-grid
    ``moment``s: the reference the moment pass's suite is held to."""
    sigma = (beta - 1.0) / (r - 1.0)
    lhs = moment(state, r) ** (sigma + 1.0) * moment(state, 1) ** (-sigma)
    rhs = moment(state, r + beta - 1.0)
    return lhs, rhs, lhs <= rhs * (1.0 + HOLDER_TOL)


def bagland_config(N, t_end=1.0, cfl=1.0):
    """Constant-kernel block run against the explicit solution.

    cfl = 1.0 keeps the support-edge cell at unit local CFL, which suppresses
    the upwind smearing of the moving edge and exposes the scheme's genuine
    first-order consistency in the convergence study.
    """
    return SimConfig(
        kernel=ConstantKernel(1.0),
        grid=GridSpec("uniform", 8.0, N),
        initial=UniformOn(0.0, 1.0, 1.0),
        t_end=t_end,
        cfl=cfl,
        record_cadence=0.01,
        moments=MomentSpec(truncation_thresholds=(2.0,)),
    )


@pytest.fixture(scope="session")
def bagland_runs():
    """Reference runs at N = 256, 512, 1024 with their wall-clock times."""
    out = {}
    for N in (256, 512, 1024):
        t0 = time.perf_counter()
        result = run(bagland_config(N), capture_densities=True)
        elapsed = time.perf_counter() - t0
        assert not result.failed
        out[N] = (result, elapsed)
    return out


@pytest.fixture(scope="session")
def bagland_t2():
    """Constant-kernel run to t = 2 (support grows to [0, 3])."""
    result = run(bagland_config(512, t_end=2.0), capture_densities=True)
    assert not result.failed
    return result


@pytest.fixture(scope="session")
def powersum_run():
    """Unbounded power-sum kernel run with active boundary outflow."""
    cfg = SimConfig(
        kernel=PowerSumKernel(1.0, 1.5),
        grid=GridSpec("uniform", 4.0, 256),
        initial=UniformOn(0.5, 1.0, 1.0),
        t_end=1.5,
        record_cadence=0.01,
        moments=MomentSpec(truncation_thresholds=(2.0,)),
    )
    result = run(cfg, capture_densities=True)
    assert not result.failed
    return result


@pytest.fixture(scope="session")
def massconserving_run():
    """Mass-conserving-family kernel (beta = 2) run with active outflow."""
    cfg = SimConfig(
        kernel=MassConservingKernel(1.0, 2.0, "half_sum", 1.0),
        grid=GridSpec("uniform", 4.0, 256),
        initial=UniformOn(0.5, 1.0, 1.0),
        t_end=1.0,
        record_cadence=0.01,
        moments=MomentSpec(truncation_thresholds=(2.0,)),
    )
    result = run(cfg, capture_densities=True)
    assert not result.failed
    return result


@pytest.fixture(scope="session")
def gelation_sweep(tmp_path_factory):
    """Cutoff-scaling experiment at fixed resolution, four workers."""
    base = SimConfig(
        kernel=PowerSumKernel(1.0, 1.5),
        grid=GridSpec("uniform", 4.0, 128),
        initial=UniformOn(0.5, 1.0, 1.0),
        t_end=2.0,
        record_cadence=0.01,
        epsilon=0.01,
    )
    t0 = time.perf_counter()
    sweep = SweepSpec((4.0, 8.0, 16.0, 32.0), resolution=1.0 / 32.0)
    rows = cutoff_sweep(replace(base, sweep=sweep), tmp_path_factory.mktemp("sweep"), workers=4)
    return rows, time.perf_counter() - t0
