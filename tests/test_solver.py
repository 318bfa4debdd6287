"""Right-hand-side quadratures, the mass identity, stepping, and full runs."""
import copy
import math
import pickle
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ohslab import (
    BaglandSolution,
    ConstantKernel,
    GridSpec,
    MassConservingKernel,
    PowerSumKernel,
    ProductKernel,
    SimConfig,
    UniformOn,
    solver,
)
from ohslab.errors import EvaluationOverflowError, InvalidInputError, NumericalFailureError
from ohslab.grid import CellSpike, State, build, project_initial
from ohslab.oracle import l1_error
from ohslab.solver import KernelTables, run, stable_dt

from conftest import bagland_config, moment, records, stage, step_state

RNG = np.random.default_rng(123)

KERNELS = [
    ConstantKernel(1.0),
    PowerSumKernel(1.0, 1.5),
    MassConservingKernel(1.0, 2.0, "half_sum", 1.0),
    ProductKernel(0.5),
]


def random_state(grid, scale=1.0, seed=0):
    rng = np.random.default_rng(seed)
    return State(t=0.0, xi=scale * rng.random(grid.ncells), gel_mass=0.0, grid=grid)


def state_rhs(state, kernel):
    """The right-hand side at a state, on tables built for its grid."""
    return stage(KernelTables(state.grid, kernel), state.xi)


def state_bound(state, kernel, cfl, dt_max=math.inf):
    """The step bound at a state, on tables built for its grid."""
    tables = KernelTables(state.grid, kernel)
    parts, _ = stage(tables, state.xi)
    return stable_dt(tables, state.xi, parts.velocity, parts.loss, cfl, dt_max)


def fresh_step(state, kernel, t_next=math.inf, scheme="euler", cfl=1.0):
    """One step from a state towards t_next, on tables built for its grid."""
    return step_state(KernelTables(state.grid, kernel), state, t_next, scheme, cfl)


def test_empty_state_rhs_is_zero():
    grid = build("uniform", 4.0, 32)
    state = State(t=0.0, xi=np.zeros(32), gel_mass=0.0, grid=grid)
    parts, dxi = state_rhs(state, ConstantKernel(1.0))
    assert np.all(parts.velocity == 0.0)
    assert np.all(parts.loss == 0.0)
    assert np.all(dxi == 0.0)
    assert parts.boundary_outflow_rate == 0.0


def test_single_cell_drift_equals_its_mass():
    grid = build("uniform", 4.0, 16)
    state = project_initial(grid, CellSpike(0, 0.7))
    parts, _ = state_rhs(state, ConstantKernel(1.0))
    m0 = grid.midpoints[0] * state.xi[0] * grid.widths[0]
    assert np.all(parts.velocity == m0)


def test_drift_at_unit_edge_matches_integral():
    # v at the edge located at size 1 quadratures integral of nu * 2 over [0, 1] = 1
    grid = build("uniform", 4.0, 400)
    state = project_initial(grid, UniformOn(0.0, 1.0, 1.0))
    parts, _ = state_rhs(state, ConstantKernel(1.0))
    edge_index = 99  # right edge of cell 99 sits at 1.0
    assert grid.edges[edge_index + 1] == 1.0
    assert parts.velocity[edge_index] == pytest.approx(1.0, rel=1e-12)


def test_loss_constant_state_telescopes():
    grid = build("uniform", 2.0, 32)
    c = 0.7
    state = State(t=0.0, xi=np.full(32, c), gel_mass=0.0, grid=grid)
    parts, _ = state_rhs(state, ConstantKernel(1.0))
    expected = c * (grid.midpoints[-1] - grid.midpoints)
    assert np.max(np.abs(parts.loss - expected)) < 1e-13
    assert parts.loss[-1] == 0.0  # no larger particles inside the domain


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.kind)
@pytest.mark.parametrize("gridspec", [("uniform", None), ("geometric", 1.2)])
def test_mass_identity_closes_to_roundoff(kernel, gridspec):
    kind, q = gridspec
    grid = build(kind, 5.0, 64, q)
    for seed in range(5):
        state = random_state(grid, scale=3.0, seed=seed)
        parts, dxi = state_rhs(state, kernel)
        assert np.all(parts.velocity >= 0) and np.all(parts.loss >= 0)
        terms = grid.midpoints * dxi * grid.widths
        residual = abs(np.sum(terms) + parts.boundary_outflow_rate)
        gross = np.sum(np.abs(terms)) + abs(parts.boundary_outflow_rate)
        assert residual <= 1e-12 * max(gross, 1e-30)


def test_kernel_tables_overflow_raises_without_warning():
    # the diagonal probe fails where the dense pair table would have overflowed
    grid = build("uniform", 1000.0, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationOverflowError):
            KernelTables(grid, ProductKernel(200.0))


def test_kernel_tables_refuse_to_pickle_or_copy():
    # a pickled copy used to come back with velocity off by 68.7 and loss by 11.9
    tables = KernelTables(build("uniform", 4.0, 64), PowerSumKernel(1.0, 1.5))
    for copy_of in (pickle.dumps, copy.deepcopy):
        with pytest.raises(TypeError, match="views of one another"):
            copy_of(tables)


def test_tables_and_rhs_memory_is_linear_in_cells():
    # dense N x N tables at N = 8192 would take about 1.5 GB
    grid = build("uniform", 8.0, 8192)
    state = project_initial(grid, UniformOn(0.0, 1.0, 1.0))
    kernel = MassConservingKernel(1.0, 2.0, "half_sum", 1.0)  # the most terms
    tracemalloc.start()
    try:
        state_rhs(state, kernel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_number_loss_trend_for_block_state():
    # total-number decay rate tends to -(M0)^2 / 2 = -2 for the unit block
    grid = build("uniform", 4.0, 4096)
    state = project_initial(grid, UniformOn(0.0, 1.0, 1.0))
    _, dxi = state_rhs(state, ConstantKernel(1.0))
    dM0 = float(np.sum(dxi * grid.widths))
    assert dM0 == pytest.approx(-2.0, rel=1e-2)


def test_stable_dt_arithmetic():
    grid = build("uniform", 1.0, 2)  # widths 0.5
    tables = KernelTables(grid, ConstantKernel(1.0))
    velocity = np.array([2.0, 0.0])
    assert stable_dt(tables, np.ones(2), velocity, np.zeros(2), cfl=0.5) == 0.125


def test_stable_dt_empty_state_maps_to_dt_max():
    grid = build("uniform", 1.0, 4)
    state = State(t=0.0, xi=np.zeros(4), gel_mass=0.0, grid=grid)
    assert state_bound(state, ConstantKernel(1.0), cfl=0.5, dt_max=0.02) == 0.02


def test_stable_dt_scales_inversely_with_density():
    grid = build("uniform", 4.0, 32)
    state = random_state(grid, seed=5)
    half = State(t=0.0, xi=0.5 * state.xi, gel_mass=0.0, grid=grid)
    kernel = PowerSumKernel(1.0, 1.5)
    assert state_bound(half, kernel, 0.5) == 2.0 * state_bound(state, kernel, 0.5)


@pytest.mark.parametrize("N", [16, 64, 257])
@pytest.mark.parametrize("block", [(0.0, 1.0), (0.5, 1.0), (1.25, 3.0), (0.0, 4.0)])
def test_stable_dt_constant_kernel_contiguous_support_is_the_global_bound(N, block):
    grid = build("uniform", 4.0, N)
    state = project_initial(grid, UniformOn(block[0], block[1], 1.3))
    state.xi[state.xi > 0] *= np.random.default_rng(N).uniform(0.5, 2.0, (state.xi > 0).sum())
    parts, _ = state_rhs(state, ConstantKernel(0.7))
    global_peak = np.max(parts.velocity / grid.widths + parts.loss)
    assert state_bound(state, ConstantKernel(0.7), 0.8) == 0.8 / global_peak


def test_stable_dt_ignores_empty_cells_beyond_the_front():
    grid = build("uniform", 4.0, 8)
    tables = KernelTables(grid, ConstantKernel(1.0))
    xi = np.array([1.0, 0, 0, 0, 0, 0, 0, 0])
    rate = np.arange(1.0, 9.0)
    # cells 0, 1 and 2 count; the larger rates of cells 3-7 multiply zero
    assert stable_dt(tables, xi, rate * grid.widths, np.zeros(8), cfl=1.0) == 1.0 / 3.0


@pytest.mark.parametrize("t, t_next", [(0.0, 0.0), (1e20, math.inf)],
                         ids=["cut_to_zero", "below_half_an_ulp"])
def test_step_that_cannot_move_t_fails_and_keeps_the_density(t, t_next):
    grid = build("uniform", 4.0, 32)
    state = random_state(grid, seed=2)
    state.t = t
    tables = KernelTables(grid, ConstantKernel(1.0))
    with pytest.raises(NumericalFailureError, match="stalled run"):
        step_state(tables, state, t_next)
    assert np.array_equal(tables.xi, state.xi)


def test_step_empty_state_advances_time_only():
    grid = build("uniform", 4.0, 32)
    state = State(t=0.0, xi=np.zeros(32), gel_mass=0.0, grid=grid)
    out = fresh_step(state, ConstantKernel(1.0), 0.3)  # no rate: the bound is dt_max
    assert out.t == 0.3
    assert np.array_equal(out.xi, state.xi)
    assert out.gel_mass == 0.0


def test_step_conserves_mass_without_outflow():
    grid = build("uniform", 4.0, 256)
    state = project_initial(grid, UniformOn(0.0, 1.0, 1.0))
    dt = state_bound(state, ConstantKernel(1.0), 0.5)
    out = fresh_step(state, ConstantKernel(1.0), cfl=0.5)
    assert out.t == dt
    assert out.gel_mass == 0.0  # support far from the cutoff
    assert abs(moment(out, 1) - 1.0) <= 1e-12


@pytest.mark.parametrize("scheme", ["euler", "heun"])
@pytest.mark.parametrize("cfl", [0.5, 1.0])
def test_step_preserves_positivity(scheme, cfl):
    grid = build("uniform", 4.0, 64)
    kernel = PowerSumKernel(1.0, 1.5)
    state = random_state(grid, seed=9)
    tables = KernelTables(grid, kernel)
    for _ in range(50):
        state = step_state(tables, state, scheme=scheme, cfl=cfl)
    assert np.min(state.xi) >= 0.0
    assert state.clamped_mass <= 1e-12


@pytest.mark.parametrize("scheme", ["euler", "heun"])
def test_step_bookkeeping_with_outflow(scheme):
    grid = build("uniform", 2.0, 64)
    kernel = PowerSumKernel(1.0, 1.5)
    state = project_initial(grid, UniformOn(0.5, 1.0, 1.0))
    rho0 = moment(state, 1)
    tables = KernelTables(grid, kernel)
    for _ in range(200):
        state = step_state(tables, state, scheme=scheme, cfl=0.5)
    assert state.gel_mass > 0  # mass has reached the cutoff by now
    assert abs(moment(state, 1) + state.gel_mass - rho0) <= 1e-12 * rho0


def test_step_clamps_and_accounts_for_oversized_dt(monkeypatch):
    grid = build("uniform", 4.0, 64)
    kernel = PowerSumKernel(1.0, 1.5)
    state = random_state(grid, seed=3)
    dt = 50.0 * state_bound(state, kernel, 1.0)
    real_bound = solver.stable_dt
    monkeypatch.setattr(solver, "stable_dt", lambda *args: 50.0 * real_bound(*args))
    out = fresh_step(state, kernel)
    assert out.t == dt
    assert np.min(out.xi) >= 0.0
    assert out.clamped_mass > 0.0


def base_config(**kw):
    defaults = dict(
        kernel=ConstantKernel(1.0),
        grid=GridSpec("uniform", 4.0, 128),
        initial=UniformOn(0.0, 1.0, 1.0),
        t_end=1.0,
        record_cadence=0.25,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def test_run_counts_its_steps(monkeypatch):
    calls = []
    real_step = solver.step

    def counted(*args, **kwargs):
        calls.append(1)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(solver, "step", counted)
    result = run(base_config())
    assert result.steps == len(calls) >= 4  # at least one step per record


def test_run_uses_the_config_it_is_given():
    cfg = base_config(record_cadence=None)
    assert cfg.record_cadence == 0.01  # filled in when built
    assert run(cfg).config is cfg


@pytest.mark.parametrize("field, value", [("t", 0.5), ("gel_mass", 0.1), ("clamped_mass", 1e-30)])
def test_run_starts_only_at_t_zero(field, value):
    # the record times count from 0: a state past it, or one carrying gel or
    # clamped mass, would be integrated onto the wrong clock
    cfg = base_config()
    state = replace(solver.initial_state(cfg), **{field: value})
    with pytest.raises(InvalidInputError, match="t = 0"):
        run(cfg, state=state)


def test_run_zero_horizon_single_record():
    result = run(base_config(t_end=0.0))
    assert len(result.series.rows) == 1
    assert result.series.rows[0][0] == 0.0  # the t column
    assert not result.failed


def test_run_records_at_cadence():
    result = run(base_config())
    assert np.array_equal(result.series.times(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_run_is_deterministic():
    a = run(base_config(kernel=PowerSumKernel(1.0, 1.5)))
    b = run(base_config(kernel=PowerSumKernel(1.0, 1.5)))
    assert np.array_equal(a.series.values(1.0), b.series.values(1.0))
    assert np.array_equal(a.final_state.xi, b.final_state.xi)
    assert a.final_state.gel_mass == b.final_state.gel_mass


def test_run_number_moment_tracks_oracle(bagland_runs):
    result, _ = bagland_runs[512]
    sol = BaglandSolution(1.0)
    m0 = result.series.values(0.0)[-1]
    assert m0 == pytest.approx(sol.moment(0, 1.0), rel=0.05)


def test_run_l1_error_decreases_with_refinement(bagland_runs):
    sol = BaglandSolution(1.0)
    errors = [l1_error(bagland_runs[N][0].final_state, sol) for N in (256, 512, 1024)]
    assert errors[0] > errors[1] > errors[2]


def test_run_first_order_convergence(bagland_runs):
    sol = BaglandSolution(1.0)
    errors = {N: l1_error(bagland_runs[N][0].final_state, sol) for N in (256, 512, 1024)}
    for fine, coarse in ((512, 256), (1024, 512)):
        ratio = errors[coarse] / errors[fine]
        assert 1.7 <= ratio <= 2.3, ratio


def test_run_bookkeeping_all_kernels(bagland_runs, powersum_run, massconserving_run):
    for result in (bagland_runs[1024][0], powersum_run, massconserving_run):
        series = result.series
        rho0 = series.rho0()
        drift = np.abs(series.values(1.0) + series.gel() - rho0) / rho0
        assert np.max(drift) <= 1e-10


def test_run_domain_mass_matches_series_bitwise(powersum_run):
    # same summation path: recorded M^1 equals the state's bookkept mass
    m1 = powersum_run.series.labels.index("M1")
    for state, row in zip(records(powersum_run), powersum_run.series.rows):
        assert row[m1] == moment(state, 1)


def test_run_gel_strictly_increases_once_positive(powersum_run):
    gel = powersum_run.series.gel()
    first = np.flatnonzero(gel > 0)
    assert first.size  # outflow does occur in this run
    k0 = first[0]
    assert np.all(np.diff(gel[k0:]) > 0)


def test_run_tail_mass_appears_beyond_initial_support(bagland_t2):
    tail = bagland_t2.series.columns()["M1_m2"]
    assert tail[0] == 0.0
    assert tail[-1] > 0.0


def test_run_positivity_of_all_recorded_states(bagland_runs):
    for xi in bagland_runs[256][0].densities:
        assert np.min(xi) >= 0.0


def test_run_heun_bookkeeping():
    result = run(base_config(scheme="heun", record_cadence=0.05))
    series = result.series
    drift = np.abs(series.values(1.0) + series.gel() - series.rho0())
    assert np.max(drift) <= 1e-10


def test_run_geometric_grid_bookkeeping():
    cfg = base_config(
        kernel=PowerSumKernel(1.0, 1.5),
        grid=GridSpec("geometric", 8.0, 128, q=1.04),
        initial=UniformOn(0.5, 1.0, 1.0),
        record_cadence=0.05,
    )
    result = run(cfg)
    assert not result.failed
    series = result.series
    assert series.gel()[-1] > 0  # mass reaches the cutoff on this horizon
    drift = np.abs(series.values(1.0) + series.gel() - series.rho0())
    assert np.max(drift) <= 1e-10 * series.rho0()


def test_run_failure_marker_on_kernel_overflow():
    cfg = base_config(
        kernel=ProductKernel(200.0),
        grid=GridSpec("uniform", 1000.0, 8),
        initial=UniformOn(0.0, 500.0, 1.0),
    )
    result = run(cfg)
    assert result.failed
    assert result.error
    assert len(result.series.rows) == 1  # partial series retained


@pytest.mark.parametrize("overflow", [False, True], ids=["completed", "overflow"])
def test_run_captures_one_density_row_per_series_row(overflow):
    # the overflow config fails when its tables are built, after the t = 0 record
    cfg = base_config()
    if overflow:
        cfg = base_config(kernel=ProductKernel(200.0), grid=GridSpec("uniform", 1000.0, 8),
                          initial=UniformOn(0.0, 500.0, 1.0))
    result = run(cfg, capture_densities=True)
    assert result.failed == overflow
    rows = result.series.rows
    assert result.densities.shape == (len(rows), cfg.grid.N)
    m1, m2 = (result.series.labels.index(label) for label in ("M1", "M2"))
    grid = result.final_state.grid
    for xi, row in zip(result.densities, rows, strict=True):
        state = State(t=row[0], xi=xi, gel_mass=row[-2], grid=grid)
        recorded = np.array([row[m1], row[m2]])
        assert np.array([moment(state, 1), moment(state, 2)]).tobytes() == recorded.tobytes()
    assert result.densities[-1].tobytes() == result.final_state.xi.tobytes()


def test_run_failure_inside_a_short_window_keeps_the_whole_grid(monkeypatch):
    real_step, stepped = solver.step, []

    def fails_at_step_50(tables, *args):
        if len(stepped) == 50:
            raise NumericalFailureError("planted failure")
        t, gel, clamped = real_step(tables, *args)
        stepped.append((tables.xi.copy(), t, gel))
        return t, gel, clamped

    monkeypatch.setattr(solver, "step", fails_at_step_50)
    result = run(bagland_config(512))
    assert result.failed and result.error == "planted failure"
    xi, t, gel = stepped[-1]
    assert xi.size < 512  # the window was shorter than the grid
    final = result.final_state
    assert final.grid is result.tables.grid and final.xi.size == 512
    assert np.array_equal(final.xi[:xi.size], xi)
    assert not final.xi[xi.size:].any()
    assert (final.t, final.gel_mass) == (t, gel)
    rows = result.series.rows
    assert 1 < len(rows) and rows[-1][0] <= final.t < 1.0  # partial series retained
