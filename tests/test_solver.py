"""Right-hand-side quadratures, the mass identity, stepping, and full runs."""
import tracemalloc
import warnings

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
from ohslab.errors import EvaluationOverflowError, InvalidInputError
from ohslab.grid import CellSpike, State, build, project_initial
from ohslab.oracle import l1_error
from ohslab.solver import KernelTables, RhsParts, rhs, run, stable_dt, step

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


def test_empty_state_rhs_is_zero():
    grid = build("uniform", 4.0, 32)
    state = State(t=0.0, xi=np.zeros(32), gel_mass=0.0, grid=grid)
    parts, dxi = rhs(state, ConstantKernel(1.0))
    assert np.all(parts.velocity == 0.0)
    assert np.all(parts.loss == 0.0)
    assert np.all(dxi == 0.0)
    assert parts.boundary_outflow_rate == 0.0


def test_single_cell_drift_equals_its_mass():
    grid = build("uniform", 4.0, 16)
    state = project_initial(grid, CellSpike(0, 0.7))
    parts, _ = rhs(state, ConstantKernel(1.0))
    m0 = grid.midpoints[0] * state.xi[0] * grid.widths[0]
    assert np.all(parts.velocity == m0)


def test_drift_at_unit_edge_matches_integral():
    # v at the edge located at size 1 quadratures integral of nu * 2 over [0, 1] = 1
    grid = build("uniform", 4.0, 400)
    state = project_initial(grid, UniformOn(0.0, 1.0, 1.0))
    parts, _ = rhs(state, ConstantKernel(1.0))
    edge_index = 99  # right edge of cell 99 sits at 1.0
    assert grid.edges[edge_index + 1] == 1.0
    assert parts.velocity[edge_index] == pytest.approx(1.0, rel=1e-12)


def test_loss_constant_state_telescopes():
    grid = build("uniform", 2.0, 32)
    c = 0.7
    state = State(t=0.0, xi=np.full(32, c), gel_mass=0.0, grid=grid)
    parts, _ = rhs(state, ConstantKernel(1.0))
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
        parts, dxi = rhs(state, kernel)
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


def test_tables_and_rhs_memory_is_linear_in_cells():
    # dense N x N tables at N = 8192 would take about 1.5 GB
    grid = build("uniform", 8.0, 8192)
    state = project_initial(grid, UniformOn(0.0, 1.0, 1.0))
    kernel = MassConservingKernel(1.0, 2.0, "half_sum", 1.0)  # the most terms
    tracemalloc.start()
    try:
        rhs(state, kernel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_number_loss_trend_for_block_state():
    # total-number decay rate tends to -(M0)^2 / 2 = -2 for the unit block
    grid = build("uniform", 4.0, 4096)
    state = project_initial(grid, UniformOn(0.0, 1.0, 1.0))
    _, dxi = rhs(state, ConstantKernel(1.0))
    dM0 = float(np.sum(dxi * grid.widths))
    assert dM0 == pytest.approx(-2.0, rel=1e-2)


def test_stable_dt_arithmetic():
    grid = build("uniform", 1.0, 2)  # widths 0.5
    state = State(t=0.0, xi=np.ones(2), gel_mass=0.0, grid=grid)
    parts = RhsParts(
        velocity=np.array([2.0, 0.0]), loss=np.zeros(2),
        flux=np.zeros(2), boundary_outflow_rate=0.0,
    )
    assert stable_dt(state, parts, cfl=0.5) == 0.125


def test_stable_dt_empty_state_maps_to_dt_max():
    grid = build("uniform", 1.0, 4)
    state = State(t=0.0, xi=np.zeros(4), gel_mass=0.0, grid=grid)
    parts, _ = rhs(state, ConstantKernel(1.0))
    assert stable_dt(state, parts, cfl=0.5, dt_max=0.02) == 0.02


def test_stable_dt_scales_inversely_with_density():
    grid = build("uniform", 4.0, 32)
    state = random_state(grid, seed=5)
    parts, _ = rhs(state, PowerSumKernel(1.0, 1.5))
    half = State(t=0.0, xi=0.5 * state.xi, gel_mass=0.0, grid=grid)
    parts_half, _ = rhs(half, PowerSumKernel(1.0, 1.5))
    assert stable_dt(half, parts_half, 0.5) == 2.0 * stable_dt(state, parts, 0.5)


@pytest.mark.parametrize("N", [16, 64, 257])
@pytest.mark.parametrize("block", [(0.0, 1.0), (0.5, 1.0), (1.25, 3.0), (0.0, 4.0)])
def test_stable_dt_constant_kernel_contiguous_support_is_the_global_bound(N, block):
    grid = build("uniform", 4.0, N)
    state = project_initial(grid, UniformOn(block[0], block[1], 1.3))
    state.xi[state.xi > 0] *= np.random.default_rng(N).uniform(0.5, 2.0, (state.xi > 0).sum())
    parts, _ = rhs(state, ConstantKernel(0.7))
    global_peak = np.max(parts.velocity / grid.widths + parts.loss)
    assert stable_dt(state, parts, 0.8) == 0.8 / global_peak


def test_stable_dt_ignores_empty_cells_beyond_the_front():
    grid = build("uniform", 4.0, 8)
    state = State(t=0.0, xi=np.array([1.0, 0, 0, 0, 0, 0, 0, 0]), gel_mass=0.0, grid=grid)
    rate = np.arange(1.0, 9.0)
    parts = RhsParts(velocity=rate * grid.widths, loss=np.zeros(8),
                     flux=np.zeros(8), boundary_outflow_rate=0.0)
    # cells 0, 1 and 2 count; the larger rates of cells 3-7 multiply zero
    assert stable_dt(state, parts, cfl=1.0) == 1.0 / 3.0


def test_stable_dt_rejects_bad_cfl():
    grid = build("uniform", 1.0, 4)
    state = State(t=0.0, xi=np.zeros(4), gel_mass=0.0, grid=grid)
    parts, _ = rhs(state, ConstantKernel(1.0))
    for cfl in (0.0, -0.5, 1.5):
        with pytest.raises(InvalidInputError):
            stable_dt(state, parts, cfl)


def test_step_dt_zero_is_identity():
    grid = build("uniform", 4.0, 32)
    state = random_state(grid, seed=2)
    out = step(state, ConstantKernel(1.0), 0.0)
    assert np.array_equal(out.xi, state.xi)
    assert out.t == state.t and out.gel_mass == state.gel_mass


def test_step_empty_state_advances_time_only():
    grid = build("uniform", 4.0, 32)
    state = State(t=0.0, xi=np.zeros(32), gel_mass=0.0, grid=grid)
    out = step(state, ConstantKernel(1.0), 0.3)
    assert out.t == 0.3
    assert np.array_equal(out.xi, state.xi)
    assert out.gel_mass == 0.0


def test_step_conserves_mass_without_outflow():
    grid = build("uniform", 4.0, 256)
    state = project_initial(grid, UniformOn(0.0, 1.0, 1.0))
    parts, _ = rhs(state, ConstantKernel(1.0))
    dt = stable_dt(state, parts, 0.5)
    out = step(state, ConstantKernel(1.0), dt)
    assert out.gel_mass == 0.0  # support far from the cutoff
    assert abs(out.domain_mass() - 1.0) <= 1e-12


@pytest.mark.parametrize("scheme", ["euler", "heun"])
@pytest.mark.parametrize("cfl", [0.5, 1.0])
def test_step_preserves_positivity(scheme, cfl):
    grid = build("uniform", 4.0, 64)
    kernel = PowerSumKernel(1.0, 1.5)
    state = random_state(grid, seed=9)
    for _ in range(50):
        parts, k1 = rhs(state, kernel)
        dt = stable_dt(state, parts, cfl)
        state = step(state, kernel, dt, scheme=scheme, first_stage=(parts, k1))
    assert np.min(state.xi) >= 0.0
    assert state.clamped_mass <= 1e-12


@pytest.mark.parametrize("scheme", ["euler", "heun"])
def test_step_bookkeeping_with_outflow(scheme):
    grid = build("uniform", 2.0, 64)
    kernel = PowerSumKernel(1.0, 1.5)
    state = project_initial(grid, UniformOn(0.5, 1.0, 1.0))
    rho0 = state.domain_mass()
    for _ in range(200):
        parts, k1 = rhs(state, kernel)
        dt = stable_dt(state, parts, 0.5)
        state = step(state, kernel, dt, scheme=scheme, first_stage=(parts, k1))
    assert state.gel_mass > 0  # mass has reached the cutoff by now
    assert abs(state.domain_mass() + state.gel_mass - rho0) <= 1e-12 * rho0


def test_step_clamps_and_accounts_for_oversized_dt():
    grid = build("uniform", 4.0, 64)
    kernel = PowerSumKernel(1.0, 1.5)
    state = random_state(grid, seed=3)
    parts, _ = rhs(state, kernel)
    dt = 50.0 * stable_dt(state, parts, 1.0)
    out = step(state, kernel, dt)
    assert np.min(out.xi) >= 0.0
    assert out.clamped_mass > 0.0


def test_step_rejects_bad_input():
    grid = build("uniform", 4.0, 16)
    state = random_state(grid, seed=1)
    with pytest.raises(InvalidInputError):
        step(state, ConstantKernel(1.0), -0.1)
    with pytest.raises(InvalidInputError):
        step(state, ConstantKernel(1.0), 0.1, scheme="rk4")


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


def test_run_zero_horizon_single_record():
    result = run(base_config(t_end=0.0))
    assert len(result.series.records) == 1
    assert result.series.records[0].t == 0.0
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
    for state, record in zip(powersum_run.states, powersum_run.series.records):
        assert record.moments[1.0] == state.domain_mass()


def test_run_gel_strictly_increases_once_positive(powersum_run):
    gel = powersum_run.series.gel()
    first = np.flatnonzero(gel > 0)
    assert first.size  # outflow does occur in this run
    k0 = first[0]
    assert np.all(np.diff(gel[k0:]) > 0)


def test_run_tail_mass_appears_beyond_initial_support(bagland_t2):
    tail = bagland_t2.series.tail(2.0)
    assert tail[0] == 0.0
    assert tail[-1] > 0.0


def test_run_positivity_of_all_recorded_states(bagland_runs):
    for state in bagland_runs[256][0].states:
        assert np.min(state.xi) >= 0.0


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
    assert len(result.series.records) == 1  # partial series retained
