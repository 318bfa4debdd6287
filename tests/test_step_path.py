"""The per-step path against the formulas it replaced, its buffers, its failures.

``KernelTables.velocity`` and ``loss``, ``rhs``, ``stable_dt`` and ``step``
work in buffers the tables own.  The reference below is the straightforward
allocating form of the same sums (``np.cumsum``, ``.sum(axis=0)``,
``-(F[1:] - F[:-1]) / dx``, ``np.isfinite(..).all()`` and a mask built with
``|=``), stepping from a state it is handed with a step size it is handed;
the properties check that every result is the same bit for bit, except the
sign of a zero in dxi/dt, which never reaches a state.  ``step`` finds its
own step size with ``stable_dt``, which the tests scale by patching the
module global ``step`` calls, so a step can also overstep the bound and
clamp, or take a step too small to move t, which fails.  The tests also
check that non-finite input still fails with the same error and no warning
the reference does not give, and that a step that fails leaves the density
it started from.

``run`` steps only an active window, the first n cells of the grid, whose
top two are empty, on views of the tables' whole-grid buffers
(``KernelTables.window``); the window property checks that every call on
such a window gives the whole grid's result bit for bit, and the reference
loop that every run, including one that fails, records what the reference
records.
"""
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohslab import (
    CellSpike,
    ConstantKernel,
    GridSpec,
    MassConservingKernel,
    PowerSumKernel,
    ProductKernel,
    SimConfig,
    UniformOn,
    solver,
)
from ohslab.errors import NumericalFailureError
from ohslab.grid import State, build, project_initial
from ohslab.solver import KernelTables, rhs, stable_dt

from conftest import Parts, moment, records, stage, step_state

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

positive = st.floats(0.05, 5.0)
amount = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))

#: Every kernel kind and Psi: 1 (constant, product) and 2 (power_sum and
#: mass_conserving with every Psi) separable terms.
kernels = st.one_of(
    st.builds(ConstantKernel, positive),
    st.builds(PowerSumKernel, positive, st.floats(0.1, 3.0)),
    st.builds(
        MassConservingKernel, positive, st.floats(1.01, 3.0),
        st.sampled_from(["zero", "half_sum", "min"]), positive,
    ),
    st.builds(ProductKernel, st.floats(-2.0, 3.0)),
)


@st.composite
def cases(draw):
    """A kernel, a uniform or geometric grid and a density, gapped or not."""
    R = draw(st.floats(0.5, 50.0))
    N = draw(st.integers(3, 160))
    if draw(st.booleans()):
        grid = build("uniform", R, N)
    else:
        grid = build("geometric", R, N, draw(st.floats(1.001, 1.1)))
    xi = np.array(draw(st.lists(amount, min_size=N, max_size=N)))
    if draw(st.booleans()):
        lo = draw(st.integers(1, N - 2))
        hi = draw(st.integers(lo + 1, N - 1))
        xi[lo:hi] = 0.0
    return draw(kernels), grid, xi


class ReferenceTables:
    """The separable factors of ``KernelTables``, summed with allocating calls."""

    def __init__(self, grid, kernel):
        mid, dx = grid.midpoints, grid.widths
        with np.errstate(over="ignore"):
            terms = kernel.separable_terms(mid)
            a = np.array([np.broadcast_to(f, mid.shape) for f, _ in terms], dtype=float)
            b = np.array([np.broadcast_to(f, mid.shape) for _, f in terms], dtype=float)
        gaps = np.zeros_like(mid)
        gaps[:-1] = mid[1:] - mid[:-1]
        self.grid = grid
        self.drift = (a, b * mid * dx)
        self.loss_factors = (b, a * gaps)

    def velocity(self, xi):
        outer, inner = self.drift
        return (outer * np.cumsum(inner * xi, axis=1)).sum(axis=0)

    def loss(self, xi):
        outer, inner = self.loss_factors
        return (outer * np.cumsum((inner * xi)[:, ::-1], axis=1)[:, ::-1]).sum(axis=0)


def reference_rhs(tables, xi):
    grid = tables.grid
    v = tables.velocity(xi)
    L = tables.loss(xi)
    F = np.empty(xi.size + 1)
    F[0] = 0.0
    np.multiply(v, xi, out=F[1:])
    dxi = -(F[1:] - F[:-1]) / grid.widths - xi * L
    if not np.isfinite(dxi).all():
        raise NumericalFailureError("non-finite right-hand side")
    out = float(grid.midpoints[-1] * F[-1])
    return Parts(velocity=v, loss=L, boundary_outflow_rate=out), dxi


def reference_stable_dt(state, parts, cfl, dt_max=math.inf):
    occupied = state.xi > 0
    front = occupied.copy()
    front[1:] |= occupied[:-1]
    front[2:] |= occupied[:-2]
    rate = parts.velocity / state.grid.widths + parts.loss
    peak = float(np.maximum.reduce(rate, where=front, initial=0.0))
    if peak <= 0.0:
        return dt_max
    return min(cfl / peak, dt_max)


def reference_clamp(state, xi):
    grid = state.grid
    neg = xi < 0
    if not neg.any():
        return xi, 0.0
    created = -float(np.sum(grid.midpoints[neg] * xi[neg] * grid.widths[neg]))
    return np.where(neg, 0.0, xi), created


def reference_step(state, tables, dt, first_stage, scheme="euler", budget=math.inf):
    if state.t + dt == state.t:
        raise NumericalFailureError(
            "step %.3g cannot advance t = %.17g (stalled run)" % (dt, state.t)
        )
    parts1, k1 = first_stage
    if scheme == "euler":
        xi_new = state.xi + dt * k1
        gel_inc = dt * parts1.boundary_outflow_rate
    else:
        predictor, _ = reference_clamp(state, state.xi + dt * k1)
        parts2, k2 = reference_rhs(tables, predictor)
        xi_new = state.xi + 0.5 * dt * (k1 + k2)
        gel_inc = 0.5 * dt * (parts1.boundary_outflow_rate + parts2.boundary_outflow_rate)
    if not np.isfinite(xi_new).all():
        raise NumericalFailureError("non-finite density after step")
    xi_new, created = reference_clamp(state, xi_new)
    if state.clamped_mass + created > budget:
        raise NumericalFailureError("clamped mass exceeds budget")
    return State(
        t=state.t + dt,
        xi=xi_new,
        gel_mass=state.gel_mass + gel_inc,
        grid=state.grid,
        clamped_mass=state.clamped_mass + created,
    )


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_same_state(new, old):
    assert same_bits(new.xi, old.xi)
    assert same_bits(new.t, old.t)
    assert same_bits(new.gel_mass, old.gel_mass)
    assert same_bits(new.clamped_mass, old.clamped_mass)


def scaled_bound(factor):
    """A context in which ``step`` takes factor times the step bound."""
    real_bound = solver.stable_dt
    return mock.patch.object(solver, "stable_dt", lambda *args: factor * real_bound(*args))


def stepped(tables, state, factor, scheme, cfl=0.9, dt_max=2.0):
    """The new state of a step of factor times the bound, or the message of
    the failure it raises."""
    try:
        with scaled_bound(factor):
            return step_state(tables, state, math.inf, scheme, cfl, dt_max)
    except NumericalFailureError as exc:
        return str(exc)


@PROPERTY_SETTINGS
@given(cases(), st.sampled_from([0.0, 0.5, 1.0, 4.0]), st.sampled_from(["euler", "heun"]))
def test_step_path_is_bitwise_the_reference(case, dt_factor, scheme):
    kernel, grid, xi = case
    tables, ref = KernelTables(grid, kernel), ReferenceTables(grid, kernel)
    assert same_bits(tables.velocity(xi), ref.velocity(xi))
    assert same_bits(tables.loss(xi), ref.loss(xi))

    parts, dxi = stage(tables, xi)
    ref_parts, ref_dxi = reference_rhs(ref, xi)
    assert same_bits(parts.velocity, ref_parts.velocity)
    assert same_bits(parts.loss, ref_parts.loss)
    assert same_bits(parts.boundary_outflow_rate, ref_parts.boundary_outflow_rate)
    assert np.array_equal(dxi, ref_dxi)  # only the sign of a zero may differ

    state = State(t=0.25, xi=xi, gel_mass=0.125, grid=grid, clamped_mass=1e-30)
    bound = stable_dt(tables, xi, parts.velocity, parts.loss, 0.9, dt_max=2.0)
    assert same_bits(bound, reference_stable_dt(state, ref_parts, 0.9, dt_max=2.0))

    # a factor above 1 oversteps the bound, so the clamp is exercised too; a
    # factor of 0 cannot move t, so that step fails
    try:
        old = reference_step(state, ref, dt_factor * bound, (ref_parts, ref_dxi), scheme=scheme)
    except NumericalFailureError as exc:
        old = str(exc)
    new = stepped(tables, state, dt_factor, scheme)
    if isinstance(old, str):
        assert new == old
    else:
        assert_same_state(new, old)


@st.composite
def windows(draw):
    """A case whose density is empty from cell n - 2 up, and the window n < N."""
    kernel, grid, xi = draw(cases())
    n = draw(st.integers(2, xi.size - 1))
    xi[n - 2:] = 0.0
    return kernel, grid, xi, n


def no_kernel_calls(kernel):
    """A context in which a call to the kernel's eval or separable_terms fails."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the kernel was called")

    cls = type(kernel)
    return mock.patch.multiple(cls, eval=forbidden, separable_terms=forbidden)


@PROPERTY_SETTINGS
@given(windows(), st.sampled_from([0.0, 0.5, 1.0, 4.0]))
def test_a_window_is_bitwise_the_whole_grid(case, dt_factor):
    kernel, grid, xi, n = case
    tables, window = KernelTables(grid, kernel), KernelTables(grid, kernel)
    window.window(2)
    with no_kernel_calls(kernel):
        window.window(n)  # grows the window
    assert window.grid is grid and window.xi.size == n and window.density.size == grid.ncells
    whole, dxi = stage(tables, xi)
    parts, window_dxi = stage(window, xi[:n])
    assert same_bits(parts.velocity, whole.velocity[:n])
    assert same_bits(parts.loss, whole.loss[:n])
    assert np.array_equal(window_dxi, dxi[:n])  # only the sign of a zero may differ
    assert same_bits(parts.boundary_outflow_rate, 0.0)
    assert same_bits(whole.boundary_outflow_rate, 0.0)

    bound = stable_dt(window, xi[:n], parts.velocity, parts.loss, 0.9, dt_max=2.0)
    assert same_bits(bound, stable_dt(tables, xi, whole.velocity, whole.loss, 0.9, dt_max=2.0))

    # a factor above 1 oversteps the bound, so the clamp is exercised too
    state = State(t=0.25, xi=xi, gel_mass=0.125, grid=grid, clamped_mass=1e-30)
    window_state = replace(state, xi=xi[:n].copy())
    for scheme in ("euler", "heun"):
        old = stepped(tables, state, dt_factor, scheme)
        new = stepped(window, window_state, dt_factor, scheme)
        if isinstance(old, str):
            assert new == old
        else:
            # the window's density is the whole grid's, empty past the window
            assert_same_state(replace(new, xi=window.density), old)


def reference_loop(resolved):
    """(at_record, state) after every step of the reference loop and at every
    record time, the times ``run`` records at."""
    state = project_initial(resolved.grid.build(), resolved.initial)
    ref = ReferenceTables(state.grid, resolved.kernel)
    budget = solver.CLAMP_BUDGET * moment(state, 1)
    for t_next in solver._record_times(resolved.t_end, resolved.record_cadence):
        while t_next - state.t > 1e-12:
            stage_ = reference_rhs(ref, state.xi)
            dt = reference_stable_dt(state, stage_[0], resolved.cfl, resolved.dt_max)
            dt = min(dt, t_next - state.t)
            state = reference_step(state, ref, dt, stage_, resolved.scheme, budget)
            yield False, state
        state.t = t_next
        yield True, state


def reference_records(resolved):
    return [state for at_record, state in reference_loop(resolved) if at_record]


def window_sizes(monkeypatch):
    """The length of every density ``KernelTables.velocity`` is called on."""
    real_velocity, sizes = KernelTables.velocity, []

    def spy(tables, xi):
        sizes.append(xi.size)
        return real_velocity(tables, xi)

    monkeypatch.setattr(KernelTables, "velocity", spy)
    return sizes


#: (kernel, grid, initial, cfl, what the run must show besides matching).
REFERENCE_RUNS = {
    "kernel0-grid0": (PowerSumKernel(1.0, 1.5), GridSpec("uniform", 2.0, 64),
                      UniformOn(0.5, 1.0, 1.0), 0.9, "outflow"),
    "kernel1-grid1": (MassConservingKernel(1.0, 1.5, "half_sum", 0.5),
                      GridSpec("geometric", 4.0, 96, q=1.03), UniformOn(0.5, 1.0, 1.0), 0.9,
                      "outflow"),
    "support_below_R": (ConstantKernel(1.0), GridSpec("uniform", 8.0, 128),
                        UniformOn(0.0, 1.0, 1.0), 0.9, "short_window"),
    "product_1_term": (ProductKernel(0.5), GridSpec("uniform", 4.0, 64),
                       UniformOn(0.5, 1.0, 1.0), 0.9, "outflow"),
    "min_3_terms": (MassConservingKernel(1.0, 1.5, "min", 0.5), GridSpec("uniform", 4.0, 64),
                    UniformOn(0.5, 1.0, 1.0), 0.9, "outflow"),
    "half_sum_4_terms": (MassConservingKernel(1.0, 2.0, "half_sum", 1.0),
                         GridSpec("uniform", 4.0, 128), UniformOn(0.5, 1.0, 1.0), 0.9, "outflow"),
    "window_grows": (ConstantKernel(1.0), GridSpec("uniform", 8.0, 256),
                     UniformOn(0.0, 1.0, 1.0), 0.9, "grows"),
    "clamps": (ConstantKernel(1.0), GridSpec("geometric", 2.0, 48, q=1.07), CellSpike(10, 5.0),
               1.0, "clamps"),
}


@pytest.mark.parametrize("scheme", ["euler", "heun"])
@pytest.mark.parametrize("kernel, grid, initial, cfl, shows", REFERENCE_RUNS.values(),
                         ids=REFERENCE_RUNS.keys())
def test_run_is_bitwise_the_reference_loop(kernel, grid, initial, cfl, shows, scheme,
                                           monkeypatch):
    cfg = SimConfig(
        kernel=kernel, grid=grid, initial=initial,
        t_end=0.5, record_cadence=0.25, scheme=scheme, cfl=cfl,
    )
    sizes = window_sizes(monkeypatch)
    real_clamp, clamped = solver._clamp, []

    def counted_clamp(grid_, xi):
        clamped.append(real_clamp(grid_, xi))
        return clamped[-1]

    monkeypatch.setattr(solver, "_clamp", counted_clamp)
    result = solver.run(cfg, capture_densities=True)
    assert not result.failed
    stages = 2 if scheme == "heun" else 1
    assert len(sizes) == stages * result.steps
    if shows == "outflow":
        assert result.final_state.gel_mass > 0.0
    elif shows == "short_window":
        # the support stays far below R, so the run steps a shorter window
        assert min(sizes) < grid.N
    elif shows == "grows":
        assert len(set(sizes)) >= 4 and max(sizes) < grid.N
    else:
        assert clamped  # the Euler update, or the Heun predictor, was clamped
        if scheme == "euler":
            assert result.final_state.clamped_mass > 0.0
    reference = reference_records(result.config)
    assert len(reference) == len(result.densities) - 1
    for recorded, state in zip(records(result)[1:], reference):
        assert_same_state(recorded, state)
    assert_same_state(result.final_state, reference[-1])


@pytest.mark.parametrize("scheme", ["euler", "heun"])
def test_a_run_steps_on_its_one_table_while_its_window_grows(scheme, monkeypatch):
    kernel, grid, initial, cfl, _ = REFERENCE_RUNS["window_grows"]
    # half the default dt_max: 200 steps, over which an Euler front moves 200 cells
    cfg = SimConfig(kernel=kernel, grid=grid, initial=initial, t_end=0.5, record_cadence=0.25,
                    scheme=scheme, cfl=cfl, dt_max=0.0025)
    real_init, real_terms, real_step = (
        KernelTables.__init__, ConstantKernel.separable_terms, solver.step
    )
    built, terms, stepped_on, sizes = [], [], [], []

    def counted_init(tables, *args):
        built.append(tables)
        real_init(tables, *args)

    def counted_terms(kernel_, mid):
        terms.append(mid.size)
        return real_terms(kernel_, mid)

    def counted_step(tables, *args):
        stepped_on.append(tables)
        sizes.append(tables.xi.size)
        return real_step(tables, *args)

    monkeypatch.setattr(KernelTables, "__init__", counted_init)
    monkeypatch.setattr(ConstantKernel, "separable_terms", counted_terms)
    monkeypatch.setattr(solver, "step", counted_step)
    result = solver.run(cfg)
    assert not result.failed and result.steps == len(stepped_on)
    assert built == [result.tables] and terms == [grid.N]
    assert all(tables is result.tables for tables in stepped_on)
    assert len(set(sizes)) >= 5  # the window grew 4 times or more


def poisoned_velocity(monkeypatch, at_call):
    """Make the at_call-th ``KernelTables.velocity`` result non-finite; returns
    the density length of every call."""
    real_velocity, sizes = KernelTables.velocity, []

    def poisoned(tables, xi):
        sizes.append(xi.size)
        v = real_velocity(tables, xi)
        if len(sizes) == at_call:
            v[0] = math.nan
        return v

    monkeypatch.setattr(KernelTables, "velocity", poisoned)
    return sizes


@pytest.mark.parametrize("failure, scheme", [
    ("non_finite", "euler"), ("non_finite", "heun"), ("budget", "euler"),
])
def test_a_failed_step_ends_the_run_on_the_last_good_one(failure, scheme, monkeypatch):
    if failure == "non_finite":
        # the 40th step's last stage fails: Heun's second, after its first
        cfg = SimConfig(
            kernel=PowerSumKernel(1.0, 1.5), grid=GridSpec("uniform", 8.0, 256),
            initial=UniformOn(0.0, 1.0, 1.0), t_end=0.5, record_cadence=0.05,
            scheme=scheme, cfl=0.9,
        )
        sizes = poisoned_velocity(monkeypatch, 40 * (2 if scheme == "heun" else 1))
        error = "non-finite right-hand side"
    else:
        # the run clamps 7.0, 9.1, 5.9, 10, 14 and 8.6e-16 at steps 2, 5, 8,
        # 16, 20 and 23, so a budget of 5e-15 fails it at the sixth clamp
        monkeypatch.setattr(solver, "CLAMP_BUDGET", 1e-15)
        cfg = SimConfig(
            kernel=ConstantKernel(1.0), grid=GridSpec("geometric", 4.0, 96, q=1.03),
            initial=CellSpike(20, 5.0), t_end=0.5, record_cadence=0.04,
            scheme=scheme, cfl=1.0,
        )
        sizes = window_sizes(monkeypatch)
        error = "exceeds budget"
    result = solver.run(cfg, capture_densities=True)
    assert result.failed and error in result.error
    assert 1 < len(result.densities) and max(sizes) < cfg.grid.N  # it failed in a short window
    final = result.final_state
    assert final.grid is result.tables.grid and final.xi.size == cfg.grid.N
    taken, last = 0, None
    try:
        for at_record, state in reference_loop(result.config):
            if not at_record:
                if taken == result.steps:
                    break  # the step the run failed at
                taken += 1
            last = state
    except NumericalFailureError:
        assert failure == "budget"  # the reference fails at the same step
    assert taken == result.steps
    assert_same_state(final, last)
    if failure == "budget":
        assert 0.0 < final.clamped_mass <= solver.CLAMP_BUDGET * result.series.rho0()
    reference = reference_records(replace(result.config, t_end=result.series.rows[-1][0]))
    for recorded, state in zip(records(result)[1:], reference, strict=True):
        assert_same_state(recorded, state)


def tables_buffers(tables):
    """Every array a step or a right-hand side writes."""
    return [tables.xi, tables._spare, tables._k1, tables._k2, tables._rate, tables._absorbed,
            tables._outflow, *tables._mask, *tables._drift[2:6:3], *tables._loss[2:6:3]]


def test_two_tables_share_no_buffer():
    grid = build("uniform", 4.0, 64)
    kernel = MassConservingKernel(1.0, 2.0, "half_sum", 1.0)
    tables = KernelTables(grid, kernel)
    other = tables_buffers(KernelTables(grid, kernel))
    for mine in tables_buffers(tables):
        assert not any(np.shares_memory(mine, theirs) for theirs in other)
    # the drift's and the loss's results live in arrays of their own
    xi = np.random.default_rng(4).random(64)
    v, L = tables.velocity(xi), tables.loss(xi)
    assert not np.shares_memory(v, L)
    kept = stage(KernelTables(grid, kernel), xi)
    assert same_bits(v, kept[0].velocity) and same_bits(L, kept[0].loss)


def start(x):
    """The address of an array's first element."""
    return x.__array_interface__["data"][0]


def test_a_windows_buffers_are_its_tables_own():
    grid = build("uniform", 4.0, 64)
    tables = KernelTables(grid, MassConservingKernel(1.0, 2.0, "half_sum", 1.0))
    whole = tables_buffers(tables)
    tables.window(40)
    for cut, full in zip(tables_buffers(tables), whole, strict=True):
        # the first 40 rows of the whole-grid buffer, in place
        assert start(cut) == start(full) and cut.strides == full.strides
        assert cut.shape == (40, *full.shape[1:])


def test_growing_a_window_keeps_the_density():
    kernel = PowerSumKernel(1.0, 1.5)
    tables = KernelTables(build("uniform", 4.0, 64), kernel)
    tables.window(20)
    tables.xi[:18] = np.random.default_rng(8).random(18)  # the top two cells empty
    solver.step(tables, 0.0, math.inf, 0.0, 0.0, "heun", 0.9, math.inf)  # swaps the halves
    kept = tables.xi.copy()
    with no_kernel_calls(kernel):
        tables.window(40)
    assert same_bits(tables.xi[:20], kept) and not tables.xi[20:].any()
    assert not tables.density[20:].any() and not tables._spare[20:].any()


def test_heun_keeps_the_first_stage_through_the_second(monkeypatch):
    grid = build("uniform", 4.0, 64)
    kernel = PowerSumKernel(1.0, 1.5)
    tables = KernelTables(grid, kernel)
    state = State(t=0.0, xi=np.random.default_rng(5).random(64), gel_mass=0.0, grid=grid)
    kept = stage(KernelTables(grid, kernel), state.xi)
    real_rhs, seen = solver.rhs, []

    def second_stage(tables_, xi, out):
        result = real_rhs(tables_, xi, out)
        if out is tables._k2:
            seen.append(same_bits(tables._k1, kept[1]))
        return result

    monkeypatch.setattr(solver, "rhs", second_stage)
    dt = 2.0 * stable_dt(tables, state.xi, kept[0].velocity, kept[0].loss, 1.0)
    assert np.min(state.xi + dt * kept[1]) < 0.0  # oversteps: the predictor is clamped
    with scaled_bound(2.0):
        out = step_state(tables, state, scheme="heun")
    assert seen == [True]
    old = reference_step(state, ReferenceTables(grid, kernel), dt, kept, scheme="heun")
    assert_same_state(out, old)


@pytest.mark.parametrize("scheme", ["euler", "heun"])
def test_step_clamps_the_smallest_negative_cell(scheme, monkeypatch):
    grid = build("uniform", 4.0, 8)
    kernel = ConstantKernel(1.0)
    state = State(t=0.0, xi=np.zeros(8), gel_mass=0.0, grid=grid)
    k1 = np.zeros(8)
    k1[3] = -5e-324  # the smallest subnormal
    parts = Parts(np.zeros(8), np.zeros(8), 0.0)
    old = reference_step(state, ReferenceTables(grid, kernel), 1.0, (parts, k1.copy()), scheme)
    real_rhs = solver.rhs

    def planted_first_stage(tables, xi, out):
        result = real_rhs(tables, xi, out)
        if out is not tables._k2:
            out[:] = k1
        return result

    monkeypatch.setattr(solver, "rhs", planted_first_stage)
    new = step_state(KernelTables(grid, kernel), state, 1.0, scheme)  # no rate: dt = 1
    assert_same_state(new, old)
    assert not np.signbit(new.xi).any()


def test_pair_sum_is_unchanged_by_velocity_and_loss():
    grid = build("geometric", 8.0, 80, 1.04)
    tables = KernelTables(grid, MassConservingKernel(1.0, 2.0, "min", 1.0))
    rng = np.random.default_rng(6)
    u, v = rng.random(80), rng.random(80)
    before = tables.pair_sum(u, v)
    tables.velocity(rng.random(80))
    assert tables.pair_sum(u, v) == before
    tables.loss(rng.random(80))
    assert tables.pair_sum(u, v) == before


def outcome(call):
    """(error message, warning messages) of a call that must fail."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalFailureError) as err:
            call()
    return str(err.value), {str(w.message) for w in caught}


N_FAIL = 48


@pytest.mark.parametrize("where", [0, N_FAIL // 2, N_FAIL - 1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("target", ["rhs", "euler-k1", "heun-k1", "euler-xi", "heun-xi"])
def test_non_finite_input_fails_as_before(target, bad, where, monkeypatch):
    grid = build("uniform", 4.0, N_FAIL)
    kernel = MassConservingKernel(1.0, 1.5, "min", 0.5)
    tables, ref = KernelTables(grid, kernel), ReferenceTables(grid, kernel)
    xi = np.random.default_rng(7).random(N_FAIL)
    poisoned = xi.copy()
    poisoned[where] = bad
    if target == "rhs":
        new = outcome(lambda: rhs(tables, poisoned, np.empty(N_FAIL)))
        old = outcome(lambda: reference_rhs(ref, poisoned))
    else:
        # a step takes its first stage at its own density, so a planted k1
        # goes in after that stage's own finiteness test
        scheme, planted = target.split("-")
        state = State(t=0.0, xi=xi if planted == "k1" else poisoned, gel_mass=0.0, grid=grid)
        real_rhs = solver.rhs

        def planted_k1(tables_, xi_, out):
            result = real_rhs(tables_, xi_, out)
            if planted == "k1" and out is not tables_._k2:
                out[where] = bad
            return result

        def reference():
            stage_ = reference_rhs(ref, state.xi)
            if planted == "k1":
                stage_[1][where] = bad
            return reference_step(state, ref, 0.01, stage_, scheme=scheme)

        monkeypatch.setattr(solver, "rhs", planted_k1)
        with mock.patch.object(solver, "stable_dt", lambda *args: 0.01):
            new = outcome(lambda: step_state(tables, state, math.inf, scheme))
        old = outcome(reference)
        # the failed step leaves the density it started from
        assert same_bits(tables.xi, state.xi)
        monkeypatch.setattr(solver, "rhs", real_rhs)
    assert new[0] == old[0]
    assert new[1] <= old[1]
    # the failure leaves nothing in the buffers that a later call would see
    parts, _ = stage(tables, xi)
    ref_parts, _ = reference_rhs(ref, xi)
    assert same_bits(parts.velocity, ref_parts.velocity)
    assert same_bits(parts.loss, ref_parts.loss)
