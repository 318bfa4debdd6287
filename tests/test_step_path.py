"""The per-step path against the formulas it replaced, its scratch, its failures.

``KernelTables.velocity`` and ``loss``, ``rhs``, ``stable_dt`` and ``step``
work in preallocated buffers.  The reference below is the straightforward
allocating form of the same sums (``np.cumsum``, ``.sum(axis=0)``,
``-(F[1:] - F[:-1]) / dx``, ``np.isfinite(..).all()`` and a mask built with
``|=``); the properties check that every result is the same bit for bit,
except the sign of a zero in dxi/dt, which never reaches a state.  The
scratch is shared between calls, so the tests also check that nothing a call
returns is overwritten by a later one, and that non-finite input still fails
with the same error and no warning the reference does not give.

``run`` steps only an active window, the grid of a prefix of the cells whose
top two are empty, with ``KernelTables.prefix``; the window property checks
that every call on such a window gives the whole grid's result bit for bit.
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
from ohslab.solver import KernelTables, RhsParts, rhs, stable_dt, step

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

positive = st.floats(0.05, 5.0)
amount = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))

#: Every kernel kind and Psi: 1 (constant, product), 2 (power_sum,
#: zero), 3 (min) and 4 (half_sum) separable terms.
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
    return RhsParts(velocity=v, loss=L, boundary_outflow_rate=out), dxi


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


def reference_step(state, tables, dt, first_stage, scheme="euler"):
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


def copy_stage(stage):
    parts, k = stage
    return RhsParts(parts.velocity.copy(), parts.loss.copy(), parts.boundary_outflow_rate), k.copy()


@PROPERTY_SETTINGS
@given(cases(), st.sampled_from([0.0, 0.5, 1.0, 4.0]), st.sampled_from(["euler", "heun"]))
def test_step_path_is_bitwise_the_reference(case, dt_factor, scheme):
    kernel, grid, xi = case
    tables, ref = KernelTables(grid, kernel), ReferenceTables(grid, kernel)
    assert same_bits(tables.velocity(xi), ref.velocity(xi))
    assert same_bits(tables.loss(xi), ref.loss(xi))

    parts, dxi = rhs(tables, xi)
    ref_parts, ref_dxi = reference_rhs(ref, xi)
    assert same_bits(parts.velocity, ref_parts.velocity)
    assert same_bits(parts.loss, ref_parts.loss)
    assert same_bits(parts.boundary_outflow_rate, ref_parts.boundary_outflow_rate)
    assert np.array_equal(dxi, ref_dxi)  # only the sign of a zero may differ

    state = State(t=0.25, xi=xi, gel_mass=0.125, grid=grid, clamped_mass=1e-30)
    bound = stable_dt(state, parts, 0.9, dt_max=2.0)
    assert same_bits(bound, reference_stable_dt(state, ref_parts, 0.9, dt_max=2.0))

    # a factor above 1 oversteps the bound, so the clamp is exercised too
    dt = dt_factor * bound
    old = reference_step(state, ref, dt, (ref_parts, ref_dxi), scheme=scheme)
    new = step(state, tables, dt, (parts, dxi), scheme=scheme)
    assert_same_state(new, old)


@st.composite
def windows(draw):
    """A case whose density is empty from cell n - 2 up, and the window n < N."""
    kernel, grid, xi = draw(cases())
    n = draw(st.integers(2, xi.size - 1))
    xi[n - 2:] = 0.0
    return kernel, grid, xi, n


def stepped(state, tables, dt, stage, scheme):
    """The new state of a step, or the message of the failure it raises."""
    try:
        return step(state, tables, dt, stage, scheme=scheme)
    except NumericalFailureError as exc:
        return str(exc)


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
    tables = KernelTables(grid, kernel)
    with no_kernel_calls(kernel):
        window = tables.prefix(n)
    assert same_bits(window.grid.edges, grid.edges[:n + 1])
    assert tables.prefix(grid.ncells) is tables
    whole, dxi = copy_stage(rhs(tables, xi))
    parts, window_dxi = rhs(window, xi[:n])
    assert same_bits(parts.velocity, whole.velocity[:n])
    assert same_bits(parts.loss, whole.loss[:n])
    assert np.array_equal(window_dxi, dxi[:n])  # only the sign of a zero may differ
    assert same_bits(parts.boundary_outflow_rate, 0.0)
    assert same_bits(whole.boundary_outflow_rate, 0.0)

    state = State(t=0.25, xi=xi, gel_mass=0.125, grid=grid, clamped_mass=1e-30)
    window_state = replace(state, xi=xi[:n].copy(), grid=window.grid)
    bound = stable_dt(window_state, parts, 0.9, dt_max=2.0)
    assert same_bits(bound, stable_dt(state, whole, 0.9, dt_max=2.0))

    # a factor above 1 oversteps the bound, so the clamp is exercised too
    dt = dt_factor * bound
    window_stage = (parts, window_dxi)
    for scheme in ("euler", "heun"):
        old = stepped(state, tables, dt, copy_stage((whole, dxi)), scheme)
        new = stepped(window_state, window, dt, copy_stage(window_stage), scheme)
        if isinstance(old, str):
            assert new == old
        else:
            assert new.grid is window.grid
            padded = np.zeros(grid.ncells)
            padded[:n] = new.xi
            assert_same_state(replace(new, xi=padded), old)


@pytest.mark.parametrize("scheme", ["euler", "heun"])
@pytest.mark.parametrize("kernel, grid, initial, below_R", [
    (PowerSumKernel(1.0, 1.5), GridSpec("uniform", 2.0, 64), UniformOn(0.5, 1.0, 1.0), False),
    (MassConservingKernel(1.0, 1.5, "half_sum", 0.5), GridSpec("geometric", 4.0, 96, q=1.03),
     UniformOn(0.5, 1.0, 1.0), False),
    (ConstantKernel(1.0), GridSpec("uniform", 8.0, 128), UniformOn(0.0, 1.0, 1.0), True),
], ids=["kernel0-grid0", "kernel1-grid1", "support_below_R"])
def test_run_is_bitwise_the_reference_loop(kernel, grid, initial, below_R, scheme, monkeypatch):
    cfg = SimConfig(
        kernel=kernel, grid=grid, initial=initial,
        t_end=0.5, record_cadence=0.25, scheme=scheme, cfl=0.9,
    )
    real_rhs, windows_seen = solver.rhs, []

    def spy(tables, xi):
        windows_seen.append(xi.size)
        return real_rhs(tables, xi)

    monkeypatch.setattr(solver, "rhs", spy)
    result = solver.run(cfg, capture_states=True)
    assert not result.failed
    if below_R:
        # the support stays far below R, so the run steps a shorter window
        assert min(windows_seen) < grid.N
    else:
        assert result.final_state.gel_mass > 0.0
    resolved = result.config
    state = project_initial(resolved.grid.build(), resolved.initial)
    ref = ReferenceTables(state.grid, kernel)
    for recorded in result.states[1:]:
        while recorded.t - state.t > 1e-12:
            stage = reference_rhs(ref, state.xi)
            dt = reference_stable_dt(state, stage[0], resolved.cfl, resolved.dt_max)
            dt = min(dt, recorded.t - state.t)
            state = reference_step(state, ref, dt, stage, scheme=scheme)
        state.t = recorded.t
        assert_same_state(recorded, state)


def test_a_second_rhs_leaves_the_first_results_alone():
    grid = build("uniform", 4.0, 64)
    tables = KernelTables(grid, MassConservingKernel(1.0, 2.0, "half_sum", 1.0))
    rng = np.random.default_rng(4)
    first = rhs(tables, rng.random(64))
    kept = copy_stage(first)
    second = rhs(tables, 3.0 * rng.random(64))
    for arr, copy, other in zip(
        (first[0].velocity, first[0].loss, first[1]),
        (kept[0].velocity, kept[0].loss, kept[1]),
        (second[0].velocity, second[0].loss, second[1]),
    ):
        assert same_bits(arr, copy)
        assert not np.shares_memory(arr, other)
    assert first[0].boundary_outflow_rate == kept[0].boundary_outflow_rate


def test_heun_keeps_the_first_stage_through_the_second(monkeypatch):
    grid = build("uniform", 4.0, 64)
    kernel = PowerSumKernel(1.0, 1.5)
    tables = KernelTables(grid, kernel)
    state = State(t=0.0, xi=np.random.default_rng(5).random(64), gel_mass=0.0, grid=grid)
    stage = rhs(tables, state.xi)
    kept = copy_stage(stage)
    real_rhs, seen = solver.rhs, []

    def second_stage(tables_, xi):
        out = real_rhs(tables_, xi)
        for arr, copy in ((stage[0].velocity, kept[0].velocity),
                          (stage[0].loss, kept[0].loss), (stage[1], kept[1])):
            seen.append(same_bits(arr, copy))
        return out

    monkeypatch.setattr(solver, "rhs", second_stage)
    dt = 2.0 * stable_dt(state, stage[0], 1.0)
    assert np.min(state.xi + dt * kept[1]) < 0.0  # oversteps: the predictor is clamped
    out = step(state, tables, dt, stage, scheme="heun")
    assert seen == [True, True, True]
    assert same_bits(stage[1], kept[1])  # Heun writes its update elsewhere
    old = reference_step(state, ReferenceTables(grid, kernel), dt, kept, scheme="heun")
    assert_same_state(out, old)


@pytest.mark.parametrize("scheme", ["euler", "heun"])
def test_step_clamps_the_smallest_negative_cell(scheme):
    grid = build("uniform", 4.0, 8)
    kernel = ConstantKernel(1.0)
    state = State(t=0.0, xi=np.zeros(8), gel_mass=0.0, grid=grid)
    k1 = np.zeros(8)
    k1[3] = -5e-324  # the smallest subnormal
    parts = RhsParts(np.zeros(8), np.zeros(8), 0.0)
    old = reference_step(state, ReferenceTables(grid, kernel), 1.0, copy_stage((parts, k1)), scheme)
    new = step(state, KernelTables(grid, kernel), 1.0, (parts, k1), scheme=scheme)
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
def test_non_finite_input_fails_as_before(target, bad, where):
    grid = build("uniform", 4.0, N_FAIL)
    kernel = MassConservingKernel(1.0, 1.5, "min", 0.5)
    tables, ref = KernelTables(grid, kernel), ReferenceTables(grid, kernel)
    xi = np.random.default_rng(7).random(N_FAIL)
    poisoned = xi.copy()
    poisoned[where] = bad
    if target == "rhs":
        new = outcome(lambda: rhs(tables, poisoned))
        old = outcome(lambda: reference_rhs(ref, poisoned))
    else:
        scheme, planted = target.split("-")
        stage = rhs(tables, xi)
        if planted == "k1":
            stage[1][where] = bad
            state = State(t=0.0, xi=xi, gel_mass=0.0, grid=grid)
        else:
            state = State(t=0.0, xi=poisoned, gel_mass=0.0, grid=grid)
        old_stage = copy_stage(stage)
        new = outcome(lambda: step(state, tables, 0.01, stage, scheme=scheme))
        old = outcome(lambda: reference_step(state, ref, 0.01, old_stage, scheme=scheme))
    assert new[0] == old[0]
    assert new[1] <= old[1]
    # the failure leaves nothing in the scratch that a later call would see
    parts, _ = rhs(tables, xi)
    ref_parts, _ = reference_rhs(ref, xi)
    assert same_bits(parts.velocity, ref_parts.velocity)
    assert same_bits(parts.loss, ref_parts.loss)
