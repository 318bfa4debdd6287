"""Moment quadratures, inequalities, test functions and residual diagnostics."""
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import replay_moment_residual, replay_sums

from ohslab import ConstantKernel, GridSpec, PowerSumKernel, SimConfig, UniformOn, load_config
from ohslab.checks import run_checks
from ohslab.errors import InsufficientRecordsError, InvalidInputError
from ohslab.gelation import row_config
from ohslab.grid import CellSpike, State, build, project_initial
from ohslab.moments import (
    CappedIdentity,
    MomentSeries,
    Power,
    holder_check,
    moment,
    moment_residual,
    pair_sums,
    stacked_moments,
    tree_prefix,
    truncated_moment,
    weak_form_residual,
    weak_rhs_quadrature,
)
from ohslab.solver import KernelTables, RunResult, run

ROOT = Path(__file__).resolve().parents[1]


def block_state(N=400, R=4.0):
    grid = build("uniform", R, N)
    return project_initial(grid, UniformOn(0.0, 1.0, 1.0))


def test_block_moments_match_analytic_values():
    state = block_state()
    assert moment(state, 1) == pytest.approx(1.0, abs=1e-12)
    assert moment(state, 0) == pytest.approx(2.0, abs=1e-12)
    # integral of 2 mu^2 over [0, 1] carries the midpoint-rule defect only
    assert moment(state, 2) == pytest.approx(2.0 / 3.0, abs=1e-4)


def test_zero_state_moments_vanish():
    grid = build("uniform", 4.0, 16)
    state = State(t=0.0, xi=np.zeros(16), gel_mass=0.0, grid=grid)
    for r in (0.0, 0.5, 1.0, 2.0, 5.0):
        assert moment(state, r) == 0.0


def test_moment_one_is_bitwise_domain_mass():
    # the clamp budget reads moment(state, 1): the first moment summed as
    # midpoints * xi * widths, in that order
    state = block_state(N=97, R=3.0)
    g = state.grid
    domain_mass = float(np.sum(g.midpoints * state.xi * g.widths))
    assert moment(state, 1) == domain_mass
    assert moment(state, 1.0) == domain_mass


def test_truncated_moment_limits():
    state = block_state()
    assert truncated_moment(state, 2, 0.0) == moment(state, 2)
    assert truncated_moment(state, 2, state.grid.cutoff) == 0.0
    # integral of 2 mu over [0.5, 1] = 0.75; threshold aligned with a cell face
    assert truncated_moment(state, 1, 0.5) == pytest.approx(0.75, abs=1e-12)


def old_moment(state, r):
    """The moment body before the cached power rows."""
    g = state.grid
    return float(np.sum(g.midpoints**r * state.xi * g.widths))


def old_truncated_moment(state, r, m):
    """The truncated moment body before the cached power rows."""
    g = state.grid
    keep = g.midpoints >= m
    if not keep.any():
        return 0.0
    return float(np.sum(g.midpoints[keep] ** r * state.xi[keep] * g.widths[keep]))


@st.composite
def grid_states(draw):
    """A uniform or geometric grid with a random density, gapped or not."""
    R = draw(st.floats(0.5, 50.0))
    N = draw(st.integers(3, 160))
    if draw(st.booleans()):
        grid = build("uniform", R, N)
    else:
        grid = build("geometric", R, N, draw(st.floats(1.001, 1.1)))
    amount = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))
    xi = np.array(draw(st.lists(amount, min_size=N, max_size=N)))
    if draw(st.booleans()):
        lo = draw(st.integers(0, N - 2))
        xi[lo:draw(st.integers(lo + 1, N))] = 0.0
    return State(t=0.0, xi=xi, gel_mass=0.0, grid=grid)


@st.composite
def thresholds(draw, grid):
    """A threshold below, at, between or above the grid's midpoints."""
    mid = grid.midpoints
    k = draw(st.integers(0, mid.size - 2))
    return draw(st.sampled_from([
        0.0, mid[0] / 2, mid[k], 0.5 * (mid[k] + mid[k + 1]), mid[-1], grid.cutoff,
        grid.cutoff + 1.0,
    ]))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cached_power_rows_reproduce_the_old_moment_bodies_bitwise(data):
    state = data.draw(grid_states())
    grid = state.grid
    # an order, then the same order again, as the other type where it has one
    r, twin = data.draw(st.sampled_from([
        (1, 1.0), (2, 2.0), (2.5, 2.5), (3, 3.0), (6, 6.0), (1.0, 1), (2.0, 2), (3.0, 3),
    ]))
    m = data.draw(thresholds(grid))
    assert moment(state, r) == old_moment(state, r)
    assert truncated_moment(state, r, m) == old_truncated_moment(state, r, m)
    row, cached = grid.power(r), len(grid._powers)
    assert moment(state, twin) == old_moment(state, twin)
    assert truncated_moment(state, twin, m) == old_truncated_moment(state, twin, m)
    assert grid.power(twin) is row
    assert len(grid._powers) == cached


#: Row lengths on both sides of numpy's 128-element pairwise block, odd and even.
PAIRWISE_LENGTHS = (8, 9, 15, 16, 17, 63, 100, 127, 128, 129, 130, 200, 255, 256, 257,
                    511, 512, 777, 1023, 1024, 1025, 2047, 2048, 3001, 4096, 4097)


def tail_rows(rng, n, k, count):
    """count random nonnegative rows of n elements, zero from element k on."""
    rows = np.zeros((count, n))
    rows[:, :k] = rng.random((count, k)) * 10.0 ** rng.integers(-6, 6, (count, k))
    return rows


@pytest.mark.parametrize("n", PAIRWISE_LENGTHS)
def test_numpy_sums_a_zero_tail_on_its_tree_prefix_bitwise(n):
    # the rule the replay sums stand on: when this fails, numpy's summation changed
    rng = np.random.default_rng(n)
    for k in sorted({0, 1, 7, 8, 9, n // 2, n // 2 + 1, n - 1, n,
                     *rng.integers(0, n + 1, 12).tolist()} - {n + 1}):
        p = tree_prefix(n, k)
        assert k <= p <= n and (p == n or p % 8 == 0)
        rows = tail_rows(rng, n, k, 5)
        for row in rows:
            assert np.add.reduce(row[:p]).tobytes() == np.add.reduce(row).tobytes()
        stacked = np.add.reduce(rows[:, :p], axis=1)
        assert stacked.tobytes() == np.add.reduce(rows, axis=1).tobytes()
        assert stacked.tobytes() == np.array([np.add.reduce(row) for row in rows]).tobytes()


def test_a_prefix_off_the_tree_chain_changes_the_bits():
    # the negative control: the pinned rule is not true of every prefix
    rng = np.random.default_rng(1)
    rows = tail_rows(rng, 1024, 329, 40)
    assert tree_prefix(1024, 329) == 512 and tree_prefix(1023, 329) == 504
    for p in (329, 336, 640):  # the support, a multiple of 8, a longer cut
        cut = np.add.reduce(rows[:, :p], axis=1)
        assert cut.tobytes() != np.add.reduce(rows, axis=1).tobytes()


def test_tree_prefix_walks_the_split_chain():
    assert [tree_prefix(1024, m) for m in (0, 8, 9, 120, 121, 128, 129, 256, 257, 513)] == [
        8, 8, 16, 120, 128, 128, 256, 256, 512, 1024]
    assert [tree_prefix(1023, m) for m in (120, 121, 248, 249, 504, 505)] == [
        120, 248, 248, 504, 504, 1023]
    assert [tree_prefix(n, 0) for n in (1, 5, 7, 8, 100, 129)] == [1, 5, 7, 8, 8, 8]


def test_power_rows_are_read_only_and_r1_is_the_midpoints():
    grid = build("geometric", 4.0, 32, 1.05)
    assert grid.power(1) is grid.midpoints
    for r in (1, 2.5):
        with pytest.raises(ValueError):
            grid.power(r)[0] = 0.0


def holder_pass(state, pairs):
    """(ok, worst, moments) of ``holder_check`` on a one-record moment pass of state."""
    sums = stacked_moments([state], {1, *(q for r, beta in pairs for q in (r, r + beta - 1.0))})
    return (*holder_check(sums, [state.t], pairs), sums)


def test_holder_equality_for_point_mass():
    grid = build("uniform", 8.0, 16)
    state = project_initial(grid, CellSpike(5, 1.3))
    ok, worst, _ = holder_pass(state, [(3, 2.0)])
    assert ok
    assert worst["ratio"] == pytest.approx(1.0, rel=1e-12)  # lhs == rhs


def test_holder_block_values():
    state = block_state()
    ok, worst, sums = holder_pass(state, [(2, 2.0)])
    # sigma = 1: lhs = (M^2)^2 / M^1 = 4/9, rhs = M^3 = 1/2
    rhs = sums[3][0]
    assert worst["ratio"] * rhs == pytest.approx(4.0 / 9.0, abs=1e-3)
    assert rhs == pytest.approx(0.5, abs=1e-3)
    assert ok


@pytest.mark.parametrize("r", [2, 3, 5])
@pytest.mark.parametrize("beta", [1.5, 2.0])
def test_holder_holds_on_random_states(r, beta):
    grid = build("uniform", 6.0, 64)
    rng = np.random.default_rng(17)
    for _ in range(20):
        state = State(t=0.0, xi=rng.random(64), gel_mass=0.0, grid=grid)
        assert holder_pass(state, [(r, beta)])[0]


def test_holder_validation():
    state = block_state(N=16)
    with pytest.raises(InvalidInputError):
        holder_pass(state, [(1.5, 2.0)])
    with pytest.raises(InvalidInputError):
        holder_pass(state, [(2, 1.0)])
    # a record with no mass in the domain is skipped: the bound reads 0 <= 0
    empty = State(t=0.0, xi=np.zeros(16), gel_mass=0.0, grid=state.grid)
    assert holder_pass(empty, [(2, 2.0)])[:2] == (True, {"ratio": 0.0})


def test_moment_rhs_trivial_cases():
    grid = build("uniform", 4.0, 16)
    tables = KernelTables(grid, ConstantKernel(1.0))
    zero = State(t=0.0, xi=np.zeros(16), gel_mass=0.0, grid=grid)
    assert pair_sums([zero], tables, [Power(2)])[0][0, 0] == 0.0
    spike = project_initial(grid, CellSpike(0, 1.0))
    assert pair_sums([spike], tables, [Power(2)])[0][0, 0] == 0.0  # no ordered pairs


def test_moment_rhs_converges_to_analytic_value():
    # d(M^2)/dt for the unit block with a unit kernel tends to 2/3
    errors = []
    for N in (256, 512, 1024):
        state = block_state(N=N)
        value = pair_sums([state], KernelTables(state.grid, ConstantKernel(1.0)), [Power(2)])[0][0, 0]
        errors.append(abs(value - 2.0 / 3.0))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 0.01


def test_moment_rhs_nonnegative_on_random_states():
    grid = build("geometric", 6.0, 48, q=1.1)
    rng = np.random.default_rng(23)
    tables = KernelTables(grid, PowerSumKernel(1.0, 1.5))
    for r in (2, 3, 5):
        for _ in range(10):
            state = State(t=0.0, xi=rng.random(48), gel_mass=0.0, grid=grid)
            assert pair_sums([state], tables, [Power(r)])[0][0, 0] >= 0.0


def small_run(N=128, t_end=0.5, cadence=0.02, kernel=None):
    cfg = SimConfig(
        kernel=kernel or ConstantKernel(1.0),
        grid=GridSpec("uniform", 8.0, N),
        initial=UniformOn(0.0, 1.0, 1.0),
        t_end=t_end,
        cfl=1.0,
        record_cadence=cadence,
    )
    return run(cfg, capture_states=True)


def test_moment_residual_small_for_reference_run(bagland_runs):
    result, _ = bagland_runs[1024]
    assert replay_moment_residual(result, 2) <= 0.05


def test_moment_residual_zero_for_empty_states():
    grid = build("uniform", 4.0, 16)
    cfg = SimConfig(
        kernel=ConstantKernel(1.0), grid=GridSpec("uniform", 4.0, 16),
        initial=UniformOn(0.0, 1.0, 1.0), t_end=1.0, record_cadence=0.5,
    )
    states = [State(t=0.5 * k, xi=np.zeros(16), gel_mass=0.0, grid=grid) for k in range(3)]
    series = MomentSeries(orders=(0.0, 1.0, 2.0), thresholds=())
    for s in states:
        series.append_state(s)
    handle = RunResult(
        config=cfg, series=series, final_state=states[-1], states=states,
        tables=KernelTables(grid, cfg.kernel),
    )
    assert replay_moment_residual(handle, 2) == 0.0


def test_moment_residual_does_not_grow_under_refinement():
    coarse = replay_moment_residual(small_run(N=128, cadence=0.05), 2)
    fine = replay_moment_residual(small_run(N=256, cadence=0.025), 2)
    assert fine <= coarse


def test_moment_residual_requires_enough_uniform_records():
    result = small_run(N=64, t_end=0.02, cadence=0.02)  # two records only
    with pytest.raises(InsufficientRecordsError):
        replay_moment_residual(result, 2)


def test_capped_identity_shape():
    test = CappedIdentity(2.0)
    mu = np.array([0.5, 1.9999, 2.0, 3.0])
    assert np.array_equal(test.value(mu), [0.5, 1.9999, 2.0, 2.0])
    assert np.array_equal(test.deriv(mu), [1.0, 1.0, 0.0, 0.0])
    # mass-like test function nullifies the pair weight below the cap
    assert test.varpi1(1.5, 0.7) == 0.0


@pytest.mark.parametrize("cap", [0.0, -1.0, float("nan"), float("inf")])
def test_capped_identity_needs_a_positive_finite_cap(cap):
    with pytest.raises(InvalidInputError, match="cap must be positive"):
        CappedIdentity(cap)


def test_power_is_the_uncapped_moment_test_function():
    test = Power(3)
    mu = np.array([0.5, 2.0, 40.0])
    assert np.array_equal(test.value(mu), mu**3)
    assert np.array_equal(test.deriv(mu), 3 * mu**2.0)
    assert test.varpi1(2.0, 0.5) == 0.5 * 12.0 - 0.125  # r*nu*mu^(r-1) - nu^r
    with pytest.raises(InvalidInputError, match="needs r >= 2"):
        Power(1.5)


def test_weak_residual_zero_at_t0():
    result = small_run(t_end=0.0)  # one record, at t = 0
    assert len(result.states) == 1
    test = CappedIdentity(1.0)
    assert weak_form_residual(result, test, replay_sums(result, test)).residual == 0.0


def test_weak_residual_mass_test_function_nullifies(bagland_runs):
    # cap above the support: the boundary term cancels the domain mass change
    result, _ = bagland_runs[512]
    test = CappedIdentity(result.config.grid.R)
    sums = replay_sums(result, test)
    assert weak_form_residual(result, test, sums).residual <= 1e-6
    value, _ = weak_rhs_quadrature(result, sums)
    assert value == 0.0


def test_weak_residual_returns_its_quadrature(bagland_runs):
    result, _ = bagland_runs[256]
    test = CappedIdentity(1.0)
    sums = replay_sums(result, test)
    res = weak_form_residual(result, test, sums)
    assert (res.quadrature, res.gross) == weak_rhs_quadrature(result, sums)
    assert res.residual > 0.0


def test_weak_residual_active_cap(bagland_runs):
    result, _ = bagland_runs[1024]
    for test in (CappedIdentity(1.0), Power(2)):
        assert weak_form_residual(result, test, replay_sums(result, test)).residual <= 0.05


def test_weak_residual_shrinks_with_refinement(bagland_runs):
    test = CappedIdentity(1.0)
    coarse, fine = (weak_form_residual(result, test, replay_sums(result, test)).residual
                    for result in (bagland_runs[256][0], bagland_runs[1024][0]))
    assert fine < coarse


def test_weak_residual_carries_the_boundary_outflow(powersum_run):
    series = powersum_run.series
    assert series.gel()[-1] / series.rho0() > 0.6
    test = CappedIdentity(2.0)
    assert weak_form_residual(powersum_run, test, replay_sums(powersum_run, test)).residual <= 0.05


def test_moment_residual_with_boundary_term_is_first_order_on_the_sweep_config():
    cfg = load_config(ROOT / "configs" / "gelation_sweep.json")
    coarse, fine = (
        replay_moment_residual(run(row_config(cfg, cfg.grid.R, N), capture_states=True), 2)
        for N in (128, 256)
    )
    assert fine <= 0.6 * coarse


@pytest.mark.parametrize("missing", ["states", "tables"])
def test_replay_diagnostics_need_states_and_tables(powersum_run, missing):
    stripped = replace(powersum_run, **{missing: None})
    with pytest.raises(InvalidInputError, match="state snapshots or kernel tables"):
        run_checks(stripped)


def test_moment_residual_takes_the_pair_sums_it_is_handed(powersum_run):
    states = powersum_run.states
    sums = pair_sums(states, powersum_run.tables, [Power(2)])[0][:, 0]
    values = stacked_moments(states, (2,))[2]
    residual = moment_residual(powersum_run, 2, sums, values)
    # the passes' sums are the per-record ones, bit for bit
    per_record = [pair_sums([s], powersum_run.tables, [Power(2)])[0][0, 0] for s in states]
    assert residual == moment_residual(powersum_run, 2, np.array(per_record),
                                       np.array([moment(s, 2) for s in states]))
    # the interior records' sums are the ones it uses
    planted = sums.copy()
    planted[[0, -1]] = np.nan
    assert moment_residual(powersum_run, 2, planted, values) == residual
    planted[len(states) // 2] = np.nan
    assert np.isnan(moment_residual(powersum_run, 2, planted, values))


def test_check_sums_each_moment_order_once(powersum_run, monkeypatch):
    import ohslab.moments as moments_mod
    from ohslab.checks import HOLDER_ORDERS

    records = len(powersum_run.states)
    real, pair_calls = moments_mod.pair_sums, []
    stacked, stacked_orders = moments_mod.stacked_moments, []

    def counted(states, tables, tests):
        assert len(states) == records  # every record in one call
        pair_calls.append([(type(test).__name__, getattr(test, "r", getattr(test, "lam", None)))
                           for test in tests])
        return real(states, tables, tests)

    def counted_moments(states, orders):
        assert len(states) == records
        stacked_orders.append(tuple(orders))
        return stacked(states, orders)

    monkeypatch.setattr(moments_mod, "pair_sums", counted)
    monkeypatch.setattr(moments_mod, "stacked_moments", counted_moments)
    names = [check.name for check in run_checks(powersum_run).checks]
    assert {"holder_inequality", "moment_rhs_sign", "moment_residual",
            "weak_form_residual"} <= set(names)
    # one moment pass, whose M^2 the residual reads too, and one pair-sum
    # pass carrying the sign orders and the weak form's capped identity
    assert stacked_orders == [HOLDER_ORDERS]
    assert pair_calls == [[("Power", 2), ("Power", 3), ("Power", 5),
                           ("CappedIdentity", powersum_run.config.grid.R / 2.0)]]
