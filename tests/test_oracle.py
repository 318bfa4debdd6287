"""Explicit-solution values and the brute-force weak-form cross-check."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import replay_sums

from ohslab import (
    BaglandSolution,
    ConstantKernel,
    GridSpec,
    PowerSumKernel,
    SimConfig,
    UniformOn,
)
from ohslab.errors import InvalidInputError
from ohslab.grid import build, project_initial
from ohslab.moments import (
    CappedIdentity,
    MomentSeries,
    Power,
    kernel_matrix,
    weak_form_residual,
    weak_rhs_quadrature,
    GROSS_GUARD,
    EPS_FLOOR,
)
from ohslab import oracle
from ohslab.oracle import brute_force_weak_rhs, l1_error
from ohslab.solver import KernelTables, RunResult


def project_state(sol, grid, t):
    """Mass-exact projection of the explicit solution onto a grid at time t.

    The growing support must still fit inside the cutoff.
    """
    state = project_initial(grid, UniformOn(a=0.0, b=sol.support_end(t), mass=sol.M))
    return replace(state, t=float(t))


def density(sol, mu, t):
    """The explicit solution's density at size mu and time t >= 0."""
    mu = np.asarray(mu, dtype=float)
    value = 2.0 / (sol.M * (1.0 + t) ** 2)
    out = np.where(mu <= sol.support_end(t), value, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def test_density_spot_values():
    sol = BaglandSolution(1.0)
    assert density(sol, 0.5, 0.0) == 2.0
    assert density(sol, 1.5, 0.0) == 0.0
    assert density(sol, 1.5, 1.0) == 0.5  # support grew to [0, 2]


def test_moment_closed_forms():
    sol = BaglandSolution(1.0)
    assert sol.moment(0, 1.0) == 1.0
    assert sol.moment(2, 0.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert sol.moment(3, 0.0) == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize("M", [0.5, 1.0, 2.0, 4.0])
def test_first_moment_constant_in_time(M):
    sol = BaglandSolution(M)
    for t in (0.0, 0.3, 1.0, 2.7, 10.0):
        assert sol.moment(1, t) == M


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_density_integrates_to_closed_form(r):
    sol = BaglandSolution(1.3)
    t = 0.7
    mu = np.linspace(0.0, sol.support_end(t), 200001)
    quad = np.trapezoid(mu**r * density(sol, mu, t), mu)
    assert quad == pytest.approx(sol.moment(r, t), abs=1e-8)


def test_validation():
    with pytest.raises(InvalidInputError):
        BaglandSolution(0.0)
    with pytest.raises(InvalidInputError):
        BaglandSolution(1.0).moment(-1, 0.0)


def test_l1_self_projection_edge_aligned():
    # support end 2.0 falls exactly on a grid edge: projection is cell-exact
    sol = BaglandSolution(1.0)
    grid = build("uniform", 8.0, 1024)
    state = project_state(sol, grid, 1.0)
    assert l1_error(state, sol) <= 1e-12


def test_l1_self_projection_bounded_by_edge_cell():
    sol = BaglandSolution(1.0)
    grid = build("uniform", 8.0, 1024)
    t = 0.9031  # support end inside a cell
    state = project_state(sol, grid, t)
    edge_bound = density(sol, 0.0, t) * grid.widths[0]
    assert l1_error(state, sol) <= edge_bound


def test_l1_zero_state_equals_initial_l1_norm():
    sol = BaglandSolution(1.0)
    grid = build("uniform", 4.0, 400)
    state = project_state(sol, grid, 0.0)
    state.xi[:] = 0.0
    assert l1_error(state, sol) == pytest.approx(2.0, abs=1e-12)


def _projected_run(N, times, lam_cfg=None):
    sol = BaglandSolution(1.0)
    grid = build("uniform", 8.0, N)
    cfg = SimConfig(
        kernel=ConstantKernel(1.0), grid=GridSpec("uniform", 8.0, N),
        initial=UniformOn(0.0, 1.0, 1.0), t_end=float(times[-1]),
        record_cadence=float(times[1] - times[0]),
    )
    states = [project_state(sol, grid, t) for t in times]
    series = MomentSeries(orders=(0.0, 1.0), thresholds=())
    for s in states:
        series.append_state(grid, s.t, s.xi, N, s.gel_mass, s.clamped_mass)
    return RunResult(
        config=cfg, series=series, final_state=states[-1],
        densities=np.array([s.xi for s in states]), tables=KernelTables(grid, cfg.kernel),
    )


def brute(run, test, kernel=None):
    """``brute_force_weak_rhs`` over every record of a run."""
    return brute_force_weak_rhs(run.tables.grid, run.series.times(), run.densities,
                                kernel or run.config.kernel, test)


def test_brute_force_trivial_cases(bagland_runs):
    result, _ = bagland_runs[256]
    # single record: empty time integral
    assert brute_force_weak_rhs(result.tables.grid, result.series.times()[:1],
                                result.densities[:1], result.config.kernel,
                                CappedIdentity(1.0)) == 0.0
    # cap at or above the cutoff: every pair weight vanishes identically
    assert brute(result, CappedIdentity(8.0)) == 0.0


def test_brute_force_all_zero_records(bagland_runs):
    result, _ = bagland_runs[256]
    zero = np.zeros_like(result.densities[:5])
    assert brute_force_weak_rhs(result.tables.grid, result.series.times()[:5], zero,
                                result.config.kernel, CappedIdentity(1.0)) == 0.0


def _fixture_run(request, fixture):
    run = request.getfixturevalue(fixture)
    return run[256][0] if fixture == "bagland_runs" else run


ORACLE_FIXTURES = ["bagland_runs", "powersum_run", "massconserving_run"]
# the moment test function mu**r has no cap, so lam picks its order instead:
# r = 2 * lam + 1 for "power" (3 and 5 are the odd orders of the check's sign
# test) and r = 2 * lam for "moment"; on the N = 1024 Bagland run, Power(2)
# integrates to 0.663 where CappedIdentity(R/2) integrates to exactly 0
TEST_KINDS = pytest.mark.parametrize(
    "make_test", [CappedIdentity, lambda lam: Power(2.0 * lam + 1.0)], ids=["identity", "power"],
)
ALL_KINDS = pytest.mark.parametrize(
    "make_test",
    [CappedIdentity, lambda lam: Power(2.0 * lam + 1.0), lambda lam: Power(2.0 * lam)],
    ids=["identity", "power", "moment"],
)


def _relative_gap(a, b, internal, gross):
    """|a - b| over the denominator of the check's oracle agreement."""
    return abs(a - b) / max(abs(internal), abs(b), GROSS_GUARD * gross, EPS_FLOOR)


@pytest.mark.parametrize("lam", [1.0, 2.5])
@ALL_KINDS
@pytest.mark.parametrize("fixture", ORACLE_FIXTURES)
def test_brute_force_agrees_with_vectorized_quadrature(request, fixture, make_test, lam):
    result = _fixture_run(request, fixture)
    test = make_test(lam)
    internal, gross = weak_rhs_quadrature(result, replay_sums(result, test))
    assert _relative_gap(internal, brute(result, test), internal, gross) <= 1e-10


def _per_row_reference(run, kernel, test):
    """The oracle as a per-row loop: one kernel call per occupied row per record."""
    if len(run.densities) < 2:
        return 0.0
    grid = run.tables.grid
    sums = np.empty(len(run.densities))
    for k, xi in enumerate(run.densities):
        mid, dx = grid.midpoints, grid.widths
        total = 0.0
        for i in range(1, grid.ncells):
            if xi[i] == 0.0:
                continue
            smaller = mid[:i]
            terms = (
                test.varpi1(mid[i], smaller)
                * kernel.eval(mid[i], smaller)
                * xi[i] * xi[:i] * dx[i] * dx[:i]
            )
            total += float(np.sum(terms))
        sums[k] = total
    return float(np.trapezoid(sums, run.series.times()))


@pytest.mark.parametrize("lam", [1.0, 2.0])
@TEST_KINDS
@pytest.mark.parametrize("fixture", ORACLE_FIXTURES)
def test_brute_force_matches_per_row_reference(request, fixture, make_test, lam):
    result = _fixture_run(request, fixture)
    test = make_test(lam)
    internal, gross = weak_rhs_quadrature(result, replay_sums(result, test))
    reference = _per_row_reference(result, result.config.kernel, test)
    assert reference != 0.0
    assert _relative_gap(reference, brute(result, test), internal, gross) <= 1e-13


class _CountingKernel:
    """Forwards ``eval`` to a kernel and counts the calls."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.calls = 0

    def eval(self, mu, nu):
        self.calls += 1
        return self.kernel.eval(mu, nu)


def test_brute_force_builds_its_table_once(bagland_runs):
    result, _ = bagland_runs[256]
    kernel = _CountingKernel(result.config.kernel)
    brute(result, CappedIdentity(1.0), kernel)
    assert kernel.calls == 1


def test_brute_force_row_blocks_sum_to_one_table(bagland_runs, monkeypatch):
    result, _ = bagland_runs[256]
    test = CappedIdentity(1.0)
    whole = brute(result, test)
    occupied = max(int(np.flatnonzero(xi)[-1]) + 1 for xi in result.densities)
    monkeypatch.setattr(oracle, "_BLOCK_BYTES", 8 * occupied * 5)  # five rows a block
    kernel = _CountingKernel(result.config.kernel)
    blocked = brute(result, test, kernel)
    assert kernel.calls == -(-(occupied - 1) // 5)
    assert abs(blocked - whole) <= 1e-13 * abs(whole)
    reference = _per_row_reference(result, result.config.kernel, test)
    assert abs(blocked - reference) <= 1e-13 * abs(reference)


@pytest.mark.parametrize("madds", [16, 64, 2**18])
@pytest.mark.parametrize("m, k, p", [(2, 3, 1), (3, 9, 2), (5, 40, 7), (101, 67, 66)])
def test_contract_is_one_matmul_in_bounded_chunks(monkeypatch, madds, m, k, p):
    rng = np.random.default_rng(0)
    lead = k - p - 1  # column j of a row block starting at cell k - p is zero past lead + j
    x, w = rng.random((m, k)), np.tril(rng.random((p, k)), k=lead).T
    whole = x @ w
    matmul, shapes = np.matmul, []

    def spy(a, b, **kwargs):
        shapes.append((*a.shape, b.shape[1]))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(oracle, "_MATMUL_MADDS", madds)
    monkeypatch.setattr(np, "matmul", spy)
    out = np.full((m, p), np.nan)
    oracle._contract(x, w, out, lead)
    np.testing.assert_allclose(out, whole, rtol=1e-13)
    assert max(rows * inner * cols for rows, inner, cols in shapes) <= madds
    # never one record against one block row: that would be a ddot
    assert min(rows for rows, _, _ in shapes) >= 2
    assert min(cols for _, _, cols in shapes) >= min(p, 2)


def test_brute_force_memory_is_bounded_by_its_row_blocks():
    grid = build("uniform", 8.0, 4096)
    full = project_initial(grid, UniformOn(0.0, 8.0, 1.0))
    densities = np.array([full.xi] * 3)
    kernel = PowerSumKernel(1.0, 1.5)
    # Power(2)'s pair weight is nonnegative, CappedIdentity's nonpositive
    for test, sign in ((CappedIdentity(4.0), -1.0), (Power(2), 1.0)):
        tracemalloc.start()
        try:
            value = brute_force_weak_rhs(grid, (0.0, 0.5, 1.0), densities, kernel, test)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sign * value > 0.0
        # one dense 4096 x 4096 table alone would take 128 MiB
        assert peak < 40 * 2**20


def test_projected_solution_satisfies_weak_form_under_refinement(capsys):
    times = np.linspace(0.0, 1.0, 21)
    residuals = []
    for N in (128, 256, 512):
        handle = _projected_run(N, times)
        test = CappedIdentity(1.0)
        residuals.append(weak_form_residual(handle, test, replay_sums(handle, test)).residual)
    assert residuals[0] > residuals[1] > residuals[2]
    orders = np.log2(np.array(residuals[:-1]) / np.array(residuals[1:]))
    print("projected-solution weak-form residual orders:", orders)
    assert np.all(orders > 0.5)


def _dense_weak_quadrature(run, test):
    """The weak-form quadrature over all records, summed on a dense pair table."""
    grid = run.tables.grid
    mid = grid.midpoints
    K = kernel_matrix(grid, run.config.kernel)
    terms = np.tril(test.varpi1(mid[:, None], mid[None, :]) * K, k=-1)
    terms_abs = np.abs(terms)
    sums, gross = [], []
    for xi in run.densities:
        w = xi * grid.widths
        sums.append(w @ (terms @ w))
        gross.append(w @ (terms_abs @ w))
    times = run.series.times()
    return np.trapezoid(sums, times), np.trapezoid(gross, times)


@pytest.mark.parametrize("lam", [1.0, 2.0])
@ALL_KINDS
@pytest.mark.parametrize("fixture", ORACLE_FIXTURES)
def test_pair_sum_quadrature_matches_dense_table(request, fixture, make_test, lam):
    run = request.getfixturevalue(fixture)
    if fixture == "bagland_runs":
        run = run[1024][0]
    test = make_test(lam)
    value, gross = weak_rhs_quadrature(run, replay_sums(run, test))
    dense, dense_gross = _dense_weak_quadrature(run, test)
    assert dense_gross > 0.0
    assert abs(value - dense) <= 1e-13 * gross
    if isinstance(test, CappedIdentity):
        assert gross == abs(value)
        assert abs(gross - dense_gross) <= 1e-13 * dense_gross
    else:  # gain + loss bounds the unsigned sum; 1e-13 allows for roundoff
        assert gross >= dense_gross * (1.0 - 1e-13)


def test_weak_form_residual_memory_is_linear_in_n():
    handle = _projected_run(4096, np.linspace(0.0, 1.0, 5))
    for test in (CappedIdentity(1.0), Power(2)):
        tracemalloc.start()
        try:
            weak_form_residual(handle, test, replay_sums(handle, test))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one dense 4096 x 4096 table alone would take 128 MiB
        assert peak < 16 * 2**20
