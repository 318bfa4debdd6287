"""Separable pair sums against dense pair tables built here, on random inputs.

The solver's drift and loss and the moment-evolution quadrature sum the
kernel over one triangle of midpoint pairs through the kernels' separable
factors.  These properties compare them with the direct N x N sums, for every
kernel kind and every Psi, on random uniform and geometric grids and random
nonnegative densities (with zeros and single spikes).  Drawn magnitudes are
either zero or at least 1e-6, so no sum reaches the subnormal range, where
relative precision is lost whatever the summation order.

The stacked (K, N) drift, loss and strict-lower pair sum are also checked bit
for bit against per-term loops written here, and the support-aware step
bound against the positivity it promises on densities with interior gaps.
The replay sums over every record at once, blocked and cut to a tree prefix,
several tests in one call, are checked bit for bit against the per-record
whole-grid sums they replace.
"""
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohslab import ConstantKernel, MassConservingKernel, PowerSumKernel, ProductKernel
from ohslab.errors import NumericalFailureError
from ohslab.grid import SizeGrid, State, build
from ohslab import moments
from ohslab.moments import CappedIdentity, Power, pair_sums, stacked_moments, tree_prefix
from ohslab.solver import KernelTables

from conftest import moment, stage, step_state

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

positive = st.floats(0.05, 5.0)
amount = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))

kernels = st.one_of(
    st.builds(ConstantKernel, st.one_of(st.just(0.0), positive)),
    st.builds(PowerSumKernel, positive, st.floats(0.1, 3.0)),
    st.builds(
        MassConservingKernel, positive, st.floats(1.01, 3.0),
        st.sampled_from(["zero", "half_sum", "min"]), positive,
    ),
    st.builds(ProductKernel, st.floats(-2.0, 3.0)),
)


@st.composite
def grids(draw, min_cells=2):
    R = draw(st.floats(0.5, 50.0))
    N = draw(st.integers(min_cells, 160))
    if draw(st.booleans()):
        return build("uniform", R, N)
    return build("geometric", R, N, draw(st.floats(1.001, 1.1)))


@st.composite
def densities(draw, n):
    if draw(st.booleans()):
        xi = np.zeros(n)
        xi[draw(st.integers(0, n - 1))] = draw(st.floats(1e-3, 1e3))
        return xi
    return np.array(draw(st.lists(amount, min_size=n, max_size=n)))


@st.composite
def cases(draw):
    grid = draw(grids())
    return draw(kernels), grid, draw(densities(grid.ncells))


@st.composite
def gapped_cases(draw):
    """A kernel and a grid with a nonnegative density that has an interior gap."""
    grid = draw(grids(min_cells=3))
    n = grid.ncells
    xi = np.array(draw(st.lists(amount, min_size=n, max_size=n)))
    lo = draw(st.integers(1, n - 2))
    hi = draw(st.integers(lo + 1, n - 1))
    xi[lo:hi] = 0.0
    xi[lo - 1] = draw(st.floats(1e-6, 10.0))
    xi[hi] = draw(st.floats(1e-6, 10.0))
    return draw(kernels), grid, xi


def dense_table(grid, kernel):
    mid = grid.midpoints
    return np.asarray(kernel.eval(mid[:, None], mid[None, :]), dtype=float)


def per_term_strict_lower_sum(grid, kernel, u, v):
    """sum over j < i of u_i * Lambda_ij * v_j, one separable term at a time."""
    with np.errstate(over="ignore"):
        terms = kernel.separable_terms(grid.midpoints)
    total = 0.0
    for a, b in terms:
        inner = np.cumsum(b * v)
        total += np.sum((u * a)[1:] * inner[:-1])
    return float(total)


@PROPERTY_SETTINGS
@given(kernels, grids())
def test_separable_terms_reproduce_the_kernel_on_the_lower_triangle(kernel, grid):
    mid = grid.midpoints
    rebuilt = sum(
        np.multiply.outer(np.broadcast_to(a, mid.shape), np.broadcast_to(b, mid.shape))
        for a, b in kernel.separable_terms(mid)
    )
    lower = np.tril_indices(mid.size)
    expected = dense_table(grid, kernel)[lower]
    np.testing.assert_allclose(rebuilt[lower], expected, rtol=1e-13, atol=0.0)


@PROPERTY_SETTINGS
@given(cases())
def test_velocity_and_loss_match_dense_sums(case):
    kernel, grid, xi = case
    mid, dx = grid.midpoints, grid.widths
    K = dense_table(grid, kernel)
    gaps = np.append(np.diff(mid), 0.0)
    tables = KernelTables(grid, kernel)
    np.testing.assert_allclose(
        tables.velocity(xi), np.tril(K) @ (mid * dx * xi), rtol=1e-12, atol=0.0
    )
    np.testing.assert_allclose(tables.loss(xi), np.triu(K) @ (gaps * xi), rtol=1e-12, atol=0.0)


@PROPERTY_SETTINGS
@given(cases(), st.floats(2.0, 5.0))
def test_moment_pair_sum_matches_dense_sum(case, r):
    kernel, grid, xi = case
    mid = grid.midpoints
    omega = r * mid[:, None] ** (r - 1.0) * mid[None, :] - mid[None, :] ** r
    w = xi * grid.widths
    expected = w @ np.tril(omega * dense_table(grid, kernel), k=-1) @ w
    tables = KernelTables(grid, kernel)
    value = pair_sums(xi[None], tables, [Power(r)])[0][0, 0]
    assert value >= 0.0
    np.testing.assert_allclose(value, expected, rtol=1e-12, atol=0.0)
    for u, v in ((r * mid ** (r - 1.0) * w, mid * w), (w, mid**r * w)):
        assert tables.pair_sum(u, v) == per_term_strict_lower_sum(grid, kernel, u, v)


@PROPERTY_SETTINGS
@given(cases())
def test_summation_by_parts_identity_closes(case):
    kernel, grid, xi = case
    parts, dxi = stage(KernelTables(grid, kernel), xi)
    terms = grid.midpoints * dxi * grid.widths
    residual = abs(np.sum(terms) + parts.boundary_outflow_rate)
    gross = np.sum(np.abs(terms)) + abs(parts.boundary_outflow_rate)
    assert residual <= 1e-12 * gross or residual == 0.0


def per_term_pair_sums(grid, kernel, xi):
    """Drift and loss summed one separable term at a time, terms in order."""
    mid, dx = grid.midpoints, grid.widths
    gaps = np.append(np.diff(mid), 0.0)
    v, L = np.zeros_like(xi), np.zeros_like(xi)
    with np.errstate(over="ignore"):
        terms = kernel.separable_terms(mid)
    for a, b in terms:
        v += a * np.cumsum((b * mid * dx) * xi)
        L += b * np.cumsum(((a * gaps) * xi)[::-1])[::-1]
    return v, L


@PROPERTY_SETTINGS
@given(st.one_of(cases(), gapped_cases()))
def test_stacked_pair_sums_equal_the_per_term_loop(case):
    kernel, grid, xi = case
    tables = KernelTables(grid, kernel)
    v, L = per_term_pair_sums(grid, kernel, xi)
    assert np.array_equal(tables.velocity(xi), v, equal_nan=True)
    assert np.array_equal(tables.loss(xi), L, equal_nan=True)
    u = grid.midpoints * xi
    assert tables.pair_sum(u, xi) == per_term_strict_lower_sum(grid, kernel, u, xi)


@PROPERTY_SETTINGS
@given(gapped_cases())
def test_euler_step_at_the_support_aware_bound_stays_nonnegative(case):
    kernel, grid, xi = case
    state = State(t=0.0, xi=xi, gel_mass=0.0, grid=grid)
    # dt_max only matters for the zero kernel, which has no rate at all
    out = step_state(KernelTables(grid, kernel), state, math.inf, cfl=1.0, dt_max=1.0)
    assert np.min(out.xi) >= 0.0
    assert out.clamped_mass <= 1e-14 * moment(state, 1)


def cumsum_pair_sum(tables, u, v):
    """KernelTables.pair_sum in its np.cumsum/.sum form."""
    a, b = tables._terms
    terms = ((u * a)[:, 1:] * np.cumsum(b * v, axis=1)[:, :-1]).sum(axis=1)
    return float(np.cumsum(terms)[-1])


@PROPERTY_SETTINGS
@given(st.sampled_from([
    (1, ConstantKernel(1.5)),
    (1, ProductKernel(0.5)),
    (2, PowerSumKernel(1.0, 1.5)),
    (2, MassConservingKernel(1.0, 1.5, "zero", 0.5)),
    (2, MassConservingKernel(1.0, 1.5, "min", 0.5)),
    (2, MassConservingKernel(1.0, 2.0, "half_sum", 0.5)),
]), st.one_of(cases(), gapped_cases()))
def test_pair_sum_equals_the_cumsum_form_for_every_term_count(kernel_case, case):
    K, kernel = kernel_case
    _, grid, xi = case
    tables = KernelTables(grid, kernel)
    assert len(tables._terms[0]) == K
    u = grid.midpoints * xi
    assert tables.pair_sum(u, xi) == cumsum_pair_sum(tables, u, xi)


@pytest.mark.parametrize("u0, v0", [(1e200, 1e200), (np.inf, 1.0), (np.nan, 1.0), (1.0, -np.inf)])
def test_a_non_finite_pair_sum_fails_without_a_warning(u0, v0):
    grid = build("uniform", 4.0, 16)
    tables = KernelTables(grid, ConstantKernel(1e300))
    u, v = np.ones(16), np.ones(16)
    u[-1], v[0] = u0, v0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError, match="non-finite pair sum"):
            tables.pair_sum(u, v)


def per_record_pair_sums(densities, tables, test):
    """The (value, gross) rows of one whole-grid pair sum per record and term."""
    grid = tables.grid
    terms = test.pair_terms(grid.midpoints)
    rows = []
    for xi in densities:
        w = xi * grid.widths
        value = gross = 0.0
        for sign, u, v in terms:
            with np.errstate(over="ignore", invalid="ignore"):
                part = float(tables.pair_sum(u * w, v * w))
            value += sign * part
            gross += part
        rows.append((value, gross))
    return np.array(rows)


def per_record_moments(grid, densities, r):
    """The whole-grid ``moment`` of each record."""
    return [moment(State(t=0.0, xi=xi, gel_mass=0.0, grid=grid), r) for xi in densities]


def chain(n):
    """The lengths a prefix of an n-element row may cut to: its tree prefixes."""
    return sorted({tree_prefix(n, m) for m in range(n + 1)})


#: A kernel of every kind and two Psi, 1 or 2 terms.
REPLAY_KERNELS = [
    ConstantKernel(1.5), PowerSumKernel(1.0, 1.5),
    MassConservingKernel(1.0, 1.5, "min", 0.5), MassConservingKernel(1.0, 2.0, "half_sum", 0.5),
    ProductKernel(0.5),
]


@st.composite
def replays(draw):
    """A kernel of every kind, 1 or 2 terms, its tables, records on one grid
    whose last occupied cell ends a random cut, a tree-prefix cut or one cell
    past it, and a block size that puts 1 to 4 records in a block."""
    kernel = draw(st.sampled_from(REPLAY_KERNELS))
    R, N = draw(st.floats(0.5, 20.0)), draw(st.integers(2, 600))
    if draw(st.booleans()):
        grid = build("uniform", R, N)
    else:
        grid = build("geometric", R, N, draw(st.floats(1.001, 1.01)))
    ends = [p + d for p in chain(N) + chain(N - 1) for d in (0, 1) if p + d <= N]
    end = draw(st.one_of(st.integers(0, N), st.sampled_from(ends)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    densities = np.zeros((draw(st.integers(1, 9)), N))
    for k, xi in enumerate(densities):
        top = end if k == 0 else int(rng.integers(0, end + 1))  # record 0 reaches the end
        xi[:top] = rng.random(top) * (rng.random(top) < 0.8)
        if top and k == 0:
            xi[top - 1] = 1.0
    # a block holds 1 to 4 records of the cut, so the record counts cross block ends
    block_bytes = 8 * N * draw(st.integers(1, 4))
    return KernelTables(grid, kernel), densities, block_bytes


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@PROPERTY_SETTINGS
@given(replays(), st.one_of(st.builds(Power, st.floats(2.0, 5.0)),
                            st.builds(CappedIdentity, st.floats(0.05, 20.0))))
def test_blocked_prefix_pair_sums_equal_the_per_record_whole_grid_sums(replay, test):
    tables, densities, block_bytes = replay
    with mock.patch.object(moments, "BLOCK_BYTES", block_bytes):
        (sums,) = pair_sums(densities, tables, [test])
    assert bits(sums) == bits(per_record_pair_sums(densities, tables, test))


class UnreadInfinity(Power):
    """Power(r) with its gain's u factor infinite in cell 0, which no pair
    nu < mu reads as mu: the sums are finite, the factor is not."""

    def pair_terms(self, mid):
        (sign, u, v), loss = super().pair_terms(mid)
        u = u.copy()
        u[0] = np.inf
        return (sign, u, v), loss


pair_tests = st.one_of(
    st.builds(Power, st.sampled_from([2, 2.5, 3, 5])),
    st.builds(CappedIdentity, st.floats(0.05, 20.0)),
)


@PROPERTY_SETTINGS
@given(replays(), st.lists(pair_tests, min_size=1, max_size=5), st.booleans())
def test_multi_test_pair_sums_equal_each_tests_per_record_whole_grid_sums(
        replay, tests, unread_infinity):
    # Power orders share the gain's v factor, the midpoints; a test with a
    # factor that is not finite keeps the whole grid for every test
    tables, densities, block_bytes = replay
    if unread_infinity:
        tests.insert(len(tests) // 2, UnreadInfinity(3))
    with mock.patch.object(moments, "BLOCK_BYTES", block_bytes):
        sums = pair_sums(densities, tables, tests)
    assert len(sums) == len(tests)
    for test, each in zip(tests, sums):
        assert each.shape == (len(densities), 2)
        assert bits(each) == bits(per_record_pair_sums(densities, tables, test))


def test_pair_sums_of_no_records_are_empty():
    tables = KernelTables(build("uniform", 4.0, 16), ConstantKernel(1.0))
    sums = pair_sums(np.empty((0, 16)), tables, [Power(2), CappedIdentity(1.0)])
    assert [each.shape for each in sums] == [(0, 2), (0, 2)]


@PROPERTY_SETTINGS
@given(replays(), st.data())
def test_pair_sum_on_short_rows_equals_the_prefix_tables(replay, data):
    # the replay's grid and records, on tables of a kernel drawn here
    tables, densities, _ = replay
    grid, kernel = tables.grid, data.draw(st.sampled_from(REPLAY_KERNELS))
    N = grid.ncells
    n = data.draw(st.integers(2, N)) if N > 2 else N
    w = densities[:, :n] * grid.widths[:n]
    u = grid.midpoints[:n] * w
    prefix = KernelTables(SizeGrid(grid.edges[:n + 1]), kernel)
    assert bits(KernelTables(grid, kernel).pair_sum(u, w)) == bits(prefix.pair_sum(u, w))


@PROPERTY_SETTINGS
@given(replays())
def test_blocked_prefix_moments_equal_the_per_record_whole_grid_moments(replay):
    tables, densities, block_bytes = replay
    orders = (1, 2, 2.5, 3.0, 6)
    with mock.patch.object(moments, "BLOCK_BYTES", block_bytes):
        sums = stacked_moments(tables.grid, densities, orders)
    assert list(sums) == list(orders)
    for r in orders:
        assert bits(sums[r]) == bits(per_record_moments(tables.grid, densities, r))


@PROPERTY_SETTINGS
@given(replays(), st.sampled_from([np.inf, -np.inf, np.nan, 1e200]), st.data())
def test_a_non_finite_record_in_any_block_fails_the_pair_sums_without_a_warning(
        replay, bad, data):
    tables, densities, block_bytes = replay
    grid = tables.grid
    k = data.draw(st.integers(0, len(densities) - 1))
    cell = data.draw(st.integers(0, grid.ncells - 1))
    densities[k, cell] = bad
    if bad == 1e200:  # overflows only when it meets a pair: a second cell of it
        densities[k, data.draw(st.integers(0, grid.ncells - 1).filter(lambda c: c != cell))] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError, match="non-finite pair sum"):
            per_record_pair_sums(densities, tables, Power(2))
        with mock.patch.object(moments, "BLOCK_BYTES", block_bytes):
            with pytest.raises(NumericalFailureError, match="non-finite pair sum"):
                pair_sums(densities, tables, [Power(2)])


@pytest.mark.parametrize("extra", [-1, 0, 1, 65])
def test_pair_sums_cross_the_module_block_at_its_own_size(extra):
    # the bagland replay's cut: occupied cells end at 329 of 1024, so 505 cells
    grid = build("uniform", 8.0, 1024)
    tables = KernelTables(grid, PowerSumKernel(1.0, 1.5))
    rows = moments.BLOCK_BYTES // (8 * 505)
    rng = np.random.default_rng(rows + extra)
    densities = np.zeros((rows + extra, 1024))
    for xi in densities:
        xi[:329] = rng.random(329)
    assert bits(pair_sums(densities, tables, [Power(3)])[0]) == bits(
        per_record_pair_sums(densities, tables, Power(3)))
    assert bits(stacked_moments(grid, densities, (2,))[2]) == bits(
        per_record_moments(grid, densities, 2))


def test_a_prefix_sum_that_overflows_on_the_last_occupied_cell_still_fails():
    # cell 96 ends the support and 96 is a tree prefix of the 199 pairs; its
    # loss-term prefix sum overflows there, but only the pair with the empty
    # cell 97 above it reads that total, so the cut must keep cell 97
    grid = build("uniform", 400.0, 200)
    xi = np.zeros(200)
    xi[:96] = 1e-3
    xi[96] = 5e303 / grid.widths[96]
    tables = KernelTables(grid, ConstantKernel(1.0))
    assert tree_prefix(199, 96) == 96 and tree_prefix(199, 97) == 199
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError, match="non-finite pair sum"):
            per_record_pair_sums(xi[None], tables, Power(2))
        with pytest.raises(NumericalFailureError, match="non-finite pair sum"):
            pair_sums(xi[None], tables, [Power(2)])


def test_a_factor_row_that_overflows_past_the_support_keeps_the_whole_grid():
    # midpoints**5 overflows near the cutoff, where every record is empty:
    # inf * 0 there makes the whole-grid sums NaN, and a cut would hide it;
    # the moment pass fails on the overflowed power row itself
    grid = build("uniform", 1e62, 64)
    xi = np.zeros(64)
    xi[:3] = 1e-120
    state = State(t=0.0, xi=xi, gel_mass=0.0, grid=grid)
    tables = KernelTables(grid, ConstantKernel(1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(grid.power(5)[-1])
        with pytest.raises(NumericalFailureError, match="non-finite pair sum"):
            per_record_pair_sums(xi[None], tables, Power(5))
        for tests in ([Power(5)], [CappedIdentity(1.0), Power(2), Power(5)]):
            with pytest.raises(NumericalFailureError, match="non-finite pair sum"):
                pair_sums(xi[None], tables, tests)
        assert math.isnan(moment(state, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError, match="non-finite moment"):
            stacked_moments(grid, xi[None], (2, 5))
        with pytest.raises(NumericalFailureError, match="non-finite pair sum"):
            pair_sums(xi[None], tables, [Power(5)])
