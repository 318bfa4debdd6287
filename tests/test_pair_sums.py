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
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohslab import ConstantKernel, MassConservingKernel, PowerSumKernel, ProductKernel
from ohslab.errors import NumericalFailureError
from ohslab.grid import State, build
from ohslab.moments import Power, moment, pair_sums
from ohslab.solver import KernelTables

from conftest import stage, step_state

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
    value = pair_sums([State(t=0.0, xi=xi, gel_mass=0.0, grid=grid)], tables, Power(r))[0, 0]
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
    (2, PowerSumKernel(1.0, 1.5)),
    (3, MassConservingKernel(1.0, 1.5, "min", 0.5)),
    (4, MassConservingKernel(1.0, 2.0, "half_sum", 0.5)),
]), st.one_of(cases(), gapped_cases()))
def test_pair_sum_equals_the_cumsum_form_for_one_to_four_terms(kernel_case, case):
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
