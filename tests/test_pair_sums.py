"""Separable pair sums against dense pair tables built here, on random inputs.

The solver's drift and loss and the moment-evolution quadrature sum the
kernel over one triangle of midpoint pairs through the kernels' separable
factors.  These properties compare them with the direct N x N sums, for every
kernel kind and every Psi, on random uniform and geometric grids and random
nonnegative densities (with zeros and single spikes).  Drawn magnitudes are
either zero or at least 1e-6, so no sum reaches the subnormal range, where
relative precision is lost whatever the summation order.

The stacked (K, N) drift and loss are also checked bit for bit against the
per-term loop they replace, and the support-aware step bound against the
positivity it promises on densities with interior gaps.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ohslab import ConstantKernel, MassConservingKernel, PowerSumKernel, ProductKernel
from ohslab.grid import State, build
from ohslab.moments import moment_rhs
from ohslab.solver import KernelTables, rhs, stable_dt, step

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
    value = moment_rhs(State(t=0.0, xi=xi, gel_mass=0.0, grid=grid), kernel, r)
    assert value >= 0.0
    np.testing.assert_allclose(value, expected, rtol=1e-12, atol=0.0)


@PROPERTY_SETTINGS
@given(cases())
def test_summation_by_parts_identity_closes(case):
    kernel, grid, xi = case
    parts, dxi = rhs(State(t=0.0, xi=xi, gel_mass=0.0, grid=grid), kernel)
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


@PROPERTY_SETTINGS
@given(gapped_cases())
def test_euler_step_at_the_support_aware_bound_stays_nonnegative(case):
    kernel, grid, xi = case
    state = State(t=0.0, xi=xi, gel_mass=0.0, grid=grid)
    parts, k1 = rhs(state, kernel)
    # dt_max only matters for the zero kernel, which has no rate at all
    dt = stable_dt(state, parts, cfl=1.0, dt_max=1.0)
    out = step(state, kernel, dt, first_stage=(parts, k1))
    assert np.min(out.xi) >= 0.0
    assert out.clamped_mass <= 1e-14 * state.domain_mass()
