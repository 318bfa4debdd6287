"""Grid construction and mass-exact initial projection."""
import numpy as np
import pytest

from conftest import moment

from ohslab.config import from_section, to_section
from ohslab.errors import InvalidInputError
from ohslab.grid import (
    INITIAL_KINDS,
    CellSpike,
    SizeGrid,
    TableDensity,
    UniformOn,
    build,
    project_initial,
)


def test_uniform_edges_exact():
    grid = build("uniform", 1.0, 4)
    assert np.array_equal(grid.edges, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(grid.widths, np.full(4, 0.25))


def test_geometric_widths():
    grid = build("geometric", 7.0, 3, q=2.0)
    assert np.array_equal(grid.edges, [0.0, 1.0, 3.0, 7.0])
    assert np.array_equal(grid.widths, [1.0, 2.0, 4.0])


@pytest.mark.parametrize("q", [1.05, 1.5, 2.0])
@pytest.mark.parametrize("N", [16, 64])
def test_geometric_ratio_invariant(q, N):
    grid = build("geometric", 10.0, N, q=q)
    ratios = grid.widths[1:] / grid.widths[:-1]
    assert np.max(np.abs(ratios - q) / q) < 1e-12
    assert grid.edges[-1] == 10.0


def test_build_validation():
    with pytest.raises(InvalidInputError):
        build("uniform", 0.0, 4)
    with pytest.raises(InvalidInputError):
        build("uniform", 1.0, 1)
    with pytest.raises(InvalidInputError):
        build("geometric", 1.0, 4, q=1.0)
    with pytest.raises(InvalidInputError):
        build("geometric", 1.0, 4)
    with pytest.raises(InvalidInputError):
        build("chebyshev", 1.0, 4)


@pytest.mark.parametrize("q", [2.0, np.float64(2.0)])
def test_geometric_grid_that_overflows_is_invalid_input(q):
    # 2**2000 overflows a float: a Python float raises, numpy's reads inf
    with pytest.raises(InvalidInputError, match="geometric grid overflows: reduce N or q"):
        build("geometric", 8.0, 2000, q=q)


def test_rebuild_from_edges_is_bitwise_identical():
    grid = build("geometric", 5.0, 40, q=1.3)
    clone = SizeGrid(grid.edges.copy())
    assert np.array_equal(clone.midpoints, grid.midpoints)
    assert np.array_equal(clone.widths, grid.widths)


def test_grid_validation():
    with pytest.raises(InvalidInputError):
        SizeGrid(np.array([0.0, 1.0]))  # one cell
    with pytest.raises(InvalidInputError):
        SizeGrid(np.array([0.1, 0.5, 1.0]))  # must start at zero
    with pytest.raises(InvalidInputError):
        SizeGrid(np.array([0.0, 0.5, 0.5, 1.0]))


def test_project_block_matches_explicit_initial_density():
    # density 2 on [0, 1), zero beyond; edge lands exactly on a grid edge
    grid = build("uniform", 4.0, 400)
    state = project_initial(grid, UniformOn(0.0, 1.0, 1.0))
    inside = grid.midpoints < 1.0
    assert np.max(np.abs(state.xi[inside] - 2.0)) < 1e-12
    assert np.all(state.xi[~inside] == 0.0)
    assert abs(moment(state, 1) - 1.0) < 1e-12
    assert state.t == 0.0 and state.gel_mass == 0.0


def test_project_uniform_on_density_value():
    # c solves the first-moment constraint: c = 1 / 0.375 = 8/3 on [0.5, 1]
    grid = build("uniform", 4.0, 400)
    state = project_initial(grid, UniformOn(0.5, 1.0, 1.0))
    inside = (grid.midpoints > 0.5) & (grid.midpoints < 1.0)
    assert np.max(np.abs(state.xi[inside] - 8.0 / 3.0)) < 1e-12
    assert abs(moment(state, 1) - 1.0) < 1e-12


def test_project_cell_spike_mass_exact():
    # power-of-two cell geometry makes the round trip exact
    grid = build("uniform", 4.0, 2)
    state = project_initial(grid, CellSpike(0, 1.0))
    assert moment(state, 1) == 1.0
    assert np.all(state.xi[1:] == 0.0)

    generic = build("uniform", 3.0, 7)
    state = project_initial(generic, CellSpike(3, 2.5))
    assert abs(moment(state, 1) - 2.5) < 1e-12 * 2.5


def test_project_table_masses():
    grid = build("uniform", 4.0, 256)
    ic = TableDensity(edges=(0.5, 1.0, 2.0), values=(2.0, 0.5))
    state = project_initial(grid, ic)
    # total first moment: 2*(1-0.25)/2 + 0.5*(4-1)/2 = 1.5
    assert abs(moment(state, 1) - 1.5) < 1e-12
    # misaligned table edges still land their mass in the right cells
    cell_masses = grid.midpoints * state.xi * grid.widths
    left_mass = np.sum(cell_masses[grid.midpoints < 1.0])
    assert abs(left_mass - 0.75) < 1e-12


def test_project_rejects_support_outside_domain():
    grid = build("uniform", 4.0, 16)
    with pytest.raises(InvalidInputError, match=r"uniform_on support \[3, 5\] exceeds cutoff R=4"):
        project_initial(grid, UniformOn(3.0, 5.0, 1.0))
    with pytest.raises(InvalidInputError, match=r"table support \[3, 5\] exceeds domain \[0, 4\]"):
        project_initial(grid, TableDensity(edges=(3.0, 5.0), values=(1.0,)))


def test_project_rejects_bad_mass_and_index():
    grid = build("uniform", 4.0, 16)
    with pytest.raises(InvalidInputError):
        project_initial(grid, UniformOn(0.0, 1.0, 0.0))
    with pytest.raises(InvalidInputError):
        project_initial(grid, UniformOn(0.0, 1.0, -2.0))
    with pytest.raises(InvalidInputError):
        project_initial(grid, CellSpike(16, 1.0))
    with pytest.raises(InvalidInputError):
        project_initial(grid, UniformOn(1.0, 1.0, 1.0))


def test_state_validate_rejects_bad_density():
    grid = build("uniform", 1.0, 4)
    state = project_initial(grid, UniformOn(0.0, 1.0, 1.0))
    state.xi[2] = -1.0
    with pytest.raises(InvalidInputError):
        state.validate()
    state.xi[2] = np.nan
    with pytest.raises(InvalidInputError):
        state.validate()


def test_ic_config_roundtrip():
    for ic in (
        UniformOn(0.5, 1.0, 1.0),
        CellSpike(3, 2.0),
        TableDensity(edges=(0.0, 1.0, 2.0), values=(1.0, 0.5)),
    ):
        assert from_section(INITIAL_KINDS, to_section(ic), "initial") == ic
    with pytest.raises(InvalidInputError):
        from_section(INITIAL_KINDS, {"kind": "gaussian"}, "initial")
    with pytest.raises(InvalidInputError):
        from_section(INITIAL_KINDS, {"kind": "uniform_on", "a": 0.0}, "initial")
