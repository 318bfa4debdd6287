"""Truncated size-domain partition, cell states, and initial-condition projection.

The size axis is truncated to [0, R] and partitioned by edges
0 = e_0 < e_1 < ... < e_N = R.  Cell i (0-based) spans [e_i, e_{i+1}] with
midpoint xbar_i and width dx_i; the solver and every quadrature in the
package work on these midpoints and widths.

``project_initial`` is mass-exact by construction: each cell receives the
exact mass of the initial condition restricted to that cell, and the cell
density is that mass divided by xbar_i * dx_i.  The first moment of the
projected state therefore equals the configured total mass to roundoff,
which gives the gelation diagnostics a clean baseline.  Each initial
condition checks its values when built, so a bad config fails at load, and
computes those masses with ``cell_masses(grid)``, which checks only what
needs the grid.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True, eq=False)
class SizeGrid:
    """Partition of [0, R]; immutable and shareable across workers.

    ``power(r)`` caches the row midpoints**r per order, so every moment of
    every state on the grid is one multiply-reduce against a row built once.
    """

    edges: np.ndarray
    midpoints: np.ndarray = field(init=False, repr=False)
    widths: np.ndarray = field(init=False, repr=False)
    _powers: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        if edges.ndim != 1 or edges.size < 3:
            raise InvalidInputError("grid needs at least 2 cells (3 edges)")
        if not np.all(np.isfinite(edges)):
            raise InvalidInputError("grid edges must be finite")
        if edges[0] != 0.0:
            raise InvalidInputError("grid must start at size 0")
        if not np.all(np.diff(edges) > 0):
            raise InvalidInputError("grid edges must be strictly increasing")
        mid, widths = 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)
        mid.flags.writeable = widths.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "midpoints", mid)
        object.__setattr__(self, "widths", widths)
        self._powers[1] = mid

    def power(self, r):
        """midpoints**r, read-only, computed once per order; midpoints at r = 1."""
        row = self._powers.get(r)
        if row is None:
            row = self._powers[r] = self.midpoints**r
            row.flags.writeable = False
        return row

    @property
    def ncells(self):
        return self.edges.size - 1

    @property
    def cutoff(self):
        """Truncation size R = e_N."""
        return float(self.edges[-1])


def build(kind, R, N, q=None):
    """Build a uniform or geometric grid with e_0 = 0 and e_N = R.

    Parameters
    ----------
    kind : {"uniform", "geometric"}
    R : float
        Truncation size, > 0.
    N : int
        Cell count, >= 2.
    q : float, optional
        Width ratio for geometric grids, > 1, and for no other kind.  The
        first width is chosen so the geometric sum of widths equals R.

    A grid whose arrays numpy cannot allocate, or will not size, raises
    InvalidInputError.
    """
    if q is not None and kind != "geometric":
        raise InvalidInputError("grid ratio q applies only to a geometric grid")
    if not (np.isfinite(R) and R > 0):
        raise InvalidInputError("grid cutoff R must be positive")
    N = int(N)
    if N < 2:
        raise InvalidInputError("grid needs N >= 2 cells")
    try:
        return _build(kind, R, N, q)
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's largest size
        raise InvalidInputError(
            "grid of N = %.17g cells does not fit in memory: %s" % (N, exc)
        ) from exc


def _build(kind, R, N, q):
    if kind == "uniform":
        return SizeGrid(np.linspace(0.0, R, N + 1))
    if kind == "geometric":
        if q is None or not (np.isfinite(q) and q > 1):
            raise InvalidInputError("geometric grid needs ratio q > 1")
        try:
            with np.errstate(over="ignore"):  # a numpy float overflows to inf
                total = q**N - 1.0
        except OverflowError:  # a Python float raises
            total = np.inf
        if not np.isfinite(total):
            raise InvalidInputError("geometric grid overflows: reduce N or q")
        w0 = R * (q - 1.0) / total
        widths = w0 * q ** np.arange(N)
        edges = np.concatenate([[0.0], np.cumsum(widths)])
        edges[-1] = R
        return SizeGrid(edges)
    raise InvalidInputError("unknown grid kind %r" % (kind,))


@dataclass(eq=False)
class State:
    """Cell-averaged density xi over a grid at time t, plus exit bookkeeping.

    ``gel_mass`` is the cumulative mass advected through the cutoff R and
    ``clamped_mass`` the cumulative (tiny) mass created by clamping roundoff
    negatives back to zero.
    """

    t: float
    xi: np.ndarray
    gel_mass: float
    grid: SizeGrid
    clamped_mass: float = 0.0

    def validate(self):
        if self.xi.shape != self.grid.midpoints.shape:
            raise InvalidInputError("state density does not match its grid")
        if not np.all(np.isfinite(self.xi)):
            raise InvalidInputError("state density must be finite")
        if np.any(self.xi < 0):
            raise InvalidInputError("state density must be nonnegative")
        if self.gel_mass < 0 or not np.isfinite(self.gel_mass):
            raise InvalidInputError("gel mass must be finite and nonnegative")
        return self


@dataclass(frozen=True)
class UniformOn:
    """Constant density on [a, b] carrying the given total (first-moment) mass."""

    kind = "uniform_on"
    a: float
    b: float
    mass: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b):
            raise InvalidInputError("uniform_on needs 0 <= a < b")
        if not (np.isfinite(self.mass) and self.mass > 0):
            raise InvalidInputError("initial mass must be positive")
        if not np.isfinite(self.density()):
            raise InvalidInputError(
                "uniform_on mass %g on [%g, %g] needs a density past the float range"
                % (self.mass, self.a, self.b)
            )

    def density(self):
        """The density: the mass over the integral of mu on [a, b], inf where
        that integral underflows to 0."""
        span = 0.5 * (self.b**2 - self.a**2)
        return self.mass / span if span > 0 else np.inf

    def cell_masses(self, grid):
        if self.b > grid.cutoff:
            raise InvalidInputError(
                "uniform_on support [%g, %g] exceeds cutoff R=%g" % (self.a, self.b, grid.cutoff)
            )
        return _table_masses(grid, (self.a, self.b), (self.density(),))


@dataclass(frozen=True)
class CellSpike:
    """All mass placed in a single cell."""

    kind = "cell_spike"
    index: int
    mass: float

    def __post_init__(self):
        if self.index < 0:
            raise InvalidInputError("cell_spike index %d out of range" % self.index)
        if not (np.isfinite(self.mass) and self.mass > 0):
            raise InvalidInputError("initial mass must be positive")

    def cell_masses(self, grid):
        if self.index >= grid.ncells:
            raise InvalidInputError("cell_spike index %d out of range" % self.index)
        masses = np.zeros(grid.ncells)
        masses[self.index] = self.mass
        return masses


@dataclass(frozen=True)
class TableDensity:
    """Piecewise-constant density given by its own edges and values."""

    kind = "table"
    edges: tuple
    values: tuple

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if edges.ndim != 1 or edges.size != values.size + 1:
            raise InvalidInputError("table needs len(edges) == len(values) + 1")
        if not (edges[0] >= 0 and np.all(np.diff(edges) > 0)):
            raise InvalidInputError("table edges must be strictly increasing from at least 0")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise InvalidInputError("table values must be finite and nonnegative")

    def cell_masses(self, grid):
        if self.edges[-1] > grid.cutoff:
            raise InvalidInputError("table support [%g, %g] exceeds domain [0, %g]"
                                    % (self.edges[0], self.edges[-1], grid.cutoff))
        masses = _table_masses(grid, self.edges, self.values)
        if masses.sum() <= 0:
            raise InvalidInputError("table initial condition carries no mass")
        return masses


#: Initial conditions by their config "kind", and the type of any of them.
INITIAL_KINDS = {ic.kind: ic for ic in (UniformOn, CellSpike, TableDensity)}
InitialCondition = UniformOn | CellSpike | TableDensity


def _table_masses(grid, edges, values):
    """Per-cell integral of mu * density for a piecewise-constant density."""
    masses = np.zeros(grid.ncells)
    for a, b, value in zip(edges[:-1], edges[1:], values):
        lo, hi = np.clip(grid.edges[:-1], a, b), np.clip(grid.edges[1:], a, b)
        masses += value * (0.5 * (hi * hi - lo * lo))  # mu over [lo, hi]
    return masses


def project_initial(grid, ic):
    """Project an initial condition onto the grid, exactly preserving mass.

    Returns the t = 0 state with zero gel mass.  The per-cell masses are the
    analytic integrals of mu * density over each cell, so the projected first
    moment matches the configured total mass to roundoff.
    """
    masses = ic.cell_masses(grid)
    xi = masses / (grid.midpoints * grid.widths)
    return State(t=0.0, xi=xi, gel_mass=0.0, grid=grid)
