"""Truncated size-domain partition, cell states, and initial-condition projection.

The size axis is truncated to [0, R] and partitioned by edges
0 = e_0 < e_1 < ... < e_N = R.  Cell i (0-based) spans [e_i, e_{i+1}] with
midpoint xbar_i and width dx_i; the solver and every quadrature in the
package work on these midpoints and widths.

``project_initial`` is mass-exact by construction: each cell receives the
exact mass of the initial condition restricted to that cell, and the cell
density is that mass divided by xbar_i * dx_i.  The first moment of the
projected state therefore equals the configured total mass to roundoff,
which gives the gelation diagnostics a clean baseline.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInputError, SupportOutsideDomainError


@dataclass(frozen=True, eq=False)
class SizeGrid:
    """Partition of [0, R]; immutable and shareable across workers."""

    edges: np.ndarray
    midpoints: np.ndarray = field(init=False, repr=False)
    widths: np.ndarray = field(init=False, repr=False)

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
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "midpoints", 0.5 * (edges[:-1] + edges[1:]))
        object.__setattr__(self, "widths", np.diff(edges))

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
        Width ratio for geometric grids, > 1.  The first width is chosen so
        the geometric sum of widths equals R.
    """
    if not (np.isfinite(R) and R > 0):
        raise InvalidInputError("grid cutoff R must be positive")
    N = int(N)
    if N < 2:
        raise InvalidInputError("grid needs N >= 2 cells")
    if kind == "uniform":
        return SizeGrid(np.linspace(0.0, R, N + 1))
    if kind == "geometric":
        if q is None or not (np.isfinite(q) and q > 1):
            raise InvalidInputError("geometric grid needs ratio q > 1")
        total = q**N - 1.0
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

    def domain_mass(self):
        """First moment over the domain; the solver's bookkept mass.

        This is the one summation every mass comparison in the package goes
        through, so equality checks against it are bit-for-bit.
        """
        g = self.grid
        return float(np.sum(g.midpoints * self.xi * g.widths))

    def cell_masses(self):
        g = self.grid
        return g.midpoints * self.xi * g.widths

    def copy(self):
        return replace(self, xi=self.xi.copy())

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

    a: float
    b: float
    mass: float


@dataclass(frozen=True)
class CellSpike:
    """All mass placed in a single cell."""

    index: int
    mass: float


@dataclass(frozen=True)
class TableDensity:
    """Piecewise-constant density given by its own edges and values."""

    edges: tuple
    values: tuple


def _overlap_first_moment(lo_edges, hi_edges, a, b):
    """Per-cell integral of mu over [e_i, e_{i+1}] ∩ [a, b]."""
    lo = np.clip(lo_edges, a, b)
    hi = np.clip(hi_edges, a, b)
    return 0.5 * (hi * hi - lo * lo)


def _cell_masses_for(grid, ic):
    lo, hi = grid.edges[:-1], grid.edges[1:]
    R = grid.cutoff
    if isinstance(ic, UniformOn):
        if not (0.0 <= ic.a < ic.b):
            raise InvalidInputError("uniform_on needs 0 <= a < b")
        if ic.b > R:
            raise SupportOutsideDomainError(
                "uniform_on support [%g, %g] exceeds cutoff R=%g" % (ic.a, ic.b, R)
            )
        if not (np.isfinite(ic.mass) and ic.mass > 0):
            raise InvalidInputError("initial mass must be positive")
        density = 2.0 * ic.mass / (ic.b**2 - ic.a**2)
        return density * _overlap_first_moment(lo, hi, ic.a, ic.b)
    if isinstance(ic, CellSpike):
        if not 0 <= ic.index < grid.ncells:
            raise InvalidInputError("cell_spike index %d out of range" % ic.index)
        if not (np.isfinite(ic.mass) and ic.mass > 0):
            raise InvalidInputError("initial mass must be positive")
        masses = np.zeros(grid.ncells)
        masses[ic.index] = ic.mass
        return masses
    if isinstance(ic, TableDensity):
        t_edges = np.asarray(ic.edges, dtype=float)
        values = np.asarray(ic.values, dtype=float)
        if t_edges.ndim != 1 or t_edges.size != values.size + 1:
            raise InvalidInputError("table needs len(edges) == len(values) + 1")
        if not np.all(np.diff(t_edges) > 0):
            raise InvalidInputError("table edges must be strictly increasing")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise InvalidInputError("table values must be finite and nonnegative")
        if t_edges[0] < 0 or t_edges[-1] > R:
            raise SupportOutsideDomainError(
                "table support [%g, %g] exceeds domain [0, %g]"
                % (t_edges[0], t_edges[-1], R)
            )
        masses = np.zeros(grid.ncells)
        for k, value in enumerate(values):
            if value == 0.0:
                continue
            masses += value * _overlap_first_moment(lo, hi, t_edges[k], t_edges[k + 1])
        if masses.sum() <= 0:
            raise InvalidInputError("table initial condition carries no mass")
        return masses
    raise InvalidInputError("unknown initial condition %r" % (ic,))


def project_initial(grid, ic):
    """Project an initial condition onto the grid, exactly preserving mass.

    Returns the t = 0 state with zero gel mass.  The per-cell masses are the
    analytic integrals of mu * density over each cell, so the projected first
    moment matches the configured total mass to roundoff.
    """
    masses = _cell_masses_for(grid, ic)
    xi = masses / (grid.midpoints * grid.widths)
    return State(t=0.0, xi=xi, gel_mass=0.0, grid=grid)


#: Initial-condition kinds and the keys each takes besides "kind".
IC_FIELDS = {
    "uniform_on": ("a", "b", "mass"),
    "cell_spike": ("index", "mass"),
    "table": ("edges", "values"),
}


def ic_from_config(cfg):
    """Build an initial-condition spec from its config mapping."""
    if not isinstance(cfg, dict) or cfg.get("kind") not in IC_FIELDS:
        raise InvalidInputError(
            "initial condition config must set 'kind' to one of %s" % sorted(IC_FIELDS)
        )
    kind = cfg["kind"]
    try:
        if kind == "uniform_on":
            return UniformOn(a=float(cfg["a"]), b=float(cfg["b"]), mass=float(cfg["mass"]))
        if kind == "cell_spike":
            return CellSpike(index=int(cfg["index"]), mass=float(cfg["mass"]))
        return TableDensity(edges=tuple(cfg["edges"]), values=tuple(cfg["values"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError("bad initial condition config %r: %s" % (cfg, exc)) from exc


def ic_to_config(ic):
    if isinstance(ic, UniformOn):
        return {"kind": "uniform_on", "a": ic.a, "b": ic.b, "mass": ic.mass}
    if isinstance(ic, CellSpike):
        return {"kind": "cell_spike", "index": ic.index, "mass": ic.mass}
    if isinstance(ic, TableDensity):
        return {"kind": "table", "edges": list(ic.edges), "values": list(ic.values)}
    raise InvalidInputError("unknown initial condition %r" % (ic,))
