"""Closed-form references for the constant-kernel dynamics and brute-force checks.

For a unit-rate kernel and the uniform initial block (2/M on [0, M]), the
density stays uniform on a linearly growing support (Bagland 2005):

    xi(mu, t) = 2 / (M * (1 + t)**2)   for 0 <= mu <= M * (1 + t),  else 0.

The support reading [0, M*(1+t)] is the unique one that conserves the first
moment and matches the initial block, and the closed-form moments are

    M^r(t) = 2 * (M * (1 + t))**r / ((r + 1) * (1 + t)),

so M^1 = M for all t and M^0 = 2 / (1 + t).

``brute_force_weak_rhs`` re-evaluates the weak-form pair quadrature by direct
per-row summation with fresh kernel evaluations; it shares no tables, separable
factors or accumulation order with the O(N) path it cross-checks.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError
from .grid import UniformOn, project_initial


@dataclass(frozen=True)
class BaglandSolution:
    """Constant-kernel explicit solution with total mass M."""

    M: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.M) and self.M > 0):
            raise InvalidInputError("explicit solution needs mass M > 0")

    def support_end(self, t):
        return self.M * (1.0 + t)

    def density(self, mu, t):
        """Density at size mu and time t >= 0."""
        mu = np.asarray(mu, dtype=float)
        value = 2.0 / (self.M * (1.0 + t) ** 2)
        out = np.where(mu <= self.support_end(t), value, 0.0)
        if out.ndim == 0:
            return float(out)
        return out

    def moment(self, r, t):
        """Closed-form r-th moment at time t."""
        if r < 0:
            raise InvalidInputError("closed-form moments need r >= 0")
        return 2.0 * (self.M * (1.0 + t)) ** r / ((r + 1.0) * (1.0 + t))

    def cell_averages(self, grid, t):
        """Exact per-cell averages of the density at time t."""
        s = self.support_end(t)
        value = 2.0 / (self.M * (1.0 + t) ** 2)
        lo = np.minimum(grid.edges[:-1], s)
        hi = np.minimum(grid.edges[1:], s)
        return value * (hi - lo) / grid.widths


def l1_error(state, sol):
    """L1 distance between a state and the explicit solution at the same time.

    Compares against exact cell averages, so a state projected from the
    solution itself differs only in the cell containing the support edge.
    """
    avg = sol.cell_averages(state.grid, state.t)
    return float(np.sum(np.abs(state.xi - avg) * state.grid.widths))


def project_state(sol, grid, t):
    """Mass-exact projection of the explicit solution onto a grid at time t.

    The growing support must still fit inside the cutoff.
    """
    s = sol.support_end(t)
    state = project_initial(grid, UniformOn(a=0.0, b=s, mass=sol.M))
    return replace(state, t=float(t))


def brute_force_weak_rhs(states, kernel, test):
    """Directly-summed weak-form right side over recorded states.

    O(N^2) per record: for each cell the pair terms against all smaller cells
    are evaluated and summed row by row, with the kernel called afresh on raw
    midpoints.  The time integral uses the trapezoid rule over the records'
    own times.  Serves as the independent oracle for the weak-form quadrature
    of ``moments.weak_rhs_quadrature``.
    """
    if len(states) < 2:
        return 0.0
    times = np.array([st.t for st in states])
    sums = np.empty(len(states))
    for k, st in enumerate(states):
        grid = st.grid
        mid, dx, xi = grid.midpoints, grid.widths, st.xi
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
    return float(np.trapezoid(sums, times))
