"""Closed-form references for the constant-kernel dynamics and brute-force checks.

For a unit-rate kernel and the uniform initial block (2/M on [0, M]), the
density stays uniform on a linearly growing support (Bagland 2005):

    xi(mu, t) = 2 / (M * (1 + t)**2)   for 0 <= mu <= M * (1 + t),  else 0.

The support reading [0, M*(1+t)] is the unique one that conserves the first
moment and matches the initial block, and the closed-form moments are

    M^r(t) = 2 * (M * (1 + t))**r / ((r + 1) * (1 + t)),

so M^1 = M for all t and M^0 = 2 / (1 + t).

``brute_force_weak_rhs`` re-evaluates the weak-form pair quadrature densely:
it builds the strict-lower pair table from fresh ``kernel.eval`` and
``varpi1`` calls on raw midpoints, once per call and in row blocks, and sums
every record against it.  It shares no tables, separable factors or
accumulation order with the O(N) path it cross-checks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

#: Byte budget of one row block of the oracle's pair table.
_BLOCK_BYTES = 4 * 2**20


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


def brute_force_weak_rhs(states, kernel, test):
    """Densely summed weak-form right side over recorded states.

    Builds the strict-lower pair table
    ``W[i, j] = test.varpi1(mid_i, mid_j) * kernel.eval(mid_i, mid_j)``
    (``j < i``) once, with the kernel called afresh on raw midpoints and no
    separable factors, over the cells up to the largest one occupied in any
    record.  It is built in row blocks of at most ``_BLOCK_BYTES`` each, and
    every record ``x = xi * dx`` is summed against each block by one matmul,
    as ``x @ W @ x``.  The time integral uses the trapezoid rule over the
    records' own times.  Serves as the independent oracle for the weak-form
    quadrature of ``moments.weak_rhs_quadrature``.

    Every record must share one grid; mixed grids raise ``InvalidInputError``.
    """
    if len(states) < 2:
        return 0.0
    grid = states[0].grid
    if any(st.grid is not grid and not np.array_equal(st.grid.edges, grid.edges)
           for st in states[1:]):
        raise InvalidInputError("brute-force weak form needs every record on one grid")
    held = np.zeros(grid.ncells, dtype=bool)
    for st in states:
        np.logical_or(held, st.xi, out=held)
    n = int(np.max(np.flatnonzero(held), initial=-1)) + 1
    if n < 2:
        return 0.0
    mid = grid.midpoints[:n]
    X = np.array([st.xi[:n] for st in states]) * grid.widths[:n]
    sums = np.zeros(len(states))
    rows = max(1, _BLOCK_BYTES // (8 * n))
    for a in range(1, n, rows):
        b = min(a + rows, n)
        mu, nu = mid[a:b, None], mid[None, :b]
        # block row r is cell a + r, so tril with k = a - 1 keeps exactly j < i
        block = np.tril(test.varpi1(mu, nu) * kernel.eval(mu, nu), k=a - 1)
        sums += np.sum((X[:, :b] @ block.T) * X[:, a:b], axis=1)
    return float(np.trapezoid(sums, [st.t for st in states]))
