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
every row of a run's ``densities``, one per record, against it.  It finds
the occupied cells itself and shares no tables, separable factors or
accumulation order with the O(N) path it cross-checks.  Its matmuls are
small enough that OpenBLAS runs each on the calling thread: a threaded one
leaves a worker spinning after it returns, burning a second core, and in a
fresh process runs several times slower for about its first second.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

#: Byte budget of one row block of the oracle's pair table.
_BLOCK_BYTES = 4 * 2**20

#: Multiply-adds of one matmul of the oracle, at most.  OpenBLAS runs a gemm
#: of up to 65536 * GEMM_MULTITHREAD_THRESHOLD (default 4) = 2**18 of them on
#: the calling thread; the OpenBLAS 0.3.31 that numpy 2.4 ships first threads
#: one between 0.83 M and 1.03 M on a 2-core x86-64 host, and its idle worker
#: then spins for about 0.1 s of CPU.
_MATMUL_MADDS = 2**18


@dataclass(frozen=True)
class BaglandSolution:
    """Constant-kernel explicit solution with total mass M."""

    M: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.M) and self.M > 0):
            raise InvalidInputError("explicit solution needs mass M > 0")

    def support_end(self, t):
        return self.M * (1.0 + t)

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


def brute_force_weak_rhs(grid, times, densities, kernel, test):
    """Densely summed weak-form right side over the records of a run.

    ``densities`` has one row per record on ``grid``, taken at ``times``.

    Builds the strict-lower pair table
    ``W[i, j] = test.varpi1(mid_i, mid_j) * kernel.eval(mid_i, mid_j)``
    (``j < i``) once, with the kernel called afresh on raw midpoints and no
    separable factors, over the cells up to the largest one occupied in any
    record.  It is built in row blocks of at most ``_BLOCK_BYTES`` each, and
    every record ``x = xi * dx`` is summed against each block, as
    ``x @ W @ x``, by matmuls of at most ``_MATMUL_MADDS`` multiply-adds
    (``_contract``), each one OpenBLAS runs on the calling thread.  The time
    integral uses the trapezoid rule over ``times``.  Serves as the
    independent oracle for the weak-form quadrature of
    ``moments.weak_rhs_quadrature``.
    """
    if len(densities) < 2:
        return 0.0
    n = int(np.max(np.flatnonzero(np.any(densities, axis=0)), initial=-1)) + 1
    if n < 2:
        return 0.0
    mid = grid.midpoints[:n]
    X = densities[:, :n] * grid.widths[:n]
    sums = np.zeros(len(densities))
    rows = max(1, _BLOCK_BYTES // (8 * n))
    for a in range(1, n, rows):
        b = min(a + rows, n)
        mu, nu = mid[a:b, None], mid[None, :b]
        # block row r is cell a + r, so tril with k = a - 1 keeps exactly j < i
        block = np.tril(test.varpi1(mu, nu) * kernel.eval(mu, nu), k=a - 1)
        out = np.empty((len(densities), b - a))
        _contract(X[:, :b], block.T, out, a - 1)
        sums += np.sum(out * X[:, a:b], axis=1)
    return float(np.trapezoid(sums, times))


def _contract(x, w, out, lead):
    """out = x @ w, by matmuls of at most ``_MATMUL_MADDS`` multiply-adds each.

    Column j of w (a block row of the strict-lower table) is zero past inner
    index lead + j, so a chunk of columns reads the inner axis only up to
    where its last column's entries end.  A matmul takes a chunk of rows of
    x (records) against a chunk of columns of w, about as many of each and
    at least two: one record against one block row would be a ddot, which
    OpenBLAS threads from 10,001 elements.  Past 2**16 inner cells even a
    2 x 2 chunk would pass the bound, so each chunk is also summed over
    slices of the inner axis of at most 2**16.
    """
    (m, k), p = x.shape, w.shape[1]
    step = min(k, _MATMUL_MADDS // 4)
    records = _chunks(m, max(2, math.isqrt(_MATMUL_MADDS // step)))
    size = records[0].stop - records[0].start
    for j in _chunks(p, max(2, _MATMUL_MADDS // (size * step))):
        xj, wj = x[:, :lead + j.stop], w[:lead + j.stop, j]
        for i in records:
            np.matmul(xj[i, :step], wj[:step], out=out[i, j])
            for s in range(step, xj.shape[1], step):
                out[i, j] += np.matmul(xj[i, s:s + step], wj[s:s + step])


def _chunks(total, most):
    """Equal slices of at most ``most`` (>= 2) items that cover range(total).

    The last slice ends at total and overlaps the one before it where the
    sizes do not divide total, so no slice is shorter than two items unless
    total is.
    """
    count = -(-total // most)
    size = -(-total // count)
    return [slice(start, start + size)
            for start in (min(i * size, total - size) for i in range(count))]
