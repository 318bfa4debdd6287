"""Finite-volume time integrator with exact discrete mass bookkeeping.

The model advects particles up the size axis with the nonlocal drift

    v(mu) = integral_0^mu  nu * Lambda(mu, nu) * xi(nu) d(nu)

while larger particles absorb them at rate

    L(mu) = integral_mu^R  Lambda(mu, nu) * xi(nu) d(nu).

On a grid with midpoints xbar_i and widths dx_i the semi-discrete form is

    v_{i+1/2} = sum_{j <= i} xbar_j * Lambda(xbar_i, xbar_j) * xi_j * dx_j
    L_j       = sum_{j <= i <= N-2} (xbar_{i+1} - xbar_i) * Lambda(xbar_i, xbar_j) * xi_i
    F_{i+1/2} = v_{i+1/2} * xi_i                      (upwind, v >= 0)
    dxi_i/dt  = -(F_{i+1/2} - F_{i-1/2}) / dx_i - xi_i * L_i

with no inflow through the left boundary at size zero.  The loss weights
(xbar_{i+1} - xbar_i) are not the cell widths: they are chosen so that the
advective mass gain cancels the loss-term mass exactly under summation by
parts.  The only mass sink is then the boundary flux, accumulated as

    gel_rate = xbar_{N-1} * F_{N-1/2, right}

so domain mass plus gel mass is constant to roundoff for any explicit
Runge-Kutta combination of these right-hand sides.  Velocity and loss share
the kernel values at midpoint pairs (including the self pair j = i in the
drift and i = j in the loss), which is exactly the pairing that closes the
identity; the consistency error of either quadrature is first order.

Both sums run over one triangle of midpoint pairs (j <= i), where every
kernel is separable, Lambda(xbar_i, xbar_j) = sum_k a_k[i] * b_k[j]
(``Kernel.separable_terms``).  The drift is then a forward and the loss a
reversed prefix sum,

    v_{i+1/2} = sum_k a_k[i] * cumsum(b_k * xbar * dx * xi)[i]
    L_j       = sum_k b_k[j] * revcumsum(a_k * gaps * xi)[j],

so a right-hand side costs O(N) time and memory (a handful of terms per
kernel) instead of two dense N x N matrix-vector products.  Since all factors
are nonnegative the sums carry no cancellation.  The moment and weak-form
quadratures (``moments.pair_sums``) sum over the same factors, built once
per run, through ``KernelTables.pair_sum``.

A step allocates little beyond what it returns.  ``KernelTables`` keeps a
scratch array for the prefix sums, which runs two of them per complex add,
and the edge fluxes with their zero inflow set once; ``step`` writes the
Euler update into the k1 array it is handed; the finiteness test and the
clamp test are one pass each.  The arrays ``rhs`` returns are new, so a
later call leaves them alone.  The scratch makes a ``KernelTables`` unsafe
to share between threads: each run, and so each sweep row in its worker,
builds its own.

The Euler update of cell i is

    xi_i * (1 - dt * (v_{i+1/2}/dx_i + L_i)) + dt * v_{i-1/2} * xi_{i-1} / dx_i,

so dt <= cfl / max_i(v_{i+1/2}/dx_i + L_i) with cfl <= 1 keeps every cell
nonnegative.  The maximum only needs the occupied cells: an empty cell's own
rate multiplies zero.  ``stable_dt`` takes it over the cells with xi_i > 0,
xi_{i-1} > 0 or xi_{i-2} > 0; the second cell of margin covers the cell a
Heun predictor fills above the support.  Empty cells far above the support,
where an unbounded kernel makes v/dx largest, then no longer shrink the
step; since the upwind front moves one cell per step, fewer steps also leave
less spurious mass ahead of it.  On a uniform grid with contiguous support
and a constant kernel the maximum lies inside the support, so the bound
equals the global one bit for bit.

``run`` steps only an active window, the grid of the first n cells
(``KernelTables.prefix``), with n = N once the window reaches the top.  A
stage moves the upwind front at most one cell, since a cell's update reads
only itself and the cell below, so the shortest window whose top two cells
are empty (the last occupied cell + 3 cells at the start) grows by at most
the stage count each step (1 for Euler, 2 for Heun): a bound on it needs no
search.  The window ends up to WINDOW_SLACK cells above that bound and is
extended when the bound reaches its end, so its top two cells, and every
cell above it, are empty.  The whole grid's step is then exactly the
window's step padded with empty cells: the window's midpoints, widths and
factors are the whole grid's, but for the top cell's loss gap, which
multiplies that empty cell either way; the reversed loss sum over the empty
cells above adds only +0.0; the flux out of the window's top cell, and with
it the boundary outflow, is 0.0; and the whole grid's update above the
window is exactly 0.0.  Every result is therefore the whole grid's bit for
bit, and a step costs O(n), not O(N).  Only ``run`` knows of the window: it
moves the state onto the window's grid and pads it back to N cells at every
record; ``rhs``, ``stable_dt`` and ``step`` work on whole arrays of the
grid they are given.

Negative cells from roundoff are clamped to zero with the created mass
logged; a run fails once the cumulative clamped mass exceeds CLAMP_BUDGET
times the initial mass, which separates roundoff from genuine instability.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .grid import SizeGrid, State, project_initial
from .moments import MomentSeries

logger = logging.getLogger(__name__)

#: Relative clamped-mass budget before a run is declared unstable.
CLAMP_BUDGET = 1e-8

#: Empty cells the active window runs ahead of the front, so its tables are
#: rebuilt once per this many cells of front motion instead of every step.
WINDOW_SLACK = 32


@dataclass(eq=False)
class RhsParts:
    """Pieces of one right-hand-side evaluation (per right edge / per cell)."""

    velocity: np.ndarray
    loss: np.ndarray
    boundary_outflow_rate: float


class KernelTables:
    """Separable kernel factors for one (grid, kernel) pair, built once per run.

    Holds the state-independent weights of the drift prefix sums
    (a_k, b_k * xbar * dx) and of the reversed loss prefix sums
    (b_k, a_k * gaps), one per term k of ``kernel.separable_terms``.  Each
    ``velocity``/``loss``/``pair_sum`` call is one prefix sum per term and the
    terms added in order.  Setup, memory and each call are O(N).

    ``velocity`` and ``loss`` sum in a preallocated (N, K) scratch array, one
    column per term, and ``rhs`` puts its edge fluxes in a preallocated array,
    so one right-hand side allocates only the arrays it returns.  Adjacent
    columns are paired into one complex column: a complex add is two
    independent float adds, so one ``np.add.accumulate`` advances two prefix
    sums per element with the same bits as two.  An odd K > 1 gets a zero
    column as its partner.  The scratch makes a table unsafe to share between
    threads: every run builds its own.

    Setup evaluates the kernel on the diagonal pairs (xbar_i, xbar_i).  Every
    built-in kernel takes its largest midpoint-pair value on the diagonal, so
    a grid on which the kernel overflows raises ``EvaluationOverflowError``
    here, exactly where a dense pair table would have overflowed.
    """

    def __init__(self, grid, kernel):
        mid = grid.midpoints
        kernel.eval(mid, mid)
        with np.errstate(over="ignore"):
            terms = kernel.separable_terms(mid)
            a = np.array([np.broadcast_to(f, mid.shape) for f, _ in terms], dtype=float)
            b = np.array([np.broadcast_to(f, mid.shape) for _, f in terms], dtype=float)
        self._lay_out(grid, a, b)

    def _lay_out(self, grid, a, b):
        """Set the weights, scratch and fluxes for the factor rows a, b on grid."""
        mid, dx = grid.midpoints, grid.widths
        self.grid = grid
        self._terms = (a, b)
        gaps = np.zeros_like(mid)
        gaps[:-1] = mid[1:] - mid[:-1]
        K = len(a)
        # A single term stays real: a zero partner costs more than pairing saves.
        width = K + K % 2 if K > 1 else 1
        # The outer factors in the scratch's layout; a padding column stays zero.
        outer = np.zeros((2, mid.size, width))
        outer[0, :, :K], outer[1, :, :K] = a.T, b.T
        self._drift = (outer[0], tuple(b * mid * dx))
        self._loss = (outer[1], tuple(a * gaps))
        self._scratch = scratch = np.zeros((mid.size, width))
        self._columns = tuple(scratch[:, k] for k in range(K))
        chains = scratch.view(np.complex128) if width > 1 else scratch
        self._forward, self._backward = chains, chains[::-1]
        # Edge fluxes with the zero inflow at size 0 in front: flux[i + 1] = F_{i+1/2}.
        flux = np.zeros(mid.size + 1)
        self._inflow, self._outflow = flux[:-1], flux[1:]
        self._absorbed = np.empty(mid.size)
        self._zeros = np.zeros(mid.size)

    def prefix(self, n):
        """The tables of the grid of the first n cells; these tables at n = N.

        The factor rows are reused, with no kernel call; the scratch and
        fluxes are new.
        """
        if n == self.grid.ncells:
            return self
        a, b = self._terms
        tables = object.__new__(KernelTables)
        tables._lay_out(SizeGrid(self.grid.edges[:n + 1]), a[:, :n], b[:, :n])
        return tables

    def velocity(self, xi):
        return self._sum_terms(self._drift, xi, self._forward)

    def loss(self, xi):
        return self._sum_terms(self._loss, xi, self._backward)

    def _sum_terms(self, factors, xi, chains):
        """A new array: sum_k outer_k * prefix-sum(inner_k * xi), the terms in order.

        ``chains`` is the paired scratch (forward sums) or its reversed view
        (backward sums); the terms are added as ``sum(axis=0)`` adds rows.
        """
        outer, inner = factors
        columns = self._columns
        for factor, column in zip(inner, columns):
            np.multiply(factor, xi, out=column)
        np.add.accumulate(chains, axis=0, out=chains)
        np.multiply(outer, self._scratch, out=self._scratch)
        total = columns[0].copy()
        for column in columns[1:]:
            np.add(total, column, out=total)
        return total

    def pair_sum(self, u, v):
        """sum over pairs j < i of u_i * Lambda(xbar_i, xbar_j) * v_j.

        An exclusive prefix sum per term; the term totals are added in order.
        It leaves the scratch alone, so it may run between ``rhs`` calls.
        """
        a, b = self._terms
        terms = np.add.reduce((u * a)[:, 1:] * np.add.accumulate(b * v, axis=1)[:, :-1], axis=1)
        return float(np.add.accumulate(terms)[-1])


def rhs(tables, xi):
    """Full right-hand side at density xi: (RhsParts, dxi/dt).

    Satisfies sum_i xbar_i * dxi_i * dx_i + boundary_outflow_rate = 0 to
    roundoff on every admissible state (summation-by-parts identity).  The
    returned arrays are new; only the tables' scratch is reused.
    """
    v = tables.velocity(xi)
    L = tables.loss(xi)
    outflow = tables._outflow
    np.multiply(v, xi, out=outflow)
    dxi = np.subtract(tables._inflow, outflow)
    np.divide(dxi, tables.grid.widths, out=dxi)
    absorbed = tables._absorbed
    np.multiply(xi, L, out=absorbed)
    np.subtract(dxi, absorbed, out=dxi)
    # The outflow F[-1] enters dxi[-1] (L, xi >= 0), so this also catches it.
    if not _all_finite(dxi, tables):
        raise NumericalFailureError("non-finite right-hand side")
    out = float(tables.grid.midpoints[-1] * outflow[-1])
    return RhsParts(velocity=v, loss=L, boundary_outflow_rate=out), dxi


def stable_dt(state, parts, cfl, dt_max=math.inf):
    """Positivity-preserving step bound cfl / max_i(v_{i+1/2}/dx_i + L_i).

    The maximum runs over the cells that hold mass or lie within two cells
    above a cell that does (xi_i > 0, xi_{i-1} > 0 or xi_{i-2} > 0).  An
    empty cell's own rate multiplies zero in the Euler update, so it cannot
    drive the cell negative; the two-cell margin covers the cell a Heun
    predictor fills.  An empty state has no rate; the configured dt_max is
    returned instead.
    """
    if not (0 < cfl <= 1):
        raise InvalidInputError("cfl must lie in (0, 1]")
    xi = state.xi
    # occupied[i + 2] = xi_i > 0, behind two empty cells below the grid.
    occupied = np.zeros(xi.size + 2, dtype=bool)
    np.greater(xi, 0.0, out=occupied[2:])
    front = occupied[2:] | occupied[1:-1]
    front |= occupied[:-2]
    rate = np.divide(parts.velocity, state.grid.widths)
    np.add(rate, parts.loss, out=rate)
    peak = float(np.maximum.reduce(rate, where=front, initial=0.0))
    if peak <= 0.0:
        return dt_max
    return min(cfl / peak, dt_max)


def _all_finite(x, tables):
    """One exact pass: x . 0 sums 0 * x_i, which is NaN iff x_i is not finite.

    Unlike ``np.dot``, ``np.vdot`` raises no "invalid value" warning on an
    infinity.
    """
    return not math.isnan(np.vdot(x, tables._zeros))


def _clamp(grid, xi):
    """Zero the negative cells of xi in place; returns the mass this creates."""
    neg = xi < 0
    created = -float(np.sum(grid.midpoints[neg] * xi[neg] * grid.widths[neg]))
    logger.debug("clamped %d negative cells (mass %.3e)", int(neg.sum()), created)
    xi[neg] = 0.0
    return created


def step(state, tables, dt, first_stage, scheme="euler"):
    """Advance one explicit step; gel mass grows by the stage-combined outflow.

    ``first_stage`` is ``rhs(tables, state.xi)``, which the caller has
    already evaluated for the step-size bound.  The step takes it over: the
    Euler update is written into its k1 array, which becomes the new state's
    density, so the caller must not use k1 afterwards.
    """
    if dt < 0 or not math.isfinite(dt):
        raise InvalidInputError("step size must be finite and >= 0")
    parts1, k1 = first_stage
    grid = state.grid
    xi = state.xi
    if scheme == "euler":
        xi_new = np.multiply(k1, dt, out=k1)
        np.add(xi, xi_new, out=xi_new)
        gel_inc = dt * parts1.boundary_outflow_rate
    elif scheme == "heun":
        predictor = np.multiply(k1, dt)
        np.add(xi, predictor, out=predictor)
        # No NaN here (xi and k1 are finite), so the minimum shows a negative cell.
        if np.minimum.reduce(predictor) < 0:
            _clamp(grid, predictor)
        parts2, k2 = rhs(tables, predictor)
        xi_new = np.add(k1, k2, out=k2)
        np.multiply(xi_new, 0.5 * dt, out=xi_new)
        np.add(xi, xi_new, out=xi_new)
        gel_inc = 0.5 * dt * (parts1.boundary_outflow_rate + parts2.boundary_outflow_rate)
    else:
        raise InvalidInputError("unknown scheme %r" % (scheme,))
    if not _all_finite(xi_new, tables):
        raise NumericalFailureError("non-finite density after step")
    created = _clamp(grid, xi_new) if np.minimum.reduce(xi_new) < 0 else 0.0
    return State(
        t=state.t + dt,
        xi=xi_new,
        gel_mass=state.gel_mass + gel_inc,
        grid=grid,
        clamped_mass=state.clamped_mass + created,
    )


@dataclass(eq=False)
class RunResult:
    """A completed (or partially completed) run and its replay data.

    ``states`` holds per-record snapshots when the run was asked to capture
    them; the diagnostics that replay the weak form and moment evolution
    consume this handle and its ``tables``.  ``steps`` counts the time steps
    taken.
    """

    config: object
    series: MomentSeries
    final_state: State
    states: list = None
    failed: bool = False
    error: str = None
    steps: int = 0
    tables: KernelTables = None


def _on_grid(state, grid):
    """The state on grid, a grid sharing its first cells; new cells are empty."""
    if grid is state.grid:
        return state
    xi = np.zeros(grid.ncells)
    m = min(xi.size, state.xi.size)
    xi[:m] = state.xi[:m]
    return replace(state, xi=xi, grid=grid)


def _record_times(t_end, cadence):
    if t_end <= 0:
        return []
    count = int(math.floor(t_end / cadence + 1e-9))
    times = [k * cadence for k in range(1, count + 1)]
    if not times or t_end - times[-1] > 1e-12 * max(1.0, t_end):
        times.append(t_end)
    else:
        times[-1] = t_end
    return times


def run(config, capture_states=False):
    """Integrate a config from t = 0 to t_end with adaptive stable steps.

    Records the moment series at the configured cadence (always including
    t = 0 and t_end) and is deterministic given the config.  On numerical
    failure the partial series is returned with the failure marker set.
    Recorded states and the final state are on the whole grid.
    """
    cfg = config.resolved()
    grid = cfg.grid.build()
    state = project_initial(grid, cfg.initial).validate()
    rho0 = state.domain_mass()
    budget = CLAMP_BUDGET * rho0
    series = MomentSeries(
        orders=cfg.moments.orders, thresholds=cfg.moments.truncation_thresholds
    )
    states = [] if capture_states else None

    def record(st):
        series.append_state(st)
        if states is not None:
            states.append(st.copy())

    record(state)
    time_eps = 1e-12 * max(1.0, cfg.t_end)
    failed, error = False, None
    steps = 0
    tables = None
    # The active window is cells [0, n), n >= front.  Cells [front - 2, N)
    # are empty: a stage moves the upwind front at most one cell, so front
    # grows by the stage count per step.  n runs up to WINDOW_SLACK ahead.
    # ``live`` is the state on the window's grid.
    N = grid.ncells
    occupied = np.flatnonzero(state.xi)
    front = (occupied[-1] if occupied.size else -1) + 3
    n = min(N, front + WINDOW_SLACK)
    stages = 2 if cfg.scheme == "heun" else 1
    live = state
    try:
        tables = KernelTables(grid, cfg.kernel)
        window = tables.prefix(n)
        live = _on_grid(state, window.grid)
        for t_next in _record_times(cfg.t_end, cfg.record_cadence):
            while t_next - live.t > time_eps:
                parts, k1 = rhs(window, live.xi)
                dt = stable_dt(live, parts, cfg.cfl, cfg.dt_max)
                dt = min(dt, t_next - live.t)
                live = step(live, window, dt, (parts, k1), scheme=cfg.scheme)
                steps += 1
                if n < N:
                    front += stages
                    if front > n:
                        n = min(N, front + WINDOW_SLACK)
                        window = tables.prefix(n)
                        live = _on_grid(live, window.grid)
                if live.clamped_mass > budget:
                    raise NumericalFailureError(
                        "clamped mass %.3e exceeds budget %.3e (unstable run)"
                        % (live.clamped_mass, budget)
                    )
            live = replace(live, t=t_next)
            record(_on_grid(live, grid))
    except NumericalFailureError as exc:
        logger.warning("run failed at t=%.6g: %s", live.t, exc)
        failed, error = True, str(exc)
    state = _on_grid(live, grid)
    return RunResult(
        config=cfg, series=series, final_state=state,
        states=states, failed=failed, error=error, steps=steps, tables=tables,
    )
