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

A time step allocates nothing.  ``run`` hands ``step`` the tables of the
active window (below), which own every buffer a step writes: the density in
two halves, the current one and the one the update is written into, swapped
once the step is taken; the two stage derivatives k1 and k2; each
direction's prefix-sum scratch and result; the edge fluxes with their zero
inflow set once; the step bound's rate and masks.  One ``step`` call is one
whole time step: the stage right-hand side(s), the step bound, the update,
the finiteness and clamp tests and the clamp budget.  Only the step's times
and the gel and clamped masses are new Python floats; a ``State`` is built
only at records.  The buffers make a ``KernelTables`` unsafe to share
between threads: each run, and so each sweep row in its worker, builds its
own.

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
copies the density into a grown window's buffer and pads it back to N cells
at every record; ``rhs``, ``stable_dt`` and ``step`` work on whole arrays of
the tables they are given.

Negative cells from roundoff are clamped to zero with the created mass
logged; a run fails once the cumulative clamped mass exceeds CLAMP_BUDGET
times the initial mass, which separates roundoff from genuine instability.
A step that fails, by that budget or by a non-finite value, is not taken:
the run ends on the last step that passed.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError
from .grid import SizeGrid, State, project_initial
from .moments import MomentSeries, moment

logger = logging.getLogger(__name__)

#: Relative clamped-mass budget before a run is declared unstable.
CLAMP_BUDGET = 1e-8

#: Empty cells the active window runs ahead of the front, so its tables are
#: rebuilt once per this many cells of front motion instead of every step.
WINDOW_SLACK = 32


class KernelTables:
    """Separable kernel factors for one (grid, kernel) pair, built once per run,
    and the buffers of a run's steps on that grid.

    Holds the state-independent weights of the drift prefix sums
    (a_k, b_k * xbar * dx) and of the reversed loss prefix sums
    (b_k, a_k * gaps), one per term k of ``kernel.separable_terms``.  Each
    ``velocity``/``loss``/``pair_sum`` call is one prefix sum per term and the
    terms added in order.  Setup, memory and each call are O(N).

    ``velocity`` and ``loss`` each sum in a preallocated (N, K) scratch array
    of their own, one column per term, and return their own result array: the
    column itself for a single term, else an array the columns are added
    into.  The next call in the same direction overwrites it.  Adjacent
    columns are paired into one complex column: a complex add is two
    independent float adds, so one ``np.add.accumulate`` advances two prefix
    sums per element with the same bits as two.  An odd K > 1 gets a zero
    column as its partner.

    The tables also hold what ``step`` writes: ``xi``, the density of a run
    on this grid, and its spare half; the stage derivatives k1 and k2; the
    edge fluxes with the zero inflow at size 0 in front; and the step bound's
    rate and masks.  The buffers make a table unsafe to share between
    threads: every run builds its own.  They are also views of one another,
    which a pickle or a deep copy would copy apart into a table that computes
    wrong ``velocity`` and ``loss`` sums, so both raise TypeError: a table
    never crosses a process, and is built where it is used.

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
        """Set the weights and the buffers for the factor rows a, b on grid."""
        mid, dx = grid.midpoints, grid.widths
        n = mid.size
        self.grid = grid
        self._terms = (a, b)
        self._widths, self._top = dx, float(mid[-1])
        gaps = np.zeros_like(mid)
        gaps[:-1] = mid[1:] - mid[:-1]
        self._drift = _direction(a, b * mid * dx, reverse=False)
        self._loss = _direction(b, a * gaps, reverse=True)
        # Edge fluxes with the zero inflow at size 0 in front: flux[i + 1] = F_{i+1/2}.
        flux = np.zeros(n + 1)
        self._inflow, self._outflow = flux[:-1], flux[1:]
        self._absorbed = np.empty(n)
        self._zeros = np.zeros(n)
        self.xi, self._spare = np.zeros(n), np.empty(n)
        self._k1, self._k2 = np.empty(n), np.empty(n)
        self._rate = np.empty(n)
        # occupied[i + 2] = xi_i > 0, behind two cells below the grid that stay empty.
        occupied = np.zeros(n + 2, dtype=bool)
        self._mask = (occupied[2:], occupied[1:-1], occupied[:-2], np.empty(n, dtype=bool))

    def __reduce_ex__(self, protocol):
        raise TypeError(
            "KernelTables cannot be pickled or copied: its buffers are views of one "
            "another, which a copy would tear apart; build the tables where they are used"
        )

    def prefix(self, n):
        """The tables of the grid of the first n cells; these tables at n = N.

        The factor rows are reused, with no kernel call; the buffers are new.
        """
        if n == self.grid.ncells:
            return self
        a, b = self._terms
        tables = object.__new__(KernelTables)
        tables._lay_out(SizeGrid(self.grid.edges[:n + 1]), a[:, :n], b[:, :n])
        return tables

    def velocity(self, xi):
        """The drift v_{i+1/2} at density xi, in the drift's result array."""
        return _sum_terms(self._drift, xi)

    def loss(self, xi):
        """The loss rate L_j at density xi, in the loss's result array."""
        return _sum_terms(self._loss, xi)

    def pair_sum(self, u, v):
        """sum over pairs j < i of u_i * Lambda(xbar_i, xbar_j) * v_j, per row.

        u and v stack rows of the first n <= N cells along leading axes that
        broadcast against each other; the result has one sum per row.  Each
        row is an exclusive prefix sum of v per term, the term totals added
        in order, and has the bits it has alone.  The prefix sums run once
        per row of v, so rows of u stacked against one v share them.  It
        leaves the buffers alone, so it may run between steps.  A sum that
        overflows, or meets a non-finite value, raises NumericalFailureError
        and warns of nothing.
        """
        n = np.shape(v)[-1]
        a, b = (f[:, :n] for f in self._terms)
        u, v = u[..., None, :], v[..., None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.add.reduce(
                (u * a)[..., 1:] * np.add.accumulate(b * v, axis=-1)[..., :-1], axis=-1
            )
            totals = np.add.accumulate(terms, axis=-1)[..., -1]
        if not np.all(np.isfinite(totals)):
            raise NumericalFailureError("non-finite pair sum")
        return totals


def _direction(outer, inner, reverse):
    """The buffers of sum_k outer_k * prefix-sum(inner_k * xi), reversed or not.

    (the (inner_k, scratch column k) pairs, outer factors in the scratch's
    layout, scratch, the paired chains the prefix sum runs over, the
    (left, right) pairs whose sums go into the result, result).
    """
    K, n = outer.shape
    # A single term stays real: a zero partner costs more than pairing saves.
    width = K + K % 2 if K > 1 else 1
    # A padding column of the outer factors, and so of the scratch, stays zero.
    laid = np.zeros((n, width))
    laid[:, :K] = outer.T
    scratch = np.zeros((n, width))
    chains = scratch.view(np.complex128) if width > 1 else scratch
    columns = tuple(scratch[:, k] for k in range(K))
    # One term is its own column; more are added into a result in order.
    total = columns[0] if K == 1 else np.empty(n)
    adds = tuple(zip((columns[0],) + (total,) * (K - 2), columns[1:]))
    return (tuple(zip(inner, columns)), laid, scratch, chains[::-1] if reverse else chains,
            adds, total)


def _sum_terms(direction, xi):
    """sum_k outer_k * prefix-sum(inner_k * xi) into the direction's result.

    The prefix sums run forward or backward as the direction's chains do; the
    terms are added in order, as ``sum(axis=0)`` adds rows.
    """
    products, outer, scratch, chains, adds, total = direction
    for factor, column in products:
        np.multiply(factor, xi, out=column)
    np.add.accumulate(chains, axis=0, out=chains)
    np.multiply(outer, scratch, out=scratch)
    for left, right in adds:
        np.add(left, right, out=total)
    return total


def rhs(tables, xi, out):
    """The right-hand side dxi/dt at density xi, written into out (not xi).

    Returns (velocity, loss, boundary_outflow_rate); the two arrays are the
    tables' result arrays, which the next call overwrites.  Satisfies
    sum_i xbar_i * out_i * dx_i + boundary_outflow_rate = 0 to roundoff on
    every admissible state (summation-by-parts identity).
    """
    v = tables.velocity(xi)
    L = tables.loss(xi)
    outflow = tables._outflow
    np.multiply(v, xi, out=outflow)
    np.subtract(tables._inflow, outflow, out=out)
    np.divide(out, tables._widths, out=out)
    absorbed = tables._absorbed
    np.multiply(xi, L, out=absorbed)
    np.subtract(out, absorbed, out=out)
    # The outflow F[-1] enters out[-1] (L, xi >= 0), so this also catches it.
    if not _all_finite(out, tables):
        raise NumericalFailureError("non-finite right-hand side")
    return v, L, tables._top * float(outflow[-1])


def stable_dt(tables, xi, velocity, loss, cfl, dt_max=math.inf):
    """Positivity-preserving step bound cfl / max_i(v_{i+1/2}/dx_i + L_i).

    The maximum runs over the cells that hold mass or lie within two cells
    above a cell that does (xi_i > 0, xi_{i-1} > 0 or xi_{i-2} > 0).  An
    empty cell's own rate multiplies zero in the Euler update, so it cannot
    drive the cell negative; the two-cell margin covers the cell a Heun
    predictor fills.  An empty state has no rate; the configured dt_max is
    returned instead.  The rate and the masks go into the tables' buffers.
    """
    occupied, below, two_below, front = tables._mask
    np.greater(xi, tables._zeros, out=occupied)
    np.logical_or(occupied, below, out=front)
    np.logical_or(front, two_below, out=front)
    rate = tables._rate
    np.divide(velocity, tables._widths, out=rate)
    np.add(rate, loss, out=rate)
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


def step(tables, t, t_next, gel_mass, clamped_mass, scheme, cfl, dt_max, budget=math.inf):
    """Advance the density ``tables.xi`` at time t by one explicit step.

    The step size is the ``stable_dt`` bound at xi, cut to end at t_next.
    The update is written into the spare half of the density, which becomes
    ``tables.xi`` once it passes the finiteness test and, if it was clamped,
    the clamped mass stays within ``budget``.  Returns the new
    (t, gel_mass, clamped_mass); the gel mass grows by the stage-combined
    boundary outflow.  A step that raises leaves ``tables.xi`` as it was.
    """
    xi, new = tables.xi, tables._spare
    if scheme == "euler":
        v, L, rate = rhs(tables, xi, new)
        dt = min(stable_dt(tables, xi, v, L, cfl, dt_max), t_next - t)
        np.multiply(new, dt, out=new)
        np.add(xi, new, out=new)
        gel_inc = dt * rate
    else:  # heun
        k1, k2 = tables._k1, tables._k2
        v, L, rate1 = rhs(tables, xi, k1)
        dt = min(stable_dt(tables, xi, v, L, cfl, dt_max), t_next - t)
        np.multiply(k1, dt, out=new)
        np.add(xi, new, out=new)
        # No NaN here (xi and k1 are finite), so the minimum shows a negative cell.
        if np.minimum.reduce(new) < 0:
            _clamp(tables.grid, new)
        _, _, rate2 = rhs(tables, new, k2)
        np.add(k1, k2, out=new)
        np.multiply(new, 0.5 * dt, out=new)
        np.add(xi, new, out=new)
        gel_inc = 0.5 * dt * (rate1 + rate2)
    if not _all_finite(new, tables):
        raise NumericalFailureError("non-finite density after step")
    if np.minimum.reduce(new) < 0:
        clamped_mass += _clamp(tables.grid, new)
        if clamped_mass > budget:
            raise NumericalFailureError(
                "clamped mass %.3e exceeds budget %.3e (unstable run)" % (clamped_mass, budget)
            )
    tables.xi, tables._spare = new, xi
    return t + dt, gel_mass + gel_inc, clamped_mass


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


def _whole(grid, t, xi, gel_mass, clamped_mass):
    """A new state on grid, whose first cells hold xi and the rest are empty."""
    padded = np.zeros(grid.ncells)
    padded[:xi.size] = xi
    return State(t=t, xi=padded, gel_mass=gel_mass, grid=grid, clamped_mass=clamped_mass)


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
    failure the partial series is returned with the failure marker set, and
    the final state is the last step that passed.  Recorded states and the
    final state are new states on the whole grid.  A ``SimConfig`` checked
    its values when it was built, so neither ``run`` nor ``step`` checks them
    again; the config given is the result's ``config``.
    """
    grid = config.grid.build()
    state = project_initial(grid, config.initial).validate()
    budget = CLAMP_BUDGET * moment(state, 1)
    series = MomentSeries(
        orders=config.moments.orders, thresholds=config.moments.truncation_thresholds
    )
    states = [] if capture_states else None

    def record(st):
        series.append_state(st)
        if states is not None:
            states.append(st)

    record(state)
    time_eps = 1e-12 * max(1.0, config.t_end)
    scheme, cfl, dt_max = config.scheme, config.cfl, config.dt_max
    t, gel, clamped = state.t, state.gel_mass, state.clamped_mass
    failed, error = False, None
    steps = 0
    tables = window = None
    # The active window is cells [0, n), n >= front.  Cells [front - 2, N)
    # are empty: a stage moves the upwind front at most one cell, so front
    # grows by the stage count per step.  n runs up to WINDOW_SLACK ahead.
    # ``window`` is the tables of the window, which hold its density.
    N = grid.ncells
    occupied = np.flatnonzero(state.xi)
    front = (occupied[-1] if occupied.size else -1) + 3
    n = min(N, front + WINDOW_SLACK)
    stages = 2 if scheme == "heun" else 1
    try:
        tables = KernelTables(grid, config.kernel)
        window = tables.prefix(n)
        window.xi[:] = state.xi[:n]
        for t_next in _record_times(config.t_end, config.record_cadence):
            while t_next - t > time_eps:
                t, gel, clamped = step(
                    window, t, t_next, gel, clamped, scheme, cfl, dt_max, budget
                )
                steps += 1
                if n < N:
                    front += stages
                    if front > n:
                        n = min(N, front + WINDOW_SLACK)
                        grown = tables.prefix(n)
                        grown.xi[:window.xi.size] = window.xi
                        window = grown
            t = t_next
            record(_whole(grid, t, window.xi, gel, clamped))
    except NumericalFailureError as exc:
        logger.warning("run failed at t=%.6g: %s", t, exc)
        failed, error = True, str(exc)
    final = _whole(grid, t, state.xi if window is None else window.xi, gel, clamped)
    return RunResult(
        config=config, series=series, final_state=final,
        states=states, failed=failed, error=error, steps=steps, tables=tables,
    )
