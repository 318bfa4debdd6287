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

so a right-hand side costs O(N) time and memory (one or two terms per
kernel) instead of two dense N x N matrix-vector products.  Since all factors
are nonnegative the sums carry no cancellation.  The moment and weak-form
quadratures (``moments.pair_sums``) sum over the same factors, built once
per run, through ``KernelTables.pair_sum``.

A time step allocates nothing.  ``run`` hands ``step`` its one
``KernelTables``, cut to the active window (below), which owns every buffer
a step writes: the density in two halves, the current one and the one the
update is written into, swapped once the step is taken; the two stage
derivatives k1 and k2; each direction's prefix-sum scratch and result; the
edge fluxes with their zero inflow set once; the step bound's rate and
masks.  One ``step`` call is one whole time step: the stage right-hand
side(s), the step bound, the update, the finiteness and clamp tests and the
clamp budget.  Only the step's times and the gel and clamped masses are new
Python floats.  A record sums the tables' whole-grid density in place and
builds no ``State``.  The buffers make a ``KernelTables`` unsafe to share
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

``run`` steps only an active window, the first n cells, with n = N once the
window reaches the top.  A stage moves the upwind front at most one cell,
since a cell's update reads only itself and the cell below, so the shortest
window whose top two cells are empty (the last occupied cell + 3 cells at
the start) grows by at most the stage count each step (1 for Euler, 2 for
Heun): a bound on it needs no search.  The window ends up to WINDOW_SLACK
cells above that bound and is extended when the bound reaches its end, so
its top two cells, and every cell above it, are empty.  Its buffers are
views of the first n cells of the tables' whole-grid ones
(``KernelTables.window``), so growing it calls no kernel and copies nothing.
The whole grid's step is exactly the window's step padded with empty cells:
the reversed loss sum over the empty cells above adds only +0.0; the flux
out of the window's top cell, and with it the boundary outflow, is 0.0; and
the whole grid's update above the window is exactly 0.0.  Every result is
therefore the whole grid's bit for bit, and a step costs O(n), not O(N).
Only ``run`` knows of the window: it grows it, and a record's moments sum
the density only as far as it reaches; ``rhs``, ``stable_dt`` and ``step``
work on whole arrays of the tables they are given.

Negative cells from roundoff are clamped to zero with the created mass
logged; a run fails once the cumulative clamped mass exceeds CLAMP_BUDGET
times the initial mass, which separates roundoff from genuine instability.
A step that fails, by that budget, by a non-finite value or by a step size
too small to move t, is not taken: the run ends on the last step that
passed, and so does a record that is not finite, after its row is appended.
``run`` turns numpy's overflow and invalid-value warnings off once, from its
t = 0 record to its last, so a value that overflows fails a finiteness test
and warns of nothing.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .grid import State, project_initial
from .moments import MomentSeries

logger = logging.getLogger(__name__)

#: Relative clamped-mass budget before a run is declared unstable.
CLAMP_BUDGET = 1e-8

#: Empty cells the active window runs ahead of the front, so it is cut again
#: once per this many cells of front motion instead of every step.
WINDOW_SLACK = 32

#: Cells of one ddot of the finiteness test, at most: OpenBLAS runs a ddot of
#: up to 10,000 elements on the calling thread and threads one of 10,001 or
#: more, whose idle worker then spins for about 0.1 s of CPU.
_DOT_CELLS = 10_000


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
    sums per element with the same bits as two.

    The tables also hold what ``step`` writes: ``xi``, the density of a run
    on this grid, and its spare half; the stage derivatives k1 and k2; the
    edge fluxes with the zero inflow at size 0 in front; and the step bound's
    rate and masks, each laid out once for the whole grid and cut to its
    first n cells by ``window(n)``.  The buffers make a table unsafe to share
    between threads: every run builds its own.  They are also views of one
    another, which a pickle or a deep copy would copy apart into a table that
    computes wrong ``velocity`` and ``loss`` sums, so both raise TypeError: a
    table never crosses a process, and is built where it is used.

    Setup evaluates the kernel on the diagonal pairs (xbar_i, xbar_i).  Every
    built-in kernel takes its largest midpoint-pair value on the diagonal, so
    a grid on which the kernel overflows raises ``EvaluationOverflowError``
    here, exactly where a dense pair table would have overflowed.
    """

    def __init__(self, grid, kernel):
        mid, dx = grid.midpoints, grid.widths
        N = mid.size
        kernel.eval(mid, mid)
        with np.errstate(over="ignore"):
            terms = kernel.separable_terms(mid)
            a = np.array([np.broadcast_to(f, mid.shape) for f, _ in terms], dtype=float)
            b = np.array([np.broadcast_to(f, mid.shape) for _, f in terms], dtype=float)
        self.grid = grid
        self._terms = (a, b)
        self._top = float(mid[-1])
        gaps = np.zeros_like(mid)
        gaps[:-1] = mid[1:] - mid[:-1]
        self._cuts = (_direction(a, b * mid * dx, False), _direction(b, a * gaps, True))
        # The density's two halves, held as views: ``window`` cuts the current
        # one, whichever it is after a step's swap, from its base.
        self.xi, self._spare = np.zeros(N)[:], np.zeros(N)[:]
        # k1, k2, the absorbed flux, the step bound's rate and front mask, zeros.
        self._cells = (*(np.empty(N) for _ in range(4)), np.empty(N, dtype=bool), np.zeros(N))
        # Edge fluxes with the zero inflow at size 0 in front: flux[i + 1] = F_{i+1/2}.
        self._flux = np.zeros(N + 1)
        # occupied[i + 2] = xi_i > 0, behind two cells below the grid that stay empty.
        self._occupied = np.zeros(N + 2, dtype=bool)
        self.window(N)

    def window(self, n):
        """Cut every buffer a step writes to a view of its first n cells (n + 1
        edge fluxes, n + 2 occupancy flags), in place: no kernel call and no
        copy, as the density's cells past a window are empty in both halves."""
        self.xi, self._spare = self.xi.base[:n], self._spare.base[:n]
        self._k1, self._k2, self._absorbed, self._rate, front, self._zeros = (
            cells[:n] for cells in self._cells
        )
        self._widths = self.grid.widths[:n]
        self._inflow, self._outflow = self._flux[:n], self._flux[1:n + 1]
        occupied = self._occupied[:n + 2]
        self._mask = (occupied[2:], occupied[1:-1], occupied[:-2], front)
        self._drift, self._loss = (cut(n) for cut in self._cuts)

    @property
    def density(self):
        """The whole grid's density, of which ``xi`` is the window."""
        return self.xi.base

    def __reduce_ex__(self, protocol):
        raise TypeError(
            "KernelTables cannot be pickled or copied: its buffers are views of one "
            "another, which a copy would tear apart; build the tables where they are used"
        )

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
    """The buffers of sum_k outer_k * prefix-sum(inner_k * xi), reversed or not,
    laid out for the whole grid, as a function of n that cuts them to their
    first n cells: (the (inner_k, scratch column k) pairs, outer factors in the
    scratch's layout, scratch, the paired chains the prefix sum runs over, the
    (left, right) pairs whose sums go into the result, result).
    """
    K, N = outer.shape
    laid = np.ascontiguousarray(outer.T)
    whole, result = np.zeros((N, K)), np.empty(N) if K > 1 else None

    def cut(n):
        scratch = whole[:n]
        # A single term stays real; more pair up, which needs an even K.
        chains = scratch.view(np.complex128) if K > 1 else scratch
        columns = tuple(scratch[:, k] for k in range(K))
        # One term is its own column; more are added into a result in order.
        total = columns[0] if K == 1 else result[:n]
        adds = tuple(zip((columns[0],) + (total,) * (K - 2), columns[1:]))
        return (tuple(zip(inner[:, :n], columns)), laid[:n], scratch,
                chains[::-1] if reverse else chains, adds, total)
    return cut


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
    infinity.  A window of more than ``_DOT_CELLS`` cells is summed in slices
    of that many, so that OpenBLAS runs every ddot on the calling thread.
    """
    zeros = tables._zeros
    if x.size <= _DOT_CELLS:
        return not math.isnan(np.vdot(x, zeros))
    return not any(math.isnan(np.vdot(x[i:i + _DOT_CELLS], zeros[i:i + _DOT_CELLS]))
                   for i in range(0, x.size, _DOT_CELLS))


def _clamp(grid, xi):
    """Zero the negative cells of xi (the grid's first) in place; returns the mass this creates."""
    neg = xi < 0
    mid, dx = grid.midpoints[:xi.size], grid.widths[:xi.size]
    created = -float(np.sum(mid[neg] * xi[neg] * dx[neg]))
    logger.debug("clamped %d negative cells (mass %.3e)", int(neg.sum()), created)
    xi[neg] = 0.0
    return created


def step(tables, t, t_next, gel_mass, clamped_mass, scheme, cfl, dt_max, budget=math.inf):
    """Advance the density ``tables.xi`` at time t by one explicit step.

    The step size is the ``stable_dt`` bound at xi, cut to end at t_next.
    Both schemes take the Euler update as their first stage; Heun then clamps
    it, takes k2 there and averages the stages.  The update is written into
    the spare half of the density, which becomes ``tables.xi`` once it passes
    the finiteness test and, if it was clamped, the clamped mass stays within
    ``budget``.  Returns the new (t, gel_mass, clamped_mass); the gel mass
    grows by the stage-combined boundary outflow.  A step size too small to
    move t raises before the update.  A step that raises leaves ``tables.xi``
    as it was; it runs inside the one float-error scope of ``run``.
    """
    xi, new, k1 = tables.xi, tables._spare, tables._k1
    v, L, rate = rhs(tables, xi, k1)
    dt = min(stable_dt(tables, xi, v, L, cfl, dt_max), t_next - t)
    if t + dt == t:
        raise NumericalFailureError("step %.3g cannot advance t = %.17g (stalled run)" % (dt, t))
    np.multiply(k1, dt, out=new)
    np.add(xi, new, out=new)
    gel_inc = dt * rate
    if scheme == "heun":
        # No NaN here (xi and k1 are finite), so the minimum shows a negative cell.
        if np.minimum.reduce(new) < 0:
            _clamp(tables.grid, new)
        _, _, rate2 = rhs(tables, new, tables._k2)
        np.add(k1, tables._k2, out=new)
        np.multiply(new, 0.5 * dt, out=new)
        np.add(xi, new, out=new)
        gel_inc = 0.5 * dt * (rate + rate2)
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

    ``densities`` holds, when the run was asked to capture them, the
    whole-grid density of each record of ``series``: row k is record k.
    The diagnostics that replay the weak form and moment evolution read it
    and ``tables``, the run's own, left at its final window, of which
    callers read only ``grid`` and ``pair_sum``.  ``steps`` counts the time
    steps taken.
    """

    config: object
    series: MomentSeries
    final_state: State
    densities: np.ndarray = None
    error: str = None
    steps: int = 0
    tables: KernelTables = None

    @property
    def failed(self):
        return self.error is not None


def _time_tolerance(t_end):
    """The gap below which a run of horizon t_end treats two times as one: a
    share of t_end alone, so a run with every time over a power of 2 treats
    the same gaps as one."""
    return 1e-12 * t_end


def _record_times(t_end, cadence):
    if t_end <= 0:
        return []
    count = int(math.floor(t_end / cadence + 1e-9))
    times = [k * cadence for k in range(1, count + 1)]
    if not times or t_end - times[-1] > _time_tolerance(t_end):
        times.append(t_end)
    else:
        times[-1] = t_end
    return times


def initial_state(config):
    """The config's t = 0 state, projected onto a newly built grid of its grid
    section; initial data that does not fit that grid raises InvalidInputError."""
    return project_initial(config.grid.build(), config.initial).validate()


def run(config, capture_densities=False, state=None):
    """Integrate a config from t = 0 to t_end with adaptive stable steps.

    Records the moment series at the configured cadence (always including
    t = 0 and t_end) and is deterministic given the config.  On numerical
    failure the partial series is returned with the failure marker set, and
    the final state is the last step that passed, a copy of the whole-grid
    density.  With ``capture_densities`` the result's ``densities`` holds the
    whole-grid density of every record, a row each, in one array allocated
    once for every record the run may make; a failed run returns the rows
    it recorded.  A ``SimConfig`` checked its values when it was built, so
    neither ``run`` nor ``step`` checks them again; the config given is the
    result's ``config``.  ``state`` is the config's ``initial_state``, which
    a caller that has it already passes in; it is made here when not given.
    A state past t = 0, or with gel or clamped mass, raises InvalidInputError
    before anything is recorded: the record times count from 0.
    """
    if state is None:
        state = initial_state(config)
    elif state.t != 0 or state.gel_mass != 0 or state.clamped_mass != 0:
        raise InvalidInputError("run starts at t = 0 with no gel or clamped mass")
    grid = state.grid
    series = MomentSeries(
        orders=config.moments.orders, thresholds=config.moments.truncation_thresholds
    )
    record_times = _record_times(config.t_end, config.record_cadence)
    densities = np.zeros((len(record_times) + 1, grid.ncells)) if capture_densities else None

    def record(t, gel, clamped):
        xi = state.xi if tables is None else tables.density
        if capture_densities:  # past the window the row stays zero, as xi does
            densities[len(series.rows), :n] = xi[:n]
        series.append_state(grid, t, xi, n, gel, clamped)
        if not all(map(math.isfinite, series.rows[-1])):
            raise NumericalFailureError("non-finite moment")

    time_eps = _time_tolerance(config.t_end)
    scheme, cfl, dt_max = config.scheme, config.cfl, config.dt_max
    t, gel, clamped = state.t, state.gel_mass, state.clamped_mass
    error, steps, tables = None, 0, None
    # The active window is cells [0, n), n >= front.  Cells [front - 2, N)
    # are empty: a stage moves the upwind front at most one cell, so front
    # grows by the stage count per step.  n runs up to WINDOW_SLACK ahead.
    N = grid.ncells
    occupied = np.flatnonzero(state.xi)
    front = (occupied[-1] if occupied.size else -1) + 3
    n = min(N, front + WINDOW_SLACK)
    stages = 2 if scheme == "heun" else 1
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            record(t, gel, clamped)
            budget = CLAMP_BUDGET * series.rows[0][series.labels.index("M1")]
            tables = KernelTables(grid, config.kernel)
            tables.window(n)
            tables.xi[:] = state.xi[:n]
            for t_next in record_times:
                while t_next - t > time_eps:
                    t, gel, clamped = step(
                        tables, t, t_next, gel, clamped, scheme, cfl, dt_max, budget
                    )
                    steps += 1
                    if n < N:
                        front += stages
                        if front > n:
                            n = min(N, front + WINDOW_SLACK)
                            tables.window(n)
                t = t_next
                record(t, gel, clamped)
        except NumericalFailureError as exc:
            logger.warning("run failed at t=%.6g: %s", t, exc)
            error = str(exc)
    xi = state.xi if tables is None else tables.density
    final = State(t=t, xi=xi.copy(), gel_mass=gel, grid=grid, clamped_mass=clamped)
    return RunResult(
        config=config, series=series, final_state=final, error=error,
        densities=densities[:len(series.rows)] if capture_densities else None,
        steps=steps, tables=tables,
    )
