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
are nonnegative the sums carry no cancellation.

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
from .grid import State, project_initial
from .moments import MomentSeries

logger = logging.getLogger(__name__)

#: Relative clamped-mass budget before a run is declared unstable.
CLAMP_BUDGET = 1e-8


@dataclass(eq=False)
class RhsParts:
    """Pieces of one right-hand-side evaluation (per right edge / per cell)."""

    velocity: np.ndarray
    loss: np.ndarray
    flux: np.ndarray
    boundary_outflow_rate: float


class KernelTables:
    """Separable kernel factors for one (grid, kernel) pair, built once per run.

    Holds the state-independent weights of the drift prefix sums
    (a_k, b_k * xbar * dx) and of the reversed loss prefix sums
    (b_k, a_k * gaps), one row per term k of ``kernel.separable_terms``,
    stacked as (K, N) arrays.  Each ``velocity``/``loss`` call is one row-wise
    cumsum and one sum over the rows, which adds the terms in order.  Setup,
    memory and each call are O(N).

    Setup evaluates the kernel on the diagonal pairs (xbar_i, xbar_i).  Every
    built-in kernel takes its largest midpoint-pair value on the diagonal, so
    a grid on which the kernel overflows raises ``EvaluationOverflowError``
    here, exactly where a dense pair table would have overflowed.
    """

    def __init__(self, grid, kernel):
        mid, dx = grid.midpoints, grid.widths
        kernel.eval(mid, mid)
        with np.errstate(over="ignore"):
            terms = kernel.separable_terms(mid)
            a = np.array([np.broadcast_to(f, mid.shape) for f, _ in terms], dtype=float)
            b = np.array([np.broadcast_to(f, mid.shape) for _, f in terms], dtype=float)
        self.grid = grid
        gaps = np.zeros_like(mid)
        gaps[:-1] = mid[1:] - mid[:-1]
        self._drift = (a, b * mid * dx)
        self._loss = (b, a * gaps)

    def velocity(self, xi):
        outer, inner = self._drift
        return (outer * np.cumsum(inner * xi, axis=1)).sum(axis=0)

    def loss(self, xi):
        outer, inner = self._loss
        return (outer * np.cumsum((inner * xi)[:, ::-1], axis=1)[:, ::-1]).sum(axis=0)


def _rhs(tables, xi):
    grid = tables.grid
    v = tables.velocity(xi)
    L = tables.loss(xi)
    # Edge fluxes with the zero inflow at size 0 in front: F[i + 1] = F_{i+1/2}.
    F = np.empty(xi.size + 1)
    F[0] = 0.0
    np.multiply(v, xi, out=F[1:])
    dxi = -(F[1:] - F[:-1]) / grid.widths - xi * L
    # The outflow F[-1] enters dxi[-1] (L, xi >= 0), so this also catches it.
    if not np.isfinite(dxi).all():
        raise NumericalFailureError("non-finite right-hand side")
    out = float(grid.midpoints[-1] * F[-1])
    return RhsParts(velocity=v, loss=L, flux=F[1:], boundary_outflow_rate=out), dxi


def rhs(state, kernel):
    """Full right-hand side: (RhsParts, dxi/dt).

    Satisfies sum_i xbar_i * dxi_i * dx_i + boundary_outflow_rate = 0 to
    roundoff on every admissible state (summation-by-parts identity).
    """
    return _rhs(KernelTables(state.grid, kernel), state.xi)


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
    occupied = state.xi > 0
    front = occupied.copy()
    front[1:] |= occupied[:-1]
    front[2:] |= occupied[:-2]
    rate = parts.velocity / state.grid.widths + parts.loss
    peak = float(np.maximum.reduce(rate, where=front, initial=0.0))
    if peak <= 0.0:
        return dt_max
    return min(cfl / peak, dt_max)


def _clamp(state, xi):
    grid = state.grid
    neg = xi < 0
    if not neg.any():
        return xi, 0.0
    created = -float(np.sum(grid.midpoints[neg] * xi[neg] * grid.widths[neg]))
    logger.debug("clamped %d negative cells (mass %.3e)", int(neg.sum()), created)
    return np.where(neg, 0.0, xi), created


def step(state, kernel, dt, scheme="euler", tables=None, first_stage=None):
    """Advance one explicit step; gel mass grows by the stage-combined outflow.

    ``first_stage`` may pass a precomputed (RhsParts, dxi) for the current
    state so callers that already evaluated the right-hand side (e.g. for the
    step-size bound) do not evaluate it twice.
    """
    if dt < 0 or not np.isfinite(dt):
        raise InvalidInputError("step size must be finite and >= 0")
    if tables is None:
        tables = KernelTables(state.grid, kernel)
    parts1, k1 = first_stage if first_stage is not None else _rhs(tables, state.xi)
    if scheme == "euler":
        xi_new = state.xi + dt * k1
        gel_inc = dt * parts1.boundary_outflow_rate
    elif scheme == "heun":
        predictor, _ = _clamp(state, state.xi + dt * k1)
        parts2, k2 = _rhs(tables, predictor)
        xi_new = state.xi + 0.5 * dt * (k1 + k2)
        gel_inc = 0.5 * dt * (parts1.boundary_outflow_rate + parts2.boundary_outflow_rate)
    else:
        raise InvalidInputError("unknown scheme %r" % (scheme,))
    if not np.isfinite(xi_new).all():
        raise NumericalFailureError("non-finite density after step")
    xi_new, created = _clamp(state, xi_new)
    return State(
        t=state.t + dt,
        xi=xi_new,
        gel_mass=state.gel_mass + gel_inc,
        grid=state.grid,
        clamped_mass=state.clamped_mass + created,
    )


@dataclass(eq=False)
class RunResult:
    """A completed (or partially completed) run and its replay data.

    ``states`` holds per-record snapshots when the run was asked to capture
    them; the diagnostics that replay the weak form and moment evolution
    consume this handle.  ``steps`` counts the time steps taken.
    """

    config: object
    series: MomentSeries
    final_state: State
    states: list = None
    failed: bool = False
    error: str = None
    steps: int = 0


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
    """
    cfg = config.resolved()
    grid = cfg.grid.build()
    state = project_initial(grid, cfg.initial).validate()
    rho0 = state.domain_mass()
    budget = CLAMP_BUDGET * rho0
    series = MomentSeries(orders=cfg.moment_orders, thresholds=cfg.truncation_thresholds)
    states = [] if capture_states else None

    def record(st):
        series.append_state(st)
        if states is not None:
            states.append(st.copy())

    record(state)
    time_eps = 1e-12 * max(1.0, cfg.t_end)
    failed, error = False, None
    steps = 0
    try:
        tables = KernelTables(grid, cfg.kernel)
        for t_next in _record_times(cfg.t_end, cfg.record_cadence):
            while t_next - state.t > time_eps:
                parts, k1 = _rhs(tables, state.xi)
                dt = stable_dt(state, parts, cfg.cfl, cfg.dt_max)
                dt = min(dt, t_next - state.t)
                state = step(
                    state, cfg.kernel, dt, scheme=cfg.scheme,
                    tables=tables, first_stage=(parts, k1),
                )
                steps += 1
                if state.clamped_mass > budget:
                    raise NumericalFailureError(
                        "clamped mass %.3e exceeds budget %.3e (unstable run)"
                        % (state.clamped_mass, budget)
                    )
            state = replace(state, t=t_next)
            record(state)
    except NumericalFailureError as exc:
        logger.warning("run failed at t=%.6g: %s", state.t, exc)
        failed, error = True, str(exc)
    return RunResult(
        config=cfg, series=series, final_state=state,
        states=states, failed=failed, error=error, steps=steps,
    )
