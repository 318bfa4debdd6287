"""Mass-loss detection, the cutoff-scaling experiment, and blow-up/tail bounds.

On the truncated domain the only mass sink is the boundary flux through the
cutoff R, so "gelation" is operationalized as the first time the relative
boundary mass loss exceeds a threshold epsilon (default 1e-2):

    t_loss = first t with gel_mass(t) / rho0 > epsilon,

linearly interpolated between bracketing records.  ``cutoff_sweep`` reruns a
base configuration over increasing cutoffs at fixed resolution (N scaled
proportionally to R) and tabulates t_loss(R); the table documents how the
loss time scales with the cutoff, which is the truncated-domain stand-in for
statements about the untruncated problem.

``blowup_bound`` evaluates the finite-time bound

    t <= delta + [1 / ((beta - 1) * theta1 * rho0**(1 - sigma))] * (1 / M^r(delta))**sigma,

sigma = (beta - 1)/(r - 1), and ``comparison_ode_blowup`` the closed-form
blow-up time of the comparison ODE dQ/dt = c * Q**(sigma + 1); the two agree
under the identification c = theta1 * rho0**(1 - sigma) * (r - 1) since
sigma * (r - 1) = beta - 1.

``tail_decay_fit`` fits an exponential to the tail mass above a threshold
lambda over the window where at least half the initial mass still sits below
lambda, and reports it next to the reference constant

    C1 = theta1 * rho0 * lambda**(beta - 1) / 2.

The underlying bound is one-sided (the tail at early times is exponentially
small in the distance to a later reference time), so the fit is a diagnostic,
never a pass/fail gate on the rate value.
"""
from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import solver
from .config import SimConfig
from .errors import CoagulationError, InvalidInputError, WindowEmptyError
from .kernels import growth_params
from .moments import truncated_moment

logger = logging.getLogger(__name__)


def gelation_time(series, epsilon):
    """First time the gel fraction exceeds epsilon, or None if never reached.

    Larger epsilon never yields a smaller time (the gel mass is
    nondecreasing), and the crossing is interpolated linearly between the
    bracketing records.
    """
    if not (0 < epsilon < 1):
        raise InvalidInputError("gelation threshold must lie in (0, 1)")
    rho0 = series.rho0()
    if rho0 <= 0:
        raise InvalidInputError("series has no initial mass")
    t = series.times()
    frac = series.gel() / rho0
    above = np.flatnonzero(frac > epsilon)
    if above.size == 0:
        return None
    k = int(above[0])
    if k == 0:
        return float(t[0])
    slope = (t[k] - t[k - 1]) / (frac[k] - frac[k - 1])
    return float(t[k - 1] + (epsilon - frac[k - 1]) * slope)


@dataclass
class SweepRow:
    R: float
    N: int
    t_loss: float = None
    gel_fraction_final: float = None
    failed: bool = False
    error: str = None
    steps: int = None

    def to_dict(self):
        return {
            "R": self.R,
            "N": self.N,
            "t_loss": self.t_loss,
            "gel_fraction_final": self.gel_fraction_final,
            "failed": self.failed,
            "error": self.error,
            "steps": self.steps,
        }


@dataclass
class BoundEvaluation:
    r: float
    delta: float
    moment_value: float
    bound: float

    def to_dict(self):
        return {
            "r": self.r,
            "delta": self.delta,
            "moment_value": self.moment_value,
            "bound": self.bound,
        }


@dataclass
class GelationReport:
    """Result of the cutoff sweep: the threshold and one row per cutoff."""

    epsilon: float
    rows: list = field(default_factory=list)

    def to_dict(self):
        return {
            "epsilon": self.epsilon,
            "rows": [row.to_dict() for row in self.rows],
        }


def row_config(base_config, R, N):
    """The sweep row's config: the base config on an (R, N) grid, no sweep."""
    grid = replace(base_config.grid, R=float(R), N=int(N))
    return replace(base_config, grid=grid, sweep=None)


def _failed_row(cfg_dict, exc):
    """A failed row carrying the error text, with no artifacts."""
    grid = cfg_dict["grid"]
    error = str(exc)
    if not isinstance(exc, CoagulationError):
        error = "%s: %s" % (type(exc).__name__, error)
    return SweepRow(R=float(grid["R"]), N=int(grid["N"]), failed=True, error=error), None, None


def _run_row(args):
    """Worker for one sweep row; module-level so process pools can pickle it.

    Any row-level failure (invalid row configuration, numerical breakdown,
    memory exhaustion or any other exception) is contained in the returned
    row so the other rows still report.
    """
    cfg_dict, epsilon = args
    try:
        result = solver.run(SimConfig.from_dict(cfg_dict))
        row = SweepRow(
            R=float(cfg_dict["grid"]["R"]), N=int(cfg_dict["grid"]["N"]),
            failed=result.failed, error=result.error, steps=result.steps,
        )
        if result.series.records:
            row.t_loss = gelation_time(result.series, epsilon)
            row.gel_fraction_final = float(result.series.gel()[-1] / result.series.rho0())
    except CoagulationError as exc:
        return _failed_row(cfg_dict, exc)
    except Exception as exc:
        logger.error("sweep row R=%s raised", cfg_dict["grid"]["R"], exc_info=True)
        return _failed_row(cfg_dict, exc)
    return row, result.series, result.final_state


def cutoff_sweep(base_config, cutoffs, epsilon=None, resolution=None, workers=None):
    """Rerun a base config over increasing cutoffs at fixed grid resolution.

    Parameters
    ----------
    base_config : SimConfig
        Template run; its grid supplies the default resolution R/N.
    cutoffs : sequence of float
        Increasing cutoff sizes.  Empty input yields an empty report.
    epsilon : float, optional
        Gel-fraction threshold; defaults to the config's epsilon.
    resolution : float, optional
        Cell width dx held fixed across rows (N = round(R / dx)).
    workers : int, optional
        Process count for concurrent rows; <= 1 runs serially.  Rows are
        independent simulations; failures are recorded per row and do not
        abort the sweep.

    Returns
    -------
    (GelationReport, list)
        The report (rows sorted by R) and the per-row (series, final_state)
        pairs for callers that archive full artifacts.
    """
    base = base_config.resolved()
    if epsilon is None:
        epsilon = base.epsilon
    if not (0 < epsilon < 1):
        raise InvalidInputError("gelation threshold must lie in (0, 1)")
    report = GelationReport(epsilon=float(epsilon))
    cutoffs = [float(R) for R in cutoffs]
    if not cutoffs:
        return report, []
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise InvalidInputError("sweep cutoffs must be strictly increasing")
    if resolution is None:
        resolution = base.grid.R / base.grid.N
    if not resolution > 0:
        raise InvalidInputError("sweep resolution must be positive")
    jobs = []
    for R in cutoffs:
        N = max(2, int(round(R / resolution)))
        jobs.append((row_config(base, R, N).to_dict(), float(epsilon)))
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(int(workers), len(jobs)))
    if workers == 1:
        results = [_run_row(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_row, job) for job in jobs]
            results = []
            for job, future in zip(jobs, futures):
                try:
                    results.append(future.result())
                except Exception as exc:  # a crashed worker: BrokenProcessPool
                    logger.error("sweep row R=%s lost its worker", job[0]["grid"]["R"],
                                 exc_info=True)
                    results.append(_failed_row(job[0], exc))
    artifacts = []
    for row, series, final_state in results:
        if row.failed:
            logger.warning("sweep row R=%g failed: %s", row.R, row.error)
        report.rows.append(row)
        artifacts.append((series, final_state))
    return report, artifacts


def blowup_bound(r, delta, moment_value, theta1, beta, rho0):
    """Finite-time bound implied by the moment value M^r at time delta."""
    if r < 2:
        raise InvalidInputError("blow-up bound needs r >= 2")
    if beta <= 1:
        raise InvalidInputError("blow-up bound needs beta > 1")
    if not moment_value > 0:
        raise InvalidInputError("blow-up bound needs a positive moment value")
    if not (theta1 > 0 and rho0 > 0):
        raise InvalidInputError("blow-up bound needs theta1 > 0 and rho0 > 0")
    if delta < 0:
        raise InvalidInputError("blow-up bound needs delta >= 0")
    sigma = (beta - 1.0) / (r - 1.0)
    prefactor = 1.0 / ((beta - 1.0) * theta1 * rho0 ** (1.0 - sigma))
    return delta + prefactor * (1.0 / moment_value) ** sigma


def comparison_ode_blowup(q0, c, sigma):
    """Blow-up time of dQ/dt = c * Q**(sigma+1): T* = 1 / (sigma * c * q0**sigma)."""
    if not q0 > 0:
        raise InvalidInputError("comparison ODE needs Q0 > 0")
    if not c > 0:
        raise InvalidInputError("comparison ODE needs c > 0")
    if not sigma > 0:
        raise InvalidInputError("comparison ODE needs sigma > 0")
    return 1.0 / (sigma * c * q0**sigma)


@dataclass
class TailDecayFit:
    """Exponential fit of the tail mass above a threshold.

    ``rate`` follows the decay convention theta ~ exp(-rate * t) (None when
    the window holds fewer than two positive samples); ``reference_rate`` is
    the constant C1 = theta1 * rho0 * lambda**(beta-1) / 2 when the kernel
    carries (theta1, beta), else None.
    """

    lam: float
    times: np.ndarray
    theta: np.ndarray
    rate: float = None
    reference_rate: float = None

    def to_dict(self):
        return {
            "lambda": self.lam,
            "times": list(map(float, self.times)),
            "theta": list(map(float, self.theta)),
            "rate": self.rate,
            "reference_rate": self.reference_rate,
        }


def tail_decay_fit(run_result, lam):
    """Least-squares exponential fit of the tail mass above lam over a run.

    The fit window keeps records where the mass below lam is still at least
    half the initial mass; raises ``WindowEmptyError`` when no record
    qualifies.  Within the window only strictly positive tail samples enter
    the log-linear fit.
    """
    series = run_result.series
    if not series.records:
        raise InvalidInputError("run has no records")
    grid_R = run_result.config.grid.R
    if not (0 < lam < grid_R):
        raise InvalidInputError("tail threshold must lie inside (0, R)")
    thresholds = {float(m) for m in series.thresholds}
    if float(lam) in thresholds:
        theta = series.tail(float(lam))
    elif run_result.states is not None:
        theta = np.array([truncated_moment(s, 1, lam) for s in run_result.states])
    else:
        raise InvalidInputError(
            "tail threshold %g was not recorded and no states were captured" % lam
        )
    times = series.times()
    rho0 = series.rho0()
    gamma = series.values(1.0) - theta
    window = gamma >= 0.5 * rho0
    if not window.any():
        raise WindowEmptyError(
            "mass below lambda=%g never reaches half the initial mass" % lam
        )
    fit = TailDecayFit(lam=float(lam), times=times[window], theta=theta[window])
    params = growth_params(run_result.config.kernel)
    if params is not None and params[1] > 1:
        theta1, beta = params
        fit.reference_rate = 0.5 * theta1 * rho0 * lam ** (beta - 1.0)
    positive = fit.theta > 0
    if positive.sum() >= 2:
        slope = np.polyfit(fit.times[positive], np.log(fit.theta[positive]), 1)[0]
        fit.rate = float(-slope)
    return fit


def tail_positivity(state, m):
    """Tail first moment above m and whether it is strictly positive."""
    if not (0 < m < state.grid.cutoff):
        raise InvalidInputError("tail threshold must lie inside (0, R)")
    value = truncated_moment(state, 1, m)
    return value, value > 0
