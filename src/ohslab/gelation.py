"""Mass-loss detection, the cutoff-scaling experiment, and blow-up bounds.

On the truncated domain the only mass sink is the boundary flux through the
cutoff R, so "gelation" is operationalized as the first time the relative
boundary mass loss exceeds a threshold epsilon (default 1e-2):

    t_loss = first t with gel_mass(t) / rho0 > epsilon,

linearly interpolated between bracketing records.  ``cutoff_sweep`` reruns a
config over the cutoffs of its "sweep" section at fixed resolution (N scaled
with R); each row's worker writes the row's run directory and returns only its
SweepRow.  What that directory holds is ``runio``'s to decide: ``write_run``
for a row that ran, failed or not, and ``write_failed_run`` for one that
raised; this module names no file.  A serial sweep runs its rows in the
calling process and never loads the process pool (``multiprocessing`` and
the modules behind it); only rows run concurrently import it.  The table
of t_loss(R) at the config's one threshold epsilon is the truncated-domain
stand-in for statements about the untruncated problem.

``blowup_bound`` evaluates the finite-time bound

    t <= delta + [1 / ((beta - 1) * theta1 * rho0**(1 - sigma))] * (1 / M^r(delta))**sigma,

sigma = (beta - 1)/(r - 1), and ``comparison_ode_blowup`` the closed-form
blow-up time of the comparison ODE dQ/dt = c * Q**(sigma + 1); the two agree
under the identification c = theta1 * rho0**(1 - sigma) * (r - 1) since
sigma * (r - 1) = beta - 1.
"""
from __future__ import annotations

import logging
import os
from concurrent import futures  # loads its process pool on first use, never in a serial sweep
from dataclasses import dataclass, replace

import numpy as np

from . import runio, solver
from .config import row_label
from .errors import CoagulationError, InvalidInputError

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


def row_config(base_config, R, N):
    """The sweep row's config: the base config on an (R, N) grid, no sweep;
    an invalid one raises InvalidInputError naming the row."""
    grid = replace(base_config.grid, R=float(R), N=int(N))
    try:
        return replace(base_config, grid=grid, sweep=None)
    except InvalidInputError as exc:
        raise InvalidInputError("sweep row %s: %s" % (row_label(R), exc)) from exc


def _row_cells(R, resolution):
    """A row's cell count N = round(R / resolution), at least 2; a quotient
    past the float range raises InvalidInputError naming the row."""
    cells = R / resolution
    if not np.isfinite(cells):
        raise InvalidInputError("sweep row %s: R / resolution = %g cells is past the float range"
                                % (row_label(R), cells))
    return max(2, round(cells))


def _failed_row(cfg, row_dir, exc):
    """A failed row carrying the error text; its directory keeps only a failed
    manifest (``runio.write_failed_run``), when that can be written."""
    error = str(exc)
    if not isinstance(exc, CoagulationError):
        error = "%s: %s" % (type(exc).__name__, error)
    try:
        runio.write_failed_run(row_dir, cfg, error)
    except InvalidInputError as write_error:
        logger.error("sweep row R=%s: %s", cfg.grid.R, write_error)
    return SweepRow(R=cfg.grid.R, N=cfg.grid.N, failed=True, error=error)


def _run_row(job):
    """Worker for one sweep row; module-level so process pools can pickle it.

    Runs a (row config, row directory) job, writes the directory as ``simulate``
    does and returns only the SweepRow; t_loss uses the row config's epsilon.
    Any exception the row raises while it runs (numerical breakdown, memory
    exhaustion or any other) is contained in a failed row.
    """
    cfg, row_dir = job
    try:
        result = solver.run(cfg)
        row = SweepRow(
            R=cfg.grid.R, N=cfg.grid.N,
            failed=result.failed, error=result.error, steps=result.steps,
        )
        row.t_loss = gelation_time(result.series, cfg.epsilon)
        row.gel_fraction_final = float(result.series.gel()[-1] / result.series.rho0())
        runio.write_run(row_dir, result)
    except Exception as exc:
        if not isinstance(exc, CoagulationError):
            logger.error("sweep row R=%s raised", cfg.grid.R, exc_info=True)
        return _failed_row(cfg, row_dir, exc)
    return row


def cutoff_sweep(config, out, workers=None):
    """Rerun a config over the cutoffs of its sweep section at fixed resolution.

    Parameters
    ----------
    config : SimConfig
        Template run.  Its ``sweep`` section supplies the cutoffs and the
        cell width dx held fixed across rows (N = round(R / dx)), by default
        the base grid's R / N; its ``epsilon`` is the gel-fraction threshold
        of every row.  A config without a sweep section raises
        ``InvalidInputError``, and so does a row whose config is invalid.
    out : Path
        Gets each row's run directory ``row_label(R)``, parents included; every
        row config is checked and every directory made before any row runs.
    workers : int, optional
        Process count for concurrent rows (default: cpu count); <= 1 runs
        serially.  Rows are independent simulations; failures are recorded
        per row and do not abort the sweep.

    Returns
    -------
    list of SweepRow
        One row per cutoff, sorted by R.
    """
    if config.sweep is None:
        raise InvalidInputError("sweep needs a 'sweep' section with cutoffs")
    resolution = config.sweep.resolution or config.grid.R / config.grid.N
    configs = [row_config(config, R, _row_cells(R, resolution)) for R in config.sweep.cutoffs]
    jobs = list(zip(configs, runio.make_row_dirs(out, config.sweep.cutoffs)))
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(int(workers), len(jobs)))
    if workers == 1:
        rows = [_run_row(job) for job in jobs]
    else:
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            pending = [pool.submit(_run_row, job) for job in jobs]
            rows = []
            for (cfg, row_dir), future in zip(jobs, pending):
                try:
                    rows.append(future.result())
                except Exception as exc:  # a crashed worker: BrokenProcessPool
                    logger.error("sweep row R=%s lost its worker", cfg.grid.R, exc_info=True)
                    rows.append(_failed_row(cfg, row_dir, exc))
    for row in rows:
        if row.failed:
            logger.warning("sweep row R=%g failed: %s", row.R, row.error)
    return rows


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
