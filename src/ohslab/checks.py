"""Verification suite run by the ``check`` command against a completed run.

``run_checks`` returns the payload of check_report.json for every outcome:
each check's entry, ``{"name", "status", "details"}`` with a status of pass,
fail or skip, and whether none failed; or, when the replay failed or one of
its sums failed numerically, the error in place of the entries.  The suite
covers the discrete mass bookkeeping, every column of a stored moments.csv
against the replay (catches tampering), kernel certification, the Hoelder
inequality on every record, the sign and evolution residual of the higher
moments, the weak-form residual with its independent brute-force
cross-check, and the blow-up bound table.
"""
from __future__ import annotations

from dataclasses import asdict

import numpy as np

from . import gelation, kernels, moments, oracle
from .errors import EvaluationOverflowError, InvalidInputError, NumericalFailureError

BOOKKEEPING_RTOL = 1e-10
MOMENT_RESIDUAL_TOL = 0.05
WEAK_RESIDUAL_TOL = 0.05
HOLDER_PAIRS = ((2, 1.5), (2, 2.0), (3, 1.5), (3, 2.0), (5, 1.5), (5, 2.0))
#: Every moment order the pairs read: 1, r and r + beta - 1, each once.
HOLDER_ORDERS = tuple(sorted({1, *(q for r, beta in HOLDER_PAIRS for q in (r, r + beta - 1.0))}))
SIGN_ORDERS = (2, 3, 5)
SIGN_SLACK = 1e-14
#: Orders of the blow-up table, each an r of HOLDER_PAIRS, so the moment pass holds it.
BLOWUP_ORDERS = (2, 3, 5)
BLOWUP_CONSISTENCY_RTOL = 1e-12
WEAK_AGREEMENT_RTOL = 1e-10


def _entry(name, ok, details, skip=False):
    """One entry of check_report.json: skip, or pass or fail as ``ok`` says."""
    return {"name": name, "status": "skip" if skip else ("pass" if ok else "fail"),
            "details": details}


def _unfinished(error, replay_failed):
    """The report of a check stopped by a numerical failure: the error, no entries."""
    return {"passed": False, "replay_failed": replay_failed, "error": error}


def _check_bookkeeping(series):
    m1, gel, rho0 = series.values(1.0), series.gel(), series.rho0()
    drift = np.abs(m1 + gel - rho0) / rho0
    monotone = bool(np.all(np.diff(gel) >= 0)) if gel.size > 1 else True
    ok = bool(np.max(drift) <= BOOKKEEPING_RTOL) and monotone
    return _entry("bookkeeping", ok, {
        "max_rel_drift": float(np.max(drift)),
        "gel_nondecreasing": monotone,
        "tolerance": BOOKKEEPING_RTOL,
    })


def _check_stored_csv(series, stored):
    """The stored moments.csv is the replay's: same header, rows and values."""
    header_ok = list(stored) == series.labels
    rows_ok = header_ok and len(stored["t"]) == len(series.rows)
    mismatch = None
    if rows_ok:  # each column relative to its largest magnitude; np.max keeps a NaN
        mismatch = float(np.max([np.max(np.abs(stored[label] - values))
                                 / max(float(np.max(np.abs(values))), moments.EPS_FLOOR)
                                 for label, values in series.columns().items()]))
    ok = rows_ok and mismatch <= BOOKKEEPING_RTOL  # a NaN mismatch fails
    if mismatch is not None and not np.isfinite(mismatch):
        mismatch = None  # JSON has no NaN or Infinity; the entry fails all the same
    return _entry("stored_moments_csv", ok, {
        "header_matches": header_ok, "rows_match": rows_ok,
        "max_rel_mismatch": mismatch, "tolerance": BOOKKEEPING_RTOL,
    })


def _check_certification(kernel, check):
    params = check and check.certification or kernel.growth_bounds()
    if params is None:
        return _entry("certification", True, {
            "reason": "kernel carries no growth parameters and none were configured",
        }, skip=True)
    try:
        details = kernels.certify_hypothesis_A(kernel, params)
    except EvaluationOverflowError as exc:
        # the lattice reaches past the kernel's float range: nothing there was
        # sampled, which must not read as a pass
        return _entry("certification", False, {"params": asdict(params), "error": str(exc)})
    return _entry("certification", details["passed"], details)


def _check_holder(times, sums):
    """The Hoelder entry from ``sums``, the stacked HOLDER_ORDERS moments."""
    ok, worst = moments.holder_check(sums, times, HOLDER_PAIRS)
    return _entry("holder_inequality", ok, {"pairs": list(HOLDER_PAIRS), "worst": worst})


def _check_moment_rhs_sign(sums):
    """The sign entry of the pair sums of each SIGN_ORDERS order."""
    values = np.array([sums[r][:, 0] for r in SIGN_ORDERS])
    ok = bool(np.all(values >= -SIGN_SLACK * np.maximum(1.0, np.abs(values))))
    least = min(0.0, float(np.min(values)))
    return _entry("moment_rhs_sign", ok, {"orders": list(SIGN_ORDERS), "min_value": least})


def _check_moment_residual(result, sums, values):
    try:
        residual = moments.moment_residual(result, 2, sums, values)
    except InvalidInputError as exc:  # too few records, or uneven before the last
        return _entry("moment_residual", True, {"reason": str(exc)}, skip=True)
    return _entry("moment_residual", residual <= MOMENT_RESIDUAL_TOL, {
        "r": 2, "residual": residual, "tolerance": MOMENT_RESIDUAL_TOL,
    })


def _check_weak_form(result, test, sums):
    residual, internal, gross = moments.weak_form_residual(result, test, sums)
    brute = oracle.brute_force_weak_rhs(result.tables.grid, result.series.times(),
                                        result.densities, result.config.kernel, test)
    agree = moments.relative_gap(internal, brute, gross)
    ok = residual <= WEAK_RESIDUAL_TOL and agree <= WEAK_AGREEMENT_RTOL
    return _entry("weak_form_residual", ok, {
        "cap": test.lam, "t": float(result.series.times()[-1]), "residual": residual,
        "tolerance": WEAK_RESIDUAL_TOL, "oracle_agreement": agree,
        "agreement_tolerance": WEAK_AGREEMENT_RTOL,
    })


def _check_blowup_bounds(series, kernel, values):
    """The blow-up table from ``values``, the moment pass, at the first record."""
    bounds = kernel.growth_bounds()
    if bounds is None:
        return _entry("blowup_bounds", True, {
            "reason": "kernel carries no growth parameters with beta > 1",
        }, skip=True)
    theta1, beta = bounds.theta1, bounds.beta
    delta = series.rows[0][0]
    rho0 = series.rho0()
    table = []
    ok = True
    for r in BLOWUP_ORDERS:
        value = float(values[r][0])
        if value <= 0:
            continue
        sigma = (beta - 1.0) / (r - 1.0)
        try:
            bound = gelation.blowup_bound(r, delta, value, theta1, beta, rho0)
            tstar = gelation.comparison_ode_blowup(
                value, theta1 * rho0 ** (1.0 - sigma) * (r - 1.0), sigma
            )
        except (OverflowError, ZeroDivisionError):
            continue  # a power of the moment leaves the float range: no finite bound
        if not (np.isfinite(bound) and np.isfinite(tstar)):
            continue  # a moment near underflow bounds nothing, as a zero one does
        mismatch = abs((bound - delta) - tstar) / tstar
        ok = ok and mismatch <= BLOWUP_CONSISTENCY_RTOL
        table.append({"r": float(r), "delta": delta, "moment_value": value, "bound": bound})
    return _entry("blowup_bounds", ok, {
        "table": table,
        "consistency_tolerance": BLOWUP_CONSISTENCY_RTOL,
    })


def run_checks(result, stored=None):
    """Run the full verification suite against a replayed run.

    Parameters
    ----------
    result : solver.RunResult
        Replay with captured densities and kernel tables; a finished replay
        without either raises ``InvalidInputError``.  Every gate is a constant
        here; the config gives only the ``check.certification`` to certify.
    stored : dict, optional
        Columns of a stored moments.csv; when given, they are compared with
        the replay's, column by column (detects edited artifacts).

    Returns
    -------
    dict
        What check_report.json holds: ``{"passed", "checks"}``, one entry per
        check; or ``{"passed": False, "replay_failed", "error"}`` when the
        replay failed (``True``) or one of its sums failed numerically.
    """
    if result.failed:
        return _unfinished(result.error, replay_failed=True)
    if result.densities is None or result.tables is None:
        raise InvalidInputError("run was recorded without densities or kernel tables")
    series, kernel = result.series, result.config.kernel
    entries = [_check_bookkeeping(series)]
    if stored is not None:
        entries.append(_check_stored_csv(series, stored))
    entries.append(_check_certification(kernel, result.config.check))
    try:  # the moment pass, the pair sums and the oracle's kernel calls can each overflow
        # every replay sum once: the moments, then all four tests' pair sums
        values = moments.stacked_moments(result.tables.grid, result.densities, HOLDER_ORDERS)
        entries.append(_check_holder(series.times(), values))
        weak_test = moments.CappedIdentity(result.config.grid.R / 2.0)
        tests = [moments.Power(r) for r in SIGN_ORDERS] + [weak_test]
        *power_sums, weak_sums = moments.pair_sums(result.densities, result.tables, tests)
        sums = dict(zip(SIGN_ORDERS, power_sums))
        entries += [
            _check_moment_rhs_sign(sums),
            _check_moment_residual(result, sums[2][:, 0], values[2]),
            _check_weak_form(result, weak_test, weak_sums),
            _check_blowup_bounds(series, kernel, values),
        ]
    except NumericalFailureError as exc:
        return _unfinished(str(exc), replay_failed=False)
    return {"passed": all(entry["status"] != "fail" for entry in entries), "checks": entries}
