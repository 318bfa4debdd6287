"""Verification suite run by the ``check`` command against a completed run.

Each check reports pass/fail/skip with details; the command exits nonzero if
any check fails.  The suite covers the discrete mass bookkeeping, every
column of a stored moments.csv against the replay (catches tampering), kernel
certification, the Hoelder inequality on every recorded state, the sign and
evolution residual of the higher moments, the weak-form residual with its
independent brute-force cross-check, and the blow-up bound table.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import gelation, kernels, moments, oracle
from .config import CheckSpec
from .errors import InvalidInputError

BOOKKEEPING_RTOL = 1e-10
HOLDER_PAIRS = ((2, 1.5), (2, 2.0), (3, 1.5), (3, 2.0), (5, 1.5), (5, 2.0))
#: Every moment order the pairs read: 1, r and r + beta - 1, each once.
HOLDER_ORDERS = tuple(sorted({1, *(q for r, beta in HOLDER_PAIRS for q in (r, r + beta - 1.0))}))
SIGN_ORDERS = (2, 3, 5)
SIGN_SLACK = 1e-14
#: Orders of the blow-up table, each an r of HOLDER_PAIRS, so the moment pass holds it.
BLOWUP_ORDERS = (2, 3, 5)
BLOWUP_CONSISTENCY_RTOL = 1e-12
WEAK_AGREEMENT_RTOL = 1e-10


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    details: dict = field(default_factory=dict)


@dataclass
class CheckReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.status != "fail" for c in self.checks)

    def add(self, name, ok, details=None, skip=False):
        status = "skip" if skip else ("pass" if ok else "fail")
        self.checks.append(CheckResult(name=name, status=status, details=details or {}))

    def to_dict(self):
        return {"passed": self.passed, "checks": [asdict(c) for c in self.checks]}


def _check_bookkeeping(report, series):
    m1, gel, rho0 = series.values(1.0), series.gel(), series.rho0()
    drift = np.abs(m1 + gel - rho0) / rho0
    monotone = bool(np.all(np.diff(gel) >= 0)) if gel.size > 1 else True
    ok = bool(np.max(drift) <= BOOKKEEPING_RTOL) and monotone
    report.add("bookkeeping", ok, {
        "max_rel_drift": float(np.max(drift)),
        "gel_nondecreasing": monotone,
        "tolerance": BOOKKEEPING_RTOL,
    })


def _check_stored_csv(report, series, stored):
    """The stored moments.csv is the replay's: same header, rows and values."""
    header_ok = list(stored) == series.labels
    rows_ok = header_ok and len(stored["t"]) == len(series.rows)
    mismatch = None
    if rows_ok:  # each column relative to its largest magnitude; np.max keeps a NaN
        mismatch = float(np.max([np.max(np.abs(stored[label] - values))
                                 / max(float(np.max(np.abs(values))), moments.EPS_FLOOR)
                                 for label, values in series.columns().items()]))
    report.add("stored_moments_csv", rows_ok and mismatch <= BOOKKEEPING_RTOL, {
        "header_matches": header_ok, "rows_match": rows_ok,
        "max_rel_mismatch": mismatch, "tolerance": BOOKKEEPING_RTOL,
    })


def _check_certification(report, kernel, params):
    params = params or kernel.growth_bounds()
    if params is None:
        report.add("certification", True, {
            "reason": "kernel carries no growth parameters and none were configured",
        }, skip=True)
        return
    cert = kernels.certify_hypothesis_A(kernel, params)
    report.add("certification", cert.passed, cert.to_dict())


def _check_holder(report, times, sums):
    """Add the Hoelder entry from ``sums``, the stacked HOLDER_ORDERS moments."""
    ok, worst = moments.holder_check(sums, times, HOLDER_PAIRS)
    report.add("holder_inequality", ok, {"pairs": list(HOLDER_PAIRS), "worst": worst})


def _check_moment_rhs_sign(report, sums):
    """Add the sign check of the pair sums of each SIGN_ORDERS order."""
    values = np.array([sums[r][:, 0] for r in SIGN_ORDERS])
    ok = bool(np.all(values >= -SIGN_SLACK * np.maximum(1.0, np.abs(values))))
    least = min(0.0, float(np.min(values)))
    report.add("moment_rhs_sign", ok, {"orders": list(SIGN_ORDERS), "min_value": least})


def _check_moment_residual(report, result, tol, sums, values):
    try:
        residual = moments.moment_residual(result, 2, sums, values)
    except InvalidInputError as exc:  # too few records, non-uniform cadence
        report.add("moment_residual", True, {"reason": str(exc)}, skip=True)
        return
    report.add("moment_residual", residual <= tol, {
        "r": 2, "residual": residual, "tolerance": tol,
    })


def _check_weak_form(report, result, tol, test, sums):
    residual, internal, gross = moments.weak_form_residual(result, test, sums)
    brute = oracle.brute_force_weak_rhs(result.states, result.config.kernel, test)
    agree = moments.relative_gap(internal, brute, gross)
    ok = residual <= tol and agree <= WEAK_AGREEMENT_RTOL
    report.add("weak_form_residual", ok, {
        "cap": test.lam, "t": float(result.series.times()[-1]), "residual": residual,
        "tolerance": tol, "oracle_agreement": agree,
        "agreement_tolerance": WEAK_AGREEMENT_RTOL,
    })


def _check_blowup_bounds(report, result, values):
    """Add the blow-up table from ``values``, the moment pass, at the first record."""
    bounds = result.config.kernel.growth_bounds()
    if bounds is None:
        report.add("blowup_bounds", True, {
            "reason": "kernel carries no growth parameters with beta > 1",
        }, skip=True)
        return
    theta1, beta = bounds.theta1, bounds.beta
    first = result.states[0]
    rho0 = result.series.rho0()
    table = []
    ok = True
    for r in BLOWUP_ORDERS:
        value = float(values[r][0])
        if value <= 0:
            continue
        bound = gelation.blowup_bound(r, first.t, value, theta1, beta, rho0)
        sigma = (beta - 1.0) / (r - 1.0)
        tstar = gelation.comparison_ode_blowup(
            value, theta1 * rho0 ** (1.0 - sigma) * (r - 1.0), sigma
        )
        mismatch = abs((bound - first.t) - tstar) / tstar
        ok = ok and mismatch <= BLOWUP_CONSISTENCY_RTOL
        table.append({"r": float(r), "delta": first.t, "moment_value": value, "bound": bound})
    report.add("blowup_bounds", ok, {
        "table": table,
        "consistency_tolerance": BLOWUP_CONSISTENCY_RTOL,
    })


def run_checks(result, stored=None):
    """Run the full verification suite against a replayed run.

    Parameters
    ----------
    result : solver.RunResult
        Replay with captured states and kernel tables; without them it
        raises ``InvalidInputError``.  Its config's "check" section gives the
        certification constants and residual tolerances, defaults without one.
    stored : dict, optional
        Columns of a stored moments.csv; when given, they are compared with
        the replay's, column by column (detects edited artifacts).
    """
    if not result.states or result.tables is None:
        raise InvalidInputError("run was recorded without state snapshots or kernel tables")
    settings = result.config.check or CheckSpec()
    report = CheckReport()
    series = result.series
    _check_bookkeeping(report, series)
    if stored is not None:
        _check_stored_csv(report, series, stored)
    _check_certification(report, result.config.kernel, settings.certification)
    # every replay sum once: the moments, then all four tests' pair sums
    values = moments.stacked_moments(result.states, HOLDER_ORDERS)
    _check_holder(report, series.times(), values)
    weak_test = moments.CappedIdentity(result.config.grid.R / 2.0)
    tests = [moments.Power(r) for r in SIGN_ORDERS] + [weak_test]
    *power_sums, weak_sums = moments.pair_sums(result.states, result.tables, tests)
    sums = dict(zip(SIGN_ORDERS, power_sums))
    _check_moment_rhs_sign(report, sums)
    _check_moment_residual(report, result, settings.moment_residual_tol, sums[2][:, 0], values[2])
    _check_weak_form(report, result, settings.weak_residual_tol, weak_test, weak_sums)
    _check_blowup_bounds(report, result, values)
    return report
