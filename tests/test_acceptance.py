"""Acceptance suite: every gate runs at its stated tolerance.

Each test evaluates one criterion, registers a PASS/FAIL line for the
terminal summary, and then asserts.  Criteria:

1. oracle accuracy and first-order convergence against the explicit solution
2. exact mass bookkeeping across the three kernel families
3. interpolation-inequality and sign suite on every recorded state
4. moment-evolution residual for r = 2
5. blow-up bound vs comparison-ODE consistency
6. cutoff-scaling experiment: t_loss strictly decreasing in R
7. tail positivity past the initial support
8. weak-form residual with its independent brute-force oracle
"""
import numpy as np

from conftest import holder_sides, record_criterion, replay_moment_residual, replay_sums

from ohslab import BaglandSolution
from ohslab.gelation import blowup_bound, comparison_ode_blowup
from ohslab.moments import (
    CappedIdentity,
    EPS_FLOOR,
    GROSS_GUARD,
    Power,
    moment,
    pair_sums,
    weak_form_residual,
)
from ohslab.oracle import brute_force_weak_rhs, l1_error

HOLDER_PAIRS = ((2, 1.5), (2, 2.0), (3, 1.5), (3, 2.0), (5, 1.5), (5, 2.0))


def test_criterion_1_oracle_accuracy(bagland_runs):
    sol = BaglandSolution(1.0)
    errors = {}
    for N in (512, 1024):
        result, _ = bagland_runs[N]
        errors[N] = l1_error(result.final_state, sol) / sol.moment(0, 1.0)
    ratio = errors[512] / errors[1024]
    runtime = bagland_runs[1024][1]
    ok = errors[1024] <= 0.05 and 1.7 <= ratio <= 2.3 and runtime <= 60.0
    record_criterion(
        1, "oracle accuracy", ok,
        "rel L1 error %.4f (<= 0.05), ratio 512/1024 %.3f (in [1.7, 2.3]), "
        "runtime %.1fs (<= 60)" % (errors[1024], ratio, runtime),
    )
    assert errors[1024] <= 0.05
    assert 1.7 <= ratio <= 2.3
    assert runtime <= 60.0


def test_criterion_2_mass_bookkeeping(bagland_runs, powersum_run, massconserving_run):
    worst = 0.0
    for result in (bagland_runs[1024][0], powersum_run, massconserving_run):
        series = result.series
        rho0 = series.rho0()
        drift = np.abs(series.values(1.0) + series.gel() - rho0) / rho0
        worst = max(worst, float(np.max(drift)))
    ok = worst <= 1e-10
    record_criterion(
        2, "exact mass bookkeeping", ok,
        "max relative drift %.2e (<= 1e-10) across constant, power-sum, "
        "mass-conserving runs" % worst,
    )
    assert worst <= 1e-10


def test_criterion_3_holder_and_sign_suite(bagland_runs, powersum_run, massconserving_run):
    worst_ratio = 0.0
    least_rhs = 0.0
    ok = True
    for result in (bagland_runs[1024][0], powersum_run, massconserving_run):
        for state in result.states:
            for r, beta in HOLDER_PAIRS:
                lhs, rhs, satisfied = holder_sides(state, r, beta)
                ok = ok and satisfied
                if rhs > 0:
                    worst_ratio = max(worst_ratio, lhs / rhs)
        for r in (2, 3, 5):
            for value in pair_sums(result.states, result.tables, [Power(r)])[0][:, 0]:
                ok = ok and value >= -1e-14 * max(1.0, abs(value))
                least_rhs = min(least_rhs, value)
    record_criterion(
        3, "Holder/moment suite", ok,
        "worst lhs/rhs %.6f (<= 1 + 1e-12), min moment quadrature %.2e (>= -1e-14 scale)"
        % (worst_ratio, least_rhs),
    )
    assert ok


def test_criterion_4_moment_evolution_residual(bagland_runs):
    result, _ = bagland_runs[1024]
    residual = replay_moment_residual(result, 2)
    states = result.states
    times = result.series.times()
    rhs0 = pair_sums(states[:1], result.tables, [Power(2)])[0][0, 0]
    m2 = [moment(states[k], 2) for k in (0, 2)]
    diff0 = (m2[1] - m2[0]) / (times[2] - times[0])
    target = 2.0 / 3.0
    ok = (
        residual <= 0.05
        and abs(rhs0 - target) <= 0.05 * target
        and abs(diff0 - target) <= 0.05 * target
    )
    record_criterion(
        4, "moment-evolution residual", ok,
        "max residual %.4f (<= 0.05); at t=0 quadrature %.4f and difference "
        "quotient %.4f vs 2/3 (within 5%%)" % (residual, rhs0, diff0),
    )
    assert residual <= 0.05
    assert abs(rhs0 - target) <= 0.05 * target
    assert abs(diff0 - target) <= 0.05 * target


def test_criterion_5_blowup_bound_consistency():
    q0, theta1, rho0 = 4.0, 1.0, 1.0
    worst = 0.0
    for r in (2, 3, 4, 5, 6):
        for beta in (1.2, 1.5, 2.0, 2.5, 3.0):
            sigma = (beta - 1.0) / (r - 1.0)
            c = theta1 * rho0 ** (1.0 - sigma) * (r - 1.0)
            bound = blowup_bound(r, 0.0, q0, theta1, beta, rho0)
            tstar = comparison_ode_blowup(q0, c, sigma)
            worst = max(worst, abs(bound - tstar) / tstar)
    spot = blowup_bound(3, 0.0, 4.0, 1.0, 2.0, 1.0)
    ok = worst <= 1e-12 and abs(spot - 0.5) <= 1e-12
    record_criterion(
        5, "blow-up bound consistency", ok,
        "max mismatch %.2e on the 25-point grid (<= 1e-12); spot value %.12g (= 0.5)"
        % (worst, spot),
    )
    assert worst <= 1e-12
    assert spot == 0.5


def test_criterion_6_cutoff_scaling_experiment(gelation_sweep):
    report, runtime = gelation_sweep
    t_losses = [row.t_loss for row in report.rows]
    finite = all(t is not None for t in t_losses)
    decreasing = finite and all(b < a for a, b in zip(t_losses, t_losses[1:]))
    ok = decreasing and runtime <= 600.0
    record_criterion(
        6, "cutoff-scaling experiment", ok,
        "t_loss by R in {4, 8, 16, 32}: %s; strictly decreasing: %s; runtime %.0fs (<= 600)"
        % (["%.4f" % t if t is not None else "none" for t in t_losses], decreasing, runtime),
    )
    assert runtime <= 600.0
    assert finite
    # the gate as stated: loss time strictly decreasing in the cutoff
    assert decreasing, (
        "t_loss(R) came out strictly increasing (%s): on the truncated domain the "
        "gel mass is carried by particles that must advect to the cutoff, and the "
        "transit time integral of 1/v grows (and saturates) with R" % t_losses
    )


def test_criterion_7_tail_positivity(bagland_t2):
    tail0 = bagland_t2.series.tail(2.0)[0]
    tail2 = bagland_t2.series.tail(2.0)[-1]
    ok = tail0 == 0.0 and tail2 > 0.0
    record_criterion(
        7, "tail positivity", ok,
        "mass above 2: %.1e at t=0 (= 0), %.4e at t=2 (> 0)" % (tail0, tail2),
    )
    assert tail0 == 0.0
    assert tail2 > 0.0


def test_criterion_8_weak_form_residual(bagland_runs):
    result, _ = bagland_runs[1024]
    cap = result.config.grid.R / 2.0
    test = CappedIdentity(cap)
    residual, internal, gross = weak_form_residual(result, test, replay_sums(result, test))
    brute = brute_force_weak_rhs(result.states, result.config.kernel, test)
    agreement = abs(internal - brute) / max(
        abs(internal), abs(brute), GROSS_GUARD * gross, EPS_FLOOR
    )
    ok = residual <= 0.05 and agreement <= 1e-10
    record_criterion(
        8, "weak-form residual", ok,
        "residual %.2e (<= 0.05) at cap R/2; oracle agreement %.2e (<= 1e-10)"
        % (residual, agreement),
    )
    assert residual <= 0.05
    assert agreement <= 1e-10
