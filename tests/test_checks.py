"""The check suite: its Hoelder entry sums each distinct order once, for
every record, and ``run_checks`` returns the check_report.json payload of
every outcome, a failed replay and a failed sum included."""
import numpy as np

from conftest import holder_sides, moment, records

from ohslab import checks, moments
from ohslab.config import SimConfig
from ohslab.solver import run


def per_pair_holder_entry(states):
    """The holder_inequality entry from each state's whole-grid moments, pair by pair."""
    worst = {"ratio": 0.0}
    ok = True
    for state in states:
        if moment(state, 1) == 0.0:
            continue
        for r, beta in checks.HOLDER_PAIRS:
            lhs, rhs, satisfied = holder_sides(state, r, beta)
            ok = ok and satisfied
            ratio = lhs / rhs if rhs > 0 else np.inf
            if ratio > worst["ratio"]:
                worst = {"ratio": float(ratio), "t": state.t, "r": r, "beta": beta}
    return "pass" if ok else "fail", {"pairs": list(checks.HOLDER_PAIRS), "worst": worst}


def test_holder_suite_sums_each_order_once_per_record(bagland_runs, monkeypatch):
    result = bagland_runs[1024][0]
    states = records(result)
    calls, blocks, suites = [], [], []
    stacked, row_sums, holder = moments.stacked_moments, moments._moment_sums, moments.holder_check

    def counted(grid, densities, orders):
        calls.append((len(densities), tuple(orders)))
        return stacked(grid, densities, orders)

    def counted_rows(grid, power, densities, start, extent):
        blocks.append(len(densities))
        return row_sums(grid, power, densities, start, extent)

    def counted_holder(sums, times, pairs):
        suites.append(tuple(pairs))
        return holder(sums, times, pairs)

    monkeypatch.setattr(moments, "stacked_moments", counted)
    monkeypatch.setattr(moments, "_moment_sums", counted_rows)
    monkeypatch.setattr(moments, "holder_check", counted_holder)
    entry = checks._check_holder(result.series.times(),
                                 moments.stacked_moments(result.tables.grid, result.densities,
                                                         checks.HOLDER_ORDERS))
    monkeypatch.undo()
    # one stacked sum of every record per order, whose row sums each take a
    # block of records, and one holder_check over the whole pass
    assert calls == [(len(states), checks.HOLDER_ORDERS)]
    assert sum(blocks) == len(states) * len(checks.HOLDER_ORDERS)
    assert len(blocks) < len(states)
    assert suites == [checks.HOLDER_PAIRS]
    assert len(checks.HOLDER_ORDERS) == 9
    assert entry["name"] == "holder_inequality"
    # bit for bit: the worst ratio and its record compare with ==
    assert (entry["status"], entry["details"]) == per_pair_holder_entry(states)


def replay(payload):
    return run(SimConfig.from_dict(payload), capture_densities=True)


def test_a_failed_replay_reports_its_error():
    # the drift times a density of 2e300 overflows in the first right-hand side
    result = replay({
        "kernel": {"kind": "power_sum", "theta1": 1.0, "beta": 1.5},
        "grid": {"kind": "uniform", "R": 8.0, "N": 16},
        "initial": {"kind": "uniform_on", "a": 0.0, "b": 1.0, "mass": 1e300},
        "t_end": 1.0,
    })
    assert result.failed
    assert checks.run_checks(result) == {
        "passed": False, "replay_failed": True, "error": "non-finite right-hand side",
    }


def test_a_pair_sum_that_overflows_reports_its_error():
    # the replay takes no step, but the check's moment quadratures overflow
    result = replay({
        "kernel": {"kind": "constant", "value": 1e300},
        "grid": {"kind": "uniform", "R": 8.0, "N": 64},
        "initial": {"kind": "uniform_on", "a": 0.0, "b": 1.0, "mass": 1e10},
        "t_end": 0.0,
    })
    assert not result.failed
    assert checks.run_checks(result) == {
        "passed": False, "replay_failed": False, "error": "non-finite pair sum",
    }
