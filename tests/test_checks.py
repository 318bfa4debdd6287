"""The check suite's Hoelder entry: each distinct order summed once, for every record."""
import numpy as np

from ohslab import checks, moments


def per_pair_holder_entry(states):
    """The holder_inequality entry from one holder_check(state, r, beta) per pair."""
    worst = {"ratio": 0.0}
    ok = True
    for state in states:
        if moments.moment(state, 1) == 0.0:
            continue
        for r, beta in checks.HOLDER_PAIRS:
            res = moments.holder_check(state, r, beta)
            ok = ok and res.satisfied
            ratio = res.lhs / res.rhs if res.rhs > 0 else np.inf
            if ratio > worst["ratio"]:
                worst = {"ratio": float(ratio), "t": state.t, "r": r, "beta": beta}
    return "pass" if ok else "fail", {"pairs": list(checks.HOLDER_PAIRS), "worst": worst}


def test_holder_suite_sums_each_order_once_per_record(bagland_runs, monkeypatch):
    states = bagland_runs[1024][0].states
    calls, singles = [], []
    stacked, moment, holder = moments.stacked_moments, moments.moment, moments.holder_check

    def counted(states, orders):
        calls.append((len(states), tuple(orders)))
        return stacked(states, orders)

    def counted_single(state, r):
        singles.append(r)
        return moment(state, r)

    def counted_holder(state, r, beta):
        singles.append((r, beta))
        return holder(state, r, beta)

    monkeypatch.setattr(moments, "stacked_moments", counted)
    monkeypatch.setattr(moments, "moment", counted_single)
    monkeypatch.setattr(moments, "holder_check", counted_holder)
    report = checks.CheckReport()
    checks._check_holder(report, states, moments.stacked_moments(states, checks.HOLDER_ORDERS))
    monkeypatch.undo()
    # one stacked sum of every record per order, no per-record moment and
    # no per-record, per-pair holder_check
    assert calls == [(len(states), checks.HOLDER_ORDERS)] and singles == []
    assert len(checks.HOLDER_ORDERS) == 9
    (entry,) = report.checks
    assert entry.name == "holder_inequality"
    # bit for bit: the worst ratio and its record compare with ==
    assert (entry.status, entry.details) == per_pair_holder_entry(states)
