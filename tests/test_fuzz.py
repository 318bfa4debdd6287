"""Small random configs through the command line: ``simulate``, then ``check``.

Each example writes a config drawn over every kernel and ``psi``, both grid
kinds, all three initial kinds (a spike in the last cell and a table with an
empty interval among them), Euler and Heun, and a record cadence that need
not divide ``t_end``; ``N``, ``R`` and ``t_end`` stay small so the run is
short.  Whatever the config, the commands exit with a documented code,
raise nothing and leak no warning, a finished run's moments conserve mass,
a failed run's only non-finite row is its last and its replay fails too,
and every JSON file written is strict JSON.

The same configs carry the solver's exact scaling symmetries: with every
time over a power of 2, ``a``, a run on ``a`` times the mass, or under ``a``
times the kernel's rate, takes the same steps at times ``t / a`` to the bit.
"""
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from conftest import strict_json

from ohslab.cli import main
from ohslab.config import SimConfig
from ohslab.errors import InvalidInputError
from ohslab.runio import read_moments_csv
from ohslab.solver import initial_state, run

positive = st.floats(0.1, 2.0)

kernels = st.one_of(
    st.builds(lambda value: {"kind": "constant", "value": value}, st.floats(0.0, 2.0)),
    st.builds(lambda theta1, beta: {"kind": "power_sum", "theta1": theta1, "beta": beta},
              positive, st.floats(0.5, 2.0)),
    st.builds(lambda theta1, beta, psi, K: {"kind": "mass_conserving", "theta1": theta1,
                                            "beta": beta, "psi": psi, "K": K},
              positive, st.floats(1.1, 2.0), st.sampled_from(["zero", "half_sum", "min"]),
              positive),
    st.builds(lambda exponent: {"kind": "product", "exponent": exponent},
              st.floats(-0.5, 1.5)),
)


@st.composite
def initials(draw, R, N):
    kind = draw(st.sampled_from(["uniform_on", "cell_spike", "table"]))
    if kind == "uniform_on":
        a = draw(st.floats(0.0, 0.5 * R))
        return {"kind": kind, "a": a, "b": draw(st.floats(a + 0.05 * R, R)),
                "mass": draw(positive)}
    if kind == "cell_spike":
        index = draw(st.one_of(st.just(N - 1), st.integers(0, N - 1)))
        return {"kind": kind, "index": index, "mass": draw(positive)}
    cuts = draw(st.lists(st.floats(0.0, R), min_size=4, max_size=6, unique=True))
    values = draw(st.lists(st.floats(0.0, 2.0), min_size=len(cuts) - 1,
                           max_size=len(cuts) - 1))
    values[len(values) // 2] = 0.0  # an empty interval between the outer ones
    values[0] = draw(positive)
    return {"kind": kind, "edges": sorted(cuts), "values": values}


@st.composite
def configs(draw):
    R = draw(st.floats(1.0, 8.0))
    N = draw(st.integers(2, 48))
    grid = {"kind": "uniform", "R": R, "N": N}
    if draw(st.booleans()):
        grid.update(kind="geometric", q=draw(st.floats(1.01, 1.3)))
    t_end = draw(st.floats(0.01, 0.2))
    return {
        "kernel": draw(kernels),
        "grid": grid,
        "initial": draw(initials(R, N)),
        "t_end": t_end,
        "cfl": draw(st.floats(0.2, 1.0)),
        "record_cadence": t_end / draw(st.one_of(st.integers(1, 10), st.floats(1.0, 10.0))),
        "scheme": draw(st.sampled_from(["euler", "heun"])),
    }


#: A table whose mass sits on [0, 1.6e-155]: its M^1 of 1.2e-310 is subnormal, so
#: 1 / M^1 overflows in the Hoelder entry and 1 / M^r in the blow-up table.
TINY_MASS = {
    "grid": {"kind": "uniform", "R": 1.0, "N": 2},
    "initial": {"kind": "table", "edges": [0.0, 1.5634983569473714e-155, 1.0],
                "values": [1.0, 0.0]},
    "t_end": 0.125, "cfl": 1.0, "record_cadence": 0.125, "scheme": "euler",
}

#: A mass of 1e160 that an idle kernel leaves in place: (M^2)^2 overflows in
#: the Hoelder entry.
BIG_MASS = {
    "kernel": {"kind": "constant", "value": 0.0},
    "grid": {"kind": "uniform", "R": 8.0, "N": 16},
    "initial": {"kind": "uniform_on", "a": 0.0, "b": 1.0, "mass": 1e160},
    "t_end": 0.1, "record_cadence": 0.01,
}


#: A mass of 5e307 on [7, 8], whose M^2 passes the float range at the t = 0
#: record: the run fails there, under an idle kernel or a tiny one alike.
HUGE_M2 = {
    "grid": {"kind": "uniform", "R": 8.0, "N": 16},
    "initial": {"kind": "uniform_on", "a": 7.0, "b": 8.0, "mass": 5e307},
    "t_end": 1.0,
}


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(configs())
@example(dict(TINY_MASS, kernel={"kind": "constant", "value": 0.0}))
@example(dict(TINY_MASS, kernel={"kind": "power_sum", "theta1": 1.0, "beta": 2.0}))
@example(BIG_MASS)
@example(dict(HUGE_M2, kernel={"kind": "constant", "value": 0.0}))
@example(dict(HUGE_M2, kernel={"kind": "constant", "value": 1e-300}))
def test_simulate_then_check_any_small_config(tmp_path_factory, cfg):
    tmp = tmp_path_factory.mktemp("fuzz")
    path, out = tmp / "config.json", tmp / "run"
    path.write_text(json.dumps(cfg))
    simulated = main(["--quiet", "simulate", str(path), "--out", str(out)])
    assert simulated in (0, 2, 3)
    if simulated == 0:
        columns = read_moments_csv(out / "moments.csv")
        assert all(np.all(np.isfinite(values)) for values in columns.values())
        rho0 = columns["M1"][0] + columns["gel_mass"][0]
        drift = np.abs(columns["M1"] + columns["gel_mass"] - rho0)
        assert np.max(drift) <= 1e-10 * rho0
    if simulated == 3:  # the run ends on its first record that is not finite
        columns = read_moments_csv(out / "moments.csv")
        assert np.all([np.isfinite(values[:-1]) for values in columns.values()])
    target = out if out.is_dir() else path
    checked = main(["--quiet", "check", str(target), "--out", str(out)])
    if simulated == 3:  # the replay fails as the run did
        assert checked == 3 and strict_json(out / "check_report.json")["replay_failed"]
    else:
        assert checked in (0, 1, 2, 3)
    if checked in (0, 1):  # a full suite: passed exactly when no entry failed
        report = strict_json(out / "check_report.json")
        assert all(set(entry) == {"name", "status", "details"} for entry in report["checks"])
        assert report["passed"] == all(entry["status"] != "fail" for entry in report["checks"])
        assert report["passed"] == (checked == 0)
    for written in tmp.rglob("*.json"):
        strict_json(written)


ROOT = Path(__file__).resolve().parents[1]

#: The configs the symmetries were first seen on: the two shipped ones (the
#: sweep's without its sweep), Heun on a geometric grid under mass_conserving
#: ``min``, and power_sum with beta = 1 on table data.  Last, a run whose
#: last record gap is 4e-12, which at a = 8 reads 5e-13: a time tolerance
#: that is not a share of t_end alone drops that record from the scaled run.
SYMMETRY_CONFIGS = [
    json.loads((ROOT / "configs" / "bagland.json").read_text()),
    {k: v for k, v in json.loads((ROOT / "configs" / "gelation_sweep.json").read_text()).items()
     if k != "sweep"},
    {"kernel": {"kind": "mass_conserving", "theta1": 1.0, "beta": 1.5, "psi": "min", "K": 0.5},
     "grid": {"kind": "geometric", "R": 16.0, "N": 1024, "q": 1.003},
     "initial": {"kind": "uniform_on", "a": 0.5, "b": 1.0, "mass": 1.0},
     "t_end": 2.0, "cfl": 1.0, "record_cadence": 0.01, "scheme": "heun"},
    {"kernel": {"kind": "power_sum", "theta1": 1.0, "beta": 1.0},
     "grid": {"kind": "uniform", "R": 8.0, "N": 256},
     "initial": {"kind": "table", "edges": [0.0, 0.5, 1.0, 2.0], "values": [1.0, 0.0, 0.5]},
     "t_end": 1.0, "record_cadence": 0.05},
    {"kernel": {"kind": "power_sum", "theta1": 1.0, "beta": 1.5},
     "grid": {"kind": "uniform", "R": 4.0, "N": 64},
     "initial": {"kind": "uniform_on", "a": 0.5, "b": 1.0, "mass": 1.0},
     "t_end": 0.5, "record_cadence": (0.5 - 4e-12) / 10, "dt_max": 0.005},
]


def symmetry_examples(test):
    for cfg in SYMMETRY_CONFIGS:
        test = example(cfg=cfg)(test)
    return test


#: The kernel keys that scale its rate; a product kernel has none.
RATE_KEYS = {"constant": ("value",), "power_sum": ("theta1",),
             "mass_conserving": ("theta1", "K"), "product": ()}


def time_scaled(cfg, a):
    """The resolved config of ``cfg`` with t_end, record_cadence and dt_max over
    ``a``, or None where ``cfg`` does not build; as a JSON mapping."""
    try:
        config = SimConfig.from_dict(cfg)
        initial_state(config)
    except InvalidInputError:
        return None
    scaled = config.to_dict()
    for key in ("t_end", "record_cadence", "dt_max"):
        scaled[key] /= a
    return scaled


def assert_scaled_run(cfg, scaled, a, moment_factor):
    """The runs of ``cfg`` and ``scaled`` take the same steps, ``scaled`` at the
    times over ``a`` and with every other column ``moment_factor`` times, bitwise."""
    base, other = run(SimConfig.from_dict(cfg)), run(SimConfig.from_dict(scaled))
    assert (other.steps, other.error) == (base.steps, base.error)
    columns, scaled_columns = base.series.columns(), other.series.columns()
    assert list(scaled_columns) == list(columns)
    for label, values in columns.items():
        expected = values / a if label == "t" else values * moment_factor
        assert scaled_columns[label].tobytes() == expected.tobytes(), label


@pytest.mark.parametrize("a", [0.5, 2.0, 8.0])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(cfg=configs())
@symmetry_examples
def test_mass_times_a_and_time_over_a_scale_the_moments_exactly(a, cfg):
    scaled = time_scaled(cfg, a)
    if scaled is None:
        reject()
    initial = scaled["initial"]
    if initial["kind"] == "table":
        initial["values"] = [v * a for v in initial["values"]]
    else:
        initial["mass"] *= a
    assert_scaled_run(cfg, scaled, a, a)


@pytest.mark.parametrize("a", [0.5, 2.0, 8.0])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(cfg=configs())
@symmetry_examples
def test_rate_times_a_and_time_over_a_keep_the_moments_exactly(a, cfg):
    scaled = time_scaled(cfg, a)
    keys = RATE_KEYS[cfg["kernel"]["kind"]]
    if scaled is None or not keys:
        reject()
    for key in keys:
        scaled["kernel"][key] *= a
    assert_scaled_run(cfg, scaled, a, 1.0)
