"""Each command imports only what it runs.

One fresh interpreter imports ``ohslab.cli`` and then runs ``simulate``,
``check``, a serial ``sweep`` and, last, a sweep on two workers, noting after
each step which of the watched modules it has loaded.  Only the pooled sweep
may load the process pool; the check suite and the sweep stay out of a plain
``simulate``.  A ``check`` whose replay fails loads the check suite all the
same, since ``checks.run_checks`` builds that report too.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

POOL = ("concurrent.futures.process", "multiprocessing")
COMMANDS = ("ohslab.checks", "ohslab.gelation")

SCRIPT = """
import json, sys
watched, steps = json.loads(sys.argv[1])
def loaded():
    return sorted(name for name in watched if name in sys.modules)
import ohslab.cli
seen = {"import": [None, loaded()]}
for name, argv in steps:
    seen[name] = [ohslab.cli.main(["--quiet"] + argv), loaded()]
print(json.dumps(seen))
"""

SIMULATE = {
    "kernel": {"kind": "constant", "value": 1.0},
    "grid": {"kind": "uniform", "R": 4.0, "N": 16},
    "initial": {"kind": "uniform_on", "a": 0.0, "b": 1.0, "mass": 1.0},
    "t_end": 0.05,
    "record_cadence": 0.01,
}

SWEEP = {
    "kernel": {"kind": "power_sum", "theta1": 1.0, "beta": 1.5},
    "grid": {"kind": "uniform", "R": 2.0, "N": 8},
    "initial": {"kind": "uniform_on", "a": 0.5, "b": 1.0, "mass": 1.0},
    "t_end": 0.05,
    "record_cadence": 0.01,
    "sweep": {"cutoffs": [2.0, 4.0], "resolution": 0.25},
}


def run_steps(steps):
    """Each step's exit code and the watched modules loaded after it, in one
    fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", SCRIPT, json.dumps([POOL + COMMANDS, steps])],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=60, check=True,
    )
    return json.loads(proc.stdout)


def test_each_command_loads_only_what_it_runs(tmp_path):
    sim_cfg, sweep_cfg = tmp_path / "sim.json", tmp_path / "sweep.json"
    sim_cfg.write_text(json.dumps(SIMULATE))
    sweep_cfg.write_text(json.dumps(SWEEP))
    run_dir = tmp_path / "run"
    steps = [
        ["simulate", ["simulate", str(sim_cfg), "--out", str(run_dir)]],
        ["check", ["check", str(run_dir)]],
        ["sweep_serial", ["sweep", str(sweep_cfg), "--out", str(tmp_path / "s1"),
                          "--workers", "1"]],
        ["sweep_pooled", ["sweep", str(sweep_cfg), "--out", str(tmp_path / "s2"),
                          "--workers", "2"]],
    ]
    seen = run_steps(steps)
    # check runs its whole suite; at N = 16 the two residual gates fail
    assert [code for code, _ in seen.values()] == [None, 0, 1, 0, 0]
    assert seen["import"][1] == seen["simulate"][1] == []
    assert seen["check"][1] == ["ohslab.checks", "ohslab.gelation"]  # checks reads blowup_bound
    assert seen["sweep_serial"][1] == ["ohslab.checks", "ohslab.gelation"]
    # the positive control: concurrent rows do load the pool
    assert set(POOL) <= set(seen["sweep_pooled"][1])


def test_a_failed_replay_loads_the_check_suite_and_no_pool(tmp_path):
    # the drift times a density of 2e300 overflows in the first right-hand side
    overflowing = dict(SIMULATE, kernel={"kind": "power_sum", "theta1": 1.0, "beta": 1.5},
                       initial={"kind": "uniform_on", "a": 0.0, "b": 1.0, "mass": 1e300})
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(overflowing))
    run_dir = tmp_path / "run"
    seen = run_steps([
        ["simulate", ["simulate", str(cfg), "--out", str(run_dir)]],
        ["check", ["check", str(run_dir)]],
    ])
    assert [code for code, _ in seen.values()] == [None, 3, 3]
    assert seen["simulate"][1] == []
    # run_checks builds the failed replay's report too; no pool is loaded
    assert seen["check"][1] == ["ohslab.checks", "ohslab.gelation"]
    assert json.loads((run_dir / "check_report.json").read_text())["replay_failed"] is True
