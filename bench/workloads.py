"""Benchmark workloads: inputs generated from a seed, commands, output checks.

Seed 0 reproduces the checked-in configs exactly.  Any other seed jitters
only the initial block by a few percent; for the constant-kernel (Bagland)
runs it jitters the mass M and keeps b = M, so the explicit solution stays
the reference.  The program receives only the generated config files.

An operation is one CLI command, and for the sweep one row.  An operation
fails when its command exits nonzero, when its row is marked failed, or when
one of the output checks below rejects what it wrote.  The checks read the
artifacts with the standard library, independently of the package.
"""
from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

NAMES = ("bagland_ladder", "cutoff_sweep", "check_reference", "heun_geometric")

#: Relative jitter applied to the initial block for seeds other than 0.
JITTER = 0.02

#: |M1 + gel_mass - rho0| / rho0 allowed in every moments.csv.
BOOKKEEPING_RTOL = 1e-10

LADDER_SIZES = (1024, 2048, 4096)

HEUN_CONFIG = {
    "kernel": {"kind": "mass_conserving", "theta1": 1.0, "beta": 1.5,
               "psi": "min", "K": 0.5},
    "grid": {"kind": "geometric", "R": 16.0, "N": 1024, "q": 1.003},
    "initial": {"kind": "uniform_on", "a": 0.5, "b": 1.0, "mass": 1.0},
    "t_end": 2.0,
    "cfl": 1.0,
    "record_cadence": 0.01,
    "scheme": "heun",
}


class Plan:
    """Commands of one workload pass and the check of what they wrote.

    ``commands`` are argument lists for ``ohslab.cli.main``; ``setup`` lists
    commands that produce inputs before timing starts.
    """

    def __init__(self, name, commands, setup=(), mass=None):
        self.name = name
        self.commands = [list(c) for c in commands]
        self.setup = [list(c) for c in setup]
        self.mass = mass

    def verify(self, rcs):
        """Check one pass; returns (attempted, failed, info)."""
        return _VERIFY[self.name](self, rcs)


def _jitter(rng, value):
    return value * (1.0 + rng.uniform(-JITTER, JITTER))


def _rng(name, seed):
    return random.Random("%s:%d" % (name, seed))


def _write(path, cfg):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
        fh.write("\n")
    return str(path)


def _bagland(root, seed, name):
    """The bagland config with the mass M (and b = M) jittered."""
    with open(Path(root) / "configs" / "bagland.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if seed:
        mass = _jitter(_rng(name, seed), cfg["initial"]["mass"])
        cfg["initial"] = dict(cfg["initial"], b=mass, mass=mass)
    return cfg


def _jitter_block(cfg, rng):
    block = dict(cfg["initial"])
    for key in ("a", "b", "mass"):
        block[key] = _jitter(rng, block[key])
    cfg["initial"] = block
    return cfg


def prepare(name, seed, workdir, root, scale=1):
    """Write the workload's configs into ``workdir`` and return its Plan.

    ``scale`` divides every grid size (and multiplies the sweep cell width);
    the self-tests use it for a seconds-long smoke pass.  ``check_reference``
    keeps N = 1024 at any scale: the check suite's moment residual meets its
    tolerance there and fails it at N = 256.
    """
    workdir = Path(workdir)
    if name == "bagland_ladder":
        base = _bagland(root, seed, name)
        commands = []
        for n in LADDER_SIZES:
            cfg = dict(base, grid=dict(base["grid"], N=n // scale))
            path = _write(workdir / ("bagland_N%d.json" % n), cfg)
            commands.append(["simulate", path, "--out", str(workdir / ("N%d" % n))])
        return Plan(name, commands, mass=base["initial"]["mass"])
    if name == "cutoff_sweep":
        with open(Path(root) / "configs" / "gelation_sweep.json", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if seed:
            _jitter_block(cfg, _rng(name, seed))
        if scale != 1:
            cfg["sweep"] = dict(cfg["sweep"], resolution=cfg["sweep"]["resolution"] * scale)
        path = _write(workdir / "gelation_sweep.json", cfg)
        return Plan(name, [
            ["sweep", path, "--out", str(workdir / "sweep"), "--workers", "1"],
        ])
    if name == "check_reference":
        cfg = _bagland(root, seed, name)
        path = _write(workdir / "bagland.json", cfg)
        run_dir = str(workdir / "run")
        return Plan(
            name,
            [["check", run_dir, "--out", str(workdir / "report")]],
            setup=[["simulate", path, "--out", run_dir]],
            mass=cfg["initial"]["mass"],
        )
    if name == "heun_geometric":
        cfg = json.loads(json.dumps(HEUN_CONFIG))
        if seed:
            _jitter_block(cfg, _rng(name, seed))
        if scale != 1:
            grid = cfg["grid"]
            cfg["grid"] = dict(grid, N=grid["N"] // scale, q=grid["q"] ** scale)
        path = _write(workdir / "heun_geometric.json", cfg)
        return Plan(name, [
            ["simulate", path, "--out", str(workdir / "heun")],
        ])
    raise ValueError("unknown workload %r" % (name,))


def read_columns(path):
    """Columns of a CSV file as {header: [str, ...]}."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {h: [row[k] for row in body] for k, h in enumerate(header)}


def bookkeeping_drift(path):
    """Max |M1 + gel_mass - rho0| / rho0 over a moments.csv (inf if unreadable)."""
    try:
        cols = read_columns(path)
        m1 = [float(x) for x in cols["M1"]]
        gel = [float(x) for x in cols["gel_mass"]]
    except (OSError, KeyError, ValueError, IndexError):
        return math.inf
    if not m1:
        return math.inf
    rho0 = m1[0] + gel[0]
    if not rho0 > 0:
        return math.inf
    return max(abs(a + g - rho0) / rho0 for a, g in zip(m1, gel))


def bookkeeping_ok(path):
    return bookkeeping_drift(path) <= BOOKKEEPING_RTOL


def bagland_l1_error(final_state_path, mass):
    """L1 distance of a stored final state to the explicit Bagland solution.

    The solution is 2 / (M (1 + t)^2) on [0, M (1 + t)]; it is compared
    through its exact cell averages.
    """
    with open(final_state_path, encoding="utf-8") as fh:
        st = json.load(fh)
    t, edges, xi = st["t"], st["edges"], st["xi"]
    support = mass * (1.0 + t)
    height = 2.0 / (mass * (1.0 + t) ** 2)
    total = 0.0
    for k, x in enumerate(xi):
        lo, hi = edges[k], edges[k + 1]
        width = hi - lo
        avg = height * (min(hi, support) - min(lo, support)) / width
        total += abs(x - avg) * width
    return total


def _verify_ladder(plan, rcs):
    failed, errors = 0, []
    for k, (cmd, rc) in enumerate(zip(plan.commands, rcs)):
        out = Path(cmd[3])
        ok = rc == 0 and bookkeeping_ok(out / "moments.csv")
        try:
            err = bagland_l1_error(out / "final_state.json", plan.mass)
        except (OSError, KeyError, ValueError, IndexError):
            err, ok = math.inf, False
        # Each rung must be more accurate than the coarser one before it.
        if k and not err < errors[-1]:
            ok = False
        errors.append(err)
        failed += not ok
    return len(plan.commands), failed, {"l1_error": errors}


def _verify_sweep(plan, rcs):
    out = Path(plan.commands[0][3])
    with open(plan.commands[0][1], encoding="utf-8") as fh:
        expected = len(json.load(fh)["sweep"]["cutoffs"])
    try:
        rows = read_columns(out / "sweep.csv")
        with open(out / "sweep.json", encoding="utf-8") as fh:
            report = json.load(fh)["rows"]
    except (OSError, KeyError, ValueError, IndexError):
        return expected, expected, {"t_loss": []}
    t_losses, rows_ok = [], 0
    for k, row in enumerate(report[:expected]):
        try:
            t_loss = float(rows["t_loss"][k])
        except (KeyError, ValueError, IndexError):
            t_loss = math.nan
        t_losses.append(t_loss)
        ok = (
            rcs[0] == 0
            and not row.get("failed")
            and math.isfinite(t_loss)
            and bookkeeping_ok(out / ("R%g" % row["R"]) / "moments.csv")
        )
        rows_ok += ok
    return expected, expected - rows_ok, {"t_loss": t_losses}


def _verify_check(plan, rcs):
    report_path = Path(plan.commands[0][3]) / "check_report.json"
    run_dir = Path(plan.commands[0][1])
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        statuses = [c["status"] for c in report["checks"]]
    except (OSError, KeyError, ValueError, TypeError):
        return 1, 1, {}
    ok = (
        rcs[0] == 0
        and report.get("passed") is True
        and "fail" not in statuses
        and bookkeeping_ok(run_dir / "moments.csv")
    )
    info = {"checks": len(statuses)}
    try:
        info["l1_error"] = [bagland_l1_error(run_dir / "final_state.json", plan.mass)]
    except (OSError, KeyError, ValueError, IndexError):
        ok = False
    return 1, int(not ok), info


def _verify_simulate(plan, rcs):
    out = Path(plan.commands[0][3])
    ok = rcs[0] == 0 and bookkeeping_ok(out / "moments.csv")
    return 1, int(not ok), {}


_VERIFY = {
    "bagland_ladder": _verify_ladder,
    "cutoff_sweep": _verify_sweep,
    "check_reference": _verify_check,
    "heun_geometric": _verify_simulate,
}
