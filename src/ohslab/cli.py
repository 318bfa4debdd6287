"""Experiment runner: simulate single runs, sweep cutoffs, check run artifacts.

Subcommands
-----------
``simulate <config.json>``
    Integrate one run and write its run directory (``runio.write_run``); a
    directory that holds a sweep table is invalid input.
``sweep <config.json>``
    Cutoff-scaling experiment from the config's "sweep" section; writes the
    sweep table (``runio.write_sweep``) and one run directory per cutoff, as
    ``simulate`` writes it for the row's config (a row that raised gets only
    a failed manifest).  A row whose config is invalid is invalid input, and
    so is a directory that holds a run's manifest at its top: nothing is
    written.
``check <run-dir-or-config.json>``
    Replay a run (from a run directory, ``runio.read_run``, or a fresh
    config) and run the verification suite; writes the report that
    ``checks.run_checks`` returns for the replay, failed or not
    (``runio.write_check_report``).  ``runio.read_run`` also gives the stored
    moment series the replay is compared with, when the directory has one.

Which files each of these holds, and what a rewritten directory loses
first, is decided in ``runio`` alone; this module names no file.

Exit codes: 0 ok, 1 check failure, 2 invalid input, 3 numerical failure.
Each command checks its config when it loads it, before it makes any output
directory; ``simulate`` and ``check`` also project the initial data onto the
grid first, so data that does not fit it makes no directory either (a sweep
row whose data does not fit its grid fails alone).  The manifest records
the config with every default explicit, so any run can be reproduced bit
for bit from its artifacts alone.

Each command imports only what it runs: ``simulate`` loads the solver and
the artifact writers, ``check`` adds the verification suite, and ``sweep``
the cutoff experiment, whose process pool loads only when more than one
worker runs the rows.
"""
from __future__ import annotations

import argparse
import functools
import logging
import sys
from pathlib import Path

from . import runio, solver
from .config import load_config
from .errors import InvalidInputError, NumericalFailureError

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL_FAILURE = 3


def cmd_simulate(args):
    cfg = load_config(args.config)
    state = solver.initial_state(cfg)
    out = runio.make_run_dir(args.out or Path(args.config).with_suffix(""))
    result = solver.run(cfg, state=state)
    runio.write_run(out, result)
    if result.failed:
        logger.error("run failed: %s (partial outputs in %s)", result.error, out)
        return EXIT_NUMERICAL_FAILURE
    logger.info("run complete: %d records -> %s", len(result.series.rows), out)
    return EXIT_OK


def cmd_sweep(args):
    from . import gelation  # deferred: simulate and check need no sweep code

    out = Path(args.out or Path(args.config).with_suffix(""))
    cfg = load_config(args.config)
    rows = gelation.cutoff_sweep(cfg, out, workers=args.workers)
    runio.write_sweep(out, rows, cfg.epsilon)
    n_ok = sum(not row.failed for row in rows)
    logger.info("sweep complete: %d/%d rows ok -> %s", n_ok, len(rows), out)
    return EXIT_OK if n_ok else EXIT_NUMERICAL_FAILURE


def cmd_check(args):
    target = Path(args.target)
    if target.is_dir():
        cfg, stored = runio.read_run(target)
        default_out = target
    else:
        cfg, stored = load_config(target), None
        default_out = target.with_suffix("")
    state = solver.initial_state(cfg)
    out = runio.make_dir(args.out or default_out)
    result = solver.run(cfg, capture_densities=True, state=state)
    from . import checks  # deferred: simulate and sweep need no check suite

    report = checks.run_checks(result, stored=stored)
    runio.write_check_report(out, report)
    if "error" in report:
        logger.error("replay failed: %s" if report["replay_failed"]
                     else "checks failed numerically: %s", report["error"])
        return EXIT_NUMERICAL_FAILURE
    for entry in report["checks"]:
        logger.info("check %-24s %s", entry["name"], entry["status"].upper())
    if not report["passed"]:
        failing = [entry["name"] for entry in report["checks"] if entry["status"] == "fail"]
        logger.error("checks failed: %s", ", ".join(failing))
        return EXIT_CHECK_FAILURE
    return EXIT_OK


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="ohslab",
        description="Truncated-domain coagulation solver and diagnostics runner.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate one run from a JSON config")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", help="output directory (default: config stem)")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run the cutoff-scaling experiment")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out", help="output directory (default: config stem)")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="concurrent row processes (default: cpu count)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="verify a run directory or config")
    p_check.add_argument("target", help="run directory with manifest.json, or a config")
    p_check.add_argument("--out", help="report directory (default: the run directory)")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # basicConfig is a no-op once the root logger has a handler, so the
    # level is set apart, on every call
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(logging.WARNING if args.quiet else logging.INFO)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        logger.error("invalid input: %s", exc)
        return EXIT_INVALID_INPUT
    except NumericalFailureError as exc:
        logger.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL_FAILURE


if __name__ == "__main__":
    sys.exit(main())
