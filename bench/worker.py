"""One fresh benchmark process: set a workload up, then time its passes.

Run by ``bench/run.py``; not meant to be started by hand.  The process
imports ``ohslab`` from the checkout's ``src`` directory only, generates the
workload's inputs from the seed, and prints ``READY <monotonic time>`` once it
is ready, so the parent can time interpreter start to ready.  In ``setup``
mode it stops there.  Otherwise it runs passes of the workload's commands
through ``ohslab.cli.main`` until ``--seconds`` have passed (at least one
pass), checks every output, and prints ``RESULT <json>`` as its last line.

In ``trace`` mode untraced and traced passes alternate, so the run reports
the tracing overhead next to the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

#: Seconds of dense matvecs run, and discarded, before the first timed
#: command.  On the 2-core reference machine a process's first multi-threaded
#: OpenBLAS calls sometimes run about 35x slower (8 ms instead of 0.22 ms per
#: 1024^2 matvec) for about 1.2 s, at random; the warm-up absorbs that, so the
#: first timed command is as fast as the later ones and no command is discarded.
WARMUP_S = 1.5


def _warm_up():
    import numpy as np

    table = np.ones((1024, 1024))
    vec = np.ones(1024)
    start = time.perf_counter()
    while time.perf_counter() - start < WARMUP_S:
        for _ in range(10):
            table @ vec


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ohslab
        import ohslab.cli
    except ImportError as exc:
        sys.exit("bench: cannot import ohslab from %s: %s" % (src, exc))
    location = Path(ohslab.__file__).resolve()
    if src.resolve() not in location.parents:
        sys.exit("bench: ohslab was imported from %s, not from %s" % (location, src))
    return ohslab


def _blas():
    """(library, thread count) of the BLAS that numpy loaded, where known."""
    import ctypes

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError):
        name = "unknown"
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                threads = func()
                break
    return name, threads


def _environment():
    import platform

    import numpy as np

    blas, threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
    }


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _run_command(argv):
    """Run one CLI command; returns (exit code or None, wall s, cpu s)."""
    import ohslab.cli  # resolved now so a traced ``main`` is the one called

    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        rc = ohslab.cli.main(["--quiet"] + argv)
    except Exception:  # a crash is a failed operation, not a failed benchmark
        traceback.print_exc()
        rc = None
    wall = time.perf_counter() - t0
    return rc, wall, _cpu_seconds() - cpu0


def _run_pass(plan, tracer=None, first_cmd=0):
    rcs, walls, cpus = [], [], []
    for k, argv in enumerate(plan.commands):
        if tracer is not None:
            tracer.begin_command(first_cmd + k)
        rc, wall, cpu = _run_command(argv)
        rcs.append(rc)
        walls.append(wall)
        cpus.append(cpu)
    attempted, failed, info = plan.verify(rcs)
    return {
        "wall_s": sum(walls), "cpu_s": sum(cpus), "command_wall_s": walls,
        "exit_codes": rcs, "attempted": attempted, "failed": failed, "info": info,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scale", type=int, default=1)
    args = parser.parse_args(argv)

    _import_package()
    from ohslab.config import load_config

    plan = workloads.prepare(args.workload, args.seed, args.workdir, ROOT, args.scale)
    for argv_ in plan.commands + plan.setup:
        if argv_[0] in ("simulate", "sweep"):
            load_config(argv_[1])
    for argv_ in plan.setup:
        rc, _, _ = _run_command(argv_)
        if rc != 0:
            sys.exit("bench: set-up command %s exited with %r" % (argv_, rc))
    print("READY %.9f" % time.monotonic(), flush=True)
    if args.mode == "setup":
        return 0

    _warm_up()
    tracer = tracer_mod.Tracer() if args.mode == "trace" else None
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is None:
            passes.append(_run_pass(plan))
        else:
            # Untraced and traced passes alternate, so a drift in machine
            # speed biases neither side of the tracing-overhead ratio.
            passes.append(_run_pass(plan))
            first_span = len(tracer.spans)
            tracer.install()
            try:
                record = _run_pass(plan, tracer, first_cmd=len(passes) * len(plan.commands))
            finally:
                tracer.uninstall()
            spans = tracer.spans[first_span:]
            record["layers"] = tracer_mod.layer_metrics(spans)
            record["steps_by_command"] = [
                sum(sp.name == "solver.step" for sp in spans if sp.cmd == cmd)
                for cmd in sorted({sp.cmd for sp in spans})
            ]
            passes.append(record)
        if time.perf_counter() - start >= args.seconds:
            break
    result = {
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": _environment(),
    }
    if tracer is not None:
        tracer.write(Path(args.workdir) / "spans.jsonl")
        result["missing"] = tracer.missing
        result["spans"] = len(tracer.spans)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
