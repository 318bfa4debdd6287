"""ohslab benchmark: simulate, sweep and check end to end, or traced per layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--save FILE]
    python3 bench/run.py --compare OLD.json NEW.json
    python3 bench/run.py --smoke

A single-workload run prints its details and, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics.

End to end, with tracing off, the run starts ``SETUP_SAMPLES`` fresh
processes that only set the workload up and one more that sets it up and then
runs passes of the workload's commands through ``ohslab.cli.main`` for
``--seconds`` seconds (at least one pass):

* ``setup_s``: interpreter start to ready, median over all those processes;
* ``wall_s``: wall time of one pass, median over passes;
* ``cpu_s``: user + system CPU time of the process and its children over one
  pass, median over passes (BLAS threads make it exceed ``wall_s``);
* ``peak_rss_mb``: peak resident memory of the measuring process, in MiB.

The traced run alternates untraced and traced passes in one process and
reports per-layer medians over the traced passes, plus the tracing overhead:
the median traced pass against the median untraced one.

``--all`` runs every workload both ways and prints one row per workload;
``--save`` stores the results and ``--compare`` prints each metric's ratio
against an earlier saved file.  ``--smoke`` runs every workload at 1/16 of its
grid size, once each way.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

#: Fresh set-up-only processes per end-to-end run, half started before the
#: measuring process and half after it, so the median spans the whole run
#: (the measuring process adds one more set-up sample).
SETUP_SAMPLES = 6

#: A run must end well within the 180 s a benchmark invocation is allowed.
DEADLINE_S = 170.0

#: Grid-size divisor of ``--smoke``.
SMOKE_SCALE = 16

WORK = ROOT / ".bench_work"

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _check_checkout():
    for need in (ROOT / "src" / "ohslab" / "__init__.py",
                 ROOT / "configs" / "bagland.json",
                 ROOT / "configs" / "gelation_sweep.json"):
        if not need.is_file():
            raise BenchError("%s is missing: run from a full ohslab checkout" % need)


def _git(*args):
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_environment():
    """Cores, CPU model and source revision; the worker adds Python and BLAS."""
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    # Only a checkout that is itself a git work tree has a revision; git would
    # otherwise report the repository of some enclosing directory.
    commit = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain") if commit else None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "git_commit": commit,
        "git_dirty": bool(status) if status is not None else None,
    }


def _spawn(name, seed, workdir, mode, seconds, scale, deadline):
    """Run one worker process; returns (set-up seconds, RESULT payload)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--workdir", str(workdir), "--mode", mode,
           "--seconds", repr(float(seconds)), "--scale", str(scale)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("%s worker (%s) did not finish in time" % (name, mode))
    if proc.returncode != 0:
        raise BenchError("%s worker (%s) exited with %d" % (name, mode, proc.returncode))
    ready, result = None, None
    for line in out.splitlines():
        if line.startswith("READY "):
            ready = float(line.split()[1])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if ready is None or (mode != "setup" and result is None):
        raise BenchError("%s worker (%s) printed no result" % (name, mode))
    return ready - t0, result


def _median(values):
    return statistics.median(values) if values else 0.0


def _summary(values):
    if not values:
        return "n=0"
    return "median %.6g (n=%d, min %.6g, max %.6g)" % (
        _median(values), len(values), min(values), max(values))


def run_workload(name, seed=0, seconds=20.0, trace=0, scale=1, setup_samples=SETUP_SAMPLES):
    """Run one workload; prints its details and returns (result, samples)."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = WORK / ("%s-s%d-t%d%s" % (name, seed, trace, "-x%d" % scale if scale > 1 else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    samples = 0 if trace else setup_samples

    def setup_only(k):
        return _spawn(name, seed, workdir / ("setup%d" % k), "setup", 0, scale, deadline)[0]

    setup = [setup_only(k) for k in range(samples // 2)]
    t, res = _spawn(name, seed, workdir / "run", "trace" if trace else "measure",
                    seconds, scale, deadline)
    setup.append(t)
    setup += [setup_only(k) for k in range(samples // 2, samples)]
    passes = res["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    env = dict(host_environment(), **res["environment"])
    print("environment: " + json.dumps(env))
    print("workload %s seed %d: %d passes, %d operations, %d failed"
        % (name, seed, len(passes), attempted, failed))
    for k, p in enumerate(passes):
        print("  pass %d: wall %.4f s, cpu %.4f s, commands %s, exit codes %s, %s" % (
            k, p["wall_s"], p["cpu_s"], ["%.4f" % w for w in p["command_wall_s"]],
            p["exit_codes"], json.dumps(p["info"])))
    if trace:
        metrics, detail = _layer_metrics(passes, res)
    else:
        values = {
            "wall_s": [p["wall_s"] for p in passes],
            "cpu_s": [p["cpu_s"] for p in passes],
            "peak_rss_mb": [res["peak_rss_kb"] / 1024.0],
            "setup_s": setup,
        }
        metrics = {m: {"value": _median(values[m]), "unit": unit} for m, unit in END_TO_END}
        detail = {m: values[m] for m, _ in END_TO_END}
        for m, unit in END_TO_END:
            print("  %-12s %s %s" % (m, _summary(values[m]), unit))
        print("  setup samples: " + " ".join("%.4f" % t for t in setup))
    return {
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, {"environment": env, "samples": detail}


def _layer_metrics(passes, res):
    traced = [p for p in passes if "layers" in p]
    untraced = [p for p in passes if "layers" not in p]
    samples = {}
    for p in traced:
        for k, v in p["layers"].items():
            samples.setdefault(k, []).append(v)
    for name in tracer.COUNT_METRICS:
        if len(set(samples[name])) > 1:
            print("  warning: %s differs between passes: %s" % (name, samples[name]))
    errors = traced[0]["info"].get("l1_error") or [0.0]
    samples["oracle.l1_error"] = [errors[-1] if math.isfinite(errors[-1]) else 0.0]
    untraced_wall = _median([p["wall_s"] for p in untraced])
    overhead = 100.0 * (_median([p["wall_s"] for p in traced]) / untraced_wall - 1.0)
    samples["trace.overhead_pct"] = [overhead]
    metrics = {}
    for name, unit, _, moves, where in tracer.PER_LAYER:
        value = _median(samples[name])
        if unit == "count" or unit == "B":
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
        print("  %-36s %-14.8g %-6s -> %s on %s" % (name, value, unit, moves, where))
    print("  solver.steps by command: %s" % traced[0]["steps_by_command"])
    print("  traced passes %d, spans %d, untraced passes %d (median %.4f s), "
          "tracing overhead %.2f%%" % (len(traced), res["spans"], len(untraced),
                                       untraced_wall, overhead))
    if res["missing"]:
        print("  names no longer in the package (their metrics read 0): "
            + ", ".join(res["missing"]))
    return metrics, samples


def _save(path, name, trace, result, extra):
    path = Path(path)
    data = {"workloads": {}}
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    data["environment"] = extra["environment"]
    entry = data["workloads"].setdefault(name, {})
    entry["trace%d" % trace] = dict(result, samples=extra["samples"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def compare(old_path, new_path, out=print):
    """Print new/old ratios of every metric both files hold, one row per workload."""
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)["workloads"]
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)["workloads"]
    out("ratio = new / old; the base is the old value")
    for name in workloads.NAMES:
        if name not in old or name not in new:
            continue
        cells = []
        for part in ("trace0", "trace1"):
            a = old[name].get(part, {}).get("metrics", {})
            b = new[name].get(part, {}).get("metrics", {})
            for metric in b:
                if metric not in a:
                    continue
                base, value = a[metric]["value"], b[metric]["value"]
                ratio = value / base if base else math.nan
                cells.append("%s %.4g (base %.6g %s)" % (metric, ratio, base, a[metric]["unit"]))
        out("%-16s %s" % (name, " | ".join(cells)))


def _table(rows, out=print):
    out("%-16s %s" % ("workload", "  ".join("%-28s" % ("%s [%s]" % m) for m in END_TO_END)))
    for name, samples in rows:
        out("%-16s %s" % (name, "  ".join(
            "%-28s" % ("%.4g (n=%d)" % (_median(samples[m]), len(samples[m])))
            for m, _ in END_TO_END)))


def main(argv=None):
    parser = argparse.ArgumentParser(description="ohslab end-to-end and per-layer benchmark")
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload both ways")
    parser.add_argument("--smoke", action="store_true", help="tiny grids, one pass each")
    parser.add_argument("--save", help="merge the results into this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print each metric's ratio NEW/OLD between saved files")
    args = parser.parse_args(argv)

    if args.compare:
        compare(*args.compare)
        return 0
    try:
        _check_checkout()
        if args.workload and not (args.all or args.smoke):
            result, extra = run_workload(args.workload, args.seed, args.seconds, args.trace)
            if args.save:
                _save(args.save, args.workload, args.trace, result, extra)
            print(json.dumps(result))
            return 0
        if not (args.all or args.smoke):
            parser.error("give --workload, --all, --smoke or --compare")
        scale, seconds, setup = (SMOKE_SCALE, 0.0, 1) if args.smoke else (1, args.seconds, SETUP_SAMPLES)
        rows, ok = [], True
        for name in workloads.NAMES:
            for trace in (0, 1):
                result, extra = run_workload(name, args.seed, seconds, trace, scale, setup)
                ok = ok and result["correct"]
                if args.save:
                    _save(args.save, name, trace, result, extra)
                if not trace:
                    rows.append((name, extra["samples"]))
                print(json.dumps(result))
        _table(rows)
        return 0 if ok else 1
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
