"""Span tracer for the benchmark's per-layer run.

The tracer wraps public callables of the ``ohslab`` modules from outside the
package: each wrapper is installed as a module or class attribute and
restored on ``uninstall``.  The package looks those names up at call time
(``solver.run`` calls ``step`` and ``stable_dt`` through its module globals,
``checks`` calls ``moments.holder_check`` through the module), so the package
source stays untouched.

A span records its name, start, end, parent span and the id of the command it
belongs to.  Spans are kept in memory and written out by the caller when the
run ends.  A layer's busy time is a self time: the span's duration minus the
union of the intervals its child spans cover.

A wrapped name that the package no longer has is skipped and listed in
``Tracer.missing``; the metrics fed by it then read 0, so the benchmark keeps
working across refactors that delete the name.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time

#: (module, attribute path, span name).  The module is the one whose global
#: the package looks up at call time, which is not always the defining module
#: (``cli`` imports ``load_config`` by name, ``solver`` imports
#: ``project_initial`` by name).  Every span feeds a metric below; work in an
#: unwrapped callee counts toward its caller's self time.
WRAPS = (
    ("ohslab.cli", "main", "cli.main"),
    ("ohslab.cli", "load_config", "config.load_config"),
    ("ohslab.config", "SimConfig.from_dict", "config.from_dict"),
    ("ohslab.solver", "project_initial", "grid.project_initial"),
    ("ohslab.solver", "run", "solver.run"),
    ("ohslab.solver", "step", "solver.step"),
    ("ohslab.solver", "stable_dt", "solver.stable_dt"),
    ("ohslab.solver", "KernelTables.__init__", "solver.tables_setup"),
    ("ohslab.solver", "KernelTables.velocity", "solver.matvec"),
    ("ohslab.solver", "KernelTables.loss", "solver.matvec"),
    ("ohslab.moments", "MomentSeries.append_state", "moments.append_state"),
    ("ohslab.moments", "kernel_matrix", "moments.kernel_matrix"),
    ("ohslab.moments", "holder_check", "moments.holder_check"),
    ("ohslab.moments", "moment_residual", "moments.moment_residual"),
    ("ohslab.moments", "weak_form_residual", "moments.weak_form_residual"),
    ("ohslab.moments", "weak_rhs_quadrature", "moments.weak_rhs_quadrature"),
    ("ohslab.gelation", "cutoff_sweep", "gelation.cutoff_sweep"),
    ("ohslab.gelation", "gelation_time", "gelation.gelation_time"),
    ("ohslab.checks", "run_checks", "checks.run_checks"),
    ("ohslab.oracle", "brute_force_weak_rhs", "oracle.brute_force_weak_rhs"),
    ("ohslab.runio", "write_moments_csv", "runio.write"),
    ("ohslab.runio", "write_final_state_json", "runio.write"),
    ("ohslab.runio", "write_manifest", "runio.write"),
    ("ohslab.runio", "write_json", "runio.write"),
)

#: Every ``eval`` defined on a subclass of this class is wrapped as well, so a
#: kernel added later is traced without editing this table.
KERNEL_BASE = ("ohslab.kernels", "Kernel")

#: Grid sizes reported as their own matvec buckets (the bagland ladder).
MATVEC_SIZES = (1024, 2048, 4096)

#: Per-layer metrics: (name, unit, better, end-to-end metric it should move,
#: workload where it does most of its work).  ``BENCHMARK.json`` lists the
#: same names in the same order.
PER_LAYER = (
    ("solver.runs", "count", "lower", "wall_s", "cutoff_sweep, heun_geometric"),
    ("solver.steps", "count", "lower", "wall_s", "cutoff_sweep, heun_geometric"),
    ("solver.matvecs", "count", "lower", "wall_s", "cutoff_sweep, heun_geometric"),
    ("solver.matvec_s", "s", "lower", "wall_s, cpu_s", "bagland_ladder"),
    *(("solver.matvec_s.N%d" % n, "s", "lower", "wall_s, cpu_s", "bagland_ladder")
      for n in MATVEC_SIZES),
    *(("solver.matvec_bytes_computed.N%d" % n, "B", "lower", "wall_s, cpu_s",
       "bagland_ladder") for n in MATVEC_SIZES),
    ("solver.tables_setup_s", "s", "lower", "wall_s, peak_rss_mb", "bagland_ladder"),
    ("solver.step_s", "s", "lower", "wall_s", "cutoff_sweep"),
    ("solver.stable_dt_s", "s", "lower", "wall_s", "cutoff_sweep"),
    ("solver.run_self_s", "s", "lower", "wall_s", "cutoff_sweep"),
    ("moments.records", "count", "lower", "wall_s", "all"),
    ("moments.append_state_s", "s", "lower", "wall_s", "all"),
    ("runio.write_s", "s", "lower", "wall_s", "all"),
    ("runio.bytes_written", "B", "lower", "wall_s", "all"),
    ("moments.kernel_matrix_s", "s", "lower", "wall_s, peak_rss_mb", "check_reference"),
    ("moments.holder_check_s", "s", "lower", "wall_s", "check_reference"),
    ("moments.moment_residual_s", "s", "lower", "wall_s", "check_reference"),
    ("moments.weak_form_residual_s", "s", "lower", "wall_s", "check_reference"),
    ("moments.weak_rhs_quadrature_s", "s", "lower", "wall_s", "check_reference"),
    ("checks.self_s", "s", "lower", "wall_s, peak_rss_mb", "check_reference"),
    ("oracle.brute_force_weak_rhs_s", "s", "lower", "wall_s", "check_reference"),
    ("kernels.eval_calls", "count", "lower", "wall_s", "check_reference"),
    ("kernels.eval_s", "s", "lower", "wall_s", "check_reference"),
    ("gelation.rows", "count", "higher", "wall_s", "cutoff_sweep"),
    ("gelation.row_s_max", "s", "lower", "wall_s", "cutoff_sweep"),
    ("gelation.gelation_time_s", "s", "lower", "wall_s", "cutoff_sweep"),
    ("config.load_s", "s", "lower", "setup_s", "all"),
    ("grid.project_initial_s", "s", "lower", "setup_s", "all"),
    ("cli.self_s", "s", "lower", "setup_s", "all"),
    ("oracle.l1_error", "1", "lower", "l1_error (accuracy)", "bagland_ladder"),
    ("trace.overhead_pct", "%", "lower", "none (tracing cost)", "all"),
)

#: Self-time metrics: metric name -> span names whose self times it sums.
SELF_TIME_METRICS = {
    "solver.matvec_s": ("solver.matvec",),
    "solver.tables_setup_s": ("solver.tables_setup",),
    "solver.step_s": ("solver.step",),
    "solver.stable_dt_s": ("solver.stable_dt",),
    "solver.run_self_s": ("solver.run",),
    "moments.append_state_s": ("moments.append_state",),
    "runio.write_s": ("runio.write",),
    "moments.kernel_matrix_s": ("moments.kernel_matrix",),
    "moments.holder_check_s": ("moments.holder_check",),
    "moments.moment_residual_s": ("moments.moment_residual",),
    "moments.weak_form_residual_s": ("moments.weak_form_residual",),
    "moments.weak_rhs_quadrature_s": ("moments.weak_rhs_quadrature",),
    "checks.self_s": ("checks.run_checks",),
    "oracle.brute_force_weak_rhs_s": ("oracle.brute_force_weak_rhs",),
    "kernels.eval_s": ("kernels.eval",),
    "gelation.gelation_time_s": ("gelation.gelation_time",),
    "config.load_s": ("config.load_config", "config.from_dict"),
    "grid.project_initial_s": ("grid.project_initial",),
    "cli.self_s": ("cli.main",),
}

#: Count metrics: metric name -> span names whose calls it counts.
COUNT_METRICS = {
    "solver.runs": ("solver.run",),
    "solver.steps": ("solver.step",),
    "solver.matvecs": ("solver.matvec",),
    "moments.records": ("moments.append_state",),
    "kernels.eval_calls": ("kernels.eval",),
}


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "cmd", "attrs")

    def __init__(self, sid, name, start, end, parent, cmd, attrs=None):
        self.sid, self.name, self.start, self.end = sid, name, start, end
        self.parent, self.cmd, self.attrs = parent, cmd, attrs

    def to_dict(self):
        out = {"id": self.sid, "name": self.name, "start": self.start,
               "end": self.end, "parent": self.parent, "cmd": self.cmd}
        if self.attrs:
            out["attrs"] = self.attrs
        return out


def _union_length(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping children
    (for instance concurrent work attributed to one parent) are counted once.
    """
    children = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        kids = children.get(sp.sid, ())
        covered = _union_length(
            [(max(k.start, sp.start), min(k.end, sp.end)) for k in kids]
        )
        out[sp.sid] = (sp.end - sp.start) - covered
    return out


class Tracer:
    """Collects spans from wrapped package callables."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._next_id = 0
        self._cmd = None
        self._restore = []

    def begin_command(self, cmd_id):
        self._cmd = cmd_id

    def _wrap(self, func, name, attrs_of=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = attrs_of(args) if attrs_of is not None else None
                tracer.spans.append(Span(sid, name, start, end, parent, tracer._cmd, attrs))

        return wrapper

    def _install_one(self, owner, attr, name, attrs_of=None):
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, name, attrs_of))
        else:
            new = self._wrap(raw, name, attrs_of)
        setattr(owner, attr, new)
        self._restore.append((owner, attr, raw))
        return True

    def install(self, wraps=WRAPS, kernel_base=KERNEL_BASE):
        """Install every wrapper the package still has a name for."""
        self.missing = []
        for module_name, path, name in wraps:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append("%s.%s" % (module_name, path))
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
                if owner is None:
                    break
            if owner is None or not self._install_one(owner, attr, name, _ATTRS.get(name)):
                self.missing.append("%s.%s" % (module_name, path))
        if kernel_base is not None:
            module = importlib.import_module(kernel_base[0])
            base = getattr(module, kernel_base[1], None)
            if base is None:
                self.missing.append("%s.%s" % kernel_base)
                return self
            for cls in _subclasses(base):
                if "eval" in cls.__dict__:
                    self._install_one(cls, "eval", "kernels.eval")
        return self

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.to_dict()) + "\n")


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _matvec_attrs(args):
    return {"n": int(len(args[1]))}


def _write_attrs(args):
    try:
        return {"bytes": os.path.getsize(args[0])}
    except (OSError, TypeError, IndexError):
        return {"bytes": 0}


_ATTRS = {"solver.matvec": _matvec_attrs, "runio.write": _write_attrs}


def layer_metrics(spans):
    """Per-layer metrics of one group of spans (one workload pass).

    Every metric in ``PER_LAYER`` except ``oracle.l1_error`` and
    ``trace.overhead_pct``, which the caller measures, is present; a metric
    whose spans never occurred reads 0.
    """
    selfs = self_times(spans)
    self_by_name, count_by_name = {}, {}
    for sp in spans:
        self_by_name[sp.name] = self_by_name.get(sp.name, 0.0) + selfs[sp.sid]
        count_by_name[sp.name] = count_by_name.get(sp.name, 0) + 1
    out = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(self_by_name.get(n, 0.0) for n in names)
    for metric, names in COUNT_METRICS.items():
        out[metric] = sum(count_by_name.get(n, 0) for n in names)
    for n in MATVEC_SIZES:
        out["solver.matvec_s.N%d" % n] = 0.0
        out["solver.matvec_bytes_computed.N%d" % n] = 0
    written = 0
    by_id = {sp.sid: sp for sp in spans}
    row_times = []
    for sp in spans:
        if sp.name == "solver.matvec":
            n = sp.attrs["n"]
            if n in MATVEC_SIZES:
                out["solver.matvec_s.N%d" % n] += selfs[sp.sid]
                # A dense N x N float64 matvec streams 8 N^2 bytes of table.
                out["solver.matvec_bytes_computed.N%d" % n] += 8 * n * n
        elif sp.name == "runio.write":
            written += sp.attrs["bytes"]
        elif sp.name == "solver.run":
            parent = by_id.get(sp.parent)
            if parent is not None and parent.name == "gelation.cutoff_sweep":
                row_times.append(sp.end - sp.start)
    out["runio.bytes_written"] = written
    out["gelation.rows"] = len(row_times)
    out["gelation.row_s_max"] = max(row_times) if row_times else 0.0
    return out
