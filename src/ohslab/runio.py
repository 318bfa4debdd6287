"""Run and sweep directories: the one module that names, reads, writes and
clears their files.

A run directory holds ``moments.csv``, ``final_state.json`` and
``manifest.json``, the manifest written last (``write_run``), and may hold
the ``check_report.json`` that ``check`` writes beside them
(``write_check_report``).  Rewriting a run directory first removes its
manifest and its report, so a write that stops part-way leaves no manifest,
and no report of an earlier run stays beside the new files.  A sweep row
that raised keeps only a failed manifest (``write_failed_run``).  A sweep
directory holds ``sweep.csv`` and ``sweep.json`` (``write_sweep``) beside
its rows' run directories, made by ``make_row_dirs`` once it removes the old
table.  The two kinds stay apart: ``make_run_dir`` refuses a directory that
holds a sweep table, and ``make_row_dirs`` one that holds a manifest at its
top, each before anything is written.  ``read_run`` reads a run directory
back for ``check``.

CSV files use '.' decimals, no thousands separators, and 17 significant
digits, so identical configs produce bit-identical, diff-able outputs.
moments.csv is a ``MomentSeries`` written as it stands, its ``labels`` and
then its ``rows``, so reading it back gives the series' ``columns()``.
Every writer writes into a directory that exists already, and a file that
cannot be written raises InvalidInputError naming its path.

JSON files are the bytes of ``json.dump(payload, indent=2)`` and a newline.
The indenting encoder runs in pure Python, so a top-level value that is a
1-D float ndarray (a density or the grid edges) goes through the C encoder
instead: ``json.dumps(a.tolist())`` with each ", " broken onto its own
indented line, which is the same text.  Every other value is
``json.dumps(value, indent=2)`` indented one level.
"""
from __future__ import annotations

import contextlib
import csv
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import SimConfig, read_json, row_label
from .errors import InvalidInputError

MOMENTS = "moments.csv"
FINAL_STATE = "final_state.json"
MANIFEST = "manifest.json"
CHECK_REPORT = "check_report.json"
SWEEP_CSV = "sweep.csv"
SWEEP_JSON = "sweep.json"


@contextlib.contextmanager
def _writing(path):
    """``path`` opened for writing text as it is given, line ends untranslated;
    an OSError while it is opened or written raises InvalidInputError naming it."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise InvalidInputError("cannot write %s: %s" % (path, exc)) from exc


def write_moments_csv(path, series):
    """Write the series' table: its labels, then one line per row."""
    with _writing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(series.labels)
        writer.writerows(["%.17g" % x for x in row] for row in series.rows)


def read_moments_csv(path):
    """Read a moments CSV back as {column: ndarray}."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InvalidInputError("cannot read %s: %s" % (path, exc)) from exc
    if not rows:
        raise InvalidInputError("%s is empty" % path)
    header, body = rows[0], rows[1:]
    for line, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise InvalidInputError("%s line %d has %d cells, the header %d"
                                    % (path, line, len(row), len(header)))
    try:
        data = np.array([[float(cell) for cell in row] for row in body])
    except ValueError as exc:
        raise InvalidInputError("%s has non-numeric cells: %s" % (path, exc)) from exc
    if data.size == 0:
        raise InvalidInputError("%s has no data rows" % path)
    return {label: data[:, k] for k, label in enumerate(header)}


def _render(value):
    """A top-level value as ``json.dump(indent=2)`` writes it, one level in."""
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind == "f":
        items = json.dumps(value.tolist())[1:-1]
        return "[\n    %s\n  ]" % items.replace(", ", ",\n    ") if items else "[]"
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def _dump_json(path, payload):
    """Write a dict with str keys as ``json.dump(payload, indent=2)`` would, and a newline."""
    if payload:
        items = ",\n  ".join("%s: %s" % (json.dumps(key), _render(value))
                              for key, value in payload.items())
        text = "{\n  %s\n}\n" % items
    else:
        text = "{}\n"
    with _writing(path) as fh:
        fh.write(text)


def write_final_state_json(path, state):
    payload = {
        "t": state.t,
        "edges": state.grid.edges,
        "xi": state.xi,
        "gel_mass": state.gel_mass,
        "clamped_mass": state.clamped_mass,
    }
    _dump_json(path, payload)


def write_manifest(path, config, status="ok", error=None, extra=None):
    payload = {
        "tool": "ohslab %s" % __version__,
        "status": status,
        "config": config.to_dict(),
    }
    if error:
        payload["error"] = error
    if extra:
        payload.update(extra)
    _dump_json(path, payload)


def _remove(out, names):
    """Remove the files ``names`` from the directory ``out``; one that cannot be
    removed (a directory in its place, say) is left to the write that follows."""
    for name in names:
        with contextlib.suppress(OSError):
            (out / name).unlink(missing_ok=True)


def write_run(out, result):
    """Write a run's directory: moments.csv, final_state.json and, last,
    manifest.json, after removing the directory's manifest and check report."""
    _remove(out, (MANIFEST, CHECK_REPORT))
    write_moments_csv(out / MOMENTS, result.series)
    write_final_state_json(out / FINAL_STATE, result.final_state)
    write_manifest(
        out / MANIFEST,
        result.config,
        status="failed" if result.failed else "ok",
        error=result.error,
        extra={
            "outputs": [MOMENTS, FINAL_STATE],
            "grid_edges": result.final_state.grid.edges,
        },
    )


def write_failed_run(out, config, error):
    """Write the directory of a run that raised: of its files it keeps only a
    failed manifest, which lists no outputs."""
    _remove(out, (MANIFEST, CHECK_REPORT, MOMENTS, FINAL_STATE))
    write_manifest(out / MANIFEST, config, status="failed", error=error)


def read_manifest(path):
    manifest = read_json(path, "manifest")
    if not isinstance(manifest, dict):
        raise InvalidInputError("manifest %s is not a JSON object" % path)
    return manifest


def read_run(run_dir):
    """The run a directory holds, for ``check``: its manifest's config,
    validated, and the columns of its moments.csv, or None when the directory
    has no moments.csv and the manifest lists none in its ``outputs``.  A
    listed moments.csv that is missing raises InvalidInputError."""
    manifest = read_manifest(run_dir / MANIFEST)
    if "config" not in manifest:
        raise InvalidInputError("manifest in %s has no config" % run_dir)
    config = SimConfig.from_dict(manifest["config"])
    csv_path = run_dir / MOMENTS
    outputs = manifest.get("outputs")
    if csv_path.exists() or isinstance(outputs, list) and MOMENTS in outputs:
        return config, read_moments_csv(csv_path)
    return config, None


def make_dir(path):
    """Make the output directory ``path`` and its parents, or raise InvalidInputError."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidInputError("cannot use %s as output directory: %s" % (path, exc)) from exc
    return path


def make_run_dir(path):
    """Make the run directory ``path`` as ``make_dir`` does; first, a directory
    that holds a sweep table raises InvalidInputError."""
    path = Path(path)
    table = [name for name in (SWEEP_CSV, SWEEP_JSON) if (path / name).exists()]
    if table:
        raise InvalidInputError("%s holds the sweep table %s, not a run"
                                % (path, " and ".join(table)))
    return make_dir(path)


def write_json(path, payload):
    """Write a report into a directory that exists already."""
    _dump_json(path, payload)


def write_check_report(out, report):
    """Write ``check``'s report into ``out``, in place of any earlier one."""
    write_json(out / CHECK_REPORT, report)


def make_row_dirs(out, cutoffs):
    """Remove the sweep table from ``out`` and make and return its rows' run
    directories; first, a manifest at the top of ``out`` or a run directory in
    ``out`` of no cutoff raises InvalidInputError."""
    if (out / MANIFEST).exists():
        raise InvalidInputError("%s holds the run of its %s, not a sweep" % (out, MANIFEST))
    labels = [row_label(R) for R in cutoffs]
    stale = sorted({path.parent.name for path in out.glob("*/" + MANIFEST)} - set(labels))
    if stale:
        raise InvalidInputError("%s holds run directories %s that these cutoffs do not list"
                                % (out, ", ".join(stale)))
    _remove(out, (SWEEP_CSV, SWEEP_JSON))
    return [make_dir(out / label) for label in labels]


def write_sweep(out, rows, epsilon):
    """Write the sweep table: sweep.csv holds R, N, t_loss and the final gel
    fraction of each row, a value the row lacks left empty, and sweep.json the
    threshold epsilon and every field of every row."""
    with _writing(out / SWEEP_CSV) as fh:
        fh.write("R,N,t_loss,gel_fraction_final\n")
        for row in rows:
            t_loss = "" if row.t_loss is None else "%.17g" % row.t_loss
            gel = "" if row.gel_fraction_final is None else "%.17g" % row.gel_fraction_final
            fh.write("%.17g,%d,%s,%s\n" % (row.R, row.N, t_loss, gel))
    write_json(out / SWEEP_JSON, {"epsilon": epsilon, "rows": [asdict(row) for row in rows]})
