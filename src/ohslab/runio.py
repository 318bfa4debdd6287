"""Readers and writers for run artifacts (CSV series, state and manifest JSON).

CSV files use '.' decimals, no thousands separators, and 17 significant
digits, so identical configs produce bit-identical, diff-able outputs.

JSON files are the bytes of ``json.dump(payload, indent=2)`` and a newline.
The indenting encoder runs in pure Python, so a top-level value that is a
1-D float ndarray (a density or the grid edges) goes through the C encoder
instead: ``json.dumps(a.tolist())`` with each ", " broken onto its own
indented line, which is the same text.  Every other value is
``json.dumps(value, indent=2)`` indented one level.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import __version__
from .config import moment_labels
from .errors import InvalidInputError


def _fmt(x):
    return "%.17g" % float(x)


def moment_columns(series):
    """Ordered (label, values) columns of a moment series."""
    values = [series.values(r) for r in series.orders]
    values += [series.tail(m) for m in series.thresholds]
    return [
        ("t", series.times()),
        *zip(moment_labels(series.orders, series.thresholds), values),
        ("gel_mass", series.gel()),
        ("clamped_mass", series.clamped()),
    ]


def write_moments_csv(path, series):
    cols = moment_columns(series)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([label for label, _ in cols])
        for k in range(len(series.records)):
            writer.writerow([_fmt(values[k]) for _, values in cols])


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
    with open(path, "w", encoding="utf-8") as fh:
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


def write_run(out, result):
    """Write a run's directory: moments.csv, final_state.json and, last, manifest.json."""
    write_moments_csv(out / "moments.csv", result.series)
    write_final_state_json(out / "final_state.json", result.final_state)
    write_manifest(
        out / "manifest.json",
        result.config,
        status="failed" if result.failed else "ok",
        error=result.error,
        extra={
            "outputs": ["moments.csv", "final_state.json"],
            "grid_edges": result.final_state.grid.edges,
        },
    )


def read_manifest(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise InvalidInputError("cannot read manifest %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError("manifest %s is not valid JSON: %s" % (path, exc)) from exc
    if not isinstance(manifest, dict):
        raise InvalidInputError("manifest %s is not a JSON object" % path)
    return manifest


def make_dir(path):
    """Make the output directory ``path`` and its parents, or raise InvalidInputError."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidInputError("cannot use %s as output directory: %s" % (path, exc)) from exc
    return path


def write_json(path, payload):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    _dump_json(path, payload)
