"""Readers and writers for run artifacts (CSV series, state and manifest JSON).

CSV files use '.' decimals, no thousands separators, and 17 significant
digits, so identical configs produce bit-identical, diff-able outputs.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidInputError


def _fmt(x):
    return "%.17g" % float(x)


def moment_columns(series):
    """Ordered (label, values) columns of a moment series."""
    cols = [("t", series.times())]
    for r in series.orders:
        cols.append(("M%g" % r, series.values(r)))
    for m in series.thresholds:
        cols.append(("M1_m%g" % m, series.tail(m)))
    cols.append(("gel_mass", series.gel()))
    cols.append(("clamped_mass", series.clamped()))
    return cols


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


def _dump_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_final_state_json(path, state):
    payload = {
        "t": state.t,
        "edges": [float(e) for e in state.grid.edges],
        "xi": [float(x) for x in state.xi],
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


def read_manifest(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError("cannot read manifest %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError("manifest %s is not valid JSON: %s" % (path, exc)) from exc


def write_json(path, payload):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    _dump_json(path, payload)
