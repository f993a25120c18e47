"""CSV and JSON serialization for curves, normal-framed curves, curvature
pairs, and mate results.

Numbers are written with the shortest round-trip decimal representation, so
export followed by re-ingestion reproduces values exactly and identical
inputs produce byte-identical files.  A CSV body is read by np.loadtxt; a
file that loadtxt does not read cleanly is read again row by row, and that
reader's values or message are the result.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path

import numpy as np

CURVE_HEADER = ["t", "x", "y"]
FRONTAL_HEADER = ["t", "x", "y", "nx", "ny"]
PAIR_HEADER = ["t", "ell", "beta"]
MATE_HEADER = ["t", "x", "y", "nx", "ny", "lambda", "ell_bar", "beta_bar"]
# Rows per formatting block: bounds the Python floats alive at once.
_ROW_BLOCK = 1024


def _fmt(v) -> str:
    """Shortest round-trip decimal of one number (numpy scalars included)."""
    return repr(float(v))


def format_rows(rows, row_fmt: str):
    """Text of the rows of an (n, k) float array, in blocks of _ROW_BLOCK
    rows: each block is one %-format of row_fmt repeated over its Python floats."""
    for b in range(0, len(rows), _ROW_BLOCK):
        block = rows[b:b + _ROW_BLOCK]
        yield (row_fmt * len(block)) % tuple(block.ravel().tolist())


def _write_rows(path, header, columns) -> None:
    """CSV in csv.writer's layout (\\r\\n line ends), each value its repr."""
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        f.writelines(format_rows(rows, ",".join(["%r"] * len(header)) + "\r\n"))


def write_curve_csv(path, ts, points) -> None:
    points = np.asarray(points, dtype=float)
    _write_rows(path, CURVE_HEADER, [ts, points[:, 0], points[:, 1]])


def write_frontal_csv(path, ts, points, normals) -> None:
    points = np.asarray(points, dtype=float)
    normals = np.asarray(normals, dtype=float)
    _write_rows(
        path, FRONTAL_HEADER, [ts, points[:, 0], points[:, 1], normals[:, 0], normals[:, 1]]
    )


def write_pair_csv(path, pair) -> None:
    _write_rows(path, PAIR_HEADER, [pair.grid, pair.ell, pair.beta])


def write_mate_csv(path, mp) -> None:
    pts = mp.mate.gamma.on_grid("position")
    nus = mp.mate.on_grid("nu")
    mc = mp.mate_curvature
    _write_rows(
        path,
        MATE_HEADER,
        [mp.lam.grid, pts[:, 0], pts[:, 1], nus[:, 0], nus[:, 1], mp.lam.lam, mc.ell, mc.beta],
    )


def read_csv_columns(path):
    """(header, dict of column arrays) from a numeric CSV with a header row.

    np.loadtxt parses the body.  When it fails, or returns no rows, another
    width than the header or a non-finite value, _read_rows reads the file
    again, and its values or its message are the result."""
    with open(path, newline="") as f:
        try:
            header = next(csv.reader(f), None)
            with warnings.catch_warnings():
                # An empty body: _read_rows names it, numpy's warning is not shown.
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(f, delimiter=",", comments=None, ndmin=2)
        except (ValueError, csv.Error):
            header = data = None
    if header is None or data is None or not len(data) or data.shape[1] != len(header) \
            or not np.isfinite(data).all():
        return _read_rows(path)
    return header, {name: data[:, i] for i, name in enumerate(header)}


def _read_rows(path):
    """read_csv_columns row by row through csv, naming the first bad row."""
    header, rows = None, []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            for row in reader:
                if row:
                    rows.append(row)
        except csv.Error as exc:  # a field above csv's size limit, say
            where = "the header" if header is None else f"data row {len(rows) + 1}"
            raise ValueError(f"{path}: {where} is unreadable: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    values = []
    for k, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(f"{path}: data row {k} has {len(row)} fields, the header has {len(header)}")
        try:
            values.append([float(v) for v in row])
        except ValueError:
            raise ValueError(f"{path}: data row {k} holds a non-numeric value") from None
    data = np.array(values)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}: data row {int(np.argmin(finite)) + 1} holds a non-finite value")
    return header, {name: data[:, i] for i, name in enumerate(header)}


def read_curve_csv(path):
    """(ts, points, normals_or_None) from a t,x,y or t,x,y,nx,ny file."""
    header, cols = read_csv_columns(path)
    if header[:3] != CURVE_HEADER:
        raise ValueError(f"{path}: expected header starting with t,x,y, got {header}")
    ts = cols["t"]
    points = np.stack((cols["x"], cols["y"]), axis=-1)
    if header[:5] == FRONTAL_HEADER:
        return ts, points, np.stack((cols["nx"], cols["ny"]), axis=-1)
    return ts, points, None


def report_to_json(report) -> str:
    """Serialize a RunReport-shaped object to the stable JSON layout."""
    payload = {
        "checks": {
            name: {
                "max_residual": float(c["max_residual"]),
                "tolerance": float(c["tolerance"]),
                "pass": bool(c["pass"]),
            }
            for name, c in report.checks.items()
        },
        "cusps": [{"t0": float(c.t0), "kind": c.kind} for c in report.cusps],
        "inflections": [float(t) for t in report.inflections],
        "wall_time": float(report.wall_time),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def write_text(path, text: str) -> None:
    Path(path).write_text(text)
