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
import functools
import json
import warnings
from pathlib import Path

import numpy as np

CURVE_HEADER = ["t", "x", "y"]
FRONTAL_HEADER = ["t", "x", "y", "nx", "ny"]
PAIR_HEADER = ["t", "ell", "beta"]
MATE_HEADER = ["t", "x", "y", "nx", "ny", "lambda", "ell_bar", "beta_bar"]
# Values per formatting block: bounds the arrays alive at once.
_BLOCK = 4096

# -- number text ----------------------------------------------------------
# format_rows writes each value as repr(float(v)) does, or as '%.{d}f' % v
# does, byte for byte.  An exact numpy path decides the digits of nearly
# every value (the design of Grisu: Loitsch, PLDI 2010): x times an exact
# power of ten is held exactly as hi + lo by Dekker's two-product, and each
# candidate's distance from x * 10^s is compared with the scaled half-ulp.
# A value the path cannot decide (out of its range, a power of two, a
# decimal tie, a distance that rounds to the half-ulp) is formatted by
# Python alone.
_POW10 = 10.0 ** np.arange(23)  # exact: 5**22 < 2**53
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_MANTISSA = np.uint64(2**52 - 1)
# A value's text is gathered by a template from a 24-byte source row: digits
# 1..16 of its 17-digit integer g as four 4-digit groups, digit 0, '-', '.',
# '0', then the separator that follows the value (at most 4 bytes).
_DIGIT = [16] + list(range(16))
_MINUS, _DOT, _ZERO, _SEP = 17, 18, 19, [20, 21, 22, 23]
_TAIL = np.frombuffer(b"0-.0", dtype=np.uint32)[0]


def _fmt(v) -> str:
    """Shortest round-trip decimal of one number (numpy scalars included)."""
    return repr(float(v))


def _two_product(a, b):
    """(p, e) with p = fl(a*b) and a*b = p + e exactly (Dekker 1971)."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _table(rows):
    """(index, length) arrays of gather templates, each row followed by the
    separator; the length counts the text only."""
    index = np.zeros((len(rows), max(map(len, rows)) + len(_SEP)), dtype=np.int32)
    for key, row in enumerate(rows):
        index[key, :len(row) + len(_SEP)] = row + _SEP
    return index, np.array([len(r) for r in rows])


@functools.cache
def _quads():
    """(text, last) of the 4-digit groups 0000..9999: their four ASCII digits
    as one uint32, and the position (1..4) of their last nonzero digit, -16
    for 0000."""
    axes = np.ix_(*[np.arange(10)] * 4)  # digit j of the group along axis j
    digits = np.stack(np.broadcast_arrays(*axes), axis=-1).astype(np.uint8) + np.uint8(48)
    last = functools.reduce(np.maximum, [np.where(a, j + 1, -16) for j, a in enumerate(axes)])
    return digits.view(np.uint32).ravel(), last.ravel()


@functools.cache
def _shortest_table():
    """Templates of repr's positional layout, key (sign * 20 + p + 3) * 18 + k:
    k significant digits, the point after digit p (p <= 0: 0.000ddd)."""
    sign, p, k = (a.reshape(-1, 1) for a in np.meshgrid(np.arange(2), np.arange(-3, 17), np.arange(18),
                                                         indexing="ij"))
    lead = np.maximum(1 - p, 0)  # zeros: 0.000ddd has 1 - p, one before the point
    point = np.maximum(p, 1)  # the point's place in the text after the sign
    digits = np.where(p > 0, np.maximum(k, p + 1), k)
    body = lead + 1 + digits
    pos = np.arange(int(body.max()) + 1 + len(_SEP)) - sign  # -1: the sign
    d = pos - lead - (pos > point)  # the digit at pos, where it holds one
    index = np.select([pos < 0, pos == point, d < 0, d < digits, pos < body + len(_SEP)],
                      [_MINUS, _DOT, _ZERO, np.array(_DIGIT)[np.clip(d, 0, 16)], _SEP[0] + pos - body], 0)
    return index.astype(np.int32), (sign + body).ravel()


@functools.cache
def _fixed_table(decimals):
    """Templates of '%.{decimals}f', key sign * 17 + integer digits."""
    point = 17 - decimals
    return _table([[_MINUS] * sign + _DIGIT[max(point - ip, 0):point] + [_DOT] + _DIGIT[point:]
                   for sign in (0, 1) for ip in range(17)])


def _groups(g):
    """The leading digit and the four 4-digit groups of 17-digit integers g."""
    head, rest = np.divmod(g, 10**16)
    a, b = np.divmod(rest, 10**8)
    return (head,) + np.divmod(a, 10**4) + np.divmod(b, 10**4)


def _scaled(ax, s):
    """(m, r): x * 10^s = m + r exactly, m the nearest integer, |r| <= 1/2."""
    hi, lo = _two_product(ax, _POW10[s])
    k = np.rint(lo)
    return hi.astype(np.int64) + k.astype(np.int64), lo - k


def _shortest(x):
    """(groups, key, ok) of repr(x): ok marks the values decided exactly."""
    ax = np.abs(x)
    ok = (ax >= 1e-4) & (ax < 1e16) & (x.view(np.uint64) & _MANTISSA != 0)
    ax = np.where(ok, ax, 1.5)
    # s puts x * 10^s in [10^16, 10^17): 17 digits before the point.
    s = 16 - np.floor(np.log10(ax)).astype(np.int64)
    m, r = _scaled(ax, s)
    off = (m >= 10**17).astype(np.int64) - (m < 10**16)
    fix = np.flatnonzero(off)
    if len(fix):
        s[fix] -= off[fix]
        m[fix], r[fix] = _scaled(ax[fix], s[fix])
    h = np.spacing(ax) * 0.5 * _POW10[s]  # exact: a power of two times 10^s
    # The nearest 15- and 16-digit candidates, as 17-digit integers.  Any
    # decimal within h of x * 10^s reads back as x; there is at most one
    # 15-digit one, and repr takes the nearest of the shortest.
    q15, d15 = np.divmod(m, 100)
    q15 += d15 >= 50
    q16, d16 = np.divmod(m, 10)
    q16 += (d16 > 5) | ((d16 == 5) & (r > 0))
    e15 = np.abs((m - 100 * q15) + r)
    e16 = np.abs((m - 10 * q16) + r)
    in15 = e15 < h
    in16 = ~in15 & (e16 < h)
    ok &= (m >= 10**16) & (m < 10**17) & (np.abs(r) != 0.5) & (e15 != h) \
        & (in15 | ((e16 != h) & ~((d16 == 5) & (r == 0))))
    g = np.where(in15, 100 * q15, np.where(in16, 10 * q16, m))
    p = 17 - s
    top = g == 10**17
    g[top] = 10**16
    p += top
    ok &= p <= 16
    groups = _groups(g)
    k = np.ones(len(x), dtype=np.int64)
    last = _quads()[1]
    for j, c in enumerate(groups[1:]):
        np.maximum(k, last[c] + 1 + 4 * j, out=k)
    return groups, (np.signbit(x) * 20 + np.clip(p, -3, 16) + 3) * 18 + k, ok


def _fixed(x, decimals):
    """(groups, key, ok) of '%.{decimals}f' % x for 1 <= decimals <= 16:
    ok marks the values decided exactly."""
    ax = np.abs(x)
    ok = (ax >= 1e-100) & (ax < 2.0**52)
    hi, lo = _two_product(np.where(ok, ax, 0.5), _POW10[decimals])
    ok &= hi < 2.0**52
    hi, lo = np.where(ok, hi, 0.0), np.where(ok, lo, 0.0)
    k = np.rint(hi)
    t = (hi - k) + lo  # hi - k is exact; only |t| == 1/2 is undecided
    g = k.astype(np.int64) + (t > 0.5) - (t < -0.5)
    ok &= np.abs(t) != 0.5
    digits = np.searchsorted(10 ** np.arange(1, 17), g, side="right") + 1
    return _groups(g), np.signbit(x) * 17 + np.maximum(digits - decimals, 1), ok


def _text(x, decimals, seps):
    """Bytes of the values x, each followed by its separator: x[i] by
    seps[i % len(seps)]."""
    if decimals is None:
        (groups, key, ok), (index, lengths), fmt = _shortest(x), _shortest_table(), "%r"
    else:
        d = min(max(decimals, 1), 16)  # other decimals: every value is slow
        (groups, key, ok), (index, lengths), fmt = _fixed(x, d), _fixed_table(d), f"%.{decimals}f"
        ok &= d == decimals
    src = np.empty((len(x), 6), dtype=np.uint32)
    quads = _quads()[0]
    for j, c in enumerate(groups[1:]):
        src[:, j] = quads[c]
    src[:, 4] = _TAIL
    src[:, 5] = np.tile(np.array([s.ljust(4, b"\0") for s in seps]).view(np.uint32), len(x) // len(seps))
    src = src.view(np.uint8)
    src[:, 16] += groups[0].astype(np.uint8)
    lengths = lengths[key]
    # Gather only as many template columns as the longest text needs.
    width = int(lengths.max()) + max(map(len, seps))
    # int32 indices: half the memory traffic of intp, and the gather is
    # bound by it.
    text = src.ravel().take(index[:, :width][key] + np.arange(0, 24 * len(x), 24, dtype=np.int32)[:, None])
    lengths += np.tile([len(s) for s in seps], len(x) // len(seps))
    slow = np.flatnonzero(~ok)
    if len(slow):
        words = [(fmt % v).encode() + seps[j] for v, j in zip(x[slow].tolist(), (slow % len(seps)).tolist())]
        lengths[slow] = [len(w) for w in words]
        words = np.array(words)
        if words.itemsize > text.shape[1]:
            text = np.pad(text, ((0, 0), (0, words.itemsize - text.shape[1])))
        text[slow, :words.itemsize] = words.view(np.uint8).reshape(len(slow), -1)
    return text[np.arange(text.shape[1]) < lengths[:, None]].tobytes()


def format_rows(rows, seps, decimals=None):
    """Text of the rows of an (n, k) float array, as bytes blocks: each
    value, then seps[j] (at most 4 characters) after a value of column j.
    A value reads as repr(float(v)) or, given decimals, '%.{decimals}f' % v."""
    rows = np.asarray(rows, dtype=float)
    seps = [s.encode() for s in seps]
    step = max(_BLOCK // len(seps), 1)
    for b in range(0, len(rows), step):
        yield _text(rows[b:b + step].ravel(), decimals, seps)


def _write_rows(path, header, columns) -> None:
    """CSV in csv.writer's layout (\\r\\n line ends), each value its repr."""
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    with open(path, "wb") as f:
        f.write((",".join(header) + "\r\n").encode())
        f.writelines(format_rows(rows, [","] * (len(header) - 1) + ["\r\n"]))


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

    np.loadtxt parses the body.  When it fails, returns no rows, another
    width than the header or a non-finite value, or the header repeats a
    name, _read_rows reads the file again for its values or its message."""
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
            or len(set(header)) < len(header) or not np.isfinite(data).all():
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
    repeated = [name for k, name in enumerate(header) if name in header[:k]]
    if repeated:
        raise ValueError(f"{path}: column {repeated[0]!r} appears twice in the header")
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
        "checks": report.checks,  # name -> {max_residual, tolerance, pass}, as the CLI records them
        "cusps": [{"t0": float(c.t0), "kind": c.kind} for c in report.cusps],
        "inflections": [float(t) for t in report.inflections],
        "wall_time": float(report.wall_time),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def write_text(path, text: str) -> None:
    Path(path).write_text(text)
