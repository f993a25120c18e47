"""Deterministic SVG rendering of sampled curves with singular-point markers.

The y axis is flipped so the picture matches mathematical orientation, the
viewBox is the joint bounding box plus a 5% margin, and identical input
produces byte-identical output.  Coordinates are written in the curve's own
units with a fixed number of decimals, enough to resolve 1/100 px of the
640-px picture.
"""

from __future__ import annotations

import math

import numpy as np

from .io import _fmt, format_rows

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
# Coordinates resolve the larger viewBox side into this many steps: 1/100 px
# of the 640-px picture.
_STEPS = 64000.0


def _escape(text: str) -> str:
    """Character data with &, < and > escaped, as xml.sax.saxutils.escape does."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(curves, markers=None) -> str:
    """SVG document for labeled polylines.

    curves: sequence of (label, (n, 2) array) pairs; markers: optional
    (m, 2) array of points drawn as circles (cusp locations).  A zero-extent
    bounding box (a curve collapsed to a point) falls back to a unit viewBox.
    """
    if not curves:
        raise ValueError("no curves to render")
    pts_all = [np.asarray(p, dtype=float) for _, p in curves]
    if any(p.size == 0 for p in pts_all):
        raise ValueError("empty polyline")
    stacked = np.vstack(pts_all + ([np.asarray(markers, dtype=float)] if markers is not None and len(markers) else []))
    # Flip y so the plot matches mathematical orientation.
    xs, ys = stacked[:, 0], -stacked[:, 1]
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    w, h = x1 - x0, y1 - y0
    if w == 0.0 and h == 0.0:
        x0, y0, w, h = x0 - 0.5, y0 - 0.5, 1.0, 1.0
    margin = 0.05 * max(w, h, 1e-30)
    vb = (x0 - margin, y0 - margin, w + 2 * margin, h + 2 * margin)
    stroke = max(vb[2], vb[3]) / 400.0
    marker_r = 3.0 * stroke
    # max() before ceil: a non-finite side gives 0 decimals, not an error.
    decimals = math.ceil(max(0.0, -math.log10(max(vb[2], vb[3]) / _STEPS)))
    center = f'cx="%.{decimals}f" cy="%.{decimals}f"'

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="{_fmt(vb[0])} {_fmt(vb[1])} {_fmt(vb[2])} {_fmt(vb[3])}">',
    ]
    for i, (label, pts) in enumerate(curves):
        pts = np.asarray(pts, dtype=float)
        color = _PALETTE[i % len(_PALETTE)]
        if len(pts) == 1 or all(col.max() - col.min() == 0.0 for col in pts.T):
            # Degenerate curve: render its single location as a marker.
            lines.append(
                f'<circle {center % (pts[0, 0], -pts[0, 1])} '
                f'r="{_fmt(marker_r)}" fill="{color}"><title>{_escape(label)}</title></circle>'
            )
            continue
        path = b"".join(format_rows(pts * (1.0, -1.0), (",", " L "), decimals)).decode()
        lines.append(
            f'<path d="M {path[:-len(" L ")]}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(stroke)}"><title>{_escape(label)}</title></path>'
        )
    if markers is not None:
        for m in np.asarray(markers, dtype=float):
            lines.append(
                f'<circle {center % (m[0], -m[1])} r="{_fmt(marker_r)}" '
                'fill="none" stroke="#000000" '
                f'stroke-width="{_fmt(stroke)}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
