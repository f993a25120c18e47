"""Parametrized plane curves with derivatives up to second order.

Closed-form builtins (line, circle, ellipse, astroid), uniformly sampled
curves differentiated with a 4th-order scheme, cumulative integrals of grid
samples (arc length), and the determinant curvature formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Mapping, Optional

import numpy as np

from .planar import row_dot, row_norm

# Nothing calls this name; perfbench/tracing.py wraps it until ROADMAP item 5 deletes it.
CubicSpline = None

# Relative tolerance for closed-form vs finite-difference agreement.
FD_TOL = 1e-5
# Scale factors for the singularity and closure thresholds; both are
# multiplied by geometry-derived scales (see CurveModel.reg_tol / geom_tol).
REG_TOL_SCALE = 1e-7
GEOM_TOL_SCALE = 1e-9
MIN_SAMPLES = 16
# 4x the largest grid measured (65536); peak memory is about 35 MiB at 16384.
MAX_SAMPLES = 2**18
UNIFORM_RTOL = 1e-9
# Largest coordinate or speed a builtin curve may reach on its grid: the
# curvature divides by speed^3 and the tolerances square lengths, which
# overflows from about 1e102 on.
SAMPLE_MAX = 1e100


class SingularCurveError(ValueError):
    """A regular-curve operation hit a singular point (zero velocity)."""


@dataclass(frozen=True)
class ParamInterval:
    """Uniform parameter grid on [t_start, t_end], optionally periodic.

    Periodic grids cover [t_start, t_end) with step (t_end - t_start) / n;
    open grids include both endpoints with step (t_end - t_start) / (n - 1).
    """

    t_start: float
    t_end: float
    n_samples: int
    periodic: bool = False

    def __post_init__(self):
        if not (self.t_start < self.t_end):
            raise ValueError(f"need t_start < t_end, got [{self.t_start}, {self.t_end}]")
        if self.n_samples < MIN_SAMPLES:
            raise ValueError(f"need at least {MIN_SAMPLES} samples, got {self.n_samples}")
        if self.n_samples > MAX_SAMPLES:
            raise ValueError(f"at most {MAX_SAMPLES} samples are supported, got {self.n_samples}")

    @property
    def length(self) -> float:
        return self.t_end - self.t_start

    @property
    def step(self) -> float:
        n = self.n_samples if self.periodic else self.n_samples - 1
        return self.length / n

    @property
    def grid(self) -> np.ndarray:
        if self.periodic:
            return self.t_start + np.arange(self.n_samples) * self.step
        return np.linspace(self.t_start, self.t_end, self.n_samples)


# 4th-order one-sided second-derivative stencils (times 12 h^2) of the
# first six samples, at samples 0 and 1.
_D2_END = np.array([[45.0, -154.0, 214.0, -156.0, 61.0, -10.0],
                    [10.0, -15.0, -4.0, 14.0, -6.0, 1.0]])


def fd_d1(values: np.ndarray, h: float, periodic: bool) -> np.ndarray:
    """4th-order first derivative of uniformly spaced samples (axis 0).

    Periodic grids use the central stencil with wraparound; open grids fall
    back to 4th-order one-sided stencils at the two samples on each end.
    """
    f = np.asarray(values, dtype=float)
    if len(f) < 7:
        raise ValueError("need at least 7 samples for the difference scheme")
    if periodic:
        return (
            np.roll(f, 2, axis=0)
            - 8.0 * np.roll(f, 1, axis=0)
            + 8.0 * np.roll(f, -1, axis=0)
            - np.roll(f, -2, axis=0)
        ) / (12.0 * h)
    out = np.empty_like(f)
    out[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    out[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    out[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) / (12.0 * h)
    out[-2] = -(-3.0 * f[-1] - 10.0 * f[-2] + 18.0 * f[-3] - 6.0 * f[-4] + f[-5]) / (12.0 * h)
    out[-1] = -(-25.0 * f[-1] + 48.0 * f[-2] - 36.0 * f[-3] + 16.0 * f[-4] - 3.0 * f[-5]) / (
        12.0 * h
    )
    return out


def fd_chain(values: np.ndarray, h: float, periodic: bool):
    """(d1, d2) by two successive applications of fd_d1, except d2 at the two
    samples on each end of an open grid: there fd_d1 twice would difference
    one-sided first derivatives, so d2 takes 4th-order one-sided stencils of
    the samples themselves."""
    d1 = fd_d1(values, h, periodic)
    d2 = fd_d1(d1, h, periodic)
    if not periodic:
        f = np.asarray(values, dtype=float)
        d2[:2] = _D2_END @ f[:6] / (12.0 * h * h)
        d2[:-3:-1] = _D2_END @ f[:-7:-1] / (12.0 * h * h)
    return d1, d2


def fd_mismatch(vals: np.ndarray, dv: np.ndarray, h: float) -> float:
    """Max relative mismatch between derivative samples dv and the samples
    vals of a function on a grid of step h, differenced as an open grid."""
    approx = fd_d1(vals, h, periodic=False)
    scale = max(1.0, float(np.max(np.abs(dv))))
    return float(np.max(np.abs(approx - dv))) / scale


# Nodes of the interpolation stencil, in steps from the start of a cell.  Node
# j's weight is the product of the factors (x - m) / (j - m) over the other
# nodes m (_OTHERS[j], _GAPS[j] = j - m).  For derivative order nu, row p of
# _KEPT[nu] lists the factors that the p-th pick of nu of them keeps, and
# _SLOPES[nu][j, p] is nu! times the product of the picked slopes 1 / (j - m).
_NODES = np.arange(-2.0, 4.0)
_OTHERS = np.array([[m for m in _NODES if m != j] for j in _NODES])
_GAPS = _NODES[:, None] - _OTHERS
_PICKS = [list(combinations(range(5), nu)) for nu in range(6)]
_KEPT = [np.array([[m for m in range(5) if m not in pick] for pick in picks], dtype=int) for picks in _PICKS]
_SLOPES = [math.factorial(len(picks[0])) * np.array([[np.prod(1.0 / gaps[list(pick)]) for pick in picks]
                                                     for gaps in _GAPS]) for picks in _PICKS]


def local_quintic(values, cells, x, periodic: bool, nu=0, h: float = 1.0) -> np.ndarray:
    """The nu-th derivative (nu <= 5; a tuple of orders adds a leading axis),
    on a grid of step h, of the Lagrange quintic through the samples (axis 0
    of `values`) on the nodes -2, ..., 3 around each of `cells`, at x steps
    into the cell (one x, or one per cell).  Its error is O(h^(6 - nu)), and
    x = 0 reads the cell's first sample back.  A periodic grid of n samples
    has n cells and wraps the stencil; an open one has n - 1 (and a cell
    n - 1 ending at the last sample) and shifts the stencil inward next to its
    ends, where each cell sums as one matrix product, elsewhere in node order.
    """
    f = np.asarray(values, dtype=float)
    cells = np.asarray(cells, dtype=int)
    base = cells if periodic else np.minimum(np.maximum(cells, 2), len(f) - 4)
    orders = nu if isinstance(nu, tuple) else (nu,)

    def weights(x):  # (order, node) + x.shape: the nu-th derivative of the product, by picks of nu factors
        x = np.asarray(x, dtype=float)
        ones = (1,) * x.ndim
        factors = x - _OTHERS.reshape(_OTHERS.shape + ones)
        factors /= _GAPS.reshape(_GAPS.shape + ones)
        return np.array([factors.prod(axis=1) if k == 0 else (factors[:, _KEPT[k]].prod(axis=2) * _SLOPES[k].reshape(
            _SLOPES[k].shape + ones)).sum(axis=1) / h**k for k in orders])

    w = weights(x).reshape((len(orders), 6, np.size(x)) + (1,) * (f.ndim - 1))
    out = sum(w[:, j + 2] * np.take(f, base + j, axis=0, mode="wrap") for j in range(-2, 4))
    s = np.flatnonzero(cells != base)
    if len(s):
        ws = np.ascontiguousarray(np.moveaxis(weights(np.broadcast_to(x, cells.shape)[s] + (cells - base)[s]), 1, 2))
        near = np.take(f, base[s, None] + np.arange(-2, 4), axis=0).reshape(len(s), 6, -1)
        out[:, s] = np.matmul(ws[..., None, :], near)[..., 0, :].reshape(out[:, s].shape)
    return out if isinstance(nu, tuple) else out[0]


def quintic_fn(grid: np.ndarray, values: np.ndarray, periodic: bool, t_end: float) -> Callable:
    """local_quintic of samples on the uniform `grid` as `f(t, nu=0)`, read
    in the cell that holds each t (np.searchsorted), so that a grid time reads
    its own sample.  A periodic grid covers [grid[0], t_end) without the
    closing sample, and t wraps to grid[0] + mod(t - grid[0], t_end - grid[0]).
    """
    t0, period = grid[0], t_end - grid[0]
    h = period / (len(grid) if periodic else len(grid) - 1)

    def evaluate(t, nu=0):
        t = np.asarray(t, dtype=float)
        flat = t0 + np.mod(t.ravel() - t0, period) if periodic else t.ravel()
        k = np.clip(np.searchsorted(grid, flat, side="right") - 1, 0, len(grid) - 1)
        out = local_quintic(values, k, (flat - grid[k]) / h, periodic, nu, h)
        lead = out.shape[:1] if isinstance(nu, tuple) else ()
        return out.reshape(lead + t.shape + out.shape[len(lead) + 1:])

    return evaluate


# The integral over one cell, in steps, of the local quintic, as weights of
# the six samples it reads: nodes -2..3 from the start of an inner cell, and
# the first six samples for cells 0 and 1 of an open grid, whose last two
# cells read the last six samples with the rows mirrored.
_CELL_W = np.array([11.0, -93.0, 802.0, 802.0, -93.0, 11.0]) / 1440.0
_END_W = np.array([[475.0, 1427.0, -798.0, 482.0, -173.0, 27.0],
                   [-27.0, 637.0, 1022.0, -258.0, 77.0, -11.0]]) / 1440.0


def cumulative_integral(values, h: float, periodic: bool) -> np.ndarray:
    """Integral of the local_quintic of samples on a grid of step h, from the
    first sample to each sample and, on a periodic grid, to the period end
    (one more entry).  Each cell sums fixed weights of its six samples, which
    integrate its quintic exactly."""
    f = np.asarray(values, dtype=float)
    padded = np.concatenate((f[-2:], f, f[:3])) if periodic else f
    per_cell = sum(w * padded[j : len(padded) - 5 + j] for j, w in enumerate(_CELL_W))
    if not periodic:
        per_cell = np.concatenate((_END_W @ f[:6], per_cell, _END_W[::-1, ::-1] @ f[-6:]))
    return np.concatenate(([0.0], np.cumsum(h * per_cell)))


@dataclass(frozen=True)
class GridSamples:
    """Samples of a model's callable fields on `interval.grid`, evaluated once
    and read-only; a sampled model is seeded with the arrays it was built from."""

    _samples: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def on_grid(self, name: str) -> np.ndarray:
        """Samples of the field `name` ("position", "nu", ...) on the grid."""
        if name not in self._samples:
            self._seed(**{name: getattr(self, name)(self.interval.grid)})
        return self._samples[name]

    def _seed(self, **fields):
        """Cache grid samples of the named fields, read-only; returns self."""
        self._samples.update((name, read_only(values)) for name, values in fields.items())
        return self


def read_only(values) -> np.ndarray:
    """A read-only float view of values."""
    view = np.asarray(values, dtype=float).view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class CurveModel(GridSamples):
    """Evaluator of a plane curve with derivatives up to second order.

    `position`, `d1` and `d2` accept scalars or arrays of parameters and
    return arrays of shape (..., 2).  Immutable after construction.
    """

    kind: str  # "analytic" | "sampled"
    position: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    interval: ParamInterval
    extent: float = field(default=0.0)  # bounding-box diagonal over the grid
    d3: Optional[Callable] = None  # unused: nothing in frontals fills or reads it

    @property
    def reg_tol(self) -> float:
        return REG_TOL_SCALE * self.extent / self.interval.length

    @property
    def geom_tol(self) -> float:
        return GEOM_TOL_SCALE * self.extent


def _bbox_diagonal(points: np.ndarray) -> float:
    spans = points.max(axis=0) - points.min(axis=0)
    return float(math.hypot(spans[0], spans[1]))


def xy_fn(fx, fy):
    """The plane curve t -> (fx(t), fy(t)) on scalars or arrays, as (..., 2)."""
    def f(t):
        t = np.asarray(t, dtype=float)
        return np.stack((fx(t), fy(t)), axis=-1)

    return f


@dataclass(frozen=True)
class BuiltinSpec:
    """Closed-form curve request: name plus shape parameters."""

    name: str  # line | circle | ellipse | astroid
    params: Mapping[str, float]
    interval: ParamInterval


def _builtin_callables(name: str, p: Mapping[str, float]):
    if name == "line":
        x0, y0 = p.get("x0", 0.0), p.get("y0", 0.0)
        dx, dy = p.get("dx", 1.0), p.get("dy", 0.0)
        if math.hypot(dx, dy) == 0.0:
            raise ValueError("line needs a nonzero direction")
        zero = xy_fn(np.zeros_like, np.zeros_like)
        return (
            xy_fn(lambda t: x0 + dx * t, lambda t: y0 + dy * t),
            xy_fn(lambda t: np.full_like(t, dx), lambda t: np.full_like(t, dy)),
            zero,
        )
    if name == "circle":
        r = p.get("r", 1.0)
        if r <= 0:
            raise ValueError(f"circle needs r > 0, got {r}")
        cx, cy = p.get("cx", 0.0), p.get("cy", 0.0)
        return (
            xy_fn(lambda t: cx + r * np.cos(t), lambda t: cy + r * np.sin(t)),
            xy_fn(lambda t: -r * np.sin(t), lambda t: r * np.cos(t)),
            xy_fn(lambda t: -r * np.cos(t), lambda t: -r * np.sin(t)),
        )
    if name == "ellipse":
        a, b = p.get("a", 2.0), p.get("b", 1.0)
        if a <= 0 or b <= 0:
            raise ValueError(f"ellipse needs positive semi-axes, got a={a}, b={b}")
        cx, cy = p.get("cx", 0.0), p.get("cy", 0.0)
        return (
            xy_fn(lambda t: cx + a * np.cos(t), lambda t: cy + b * np.sin(t)),
            xy_fn(lambda t: -a * np.sin(t), lambda t: b * np.cos(t)),
            xy_fn(lambda t: -a * np.cos(t), lambda t: -b * np.sin(t)),
        )
    if name == "astroid":
        a = p.get("a", 1.0)
        if a <= 0:
            raise ValueError(f"astroid needs a > 0, got {a}")
        return (
            xy_fn(lambda t: a * np.cos(t) ** 3, lambda t: a * np.sin(t) ** 3),
            xy_fn(
                lambda t: -3 * a * np.cos(t) ** 2 * np.sin(t),
                lambda t: 3 * a * np.sin(t) ** 2 * np.cos(t),
            ),
            xy_fn(
                lambda t: -3 * a * (np.cos(t) ** 3 - 2 * np.cos(t) * np.sin(t) ** 2),
                lambda t: 3 * a * (2 * np.sin(t) * np.cos(t) ** 2 - np.sin(t) ** 3),
            ),
        )
    raise ValueError(f"unknown builtin curve {name!r}")


def build_builtin(spec: BuiltinSpec) -> CurveModel:
    """Analytic CurveModel with exact closed-form derivatives."""
    position, d1, d2 = _builtin_callables(spec.name, spec.params)
    grid = spec.interval.grid
    pts, vel = position(grid), d1(grid)
    size = max(float(np.max(np.abs(pts))), float(np.max(np.abs(vel))))
    if size > SAMPLE_MAX:
        values = dict(spec.params, t0=spec.interval.t_start, t1=spec.interval.t_end)
        key = max(values, key=lambda k: abs(values[k]))
        raise ValueError(f"{spec.name} parameter {key}={values[key]:g} makes the curve samples overflow: "
                         f"they reach {size:.3g}, above {SAMPLE_MAX:g}")
    model = CurveModel(
        kind="analytic",
        position=position,
        d1=d1,
        d2=d2,
        interval=spec.interval,
        extent=_bbox_diagonal(pts),
    )._seed(position=pts, d1=vel)
    if spec.interval.periodic:
        gap = np.linalg.norm(position(spec.interval.t_end) - position(spec.interval.t_start))
        if gap > model.geom_tol:
            raise ValueError(f"periodic interval but curve does not close (gap {gap:g})")
    return model


def build_sampled(ts, points, periodic: bool = False) -> CurveModel:
    """CurveModel from uniform samples; derivatives come from fd_d1.

    Periodic input covers one period without the closing sample, so the
    implied full interval is [ts[0], ts[-1] + h).  Evaluation between
    samples reads the local quintic of the position and derivative samples.
    """
    ts = np.array(ts, dtype=float)  # copies: the model reads these later
    points = np.array(points, dtype=float)
    if ts.ndim != 1 or points.shape != (len(ts), 2):
        raise ValueError(f"need matching ts (n,) and points (n, 2), got {points.shape}")
    if len(ts) < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {len(ts)}")
    dts = np.diff(ts)
    if np.any(dts == 0):
        raise ValueError("duplicate parameter values")
    if np.any(dts < 0):
        raise ValueError("parameter values must be strictly increasing")
    h = float(np.mean(dts))
    if np.max(np.abs(dts - h)) > UNIFORM_RTOL * h:
        raise ValueError("parameter grid is not uniform")

    d1g, d2g = fd_chain(points, h, periodic)
    t_end = ts[-1] + h if periodic else ts[-1]
    interval = ParamInterval(float(ts[0]), float(t_end), len(ts), periodic)

    readers = (quintic_fn(ts, v, periodic, t_end) for v in (points, d1g, d2g))
    return CurveModel("sampled", *readers, interval, _bbox_diagonal(points))._seed(position=points, d1=d1g, d2=d2g)


def speed_derivatives(g1, g2):
    """Speed v = |gamma'| and its derivative vd from the first two
    derivatives of gamma."""
    v = row_norm(g1)
    return v, row_dot(g1, g2) / v


def regular_curvature(c: CurveModel, t) -> np.ndarray:
    """det(d1, d2) / |d1|^3 at t; raises at singular points."""
    return determinant_curvature(c.d1(t), c.d2(t), t, c.reg_tol)


def determinant_curvature(g1, g2, t, reg_tol: float) -> np.ndarray:
    """det(g1, g2) / |g1|^3 from samples of gamma' and gamma'' at t; raises
    where |gamma'| <= reg_tol (a singular point)."""
    v = row_norm(g1)
    if np.any(v <= reg_tol):
        bad = np.atleast_1d(t)[np.atleast_1d(v) <= reg_tol]
        raise SingularCurveError(f"singular point at t = {bad[:4]}")
    det = g1[..., 0] * g2[..., 1] - g1[..., 1] * g2[..., 0]
    return det / v**3

