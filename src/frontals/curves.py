"""Parametrized plane curves with derivatives up to second order.

Closed-form builtins (line, circle, ellipse, astroid), uniformly sampled
curves differentiated with a 4th-order scheme, arc-length reparametrization
for regular curves, and the determinant curvature formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline, PchipInterpolator

from .planar import ScalarFn

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

    @property
    def grid_closed(self) -> np.ndarray:
        """Grid including t_end, also for periodic intervals."""
        if self.periodic:
            return np.concatenate([self.grid, [self.t_end]])
        return self.grid


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
    """(d1, d2) by two successive applications of fd_d1."""
    d1 = fd_d1(values, h, periodic)
    return d1, fd_d1(d1, h, periodic)


def check_fn_consistency(fn: ScalarFn, grid: np.ndarray, periodic: bool = False) -> float:
    """Max relative mismatch between fn.deriv and differenced fn.eval."""
    vals = np.asarray(fn.eval(grid), dtype=float)
    dv = np.asarray(fn.deriv(grid), dtype=float)
    h = grid[1] - grid[0]
    approx = fd_d1(vals, h, periodic)
    scale = max(1.0, float(np.max(np.abs(dv))))
    return float(np.max(np.abs(approx - dv))) / scale


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
        for name, values in fields.items():
            self._samples[name] = values = np.asarray(values, dtype=float).view()
            values.setflags(write=False)
        return self


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


def _vectorize_xy(fx, fy):
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
        zero = _vectorize_xy(np.zeros_like, np.zeros_like)
        return (
            _vectorize_xy(lambda t: x0 + dx * t, lambda t: y0 + dy * t),
            _vectorize_xy(lambda t: np.full_like(t, dx), lambda t: np.full_like(t, dy)),
            zero,
        )
    if name == "circle":
        r = p.get("r", 1.0)
        if r <= 0:
            raise ValueError(f"circle needs r > 0, got {r}")
        cx, cy = p.get("cx", 0.0), p.get("cy", 0.0)
        return (
            _vectorize_xy(lambda t: cx + r * np.cos(t), lambda t: cy + r * np.sin(t)),
            _vectorize_xy(lambda t: -r * np.sin(t), lambda t: r * np.cos(t)),
            _vectorize_xy(lambda t: -r * np.cos(t), lambda t: -r * np.sin(t)),
        )
    if name == "ellipse":
        a, b = p.get("a", 2.0), p.get("b", 1.0)
        if a <= 0 or b <= 0:
            raise ValueError(f"ellipse needs positive semi-axes, got a={a}, b={b}")
        cx, cy = p.get("cx", 0.0), p.get("cy", 0.0)
        return (
            _vectorize_xy(lambda t: cx + a * np.cos(t), lambda t: cy + b * np.sin(t)),
            _vectorize_xy(lambda t: -a * np.sin(t), lambda t: b * np.cos(t)),
            _vectorize_xy(lambda t: -a * np.cos(t), lambda t: -b * np.sin(t)),
        )
    if name == "astroid":
        a = p.get("a", 1.0)
        if a <= 0:
            raise ValueError(f"astroid needs a > 0, got {a}")
        return (
            _vectorize_xy(lambda t: a * np.cos(t) ** 3, lambda t: a * np.sin(t) ** 3),
            _vectorize_xy(
                lambda t: -3 * a * np.cos(t) ** 2 * np.sin(t),
                lambda t: 3 * a * np.sin(t) ** 2 * np.cos(t),
            ),
            _vectorize_xy(
                lambda t: -3 * a * (np.cos(t) ** 3 - 2 * np.cos(t) * np.sin(t) ** 2),
                lambda t: 3 * a * (2 * np.sin(t) * np.cos(t) ** 2 - np.sin(t) ** 3),
            ),
        )
    raise ValueError(f"unknown builtin curve {name!r}")


def build_builtin(spec: BuiltinSpec) -> CurveModel:
    """Analytic CurveModel with exact closed-form derivatives."""
    position, d1, d2 = _builtin_callables(spec.name, spec.params)
    pts = position(spec.interval.grid)
    model = CurveModel(
        kind="analytic",
        position=position,
        d1=d1,
        d2=d2,
        interval=spec.interval,
        extent=_bbox_diagonal(pts),
    )
    if spec.interval.periodic:
        gap = np.linalg.norm(position(spec.interval.t_end) - position(spec.interval.t_start))
        if gap > model.geom_tol:
            raise ValueError(f"periodic interval but curve does not close (gap {gap:g})")
    return model


def spline_fn(grid: np.ndarray, values: np.ndarray, periodic: bool, t_end: float) -> Callable:
    """Cubic-spline evaluator of samples on `grid` (axis 0 of `values`),
    built on its first call.  `values` must not change afterwards.

    A periodic grid covers [grid[0], t_end) without the closing sample: the
    spline closes at t_end and wraps t to t0 + mod(t - t0, t_end - t0).
    """
    t0, period = grid[0], t_end - grid[0]
    spline = None

    def evaluate(t):
        nonlocal spline
        if spline is None:
            spline = CubicSpline(np.concatenate([grid, [t_end]]), np.concatenate([values, values[:1]], axis=0),
                                 bc_type="periodic") if periodic else CubicSpline(grid, values)
        t = np.asarray(t, dtype=float)
        return spline(t0 + np.mod(t - t0, period) if periodic else t)

    return evaluate


def build_sampled(ts, points, periodic: bool = False) -> CurveModel:
    """CurveModel from uniform samples; derivatives come from fd_d1.

    Periodic input covers one period without the closing sample, so the
    implied full interval is [ts[0], ts[-1] + h).  Evaluation between
    samples uses cubic interpolation of the position and derivative grids.
    """
    ts = np.array(ts, dtype=float)  # copies: the splines are built later from these
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

    pos_f, d1_f, d2_f = (spline_fn(ts, v, periodic, t_end) for v in (points, d1g, d2g))

    return CurveModel(
        kind="sampled",
        position=pos_f,
        d1=d1_f,
        d2=d2_f,
        interval=interval,
        extent=_bbox_diagonal(points),
    )._seed(position=points, d1=d1g, d2=d2g)


def arclength_maps(c: CurveModel):
    """(s_of_t, t_of_s, total_length) for a regular curve.

    The arc length is accumulated with composite Simpson over the grid and
    inverted with a monotone cubic interpolant.
    """
    ts = c.interval.grid_closed
    speeds = np.linalg.norm(c.d1(ts), axis=-1)
    vmin = float(np.min(speeds))
    if vmin <= c.reg_tol:
        i = int(np.argmin(speeds))
        raise SingularCurveError(
            f"curve is singular near t = {ts[i]:.6g} (|d1| = {vmin:.3g} <= {c.reg_tol:.3g})"
        )
    s_vals = cumulative_simpson(speeds, x=ts, initial=0.0)
    total = float(s_vals[-1])
    s_of_t = PchipInterpolator(ts, s_vals)
    t_of_s = PchipInterpolator(s_vals, ts)
    return s_of_t, t_of_s, total


def speed_derivatives(g1, g2):
    """Speed v = |gamma'| and its derivative vd from the first two
    derivatives of gamma."""
    v = np.linalg.norm(g1, axis=-1)
    return v, np.sum(g1 * g2, axis=-1) / v


def arclength_reparametrize(c: CurveModel) -> CurveModel:
    """Unit-speed version of a regular curve on [0, total_length]."""
    _, t_of_s, total = arclength_maps(c)
    interval = ParamInterval(0.0, total, c.interval.n_samples, c.interval.periodic)

    def wrap(s):
        s = np.asarray(s, dtype=float)
        if interval.periodic:
            s = np.mod(s, total)
        return np.clip(s, 0.0, total)

    def param(s):
        return np.asarray(t_of_s(wrap(s)), dtype=float)

    def position(s):
        return c.position(param(s))

    def d1(s):
        t = param(s)
        g1 = c.d1(t)
        v = np.linalg.norm(g1, axis=-1)
        return g1 / v[..., None]

    def d2(s):
        t = param(s)
        g1, g2 = c.d1(t), c.d2(t)
        v, vd = speed_derivatives(g1, g2)
        tp = 1.0 / v
        tpp = -vd / v**3
        return g2 * (tp**2)[..., None] + g1 * tpp[..., None]

    return CurveModel(
        kind=c.kind,
        position=position,
        d1=d1,
        d2=d2,
        interval=interval,
        extent=c.extent,
    )


def regular_curvature(c: CurveModel, t) -> np.ndarray:
    """det(d1, d2) / |d1|^3 at t; raises at singular points."""
    return determinant_curvature(c.d1(t), c.d2(t), t, c.reg_tol)


def determinant_curvature(g1, g2, t, reg_tol: float) -> np.ndarray:
    """det(g1, g2) / |g1|^3 from samples of gamma' and gamma'' at t; raises
    where |gamma'| <= reg_tol (a singular point)."""
    v = np.linalg.norm(g1, axis=-1)
    if np.any(v <= reg_tol):
        bad = np.atleast_1d(t)[np.atleast_1d(v) <= reg_tol]
        raise SingularCurveError(f"singular point at t = {bad[:4]}")
    det = g1[..., 0] * g2[..., 1] - g1[..., 1] * g2[..., 0]
    return det / v**3


def restrict(c: CurveModel, t0: float, t1: float, n_samples: int | None = None) -> CurveModel:
    """Restriction of a curve model to [t0, t1] as an open interval."""
    if not (c.interval.t_start - 1e-12 <= t0 < t1 <= c.interval.t_end + 1e-12):
        raise ValueError(f"[{t0}, {t1}] is not inside [{c.interval.t_start}, {c.interval.t_end}]")
    n = n_samples or max(MIN_SAMPLES, int(round(c.interval.n_samples * (t1 - t0) / c.interval.length)))
    interval = ParamInterval(float(t0), float(t1), n, periodic=False)
    pts = c.position(interval.grid)
    return CurveModel(
        kind=c.kind,
        position=c.position,
        d1=c.d1,
        d2=c.d2,
        interval=interval,
        extent=_bbox_diagonal(pts),
    )
