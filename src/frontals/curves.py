"""Parametrized plane curves with derivatives up to second order.

Closed-form builtins (line, circle, ellipse, astroid), uniformly sampled
curves differentiated with a 4th-order scheme, cumulative integrals of grid
samples (arc length), and the determinant curvature formula.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable, Mapping, NamedTuple, Optional

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


class GridError(ValueError):
    """build_sampled refuses the parameter column `reason`, first at ts[sample]."""

    def __init__(self, reason: str, sample: int):
        super().__init__(f"{reason} at ts[{sample}]")
        self.reason, self.sample = reason, sample


class ParamInterval:
    """Uniform parameter grid on [t_start, t_end], optionally periodic.

    Periodic grids cover [t_start, t_end) with step (t_end - t_start) / n;
    open grids include both endpoints with step (t_end - t_start) / (n - 1).
    `grid` and `cos_sin` are built on first read, read-only, and every later
    read returns the same arrays.
    """

    __slots__ = ("t_start", "t_end", "n_samples", "periodic", "_grid", "_cos_sin")

    def __init__(self, t_start: float, t_end: float, n_samples: int, periodic: bool = False):
        if not (t_start < t_end):
            raise ValueError(f"need t_start < t_end, got [{t_start}, {t_end}]")
        if n_samples < MIN_SAMPLES:
            raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n_samples}")
        if n_samples > MAX_SAMPLES:
            raise ValueError(f"at most {MAX_SAMPLES} samples are supported, got {n_samples}")
        self.t_start, self.t_end, self.n_samples, self.periodic = t_start, t_end, n_samples, periodic
        self._grid = self._cos_sin = None

    @property
    def length(self) -> float:
        return self.t_end - self.t_start

    @property
    def step(self) -> float:
        n = self.n_samples if self.periodic else self.n_samples - 1
        return self.length / n

    @property
    def grid(self) -> np.ndarray:
        if self._grid is None:
            self._grid = read_only(self.t_start + np.arange(self.n_samples) * self.step if self.periodic
                                   else np.linspace(self.t_start, self.t_end, self.n_samples))
        return self._grid

    @property
    def cos_sin(self) -> tuple[np.ndarray, np.ndarray]:
        """(cos(grid), sin(grid)), which the closed-form curves and normals share."""
        if self._cos_sin is None:
            self._cos_sin = (read_only(np.cos(self.grid)), read_only(np.sin(self.grid)))
        return self._cos_sin


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
    # The central stencil ((f[i-2] - 8 f[i-1]) + 8 f[i+1]) - f[i+2], then / 12h,
    # accumulated in place: a temporary per term of a (16384, 2) grid page-faults.
    out = np.empty_like(f)
    inner = out[2:-2]
    np.subtract(f[:-4], 8.0 * f[1:-3], out=inner)
    inner += 8.0 * f[3:-1]
    inner -= f[4:]
    inner /= 12.0 * h
    if periodic:  # the same stencil on the eight samples around the seam
        seam = np.concatenate((f[-4:], f[:4]))
        ends = (seam[:-4] - 8.0 * seam[1:-3] + 8.0 * seam[3:-1] - seam[4:]) / (12.0 * h)
        out[-2:], out[:2] = ends[:2], ends[2:]
        return out
    out[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    out[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) / (12.0 * h)
    out[-2] = -(-3.0 * f[-1] - 10.0 * f[-2] + 18.0 * f[-3] - 6.0 * f[-4] + f[-5]) / (12.0 * h)
    out[-1] = -(-25.0 * f[-1] + 48.0 * f[-2] - 36.0 * f[-3] + 16.0 * f[-4] - 3.0 * f[-5]) / (
        12.0 * h
    )
    return out


def fd_chain(values: np.ndarray, h: float, periodic: bool):
    """(d1, d2) of fd_d1 and fd_d2."""
    d1 = fd_d1(values, h, periodic)
    return d1, fd_d2(values, d1, h, periodic)


def fd_d2(values: np.ndarray, d1: np.ndarray, h: float, periodic: bool) -> np.ndarray:
    """Second derivative of samples whose fd_d1 is d1: fd_d1 of d1, except at
    the two samples on each end of an open grid, where fd_d1 twice would
    difference one-sided first derivatives, so d2 takes 4th-order one-sided
    stencils of the samples themselves."""
    d2 = fd_d1(d1, h, periodic)
    if not periodic:
        f = np.asarray(values, dtype=float)
        d2[:2] = _D2_END @ f[:6] / (12.0 * h * h)
        d2[:-3:-1] = _D2_END @ f[:-7:-1] / (12.0 * h * h)
    return d2


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


def _weights(x, orders, h: float) -> np.ndarray:
    """(order, node) + x.shape: the derivatives of the given orders, on a grid
    of step h, of each node's Lagrange factor product at x steps into a
    cell, the nu-th by picks of nu factors."""
    x = np.asarray(x, dtype=float)
    ones = (1,) * x.ndim
    factors = x - _OTHERS.reshape(_OTHERS.shape + ones)
    factors /= _GAPS.reshape(_GAPS.shape + ones)
    return np.array([factors.prod(axis=1) if k == 0 else (factors[:, _KEPT[k]].prod(axis=2) * _SLOPES[k].reshape(
        _SLOPES[k].shape + ones)).sum(axis=1) / h**k for k in orders])


# The first derivative at a sample on a grid of unit step, as weights of the
# nodes -2, ..., 3 around it, and as local_quintic's matrix rows of the six
# samples that the first two and last three samples of an open grid read.
_D1_AT_NODE = _weights(0.0, (1,), 1.0)[0]
_D1_OPEN_ENDS = np.ascontiguousarray(np.moveaxis(_weights(np.array([-2.0, -1.0, 1.0, 2.0, 3.0]), (1,), 1.0), 1, 2))


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
    w = _weights(x, orders, h).reshape((len(orders), 6, np.size(x)) + (1,) * (f.ndim - 1))
    out = sum(w[:, j + 2] * np.take(f, base + j, axis=0, mode="wrap") for j in range(-2, 4))
    s = np.flatnonzero(cells != base)
    if len(s):
        x_s = np.broadcast_to(x, cells.shape)[s] + (cells - base)[s]
        ws = np.ascontiguousarray(np.moveaxis(_weights(x_s, orders, h), 1, 2))
        near = np.take(f, base[s, None] + np.arange(-2, 4), axis=0).reshape(len(s), 6, -1)
        out[:, s] = np.matmul(ws[..., None, :], near)[..., 0, :].reshape(out[:, s].shape)
    return out if isinstance(nu, tuple) else out[0]


def node_d1(values, h: float, periodic: bool) -> np.ndarray:
    """local_quintic(values, np.arange(len(values)), 0.0, periodic, 1, h), bit
    for bit: the first derivative at every sample, summed in node order from
    slices of the samples (padded across the seam of a periodic grid); the
    first two and last three samples of an open grid take local_quintic's
    matrix product of their inward-shifted stencils."""
    f = np.asarray(values, dtype=float)
    n = len(f)
    w = _D1_AT_NODE / h
    padded = np.concatenate((f[-2:], f, f[:3])) if periodic else f
    out = np.zeros_like(f)  # local_quintic's sum starts from 0, which turns a -0.0 first term into 0.0
    inner = out if periodic else out[2:-3]
    term = np.empty_like(inner)
    for j in range(6):
        inner += np.multiply(w[j], padded[j : len(padded) - 5 + j], out=term)
    if not periodic:
        near = np.take(f, np.array([2, 2, n - 4, n - 4, n - 4])[:, None] + np.arange(-2, 4), axis=0)
        ends = np.matmul((_D1_OPEN_ENDS / h)[..., None, :], near.reshape(5, 6, -1))[..., 0, :]
        out[[0, 1, -3, -2, -1]] = ends.reshape((5,) + f.shape[1:])
    return out


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
    out = np.zeros(len(f) + periodic)  # 0, then one entry per cell, accumulated in place
    cells = out[1:]
    inner = cells if periodic else cells[2:-2]
    term = np.empty_like(inner)
    for j, w in enumerate(_CELL_W):
        inner += np.multiply(w, padded[j : len(padded) - 5 + j], out=term)
    if not periodic:
        cells[:2], cells[-2:] = _END_W @ f[:6], _END_W[::-1, ::-1] @ f[-6:]
    cells *= h
    np.cumsum(cells, out=cells)
    return out


class GridSamples:
    """Samples of a model's callable fields on `interval.grid`, evaluated once
    and read-only; a model is seeded with the arrays it was built from."""

    __slots__ = ("_samples",)

    def __init__(self):
        self._samples = {}

    def on_grid(self, name: str) -> np.ndarray:
        """Samples of the field `name` ("position", "nu", ...) on the grid."""
        values = self._samples.get(name, lambda: getattr(self, name)(self.interval.grid))
        if callable(values):
            self._seed(**{name: values()})
        return self._samples[name]

    def _seed(self, **fields):
        """Cache grid samples of the named fields, read-only, or a function of
        no arguments that computes them on their first read; returns self."""
        self._samples.update((name, values if callable(values) else read_only(values))
                             for name, values in fields.items())
        return self


def read_only(values) -> np.ndarray:
    """A read-only float view of values."""
    view = np.asarray(values, dtype=float).view()
    view.setflags(write=False)
    return view


class CurveModel(GridSamples):
    """Evaluator of a plane curve with derivatives up to second order.

    `position`, `d1` and `d2` accept scalars or arrays of parameters and
    return arrays of shape (..., 2).  Its fields are not reassigned after
    construction: the grid samples cache reads them.
    """

    __slots__ = ("kind", "position", "d1", "d2", "interval", "extent", "d3")

    def __init__(self, kind: str, position: Callable[[np.ndarray], np.ndarray],
                 d1: Callable[[np.ndarray], np.ndarray], d2: Callable[[np.ndarray], np.ndarray],
                 interval: ParamInterval, extent: float = 0.0, d3: Optional[Callable] = None):
        super().__init__()
        self.kind = kind  # "analytic" | "sampled"
        self.position, self.d1, self.d2 = position, d1, d2
        self.interval = interval
        self.extent = extent  # bounding-box diagonal over the grid
        self.d3 = d3  # unused: nothing in frontals fills or reads it

    @property
    def reg_tol(self) -> float:
        return REG_TOL_SCALE * self.extent / self.interval.length

    @property
    def geom_tol(self) -> float:
        return GEOM_TOL_SCALE * self.extent


def _bbox_diagonal(points: np.ndarray) -> float:
    # Per column: numpy's axis-0 reduction of an (n, 2) array is ~15x slower.
    return float(math.hypot(*(col.max() - col.min() for col in points.T)))


class BuiltinSpec(NamedTuple):
    """Closed-form curve request: a name of BUILTINS, its parameters and its interval."""

    name: str
    params: Mapping[str, float]
    interval: ParamInterval


def _line(x0, y0, dx, dy, t0, t1):
    if math.hypot(dx, dy) == 0.0:
        raise ValueError("line needs a nonzero direction")
    return (lambda t, c, s: (x0 + dx * t, y0 + dy * t), lambda t, c, s: (np.full_like(t, dx), np.full_like(t, dy)),
            lambda t, c, s: (np.zeros_like(t), np.zeros_like(t)))


def _circle(r, cx, cy):
    if r <= 0:
        raise ValueError(f"circle needs r > 0, got {r}")
    return (lambda t, c, s: (cx + r * c, cy + r * s), lambda t, c, s: (-r * s, r * c),
            lambda t, c, s: (-r * c, -r * s),
            lambda t, c, s: (c, s), lambda t, c, s: (-s, c))  # the outward normal: curvature pair (1, r)


def _ellipse(a, b, cx, cy, t0, t1):
    if a <= 0 or b <= 0:
        raise ValueError(f"ellipse needs positive semi-axes, got a={a}, b={b}")
    return (lambda t, c, s: (cx + a * c, cy + b * s), lambda t, c, s: (-a * s, b * c),
            lambda t, c, s: (-a * c, -b * s))


def _astroid(a):
    if a <= 0:
        raise ValueError(f"astroid needs a > 0, got {a}")
    # Cubes by multiplication: numpy takes x ** 3 through libm pow, 60x slower.
    return (lambda t, c, s: (a * (c * c * c), a * (s * s * s)),
            lambda t, c, s: (-3 * a * c ** 2 * s, 3 * a * s ** 2 * c),
            lambda t, c, s: (-3 * a * (c * c * c - 2 * c * s ** 2), 3 * a * (2 * s * c ** 2 - s * s * s)),
            lambda t, c, s: (s, c), lambda t, c, s: (c, -s))  # a normal: curvature pair (-1, 3 a cos t sin t)


class Builtin(NamedTuple):
    """A row of BUILTINS.  `defaults` maps each parameter, in the order that
    messages list them, to its default; t0 and t1 are the interval's ends,
    [0, 2 pi] where absent.  A `closed` curve has period 2 pi and is periodic
    on one turn; the line is open.  `fields(**p)` checks the range of p and
    returns position, d1, d2 and, for a framed curve, nu and nu', each a
    function of (t, cos t, sin t), None for both on the line, to (x, y) arrays."""

    defaults: Mapping[str, float]
    closed: bool
    fields: Callable


TWO_PI = 2.0 * math.pi
BUILTINS = {
    "line": Builtin({"x0": 0.0, "y0": 0.0, "dx": 1.0, "dy": 0.0, "t0": 0.0, "t1": 1.0}, False, _line),
    "circle": Builtin({"r": 1.0, "cx": 0.0, "cy": 0.0}, True, _circle),
    "ellipse": Builtin({"a": 2.0, "b": 1.0, "cx": 0.0, "cy": 0.0, "t0": 0.0, "t1": TWO_PI}, True, _ellipse),
    "astroid": Builtin({"a": 1.0}, True, _astroid),
}


def _builtin_params(name: str, params: Mapping[str, float]) -> tuple[Builtin, dict]:
    """The builtin's row and params over its defaults; refuses a name or key the table does not list."""
    if name not in BUILTINS:
        raise ValueError(f"unknown builtin curve {name!r}")
    row = BUILTINS[name]
    unknown = [key for key in params if key not in row.defaults]
    if unknown:
        raise ValueError(f"{name} takes no parameter {unknown[0]!r}; it accepts {', '.join(row.defaults)}")
    return row, {**row.defaults, **params}


def builtin_spec(name: str, params: Mapping[str, float], n_samples: int) -> BuiltinSpec:
    """The builtin, with params over its defaults, on [t0, t1] at n_samples."""
    row, p = _builtin_params(name, params)
    t0, t1 = p.get("t0", 0.0), p.get("t1", TWO_PI)
    return BuiltinSpec(name, p, ParamInterval(t0, t1, n_samples, row.closed and math.isclose(t1 - t0, TWO_PI)))


def builtin_fields(spec: BuiltinSpec) -> dict:
    """spec's fields by name ("position", "d1", "d2" and, for a framed curve,
    "nu" and "nu_d1"), each as (f, samples): f takes t to (..., 2) arrays,
    and samples() computes them on the grid from the interval's cos_sin."""
    row, p = _builtin_params(spec.name, spec.params)
    args = (spec.interval.grid, *spec.interval.cos_sin) if row.closed else (spec.interval.grid, None, None)

    def of_t(field):
        def f(t):
            t = np.asarray(t, dtype=float)
            return np.stack(field(t, *((np.cos(t), np.sin(t)) if row.closed else (None, None))), axis=-1)

        return f, lambda: np.stack(field(*args), axis=-1)

    return dict(zip(("position", "d1", "d2", "nu", "nu_d1"), map(of_t, row.fields(**p))))


def build_builtin(spec: BuiltinSpec) -> CurveModel:
    """Analytic CurveModel with exact closed-form derivatives.  Its grid
    samples read the interval's cos_sin; d2's are computed on first read.
    A t0 or t1 in spec.params must be the interval's end."""
    fields = builtin_fields(spec)
    (position, position_samples), (d1, d1_samples), (d2, d2_samples) = (fields[k] for k in ("position", "d1", "d2"))
    for key, end in (("t0", spec.interval.t_start), ("t1", spec.interval.t_end)):
        if spec.params.get(key, end) != end:
            raise ValueError(f"{spec.name} parameter {key}={spec.params[key]:g} is not its interval's end {end:g}")
    pts, vel = position_samples(), d1_samples()
    size = max(float(np.max(np.abs(pts))), float(np.max(np.abs(vel))))
    if size > SAMPLE_MAX:
        values = dict(spec.params, t0=spec.interval.t_start, t1=spec.interval.t_end)
        key = max(values, key=lambda k: abs(values[k]))
        raise ValueError(f"{spec.name} parameter {key}={values[key]:g} makes the curve samples overflow: "
                         f"they reach {size:.3g}, above {SAMPLE_MAX:g}")
    model = CurveModel("analytic", position, d1, d2, spec.interval, _bbox_diagonal(pts))
    model._seed(position=pts, d1=vel, d2=d2_samples)
    if spec.interval.periodic:
        gap = np.linalg.norm(position(spec.interval.t_end) - position(spec.interval.t_start))
        if gap > model.geom_tol:
            raise ValueError(f"periodic interval but curve does not close (gap {gap:g})")
    return model


def build_sampled(ts, points, periodic: bool = False) -> CurveModel:
    """CurveModel from uniform samples; derivatives come from fd_d1, and d2's
    samples only when they are first read.

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
    h = float(np.mean(dts))
    for bad, why in ((dts == 0, "duplicate parameter values"), (dts < 0, "parameter values must be strictly increasing"),
                     (np.abs(dts - h) > UNIFORM_RTOL * h, "parameter grid is not uniform")):
        if np.any(bad):
            raise GridError(why, int(np.argmax(bad)) + 1)
    return sampled_model(ts, points, h, periodic)


def sampled_model(ts: np.ndarray, points: np.ndarray, h: float, periodic: bool) -> CurveModel:
    """build_sampled's model of (n, 2) samples on a grid ts that is already
    known to be uniform, of mean step h; it holds both arrays without copies."""
    d1g = fd_d1(points, h, periodic)
    t_end = ts[-1] + h if periodic else ts[-1]
    interval = ParamInterval(float(ts[0]), float(t_end), len(ts), periodic)

    def d2(t):
        return quintic_fn(ts, model.on_grid("d2"), periodic, t_end)(t)

    model = CurveModel("sampled", quintic_fn(ts, points, periodic, t_end), quintic_fn(ts, d1g, periodic, t_end), d2,
                       interval, _bbox_diagonal(points))
    return model._seed(position=points, d1=d1g, d2=lambda: fd_d2(points, d1g, h, periodic))


def speed_derivatives(g1, g2):
    """Speed v = |gamma'| and its derivative vd from the first two
    derivatives of gamma."""
    v = row_norm(g1)
    return v, row_dot(g1, g2) / v


def determinant_curvature(g1, g2, t, reg_tol: float) -> np.ndarray:
    """det(g1, g2) / |g1|^3 from samples of gamma' and gamma'' at t; raises
    where |gamma'| <= reg_tol (a singular point)."""
    v = row_norm(g1)
    if np.any(v <= reg_tol):
        bad = np.atleast_1d(t)[np.atleast_1d(v) <= reg_tol]
        raise SingularCurveError(f"singular point at t = {bad[:4]}")
    det = g1[..., 0] * g2[..., 1] - g1[..., 1] * g2[..., 0]
    return det / (v * v * v)

