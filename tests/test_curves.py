import math
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipe

from frontals import curves
from frontals.curves import (
    BUILTINS,
    BuiltinSpec,
    CurveModel,
    ParamInterval,
    SingularCurveError,
    build_builtin,
    build_sampled,
    builtin_spec,
    cumulative_integral,
    determinant_curvature,
    fd_mismatch,
    fd_chain,
    fd_d1,
    local_quintic,
    node_d1,
    quintic_fn,
)
from frontals.legendre import builtin_frontal, from_regular, frontal_from_samples, legendre_curvature
from conftest import grid_trig_counter
from frontals.planar import linear_fn, row_norm

TWO_PI = 2.0 * math.pi


def closed_interval(n=1024):
    return ParamInterval(0.0, TWO_PI, n, periodic=True)


def test_interval_validation():
    with pytest.raises(ValueError):
        ParamInterval(1.0, 0.0, 64)
    with pytest.raises(ValueError):
        ParamInterval(0.0, 1.0, 8)


def test_builtin_circle_values():
    c = build_builtin(BuiltinSpec("circle", {"r": 2.0}, closed_interval()))
    assert np.allclose(c.position(0.0), [2.0, 0.0])
    assert np.allclose(c.d1(0.0), [0.0, 2.0])


def test_builtin_astroid_value():
    c = build_builtin(BuiltinSpec("astroid", {}, closed_interval()))
    assert np.allclose(c.position(math.pi / 4), [2 ** (-1.5), 2 ** (-1.5)])


def test_builtin_line_value():
    c = build_builtin(BuiltinSpec("line", {}, ParamInterval(0.0, 10.0, 64)))
    assert np.allclose(c.position(5.0), [5.0, 0.0])


def test_builtin_errors():
    with pytest.raises(ValueError):
        build_builtin(BuiltinSpec("helix", {}, closed_interval()))
    with pytest.raises(ValueError):
        build_builtin(BuiltinSpec("circle", {"r": -1.0}, closed_interval()))


def test_builtin_refuses_a_key_the_table_does_not_list():
    with pytest.raises(ValueError) as refused:
        build_builtin(BuiltinSpec("circle", {"radius": 2.0}, closed_interval()))
    assert str(refused.value) == "circle takes no parameter 'radius'; it accepts r, cx, cy"
    with pytest.raises(ValueError, match="^unknown builtin curve 'helix'$"):
        builtin_spec("helix", {}, 64)


def test_builtin_t0_and_t1_must_be_its_interval_ends():
    line = build_builtin(BuiltinSpec("line", {"t0": 0.0, "t1": 10.0}, ParamInterval(0.0, 10.0, 64)))
    assert np.array_equal(line.on_grid("position")[-1], [10.0, 0.0])
    with pytest.raises(ValueError, match="^line parameter t1=5 is not its interval's end 10$"):
        build_builtin(BuiltinSpec("line", {"t1": 5.0}, ParamInterval(0.0, 10.0, 64)))


@pytest.mark.parametrize("name, params, interval", [
    ("circle", {"r": 2.0}, (0.0, TWO_PI, True)),
    ("astroid", {}, (0.0, TWO_PI, True)),
    ("ellipse", {"a": 3.0}, (0.0, TWO_PI, True)),
    ("ellipse", {"t0": 0.3, "t1": 2.1}, (0.3, 2.1, False)),
    ("ellipse", {"t0": -math.pi, "t1": math.pi}, (-math.pi, math.pi, True)),
    ("line", {"dy": 1.0}, (0.0, 1.0, False)),
    ("line", {"t1": TWO_PI}, (0.0, TWO_PI, False)),  # the line is open on any interval
])
def test_builtin_spec_reads_the_table(name, params, interval):
    spec = builtin_spec(name, params, 64)
    assert (spec.interval.t_start, spec.interval.t_end, spec.interval.periodic) == interval
    assert spec.interval.n_samples == 64
    assert spec.params == {**BUILTINS[name].defaults, **params}
    build_builtin(spec)


@pytest.mark.parametrize("name,params", [
    ("circle", {"r": 1.5}),
    ("ellipse", {"a": 2.0, "b": 1.0}),
    ("astroid", {}),
])
def test_analytic_derivatives_match_differences(name, params):
    c = build_builtin(BuiltinSpec(name, params, closed_interval()))
    ts = c.interval.grid
    h = c.interval.step
    for dk, order in ((c.d1, 1), (c.d2, 2)):
        vals = c.position(ts)
        for _ in range(order):
            vals = fd_d1(vals, h, periodic=True)
        scale = max(1.0, float(np.max(np.abs(dk(ts)))))
        assert np.max(np.abs(vals - dk(ts))) <= 1e-5 * scale


@pytest.mark.parametrize("name,params", [
    ("circle", {"r": 1.0}),
    ("ellipse", {"a": 2.0, "b": 1.0}),
    ("astroid", {}),
])
def test_fd_fourth_order_convergence(name, params):
    errs = []
    for n in (256, 512):
        c = build_builtin(BuiltinSpec(name, params, closed_interval(n)))
        ts = c.interval.grid
        approx = fd_d1(c.position(ts), c.interval.step, periodic=True)
        errs.append(np.max(np.abs(approx - c.d1(ts))))
    assert errs[0] / errs[1] >= 15.0


def test_build_sampled_circle_derivative():
    n = 256
    interval = closed_interval(n)
    ts = interval.grid
    pts = np.stack((np.cos(ts), np.sin(ts)), axis=-1)
    c = build_sampled(ts, pts, periodic=True)
    assert np.linalg.norm(c.d1(0.0) - np.array([0.0, 1.0])) <= 1e-6


def test_build_sampled_constant_point():
    ts = np.linspace(0.0, 1.0, 16)
    pts = np.full((16, 2), 3.0)
    c = build_sampled(ts, pts)
    assert np.max(np.abs(c.d1(ts))) == 0.0


def test_build_sampled_rejects_bad_grids():
    pts = np.zeros((20, 2))
    with pytest.raises(ValueError):
        build_sampled(np.linspace(1.0, 0.0, 20), pts)  # decreasing
    ts = np.linspace(0.0, 1.0, 20).copy()
    ts[5] = ts[4]
    with pytest.raises(ValueError):
        build_sampled(ts, pts)  # duplicate
    ts = np.linspace(0.0, 1.0, 20) ** 2
    with pytest.raises(ValueError):
        build_sampled(ts, pts)  # non-uniform
    with pytest.raises(ValueError):
        build_sampled(np.linspace(0, 1, 8), np.zeros((8, 2)))  # too few


def arc_length(c):
    return cumulative_integral(row_norm(c.on_grid("d1")), c.interval.step, c.interval.periodic)


def test_arclength_circle():
    c = build_builtin(BuiltinSpec("circle", {"r": 2.0}, closed_interval()))
    # one more entry than samples: the period end
    ts = np.append(c.interval.grid, c.interval.t_end)
    assert np.max(np.abs(arc_length(c) - 2.0 * ts)) <= 1e-12 * 4.0 * math.pi


def test_arclength_unit_speed_line_unchanged():
    c = build_builtin(BuiltinSpec("line", {}, ParamInterval(0.0, 5.0, 64)))
    assert np.max(np.abs(arc_length(c) - c.interval.grid)) <= 1e-12


@pytest.mark.parametrize("n", [256, 1024])
def test_arclength_ellipse_perimeter(n):
    c = build_builtin(BuiltinSpec("ellipse", {"a": 2.0, "b": 1.0}, closed_interval(n)))
    perimeter = 8.0 * ellipe(0.75)  # 4 a E(1 - b^2 / a^2)
    assert abs(arc_length(c)[-1] - perimeter) <= 1e-12 * perimeter


def test_arclength_open_arc_matches_quad():
    c = build_builtin(BuiltinSpec("ellipse", {"a": 2.0, "b": 1.0}, ParamInterval(0.0, 1.3, 64)))
    s = arc_length(c)
    ref = [quad(lambda t: math.hypot(2.0 * math.sin(t), math.cos(t)), 0.0, t, epsabs=0.0, epsrel=1e-13)[0]
           for t in c.interval.grid]
    assert abs(s[-1] - ref[-1]) <= 1e-11 * ref[-1]
    # the stencil is one-sided in the end cells, so every sample gets a looser bound
    assert np.max(np.abs(s - ref)) <= 1e-10 * ref[-1]


def test_cumulative_integral_is_exact_for_quintics():
    # every cell of an open grid, the two at each end included
    coefs = np.random.default_rng(5).normal(size=6)
    t = np.linspace(-1.0, 2.0, 17)
    got = cumulative_integral(np.polyval(coefs, t), t[1] - t[0], periodic=False)
    want = np.polyval(np.polyint(coefs), t)
    assert np.max(np.abs(np.diff(got) - np.diff(want))) <= 1e-13 * np.max(np.abs(want))


def _cumulative_integral_by_concatenation(values, h, periodic):
    """cumulative_integral as it summed each cell's weights into a new array
    and concatenated the end cells and the leading 0 around it: the bitwise
    reference of the in-place accumulation."""
    f = np.asarray(values, dtype=float)
    padded = np.concatenate((f[-2:], f, f[:3])) if periodic else f
    per_cell = sum(w * padded[j : len(padded) - 5 + j] for j, w in enumerate(curves._CELL_W))
    if not periodic:
        per_cell = np.concatenate((curves._END_W @ f[:6], per_cell, curves._END_W[::-1, ::-1] @ f[-6:]))
    return np.concatenate(([0.0], np.cumsum(h * per_cell)))


def _with_signed_zeros(f, weights):
    """f with zeros of mixed signs, and six zeros signed against the six
    weights: each of their products is -0.0, and so is a sum of them that
    does not start from 0."""
    f = f.copy()
    f[1:4], f[6:12] = [0.0, -0.0, 0.0], -np.sign(weights) * 0.0
    return f


@pytest.mark.parametrize("n", [16, 17, 1024, 8193])
@pytest.mark.parametrize("periodic", [False, True])
def test_cumulative_integral_equals_its_concatenating_formula(n, periodic):
    h = TWO_PI / n
    f = np.random.default_rng(n).normal(size=n)
    for f in (f, _with_signed_zeros(f, curves._CELL_W)):
        got = cumulative_integral(f, h, periodic)
        assert got.tobytes() == _cumulative_integral_by_concatenation(f, h, periodic).tobytes()


@pytest.mark.parametrize("n", [16, 17, 1024, 8193])
@pytest.mark.parametrize("periodic", [False, True])
def test_node_d1_equals_local_quintic_at_the_samples(n, periodic):
    rng = np.random.default_rng(n + periodic)
    h = TWO_PI / n
    for f in (rng.normal(size=n), _with_signed_zeros(rng.normal(size=n), curves._D1_AT_NODE), rng.normal(size=(n, 2))):
        got = node_d1(f, h, periodic)
        assert got.tobytes() == local_quintic(f, np.arange(n), 0.0, periodic, 1, h).tobytes()


@pytest.mark.parametrize("shape", [(8192,), (8192, 2), (7,), (33, 2)])
def test_fd_d1_matches_the_roll_formula_bit_for_bit(shape):
    f = np.random.default_rng(shape[0]).normal(size=shape)
    h = 0.37
    want = (np.roll(f, 2, axis=0) - 8.0 * np.roll(f, 1, axis=0) + 8.0 * np.roll(f, -1, axis=0)
            - np.roll(f, -2, axis=0)) / (12.0 * h)
    assert np.array_equal(fd_d1(f, h, periodic=True).view(np.uint64), want.view(np.uint64))
    inner = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    assert np.array_equal(fd_d1(f, h, periodic=False)[2:-2].view(np.uint64), inner.view(np.uint64))


def test_bbox_diagonal_matches_the_axis_reduction():
    rng = np.random.default_rng(7)
    cases = [rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-8, 8) for n in (1, 2, 8192)]
    cases += [rng.normal(size=(64, 4))[:, 1:3], np.array([[1.0, np.nan], [2.0, 0.0]])]
    for pts in cases:
        spans = pts.max(axis=0) - pts.min(axis=0)
        want = float(math.hypot(spans[0], spans[1]))
        got = curves._bbox_diagonal(pts)
        assert got == want or (math.isnan(got) and math.isnan(want))


def kappa(c, t):
    """kappa = det(gamma', gamma'') / |gamma'|^3 of the model c at t."""
    return determinant_curvature(c.d1(t), c.d2(t), t, c.reg_tol)


def test_determinant_curvature_values():
    circle = build_builtin(BuiltinSpec("circle", {"r": 2.0}, closed_interval()))
    assert np.allclose(kappa(circle, [0.0, 1.0, 4.0]), 0.5)
    line = build_builtin(BuiltinSpec("line", {"dy": 2.0}, ParamInterval(0.0, 1.0, 64)))
    assert np.allclose(kappa(line, 0.5), 0.0)
    ellipse = build_builtin(BuiltinSpec("ellipse", {"a": 2.0, "b": 1.0}, closed_interval()))
    # ab / (a^2 sin^2 + b^2 cos^2)^(3/2) at t=0 gives 2
    assert abs(kappa(ellipse, 0.0) - 2.0) <= 1e-12


def test_determinant_curvature_rejects_singular_point():
    ast = build_builtin(BuiltinSpec("astroid", {}, closed_interval()))
    with pytest.raises(SingularCurveError):
        kappa(ast, 0.0)


def test_curvature_parametrization_invariance():
    slow = build_builtin(BuiltinSpec("circle", {"r": 2.0}, closed_interval()))

    def pos(t):
        t = np.asarray(t, dtype=float)
        return np.stack((2 * np.cos(2 * t), 2 * np.sin(2 * t)), axis=-1)

    fast = CurveModel(
        kind="analytic",
        position=pos,
        d1=lambda t: np.stack((-4 * np.sin(2 * np.asarray(t)), 4 * np.cos(2 * np.asarray(t))), axis=-1),
        d2=lambda t: np.stack((-8 * np.cos(2 * np.asarray(t)), -8 * np.sin(2 * np.asarray(t))), axis=-1),
        interval=ParamInterval(0.0, math.pi, 512, periodic=True),
        extent=4.0 * math.sqrt(2.0),
    )
    k1 = kappa(slow, slow.interval.grid)
    k2 = kappa(fast, fast.interval.grid)
    assert np.max(np.abs(k1 - 0.5)) <= 1e-8
    assert np.max(np.abs(k2 - 0.5)) <= 1e-8


def test_periodic_closure_enforced():
    with pytest.raises(ValueError):
        # half a circle flagged periodic does not close
        build_builtin(BuiltinSpec("circle", {"r": 1.0}, ParamInterval(0.0, math.pi, 64, periodic=True)))


def test_fn_consistency_checker():
    grid = np.linspace(0.0, TWO_PI, 512)
    h = grid[1] - grid[0]
    good = linear_fn(0.3, 2.0)
    assert fd_mismatch(good.eval(grid), good.deriv(grid), h) <= 1e-10
    assert fd_mismatch(np.sin(grid), np.cos(grid) + 0.1, h) > 1e-2


@pytest.mark.parametrize("periodic", [False, True])
def test_sampled_model_holds_its_samples(periodic):
    n = 256
    ts = np.arange(n) * (TWO_PI / n) if periodic else np.linspace(0.0, 3.0, n)
    pts = np.stack((2.0 * np.cos(ts), np.sin(ts)), axis=-1)
    c = build_sampled(ts, pts, periodic=periodic)
    d1g, d2g = fd_chain(pts, ts[1] - ts[0], periodic)
    for name, want in (("position", pts), ("d1", d1g), ("d2", d2g)):
        got = c.on_grid(name)
        assert np.array_equal(got, want)
        with pytest.raises(ValueError):
            got[0, 0] = 1.0  # read-only
    pts[0, 0] = 7.0  # the model copied its input
    assert c.on_grid("position")[0, 0] == 2.0
    nus = np.stack((np.cos(ts), 2.0 * np.sin(ts)), axis=-1)
    nus /= np.linalg.norm(nus, axis=-1)[:, None]
    lc = frontal_from_samples(c, nus)
    nus /= np.linalg.norm(nus, axis=-1)[:, None]  # frontal_from_samples normalizes once more
    assert np.array_equal(lc.on_grid("nu"), nus)
    assert np.array_equal(lc.on_grid("nu_d1"), fd_d1(nus, ts[1] - ts[0], periodic))
    assert not lc.on_grid("nu").flags.writeable


def test_sampled_model_interpolates_off_grid():
    # The local quintic's error is O(h^6) on the positions (h = 0.024 here);
    # the velocity samples carry the O(h^4) error of the difference scheme,
    # 6.2e-8 at worst on this grid.
    ts = np.linspace(0.0, 3.0, 128)
    pts = np.stack((ts**2, np.sin(ts)), axis=-1)
    c = build_sampled(ts, pts)
    off = ts[:-1] + 0.37 * (ts[1] - ts[0])
    assert np.max(np.abs(c.position(off) - np.stack((off**2, np.sin(off)), axis=-1))) <= 2e-12
    assert np.max(np.abs(c.d1(off) - np.stack((2.0 * off, np.cos(off)), axis=-1))) <= 5e-8
    assert np.array_equal(c.position(ts), pts)


def test_analytic_model_samples_its_callables():
    ellipse = build_builtin(BuiltinSpec("ellipse", {"a": 2.0, "b": 1.0}, closed_interval(512)))
    grid = ellipse.interval.grid
    for name in ("position", "d1", "d2"):
        assert np.array_equal(ellipse.on_grid(name), getattr(ellipse, name)(grid))
    assert ellipse.on_grid("d1") is ellipse.on_grid("d1")  # evaluated once


def test_builtin_evaluates_its_grid_once(monkeypatch):
    # Position, d1 and the d2 that from_regular reads share one cos and one
    # sin of the grid, and the callables of t are not called on it.
    interval = closed_interval(512)
    calls = grid_trig_counter(monkeypatch, interval.n_samples)
    c = build_builtin(BuiltinSpec("ellipse", {"a": 2.0, "b": 1.0}, interval))
    for name in ("position", "d1", "d2"):
        monkeypatch.setattr(c, name, None)
    legendre_curvature(from_regular(c))
    c.on_grid("position")
    assert (calls["cos"], calls["sin"], calls["tan"]) == (1, 1, 0)


def test_interval_grid_is_built_once_and_read_only():
    for periodic in (False, True):
        interval = ParamInterval(0.5, 3.0, 64, periodic)
        grid = interval.grid
        assert interval.grid is grid and not grid.flags.writeable
        step = (3.0 - 0.5) / (64 if periodic else 63)
        want = 0.5 + np.arange(64) * step if periodic else np.linspace(0.5, 3.0, 64)
        assert np.array_equal(grid, want)
        c, s = interval.cos_sin
        assert interval.cos_sin[0] is c and np.array_equal(c, np.cos(want)) and np.array_equal(s, np.sin(want))
        with pytest.raises(ValueError):
            grid[0] = 0.0


def _closed_forms(name, t):
    """(position, d1, d2) of the builtins with the test's parameters, and
    (nu, nu') of circle and astroid, as numpy expressions of t, in the order
    of operations the samples keep."""
    cos, sin, xy = np.cos, np.sin, lambda x, y: np.stack((x, y), axis=-1)
    cube = lambda x: x * x * x  # the builtin cubes by multiplication
    r = a = 1.3
    return {
        "line": (xy(0.0 + 2.0 * t, 0.0 + -1.0 * t), xy(np.full_like(t, 2.0), np.full_like(t, -1.0)),
                 xy(np.zeros_like(t), np.zeros_like(t))),
        "circle": (xy(0.3 + r * cos(t), 0.0 + r * sin(t)), xy(-r * sin(t), r * cos(t)), xy(-r * cos(t), -r * sin(t)),
                   xy(cos(t), sin(t)), xy(-sin(t), cos(t))),
        "ellipse": (xy(0.0 + 2.0 * cos(t), 0.0 + 0.7 * sin(t)), xy(-2.0 * sin(t), 0.7 * cos(t)),
                    xy(-2.0 * cos(t), -0.7 * sin(t))),
        "astroid": (xy(a * cube(cos(t)), a * cube(sin(t))), xy(-3 * a * cos(t) ** 2 * sin(t), 3 * a * sin(t) ** 2 * cos(t)),
                    xy(-3 * a * (cube(cos(t)) - 2 * cos(t) * sin(t) ** 2), 3 * a * (2 * sin(t) * cos(t) ** 2 - cube(sin(t)))),
                    xy(sin(t), cos(t)), xy(cos(t), -sin(t))),
    }[name]


@pytest.mark.parametrize("name, params", [("line", {"dx": 2.0, "dy": -1.0}), ("circle", {"r": 1.3, "cx": 0.3}),
                                          ("ellipse", {"a": 2.0, "b": 0.7}), ("astroid", {"a": 1.3})])
def test_builtin_grid_samples_equal_its_callables(name, params):
    # Bit for bit: on the grid, between its samples and at one time; the
    # table's normal and nu' of circle and astroid too.
    lc = builtin_frontal(BuiltinSpec(name, params, ParamInterval(0.0, TWO_PI, 256, periodic=name != "line")))
    grid = lc.interval.grid
    fields = [(lc.gamma, "position"), (lc.gamma, "d1"), (lc.gamma, "d2"), (lc, "nu"), (lc, "nu_d1")]
    forms = _closed_forms(name, grid)
    assert len(forms) == (5 if name in ("circle", "astroid") else 3)
    for (c, field), on_grid, off_grid in zip(fields, forms, _closed_forms(name, grid + 0.3)):
        assert np.array_equal(c.on_grid(field), on_grid)
        assert np.array_equal(getattr(c, field)(grid + 0.3), off_grid)
        assert np.array_equal(getattr(c, field)(float(grid[7])), on_grid[7])


def test_sampled_model_differences_d2_on_first_read(monkeypatch):
    ts = np.arange(256) * (TWO_PI / 256)
    pts = np.stack((2.0 * np.cos(ts), np.sin(ts)), axis=-1)
    differenced = Counter()
    monkeypatch.setattr(curves, "fd_d1", lambda f, *args, _f=fd_d1: differenced.update([len(f)]) or _f(f, *args))
    c = build_sampled(ts, pts, periodic=True)
    assert differenced == {256: 1}
    off = ts[:3] + 0.5 * (ts[1] - ts[0])
    d2 = c.d2(off)
    assert differenced == {256: 2} and c.on_grid("d2") is c.on_grid("d2")
    assert np.array_equal(d2, quintic_fn(ts, fd_chain(pts, ts[1] - ts[0], True)[1], True, TWO_PI)(off))
