import math
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipe

from frontals import curves
from frontals.curves import (
    BuiltinSpec,
    CurveModel,
    ParamInterval,
    SingularCurveError,
    build_builtin,
    build_sampled,
    cumulative_integral,
    fd_mismatch,
    fd_chain,
    fd_d1,
    regular_curvature,
)
from frontals.legendre import from_regular, frontal_from_samples, legendre_curvature
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


def test_regular_curvature_values():
    circle = build_builtin(BuiltinSpec("circle", {"r": 2.0}, closed_interval()))
    assert np.allclose(regular_curvature(circle, [0.0, 1.0, 4.0]), 0.5)
    line = build_builtin(BuiltinSpec("line", {"dy": 2.0}, ParamInterval(0.0, 1.0, 64)))
    assert np.allclose(regular_curvature(line, 0.5), 0.0)
    ellipse = build_builtin(BuiltinSpec("ellipse", {"a": 2.0, "b": 1.0}, closed_interval()))
    # ab / (a^2 sin^2 + b^2 cos^2)^(3/2) at t=0 gives 2
    assert abs(regular_curvature(ellipse, 0.0) - 2.0) <= 1e-12


def test_regular_curvature_rejects_singular_point():
    ast = build_builtin(BuiltinSpec("astroid", {}, closed_interval()))
    with pytest.raises(SingularCurveError):
        regular_curvature(ast, 0.0)


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
    k1 = regular_curvature(slow, slow.interval.grid)
    k2 = regular_curvature(fast, fast.interval.grid)
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
    # The overflow check's position and d1 samples seed the model.
    interval = closed_interval(512)
    calls = Counter()
    builtin_callables = curves._builtin_callables

    def counted(name, params):
        def count(field, fn):
            def f(t):
                calls[field] += np.shape(t) == (interval.n_samples,)
                return fn(t)
            return f

        return tuple(count(field, fn) for field, fn in zip(("position", "d1", "d2"), builtin_callables(name, params)))

    monkeypatch.setattr(curves, "_builtin_callables", counted)
    c = build_builtin(BuiltinSpec("ellipse", {"a": 2.0, "b": 1.0}, interval))
    legendre_curvature(from_regular(c))
    c.on_grid("position")
    assert calls == {"position": 1, "d1": 1, "d2": 1}
