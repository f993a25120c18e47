import math

import numpy as np
import pytest

from frontals.curves import (
    BuiltinSpec,
    CurveModel,
    ParamInterval,
    SingularCurveError,
    arclength_reparametrize,
    build_builtin,
    build_sampled,
    check_fn_consistency,
    fd_chain,
    fd_d1,
    regular_curvature,
)
from frontals.legendre import frontal_from_samples
from frontals.planar import linear_fn
from scipy.interpolate import CubicSpline

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


def test_arclength_circle():
    c = build_builtin(BuiltinSpec("circle", {"r": 2.0}, closed_interval()))
    cs = arclength_reparametrize(c)
    assert abs(cs.interval.length - 4.0 * math.pi) <= 1e-8 * 4.0 * math.pi
    ss = cs.interval.grid
    assert np.max(np.abs(np.linalg.norm(cs.d1(ss), axis=-1) - 1.0)) <= 1e-6


def test_arclength_unit_speed_line_unchanged():
    c = build_builtin(BuiltinSpec("line", {}, ParamInterval(0.0, 5.0, 64)))
    cs = arclength_reparametrize(c)
    ss = cs.interval.grid
    assert np.max(np.linalg.norm(cs.position(ss) - c.position(ss), axis=-1)) <= 1e-10


def test_arclength_idempotent():
    c = build_builtin(BuiltinSpec("ellipse", {"a": 2.0, "b": 1.0}, closed_interval()))
    cs = arclength_reparametrize(c)
    cs2 = arclength_reparametrize(cs)
    assert abs(cs2.interval.length - cs.interval.length) <= 1e-8 * cs.interval.length
    ss = cs.interval.grid
    assert np.max(np.linalg.norm(cs2.position(ss) - cs.position(ss), axis=-1)) <= 1e-8


def test_arclength_rejects_singular_curve():
    ast = build_builtin(BuiltinSpec("astroid", {}, closed_interval()))
    with pytest.raises(SingularCurveError):
        arclength_reparametrize(ast)


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
    good = linear_fn(0.3, 2.0)
    assert check_fn_consistency(good, grid) <= 1e-10
    from frontals.planar import ScalarFn

    bad = ScalarFn(eval=lambda t: np.sin(np.asarray(t)), deriv=lambda t: np.cos(np.asarray(t)) + 0.1)
    assert check_fn_consistency(bad, grid) > 1e-2


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
    ts = np.linspace(0.0, 3.0, 128)
    pts = np.stack((ts**2, np.sin(ts)), axis=-1)
    c = build_sampled(ts, pts)
    d1g, _ = fd_chain(pts, ts[1] - ts[0], False)
    off = ts[:-1] + 0.37 * (ts[1] - ts[0])
    assert np.array_equal(c.d1(off), CubicSpline(ts, d1g)(off))
    assert np.array_equal(c.position(off), CubicSpline(ts, pts)(off))


def test_analytic_model_samples_its_callables():
    ellipse = build_builtin(BuiltinSpec("ellipse", {"a": 2.0, "b": 1.0}, closed_interval(512)))
    grid = ellipse.interval.grid
    for name in ("position", "d1", "d2"):
        assert np.array_equal(ellipse.on_grid(name), getattr(ellipse, name)(grid))
    assert ellipse.on_grid("d1") is ellipse.on_grid("d1")  # evaluated once
