import math

import numpy as np
import pytest

from frontals import curves, legendre
from frontals.curves import BuiltinSpec, ParamInterval, SingularCurveError, build_builtin
from frontals.legendre import (
    CurvaturePair,
    TangencyError,
    _candidate_cells,
    astroid_frontal,
    check_ell_kappa_relation,
    circle_frontal,
    classify_point,
    classify_singularities,
    from_regular,
    frontal_from_normal,
    inflection_points,
    legendre_curvature,
    negate_normal,
    to_regular_frames,
    CUSP_3_2,
    CUSP_4_3,
    CUSP_5_2,
    CUSP_5_3,
    INCONCLUSIVE,
    REGULAR,
)
from frontals.planar import rotate_j

TWO_PI = 2.0 * math.pi


def synthetic_pair(ell_fn, beta_fn, t0=-1.0, t1=1.0, n=1024):
    grid = np.linspace(t0, t1, n)
    return CurvaturePair.from_samples(grid, ell_fn(grid), beta_fn(grid), periodic=False)


def periodic_pair(ell_fn, beta_fn, n=1024):
    grid = np.arange(n) * (TWO_PI / n)
    return CurvaturePair.from_samples(grid, ell_fn(grid), beta_fn(grid), periodic=True)


def test_circle_curvature_pair():
    pair = legendre_curvature(circle_frontal(2.0))
    assert np.max(np.abs(pair.ell - 1.0)) <= 1e-12
    assert np.max(np.abs(pair.beta - 2.0)) <= 1e-12


def test_astroid_curvature_pair():
    pair = legendre_curvature(astroid_frontal())
    t = pair.grid
    assert np.max(np.abs(pair.ell + 1.0)) <= 1e-12
    assert np.max(np.abs(pair.beta - 3.0 * np.cos(t) * np.sin(t))) <= 1e-12


def test_negated_normal_flips_beta():
    lc = circle_frontal(1.5)
    pair = legendre_curvature(lc)
    flipped = legendre_curvature(negate_normal(lc))
    assert np.max(np.abs(flipped.ell - pair.ell)) <= 1e-12
    assert np.max(np.abs(flipped.beta + pair.beta)) <= 1e-12


def test_tangency_violation_rejected():
    circle = build_builtin(BuiltinSpec("circle", {"r": 1.0}, ParamInterval(0.0, TWO_PI, 512, periodic=True)))

    def skew_nu(t):
        t = np.asarray(t, dtype=float)
        a = t + 0.3  # constant twist away from the true normal
        return np.stack((np.cos(a), np.sin(a)), axis=-1)

    lc = frontal_from_normal(circle, skew_nu(circle.interval.grid))
    with pytest.raises(TangencyError):
        legendre_curvature(lc)


def test_from_regular_unit_circle():
    # unit-speed circle: (ell, beta) = (1, -1)
    circle = build_builtin(BuiltinSpec("circle", {"r": 1.0}, ParamInterval(0.0, TWO_PI, 1024, periodic=True)))
    pair = legendre_curvature(from_regular(circle))
    assert np.max(np.abs(pair.ell - 1.0)) <= 1e-12
    assert np.max(np.abs(pair.beta + 1.0)) <= 1e-12


def test_from_regular_speed_two_circle():
    # radius 2 with parameter speed 2: (ell, beta) = (1, -2)
    circle = build_builtin(BuiltinSpec("circle", {"r": 2.0}, ParamInterval(0.0, TWO_PI, 1024, periodic=True)))
    pair = legendre_curvature(from_regular(circle))
    assert np.max(np.abs(pair.ell - 1.0)) <= 1e-12
    assert np.max(np.abs(pair.beta + 2.0)) <= 1e-12


def test_from_regular_line():
    line = build_builtin(BuiltinSpec("line", {}, ParamInterval(0.0, 3.0, 64)))
    pair = legendre_curvature(from_regular(line))
    assert np.max(np.abs(pair.ell)) <= 1e-12
    assert np.max(np.abs(pair.beta + 1.0)) <= 1e-12


def test_from_regular_rejects_singular():
    ast = build_builtin(BuiltinSpec("astroid", {}, ParamInterval(0.0, TWO_PI, 512, periodic=True)))
    with pytest.raises(SingularCurveError):
        from_regular(ast)


def test_from_regular_normal_derivatives_consistent():
    ellipse = build_builtin(BuiltinSpec("ellipse", {"a": 2.0, "b": 1.0}, ParamInterval(0.0, TWO_PI, 1024, periodic=True)))
    lc = from_regular(ellipse)
    ts = lc.interval.grid
    h = lc.interval.step
    from frontals.curves import fd_d1

    fd1 = fd_d1(lc.nu(ts), h, periodic=True)
    assert np.max(np.abs(fd1 - lc.nu_d1(ts))) <= 1e-6


def test_frenet_closure():
    for lc in (circle_frontal(1.0), astroid_frontal()):
        pair = legendre_curvature(lc)
        ts = pair.grid
        mu = rotate_j(lc.nu(ts))
        assert np.max(np.linalg.norm(lc.nu_d1(ts) - pair.ell[:, None] * mu, axis=-1)) <= 1e-6
        # mu' = -ell nu, via the differenced normal derivative rotated
        mu_d1 = rotate_j(lc.nu_d1(ts))
        assert np.max(np.linalg.norm(mu_d1 + pair.ell[:, None] * lc.nu(ts), axis=-1)) <= 1e-6


def test_ell_kappa_relation_circle():
    lc = circle_frontal(2.0)
    rep = check_ell_kappa_relation(lc, legendre_curvature(lc))
    assert rep.passed and rep.max_residual <= 1e-8


def test_ell_kappa_relation_astroid():
    lc = astroid_frontal()
    rep = check_ell_kappa_relation(lc, legendre_curvature(lc))
    assert rep.passed and rep.max_residual <= 1e-6


def test_ell_kappa_needs_regular_points():
    pair_zero = synthetic_pair(lambda t: np.ones_like(t), lambda t: np.zeros_like(t))
    lc = circle_frontal(1.0)
    # direct call on a pair with beta identically zero
    with pytest.raises(SingularCurveError):
        check_ell_kappa_relation(lc, pair_zero)


def test_astroid_cusp_scan():
    pair = legendre_curvature(astroid_frontal())
    reports = classify_singularities(pair)
    assert len(reports) == 4
    assert all(r.kind == CUSP_3_2 for r in reports)
    expected = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    found = np.array([r.t0 for r in reports])
    # circular distance on the periodic parameter
    diffs = np.abs((found - expected + math.pi) % TWO_PI - math.pi)
    assert np.max(diffs) <= 1e-6


def test_circle_has_no_singularities():
    pair = legendre_curvature(circle_frontal(1.0))
    assert classify_singularities(pair) == []
    assert classify_point(pair, 1.234).kind == REGULAR


def test_synthetic_5_3_cusp():
    # beta = t^2, ell = t at 0: beta = beta' = ell = 0, beta'' != 0, ell' != 0
    pair = synthetic_pair(lambda t: t, lambda t: t**2)
    reports = classify_singularities(pair)
    assert len(reports) == 1
    assert abs(reports[0].t0) <= 1e-9
    assert reports[0].kind == CUSP_5_3


def test_synthetic_4_3_cusp():
    # beta = t^2, ell = 1: beta = beta' = 0, beta'' != 0, ell != 0
    pair = synthetic_pair(lambda t: np.ones_like(t), lambda t: t**2)
    reports = classify_singularities(pair)
    assert len(reports) == 1
    assert reports[0].kind == CUSP_4_3


def test_synthetic_5_2_cusp():
    # beta = t, ell = t + t^2: beta = ell = 0, beta' != 0,
    # ell'' beta' - ell' beta'' = 2 != 0
    pair = synthetic_pair(lambda t: t + t**2, lambda t: t)
    reports = classify_singularities(pair)
    assert len(reports) == 1
    assert reports[0].kind == CUSP_5_2


def test_synthetic_inconclusive():
    # beta = t^3: beta = beta' = beta'' = 0 at the zero; no criterion fires
    pair = synthetic_pair(lambda t: np.ones_like(t), lambda t: t**3)
    reports = classify_singularities(pair)
    assert len(reports) == 1
    assert reports[0].kind == INCONCLUSIVE


def candidate_cells_loop(beta, below, periodic):
    """Per-sample loops equivalent to _candidate_cells, as its reference."""
    n = len(beta)
    crossings = [
        i for i in range(n if periodic else n - 1)
        if not (below[i] or below[(i + 1) % n]) and beta[i] * beta[(i + 1) % n] < 0
    ]
    minima = []
    for i in range(n):
        if below[i]:
            continue
        left = beta[(i - 1) % n] if (periodic or i > 0) else None
        right = beta[(i + 1) % n] if (periodic or i < n - 1) else None
        left_ok = left is None or abs(beta[i]) < abs(left)
        right_ok = right is None or abs(beta[i]) <= abs(right)
        if left_ok and right_ok:
            minima.append(i)
    return crossings, minima


@pytest.mark.parametrize("periodic", [False, True])
def test_candidate_cells_match_loop_reference(periodic):
    # small integers make ties, sub-threshold samples and sign changes common,
    # at the seam and endpoints too
    for seed in range(200):
        beta = np.random.default_rng(seed).integers(-3, 4, size=16).astype(float)
        below = np.abs(beta) <= 0.5
        crossings, minima = _candidate_cells(beta, below, periodic)
        assert (crossings.tolist(), minima.tolist()) == candidate_cells_loop(beta, below, periodic)


def test_sign_change_across_periodic_seam():
    # beta = sin(t - phi) vanishes half a cell before 2 pi, between the last
    # sample and the first; the other zero lies half a cell before pi.
    h = TWO_PI / 1024
    phi = TWO_PI - h / 2
    pair = periodic_pair(lambda t: np.ones_like(t), lambda t: np.sin(t - phi))
    reports = classify_singularities(pair)
    assert [r.kind for r in reports] == [CUSP_3_2, CUSP_3_2]
    assert np.allclose([r.t0 for r in reports], [math.pi - h / 2, TWO_PI - h / 2], rtol=0.0, atol=1e-9)


def test_beta_zero_on_a_grid_sample():
    # 1025 samples on [-1, 1] put t = 0 exactly on sample 512
    pair = synthetic_pair(lambda t: np.ones_like(t), lambda t: t, n=1025)
    assert pair.beta[512] == 0.0
    reports = classify_singularities(pair)
    assert len(reports) == 1
    assert reports[0].t0 == 0.0 and reports[0].kind == CUSP_3_2


def test_equal_neighbouring_minima_give_one_candidate(monkeypatch):
    # |beta| takes the same value on samples 511 and 512, either side of its
    # zero; the tie-break flags only one of them for refinement.
    n = 1024
    grid = np.linspace(-1.0, 1.0, n)
    beta = ((np.arange(n) - (n - 1) / 2) * (grid[1] - grid[0])) ** 2
    assert beta[511] == beta[512]
    pair = CurvaturePair.from_samples(grid, np.ones(n), beta, periodic=False)
    solves = []
    minimize = legendre.minimize_scalar
    monkeypatch.setattr(legendre, "minimize_scalar", lambda *a, **k: solves.append(a) or minimize(*a, **k))
    reports = classify_singularities(pair)
    assert len(solves) == 1
    assert len(reports) == 1
    assert abs(reports[0].t0) <= 1e-9 and reports[0].kind == CUSP_4_3


def test_inflection_on_grid_samples():
    # ell = t has an exact zero on sample 512 of 1025, ell = t - 1 on the
    # last sample of the open grid
    pair = synthetic_pair(lambda t: t, lambda t: np.ones_like(t), n=1025)
    assert pair.ell[512] == 0.0
    assert inflection_points(pair).tolist() == [0.0]
    pair = synthetic_pair(lambda t: t - 1.0, lambda t: np.ones_like(t), n=1025)
    assert inflection_points(pair).tolist() == [1.0]


def test_inflection_across_periodic_seam():
    h = TWO_PI / 1024
    pair = periodic_pair(lambda t: np.sin(t - (TWO_PI - h / 2)), lambda t: np.ones_like(t))
    assert np.allclose(inflection_points(pair), [math.pi - h / 2, TWO_PI - h / 2], rtol=0.0, atol=1e-9)


def test_scan_builds_each_spline_once(monkeypatch):
    pair = legendre_curvature(astroid_frontal())
    builds = []
    for module in (curves, legendre):
        spline = module.CubicSpline
        monkeypatch.setattr(module, "CubicSpline", lambda *a, _s=spline, **k: builds.append(a) or _s(*a, **k))
    first = classify_singularities(pair), inflection_points(pair)
    assert 0 < len(builds) <= 6
    builds.clear()
    second = classify_singularities(pair), inflection_points(pair)
    assert builds == []
    assert [r.t0 for r in first[0]] == [r.t0 for r in second[0]]
    assert np.array_equal(first[1], second[1])


def test_inflection_points():
    assert len(inflection_points(legendre_curvature(circle_frontal(1.0)))) == 0
    assert len(inflection_points(legendre_curvature(astroid_frontal()))) == 0
    pair = synthetic_pair(lambda t: t, lambda t: np.ones_like(t))
    zeros = inflection_points(pair)
    assert len(zeros) == 1 and abs(zeros[0]) <= 1e-10


def test_to_regular_frames_circle():
    lc = circle_frontal(1.0)
    frames = to_regular_frames(lc)
    t = frames.grid
    assert frames.sign_beta == 1
    # beta > 0: tangent = mu; the Frenet normal is its quarter turn
    assert np.max(np.linalg.norm(frames.tangent - np.stack((-np.sin(t), np.cos(t)), axis=-1), axis=-1)) <= 1e-12
    assert np.max(np.linalg.norm(frames.normal - rotate_j(frames.tangent), axis=-1)) <= 1e-12
    # cross-check against the actual unit velocity of gamma
    g1 = lc.gamma.d1(t)
    unit = g1 / np.linalg.norm(g1, axis=-1)[:, None]
    assert np.max(np.linalg.norm(frames.tangent - unit, axis=-1)) <= 1e-12


def test_to_regular_frames_negated_circle():
    # flipping the normal field flips beta but not the recovered frame
    base = to_regular_frames(circle_frontal(1.0))
    frames = to_regular_frames(negate_normal(circle_frontal(1.0)))
    assert frames.sign_beta == -1
    assert np.max(np.linalg.norm(frames.tangent - base.tangent, axis=-1)) <= 1e-12
    assert np.max(np.linalg.norm(frames.normal - base.normal, axis=-1)) <= 1e-12


def test_to_regular_frames_astroid_quadrant():
    lc = astroid_frontal()
    frames = to_regular_frames(lc, t0=0.3, t1=1.2)
    assert frames.sign_beta == 1
    with pytest.raises(SingularCurveError):
        to_regular_frames(lc)  # full interval contains cusps


def test_frames_recover_from_regular_lift():
    ellipse = build_builtin(BuiltinSpec("ellipse", {"a": 2.0, "b": 1.0}, ParamInterval(0.0, TWO_PI, 1024, periodic=True)))
    lc = from_regular(ellipse)
    frames = to_regular_frames(lc)
    ts = frames.grid
    g1 = ellipse.d1(ts)
    tangent = g1 / np.linalg.norm(g1, axis=-1)[:, None]
    assert np.max(np.linalg.norm(frames.tangent - tangent, axis=-1)) <= 1e-6
    assert np.max(np.linalg.norm(frames.normal - rotate_j(tangent), axis=-1)) <= 1e-6


def test_degenerate_pair_has_no_events():
    grid = np.arange(256) * (TWO_PI / 256)
    pair = CurvaturePair.from_samples(grid, np.ones_like(grid), np.zeros_like(grid), True)
    assert pair.degenerate
    assert classify_singularities(pair) == []
    assert not legendre_curvature(astroid_frontal()).degenerate
