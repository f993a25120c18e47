import math

import numpy as np
import pytest

from frontals import curves, legendre
from frontals.curves import BuiltinSpec, ParamInterval, SingularCurveError, build_builtin, build_sampled
from frontals.legendre import (
    CurvaturePair,
    LegendreCurve,
    TangencyError,
    _candidate_cells,
    astroid_frontal,
    check_ell_kappa_relation,
    circle_frontal,
    classify_singularities,
    from_regular,
    frontal_from_normal,
    frontal_from_samples,
    inflection_points,
    legendre_curvature,
    regular_arcs,
    subinterval_mask,
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


def negated(lc):
    """The companion pair (gamma, -nu), seeded with lc's grid samples negated."""
    return LegendreCurve(lc.gamma, lambda t: -lc.nu(t), lambda t: -lc.nu_d1(t), lc.interval)._seed(
        nu=-lc.on_grid("nu"), nu_d1=-lc.on_grid("nu_d1"))


def frenet_frame(lc, t0=None, t1=None):
    """(grid, tangent, normal, sign of beta) on a regular subinterval of lc:
    gamma' = beta mu pins tangent = sign(beta) mu, and its quarter turn is
    normal = -sign(beta) nu."""
    pair = legendre_curvature(lc)
    mask = subinterval_mask(pair.grid, regular_arcs(pair), t0, t1)
    sign = int(np.sign(pair.beta[mask][0]))
    nu = lc.on_grid("nu")[mask]
    return pair.grid[mask], sign * rotate_j(nu), -sign * nu, sign


def test_negated_normal_flips_beta():
    lc = circle_frontal(1.5)
    pair = legendre_curvature(lc)
    flipped = legendre_curvature(negated(lc))
    assert np.max(np.abs(flipped.ell - pair.ell)) <= 1e-12
    assert np.max(np.abs(flipped.beta + pair.beta)) <= 1e-12


def test_negated_sampled_normal_flips_beta_bit_for_bit():
    # Negation is exact and the differencing stencil is odd in its values,
    # so ingesting -nu gives (ell, -beta) with the same bits.
    ts = np.arange(512) * (TWO_PI / 512)
    gamma = build_sampled(ts, np.stack((np.cos(ts) ** 3, np.sin(ts) ** 3), axis=-1), periodic=True)
    normals = np.stack((np.sin(ts), np.cos(ts)), axis=-1)
    pair = legendre_curvature(frontal_from_samples(gamma, normals))
    flipped = legendre_curvature(frontal_from_samples(gamma, -normals))
    assert np.array_equal(flipped.ell, pair.ell)
    assert np.array_equal(flipped.beta, -pair.beta)


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
    with pytest.raises(SingularCurveError, match=r"^curve is singular near t = 0 \(\|d1\| = 0 <= "):
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
    assert reports[0].t0 == 0.0  # beta is exactly 0 on sample 0


def test_circle_has_no_singularities():
    pair = legendre_curvature(circle_frontal(1.0))
    assert classify_singularities(pair) == []
    [w] = legendre._witnesses(pair, [1.234])
    assert legendre._classify_witness(w, legendre._scales(pair)) == REGULAR


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


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("c", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_odd_zero_located_to_root_solver_precision(c, periodic):
    # beta = sin(t - c) has simple zeros at c (and c + pi on the periodic
    # grid); a sample next to each is also a local minimum of |beta|, and
    # every cusp must still sit at the root, not at a minimizer's stop.
    make = periodic_pair if periodic else synthetic_pair
    pair = make(lambda t: np.ones_like(t), lambda t: np.sin(t - c))
    reports = classify_singularities(pair)
    want = [c, c + math.pi] if periodic else [c]
    assert [r.kind for r in reports] == [CUSP_3_2] * len(want)
    assert np.max(np.abs(np.array([r.t0 for r in reports]) - want)) <= 1e-10


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("c", [0.05, 0.2, 0.35, 0.5, 0.65, 0.8])
def test_double_zero_on_coarse_grid_is_4_3(c, periodic):
    # beta = sin^2(t - c) has double zeros at c (and c + pi on the periodic
    # grid) with ell != 0 there.  At n = 128 the witness beta' must come from
    # the interpolant the zero was found on, so it reads about 0 at the zero.
    make = periodic_pair if periodic else synthetic_pair
    pair = make(lambda t: 1.0 + 0.3 * np.cos(t - c), lambda t: np.sin(t - c) ** 2, n=128)
    want = [c, c + math.pi] if periodic else [c]
    assert [r.kind for r in classify_singularities(pair)] == [CUSP_4_3] * len(want)


@pytest.mark.parametrize("seed", range(3))
def test_unit_roots_match_np_roots(seed):
    # seeded columns of degree 5 down to 1, their higher coefficients exactly 0
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=(6, 500))
    degree = 5 - np.arange(500) % 5
    coef[np.arange(6)[:, None] > degree] = 0.0
    roots = legendre._unit_roots(coef)
    assert roots.shape == (5, 500)
    found = 0
    for col, d in enumerate(degree):
        want = np.roots(coef[d::-1, col])
        want = np.sort(want.real[(want.imag == 0) & (want.real >= 0) & (want.real <= 1)])
        got = np.sort(roots[:, col][~np.isnan(roots[:, col])])
        assert len(got) == len(want)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        found += len(got)
    assert found >= 100


@pytest.mark.parametrize("beta_fn, zeros", [
    (lambda t: 2.0 * (t - 0.3217), [0.3217]),
    (lambda t: (t + 0.61) * (t - 0.55), [-0.61, 0.55]),
    (lambda t: (t + 0.3) * (t - 0.123) * (t - 0.77), [-0.3, 0.123, 0.77]),
], ids=["linear", "quadratic", "cubic"])
def test_polynomial_beta_located_exactly(beta_fn, zeros):
    # every zero lies between samples, and the cell's quintic is beta itself
    pair = synthetic_pair(lambda t: np.ones_like(t), beta_fn)
    assert np.min(np.abs(pair.grid[:, None] - zeros)) > 0.01 * pair.step
    reports = classify_singularities(pair)
    assert [r.kind for r in reports] == [CUSP_3_2] * len(zeros)
    assert np.max(np.abs(np.array([r.t0 for r in reports]) - zeros)) <= 1e-12


@pytest.mark.parametrize("beta_fn, zeros", [
    (lambda t: (t - 0.05) ** 3, [0.05]),
    (lambda t: (t - 0.05) ** 3 - 1e-8 * (t - 0.05), [0.0499, 0.05, 0.0501]),
], ids=["triple-zero", "three-close-zeros"])
def test_flagged_run_without_exact_zero_is_one_event(beta_fn, zeros):
    # one event, at one of the run's zeros: a cluster of zeros is located
    # only to about the cube root of the rounding in its quintic
    pair = synthetic_pair(lambda t: np.ones_like(t), beta_fn)
    flagged = np.flatnonzero(np.abs(pair.beta) <= pair.sing_tol)
    assert len(flagged) >= 5 and np.all(np.diff(flagged) == 1) and np.all(pair.beta != 0.0)
    [report] = classify_singularities(pair)
    assert np.min(np.abs(report.t0 - np.array(zeros))) <= 1e-6


def test_equal_neighbouring_minima_give_one_candidate(monkeypatch):
    # |beta| takes the same value on samples 511 and 512, either side of its
    # zero; the tie-break flags only one of them for refinement.
    n = 1024
    grid = np.linspace(-1.0, 1.0, n)
    beta = ((np.arange(n) - (n - 1) / 2) * (grid[1] - grid[0])) ** 2
    assert beta[511] == beta[512]
    pair = CurvaturePair.from_samples(grid, np.ones(n), beta, periodic=False)
    brackets = []
    monkeypatch.setattr(legendre, "_candidate_cells",
                        lambda *a, _f=_candidate_cells: brackets.append(_f(*a)[1].tolist()) or _f(*a))
    reports = classify_singularities(pair)
    assert brackets == [[511]]
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


def test_run_of_exact_ell_zeros_is_one_inflection():
    # ell = max(t, 0) is exactly 0 on samples 0..50: one event, at the run's middle sample
    pair = synthetic_pair(lambda t: np.maximum(t, 0.0), lambda t: np.ones_like(t), n=101)
    assert inflection_points(pair).tolist() == [-0.5]


def test_run_of_exact_ell_zeros_across_periodic_seam():
    # samples 63 and 0 form one run of exact zeros across the seam; sin t adds a zero near pi
    pair = periodic_pair(np.sin, lambda t: np.ones_like(t), n=64)
    ell = pair.ell.copy()
    ell[0] = ell[-1] = 0.0
    pair = CurvaturePair.from_samples(pair.grid, ell, pair.beta, periodic=True)
    zeros = inflection_points(pair)
    assert len(zeros) == 2
    assert abs(zeros[0] - math.pi) <= 1e-6 and zeros[1] == pair.grid[63]


def test_inflection_is_not_rounded():
    # a zero near t = 0 keeps its significant digits
    c = 1.2345678912e-6
    [zero] = inflection_points(synthetic_pair(lambda t: t - c, lambda t: np.ones_like(t)))
    assert abs(zero - c) <= 1e-14


def test_repeat_scan_gives_the_same_events():
    pair = legendre_curvature(astroid_frontal())
    first = classify_singularities(pair), inflection_points(pair)
    second = classify_singularities(pair), inflection_points(pair)
    assert [r.t0 for r in first[0]] == [r.t0 for r in second[0]]
    assert np.array_equal(first[1], second[1])


def test_inflection_points():
    assert len(inflection_points(legendre_curvature(circle_frontal(1.0)))) == 0
    assert len(inflection_points(legendre_curvature(astroid_frontal()))) == 0
    pair = synthetic_pair(lambda t: t, lambda t: np.ones_like(t))
    zeros = inflection_points(pair)
    assert len(zeros) == 1 and abs(zeros[0]) <= 1e-10


def test_frenet_frame_circle():
    lc = circle_frontal(1.0)
    t, tangent, normal, sign = frenet_frame(lc)
    assert sign == 1
    # beta > 0: tangent = mu; the Frenet normal is its quarter turn
    assert np.max(np.linalg.norm(tangent - np.stack((-np.sin(t), np.cos(t)), axis=-1), axis=-1)) <= 1e-12
    assert np.max(np.linalg.norm(normal - rotate_j(tangent), axis=-1)) <= 1e-12
    # cross-check against the actual unit velocity of gamma
    g1 = lc.gamma.d1(t)
    unit = g1 / np.linalg.norm(g1, axis=-1)[:, None]
    assert np.max(np.linalg.norm(tangent - unit, axis=-1)) <= 1e-12


def test_frenet_frame_negated_circle():
    # flipping the normal field flips beta but not the recovered frame
    _, base_tangent, base_normal, _ = frenet_frame(circle_frontal(1.0))
    _, tangent, normal, sign = frenet_frame(negated(circle_frontal(1.0)))
    assert sign == -1
    assert np.max(np.linalg.norm(tangent - base_tangent, axis=-1)) <= 1e-12
    assert np.max(np.linalg.norm(normal - base_normal, axis=-1)) <= 1e-12


def test_frenet_frame_astroid_quadrant():
    lc = astroid_frontal()
    assert frenet_frame(lc, t0=0.3, t1=1.2)[3] == 1
    with pytest.raises(SingularCurveError):
        frenet_frame(lc)  # full interval contains cusps


def test_frames_recover_from_regular_lift():
    ellipse = build_builtin(BuiltinSpec("ellipse", {"a": 2.0, "b": 1.0}, ParamInterval(0.0, TWO_PI, 1024, periodic=True)))
    ts, frame_tangent, frame_normal, _ = frenet_frame(from_regular(ellipse))
    g1 = ellipse.d1(ts)
    tangent = g1 / np.linalg.norm(g1, axis=-1)[:, None]
    assert np.max(np.linalg.norm(frame_tangent - tangent, axis=-1)) <= 1e-6
    assert np.max(np.linalg.norm(frame_normal - rotate_j(tangent), axis=-1)) <= 1e-6


def test_degenerate_pair_has_no_events():
    grid = np.arange(256) * (TWO_PI / 256)
    pair = CurvaturePair.from_samples(grid, np.ones_like(grid), np.zeros_like(grid), True)
    assert pair.degenerate
    assert classify_singularities(pair) == []
    assert not legendre_curvature(astroid_frontal()).degenerate


def _sampled_pair(t, points):
    return legendre_curvature(from_regular(curves.build_sampled(t, points)))


def test_straight_pairs_report_no_inflection():
    line = from_regular(build_builtin(BuiltinSpec("line", {"dx": 1.0}, ParamInterval(0.0, 1.0, 32))))
    t = np.linspace(0.0, 1.0, 65536)
    # ell is exactly 0 on the builtin line, and differencing noise on the sampled one
    for pair in (legendre_curvature(line), _sampled_pair(t, np.stack((0.3 + 1.7 * t, -0.2 + 0.9 * t), axis=-1))):
        assert pair.straight
        assert len(inflection_points(pair)) == 0


def test_slowly_turning_arc_is_not_straight():
    # radius 1e6 and length 1: the normal turns by 1e-6 rad
    r, t = 1e6, np.linspace(0.0, 1.0, 200)
    pair = _sampled_pair(t, np.stack((r * np.sin(t / r), 2.0 * r * np.sin(t / (2.0 * r)) ** 2), axis=-1))
    assert not pair.straight
