import math
from types import SimpleNamespace

import numpy as np
import pytest

from frontals.curves import (
    REG_TOL_SCALE,
    BuiltinSpec,
    ParamInterval,
    SingularCurveError,
    build_builtin,
    build_sampled,
    cumulative_integral,
    determinant_curvature,
)
from frontals.legendre import (
    CurvaturePair,
    astroid_frontal,
    builtin_frontal,
    circle_frontal,
    from_regular,
    regular_arcs,
)
from frontals.mates import (
    ODE_TOL_SCALE,
    _longest_regular_run,
    check_regular_bertrand,
    compose_mates,
    inverse_mate,
    regular_to_legendre_mates,
    special_operator,
)
from frontals.planar import constant_fn, linear_fn

TWO_PI = 2.0 * math.pi
HALF_PI = math.pi / 2.0


def circle_model(r=1.0, n=1024):
    return build_builtin(BuiltinSpec("circle", {"r": r}, ParamInterval(0.0, TWO_PI, n, periodic=True)))


def ellipse_model(n=1024, sampled=False):
    c = build_builtin(BuiltinSpec("ellipse", {"a": 2.0, "b": 1.0}, ParamInterval(0.0, TWO_PI, n, periodic=True)))
    if sampled:
        ts = c.interval.grid
        return build_sampled(ts, c.position(ts), periodic=True)
    return c


class TestCheckRegularBertrand:
    def test_circle_parallel_configuration(self):
        r = 1.0
        rep = check_regular_bertrand(
            circle_model(r), constant_fn(HALF_PI), constant_fn(HALF_PI), constant_fn(r / 2)
        )
        assert rep.is_mate
        assert np.max(rep.cond1_residual) <= 1e-8
        # second condition is 1 - lambda * kappa = 1/2, and the mate's
        # curvature is kappa / |cond2| = 2 / r
        assert np.max(np.abs(rep.cond2_value - 0.5)) <= 1e-8
        assert np.max(np.abs(rep.mate_curvature - 2.0 / r)) <= 1e-6

    def test_circle_tangent_tangent_is_not_a_mate(self):
        rep = check_regular_bertrand(
            circle_model(1.0), constant_fn(0.0), constant_fn(0.0), constant_fn(0.5)
        )
        assert not rep.is_mate
        assert np.max(rep.cond1_residual) > 1e-3

    def test_line_translated_along_itself(self):
        line = build_builtin(BuiltinSpec("line", {}, ParamInterval(0.0, 5.0, 256)))
        rep = check_regular_bertrand(line, constant_fn(0.0), constant_fn(0.0), linear_fn(0.0, 1.0))
        assert rep.is_mate
        # 1 + lambda' = 2 along the whole line
        assert np.max(np.abs(rep.cond2_value - 2.0)) <= 1e-10
        assert np.max(np.abs(rep.mate_curvature)) <= 1e-10

    @pytest.mark.parametrize("sampled", [False, True])
    def test_ellipse_parallel_on_the_curve_grid(self, sampled):
        # the ellipse's speed runs from 1 to 2, so its arc length is no
        # multiple of t: the conditions hold at the curve's own samples t_k
        d = 0.1
        c = ellipse_model(sampled=sampled)
        t = c.interval.grid
        kappa = 2.0 / (4.0 * np.sin(t) ** 2 + np.cos(t) ** 2) ** 1.5  # ab / (a^2 sin^2 + b^2 cos^2)^(3/2)
        rep = check_regular_bertrand(c, constant_fn(HALF_PI), constant_fn(HALF_PI), constant_fn(d))
        assert rep.is_mate and rep.regularity_shortfall == 0.0
        assert np.max(rep.cond1_residual) <= 1e-12
        assert np.max(np.abs(rep.cond2_value - (1.0 - d * kappa))) <= 1e-11
        assert np.max(np.abs(rep.mate_curvature - kappa / (1.0 - d * kappa))) <= 1e-10

    def test_singular_input_rejected(self):
        ast = build_builtin(BuiltinSpec("astroid", {}, ParamInterval(0.0, TWO_PI, 512, periodic=True)))
        with pytest.raises(SingularCurveError, match=r"^curve is singular near t = 0 \(\|d1\| = 0 <= "):
            check_regular_bertrand(ast, constant_fn(0.0), constant_fn(0.0), constant_fn(0.5))

    @pytest.mark.parametrize("sampled", [False, True])
    def test_condition_2_changing_sign_is_not_a_mate(self, sampled):
        # condition 2 is 1 - 0.6 kappa, from -0.2 at the ends of the major axis to
        # 0.85 at the ends of the minor one: it passes 0 between samples four
        # times, while |condition 2| stays above reg_tol on every sample
        rep = check_regular_bertrand(ellipse_model(sampled=sampled), constant_fn(HALF_PI), constant_fn(HALF_PI),
                                     constant_fn(0.6))
        assert np.max(rep.cond1_residual) <= 1e-12
        assert np.min(np.abs(rep.cond2_value)) > rep.reg_tol
        assert np.count_nonzero(np.diff(np.sign(np.r_[rep.cond2_value, rep.cond2_value[0]]))) == 4
        assert not rep.is_mate and rep.mate_curvature is None
        assert rep.regularity_shortfall == rep.reg_tol


def longest_regular_run_loop(signs):
    """Per-sample loop equivalent to _longest_regular_run(regular_arcs(pair)), as
    its reference: a run holds neighbouring nonzero signs that agree."""
    best = (0, -1)
    start = None
    for i, sign in enumerate([*signs, 0]):
        if start is not None and sign != signs[start]:
            if i - 1 - start > best[1] - best[0]:
                best = (start, i - 1)
            start = None
        if sign != 0 and start is None:
            start = i
    return best


def test_longest_regular_run_matches_loop_reference():
    # short sign sequences make ties between equal runs and runs at both ends common
    for seed in range(300):
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1, 0, 1], size=int(rng.integers(1, 24)), p=rng.dirichlet([1.0, 1.0, 1.0]))
        n = len(signs)
        arcs = regular_arcs(CurvaturePair.from_samples(np.arange(n), np.ones(n), signs * 0.5, False))
        if not signs.any():
            with pytest.raises(SingularCurveError):
                _longest_regular_run(arcs)
            continue
        assert _longest_regular_run(arcs) == longest_regular_run_loop(list(signs))


class TestRegularToLegendreMates:
    def test_circle_parallel_pair_converts(self):
        lc = from_regular(circle_model(1.0))
        mp = special_operator(lc, "parallel", lambda0=0.5)
        data = regular_to_legendre_mates(mp)
        # canonical lift has beta = -|gamma'| < 0 on both sides
        assert data.sign_beta == -1 and data.sign_beta_bar == -1
        assert abs(float(data.theta_reg.eval(0.0)) - HALF_PI) <= 1e-12
        assert abs(float(data.tau_reg.eval(0.0)) - HALF_PI) <= 1e-12
        assert data.report.is_mate
        assert np.max(np.abs(data.report.mate_curvature - 2.0)) <= 1e-6

    def test_positive_beta_branch_uses_other_sign(self):
        # the outward-normal circle has beta = r > 0: the angle shift flips
        lc = circle_frontal(1.0)
        mp = special_operator(lc, "parallel", lambda0=0.5)
        data = regular_to_legendre_mates(mp)
        assert data.sign_beta == 1 and data.sign_beta_bar == 1
        assert abs(float(data.theta_reg.eval(0.0)) + HALF_PI) <= 1e-12
        assert data.report.is_mate

    def test_mixed_signs_between_source_and_mate(self):
        # negated lift of the parallel target: beta_bar flips sign alone
        lc = circle_frontal(1.0)
        mp = special_operator(lc, "parallel", lambda0=0.5)
        data = regular_to_legendre_mates(mp)
        base_tau = float(data.tau_reg.eval(0.0))
        assert abs(base_tau + HALF_PI) <= 1e-12

    def test_ellipse_involute_converts(self):
        # lambda varies along a curve of varying speed: its t-derivative is
        # divided by the speed to give the derivative in arc length
        mp = special_operator(from_regular(ellipse_model(2048)), "involute", lambda0=0.4)
        assert regular_to_legendre_mates(mp).report.is_mate

    def test_astroid_near_cusp_rejected(self):
        lc = astroid_frontal()
        mp = special_operator(lc, "evolutoid", theta=math.pi / 4)
        with pytest.raises(SingularCurveError):
            regular_to_legendre_mates(mp, t0=-0.2, t1=0.2)

    def test_cusps_between_samples_break_the_run(self):
        # A grid shifted by 0.37 steps puts each cusp of the astroid between two
        # samples, where beta changes sign and no sample is singular.
        h = TWO_PI / 1024
        interval = ParamInterval(0.37 * h, 0.37 * h + TWO_PI, 1024, periodic=True)
        lc = builtin_frontal(BuiltinSpec("astroid", {}, interval))
        grid = interval.grid
        # (operator, parameter, first and last sample of the first longest regular arc)
        for name, kw, (i_lo, i_hi) in [("parallel", {"lambda0": 0.75}, (256, 511)),
                                       ("involute", {"lambda0": 0.75}, (0, 127)),
                                       ("evolutoid", {"theta": 0.5}, (0, 149))]:
            mp = special_operator(lc, name, **kw)
            data = regular_to_legendre_mates(mp)
            assert (data.t_start, data.t_end) == (grid[i_lo], grid[i_hi]), name
            run = slice(i_lo, i_hi + 1)
            assert np.all(np.sign(mp.source_curvature.beta[run]) == data.sign_beta)
            assert np.all(np.sign(mp.mate_curvature.beta[run]) == data.sign_beta_bar)
            assert data.report.is_mate, name
        with pytest.raises(SingularCurveError, match="requested subinterval contains a singular point"):
            regular_to_legendre_mates(special_operator(lc, "parallel", lambda0=0.05), 0.2, 2.0)  # the cusp at pi/2

    def test_astroid_regular_arc_converts(self):
        lc = astroid_frontal(2048)
        mp = special_operator(lc, "parallel", lambda0=0.05)
        data = regular_to_legendre_mates(mp, t0=0.35, t1=1.2)
        assert data.report.is_mate
        assert data.sign_beta == 1


@pytest.mark.parametrize("t0, t1, error, message", [
    (7.0, 8.0, ValueError, "empty subinterval"),
    (0.3, 2.0, SingularCurveError, "requested subinterval contains a singular point"),  # the cusp at pi/2
])
def test_subinterval_errors(t0, t1, error, message):
    mp = special_operator(astroid_frontal(512), "parallel", lambda0=0.05)
    with pytest.raises(error, match=message):
        regular_to_legendre_mates(mp, t0, t1)


# Reference: the regular-branch conditions written out in arc length, with
# kappa from the determinant formula and the speed |gamma'|, as they were
# computed before both entry points read them from the Legendre pipeline.
def reference_arc_length(c, run, periodic):
    """(s, speed, kappa, reg_tol) on the grid samples `run` of c."""
    g1 = c.on_grid("d1")[run]
    speed = np.linalg.norm(g1, axis=-1)
    s = cumulative_integral(speed, c.interval.step, periodic)
    kappa = determinant_curvature(g1, c.on_grid("d2")[run], c.interval.grid[run], c.reg_tol)
    reg_tol = REG_TOL_SCALE * np.linalg.norm(np.ptp(c.on_grid("position")[run], axis=0)) / s[-1]
    return s[: len(g1)], speed, kappa, reg_tol


def reference_conditions(s, kappa, th, thd, ta, tad, lv, ld, reg_tol):
    """Both conditions from arc-length samples; is_mate without the sign rule."""
    a = np.cos(th) + ld
    b = np.sin(th) - lv * (thd + kappa)
    cond1 = np.abs(a * np.sin(ta) - b * np.cos(ta))
    cond2 = a * np.cos(ta) + b * np.sin(ta)
    is_mate = bool(np.max(cond1) <= ODE_TOL_SCALE and np.min(np.abs(cond2)) > reg_tol)
    kbar = (thd - tad + kappa) / np.abs(cond2) if is_mate else None
    return SimpleNamespace(grid=s, cond1_residual=cond1, cond2_value=cond2, is_mate=is_mate,
                           mate_curvature=kbar, reg_tol=reg_tol)


def reference_check(c, theta, tau, lam):
    s, _, kappa, reg_tol = reference_arc_length(c, slice(None), c.interval.periodic)
    values = (np.asarray(f(s), dtype=float) for fn in (theta, tau, lam) for f in (fn.eval, fn.deriv))
    return reference_conditions(s, kappa, *values, reg_tol)


def reference_convert(mp, data):
    """The conditions on data's run, from t-derivatives over the speed."""
    ts = mp.lam.grid
    i_lo, i_hi = np.searchsorted(ts, [data.t_start, data.t_end])
    run = slice(i_lo, i_hi + 1)
    s, speed, kappa, reg_tol = reference_arc_length(mp.source.gamma, run, False)
    th, ta = data.theta_reg, data.tau_reg
    return reference_conditions(s, kappa, th.eval(ts[run]), th.deriv(ts[run]) / speed, ta.eval(ts[run]),
                                ta.deriv(ts[run]) / speed, mp.lam.lam[run], mp.lam.lam_d1[run] / speed, reg_tol)


def assert_matches_reference(rep, ref, rtol=1e-12):
    """Same verdict, where the reference's condition 2 keeps one sign (else
    no mate), and every value within rtol * max(1, |reference|)."""
    one_sign = np.all(ref.cond2_value > 0) or np.all(ref.cond2_value < 0)
    assert rep.is_mate == (ref.is_mate and one_sign)
    assert (rep.mate_curvature is None) == (not rep.is_mate)
    pairs = [(rep.grid, ref.grid), (rep.cond1_residual, ref.cond1_residual), (rep.cond2_value, ref.cond2_value),
             (rep.reg_tol, ref.reg_tol)]
    for got, want in pairs + ([(rep.mate_curvature, ref.mate_curvature)] if rep.is_mate else []):
        assert np.all(np.abs(got - want) <= rtol * np.maximum(1.0, np.abs(want)))


REFERENCE_CURVES = {
    "circle": lambda: circle_model(1.0),
    "ellipse": lambda: ellipse_model(),
    "ellipse_sampled": lambda: ellipse_model(sampled=True),
    "line": lambda: build_builtin(BuiltinSpec("line", {"dx": 2.0}, ParamInterval(0.0, 1.0, 1024))),
}


@pytest.mark.parametrize("curve", list(REFERENCE_CURVES))
@pytest.mark.parametrize("theta, tau, lambda0, slope", [
    (HALF_PI, HALF_PI, 0.5, 0.0),
    (0.0, 0.0, 0.5, 0.0),
    (HALF_PI, HALF_PI, 0.1, 0.0),
    (0.0, 0.0, 0.0, -0.99999985),
    (0.3, 0.2, 0.1, 0.05),
    (HALF_PI, HALF_PI, 0.6, 0.0),  # condition 2 changes sign on both ellipses
], ids=["normal-0.5", "tangent-0.5", "normal-0.1", "tangent-slope", "oblique", "normal-0.6"])
def test_check_regular_matches_reference(curve, theta, tau, lambda0, slope):
    c = REFERENCE_CURVES[curve]()
    fns = constant_fn(theta), constant_fn(tau), linear_fn(lambda0, slope)
    assert_matches_reference(check_regular_bertrand(c, *fns), reference_check(c, *fns))


def _ellipse_pairs():
    lift = from_regular(ellipse_model(2048))
    parallel = special_operator(lift, "parallel", lambda0=0.3)
    return {
        "involute": special_operator(lift, "involute", lambda0=0.4),
        "parallel": parallel,
        "evolute": special_operator(lift, "evolute"),
        "composite": compose_mates(parallel, special_operator(parallel.mate, "parallel", lambda0=0.1)),
    }


@pytest.mark.parametrize("build", [
    lambda: special_operator(astroid_frontal(2048), "parallel", lambda0=0.05),
    lambda: special_operator(astroid_frontal(2048), "involute", lambda0=0.75),
    lambda: special_operator(astroid_frontal(2048), "evolutoid", theta=0.5),
    *(lambda name=name: _ellipse_pairs()[name] for name in ("involute", "parallel", "evolute", "composite")),
], ids=["astroid-parallel", "astroid-involute", "astroid-evolutoid",
        "ellipse-involute", "ellipse-parallel", "ellipse-evolute", "ellipse-composite"])
def test_regular_to_legendre_mates_matches_reference(build):
    mp = build()
    data = regular_to_legendre_mates(mp)
    assert_matches_reference(data.report, reference_convert(mp, data))


def test_inverse_pair_reads_the_pair_it_was_built_on():
    # The inverse's source is the sampled mate, and its curvature pair is the
    # formula pair the scale function was solved on.  The reference divides
    # that pair's lambda' by the differenced speed of the sampled mate, and
    # agrees with the formula pair only to the difference scheme's truncation
    # error: its condition 1 reads 4.6e-7, above ODE_TOL_SCALE.
    mp = inverse_mate(_ellipse_pairs()["involute"])
    data = regular_to_legendre_mates(mp)
    rep = data.report
    assert rep.is_mate and np.max(rep.cond1_residual) <= 1e-12
    ref = reference_convert(mp, data)
    for got, want in [(rep.grid, ref.grid), (rep.cond2_value, ref.cond2_value)]:
        assert np.all(np.abs(got - want) <= 1e-8 * np.maximum(1.0, np.abs(want)))
