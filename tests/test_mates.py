import collections
import math

import numpy as np
import pytest

from frontals import curves, legendre, mates
from frontals import io as fio
from frontals.cli import main
from frontals.curves import BuiltinSpec, CurveModel, ParamInterval, build_builtin, build_sampled, local_quintic, quintic_fn
from frontals.legendre import (
    LegendreCurve,
    astroid_frontal,
    circle_frontal,
    classify_singularities,
    from_regular,
    inflection_points,
    legendre_curvature,
)
from frontals.mates import (
    DenominatorError,
    IdentityReport,
    MateConfig,
    build_mate,
    check_mate_relation,
    compose_mates,
    inverse_mate,
    mate_curvature,
    regular_to_legendre_mates,
    solve_lambda,
    special_operator,
    verify_mate_curvature,
)
from frontals.planar import ScalarFn, add_fns, constant_fn, linear_fn, negate_fn, rotate_j, row_norm, turn

TWO_PI = 2.0 * math.pi
HALF_PI = math.pi / 2.0


def angle(t_fn, d_fn):
    return ScalarFn(eval=t_fn, deriv=d_fn)


def forbid_scipy_solvers(monkeypatch):
    """Make scipy's spline and root solvers raise wherever the pipeline could
    reach them: off-grid reads go through the local quintic kernel and zeros
    through the companion roots of its cell quintics."""
    def fail(*args, **kwargs):
        raise AssertionError("a scipy spline or root solver was called")

    for module in (curves, legendre, mates):
        for name in ("CubicSpline", "brentq", "minimize_scalar"):
            monkeypatch.setattr(module, name, fail, raising=False)


class TestSolveLambda:
    def test_circle_evolute_algebraic(self):
        r = 1.5
        pair = legendre_curvature(circle_frontal(r))
        cfg = MateConfig(constant_fn(0.0), constant_fn(HALF_PI))
        lam = solve_lambda(pair, cfg)
        assert lam.mode == "algebraic"
        assert lam.lambda0_ignored
        assert np.max(np.abs(lam.lam + r)) <= 1e-12

    def test_pointwise_solve_builds_no_spline(self, monkeypatch):
        # lambda at the period end reads the first samples of ell and beta
        pair = legendre_curvature(circle_frontal(1.0))
        forbid_scipy_solvers(monkeypatch)
        lam = solve_lambda(pair, MateConfig(constant_fn(0.0), constant_fn(HALF_PI)))
        assert lam.wrap_value == -1.0

    def test_circle_involute_family(self):
        r, c = 1.0, 0.7
        pair = legendre_curvature(circle_frontal(r))
        cfg = MateConfig(constant_fn(HALF_PI), constant_fn(0.0), lambda0=c)
        lam = solve_lambda(pair, cfg)
        assert lam.mode == "ode"
        assert np.max(np.abs(lam.lam - (-r * pair.grid + c))) <= 1e-10

    def test_circle_involutoid_exponential_family(self):
        r, c = 1.0, 0.3
        pair = legendre_curvature(circle_frontal(r))
        # tau = 1.1 makes lambda grow by e^(2 pi tan 1.1) ~ e^12.3; its residual
        # then exceeds ODE_TOL_SCALE * max(max|beta|, 1), and only the
        # lambda-scaled tolerance admits the solve.
        for tau in (math.pi / 4.0, 1.1):
            lam0 = r * math.cos(tau) / math.sin(tau) + c
            cfg = MateConfig(constant_fn(HALF_PI), constant_fn(tau), lambda0=lam0)
            lam = solve_lambda(pair, cfg)
            expected = r * math.cos(tau) / math.sin(tau) + c * np.exp(math.tan(tau) * pair.grid)
            assert np.max(np.abs(lam.lam - expected) / np.abs(expected)) <= 1e-8

    def test_linear_angles_on_a_periodic_circle_match_solve_ivp(self):
        from scipy.integrate import solve_ivp

        pair = legendre_curvature(circle_frontal(1.0))
        ell, beta = float(pair.ell[0]), float(pair.beta[0])
        assert np.ptp(pair.ell) <= 1e-15 and np.ptp(pair.beta) <= 1e-15
        # neither angle closes over the period
        lam = solve_lambda(pair, MateConfig(linear_fn(0.2, 0.5), linear_fn(-0.1, 0.1), lambda0=0.3))

        def rhs(t, y):
            th, ta = 0.2 + 0.5 * t, -0.1 + 0.1 * t
            return math.tan(ta) * (0.5 + ell) * y + beta * (math.tan(ta) * math.cos(th) - math.sin(th))

        ref = solve_ivp(rhs, (0.0, TWO_PI), [0.3], method="DOP853", t_eval=np.append(pair.grid, TWO_PI),
                        rtol=1e-13, atol=1e-15).y[0]
        assert np.allclose(lam.lam, ref[:-1], rtol=1e-10, atol=0.0)
        assert lam.wrap_value == pytest.approx(ref[-1], rel=1e-10, abs=0.0)

    # theta' = 0.1 t differs between the period's ends, so the period end is
    # read there and not at t0.
    QUADRATIC_THETA = ScalarFn(eval=lambda t: 0.05 * np.asarray(t, dtype=float) ** 2,
                               deriv=lambda t: 0.1 * np.asarray(t, dtype=float))

    def test_pointwise_period_end_reads_theta_prime_at_the_end(self):
        pair = legendre_curvature(circle_frontal(1.5, 1024))
        lam = solve_lambda(pair, MateConfig(self.QUADRATIC_THETA, constant_fn(HALF_PI)))
        assert lam.mode == "algebraic"
        expected = -1.5 * math.cos(0.05 * TWO_PI**2) / (0.1 * TWO_PI + 1.0)
        assert lam.wrap_value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_ode_period_end_reads_theta_prime_at_the_end(self):
        from scipy.integrate import solve_ivp

        pair = legendre_curvature(circle_frontal(1.5, 1024))
        ell, beta, tau = float(pair.ell[0]), float(pair.beta[0]), 0.3
        lam = solve_lambda(pair, MateConfig(self.QUADRATIC_THETA, constant_fn(tau), lambda0=0.2))
        assert lam.mode == "ode"

        def rhs(t, y):
            th, thd = 0.05 * t * t, 0.1 * t
            return math.tan(tau) * (thd + ell) * y + beta * (math.tan(tau) * math.cos(th) - math.sin(th))

        ref = solve_ivp(rhs, (0.0, TWO_PI), [0.2], method="DOP853", rtol=1e-12, atol=1e-15).y[0, -1]
        assert lam.wrap_value == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_growth_beyond_the_floats_is_refused_by_name(self):
        # 2 pi tan(1.565) ~ 1084: e^1084 overflows.  The configured warning
        # filter turns any numpy RuntimeWarning on the way into an error.
        pair = legendre_curvature(circle_frontal(1.0))
        with pytest.raises(mates.ResidualError, match=r"^lambda grows by e\^1084, beyond the floats$"):
            solve_lambda(pair, MateConfig(constant_fn(HALF_PI), constant_fn(1.565), lambda0=0.3))

    def test_astroid_involute_family(self):
        c = 0.1
        pair = legendre_curvature(astroid_frontal())
        cfg = MateConfig(constant_fn(HALF_PI), constant_fn(0.0), lambda0=0.75 + c)
        lam = solve_lambda(pair, cfg)
        expected = 3.0 * np.cos(2.0 * pair.grid) / 4.0 + c
        assert np.max(np.abs(lam.lam - expected)) <= 1e-9

    def test_lambda_tol_scales_with_lambda_and_keeps_its_floor(self):
        pair = legendre_curvature(circle_frontal(1.0))
        cfg = MateConfig(constant_fn(HALF_PI), constant_fn(1.0), lambda0=1.0)
        lam = solve_lambda(pair, cfg)
        tol = mates.lambda_tol(pair, lam.angles, lam.lam)
        floor = mates.ODE_TOL_SCALE * max(float(np.max(np.abs(pair.beta))), 1.0)
        scaled = mates.ODE_TOL_SCALE * np.abs(lam.lam * pair.ell)
        assert np.all(tol >= floor)
        assert np.array_equal(tol, np.maximum(scaled, floor))
        assert np.any(scaled > floor)

    def test_gate_rejects_a_perturbed_growing_lambda(self):
        lc = circle_frontal(1.0)
        pair = legendre_curvature(lc)
        cfg = MateConfig(constant_fn(HALF_PI), constant_fn(1.0), lambda0=1.0)
        lam = solve_lambda(pair, cfg)
        bad = lam.lam * (1.0 + 1e-5 * np.sin(pair.grid))
        wrong = mates._solution(pair, cfg.angles(pair.grid), bad, curves.node_d(bad, pair.grid[1] - pair.grid[0], periodic=False),
                                "prescribed", None, False)
        with pytest.raises(mates.ResidualError, match="lambda residual .* exceeds"):
            build_mate(lc, cfg, wrong, pair)

    def test_mixed_cos_tau_rejected(self):
        pair = legendre_curvature(circle_frontal(1.0))
        sweep = angle(lambda t: np.asarray(t, dtype=float), lambda t: np.ones_like(np.asarray(t, dtype=float)))
        with pytest.raises(ValueError, match="mixes zero and nonzero .* neither the ODE .* nor the pointwise solve"):
            solve_lambda(pair, MateConfig(constant_fn(0.0), sweep))

    def test_pointwise_solve_gates_its_own_residual(self, monkeypatch):
        lc = from_regular(build_builtin(BuiltinSpec("ellipse", {"a": 2.0, "b": 1.0},
                                                    ParamInterval(0.0, 2.0 * math.pi, 256, periodic=True))))
        pair = legendre_curvature(lc)
        cfg = mates.operator_config("evolute")
        assert solve_lambda(pair, cfg).mode == "algebraic"
        monkeypatch.setattr(mates, "ODE_TOL_SCALE", 1e-30)
        with pytest.raises(mates.ResidualError, match="^lambda residual .* exceeds .* at t = "):
            solve_lambda(pair, cfg)

    def test_each_solution_carries_its_lambda_tol(self):
        """The stored tolerance is the one the gates recomputed before: bit
        for bit lambda_tol of the solution's own pair, angles and lambda."""
        def mate(lc, theta, tau, lambda0):
            pair, cfg = legendre_curvature(lc), MateConfig(constant_fn(theta), constant_fn(tau), lambda0)
            return build_mate(lc, cfg, solve_lambda(pair, cfg, extent=lc.gamma.extent), pair)

        mp = mate(astroid_frontal(512), 0.6, -0.2, 0.3)
        # the second pair's direction is the first's coincident field: theta2 = tau1
        composite = compose_mates(mp, mate(mp.mate, -0.2, 0.1, 0.2))
        assert composite.lam.mode == "prescribed"
        for m in (mp, inverse_mate(mp), composite):
            assert np.array_equal(m.lam.tolerance, mates.lambda_tol(m.source_curvature, m.lam.angles, m.lam.lam))

    def test_denominator_blowup(self):
        # a straight line has ell = 0 everywhere: the pointwise solve divides by zero
        line = build_builtin(BuiltinSpec("line", {}, ParamInterval(0.0, 3.0, 64)))
        pair = legendre_curvature(from_regular(line))
        with pytest.raises(DenominatorError):
            solve_lambda(pair, MateConfig(constant_fn(0.0), constant_fn(HALF_PI)))

    def test_inconsistent_angle_fn_rejected(self):
        pair = legendre_curvature(circle_frontal(1.0))
        broken = angle(
            lambda t: np.sin(np.asarray(t, dtype=float)),
            lambda t: np.cos(np.asarray(t, dtype=float)) + 0.5,
        )
        with pytest.raises(ValueError, match="disagrees"):
            solve_lambda(pair, MateConfig(broken, constant_fn(0.0)))


class TestBuildMate:
    def test_circle_evolute_collapses_to_origin(self):
        r = 1.0
        lc = circle_frontal(r)
        mp = special_operator(lc, "evolute")
        ts = mp.lam.grid
        assert np.max(np.abs(mp.mate.gamma.position(ts))) <= 1e-12
        expected_nu = np.stack((np.sin(ts), -np.cos(ts)), axis=-1)
        assert np.max(np.linalg.norm(mp.mate.nu(ts) - expected_nu, axis=-1)) <= 1e-12

    def test_astroid_evolute_closed_form(self):
        lc = astroid_frontal()
        mp = special_operator(lc, "evolute")
        t = mp.lam.grid
        expected = np.stack(
            (np.cos(t) ** 3 + 3 * np.cos(t) * np.sin(t) ** 2,
             np.sin(t) ** 3 + 3 * np.cos(t) ** 2 * np.sin(t)),
            axis=-1,
        )
        assert np.max(np.linalg.norm(mp.mate.gamma.position(t) - expected, axis=-1)) <= 1e-12

    def test_translation_invariant_holds_exactly(self):
        lc = astroid_frontal()
        mp = special_operator(lc, "involute", lambda0=0.75)
        ts = mp.lam.grid
        v = mp.direction
        rebuilt = lc.gamma.position(ts) + mp.lam.lam[:, None] * v
        assert np.max(np.linalg.norm(mp.mate.gamma.position(ts) - rebuilt, axis=-1)) == 0.0

    def test_degenerate_zero_lambda_flagged(self):
        lc = circle_frontal(1.0)
        mp = special_operator(lc, "parallel", lambda0=0.0)
        assert mp.lam.near_zero
        ts = mp.lam.grid
        assert np.max(np.abs(mp.mate.gamma.position(ts) - lc.gamma.position(ts))) == 0.0
        assert np.max(np.abs(mp.mate.nu(ts) - lc.nu(ts))) == 0.0


class TestMateCurvature:
    def test_circle_evolute_pair(self):
        pair = legendre_curvature(circle_frontal(2.0))
        cfg = MateConfig(constant_fn(0.0), constant_fn(HALF_PI))
        lam = solve_lambda(pair, cfg)
        mc = mate_curvature(pair, lam)
        assert np.max(np.abs(mc.ell - 1.0)) <= 1e-12
        assert np.max(np.abs(mc.beta)) <= 1e-10

    def test_circle_involute_pair(self):
        r, c = 1.0, 0.4
        pair = legendre_curvature(circle_frontal(r))
        cfg = MateConfig(constant_fn(HALF_PI), constant_fn(0.0), lambda0=c)
        lam = solve_lambda(pair, cfg)
        mc = mate_curvature(pair, lam)
        assert np.max(np.abs(mc.ell - 1.0)) <= 1e-12
        assert np.max(np.abs(mc.beta - (-r * pair.grid + c))) <= 1e-9

    def test_equal_constant_angles_preserve_ell(self):
        pair = legendre_curvature(astroid_frontal())
        cfg = MateConfig(constant_fn(0.8), constant_fn(0.8), lambda0=0.2)
        lam = solve_lambda(pair, cfg)
        mc = mate_curvature(pair, lam)
        assert np.max(np.abs(mc.ell - pair.ell)) <= 1e-12


class TestVerifyMateCurvature:
    def test_circle_evolute(self):
        mp = special_operator(circle_frontal(1.0), "evolute")
        rep = verify_mate_curvature(mp)
        assert rep.passed
        assert max(rep.max_ell_discrepancy, rep.max_beta_discrepancy) <= 1e-8

    def test_astroid_involute(self):
        mp = special_operator(astroid_frontal(), "involute", lambda0=0.75)
        rep = verify_mate_curvature(mp)
        assert rep.passed
        assert max(rep.max_ell_discrepancy, rep.max_beta_discrepancy) <= 1e-6

    def test_coarse_circle_passes_and_a_wrong_formula_pair_fails(self):
        # 64 samples: the sampled mate's differenced pair meets the formulas
        # well inside CROSS_TOL, and a formula pair off by 1e-4 is still caught.
        lc = circle_frontal(1.0, 64)
        pair = legendre_curvature(lc)
        cfg = MateConfig(constant_fn(0.0), constant_fn(0.0))
        mp = build_mate(lc, cfg, solve_lambda(pair, cfg), pair)
        rep = verify_mate_curvature(mp)
        assert rep.passed and max(rep.max_ell_discrepancy, rep.max_beta_discrepancy) <= 1e-8
        wrong = mp.mate_curvature._replace(beta=mp.mate_curvature.beta * (1.0 + 1e-4))
        assert not verify_mate_curvature(mp._replace(mate_curvature=wrong)).passed

    def test_random_fixture(self):
        from conftest import random_frontal

        lc = random_frontal(20240817)
        pair = legendre_curvature(lc)
        cfg = MateConfig(constant_fn(0.6), constant_fn(-0.4), lambda0=0.3)
        lam = solve_lambda(pair, cfg, extent=lc.gamma.extent)
        mp = build_mate(lc, cfg, lam, pair=pair)
        rep = verify_mate_curvature(mp)
        assert max(rep.max_ell_discrepancy, rep.max_beta_discrepancy) <= 1e-5


class TestLowOrderData:
    """Mates and scans read gamma', gamma'' and nu' only."""

    @staticmethod
    def _unreadable_high_order(lc):
        def fail(t):
            raise AssertionError("d3 or nu_d2 was evaluated")

        g = lc.gamma
        gamma = CurveModel(g.kind, g.position, g.d1, g.d2, g.interval, g.extent, d3=fail)
        return LegendreCurve(gamma, lc.nu, lc.nu_d1, lc.interval, nu_d2=fail)

    def test_build_mate_builds_no_spline(self, monkeypatch):
        lc = circle_frontal(1.0)
        pair = legendre_curvature(lc)
        cfg = MateConfig(constant_fn(HALF_PI), constant_fn(0.0), lambda0=0.3)
        lam = solve_lambda(pair, cfg)
        forbid_scipy_solvers(monkeypatch)
        mp = build_mate(lc, cfg, lam, pair=pair)
        # the sampled mate's checks read its grid samples
        assert verify_mate_curvature(mp).passed

    def test_pipeline_calls_no_spline_or_root_solver(self, monkeypatch, tmp_path):
        forbid_scipy_solvers(monkeypatch)
        astroid = astroid_frontal()
        pair = legendre_curvature(astroid)
        assert len(classify_singularities(pair)) == 4 and len(inflection_points(pair)) == 0
        ts = astroid.interval.grid
        fio.write_frontal_csv(tmp_path / "in.csv", ts, astroid.gamma.position(ts), astroid.nu(ts))
        assert main(["roundtrip", "--curve", f"csv:{tmp_path / 'in.csv'}", "--theta", "pi/2", "--tau", "0",
                     "--lambda0", "0.75", "--out", str(tmp_path / "out.csv"), "--svg", str(tmp_path / "out.svg")]) == 0

    def test_pipeline_never_reads_third_order_data(self):
        astroid = self._unreadable_high_order(astroid_frontal())
        pair = legendre_curvature(astroid)
        assert len(classify_singularities(pair)) == 4
        assert len(inflection_points(pair)) == 0
        assert verify_mate_curvature(special_operator(astroid, "involute", lambda0=0.75)).passed

        lc = self._unreadable_high_order(circle_frontal(1.0))
        p1 = special_operator(lc, "parallel", lambda0=0.3)
        assert verify_mate_curvature(p1).passed
        back = inverse_mate(p1)
        ts = p1.lam.grid
        assert np.max(np.linalg.norm(back.mate.gamma.position(ts) - lc.gamma.position(ts), axis=-1)) <= 1e-15
        p2 = special_operator(self._unreadable_high_order(p1.mate), "parallel", lambda0=0.45)
        comp = compose_mates(p1, p2)
        assert regular_to_legendre_mates(comp).report.is_mate

        ellipse = build_builtin(BuiltinSpec("ellipse", {"a": 2.0, "b": 1.0}, ParamInterval(0.0, TWO_PI, 512, periodic=True)))
        lifted = self._unreadable_high_order(from_regular(ellipse))
        assert verify_mate_curvature(special_operator(lifted, "evolute")).passed


class TestSpecialOperators:
    def test_circle_evolutoid_closed_form(self):
        r, th = 1.0, 0.4
        mp = special_operator(circle_frontal(r), "evolutoid", theta=th)
        t = mp.lam.grid
        expected = r * np.stack(
            (np.cos(t) - math.cos(th) * np.cos(t + th),
             np.sin(t) - math.cos(th) * np.sin(t + th)),
            axis=-1,
        )
        assert np.max(np.linalg.norm(mp.mate.gamma.position(t) - expected, axis=-1)) <= 1e-12

    def test_astroid_evolutoid_closed_form(self):
        th = math.pi / 6.0
        mp = special_operator(astroid_frontal(), "evolutoid", theta=th)
        t = mp.lam.grid
        lam = 3 * np.cos(t) * np.sin(t) * math.cos(th)
        expected = np.stack(
            (np.cos(t) ** 3 + lam * np.sin(t - th), np.sin(t) ** 3 + lam * np.cos(t - th)),
            axis=-1,
        )
        assert np.max(np.linalg.norm(mp.mate.gamma.position(t) - expected, axis=-1)) <= 1e-12

    def test_circle_nvolute_exponential_family(self):
        r, th, c = 1.0, math.pi / 3.0, 0.05
        lam0 = -r / math.cos(th) + c
        mp = special_operator(circle_frontal(r), "nvolute", theta=th, lambda0=lam0)
        t = mp.lam.grid
        expected = -r / math.cos(th) + c * np.exp(-(math.cos(th) / math.sin(th)) * t)
        assert np.max(np.abs(mp.lam.lam - expected)) <= 1e-8

    def test_circle_tvolute_exponential_family(self):
        r, ta, c = 1.0, math.pi / 5.0, 0.02
        lam0 = r / math.sin(ta) + c
        mp = special_operator(circle_frontal(r), "tvolute", tau=ta, lambda0=lam0)
        t = mp.lam.grid
        expected = r / math.sin(ta) + c * np.exp(math.tan(ta) * t)
        assert np.max(np.abs(mp.lam.lam - expected) / np.abs(expected)) <= 1e-8

    def test_astroid_nvolute_connects_evolute_and_involute(self):
        lc = astroid_frontal()
        t = lc.interval.grid
        ev = special_operator(lc, "evolute")
        n0 = special_operator(lc, "nvolute", theta=0.0)
        assert np.max(np.linalg.norm(n0.mate.gamma.position(t) - ev.mate.gamma.position(t), axis=-1)) <= 1e-12

        inv = special_operator(lc, "involute", lambda0=0.75)
        n90 = special_operator(lc, "nvolute", theta=HALF_PI, lambda0=0.75)
        assert np.max(np.linalg.norm(n90.mate.gamma.position(t) - inv.mate.gamma.position(t), axis=-1)) <= 1e-9

    def test_astroid_tvolute_connects_involute_and_evolute(self):
        lc = astroid_frontal()
        t = lc.interval.grid
        inv = special_operator(lc, "involute", lambda0=0.75)
        t0 = special_operator(lc, "tvolute", tau=0.0, lambda0=0.75)
        assert np.max(np.linalg.norm(t0.mate.gamma.position(t) - inv.mate.gamma.position(t), axis=-1)) <= 1e-9

        ev = special_operator(lc, "evolute")
        tneg = special_operator(lc, "tvolute", tau=-HALF_PI)
        assert np.max(np.linalg.norm(tneg.mate.gamma.position(t) - ev.mate.gamma.position(t), axis=-1)) <= 1e-12

    def test_involutoid_at_right_angle_is_identity(self):
        lc = circle_frontal(1.0)
        mp = special_operator(lc, "involutoid", tau=HALF_PI)
        assert mp.lam.near_zero
        t = lc.interval.grid
        assert np.max(np.linalg.norm(mp.mate.gamma.position(t) - lc.gamma.position(t), axis=-1)) <= 1e-12

    @staticmethod
    def _astroid_nvolute_lam0(theta):
        # bounded family member: trig-polynomial ansatz in the defining
        # condition beta + lambda' sin(theta) + lambda ell cos(theta) = 0
        return 3.0 * math.sin(theta) / (4.0 * math.sin(theta) ** 2 + math.cos(theta) ** 2)

    def test_special_normals_match_stated_frames(self):
        lc = astroid_frontal()
        t = lc.interval.grid
        nu = lc.nu(t)
        mu = rotate_j(nu)
        th, ta = 0.7, 0.5
        cases = {
            "evolutoid": (special_operator(lc, "evolutoid", theta=th),
                          math.sin(th) * nu - math.cos(th) * mu),
            "involutoid": (special_operator(lc, "involutoid", tau=ta, lambda0=0.1),
                           math.sin(ta) * nu + math.cos(ta) * mu),
            "nvolute": (special_operator(lc, "nvolute", theta=th, lambda0=self._astroid_nvolute_lam0(th)), -mu),
            "tvolute": (special_operator(lc, "tvolute", tau=ta, lambda0=0.1), mu),
        }
        for name, (mp, expected) in cases.items():
            err = np.max(np.linalg.norm(mp.mate.nu(t) - expected, axis=-1))
            assert err <= 1e-12, name

    def test_special_curvatures_match_stated_formulas(self):
        lc = astroid_frontal()
        pair = legendre_curvature(lc)
        th, ta = 0.7, 0.5
        ev = special_operator(lc, "evolutoid", theta=th)
        assert np.max(np.abs(ev.mate_curvature.ell - pair.ell)) <= 1e-12
        expected = pair.beta * math.sin(th) + ev.lam.lam_d1
        assert np.max(np.abs(ev.mate_curvature.beta - expected)) <= 1e-12

        iv = special_operator(lc, "involutoid", tau=ta, lambda0=0.1)
        expected = iv.lam.lam * pair.ell * math.cos(ta) + (pair.beta + iv.lam.lam_d1) * math.sin(ta)
        assert np.max(np.abs(iv.mate_curvature.beta - expected)) <= 1e-12

        nv = special_operator(lc, "nvolute", theta=th, lambda0=self._astroid_nvolute_lam0(th))
        expected = -nv.lam.lam * pair.ell * math.sin(th) + nv.lam.lam_d1 * math.cos(th)
        assert np.max(np.abs(nv.mate_curvature.beta - expected)) <= 1e-12

        tv = special_operator(lc, "tvolute", tau=ta, lambda0=0.1)
        expected = tv.lam.lam * pair.ell * math.cos(ta) + tv.lam.lam_d1 * math.sin(ta)
        assert np.max(np.abs(tv.mate_curvature.beta - expected)) <= 1e-12

    def test_inflection_invariance_for_constant_angles(self):
        lc = astroid_frontal()
        pair = legendre_curvature(lc)
        for which, kw in (
            ("evolutoid", {"theta": 0.5}),
            ("involutoid", {"tau": 0.5, "lambda0": 0.1}),
            ("nvolute", {"theta": 0.5, "lambda0": self._astroid_nvolute_lam0(0.5)}),
            ("tvolute", {"tau": 0.5, "lambda0": 0.1}),
        ):
            mp = special_operator(lc, which, **kw)
            assert np.max(np.abs(mp.mate_curvature.ell - pair.ell)) <= 1e-12

    def test_unknown_and_incomplete_operators(self):
        lc = circle_frontal(1.0)
        with pytest.raises(ValueError, match="unknown operator"):
            special_operator(lc, "reflect")
        with pytest.raises(ValueError, match="needs theta"):
            special_operator(lc, "evolutoid")
        with pytest.raises(ValueError, match="needs tau"):
            special_operator(lc, "involutoid")

    @staticmethod
    def _pointwise_refusals(lc, which, kw):
        """The refusals of the named pointwise construction `which` on lc and
        of its mate equivalent, theta from kw and tau = pi/2."""
        pair = legendre_curvature(lc)
        with pytest.raises(DenominatorError) as named:
            special_operator(lc, which, **kw)
        with pytest.raises(DenominatorError) as mate:
            solve_lambda(pair, MateConfig(constant_fn(kw.get("theta", 0.0)), constant_fn(HALF_PI)))
        return str(named.value), str(mate.value)

    @pytest.mark.parametrize("which, kw", [("evolute", {}), ("evolutoid", {"theta": 0.3})])
    @pytest.mark.parametrize("n", [65, 300, 301, 1000, 1001])
    def test_evolute_reports_inflections_on_failure(self, n, which, kw):
        # y = x^3 inflects at t = 0: on the middle sample when n is odd, else
        # midway between two, where theta' + ell changes sign without a small
        # sample; the symmetric grid places the zero at 0 either way.
        ts = -1.0 + 2.0 * np.arange(n) / (n - 1)
        lc = from_regular(build_sampled(ts, np.stack((ts, ts**3), axis=-1)))
        message = "theta' = 0 and ell vanishes at inflection points near t = [0.]; the pointwise solve blows up there"
        assert self._pointwise_refusals(lc, which, kw) == (message, message)

    @pytest.mark.parametrize("which, kw", [("evolute", {}), ("evolutoid", {"theta": 0.3})])
    @pytest.mark.parametrize("sampled", [False, True])
    def test_pointwise_solve_names_a_straight_curve(self, which, kw, sampled):
        # A sampled line's ell is rounding noise, not 0: the sample test alone would pass it.
        line = build_builtin(BuiltinSpec("line", {"x0": 0.1, "dx": 2.0, "dy": 0.3}, ParamInterval(0.0, 1.0, 512)))
        lc = from_regular(build_sampled(line.interval.grid, line.on_grid("position")) if sampled else line)
        assert legendre_curvature(lc).straight
        message = "theta' = 0 and the curve is straight: ell vanishes on every grid sample"
        assert self._pointwise_refusals(lc, which, kw) == (message, message)

    @pytest.mark.parametrize("theta, where", [
        # theta' + ell = 1 + 4 cos 4t vanishes 8 times a period.
        (ScalarFn(lambda t: np.sin(4.0 * t), lambda t: 4.0 * np.cos(4.0 * t)),
         "[0.455869 1.114927 2.026665 2.685724 3.597462 4.25652 ] and 2 more"),
        # theta' + ell = c - t, c half a step before 2 pi, changes sign only
        # between the last sample and the period end: no grid cell brackets it.
        (ScalarFn(lambda t: (TWO_PI - math.pi / 1024 - 1.0) * t - t * t / 2.0,
                  lambda t: TWO_PI - math.pi / 1024 - 1.0 - t), "[6.283185]"),
    ], ids=["eight_zeros", "period_end"])
    def test_turning_denominator_names_each_zero(self, theta, where):
        pair = legendre_curvature(circle_frontal(1.0))  # ell = 1 on a periodic grid
        assert len(pair.grid) == 1024
        with pytest.raises(DenominatorError) as exc:
            solve_lambda(pair, MateConfig(theta, constant_fn(HALF_PI)))
        assert str(exc.value) == f"theta' + ell vanishes near t = {where}; the pointwise solve blows up there"

    def test_passing_pointwise_solve_locates_nothing(self, monkeypatch):
        # Only a refusal reads CurvaturePair.straight and places zeros.
        def fail(*args):
            raise AssertionError("a passing pointwise solve located zeros")

        monkeypatch.setattr(mates, "_zeros", fail)
        monkeypatch.setattr(legendre.CurvaturePair, "straight", property(fail))
        assert special_operator(astroid_frontal(256), "evolute").lam.mode == "algebraic"


def inverse_fixture_cases():
    """Solvable named-operator configurations on both standard curves.

    Initial values for exponentially unstable directions sit on the bounded
    family member, mirroring the closed-form families of those operators.
    """
    circle = circle_frontal(1.0)
    astroid = astroid_frontal()
    quarter, third = math.pi / 4.0, math.pi / 3.0
    cases = []
    for lc, name in ((circle, "circle"), (astroid, "astroid")):
        cases.append((name, lc, "evolute", {}))
        cases.append((name, lc, "involute", {"lambda0": 0.4}))
        cases.append((name, lc, "parallel", {"lambda0": 0.3}))
        cases.append((name, lc, "evolutoid", {"theta": quarter}))
    cases.append(("circle", circle, "involutoid", {"tau": quarter, "lambda0": 1.0 / math.tan(quarter) + 0.1}))
    cases.append(("astroid", astroid, "involutoid", {"tau": quarter, "lambda0": 0.1}))
    cases.append(("circle", circle, "nvolute", {"theta": third, "lambda0": -1.0 / math.cos(third) + 0.1}))
    cases.append(
        ("astroid", astroid, "nvolute",
         {"theta": third, "lambda0": 3.0 * math.sin(third) / (4.0 * math.sin(third) ** 2 + math.cos(third) ** 2)})
    )
    cases.append(("circle", circle, "tvolute", {"tau": third, "lambda0": 1.0 / math.sin(third)}))
    cases.append(("astroid", astroid, "tvolute", {"tau": third, "lambda0": 0.2}))
    return cases


class TestInverseAndCompose:
    @pytest.mark.parametrize(
        "name,lc,which,kw",
        inverse_fixture_cases(),
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_inverse_recovers_source(self, name, lc, which, kw):
        mp = special_operator(lc, which, **kw)
        back = inverse_mate(mp)
        ts = mp.lam.grid
        pos_err = np.max(np.linalg.norm(back.mate.gamma.position(ts) - lc.gamma.position(ts), axis=-1))
        nrm_err = np.max(np.linalg.norm(back.mate.nu(ts) - lc.nu(ts), axis=-1))
        assert pos_err <= 1e-6, (which, pos_err)
        assert nrm_err <= 1e-8, (which, nrm_err)
        assert np.max(np.abs(back.lam.lam + mp.lam.lam)) == 0.0

    def test_parallel_inverse_is_exact(self):
        lc = circle_frontal(1.0)
        mp = special_operator(lc, "parallel", lambda0=0.25)
        back = inverse_mate(mp)
        ts = mp.lam.grid
        assert np.max(np.linalg.norm(back.mate.gamma.position(ts) - lc.gamma.position(ts), axis=-1)) <= 1e-15

    def test_parallel_composition_matches_direct(self):
        lc = circle_frontal(1.0)
        ts = lc.interval.grid
        p1 = special_operator(lc, "parallel", lambda0=0.3)
        p2 = special_operator(p1.mate, "parallel", lambda0=0.45)
        comp = compose_mates(p1, p2)
        direct = special_operator(lc, "parallel", lambda0=0.75)
        gap = np.max(np.linalg.norm(comp.mate.gamma.position(ts) - direct.mate.gamma.position(ts), axis=-1))
        assert gap <= 1e-6 * lc.gamma.extent
        assert np.max(np.abs(comp.lam.lam - 0.75)) <= 1e-12

    def test_opposite_parallels_cancel(self):
        lc = circle_frontal(1.0)
        p1 = special_operator(lc, "parallel", lambda0=0.3)
        p2 = special_operator(p1.mate, "parallel", lambda0=-0.3)
        rep = compose_mates(p1, p2)
        assert isinstance(rep, IdentityReport)
        assert rep.passed and rep.position_gap <= 1e-12

    def test_evolute_involute_identity(self):
        lc = circle_frontal(1.0)
        ev = special_operator(lc, "evolute")
        inv = special_operator(ev.mate, "involute", lambda0=float(-ev.lam.lam[0]))
        rep = compose_mates(ev, inv)
        assert isinstance(rep, IdentityReport)
        assert rep.passed

    def test_pairs_carry_their_source_curvature(self, monkeypatch):
        lc = circle_frontal(1.0)
        p1 = special_operator(lc, "parallel", lambda0=0.3)
        p2 = special_operator(p1.mate, "parallel", lambda0=0.45)
        back = inverse_mate(p1)
        assert back.source_curvature is p1.mate_curvature
        # composing and converting reuse the carried pairs
        monkeypatch.setattr(mates, "legendre_curvature", lambda lc: pytest.fail("source pair recomputed"))
        comp = compose_mates(p1, p2)
        assert comp.source_curvature is p1.source_curvature
        assert regular_to_legendre_mates(comp).report.is_mate

    def test_compose_rejects_unchained_pairs(self):
        lc = circle_frontal(1.0)
        p1 = special_operator(lc, "parallel", lambda0=0.3)
        with pytest.raises(ValueError, match="do not coincide"):
            compose_mates(p1, p1)

    def test_compose_names_a_grid_mismatch(self):
        p256 = special_operator(astroid_frontal(256), "parallel", lambda0=0.1)
        p512 = special_operator(astroid_frontal(512), "parallel", lambda0=0.1)
        with pytest.raises(ValueError, match=r"^mate pairs live on different grids: 256 samples .* and 512 samples"):
            compose_mates(p256, p512)

    def test_pairs_store_the_direction_tolerance(self):
        lc = astroid_frontal(512)
        p1 = special_operator(lc, "parallel", lambda0=0.3)
        p2 = special_operator(p1.mate, "parallel", lambda0=0.45)
        assert p1.direction_tolerance == mates.mate_tol(lc.gamma.extent, lc.gamma.kind)
        assert p1.direction_residual <= p1.direction_tolerance
        assert compose_mates(p1, p2).direction_tolerance == p1.direction_tolerance

    def test_ode_convergence_is_fourth_order(self):
        errs = {}
        for n in (512, 1024):
            lc = circle_frontal(1.0, n)
            lam0 = 1.0 / math.tan(math.pi / 4) + 0.01
            mp = special_operator(lc, "involutoid", tau=math.pi / 4, lambda0=lam0)
            t = mp.lam.grid
            expected = 1.0 / math.tan(math.pi / 4) + 0.01 * np.exp(math.tan(math.pi / 4) * t)
            errs[n] = np.max(np.abs(mp.lam.lam - expected))
        assert errs[512] / errs[1024] >= 12.0


class TestMateRelation:
    def test_parallel_pair_is_detected(self):
        lc = circle_frontal(1.0)
        mp = special_operator(lc, "parallel", lambda0=0.4)
        rep = check_mate_relation(lc, mp.mate, constant_fn(0.0))
        assert rep.is_mate
        assert np.max(np.abs(rep.lam - 0.4)) <= 1e-12
        # the coincident field sits at tau = 0 in the mate frame
        assert np.max(np.abs(rep.tau_samples)) <= 1e-12

    def test_shifted_circle_is_not_a_mate_along_the_normal(self):
        lc = circle_frontal(1.0)
        other = circle_frontal(1.0, center=(0.5, 0.0))
        rep = check_mate_relation(lc, other, constant_fn(0.0))
        assert not rep.is_mate

    def test_curves_on_different_grids_are_refused_by_name(self):
        with pytest.raises(ValueError, match=r"^the curves live on different grids: 512 samples .* and 256 samples"):
            check_mate_relation(astroid_frontal(512), astroid_frontal(256), constant_fn(0.0))


class TestGridQuantitiesOnce:
    @staticmethod
    def _on_grid_counter(fn: ScalarFn, name: str, grid, calls) -> ScalarFn:
        """fn, counting in calls[name + ".eval" / ".deriv"] its evaluations on grid."""
        def counted(f, key):
            return lambda t: calls.update([key] if np.array_equal(t, grid) else []) or f(t)

        return ScalarFn(eval=counted(fn.eval, f"{name}.eval"), deriv=counted(fn.deriv, f"{name}.deriv"))

    def test_mate_job_samples_each_angle_once(self):
        interval = ParamInterval(0.0, TWO_PI, 1024, periodic=True)
        lc = from_regular(build_builtin(BuiltinSpec("ellipse", {"a": 2.0, "b": 1.0}, interval)))
        grid, calls = interval.grid, collections.Counter()
        theta = self._on_grid_counter(constant_fn(0.4), "theta", grid, calls)
        tau = self._on_grid_counter(constant_fn(0.3), "tau", grid, calls)
        cfg = MateConfig(theta, tau, lambda0=0.2)
        pair = legendre_curvature(lc)
        mp = build_mate(lc, cfg, solve_lambda(pair, cfg, extent=lc.gamma.extent), pair=pair)
        assert verify_mate_curvature(mp).passed
        ident = compose_mates(mp, inverse_mate(mp))
        assert isinstance(ident, IdentityReport) and ident.passed
        assert calls == {"theta.eval": 1, "theta.deriv": 1, "tau.eval": 1, "tau.deriv": 1}

    def test_constant_angles_are_never_evaluated_on_the_grid(self, monkeypatch):
        monkeypatch.setattr(mates, "fd_mismatch", None)  # a constant's derivative is exact: nothing checks it
        interval = ParamInterval(0.0, TWO_PI, 1024, periodic=True)
        lc = from_regular(build_builtin(BuiltinSpec("ellipse", {"a": 2.0, "b": 1.0}, interval)))
        grid, calls = interval.grid, collections.Counter()
        theta, tau = (self._on_grid_counter(constant_fn(v), name, grid, calls)._replace(const=v)
                      for name, v in (("theta", 0.4), ("tau", 0.3)))
        cfg = MateConfig(theta, tau, lambda0=0.2)
        pair = legendre_curvature(lc)
        mp = build_mate(lc, cfg, solve_lambda(pair, cfg, extent=lc.gamma.extent), pair=pair)
        assert verify_mate_curvature(mp).passed
        assert compose_mates(mp, inverse_mate(mp)).passed
        assert not calls

    @pytest.mark.parametrize("curve", ["astroid", "ellipse"])
    @pytest.mark.parametrize("which", mates.SPECIAL_OPERATORS)
    def test_named_job_takes_one_cos_and_one_sin_of_the_grid(self, monkeypatch, curve, which):
        from conftest import grid_trig_counter

        n = 1024
        calls = grid_trig_counter(monkeypatch, n)
        if curve == "astroid":
            lc = astroid_frontal(n, scale=1.3)
        else:
            lc = from_regular(build_builtin(BuiltinSpec("ellipse", {"a": 1.5, "b": 0.8},
                                                        ParamInterval(0.0, TWO_PI, n, periodic=True))))
        mp = special_operator(lc, which, theta=0.7, tau=-0.6, lambda0=0.3)
        assert verify_mate_curvature(mp).passed
        assert compose_mates(mp, inverse_mate(mp)).passed
        assert (calls["cos"], calls["sin"], calls["tan"]) == (1, 1, 0)

    @staticmethod
    def _named_source(curve, n):
        if curve == "astroid":
            return astroid_frontal(n, scale=1.3)
        return from_regular(build_builtin(BuiltinSpec("ellipse", {"a": 1.5, "b": 0.8},
                                                      ParamInterval(0.0, TWO_PI, n, periodic=True))))

    @pytest.mark.parametrize("curve", ["astroid", "ellipse"])
    @pytest.mark.parametrize("which", mates.SPECIAL_OPERATORS)
    def test_named_roundtrip_differences_three_fields_and_turns_six_times(self, monkeypatch, curve, which):
        from frontals import planar

        n, fields, turns, allclose = 1024, [], [], []
        node_d, turn = curves.node_d, planar.turn
        for module in (curves, legendre, mates):
            monkeypatch.setattr(module, "node_d", lambda f, *a, **k: fields.append(np.shape(f)) or node_d(f, *a, **k))
        for module in (planar, mates):
            monkeypatch.setattr(module, "turn", lambda *a: turns.append(1) or turn(*a))
        lc = self._named_source(curve, n)
        mp = special_operator(lc, which, theta=0.7, tau=-0.6, lambda0=0.3)
        assert verify_mate_curvature(mp).passed
        inverse = inverse_mate(mp)
        monkeypatch.setattr(np, "allclose", lambda *a, _f=np.allclose, **k: allclose.append(1) or _f(*a, **k))
        assert compose_mates(mp, inverse).passed
        # mate positions, mate normals (the cross-check reads their nu'), inverse positions
        assert [shape for shape in fields if shape == (n, 2)] == [(n, 2)] * 3
        assert len(turns) <= 6 and not allclose

    @pytest.mark.parametrize("curve", ["astroid", "ellipse"])
    def test_inverse_composition_reports_as_the_general_path(self, curve):
        mp = special_operator(self._named_source(curve, 1024), "involutoid", tau=-0.6, lambda0=0.3)
        inverse = inverse_mate(mp)
        # the middle curve and the grid as distinct copies: the composition checks them as any pair
        middle = legendre.frontal_from_normal(curves.build_sampled(mp.lam.grid, mp.mate.gamma.on_grid("position"),
                                                                   periodic=mp.mate.interval.periodic),
                                              mp.mate.on_grid("nu"))
        general = inverse._replace(source=middle, lam=inverse.lam._replace(grid=inverse.lam.grid.copy()))
        ident = compose_mates(mp, inverse)
        assert isinstance(ident, IdentityReport) and ident.passed
        assert ident == compose_mates(mp, general)

    def test_config_samples_each_grid_it_meets(self):
        """A config holds no samples: solved on 512, 1024 and 512 samples it
        gives the bits of a fresh config, and its solution carries the samples."""
        cfg = MateConfig(linear_fn(0.2, 0.5), linear_fn(-0.1, 0.1), lambda0=0.3)
        for n in (512, 1024, 512):
            pair = legendre_curvature(circle_frontal(1.0, n))
            a = cfg.angles(pair.grid)
            assert np.array_equal(a.th, 0.2 + 0.5 * pair.grid) and np.array_equal(a.tad, np.full(n, 0.1))
            assert np.array_equal(a.sin_ta, np.sin(-0.1 + 0.1 * pair.grid))
            assert cfg == MateConfig(cfg.theta, cfg.tau, cfg.lambda0)
            sol, fresh = solve_lambda(pair, cfg), solve_lambda(pair, MateConfig(cfg.theta, cfg.tau, cfg.lambda0))
            for got, want in ((sol.lam, fresh.lam), (sol.residual, fresh.residual), *zip(sol.angles, a)):
                assert got.tobytes() == want.tobytes()

    def test_direction_is_the_turned_source_normal(self):
        mp = special_operator(astroid_frontal(512), "nvolute", theta=0.7, lambda0=0.3)
        a = mp.config.angles(mp.lam.grid)
        assert mp.direction.tobytes() == turn(mp.source.on_grid("nu"), a.cos_th, a.sin_th).tobytes()

    @pytest.mark.parametrize("curve", ["astroid", "ellipse"])
    @pytest.mark.parametrize("which", mates.SPECIAL_OPERATORS)
    def test_inverse_direction_gap_is_the_direction_residual(self, curve, which):
        """The inverse's direction field is the w_bar that build_mate measured
        the forward field against, so the identity composition's direction
        gap is the forward pair's direction residual, bit for bit."""
        mp = special_operator(self._named_source(curve, 1024), which, theta=0.7, tau=-0.6, lambda0=0.3)
        inverse = inverse_mate(mp)
        assert float(np.max(row_norm(mp.direction - inverse.direction))) == mp.direction_residual

    def test_ode_solve_builds_no_spline(self, monkeypatch):
        pair = legendre_curvature(astroid_frontal())
        forbid_scipy_solvers(monkeypatch)
        lam = solve_lambda(pair, MateConfig(constant_fn(HALF_PI), constant_fn(0.0), lambda0=0.75))
        assert lam.mode == "ode"

    @staticmethod
    def _uniform_interp(values, frac, periodic):
        """The stencil interpolation the scale solver read before the local
        quintic kernel, kept as the bitwise reference of its fixed-fraction
        reads: samples at frac of the way through each cell, from the 6-point
        Lagrange stencil centred on the cell, wrapped on a periodic grid and
        shifted inward at the ends of an open one."""
        def weights(x):  # of the stencil's nodes -2, ..., 3 (from the cell start) at x
            return np.array([np.prod([(x - m) / (xj - m) for m in range(-2, 4) if m != xj]) for xj in range(-2, 4)])

        f = np.asarray(values, dtype=float)
        n = len(f)
        w = weights(frac)
        if periodic:
            fp = np.concatenate((f[-2:], f, f[:3]))
            return sum(w[j] * fp[j : j + n] for j in range(6))
        out = np.empty((n - 1,) + f.shape[1:])
        out[2:-2] = sum(w[j] * f[j : j + n - 5] for j in range(6))
        for k in (0, 1, n - 3, n - 2):
            base = min(max(k, 2), n - 4)
            out[k] = weights(k - base + frac) @ f[base - 2 : base + 4]
        return out

    @pytest.mark.parametrize("frac", [0.25, 0.5, 0.75])
    def test_uniform_interp_reproduces_quintics_and_periodic_samples(self, frac):
        def at_frac(values, periodic):
            got = local_quintic(values, np.arange(len(values) - (not periodic)), frac, periodic)
            assert np.array_equal(got, self._uniform_interp(values, frac, periodic))
            return got

        coefs = np.random.default_rng(3).normal(size=6)
        for n in (16, 41):
            t = np.linspace(-1.0, 2.0, n)
            got = at_frac(np.polyval(coefs, t), periodic=False)
            want = np.polyval(coefs, t[:-1] + frac * (t[1] - t[0]))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            # derivatives at off-grid times, the end cells included
            off = t[:-1] + frac * (t[1] - t[0])
            read = quintic_fn(t, np.polyval(coefs, t), False, t[-1])
            for nu in (1, 2):
                want = np.polyval(np.polyder(coefs, nu), off)
                assert np.max(np.abs(read(off, nu) - want)) <= 1e-12 * np.max(np.abs(want))
        t = np.arange(2048) * (TWO_PI / 2048)
        got = at_frac(np.stack((np.sin(3.0 * t), np.cos(3.0 * t)), axis=-1), periodic=True)
        want = np.stack((np.sin(3.0 * (t + frac * t[1])), np.cos(3.0 * (t + frac * t[1]))), axis=-1)
        assert np.max(np.abs(got - want)) <= 1e-13
        # derivatives at off-grid times, across the seam and a period away
        off = np.concatenate((t + frac * t[1], [-frac * t[1], TWO_PI + frac * t[1]]))
        read = quintic_fn(t, np.stack((np.sin(3.0 * t), np.cos(3.0 * t)), axis=-1), True, TWO_PI)
        d1, d2 = read(off, (1, 2))
        assert np.max(np.abs(d1 - 3.0 * np.stack((np.cos(3.0 * off), -np.sin(3.0 * off)), axis=-1))) <= 1e-11
        assert np.max(np.abs(d2 + 9.0 * np.stack((np.sin(3.0 * off), np.cos(3.0 * off)), axis=-1))) <= 1e-8

    def test_astroid_involute_meets_the_gate_in_one_solve(self, monkeypatch):
        # n = 256 is where the grid-step RK4 needed a retry at half the step;
        # the integrating factor meets the residual gate with one evaluation.
        pair = legendre_curvature(astroid_frontal(256))
        attempts = []
        monkeypatch.setattr(mates, "condition_residual",
                            lambda *a, _f=mates.condition_residual: attempts.append(a) or _f(*a))
        lam = solve_lambda(pair, MateConfig(constant_fn(HALF_PI), constant_fn(0.0), lambda0=0.4))
        assert len(attempts) == 1
        assert np.max(np.abs(lam.lam - (0.75 * np.cos(2.0 * pair.grid) - 0.35))) <= 2e-8

    def test_closing_ode_lambda_wraps_its_derivative_stencil(self):
        # lambda closes over the period, so lambda' wraps the quintic stencil
        # and the residual at samples 0 and n - 1 is at the interior's level
        # (one-sided stencils read 0.47 and 0.094 of lambda_tol there).
        mp = special_operator(astroid_frontal(256), "involute", lambda0=0.4)
        ratio = np.abs(mp.lam.residual) / mates.lambda_tol(mp.source_curvature, mp.lam.angles, mp.lam.lam)
        assert max(ratio[0], ratio[-1]) <= 1.1 * np.max(ratio[1:-1])
        assert np.max(ratio) <= 0.06


def _array_path(fn: ScalarFn) -> ScalarFn:
    """fn without its constant: sampled on the grid as any other function."""
    return ScalarFn(fn.eval, fn.deriv)


class TestConstantAnglesAreNumbers:
    """A constant angle is sampled as one number, and every result equals
    that of the same angles sampled as arrays, bit for bit: numpy's cos, sin
    and tan of a number equal those of an array of it."""

    CASES = [("parallel", {"lambda0": 0.3}), ("evolute", {}), ("involute", {"lambda0": 0.4}),
             ("evolutoid", {"theta": math.pi / 4.0}), ("involutoid", {"tau": math.pi / 4.0, "lambda0": 0.1}),
             ("nvolute", {"theta": math.pi / 3.0, "lambda0": 0.2}), ("tvolute", {"tau": -math.pi / 3.0, "lambda0": 0.2}),
             ("ode", {"theta": 0.7, "tau": -0.4, "lambda0": 0.3})]

    @staticmethod
    def _outputs(lc, config):
        pair = legendre_curvature(lc)
        mp = build_mate(lc, config, solve_lambda(pair, config, extent=lc.gamma.extent), pair)
        inv = inverse_mate(mp)
        arrays = [mp.lam.lam, mp.lam.lam_d1, mp.lam.residual, mp.lam.tolerance, mp.mate.gamma.on_grid("position"),
                  mp.mate.on_grid("nu"), mp.mate_curvature.ell, mp.mate_curvature.beta, mp.direction,
                  inv.lam.residual, inv.lam.tolerance, inv.mate.gamma.on_grid("position"), inv.mate.on_grid("nu"),
                  inv.mate_curvature.ell, inv.mate_curvature.beta]
        scalars = [mp.lam.wrap_value, mp.direction_residual, mp.mate_tangency_residual, inv.direction_residual,
                   *verify_mate_curvature(mp), *compose_mates(mp, inv)]
        return [np.asarray(v, dtype=float).tobytes() for v in arrays + scalars]

    @pytest.mark.parametrize("curve", ["astroid", "open random frontal"])
    @pytest.mark.parametrize("which, kw", CASES, ids=[c[0] for c in CASES])
    def test_constant_angles_match_the_array_path(self, curve, which, kw):
        from conftest import random_frontal

        lc = astroid_frontal(512) if curve == "astroid" else random_frontal(3, 512)  # no inflection: ell > 0.9
        if which == "ode":
            cfg = MateConfig(constant_fn(kw["theta"]), constant_fn(kw["tau"]), kw["lambda0"])
        else:
            cfg = mates.operator_config(which, **kw)
        arrays = MateConfig(_array_path(cfg.theta), _array_path(cfg.tau), cfg.lambda0)
        assert cfg.theta.const is not None and arrays.theta.const is None
        assert self._outputs(lc, cfg) == self._outputs(lc, arrays)

    def test_sums_and_negations_of_constants_stay_numbers(self):
        a, b, c = constant_fn(0.3), constant_fn(-1.1), constant_fn(0.7)
        total = add_fns(a, negate_fn(b), c)
        assert total.const == total.eval(np.zeros(4))[0] == (0 + 0.3) + 1.1 + 0.7
        assert add_fns(a, linear_fn(0.0, 1.0)).const is None and negate_fn(a).const == -0.3
