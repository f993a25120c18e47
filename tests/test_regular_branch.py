import math

import numpy as np
import pytest

from frontals.curves import BuiltinSpec, ParamInterval, SingularCurveError, build_builtin
from frontals.legendre import astroid_frontal, circle_frontal, from_regular
from frontals.mates import _longest_regular_run, check_regular_bertrand, regular_to_legendre_mates, special_operator
from frontals.planar import constant_fn, linear_fn

TWO_PI = 2.0 * math.pi
HALF_PI = math.pi / 2.0


def circle_model(r=1.0, n=1024):
    return build_builtin(BuiltinSpec("circle", {"r": r}, ParamInterval(0.0, TWO_PI, n, periodic=True)))


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

    def test_singular_input_rejected(self):
        ast = build_builtin(BuiltinSpec("astroid", {}, ParamInterval(0.0, TWO_PI, 512, periodic=True)))
        with pytest.raises(SingularCurveError):
            check_regular_bertrand(ast, constant_fn(0.0), constant_fn(0.0), constant_fn(0.5))


def longest_regular_run_loop(mask):
    """Per-sample loop equivalent to _longest_regular_run, as its reference."""
    best = (0, -1)
    start = None
    for i, ok in enumerate(mask):
        if ok and start is None:
            start = i
        if (not ok or i == len(mask) - 1) and start is not None:
            end = i if ok else i - 1
            if end - start > best[1] - best[0]:
                best = (start, end)
            start = None
    return best


def test_longest_regular_run_matches_loop_reference():
    # short masks make ties between equal runs and runs at both ends common
    for seed in range(300):
        rng = np.random.default_rng(seed)
        mask = rng.random(int(rng.integers(1, 24))) < rng.uniform(0.1, 0.9)
        if not mask.any():
            with pytest.raises(SingularCurveError):
                _longest_regular_run(mask)
            continue
        assert _longest_regular_run(mask) == longest_regular_run_loop(mask)


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

    def test_astroid_near_cusp_rejected(self):
        lc = astroid_frontal()
        mp = special_operator(lc, "evolutoid", theta=math.pi / 4)
        with pytest.raises(SingularCurveError):
            regular_to_legendre_mates(mp, t0=-0.2, t1=0.2)

    def test_astroid_regular_arc_converts(self):
        lc = astroid_frontal(2048)
        mp = special_operator(lc, "parallel", lambda0=0.05)
        data = regular_to_legendre_mates(mp, t0=0.35, t1=1.2)
        assert data.report.is_mate
        assert data.sign_beta == 1
