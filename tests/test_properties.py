"""Randomized invariant checks over closed-form fixture curves.

One seeded fixture exercises the whole bundle of structural laws: frame
tangency, the curvature/turning relation on regular subgrids, the sign-flip
law for the reversed normal, direction coincidence of constructed mates, and
the additivity of chained translations.
"""

import numpy as np
import pytest
from conftest import random_frontal

from frontals.curves import determinant_curvature
from frontals.legendre import LegendreCurve, legendre_curvature
from frontals.mates import (
    IdentityReport,
    MateConfig,
    build_mate,
    compose_mates,
    inverse_mate,
    mate_tol,
    solve_lambda,
    special_operator,
    verify_mate_curvature,
)
from frontals.planar import constant_fn


def check_fixture_laws(seed: int) -> None:
    lc = random_frontal(seed, n=1024)
    rng = np.random.default_rng(seed + 1_000_003)
    pair = legendre_curvature(lc)
    ts = pair.grid

    # tangency and frame reconstruction
    g1 = lc.gamma.d1(ts)
    assert np.max(np.abs(np.sum(g1 * lc.nu(ts), axis=-1))) <= lc.leg_tol

    # curvature/turning relation away from singular points
    mask = np.abs(pair.beta) > 1e-3 * max(float(np.max(np.abs(pair.beta))), 1e-30)
    if np.count_nonzero(mask) > 8:
        kappa = determinant_curvature(lc.gamma.d1(ts[mask]), lc.gamma.d2(ts[mask]), ts[mask], lc.gamma.reg_tol)
        resid = np.max(np.abs(pair.ell[mask] - kappa * np.abs(pair.beta[mask])))
        assert resid <= 1e-6 * max(1.0, float(np.max(np.abs(pair.ell))))

    # reversing the normal flips beta and keeps ell
    negated = LegendreCurve(lc.gamma, lambda t: -lc.nu(t), lambda t: -lc.nu_d1(t), lc.interval)
    flipped = legendre_curvature(negated._seed(nu=-lc.on_grid("nu"), nu_d1=-lc.on_grid("nu_d1")))
    assert np.max(np.abs(flipped.ell - pair.ell)) <= 1e-12
    assert np.max(np.abs(flipped.beta + pair.beta)) <= 1e-12

    # a generic mate: direction coincidence, tangency, curvature cross-check
    theta = float(rng.uniform(-1.0, 1.0))
    tau = float(rng.uniform(-0.3, 0.3))
    cfg = MateConfig(constant_fn(theta), constant_fn(tau), lambda0=float(rng.uniform(-0.3, 0.3)))
    lam = solve_lambda(pair, cfg, extent=lc.gamma.extent)
    mp = build_mate(lc, cfg, lam, pair=pair)
    tol = mate_tol(lc.gamma.extent, lc.gamma.kind)
    assert mp.direction_residual <= tol
    assert mp.mate_tangency_residual <= mp.mate.leg_tol
    cross = verify_mate_curvature(mp)
    assert max(cross.max_ell_discrepancy, cross.max_beta_discrepancy) <= 1e-5

    # inverse recovers the source
    back = inverse_mate(mp)
    assert np.max(np.linalg.norm(back.mate.gamma.position(ts) - lc.gamma.position(ts), axis=-1)) <= tol

    # chained translations add; cancelling translations give the identity
    d1_, d2_ = float(rng.uniform(0.05, 0.4)), float(rng.uniform(0.05, 0.4))
    p1 = special_operator(lc, "parallel", lambda0=d1_)
    p2 = special_operator(p1.mate, "parallel", lambda0=d2_)
    comp = compose_mates(p1, p2)
    direct = special_operator(lc, "parallel", lambda0=d1_ + d2_)
    gap = np.max(
        np.linalg.norm(comp.mate.gamma.position(ts) - direct.mate.gamma.position(ts), axis=-1)
    )
    assert gap <= tol
    p_back = special_operator(p1.mate, "parallel", lambda0=-d1_)
    rep = compose_mates(p1, p_back)
    assert isinstance(rep, IdentityReport) and rep.passed


@pytest.mark.parametrize("seed", range(11, 19))
def test_fixture_laws_sample(seed):
    check_fixture_laws(seed)
