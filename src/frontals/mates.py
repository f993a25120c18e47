"""Mate constructions for curves with normal fields.

A mate of (gamma, nu) is gamma_bar = gamma + lambda * v where the direction
field v = cos(theta) nu + sin(theta) mu coincides with the field
w_bar = cos(tau) nu_bar + sin(tau) mu_bar seen from the mate.  The scale
function lambda is pinned by one first-order condition,

    (beta sin(theta) + lambda') cos(tau)
        - (beta cos(theta) + lambda (theta' + ell)) sin(tau) = 0,

solved here either as an explicit linear ODE (by its integrating factor, when
cos(tau) stays away from zero) or pointwise (when cos(tau) vanishes
identically).  The classical named constructions (parallel, evolute,
involute, evolutoid, involutoid and the two rotating-frame families) are
specific (theta, tau) instantiations of the same machinery, and every mate
carries enough structure to be inverted or composed.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple, Optional

import numpy as np

from .curves import (
    CurveModel,
    SingularCurveError,
    _bbox_diagonal,
    cumulative_integral,
    fd_d1,
    fd_mismatch,
    node_d1,
    sampled_model,
    FD_TOL,
    REG_TOL_SCALE,
)
from .legendre import (
    CROSS_TOL,
    CurvaturePair,
    LegendreCurve,
    from_regular,
    frontal_from_normal,
    legendre_curvature,
    regular_arcs,
    subinterval_mask,
    tangency_residual,
)
from .planar import ScalarFn, add_fns, constant_fn, frame_field, negate_fn, rotate_j, row_dot, row_norm, scale_rows, turn

# Nothing calls these names; perfbench/tracing.py wraps them until ROADMAP item 5 deletes them.
CubicSpline = None
_rk4_linear = None

# cos(tau) must stay this far from zero for the explicit ODE direction.
ANGLE_TOL = 1e-6
ODE_TOL_SCALE = 1e-7
MATE_TOL_ANALYTIC = 1e-6
MATE_TOL_SAMPLED = 1e-3
# The pointwise solve rejects grid points where |theta' + ell| falls to this
# fraction of its maximum.
DENOM_RTOL = 1e-5
# Advisory threshold: a scale function this small never separates the mate
# from its source anywhere on the curve.
LAMBDA_ZERO_SCALE = 1e-10
# Relative gap between lambda at the period end and lambda[0] within which
# lambda closes over the period.
CLOSURE_RTOL = 1e-9
# Largest |int A| the integrating factor E = exp(int A) of the ODE may reach:
# E and 1 / E stay within e^600 ~ 4e260, which leaves B / E and lambda0
# about 1e47 before the floats overflow at 1.8e308.
LOG_GROWTH_MAX = 600.0

_HALF_PI = math.pi / 2.0
# Named mate constructions: name -> ((theta, tau) from the given angles, the
# angle the construction requires).  Evolute and evolutoid solve pointwise.
OPERATOR_TABLE = {
    "parallel": (lambda theta, tau: (0.0, 0.0), None),  # lambda = lambda0
    "evolute": (lambda theta, tau: (0.0, _HALF_PI), None),
    "involute": (lambda theta, tau: (_HALF_PI, 0.0), None),
    "evolutoid": (lambda theta, tau: (theta, _HALF_PI), "theta"),
    "involutoid": (lambda theta, tau: (_HALF_PI, tau), "tau"),
    "nvolute": (lambda theta, tau: (theta, theta + _HALF_PI), "theta"),
    "tvolute": (lambda theta, tau: (tau + _HALF_PI, tau), "tau"),
}
SPECIAL_OPERATORS = tuple(OPERATOR_TABLE)


class DenominatorError(ValueError):
    """Pointwise solve divides by theta' + ell, which vanishes on the grid."""

    def __init__(self, message, locations):
        super().__init__(message)
        self.locations = locations


class ResidualError(ValueError):
    """The solved scale function fails the defining condition."""


# theta, tau and their derivatives on a grid, with the cosines and sines of
# theta and tau; a constant angle's are 0-d, and broadcast against the grid.
AngleSamples = namedtuple("AngleSamples", "th thd ta tad cos_th sin_th cos_ta sin_ta")


def _sample(fn: ScalarFn, ts: np.ndarray):
    """(fn, fn') on the grid ts: a constant as its value and 0.0."""
    if fn.const is not None:
        return np.float64(fn.const), np.float64(0.0)
    return np.asarray(fn.eval(ts), dtype=float), np.asarray(fn.deriv(ts), dtype=float)


class MateConfig(NamedTuple):
    """Angle functions and the initial scale value."""

    theta: ScalarFn
    tau: ScalarFn
    lambda0: float = 0.0

    def angles(self, ts: np.ndarray) -> AngleSamples:
        """Samples of the angle functions on the grid ts."""
        (th, thd), (ta, tad) = _sample(self.theta, ts), _sample(self.tau, ts)
        return AngleSamples(th, thd, ta, tad, np.cos(th), np.sin(th), np.cos(ta), np.sin(ta))


class LambdaSolution(NamedTuple):
    grid: np.ndarray
    lam: np.ndarray
    lam_d1: np.ndarray
    residual: np.ndarray
    tolerance: np.ndarray  # lambda_tol of lam, pointwise
    mode: str  # ode | algebraic | prescribed
    near_zero: bool
    wrap_value: Optional[float]  # value at the period end, when meaningful
    angles: AngleSamples  # the angle samples lam was solved or prescribed with

    @property
    def lambda0_ignored(self) -> bool:
        """The pointwise solve pins lambda without lambda0."""
        return self.mode == "algebraic"


def lambda_tol(pair: CurvaturePair, angles: AngleSamples, lam) -> np.ndarray:
    """Pointwise tolerance of the condition residual of the scale function
    lam: ODE_TOL_SCALE * max(max|beta|, |lam (theta' + ell)|, 1).

    The residual differences lam, so its rounding and truncation errors grow
    with |lam|; where |lam (theta' + ell)| <= max|beta| the tolerance is
    ODE_TOL_SCALE * max(max|beta|, 1), and it is never below that.
    """
    floor = max(float(np.max(np.abs(pair.beta))), 1.0)
    return ODE_TOL_SCALE * np.maximum(np.abs(lam * (angles.thd + pair.ell)), floor)


def mate_tol(extent: float, kind: str) -> float:
    scale = MATE_TOL_ANALYTIC if kind == "analytic" else MATE_TOL_SAMPLED
    return scale * extent + 1e-12


def condition_residual(pair: CurvaturePair, a: AngleSamples, lam, lam_d1) -> np.ndarray:
    """Pointwise defect of the defining first-order condition."""
    return np.abs(
        (pair.beta * a.sin_th + lam_d1) * a.cos_ta
        - (pair.beta * a.cos_th + lam * (a.thd + pair.ell)) * a.sin_ta
    )


def _near_zero(lam: np.ndarray, extent: float) -> bool:
    return bool(np.max(np.abs(lam)) <= LAMBDA_ZERO_SCALE * extent)


def _solution(pair: CurvaturePair, angles: AngleSamples, lam, lam_d1, mode: str,
              wrap: Optional[float], near_zero: bool) -> LambdaSolution:
    """Scale function lam (derivative lam_d1) on pair's grid, with the defect
    of the defining condition for `angles` and its tolerance lambda_tol."""
    residual = condition_residual(pair, angles, lam, lam_d1)
    return LambdaSolution(pair.grid, lam, lam_d1, residual, lambda_tol(pair, angles, lam), mode, near_zero, wrap,
                          angles)


def _gate(sol: LambdaSolution) -> LambdaSolution:
    """sol, unless its condition residual exceeds its tolerance at some grid
    point; the error names the point where it does so the most."""
    k = int(np.argmax(sol.residual / sol.tolerance))
    if not sol.residual[k] <= sol.tolerance[k]:
        raise ResidualError(f"lambda residual {sol.residual[k]:.3g} exceeds {sol.tolerance[k]:.3g} "
                            f"at t = {sol.grid[k]:.6g}")
    return sol


def resolve_mode(cos_tau) -> str:
    """The solve that these samples of cos(tau) pick: the ODE where
    cos(tau) != 0 on the whole grid, the pointwise solve where cos(tau) = 0 on it."""
    cos_tau = np.abs(cos_tau)
    if np.max(cos_tau) <= ANGLE_TOL:
        return "algebraic"
    if np.min(cos_tau) > ANGLE_TOL:
        return "ode"
    raise ValueError("cos(tau) mixes zero and nonzero values on the grid, so neither the ODE "
                     "(cos(tau) != 0) nor the pointwise solve (cos(tau) = 0) applies")


def solve_lambda(pair: CurvaturePair, config: MateConfig, extent: float = 1.0) -> LambdaSolution:
    """Scale function satisfying the mate condition for this curvature pair.

    tau picks the solve (resolve_mode).  Where cos(tau) != 0 it solves the
    ODE lambda' = A lambda + B from lambda0, with
    A = tan(tau) (theta' + ell) and B = beta (tan(tau) cos(theta) - sin(theta)),
    as lambda = E (lambda0 + int B / E) with E = exp(int A), both integrals
    by cumulative_integral on the grid; it raises ResidualError when |int A|
    exceeds LOG_GROWTH_MAX.  Where cos(tau) = 0 it divides
    lambda = -beta cos(theta) / (theta' + ell) and ignores lambda0.
    On a periodic pair the period end is one more sample; lambda there is wrap_value.
    The residual is evaluated with a differenced lambda', so it measures the
    solve rather than restating the construction, and either solve raises
    ResidualError when it exceeds lambda_tol.
    """
    ts = pair.grid
    n = len(ts)
    h = pair.step
    a = config.angles(ts)
    # One-sided differencing regardless of grid periodicity: angle functions
    # need not close over the period (a linear sweep is legitimate).  A
    # constant's derivative is exact.
    for name, fn, vals, dv in (("theta", config.theta, a.th, a.thd), ("tau", config.tau, a.ta, a.tad)):
        err = 0.0 if fn.const is not None else fd_mismatch(vals, dv, h)
        if err > FD_TOL:
            raise ValueError(f"{name}.deriv disagrees with {name}.eval (relative error {err:.2g})")

    mode = resolve_mode(a.cos_ta)
    cols = [a.thd, pair.ell, pair.beta, a.cos_th, a.sin_th, np.tan(a.ta)]
    if pair.periodic:  # the period end: the angles there, beta and ell wrapped to sample 0
        th_e, thd_e, ta_e = (float(f(pair.interval_end))
                             for f in (config.theta.eval, config.theta.deriv, config.tau.eval))
        ends = (thd_e, pair.ell[0], pair.beta[0], math.cos(th_e), math.sin(th_e), math.tan(ta_e))
        cols = [np.append(np.broadcast_to(c, ts.shape), e) for c, e in zip(cols, ends)]
    thd, ell, beta, cos_th, sin_th, tan_ta = cols

    if mode == "algebraic":
        denom = thd + ell
        grid_denom = np.abs(denom[:n])  # the gate reads the grid samples only
        denom_tol = DENOM_RTOL * max(float(np.max(grid_denom)), 1e-30)
        if np.min(grid_denom) <= denom_tol:
            bad = ts[grid_denom <= denom_tol]
            raise DenominatorError(
                f"theta' + ell vanishes near t = {np.round(bad[:6], 6)}; "
                "the pointwise solve blows up there",
                locations=bad,
            )
        y = -beta * cos_th / denom
    else:
        # lambda' = A lambda + B, solved by its integrating factor
        # E = exp(int A) as lambda = E (lambda0 + int B / E).
        coef_a = tan_ta * (thd + ell)
        coef_b = tan_ta * beta * cos_th - beta * sin_th
        # Both integrals run on an open grid: A and B / E need not close over a
        # period (a linear angle sweep is legitimate).
        log_e = cumulative_integral(coef_a, h, periodic=False)
        k = int(np.argmax(np.abs(log_e)))
        if abs(log_e[k]) > LOG_GROWTH_MAX:
            raise ResidualError(f"lambda {'grows' if log_e[k] > 0 else 'decays'} by e^{abs(log_e[k]):.0f}, "
                                "beyond the floats")
        e = np.exp(log_e)
        y = e * (config.lambda0 + cumulative_integral(coef_b / e, h, periodic=False))
    lam, wrap = y[:n], (float(y[n]) if pair.periodic else None)
    # A nonconstant theta can break the period even on a periodic pair, so the
    # stencil wraps only where lambda closes.  The ODE's lambda' differences
    # lambda's own local quintic: the residual measures the solve.
    closes = _closes(lam, wrap)
    lam_d1 = fd_d1(lam, h, periodic=closes) if mode == "algebraic" else node_d1(lam if closes else y, h, closes)[:n]
    return _gate(_solution(pair, a, lam, lam_d1, mode, wrap, _near_zero(lam, extent)))


def mate_curvature(pair: CurvaturePair, lam: LambdaSolution) -> CurvaturePair:
    """Curvature pair of the mate, from the closed formulas
    ell_bar = theta' - tau' + ell and
    beta_bar = (beta cos(theta) + lambda (theta' + ell)) cos(tau)
             + (beta sin(theta) + lambda') sin(tau),
    with the angle samples lam was solved with."""
    a = lam.angles
    ell_bar = a.thd - a.tad + pair.ell
    beta_bar = (pair.beta * a.cos_th + lam.lam * (a.thd + pair.ell)) * a.cos_ta + (
        pair.beta * a.sin_th + lam.lam_d1
    ) * a.sin_ta
    return CurvaturePair.from_samples(pair.grid, ell_bar, beta_bar, _closes(lam.lam, lam.wrap_value))


def _closes(lam: np.ndarray, wrap: Optional[float]) -> bool:
    """Whether lambda's value `wrap` at the period end returns to lam[0], so its mate is periodic."""
    if wrap is None:
        return False
    return abs(wrap - float(lam[0])) <= CLOSURE_RTOL * max(1.0, float(np.max(np.abs(lam))))


class MatePair(NamedTuple):
    """A source curve, its constructed mate, and the data tying them."""

    source: LegendreCurve
    mate: LegendreCurve
    config: MateConfig
    lam: LambdaSolution
    source_curvature: CurvaturePair  # the pair the scale function was solved on
    mate_curvature: CurvaturePair
    direction: np.ndarray  # v = cos(theta) nu + sin(theta) mu on the source frame, on the grid
    direction_residual: float
    direction_tolerance: float  # the direction gate's bound on direction_residual
    mate_tangency_residual: float


def _direction_gate(v: np.ndarray, mate_nu: np.ndarray, a: AngleSamples, tol: float) -> float:
    """max |v - w_bar|, where w_bar = cos(tau) nu_bar + sin(tau) mu_bar on the
    mate frame; rejects a pair whose fields do not coincide within tol."""
    w_bar = turn(mate_nu, a.cos_ta, a.sin_ta)
    res = float(np.max(row_norm(v - w_bar)))
    if res > tol:
        raise ValueError(f"direction fields disagree: {res:.3g} > {tol:.3g}")
    return res


def build_mate(
    lc: LegendreCurve,
    config: MateConfig,
    lam: LambdaSolution,
    pair: CurvaturePair,
) -> MatePair:
    """Assemble the mate curve gamma + lambda v with its rotated normal;
    `pair` is the curvature pair of lc that lam was solved on, and lam holds
    config's angle samples.

    The mate's position derivatives come from the sampled-curve difference
    scheme, so later cross-checks against the curvature formulas compare two
    genuinely different computation paths.
    """
    _gate(lam)
    ts, a = pair.grid, lam.angles
    nu = lc.on_grid("nu")
    v = turn(nu, a.cos_th, a.sin_th)
    positions = scale_rows(v, lam.lam, base=lc.gamma.on_grid("position"))
    mcurv = mate_curvature(pair, lam)
    # build_sampled's model without its copies and grid checks: the pair's grid
    # is uniform, and read-only when it is an interval's.
    grid = ts.copy() if ts.flags.writeable else ts
    mate_gamma = sampled_model(grid, positions, float(np.mean(np.diff(ts))), mcurv.periodic)
    mate_lc = frontal_from_normal(mate_gamma, frame_field(nu, a.th - a.ta))

    dir_tol = mate_tol(lc.gamma.extent, lc.gamma.kind)
    dir_res = _direction_gate(v, mate_lc.on_grid("nu"), a, dir_tol)
    tan_res = tangency_residual(mate_lc)
    if tan_res > mate_lc.leg_tol:
        raise ValueError(f"mate violates tangency: {tan_res:.3g} > {mate_lc.leg_tol:.3g}")

    return MatePair(
        source=lc,
        mate=mate_lc,
        config=config,
        lam=lam,
        source_curvature=pair,
        mate_curvature=mcurv,
        direction=v,
        direction_residual=dir_res,
        direction_tolerance=dir_tol,
        mate_tangency_residual=tan_res,
    )


class CrossCheckReport(NamedTuple):
    max_ell_discrepancy: float
    max_beta_discrepancy: float
    tolerance: float
    passed: bool


def verify_mate_curvature(mp: MatePair) -> CrossCheckReport:
    """Compare the curvature formulas against the pair measured directly on
    the constructed mate (differenced positions, differenced normal)."""
    direct = legendre_curvature(mp.mate)
    formula = mp.mate_curvature
    scale_ell = max(1.0, float(np.max(np.abs(formula.ell))))
    scale_beta = max(1.0, float(np.max(np.abs(formula.beta))))
    d_ell = float(np.max(np.abs(direct.ell - formula.ell))) / scale_ell
    d_beta = float(np.max(np.abs(direct.beta - formula.beta))) / scale_beta
    return CrossCheckReport(
        max_ell_discrepancy=d_ell,
        max_beta_discrepancy=d_beta,
        tolerance=CROSS_TOL,
        passed=max(d_ell, d_beta) <= CROSS_TOL,
    )


def operator_config(which: str, theta: float | None = None, tau: float | None = None,
                    lambda0: float = 0.0) -> MateConfig:
    """MateConfig of a named construction (see OPERATOR_TABLE)."""
    if which not in OPERATOR_TABLE:
        raise ValueError(f"unknown operator {which!r}; expected one of {SPECIAL_OPERATORS}")
    rule, required = OPERATOR_TABLE[which]
    if required is not None and {"theta": theta, "tau": tau}[required] is None:
        raise ValueError(f"{which} needs {required}: it requires --{required} or {required}=")
    th, ta = rule(theta, tau)
    return MateConfig(constant_fn(th), constant_fn(ta), lambda0)


def solve_mate(lc: LegendreCurve, config: MateConfig, pair: CurvaturePair, which: str) -> MatePair:
    """Solve lambda on `pair`, the curvature pair of lc, and build the mate;
    `which` names the construction in the error of a failed pointwise solve."""
    needs_ell = which in ("evolute", "evolutoid")  # theta' = 0: the pointwise solve divides by ell
    if needs_ell and pair.straight:  # ell is 0, or rounding noise that would pass the denominator gate
        raise DenominatorError(f"{which} needs ell != 0; the curve is straight: ell vanishes on every grid sample",
                               locations=pair.grid)
    try:
        lam = solve_lambda(pair, config, extent=lc.gamma.extent)
    except DenominatorError as exc:
        if needs_ell:
            raise DenominatorError(f"{which} needs ell != 0; inflection points near "
                                   f"t = {np.round(exc.locations[:6], 6)}", locations=exc.locations) from exc
        raise
    return build_mate(lc, config, lam, pair=pair)


def special_operator(
    lc: LegendreCurve,
    which: str,
    theta: float | None = None,
    tau: float | None = None,
    lambda0: float = 0.0,
) -> MatePair:
    """Named mate construction `which` (a key of OPERATOR_TABLE) on lc."""
    cfg = operator_config(which, theta, tau, lambda0)
    return solve_mate(lc, cfg, legendre_curvature(lc), which)


def inverse_mate(mp: MatePair) -> MatePair:
    """The mate pair read backwards: angle roles swap and lambda negates.

    The returned pair's mate coincides with the original source.
    """
    a = mp.lam.angles
    cfg = MateConfig(theta=mp.config.tau, tau=mp.config.theta, lambda0=float(-mp.lam.lam[0]))
    swapped = AngleSamples(a.ta, a.tad, a.th, a.thd, a.cos_ta, a.sin_ta, a.cos_th, a.sin_th)
    pair_bar = mp.mate_curvature
    wrap = None if mp.lam.wrap_value is None else -mp.lam.wrap_value
    lam = _solution(pair_bar, swapped, -mp.lam.lam, -mp.lam.lam_d1, "prescribed", wrap, mp.lam.near_zero)
    return build_mate(mp.mate, cfg, lam, pair=pair_bar)


def _require_one_grid(what: str, ts_a: np.ndarray, ts_b: np.ndarray) -> None:
    """Raise, naming both grids, unless ts_a and ts_b are one array or have
    one length and agree within 1e-12."""
    if ts_a is not ts_b and (ts_a.shape != ts_b.shape or not np.allclose(ts_a, ts_b, rtol=0, atol=1e-12)):
        grids = " and ".join(f"{len(g)} samples from {g[0]:.6g} to {g[-1]:.6g}" for g in (ts_a, ts_b))
        raise ValueError(f"{what} live on different grids: {grids}")


class IdentityReport(NamedTuple):
    """Composition whose scale functions cancel: the far curve is the source."""

    max_lambda_sum: float
    position_gap: float
    normal_gap: float
    tolerance: float
    passed: bool


def compose_mates(mp12: MatePair, mp23: MatePair):
    """Chain two mate pairs sharing the middle curve.

    When the scale functions cancel the result is an IdentityReport; else a
    composite MatePair from the first source to the last mate with
    lambda = lambda1 + lambda2.
    """
    ts = mp12.lam.grid
    _require_one_grid("mate pairs", ts, mp23.lam.grid)
    tol = mp12.direction_tolerance

    mid_gap = nrm_gap = 0.0  # the middle curve of an inverse composition is one object
    if mp23.source is not mp12.mate:
        mid_gap = float(np.max(row_norm(mp12.mate.gamma.on_grid("position") - mp23.source.gamma.on_grid("position"))))
        nrm_gap = float(np.max(row_norm(mp12.mate.on_grid("nu") - mp23.source.on_grid("nu"))))
    if mid_gap > tol or nrm_gap > tol:
        raise ValueError(
            f"middle curves do not coincide (position gap {mid_gap:.3g}, normal gap {nrm_gap:.3g})"
        )
    dir_gap = float(np.max(row_norm(mp12.direction - mp23.direction)))
    if dir_gap > tol:
        raise ValueError(f"direction fields do not chain (gap {dir_gap:.3g})")

    lam_sum = mp12.lam.lam + mp23.lam.lam
    src_pos = mp12.source.gamma.on_grid("position")
    far_pos = mp23.mate.gamma.on_grid("position")
    if _near_zero(lam_sum, mp12.source.gamma.extent):
        pos_gap = float(np.max(row_norm(src_pos - far_pos)))
        n_gap = float(np.max(row_norm(mp12.source.on_grid("nu") - mp23.mate.on_grid("nu"))))
        return IdentityReport(
            max_lambda_sum=float(np.max(np.abs(lam_sum))),
            position_gap=pos_gap,
            normal_gap=n_gap,
            tolerance=tol,
            passed=pos_gap <= tol,
        )

    # Composite angles: the target frame accumulates both rotations, so the
    # direction field of the first pair sits at tau1 - theta2 + tau2 in it.
    tau = add_fns(mp12.config.tau, negate_fn(mp23.config.theta), mp23.config.tau)
    cfg = MateConfig(theta=mp12.config.theta, tau=tau, lambda0=float(lam_sum[0]))
    pair1 = mp12.source_curvature
    wrap = None
    if mp12.lam.wrap_value is not None and mp23.lam.wrap_value is not None:
        wrap = mp12.lam.wrap_value + mp23.lam.wrap_value
    # Not near zero: the identity case returned above.
    lam = _gate(_solution(pair1, cfg.angles(ts), lam_sum, mp12.lam.lam_d1 + mp23.lam.lam_d1, "prescribed", wrap,
                          False))

    v1 = mp12.direction
    chain_gap = float(np.max(row_norm(far_pos - scale_rows(v1, lam_sum, base=src_pos))))
    if chain_gap > tol:
        raise ValueError(f"composite translation fails: gap {chain_gap:.3g}")
    dir_res = _direction_gate(v1, mp23.mate.on_grid("nu"), lam.angles, tol)

    return MatePair(
        source=mp12.source,
        mate=mp23.mate,
        config=cfg,
        lam=lam,
        source_curvature=pair1,
        mate_curvature=mate_curvature(pair1, lam),
        direction=v1,
        direction_residual=dir_res,
        direction_tolerance=tol,
        mate_tangency_residual=mp23.mate_tangency_residual,
    )


class RegularBertrandReport(NamedTuple):
    """Evaluation of the regular-curve mate conditions in arc length."""

    grid: np.ndarray  # arc length of each grid sample
    cond1_residual: np.ndarray
    cond2_value: np.ndarray
    is_mate: bool
    mate_curvature: Optional[np.ndarray]
    reg_tol: float  # condition 2 must keep one sign and |condition 2| stay above this for a mate
    regularity_shortfall: float  # reg_tol - min|condition 2|, at least 0; reg_tol where it changes sign


def _regular_report(c: CurveModel, run: slice, speed: np.ndarray, periodic: bool, conditions) -> RegularBertrandReport:
    """Report on the grid samples `run` of c of speed `speed`, at their arc
    length s from the first.  `conditions(s)` gives the Legendre mate's
    condition residual, beta_bar signed by the mate's Frenet frame, and
    ell_bar: over the speed, conditions 1 and 2; ell_bar / |beta_bar|, the
    mate's curvature."""
    s = cumulative_integral(speed, c.interval.step, periodic)
    reg_tol = REG_TOL_SCALE * _bbox_diagonal(c.on_grid("position")[run]) / s[-1]
    s = s[: len(speed)]
    residual, beta_bar, ell_bar = conditions(s)
    cond1, cond2 = residual / speed, beta_bar / speed
    # Where condition 2 changes sign it passes 0 between samples.
    clearance = float(np.min(np.abs(cond2))) if np.all(cond2 > 0) or np.all(cond2 < 0) else 0.0
    is_mate = bool(np.max(cond1) <= ODE_TOL_SCALE and clearance > reg_tol)
    kbar = ell_bar / np.abs(beta_bar) if is_mate else None
    return RegularBertrandReport(s, cond1, cond2, is_mate, kbar, reg_tol, max(0.0, reg_tol - clearance))


def check_regular_bertrand(
    c: CurveModel, theta: ScalarFn, tau: ScalarFn, lam: ScalarFn
) -> RegularBertrandReport:
    """Test the regular-branch mate conditions for given angle and scale
    functions of arc length.

    The functions are read at the arc length s(t_k) of each grid sample; the
    two conditions are

        (cos(theta) + lambda') sin(tau)
            - (sin(theta) - lambda (theta' + kappa)) cos(tau) = 0,
        (cos(theta) + lambda') cos(tau)
            + (sin(theta) - lambda (theta' + kappa)) sin(tau) != 0,

    and when both hold the mate's curvature is
    (theta' - tau' + kappa) / |condition 2|.  Condition 2 must keep one sign
    and |condition 2| stay above REG_TOL_SCALE * extent / arc length.

    Both are read on the canonical lift of c, of curvature
    (|gamma'| kappa, -|gamma'|), with the angles theta - pi/2 and tau - pi/2
    and t-derivatives |gamma'| d/ds: condition 1 is the mate condition's
    residual over |gamma'|, condition 2 is -beta_bar / |gamma'|.
    """
    pair = legendre_curvature(from_regular(c))
    speed = np.abs(pair.beta)

    def conditions(s):
        th, thd, ta, tad, lv, ld = (np.asarray(f(s), dtype=float) for fn in (theta, tau, lam) for f in (fn.eval, fn.deriv))
        th, ta = th - _HALF_PI, ta - _HALF_PI
        a = AngleSamples(th, thd * speed, ta, tad * speed, np.cos(th), np.sin(th), np.cos(ta), np.sin(ta))
        sol = _solution(pair, a, lv, ld * speed, "prescribed", None, False)
        mcurv = mate_curvature(pair, sol)
        return sol.residual, -mcurv.beta, mcurv.ell

    return _regular_report(c, slice(None), speed, c.interval.periodic, conditions)


class RegularMateData(NamedTuple):
    """Frame conversion of a mate pair to the regular-curve formulation."""

    t_start: float
    t_end: float
    sign_beta: int
    sign_beta_bar: int
    theta_reg: ScalarFn  # angles of the direction fields in Frenet frames
    tau_reg: ScalarFn
    report: RegularBertrandReport


def _longest_regular_run(arcs: np.ndarray):
    """(first, last) index of the first longest arc labelled in arcs (see regular_arcs)."""
    counts = np.bincount(arcs)
    if counts.size == 1:
        raise SingularCurveError("no regular subinterval")
    idx = np.flatnonzero(arcs == 1 + np.argmax(counts[1:]))  # argmax picks the first of equal arcs
    return int(idx[0]), int(idx[-1])


def regular_to_legendre_mates(
    mp: MatePair, t0: float | None = None, t1: float | None = None
) -> RegularMateData:
    """Express a mate pair of normal-framed curves as a regular-curve mate.

    Works on a subinterval where both curves are regular; the direction
    angles shift by pi/2 with a sign correction from the sign of beta, and
    the regular-branch conditions on the subinterval's grid samples are read
    from the pair's scale solution and mate curvature, as
    check_regular_bertrand reads them on the canonical lift.
    """
    pair = mp.source_curvature
    pair_bar = mp.mate_curvature
    arcs = regular_arcs(pair, pair_bar)
    ts = pair.grid
    if t0 is not None or t1 is not None:
        idx = np.flatnonzero(subinterval_mask(ts, arcs, t0, t1))
        i_lo, i_hi = int(idx[0]), int(idx[-1])
    else:
        i_lo, i_hi = _longest_regular_run(arcs)
    if i_hi - i_lo + 1 < 16:
        raise SingularCurveError("regular subinterval is too short to evaluate")

    sign_beta, sign_beta_bar = int(np.sign(pair.beta[i_lo])), int(np.sign(pair_bar.beta[i_lo]))

    shift = -_HALF_PI + (0.0 if sign_beta > 0 else math.pi)
    shift_bar = -_HALF_PI + (0.0 if sign_beta_bar > 0 else math.pi)
    theta_reg = add_fns(mp.config.theta, constant_fn(shift))
    tau_reg = add_fns(mp.config.tau, constant_fn(shift_bar))

    # Conditions 1 and 2 are the mate condition's residual and sign_beta_bar * beta_bar over the speed |beta|.
    run = slice(i_lo, i_hi + 1)
    report = _regular_report(mp.source.gamma, run, np.abs(pair.beta[run]), False,
                             lambda s: (mp.lam.residual[run], sign_beta_bar * pair_bar.beta[run], pair_bar.ell[run]))
    return RegularMateData(
        t_start=float(ts[i_lo]),
        t_end=float(ts[i_hi]),
        sign_beta=sign_beta,
        sign_beta_bar=sign_beta_bar,
        theta_reg=theta_reg,
        tau_reg=tau_reg,
        report=report,
    )


class MateRelationReport(NamedTuple):
    """Operational test: are two framed curves mates along a given field?"""

    lam: np.ndarray
    parallel_residual: float
    tau_samples: np.ndarray
    tolerance: float
    is_mate: bool


def check_mate_relation(lc_a: LegendreCurve, lc_b: LegendreCurve, theta: ScalarFn) -> MateRelationReport:
    """Project gamma_b - gamma_a on the field at angle theta from nu_a and
    test that the difference is parallel to it; both curves share one grid."""
    ts = lc_a.interval.grid
    _require_one_grid("the curves", ts, lc_b.interval.grid)
    u = frame_field(lc_a.on_grid("nu"), np.asarray(theta.eval(ts), dtype=float))
    diff = lc_b.gamma.on_grid("position") - lc_a.gamma.on_grid("position")
    lam = row_dot(diff, u)
    res = float(np.max(row_norm(scale_rows(u, lam, base=diff, combine=np.subtract))))
    nu_b = lc_b.on_grid("nu")
    tau_samples = np.arctan2(row_dot(u, rotate_j(nu_b)), row_dot(u, nu_b))
    tol = mate_tol(lc_a.gamma.extent, lc_a.gamma.kind)
    return MateRelationReport(
        lam=lam,
        parallel_residual=res,
        tau_samples=tau_samples,
        tolerance=tol,
        is_mate=res <= tol,
    )
