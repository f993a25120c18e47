"""Mate constructions for curves with normal fields.

A mate of (gamma, nu) is gamma_bar = gamma + lambda * v where the direction
field v = cos(theta) nu + sin(theta) mu coincides with the field
w_bar = cos(tau) nu_bar + sin(tau) mu_bar seen from the mate.  The scale
function lambda is pinned by one first-order condition,

    (beta sin(theta) + lambda') cos(tau)
        - (beta cos(theta) + lambda (theta' + ell)) sin(tau) = 0,

solved here either as an explicit ODE (classical RK4 on the grid step, when
cos(tau) stays away from zero) or pointwise (when cos(tau) vanishes
identically).  The classical named constructions (parallel, evolute,
involute, evolutoid, involutoid and the two rotating-frame families) are
specific (theta, tau) instantiations of the same machinery, and every mate
carries enough structure to be inverted or composed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline  # not called here; perfbench/tracing.py patches this name

from .curves import (
    CurveModel,
    SingularCurveError,
    arclength_maps,
    arclength_reparametrize,
    build_sampled,
    check_fn_consistency,
    fd_d1,
    regular_curvature,
    restrict,
    spline_fn,
    FD_TOL,
)
from .legendre import (
    CROSS_TOL,
    CurvaturePair,
    LegendreCurve,
    frontal_from_normal,
    legendre_curvature,
    tangency_residual,
)
from .planar import ScalarFn, add_fns, constant_fn, frame_field, negate_fn

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


@dataclass(frozen=True)
class MateConfig:
    """Angle functions, initial scale value, and the solve mode."""

    theta: ScalarFn
    tau: ScalarFn
    lambda0: float = 0.0
    mode: str = "auto"  # ode | algebraic | auto


@dataclass(frozen=True)
class LambdaSolution:
    grid: np.ndarray
    lam: np.ndarray
    lam_d1: np.ndarray
    residual: np.ndarray
    mode: str  # ode | algebraic | prescribed
    near_zero: bool
    wrap_value: Optional[float]  # value at the period end, when meaningful

    @property
    def lambda0_ignored(self) -> bool:
        """The pointwise solve pins lambda without lambda0."""
        return self.mode == "algebraic"


def ode_tol(pair: CurvaturePair) -> float:
    return ODE_TOL_SCALE * max(float(np.max(np.abs(pair.beta))), 1.0)


def mate_tol(extent: float, kind: str = "analytic") -> float:
    scale = MATE_TOL_ANALYTIC if kind == "analytic" else MATE_TOL_SAMPLED
    return scale * extent + 1e-12


def condition_residual(pair: CurvaturePair, config: MateConfig, lam, lam_d1) -> np.ndarray:
    """Pointwise defect of the defining first-order condition."""
    ts = pair.grid
    th = np.asarray(config.theta.eval(ts), dtype=float)
    thd = np.asarray(config.theta.deriv(ts), dtype=float)
    ta = np.asarray(config.tau.eval(ts), dtype=float)
    return np.abs(
        (pair.beta * np.sin(th) + lam_d1) * np.cos(ta)
        - (pair.beta * np.cos(th) + lam * (thd + pair.ell)) * np.sin(ta)
    )


def _near_zero(lam: np.ndarray, extent: float) -> bool:
    return bool(np.max(np.abs(lam)) <= LAMBDA_ZERO_SCALE * extent)


def _solution(pair: CurvaturePair, config: MateConfig, lam, lam_d1, mode: str,
              wrap: Optional[float], near_zero: bool) -> LambdaSolution:
    """Scale function lam (derivative lam_d1) on pair's grid, with the defect
    of the defining condition for `config`."""
    residual = condition_residual(pair, config, lam, lam_d1)
    return LambdaSolution(pair.grid, lam, lam_d1, residual, mode, near_zero, wrap)


def resolve_mode(mode: str, tau_samples) -> str:
    """The solve that `mode` (ode | algebraic | auto) picks for these samples
    of tau: the ODE needs cos(tau) != 0 everywhere, the pointwise solve
    cos(tau) = 0 everywhere."""
    cos_tau = np.abs(np.cos(np.asarray(tau_samples, dtype=float)))
    all_zero = np.max(cos_tau) <= ANGLE_TOL
    none_zero = np.min(cos_tau) > ANGLE_TOL
    if mode == "algebraic":
        if not all_zero:
            raise ValueError("algebraic mode requires cos(tau) = 0 on the whole grid")
        return "algebraic"
    if mode == "ode":
        if not none_zero:
            raise ValueError("ode mode requires cos(tau) != 0 on the whole grid")
        return "ode"
    if mode == "auto":
        if all_zero:
            return "algebraic"
        if none_zero:
            return "ode"
        raise ValueError("cos(tau) mixes zero and nonzero values on the grid; pick a mode")
    raise ValueError(f"unknown mode {mode!r}")


def _rk4_linear(a_fine: np.ndarray, b_fine: np.ndarray, h_sub: float, y0: float) -> np.ndarray:
    """RK4 for y' = a(t) y + b(t), coefficients sampled every h_sub / 2.

    a_fine/b_fine hold values at all stage times; index 2*k is the k-th
    substep node, odd indices are midpoints.  Returns y at every substep
    node, length (len(a_fine) + 1) // 2.
    """
    n_nodes = (len(a_fine) + 1) // 2
    y = np.empty(n_nodes)
    y[0] = y0
    cur = y0
    for k in range(n_nodes - 1):
        i = 2 * k
        a0, am, a1 = a_fine[i], a_fine[i + 1], a_fine[i + 2]
        b0, bm, b1 = b_fine[i], b_fine[i + 1], b_fine[i + 2]
        k1 = a0 * cur + b0
        k2 = am * (cur + 0.5 * h_sub * k1) + bm
        k3 = am * (cur + 0.5 * h_sub * k2) + bm
        k4 = a1 * (cur + h_sub * k3) + b1
        cur = cur + h_sub * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        y[k + 1] = cur
    return y


def solve_lambda(pair: CurvaturePair, config: MateConfig, extent: float = 1.0) -> LambdaSolution:
    """Scale function satisfying the mate condition for this curvature pair.

    ODE mode integrates lambda' = tan(tau) (beta cos(theta)
    + lambda (theta' + ell)) - beta sin(theta) from lambda0 with classical
    RK4 on the grid step; the pointwise mode (cos(tau) = 0) divides
    lambda = -beta cos(theta) / (theta' + ell) and ignores lambda0.
    The returned residual is evaluated with a differenced lambda', so it
    measures the solve rather than restating the construction.
    """
    # One-sided differencing regardless of grid periodicity: angle functions
    # need not close over the period (a linear sweep is legitimate).
    for fn, name in ((config.theta, "theta"), (config.tau, "tau")):
        err = check_fn_consistency(fn, pair.grid, periodic=False)
        if err > FD_TOL:
            raise ValueError(f"{name}.deriv disagrees with {name}.eval (relative error {err:.2g})")

    mode = resolve_mode(config.mode, config.tau.eval(pair.grid))
    ts = pair.grid
    h = ts[1] - ts[0]
    t_end = pair.interval_end
    tol = ode_tol(pair)

    if mode == "algebraic":
        th = np.asarray(config.theta.eval(ts), dtype=float)
        denom = np.asarray(config.theta.deriv(ts), dtype=float) + pair.ell
        denom_tol = DENOM_RTOL * max(float(np.max(np.abs(denom))), 1e-30)
        if np.min(np.abs(denom)) <= denom_tol:
            bad = ts[np.abs(denom) <= denom_tol]
            raise DenominatorError(
                f"theta' + ell vanishes near t = {np.round(bad[:6], 6)}; "
                "the pointwise solve blows up there",
                locations=bad,
            )
        lam = -pair.beta * np.cos(th) / denom
        if pair.periodic:
            # ell and beta at the period end are their first samples.
            th_end = float(config.theta.eval(t_end))
            den_end = float(config.theta.deriv(t_end)) + float(pair.ell[0])
            wrap = -float(pair.beta[0]) * math.cos(th_end) / den_end
        else:
            wrap = None
        # A nonconstant theta can break the period even on a periodic pair;
        # wrap the difference stencil only when lambda actually closes.
        lam_d1 = fd_d1(lam, h, periodic=_closes(lam, wrap))
        return _solution(pair, config, lam, lam_d1, "algebraic", wrap, _near_zero(lam, extent))

    # ODE direction.  Coefficients are linear in lambda:
    # lambda' = A(t) lambda + B(t).
    beta_fn = pair.beta_fn()
    ell_fn = pair.ell_fn()
    n_steps = pair.grid.shape[0] - (0 if pair.periodic else 1)

    def coefs(times):
        th = np.asarray(config.theta.eval(times), dtype=float)
        thd = np.asarray(config.theta.deriv(times), dtype=float)
        ta = np.asarray(config.tau.eval(times), dtype=float)
        tt = np.tan(ta)
        b = np.asarray(beta_fn(times), dtype=float)
        el = np.asarray(ell_fn(times), dtype=float)
        return tt * (thd + el), tt * b * np.cos(th) - b * np.sin(th)

    for substeps in (1, 2):
        h_sub = h / substeps
        fine = ts[0] + 0.5 * h_sub * np.arange(2 * substeps * n_steps + 1)
        a_fine, b_fine = coefs(fine)
        y_all = _rk4_linear(a_fine, b_fine, h_sub, config.lambda0)
        # Difference the trajectory at the integration resolution: the retry
        # then cuts both the integrator and the differentiation error 16x.
        d1_all = fd_d1(y_all, h_sub, periodic=False)
        y_nodes, d1_nodes = y_all[::substeps], d1_all[::substeps]
        if pair.periodic:
            lam, lam_d1, wrap = y_nodes[:-1], d1_nodes[:-1], float(y_nodes[-1])
        else:
            lam, lam_d1, wrap = y_nodes, d1_nodes, None
        sol = _solution(pair, config, lam, lam_d1, "ode", wrap, _near_zero(lam, extent))
        worst = float(np.max(sol.residual))
        if worst <= tol:
            return sol
    raise ResidualError(f"condition residual {worst:.3g} exceeds {tol:.3g} with {substeps} substep(s)")


def mate_curvature(pair: CurvaturePair, config: MateConfig, lam: LambdaSolution) -> CurvaturePair:
    """Curvature pair of the mate, from the closed formulas
    ell_bar = theta' - tau' + ell and
    beta_bar = (beta cos(theta) + lambda (theta' + ell)) cos(tau)
             + (beta sin(theta) + lambda') sin(tau)."""
    ts = pair.grid
    th = np.asarray(config.theta.eval(ts), dtype=float)
    thd = np.asarray(config.theta.deriv(ts), dtype=float)
    ta = np.asarray(config.tau.eval(ts), dtype=float)
    tad = np.asarray(config.tau.deriv(ts), dtype=float)
    ell_bar = thd - tad + pair.ell
    beta_bar = (pair.beta * np.cos(th) + lam.lam * (thd + pair.ell)) * np.cos(ta) + (
        pair.beta * np.sin(th) + lam.lam_d1
    ) * np.sin(ta)
    return CurvaturePair.from_samples(ts, ell_bar, beta_bar, _mate_is_periodic(pair, lam))


def _closes(lam: np.ndarray, wrap: Optional[float]) -> bool:
    """Whether lambda's value `wrap` at the period end returns to lam[0]."""
    if wrap is None:
        return False
    return abs(wrap - float(lam[0])) <= CLOSURE_RTOL * max(1.0, float(np.max(np.abs(lam))))


def _mate_is_periodic(pair: CurvaturePair, lam: LambdaSolution) -> bool:
    return pair.periodic and _closes(lam.lam, lam.wrap_value)


@dataclass(frozen=True)
class MatePair:
    """A source curve, its constructed mate, and the data tying them."""

    source: LegendreCurve
    mate: LegendreCurve
    config: MateConfig
    lam: LambdaSolution
    source_curvature: CurvaturePair  # the pair the scale function was solved on
    mate_curvature: CurvaturePair
    direction_residual: float
    mate_tangency_residual: float

    def direction(self) -> np.ndarray:
        """v = cos(theta) nu + sin(theta) mu on the source frame, on the grid."""
        return frame_field(self.source.on_grid("nu"), np.asarray(self.config.theta.eval(self.lam.grid), dtype=float))


def _residual_gate(lam: LambdaSolution, pair: CurvaturePair) -> None:
    """Reject a scale function whose condition residual on `pair` exceeds ode_tol."""
    tol = ode_tol(pair)
    worst = float(np.max(lam.residual))
    if worst > tol:
        raise ResidualError(f"lambda residual {worst:.3g} exceeds {tol:.3g}")


def _direction_gate(v: np.ndarray, mate_nu: np.ndarray, tau_samples, tol: float) -> float:
    """max |v - w_bar|, where w_bar = cos(tau) nu_bar + sin(tau) mu_bar on the
    mate frame; rejects a pair whose fields do not coincide within tol."""
    w_bar = frame_field(mate_nu, np.asarray(tau_samples, dtype=float))
    res = float(np.max(np.linalg.norm(v - w_bar, axis=-1)))
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
    `pair` is the curvature pair of lc that lam was solved on.

    The mate's position derivatives come from the sampled-curve difference
    scheme, so later cross-checks against the curvature formulas compare two
    genuinely different computation paths.
    """
    _residual_gate(lam, pair)
    ts = pair.grid
    th = np.asarray(config.theta.eval(ts), dtype=float)
    ta = np.asarray(config.tau.eval(ts), dtype=float)
    nu = lc.on_grid("nu")
    v = frame_field(nu, th)
    positions = lc.gamma.on_grid("position") + lam.lam[:, None] * v
    mate_gamma = build_sampled(ts, positions, periodic=_mate_is_periodic(pair, lam))
    mate_lc = frontal_from_normal(mate_gamma, frame_field(nu, th - ta))
    mcurv = mate_curvature(pair, config, lam)

    dir_tol = mate_tol(lc.gamma.extent, lc.gamma.kind)
    dir_res = _direction_gate(v, mate_lc.on_grid("nu"), ta, dir_tol)
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
        direction_residual=dir_res,
        mate_tangency_residual=tan_res,
    )


@dataclass(frozen=True)
class CrossCheckReport:
    max_ell_discrepancy: float
    max_beta_discrepancy: float
    tolerance: float
    passed: bool


def verify_mate_curvature(mp: MatePair, tolerance: float = CROSS_TOL) -> CrossCheckReport:
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
        tolerance=tolerance,
        passed=max(d_ell, d_beta) <= tolerance,
    )


def operator_config(which: str, theta: float | None = None, tau: float | None = None,
                    lambda0: float = 0.0, mode: str = "auto") -> MateConfig:
    """MateConfig of a named construction (see OPERATOR_TABLE)."""
    if which not in OPERATOR_TABLE:
        raise ValueError(f"unknown operator {which!r}; expected one of {SPECIAL_OPERATORS}")
    rule, required = OPERATOR_TABLE[which]
    if required is not None and {"theta": theta, "tau": tau}[required] is None:
        raise ValueError(f"{which} needs {required}: it requires --{required} or {required}=")
    th, ta = rule(theta, tau)
    return MateConfig(constant_fn(th), constant_fn(ta), lambda0, mode)


def solve_mate(lc: LegendreCurve, config: MateConfig, pair: CurvaturePair, which: str = "mate") -> MatePair:
    """Solve lambda on `pair`, the curvature pair of lc, and build the mate;
    `which` names the construction in the error of a failed pointwise solve."""
    try:
        lam = solve_lambda(pair, config, extent=lc.gamma.extent)
    except DenominatorError as exc:
        if which in ("evolute", "evolutoid"):
            raise DenominatorError(
                f"{which} needs ell != 0; inflection points near "
                f"t = {np.round(exc.locations[:6], 6)}",
                locations=exc.locations,
            ) from exc
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
    cfg = MateConfig(theta=mp.config.tau, tau=mp.config.theta, lambda0=float(-mp.lam.lam[0]))
    pair_bar = mp.mate_curvature
    wrap = None if mp.lam.wrap_value is None else -mp.lam.wrap_value
    lam = _solution(pair_bar, cfg, -mp.lam.lam, -mp.lam.lam_d1, "prescribed", wrap, mp.lam.near_zero)
    return build_mate(mp.mate, cfg, lam, pair=pair_bar)


@dataclass(frozen=True)
class IdentityReport:
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
    if not np.allclose(ts, mp23.lam.grid, rtol=0, atol=1e-12):
        raise ValueError("mate pairs live on different grids")
    extent = mp12.source.gamma.extent
    tol = mate_tol(extent, mp12.source.gamma.kind)

    mid_gap = float(np.max(np.linalg.norm(
        mp12.mate.gamma.on_grid("position") - mp23.source.gamma.on_grid("position"), axis=-1)))
    nrm_gap = float(np.max(np.linalg.norm(mp12.mate.on_grid("nu") - mp23.source.on_grid("nu"), axis=-1)))
    if mid_gap > tol or nrm_gap > tol:
        raise ValueError(
            f"middle curves do not coincide (position gap {mid_gap:.3g}, normal gap {nrm_gap:.3g})"
        )
    dir_gap = float(np.max(np.linalg.norm(mp12.direction() - mp23.direction(), axis=-1)))
    if dir_gap > tol:
        raise ValueError(f"direction fields do not chain (gap {dir_gap:.3g})")

    lam_sum = mp12.lam.lam + mp23.lam.lam
    src_pos = mp12.source.gamma.on_grid("position")
    far_pos = mp23.mate.gamma.on_grid("position")
    if _near_zero(lam_sum, extent):
        pos_gap = float(np.max(np.linalg.norm(src_pos - far_pos, axis=-1)))
        n_gap = float(np.max(np.linalg.norm(mp12.source.on_grid("nu") - mp23.mate.on_grid("nu"), axis=-1)))
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
    lam = _solution(pair1, cfg, lam_sum, mp12.lam.lam_d1 + mp23.lam.lam_d1, "prescribed", wrap, False)
    _residual_gate(lam, pair1)

    v1 = mp12.direction()
    chain_gap = float(np.max(np.linalg.norm(far_pos - (src_pos + lam_sum[:, None] * v1), axis=-1)))
    if chain_gap > tol:
        raise ValueError(f"composite translation fails: gap {chain_gap:.3g}")
    dir_res = _direction_gate(v1, mp23.mate.on_grid("nu"), cfg.tau.eval(ts), tol)

    return MatePair(
        source=mp12.source,
        mate=mp23.mate,
        config=cfg,
        lam=lam,
        source_curvature=pair1,
        mate_curvature=mate_curvature(pair1, cfg, lam),
        direction_residual=dir_res,
        mate_tangency_residual=mp23.mate_tangency_residual,
    )


@dataclass(frozen=True)
class RegularBertrandReport:
    """Evaluation of the regular-curve mate conditions in arc length."""

    grid: np.ndarray  # arc-length parameters
    cond1_residual: np.ndarray
    cond2_value: np.ndarray
    is_mate: bool
    mate_curvature: Optional[np.ndarray]


def check_regular_bertrand(
    c: CurveModel, theta: ScalarFn, tau: ScalarFn, lam: ScalarFn
) -> RegularBertrandReport:
    """Test the regular-branch mate conditions for given angle and scale
    functions of arc length.

    The curve is reparametrized to arc length first; the two conditions are

        (cos(theta) + lambda') sin(tau)
            - (sin(theta) - lambda (theta' + kappa)) cos(tau) = 0,
        (cos(theta) + lambda') cos(tau)
            + (sin(theta) - lambda (theta' + kappa)) sin(tau) != 0,

    and when both hold the mate's curvature is
    (theta' - tau' + kappa) / |condition 2|.
    """
    cs = arclength_reparametrize(c)
    ss = cs.interval.grid
    kappa = regular_curvature(cs, ss)
    th = np.asarray(theta.eval(ss), dtype=float)
    thd = np.asarray(theta.deriv(ss), dtype=float)
    ta = np.asarray(tau.eval(ss), dtype=float)
    tad = np.asarray(tau.deriv(ss), dtype=float)
    lv = np.asarray(lam.eval(ss), dtype=float)
    ld = np.asarray(lam.deriv(ss), dtype=float)

    a = np.cos(th) + ld
    b = np.sin(th) - lv * (thd + kappa)
    cond1 = np.abs(a * np.sin(ta) - b * np.cos(ta))
    cond2 = a * np.cos(ta) + b * np.sin(ta)

    is_mate = bool(np.max(cond1) <= ODE_TOL_SCALE and np.min(np.abs(cond2)) > cs.reg_tol)
    kbar = (thd - tad + kappa) / np.abs(cond2) if is_mate else None
    return RegularBertrandReport(
        grid=ss,
        cond1_residual=cond1,
        cond2_value=cond2,
        is_mate=is_mate,
        mate_curvature=kbar,
    )


@dataclass(frozen=True)
class RegularMateData:
    """Frame conversion of a mate pair to the regular-curve formulation."""

    t_start: float
    t_end: float
    sign_beta: int
    sign_beta_bar: int
    theta_reg: ScalarFn  # angles of the direction fields in Frenet frames
    tau_reg: ScalarFn
    report: RegularBertrandReport


def _longest_regular_run(mask: np.ndarray):
    """(first, last) index of the first longest run of True in mask."""
    edges = np.diff(np.concatenate(([0], np.asarray(mask, dtype=np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    if starts.size == 0:
        raise SingularCurveError("no regular subinterval")
    ends = np.flatnonzero(edges == -1) - 1
    k = int(np.argmax(ends - starts))  # argmax picks the first of equal runs
    return int(starts[k]), int(ends[k])


def regular_to_legendre_mates(
    mp: MatePair, t0: float | None = None, t1: float | None = None
) -> RegularMateData:
    """Express a mate pair of normal-framed curves as a regular-curve mate.

    Works on a subinterval where both curves are regular; the direction
    angles shift by pi/2 with a sign correction from the sign of beta, and
    the result is cross-validated through the regular-branch checker.
    """
    pair = mp.source_curvature
    pair_bar = mp.mate_curvature
    mask = (np.abs(pair.beta) > pair.sing_tol) & (np.abs(pair_bar.beta) > pair_bar.sing_tol)
    ts = pair.grid
    if t0 is not None or t1 is not None:
        rng = np.ones_like(mask)
        if t0 is not None:
            rng &= ts >= t0
        if t1 is not None:
            rng &= ts <= t1
        if not np.any(rng):
            raise ValueError("empty subinterval")
        if not np.all(mask[rng]):
            raise SingularCurveError("requested subinterval contains a singular point")
        idx = np.flatnonzero(rng)
        i_lo, i_hi = int(idx[0]), int(idx[-1])
    else:
        i_lo, i_hi = _longest_regular_run(mask)
    if i_hi - i_lo + 1 < 16:
        raise SingularCurveError("regular subinterval is too short to evaluate")

    sgn = np.sign(pair.beta[i_lo : i_hi + 1])
    sgn_bar = np.sign(pair_bar.beta[i_lo : i_hi + 1])
    sign_beta, sign_beta_bar = int(sgn[0]), int(sgn_bar[0])

    half_pi = math.pi / 2.0
    shift = -half_pi + (0.0 if sign_beta > 0 else math.pi)
    shift_bar = -half_pi + (0.0 if sign_beta_bar > 0 else math.pi)
    theta_reg = add_fns(mp.config.theta, constant_fn(shift))
    tau_reg = add_fns(mp.config.tau, constant_fn(shift_bar))

    ta, tb = float(ts[i_lo]), float(ts[i_hi])
    sub = restrict(mp.source.gamma, ta, tb, n_samples=i_hi - i_lo + 1)
    _, t_of_s, total = arclength_maps(sub)

    lam_sp = spline_fn(ts, mp.lam.lam, False, ts[-1])
    lam_d1_sp = spline_fn(ts, mp.lam.lam_d1, False, ts[-1])

    def speed_at(t):
        return np.linalg.norm(mp.source.gamma.d1(t), axis=-1)

    def to_s(fn: ScalarFn) -> ScalarFn:
        def ev(s):
            return fn.eval(t_of_s(np.clip(s, 0.0, total)))

        def dv(s):
            t = t_of_s(np.clip(s, 0.0, total))
            return fn.deriv(t) / speed_at(t)

        return ScalarFn(eval=ev, deriv=dv)

    lam_fn = ScalarFn(eval=lam_sp, deriv=lam_d1_sp)
    report = check_regular_bertrand(sub, to_s(theta_reg), to_s(tau_reg), to_s(lam_fn))
    return RegularMateData(
        t_start=ta,
        t_end=tb,
        sign_beta=sign_beta,
        sign_beta_bar=sign_beta_bar,
        theta_reg=theta_reg,
        tau_reg=tau_reg,
        report=report,
    )


@dataclass(frozen=True)
class MateRelationReport:
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
    u = frame_field(lc_a.on_grid("nu"), np.asarray(theta.eval(ts), dtype=float))
    diff = lc_b.gamma.on_grid("position") - lc_a.gamma.on_grid("position")
    lam = np.sum(diff * u, axis=-1)
    res = float(np.max(np.linalg.norm(diff - lam[:, None] * u, axis=-1)))
    nu_b = lc_b.on_grid("nu")
    mu_b = np.stack((-nu_b[:, 1], nu_b[:, 0]), axis=-1)
    tau_samples = np.arctan2(np.sum(u * mu_b, axis=-1), np.sum(u * nu_b, axis=-1))
    tol = mate_tol(lc_a.gamma.extent, lc_a.gamma.kind)
    return MateRelationReport(
        lam=lam,
        parallel_residual=res,
        tau_samples=tau_samples,
        tolerance=tol,
        is_mate=res <= tol,
    )
