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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .curves import (
    CurveModel,
    SingularCurveError,
    _bbox_diagonal,
    build_sampled,
    cumulative_integral,
    determinant_curvature,
    fd_d1,
    fd_mismatch,
    local_quintic,
    read_only,
    FD_TOL,
    REG_TOL_SCALE,
)
from .legendre import (
    CROSS_TOL,
    CurvaturePair,
    LegendreCurve,
    frontal_from_normal,
    legendre_curvature,
    subinterval_mask,
    tangency_residual,
)
from .planar import ScalarFn, add_fns, constant_fn, frame_field, negate_fn, rotate_j, row_dot, row_norm, turn

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


# theta, tau and their derivatives on a grid, with the cosines and sines of theta and tau
AngleSamples = namedtuple("AngleSamples", "th thd ta tad cos_th sin_th cos_ta sin_ta")


@dataclass(frozen=True)
class MateConfig:
    """Angle functions, initial scale value, and the solve mode."""

    theta: ScalarFn
    tau: ScalarFn
    lambda0: float = 0.0
    mode: str = "auto"  # ode | algebraic | auto
    # [grid, AngleSamples] of the last grid the angles were sampled on
    _angles: list = field(default_factory=list, init=False, compare=False, repr=False)

    def angles(self, ts: np.ndarray) -> AngleSamples:
        """Read-only samples of the angle functions on the grid ts, evaluated
        once per grid: the cache is keyed by the grid's values."""
        if not self._angles or not np.array_equal(self._angles[0], ts):
            th, thd, ta, tad = (np.asarray(f(ts), dtype=float)
                                for f in (self.theta.eval, self.theta.deriv, self.tau.eval, self.tau.deriv))
            self._seed_angles(ts, AngleSamples(th, thd, ta, tad, np.cos(th), np.sin(th), np.cos(ta), np.sin(ta)))
        return self._angles[1]

    def _seed_angles(self, ts: np.ndarray, samples: AngleSamples) -> "MateConfig":
        """Cache `samples` as the angles on the grid ts, read-only; returns self."""
        self._angles[:] = (np.array(ts, dtype=float), AngleSamples(*map(read_only, samples)))
        return self


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


def lambda_tol(pair: CurvaturePair, config: MateConfig, lam) -> np.ndarray:
    """Pointwise tolerance of the condition residual of the scale function
    lam: ODE_TOL_SCALE * max(max|beta|, |lam (theta' + ell)|, 1).

    The residual differences lam, so its rounding and truncation errors grow
    with |lam|; where |lam (theta' + ell)| <= max|beta| the tolerance is
    ODE_TOL_SCALE * max(max|beta|, 1), and it is never below that.
    """
    thd = config.angles(pair.grid).thd
    floor = max(float(np.max(np.abs(pair.beta))), 1.0)
    return ODE_TOL_SCALE * np.maximum(np.abs(lam * (thd + pair.ell)), floor)


def mate_tol(extent: float, kind: str = "analytic") -> float:
    scale = MATE_TOL_ANALYTIC if kind == "analytic" else MATE_TOL_SAMPLED
    return scale * extent + 1e-12


def condition_residual(pair: CurvaturePair, config: MateConfig, lam, lam_d1) -> np.ndarray:
    """Pointwise defect of the defining first-order condition."""
    a = config.angles(pair.grid)
    return np.abs(
        (pair.beta * a.sin_th + lam_d1) * a.cos_ta
        - (pair.beta * a.cos_th + lam * (a.thd + pair.ell)) * a.sin_ta
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
        raise ValueError("cos(tau) mixes zero and nonzero values on the grid, so neither the ODE "
                         "(cos(tau) != 0) nor the pointwise solve (cos(tau) = 0) applies")
    raise ValueError(f"unknown mode {mode!r}")


def solve_lambda(pair: CurvaturePair, config: MateConfig, extent: float = 1.0) -> LambdaSolution:
    """Scale function satisfying the mate condition for this curvature pair.

    ODE mode solves lambda' = A lambda + B from lambda0, with
    A = tan(tau) (theta' + ell) and B = beta (tan(tau) cos(theta) - sin(theta)),
    as lambda = E (lambda0 + int B / E) with E = exp(int A), both integrals
    by cumulative_integral on the grid; it raises ResidualError when |int A|
    exceeds LOG_GROWTH_MAX.  The pointwise mode (cos(tau) = 0) divides
    lambda = -beta cos(theta) / (theta' + ell) and ignores lambda0.
    The returned residual is evaluated with a differenced lambda', so it
    measures the solve rather than restating the construction.
    """
    ts = pair.grid
    n = len(ts)
    h = ts[1] - ts[0]
    t_end = pair.interval_end
    a = config.angles(ts)
    # One-sided differencing regardless of grid periodicity: angle functions
    # need not close over the period (a linear sweep is legitimate).
    for name, vals, dv in (("theta", a.th, a.thd), ("tau", a.ta, a.tad)):
        err = fd_mismatch(vals, dv, h)
        if err > FD_TOL:
            raise ValueError(f"{name}.deriv disagrees with {name}.eval (relative error {err:.2g})")

    mode = resolve_mode(config.mode, a.ta)

    if mode == "algebraic":
        denom = a.thd + pair.ell
        denom_tol = DENOM_RTOL * max(float(np.max(np.abs(denom))), 1e-30)
        if np.min(np.abs(denom)) <= denom_tol:
            bad = ts[np.abs(denom) <= denom_tol]
            raise DenominatorError(
                f"theta' + ell vanishes near t = {np.round(bad[:6], 6)}; "
                "the pointwise solve blows up there",
                locations=bad,
            )
        lam = -pair.beta * a.cos_th / denom
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

    # ODE direction: lambda' = A lambda + B, solved by its integrating factor
    # E = exp(int A) as lambda = E (lambda0 + int B / E).
    tan_ta = np.tan(a.ta)
    coef_a = tan_ta * (a.thd + pair.ell)
    coef_b = tan_ta * pair.beta * a.cos_th - pair.beta * a.sin_th
    if pair.periodic:
        # The period end: the angles there, beta and ell wrapped to sample 0.
        th_end, thd_end, ta_end = (float(f(t_end)) for f in (config.theta.eval, config.theta.deriv, config.tau.eval))
        tan_end = math.tan(ta_end)
        coef_a = np.append(coef_a, tan_end * (thd_end + pair.ell[0]))
        coef_b = np.append(coef_b, tan_end * pair.beta[0] * math.cos(th_end) - pair.beta[0] * math.sin(th_end))
    # Both integrals run on an open grid: A and B / E need not close over a
    # period (a linear angle sweep is legitimate).
    log_e = cumulative_integral(coef_a, h, periodic=False)
    k = int(np.argmax(np.abs(log_e)))
    if abs(log_e[k]) > LOG_GROWTH_MAX:
        raise ResidualError(f"lambda {'grows' if log_e[k] > 0 else 'decays'} by e^{abs(log_e[k]):.0f}, "
                            "beyond the floats")
    e = np.exp(log_e)
    y = e * (config.lambda0 + cumulative_integral(coef_b / e, h, periodic=False))
    # lambda' differences lambda's own local quintic, so the residual
    # measures the solve rather than restating the equation.
    lam_d1 = local_quintic(y, np.arange(n), 0.0, False, 1, h)
    lam, wrap = y[:n], (float(y[-1]) if pair.periodic else None)
    sol = _solution(pair, config, lam, lam_d1, "ode", wrap, _near_zero(lam, extent))
    excess = _residual_excess(sol, pair, config)
    if excess is not None:
        raise ResidualError(f"condition {excess}")
    return sol


def mate_curvature(pair: CurvaturePair, config: MateConfig, lam: LambdaSolution) -> CurvaturePair:
    """Curvature pair of the mate, from the closed formulas
    ell_bar = theta' - tau' + ell and
    beta_bar = (beta cos(theta) + lambda (theta' + ell)) cos(tau)
             + (beta sin(theta) + lambda') sin(tau)."""
    a = config.angles(pair.grid)
    ell_bar = a.thd - a.tad + pair.ell
    beta_bar = (pair.beta * a.cos_th + lam.lam * (a.thd + pair.ell)) * a.cos_ta + (
        pair.beta * a.sin_th + lam.lam_d1
    ) * a.sin_ta
    return CurvaturePair.from_samples(pair.grid, ell_bar, beta_bar, _mate_is_periodic(pair, lam))


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
        a = self.config.angles(self.lam.grid)
        return turn(self.source.on_grid("nu"), a.cos_th, a.sin_th)


def _residual_excess(lam: LambdaSolution, pair: CurvaturePair, config: MateConfig) -> Optional[str]:
    """None when lam's condition residual on `pair` is within lambda_tol at
    every grid point; else where it exceeds that tolerance the most."""
    tol = lambda_tol(pair, config, lam.lam)
    k = int(np.argmax(lam.residual / tol))
    if lam.residual[k] <= tol[k]:
        return None
    return f"residual {lam.residual[k]:.3g} exceeds {tol[k]:.3g} at t = {lam.grid[k]:.6g}"


def _residual_gate(lam: LambdaSolution, pair: CurvaturePair, config: MateConfig) -> None:
    """Reject a scale function whose condition residual on `pair` exceeds
    lambda_tol at any grid point."""
    excess = _residual_excess(lam, pair, config)
    if excess is not None:
        raise ResidualError(f"lambda {excess}")


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
    `pair` is the curvature pair of lc that lam was solved on.

    The mate's position derivatives come from the sampled-curve difference
    scheme, so later cross-checks against the curvature formulas compare two
    genuinely different computation paths.
    """
    _residual_gate(lam, pair, config)
    ts = pair.grid
    a = config.angles(ts)
    nu = lc.on_grid("nu")
    v = turn(nu, a.cos_th, a.sin_th)
    positions = lc.gamma.on_grid("position") + lam.lam[:, None] * v
    mate_gamma = build_sampled(ts, positions, periodic=_mate_is_periodic(pair, lam))
    mate_lc = frontal_from_normal(mate_gamma, frame_field(nu, a.th - a.ta))
    mcurv = mate_curvature(pair, config, lam)

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
    ts, a = mp.lam.grid, mp.config.angles(mp.lam.grid)
    cfg = MateConfig(theta=mp.config.tau, tau=mp.config.theta, lambda0=float(-mp.lam.lam[0]))._seed_angles(
        ts, AngleSamples(a.ta, a.tad, a.th, a.thd, a.cos_ta, a.sin_ta, a.cos_th, a.sin_th))
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

    mid_gap = float(np.max(row_norm(mp12.mate.gamma.on_grid("position") - mp23.source.gamma.on_grid("position"))))
    nrm_gap = float(np.max(row_norm(mp12.mate.on_grid("nu") - mp23.source.on_grid("nu"))))
    if mid_gap > tol or nrm_gap > tol:
        raise ValueError(
            f"middle curves do not coincide (position gap {mid_gap:.3g}, normal gap {nrm_gap:.3g})"
        )
    dir_gap = float(np.max(row_norm(mp12.direction() - mp23.direction())))
    if dir_gap > tol:
        raise ValueError(f"direction fields do not chain (gap {dir_gap:.3g})")

    lam_sum = mp12.lam.lam + mp23.lam.lam
    src_pos = mp12.source.gamma.on_grid("position")
    far_pos = mp23.mate.gamma.on_grid("position")
    if _near_zero(lam_sum, extent):
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
    lam = _solution(pair1, cfg, lam_sum, mp12.lam.lam_d1 + mp23.lam.lam_d1, "prescribed", wrap, False)
    _residual_gate(lam, pair1, cfg)

    v1 = mp12.direction()
    chain_gap = float(np.max(row_norm(far_pos - (src_pos + lam_sum[:, None] * v1))))
    if chain_gap > tol:
        raise ValueError(f"composite translation fails: gap {chain_gap:.3g}")
    dir_res = _direction_gate(v1, mp23.mate.on_grid("nu"), cfg.angles(ts), tol)

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

    grid: np.ndarray  # arc length of each grid sample
    cond1_residual: np.ndarray
    cond2_value: np.ndarray
    is_mate: bool
    mate_curvature: Optional[np.ndarray]
    reg_tol: float  # |condition 2| must stay above this for a mate


def _arc_length_run(c: CurveModel, run: slice, periodic: bool):
    """(s, speed, kappa, reg_tol) on the grid samples `run` of c: their arc
    length from the first, speed and curvature, and the threshold
    REG_TOL_SCALE * extent / arc length that condition 2 must stay above;
    raises at a singular sample."""
    ts = c.interval.grid[run]
    g1 = c.on_grid("d1")[run]
    speed = row_norm(g1)
    if np.min(speed) <= c.reg_tol:
        i = int(np.argmin(speed))
        raise SingularCurveError(
            f"curve is singular near t = {ts[i]:.6g} (|d1| = {speed[i]:.3g} <= {c.reg_tol:.3g})"
        )
    s = cumulative_integral(speed, c.interval.step, periodic)
    kappa = determinant_curvature(g1, c.on_grid("d2")[run], ts, c.reg_tol)
    reg_tol = REG_TOL_SCALE * _bbox_diagonal(c.on_grid("position")[run]) / s[-1]
    return s[: len(ts)], speed, kappa, reg_tol


def _regular_conditions(s, kappa, th, thd, ta, tad, lv, ld, reg_tol: float) -> RegularBertrandReport:
    """The two regular-branch conditions from samples at the arc lengths s of
    the curvature kappa, the angles, the scale function and their
    derivatives in arc length."""
    a = np.cos(th) + ld
    b = np.sin(th) - lv * (thd + kappa)
    cond1 = np.abs(a * np.sin(ta) - b * np.cos(ta))
    cond2 = a * np.cos(ta) + b * np.sin(ta)

    is_mate = bool(np.max(cond1) <= ODE_TOL_SCALE and np.min(np.abs(cond2)) > reg_tol)
    kbar = (thd - tad + kappa) / np.abs(cond2) if is_mate else None
    return RegularBertrandReport(
        grid=s,
        cond1_residual=cond1,
        cond2_value=cond2,
        is_mate=is_mate,
        mate_curvature=kbar,
        reg_tol=reg_tol,
    )


def check_regular_bertrand(
    c: CurveModel, theta: ScalarFn, tau: ScalarFn, lam: ScalarFn
) -> RegularBertrandReport:
    """Test the regular-branch mate conditions for given angle and scale
    functions of arc length.

    The functions are read at the arc length s(t_k) of each grid sample and
    kappa at t_k; the two conditions are

        (cos(theta) + lambda') sin(tau)
            - (sin(theta) - lambda (theta' + kappa)) cos(tau) = 0,
        (cos(theta) + lambda') cos(tau)
            + (sin(theta) - lambda (theta' + kappa)) sin(tau) != 0,

    and when both hold the mate's curvature is
    (theta' - tau' + kappa) / |condition 2|.  |Condition 2| must stay above
    REG_TOL_SCALE * extent / arc length.
    """
    s, _, kappa, reg_tol = _arc_length_run(c, slice(None), c.interval.periodic)
    th, thd, ta, tad, lv, ld = (np.asarray(f(s), dtype=float) for fn in (theta, tau, lam) for f in (fn.eval, fn.deriv))
    return _regular_conditions(s, kappa, th, thd, ta, tad, lv, ld, reg_tol)


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
    the regular-branch conditions are evaluated on the subinterval's grid
    samples, as check_regular_bertrand does.
    """
    pair = mp.source_curvature
    pair_bar = mp.mate_curvature
    mask = (np.abs(pair.beta) > pair.sing_tol) & (np.abs(pair_bar.beta) > pair_bar.sing_tol)
    ts = pair.grid
    if t0 is not None or t1 is not None:
        idx = np.flatnonzero(subinterval_mask(ts, mask, t0, t1))
        i_lo, i_hi = int(idx[0]), int(idx[-1])
    else:
        i_lo, i_hi = _longest_regular_run(mask)
    if i_hi - i_lo + 1 < 16:
        raise SingularCurveError("regular subinterval is too short to evaluate")

    sgn = np.sign(pair.beta[i_lo : i_hi + 1])
    sgn_bar = np.sign(pair_bar.beta[i_lo : i_hi + 1])
    sign_beta, sign_beta_bar = int(sgn[0]), int(sgn_bar[0])

    shift = -_HALF_PI + (0.0 if sign_beta > 0 else math.pi)
    shift_bar = -_HALF_PI + (0.0 if sign_beta_bar > 0 else math.pi)
    theta_reg = add_fns(mp.config.theta, constant_fn(shift))
    tau_reg = add_fns(mp.config.tau, constant_fn(shift_bar))

    # The run's own grid samples: a t-derivative over the speed is the s-derivative.
    run = slice(i_lo, i_hi + 1)
    s, speed, kappa, reg_tol = _arc_length_run(mp.source.gamma, run, periodic=False)
    a = mp.config.angles(ts)
    report = _regular_conditions(s, kappa, a.th[run] + shift, a.thd[run] / speed, a.ta[run] + shift_bar,
                                 a.tad[run] / speed, mp.lam.lam[run], mp.lam.lam_d1[run] / speed, reg_tol)
    return RegularMateData(
        t_start=float(ts[i_lo]),
        t_end=float(ts[i_hi]),
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
    lam = row_dot(diff, u)
    res = float(np.max(row_norm(diff - lam[:, None] * u)))
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
