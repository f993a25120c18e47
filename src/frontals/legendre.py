"""Plane curves carrying a unit normal field, their curvature pairs,
and singular-point analysis.

A curve/normal pair (gamma, nu) with gamma' . nu = 0 everywhere is the
basic object: gamma may have singular points, and the moving frame
{nu, mu = J(nu)} stays smooth through them.  The curvature pair
(ell, beta) = (nu' . mu, gamma' . mu) drives everything downstream:
beta zeros are the singular points of gamma, ell zeros its inflections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline  # not called here; perfbench/tracing.py patches this name
from scipy.optimize import brentq, minimize_scalar

from .curves import (
    CurveModel,
    GridSamples,
    ParamInterval,
    SingularCurveError,
    build_builtin,
    BuiltinSpec,
    determinant_curvature,
    fd_chain,
    fd_d1,
    speed_derivatives,
    spline_fn,
)
from .planar import rotate_j, row_dot, row_norm

# Tangency tolerance scale: analytic normals are exact, sampled normals carry
# differencing noise.
LEG_TOL_ANALYTIC = 1e-8
LEG_TOL_SAMPLED = 1e-4
# Ingested normal samples must have unit length to this tolerance.
UNIT_NORMAL_TOL = 1e-6
# Two-threshold zero test: |q| <= SING_SCALE * max|q| counts as zero,
# |q| > NZ_FACTOR * SING_SCALE * max|q| counts as nonzero, the gap is
# inconclusive.  Keeps "zero" and "nonzero" mutually exclusive.
SING_SCALE = 1e-7
NZ_FACTOR = 1e2
# A pair whose normal turns by at most this angle (radians) is straight.
STRAIGHT_TOL = 1e-9

REGULAR = "regular"
CUSP_3_2 = "cusp_3_2"
CUSP_5_2 = "cusp_5_2"
CUSP_4_3 = "cusp_4_3"
CUSP_5_3 = "cusp_5_3"
INCONCLUSIVE = "inconclusive"


class TangencyError(ValueError):
    """The (gamma, nu) pair violates gamma' . nu = 0."""


@dataclass(frozen=True)
class LegendreCurve(GridSamples):
    """A curve model with a unit normal field and its first derivative."""

    gamma: CurveModel
    nu: Callable[[np.ndarray], np.ndarray]
    nu_d1: Callable[[np.ndarray], np.ndarray]
    interval: ParamInterval
    nu_d2: Optional[Callable] = None  # unused: nothing in frontals fills or reads it

    def mu(self, ts) -> np.ndarray:
        return rotate_j(self.nu(ts))

    @property
    def leg_tol(self) -> float:
        """Tangency tolerance, scaled by the largest grid speed."""
        scale = LEG_TOL_ANALYTIC if self.gamma.kind == "analytic" else LEG_TOL_SAMPLED
        return scale * max(float(np.max(row_norm(self.gamma.on_grid("d1")))), 1e-12)


def tangency_residual(lc: LegendreCurve) -> float:
    """max |gamma' . nu| over the grid samples."""
    return float(np.max(np.abs(row_dot(lc.gamma.on_grid("d1"), lc.on_grid("nu")))))


def frontal_from_normal(gamma: CurveModel, nu_samples) -> LegendreCurve:
    """LegendreCurve from normal samples on the gamma grid; nu' is differenced
    from them, and both are splined on the first off-grid call."""
    interval = gamma.interval
    nu = np.array(nu_samples, dtype=float)
    nu_d1 = fd_d1(nu, interval.step, interval.periodic)
    nu_f, nu_d1_f = (spline_fn(interval.grid, v, interval.periodic, interval.t_end) for v in (nu, nu_d1))
    return LegendreCurve(gamma=gamma, nu=nu_f, nu_d1=nu_d1_f, interval=interval)._seed(nu=nu, nu_d1=nu_d1)


def frontal_from_samples(gamma: CurveModel, nu_samples) -> LegendreCurve:
    """LegendreCurve from normal samples on the gamma grid (CSV ingestion)."""
    nu_samples = np.asarray(nu_samples, dtype=float)
    norms = row_norm(nu_samples)
    if np.any(np.abs(norms - 1.0) > UNIT_NORMAL_TOL):
        raise ValueError(f"normal samples deviate from unit length beyond {UNIT_NORMAL_TOL:g}")
    return frontal_from_normal(gamma, nu_samples / norms[:, None])


@dataclass(frozen=True)
class CurvaturePair:
    """Sampled curvature pair (ell, beta) with its splines."""

    grid: np.ndarray
    ell: np.ndarray
    beta: np.ndarray
    periodic: bool
    # "ell" / "beta" -> spline evaluator, made on first use (see _field_fn)
    _splines: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def from_samples(cls, grid, ell, beta, periodic: bool) -> "CurvaturePair":
        return cls(*(np.asarray(v, dtype=float) for v in (grid, ell, beta)), periodic)

    @property
    def interval_end(self) -> float:
        h = self.grid[1] - self.grid[0]
        return self.grid[-1] + h if self.periodic else self.grid[-1]

    def _field_fn(self, name: str) -> Callable:
        fn = self._splines.get(name)
        if fn is None:
            fn = self._splines[name] = spline_fn(self.grid, getattr(self, name), self.periodic, self.interval_end)
        return fn

    def ell_fn(self) -> Callable:
        return self._field_fn("ell")

    def beta_fn(self) -> Callable:
        return self._field_fn("beta")

    @property
    def sing_tol(self) -> float:
        return SING_SCALE * max(float(np.max(np.abs(self.beta))), 1e-30)

    @property
    def degenerate(self) -> bool:
        """beta vanishes on every grid sample: the curve has no regular point."""
        return bool(np.all(np.abs(self.beta) <= self.sing_tol))

    @property
    def straight(self) -> bool:
        """The normal turns by at most STRAIGHT_TOL, measured as h * max|cumsum(ell)|:
        a bound on max|ell| would not tell sampling noise from slow turning."""
        h = self.grid[1] - self.grid[0]
        return bool(h * np.max(np.abs(np.cumsum(self.ell))) <= STRAIGHT_TOL)


@dataclass(frozen=True)
class CuspReport:
    """Classification of one singular event with its witness values."""

    t0: float
    kind: str
    witness: dict


@dataclass(frozen=True)
class ResidualReport:
    name: str
    max_residual: float
    tolerance: float
    passed: bool


def legendre_curvature(lc: LegendreCurve) -> CurvaturePair:
    """Curvature pair (nu' . mu, gamma' . mu) on the grid.

    Raises TangencyError when the input violates gamma' . nu = 0, and checks
    that gamma' is reconstructed by beta * mu.
    """
    tol = lc.leg_tol
    res = tangency_residual(lc)
    if res > tol:
        raise TangencyError(f"gamma' . nu residual {res:.3g} exceeds {tol:.3g}")
    g1 = lc.gamma.on_grid("d1")
    mu = rotate_j(lc.on_grid("nu"))
    ell = row_dot(lc.on_grid("nu_d1"), mu)
    beta = row_dot(g1, mu)
    recon = float(np.max(row_norm(g1 - beta[:, None] * mu)))
    if recon > tol:
        raise TangencyError(f"gamma' reconstruction residual {recon:.3g} exceeds {tol:.3g}")
    return CurvaturePair.from_samples(lc.interval.grid, ell, beta, lc.interval.periodic)


def from_regular(c: CurveModel) -> LegendreCurve:
    """Canonical normal lift of a regular curve: nu = J(gamma'/|gamma'|).

    The resulting curvature pair is (|gamma'| * kappa, -|gamma'|).
    """
    g1, g2 = c.on_grid("d1"), c.on_grid("d2")
    vmin = float(np.min(row_norm(g1)))
    if vmin <= c.reg_tol:
        raise SingularCurveError(f"curve has singular points (min speed {vmin:.3g})")

    def lift(g1):
        return rotate_j(g1) / row_norm(g1)[..., None]

    def lift_d1(g1, g2):
        v, vd = speed_derivatives(g1, g2)
        return rotate_j(g2) / v[..., None] - rotate_j(g1) * (vd / v**2)[..., None]

    return LegendreCurve(gamma=c, nu=lambda t: lift(c.d1(t)), nu_d1=lambda t: lift_d1(c.d1(t), c.d2(t)),
                         interval=c.interval)._seed(nu=lift(g1), nu_d1=lift_d1(g1, g2))


def negate_normal(lc: LegendreCurve) -> LegendreCurve:
    """The companion pair (gamma, -nu); its curvature is (ell, -beta)."""
    return LegendreCurve(
        gamma=lc.gamma,
        nu=lambda t: -lc.nu(t),
        nu_d1=lambda t: -lc.nu_d1(t),
        interval=lc.interval,
    )


CROSS_TOL = 1e-6
# Differenced data cannot resolve kappa right next to a cusp (the determinant
# formula divides by |gamma'|^3), so sampled curves use a wider exclusion zone
# and a correspondingly coarser pass tolerance.
SAMPLED_CROSS_TOL = 1e-4
SAMPLED_BETA_FLOOR = 3e-2


def check_ell_kappa_relation(lc: LegendreCurve, pair: CurvaturePair) -> ResidualReport:
    """Max of |ell - kappa * |beta|| over the regular subgrid of lc's pair."""
    if lc.gamma.kind == "analytic":
        floor, tol_scale = pair.sing_tol, CROSS_TOL
    else:
        floor = SAMPLED_BETA_FLOOR * float(np.max(np.abs(pair.beta)))
        tol_scale = SAMPLED_CROSS_TOL
    mask = np.abs(pair.beta) > floor
    if not np.any(mask):
        raise SingularCurveError("no regular grid points (beta vanishes everywhere)")
    g1, g2 = lc.gamma.on_grid("d1"), lc.gamma.on_grid("d2")
    kappa = determinant_curvature(g1[mask], g2[mask], pair.grid[mask], lc.gamma.reg_tol)
    residual = float(np.max(np.abs(pair.ell[mask] - kappa * np.abs(pair.beta[mask]))))
    scale = max(1.0, float(np.max(np.abs(pair.ell[mask]))))
    tol = tol_scale * scale
    return ResidualReport("ell_kappa_relation", residual, tol, residual <= tol)


def _two_threshold(value: float, scale: float):
    """True / False / None for zero / nonzero / gap."""
    zero_tol = SING_SCALE * max(scale, 1e-30)
    if abs(value) <= zero_tol:
        return True
    if abs(value) > NZ_FACTOR * zero_tol:
        return False
    return None


def _classify_witness(w: dict, scales: dict) -> str:
    b0 = _two_threshold(w["beta"], scales["beta"])
    b1 = _two_threshold(w["beta_d1"], scales["beta_d1"])
    b2 = _two_threshold(w["beta_d2"], scales["beta_d2"])
    l0 = _two_threshold(w["ell"], scales["ell"])
    l1 = _two_threshold(w["ell_d1"], scales["ell_d1"])
    dd = _two_threshold(w["wronskian"], scales["wronskian"])
    if b0 is False:
        return REGULAR
    if b0 is None:
        return INCONCLUSIVE
    # beta(t0) = 0 established; criteria in fixed order, first decisive wins.
    if b1 is False and l0 is False:
        return CUSP_3_2
    if l0 is True and b1 is False and dd is False:
        return CUSP_5_2
    if b1 is True and b2 is False and l0 is False:
        return CUSP_4_3
    if b1 is True and l0 is True and b2 is False and l1 is False:
        return CUSP_5_3
    return INCONCLUSIVE


def _witness_at(cp: CurvaturePair, t0: float) -> dict:
    b, e = cp.beta_fn(), cp.ell_fn()
    w = {"beta": b(t0), "beta_d1": b(t0, 1), "beta_d2": b(t0, 2), "ell": e(t0), "ell_d1": e(t0, 1), "ell_d2": e(t0, 2)}
    w = {k: float(v) for k, v in w.items()}
    w["wronskian"] = w["ell_d2"] * w["beta_d1"] - w["ell_d1"] * w["beta_d2"]
    return w


def _scales(cp: CurvaturePair) -> dict:
    h = cp.grid[1] - cp.grid[0]
    (ell_d1, ell_d2), (beta_d1, beta_d2) = (fd_chain(v, h, cp.periodic) for v in (cp.ell, cp.beta))
    wr = ell_d2 * beta_d1 - ell_d1 * beta_d2
    return {
        "beta": float(np.max(np.abs(cp.beta))),
        "beta_d1": float(np.max(np.abs(beta_d1))),
        "beta_d2": float(np.max(np.abs(beta_d2))),
        "ell": float(np.max(np.abs(cp.ell))),
        "ell_d1": float(np.max(np.abs(ell_d1))),
        "wronskian": float(np.max(np.abs(wr))),
    }


def _refine(fn: Callable, lo: float, hi: float) -> float:
    """Zero of fn on [lo, hi]: an end where fn is exactly 0, else the brentq
    root when fn changes sign across the bracket, else the bounded minimizer
    of |fn| (the caller tests whether that reaches zero).
    """
    f_lo, f_hi = float(fn(lo)), float(fn(hi))
    if f_lo == 0.0:
        return float(lo)
    if f_hi == 0.0:
        return float(hi)
    if f_lo * f_hi < 0:
        return float(brentq(lambda t: float(fn(t)), lo, hi, xtol=1e-12))
    res = minimize_scalar(lambda t: abs(float(fn(t))), bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    return float(res.x)


def _grid_span(cp: CurvaturePair, i_lo: int, i_hi: int) -> tuple[float, float]:
    """Times of grid indices i_lo <= i_hi.  Open grids clamp them to the
    grid; periodic ones may run past it (seam brackets), and the splines wrap.
    """
    if not cp.periodic:
        i_lo, i_hi = max(i_lo, 0), min(i_hi, len(cp.grid) - 1)
    h = cp.grid[1] - cp.grid[0]
    return float(cp.grid[0] + i_lo * h), float(cp.grid[0] + i_hi * h)


def _candidate_cells(beta: np.ndarray, below: np.ndarray, periodic: bool):
    """Cells i (samples i, i + 1) where the sampled field changes sign
    between samples not flagged `below`, and unflagged samples where its
    magnitude has a strict local minimum.  Periodic grids wrap at the seam;
    open grids test endpoints one-sided.  The asymmetric < / <= tie-break
    makes an equal-valued pair of neighbors yield one minimum.
    """
    crossing = ~below & ~np.roll(below, -1) & (beta * np.roll(beta, -1) < 0)
    mag = np.abs(beta)
    left_ok = mag < np.roll(mag, 1)
    right_ok = mag <= np.roll(mag, -1)
    if not periodic:
        crossing[-1] = False
        left_ok[0] = right_ok[-1] = True
    return np.flatnonzero(crossing), np.flatnonzero(~below & left_ok & right_ok)


def _zero_candidates(cp: CurvaturePair) -> list[float]:
    """Refined locations where beta vanishes.

    Candidates come from three detectors: clusters of grid samples below the
    zero threshold, sign changes between above-threshold neighbors, and
    strict local minima of |beta| that refine to a sub-threshold value
    (even-order zeros between samples).  A cluster that holds a sample where
    beta is exactly 0 gives that sample; every other candidate is a bracket
    of grid indices that _refine solves on the spline.  Nearby candidates
    are merged.
    """
    tol = cp.sing_tol
    beta = cp.beta
    n = len(beta)
    below = np.abs(beta) <= tol
    beta_fn = cp.beta_fn()
    h = cp.grid[1] - cp.grid[0]

    def refine(i_lo: int, i_hi: int) -> float:
        return _refine(beta_fn, *_grid_span(cp, i_lo, i_hi))

    def cluster_zero(i_lo: int, i_hi: int) -> float:
        exact = np.flatnonzero(beta[np.arange(i_lo, i_hi + 1) % n] == 0.0)
        return float(cp.grid[(i_lo + exact[(len(exact) - 1) // 2]) % n]) if len(exact) else refine(i_lo - 1, i_hi + 1)

    clusters = []
    idx = np.flatnonzero(below)
    if len(idx):
        gaps = np.flatnonzero(np.diff(idx) > 1)
        clusters = list(zip(idx[np.r_[0, gaps + 1]].tolist(), idx[np.r_[gaps, len(idx) - 1]].tolist()))
        # A periodic grid may split one zero across the seam.
        if cp.periodic and len(clusters) > 1 and clusters[0][0] == 0 and clusters[-1][1] == n - 1:
            first = clusters.pop(0)
            last = clusters.pop()
            clusters.append((last[0], first[1] + n))
    crossings, minima = _candidate_cells(beta, below, cp.periodic)
    candidates = [cluster_zero(i_lo, i_hi) for i_lo, i_hi in clusters]
    candidates += [refine(i, i + 1) for i in crossings.tolist()]
    # A minimum of |beta| counts only when it refines to a sub-threshold value.
    candidates += [t for t in (refine(i - 1, i + 1) for i in minima.tolist()) if abs(float(beta_fn(t))) <= tol]

    if not candidates:
        return []
    period = cp.interval_end - cp.grid[0]
    if cp.periodic:
        wrapped = cp.grid[0] + np.mod(np.array(candidates) - cp.grid[0], period)
        candidates = np.where(cp.interval_end - wrapped < 1e-9 * period, cp.grid[0], wrapped).tolist()
    candidates.sort()
    merged = [candidates[0]]
    for t0 in candidates[1:]:
        if t0 - merged[-1] > 0.5 * h:
            merged.append(t0)
    if cp.periodic and len(merged) > 1 and (merged[0] + period) - merged[-1] <= 0.5 * h:
        merged.pop()
    return merged


def classify_singularities(cp: CurvaturePair) -> list[CuspReport]:
    """One CuspReport per singular event of the curve.

    Events are zeros of beta located on the grid (clustered sub-threshold
    samples, sign changes, and refined local minima); classification uses
    the two-threshold scheme and reports `inconclusive` when no criterion
    fires decisively.  A degenerate pair (beta zero on every sample) has no
    isolated event and gives none.
    """
    if cp.degenerate:
        return []
    zeros = _zero_candidates(cp)
    if not zeros:
        return []
    scales = _scales(cp)
    reports = []
    for t0 in zeros:
        w = _witness_at(cp, t0)
        reports.append(CuspReport(t0=t0, kind=_classify_witness(w, scales), witness=w))
    return reports


def classify_point(cp: CurvaturePair, t0: float) -> CuspReport:
    """Classification at one parameter value; `regular` when beta != 0 there."""
    w = _witness_at(cp, t0)
    return CuspReport(t0=float(t0), kind=_classify_witness(w, _scales(cp)), witness=w)


def inflection_points(cp: CurvaturePair) -> np.ndarray:
    """Zeros of ell: grid samples where it is exactly 0, and sign changes
    between the other samples refined on the spline.  A straight pair has
    none."""
    if cp.straight:
        return np.array([])
    exact = cp.ell == 0.0
    crossings, _ = _candidate_cells(cp.ell, exact, cp.periodic)
    ell_fn = cp.ell_fn()
    zeros = cp.grid[exact].tolist() + [_refine(ell_fn, *_grid_span(cp, i, i + 1)) for i in crossings.tolist()]
    return np.array(sorted(set(np.round(zeros, 12))))


@dataclass(frozen=True)
class FrameData:
    """Frenet frame of the underlying regular arc, recovered from the pair."""

    grid: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    sign_beta: int


def to_regular_frames(lc: LegendreCurve, t0: float | None = None, t1: float | None = None) -> FrameData:
    """Frenet frame on a regular subinterval, recovered from the moving frame.

    gamma' = beta mu pins tangent = sign(beta) mu, and the quarter turn of
    that gives normal = -sign(beta) nu.  Errors out if the range contains a
    singular point or beta changes sign inside it.
    """
    pair = legendre_curvature(lc)
    mask = np.ones(len(pair.grid), dtype=bool)
    if t0 is not None:
        mask &= pair.grid >= t0
    if t1 is not None:
        mask &= pair.grid <= t1
    if not np.any(mask):
        raise ValueError("empty subinterval")
    beta = pair.beta[mask]
    if np.min(np.abs(beta)) <= pair.sing_tol:
        raise SingularCurveError("requested subinterval contains a singular point")
    signs = np.sign(beta)
    if signs.max() != signs.min():
        raise SingularCurveError("beta changes sign inside the requested subinterval")
    sign = int(signs[0])
    nu = lc.on_grid("nu")[mask]
    mu = rotate_j(nu)
    return FrameData(grid=pair.grid[mask], tangent=sign * mu, normal=-sign * nu, sign_beta=sign)


def circle_frontal(r: float, n_samples: int = 1024, center=(0.0, 0.0)) -> LegendreCurve:
    """Circle of radius r with the outward normal field; curvature (1, r)."""
    if r <= 0:
        raise ValueError(f"need r > 0, got {r}")
    interval = ParamInterval(0.0, 2.0 * math.pi, n_samples, periodic=True)
    gamma = build_builtin(BuiltinSpec("circle", {"r": r, "cx": center[0], "cy": center[1]}, interval))

    def nu(t):
        t = np.asarray(t, dtype=float)
        return np.stack((np.cos(t), np.sin(t)), axis=-1)

    def nu_d1(t):
        t = np.asarray(t, dtype=float)
        return np.stack((-np.sin(t), np.cos(t)), axis=-1)

    return LegendreCurve(gamma=gamma, nu=nu, nu_d1=nu_d1, interval=interval)


def astroid_frontal(n_samples: int = 1024, scale: float = 1.0) -> LegendreCurve:
    """Astroid (a cos^3 t, a sin^3 t) with normal (sin t, cos t);
    curvature (-1, 3 a cos t sin t)."""
    interval = ParamInterval(0.0, 2.0 * math.pi, n_samples, periodic=True)
    gamma = build_builtin(BuiltinSpec("astroid", {"a": scale}, interval))

    def nu(t):
        t = np.asarray(t, dtype=float)
        return np.stack((np.sin(t), np.cos(t)), axis=-1)

    def nu_d1(t):
        t = np.asarray(t, dtype=float)
        return np.stack((np.cos(t), -np.sin(t)), axis=-1)

    return LegendreCurve(gamma=gamma, nu=nu, nu_d1=nu_d1, interval=interval)
