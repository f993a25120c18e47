"""Plane curves carrying a unit normal field, their curvature pairs,
and singular-point analysis.

A curve/normal pair (gamma, nu) with gamma' . nu = 0 everywhere is the
basic object: gamma may have singular points, and the moving frame
{nu, mu = J(nu)} stays smooth through them.  The curvature pair
(ell, beta) = (nu' . mu, gamma' . mu) drives everything downstream:
beta zeros are the singular points of gamma, ell zeros its inflections.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from .curves import (
    CurveModel,
    GridSamples,
    ParamInterval,
    SingularCurveError,
    BuiltinSpec,
    build_builtin,
    builtin_fields,
    builtin_spec,
    determinant_curvature,
    fd_chain,
    fd_d1,
    local_quintic,
    quintic_fn,
    speed_derivatives,
)
from .planar import rotate_j, row_dot, row_norm, scale_rows

# Nothing calls these names; perfbench/tracing.py wraps them until ROADMAP item 5 deletes them.
CubicSpline = brentq = minimize_scalar = None

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


class LegendreCurve(GridSamples):
    """A curve model with a unit normal field and its first derivative."""

    __slots__ = ("gamma", "nu", "nu_d1", "interval", "nu_d2", "_tangency")

    def __init__(self, gamma: CurveModel, nu: Callable[[np.ndarray], np.ndarray],
                 nu_d1: Callable[[np.ndarray], np.ndarray], interval: ParamInterval,
                 nu_d2: Optional[Callable] = None):
        super().__init__()
        self.gamma, self.nu, self.nu_d1, self.interval = gamma, nu, nu_d1, interval
        self.nu_d2 = nu_d2  # unused: nothing in frontals fills or reads it
        self._tangency = None

    @property
    def leg_tol(self) -> float:
        """Tangency tolerance, scaled by the largest grid speed."""
        return self._tangency_check()[1]

    def _tangency_check(self) -> tuple[float, float]:
        """(tangency_residual, leg_tol) of the grid samples, computed on first read."""
        if self._tangency is None:
            g1 = self.gamma.on_grid("d1")
            scale = LEG_TOL_ANALYTIC if self.gamma.kind == "analytic" else LEG_TOL_SAMPLED
            self._tangency = (float(np.max(np.abs(row_dot(g1, self.on_grid("nu"))))),
                              scale * max(float(np.max(row_norm(g1))), 1e-12))
        return self._tangency


def tangency_residual(lc: LegendreCurve) -> float:
    """max |gamma' . nu| over the grid samples."""
    return lc._tangency_check()[0]


def frontal_from_normal(gamma: CurveModel, nu_samples) -> LegendreCurve:
    """LegendreCurve from normal samples on the gamma grid; nu' is differenced
    from them on its first read, and both are read between the samples by
    their local quintic."""
    interval = gamma.interval
    nu = np.array(nu_samples, dtype=float)

    def nu_d1(t):
        return quintic_fn(interval.grid, lc.on_grid("nu_d1"), interval.periodic, interval.t_end)(t)

    lc = LegendreCurve(gamma=gamma, nu=quintic_fn(interval.grid, nu, interval.periodic, interval.t_end), nu_d1=nu_d1,
                       interval=interval)
    return lc._seed(nu=nu, nu_d1=lambda: fd_d1(nu, interval.step, interval.periodic))


def frontal_from_samples(gamma: CurveModel, nu_samples) -> LegendreCurve:
    """LegendreCurve from normal samples on the gamma grid (CSV ingestion)."""
    nu_samples = np.asarray(nu_samples, dtype=float)
    norms = row_norm(nu_samples)
    if np.any(np.abs(norms - 1.0) > UNIT_NORMAL_TOL):
        raise ValueError(f"normal samples deviate from unit length beyond {UNIT_NORMAL_TOL:g}")
    return frontal_from_normal(gamma, scale_rows(nu_samples, norms, np.divide))


class CurvaturePair(NamedTuple):
    """Sampled curvature pair (ell, beta)."""

    grid: np.ndarray
    ell: np.ndarray
    beta: np.ndarray
    periodic: bool

    @classmethod
    def from_samples(cls, grid, ell, beta, periodic: bool) -> "CurvaturePair":
        return cls(*(np.asarray(v, dtype=float) for v in (grid, ell, beta)), periodic)

    @property
    def step(self) -> float:
        return self.grid[1] - self.grid[0]

    @property
    def interval_end(self) -> float:
        return self.grid[-1] + self.step if self.periodic else self.grid[-1]

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
        return bool(self.step * np.max(np.abs(np.cumsum(self.ell))) <= STRAIGHT_TOL)


class CuspReport(NamedTuple):
    """Classification of one singular event with its witness values."""

    t0: float
    kind: str
    witness: dict


class ResidualReport(NamedTuple):
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
    recon = float(np.max(row_norm(scale_rows(mu, beta, base=g1, combine=np.subtract))))
    if recon > tol:
        raise TangencyError(f"gamma' reconstruction residual {recon:.3g} exceeds {tol:.3g}")
    return CurvaturePair.from_samples(lc.interval.grid, ell, beta, lc.interval.periodic)


def from_regular(c: CurveModel) -> LegendreCurve:
    """Canonical normal lift of a regular curve: nu = J(gamma'/|gamma'|).

    The resulting curvature pair is (|gamma'| * kappa, -|gamma'|).
    """
    g1, g2 = c.on_grid("d1"), c.on_grid("d2")
    speed = row_norm(g1)
    i = int(np.argmin(speed))
    if speed[i] <= c.reg_tol:
        raise SingularCurveError(
            f"curve is singular near t = {c.interval.grid[i]:.6g} (|d1| = {speed[i]:.3g} <= {c.reg_tol:.3g})")

    def lift(g1):
        return scale_rows(rotate_j(g1), row_norm(g1), np.divide)

    def lift_d1(g1, g2):
        v, vd = speed_derivatives(g1, g2)
        return scale_rows(rotate_j(g1), vd / v**2, base=scale_rows(rotate_j(g2), v, np.divide), combine=np.subtract)

    return LegendreCurve(gamma=c, nu=lambda t: lift(c.d1(t)), nu_d1=lambda t: lift_d1(c.d1(t), c.d2(t)),
                         interval=c.interval)._seed(nu=lift(g1), nu_d1=lift_d1(g1, g2))


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


def _witnesses(cp: CurvaturePair, ts) -> list[dict]:
    """beta, ell and their first two derivatives at each time in ts, read
    from their local quintics, and the wronskian."""
    read = quintic_fn(cp.grid, np.stack((cp.beta, cp.ell), axis=-1), cp.periodic, cp.interval_end)
    rows = read(np.asarray(ts, dtype=float), (0, 1, 2)).transpose(1, 2, 0).reshape(len(ts), 6).tolist()
    names = ("beta", "beta_d1", "beta_d2", "ell", "ell_d1", "ell_d2")
    return [dict(zip(names, w), wronskian=w[5] * w[1] - w[4] * w[2]) for w in rows]


def _scales(cp: CurvaturePair) -> dict:
    (ell_d1, ell_d2), (beta_d1, beta_d2) = (fd_chain(v, cp.step, cp.periodic) for v in (cp.ell, cp.beta))
    wr = ell_d2 * beta_d1 - ell_d1 * beta_d2
    return {
        "beta": float(np.max(np.abs(cp.beta))),
        "beta_d1": float(np.max(np.abs(beta_d1))),
        "beta_d2": float(np.max(np.abs(beta_d2))),
        "ell": float(np.max(np.abs(cp.ell))),
        "ell_d1": float(np.max(np.abs(ell_d1))),
        "wronskian": float(np.max(np.abs(wr))),
    }


def _unit_roots(coef: np.ndarray) -> np.ndarray:
    """The real roots in [0, 1] of the polynomials whose ascending
    coefficients are the columns of coef, NaN where a column has fewer: the
    real eigenvalues of their companion matrices, one eigvals call per degree
    (np.roots' method).  A column's degree is that of its last nonzero
    coefficient."""
    degree = ((coef != 0) * np.arange(len(coef))[:, None]).max(axis=0)
    roots = np.full((len(coef) - 1, coef.shape[1]), np.nan)
    for d in range(1, len(coef)):
        col = np.flatnonzero(degree == d)
        if len(col):
            companion = np.tile(np.eye(d, k=-1), (len(col), 1, 1))
            companion[:, 0] = -(coef[d - 1::-1, col] / coef[d, col]).T
            z = np.linalg.eigvals(companion).T
            roots[:d, col] = np.where((z.imag == 0) & (z.real >= 0) & (z.real <= 1), z.real, np.nan)
    return roots


def _cell_zeros(cp: CurvaturePair, values: np.ndarray, brackets) -> tuple[np.ndarray, np.ndarray]:
    """(t, value) for each bracket (first, last) of cells, unwrapped on a
    periodic grid and clamped on an open one: where the local quintic of the
    field `values` on cp's grid is least in magnitude over the bracket, and
    the quintic there.  The candidates on each cell, its quintic expanded at
    its start (the kernel's derivatives), are its two ends and the real roots
    in [0, 1] of the quintic and of its derivative."""
    first, last = np.asarray(brackets, dtype=int).reshape(-1, 2).T
    if not cp.periodic:
        first, last = np.maximum(first, 0), np.minimum(last, len(values) - 2)
    owner = np.repeat(np.arange(len(first)), last - first + 1)
    cells = first[owner] + np.arange(len(owner)) - np.searchsorted(owner, owner)
    coef = local_quintic(values, cells, 0.0, cp.periodic, tuple(range(6))) / np.cumprod([1.0, 1, 2, 3, 4, 5])[:, None]
    x = np.vstack((np.zeros(len(cells)), np.ones(len(cells)), _unit_roots(coef),
                   _unit_roots(coef[1:] * np.arange(1.0, 6.0)[:, None])))  # one row per candidate
    f = (coef.T * x[..., None] ** np.arange(6.0)).sum(axis=-1).ravel()
    key = np.tile(owner, len(x))
    order = np.lexsort((np.abs(f), key))  # NaN, a missing root, sorts last
    best = order[np.searchsorted(key[order], np.arange(len(first)))]
    return cp.grid[0] + cells[best % len(cells)] * cp.step + x.ravel()[best] * cp.step, f[best]


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


def _zeros(cp: CurvaturePair, values: np.ndarray, tol: float, minima: bool) -> list[float]:
    """Refined locations where the field `values` (beta or ell) vanishes.

    Candidates come from three detectors: runs of grid samples flagged by
    |values| <= tol, sign changes between unflagged neighbors, and (when
    `minima`) strict local minima of |values| that refine to a flagged value
    (even-order zeros between samples).  A run that holds a sample where the
    field is exactly 0 gives its middle such sample.  Every other candidate
    is a bracket of cells (a sign change its cell, another run the cells
    from the sample before it to the one after it, a minimum the cells on
    both sides), located by _cell_zeros.  Nearby candidates are merged.
    """
    n = len(values)
    below = np.abs(values) <= tol
    starts, ends = below & ~np.roll(below, 1), below & ~np.roll(below, -1)
    if not cp.periodic:
        starts[0], ends[-1] = below[0], below[-1]
    run_lo, run_hi = np.flatnonzero(starts), np.flatnonzero(ends)
    if len(run_hi) and run_hi[0] < run_lo[0]:  # a periodic run across the seam
        run_hi = np.r_[run_hi[1:], run_hi[0] + n]
    crossings, mins = _candidate_cells(values, below, cp.periodic)
    mins = mins if minima else mins[:0]
    candidates, brackets = [], [(i, i) for i in crossings.tolist()]
    for i_lo, i_hi in zip(run_lo.tolist(), run_hi.tolist()):
        exact = np.flatnonzero(values[np.arange(i_lo, i_hi + 1) % n] == 0.0)
        if len(exact):
            candidates.append(float(cp.grid[(i_lo + exact[(len(exact) - 1) // 2]) % n]))
        else:
            brackets.append((i_lo - 1, i_hi))
    brackets += [(i - 1, i) for i in mins.tolist()]
    ts, at_ts = _cell_zeros(cp, values, brackets)
    # A minimum of |values| counts only when it refines to a flagged value.
    candidates += ts[(np.arange(len(brackets)) < len(brackets) - len(mins)) | (np.abs(at_ts) <= tol)].tolist()

    if not candidates:
        return []
    period = cp.interval_end - cp.grid[0]
    if cp.periodic:
        wrapped = cp.grid[0] + np.mod(np.array(candidates) - cp.grid[0], period)
        candidates = np.where(cp.interval_end - wrapped < 1e-9 * period, cp.grid[0], wrapped).tolist()
    candidates.sort()
    merged = [candidates[0]]
    for t0 in candidates[1:]:
        if t0 - merged[-1] > 0.5 * cp.step:
            merged.append(t0)
    if cp.periodic and len(merged) > 1 and (merged[0] + period) - merged[-1] <= 0.5 * cp.step:
        merged.pop()
    return merged


def classify_singularities(cp: CurvaturePair) -> list[CuspReport]:
    """One CuspReport per singular event of the curve.

    Events are zeros of beta located by _zeros (runs of sub-threshold
    samples, sign changes, and refined local minima); classification uses
    the two-threshold scheme and reports `inconclusive` when no criterion
    fires decisively.  A degenerate pair (beta zero on every sample) has no
    isolated event and gives none.
    """
    if cp.degenerate:
        return []
    zeros = _zeros(cp, cp.beta, cp.sing_tol, True)
    if not zeros:
        return []
    scales = _scales(cp)
    return [CuspReport(t0=t0, kind=_classify_witness(w, scales), witness=w)
            for t0, w in zip(zeros, _witnesses(cp, zeros))]


def inflection_points(cp: CurvaturePair) -> np.ndarray:
    """Zeros of ell, located by _zeros with exact zeros flagged; a straight
    pair has none."""
    if cp.straight:
        return np.array([])
    return np.array(_zeros(cp, cp.ell, 0.0, False))


def regular_arcs(*pairs: CurvaturePair) -> np.ndarray:
    """Label (1, 2, ...) of the regular arc that holds each grid sample, 0 where
    some pair's |beta| <= sing_tol.  Neighbouring regular samples whose beta
    differ in sign on some pair lie on different arcs: beta vanishes between them."""
    regular = np.logical_and.reduce([np.abs(p.beta) > p.sing_tol for p in pairs])
    flips = np.logical_or.reduce([np.sign(p.beta[1:]) != np.sign(p.beta[:-1]) for p in pairs])
    starts = regular & np.concatenate(([True], ~regular[:-1] | flips))
    return np.where(regular, np.cumsum(starts), 0)


def subinterval_mask(grid: np.ndarray, arcs: np.ndarray, t0: float | None, t1: float | None) -> np.ndarray:
    """Mask of the grid samples in [t0, t1] (an end given as None is open); raises
    when it holds no sample, or samples not all on one arc of regular_arcs."""
    mask = np.ones(len(grid), dtype=bool)
    if t0 is not None:
        mask &= grid >= t0
    if t1 is not None:
        mask &= grid <= t1
    if not np.any(mask):
        raise ValueError("empty subinterval")
    if arcs[mask].min() == 0 or arcs[mask].min() != arcs[mask].max():
        raise SingularCurveError("requested subinterval contains a singular point")
    return mask


def builtin_frontal(spec: BuiltinSpec) -> LegendreCurve:
    """The builtin curve of spec with its normal field from the table (circle
    and astroid), seeded from the interval's cos_sin; from_regular's lift of
    a curve the table gives no normal."""
    gamma = build_builtin(spec)
    fields = builtin_fields(spec)
    if "nu" not in fields:
        return from_regular(gamma)
    (nu, nu_samples), (nu_d1, nu_d1_samples) = fields["nu"], fields["nu_d1"]
    return LegendreCurve(gamma, nu, nu_d1, spec.interval)._seed(nu=nu_samples(), nu_d1=nu_d1_samples())


def circle_frontal(r: float, n_samples: int = 1024, center=(0.0, 0.0)) -> LegendreCurve:
    """Circle of radius r with the outward normal field; curvature (1, r)."""
    return builtin_frontal(builtin_spec("circle", {"r": r, "cx": center[0], "cy": center[1]}, n_samples))


def astroid_frontal(n_samples: int = 1024, scale: float = 1.0) -> LegendreCurve:
    """Astroid (a cos^3 t, a sin^3 t) with normal (sin t, cos t);
    curvature (-1, 3 a cos t sin t)."""
    return builtin_frontal(builtin_spec("astroid", {"a": scale}, n_samples))
