"""Seeded benchmark inputs with references computed from closed forms.

A random frontal is given by a normal angle phi(t) = w t + (trig poly) and a
signed speed beta(t) = (trig poly) on [0, 2 pi], in the style of the test
suite's `random_frontal` fixture.  Then nu = (cos phi, sin phi), ell = phi',
and gamma' = beta mu, so every quantity the scan is checked against is known
in closed form.  Reference zeros of beta and ell come from dense sampling and
brentq on those closed forms; nothing here calls into frontals to compute a
reference.  Only `build_frontal` touches frontals, to wrap the closed forms
as the program's input type.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

TWO_PI = 2.0 * math.pi
# Reference grids are this many times denser than the program's grid.
DENSE_FACTOR = 2
# Positions integrate gamma' = beta mu by cumulative Simpson on a grid this
# many times finer than the program's grid.
FINE_FACTOR = 2
# A closed-form zero is "decisively" a 3/2 cusp when ell and beta' there are
# at least this share of their maxima; nearer-degenerate zeros are checked
# for location only.
DECISIVE_SHARE = 1e-3


@dataclass(frozen=True)
class TrigPoly:
    """c0 + sum_k (a_k cos kt + b_k sin kt) with its first two derivatives."""

    c0: float
    cos: np.ndarray
    sin: np.ndarray

    def _terms(self, t, order):
        t = np.asarray(t, dtype=float)[..., None]
        ks = np.arange(1, len(self.cos) + 1, dtype=float)
        kt = ks * t
        c, s = np.cos(kt), np.sin(kt)
        # d^order/dt^order of a cos(kt) + b sin(kt)
        if order == 0:
            return self.cos * c + self.sin * s
        if order == 1:
            return ks * (-self.cos * s + self.sin * c)
        return ks**2 * (-self.cos * c - self.sin * s)

    def value(self, t):
        return self.c0 + np.sum(self._terms(t, 0), axis=-1)

    def deriv(self, t):
        return np.sum(self._terms(t, 1), axis=-1)

    def deriv2(self, t):
        return np.sum(self._terms(t, 2), axis=-1)


@dataclass(frozen=True)
class FrontalSpec:
    """Closed-form frontal on [0, 2 pi]: phi = winding t + phi_poly, beta."""

    winding: int
    phi_poly: TrigPoly
    beta_poly: TrigPoly

    def phi(self, t):
        return self.winding * np.asarray(t, dtype=float) + self.phi_poly.value(t)

    def ell(self, t):
        return self.winding + self.phi_poly.deriv(t)

    def ell_d(self, t):
        return self.phi_poly.deriv2(t)

    def beta(self, t):
        return self.beta_poly.value(t)

    def beta_d(self, t):
        return self.beta_poly.deriv(t)

    def beta_dd(self, t):
        return self.beta_poly.deriv2(t)

    def nu(self, t):
        p = self.phi(t)
        return np.stack((np.cos(p), np.sin(p)), axis=-1)

    def mu(self, t):
        p = self.phi(t)
        return np.stack((-np.sin(p), np.cos(p)), axis=-1)


def draw_frontal(rng: np.random.Generator) -> FrontalSpec:
    """Same distribution as the test suite's random_frontal fixture."""
    winding = int(rng.integers(-2, 3))
    phi_poly = TrigPoly(0.0, rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3))
    beta_poly = TrigPoly(float(rng.uniform(-1.0, 1.0)), rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2))
    return FrontalSpec(winding, phi_poly, beta_poly)


def closed_form_zeros(fn, t0: float, t1: float, m: int) -> np.ndarray:
    """Sign-change zeros of fn on [t0, t1], sampled at m points, refined by brentq."""
    ts = np.linspace(t0, t1, m)
    vals = np.asarray(fn(ts), dtype=float)
    zeros = list(ts[vals == 0.0])
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0):
        zeros.append(brentq(lambda t: float(fn(t)), ts[i], ts[i + 1], xtol=1e-15))
    return np.array(sorted(zeros))


@dataclass(frozen=True)
class Reference:
    """Closed-form events: beta zeros with their expected kind, ell zeros."""

    cusps: np.ndarray
    kinds: tuple  # "cusp_3_2" or None where the zero is too near-degenerate to check
    inflections: np.ndarray
    periodic: bool


def frontal_reference(spec: FrontalSpec, n: int) -> Reference:
    m = DENSE_FACTOR * n
    cusps = closed_form_zeros(spec.beta, 0.0, TWO_PI, m)
    inflections = closed_form_zeros(spec.ell, 0.0, TWO_PI, m)
    dense = np.linspace(0.0, TWO_PI, m)
    ell_max = float(np.max(np.abs(spec.ell(dense))))
    bd_max = float(np.max(np.abs(spec.beta_d(dense))))
    kinds = tuple(
        "cusp_3_2"
        if abs(float(spec.ell(t))) > DECISIVE_SHARE * ell_max
        and abs(float(spec.beta_d(t))) > DECISIVE_SHARE * bd_max
        else None
        for t in cusps
    )
    return Reference(cusps, kinds, inflections, periodic=False)


def astroid_reference() -> Reference:
    """Astroid with normal (sin t, cos t): beta = 3a cos t sin t, ell = -1."""
    return Reference(
        cusps=np.arange(4) * (math.pi / 2.0),
        kinds=("cusp_3_2",) * 4,
        inflections=np.array([]),
        periodic=True,
    )


def self_check_reference(spec: FrontalSpec, ref: Reference, n: int) -> list[str]:
    """Problems found by testing the reference zeros against an independent,
    denser sampling: the sign-change count must match and every zero must
    make beta or ell vanish to rounding."""
    problems = []
    dense = np.linspace(0.0, TWO_PI, 3 * DENSE_FACTOR * n + 1)
    for name, fn, zeros in (("beta", spec.beta, ref.cusps), ("ell", spec.ell, ref.inflections)):
        vals = fn(dense)
        changes = int(np.count_nonzero(vals[:-1] * vals[1:] < 0)) + int(np.count_nonzero(vals == 0.0))
        if changes != len(zeros):
            problems.append(f"{name}: {len(zeros)} reference zeros, {changes} sign changes on the denser grid")
        scale = max(float(np.max(np.abs(vals))), 1.0)
        if len(zeros) and float(np.max(np.abs(fn(zeros)))) > 1e-12 * scale:
            problems.append(f"{name}: reference zero does not vanish ({float(np.max(np.abs(fn(zeros)))):.3g})")
    return problems


def lambda_reference(phi, beta, theta: float, tau: float, lambda0: float, ts) -> np.ndarray:
    """Closed-form scale function of the mate with constant theta and tau.

    The mate condition is lambda' = tan(tau) ell lambda + c beta with
    c = tan(tau) cos(theta) - sin(theta) and ell = phi', so with
    A = tan(tau) (phi - phi(0)):
    lambda = e^A (lambda0 + c int_0^t e^-A beta ds).
    The integral is a cumulative Simpson sum on a grid finer than ts.
    """
    ts = np.asarray(ts, dtype=float)
    fine = np.linspace(0.0, float(ts[-1]), FINE_FACTOR * (len(ts) - 1) + 1)
    tan_tau = math.tan(tau)
    a_fine = tan_tau * (phi(fine) - phi(0.0))
    c = tan_tau * math.cos(theta) - math.sin(theta)
    integral = cumulative_simpson(np.exp(-a_fine) * beta(fine), x=fine, initial=0.0)
    return (np.exp(a_fine) * (lambda0 + c * integral))[::FINE_FACTOR]


def ellipse_closed_form(a: float, b: float):
    """(phi, ell, beta) of the ellipse (a cos t, b sin t) with the normal
    lift nu = J(gamma' / |gamma'|): phi is the tangent angle plus pi/2,
    ell = phi' and beta = -|gamma'|."""

    def phi(t):
        t = np.asarray(t, dtype=float)
        # Unwrapped tangent angle: atan2 jumps only where sin t = 0.
        base = np.arctan2(b * np.cos(t), -a * np.sin(t))
        return np.unwrap(np.atleast_1d(base)).reshape(np.shape(base)) + math.pi / 2.0

    def ell(t):
        t = np.asarray(t, dtype=float)
        return a * b / ((a * np.sin(t)) ** 2 + (b * np.cos(t)) ** 2)

    def beta(t):
        t = np.asarray(t, dtype=float)
        return -np.hypot(a * np.sin(t), b * np.cos(t))

    return phi, ell, beta


def astroid_closed_form(a: float):
    """(phi, ell, beta) of the astroid (a cos^3 t, a sin^3 t) with normal
    (sin t, cos t): phi = pi/2 - t, ell = -1, beta = 3a cos t sin t."""

    def phi(t):
        return math.pi / 2.0 - np.asarray(t, dtype=float)

    def ell(t):
        return np.full(np.shape(t), -1.0)

    def beta(t):
        t = np.asarray(t, dtype=float)
        return 3.0 * a * np.cos(t) * np.sin(t)

    return phi, ell, beta


def lambda_growth(phi, tau: float, ts) -> float:
    """Largest rise of A = tan(tau)(phi - phi(0)) over ts: lambda grows by up
    to e^growth between two points of the grid."""
    a = math.tan(tau) * (phi(np.asarray(ts, dtype=float)) - phi(0.0))
    return float(np.max(a - np.minimum.accumulate(a)))


def mate_lambda_reference(closed_form, theta: float, tau: float, lambda0: float, ts) -> np.ndarray:
    """Closed-form scale function for constant theta and tau: the ODE
    solution when cos(tau) != 0, else the pointwise -beta cos(theta) / ell."""
    phi, ell, beta = closed_form
    if abs(math.cos(tau)) <= 1e-12:
        return -beta(ts) * math.cos(theta) / ell(ts)
    return lambda_reference(phi, beta, theta, tau, lambda0, ts)


def frontal_grid_samples(spec: FrontalSpec, n: int):
    """(ts, positions, normals) on the open grid of n points, plus the finer
    grid and its positions for interpolating between grid points."""
    fine = np.linspace(0.0, TWO_PI, FINE_FACTOR * (n - 1) + 1)
    integrand = spec.beta(fine)[:, None] * spec.mu(fine)
    xs = cumulative_simpson(integrand[:, 0], x=fine, initial=0.0)
    ys = cumulative_simpson(integrand[:, 1], x=fine, initial=0.0)
    fine_pts = np.stack((xs, ys), axis=-1)
    ts = fine[::FINE_FACTOR]
    return ts, fine_pts[::FINE_FACTOR], spec.nu(ts), (fine, fine_pts)


def build_frontal(spec: FrontalSpec, n: int):
    """The frontal as frontals' LegendreCurve, with exact derivatives."""
    from frontals.curves import CurveModel, ParamInterval
    from frontals.legendre import LegendreCurve

    _, pts, _, (fine, fine_pts) = frontal_grid_samples(spec, n)
    spline = []

    def position(t):
        # Built on first use: the cusp scan never evaluates positions.
        if not spline:
            spline.append(CubicSpline(fine, fine_pts))
        return spline[0](np.clip(np.asarray(t, dtype=float), 0.0, TWO_PI))

    def d1(t):
        return spec.beta(t)[..., None] * spec.mu(t)

    def d2(t):
        return spec.beta_d(t)[..., None] * spec.mu(t) - (spec.beta(t) * spec.ell(t))[..., None] * spec.nu(t)

    def d3(t):
        b, bd, bdd = spec.beta(t), spec.beta_d(t), spec.beta_dd(t)
        el, eld = spec.ell(t), spec.ell_d(t)
        return (bdd - b * el**2)[..., None] * spec.mu(t) - (2.0 * bd * el + b * eld)[..., None] * spec.nu(t)

    def nu_d1(t):
        return spec.ell(t)[..., None] * spec.mu(t)

    def nu_d2(t):
        return spec.ell_d(t)[..., None] * spec.mu(t) - (spec.ell(t) ** 2)[..., None] * spec.nu(t)

    interval = ParamInterval(0.0, TWO_PI, n, periodic=False)
    spans = pts.max(axis=0) - pts.min(axis=0)
    gamma = CurveModel(
        kind="analytic", position=position, d1=d1, d2=d2, d3=d3,
        interval=interval, extent=float(np.hypot(spans[0], spans[1])),
    )
    return LegendreCurve(gamma=gamma, nu=spec.nu, nu_d1=nu_d1, nu_d2=nu_d2, interval=interval)


def ellipse_samples(a: float, b: float, n: int):
    """(ts, positions) of the ellipse (a cos t, b sin t) on a periodic grid."""
    ts = np.arange(n) * (TWO_PI / n)
    return ts, np.stack((a * np.cos(ts), b * np.sin(ts)), axis=-1)


def write_csv(path, header, columns) -> None:
    """Numeric CSV with shortest round-trip floats, the program's own layout."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([repr(float(v)) for v in row])
