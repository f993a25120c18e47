"""Shared fixtures: closed-form frontal curves with randomized curvature data.

The generator picks a normal field nu = (cos(phi), sin(phi)) from a random
angle function phi and a random trig-polynomial beta, so every derived
quantity (d1 and d2 of gamma, nu and nu') is available in closed form; only
the position itself needs one accurate cumulative integration.
`grid_trig_counter` counts the cos, sin and tan passes over a grid.
"""

from collections import Counter

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from frontals.curves import CurveModel, ParamInterval
from frontals.legendre import LegendreCurve


def _trig_poly(c0, cos_coeffs, sin_coeffs):
    ks = np.arange(1, len(cos_coeffs) + 1, dtype=float)

    def value(t):
        t = np.asarray(t, dtype=float)[..., None]
        return c0 + np.sum(cos_coeffs * np.cos(ks * t) + sin_coeffs * np.sin(ks * t), axis=-1)

    def deriv(t):
        t = np.asarray(t, dtype=float)[..., None]
        return np.sum(ks * (-cos_coeffs * np.sin(ks * t) + sin_coeffs * np.cos(ks * t)), axis=-1)

    return value, deriv


def random_frontal(seed: int, n: int = 512) -> LegendreCurve:
    """Deterministic random Legendre fixture on [0, 2*pi], non-periodic."""
    rng = np.random.default_rng(seed)
    winding = int(rng.integers(-2, 3))
    phi_t, phi_d = _trig_poly(0.0, rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3))
    beta, beta_d = _trig_poly(
        float(rng.uniform(-1.0, 1.0)), rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2)
    )

    def phi(t):
        return winding * np.asarray(t, dtype=float) + phi_t(t)

    def ell(t):
        return winding + phi_d(t)

    def nu(t):
        p = phi(t)
        return np.stack((np.cos(p), np.sin(p)), axis=-1)

    def mu(t):
        p = phi(t)
        return np.stack((-np.sin(p), np.cos(p)), axis=-1)

    def nu_d1(t):
        return ell(t)[..., None] * mu(t)

    def d1(t):
        return beta(t)[..., None] * mu(t)

    def d2(t):
        return beta_d(t)[..., None] * mu(t) - (beta(t) * ell(t))[..., None] * nu(t)

    interval = ParamInterval(0.0, 2.0 * np.pi, n, periodic=False)
    fine = np.linspace(0.0, 2.0 * np.pi, 8 * (n - 1) + 1)
    integrand = d1(fine)
    xs = cumulative_simpson(integrand[:, 0], x=fine, initial=0.0)
    ys = cumulative_simpson(integrand[:, 1], x=fine, initial=0.0)
    pos_spline = CubicSpline(fine, np.stack((xs, ys), axis=-1))

    def position(t):
        return pos_spline(np.clip(np.asarray(t, dtype=float), 0.0, 2.0 * np.pi))

    pts = position(interval.grid)
    spans = pts.max(axis=0) - pts.min(axis=0)
    gamma = CurveModel(
        kind="analytic",
        position=position,
        d1=d1,
        d2=d2,
        interval=interval,
        extent=float(np.hypot(spans[0], spans[1])),
    )
    return LegendreCurve(gamma=gamma, nu=nu, nu_d1=nu_d1, interval=interval)


def grid_trig_counter(monkeypatch, n):
    """Counter of the np.cos, np.sin and np.tan calls on arrays of n values."""
    calls = Counter()
    for name in ("cos", "sin", "tan"):
        def counted(x, *args, _name=name, _f=getattr(np, name), **kwargs):
            calls[_name] += np.size(x) == n
            return _f(x, *args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    return calls
