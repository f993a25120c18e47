"""Flat 2D kernel: the quarter-turn rotation, angle-framed direction fields
and the scalar functions (angles, scales) shared by every other module.

Points and directions are numpy arrays of shape (..., 2).  Angles are plain
radians and are never wrapped mod 2*pi: downstream formulas difference two
angle functions and wrapping would corrupt their derivatives.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]


class ScalarFn(NamedTuple):
    """A smooth scalar function of the curve parameter with its derivative.

    `eval` and `deriv` must accept floats or numpy arrays.  Used for the
    angle functions of direction fields and for prescribed scale functions.
    `const` is the value of a constant function (its derivative is exactly
    0), None otherwise: a constant is sampled as that one number.
    """

    eval: Callable[[ArrayLike], ArrayLike]
    deriv: Callable[[ArrayLike], ArrayLike]
    const: Optional[float] = None


def constant_fn(value: float) -> ScalarFn:
    """ScalarFn that is identically `value`."""
    return ScalarFn(
        eval=lambda t: np.full_like(np.asarray(t, dtype=float), value),
        deriv=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        const=float(value),
    )


def linear_fn(intercept: float, slope: float) -> ScalarFn:
    """ScalarFn t -> intercept + slope * t."""
    return ScalarFn(
        eval=lambda t: intercept + slope * np.asarray(t, dtype=float),
        deriv=lambda t: np.full_like(np.asarray(t, dtype=float), slope),
    )


def add_fns(*fns: ScalarFn) -> ScalarFn:
    def ev(t):
        return sum(f.eval(t) for f in fns)

    def dv(t):
        return sum(f.deriv(t) for f in fns)

    # The constant sums in eval's order, so it equals eval's samples bit for bit.
    const = sum(f.const for f in fns) if all(f.const is not None for f in fns) else None
    return ScalarFn(eval=ev, deriv=dv, const=const)


def negate_fn(fn: ScalarFn) -> ScalarFn:
    return ScalarFn(eval=lambda t: -fn.eval(t), deriv=lambda t: -fn.deriv(t),
                    const=None if fn.const is None else -fn.const)


def rotate_j(a) -> np.ndarray:
    """Anti-clockwise rotation by pi/2 of (..., 2) arrays: (x, y) -> (-y, x)."""
    arr = np.asarray(a, dtype=float)
    return np.stack((-arr[..., 1], arr[..., 0]), axis=-1)


def frame_field(nu: np.ndarray, theta: ArrayLike) -> np.ndarray:
    """cos(theta) * nu + sin(theta) * mu, where mu = rotate_j(nu), over an
    (..., 2) field of unit normals."""
    return turn(nu, np.cos(theta), np.sin(theta))


def turn(nu: np.ndarray, c: ArrayLike, s: ArrayLike) -> np.ndarray:
    """frame_field from the cosine c and sine s of the angle."""
    nu = np.asarray(nu, dtype=float)
    x, y = nu[..., 0], nu[..., 1]
    return np.stack((c * x - s * y, c * y + s * x), axis=-1)


def scale_rows(v, k, op=np.multiply, base=None, combine=np.add) -> np.ndarray:
    """op(v, k[..., None]) of an (..., 2) array v and (...) factors k, combined
    as combine(base, that) with an (..., 2) base when one is given; bit for bit,
    one coordinate column at a time: numpy runs that broadcast two elements
    per inner loop, about three times slower."""
    v = np.asarray(v, dtype=float)
    out = np.empty(v.shape)
    for j in range(2):
        col = out[..., j]
        op(v[..., j], k, out=col)
        if base is not None:
            combine(base[..., j], col, out=col)
    return out


def row_dot(a, b) -> np.ndarray:
    """np.sum(a * b, axis=-1) of (..., 2) arrays, bit for bit, without its slow last-axis reduction."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def row_norm(a) -> np.ndarray:
    """np.linalg.norm(a, axis=-1) of (..., 2) arrays, bit for bit."""
    return np.sqrt(row_dot(a, a))
