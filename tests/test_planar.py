import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from frontals.planar import constant_fn, frame_field, linear_fn, rotate_j, row_dot, row_norm, scale_rows

finite = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)


def test_rotate_j_examples():
    a = np.array([[1.0, 0.0], [0.0, 0.0], [3.0, 4.0]])
    assert np.array_equal(rotate_j(a), [[0.0, 1.0], [0.0, 0.0], [-4.0, 3.0]])
    assert np.array_equal(rotate_j([3.0, 4.0]), [-4.0, 3.0])


def test_rotate_j_twice_is_negation():
    a = np.array([[2.5, -1.25], [-7.0, 0.5]])
    assert np.array_equal(rotate_j(rotate_j(a)), -a)


def test_scale_rows_equals_the_broadcast_bit_for_bit():
    rng = np.random.default_rng(11)
    v, base, k = rng.normal(size=(64, 2)), rng.normal(size=(64, 2)), rng.normal(size=64)
    # signed zeros in every operand, against zeros and nonzeros of the others
    v[:8] = [[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0], [1.5, -0.0], [-0.0, 2.0], [0.0, 3.0], [-1.0, 0.0]]
    k[:12] = [0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0]
    base[:12] = [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0], [-0.0, 0.0], [0.0, -0.0],
                 [-0.0, -0.0], [0.0, 0.0], [-0.0, 1.0], [2.0, -0.0], [0.0, -0.0], [-0.0, 0.0]]
    k[20] = np.inf  # nan, and signs of inf, as the broadcast makes them

    def same(got, want):
        return got.shape == want.shape and got.tobytes() == want.tobytes()

    with np.errstate(invalid="ignore", divide="ignore"):
        assert same(scale_rows(v, k), k[:, None] * v)
        assert same(scale_rows(v, k, base=base), base + k[:, None] * v)
        assert same(scale_rows(v, k, base=base, combine=np.subtract), base - k[:, None] * v)
        assert same(scale_rows(v, k, np.divide), v / k[:, None])
        assert same(scale_rows(v, k, np.divide, base, np.subtract), base - v / k[:, None])
    assert same(scale_rows(v[3], k[3]), k[3] * v[3])  # one row


def test_frame_field_examples():
    e1 = np.array([1.0, 0.0])
    assert np.array_equal(frame_field(e1, np.float64(0.0)), e1)
    v = frame_field(e1, np.float64(math.pi / 2))
    assert abs(v[0]) < 1e-15 and abs(v[1] - 1) < 1e-15
    w = frame_field(np.array([0.0, 1.0]), np.float64(math.pi))
    assert abs(w[0]) < 1e-15 and abs(w[1] + 1) < 1e-15


@given(finite, finite)
def test_rotation_preserves_norm_and_orthogonality(x, y):
    a = np.array([x, y])
    ja = rotate_j(a)
    assert np.sum(a * ja) == 0.0
    assert math.isclose(np.linalg.norm(ja), np.linalg.norm(a), rel_tol=1e-15, abs_tol=0.0)


@given(finite, finite)
def test_det_with_rotation_is_norm_squared(x, y):
    a = np.array([x, y])
    ja = rotate_j(a)
    det = a[0] * ja[1] - a[1] * ja[0]
    assert math.isclose(det, x * x + y * y, rel_tol=1e-15, abs_tol=0.0)


@given(st.floats(min_value=-20, max_value=20, allow_nan=False))
def test_frame_two_pi_periodicity(theta):
    nu = np.array([math.cos(0.7), math.sin(0.7)])
    a = frame_field(nu, np.float64(theta))
    b = frame_field(nu, np.float64(theta + 2 * math.pi))
    assert np.linalg.norm(a - b) <= 1e-12


def test_rotation_is_exactly_orthogonal_to_unit_fields():
    t = np.linspace(0, 7, 101)
    nu = np.stack((np.cos(t), np.sin(t)), axis=-1)
    mu = rotate_j(nu)
    assert np.max(np.abs(np.sum(nu * mu, axis=-1))) <= 1e-15


def test_frame_field_matches_scalar_version():
    t = np.array([0.3, 1.1])
    nu = np.stack((np.cos(t), np.sin(t)), axis=-1)
    out = frame_field(nu, np.array([0.5, -0.2]))
    for i, ((x, y), ang) in enumerate(zip(nu, [0.5, -0.2])):
        # cos(ang) * nu + sin(ang) * J(nu), one point at a time
        ref = (math.cos(ang) * x - math.sin(ang) * y, math.cos(ang) * y + math.sin(ang) * x)
        assert np.allclose(out[i], ref, atol=1e-15)


def test_scalar_fn_helpers():
    t = np.linspace(0, 1, 11)
    c = constant_fn(2.5)
    assert np.all(c.eval(t) == 2.5) and np.all(c.deriv(t) == 0.0)
    lin = linear_fn(1.0, -3.0)
    assert np.allclose(lin.eval(t), 1.0 - 3.0 * t)
    assert np.all(lin.deriv(t) == -3.0)


def test_row_kernels_match_numpy_bitwise():
    # A guard: row_dot and row_norm replace these numpy reductions bit for bit.
    rng = np.random.default_rng(7)
    for scale, shape in ((1.0, (257, 2)), (1e-200, (64, 2)), (1e200, (64, 2)), (1.0, (5, 7, 2))):
        a, b = scale * rng.normal(size=shape), scale * rng.normal(size=shape)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            assert np.array_equal(row_dot(a, b), np.sum(a * b, axis=-1), equal_nan=True)
            assert np.array_equal(row_norm(a), np.linalg.norm(a, axis=-1), equal_nan=True)
