import numpy as np
import pytest
from numpy.testing import assert_allclose

from sdforms.frames import (
    LEVI_CIVITA,
    hodge_star_s3,
    left_frame_at,
    normalize_point,
    quat_mult,
    right_frame_at,
    structure_residual,
)


def random_sphere_points(n, seed=0):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((n, 4))
    return p / np.linalg.norm(p, axis=1, keepdims=True)


def test_quaternion_table():
    i = np.array([0.0, 1, 0, 0])
    j = np.array([0.0, 0, 1, 0])
    k = np.array([0.0, 0, 0, 1])
    assert_allclose(quat_mult(i, j), k)
    assert_allclose(quat_mult(j, k), i)
    assert_allclose(quat_mult(k, i), j)
    assert_allclose(quat_mult(i, i), [-1, 0, 0, 0])


def test_left_frame_identity():
    e = left_frame_at([1.0, 0, 0, 0])
    assert_allclose(e, np.eye(4)[1:], atol=1e-15)


def test_left_frame_at_i():
    # values fixed by quaternion multiplication from the left: i*i=-1, j*i=-k, k*i=j
    e = left_frame_at([0.0, 1, 0, 0])
    assert_allclose(e[0], [-1, 0, 0, 0], atol=1e-15)
    assert_allclose(e[1], [0, 0, 0, -1], atol=1e-15)
    assert_allclose(e[2], [0, 0, 1, 0], atol=1e-15)


def test_right_frame_at_i():
    f = right_frame_at([0.0, 1, 0, 0])
    assert_allclose(f[0], [-1, 0, 0, 0], atol=1e-15)
    assert_allclose(f[1], [0, 0, 0, 1], atol=1e-15)
    assert_allclose(f[2], [0, 0, -1, 0], atol=1e-15)


def test_frames_orthonormal_and_tangent():
    for p in random_sphere_points(100, seed=1):
        for frame in (left_frame_at(p), right_frame_at(p)):
            assert_allclose(frame @ frame.T, np.eye(3), atol=1e-12)
            assert_allclose(frame @ p, np.zeros(3), atol=1e-12)


def test_left_right_pairing_not_constant():
    # <e_2, f_2> is +1 at the identity and -1 at i
    d1 = left_frame_at([1.0, 0, 0, 0])[1] @ right_frame_at([1.0, 0, 0, 0])[1]
    d2 = left_frame_at([0.0, 1, 0, 0])[1] @ right_frame_at([0.0, 1, 0, 0])[1]
    assert_allclose(d1, 1.0, atol=1e-14)
    assert_allclose(d2, -1.0, atol=1e-14)


def test_frame_functions_batch_equals_each_point_bit_for_bit():
    # points on the last axis, any leading shape: each point's result is what
    # the point alone gives, bit for bit
    pts = 1.5 * random_sphere_points(500, seed=4).reshape(20, 25, 4)
    xi = np.random.default_rng(5).standard_normal((20, 25, 3))
    cases = [(normalize_point, pts, (4,)), (left_frame_at, pts, (3, 4)),
             (right_frame_at, pts, (3, 4)), (structure_residual, pts, ()),
             (lambda p: structure_residual(p, frame="right"), pts, ()),
             (lambda a: hodge_star_s3(a, 1), xi, (3,)),
             (lambda a: hodge_star_s3(a, 2), xi, (3,))]
    for f, x, tail in cases:
        batch = f(x)
        assert batch.shape == x.shape[:-1] + tail
        for idx in np.ndindex(x.shape[:-1]):
            assert batch[idx].tobytes() == np.asarray(f(x[idx])).tobytes()


def test_levi_civita_contraction():
    contracted = np.einsum("ijk,ljk->il", LEVI_CIVITA, LEVI_CIVITA)
    assert_allclose(contracted, 2 * np.eye(3))


def test_structure_residual_identity():
    assert structure_residual([1.0, 0, 0, 0]) <= 1e-12


def test_structure_residual_random():
    for p in random_sphere_points(100, seed=2):
        assert structure_residual(p) <= 1e-12
        assert structure_residual(p, frame="right") <= 1e-12


def test_structure_sign():
    # d eta^1(e_2, e_3) = +2 pins the convention
    p = normalize_point([0.3, -0.2, 0.9, 0.1])
    from sdforms.frames import LEFT_MULT

    e = left_frame_at(p)
    bracket = (LEFT_MULT[2] @ LEFT_MULT[1] - LEFT_MULT[1] @ LEFT_MULT[2]) @ p
    assert_allclose(-np.dot(e[0], bracket), 2.0, atol=1e-12)


def test_hodge_star_tables():
    assert_allclose(hodge_star_s3([1, 0, 0], 1), [0, 0, 1])  # *eta^1 = eta^2^eta^3
    assert_allclose(hodge_star_s3([0, 0, 1], 2), [1, 0, 0])  # *(eta^2^eta^3) = eta^1
    assert_allclose(hodge_star_s3([0, 1, 0], 1), [0, -1, 0])  # *eta^2 = -eta^1^eta^3


def test_hodge_star_involution():
    rng = np.random.default_rng(3)
    for _ in range(20):
        xi = rng.standard_normal(3)
        assert_allclose(hodge_star_s3(hodge_star_s3(xi, 1), 2), xi, atol=1e-15)


def test_hodge_star_bad_degree():
    with pytest.raises(ValueError):
        hodge_star_s3([1, 0, 0], 3)


def test_normalize_rejects_origin():
    with pytest.raises(ValueError):
        normalize_point([0.0, 0, 0, 0])
