"""Quaternionic frame geometry of the unit 3-sphere.

The sphere is identified with the unit quaternions q = q0 + q1*i + q2*j + q3*k
(right-handed product, i*j = k).  Two global orthonormal frames are used:

* the invariant frame ``e_m(q) = e_hat_m * q`` obtained by multiplying on the
  left by the imaginary units, whose dual coframe eta^m obeys
  ``d eta^1 = 2 eta^2 ^ eta^3`` (cyclically), and
* the opposite frame ``f_m(q) = q * e_hat_m`` obeying the same relation with a
  global sign flip.

Wedge convention: (eta^j ^ eta^k)(e_j, e_k) = 1 for j < k, no 1/2 factor.
"""

import numpy as np

__all__ = [
    "quat_mult",
    "LEFT_MULT",
    "RIGHT_MULT",
    "LEVI_CIVITA",
    "normalize_point",
    "left_frame_at",
    "right_frame_at",
    "structure_residual",
    "hodge_star_s3",
]


def quat_mult(q, r):
    """Quaternion product q*r with i*j = k."""
    q0, q1, q2, q3 = q
    r0, r1, r2, r3 = r
    return np.array([
        q0 * r0 - q1 * r1 - q2 * r2 - q3 * r3,
        q0 * r1 + q1 * r0 + q2 * r3 - q3 * r2,
        q0 * r2 - q1 * r3 + q2 * r0 + q3 * r1,
        q0 * r3 + q1 * r2 - q2 * r1 + q3 * r0,
    ])


def _mult_matrices():
    units = np.eye(4)[1:]
    left = [np.column_stack([quat_mult(u, b) for b in np.eye(4)]) for u in units]
    right = [np.column_stack([quat_mult(b, u) for b in np.eye(4)]) for u in units]
    return np.array(left), np.array(right)


#: LEFT_MULT[m] @ x == e_hat_m * x,  RIGHT_MULT[m] @ x == x * e_hat_m
LEFT_MULT, RIGHT_MULT = _mult_matrices()


def _levi_civita():
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    return eps


#: totally antisymmetric symbol, LEVI_CIVITA[0,1,2] = +1
LEVI_CIVITA = _levi_civita()


#: per frame: the matrices of its vector fields X_m(x) = mats[m] x, their
#: commutators [X_j, X_k] as matrices (3, 3, 4, 4), and its structure sign
_FRAMES = {name: (m, np.einsum("kab,jbc->jkac", m, m) - np.einsum("jab,kbc->jkac", m, m), sign)
           for name, m, sign in (("left", LEFT_MULT, 1.0), ("right", RIGHT_MULT, -1.0))}


def _apply(mats, p):
    """Matrices (..., 4, 4) applied to points p (P..., 4), shape (P..., ..., 4).

    Each row of a frame or bracket matrix has at most one nonzero entry, so
    every value is exact and does not depend on the batch.
    """
    out = np.einsum("...ij,nj->n...i", mats, p.reshape(-1, 4))
    return out.reshape(p.shape[:-1] + mats.shape[:-1])


def normalize_point(p):
    """Project points p of shape (..., 4) onto the unit sphere; rejects the origin."""
    p = np.asarray(p, dtype=float)
    n = np.linalg.norm(p, axis=-1, keepdims=True)
    if np.any(n == 0.0):
        raise ValueError("cannot normalize the origin onto the sphere")
    return p / n


def left_frame_at(p):
    """Orthonormal tangent frames (e1, e2, e3) at points p (..., 4), rows of (..., 3, 4).

    e_m(p) is the quaternion product e_hat_m * p.  This is the coframe
    satisfying d eta^1 = 2 eta^2 ^ eta^3 and cyclic permutations.
    """
    return _apply(LEFT_MULT, normalize_point(p))


def right_frame_at(p):
    """Opposite frames (f1, f2, f3) at points p (..., 4), with f_m(p) = p * e_hat_m.

    Satisfies the structure equation with a global sign flip:
    d phi^1 = -2 phi^2 ^ phi^3, cyclically.
    """
    return _apply(RIGHT_MULT, normalize_point(p))


def structure_residual(p, frame="left"):
    """Max deviation of d eta^i(e_j, e_k) from 2*eps^i_{jk} at points p (..., 4).

    The exterior derivative is evaluated through the exact commutator of the
    linear vector fields generating the frame: d eta^i(X_j, X_k) =
    -eta^i([X_j, X_k]).  For the right frame the target carries the opposite
    sign.  One value per point, zero up to rounding everywhere on the sphere.
    """
    p = normalize_point(p)
    mats, brackets, sign = _FRAMES[frame]
    e = _apply(mats, p)[..., :, None, None, :]
    b = _apply(brackets, p)[..., None, :, :, :]
    # <X_i p, [X_j, X_k] p>, summed elementwise in one order for every batch
    d_eta = -(e[..., 0] * b[..., 0] + e[..., 1] * b[..., 1]
              + e[..., 2] * b[..., 2] + e[..., 3] * b[..., 3])
    return np.max(np.abs(d_eta - sign * 2.0 * LEVI_CIVITA), axis=(-3, -2, -1))


# Star tables in the eta^i basis.  1-forms are component triples (a1, a2, a3);
# 2-forms are triples in the ordered j<k basis (eta^1^eta^2, eta^1^eta^3,
# eta^2^eta^3).  *eta^1 = eta^2^eta^3, *eta^2 = -eta^1^eta^3, *eta^3 =
# eta^1^eta^2, and the same matrix sends 2-forms back (the star squares to
# the identity on the 3-sphere).
_STAR_S3 = np.array([
    [0.0, 0.0, 1.0],
    [0.0, -1.0, 0.0],
    [1.0, 0.0, 0.0],
])


def hodge_star_s3(components, degree):
    """Hodge star on the round 3-sphere in frame components, shape (..., 3).

    degree 1: input (a1, a2, a3) for a_i eta^i, output in the j<k basis
    (eta^1^eta^2, eta^1^eta^3, eta^2^eta^3).  degree 2: the inverse map.
    """
    if degree not in (1, 2):
        raise ValueError(f"degree must be 1 or 2, got {degree!r}")
    components = np.asarray(components, dtype=float)
    if components.shape[-1:] != (3,):
        raise ValueError("expected component triples on the last axis")
    return components @ _STAR_S3.T
