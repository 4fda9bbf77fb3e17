"""Closed self-dual 2-forms on flat R^4 built from sphere eigenfields.

A 2-form is handled through its antisymmetric 4x4 Cartesian component
matrix.  The bridge between 1-forms on the unit sphere and self-dual forms
is the radial contraction map: for the unit radial covector n,

    forward:  omega  ->  sqrt(2) * i_n omega        (a covector tangent to the sphere)
    inverse:  xi     ->  (n ^ xi + *(n ^ xi)) / sqrt(2)

The three covariant-constant forms come from the invariant coframe fields,
and a spectral mode eta with *d eta = lambda eta yields the closed form
t^(lambda-2) * F^{-1}(t eta).  Finite sums of such terms are evaluated
at whole arrays of points at once; closedness, harmonicity and the sharpened Kato inequality
|grad|omega||^2 <= (2/3)|grad omega|^2 are checked by central finite
differences.

Norm convention: |omega|^2 = *(omega ^ omega), which gives the unit-norm
normalization of the covariant-constant basis; for self-dual forms this
equals the component sum over index pairs mu < nu.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations

import numpy as np

from .frames import LEFT_MULT
from .polys import coframe_inner, evaluate_monomials, left_invariant_coframe, monomial_table
from .quadrature import radial_gauss

__all__ = [
    "star_two_form",
    "wedge_norm_sq",
    "eval_kahler_basis",
    "f_t_map",
    "f_t_inverse",
    "SelfDualForm",
    "stencil_points",
    "stencil_laplacian",
    "d_residual",
    "harmonic_residual",
    "kato_ratio",
    "l2_shell_orthogonality",
    "shell_pairings",
    "ball_orthogonality",
    "dump_point_samples",
]

_SQRT2 = np.sqrt(2.0)

# The private evaluators keep components on the leading axes, (4, ...) for
# points and covectors and (4, 4, ...) for 2-forms, so that each elementwise
# step runs along the points; the public functions use trailing axes.


def _star_table():
    # (*M)_ab = eps_abcd M_cd / 2, eps the sign of the permutation abcd
    eps = np.zeros((4, 4, 4, 4))
    for p in permutations(range(4)):
        eps[p] = (-1) ** sum(a > b for a, b in combinations(p, 2))
    return 0.5 * eps.reshape(16, 16)


#: Hodge star on row-major flattened 4x4 component matrices
_STAR = _star_table()
#: transposition of row-major flattened 4x4 matrices
_TRANSPOSE = np.eye(16).reshape(4, 4, 16).swapaxes(0, 1).reshape(16, 16)
#: F^{-1} on the flattened outer product n (x) xi: (A + *A) / sqrt(2) with
#: A = n (x) xi - xi (x) n
_F_INV = (np.eye(16) + _STAR) @ (np.eye(16) - _TRANSPOSE) / _SQRT2
#: sum_m a_m L_m n on the flattened outer product a (x) n
_COVECTOR = LEFT_MULT.transpose(1, 0, 2).reshape(4, 12)


def _radial_split(x):
    """Directions x/|x| of shape (4, ...) and radii |x| of points x of shape (..., 4)."""
    x = np.ascontiguousarray(np.moveaxis(np.asarray(x, dtype=float), -1, 0))
    t = np.sqrt(np.sum(x * x, axis=0))
    if np.any(t == 0.0):
        raise ValueError("self-dual form evaluators are undefined at the origin")
    return x / t, t


def _covector(a, n):
    """sum_m a_m L_m n: frame components a (3, ...) as a covector (4, ...) at n."""
    return (_COVECTOR @ (a[:, None] * n[None]).reshape(12, -1)).reshape(n.shape)


def _self_dual(n, xi):
    """F^{-1}: self-dual forms (4, 4, ...) from directions n and covectors xi (4, ...)."""
    P = n[:, None] * xi[None]
    return (_F_INV @ P.reshape(16, -1)).reshape(P.shape)


def star_two_form(M):
    """Hodge star of 2-forms M of shape (..., 4, 4), standard orientation."""
    M = np.asarray(M, dtype=float)
    return (M.reshape(M.shape[:-2] + (16,)) @ _STAR.T).reshape(M.shape)


def wedge_norm_sq(M):
    """|omega|^2 = *(omega ^ omega) over (..., 4, 4); positive on self-dual forms."""
    return 2.0 * (M[..., 0, 1] * M[..., 2, 3] - M[..., 0, 2] * M[..., 1, 3]
                  + M[..., 0, 3] * M[..., 1, 2])


def _norm(M):
    return np.sqrt(np.maximum(wedge_norm_sq(M), 0.0))


def tangent_covector(field, x):
    """Value of t * eta at x as a Cartesian covector, eta with components field.

    The coframe eta^m extends off the unit sphere by (L_m x)^flat / t^2, so
    t * eta^m has components (L_m x) / t and the result is orthogonal to x;
    x has shape (..., 4).
    """
    n, _ = _radial_split(x)
    a = np.moveaxis(field.evaluate(np.moveaxis(n, 0, -1)), -1, 0)
    return np.moveaxis(_covector(a, n), 0, -1)


def f_t_map(M, x):
    """Contraction sqrt(2) i_n omega of 2-form values M (..., 4, 4) at x, n = x/|x|."""
    n, _ = _radial_split(x)
    return _SQRT2 * np.einsum("i...,...ij->...j", n, M)


def f_t_inverse(xi, x):
    """The unique self-dual 2-form at x contracting to the tangent covector xi."""
    n, _ = _radial_split(x)
    M = _self_dual(n, np.moveaxis(np.asarray(xi, dtype=float), -1, 0))
    return np.moveaxis(M, (0, 1), (-2, -1))


def eval_kahler_basis(axis, x):
    """Covariant-constant self-dual form from the invariant coframe eta^axis.

    Constant in x, self-dual, of unit norm; at the identity the first one has
    components omega_{01} = omega_{23} = 1/sqrt(2).
    """
    return SelfDualForm.kahler(axis)(x)


@dataclass
class SelfDualForm:
    """Finite series sum_m C_m t^(lambda_m - 2) F^{-1}(t eta_m) on R^4 minus 0.

    Terms are (coefficient, integer eigenvalue, CoframeField) triples with
    the coefficient referred to t = 1; they are compiled on first
    evaluation, so they must not change afterwards.  The form is evaluated
    at points of shape (..., 4) and returns component matrices (..., 4, 4).
    """

    terms: list

    @classmethod
    def kahler(cls, axis, coefficient=1.0):
        return cls([(float(coefficient), 2, left_invariant_coframe(axis))])

    @classmethod
    def from_expansion(cls, expansion):
        """Convert a sphere-side ModeExpansion (with reference time t0)."""
        terms = []
        for mode, c in expansion.terms:
            scale = float(c) * expansion.t0 ** (2 - mode.lam_int)
            terms.append((scale, mode.lam_int, mode.field))
        return cls(terms)

    @cached_property
    def _compiled(self):
        """(E, C, c, lam): one monomial table whose columns 3j..3j+2 are the
        frame components of term j, and the term coefficients and eigenvalues."""
        E, C = monomial_table([a for _, _, field in self.terms for a in field.alpha])
        c = np.array([float(c) for c, _, _ in self.terms])
        lam = np.array([float(lam) for _, lam, _ in self.terms])
        return E, C, c, lam

    def __call__(self, x):
        # F^{-1} and the contraction are linear, so the weighted frame
        # components of all terms are summed before either is applied
        x = np.asarray(x, dtype=float)
        n, t = _radial_split(x.reshape(-1, 4))
        E, C, c, lam = self._compiled
        A = evaluate_monomials(E, C, n).reshape(len(c), 3, t.size)
        w = c[:, None] * t ** (lam[:, None] - 2.0)
        M = _self_dual(n, _covector(np.sum(w[:, None] * A, axis=0), n))
        return np.moveaxis(M, (0, 1), (-2, -1)).reshape(x.shape[:-1] + (4, 4))

    def norm(self, x):
        """|omega| at x: a float for one point, an array for points (..., 4)."""
        v = _norm(self(x))
        return float(v) if v.ndim == 0 else v

    def self_duality_defect(self, x):
        M = self(x)
        return float(np.max(np.abs(star_two_form(M) - M)))


def stencil_points(x, h):
    """The 9-point stencil [x, x + h e_m, x - h e_m] of x, shape (9, 4); needs |x| > 2h."""
    x = np.asarray(x, dtype=float)
    t = float(np.linalg.norm(x))
    if t - 2.0 * h <= 0.0:
        raise ValueError(
            f"stencil of radius 2h = {2 * h} leaves the annulus at |x| = {t}")
    step = h * np.eye(4)
    return np.concatenate([x[None], x + step, x - step])


def stencil_laplacian(values, h):
    """Flat Laplacian at x by second differences of values on stencil_points(x, h)."""
    lap = -8.0 * values[0]
    for m in range(4):
        lap = lap + values[1 + m] + values[5 + m]
    return lap / h ** 2


def d_residual(sdf, x, h):
    """Max component of the exterior derivative by central differences.

    Second-order accurate: for exact closed forms the residual decays like
    h^2 under step halving.
    """
    M = sdf(stencil_points(x, h))
    grad = (M[1:5] - M[5:]) / (2.0 * h)
    m, n, r = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]).T
    return float(np.max(np.abs(grad[m, n, r] - grad[n, m, r] + grad[r, m, n])))


def harmonic_residual(sdf, x, h):
    """Max component of the flat Laplacian of the form by second differences."""
    return float(np.max(np.abs(stencil_laplacian(sdf(stencil_points(x, h)), h))))


def kato_ratio(sdf, x, h, zero_tol=1e-8, constant_tol=1e-12):
    """Ratio |grad|omega||^2 / |grad omega|^2 at x by central differences.

    Flat metric, so the covariant derivative is the componentwise partial.
    Closed self-dual forms obey the sharpened bound ratio <= 2/3.  Returns
    None when the form is covariant-constant at the stencil scale (the ratio
    is undefined there); raises if |omega| is too small to differentiate.

    Forms built from the -2 eigenvalue saturate the bound exactly, so
    checking the ratio against 2/3 + 1e-6 needs h around 1e-4 or smaller;
    at h = 1e-3 the stencil error alone exceeds that margin near saturation.
    """
    M = sdf(stencil_points(x, h))
    norms = _norm(M)
    if norms[0] <= zero_tol:
        raise ValueError("|omega| vanishes at x; the Kato ratio is undefined")
    dn = (norms[1:5] - norms[5:]) / (2.0 * h)
    num = float(np.sum(dn * dn))
    # derivative of a self-dual family is self-dual, so the wedge norm
    # is the right squared magnitude of each slot
    den = float(np.sum(wedge_norm_sq((M[1:5] - M[5:]) / (2.0 * h))))
    # a central difference of a covariant-constant form returns pure
    # rounding noise of size eps_machine |omega| / h, so the constant-form
    # floor scales with the stencil
    noise_floor = max(constant_tol, 64.0 * np.finfo(float).eps * norms[0] / h)
    if den < noise_floor ** 2:
        return None
    return num / den


def l2_shell_orthogonality(mode1, mode2, t):
    """Shell integral of i_dt(omega_1 ^ omega_2) over |x| = t.

    Reduces exactly to t^(lam1+lam2-1) times the L^2 pairing of the two
    eigenfields on the unit sphere, hence vanishes for distinct eigenvalues;
    a mode paired with itself returns its positive shell energy.
    """
    if t <= 0:
        raise ValueError(f"shell radius must be positive, got {t}")
    pairing = float(coframe_inner(mode1.field, mode2.field))
    return t ** (mode1.lam_int + mode2.lam_int - 1) * pairing


def shell_pairings(modes, t):
    """All shell integrals of :func:`l2_shell_orthogonality` at once.

    For a :class:`~sdforms.spectrum.ModeSet` entry (i, j) is
    t^(lam_i + lam_j - 1) times entry (i, j) of the L^2 pairing table
    C^T G C.
    """
    if t <= 0:
        raise ValueError(f"shell radius must be positive, got {t}")
    lam = modes.lam_int
    return float(t) ** (lam[:, None] + lam[None, :] - 1) * modes.pairings()


def ball_orthogonality(mode1, mode2, radius, n_nodes=64):
    """Ball integral of omega_1 ^ omega_2 by radial quadrature of shell values."""
    if radius <= 0:
        raise ValueError(f"ball radius must be positive, got {radius}")
    ts, ws = radial_gauss(radius * 1e-6, radius, n_nodes)
    return float(sum(w * l2_shell_orthogonality(mode1, mode2, t)
                     for t, w in zip(ts, ws)))


def dump_point_samples(sdf, points, path):
    """CSV dump of component samples: x0..x3, the six omega_{mu nu}, |omega|."""
    header = ("x0,x1,x2,x3,omega_01,omega_02,omega_03,"
              "omega_12,omega_13,omega_23,abs_omega")
    rows = [header]
    points = np.asarray(points, dtype=float).reshape(-1, 4)
    values = sdf(points)
    for x, M, norm in zip(points, values, _norm(values)):
        vals = [x[0], x[1], x[2], x[3],
                M[0, 1], M[0, 2], M[0, 3], M[1, 2], M[1, 3], M[2, 3], norm]
        rows.append(",".join(f"{v:.12e}" for v in vals))
    text = "\n".join(rows) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
