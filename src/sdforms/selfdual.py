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

__all__ = [
    "star_two_form",
    "wedge_norm_sq",
    "in_blocks",
    "SelfDualForm",
    "stencil_laplacian",
    "stencil_batch",
    "d_residual",
    "harmonic_residual",
    "kato_ratio",
    "l2_shell_orthogonality",
    "shell_pairings",
]

_SQRT2 = np.sqrt(2.0)

#: the most points one evaluation receives from the work in_blocks runs (the
#: stencil checks, the Ricci oracle, the energy shells' unit-sphere tables and
#: ``verify frames``), so its temporaries do not grow with the number of points
EVAL_BLOCK = 2304

#: kato_ratio and regularity.sqrt_elliptic_check reject |omega| <= ZERO_TOL
ZERO_TOL = 1e-8

# The private evaluators keep components on the leading axes, (4, ...) for
# points and covectors and (4, 4, ...) for 2-forms, so that each elementwise
# step runs along the points; the public functions use trailing axes.  The
# series evaluator is elementwise throughout, with no matrix product, so a
# point's value does not depend on the batch it is evaluated in.


def _star_table():
    # (*M)_ab = eps_abcd M_cd / 2, eps the sign of the permutation abcd
    eps = np.zeros((4, 4, 4, 4))
    for p in permutations(range(4)):
        eps[p] = (-1) ** sum(a > b for a, b in combinations(p, 2))
    return 0.5 * eps.reshape(16, 16)


#: Hodge star on row-major flattened 4x4 component matrices
_STAR = _star_table()
#: L_m is a signed permutation: (L_m n)_i = _FRAME_SIGN[m, i] * n[_FRAME_INDEX[m, i]]
_FRAME_INDEX = np.argmax(np.abs(LEFT_MULT), axis=2)
_FRAME_SIGN = np.take_along_axis(LEFT_MULT, _FRAME_INDEX[..., None], axis=2)[..., 0]


def _radius(x):
    """|x| of points with coordinates on the leading axis, x of shape (4, ...)."""
    return np.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3])


def _radial_split(x):
    """Directions x/|x| of shape (4, ...) and radii |x| of points x of shape (..., 4)."""
    x = np.ascontiguousarray(np.moveaxis(np.asarray(x, dtype=float), -1, 0))
    t = _radius(x)
    if np.any(t == 0.0):
        raise ValueError("self-dual form evaluators are undefined at the origin")
    return x / t, t


def _covector(a, n):
    """sum_m a_m L_m n: frame components a (3, ...) as a covector (4, ...) at n."""
    sign = _FRAME_SIGN.reshape(_FRAME_SIGN.shape + (1,) * (n.ndim - 1))
    terms = a[:, None] * (sign * n[_FRAME_INDEX])
    return terms[0] + terms[1] + terms[2]


#: the index pairs 01, 02, 03 and their Hodge duals 23, 13, 12, in which
#: a self-dual form has M01 = M23, M02 = -M13 and M03 = M12
_ROW, _COL = np.array([0, 0, 0, 2, 1, 1]), np.array([1, 2, 3, 3, 3, 2])
_DUAL_SIGN = np.array([1.0, -1.0, 1.0])
#: each entry of a row-major 4x4 self-dual matrix as a row of [0, c, -c],
#: c = (M01, M02, M03)
_SELF_DUAL_SLOT = np.array([0, 1, 2, 3,
                            4, 0, 3, 5,
                            5, 6, 0, 1,
                            6, 2, 4, 0])


def _self_dual(n, xi):
    """F^{-1}: self-dual forms (4, 4, ...) from directions n and covectors xi (4, ...).

    With A = n ^ xi the form is (A + *A) / sqrt(2); its three independent
    components are (A01 + A23, A02 - A13, A03 + A12) / sqrt(2).
    """
    A = n[_ROW] * xi[_COL] - xi[_ROW] * n[_COL]
    c = (A[:3] + _DUAL_SIGN.reshape((3,) + (1,) * (n.ndim - 1)) * A[3:]) / _SQRT2
    rows = np.concatenate([np.zeros((1,) + c.shape[1:]), c, -c])
    return rows[_SELF_DUAL_SLOT].reshape((4, 4) + c.shape[1:])


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


def in_blocks(fn, size, *arrays):
    """fn over row blocks of at most size rows of arrays, joined along axis 0.

    fn takes one slice of each array and returns an array or a tuple of
    arrays.  It is called at least once, so arrays with no rows give fn's
    empty output.
    """
    parts = [fn(*(a[lo:lo + size] for a in arrays))
             for lo in range(0, max(len(arrays[0]), 1), size)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


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
    def kahler(cls, axis):
        """Covariant-constant form from the invariant coframe eta^axis.

        Constant in x, self-dual, of unit norm; at the identity the first one
        has components omega_{01} = omega_{23} = 1/sqrt(2).
        """
        return cls([(1.0, 2, left_invariant_coframe(axis))])

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
        A = evaluate_monomials(E, C, n)
        a = np.zeros((3, t.size))
        for j in range(len(c)):
            a += (c[j] * t ** (lam[j] - 2.0)) * A[3 * j:3 * j + 3]
        M = _self_dual(n, _covector(a, n))
        return M.transpose(2, 0, 1).reshape(x.shape[:-1] + (4, 4))

    def norm(self, x):
        """|omega| at points x of shape (..., 4), one value per point."""
        return _norm(self(x))


def _stencils(x, step):
    """The 9-point stencils [x, x + step e_m, x - step e_m] of points x (N, 4).

    step is one float or one per point; the result has shape (9, N, 4).
    """
    d = np.eye(4)[:, None, :] * np.reshape(step, (1, -1, 1))
    return np.concatenate([x[None], x + d, x - d])


def stencil_batch(rule, sdf, x, h, scaled=False):
    """A per-point stencil rule at points x (..., 4), in_blocks of EVAL_BLOCK // 9.

    The stencil of a point has step h, or h |x| when ``scaled``, and must not
    reach the origin: points with |x| <= 2 step are rejected unevaluated.
    ``rule(sdf, S, h)`` gets the stencils S (9, N, 4) of the other points
    and returns their values and a mask of the points it accepts.  Returns
    the values (NaN where rejected) and the accepted mask, both of shape
    x.shape[:-1] (numpy scalars for one point of shape (4,)).
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1, 4)
    t = _radius(flat.T)
    step = h * t if scaled else np.full_like(t, h)
    inside = np.flatnonzero(t - 2.0 * step > 0.0)
    values = np.full(len(flat), np.nan)
    accepted = np.zeros(len(flat), dtype=bool)
    values[inside], accepted[inside] = in_blocks(
        lambda idx: rule(sdf, _stencils(flat[idx], step[idx]), h), EVAL_BLOCK // 9, inside)
    values[~accepted] = np.nan
    return values.reshape(x.shape[:-1])[()], accepted.reshape(x.shape[:-1])[()]


def stencil_laplacian(values, h):
    """Flat Laplacian by second differences of values on the stencils of stencil_batch."""
    lap = -8.0 * values[0]
    for m in range(4):
        lap = lap + values[1 + m] + values[5 + m]
    return lap / h ** 2


def d_residual(sdf, x, h):
    """Max component of the exterior derivative by central differences.

    Second-order accurate: for exact closed forms the residual decays like
    h^2 under step halving.  Returns the residuals (NaN where rejected) and
    the mask of points whose stencil stays clear of the origin, both of
    shape x.shape[:-1], as stencil_batch does.
    """
    m, n, r = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]).T

    def rule(sdf, S, h):
        M = sdf(S)
        grad = (M[1:5] - M[5:]) / (2.0 * h)
        d = grad[m, :, n, r] - grad[n, :, m, r] + grad[r, :, m, n]
        return np.max(np.abs(d), axis=0), np.ones(d.shape[1], dtype=bool)

    return stencil_batch(rule, sdf, x, h)


def harmonic_residual(sdf, x, h):
    """Max component of the flat Laplacian of the form by second differences.

    Returns the residuals and the accepted mask as d_residual does.
    """
    def rule(sdf, S, h):
        lap = stencil_laplacian(sdf(S), h)
        return np.max(np.abs(lap), axis=(-2, -1)), np.ones(len(lap), dtype=bool)

    return stencil_batch(rule, sdf, x, h)


def kato_ratio(sdf, x, h):
    """Ratio |grad|omega||^2 / |grad omega|^2 at points x by central differences.

    Flat metric, so the covariant derivative is the componentwise partial.
    Closed self-dual forms obey the sharpened bound ratio <= 2/3.  A point
    is rejected where |omega| <= ZERO_TOL or where its stencil reaches the
    origin; the ratio is undefined where the form is covariant-constant at
    the stencil scale, |grad omega| below 1e-12 or its rounding noise.
    Returns the ratios (NaN where rejected or undefined) and the mask of
    points not rejected, both of shape x.shape[:-1], as stencil_batch does.

    Forms built from the -2 eigenvalue saturate the bound exactly, so
    checking the ratio against 2/3 + 1e-6 needs h around 1e-4 or smaller;
    at h = 1e-3 the stencil error alone exceeds that margin near saturation.
    """
    def rule(sdf, S, h):
        M = sdf(S)
        norms = _norm(M)
        accepted = ~(norms[0] <= ZERO_TOL)
        dn = (norms[1:5] - norms[5:]) / (2.0 * h)
        num = dn[0] * dn[0] + dn[1] * dn[1] + dn[2] * dn[2] + dn[3] * dn[3]
        # derivative of a self-dual family is self-dual, so the wedge norm
        # is the right squared magnitude of each slot
        slots = wedge_norm_sq((M[1:5] - M[5:]) / (2.0 * h))
        den = slots[0] + slots[1] + slots[2] + slots[3]
        # a central difference of a covariant-constant form returns pure
        # rounding noise of size eps_machine |omega| / h, so the
        # constant-form floor scales with the stencil
        noise_floor = np.maximum(1e-12, 64.0 * np.finfo(float).eps * norms[0] / h)
        defined = accepted & ~(den < noise_floor ** 2)
        ratio = np.full(den.shape, np.nan)
        ratio[defined] = num[defined] / den[defined]
        return ratio, accepted

    return stencil_batch(rule, sdf, x, h)


def l2_shell_orthogonality(modes, i, j, t):
    """Shell integral of i_dt(omega_i ^ omega_j) over |x| = t for eigenfields i, j of
    a :class:`~sdforms.spectrum.ModeSet`.

    Reduces exactly to t^(lam_i + lam_j - 1) times the L^2 pairing of the two
    eigenfields on the unit sphere, hence vanishes for distinct eigenvalues;
    a mode paired with itself returns its positive shell energy.  The
    pairing is the dict-of-monomials product, the reference for entry
    (i, j) of :func:`shell_pairings`.
    """
    if t <= 0:
        raise ValueError(f"shell radius must be positive, got {t}")
    pairing = float(coframe_inner(modes.field(i), modes.field(j)))
    return t ** (int(modes.lam_int[i]) + int(modes.lam_int[j]) - 1) * pairing


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
