"""Closed self-dual 2-forms on flat R^4 built from sphere eigenfields.

A 2-form is handled through its antisymmetric 4x4 Cartesian component
matrix.  The bridge between 1-forms on the unit sphere and self-dual forms
is the radial contraction map: for the unit radial covector n,

    forward:  omega  ->  sqrt(2) * i_n omega        (a covector tangent to the sphere)
    inverse:  xi     ->  (n ^ xi + *(n ^ xi)) / sqrt(2)

The three covariant-constant forms come from the invariant coframe fields,
and a spectral mode eta with *d eta = lambda eta yields the closed form
t^(lambda-2) * F^{-1}(t eta).  Finite sums of such terms are evaluated
pointwise; closedness, harmonicity and the sharpened Kato inequality
|grad|omega||^2 <= (2/3)|grad omega|^2 are checked by central finite
differences.

Norm convention: |omega|^2 = *(omega ^ omega), which gives the unit-norm
normalization of the covariant-constant basis; for self-dual forms this
equals the component sum over index pairs mu < nu.
"""

from dataclasses import dataclass

import numpy as np

from .frames import LEFT_MULT
from .polys import coframe_inner, left_invariant_coframe
from .quadrature import radial_gauss

__all__ = [
    "star_two_form",
    "wedge_norm_sq",
    "eval_kahler_basis",
    "f_t_map",
    "f_t_inverse",
    "SelfDualForm",
    "series_eval",
    "d_residual",
    "harmonic_residual",
    "kato_ratio",
    "l2_shell_orthogonality",
    "shell_pairings",
    "ball_orthogonality",
    "dump_point_samples",
]

_SQRT2 = np.sqrt(2.0)


def star_two_form(M):
    """Hodge star of a 2-form in Cartesian components, standard orientation."""
    out = np.empty_like(M)
    out[0, 1] = M[2, 3]
    out[2, 3] = M[0, 1]
    out[0, 2] = -M[1, 3]
    out[1, 3] = -M[0, 2]
    out[0, 3] = M[1, 2]
    out[1, 2] = M[0, 3]
    for a in range(4):
        out[a, a] = 0.0
        for b in range(a):
            out[a, b] = -out[b, a]
    return out


def wedge_norm_sq(M):
    """|omega|^2 = *(omega ^ omega); positive on self-dual forms."""
    return 2.0 * (M[0, 1] * M[2, 3] - M[0, 2] * M[1, 3] + M[0, 3] * M[1, 2])


def _radial_split(x):
    x = np.asarray(x, dtype=float)
    t = float(np.linalg.norm(x))
    if t == 0.0:
        raise ValueError("self-dual form evaluators are undefined at the origin")
    return x, t


def tangent_covector(field, x):
    """Value of t * eta at x as a Cartesian covector, eta with components field.

    The coframe eta^m extends off the unit sphere by (L_m x)^flat / t^2, so
    t * eta^m has components (L_m x) / t and the result is orthogonal to x.
    """
    x, t = _radial_split(x)
    u = x / t
    a = field.evaluate(u)
    xi = np.zeros(4)
    for m in range(3):
        if a[m]:
            xi += a[m] * (LEFT_MULT[m] @ x)
    return xi / t


def f_t_map(M, x):
    """Contraction sqrt(2) i_n omega of a 2-form value at x, n = x/|x|."""
    x, t = _radial_split(x)
    return _SQRT2 * ((x / t) @ M)


def f_t_inverse(xi, x):
    """The unique self-dual 2-form at x contracting to the tangent covector xi."""
    x, t = _radial_split(x)
    n = x / t
    A = np.outer(n, xi) - np.outer(xi, n)
    return (A + star_two_form(A)) / _SQRT2


def eval_kahler_basis(axis, x):
    """Covariant-constant self-dual form from the invariant coframe eta^axis.

    Constant in x, self-dual, of unit norm; at the identity the first one has
    components omega_{01} = omega_{23} = 1/sqrt(2).
    """
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis!r}")
    xi = tangent_covector(left_invariant_coframe(axis), x)
    return f_t_inverse(xi, x)


@dataclass
class SelfDualForm:
    """Finite series sum_m C_m t^(lambda_m - 2) F^{-1}(t eta_m) on R^4 minus 0.

    Terms are (coefficient, integer eigenvalue, CoframeField) triples with
    the coefficient referred to t = 1.  A finite series converges on the
    whole punctured space, so the annulus of definition is (0, inf).
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

    @property
    def annulus(self):
        return (0.0, np.inf)

    def __call__(self, x):
        x, t = _radial_split(x)
        M = np.zeros((4, 4))
        for c, lam, field in self.terms:
            w = c * t ** (lam - 2)
            if w:
                M += w * f_t_inverse(tangent_covector(field, x), x)
        return M

    def norm(self, x):
        return float(np.sqrt(max(wedge_norm_sq(self(x)), 0.0)))

    def self_duality_defect(self, x):
        M = self(x)
        return float(np.max(np.abs(star_two_form(M) - M)))


def series_eval(sdf, x):
    """Pointwise value of the series; rejects the origin explicitly."""
    return sdf(x)


def _check_stencil(x, h):
    t = float(np.linalg.norm(np.asarray(x, dtype=float)))
    if t - 2.0 * h <= 0.0:
        raise ValueError(
            f"stencil of radius 2h = {2 * h} leaves the annulus at |x| = {t}")


_D_COMPONENTS = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def d_residual(sdf, x, h):
    """Max component of the exterior derivative by central differences.

    Second-order accurate: for exact closed forms the residual decays like
    h^2 under step halving.
    """
    _check_stencil(x, h)
    x = np.asarray(x, dtype=float)
    grad = np.empty((4, 4, 4))
    for m in range(4):
        dx = np.zeros(4)
        dx[m] = h
        grad[m] = (sdf(x + dx) - sdf(x - dx)) / (2.0 * h)
    worst = 0.0
    for (m, n, r) in _D_COMPONENTS:
        worst = max(worst, abs(grad[m][n, r] - grad[n][m, r] + grad[r][m, n]))
    return worst


def harmonic_residual(sdf, x, h):
    """Max component of the flat Laplacian of the form by second differences."""
    _check_stencil(x, h)
    x = np.asarray(x, dtype=float)
    center = sdf(x)
    lap = -8.0 * center
    for m in range(4):
        dx = np.zeros(4)
        dx[m] = h
        lap = lap + sdf(x + dx) + sdf(x - dx)
    return float(np.max(np.abs(lap))) / h ** 2


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
    _check_stencil(x, h)
    x = np.asarray(x, dtype=float)
    if sdf.norm(x) <= zero_tol:
        raise ValueError("|omega| vanishes at x; the Kato ratio is undefined")
    num = 0.0
    den = 0.0
    for m in range(4):
        dx = np.zeros(4)
        dx[m] = h
        dn = (sdf.norm(x + dx) - sdf.norm(x - dx)) / (2.0 * h)
        num += dn * dn
        dM = (sdf(x + dx) - sdf(x - dx)) / (2.0 * h)
        # derivative of a self-dual family is self-dual, so the wedge norm
        # is the right squared magnitude of each slot
        den += wedge_norm_sq(dM)
    # a central difference of a covariant-constant form returns pure
    # rounding noise of size eps_machine |omega| / h, so the constant-form
    # floor scales with the stencil
    noise_floor = max(constant_tol, 64.0 * np.finfo(float).eps * sdf.norm(x) / h)
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
    for x in points:
        M = sdf(x)
        vals = [x[0], x[1], x[2], x[3],
                M[0, 1], M[0, 2], M[0, 3], M[1, 2], M[1, 3], M[2, 3],
                sdf.norm(x)]
        rows.append(",".join(f"{v:.12e}" for v in vals))
    text = "\n".join(rows) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
