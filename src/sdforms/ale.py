"""The 2-ended scalar-flat ALE family and its asymptotically Kahler forms.

The metric is the conformal rescaling (eps^2 + t^-2)^2 times the flat metric
on R^4 minus the origin, t the flat distance to the origin.  In terms of the
signed distance rho = eps^2 t - 1/t to the minimal separating sphere it is
the warped product d rho^2 + (rho^2 + 4 eps^2) g_{S^3}: two asymptotically
Euclidean ends joined by a neck of area 16 pi^2 eps^3.

Everything the module computes about this family is checked two ways:

* Ricci curvature: a closed-form expression proportional to
  4 grad(t) x grad(t) - g against a finite-difference Christoffel oracle;
  the squared norm is 192 eps^4 / (rho^2 + 4 eps^2)^4 and the scalar
  curvature vanishes.
* the gradient energy of the closed self-dual form
  omega = alpha eps^4 omega_2 + beta t^-4 omega_{-2}: a boundary formula
  (integration by parts of the closed-form |omega|^2) extrapolated in the
  cut-off against a direct volume quadrature of |grad omega|^2.

The energy limit computed by both routes is 8 pi^2 eps^2 (alpha^2 + beta^2);
the report carries it next to the two printed reference values it is
compared against (16 pi^2 alpha^2 eps^2 and 18 pi^2 eps^2).

Asymptotics: |omega|^2 tends to alpha^2 on the plus end and beta^2 on the
minus end (rate rho^-2); with the matching coefficient switched off an end
decays as |omega| ~ rho^-4, and the decay classifier sorts measured profiles
into the flat/fast dichotomy with the gap (-4, 0) in between flagged as
Indeterminate.
"""

from dataclasses import dataclass
from math import pi

import numpy as np

from .polys import left_invariant_coframe, right_invariant_coframe
from .quadrature import radial_gauss, s3_quadrature
from .sampling import Sampler
from .selfdual import EVAL_BLOCK, SelfDualForm, _stencils, in_blocks, stencil_batch, wedge_norm_sq

__all__ = [
    "ALEModel",
    "AKFormParams",
    "DecayReport",
    "ASYMPTOTICALLY_KAHLER",
    "FAST_DECAY",
    "INDETERMINATE",
    "ak_form",
    "ak_form_eval",
    "ak_norm_sq_closed_form",
    "ak_norm_sq_end_deviation",
    "grad_energy_boundary",
    "grad_energy_volume",
    "sup_grad",
    "decay_profile",
    "decay_classify",
    "energy_reference_values",
]

ASYMPTOTICALLY_KAHLER = "AsymptoticallyKahler"
FAST_DECAY = "FastDecay"
INDETERMINATE = "Indeterminate"

#: |slope| below this is flat (asymptotically Kahler); at or below the
#: cutoff it is the rho^-4 class.  The open gap between them is forbidden
#: for genuine closed self-dual inputs, so landing there is a failure.
KAHLER_SLOPE_BAND = 0.1
FAST_DECAY_CUTOFF = -3.5

#: relative step of the energy stencils: a point x is differenced at step FD_STEP |x|
FD_STEP = 1e-4

#: fixed generic direction used when profiles sample the cross term
PROFILE_DIRECTION = np.array([0.6, 0.48, -0.36, 0.52]) / np.linalg.norm(
    [0.6, 0.48, -0.36, 0.52])


def _metric_inverse(g):
    """Inverses of a stack of positive-definite matrices g (..., 4, 4).

    Gauss-Jordan elimination, unrolled over the rows and elementwise along
    the stack, so no LAPACK driver is loaded; beside g's copy and the result
    it holds one row of temporaries.  A positive-definite matrix needs no
    pivoting: its pivots are positive, and one that is not (or is NaN)
    raises ValueError.  On a diagonal g every elimination factor is zero and
    the result is exactly 1 / g_ii.  The result is C-contiguous, which keeps
    the summation order of the einsum contractions that read it.
    """
    a = np.array(g, dtype=float)
    inv = np.broadcast_to(np.eye(4), a.shape).copy()
    for k in range(4):
        # only the columns of a after k are read again, so column k stays
        # as it is and pivot and factor can be views of it
        pivot = a[..., k, k, None]
        if not np.all(pivot > 0):
            raise ValueError("metric is not positive definite")
        a[..., k, k + 1:] /= pivot
        inv[..., k, :] /= pivot
        for i in range(4):
            if i != k:
                factor = a[..., i, k, None]
                a[..., i, k + 1:] -= factor * a[..., k, k + 1:]
                inv[..., i, :] -= factor * inv[..., k, :]
    return inv


@dataclass
class ALEModel:
    """The metric (eps^2 + t^-2)^2 * flat on R^4 minus the origin."""

    epsilon: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")

    def _require_curved(self, what):
        # below about 1.5e-162 epsilon^2 underflows and the metric is flat too
        if self.epsilon ** 2 == 0.0:
            raise ValueError(f"{what} is degenerate at epsilon = {self.epsilon} "
                             "(epsilon^2 = 0: inverted flat metric)")

    def conformal_factor(self, t):
        t = np.asarray(t, dtype=float)
        return self.epsilon ** 2 + t ** -2

    def rho_of_t(self, t):
        """Signed distance to the minimal sphere, eps^2 t - 1/t."""
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0):
            raise ValueError("t must be positive")
        return self.epsilon ** 2 * t - 1.0 / t

    def t_of_rho(self, rho):
        """Inverse of rho_of_t through the positive quadratic root.

        Cancellation-free on both ends: the direct root for rho >= 0, the
        conjugate rewrite 2 / (sqrt(rho^2 + 4 eps^2) - rho) for rho < 0.
        Both are written through half = (|rho| + hypot(rho, 2 eps)) / 2,
        which overflows for no float rho; a t past the float range is inf.
        """
        self._require_curved("t_of_rho")
        rho = np.asarray(rho, dtype=float)
        half = 0.5 * np.abs(rho) + 0.5 * np.hypot(rho, 2.0 * self.epsilon)
        with np.errstate(over="ignore"):
            return np.where(rho >= 0, half / self.epsilon ** 2, 1.0 / half)

    def minimal_sphere_area(self):
        """Area (rho^2 + 4 eps^2)^(3/2) * 2 pi^2 at rho = 0, i.e. 16 pi^2 eps^3."""
        self._require_curved("minimal sphere")
        return float((4.0 * self.epsilon ** 2) ** 1.5 * 2.0 * pi ** 2)

    def metric_eval(self, x):
        """Metric matrices at points x of shape (..., 4): conformal factor
        squared times the identity, shape (..., 4, 4)."""
        x = np.asarray(x, dtype=float)
        t = np.linalg.norm(x, axis=-1)
        if np.any(t == 0.0):
            raise ValueError("the metric lives on R^4 minus the origin")
        return (self.conformal_factor(t) ** 2)[..., None, None] * np.eye(4)

    def _christoffel_fd(self, x, step):
        """Gamma^s_mn at points x (..., 4), shape (..., 4, 4, 4), from central
        differences of metric_eval, steps broadcast against x.shape[:-1]."""
        shift = step[..., None, None] * np.eye(4)
        centre = x[..., None, :]
        dg = ((self.metric_eval(centre + shift) - self.metric_eval(centre - shift))
              / (2 * step)[..., None, None, None])
        ginv = _metric_inverse(self.metric_eval(x))
        gam = 0.5 * (np.einsum("...sr,...mrn->...smn", ginv, dg)
                     + np.einsum("...sr,...nrm->...smn", ginv, dg)
                     - np.einsum("...sr,...rmn->...smn", ginv, dg))
        return gam

    def ricci_closed_form(self, x):
        """Ricci tensor -4 eps^2 / (t^4 f^2) * (4 grad t x grad t - g).

        Takes points of shape (..., 4) and returns (..., 4, 4).
        """
        self._require_curved("Ricci curvature")
        x = np.asarray(x, dtype=float)
        t2 = np.einsum("...i,...i->...", x, x)
        if np.any(t2 == 0.0):
            raise ValueError("curvature is undefined at the origin")
        f = self.conformal_factor(np.sqrt(t2))
        n = x / np.sqrt(t2)[..., None]
        return (-4.0 * self.epsilon ** 2 / (t2 ** 2 * f ** 2))[..., None, None] * (
            4.0 * n[..., :, None] * n[..., None, :] - np.eye(4))

    def ricci_numeric(self, x, h):
        """Independent curvature oracle: nested central differences.

        Christoffel symbols from finite differences of metric_eval, then the
        standard coordinate Ricci formula with the Gamma derivatives also by
        central differences.  The stencil is h times the local radius, since
        the conformal factor varies on the scale of t; the relative deviation
        from the closed form is then O(h^2) uniformly over the model.  Takes
        points of shape (..., 4) and returns (..., 4, 4).  Each point needs
        metric_eval at 81 points (its stencil of 9, each with 8 neighbours),
        so the points go through in_blocks of EVAL_BLOCK // 81.
        """
        self._require_curved("Ricci curvature")
        x = np.asarray(x, dtype=float)
        t = np.linalg.norm(x, axis=-1)
        step = h * t
        if np.any((t <= 2 * step) | (step == 0.0)):
            raise ValueError("stencil of radius 2 h |x| reaches the origin")
        ric = in_blocks(self._ricci_fd, EVAL_BLOCK // 81, x.reshape(-1, 4), step.reshape(-1))
        return ric.reshape(x.shape + (4,))

    def _ricci_fd(self, x, step):
        """ricci_numeric at points x (N, 4) with steps (N,), in one batch."""
        gam = self._christoffel_fd(_stencils(x, step).swapaxes(0, 1), step[:, None])
        dgam = (gam[:, 1:5] - gam[:, 5:]) / (2 * step)[:, None, None, None, None]
        gam = gam[:, 0]
        ric = (np.einsum("...ssmn->...mn", dgam)
               - np.einsum("...nsms->...mn", dgam)
               + np.einsum("...ssr,...rmn->...mn", gam, gam)
               - np.einsum("...snr,...rms->...mn", gam, gam))
        return 0.5 * (ric + np.swapaxes(ric, -1, -2))

    def ricci_norm_sq(self, x):
        """|Ric|^2 in the curved metric; equals 192 eps^4/(rho^2+4 eps^2)^4.

        Takes points of shape (..., 4) and returns shape (...).  The mixed
        tensor A = g^-1 Ric is formed first and |Ric|^2 = tr(A A): squaring Ric
        before the inverse metric scales it back would underflow where Ric is
        below about 1e-154 (the plus end at eps <= 1e-27).
        """
        ric = self.ricci_closed_form(x)
        A = np.einsum("...mr,...rn->...mn", _metric_inverse(self.metric_eval(x)), ric)
        return np.einsum("...mn,...nm->...", A, A)

    def scalar_curvature(self, x):
        """Trace of the closed-form Ricci tensor; the family is scalar-flat.

        Takes points of shape (..., 4) and returns shape (...).
        """
        ric = self.ricci_closed_form(x)
        ginv = _metric_inverse(self.metric_eval(x))
        return np.einsum("...mn,...mn->...", ric, ginv)


@dataclass
class AKFormParams:
    """Coefficients of omega = alpha eps^4 omega_2 + beta t^-4 omega_{-2}."""

    alpha: float
    beta: float
    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def model(self):
        return ALEModel(self.epsilon)


# the two pinned unit-norm eigenfields: eta^1 (eigenvalue +2) and phi^1
# (eigenvalue -2), both of pointwise norm one on the sphere; built once,
# since the energy quadrature makes a form from them at every radial node
_ETA_PLUS = left_invariant_coframe(1)
_ETA_MINUS = right_invariant_coframe(1)


def frame_pairing_poly():
    """Pointwise inner product <eta_2, eta_{-2}> as a polynomial on the sphere."""
    eta, phi = _ETA_PLUS, _ETA_MINUS
    total = eta.alpha[0] * phi.alpha[0]
    for m in (1, 2):
        total = total + eta.alpha[m] * phi.alpha[m]
    return total


def ak_form(params):
    """The closed self-dual form as a flat-space series evaluator."""
    return SelfDualForm([
        (params.alpha * params.epsilon ** 4, 2, _ETA_PLUS),
        (params.beta, -2, _ETA_MINUS),
    ])


def _ak_substitution(epsilon, t):
    """(r, q) = (1 / (1 + w), w r) at w = (eps t)^2, the variables of the AK closed forms.

    The numerator of |omega|^2 and f^4 share the factor t^-8, and what is left
    is a polynomial in r and q, both in [0, 1].  w is capped at 1e300, where q
    is 1 and r^2 is 0, so no t takes them past the float range.
    """
    with np.errstate(over="ignore"):
        w = np.minimum((epsilon * np.asarray(t, dtype=float)) ** 2, 1e300)
    r = 1.0 / (1.0 + w)
    return r, w * r


def ak_norm_sq_closed_form(params, t, pairing):
    """|omega|^2 in the curved metric from the conformal weight f^-4.

    pairing is the pointwise value of <eta_2, eta_{-2}> at the direction of
    interest (it averages to zero over the sphere).  A norm past the float
    range, which needs |alpha| or |beta| near 1e154, is inf.
    """
    a, b = params.alpha, params.beta
    r, q = _ak_substitution(params.epsilon, t)
    # a^2 q^4 + 2 a b pairing q^2 r^2 + b^2 r^4; the cross term doubles last,
    # so that an a b near the float limit meets r^2 = 0 before it can overflow
    with np.errstate(over="ignore"):
        cross = 2 * (a * b * np.asarray(pairing) * q ** 2 * r ** 2)
        return a ** 2 * q ** 4 + cross + b ** 2 * r ** 4


def ak_norm_sq_end_deviation(params, t, plus_end):
    """Sphere average of |omega|^2 minus its limit alpha^2 (plus end) or beta^2.

    Without cancellation, in the r, q of :func:`_ak_substitution`:
    a^2 s (-4 + 6s - 4s^2 + s^3) + b^2 s^4, s = r; a, b swapped and s = q.
    """
    a, b = params.alpha, params.beta
    r, q = _ak_substitution(params.epsilon, t)
    lead, other, s = (a, b, r) if plus_end else (b, a, q)
    return lead ** 2 * s * (-4.0 + s * (6.0 + s * (-4.0 + s))) + other ** 2 * s ** 4


def ak_form_eval(params, x):
    """Component matrices and curved-metric squared norms at points x (..., 4).

    Returns (M, norm_sq) of shapes (..., 4, 4) and (...).  The norm is
    computed from the flat wedge norm and the conformal weight, and
    cross-checked in tests against the closed-form expansion with the
    explicit <eta_2, eta_{-2}> cross term.
    """
    x = np.asarray(x, dtype=float)
    M = ak_form(params)(x)
    f = params.epsilon ** 2 + np.linalg.norm(x, axis=-1) ** -2
    return M, wedge_norm_sq(M) / f ** 4


# ------------------------------------------------------------------ energy

def _radial_norm_derivative(params, t):
    """d/d rho of the sphere-averaged |omega|^2 (cross term integrates out).

    The average is a^2 q^4 + b^2 r^4 in the w = (eps t)^2, r = 1 / (1 + w),
    q = w r of :func:`_ak_substitution`; dq/dw = r^2 = -dr/dw,
    dw/dt = 2 w / t and d rho = dt / (r t^2) give
    8 t q r^2 (a^2 q^3 - b^2 r^3), with no power of eps or t alone that
    could leave the float range.
    """
    a, b = params.alpha, params.beta
    r, q = _ak_substitution(params.epsilon, t)
    return 8.0 * t * q * r * r * (a * a * q ** 3 - b * b * r ** 3)


def _boundary_energy_at(params, A):
    """Half the flux of the radial derivative through rho = +-A; inf past the float range."""
    model = params.model
    area = (A ** 2 + 4.0 * params.epsilon ** 2) ** 1.5 * 2.0 * pi ** 2
    t_plus = model.t_of_rho(A)
    t_minus = model.t_of_rho(-A)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(0.5 * area * (_radial_norm_derivative(params, t_plus)
                                   - _radial_norm_derivative(params, t_minus)))


def grad_energy_boundary(params, A):
    """Gradient energy by the boundary formula, Richardson-extrapolated.

    Evaluates half the flux of the radial derivative of |omega|^2 through
    the spheres rho = +-A and removes the A^-2 and A^-4 tails using the
    values at A, 2A and 4A.  Raises when the extrapolation is unstable
    (A too small to sit in the asymptotic regime).
    """
    if A <= 0:
        raise ValueError(f"cut-off must be positive, got {A}")
    v1 = _boundary_energy_at(params, A)
    v2 = _boundary_energy_at(params, 2.0 * A)
    v4 = _boundary_energy_at(params, 4.0 * A)
    if abs(v4 - v2) > abs(v2 - v1) + 1e-13 * abs(v1):
        raise ValueError(
            f"extrapolation unstable at A = {A}: boundary values not converging")
    w1 = (4.0 * v2 - v1) / 3.0
    w2 = (4.0 * v4 - v2) / 3.0
    return (16.0 * w2 - w1) / 15.0


def ak_matrix_batch(params, X):
    """Component matrices of the form at points X of shape (..., 4)."""
    return ak_form(params)(X)


#: the index pairs m < n of a 2-form's independent components, and which of
#: them have m = s or n = s, for each axis s
_PAIR_M, _PAIR_N = np.array([0, 0, 0, 1, 1, 2]), np.array([1, 2, 3, 2, 3, 3])
_AT_M = (_PAIR_M == np.arange(4)[:, None])[..., None]
_AT_N = (_PAIR_N == np.arange(4)[:, None])[..., None]


def _add_connection(nabla, phi, omega):
    """Add the connection terms of nabla_s w_mn to nabla (4 axes s, 6 pairs m < n, N).

    phi (4, N) is grad log f and omega (4, 4, N) the form's components; the
    terms are -phi_m w_sn - phi_n w_ms - 2 phi_s w_mn + delta_sm (phi . w)_n
    + delta_sn (w . phi)_m.
    """
    phi_omega = phi[0] * omega[0] + phi[1] * omega[1] + phi[2] * omega[2] + phi[3] * omega[3]
    nabla -= phi[_PAIR_M] * omega[:, _PAIR_N] + phi[_PAIR_N] * omega[_PAIR_M].swapaxes(0, 1)
    nabla -= 2.0 * phi[:, None] * omega[_PAIR_M, _PAIR_N]
    nabla += (np.where(_AT_M, phi_omega[_PAIR_N], 0.0)
              - np.where(_AT_N, phi_omega[_PAIR_M], 0.0))
    return nabla


def _grad_norm_sq_rule(epsilon):
    """Stencil rule of |grad omega|^2 in the metric of the model at epsilon."""
    def rule(sdf, S, h):
        x = S[0].T
        t = np.linalg.norm(x, axis=0)
        f = epsilon ** 2 + t ** -2
        M = sdf(S).transpose(2, 3, 0, 1)               # (m, n, stencil, point)
        W = M[_PAIR_M, _PAIR_N]                         # (pair, stencil, point)
        # nabla_s w_mn for s on the first axis and the pairs m < n on the second
        nabla = np.swapaxes(W[:, 1:5] - W[:, 5:], 0, 1) / (2.0 * h * t)
        _add_connection(nabla, (-2.0 / t ** 4 / f) * x, M[:, :, 0])
        # (1/2) sum over all m, n is the sum over m < n, nabla_s w antisymmetric
        nabla *= nabla
        return nabla.reshape(24, -1).sum(axis=0) / f ** 6, np.ones(t.shape, dtype=bool)

    return rule


def grad_norm_sq_batch(params, X):
    """Curved-metric |grad omega|^2 at points X by finite differences.

    Partial derivatives of the components use a stencil of step FD_STEP |x|;
    the connection terms of the conformal metric f^2 g_flat are contracted
    in closed form.  With phi = grad log f the Christoffel symbols
    are Gamma^p_sm = delta^p_s phi_m + delta^p_m phi_s - delta_sm phi^p, so

        nabla_s w_mn = d_s w_mn - phi_m w_sn - phi_n w_ms - 2 phi_s w_mn
                       + delta_sm (phi . w)_n + delta_sn (w . phi)_m.

    Returns values of f^-6 * (1/2) sum (nabla_s omega_{mn})^2; the points go
    through in blocks (selfdual.stencil_batch).
    """
    return stencil_batch(_grad_norm_sq_rule(params.epsilon), ak_form(params), X, FD_STEP,
                         scaled=True)[0]


def _radial_panels(eps, A, n_per_panel):
    """Gauss nodes on log-spaced panels resolving the eps-wide neck."""
    edges = [0.0]
    r = eps / 4.0
    while r < A:
        edges.append(min(r, A))
        r *= 2.0
    if edges[-1] < A:
        edges.append(A)
    nodes, weights = [], []
    for sign in (1.0, -1.0):
        for a, b in zip(edges[:-1], edges[1:]):
            x, w = radial_gauss(sign * a, sign * b, n_per_panel)
            nodes.append(x)
            weights.append(sign * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _unit_sphere_tables(sdf, pts, h):
    """Per term c t^(lam - 2) Omega(x / t) of sdf: (c, lam, G, B) at the nodes pts (N, 4).

    The term is evaluated with unit coefficient on the 9-point stencils of
    step h of the unit-sphere nodes, one stencil slot at a time, in_blocks of
    EVAL_BLOCK points.  G (4 axes, 6 pairs m < n, N) is its central-difference
    quotient and B its connection terms with phi = n.
    """
    S = _stencils(pts, h)
    tables = []
    for c, lam, field in sdf.terms:
        unit = SelfDualForm([(1.0, lam, field)])

        def slot(k):
            return in_blocks(unit, EVAL_BLOCK, S[k]).transpose(1, 2, 0)

        G = np.empty((4, 6, len(pts)))
        for s in range(4):
            G[s] = slot(1 + s)[_PAIR_M, _PAIR_N] - slot(5 + s)[_PAIR_M, _PAIR_N]
        G /= 2.0 * h
        B = _add_connection(np.zeros_like(G), pts.T, slot(0))
        tables.append((float(c), float(lam), G, B))
    return tables


def _shell_energies(params, rhos):
    """t^3 f^3 times the sphere integral of |grad omega|^2 on the shells rhos.

    On the sphere rule s3_quadrature(8) the stencil of t n (step FD_STEP t)
    is t times the stencil of n, so a term takes on the shell t the values
    c t^(lam - 2) U of its unit-coefficient values U on the unit sphere's
    stencils, and phi = s n with s = -2 / (t^3 f).  The series is therefore
    evaluated once, on the unit sphere (_unit_sphere_tables), and on each shell

        t nabla omega = sum_j c_j t^(lam_j - 2) (G_j + t s B_j)

    is summed over the terms before it is squared, so that derivative and
    connection terms cancel before the square as they do point by point.
    """
    eps = params.epsilon
    pts, ws = s3_quadrature(8)
    tables = _unit_sphere_tables(ak_form(params), pts, FD_STEP)
    out = np.empty(len(rhos))
    for i, t in enumerate(params.model.t_of_rho(rhos)):
        t = float(t)
        f = eps ** 2 + t ** -2
        u = -2.0 / (t * t * f)
        # t^3 f^3 |grad omega|^2 = |t nabla omega|^2 t / f^3, the factor
        # taken into each coefficient so that no power of t overflows alone
        nabla = sum(c * t ** (lam - 1.5) / f ** 1.5 * (G + u * B) for c, lam, G, B in tables)
        nabla *= nabla
        out[i] = float(ws @ nabla.reshape(24, -1).sum(axis=0))
    return out


def grad_energy_volume(params, A):
    """Direct volume quadrature of |grad omega|^2 over -A < rho < A.

    Independent of the boundary formula: component partials by finite
    differences, exact conformal connection, product quadrature over a
    sphere rule and radial Gauss panels of 12 nodes (log-spaced toward
    rho = 0, where the energy density concentrates on the eps scale).  The
    measure reduces to f^3 t^3 d rho d sigma against the curved gradient
    density.  The series is evaluated on the sphere rule's stencils once for
    all shells (_shell_energies).

    Raises ValueError for A > 1e4 eps: from there on the volume drifts from
    the boundary energy, as (A / eps)^2 with beta != 0, at every eps (1.2e-3
    at A / eps = 1e6 for alpha = beta = 1, against 3.0e-6 at 1e3).
    """
    if A > 1e4 * params.epsilon:
        raise ValueError(f"cut-off A = {A} is {A / params.epsilon:.3g} epsilon; the volume "
                         f"quadrature is trusted only up to A/epsilon = 1e4")
    rhos, wr = _radial_panels(params.epsilon, A, 12)
    return float(wr @ _shell_energies(params, rhos))


def sup_grad(coefficients, eps_list):
    """Max of |grad omega| over the neck region for a decreasing eps list.

    ``coefficients`` is (alpha, beta).  The neck is sampled on 61 shells
    -5 <= rho <= 5 in 8 seeded directions.  Returns one supremum per
    epsilon; along eps -> 0 the suprema increase while the gradient energy
    decreases.
    """
    alpha, beta = coefficients
    eps_list = [float(e) for e in eps_list]
    if any(e <= 0 for e in eps_list) or any(
            b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("epsilon values must be positive and strictly decreasing")
    dirs = Sampler(23).directions(8)
    rhos = np.linspace(-5.0, 5.0, 61)
    out = []
    for eps in eps_list:
        p = AKFormParams(alpha, beta, eps)
        q = grad_norm_sq_batch(p, p.model.t_of_rho(rhos)[:, None, None] * dirs)
        out.append(float(np.sqrt(q.max())))
    return out


# ------------------------------------------------------------------ decay

@dataclass
class DecayReport:
    """Fitted log-log decay exponent of a profile and its classification."""

    exponent: float
    residual: float
    classification: str

    def to_json(self):
        return {
            "exponent": self.exponent,
            "fit_residual": self.residual,
            "classification": self.classification,
        }


def decay_profile(params, end, rho_max=1000.0):
    """Profile (rho, |omega|) along one end in PROFILE_DIRECTION, |rho| log-spaced
    at 40 points from 10 to rho_max."""
    if end not in ("plus", "minus"):
        raise ValueError(f"end must be 'plus' or 'minus', got {end!r}")
    pairing = float(_ETA_PLUS.evaluate(PROFILE_DIRECTION) @ _ETA_MINUS.evaluate(PROFILE_DIRECTION))
    rhos = np.geomspace(10.0, rho_max, 40)
    if end == "minus":
        rhos = -rhos
    ts = params.model.t_of_rho(rhos)
    norm_sq = ak_norm_sq_closed_form(params, ts, pairing)
    return [(float(r), float(np.sqrt(max(v, 0.0)))) for r, v in zip(rhos, norm_sq)]


def decay_classify(profile):
    """Least-squares decay exponent of log|omega| against log|rho|.

    Classification: flat within the slope band is asymptotically Kahler;
    slope at or below the fast cutoff is the rho^-4 class; anything between
    is Indeterminate, which a genuine closed self-dual input never produces.
    """
    if len(profile) < 10:
        raise ValueError(f"need at least 10 samples, got {len(profile)}")
    rho = np.array([p[0] for p in profile], dtype=float)
    val = np.array([p[1] for p in profile], dtype=float)
    steps = np.diff(rho)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise ValueError("profile not monotone in rho")
    if np.any(rho == 0) or np.any(rho > 0) and np.any(rho < 0):
        raise ValueError("profile must stay on a single end (one sign of rho)")
    r = np.abs(rho)
    # max / 10 < min, not max / min < 10: the ratio overflows for tiny min
    if r.max() / 10.0 < r.min():
        raise ValueError("profile must span at least one decade of rho")
    if not np.all(np.isfinite(val)):
        bad = ~np.isfinite(val)
        raise ValueError(f"profile values must be finite to fit a decay rate, "
                         f"got {val[bad][0]} at rho = {rho[bad][0]}")
    if np.any(val <= 0):
        raise ValueError("profile values must be positive to fit a decay rate")
    x = np.log(r)
    y = np.log(val)
    # the least-squares line through the centred sums: no LAPACK call
    dx, dy = x - x.mean(), y - y.mean()
    slope = float(dx @ dy / (dx @ dx))
    intercept = y.mean() - slope * x.mean()
    fit_residual = float(np.sqrt(np.mean((y - slope * x - intercept) ** 2)))
    if abs(slope) < KAHLER_SLOPE_BAND:
        cls = ASYMPTOTICALLY_KAHLER
    elif slope <= FAST_DECAY_CUTOFF:
        cls = FAST_DECAY
    else:
        cls = INDETERMINATE
    return DecayReport(exponent=float(slope), residual=fit_residual,
                       classification=cls)


def energy_reference_values(params):
    """The computed energy limit next to the two printed reference constants.

    The boundary/volume computation gives 8 pi^2 eps^2 (alpha^2 + beta^2);
    the two reference values it is compared against are 2 pi^2 * 8 alpha^2
    eps^2 (the sphere-area form) and 18 pi^2 eps^2.
    """
    eps2 = params.epsilon ** 2
    return {
        "computed_expected": 8.0 * pi ** 2 * eps2 * (params.alpha ** 2 + params.beta ** 2),
        "reference_area_form": 16.0 * pi ** 2 * params.alpha ** 2 * eps2,
        "reference_prose": 18.0 * pi ** 2 * eps2,
    }
