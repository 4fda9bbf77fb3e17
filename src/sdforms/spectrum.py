"""Eigen-decomposition of *d on divergence-free 1-form fields.

On the round 3-sphere the operator *d restricted to divergence-free fields
has spectrum consisting of the integers of absolute value at least two, with
multiplicity lambda^2 - 1.  In the degree <= D polynomial model the
divergence-free subspace is *d-invariant and decomposes into exact
eigenspaces, so every computed eigenvalue is one of these integers at any
truncation.  An eigenvalue appears with its full multiplicity only once the
polynomial degree of its eigenfields fits in the model:

* eigenvalue +k has eigenfields of coefficient degree k - 2,
* eigenvalue -k has eigenfields of coefficient degree k,

so the trusted window at degree D is -D <= lambda <= D + 2 (empty below
D = 2 on the negative side; the window constants carry a regression test
comparing runs at D and D + 2).

Two scalar rings are supported.  The float ring solves the generalized
symmetric eigenproblem with the L^2 Gram matrix; the exact ring certifies
multiplicities by exact integer kernel ranks of the shifts *d - lambda,
together with a completeness count proving no further spectrum exists in the
model (in particular none at -1, 0, +1).
"""

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cholesky, eigh, null_space, solve_triangular

from . import exactla
from .polys import (
    coframe_gram,
    div_norms,
    make_basis,
    operator_matrix,
)

__all__ = [
    "SpectralMode",
    "ModeSet",
    "SpectrumReport",
    "trusted_window",
    "divergence_free_subspace",
    "eigen_decompose",
    "constant_norm_check",
    "hodge_laplacian_check",
]

#: eigenvalue lambda is fully resolved at degree D iff
#: -(D - WINDOW_NEG_OFFSET) <= lambda <= D + WINDOW_POS_OFFSET
WINDOW_POS_OFFSET = 2
WINDOW_NEG_OFFSET = 0
CLUSTER_TOL = 1e-8


def trusted_window(D):
    """Inclusive (lo, hi) range of eigenvalues fully resolved at degree D."""
    return (-(D - WINDOW_NEG_OFFSET), D + WINDOW_POS_OFFSET)


@dataclass(eq=False)
class SpectralMode:
    """One L^2-normalized eigenfield of *d with its eigenvalue.

    The field is kept as its coefficient vector on the degree <= D basis and
    materialized as a :class:`CoframeField` on first access of ``field``.
    """

    lam: float
    lam_int: int
    coeffs: np.ndarray
    degree: int

    @cached_property
    def field(self):
        return make_basis(self.degree).coframe_from_vector(self.coeffs)

    def norm_spread(self, points):
        vals = self.field.norm_sq_poly()(points)
        return float(vals.max() - vals.min())


class ModeSet(Sequence):
    """Eigenfields of *d as one coefficient matrix, sorted by eigenvalue.

    ``C`` is the (3N, K) matrix whose columns are Gram-orthonormal
    coefficient vectors on the degree <= D coframe basis; ``lam`` holds the
    float eigenvalues and ``lam_int`` the integers they cluster to.  As a
    sequence it yields :class:`SpectralMode` views of the columns, built
    when the set is (or passed in as ``modes``); slicing gives a ModeSet
    sharing those views, so a field materialized once serves every slice.
    """

    def __init__(self, D, C, lam, lam_int, modes=None):
        self.D = D
        self.C = C
        self.lam = lam
        self.lam_int = lam_int
        if modes is None:
            modes = [SpectralMode(float(lam[k]), int(lam_int[k]), C[:, k], D)
                     for k in range(C.shape[1])]
        self._modes = modes

    def __len__(self):
        return len(self._modes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ModeSet(self.D, self.C[:, i], self.lam[i], self.lam_int[i],
                           self._modes[i])
        return self._modes[i]

    def embedded(self, D):
        """C on the degree <= D basis, D >= self.D.

        Within each frame component the degree <= self.D reduced monomials
        are a prefix of the degree <= D ones, so embedding is by index.
        """
        if D == self.D:
            return self.C
        n, n_big = make_basis(self.D).dim, make_basis(D).dim
        out = np.zeros((3 * n_big, len(self)))
        for m in range(3):
            out[m * n_big:m * n_big + n] = self.C[m * n:(m + 1) * n]
        return out

    def pairings(self):
        """The L^2 pairing table C^T G C of all modes."""
        return self.C.T @ coframe_gram(self.D) @ self.C


@dataclass
class SpectrumReport:
    """Multiplicity table and residual statistics of one decomposition."""

    degree: int
    ring: str
    subspace_dim: int
    window: tuple
    multiplicities: dict
    max_integer_deviation: float
    max_div_residual: float
    cluster_tol: float = CLUSTER_TOL
    complete: bool = False
    forbidden_multiplicities: dict = field(default_factory=dict)

    def expected_multiplicity(self, lam):
        return lam * lam - 1

    def verify(self):
        """Failure records for the gap, integrality and multiplicity laws."""
        failures = []
        lo, hi = self.window
        for lam, mult in sorted(self.multiplicities.items()):
            if abs(lam) < 2:
                failures.append({
                    "module": "spectrum", "operation": "eigen_decompose",
                    "input": {"degree": self.degree, "lambda": lam},
                    "observed": mult, "tolerance": 0,
                    "reason": "eigenvalue inside the spectral gap",
                })
            elif lo <= lam <= hi and mult != self.expected_multiplicity(lam):
                failures.append({
                    "module": "spectrum", "operation": "eigen_decompose",
                    "input": {"degree": self.degree, "lambda": lam},
                    "observed": mult,
                    "tolerance": self.expected_multiplicity(lam),
                    "reason": "multiplicity differs from lambda^2 - 1",
                })
        if self.max_integer_deviation > self.cluster_tol:
            failures.append({
                "module": "spectrum", "operation": "eigen_decompose",
                "input": {"degree": self.degree},
                "observed": self.max_integer_deviation,
                "tolerance": self.cluster_tol,
                "reason": "eigenvalue deviates from the integers",
            })
        for lam, mult in self.forbidden_multiplicities.items():
            if mult:
                failures.append({
                    "module": "spectrum", "operation": "eigen_decompose",
                    "input": {"degree": self.degree, "lambda": lam},
                    "observed": mult, "tolerance": 0,
                    "reason": "exact kernel found inside the spectral gap",
                })
        return failures

    def to_json(self):
        return {
            "D": self.degree,
            "ring": self.ring,
            "subspace_dim": self.subspace_dim,
            "trusted_window": list(self.window),
            "modes": [
                {"lambda": lam, "multiplicity": mult}
                for lam, mult in sorted(self.multiplicities.items())
            ],
            "residuals": {
                "max_integer_deviation": self.max_integer_deviation,
                "max_div_residual": self.max_div_residual,
                "cluster_tol": self.cluster_tol,
            },
            "complete": self.complete,
        }


@dataclass
class DivergenceFreeSubspace:
    """Kernel of the divergence matrix inside the degree <= D coframe space."""

    degree: int
    matrix: np.ndarray  # (3N, K), columns span the kernel
    exact_basis: np.ndarray = None  # (3N, K) Python ints when built in the exact ring

    @property
    def dim(self):
        return self.matrix.shape[1]

    def fields(self):
        basis = make_basis(self.degree)
        return [basis.coframe_from_vector(self.matrix[:, k]) for k in range(self.dim)]

    def projector_defect(self):
        """Norm of (I - P) star_d P measuring *d-invariance of the subspace."""
        return _invariance_defect(self.matrix, operator_matrix("star_d", self.degree).matrix)


def _invariance_defect(B, S):
    Q = np.linalg.qr(B)[0]
    image = S @ Q
    defect = image - Q @ (Q.T @ image)
    return float(np.linalg.norm(defect))


def divergence_free_subspace(D, ring="float"):
    """Basis of ker(div) within the degree <= D coframe space.

    The float ring returns an SVD nullspace with orthonormal coefficient
    columns; the exact ring primitive integer kernel vectors from
    fraction-free elimination, kept as ``exact_basis``.  The dimension is
    2 * sum_{d<=D}(d+1)^2 + 1.
    """
    Dv = operator_matrix("div", D).matrix
    if ring == "exact":
        null = exactla.nullspace(_integer_matrix(Dv).tolist())
        N = np.array(null, dtype=object).T.reshape(Dv.shape[1], len(null))
        return DivergenceFreeSubspace(D, N.astype(float), exact_basis=N)
    return DivergenceFreeSubspace(D, null_space(Dv))


def _integer_matrix(M):
    """M as an object array of Python ints; the exact ring needs integer operators."""
    R = np.rint(M)
    if not np.array_equal(R, M):
        v = M[R != M][0]
        raise ValueError(f"operator entry {v} is not an integer; exact ring unavailable")
    return R.astype(np.int64).astype(object)


def eigen_decompose(D, ring="float"):
    """Spectral decomposition of *d on the divergence-free subspace.

    Returns (modes, report).  ``modes`` is a :class:`ModeSet` of
    L^2-normalized eigenfields sorted by eigenvalue; in the exact ring the
    eigenfields come from integer kernels of the integer shifts and the
    report additionally certifies completeness
    (multiplicities sum to the subspace dimension) and the absence of
    spectrum at -1, 0, +1.
    """
    if D < 0:
        raise ValueError(f"degree bound must be >= 0, got {D}")
    if ring == "exact":
        return _eigen_decompose_exact(D)
    sub = divergence_free_subspace(D)
    return _eigen_decompose_float(sub, operator_matrix("star_d", D).matrix, coframe_gram(D))


def _eigen_decompose_float(sub, S, G):
    """Float eigen-decomposition on a given subspace, star_d matrix S and Gram G."""
    D = sub.degree
    B = sub.matrix
    A = B.T @ G @ (S @ B)
    M = B.T @ G @ B
    asym = float(np.max(np.abs(A - A.T)))
    if asym > 1e-8 * max(1.0, float(np.max(np.abs(A)))):
        raise ArithmeticError(
            f"star_d not Gram-self-adjoint on the kernel (defect {asym:.3e})")
    w, V = eigh((A + A.T) / 2.0, M)
    # the printed max_div_residual is pure rounding noise; one product per
    # column, rather than B @ V, keeps its digits stable
    C = np.column_stack([B @ v for v in V.T])
    modes = ModeSet(D, C, w, np.rint(w).astype(int))
    lams, counts = np.unique(modes.lam_int, return_counts=True)
    mults = {int(lam): int(k) for lam, k in zip(lams, counts)}
    report = SpectrumReport(
        degree=D,
        ring="float",
        subspace_dim=sub.dim,
        window=trusted_window(D),
        multiplicities=mults,
        max_integer_deviation=float(np.max(np.abs(w - modes.lam_int), initial=0.0)),
        max_div_residual=max(div_norms(D, modes.C), default=0.0),
        complete=sum(mults.values()) == sub.dim,
    )
    return modes, report


def _eigen_decompose_exact(D):
    sub = divergence_free_subspace(D, ring="exact")
    N = sub.exact_basis
    K = sub.dim
    SN = _integer_matrix(operator_matrix("star_d", D).matrix) @ N
    G = coframe_gram(D)
    lo, hi = trusted_window(D)
    mults = {}
    blocks = []
    lams = []
    for lam in range(lo - 1, hi + 2):
        kernel = exactla.nullspace((SN - lam * N).tolist(), n_cols=K)
        if not kernel:
            continue
        mults[lam] = len(kernel)
        V = (N @ np.array(kernel, dtype=object).T).astype(float)
        # Gram-Schmidt in the L^2 product: V = Q L^T with L the Cholesky
        # factor of V^T G V, so Q^T G Q = I
        L = cholesky(V.T @ G @ V, lower=True)
        blocks.append(solve_triangular(L, V.T, lower=True).T)
        lams += [lam] * len(kernel)
    C = np.hstack(blocks)
    modes = ModeSet(D, C, np.array(lams, dtype=float), np.array(lams, dtype=int))
    report = SpectrumReport(
        degree=D,
        ring="exact",
        subspace_dim=K,
        window=trusted_window(D),
        multiplicities=mults,
        max_integer_deviation=0.0,
        max_div_residual=max(div_norms(D, C), default=0.0),
        complete=sum(mults.values()) == K,
        forbidden_multiplicities={lam: mults.get(lam, 0) for lam in (-1, 0, 1)},
    )
    return modes, report


def constant_norm_check(mode, n_samples=1000, seed=7):
    """Spread max-min of the pointwise |eta|^2 over random sphere points.

    For eigenvalues +-2 the norm is constant and the spread vanishes; for
    other eigenvalues the returned spread is informational.
    """
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n_samples, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return mode.norm_spread(pts)


def hodge_laplacian_check(D):
    """Spectrum of the Hodge Laplacian (*d)^2 on the divergence-free subspace.

    Returns a dict with the clustered eigenvalues mu, their minimum, the
    maximum deviation of each mu from the square of the matching *d
    eigenvalue and the *d-invariance defect of the subspace; one subspace
    serves all three.  Every trusted mu is at least 4.
    """
    sub = divergence_free_subspace(D)
    B = sub.matrix
    G = coframe_gram(D)
    S = operator_matrix("star_d", D).matrix
    A2 = B.T @ G @ (S @ (S @ B))
    M = B.T @ G @ B
    mu = eigh((A2 + A2.T) / 2.0, M, eigvals_only=True)
    _, report = _eigen_decompose_float(sub, S, G)
    lam_sq = sorted(lam * lam for lam, k in report.multiplicities.items()
                    for _ in range(k))
    mu_sorted = np.sort(mu)
    pairing = float(np.max(np.abs(mu_sorted - np.array(lam_sq)))) if lam_sq else 0.0
    clustered = {}
    for v in mu_sorted:
        key = int(round(v))
        clustered[key] = clustered.get(key, 0) + 1
    return {
        "degree": D,
        "mu_min": float(mu_sorted[0]) if mu_sorted.size else None,
        "mu_multiplicities": clustered,
        "max_square_pairing_deviation": pairing,
        "subspace_invariance_defect": _invariance_defect(B, S),
        "window": trusted_window(D),
    }
