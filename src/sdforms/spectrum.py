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

The computation runs one harmonic degree at a time.  The frame fields E_i
are Killing fields, so they commute with the frame Laplacian
Lap = -(E_1^2 + E_2^2 + E_3^2), which is k(k + 2) on the degree-k harmonic
polynomials H_k.  On the degree-ordered reduced monomials Lap is block upper
triangular with diagonal blocks j(j + 2) I, and back-substitution (harmonic
projection) gives H_k a basis that is the identity on the degree-k monomials
plus lower-degree terms.  In that basis *d and div are block diagonal, and
the degree-k blocks are the degree-k diagonal blocks of their monomial
matrices; each divergence-free block H_k^3 carries the eigenvalues k + 2 and
-k only.  Both rings first check this structure exactly and raise
ArithmeticError when it fails.

Two scalar rings are supported, both on numpy alone.  The float ring
orthonormalizes each block's harmonic basis in L^2 (the Gram factor comes
from the Fischer product of the homogeneous forms, see
:func:`_gram_factor`), takes the divergence-free kernel by an SVD and
solves one standard symmetric eigenproblem per block.  The exact ring certifies multiplicities
by exact integer kernel ranks of the block shifts *d - (k + 2) and *d + k;
when these kernels span a block (the completeness count) no other value,
in particular none of -1, 0, +1, is an eigenvalue there.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate

import numpy as np
from numpy.linalg import eigh

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
    "failure",
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


def failure(module, operation, inputs, observed, tolerance, reason):
    """One machine-readable failure record, the form every report uses."""
    return {"module": module, "operation": operation, "input": inputs,
            "observed": observed, "tolerance": tolerance, "reason": reason}


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
        fail = partial(failure, "spectrum", "eigen_decompose")
        deg = {"degree": self.degree}
        failures = []
        lo, hi = self.window
        for lam, mult in sorted(self.multiplicities.items()):
            at = {**deg, "lambda": lam}
            if abs(lam) < 2:
                failures.append(fail(at, mult, 0, "eigenvalue inside the spectral gap"))
            elif lo <= lam <= hi and mult != self.expected_multiplicity(lam):
                failures.append(fail(at, mult, self.expected_multiplicity(lam),
                                     "multiplicity differs from lambda^2 - 1"))
        if self.max_integer_deviation > self.cluster_tol:
            failures.append(fail(deg, self.max_integer_deviation, self.cluster_tol,
                                 "eigenvalue deviates from the integers"))
        if not self.complete:
            failures.append(fail(deg, sum(self.multiplicities.values()), self.subspace_dim,
                                 "eigenspaces do not span the divergence-free subspace"))
        failures += [fail({**deg, "lambda": lam}, mult, 0,
                          "exact kernel found inside the spectral gap")
                     for lam, mult in self.forbidden_multiplicities.items() if mult]
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


@dataclass(eq=False)
class HarmonicBlock:
    """The coframe fields of harmonic degree k, H_k^3, in block coordinates.

    ``basis`` (m, n) spans H_k on the first m (degree <= k) reduced
    monomials, n = (k + 1)^2.  ``star_d`` (3n, 3n) is *d and ``kernel``
    (3n, K) a basis of ker(div), both in the coordinates of ``basis`` on each
    of the three frame components (component-major).  In the float ring
    ``basis`` is L^2-orthonormal and ``kernel`` has orthonormal columns; in
    the exact ring ``star_d`` and ``kernel`` hold Python ints, ``basis`` is
    the identity on the degree-k monomials and equals ``basis_int / scale``.
    """

    k: int
    basis: np.ndarray
    star_d: np.ndarray
    kernel: np.ndarray
    basis_int: np.ndarray = None
    scale: int = 1

    @property
    def dim(self):
        return self.kernel.shape[1]


@dataclass(eq=False)
class DivergenceFreeSubspace:
    """Kernel of the divergence matrix inside the degree <= D coframe space.

    It is the direct sum of the divergence-free parts of the harmonic blocks
    k = 0..D.
    """

    degree: int
    ring: str
    blocks: list

    @property
    def dim(self):
        return sum(b.dim for b in self.blocks)

    def assemble(self, coords, exact=False):
        """Monomial coefficient columns (3N, sum of widths) of block coordinates.

        ``coords[k]`` holds columns in the coordinates of block k.  With
        ``exact`` the integer bases ``basis_int`` map integer coordinates.
        """
        N = make_basis(self.degree).dim
        out = np.zeros((3, N, sum(Y.shape[1] for Y in coords)), dtype=object if exact else float)
        col = 0
        for b, Y in zip(self.blocks, coords):
            basis = b.basis_int if exact else b.basis
            m, n = basis.shape
            out[:, :m, col:col + Y.shape[1]] = basis @ Y.reshape(3, n, -1)
            col += Y.shape[1]
        return out.reshape(3 * N, -1)

    @cached_property
    def matrix(self):
        """(3N, K) kernel basis on the monomials; L^2-orthonormal in the float ring."""
        if self.ring == "exact":
            return self.exact_basis.astype(float)
        return self.assemble([b.kernel for b in self.blocks])

    @cached_property
    def exact_basis(self):
        """(3N, K) primitive integer kernel vectors (exact ring only, else None)."""
        if self.ring != "exact":
            return None
        V = self.assemble([b.kernel for b in self.blocks], exact=True)
        return V // np.gcd.reduce(V, axis=0)

    def fields(self):
        basis = make_basis(self.degree)
        return [basis.coframe_from_vector(self.matrix[:, k]) for k in range(self.dim)]

    def projector_defect(self):
        """Norm of (I - P) star_d P measuring *d-invariance of the subspace.

        It is taken on the assembled monomial matrix, so a component of the
        image outside its own harmonic block counts too.
        """
        Q = np.linalg.qr(self.matrix)[0]
        image = operator_matrix("star_d", self.degree).matrix @ Q
        return float(np.linalg.norm(image - Q @ (Q.T @ image)))


def _degree_offsets(D):
    """Start of each degree's reduced monomials in the degree <= D basis, then N."""
    return [0, *accumulate((d + 1) ** 2 for d in range(D + 1))]


def _entries(A):
    """Nonzero entries of a matrix: rows, columns, values (row-major) and shape."""
    i, j = np.nonzero(A)
    return i, j, A[i, j], A.shape


def _exact_product(A, B):
    """Dense A @ B from the nonzero entries of A and B (see :func:`_entries`).

    The frame operators have a few nonzeros per column, so this is much
    cheaper than a dense product at large D; on integer entries every
    partial sum is an integer, so the result is exact.
    """
    ai, ak, av, (rows, _) = A
    bk, bj, bv, (_, cols) = B
    lo = np.searchsorted(bk, ak, "left")
    count = np.searchsorted(bk, ak, "right") - lo
    a = np.repeat(np.arange(len(ai)), count)
    b = np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count)
    out = np.bincount(ai[a] * cols + bj[b], weights=av[a] * bv[b], minlength=rows * cols)
    return out.reshape(rows, cols)


def _frame_laplacian(D, Dv, S):
    """Lap = -(E_1^2 + E_2^2 + E_3^2), after the block-structure certificate.

    The E_i are the column blocks of the divergence matrix.  Raises
    ArithmeticError unless Lap commutes with each E_i and with each
    component block of S, and is block upper triangular on the degree-ordered
    basis with diagonal blocks j(j + 2) I.  The entries are integers, so the
    products are exact.
    """
    n = Dv.shape[0]
    named = [(f"E{i + 1}", _entries(Dv[:, i * n:(i + 1) * n])) for i in range(3)]
    lap = -sum(_exact_product(e, e) for _, e in named)
    named += [(f"star_d block ({a + 1}, {b + 1})",
               _entries(S[a * n:(a + 1) * n, b * n:(b + 1) * n]))
              for a in range(3) for b in range(3)]
    lap_entries = _entries(lap)
    for name, A in named:
        if not np.array_equal(_exact_product(A, lap_entries), _exact_product(lap_entries, A)):
            raise ArithmeticError(f"{name} does not commute with the frame Laplacian")
    offs = _degree_offsets(D)
    for j in range(D + 1):
        lo, hi = offs[j], offs[j + 1]
        if lap[hi:, lo:hi].any() or not np.array_equal(lap[lo:hi, lo:hi],
                                                       j * (j + 2) * np.eye(hi - lo)):
            raise ArithmeticError(f"frame Laplacian is not {j * (j + 2)} I with zeros "
                                  f"below on the degree-{j} monomials")
    return lap


def _harmonic_basis(lap, offs, k, scale=1):
    """``scale`` times the basis of H_k that is the identity on degree k.

    Back-substitution of Lap T = k(k + 2) T on the degree <= k monomials.
    For an object (Python int) ``lap`` the divisions are exact when
    ``scale`` is a multiple of prod_{j<k} (k - j)(k + j + 2).
    """
    m, n = offs[k + 1], offs[k + 1] - offs[k]
    T = np.zeros((m, n), dtype=lap.dtype)
    T[offs[k]:] = np.eye(n, dtype=np.int64).astype(lap.dtype) * scale
    for j in range(k - 1, -1, -1):
        acc = lap[offs[j]:offs[j + 1], offs[j + 1]:m] @ T[offs[j + 1]:]
        c = (k - j) * (k + j + 2)
        T[offs[j]:offs[j + 1]] = acc // c if lap.dtype == object else acc / c
    return T


def _null_space(A):
    """Orthonormal basis of the right nullspace of A, by an SVD."""
    _, s, vh = np.linalg.svd(A)
    tol = max(A.shape) * np.finfo(float).eps * s.max(initial=0.0)
    return vh[int(np.sum(s > tol)):].T


def _gram_factor(monomials, k, T):
    """Upper triangular U with U^T U the L^2 Gram matrix of the columns of T.

    T spans H_k on the reduced monomials ``monomials`` (degree <= k).  On
    the sphere a column equals its homogeneous form h = sum_j |x|^(2j) p_j,
    p_j its degree k - 2j part, and for homogeneous harmonic h, g of degree
    k the L^2 product is the Fischer product 2 pi^2 sum_a a! h_a g_a
    / (2^k (k + 1)!) (Axler-Bourdon-Ramey, Harmonic Function Theory,
    ch. 5).  U is the R factor of the weighted homogeneous coefficients;
    unlike T^T G T on the monomial Gram this loses no digits to
    cancellation.
    """
    fact = [math.factorial(i) for i in range(k + 1)]
    E = np.array(monomials, dtype=np.int64).reshape(-1, 4)
    exps, cols, vals = [], [], []
    for j in range(k // 2 + 1):
        # |x|^(2j) = sum_{|b| = j} j!/b! x^(2b)
        B = np.array([(b0, b1, b2, j - b0 - b1 - b2) for b0 in range(j + 1)
                      for b1 in range(j - b0 + 1) for b2 in range(j - b0 - b1 + 1)])
        coef = [fact[j] // math.prod(fact[v] for v in b) for b in B.tolist()]
        sel = np.flatnonzero(E.sum(axis=1) == k - 2 * j)
        exps.append((E[sel, None, :] + 2 * B[None, :, :]).reshape(-1, 4))
        cols.append(np.repeat(sel, len(B)))
        vals.append(np.tile(coef, len(sel)))
    exps = np.concatenate(exps)
    keys = exps @ (k + 1) ** np.arange(3, -1, -1)
    _, first, rows = np.unique(keys, return_index=True, return_inverse=True)
    H = np.zeros((len(first), len(E)))
    H[rows, np.concatenate(cols)] = np.concatenate(vals)
    weight = np.array(fact, dtype=float)[exps[first]].prod(axis=1)
    R = np.linalg.qr(np.sqrt(weight)[:, None] * (H @ T), mode="r")
    return math.sqrt(2 * math.pi ** 2 / (2.0 ** k * math.factorial(k + 1))) * R


def _float_block(k, lap, offs, monomials, S_k, Dv_k):
    """Block k in L^2-orthonormal coordinates: basis T U^-1, U the Gram factor of T."""
    T = _harmonic_basis(lap, offs, k)
    U = _gram_factor(monomials[:len(T)], k, T)
    Ui = np.linalg.inv(U)
    Ui3 = np.kron(np.eye(3), Ui)
    return HarmonicBlock(k, T @ Ui, np.kron(np.eye(3), U) @ S_k @ Ui3,
                         _null_space(Dv_k @ Ui3))


def _exact_block(k, lap, offs, S_k, Dv_k):
    """Block k on Python ints: the harmonic basis times the product of its
    denominators, and primitive integer kernel vectors of the div block."""
    scale = math.prod((k - j) * (k + j + 2) for j in range(k))
    Z = _harmonic_basis(lap, offs, k, scale)
    null = exactla.nullspace(Dv_k.tolist())
    kernel = np.array(null, dtype=object).T.reshape(Dv_k.shape[1], len(null))
    return HarmonicBlock(k, (Z / scale).astype(float), S_k, kernel, Z, scale)


def divergence_free_subspace(D, ring="float"):
    """Basis of ker(div) within the degree <= D coframe space, block by block.

    The float ring keeps per block an L^2-orthonormal harmonic basis and an
    orthonormal kernel; the exact ring an exact harmonic basis and primitive
    integer kernel vectors from fraction-free elimination.  The dimension is
    2 * sum_{d<=D}(d+1)^2 + 1.
    """
    Dv = operator_matrix("div", D).matrix
    S = operator_matrix("star_d", D).matrix
    exact = ring == "exact"
    if exact:
        Dv_int, S_int = _integer_matrix(Dv), _integer_matrix(S)
    lap = _frame_laplacian(D, Dv, S)
    if exact:
        Dv, S, lap = Dv_int, S_int, _integer_matrix(lap)
    monomials = make_basis(D).monomials
    offs = _degree_offsets(D)
    blocks = []
    for k in range(D + 1):
        rows = slice(offs[k], offs[k + 1])
        idx = np.concatenate([c * offs[-1] + np.arange(offs[k], offs[k + 1])
                              for c in range(3)])
        S_k, Dv_k = S[np.ix_(idx, idx)], Dv[rows, idx]
        blocks.append(_exact_block(k, lap, offs, S_k, Dv_k) if exact
                      else _float_block(k, lap, offs, monomials, S_k, Dv_k))
    return DivergenceFreeSubspace(D, ring, blocks)


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
    L^2-normalized eigenfields sorted by eigenvalue; each eigenfield lies in
    one harmonic block, so its coefficient degree is k.  In the exact ring
    the eigenfields come from integer kernels of the integer block shifts
    and the report additionally certifies completeness (multiplicities sum
    to the subspace dimension) and the absence of spectrum at -1, 0, +1.
    """
    if D < 0:
        raise ValueError(f"degree bound must be >= 0, got {D}")
    sub = divergence_free_subspace(D, ring)
    if ring == "exact":
        return _eigen_decompose_exact(sub)
    return _eigen_decompose_float(sub)


def _eigen_decompose_float(sub):
    """Float eigen-decomposition: one standard eigh per harmonic block."""
    D = sub.degree
    solved = []
    for b in sub.blocks:
        A = b.kernel.T @ b.star_d @ b.kernel
        asym = float(np.max(np.abs(A - A.T)))
        if asym > 1e-8 * max(1.0, float(np.max(np.abs(A)))):
            raise ArithmeticError(f"star_d not self-adjoint on harmonic block {b.k} "
                                  f"(defect {asym:.3e})")
        solved.append(eigh((A + A.T) / 2.0))
    w = np.concatenate([lam for lam, _ in solved])
    order = np.argsort(w, kind="stable")
    C = sub.assemble([b.kernel @ X for b, (_, X) in zip(sub.blocks, solved)])[:, order]
    modes = ModeSet(D, C, w[order], np.rint(w[order]).astype(int))
    lams, counts = np.unique(modes.lam_int, return_counts=True)
    mults = {int(lam): int(k) for lam, k in zip(lams, counts)}
    report = SpectrumReport(
        degree=D,
        ring="float",
        subspace_dim=sub.dim,
        window=trusted_window(D),
        multiplicities=mults,
        max_integer_deviation=float(np.max(np.abs(w - np.rint(w)), initial=0.0)),
        max_div_residual=max(div_norms(D, C), default=0.0),
        complete=sum(mults.values()) == sub.dim,
    )
    return modes, report


def _eigen_decompose_exact(sub):
    """Exact multiplicities from integer kernels of S_k - (k + 2) and S_k + k.

    Each eigenspace is L^2-orthonormalized in floats by the R factor of its
    coordinates under the block's Gram factor.
    """
    D = sub.degree
    monomials = make_basis(D).monomials
    mults = {}
    lams = []
    coords = []
    for b in sub.blocks:
        U3 = np.kron(np.eye(3), _gram_factor(monomials[:len(b.basis)], b.k, b.basis))
        SN = b.star_d @ b.kernel
        Y = [np.zeros((len(b.kernel), 0))]
        for lam in (-b.k, b.k + 2):
            kernel = exactla.nullspace((SN - lam * b.kernel).tolist(), n_cols=b.dim)
            if not kernel:
                continue
            mults[lam] = len(kernel)
            V = (b.kernel @ np.array(kernel, dtype=object).T).astype(float)
            # Gram-Schmidt in the L^2 product: U3 V = Q R, so V R^-1 is orthonormal
            R = np.linalg.qr(U3 @ V, mode="r")
            Y.append(np.linalg.solve(R.T, V.T).T)
            lams += [lam] * len(kernel)
        coords.append(np.hstack(Y))
    C = sub.assemble(coords)
    order = np.argsort(lams, kind="stable")
    lam = np.array(lams, dtype=int)[order]
    modes = ModeSet(D, C[:, order], lam.astype(float), lam)
    report = SpectrumReport(
        degree=D,
        ring="exact",
        subspace_dim=sub.dim,
        window=trusted_window(D),
        multiplicities=mults,
        max_integer_deviation=0.0,
        max_div_residual=max(div_norms(D, C), default=0.0),
        complete=sum(mults.values()) == sub.dim,
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
    serves all three.  Each block's (*d)^2 is its own product, not the
    square of the *d eigenvalues.  Every trusted mu is at least 4.
    """
    sub = divergence_free_subspace(D)
    mu = []
    for b in sub.blocks:
        A2 = b.kernel.T @ (b.star_d @ (b.star_d @ b.kernel))
        mu.append(eigh((A2 + A2.T) / 2.0)[0])
    _, report = _eigen_decompose_float(sub)
    lam_sq = sorted(lam * lam for lam, k in report.multiplicities.items()
                    for _ in range(k))
    mu_sorted = np.sort(np.concatenate(mu))
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
        "subspace_invariance_defect": sub.projector_defect(),
        "window": trusted_window(D),
    }
