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
the degree-k blocks are assembled from the degree-k diagonal blocks of the
E_i; each divergence-free block H_k^3 carries the eigenvalues k + 2 and -k
only.  Both rings first check this structure exactly and raise
ArithmeticError when it fails.

The float report runs on a slice of each block.  The opposite frame R_j
commutes with the E_i, hence with *d and div, and -(R_1^2 + R_2^2 + R_3^2)
= Lap (both checked exactly on the integer triples), so R acts on H_k as
k + 1 copies of spin k/2 and every eigenspace on H_k^3 ∩ ker(div) is
(k + 1)/2 times its slice on W_k^3, W_k = ker(R_1^2 + k^2) of dimension
2(k + 1) (W_0 = H_0, scale 1).  Per block that is one eigh on 6(k + 1)
columns, with no harmonic basis (:func:`_reduced_blocks`); the Hodge check
(:func:`hodge_laplacian_check`) runs on the same blocks.

No float block needs a basis of ker(div).  In L^2-orthonormal coordinates
*d is symmetric, kills the gradients (d d = 0) and maps ker(div), their
complement, to itself with eigenvalues k + 2 and -k only; div grad = -Lap,
so for k >= 1 there are as many gradients as scalar block columns.  One
eigh of a block's *d has that many eigenvalues in (-1/2, 1/2); the others
are the divergence-free spectrum (:func:`_block_eigh`).

Memory is per block and sparse: the E_i and R_j are (row, column, value)
triples from exponent arithmetic (:func:`sdforms.polys.derivative_triples`),
Lap and the certificates are sparse products of them, and no operator on
the whole degree <= D coframe space is formed.  The full blocks -- harmonic
basis (m, n), n = (k + 1)^2, frame blocks (n, n) and the (3n, 3n) *d --
serve the exact report and the float eigenfields (:func:`eigenmodes`); a
float one raises ArithmeticError when its basis leaves H_k
(:func:`_harmonic_defect`).  A field's *d eigencomponents need no
eigenfield: the harmonic bases split it by blocks and one projector per
block by eigenvalue (:func:`eigencomponents`).

The float ring (reduced blocks) and the exact ring (full blocks) are the
two independent routes, both on numpy alone.  Full float blocks are
orthonormalized in L^2 by the Fischer product (:func:`_gram_factor`).  The
exact ring certifies multiplicities by exact integer kernel ranks of the
block shifts *d - (k + 2) and *d + k; when these kernels span a block no
other value, in particular none of -1, 0, +1, is an eigenvalue there.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np
from numpy.linalg import eigh

from . import exactla, polys
from .frames import LEFT_MULT, RIGHT_MULT
from .polys import coframe_curl, make_basis
from .sampling import Sampler

__all__ = [
    "ModeSet",
    "SpectrumReport",
    "trusted_window",
    "divergence_free_subspace",
    "eigen_decompose",
    "eigenmodes",
    "eigencomponents",
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
class ModeSet:
    """Eigenfields of *d sorted by eigenvalue.

    ``lam`` holds the float eigenvalues, ``lam_int`` the integers they
    cluster to and ``C`` (3N, K) the Gram-orthonormal coefficient vectors on
    the degree <= D coframe basis, in eigenvalue order (:func:`_sorted_modes`):
    eigenfield i is column i of ``C``.
    """

    D: int
    lam: np.ndarray
    lam_int: np.ndarray
    C: np.ndarray

    def field(self, i):
        """Eigenfield i as a new :class:`CoframeField`."""
        return make_basis(self.D).coframe_from_vector(self.C[:, i])

    @cached_property
    def _pairings(self):
        P = polys.coframe_pairings(self.D, self.C, self.C)
        P.setflags(write=False)
        return P

    def pairings(self):
        """The L^2 pairing table C^T G C of all modes, G on each frame component;
        formed on the first call and returned read-only."""
        return self._pairings


@dataclass
class SpectrumReport:
    """Multiplicity table and residual statistics of one decomposition; the CLI judges it."""

    degree: int
    ring: str
    subspace_dim: int
    window: tuple
    multiplicities: dict
    max_integer_deviation: float
    max_div_residual: float
    complete: bool = False
    forbidden_multiplicities: dict = field(default_factory=dict)

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
                "cluster_tol": CLUSTER_TOL,
            },
            "complete": self.complete,
        }


@dataclass(eq=False)
class HarmonicBlock:
    """The coframe fields of harmonic degree k, H_k^3, in block coordinates.

    ``basis`` (m, n) spans H_k on the first m (degree <= k) reduced
    monomials, n = (k + 1)^2.  ``frame`` holds the three (n, n) frame
    derivatives E_i on H_k; the fields are in the coordinates of ``basis``
    on each of the three frame components (component-major), and *d and div
    are assembled from ``frame`` on access.  Of the 3n fields ``gradients``
    (n for k >= 1, none for k = 0) are gradients, and ``dim`` are
    divergence-free.  In the float ring ``basis`` is L^2-orthonormal; in
    the exact ring ``frame`` holds Python ints and ``basis`` is the identity
    on the degree-k monomials.  A reduced block (:func:`_reduced_blocks`) is
    W_k^3 in L^2-orthonormal coordinates of W_k and has no ``basis``.
    """

    k: int
    basis: np.ndarray
    frame: list

    @property
    def gradients(self):
        return len(self.frame[0]) if self.k else 0

    @property
    def dim(self):
        return 3 * len(self.frame[0]) - self.gradients

    @property
    def star_d(self):
        """*d on H_k^3, (3n, 3n)."""
        curl = coframe_curl(self.frame)
        return curl + 2 * np.eye(len(curl), dtype=int)

    @property
    def div(self):
        """div from H_k^3 into the coordinates of H_k in ``basis``, (n, 3n)."""
        return np.hstack(self.frame)


def _sorted_modes(sub, spaces):
    """The :class:`ModeSet` of the blocks' eigenpairs ``spaces``, one ``(w, Y)`` per block.

    ``Y`` (3n, K_b) holds eigenvectors in the coordinates of the block's
    ``basis`` (m, n) on each frame component (component-major), and ``w``
    their eigenvalues.  Each block's monomial coefficient columns are
    written straight into their eigenvalue-sorted positions of ``C``.
    """
    w = np.concatenate([lam for lam, _ in spaces])
    order = np.argsort(w, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(len(w))
    N = make_basis(sub.degree).dim
    out = np.zeros((3, N, len(w)))
    col = 0
    for b, (_, Y) in zip(sub.blocks, spaces):
        m, n = b.basis.shape
        out[:, :m, position[col:col + Y.shape[1]]] = b.basis @ Y.reshape(3, n, -1)
        col += Y.shape[1]
    lam = w[order].astype(float)
    return ModeSet(sub.degree, lam, np.rint(lam).astype(int), out.reshape(3 * N, -1))


@dataclass(eq=False)
class DivergenceFreeSubspace:
    """The harmonic blocks k = 0..D, whose divergence-free parts sum to ker(div).

    ``frame`` holds the sparse triples of the monomial E_i, as certified.
    """

    degree: int
    blocks: list
    frame: list

    @property
    def dim(self):
        return sum(b.dim for b in self.blocks)


def _product_entries(A, B):
    """Flat positions and values of the terms of A @ B for sparse triples A, B.

    The frame operators have a few nonzeros per column, so each entry of A
    meets only a few entries of B; terms at one position still have to be
    added (:func:`sdforms.polys.sparse_triples`).  On integer entries the
    result is exact.
    """
    ai, ak, av, _ = A
    by_row = np.argsort(B[0], kind="stable")
    bk, bj, bv = (x[by_row] for x in B[:3])
    cols = B[3][1]
    starts = np.searchsorted(bk, np.arange(cols + 1))
    lo = starts[ak]
    count = starts[ak + 1] - lo
    a = np.repeat(np.arange(len(ai)), count)
    b = np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count)
    return ai[a] * cols + bj[b], av[a] * bv[b]


def _entries(A, sign=1):
    """Flat positions and values of sparse triples, times ``sign``."""
    r, c, v, (_, cols) = A
    return r * cols + c, sign * v


def _commutator_entries(A, B):
    """Terms of AB - BA."""
    (f, v), (g, w) = _product_entries(A, B), _product_entries(B, A)
    return np.concatenate([f, g]), np.concatenate([v, -w])


def _is_zero(shape, *terms):
    """Whether the terms (flat positions, values) sum to the zero matrix of ``shape``."""
    flat, values = (np.concatenate(x) for x in zip(*terms))
    return not len(polys.sparse_triples(flat, values, shape)[0])


def _casimir(frame):
    """-(X_1^2 + X_2^2 + X_3^2) of three sparse triples, as triples.

    Each square is summed up on its own first: sorting the raw terms of all
    three at once would hold half again the memory (109 against 73 MB at D = 48).
    """
    shape = frame[0][3]
    squares = [_entries(polys.sparse_triples(*_product_entries(X, X), shape), -1) for X in frame]
    return polys.sparse_triples(*(np.concatenate(x) for x in zip(*squares)), shape)


def _frame_laplacian(D, frame):
    """Lap = -(E_1^2 + E_2^2 + E_3^2) as sparse triples, after the block-structure certificate.

    ``frame`` holds the sparse triples of E_1, E_2, E_3.  Raises
    ArithmeticError unless Lap commutes with each E_i and is block upper
    triangular on the degree-ordered basis with diagonal blocks j(j + 2) I.
    *d and div are assembled from the E_i and the identity, so they commute
    with Lap too.  The entries are integers, so the products are exact.
    """
    lap = _casimir(frame)
    for i, E in enumerate(frame):
        if not _is_zero(lap[3], _commutator_entries(E, lap)):
            raise ArithmeticError(f"E{i + 1} does not commute with the frame Laplacian")
    offs = make_basis(D).offsets
    degree = np.repeat(np.arange(D + 1), np.diff(offs))
    r, c, v, _ = lap
    dr, dc = degree[r], degree[c]
    diagonal = (r == c) & (v == dr * (dr + 2))
    bad = set(dc[(dr > dc) | ((dr == dc) & ~diagonal)].tolist())
    count = np.bincount(dr[diagonal], minlength=D + 1)
    bad |= {j for j in range(1, D + 1) if count[j] != offs[j + 1] - offs[j]}
    if bad:
        j = min(bad)
        raise ArithmeticError(f"frame Laplacian is not {j * (j + 2)} I with zeros "
                              f"below on the degree-{j} monomials")
    return lap


def _right_frame_certificate(frame, right, lap):
    """Raise ArithmeticError unless every R_j commutes with every E_i and
    -(R_1^2 + R_2^2 + R_3^2) = Lap, on the integer triples.

    Four commutators [E_i, R_j], i, j in {1, 2}, are multiplied out.  With
    the brackets [E_1, E_2] = -2 E_3 and [R_1, R_2] = 2 R_3, also checked
    exactly, the Jacobi identity gives the other five: [E_i, R_3] =
    ([[E_i, R_1], R_2] + [R_1, [E_i, R_2]]) / 2 = 0, then [E_3, R_j] = 0
    alike.  *d and div are built from the E_i, so the R_j commute with
    them, and on H_k the R_j act with Casimir k(k + 2): every irreducible
    piece of H_k^3, and of each eigenspace of *d in it, has dimension k + 1.
    """
    shape = lap[3]
    for name, (X1, X2, X3), c in (("E", frame, -2), ("R", right, 2)):
        if not _is_zero(shape, _commutator_entries(X1, X2), _entries(X3, -c)):
            raise ArithmeticError(f"[{name}1, {name}2] is not {c} {name}3")
    for j, R in enumerate(right[:2]):
        for i, E in enumerate(frame[:2]):
            if not _is_zero(shape, _commutator_entries(E, R)):
                raise ArithmeticError(f"R{j + 1} does not commute with E{i + 1}")
    if not _is_zero(shape, _entries(_casimir(right)), _entries(lap, -1)):
        raise ArithmeticError("the right frame's Casimir is not the frame Laplacian")


def _harmonic_basis(lap, offs, k, scale=None):
    """The basis of H_k that is the identity on degree k, from the sparse ``lap``.

    Back-substitution of Lap T = k(k + 2) T on the degree <= k monomials,
    one degree at a time over the rows of ``lap`` of that degree (``lap``
    is row-major).  Lap maps degree j into degrees j and j - 2 only, so the
    rows of the degrees j = k - 1, k - 3, ... stay exactly 0 and are skipped.
    With an integer ``scale`` the arithmetic is on Python ints and the
    result is ``scale`` times the basis; the divisions are then exact when
    ``scale`` is a multiple of prod_{j<k} (k - j)(k + j + 2).
    """
    dtype = float if scale is None else object
    m, n = offs[k + 1], offs[k + 1] - offs[k]
    T = np.zeros((m, n), dtype=dtype)
    T[offs[k]:] = np.eye(n, dtype=np.int64).astype(dtype) * (scale or 1)
    for j in range(k - 2, -1, -2):
        lo, hi = offs[j], offs[j + 1]
        acc = polys.sparse_apply(_block_triples(lap, lo, hi, range(hi, m)), T[hi:], hi - lo)
        d = (k - j) * (k + j + 2)
        T[lo:hi] = acc // d if scale else acc / d
    return T


def _harmonic_defect(lap, k, basis):
    """Relative defect ||Lap B - k(k + 2) B|| / (max(1, k(k + 2)) ||B||) of a block basis B.

    Frobenius norms, taken in floats on the monomial coefficients that the
    mode matrix is assembled from.
    """
    m = len(basis)
    residual = polys.sparse_apply(_block_triples(lap, 0, m), basis, m) - k * (k + 2) * basis
    return float(np.linalg.norm(residual) / (max(1, k * (k + 2)) * np.linalg.norm(basis)))


def _block_triples(A, lo, hi, cols=None):
    """(rows, cols, values) of row-major triples A on rows lo:hi and columns
    ``cols`` (a range, by default lo:hi), each counted from its start."""
    r, c, v, _ = A
    cols = range(lo, hi) if cols is None else cols
    a, b = np.searchsorted(r, [lo, hi])
    keep = a + np.flatnonzero((c[a:b] >= cols.start) & (c[a:b] < cols.stop))
    return r[keep] - lo, c[keep] - cols.start, v[keep]


def _degree_block(triples, offs, k, dtype):
    """Dense restriction (n, n) of a sparse scalar operator to the degree-k monomials."""
    r, c, v = _block_triples(triples, offs[k], offs[k + 1])
    B = np.zeros((offs[k + 1] - offs[k],) * 2, dtype=dtype)
    B[r, c] = v
    return B


@lru_cache(maxsize=64)
def _homogeneous(d):
    """Exponents (K, 4) of the degree-d monomials in four variables, with a key lookup.

    Returns the exponents and a function mapping exponent rows of degree d
    to their row numbers.
    """
    H = np.array([(a, b, c, d - a - b - c) for a in range(d + 1) for b in range(d - a + 1)
                  for c in range(d - a - b + 1)], dtype=np.int64).reshape(-1, 4)
    return H, polys.exponent_index(H, d + 1)


def _gram_factor(E, k, T):
    """Upper triangular U with U^T U the L^2 Gram matrix of the columns of T.

    T spans H_k on the reduced monomials with exponent rows E (degree <= k).
    On the sphere a column equals its homogeneous form h = sum_j |x|^(2j) p_j,
    p_j its degree k - 2j part, and for homogeneous harmonic h, g of degree
    k the L^2 product is the Fischer product 2 pi^2 sum_a a! h_a g_a
    / (2^k (k + 1)!) (Axler-Bourdon-Ramey, Harmonic Function Theory,
    ch. 5).  The homogeneous form is built by Horner's rule in |x|^2, one
    shift per coordinate square; U is the R factor of its weighted
    coefficients.  Unlike T^T G T on the monomial Gram this loses no digits
    to cancellation.
    """
    degree = E.sum(axis=1)
    h, H = None, None
    for d in range(k % 2, k + 1, 2):
        H_d, index = _homogeneous(d)
        h_d = np.zeros((len(H_d), T.shape[1]))
        sel = np.flatnonzero(degree == d)
        h_d[index(E[sel])] = T[sel]
        if h is not None:
            for i in range(4):
                shifted = H.copy()
                shifted[:, i] += 2
                h_d[index(shifted)] += h
        h, H = h_d, H_d
    weight = np.array([math.factorial(i) for i in range(k + 1)], dtype=float)[H].prod(axis=1)
    R = np.linalg.qr(np.sqrt(weight)[:, None] * h, mode="r")
    return math.sqrt(2 * math.pi ** 2 / (2.0 ** k * math.factorial(k + 1))) * R


def _float_block(k, lap, layout, E_k):
    """Block k in L^2-orthonormal coordinates: basis T U^-1, U the Gram factor of T.

    Raises ArithmeticError when the basis's relative harmonic defect
    (:func:`_harmonic_defect`) passes 1e-10: the modes assembled from it
    would leave H_k.
    """
    T = _harmonic_basis(lap, layout.offsets, k)
    U = _gram_factor(layout.exponents[:len(T)], k, T)
    Ui = np.linalg.inv(U)
    basis = T @ Ui
    defect = _harmonic_defect(lap, k, basis)
    if defect > 1e-10:
        raise ArithmeticError(f"basis of harmonic block {k} is not harmonic "
                              f"(relative defect {defect:.3e})")
    frame = [U @ E @ Ui for E in E_k]
    return HarmonicBlock(k, basis, frame)


def _exact_block(k, lap, offs, E_k):
    """Block k on Python ints, its exact harmonic basis rounded to floats."""
    scale = math.prod((k - j) * (k + j + 2) for j in range(k))
    return HarmonicBlock(k, (_harmonic_basis(lap, offs, k, scale) / scale).astype(float), E_k)


def divergence_free_subspace(D, ring="float"):
    """Basis of ker(div) within the degree <= D coframe space, block by block.

    Everything is built from the sparse frame-derivative triples and the
    degree-k blocks of the E_i; no operator on the whole monomial space is
    formed.  The float ring keeps per block an L^2-orthonormal harmonic
    basis and its frame, the exact ring an exact harmonic basis and the
    integer frame.  The dimension is 2 * sum_{d<=D}(d+1)^2 + 1.
    """
    exact = _is_exact(ring)
    frame = polys.derivative_triples(D)
    if exact:
        frame = [_integer_entries(E) for E in frame]
    lap = _frame_laplacian(D, frame)
    basis = make_basis(D)
    blocks = []
    for k in range(D + 1):
        E_k = [_degree_block(E, basis.offsets, k, object if exact else float) for E in frame]
        blocks.append(_exact_block(k, lap, basis.offsets, E_k) if exact
                      else _float_block(k, lap, basis, E_k))
    return DivergenceFreeSubspace(D, blocks, frame)


def _is_exact(ring):
    """Whether ``ring`` is "exact"; a name other than "float" or "exact" is an error."""
    if ring not in ("float", "exact"):
        raise ValueError(f"ring must be 'float' or 'exact', got {ring!r}")
    return ring == "exact"


def _integer_entries(triples):
    """Sparse triples with int64 values; the exact ring needs integer operators."""
    r, c, v, shape = triples
    R = np.rint(v)
    if not np.array_equal(R, v):
        raise ValueError(f"operator entry {v[R != v][0]} is not an integer; "
                         "exact ring unavailable")
    return r, c, R.astype(np.int64), shape


#: the complex coordinates z = x0 + i x1 and u = x2 - i x3, as rows on (x0, x1, x2, x3)
_ZU = np.array([[1, 1j, 0, 0], [0, 0, 1, -1j]])


def _weight_action(L, k):
    """Integer matrix A of the linear field X = L x on the weight columns of degree k.

    The weight columns are Re f_a, then Im f_a, for f_a = z^a u^b, b = k - a,
    a = 0..k (at k = 0 only Re f_0 = 1).  The frame fields map z and u into
    their span, X z = N00 z + N10 u and X u = N01 z + N11 u (the covectors
    of z, u and their conjugates are orthogonal, of squared length 2), so by
    the Leibniz rule X f_a = (a N00 + b N11) f_a + a N10 f_(a-1)
    + b N01 f_(a+1).  :func:`_reduced_blocks` checks exactly that the top
    blocks of the E_i act so.
    """
    N = _ZU.conj() @ L.T @ _ZU.T / 2
    a = np.arange(k + 1)
    M = (np.diag(a * N[0, 0] + (k - a) * N[1, 1]) + np.diag(a[1:] * N[1, 0], 1)
         + np.diag((k - a[:-1]) * N[0, 1], -1))
    A = np.block([[M.real, M.imag], [-M.imag, M.real]]) if k else M.real
    return np.rint(A).astype(np.int64)


def _coordinate_products(E, index):
    """Multiplication by x0, x1, x2 and x3 on the top degree, as (rows, cols, values).

    From the reduced monomials ``E`` of degree k - 1 to those of degree k,
    whose exponents ``index`` maps to rows; x3^2 -> -(x0^2 + x1^2 + x2^2) is
    the degree-k part of the reduction on the sphere.
    """
    n = len(E)
    cols = np.arange(n)
    unit = np.eye(4, dtype=np.int64)
    out = [(index(E + unit[i]), cols, np.ones(n, dtype=np.int64)) for i in range(3)]
    top = E[:, 3] == 1
    rows = [index(E[~top] + unit[3])] + [index(E[top] - unit[3] + 2 * unit[i]) for i in range(3)]
    out.append((np.concatenate(rows), np.concatenate([cols[~top]] + [cols[top]] * 3),
                np.repeat([1, -1], [n - top.sum(), 3 * top.sum()])))
    return out


def _exact(X, factor):
    """X on int64 while factor * max|X| stays below 2^62, else on Python ints."""
    if X.dtype == object or factor * int(np.abs(X).max(initial=0)) < 2 ** 62:
        return X
    return X.astype(object)


def _weight_columns(D):
    """C_k for k = 0..D: top coefficients of Re f_a, then Im f_a, f_a = z^a u^(k - a).

    Degree by degree, f_a = u f_a for a < k and f_k = z f_(k-1) on the
    columns of degree k - 1; exact, on Python ints once the entries near
    the int64 range (each step at most quadruples them).
    """
    basis = make_basis(D)
    E, offs = basis.exponents, basis.offsets
    C = np.array([[1, 0]], dtype=np.int64)  # Re and Im of f_0 = 1
    yield C[:, :1]
    for k in range(1, D + 1):
        top = E[offs[k]:offs[k + 1]]
        x0, x1, x2, x3 = (partial(polys.sparse_apply, T, n=len(top)) for T in _coordinate_products(
            E[offs[k - 1]:offs[k]], polys.exponent_index(top, k + 1)))
        P, Q = np.hsplit(_exact(C, 4), 2)
        p, q = P[:, -1:], Q[:, -1:]
        C = np.hstack([x2(P) + x3(Q), x0(p) - x1(q), x2(Q) - x3(P), x1(p) + x0(q)])
        yield C


def _reduced_blocks(D):
    """The float blocks W_k^3, k = 0..D, W_k = ker(R_1^2 + k^2) on H_k.

    The frame Laplacian and the right-frame certificates come first.  Then
    per degree, on the degree-k diagonal blocks of the triples alone and on
    integers (int64 where a bound shows no overflow, else Python ints):
    E_i C = C A_i and R_1 C = C A_R for the weight columns C
    (:func:`_weight_columns`) and the A from :func:`_weight_action`, with
    A_R^2 = -k^2, so R_1^2 C = -k^2 C.  E_i and R_1 commute with Lap and
    never raise the degree, so these top-block identities hold on the
    harmonic extensions: the columns span W_k and the A_i are the frame on
    it.  The L^2 Gram of the columns is diagonal with norms proportional to
    sqrt(a! b!) (Fischer norms; Re f and Im f are orthogonal of equal norm
    for k >= 1), so in orthonormal coordinates the frame is
    diag(d) A_i diag(d)^-1.
    """
    frame = polys.derivative_triples(D)
    lap = _frame_laplacian(D, frame)
    right = polys.derivative_triples(D, "right")
    _right_frame_certificate(frame, right, lap)
    offs = make_basis(D).offsets
    tables = [*LEFT_MULT, RIGHT_MULT[0]]
    blocks = []
    for k, C in zip(range(D + 1), _weight_columns(D)):
        n, w = C.shape
        ops = [_block_triples(X, offs[k], offs[k + 1]) for X in (*frame, right[0])]
        A = [_weight_action(L, k) for L in tables]
        width = max(max(np.bincount(r, np.abs(v), n).max(initial=0) for r, _, v in ops),
                    max(np.abs(X).sum(axis=0).max() for X in A))
        C = _exact(C, width)
        for name, op, A_i in zip(("E1", "E2", "E3", "R1"), ops, A):
            r, c = np.nonzero(A_i.T)
            if not np.array_equal(polys.sparse_apply(op, C, n),
                                  polys.sparse_apply((r, c, A_i.T[r, c]), C.T, w).T):
                raise ArithmeticError(f"{name} does not act on the weight columns of "
                                      f"degree {k} by its weight action")
        # R1 C = C A_R with A_R^2 = -k^2 gives R1^2 C = -k^2 C
        if not np.array_equal(A[3] @ A[3], -k * k * np.eye(w, dtype=np.int64)):
            raise ArithmeticError(f"R1^2 is not -{k * k} on the weight columns of degree {k}")
        d = np.tile([1 / math.sqrt(math.comb(k, a)) for a in range(k + 1)], 2 if k else 1)
        F = [A_i * (d[:, None] / d) for A_i in A[:3]]
        blocks.append(HarmonicBlock(k, None, F))
    return blocks


def eigen_decompose(D, ring="float"):
    """The :class:`SpectrumReport` of *d on the divergence-free subspace.

    The float report comes from the reduced blocks (:func:`_reduced_blocks`).
    The exact report comes from integer kernels of the integer block shifts
    (:func:`_exact_eigenspaces`) and additionally certifies completeness
    (multiplicities sum to the subspace dimension) and the absence of
    spectrum at -1, 0, +1.  The eigenfields are :func:`eigenmodes`.
    """
    if _is_exact(ring):
        sub = divergence_free_subspace(D, ring)
        return _exact_report(sub, _exact_eigenspaces(sub))
    return _float_report(D, _reduced_blocks(D))


def eigenmodes(D):
    """The float eigenfields of *d, a :class:`ModeSet` of L^2-normalized fields.

    They come from the full harmonic blocks, the only float use of those
    blocks; each eigenfield lies in one block, so its coefficient degree is k.
    """
    return _float_modes(divergence_free_subspace(D))


def _block_eigh(b):
    """Eigenvalues of *d on ker(div) of float block b, and the eigenvectors in block coordinates.

    One eigh of the block's *d, less its eigenvalues in (-1/2, 1/2), the
    gradients (module docstring).  Raises ArithmeticError unless *d is
    symmetric and exactly ``b.gradients`` eigenvalues lie in that gap.
    """
    A = b.star_d
    asym = float(np.max(np.abs(A - A.T)))
    if asym > 1e-8 * max(1.0, float(np.max(np.abs(A)))):
        raise ArithmeticError(f"star_d not self-adjoint on harmonic block {b.k} "
                              f"(defect {asym:.3e})")
    lam, X = eigh((A + A.T) / 2.0)
    keep = np.abs(lam) >= 0.5
    if len(lam) - keep.sum() != b.gradients:
        raise ArithmeticError(f"{len(lam) - keep.sum()} eigenvalues of star_d in (-1/2, 1/2) "
                              f"on harmonic block {b.k}, not its {b.gradients} gradients")
    return lam[keep], X[:, keep]


def _float_modes(sub):
    """The float :class:`ModeSet`: one eigh per full harmonic block."""
    return _sorted_modes(sub, [_block_eigh(b) for b in sub.blocks])


def eigencomponents(D, c0):
    """``(lam, V)``: the eigenvalues k + 2, -k of each degree k = D..0 and the *d
    eigencomponents of c0 (3N,), the columns of V, which sum to c0.

    From degree D down, the basis of H_k that is the identity on degree k
    (:func:`_harmonic_basis`) times the degree-k coefficients left is the
    block-k part; on ker(div) in H_k^3 *d is k + 2 or -k, so (*d + k) / (2k + 2)
    projects onto the first."""
    lap = _frame_laplacian(D, polys.derivative_triples(D))
    curl = polys.coframe_triples(D)["curl"]
    offs = make_basis(D).offsets
    rest = c0.reshape(3, -1).astype(float)
    cols = []
    for k in range(D, -1, -1):
        T = _harmonic_basis(lap, offs, k)
        eta = np.zeros_like(rest)
        eta[:, :len(T)] = rest[:, offs[k]:offs[k + 1]] @ T.T
        rest -= eta
        eta = eta.ravel()
        plus = (polys.sparse_apply(curl, eta, len(eta)) + (k + 2) * eta) / (2 * k + 2)
        cols += [plus, eta - plus]
    return np.ravel([(k + 2, -k) for k in range(D, -1, -1)]), np.column_stack(cols)

def _full_dimension(k, count):
    """Dimension on H_k^3 of a *d-invariant piece of dimension ``count`` on W_k^3."""
    if not k:
        return count
    if count % 2:
        raise ArithmeticError(f"odd dimension {count} on the reduced block {k}")
    return count // 2 * (k + 1)


def _add_multiplicities(mults, k, values):
    """Count the integers nearest ``values``, eigenvalues on W_k^3, into ``mults`` on H_k^3."""
    nearest, counts = np.unique(np.rint(values).astype(int), return_counts=True)
    for value, count in zip(nearest.tolist(), counts.tolist()):
        mults[value] = mults.get(value, 0) + _full_dimension(k, count)


def _float_report(D, blocks):
    """The float report from the reduced blocks: one eigh of 6(k + 1) columns per block.

    The right frame commutes with *d and div and acts on H_k as copies of
    the spin-k/2 representation, in which R_1^2 = -k^2 on a 2-dimensional
    slice.  So every eigenspace on H_k^3 ∩ ker(div) is (k + 1)/2 times its
    slice on W_k^3 (W_0 = H_0, scale 1); R_1 / k is a complex structure
    commuting with *d, so for k >= 1 a slice of odd dimension is an error.
    The divergence residual of each kept mode is its image under the
    block's div, in orthonormal coordinates of W_k.
    """
    mults, dim, lams, residuals = {}, 0, [], []
    for b in blocks:
        lam, Y = _block_eigh(b)
        _add_multiplicities(mults, b.k, lam)
        dim += _full_dimension(b.k, b.dim)
        lams.append(lam)
        residuals.append(np.linalg.norm(b.div @ Y, axis=0))
    w = np.concatenate(lams)
    return SpectrumReport(
        degree=D,
        ring="float",
        subspace_dim=dim,
        window=trusted_window(D),
        multiplicities=mults,
        max_integer_deviation=float(np.max(np.abs(w - np.rint(w)), initial=0.0)),
        max_div_residual=float(np.concatenate(residuals).max(initial=0.0)),
        complete=sum(mults.values()) == dim,
    )


def _exact_eigenspaces(sub):
    """``(lam, Y)`` per block of the exact subspace: integer eigenvalues and
    L^2-orthonormal eigenvectors in block coordinates, from integer kernels
    of S_k - (k + 2) and S_k + k.

    The shifts act on N, primitive integer vectors spanning the kernel of
    the block's div by fraction-free elimination; ArithmeticError unless
    there are ``b.dim`` of them.  Each eigenspace is L^2-orthonormalized in
    floats by the R factor of its coordinates under the block's Gram factor.
    The report (:func:`_exact_report`) and the exact ring's eigenfields
    (:func:`_sorted_modes`, a reference for the float ones) both read them.
    """
    exponents = make_basis(sub.degree).exponents
    spaces = []
    for b in sub.blocks:
        U3 = np.kron(np.eye(3), _gram_factor(exponents[:len(b.basis)], b.k, b.basis))
        null = exactla.nullspace(b.div.tolist())
        if len(null) != b.dim:
            raise ArithmeticError(f"div kernel of harmonic block {b.k} has dimension "
                                  f"{len(null)}, not {b.dim}")
        N = np.array(null, dtype=object).T
        SN = b.star_d @ N
        lams, Y = [], [np.zeros((len(N), 0))]
        for lam in (-b.k, b.k + 2):
            kernel = exactla.nullspace((SN - lam * N).tolist(), n_cols=b.dim)
            if not kernel:
                continue
            V = (N @ np.array(kernel, dtype=object).T).astype(float)
            # Gram-Schmidt in the L^2 product: U3 V = Q R, so V R^-1 is orthonormal
            R = np.linalg.qr(U3 @ V, mode="r")
            Y.append(np.linalg.solve(R.T, V.T).T)
            lams += [lam] * len(kernel)
        spaces.append((np.array(lams, dtype=int), np.hstack(Y)))
    return spaces


def _exact_report(sub, spaces):
    """The exact report of the eigenpairs of :func:`_exact_eigenspaces`.

    The multiplicities are the kernel ranks.  The divergence residual of a
    mode is taken on its monomial coefficients: the sparse monomial div,
    normed under the monomial Gram on the degree <= k monomials, a second
    route to the L^2 product that also sees the rounding of the float block
    basis.
    """
    G = make_basis(sub.degree).gram()
    residuals = []
    for b, (_, Y) in zip(sub.blocks, spaces):
        m, n = b.basis.shape
        fields = b.basis @ Y.reshape(3, n, -1)
        div = sum(polys.sparse_apply(_block_triples(E, 0, m), F, m)
                  for E, F in zip(sub.frame, fields))
        residuals.append(np.sqrt(np.maximum(np.einsum("ik,ik->k", div, G[:m, :m] @ div), 0.0)))
    values, counts = np.unique(np.concatenate([lam for lam, _ in spaces]), return_counts=True)
    mults = dict(zip(values.tolist(), counts.tolist()))
    return SpectrumReport(
        degree=sub.degree,
        ring="exact",
        subspace_dim=sub.dim,
        window=trusted_window(sub.degree),
        multiplicities=mults,
        max_integer_deviation=0.0,
        max_div_residual=float(np.concatenate(residuals).max(initial=0.0)),
        complete=sum(mults.values()) == sub.dim,
        forbidden_multiplicities={lam: mults.get(lam, 0) for lam in (-1, 0, 1)},
    )


def constant_norm_check(field):
    """Spread max-min of the pointwise |eta|^2 of a field over 1000 seeded sphere points.

    For eigenfields of eigenvalue +-2 the norm is constant and the spread
    vanishes; for other eigenvalues the returned spread is informational.
    """
    vals = np.sum(field.evaluate(Sampler(7).directions(1000)) ** 2, axis=-1)
    return float(vals.max() - vals.min())


def hodge_laplacian_check(D):
    """Spectrum of the Hodge Laplacian (*d)^2 on the divergence-free subspace.

    It runs on the reduced blocks W_k^3 that the float report certifies
    (:func:`_reduced_blocks`), with multiplicities scaled to H_k^3 as there.
    Returns a dict with the clustered eigenvalues mu, their minimum, the
    maximum deviation of the sorted mu of a block from its sorted squared
    integer *d eigenvalues, and the *d-invariance defect of the kept
    eigenvectors K, the root sum of squares of ||(I - K K^T) *d K||.
    Each block's (*d)^2 is its own product, not the square of the *d
    eigenvalues; its eigh runs on all of W_k^3, and its ``gradients`` lowest
    values, the zeros on the gradients, are dropped.  Every trusted mu is at
    least 4.
    """
    mults, mu_min, pairing, defect = {}, math.inf, 0.0, 0.0
    for b in _reduced_blocks(D):
        S = b.star_d
        A2 = S @ S
        mu, K = eigh((A2 + A2.T) / 2.0)  # ascending
        mu, K = mu[b.gradients:], K[:, b.gradients:]
        SK = S @ K
        lam_sq = np.sort(np.rint(_block_eigh(b)[0]) ** 2)
        pairing = max(pairing, float(np.max(np.abs(mu - lam_sq), initial=0.0)))
        defect += float(np.linalg.norm(SK - K @ (K.T @ SK))) ** 2
        _add_multiplicities(mults, b.k, mu)
        mu_min = min(mu_min, float(mu[0]))
    return {
        "degree": D,
        "mu_min": mu_min,
        "mu_multiplicities": dict(sorted(mults.items())),
        "max_square_pairing_deviation": pairing,
        "subspace_invariance_defect": math.sqrt(defect),
        "window": trusted_window(D),
    }
