"""Exact calculus on the 3-sphere in a finite polynomial model.

Scalar functions on the sphere are polynomials on R^4 taken modulo
(x0^2 + x1^2 + x2^2 + x3^2 - 1).  The canonical representative substitutes
x3^2 -> 1 - x0^2 - x1^2 - x2^2 until every monomial has x3-exponent at most
one; the reduced monomials of total degree <= D then form a basis of
dimension sum_{d<=D} (d+1)^2.

Frame derivatives, divergence, curl and the first-order operator *d all act
degree-non-increasingly on this model, so every operator is realized as an
exact finite matrix, applied as sparse integer triples (:func:`sparse_apply`);
L^2 pairings take the scalar Gram matrix per frame component.  The dense
:func:`operator_matrix` and :func:`coframe_gram` are oracles only.
Coefficients live either in 64-bit floats or in exact rationals
(``fractions.Fraction``); the integral of a monomial over the sphere is a
rational multiple of pi^2 in both cases.

Coframe fields eta = a_i eta^i are triples of such polynomials in the frame
of :mod:`sdforms.frames`; axis labels are 1-based to match eta^1, eta^2,
eta^3.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, pi

import numpy as np

from .frames import LEFT_MULT, RIGHT_MULT, LEVI_CIVITA

__all__ = [
    "PolyScalar",
    "CoframeField",
    "PolyBasis",
    "make_basis",
    "frame_derivative",
    "monomial_integral_over_pi2",
    "sphere_integral",
    "div",
    "curl",
    "star_d",
    "coframe_inner",
    "operator_matrix",
    "derivative_triples",
    "coframe_triples",
    "sparse_apply",
    "sparse_triples",
    "exponent_index",
    "coframe_curl",
    "coframe_gram",
    "coframe_pairings",
    "div_norms",
    "left_invariant_coframe",
    "right_invariant_coframe",
    "gradient_coframe",
    "monomial_table",
    "monomial_values",
    "evaluate_monomials",
]


def _reduced(coeffs):
    """Substitute x3^2 -> 1 - x0^2 - x1^2 - x2^2 until canonical."""
    out = {}
    stack = list(coeffs.items())
    while stack:
        e, c = stack.pop()
        if not c:
            continue
        if e[3] >= 2:
            base = (e[0], e[1], e[2], e[3] - 2)
            stack.append((base, c))
            stack.append(((base[0] + 2, base[1], base[2], base[3]), -c))
            stack.append(((base[0], base[1] + 2, base[2], base[3]), -c))
            stack.append(((base[0], base[1], base[2] + 2, base[3]), -c))
        else:
            acc = out.get(e)
            acc = c if acc is None else acc + c
            if acc:
                out[e] = acc
            elif e in out:
                del out[e]
    return out


class PolyScalar:
    """Polynomial on R^4 modulo (|x|^2 - 1), kept in canonical reduced form."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = _reduced(coeffs or {})

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, c):
        return cls({(0, 0, 0, 0): c})

    @classmethod
    def coordinate(cls, nu, ring="float"):
        one = Fraction(1) if ring == "exact" else 1.0
        e = [0, 0, 0, 0]
        e[nu] = 1
        return cls({tuple(e): one})

    @property
    def degree(self):
        return max((sum(e) for e in self.coeffs), default=0)

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            acc = out.get(e)
            out[e] = c if acc is None else acc + c
        return PolyScalar(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            acc = out.get(e)
            out[e] = -c if acc is None else acc - c
        return PolyScalar(out)

    def __neg__(self):
        return PolyScalar({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, PolyScalar):
            out = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                    acc = out.get(e)
                    out[e] = c1 * c2 if acc is None else acc + c1 * c2
            return PolyScalar(out)
        return PolyScalar({e: c * other for e, c in self.coeffs.items()})

    __rmul__ = __mul__

    def as_float(self):
        return PolyScalar({e: float(c) for e, c in self.coeffs.items()})

    def __call__(self, x):
        """Evaluate at points x of shape (..., 4)."""
        return evaluate_monomials(*monomial_table([self]), np.moveaxis(x, -1, 0))[0]

    def __eq__(self, other):
        return isinstance(other, PolyScalar) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "PolyScalar(0)"
        terms = sorted(self.coeffs.items(), key=lambda ec: (sum(ec[0]), ec[0]))
        body = " + ".join(f"{c}*x^{e}" for e, c in terms)
        return f"PolyScalar({body})"


def monomial_table(polys):
    """Exponent table E (K, 4) and float coefficients C (K, P) of P polynomials.

    Row k of E is a monomial occurring in at least one polynomial and
    C[k, j] its coefficient in polynomial j, so that
    ``evaluate_monomials(E, C, x)[j]`` is the value of ``polys[j]``.
    """
    exps = list(dict.fromkeys(e for p in polys for e in p.coeffs))
    index = {e: k for k, e in enumerate(exps)}
    C = np.zeros((len(exps), len(polys)))
    for j, p in enumerate(polys):
        for e, c in p.coeffs.items():
            C[index[e], j] = float(c)
    return np.array(exps, dtype=np.intp).reshape(-1, 4), C


def monomial_values(E, x):
    """Values (K, ...) of the monomials of an exponent table at points x (4, ...).

    Coordinates come first so that each power is built along the points, by
    repeated multiplication up to the largest exponent in the table; every
    step is elementwise, so a point's values do not depend on its batch.
    """
    x = np.asarray(x, dtype=float)
    V = np.ones((len(E),) + x.shape[1:])
    for nu in range(4):
        powers = [np.ones(x.shape[1:])]
        for _ in range(int(E[:, nu].max(initial=0))):
            powers.append(powers[-1] * x[nu])
        V *= np.array(powers)[E[:, nu]]
    return V


def evaluate_monomials(E, C, x):
    """Values (P, ...) of the polynomials of a monomial table at points x (4, ...)."""
    x = np.asarray(x, dtype=float)
    V = monomial_values(E, x)
    return (C.T @ V.reshape(len(E), x[0].size)).reshape(C.shape[1:] + x.shape[1:])


def _axis_index(axis):
    if axis not in (1, 2, 3):
        raise ValueError(f"frame axis must be 1, 2 or 3, got {axis!r}")
    return axis - 1


def frame_derivative(f, axis):
    """Derivative e_axis(f) along the frame field generated by e_hat_axis.

    The generating field is linear, X(x) = L x with L antisymmetric, so the
    derivative of a polynomial is again a polynomial of no higher degree and
    the result is exact in both coefficient rings.
    """
    m = _axis_index(axis)
    out = {}
    for e, c in f.coeffs.items():
        for nu in range(4):
            if not e[nu]:
                continue
            for mu in range(4):
                a = LEFT_MULT[m][nu, mu]
                if not a:
                    continue
                ee = list(e)
                ee[nu] -= 1
                ee[mu] += 1
                ee = tuple(ee)
                term = c * e[nu] * (int(a) if not isinstance(c, float) else a)
                acc = out.get(ee)
                out[ee] = term if acc is None else acc + term
    return PolyScalar(out)


def monomial_integral_over_pi2(e):
    """Integral of x^e over the unit 3-sphere, divided by pi^2, as a Fraction.

    Vanishes if any exponent is odd; the total measure is 2*pi^2.
    """
    if any(k % 2 for k in e):
        return Fraction(0)
    m = [k // 2 for k in e]
    num = 1
    den = 1
    for mi in m:
        num *= factorial(2 * mi)
        den *= 4 ** mi * factorial(mi)
    return Fraction(2 * num, den * factorial(sum(m) + 1))


def sphere_integral(f, over_pi2=False):
    """Integral of f over the unit 3-sphere.

    With ``over_pi2`` the exact rational coefficient of pi^2 is returned
    (a Fraction when f has Fraction coefficients); otherwise a float.
    """
    total = Fraction(0)
    exact = True
    acc = 0.0
    for e, c in f.coeffs.items():
        w = monomial_integral_over_pi2(e)
        if isinstance(c, float):
            exact = False
            acc += c * float(w)
        else:
            total += c * w
    if over_pi2:
        return total if exact else acc + float(total)
    return (float(total) + acc) * pi * pi


@dataclass(frozen=True)
class CoframeField:
    """A 1-form a_1 eta^1 + a_2 eta^2 + a_3 eta^3 with polynomial coefficients."""

    alpha: tuple

    def __post_init__(self):
        if len(self.alpha) != 3:
            raise ValueError("a coframe field needs exactly three components")

    @classmethod
    def zero(cls):
        z = PolyScalar.zero()
        return cls((z, z, z))

    @classmethod
    def constant(cls, triple, ring="float"):
        conv = Fraction if ring == "exact" else float
        return cls(tuple(PolyScalar.constant(conv(c)) if c else PolyScalar.zero()
                         for c in triple))

    def component(self, axis):
        return self.alpha[_axis_index(axis)]

    @property
    def degree(self):
        return max(a.degree for a in self.alpha)

    def __add__(self, other):
        return CoframeField(tuple(a + b for a, b in zip(self.alpha, other.alpha)))

    def __sub__(self, other):
        return CoframeField(tuple(a - b for a, b in zip(self.alpha, other.alpha)))

    def __mul__(self, scalar):
        return CoframeField(tuple(a * scalar for a in self.alpha))

    __rmul__ = __mul__

    def as_float(self):
        return CoframeField(tuple(a.as_float() for a in self.alpha))

    def evaluate(self, x):
        """Frame components at points x of shape (..., 4); returns (..., 3)."""
        values = evaluate_monomials(*monomial_table(self.alpha), np.moveaxis(x, -1, 0))
        return np.moveaxis(values, 0, -1)

    def norm_sq_poly(self):
        """Pointwise squared norm sum_i a_i^2 as a PolyScalar."""
        out = PolyScalar.zero()
        for a in self.alpha:
            out = out + a * a
        return out

    def l2_norm(self):
        return float(np.sqrt(max(sphere_integral(self.norm_sq_poly()), 0.0)))


def div(eta):
    """Divergence sum_i e_i(a_i); equals *d* eta on the round sphere."""
    out = PolyScalar.zero()
    for m in range(3):
        out = out + frame_derivative(eta.alpha[m], m + 1)
    return out


def curl(eta):
    """Frame-component curl, (curl eta)^k = eps_{kij} e_i(a_j).

    Identically equal to *d eta - 2 eta; the constant shift comes from the
    structure equation d eta^i = 2 eta^j ^ eta^k.
    """
    comps = []
    for k in range(3):
        acc = PolyScalar.zero()
        for i in range(3):
            for j in range(3):
                s = LEVI_CIVITA[k, i, j]
                if s:
                    term = frame_derivative(eta.alpha[j], i + 1)
                    acc = acc + (term if s > 0 else -term)
        comps.append(acc)
    return CoframeField(tuple(comps))


def star_d(eta):
    """The operator *d on 1-forms, star_d = curl + 2*id."""
    c = curl(eta)
    two = Fraction(2) if any(
        not isinstance(v, float) for a in eta.alpha for v in a.coeffs.values()
    ) else 2.0
    return CoframeField(tuple(ck + two * ak for ck, ak in zip(c.alpha, eta.alpha)))


def coframe_inner(eta, xi, over_pi2=False):
    """L^2 inner product of two coframe fields (frame-orthonormal metric)."""
    total = PolyScalar.zero()
    for a, b in zip(eta.alpha, xi.alpha):
        total = total + a * b
    return sphere_integral(total, over_pi2=over_pi2)


def left_invariant_coframe(axis, ring="float"):
    """The constant field eta^axis, a *d eigenfield with eigenvalue +2."""
    triple = [0, 0, 0]
    triple[_axis_index(axis)] = 1
    return CoframeField.constant(triple, ring=ring)


def right_invariant_coframe(axis, ring="float"):
    """The right-frame covector phi^axis written in left-frame components.

    Its coefficients are the quadratic polynomials <x * e_hat_axis, e_hat_i * x>;
    these fields are *d eigenfields with eigenvalue -2 and unit pointwise norm.
    """
    m = _axis_index(axis)
    comps = []
    for i in range(3):
        Q = RIGHT_MULT[m].T @ LEFT_MULT[i]
        coeffs = {}
        for a in range(4):
            for b in range(4):
                v = Q[a, b]
                if not v:
                    continue
                e = [0, 0, 0, 0]
                e[a] += 1
                e[b] += 1
                e = tuple(e)
                w = Fraction(int(v)) if ring == "exact" else float(v)
                acc = coeffs.get(e)
                coeffs[e] = w if acc is None else acc + w
        comps.append(PolyScalar(coeffs))
    return CoframeField(tuple(comps))


def gradient_coframe(f):
    """df in frame components, a_i = e_i(f)."""
    return CoframeField(tuple(frame_derivative(f, i) for i in (1, 2, 3)))


def _reduced_monomials(D):
    out = []
    for d in range(D + 1):
        for e0 in range(d, -1, -1):
            for e1 in range(d - e0, -1, -1):
                for e2 in range(d - e0 - e1, -1, -1):
                    e3 = d - e0 - e1 - e2
                    if e3 <= 1:
                        out.append((e0, e1, e2, e3))
    return out


class PolyBasis:
    """Reduced-monomial basis of the degree <= D polynomial model of the sphere."""

    def __init__(self, D):
        if D < 0:
            raise ValueError(f"degree bound must be >= 0, got {D}")
        self.D = D
        self.monomials = _reduced_monomials(D)
        self.index = {e: k for k, e in enumerate(self.monomials)}
        self.dim = len(self.monomials)

    def to_vector(self, f):
        v = np.zeros(self.dim)
        for e, c in f.coeffs.items():
            k = self.index.get(e)
            if k is None:
                raise ValueError(f"monomial {e} outside degree-{self.D} basis")
            v[k] = float(c)
        return v

    def from_vector(self, v):
        return PolyScalar({self.monomials[k]: c for k, c in enumerate(v) if c})

    def coframe_to_vector(self, eta):
        return np.concatenate([self.to_vector(a) for a in eta.alpha])

    def coframe_from_vector(self, v):
        n = self.dim
        return CoframeField(tuple(self.from_vector(v[m * n:(m + 1) * n]) for m in range(3)))

    def gram(self):
        """Scalar Gram matrix as floats, actual integrals including pi^2.

        The matrix is cached per degree and returned read-only.
        """
        return _scalar_gram(self.D)


@lru_cache(maxsize=8)
def make_basis(D):
    """Basis descriptor for polynomials of degree <= D on the sphere."""
    return PolyBasis(D)


@lru_cache(maxsize=8)
def _scalar_gram(D):
    """Float scalar Gram matrix, one exact integral per distinct exponent sum.

    Entry (a, b) is the integral of x^(e_a + e_b).  Each monomial is one
    integer key in base 2D + 1, whose digits (at most 2D in a sum) add
    without carries, so the key of a sum is the sum of the keys.  A table
    over all (2D + 1)^4 keys marks those that occur; the rational integral
    of each is converted to a float once, its exponents read back from the
    digits, and the N x N key sums index the table.
    """
    E = np.array(make_basis(D).monomials, dtype=np.int64)
    base = 2 * D + 1
    place = base ** np.arange(3, -1, -1, dtype=np.int64)
    key = E @ place
    S = key[:, None] + key[None, :]
    values = np.zeros(base ** 4)
    values[S] = 1.0
    keys = np.flatnonzero(values)
    exponents = keys[:, None] // place % base
    values[keys] = [float(monomial_integral_over_pi2(e)) for e in exponents.tolist()]
    G = values[S]
    G *= pi
    G *= pi
    G.flags.writeable = False
    return G


def sparse_triples(flat, values, shape):
    """Sparse (rows, cols, values, shape) triples of the entries at flat positions ``flat``.

    Entries at one position add; zero sums are dropped and the result is
    row-major, the form of :func:`derivative_triples`.
    """
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    start = np.flatnonzero(np.diff(flat, prepend=-1))
    acc = np.add.reduceat(values[order], start)
    nz = acc != 0
    unique = flat[start[nz]]
    return unique // shape[1], unique % shape[1], acc[nz], shape


def exponent_index(E, base):
    """Function mapping exponent rows (..., 4) to their row numbers in the table E.

    Every exponent must be below ``base``; each row is read as one integer
    key in that base.
    """
    place = base ** np.arange(3, -1, -1)
    keys = E @ place
    by_key = np.argsort(keys)
    return lambda X: by_key[np.searchsorted(keys, X @ place, sorter=by_key)]


def derivative_triples(D, table=LEFT_MULT):
    """The three frame-derivative matrices on the degree <= D reduced basis, sparse.

    Each is ``(rows, cols, values, (N, N))``: integer entries, no zeros or
    repeated positions, in row-major order.  They come from exponent
    arithmetic on the monomial table: e_m(x^e) = sum e_nu L_m[nu, mu]
    x^(e - u_nu + u_mu) over the nonzero entries of the generator L_m, with
    x3^2 -> 1 - x0^2 - x1^2 - x2^2 applied where the x3-exponent reaches 2.
    ``table`` holds the three generators: LEFT_MULT gives the frame E_i of
    :func:`frame_derivative` (the same operator on dict polynomials),
    RIGHT_MULT the opposite frame R_i.
    """
    return _derivative_triples(D, np.asarray(table, dtype=np.int64).tobytes())


@lru_cache(maxsize=8)
def _derivative_triples(D, table):
    E = np.array(make_basis(D).monomials, dtype=np.int64).reshape(-1, 4)
    n = len(E)
    index = exponent_index(E, D + 1)
    out = []
    for L in np.frombuffer(table, dtype=np.int64).reshape(3, 4, 4):
        targets, cols, vals = [], [], []
        for nu, mu in zip(*np.nonzero(L)):
            col = np.flatnonzero(E[:, nu])
            T = E[col]
            T[:, nu] -= 1
            T[:, mu] += 1
            v = int(L[nu, mu]) * E[col, nu]
            over = T[:, 3] == 2
            B = T[over]
            B[:, 3] = 0
            targets += [T[~over], B]
            cols += [col[~over], col[over]]
            vals += [v[~over], v[over]]
            for i in range(3):
                B2 = B.copy()
                B2[:, i] += 2
                targets.append(B2)
                cols.append(col[over])
                vals.append(-v[over])
        rows = index(np.concatenate(targets))
        triples = sparse_triples(rows * n + np.concatenate(cols), np.concatenate(vals), (n, n))
        for a in triples[:3]:
            a.flags.writeable = False
        out.append(triples)
    return out


def coframe_curl(E):
    """curl (3n, 3n) from the three frame-derivative matrices E_i (n, n).

    Block (k, j) is eps_kij E_i; div is [E_1 E_2 E_3] and star_d is
    curl + 2 I.  The E_i may be the full matrices or their restriction to
    one harmonic block, in any numeric dtype.
    """
    n = len(E[0])
    curl = np.zeros((3 * n, 3 * n), dtype=E[0].dtype)
    for k, i, j in zip(*np.nonzero(LEVI_CIVITA)):
        curl[k * n:(k + 1) * n, j * n:(j + 1) * n] = int(LEVI_CIVITA[k, i, j]) * E[i]
    return curl


def sparse_apply(triples, X, n):
    """T @ X for sparse triples T = (rows, cols, values[, shape]) with n rows.

    X is (m,) or (m, K) of int64, Python ints or floats, kept in the result.
    """
    r, c, v = triples[:3]
    out = np.zeros((n,) + X.shape[1:], dtype=X.dtype)
    np.add.at(out, r, v.reshape((-1,) + (1,) * (X.ndim - 1)) * X[c])
    return out


@lru_cache(maxsize=8)
def coframe_triples(D):
    """Sparse div (N, 3N) and curl (3N, 3N) on the degree <= D coframe space.

    Triples in the form of :func:`derivative_triples`: column block j of div
    is E_(j+1), block (k, j) of curl is eps_kij E_i; star_d is curl + 2 I.
    """
    E = derivative_triples(D)
    n = E[0][3][0]
    div = [(r, c + j * n, v) for j, (r, c, v, _) in enumerate(E)]
    curl = [(E[i][0] + k * n, E[i][1] + j * n, int(LEVI_CIVITA[k, i, j]) * E[i][2])
            for k, i, j in zip(*np.nonzero(LEVI_CIVITA))]
    out = {}
    for kind, parts, shape in (("div", div, (n, 3 * n)), ("curl", curl, (3 * n, 3 * n))):
        r, c, v = (np.concatenate(a) for a in zip(*parts))
        out[kind] = sparse_triples(r * shape[1] + c, v, shape)
        for a in out[kind][:3]:
            a.flags.writeable = False
    return out


def coframe_gram(D):
    """Dense Gram matrix kron(I_3, G) of the coframe basis; an oracle only."""
    return np.kron(np.eye(3), make_basis(D).gram())


def coframe_pairings(D, A, B):
    """L^2 pairings A^T (I_3 kron G) B of coframe coefficient vectors or columns.

    ``A`` and ``B`` are (3N,) or (3N, K) on the degree <= D basis; the scalar
    Gram G of :meth:`PolyBasis.gram` acts on each frame component.
    """
    G = make_basis(D).gram()
    n = len(G)
    return sum(A[m * n:(m + 1) * n].T @ (G @ B[m * n:(m + 1) * n]) for m in range(3))


def div_norms(D, C):
    """L^2 norms of div over the coefficient columns of C.

    ``C`` is one coframe coefficient vector on the degree <= D basis, or a
    (3N, K) matrix of them; the result lists one norm per vector.
    """
    G = make_basis(D).gram()
    n = len(G)
    R = sparse_apply(coframe_triples(D)["div"], np.asarray(C, dtype=float).reshape(3 * n, -1), n)
    sq = np.einsum("ik,ik->k", R, G @ R)
    return np.sqrt(np.maximum(sq, 0.0)).tolist()


def operator_matrix(kind, D):
    """Dense view of div, curl or star_d = curl + 2 I, from :func:`coframe_triples`.

    An ndarray for tests and tracing; no library path applies it.  Columns
    follow the coframe vectorization, component-major over the monomials.
    """
    if kind not in ("div", "curl", "star_d"):
        raise ValueError(f"unknown operator kind {kind!r}")
    rows, cols, vals, shape = coframe_triples(D)["div" if kind == "div" else "curl"]
    M = np.zeros(shape)
    M[rows, cols] = vals
    return M + 2.0 * np.eye(len(M)) if kind == "star_d" else M
