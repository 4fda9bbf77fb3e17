from fractions import Fraction
from math import pi

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sdforms.frames import LEVI_CIVITA, RIGHT_MULT
from sdforms.polys import (
    CoframeField,
    PolyScalar,
    _scalar_gram,
    coframe_gram,
    coframe_triples,
    curl,
    derivative_triples,
    div,
    div_norms,
    frame_derivative,
    gradient_coframe,
    l2_norms,
    left_invariant_coframe,
    make_basis,
    monomial_integral_over_pi2,
    operator_matrix,
    right_invariant_coframe,
    sparse_apply,
    sphere_integral,
    star_d,
)


def l2_inner(f, g):
    """L^2 inner product of two scalars over the sphere."""
    return sphere_integral(f * g)


def exact(field):
    """The field with Fraction coefficients, equal to its integer-valued float ones."""
    return CoframeField(tuple(PolyScalar({e: Fraction(c) for e, c in a.coeffs.items()})
                              for a in field.alpha))


def random_poly(rng, degree=3, ring=float):
    """Random integer coefficients, of the coefficient type ``ring``."""
    basis = make_basis(degree)
    coeffs = {}
    for e in basis.monomials:
        if rng.random() < 0.3:
            c = rng.integers(-4, 5)
            if c:
                coeffs[e] = ring(int(c))
    return PolyScalar(coeffs)


def random_sphere_points(n, seed=0):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((n, 4))
    return p / np.linalg.norm(p, axis=1, keepdims=True)


# ---------------------------------------------------------------- reduction

def test_reduction_kills_x3_squared():
    f = PolyScalar({(0, 0, 0, 2): 1.0})
    expected = (PolyScalar.constant(1.0)
                - PolyScalar({(2, 0, 0, 0): 1.0})
                - PolyScalar({(0, 2, 0, 0): 1.0})
                - PolyScalar({(0, 0, 2, 0): 1.0}))
    assert f == expected
    assert all(e[3] <= 1 for e in f.coeffs)


def test_reduction_idempotent():
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = random_poly(rng)
        assert PolyScalar(dict(f.coeffs)) == f


def test_reduction_preserves_values_on_sphere():
    # the unreduced and reduced polynomials agree on |x| = 1
    raw = {(1, 0, 0, 3): 2.0, (0, 2, 0, 2): -1.0, (0, 0, 0, 4): 0.5}
    f = PolyScalar(raw)
    pts = random_sphere_points(50, seed=4)
    direct = sum(
        c * np.prod([pts[:, nu] ** e[nu] for nu in range(4)], axis=0)
        for e, c in raw.items()
    )
    assert_allclose(f(pts), direct, atol=1e-13)


# ---------------------------------------------------------------- basis

@pytest.mark.parametrize("D,dim", [(0, 1), (1, 5), (2, 14), (3, 30)])
def test_basis_dimension(D, dim):
    assert make_basis(D).dim == dim
    assert dim == sum((d + 1) ** 2 for d in range(D + 1))


def test_basis_gram_positive_definite():
    G = make_basis(2).gram()
    w = np.linalg.eigvalsh(G)
    assert w.min() > 0
    assert_allclose(G, G.T)


@pytest.mark.parametrize("D", range(9))
def test_scalar_gram_matches_fraction_table(D):
    # oracle: every entry integrated exactly as a Fraction, then converted
    basis = make_basis(D)
    table = [[monomial_integral_over_pi2(tuple(i + j for i, j in zip(ea, eb)))
              for eb in basis.monomials] for ea in basis.monomials]
    expected = np.array([[float(w) for w in row] for row in table]) * pi * pi
    assert np.array_equal(basis.gram(), expected)


def test_basis_rejects_negative_degree():
    with pytest.raises(ValueError):
        make_basis(-1)


# ---------------------------------------------------------------- derivative

def test_frame_derivative_constant():
    assert frame_derivative(PolyScalar.constant(1.0), 1) == PolyScalar.zero()


def test_frame_derivative_x0():
    # e_1(x0) = (i*x)_0 = -x1
    df = frame_derivative(PolyScalar.coordinate(0), 1)
    assert df == PolyScalar({(0, 1, 0, 0): -1.0})


def test_frame_derivative_leibniz_exact():
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = random_poly(rng, degree=2, ring=Fraction)
        g = random_poly(rng, degree=2, ring=Fraction)
        for axis in (1, 2, 3):
            lhs = frame_derivative(f * g, axis)
            rhs = frame_derivative(f, axis) * g + f * frame_derivative(g, axis)
            assert lhs == rhs


def test_frame_derivative_matches_flow_oracle():
    # independent oracle: differentiate f along the great-circle flow
    # x(s) = cos(s) x + sin(s) e_m(x) by central differences
    from sdforms.frames import LEFT_MULT

    rng = np.random.default_rng(3)
    f = random_poly(rng, degree=3)
    pts = random_sphere_points(20, seed=5)
    h = 1e-6
    for axis in (1, 2, 3):
        df = frame_derivative(f, axis)
        for x in pts:
            v = LEFT_MULT[axis - 1] @ x
            plus = f(np.cos(h) * x + np.sin(h) * v)
            minus = f(np.cos(h) * x - np.sin(h) * v)
            assert abs(df(x) - (plus - minus) / (2 * h)) < 1e-7


# ---------------------------------------------------------------- integral

def test_sphere_integral_constants():
    assert_allclose(sphere_integral(PolyScalar.constant(1.0)), 2 * pi ** 2)
    assert sphere_integral(PolyScalar.coordinate(0)) == 0.0
    assert_allclose(sphere_integral(PolyScalar({(2, 0, 0, 0): 1.0})), pi ** 2 / 2)


def test_sphere_integral_exact_units():
    assert monomial_integral_over_pi2((0, 0, 0, 0)) == Fraction(2)
    assert monomial_integral_over_pi2((2, 0, 0, 0)) == Fraction(1, 2)


def test_sphere_integral_against_quadrature():
    from sdforms.quadrature import s3_quadrature

    pts, wts = s3_quadrature(12)
    rng = np.random.default_rng(6)
    for _ in range(5):
        f = random_poly(rng, degree=3)
        assert_allclose(np.dot(wts, f(pts)), sphere_integral(f),
                        rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("n,err_at_n", [(4, 0.822467), (6, 0.154213), (8, 0.0308425)])
def test_s3_quadrature_exactness_degree(n, err_at_n):
    # every monomial of total degree <= n - 1 is exact; x_2^n is not, since the
    # uniform c grid aliases cos^n(c) onto a constant
    from itertools import product

    from sdforms.quadrature import s3_quadrature

    pts, wts = s3_quadrature(n)
    exps = [e for e in product(range(n), repeat=4) if sum(e) <= n - 1]
    quad = wts @ np.prod(pts[:, None, :] ** np.array(exps), axis=2)
    exact = [float(monomial_integral_over_pi2(e)) * pi ** 2 for e in exps]
    assert_allclose(quad, exact, rtol=0, atol=1e-13)
    e = (0, 0, n, 0)
    err = wts @ pts[:, 2] ** n - float(monomial_integral_over_pi2(e)) * pi ** 2
    assert err == pytest.approx(err_at_n, rel=1e-5)


def test_symmetry_of_coordinates():
    # all four x_nu^2 integrate to the same value, totalling 2 pi^2
    vals = [sphere_integral(PolyScalar({tuple(2 if m == nu else 0 for m in range(4)): 1.0}))
            for nu in range(4)]
    assert_allclose(vals, [pi ** 2 / 2] * 4)


# ---------------------------------------------------------------- div / curl

def test_div_of_invariant_frame_fields():
    for axis in (1, 2, 3):
        assert div(left_invariant_coframe(axis)) == PolyScalar.zero()
        assert div(right_invariant_coframe(axis)) == PolyScalar.zero()


def test_div_of_gradient_is_laplacian():
    # x0 is a first spherical harmonic: Delta x0 = -3 x0
    f = PolyScalar.coordinate(0)
    lap = div(gradient_coframe(f))
    assert lap == PolyScalar({(1, 0, 0, 0): -3.0})


def test_div_linearity():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = CoframeField(tuple(random_poly(rng, 2) for _ in range(3)))
        b = CoframeField(tuple(random_poly(rng, 2) for _ in range(3)))
        assert div(a + b) == div(a) + div(b)


def test_curl_eigen_equations():
    # *d eta^1 = 2 eta^1  <=>  curl(eta^1) = 0
    eta1 = left_invariant_coframe(1)
    assert curl(eta1) == CoframeField.zero()
    sd = star_d(eta1)
    assert sd == 2.0 * eta1
    # right-invariant fields: *d phi = -2 phi  <=>  curl phi = -4 phi
    phi = exact(right_invariant_coframe(1))
    assert curl(phi) == Fraction(-4) * phi
    assert star_d(phi) == Fraction(-2) * phi


def test_curl_of_gradient():
    # *d(df) = 0, hence curl(df) = -2 df
    f = PolyScalar.coordinate(0)
    g = gradient_coframe(f)
    assert star_d(g) == CoframeField.zero()
    assert curl(g) == -2.0 * g


def test_div_star_d_vanishes():
    # *d* of *d is *dd = 0, so div kills the image of star_d on every field;
    # curl = star_d - 2 id then gives div(curl eta) = -2 div(eta), which
    # vanishes exactly on divergence-free fields
    rng = np.random.default_rng(8)
    for _ in range(5):
        eta = CoframeField(tuple(random_poly(rng, 2, ring=Fraction) for _ in range(3)))
        assert div(star_d(eta)) == PolyScalar.zero()
        assert div(curl(eta)) == Fraction(-2) * div(eta)
    phi = exact(right_invariant_coframe(2))
    assert div(curl(phi)) == PolyScalar.zero()


def test_curl_is_star_d_minus_two_exact():
    rng = np.random.default_rng(9)
    for _ in range(5):
        eta = CoframeField(tuple(random_poly(rng, 3, ring=Fraction) for _ in range(3)))
        lhs = curl(eta)
        rhs = star_d(eta) - Fraction(2) * eta
        assert lhs == rhs


def test_right_invariant_pointwise_norm():
    pts = random_sphere_points(50, seed=10)
    for axis in (1, 2, 3):
        phi = right_invariant_coframe(axis)
        assert_allclose(phi.norm_sq_poly()(pts), 1.0, atol=1e-12)


# ---------------------------------------------------------------- matrices

def test_operator_matrix_div_degree0_is_zero():
    M = operator_matrix("div", 0)
    assert_allclose(M, 0.0)


def test_operator_matrix_star_d_degree0():
    S = operator_matrix("star_d", 0)
    assert_allclose(S, 2 * np.eye(3))


def test_operator_matrix_consistency_with_fields():
    # matrix action agrees with the symbolic operators on random fields
    rng = np.random.default_rng(11)
    D = 3
    basis = make_basis(D)
    for kind, op in [("div", div), ("curl", curl), ("star_d", star_d)]:
        M = operator_matrix(kind, D)
        eta = CoframeField(tuple(random_poly(rng, D) for _ in range(3)))
        v = basis.coframe_to_vector(eta)
        image = M @ v
        if kind == "div":
            expected = basis.to_vector(op(eta))
        else:
            expected = basis.coframe_to_vector(op(eta))
        assert_allclose(image, expected, atol=1e-12)


@pytest.mark.parametrize("axis", [1, 2, 3])
@pytest.mark.parametrize("D", range(9))
def test_derivative_triples_match_dict_route(D, axis):
    # the exponent-arithmetic triples against one frame_derivative per monomial
    basis = make_basis(D)
    rows, cols, vals, shape = derivative_triples(D)[axis - 1]
    assert shape == (basis.dim, basis.dim)
    assert vals.dtype.kind == "i" and np.all(vals != 0)
    assert np.all(np.diff(rows * basis.dim + cols) > 0)  # row-major, no repeats
    expected = {}
    for col, e in enumerate(basis.monomials):
        for ee, c in frame_derivative(PolyScalar({e: Fraction(1)}), axis).coeffs.items():
            assert c.denominator == 1
            expected[(basis.index[ee], col)] = int(c)
    assert {(int(r), int(c)): int(v) for r, c, v in zip(rows, cols, vals)} == expected


@pytest.mark.parametrize("D", [*range(7), 12])
def test_basis_layout(D):
    # the exponent table is the monomial list, read-only, and offsets[d]
    # starts the (d + 1)^2 rows of degree d, then N
    basis = make_basis(D)
    E, offs = basis.exponents, basis.offsets
    assert E.dtype == np.int64 and not E.flags.writeable
    assert [tuple(e) for e in E.tolist()] == basis.monomials
    assert offs[0] == 0 and offs[-1] == basis.dim and len(offs) == D + 2
    for d in range(D + 1):
        assert offs[d + 1] - offs[d] == (d + 1) ** 2
        assert np.all(E[offs[d]:offs[d + 1]].sum(axis=1) == d)


def right_derivative(e, axis):
    """R_axis(x^e) = sum_nu (R x)_nu d/dx_nu x^e for R = RIGHT_MULT[axis - 1],
    in the dict algebra, with Fraction coefficients."""
    R = RIGHT_MULT[axis - 1]
    out = PolyScalar.zero()
    for nu in range(4):
        if e[nu]:
            lower = tuple(k - (i == nu) for i, k in enumerate(e))
            Rx = PolyScalar({tuple(int(i == mu) for i in range(4)): Fraction(int(R[nu, mu]))
                             for mu in range(4) if R[nu, mu]})
            out = out + Rx * PolyScalar({lower: Fraction(e[nu])})
    return out


@pytest.mark.parametrize("D", [*range(7), 12])
def test_right_derivative_triples_match_dict_route(D):
    basis = make_basis(D)
    right = derivative_triples(D, "right")
    assert derivative_triples(D, "right") is right
    for axis in (1, 2, 3):
        rows, cols, vals, shape = right[axis - 1]
        assert shape == (basis.dim, basis.dim) and vals.dtype.kind == "i"
        assert np.all(np.diff(rows * basis.dim + cols) > 0)
        expected = {}
        for col, e in enumerate(basis.monomials):
            for ee, c in right_derivative(e, axis).coeffs.items():
                expected[(basis.index[ee], col)] = int(c)
        assert {(int(r), int(c)): int(v) for r, c, v in zip(rows, cols, vals)} == expected


@pytest.mark.parametrize("frame", ["middle", "Left", None])
def test_derivative_triples_unknown_frame(frame):
    with pytest.raises(ValueError, match="frame must be 'left' or 'right'"):
        derivative_triples(2, frame)


def dense_operators(D):
    """The dense route the triples replaced: one frame_derivative per monomial
    column, curl from Levi-Civita blocks and star_d = curl + 2 I."""
    basis = make_basis(D)
    n = basis.dim
    mats = []
    for axis in (1, 2, 3):
        M = np.zeros((n, n))
        for col, e in enumerate(basis.monomials):
            M[:, col] = basis.to_vector(frame_derivative(PolyScalar({e: 1.0}), axis))
        mats.append(M)
    C = np.zeros((3 * n, 3 * n))
    for k in range(3):
        for i in range(3):
            for j in range(3):
                if LEVI_CIVITA[k, i, j]:
                    C[k * n:(k + 1) * n, j * n:(j + 1) * n] += LEVI_CIVITA[k, i, j] * mats[i]
    return {"div": np.hstack(mats), "curl": C, "star_d": C + 2.0 * np.eye(3 * n)}


@pytest.mark.parametrize("D", range(7))
def test_operator_matrix_matches_dense_route(D):
    dense = dense_operators(D)
    for kind in ("div", "curl", "star_d"):
        assert np.array_equal(operator_matrix(kind, D), dense[kind]), kind


@pytest.mark.parametrize("D", [0, 1, 4])
def test_coframe_triples_apply_as_dense_operators(D):
    rng = np.random.default_rng(D)
    X = rng.standard_normal((3 * make_basis(D).dim, 4))
    for kind, triples in coframe_triples(D).items():
        rows, cols, vals, shape = triples
        assert vals.dtype.kind == "i" and np.all(vals != 0)
        assert np.all(np.diff(rows * shape[1] + cols) > 0)  # row-major, no repeats
        M = operator_matrix(kind, D)
        assert M.shape == shape
        assert_allclose(sparse_apply(triples, X, shape[0]), M @ X, rtol=1e-14, atol=1e-13)
        assert_allclose(sparse_apply(triples, X[:, 0], shape[0]), M @ X[:, 0],
                        rtol=1e-14, atol=1e-13)


@pytest.mark.parametrize("D", [1, 3, 5])
def test_div_norms_match_dense_oracle(D):
    n = make_basis(D).dim
    rng = np.random.default_rng(D)
    C = rng.standard_normal((3 * n, 5))
    R = operator_matrix("div", D) @ C
    G = coframe_gram(D)[:n, :n]
    expected = np.sqrt(np.einsum("ik,ik->k", R, G @ R))
    assert_allclose(div_norms(D, C), expected, rtol=1e-12)
    assert_allclose(div_norms(D, C[:, 2]), expected[2:3], rtol=1e-12)


@pytest.mark.parametrize("D", range(5))
@pytest.mark.parametrize("c", [1, 3])
def test_l2_norms_match_dense_quadratic_form(D, c):
    # c = 3 coframe columns under kron(I_3, G), c = 1 scalar columns under G
    G = coframe_gram(D) if c == 3 else make_basis(D).gram()
    rng = np.random.default_rng(10 * D + c)
    X = rng.standard_normal((len(G), 4))
    expected = np.sqrt(np.diag(X.T @ G @ X))
    assert_allclose(l2_norms(D, X), expected, rtol=1e-12)
    assert_allclose(l2_norms(D, X[:, 1]), expected[1:2], rtol=1e-12)


def test_scalar_gram_of_lower_degree_is_its_leading_block():
    # an entry depends only on its exponent sum, so the degree-k Gram that
    # norms a degree-k block is bit for bit the leading block of a larger one
    G = _scalar_gram(12)
    for k in range(13):
        m = make_basis(k).dim
        assert np.array_equal(_scalar_gram(k), G[:m, :m])


def test_operator_matrix_rejects_bad_kind():
    with pytest.raises(ValueError):
        operator_matrix("grad", 1)


def test_l2_inner_orthogonality_of_frames():
    # <eta^1, phi^1> integrates to zero over the sphere
    eta = left_invariant_coframe(1)
    phi = right_invariant_coframe(1)
    total = PolyScalar.zero()
    for a, b in zip(eta.alpha, phi.alpha):
        total = total + a * b
    assert abs(sphere_integral(total)) < 1e-14
    assert abs(l2_inner(PolyScalar.coordinate(0), PolyScalar.coordinate(1))) < 1e-14


# ---------------------------------------------------------------- evaluation

def exact_value(f, x):
    """The canonical representative of f evaluated in rationals at a float point."""
    xq = [Fraction(float(v)) for v in x]
    total = Fraction(0)
    for e, c in f.coeffs.items():
        term = Fraction(c)
        for v, k in zip(xq, e):
            term *= v ** k
        total += term
    return total


@pytest.mark.parametrize("seed", range(6))
def test_poly_eval_matches_exact_rationals(seed):
    # degree <= 6 with random exponents: x3^2 and higher reduce to mixed
    # monomials, so the canonical forms carry x3 terms; the points lie off
    # the sphere, where the representative itself is what gets evaluated
    rng = np.random.default_rng(100 + seed)
    coeffs = {}
    for _ in range(25):
        e = tuple(int(k) for k in rng.multinomial(int(rng.integers(0, 7)), [0.25] * 4))
        coeffs[e] = float(rng.uniform(-3.0, 3.0))
    f = PolyScalar(coeffs)
    assert any(e[3] for e in f.coeffs)
    pts = rng.uniform(-1.5, 1.5, size=(40, 4))
    vals = f(pts)
    assert vals.shape == (40,)
    for x, v in zip(pts, vals):
        # relative to the sum of |term|, the scale of the rounding error
        scale = float(sum(abs(Fraction(c)) * np.prod(np.abs(x) ** np.array(e))
                          for e, c in f.coeffs.items()))
        assert abs(Fraction(float(v)) - exact_value(f, x)) <= 1e-12 * scale
    assert f(pts[0]) == pytest.approx(float(exact_value(f, pts[0])), rel=1e-12, abs=1e-12)


def test_coframe_evaluate_stacks_component_values():
    rng = np.random.default_rng(7)
    eta = CoframeField(tuple(random_poly(rng, degree=4) for _ in range(3)))
    pts = rng.standard_normal((3, 5, 4))
    vals = eta.evaluate(pts)
    assert vals.shape == (3, 5, 3)
    for m in range(3):
        assert_allclose(vals[..., m], eta.alpha[m](pts), rtol=1e-14, atol=1e-14)
    assert_allclose(CoframeField.zero().evaluate(pts), 0.0)
