import numpy as np
import pytest
from numpy.testing import assert_allclose

from sdforms import selfdual
from sdforms.evolution import decompose_initial
from sdforms.polys import (
    CoframeField,
    left_invariant_coframe,
    make_basis,
    right_invariant_coframe,
)
from sdforms.quadrature import radial_gauss
from sdforms.regularity import sqrt_elliptic_check
from sdforms.selfdual import (
    SelfDualForm,
    _covector,
    _norm,
    _radial_split,
    _self_dual,
    d_residual,
    harmonic_residual,
    in_blocks,
    kato_ratio,
    l2_shell_orthogonality,
    star_two_form,
    wedge_norm_sq,
)
from sdforms.spectrum import eigenmodes


def tangent_covector(field, x):
    """Value of t * eta at x as a Cartesian covector, eta with components field.

    The coframe eta^m extends off the unit sphere by (L_m x)^flat / t^2, so
    t * eta^m has components (L_m x) / t and the result is orthogonal to x;
    x has shape (..., 4).
    """
    n, _ = _radial_split(x)
    a = np.moveaxis(field.evaluate(np.moveaxis(n, 0, -1)), -1, 0)
    return np.moveaxis(_covector(a, n), 0, -1)


def expansion_form(eta0):
    """The form of eta0's *d eigencomponents: one term per eigenvalue."""
    D = eta0.degree
    basis = make_basis(D)
    exp = decompose_initial(D, basis.coframe_to_vector(eta0))
    return SelfDualForm([(1.0, lam, basis.coframe_from_vector(v))
                         for lam, v in zip(exp.lam.tolist(), exp.V.T)])


def f_t_map(M, x):
    """Contraction sqrt(2) i_n omega of 2-form values M (..., 4, 4) at x, n = x/|x|."""
    n, _ = _radial_split(x)
    return np.sqrt(2.0) * np.einsum("i...,...ij->...j", n, M)


def f_t_inverse(xi, x):
    """The unique self-dual 2-form at x contracting to the tangent covector xi."""
    n, _ = _radial_split(x)
    M = _self_dual(n, np.moveaxis(np.asarray(xi, dtype=float), -1, 0))
    return np.moveaxis(M, (0, 1), (-2, -1))


def ball_orthogonality(modes, i, j, radius, n_nodes=64):
    """Ball integral of omega_i ^ omega_j by radial quadrature of shell values."""
    if radius <= 0:
        raise ValueError(f"ball radius must be positive, got {radius}")
    ts, ws = radial_gauss(radius * 1e-6, radius, n_nodes)
    return float(sum(w * l2_shell_orthogonality(modes, i, j, t)
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
    with open(path, "w") as fh:
        fh.write(text)
    return text


@pytest.fixture(scope="module")
def modes_d2():
    return eigenmodes(2)


def by_eigenvalue(modes):
    """The indices of the modes of each integer eigenvalue, in order."""
    by_lam = {}
    for i, lam in enumerate(modes.lam_int.tolist()):
        by_lam.setdefault(lam, []).append(i)
    return by_lam


def random_points(n, seed=0, lo=0.3, hi=2.5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x * rng.uniform(lo, hi, size=(n, 1))


def minus_two_form(coefficient=1.0):
    """The closed form t^-4 * F^{-1}(t phi^1), pointwise norm t^-4."""
    return SelfDualForm([(coefficient, -2, right_invariant_coframe(1))])


# ----------------------------------------------------------------- 2-form algebra

def test_star_two_form_is_involution():
    rng = np.random.default_rng(1)
    for _ in range(10):
        A = rng.standard_normal((4, 4))
        M = A - A.T
        assert_allclose(star_two_form(star_two_form(M)), M, atol=1e-14)


def test_wedge_norm_on_selfdual_equals_component_sum():
    rng = np.random.default_rng(2)
    for _ in range(10):
        A = rng.standard_normal((4, 4))
        M = A - A.T
        SD = (M + star_two_form(M)) / 2
        comp = sum(SD[a, b] ** 2 for a in range(4) for b in range(a + 1, 4))
        assert_allclose(wedge_norm_sq(SD), comp, atol=1e-12)


def test_two_form_maps_on_stacks():
    # stacked inputs give the stacked one-point values
    rng = np.random.default_rng(20)
    A = rng.standard_normal((2, 5, 4, 4))
    M = A - np.swapaxes(A, -1, -2)
    x = random_points(10, seed=21).reshape(2, 5, 4)
    xi = rng.standard_normal((2, 5, 4))
    star, wedge = star_two_form(M), wedge_norm_sq(M)
    inv, fwd = f_t_inverse(xi, x), f_t_map(M, x)
    assert star.shape == inv.shape == (2, 5, 4, 4)
    assert wedge.shape == (2, 5) and fwd.shape == (2, 5, 4)
    for i in range(2):
        for k in range(5):
            assert_allclose(star[i, k], star_two_form(M[i, k]), rtol=0, atol=1e-14)
            assert_allclose(wedge[i, k], wedge_norm_sq(M[i, k]), rtol=0, atol=1e-14)
            assert_allclose(inv[i, k], f_t_inverse(xi[i, k], x[i, k]), rtol=0, atol=1e-14)
            assert_allclose(fwd[i, k], f_t_map(M[i, k], x[i, k]), rtol=0, atol=1e-14)


def dense_f_inverse():
    """F^{-1} as a 16x16 matrix on flattened n (x) xi: (A + *A) / sqrt(2), A = n ^ xi."""
    transpose = np.eye(16).reshape(4, 4, 16).swapaxes(0, 1).reshape(16, 16)
    return (np.eye(16) + selfdual._STAR) @ (np.eye(16) - transpose) / np.sqrt(2.0)


def test_self_dual_matches_dense_f_inverse_oracle():
    rng = np.random.default_rng(33)
    n = rng.standard_normal((4, 200))
    n /= np.linalg.norm(n, axis=0)
    xi = rng.standard_normal((4, 200))
    M = selfdual._self_dual(n, xi)
    dense = (dense_f_inverse() @ (n[:, None] * xi[None]).reshape(16, -1)).reshape(4, 4, -1)
    assert_allclose(M, dense, rtol=0, atol=1e-15 * np.max(np.abs(dense)))
    M = np.moveaxis(M, -1, 0)
    assert np.array_equal(star_two_form(M), M)
    assert np.array_equal(M, -M.swapaxes(-1, -2))


def test_star_two_form_matches_index_definition():
    rng = np.random.default_rng(22)
    A = rng.standard_normal((4, 4))
    M = A - A.T
    expected = np.zeros((4, 4))
    for (a, b), (c, d, sign) in {(0, 1): (2, 3, 1), (0, 2): (1, 3, -1),
                                 (0, 3): (1, 2, 1), (1, 2): (0, 3, 1),
                                 (1, 3): (0, 2, -1), (2, 3): (0, 1, 1)}.items():
        expected[a, b] = sign * M[c, d]
        expected[b, a] = -expected[a, b]
    assert_allclose(star_two_form(M), expected, rtol=0, atol=0)


# ----------------------------------------------------------------- Kahler basis

def test_kahler_basis_unit_norm_everywhere():
    for x in random_points(100, seed=3):
        for axis in (1, 2, 3):
            assert_allclose(wedge_norm_sq(SelfDualForm.kahler(axis)(x)), 1.0,
                            atol=1e-12)


def test_kahler_basis_value_at_identity():
    M = SelfDualForm.kahler(1)(np.array([1.0, 0, 0, 0]))
    s = 1 / np.sqrt(2)
    assert_allclose(M[0, 1], s, atol=1e-14)
    assert_allclose(M[2, 3], s, atol=1e-14)
    assert_allclose(M + M.T, 0.0, atol=1e-14)


def test_kahler_basis_constant_over_space():
    ref = [SelfDualForm.kahler(axis)(np.array([1.0, 0, 0, 0])) for axis in (1, 2, 3)]
    for x in random_points(50, seed=4):
        for axis in (1, 2, 3):
            assert_allclose(SelfDualForm.kahler(axis)(x), ref[axis - 1], atol=1e-12)


def test_kahler_basis_self_dual():
    for x in random_points(20, seed=5):
        M = SelfDualForm.kahler(2)(x)
        assert_allclose(star_two_form(M), M, atol=1e-13)


def test_kahler_basis_rejects_origin():
    with pytest.raises(ValueError):
        SelfDualForm.kahler(1)(np.zeros(4))


# ----------------------------------------------------------------- F_t maps

def test_f_t_maps_are_mutually_inverse():
    rng = np.random.default_rng(6)
    for x in random_points(20, seed=7):
        xi = rng.standard_normal(4)
        xi -= (xi @ x) * x / (x @ x)  # tangent covector
        M = f_t_inverse(xi, x)
        assert_allclose(f_t_map(M, x), xi, atol=1e-12)
        assert_allclose(f_t_inverse(f_t_map(M, x), x), M, atol=1e-12)


def test_f_t_norm_preserving():
    rng = np.random.default_rng(8)
    for x in random_points(20, seed=9):
        xi = rng.standard_normal(4)
        xi -= (xi @ x) * x / (x @ x)
        M = f_t_inverse(xi, x)
        assert_allclose(wedge_norm_sq(M), xi @ xi, atol=1e-12)


def test_f_t_of_kahler_is_invariant_coframe():
    for x in random_points(10, seed=10):
        M = SelfDualForm.kahler(1)(x)
        expected = tangent_covector(left_invariant_coframe(1), x)
        assert_allclose(f_t_map(M, x), expected, atol=1e-12)


# ----------------------------------------------------------------- series forms

def test_series_constant_kahler():
    sdf = SelfDualForm.kahler(1)
    for x in random_points(30, seed=11):
        assert_allclose(sdf.norm(x), 1.0, atol=1e-12)
        M = sdf(x)
        assert np.max(np.abs(star_two_form(M) - M)) <= 1e-12


def test_series_minus_two_norm_decay():
    sdf = minus_two_form()
    for x in random_points(30, seed=12):
        t = np.linalg.norm(x)
        assert_allclose(sdf.norm(x), t ** -4, rtol=1e-10)
        M = sdf(x)
        assert np.max(np.abs(star_two_form(M) - M)) <= 1e-10 * max(1.0, t ** -4)


def test_series_empty_is_zero():
    sdf = SelfDualForm([])
    assert_allclose(sdf(np.array([0.7, 0.1, -0.3, 0.2])), 0.0)


def test_series_rejects_origin():
    with pytest.raises(ValueError):
        minus_two_form()(np.zeros(4))


def test_series_from_mode_expansion():
    eta0 = left_invariant_coframe(1) + right_invariant_coframe(1)
    sdf = expansion_form(eta0)
    # at |x| = 1 the form contracts back to the initial field
    for x in random_points(10, seed=13, lo=1.0, hi=1.0):
        xi = f_t_map(sdf(x), x)
        assert_allclose(xi, tangent_covector(eta0, x), atol=1e-10)


def test_series_batch_matches_one_point_values():
    # the three forms of `verify kato` and a degree-3 mode expansion
    from sdforms.ale import AKFormParams, ak_form

    modes_d3 = eigenmodes(3)
    rng = np.random.default_rng(30)
    eta0 = CoframeField.zero()
    first = {lam: i[0] for lam, i in by_eigenvalue(modes_d3).items()}
    for lam in (-3, -2, 3, 4, 5):
        eta0 = eta0 + modes_d3.field(first[lam]) * float(rng.uniform(0.5, 1.5))
    forms = {
        "ak_mixed": ak_form(AKFormParams(1.0, 1.0, 0.2)),
        "pure_minus_two": minus_two_form(),
        "kahler_plus_decaying": SelfDualForm([(0.5, 2, left_invariant_coframe(1)),
                                              (1.5, -2, right_invariant_coframe(2))]),
        "expansion_d3": expansion_form(eta0),
    }
    pts = random_points(24, seed=31).reshape(2, 3, 4, 4)
    for name, sdf in forms.items():
        M, norms = sdf(pts), sdf.norm(pts)
        assert M.shape == (2, 3, 4, 4, 4) and norms.shape == (2, 3, 4), name
        for idx in np.ndindex(2, 3, 4):
            single = sdf(pts[idx])
            scale = max(1.0, float(np.max(np.abs(single))))
            assert_allclose(M[idx], single, rtol=0, atol=1e-14 * scale, err_msg=name)
            assert isinstance(sdf.norm(pts[idx]), float)
            assert_allclose(norms[idx], sdf.norm(pts[idx]), rtol=1e-14, atol=1e-14,
                            err_msg=name)
    # the polynomial evaluators share the series' contraction
    # (polys.evaluate_monomials): a batch gives the one-point values bit for bit
    for field in (field for sdf in forms.values() for _, _, field in sdf.terms):
        values = field.evaluate(pts)
        components = [a(pts) for a in field.alpha]
        for idx in np.ndindex(2, 3, 4):
            assert values[idx].tobytes() == field.evaluate(pts[idx]).tobytes()
            for a, batch in zip(field.alpha, components):
                assert np.float64(batch[idx]).tobytes() == np.float64(a(pts[idx])).tobytes()


def dense_table_series(sdf, x):
    """The series evaluator with the dense monomial contraction (oracle).

    Every row of the monomial table is added, zeros included, in the order
    of the rows; the evaluator adds only the nonzero entries.
    """
    from sdforms.polys import monomial_values

    n, t = selfdual._radial_split(x.reshape(-1, 4))
    E, C, c, lam = sdf._compiled
    A = np.zeros((C.shape[1], t.size))
    for coefficients, values in zip(C, monomial_values(E, n)):
        A += coefficients[:, None] * values
    a = np.zeros((3, t.size))
    for j in range(len(c)):
        a += (c[j] * t ** (lam[j] - 2.0)) * A[3 * j:3 * j + 3]
    M = selfdual._self_dual(n, selfdual._covector(a, n))
    return M.transpose(2, 0, 1).reshape(x.shape[:-1] + (4, 4))


def test_series_sums_table_nonzeros_like_dense_contraction():
    from sdforms.ale import AKFormParams, ak_form

    modes_d3 = eigenmodes(3)
    rng = np.random.default_rng(32)
    eta0 = CoframeField.zero()
    for i in range(0, len(modes_d3.lam), 3):
        eta0 = eta0 + modes_d3.field(i) * float(rng.uniform(0.5, 1.5))
    pts = random_points(300, seed=33).reshape(3, 100, 4)
    for sdf in (ak_form(AKFormParams(1.0, 1.0, 0.2)),
                expansion_form(eta0)):
        E, C, c, lam = sdf._compiled
        assert 0 < np.count_nonzero(C) < C.size
        np.testing.assert_array_equal(sdf(pts), dense_table_series(sdf, pts))


# ----------------------------------------------------------------- closedness

def test_d_residual_constant_form():
    sdf = SelfDualForm.kahler(1)
    x = np.array([0.9, -0.2, 0.4, 0.1])
    value, accepted = d_residual(sdf, x, 1e-3)
    assert accepted and value <= 1e-12


def test_d_residual_minus_two_small():
    sdf = minus_two_form()
    x = np.array([0.5, 0.5, 0.5, 0.5])  # on the unit sphere
    value, accepted = d_residual(sdf, x, 1e-3)
    assert accepted and value <= 1e-5


def test_d_residual_second_order(modes_d2):
    # h-halving shrinks the residual ~4x wherever it is above rounding noise
    modes_d3 = eigenmodes(3)
    lam_m3 = modes_d3.field(by_eigenvalue(modes_d3)[-3][0])
    forms = [
        minus_two_form(),
        SelfDualForm([(0.7, 2, left_invariant_coframe(2)),
                      (1.3, -2, right_invariant_coframe(1))]),
        SelfDualForm([(1.0, -3, lam_m3)]),
    ]
    x = np.array([0.8, 0.4, -0.3, 0.9])
    for sdf in forms:
        # a rejected point's NaN fails every comparison below
        r = [d_residual(sdf, x, h)[0] for h in (1e-2, 5e-3, 2.5e-3)]
        assert 3.5 <= r[0] / r[1] <= 4.5
        assert 3.5 <= r[1] / r[2] <= 4.5


def test_d_residual_polynomial_modes_exact(modes_d2):
    # positive-eigenvalue modes give polynomial component matrices of degree
    # lambda - 2, for which the central stencil is exact: the residual sits
    # at rounding level for every h instead of decaying like h^2
    lam3 = modes_d2.field(by_eigenvalue(modes_d2)[3][0])
    sdf = SelfDualForm([(1.0, 3, lam3)])
    x = np.array([0.8, 0.4, -0.3, 0.9])
    for h in (1e-2, 5e-3, 2.5e-3):
        value, accepted = d_residual(sdf, x, h)
        assert accepted and value <= 1e-12


def test_d_residual_wrong_exponent_detected():
    # negative control: t^(lambda-1) instead of t^(lambda-2) is not closed
    broken = SelfDualForm([(1.0, -1, right_invariant_coframe(1))])
    x = np.array([1.0, 0, 0, 0])
    value, accepted = d_residual(broken, x, 1e-3)
    assert accepted and value > 0.1


def test_d_residual_stencil_guard():
    # the stencil of radius 2h reaches the origin: rejected, not evaluated
    value, accepted = d_residual(minus_two_form(), np.array([1e-3, 0, 0, 0]), 1e-3)
    assert not accepted and np.isnan(value)


# ----------------------------------------------------------------- harmonicity

def test_harmonic_residual_constant_form():
    x = np.array([0.5, 0.5, -0.5, 0.5])
    value, accepted = harmonic_residual(SelfDualForm.kahler(3), x, 1e-3)
    assert accepted and value <= 1e-9


def test_harmonic_residual_minus_two():
    x = np.array([1.0, 0, 0, 0])
    value, accepted = harmonic_residual(minus_two_form(), x, 1e-3)
    assert accepted and value <= 1e-3
    # O(h^2): quartering h shrinks the residual ~16x, confirming the
    # residual is pure stencil error around an exactly harmonic form
    r1 = harmonic_residual(minus_two_form(), x, 4e-3)[0]
    assert 12 <= r1 / value <= 20


def test_harmonic_residual_negative_control():
    broken = SelfDualForm([(1.0, 0, right_invariant_coframe(1))])
    x = np.array([1.0, 0, 0, 0])
    value, accepted = harmonic_residual(broken, x, 1e-3)
    assert accepted and value > 0.5


# ----------------------------------------------------------------- Kato

def test_kato_ratio_bound_on_mixed_form():
    sdf = SelfDualForm([(0.8, 2, left_invariant_coframe(2)),
                        (1.2, -2, right_invariant_coframe(1))])
    ratios, accepted = kato_ratio(sdf, random_points(500, seed=14), 1e-4)
    assert accepted.all()
    # NaN where the ratio is undefined
    assert np.all(ratios[~np.isnan(ratios)] <= 2.0 / 3.0 + 1e-6)


def test_kato_ratio_constant_form_signals_none():
    # undefined, not rejected: an accepted point with a NaN ratio
    x = np.array([1.0, 0.2, 0.3, -0.1])
    ratio, accepted = kato_ratio(SelfDualForm.kahler(1), x, 1e-3)
    assert accepted and np.isnan(ratio)


def test_kato_ratio_pure_minus_two_saturates():
    # |omega|^(1/2) = t^-2 is harmonic: the sharpened inequality is equality
    sdf = minus_two_form()
    r, accepted = kato_ratio(sdf, random_points(50, seed=15), 1e-5)
    assert accepted.all()
    assert np.all(r <= 2.0 / 3.0 + 1e-6)
    assert np.all(r >= 2.0 / 3.0 - 1e-5)


def test_kato_ratio_rejects_vanishing_norm():
    # alpha omega^2 - alpha omega^2 == 0 identically
    zero = SelfDualForm([(1.0, 2, left_invariant_coframe(2)),
                         (-1.0, 2, left_invariant_coframe(2))])
    ratio, accepted = kato_ratio(zero, np.array([1.0, 0, 0, 0]), 1e-3)
    assert not accepted and np.isnan(ratio)


# ----------------------------------------------------------------- batched stencil checks

def batch_test_forms():
    from sdforms.ale import AKFormParams, ak_form

    return {
        "ak_mixed": ak_form(AKFormParams(1.0, 1.0, 0.2)),
        "kahler_plus_decaying": SelfDualForm([(0.5, 2, left_invariant_coframe(1)),
                                              (1.5, -2, right_invariant_coframe(2))]),
        "constant": SelfDualForm.kahler(3),       # ratio undefined everywhere
        "zero": SelfDualForm([(1.0, 2, left_invariant_coframe(2)),
                              (-1.0, 2, left_invariant_coframe(2))]),   # rejected everywhere
    }


@pytest.mark.parametrize("check", [kato_ratio, sqrt_elliptic_check, d_residual,
                                   harmonic_residual])
def test_batched_check_equals_point_loop_bit_for_bit(check):
    # a batch is the check applied to each point alone, value and mask bit for
    # bit; a point whose stencil reaches the origin is rejected with a NaN value
    h = 1e-4
    near_origin = np.array([[1.5e-4, 0.0, 0.0, 0.0], [0.0, -1e-4, 1e-4, 0.0]])
    pts = np.concatenate([random_points(40, seed=32), near_origin]).reshape(2, 21, 4)
    outcomes = set()
    for name, sdf in batch_test_forms().items():
        values, accepted = check(sdf, pts, h)
        assert values.shape == accepted.shape == (2, 21), name
        assert not accepted[1, -2:].any(), name
        for idx in np.ndindex(2, 21):
            value, ok = check(sdf, pts[idx], h)
            assert np.shape(value) == np.shape(ok) == (), name
            assert value.tobytes() == values[idx].tobytes() and ok == accepted[idx], name
            outcomes.add("value" if not np.isnan(value) else "undefined" if ok else "rejected")
    expected = {"rejected", "value"} | ({"undefined"} if check is kato_ratio else set())
    assert outcomes == expected


IN_BLOCKS_SIZE = 7


@pytest.mark.parametrize("rows", [0, 1, IN_BLOCKS_SIZE, IN_BLOCKS_SIZE + 1,
                                  3 * IN_BLOCKS_SIZE + 5])
@pytest.mark.parametrize("pair", [False, True], ids=["array", "tuple"])
def test_in_blocks_equals_one_call(rows, pair):
    # the joined blocks are one unblocked call bit for bit, no call sees more
    # than size rows, and no rows give the empty output's shape
    x = random_points(rows, seed=rows)
    w = np.linspace(0.5, 2.0, rows)
    seen = []

    def fn(x, w):
        seen.append(len(x))
        y = np.exp(x) * w[:, None]
        return (y, np.linalg.norm(x, axis=1) > 1.0) if pair else y

    whole = fn(x, w)
    seen.clear()
    blocked = in_blocks(fn, IN_BLOCKS_SIZE, x, w)
    assert seen and max(seen) <= IN_BLOCKS_SIZE and sum(seen) == rows
    if not pair:
        blocked, whole = (blocked,), (whole,)
    for got, want in zip(blocked, whole):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------- orthogonality

def test_shell_orthogonality_distinct_lambda(modes_d2):
    by_lam = by_eigenvalue(modes_d2)
    pairs = [(by_lam[2][0], by_lam[-2][0]),
             (by_lam[2][0], by_lam[3][0]),
             (by_lam[-2][1], by_lam[4][0])]
    for i, j in pairs:
        for t in (0.5, 1.0, 2.0):
            assert abs(l2_shell_orthogonality(modes_d2, i, j, t)) <= 1e-10


def test_shell_self_pairing_positive(modes_d2):
    assert l2_shell_orthogonality(modes_d2, 0, 0, 1.0) > 0


def test_ball_orthogonality(modes_d2):
    by_lam = by_eigenvalue(modes_d2)
    assert abs(ball_orthogonality(modes_d2, by_lam[2][0], by_lam[-2][0], 2.0)) <= 1e-10
    assert abs(ball_orthogonality(modes_d2, by_lam[3][0], by_lam[4][0], 2.0)) <= 1e-10


# ----------------------------------------------------------------- dumps

def test_dump_point_samples(tmp_path):
    path = tmp_path / "samples.csv"
    pts = random_points(5, seed=16)
    text = dump_point_samples(minus_two_form(), pts, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("x0,x1,x2,x3,omega_01")
    assert len(lines) == 6
    assert text.startswith("x0,")
