import json
from math import log

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sdforms.evolution import (
    ModeExpansion,
    decompose_initial,
    div_residual,
    dump_initial_field,
    evolve_ode,
    load_initial_field,
    propagate,
)
from sdforms.polys import (
    CoframeField,
    PolyScalar,
    gradient_coframe,
    left_invariant_coframe,
    make_basis,
    operator_matrix,
    right_invariant_coframe,
    sphere_integral,
    star_d,
)
from sdforms.spectrum import eigenmodes


@pytest.fixture(scope="module")
def modes_d2():
    return eigenmodes(2)


def coefficients(eta):
    """(degree, coefficient vector) of a field: the arguments the evolution takes."""
    return eta.degree, make_basis(eta.degree).coframe_to_vector(eta)


def energy(D, c):
    """Squared L^2 norm of the field with coefficient vector c, on the dict route."""
    return sphere_integral(make_basis(D).coframe_from_vector(c).norm_sq_poly())


def distance(D, a, b):
    """L^2 distance of two coefficient vectors, on the dict route."""
    return float(np.sqrt(max(energy(D, a - b), 0.0)))


# --------------------------------------------------------------- decompose

def test_decompose_left_invariant():
    exp = decompose_initial(*coefficients(left_invariant_coframe(1)))
    assert exp.residual <= 1e-10
    assert exp.lam.tolist() == [2]


def test_decompose_mixed_invariant():
    eta0 = left_invariant_coframe(1) + right_invariant_coframe(1)
    D, c0 = coefficients(eta0)
    exp = decompose_initial(D, c0)
    assert exp.residual <= 1e-10
    assert sorted(exp.lam.tolist()) == [-2, 2, 3, 4]
    parts = dict(zip(exp.lam.tolist(), map(make_basis(D).coframe_from_vector, exp.V.T)))
    assert {lam for lam, field in parts.items() if field.l2_norm() > 1e-13} == {2, -2}
    # the two eigenspace components are the two invariant fields, mutually
    # L^2-orthogonal
    from sdforms.polys import coframe_inner

    assert (parts[2] - left_invariant_coframe(1)).l2_norm() <= 1e-12
    assert (parts[-2] - right_invariant_coframe(1)).l2_norm() <= 1e-12
    assert abs(coframe_inner(parts[2], parts[-2])) <= 1e-12


def test_decompose_rejects_gradient():
    df = gradient_coframe(PolyScalar.coordinate(0))
    with pytest.raises(ValueError, match="divergence-free"):
        decompose_initial(*coefficients(df))


# --------------------------------------------------------------- propagate

def test_propagate_identity_at_t0():
    D, c0 = coefficients(left_invariant_coframe(1) + 0.5 * right_invariant_coframe(2))
    exp = decompose_initial(D, c0)
    assert distance(D, propagate(exp, 1.0), c0) <= 1e-10


def test_propagate_stationary_kahler_mode():
    D, c0 = coefficients(left_invariant_coframe(1))
    exp = decompose_initial(D, c0)
    for t in (0.5, 2.0, 7.3):
        assert distance(D, propagate(exp, t), c0) <= 1e-10


def test_propagate_minus_two_scaling():
    D, c0 = coefficients(right_invariant_coframe(1))
    exp = decompose_initial(D, c0)
    out = propagate(exp, 2.0)
    assert distance(D, out, (2.0 ** -4) * c0) <= 1e-10


def test_propagate_rejects_nonpositive_time():
    exp = decompose_initial(*coefficients(left_invariant_coframe(1)))
    with pytest.raises(ValueError):
        propagate(exp, 0.0)
    with pytest.raises(ValueError):
        propagate(exp, -1.0)


def test_per_mode_energy_scaling():
    # ||eta_lambda(t)||^2 = t^(2 lambda - 4) ||eta_lambda||^2 for each
    # eigencomponent of fields with every eigenvalue of their degree, and
    # the components are L^2-orthogonal, so the energies add
    for D in (3, 4):
        basis = make_basis(D)
        rng = np.random.default_rng(40 + D)
        exp = decompose_initial(*coefficients(star_d(basis.coframe_from_vector(
            rng.standard_normal(3 * basis.dim)))))
        assert sorted(exp.lam.tolist()) == [*range(-D, -1), *range(2, D + 3)]
        for t in (0.5, 1.5):
            energies = []
            for j, lam in enumerate(exp.lam):
                part = ModeExpansion(D, exp.lam[j:j + 1], exp.V[:, j:j + 1])
                e0 = energy(D, propagate(part, 1.0))
                energies.append(energy(D, propagate(part, t)))
                assert e0 > 1e-3
                assert_allclose(energies[-1], t ** (2 * lam - 4) * e0, rtol=1e-9)
            assert_allclose(energy(D, propagate(exp, t)), sum(energies),
                            rtol=1e-9)


# --------------------------------------------------------------- evolve_ode

def test_evolve_stationary_field():
    D, c1 = coefficients(left_invariant_coframe(1))
    out = evolve_ode(D, c1, 0.0, 1.0, steps=50)
    assert distance(D, out, c1) <= 1e-12


def test_evolve_minus_two_exact_solution():
    # over u in [0, log 2] the right-invariant field scales by 2^-4 = 1/16
    D, phi = coefficients(right_invariant_coframe(1))
    errors = []
    for steps in (8, 16, 32):
        out = evolve_ode(D, phi, 0.0, log(2.0), steps=steps)
        errors.append(distance(D, out, (1.0 / 16.0) * phi))
    # classical fourth order: halving the step shrinks the error ~16x
    assert errors[0] / errors[1] > 12
    assert errors[1] / errors[2] > 12


def test_evolve_agrees_with_propagate(modes_d2):
    rng = np.random.default_rng(12)
    coeffs = rng.standard_normal(len(modes_d2.lam))
    eta0 = CoframeField.zero()
    for i, c in enumerate(coeffs):
        eta0 = eta0 + float(c) * modes_d2.field(i)
    D, c0 = coefficients(eta0)
    exp = decompose_initial(D, c0)
    u1 = 0.4
    exact = propagate(exp, float(np.exp(u1)))
    errors = [distance(D, evolve_ode(D, c0, 0.0, u1, steps=s), exact)
              for s in (20, 40)]
    assert errors[0] <= 1e-6
    assert errors[0] / errors[1] > 12   # 4th-order convergence


def dense_rk4(D, y, u0, u1, steps):
    """The dense route RK4 replaced: every stage a product with the 3N x 3N curl."""
    C = operator_matrix("curl", D)
    h = (u1 - u0) / steps
    for _ in range(steps):
        k1 = C @ y
        k2 = C @ (y + 0.5 * h * k1)
        k3 = C @ (y + 0.5 * h * k2)
        k4 = C @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


@pytest.mark.parametrize("D", range(2, 7))
def test_sparse_rk4_matches_dense_curl(D):
    basis = make_basis(D)
    rng = np.random.default_rng(D)
    eta0 = star_d(basis.coframe_from_vector(rng.standard_normal(3 * basis.dim)))
    assert eta0.degree == D
    c0 = basis.coframe_to_vector(eta0)
    expected = dense_rk4(D, c0, 0.0, log(2.0), 30)
    got = evolve_ode(D, c0, 0.0, log(2.0), 30)
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


def test_divergence_preserved_along_flow():
    D, phi = coefficients(right_invariant_coframe(3))
    out = evolve_ode(D, phi, 0.0, 1.0, steps=100)
    assert div_residual(D, out) <= 1e-8


def test_evolve_rejects_bad_input():
    with pytest.raises(ValueError):
        evolve_ode(*coefficients(gradient_coframe(PolyScalar.coordinate(1))), 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        evolve_ode(*coefficients(left_invariant_coframe(1)), 0.0, 1.0, steps=0)


# --------------------------------------------------------------- wire format

def test_initial_field_roundtrip(tmp_path):
    eta = left_invariant_coframe(1) + 2.5 * right_invariant_coframe(2)
    path = tmp_path / "init.json"
    dump_initial_field(eta, path)
    loaded = load_initial_field(str(path))
    assert (loaded - eta).l2_norm() <= 1e-14
    # the file is a plain list of monomial/axis/coefficient records
    records = json.loads(path.read_text())
    assert {"monomial", "axis", "coefficient"} == set(records[0])


def test_initial_field_schema_validation():
    with pytest.raises(ValueError):
        load_initial_field([{"monomial": [0, 0, 0], "axis": 1, "coefficient": 1.0}])
    with pytest.raises(ValueError):
        load_initial_field([{"monomial": [0, 0, 0, 0], "axis": 4, "coefficient": 1.0}])


GOOD_RECORD = {"monomial": [0, 1, 0, 0], "axis": 2, "coefficient": 1.0}


@pytest.mark.parametrize("records, message", [
    ({"monomial": [1, 0, 0, 0], "axis": 1, "coefficient": 1.0},
     "initial data: the top level must be a list of records, not a dict"),
    ([GOOD_RECORD, [1]], "initial data: record 1 is [1], not an object"),
    ([GOOD_RECORD, {"axis": 1}], "initial data: record 1 has no monomial or coefficient"),
    ([GOOD_RECORD, {**GOOD_RECORD, "monomial": [1, 0, 0]}],
     "initial data: record 1: bad monomial multi-index"),
    ([GOOD_RECORD, {**GOOD_RECORD, "monomial": [1, 0, 0, -1]}],
     "initial data: record 1: bad monomial multi-index"),
    ([GOOD_RECORD, {**GOOD_RECORD, "monomial": [1.5, 0, 0, 0]}],
     "initial data: record 1: bad monomial multi-index"),
    ([GOOD_RECORD, {**GOOD_RECORD, "axis": True}],
     "initial data: record 1: frame axis must be 1, 2 or 3, got True"),
    ([GOOD_RECORD, {**GOOD_RECORD, "coefficient": None}],
     "initial data: record 1: coefficient None is not a number"),
])
def test_load_names_the_malformed_record(records, message):
    with pytest.raises(ValueError) as exc:
        load_initial_field(records)
    assert str(exc.value).startswith(message)


def test_load_sums_records_like_polyscalars():
    # repeated monomials, x3^2 and x3^3 records that reduce onto other
    # records' monomials, a record cancelling another and a zero coefficient
    records = [
        {"monomial": [2, 0, 0, 0], "axis": 1, "coefficient": 0.1},
        {"monomial": [0, 0, 0, 2], "axis": 1, "coefficient": 0.7},
        {"monomial": [2, 0, 0, 0], "axis": 1, "coefficient": 0.2},
        {"monomial": [0, 0, 0, 0], "axis": 1, "coefficient": -0.3},
        {"monomial": [1, 0, 0, 3], "axis": 2, "coefficient": 1.3},
        {"monomial": [3, 0, 0, 1], "axis": 2, "coefficient": 1.3},
        {"monomial": [1, 2, 0, 1], "axis": 2, "coefficient": 0.9},
        {"monomial": [0, 1, 1, 0], "axis": 3, "coefficient": 2.5},
        {"monomial": [0, 1, 1, 0], "axis": 3, "coefficient": -2.5},
        {"monomial": [0, 0, 1, 0], "axis": 3, "coefficient": 0.0},
        {"monomial": [0, 0, 0, 4], "axis": 3, "coefficient": 0.6},
    ]
    comps = [PolyScalar.zero() for _ in range(3)]
    for rec in records:
        comps[rec["axis"] - 1] = comps[rec["axis"] - 1] + PolyScalar(
            {tuple(rec["monomial"]): rec["coefficient"]})
    loaded = load_initial_field(records)
    assert [a.coeffs for a in loaded.alpha] == [a.coeffs for a in comps]
    assert (0, 1, 1, 0) not in loaded.alpha[2].coeffs


@pytest.mark.parametrize("coefficient", [float("nan"), float("inf"), -float("inf"), 1e300])
def test_load_rejects_unusable_coefficients(coefficient):
    # the first record is fine, the second is named
    records = [{"monomial": [0, 1, 0, 0], "axis": 2, "coefficient": 1.0},
               {"monomial": [1, 0, 0, 0], "axis": 1, "coefficient": coefficient}]
    with pytest.raises(ValueError, match=r"initial data: record 1 \(monomial \[1, 0, 0, 0\], "
                                         r"axis 1\) has coefficient"):
        load_initial_field(records)


@pytest.mark.parametrize("records", [
    [],
    [{"monomial": [1, 0, 0, 0], "axis": 1, "coefficient": 2.0},
     {"monomial": [1, 0, 0, 0], "axis": 1, "coefficient": -2.0}],
    # x3^2 reduces to 1 - x0^2 - x1^2 - x2^2 and cancels the rest
    [{"monomial": [0, 0, 0, 2], "axis": 3, "coefficient": 1.0},
     {"monomial": [0, 0, 0, 0], "axis": 3, "coefficient": -1.0},
     *({"monomial": e, "axis": 3, "coefficient": 1.0}
       for e in ([2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0]))],
])
def test_load_rejects_the_zero_field(records):
    with pytest.raises(ValueError, match="sum to the zero field"):
        load_initial_field(records)


def test_nan_field_fails_the_divergence_guards():
    # NaN compares false with everything: the guards must not read it as small
    nan = CoframeField((PolyScalar({(1, 0, 0, 0): float("nan")}), PolyScalar.zero(),
                        PolyScalar.zero()))
    with pytest.raises(ValueError, match="not divergence-free"):
        evolve_ode(*coefficients(nan), 0.0, 1.0, 4)
    with pytest.raises(ValueError, match="not divergence-free"):
        decompose_initial(*coefficients(nan))
