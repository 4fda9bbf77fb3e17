"""The matrix route for eigenmodes against the dict-of-monomials route.

Pairings and shell pairings computed from the coefficient matrix of a
ModeSet, and the eigencomponents and propagated fields of an expansion,
must agree with the same quantities built from materialized CoframeFields
by polynomial products; the projector split of a field must agree with
its projections on the ModeSet's eigenspaces.
"""

from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sdforms.evolution import decompose_initial, gram_norm, propagate
from sdforms.polys import (
    CoframeField,
    PolyBasis,
    coframe_gram,
    coframe_inner,
    coframe_pairings,
    left_invariant_coframe,
    make_basis,
    right_invariant_coframe,
    sphere_integral,
    star_d,
)
from sdforms.selfdual import l2_shell_orthogonality, shell_pairings
from sdforms.spectrum import ModeSet, eigencomponents, eigenmodes

TOL = 1e-12


@pytest.fixture(scope="module")
def modes_d2():
    return eigenmodes(2)


@pytest.fixture(scope="module")
def modes_d3():
    return eigenmodes(3)


def l2_norm(field):
    return float(np.sqrt(max(sphere_integral(field.norm_sq_poly()), 0.0)))


def unit_field(D, seed):
    """A divergence-free degree-D field of unit L^2 norm (image of *d)."""
    basis = make_basis(D)
    rng = np.random.default_rng(seed)
    eta = star_d(basis.coframe_from_vector(rng.standard_normal(3 * basis.dim)))
    return (1.0 / eta.l2_norm()) * eta


def dict_components(eta0, modes):
    """The field's part in each eigenspace of the modes, by polynomial products."""
    parts = {}
    for i, lam in enumerate(modes.lam_int.tolist()):
        field = modes.field(i)
        part = float(coframe_inner(eta0, field)) * field
        parts[lam] = parts.get(lam, CoframeField.zero()) + part
    return parts


# ------------------------------------------------------------- columns

def test_modeset_fields_are_its_columns(modes_d2):
    assert isinstance(modes_d2, ModeSet)
    assert len(modes_d2.lam) == len(modes_d2.lam_int) == modes_d2.C.shape[1] == 29
    basis = make_basis(2)
    assert modes_d2.C.shape[0] == 3 * basis.dim
    assert list(modes_d2.lam_int) == sorted(modes_d2.lam_int)
    for i in (0, 28, -1):
        assert_allclose(basis.coframe_to_vector(modes_d2.field(i)), modes_d2.C[:, i],
                        rtol=0, atol=0)
    with pytest.raises(IndexError):
        modes_d2.field(29)


def test_modes_gram_orthonormal(modes_d3):
    assert_allclose(modes_d3.pairings(), np.eye(len(modes_d3.lam)), atol=1e-10)


def test_fields_materialized_lazily(monkeypatch):
    calls = []
    original = PolyBasis.coframe_from_vector

    def counting(self, v):
        calls.append(1)
        return original(self, v)

    monkeypatch.setattr(PolyBasis, "coframe_from_vector", counting)
    modes = eigenmodes(3)
    assert len(calls) == 0
    modes.field(5)
    assert len(calls) == 1


# ------------------------------------------------------------- pairings

def test_pairing_table_matches_coframe_inner_d2(modes_d2):
    P = modes_d2.pairings()
    lam = modes_d2.lam_int
    checked = 0
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            if lam[i] != lam[j]:
                dict_value = coframe_inner(modes_d2.field(i), modes_d2.field(j))
                assert abs(P[i, j] - dict_value) <= TOL
                checked += 1
    assert checked == 267


def test_pairing_table_matches_coframe_inner_d3_sample(modes_d3):
    P = modes_d3.pairings()
    lam = modes_d3.lam_int
    i, j = np.triu_indices(len(lam), k=1)
    distinct = lam[i] != lam[j]
    pairs = np.column_stack([i[distinct], j[distinct]])
    rng = np.random.default_rng(20240817)
    sample = pairs[rng.choice(len(pairs), size=120, replace=False)]
    for a, b in sample:
        dict_value = coframe_inner(modes_d3.field(a), modes_d3.field(b))
        assert abs(P[a, b] - dict_value) <= TOL


@pytest.mark.parametrize("D", [1, 3, 5])
def test_pairing_table_matches_coframe_gram(D):
    modes = eigenmodes(D)
    C = modes.C
    assert_allclose(modes.pairings(), C.T @ coframe_gram(D) @ C, rtol=0, atol=TOL)


@pytest.mark.parametrize("t", [0.5, 2.0])
def test_shell_pairings_match_pairwise_route(modes_d2, t):
    S = shell_pairings(modes_d2, t)
    rng = np.random.default_rng(7)
    for a, b in rng.integers(0, len(modes_d2.lam), size=(40, 2)):
        expected = l2_shell_orthogonality(modes_d2, a, b, t)
        assert abs(S[a, b] - expected) <= TOL * max(1.0, abs(expected))
    assert np.all(np.diag(S) > 0)
    with pytest.raises(ValueError):
        shell_pairings(modes_d2, 0.0)


# ------------------------------------------------------------- expansion

@pytest.mark.parametrize("eta0", [
    unit_field(2, 5),
    left_invariant_coframe(2) + 0.5 * right_invariant_coframe(3),
    CoframeField.constant((Fraction(1), 0, 0)),
], ids=["random_d2", "invariant_mix", "exact_ring"])
def test_decompose_matches_dict_route(modes_d2, eta0):
    # each eigencomponent is the field's projection on the modes of its
    # eigenvalue; eigenvalues without a component have none
    D = eta0.degree
    basis = make_basis(D)
    exp = decompose_initial(D, basis.coframe_to_vector(eta0))
    parts = dict(zip(exp.lam.tolist(), map(basis.coframe_from_vector, exp.V.T)))
    for lam, expected in dict_components(eta0, modes_d2).items():
        got = parts.pop(lam, CoframeField.zero())
        assert l2_norm(got - expected) <= TOL
    assert all(l2_norm(field) <= TOL for field in parts.values())
    assert exp.residual <= 1e-10


@pytest.mark.parametrize("D", range(7))
def test_eigencomponents_match_modeset_sums(D):
    # the projector split against the eigenbasis route: the component of
    # eigenvalue lambda is C_lambda C_lambda^T G c0, and the components at
    # 0 and -1 (no eigenvalue there) vanish
    basis = make_basis(D)
    rng = np.random.default_rng(60 + D)
    c0 = basis.coframe_to_vector(star_d(basis.coframe_from_vector(
        rng.standard_normal(3 * basis.dim))))
    lam, V = eigencomponents(D, c0)
    modes = eigenmodes(D)
    scale = gram_norm(D, c0)
    assert sorted(lam.tolist()) == [*range(-D, 1), *range(2, D + 3)]
    assert gram_norm(D, V.sum(axis=1) - c0) <= 1e-14 * scale
    for j, value in enumerate(lam):
        C = modes.C[:, modes.lam_int == value]
        expected = C @ coframe_pairings(D, C, c0)
        assert gram_norm(D, V[:, j] - expected) <= 1e-12 * scale, value


@pytest.mark.parametrize("t", [0.5, 1.0, 2.7])
def test_propagate_matches_dict_route(t):
    basis = make_basis(2)
    exp = decompose_initial(2, basis.coframe_to_vector(unit_field(2, 7)))
    expected = CoframeField.zero()
    for lam, v in zip(exp.lam.tolist(), exp.V.T):
        expected = expected + t ** (lam - 2) * basis.coframe_from_vector(v)
    assert_allclose(propagate(exp, t), basis.coframe_to_vector(expected), rtol=0, atol=TOL)


def test_distance_matches_dict_route():
    basis = make_basis(2)
    exp = decompose_initial(2, basis.coframe_to_vector(unit_field(2, 9)))
    other = unit_field(2, 10)
    diff = other - basis.coframe_from_vector(propagate(exp, 1.5))
    expected = float(np.sqrt(max(sphere_integral(diff.norm_sq_poly()), 0.0)))
    assert abs(exp.distance(basis.coframe_to_vector(other), 1.5) - expected) <= TOL
    assert exp.distance(propagate(exp, 1.5), 1.5) <= TOL


def test_exact_ring_modeset(exact_ring):
    modes, _ = exact_ring(2)
    assert isinstance(modes, ModeSet)
    assert list(modes.lam_int) == sorted(modes.lam_int)
    assert_allclose(modes.pairings(), np.eye(len(modes.lam)), atol=1e-10)
