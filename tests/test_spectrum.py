import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sdforms import exactla, polys
from sdforms.cli import _spectrum_checks
from sdforms.polys import (
    coframe_gram,
    left_invariant_coframe,
    make_basis,
    operator_matrix,
    right_invariant_coframe,
)
from sdforms.spectrum import (
    _exact_eigenspaces,
    _frame_laplacian,
    _harmonic_basis,
    _integer_entries,
    constant_norm_check,
    divergence_free_subspace,
    eigen_decompose,
    eigenmodes,
    hodge_laplacian_check,
    trusted_window,
)


@pytest.fixture(scope="module")
def report_d3():
    return eigen_decompose(3)


@pytest.fixture(scope="module")
def modes_d3():
    return eigenmodes(3)


def expected_multiplicities(D):
    lo, hi = trusted_window(D)
    return {k: k * k - 1 for k in range(lo, hi + 1) if abs(k) >= 2}


# ------------------------------------------------------------- subspace

@pytest.mark.parametrize("D", [0, 1, 2])
def test_divfree_dimension(D):
    sub = divergence_free_subspace(D)
    # rank computation: ker(div) = 2 * dim(scalars) + 1 for D >= 1;
    # at D = 0 the three constant fields are the whole kernel
    n = make_basis(D).dim
    expected = 3 if D == 0 else 2 * n + 1
    assert sub.dim == expected


def test_divfree_members_are_divergence_free():
    from sdforms.polys import div

    # the eigenfields span the subspace
    basis = make_basis(1)
    modes = eigenmodes(1)
    assert len(modes.lam) == divergence_free_subspace(1).dim
    for v in modes.C.T:
        residual = div(basis.coframe_from_vector(v))
        assert all(abs(c) < 1e-10 for c in residual.coeffs.values())


def test_divfree_invariant_under_star_d():
    # (I - Q Q^T) *d Q on an orthonormal basis Q of the span of the eigenfields
    Q = np.linalg.qr(eigenmodes(2).C)[0]
    image = operator_matrix("star_d", 2) @ Q
    assert np.linalg.norm(image - Q @ (Q.T @ image)) <= 1e-10


def test_exact_and_float_subspace_dimensions_agree():
    assert (divergence_free_subspace(2, ring="exact").dim
            == divergence_free_subspace(2).dim)


# ------------------------------------------------------------- float spectrum

def test_spectrum_degree0():
    report = eigen_decompose(0)
    assert report.multiplicities == {2: 3}
    assert report.subspace_dim == 3
    assert report.max_integer_deviation <= 1e-10


def test_spectrum_degree2():
    report = eigen_decompose(2)
    assert report.multiplicities == {-2: 3, 2: 3, 3: 8, 4: 15}
    assert report.window == (-2, 4)
    assert not _spectrum_checks(report)


def test_spectrum_degree3(report_d3):
    report = report_d3
    assert report.window == (-3, 5)
    for lam, mult in expected_multiplicities(3).items():
        assert report.multiplicities[lam] == mult
    assert report.max_integer_deviation <= 1e-8
    assert report.max_div_residual <= 1e-10


def test_spectral_gap(modes_d3):
    lams = modes_d3.lam
    assert np.all(np.abs(lams) >= 2 - 1e-8)
    assert not np.any((np.abs(lams) < 2 - 1e-8) & (np.abs(lams) > 1e-8))


def test_modes_l2_normalized_and_orthogonal(modes_d3):
    modes = modes_d3
    D = 3
    basis = make_basis(D)
    G = coframe_gram(D)
    vecs = np.column_stack([basis.coframe_to_vector(modes.field(i))
                            for i in range(len(modes.lam))])
    gram = vecs.T @ G @ vecs
    lams = modes.lam_int
    distinct = lams[:, None] != lams[None, :]
    assert np.max(np.abs(gram[distinct])) <= 1e-10
    assert_allclose(np.diag(gram), 1.0, atol=1e-10)


def test_window_regression_between_degrees():
    # every multiplicity inside the window at D is reproduced at D + 2
    r2 = eigen_decompose(2)
    r4 = eigen_decompose(4)
    lo, hi = r2.window
    for lam in range(lo, hi + 1):
        if abs(lam) >= 2:
            assert r2.multiplicities.get(lam) == r4.multiplicities.get(lam) == lam * lam - 1


def test_trusted_window_shape():
    assert trusted_window(4) == (-4, 6)
    assert trusted_window(0) == (0, 2)


# ------------------------------------------------------------- exact spectrum

def test_exact_spectrum_degree2(exact_ring, monkeypatch):
    # the eigenfields and the report come from one elimination: one div
    # kernel per block (the shift kernels pass their width)
    kernels = []
    nullspace = exactla.nullspace
    monkeypatch.setattr(exactla, "nullspace",
                        lambda rows, n_cols=None: kernels.append(n_cols) or nullspace(rows, n_cols))
    modes, report = exact_ring(2)
    assert kernels.count(None) == 3
    assert report.ring == "exact"
    assert report.multiplicities == {-2: 3, 2: 3, 3: 8, 4: 15}
    assert report.complete            # ranks account for the whole subspace
    assert report.forbidden_multiplicities == {-1: 0, 0: 0, 1: 0}
    assert report.max_integer_deviation == 0.0
    assert report.max_div_residual <= 1e-12
    # exact eigenfields, converted to floats, are Gram-orthonormal
    lams = sorted(modes.lam_int.tolist())
    assert lams == sorted(
        lam for lam, mult in report.multiplicities.items() for _ in range(mult))


def test_exact_matches_float_clustering():
    exact = eigen_decompose(2, ring="exact")
    flt = eigen_decompose(2)
    assert exact.multiplicities == flt.multiplicities


def test_exact_degree3_matches_float(exact_ring, report_d3):
    modes, exact = exact_ring(3)
    flt = report_d3
    assert exact.multiplicities == flt.multiplicities
    assert exact.complete and exact.subspace_dim == flt.subspace_dim
    assert exact.max_div_residual <= 1e-14
    pairings = modes.pairings()
    assert np.max(np.abs(pairings - np.eye(len(modes.lam)))) <= 1e-10


def test_exact_subspace_is_primitive_integer_kernel(monkeypatch):
    # each block's div kernel, as the exact decomposition computes it, holds
    # b.dim primitive integer vectors, which the integer harmonic basis
    # carries to exact kernel vectors of the monomial div
    D = 2
    sub = divergence_free_subspace(D, ring="exact")
    kernels = []
    original = exactla.nullspace

    def recording(rows, n_cols=None):
        out = original(rows, n_cols)
        if n_cols is None:  # the div kernel; the shifts pass their width
            kernels.append(np.array(out, dtype=object).T)
        return out

    monkeypatch.setattr(exactla, "nullspace", recording)
    _exact_eigenspaces(sub)
    lap = _frame_laplacian(D, [_integer_entries(E) for E in polys.derivative_triples(D)])
    offs = make_basis(D).offsets
    Dv = operator_matrix("div", D).astype(np.int64).astype(object)
    assert len(kernels) == len(sub.blocks)
    for b, N in zip(sub.blocks, kernels):
        assert N.shape == (3 * len(b.frame[0]), b.dim)
        assert all(type(v) is int for v in N.ravel())
        assert all(np.gcd.reduce(N[:, j]) == 1 for j in range(b.dim))
        Z = _harmonic_basis(lap, offs, b.k, math.prod((b.k - j) * (b.k + j + 2)
                                                       for j in range(b.k)))
        m, n = Z.shape
        V = np.zeros((3, offs[-1], b.dim), dtype=object)
        V[:, :m] = [Z @ N[c * n:(c + 1) * n] for c in range(3)]
        assert not (Dv @ V.reshape(3 * offs[-1], -1)).any()


def test_exact_ring_rejects_non_integer_operator(monkeypatch):
    from sdforms import polys

    original = polys.derivative_triples

    def halved(D):
        return [(r, c, v / 2, shape) for r, c, v, shape in original(D)]

    monkeypatch.setattr(polys, "derivative_triples", halved)
    with pytest.raises(ValueError, match="not an integer; exact ring unavailable"):
        eigen_decompose(1, ring="exact")


# ------------------------------------------------------------- mode checks

def test_constant_norm_for_plus_minus_two(modes_d3):
    for i in np.flatnonzero(np.abs(modes_d3.lam_int) == 2):
        assert constant_norm_check(modes_d3.field(i)) <= 1e-10


def test_norm_spread_takes_no_dict_product(modes_d3, monkeypatch):
    from sdforms.polys import CoframeField

    def forbidden(self):
        raise AssertionError("constant_norm_check formed |eta|^2 as a polynomial")

    monkeypatch.setattr(CoframeField, "norm_sq_poly", forbidden)
    i = list(modes_d3.lam_int).index(-2)
    assert constant_norm_check(modes_d3.field(i)) <= 1e-10


def test_nonconstant_norm_for_lambda3(modes_d3):
    spreads = [constant_norm_check(modes_d3.field(i))
               for i in np.flatnonzero(modes_d3.lam_int == 3)]
    assert max(spreads) > 0.1


def test_invariant_frames_realize_plus_minus_two():
    # eta^1 lies in the +2 eigenspace, phi^1 in the -2 eigenspace
    modes = eigenmodes(2)
    basis = make_basis(2)
    G = coframe_gram(2)
    for field, lam in [(left_invariant_coframe(1), 2),
                       (right_invariant_coframe(1), -2)]:
        v = basis.coframe_to_vector(field)
        proj = np.zeros_like(v)
        for i in np.flatnonzero(modes.lam_int == lam):
            mv = basis.coframe_to_vector(modes.field(i))
            proj += (mv @ G @ v) * mv
        assert_allclose(proj, v, atol=1e-9)


# ------------------------------------------------------------- hodge laplacian

def test_hodge_laplacian_degree0():
    rep = hodge_laplacian_check(0)
    assert rep["mu_multiplicities"] == {4: 3}
    assert rep["mu_min"] >= 4 - 1e-8


def test_hodge_laplacian_degree2():
    rep = hodge_laplacian_check(2)
    assert rep["mu_min"] >= 4 - 1e-8
    assert set(rep["mu_multiplicities"]) == {4, 9, 16}
    assert rep["max_square_pairing_deviation"] <= 1e-7


# ------------------------------------------------------------- report format

def test_report_serialization(report_d3):
    blob = json.dumps(report_d3.to_json())
    parsed = json.loads(blob)
    assert parsed["D"] == 3
    assert parsed["trusted_window"] == [-3, 5]
    assert {m["lambda"]: m["multiplicity"] for m in parsed["modes"]}[2] == 3


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        eigen_decompose(-1)
    with pytest.raises(ValueError):
        eigenmodes(-1)


@pytest.mark.parametrize("ring", ["float", "exact"])
@pytest.mark.parametrize("call", [eigen_decompose, divergence_free_subspace],
                         ids=["eigen_decompose", "divergence_free_subspace"])
def test_negative_degree_is_named_in_the_library(call, ring):
    # the basis rejects it, before any operator is built
    with pytest.raises(ValueError, match="^degree bound must be >= 0, got -1$"):
        call(-1, ring=ring)


@pytest.mark.parametrize("call", [eigen_decompose, divergence_free_subspace],
                         ids=["eigen_decompose", "divergence_free_subspace"])
def test_unknown_ring_rejected(call):
    # only "exact" selects the exact ring; a misspelling must not run the float one
    with pytest.raises(ValueError, match="ring must be 'float' or 'exact', got 'exakt'"):
        call(2, ring="exakt")
