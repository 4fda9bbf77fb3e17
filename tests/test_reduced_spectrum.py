"""The float report from the reduced blocks W_k^3 against the full harmonic blocks.

The full blocks (``divergence_free_subspace`` and one eigh per block) are
the oracle for the float report, and the exact ring on full blocks is the
second route.
"""

import math

import numpy as np
import pytest

from sdforms import polys, spectrum
from sdforms.cli import dispatch
from sdforms.frames import LEFT_MULT, RIGHT_MULT
from sdforms.spectrum import (
    _degree_offsets,
    _frame_laplacian,
    _gram_factor,
    _harmonic_basis,
    _reduced_blocks,
    _weight_columns,
    divergence_free_subspace,
    eigen_decompose,
)


def test_reduced_report_matches_full_blocks():
    # block k of the full route is the same for every D >= k, so one
    # subspace at D = 12 gives the oracle for every D up to 12
    sub = divergence_free_subspace(12)
    counts = [dict(zip(*np.unique(np.rint(np.linalg.eigvalsh(
        b.kernel.T @ b.star_d @ b.kernel)).astype(int), return_counts=True)))
        for b in sub.blocks]
    mults, dim = {}, 0
    for D, b in enumerate(sub.blocks):
        for lam, k in counts[D].items():
            mults[int(lam)] = mults.get(int(lam), 0) + int(k)
        dim += b.dim
        _, report = eigen_decompose(D)
        assert (report.multiplicities, report.subspace_dim) == (mults, dim), D
        assert report.complete and not report.verify()
        assert report.max_integer_deviation <= 1e-12
        assert report.max_div_residual <= 1e-13


@pytest.mark.parametrize("D", [0, 1, 4, 6])
def test_reduced_report_matches_exact_ring(D):
    _, flt = eigen_decompose(D)
    _, exact = eigen_decompose(D, ring="exact")
    assert flt.multiplicities == exact.multiplicities
    assert flt.subspace_dim == exact.subspace_dim
    assert flt.complete and exact.complete


def test_lowest_reduced_blocks():
    # W_0 = H_0 is the constants with scale 1: *d = 2 on all three fields;
    # W_1 has 4 columns, its div kernel 8 and all of it has eigenvalue 3
    b0, b1 = _reduced_blocks(1)
    assert b0.frame[0].shape == (1, 1) and b0.dim == 3
    assert np.allclose(b0.star_d, 2 * np.eye(3))
    assert b1.frame[0].shape == (4, 4) and b1.dim == 8
    lam = np.linalg.eigvalsh(b1.kernel.T @ b1.star_d @ b1.kernel)
    assert np.allclose(lam, 3.0, atol=1e-13)
    _, report = eigen_decompose(1)
    assert report.multiplicities == {2: 3, 3: 8}
    assert report.subspace_dim == 11


@pytest.mark.parametrize("k", [1, 4, 7])
def test_weight_columns_have_the_fischer_gram(k):
    # the harmonic extensions of the weight columns are L^2-orthogonal with
    # norms in the ratio sqrt(a! b!), which the reduced frame assumes
    D = k
    lap = _frame_laplacian(D, polys.derivative_triples(D))
    offs = _degree_offsets(D)
    T = _harmonic_basis(lap, offs, k)
    C = list(_weight_columns(D))[k].astype(float)
    V = T @ C
    U = _gram_factor(polys.make_basis(D).monomials[:len(T)], k, V)
    gram = U.T @ U
    fischer = np.tile([math.factorial(a) * math.factorial(k - a) for a in range(k + 1)], 2)
    expected = fischer * gram[0, 0] / fischer[0]
    assert np.max(np.abs(gram - np.diag(expected))) <= 1e-12 * np.max(np.abs(gram))


def test_reduced_frame_is_antisymmetric():
    # orthonormal coordinates of a Killing field: F_i^T = -F_i
    for b in _reduced_blocks(9):
        for F in b.frame:
            assert np.max(np.abs(F + F.T), initial=0.0) <= 1e-13


ORIGINAL_TRIPLES = polys.derivative_triples


def perturbed_right(D, table, i):
    """The triples of ``table``; for RIGHT_MULT, R_i also sends a degree-1 monomial to 1."""
    triples = list(ORIGINAL_TRIPLES(D, table))
    if table is RIGHT_MULT:
        r, c, v, shape = triples[i]
        triples[i] = polys.sparse_triples(np.append(r, 0) * shape[1] + np.append(c, 4),
                                          np.append(v, 1), shape)
    return triples


@pytest.mark.parametrize("i", [0, 1, 2])
def test_perturbed_right_triple_is_rejected(monkeypatch, i):
    # an extra entry in R_i breaks a commutator, a bracket or the Casimir
    monkeypatch.setattr(polys, "derivative_triples",
                        lambda D, table=LEFT_MULT: perturbed_right(D, table, i))
    with pytest.raises(ArithmeticError):
        eigen_decompose(3)


def test_wrong_weight_action_is_rejected(monkeypatch):
    original = spectrum._weight_action

    def off_by_one(L, k):
        A = original(L, k)
        if k == 2:
            A[0, 0] += 1
        return A

    monkeypatch.setattr(spectrum, "_weight_action", off_by_one)
    with pytest.raises(ArithmeticError, match="weight columns of degree 2"):
        eigen_decompose(3)


def test_weight_checks_switch_to_python_ints():
    # the top coefficients pass 2^63 by k = 48; the recursion must leave int64
    # before then and keep exact values
    for k, C in enumerate(_weight_columns(48)):
        if k == 10:
            assert C.dtype == np.int64
    assert C.dtype == object
    assert max(abs(v) for v in C.ravel()) > 2 ** 63
    # Re (x0 + i x1)^48 has x0^48 with coefficient 1 and x0^24 x1^24 with
    # (-1)^12 binom(48, 24)
    top = polys.make_basis(48).monomials[_degree_offsets(48)[48]:]
    re_z48 = dict(zip(top, C[:, 48]))
    assert re_z48[(48, 0, 0, 0)] == 1
    assert re_z48[(24, 24, 0, 0)] == math.comb(48, 24)


def test_cli_spectrum_builds_only_reduced_blocks(monkeypatch, capsys):
    # no harmonic basis, no full-block subspace and every div kernel on the
    # 2(k + 1) x 6(k + 1) reduced block (1 x 3 at k = 0)
    shapes = []
    original = spectrum._null_space

    def recording(A):
        shapes.append(A.shape)
        return original(A)

    def forbidden(*args, **kwargs):
        raise AssertionError("full harmonic block built on the spectrum route")

    monkeypatch.setattr(spectrum, "_null_space", recording)
    monkeypatch.setattr(spectrum, "_harmonic_basis", forbidden)
    monkeypatch.setattr(spectrum, "divergence_free_subspace", forbidden)
    assert dispatch(["spectrum", "--degree", "6"]) == 0
    assert shapes == [(1, 3)] + [(2 * (k + 1), 6 * (k + 1)) for k in range(1, 7)]
