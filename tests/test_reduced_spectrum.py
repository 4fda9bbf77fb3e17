"""The float report and the Hodge check from the reduced blocks W_k^3 against
the full harmonic blocks.

The full blocks (``divergence_free_subspace`` and one eigh per block) are
the oracle for both, and the exact ring on full blocks is the second route.
"""

import math

import numpy as np
import pytest

from sdforms import polys, spectrum
from sdforms.cli import dispatch
from sdforms.frames import LEFT_MULT, RIGHT_MULT
from sdforms.spectrum import (
    _block_eigh,
    _degree_offsets,
    _frame_laplacian,
    _gram_factor,
    _harmonic_basis,
    _reduced_blocks,
    _weight_columns,
    divergence_free_subspace,
    eigen_decompose,
    hodge_laplacian_check,
)


def test_reduced_report_matches_full_blocks():
    # block k of the full route is the same for every D >= k, so one
    # subspace at D = 12 gives the oracle for every D up to 12
    sub = divergence_free_subspace(12)
    counts = [dict(zip(*np.unique(np.rint(_block_eigh(b)[0]).astype(int), return_counts=True)))
              for b in sub.blocks]
    mults, dim = {}, 0
    for D, b in enumerate(sub.blocks):
        for lam, k in counts[D].items():
            mults[int(lam)] = mults.get(int(lam), 0) + int(k)
        # the gradient count is the rank of the block's div
        assert b.dim == 3 * len(b.frame[0]) - np.linalg.matrix_rank(b.div)
        dim += b.dim
        _, report = eigen_decompose(D)
        assert (report.multiplicities, report.subspace_dim) == (mults, dim), D
        assert report.complete and not report.verify()
        assert report.max_integer_deviation <= 1e-12
        assert report.max_div_residual <= 1e-13


def test_hodge_check_matches_full_blocks():
    # the route the check replaced: (*d)^2 on each full block's
    # divergence-free eigenvectors and the squared integer *d eigenvalues of
    # its eigh; one subspace at D = 8 gives the oracle for every D up to 8
    mu, lam_sq = [], []
    for b in divergence_free_subspace(8).blocks:
        lam, Y = _block_eigh(b)
        A2 = Y.T @ (b.star_d @ (b.star_d @ Y))
        mu.append(np.linalg.eigvalsh((A2 + A2.T) / 2.0))
        lam_sq.append(np.rint(lam) ** 2)
    for D in range(9):
        full = np.sort(np.concatenate(mu[:D + 1]))
        assert np.max(np.abs(full - np.sort(np.concatenate(lam_sq[:D + 1])))) <= 1e-7
        values, mult = np.unique(np.rint(full).astype(int), return_counts=True)
        rep = hodge_laplacian_check(D)
        assert rep["mu_multiplicities"] == dict(zip(values.tolist(), mult.tolist())), D
        assert abs(rep["mu_min"] - full[0]) <= 1e-12
        assert rep["max_square_pairing_deviation"] <= 1e-7
        assert rep["subspace_invariance_defect"] <= 1e-10


def test_cli_hodge_builds_no_full_block(monkeypatch, capsys):
    # and, the gradients being set aside by count, no QR or SVD for ker(div)
    def forbidden(*args, **kwargs):
        raise AssertionError("full harmonic block, QR or SVD on the Hodge route")

    for name in ("divergence_free_subspace", "_float_block", "_harmonic_basis"):
        monkeypatch.setattr(spectrum, name, forbidden)
    for name in ("qr", "svd"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for D in range(13):
        assert dispatch(["verify", "hodge", "--degree", str(D)]) == 0, D


@pytest.mark.parametrize("D", [0, 1, 4, 6])
def test_reduced_report_matches_exact_ring(D):
    _, flt = eigen_decompose(D)
    _, exact = eigen_decompose(D, ring="exact")
    assert flt.multiplicities == exact.multiplicities
    assert flt.subspace_dim == exact.subspace_dim
    assert flt.complete and exact.complete


def test_lowest_reduced_blocks():
    # W_0 = H_0 is the constants with scale 1: *d = 2 on all three fields,
    # no gradients; W_1 has 4 columns and 4 gradients, where *d is 0, and
    # the other 8 fields all have eigenvalue 3
    b0, b1 = _reduced_blocks(1)
    assert b0.frame[0].shape == (1, 1) and (b0.gradients, b0.dim) == (0, 3)
    assert np.allclose(b0.star_d, 2 * np.eye(3))
    assert b1.frame[0].shape == (4, 4) and (b1.gradients, b1.dim) == (4, 8)
    assert np.allclose(np.linalg.eigvalsh(b1.star_d), [0.0] * 4 + [3.0] * 8, atol=1e-13)
    lam, Y = _block_eigh(b1)
    assert np.allclose(lam, 3.0, atol=1e-13)
    assert np.max(np.abs(b1.div @ Y)) <= 1e-13
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
    # no harmonic basis, no full-block subspace and one eigh per block, on
    # the whole reduced block: order 3 at k = 0, then 6(k + 1); the gradients
    # are set aside by count, so no QR or SVD finds ker(div)
    orders = []

    def recording(A):
        orders.append(A.shape)
        return np.linalg.eigh(A)

    def forbidden(*args, **kwargs):
        raise AssertionError("full harmonic block, QR or SVD on the spectrum route")

    monkeypatch.setattr(spectrum, "eigh", recording)
    monkeypatch.setattr(spectrum, "_harmonic_basis", forbidden)
    monkeypatch.setattr(spectrum, "divergence_free_subspace", forbidden)
    for name in ("qr", "svd"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    assert dispatch(["spectrum", "--degree", "6"]) == 0
    assert orders == [(3, 3)] + [(6 * (k + 1),) * 2 for k in range(1, 7)]
