"""Harmonic-degree blocks of the *d spectrum against a dense monomial oracle.

The oracle is the route the blocks replaced: the generalized symmetric
eigenproblem B^T G S B v = lam B^T G B v on an SVD basis B of ker(div) over
all monomials at once, reduced to a standard problem by a Cholesky factor.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import sdforms
from sdforms import polys, spectrum
from sdforms.cli import _spectrum_checks, dispatch
from sdforms.polys import coframe_gram, make_basis, monomial_integral_over_pi2, operator_matrix
from sdforms.spectrum import (
    SpectrumReport,
    _exact_eigenspaces,
    _exact_report,
    _float_modes,
    _float_report,
    _frame_laplacian,
    _gram_factor,
    _harmonic_basis,
    _integer_entries,
    _reduced_blocks,
    divergence_free_subspace,
    eigen_decompose,
    eigenmodes,
    hodge_laplacian_check,
)


def dense(triples):
    r, c, v, shape = triples
    M = np.zeros(shape, dtype=np.int64)
    M[r, c] = v
    return M


def dense_monomial_modes(D):
    """Oracle eigenvalues and Gram-orthonormal eigenvector columns on the monomials."""
    Dv = operator_matrix("div", D)
    S = operator_matrix("star_d", D)
    G = coframe_gram(D)
    _, s, vh = np.linalg.svd(Dv)
    B = vh[int(np.sum(s > max(Dv.shape) * np.finfo(float).eps * s.max())):].T
    A = B.T @ G @ S @ B
    Linv = np.linalg.inv(np.linalg.cholesky(B.T @ G @ B))
    w, X = np.linalg.eigh(Linv @ ((A + A.T) / 2.0) @ Linv.T)
    return w, B @ (Linv.T @ X)


def projectors(lam_int, C, G):
    """Eigenspace projector C_lam C_lam^T G for each integer eigenvalue."""
    return {int(lam): C[:, lam_int == lam] @ C[:, lam_int == lam].T @ G
            for lam in np.unique(lam_int)}


def counts(lam_int):
    values, mult = np.unique(lam_int, return_counts=True)
    return {int(lam): int(k) for lam, k in zip(values, mult)}


@pytest.mark.parametrize("D", [0, 1, 2, 3, 4])
def test_blocks_match_dense_monomial_oracle(D):
    w, C0 = dense_monomial_modes(D)
    lam0 = np.rint(w).astype(int)
    modes, report = eigenmodes(D), eigen_decompose(D)
    assert report.multiplicities == counts(lam0)
    assert report.subspace_dim == len(w)
    G = coframe_gram(D)
    P0 = projectors(lam0, C0, G)
    P = projectors(modes.lam_int, modes.C, G)
    for lam, proj in P0.items():
        assert np.max(np.abs(P[lam] - proj)) <= 1e-10


def test_float_and_exact_blocks_agree_at_degree5(exact_ring):
    fmodes, flt = eigenmodes(5), eigen_decompose(5)
    emodes, exact = exact_ring(5)
    assert flt.multiplicities == exact.multiplicities
    assert exact.complete and not _spectrum_checks(exact) and not _spectrum_checks(flt)
    G = coframe_gram(5)
    Pf = projectors(fmodes.lam_int, fmodes.C, G)
    Pe = projectors(emodes.lam_int, emodes.C, G)
    assert Pf.keys() == Pe.keys()
    for lam in Pf:
        assert np.max(np.abs(Pf[lam] - Pe[lam])) <= 1e-10


@pytest.mark.parametrize("ring", ["float", "exact"])
def test_mode_degree_is_its_harmonic_degree(exact_ring, ring):
    # eigenvalue k + 2 lives on H_k, eigenvalue -k too
    modes = eigenmodes(5) if ring == "float" else exact_ring(5)[0]
    for i, lam in enumerate(modes.lam_int.tolist()):
        assert modes.field(i).degree == (lam - 2 if lam > 0 else -lam)


def test_structure_certificate_exact_at_degree3():
    D = 3
    Dv = operator_matrix("div", D)
    S = operator_matrix("star_d", D)
    lap = dense(_frame_laplacian(D, polys.derivative_triples(D)))
    offs = make_basis(D).offsets
    N = offs[-1]
    E = [Dv[:, i * N:(i + 1) * N] for i in range(3)]
    assert np.array_equal(lap, -sum(e @ e for e in E))
    lap_int = lap.astype(object)
    S_int = S.astype(np.int64).astype(object)
    # the rational scalar Gram over pi^2
    F = np.array([[monomial_integral_over_pi2(tuple(a + b for a, b in zip(ea, eb)))
                   for eb in make_basis(D).monomials] for ea in make_basis(D).monomials],
                 dtype=object)
    sub = divergence_free_subspace(D, ring="exact")
    lap_triples = _frame_laplacian(D, [_integer_entries(E) for E in polys.derivative_triples(D)])
    bases = []
    for b in sub.blocks:
        k = b.k
        scale = math.prod((k - j) * (k + j + 2) for j in range(k))
        basis_int = _harmonic_basis(lap_triples, offs, k, scale)
        assert np.array_equal(basis_int / scale, b.basis)
        m, n = basis_int.shape
        Z = np.zeros((N, n), dtype=object)
        Z[:m] = basis_int
        # Lap Z = k(k + 2) Z and Z is scale times the identity on degree k
        assert not (lap_int @ Z - k * (k + 2) * Z).any()
        assert np.array_equal(Z[offs[k]:offs[k + 1]], scale * np.eye(n, dtype=int))
        # *d maps span(I3 x Z) into itself with the integer diagonal block as matrix
        Z3 = np.zeros((3 * N, 3 * n), dtype=object)
        for c in range(3):
            Z3[c * N:(c + 1) * N, c * n:(c + 1) * n] = Z
        assert not (S_int @ Z3 - Z3 @ b.star_d).any()
        bases.append(Z)
    # distinct harmonic degrees are exactly L^2-orthogonal
    for i, Zi in enumerate(bases):
        for Zj in bases[i + 1:]:
            assert all(v == Fraction(0) for v in (Zi.T @ F @ Zj).ravel())


@pytest.mark.parametrize("ring", ["float", "exact"])
def test_harmonic_solve_steps_over_its_own_parity(monkeypatch, ring):
    # Lap maps degree j into degrees j and j - 2 only: the basis of H_k is
    # exactly 0 on the degrees k - 1, k - 3, ..., and the back-substitution
    # applies lap to the floor(k/2) degree slices k - 2, k - 4, ... alone
    D = 7
    frame = polys.derivative_triples(D)
    if ring == "exact":
        frame = [_integer_entries(E) for E in frame]
    lap = _frame_laplacian(D, frame)
    offs = make_basis(D).offsets
    slices = []
    block_triples = spectrum._block_triples
    monkeypatch.setattr(spectrum, "_block_triples",
                        lambda A, lo, hi, cols=None: slices.append(lo)
                        or block_triples(A, lo, hi, cols))
    for k in range(D + 1):
        slices.clear()
        scale = math.prod((k - j) * (k + j + 2) for j in range(k)) if ring == "exact" else None
        T = _harmonic_basis(lap, offs, k, scale)
        assert slices == [offs[j] for j in range(k - 2, -1, -2)], k
        for j in range(k - 1, -1, -2):
            assert not T[offs[j]:offs[j + 1]].any(), (k, j)


def test_fischer_gram_factor_matches_monomial_gram():
    # U^T U from the homogeneous forms equals T^T G T from the monomial integrals
    D = 6
    lap = _frame_laplacian(D, polys.derivative_triples(D))
    offs = make_basis(D).offsets
    G = make_basis(D).gram()
    for k in range(D + 1):
        T = _harmonic_basis(lap, offs, k)
        m = len(T)
        U = _gram_factor(make_basis(D).exponents[:m], k, T)
        assert np.allclose(U, np.triu(U))
        gram = T.T @ G[:m, :m] @ T
        assert np.max(np.abs(U.T @ U - gram)) <= 1e-12 * np.max(np.abs(gram))


def test_incomplete_report_fails():
    report = SpectrumReport(degree=2, ring="exact", subspace_dim=30, window=(-2, 4),
                            multiplicities={-2: 3, 2: 3, 3: 8, 4: 15},
                            max_integer_deviation=0.0, max_div_residual=0.0,
                            complete=False)
    assert [f["reason"] for f in _spectrum_checks(report)] == [
        "eigenspaces do not span the divergence-free subspace"]


def broken_first_frame(original):
    """``polys.derivative_triples`` whose E1 sends a degree-1 monomial to the constant."""
    def broken(D):
        (r, c, v, shape), *rest = original(D)
        return [(np.append(r, 0), np.append(c, 4), np.append(v, 1), shape), *rest]
    return broken


def cli_failures(capsys, argv):
    """The exit code and the (operation, reason) of each failure record of one run."""
    code = dispatch(argv)
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "fail"
    return code, [(f["operation"], f["reason"]) for f in rep["failures"]]


@pytest.mark.parametrize("ring", ["float", "exact"])
def test_broken_derivative_entry_is_rejected(monkeypatch, ring):
    monkeypatch.setattr(polys, "derivative_triples", broken_first_frame(polys.derivative_triples))
    with pytest.raises(ArithmeticError, match="does not commute with the frame Laplacian"):
        eigen_decompose(2, ring=ring)


def test_broken_derivative_entry_is_a_failure_record(monkeypatch, capsys):
    # the exact ring's certificate fails: exit 1 with one failure record
    monkeypatch.setattr(polys, "derivative_triples", broken_first_frame(polys.derivative_triples))
    code, failures = cli_failures(capsys, ["spectrum", "--degree", "2", "--exact"])
    assert code == 1
    assert len(failures) == 1 and failures[0][0] == "ArithmeticError"
    assert "does not commute with the frame Laplacian" in failures[0][1]


def test_singular_gram_factor_is_a_failure_record(monkeypatch, capsys, tmp_path):
    # numpy's LinAlgError is a ValueError, the type of a usage error; here it
    # is a failed check: exit 1 with one failure record and the report written
    original = spectrum._gram_factor
    monkeypatch.setattr(spectrum, "_gram_factor", lambda m, k, T: np.zeros_like(original(m, k, T)))
    argv = ["verify", "orthogonality", "--degree", "2", "--output", str(tmp_path)]
    assert cli_failures(capsys, argv) == (1, [("LinAlgError", "Singular matrix")])
    assert [p.name for p in tmp_path.iterdir()] == ["verify_orthogonality.json"]


def forbidden(*args, **kwargs):
    raise AssertionError("dense monomial-space object built on the spectral route")


@pytest.fixture
def no_monomial_space_operators(monkeypatch):
    # neither the dense operators nor the sparse coframe div and curl
    for name in ("operator_matrix", "div_norms", "coframe_triples"):
        monkeypatch.setattr(polys, name, forbidden)


@pytest.fixture
def no_monomial_gram(monkeypatch):
    # the exact ring norms its div residual under the monomial Gram; the
    # float ring and the Hodge check, which reach larger D, never form it
    for name in ("_scalar_gram", "coframe_gram", "coframe_pairings"):
        monkeypatch.setattr(polys, name, forbidden)


@pytest.mark.parametrize("ring", ["float", "exact"])
def test_spectrum_builds_no_monomial_space_operator(no_monomial_space_operators, ring):
    report = eigen_decompose(5, ring=ring)
    assert not _spectrum_checks(report)
    assert report.max_div_residual <= 1e-12


def test_float_spectrum_builds_no_monomial_gram(no_monomial_space_operators, no_monomial_gram):
    report = eigen_decompose(5)
    assert not _spectrum_checks(report)


def test_hodge_check_builds_no_monomial_space_operator(no_monomial_space_operators,
                                                       no_monomial_gram):
    rep = hodge_laplacian_check(5)
    assert rep["mu_min"] >= 4 - 1e-8
    assert rep["subspace_invariance_defect"] <= 1e-10


def test_cli_spectrum_never_assembles_mode_matrix(monkeypatch, capsys):
    # neither a full float block nor the mode matrix of either ring
    for name in ("_sorted_modes", "_float_block"):
        monkeypatch.setattr(spectrum, name, forbidden)
    assert dispatch(["spectrum", "--degree", "6"]) == 0
    assert dispatch(["spectrum", "--degree", "3", "--exact"]) == 0


@pytest.mark.parametrize("ring", ["float", "exact"])
@pytest.mark.parametrize("D", [3, 6])
def test_block_residual_matches_dense_route(exact_ring, D, ring):
    # per-block div residual, dimension and *d-invariance of the kept modes
    # against the dense monomial div and *d
    modes, report = (eigenmodes(D), eigen_decompose(D)) if ring == "float" else exact_ring(D)
    assert report.max_div_residual <= 1e-13
    assert max(polys.div_norms(D, modes.C)) <= 1e-12
    Dv = operator_matrix("div", D)
    assert len(modes.lam) == report.subspace_dim == Dv.shape[1] - np.linalg.matrix_rank(Dv)
    Q = np.linalg.qr(modes.C)[0]
    image = operator_matrix("star_d", D) @ Q
    assert np.linalg.norm(image - Q @ (Q.T @ image)) <= 1e-10
    assert hodge_laplacian_check(D)["subspace_invariance_defect"] <= 1e-12


def perturb_frame(b, size, seed, skew=True):
    """Add ``size`` times a seeded random matrix, made skew unless ``skew`` is
    false, to the first frame matrix of block b."""
    n = len(b.frame[0])
    P = np.random.default_rng(seed).standard_normal((n, n))
    b.frame[0] = b.frame[0] + size * (P - P.T if skew else P)


def test_block_residuals_see_a_leaking_kernel(monkeypatch):
    # a frame block perturbed off the sphere's frame: the kept modes leak out
    # of ker(div), in a full block (the modes' route) and in a reduced block
    # (the report's); a perturbation that is not skew is refused as not
    # self-adjoint, or, below that tolerance, seen by the Hodge check
    sub = divergence_free_subspace(4)
    perturb_frame(sub.blocks[3], 1e-4, 3)
    assert max(polys.div_norms(4, _float_modes(sub).C)) > 1e-6
    blocks = _reduced_blocks(4)
    perturb_frame(blocks[3], 1e-4, 3)
    assert _float_report(4, blocks).max_div_residual > 1e-6
    monkeypatch.setattr(spectrum, "_reduced_blocks", lambda D: blocks)
    assert hodge_laplacian_check(4)["max_square_pairing_deviation"] > 1e-7
    blocks = _reduced_blocks(4)
    perturb_frame(blocks[3], 1e-4, 3, skew=False)
    with pytest.raises(ArithmeticError, match="star_d not self-adjoint on harmonic block 3"):
        _float_report(4, blocks)
    blocks = _reduced_blocks(4)
    perturb_frame(blocks[3], 1e-9, 3, skew=False)
    assert _float_report(4, blocks).max_div_residual > 1e-13
    assert hodge_laplacian_check(4)["subspace_invariance_defect"] > 1e-10


def test_reversed_frame_fails_the_gradient_count():
    # -E_i is a frame of the opposite orientation, [E1, E2] = +2 E3: *d becomes
    # 2 - curl, which sends the eigenvalue k + 2 = 4 of block 2 to 2 - k = 0,
    # ten eigenvalues into (-1/2, 1/2) against six gradients on W_2 (fifteen
    # against nine on H_2)
    blocks = _reduced_blocks(2)
    blocks[2].frame = [-F for F in blocks[2].frame]
    with pytest.raises(ArithmeticError, match=r"10 eigenvalues of star_d in \(-1/2, 1/2\) "
                                              "on harmonic block 2, not its 6 gradients"):
        _float_report(2, blocks)
    sub = divergence_free_subspace(2)
    sub.blocks[2].frame = [-F for F in sub.blocks[2].frame]
    with pytest.raises(ArithmeticError, match="15 eigenvalues .* not its 9 gradients"):
        _float_modes(sub)


def test_exact_ring_rejects_a_wrong_kernel_length():
    # with the frame of block 1 zeroed, div vanishes there: its integer
    # kernel has all 12 columns, not the 8 divergence-free ones
    sub = divergence_free_subspace(2, ring="exact")
    sub.blocks[1].frame = [0 * E for E in sub.blocks[1].frame]
    with pytest.raises(ArithmeticError, match="div kernel of harmonic block 1 has dimension "
                                              "12, not 8"):
        _exact_eigenspaces(sub)


@pytest.mark.parametrize("ring", ["float", "exact"])
def test_residuals_see_a_non_harmonic_block_basis(monkeypatch, ring):
    # a block basis pushed off H_k must not reach the assembled modes: the
    # float block refuses it, the exact ring's residual sees it
    if ring == "exact":
        sub = divergence_free_subspace(4, ring)
        sub.blocks[3].basis[1] += 1e-4
        assert _exact_report(sub, _exact_eigenspaces(sub)).max_div_residual > 1e-6
        return
    original = spectrum._harmonic_basis

    def perturbed(lap, offs, k, scale=None):
        T = original(lap, offs, k, scale)
        if k == 3:
            T[1] += 1e-4
        return T

    monkeypatch.setattr(spectrum, "_harmonic_basis", perturbed)
    with pytest.raises(ArithmeticError, match="basis of harmonic block 3 is not harmonic"):
        eigenmodes(4)


@pytest.mark.parametrize("scale", [0, 2])
def test_wrong_laplacian_diagonal_is_rejected(monkeypatch, scale):
    # scaled frames still commute with their Laplacian, whose diagonal is
    # then 4 j(j + 2) I, or absent for the zero frame
    original = polys.derivative_triples

    def scaled(D):
        out = []
        for r, c, v, shape in original(D):
            keep = v * scale != 0
            out.append((r[keep], c[keep], v[keep] * scale, shape))
        return out

    monkeypatch.setattr(polys, "derivative_triples", scaled)
    with pytest.raises(ArithmeticError, match="frame Laplacian is not 3 I with zeros below "
                                              "on the degree-1 monomials"):
        eigen_decompose(2)


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(sdforms.__file__))
    code = ("import sys, sdforms.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "[]"
