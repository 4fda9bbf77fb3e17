"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
Every tolerance is pinned here, none deferred.
"""

import json
import time
from contextlib import contextmanager
from math import log, pi

import numpy as np
import pytest

from sdforms import ale, cli, evolution, regularity, selfdual, spectrum
from sdforms.polys import (
    CoframeField,
    left_invariant_coframe,
    right_invariant_coframe,
    sphere_integral,
)


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num:2d}: {description}", flush=True)
        raise
    print(f"[PASS] criterion {num:2d}: {description}", flush=True)


@pytest.fixture(scope="module")
def modes_d2():
    return spectrum.eigen_decompose(2)[0]


@pytest.fixture(scope="module")
def modes_d3():
    return spectrum.eigen_decompose(3)[0]


def series_test_forms(modes_d3):
    """The generated closed series forms exercised by criteria 3 and 4."""
    lam_m3 = next(m for m in modes_d3 if m.lam_int == -3)
    return {
        "kahler": selfdual.SelfDualForm.kahler(1),
        "pure_minus_two": selfdual.SelfDualForm(
            [(1.0, -2, right_invariant_coframe(1))]),
        "mixed_pm2": selfdual.SelfDualForm(
            [(0.7, 2, left_invariant_coframe(2)),
             (1.3, -2, right_invariant_coframe(1))]),
        "ak_eps02": ale.ak_form(ale.AKFormParams(1.0, 1.0, 0.2)),
        "lambda_minus3": selfdual.SelfDualForm([(1.0, -3, lam_m3.field)]),
    }


def test_criterion_1_spectral_gap_and_multiplicities(tmp_path, capsys):
    with criterion(1, "spectrum --degree 4: integer spectrum, gap, mult = lambda^2-1, < 60 s"):
        start = time.monotonic()
        code = cli.dispatch(["--output", str(tmp_path), "spectrum", "--degree", "4"])
        elapsed = time.monotonic() - start
        capsys.readouterr()
        assert code == 0
        report = json.loads((tmp_path / "spectrum_d4.json").read_text())
        mults = {m["lambda"]: m["multiplicity"] for m in report["modes"]}
        for lam in (-2, 2, -3, 3, -4, 4):
            assert mults[lam] == lam * lam - 1
        assert all(abs(lam) >= 2 for lam in mults)
        assert report["residuals"]["max_integer_deviation"] <= 1e-8
        assert elapsed <= 60.0


def test_criterion_2_constant_norm_modes(modes_d2):
    with criterion(2, "lambda = +-2 eigenfields have constant norm (spread <= 1e-10, 1000 points)"):
        checked = 0
        for mode in modes_d2:
            if abs(mode.lam_int) == 2:
                assert spectrum.constant_norm_check(mode, n_samples=1000) <= 1e-10
                checked += 1
        assert checked == 6


def test_criterion_3_closedness_h_squared(modes_d3):
    with criterion(3, "d-residual O(h^2): ratios in [3.5, 4.5] at h = 1e-2, 5e-3, 2.5e-3"):
        x = np.array([0.8, 0.4, -0.3, 0.9])
        floor = 1e-12
        measured_any = False
        for name, sdf in series_test_forms(modes_d3).items():
            r = [selfdual.d_residual(sdf, x, h) for h in (1e-2, 5e-3, 2.5e-3)]
            if r[0] <= floor:
                # polynomial component matrices: the stencil is exact
                assert all(v <= floor for v in r), name
                continue
            measured_any = True
            assert 3.5 <= r[0] / r[1] <= 4.5, name
            assert 3.5 <= r[1] / r[2] <= 4.5, name
        assert measured_any


def test_criterion_4_improved_kato(modes_d3):
    with criterion(4, "Kato ratio <= 2/3 + 1e-6 at >= 500 points per form"):
        rng = np.random.default_rng(41)
        pts = rng.standard_normal((520, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts *= rng.uniform(0.4, 2.5, size=(len(pts), 1))
        bound = 2.0 / 3.0 + 1e-6
        for name, sdf in series_test_forms(modes_d3).items():
            # accepted points count; where the form is covariant-constant the
            # ratio is undefined (NaN) and the bound holds trivially
            ratios, accepted = selfdual.kato_ratio(sdf, pts, 1e-4)
            defined = ratios[~np.isnan(ratios)]
            assert np.all(defined <= bound), (name, defined.max())
            assert np.count_nonzero(accepted) >= 500, name


def test_criterion_5_ricci_oracle():
    with criterion(5, "Ricci FD oracle <= 1e-4 rel at h = 1e-3; |Ric|^2 identity 1e-10; scalar flat"):
        eps = 0.5
        model = ale.ALEModel(eps)
        rng = np.random.default_rng(51)
        dirs = rng.standard_normal((100, 4))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        rhos = rng.uniform(-1.0, 5.0, 100)
        for u, rho in zip(dirs, rhos):
            x = float(model.t_of_rho(rho)) * u
            closed = model.ricci_closed_form(x)
            fd = model.ricci_numeric(x, 1e-3)
            rel = np.max(np.abs(closed - fd)) / np.max(np.abs(closed))
            assert rel <= 1e-4
            expected = 192 * eps ** 4 / (rho ** 2 + 4 * eps ** 2) ** 4
            assert abs(model.ricci_norm_sq(x) - expected) / expected <= 1e-10
            assert abs(model.scalar_curvature(x)) <= 1e-10


def test_criterion_6_end_asymptotics():
    with criterion(6, "end asymptotics: |omega|^2 - alpha^2 (beta^2) <= 10 rho^-2 at rho = 1e3"):
        eps, rho = 0.1, 1000.0
        for alpha, beta, end_sign, limit in [(1.0, 0.5, 1.0, 1.0),
                                             (0.5, 1.0, -1.0, 1.0)]:
            params = ale.AKFormParams(alpha, beta, eps)
            t = float(params.model.t_of_rho(end_sign * rho))
            # the cross term is bounded by |pairing| <= 1: check both extremes
            for pairing in (-1.0, 1.0):
                norm_sq = float(ale.ak_norm_sq_closed_form(params, t, pairing))
                assert abs(norm_sq - limit) <= 10.0 / rho ** 2


def test_criterion_7_decay_gap_classifier():
    with criterion(7, "decay classifier: Kahler / FastDecay dichotomy, rho^-2 control Indeterminate"):
        p = ale.AKFormParams(1.0, 1.0, 0.1)
        for end in ("plus", "minus"):
            rep = ale.decay_classify(ale.decay_profile(p, end))
            assert rep.classification == ale.ASYMPTOTICALLY_KAHLER
            assert abs(rep.exponent) < 0.1
        rep = ale.decay_classify(
            ale.decay_profile(ale.AKFormParams(1.0, 0.0, 0.1), "minus"))
        assert rep.classification == ale.FAST_DECAY
        assert abs(rep.exponent + 4.0) <= 0.1
        rhos = np.geomspace(10, 1000, 25)
        control = ale.decay_classify([(float(r), float(r ** -2)) for r in rhos])
        assert control.classification == ale.INDETERMINATE


def test_criterion_8_energy_law():
    with criterion(8, "energy ~ eps^2 (exponent 2 +- 0.05); boundary ~ volume within 1%; constants reported"):
        eps_seq = [0.4, 0.2, 0.1, 0.05]
        alpha, beta = 1.0, 0.0
        energies = []
        for eps in eps_seq:
            params = ale.AKFormParams(alpha, beta, eps)
            energies.append(ale.grad_energy_boundary(params, 50.0))
        slope = np.polyfit(np.log(eps_seq), np.log(energies), 1)[0]
        assert abs(slope - 2.0) <= 0.05
        params = ale.AKFormParams(alpha, beta, 0.1)
        boundary = ale.grad_energy_boundary(params, 50.0)
        volume = ale.grad_energy_volume(params, 50.0)
        assert abs(volume - boundary) / boundary <= 0.01
        refs = ale.energy_reference_values(params)
        agree_area = bool(np.isclose(boundary, refs["reference_area_form"], rtol=0.05))
        agree_prose = bool(np.isclose(boundary, refs["reference_prose"], rtol=0.05))
        print(f"      energy constant: computed {boundary:.6f} "
              f"(= 8 pi^2 eps^2 (a^2+b^2) -> {refs['computed_expected']:.6f}); "
              f"area-form reference {refs['reference_area_form']:.6f} "
              f"(match: {agree_area}); prose reference "
              f"{refs['reference_prose']:.6f} (match: {agree_prose})", flush=True)


def test_criterion_9_switching_behavior():
    with criterion(9, "sup |grad omega| increases while the gradient energy decreases as eps -> 0"):
        eps_seq = [0.4, 0.2, 0.1, 0.05]
        sups = ale.sup_grad((1.0, 1.0), eps_seq)
        energies = [ale.grad_energy_boundary(ale.AKFormParams(1.0, 1.0, e), 50.0)
                    for e in eps_seq]
        assert all(b > a for a, b in zip(sups, sups[1:]))
        assert all(b < a for a, b in zip(energies, energies[1:]))


def test_criterion_10_orthogonality_and_evolution(modes_d3, modes_d2):
    with criterion(10, "shell pairings <= 1e-10 for distinct lambda; evolution cross-check 4th order"):
        for i, m1 in enumerate(modes_d3):
            for m2 in modes_d3[i + 1:]:
                if m1.lam_int != m2.lam_int:
                    assert abs(selfdual.l2_shell_orthogonality(m1, m2, 1.0)) <= 1e-10
        rng = np.random.default_rng(101)
        eta0 = CoframeField.zero()
        for c, m in zip(rng.standard_normal(len(modes_d2)), modes_d2):
            eta0 = eta0 + float(c) * m.field
        expansion = evolution.decompose_initial(eta0)
        u1 = 0.3
        exact = evolution.propagate(expansion, float(np.exp(u1)))

        def err(steps):
            diff = evolution.evolve_ode(eta0, 0.0, u1, steps) - exact
            return float(np.sqrt(max(sphere_integral(diff.norm_sq_poly()), 0.0)))

        e20, e40 = err(20), err(40)
        assert 12.0 <= e20 / e40 <= 20.0


def test_criterion_11_moser_sweep(tmp_path):
    with criterion(11, "iteration-product ratio -> 1 as c -> 0; ratio(1e-6) <= 1 + 1e-4; O(1) sweep emitted"):
        small = regularity.moser_product(1e-6)
        assert 1.0 <= small.ratio <= 1.0 + 1e-4
        ratios = [regularity.moser_product(c).ratio
                  for c in (1e-3, 1e-4, 1e-5, 1e-6)]
        assert all(b <= a for a, b in zip(ratios, ratios[1:]))
        assert all(r >= 1.0 for r in ratios)
        path = tmp_path / "moser_sweep.csv"
        regularity.moser_sweep_csv(np.geomspace(1e-6, 10.0, 25), path=str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 26
        # the order-one region is data, not an assertion: record it exceeds
        big = regularity.moser_product(1.0, N=80)
        assert big.converged
