import warnings
from math import pi

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sdforms.ale import (
    ASYMPTOTICALLY_KAHLER,
    FAST_DECAY,
    INDETERMINATE,
    AKFormParams,
    ALEModel,
    ak_form,
    ak_form_eval,
    ak_matrix_batch,
    ak_norm_sq_closed_form,
    decay_classify,
    decay_profile,
    energy_reference_values,
    frame_pairing_poly,
    grad_energy_boundary,
    grad_energy_volume,
    grad_norm_sq_batch,
    sup_grad,
)
from sdforms.frames import RIGHT_MULT
from sdforms.polys import sphere_integral
from sdforms.quadrature import s3_quadrature
from sdforms.selfdual import EVAL_BLOCK, SelfDualForm, d_residual, star_two_form


def frame_pairing_mean():
    """Sphere average of <eta_2, eta_{-2}>; vanishes identically."""
    return sphere_integral(frame_pairing_poly()) / (2.0 * pi ** 2)


def random_points(n, seed=0, lo=0.5, hi=4.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x * rng.uniform(lo, hi, size=(n, 1))


# --------------------------------------------------------------- coordinates

def test_rho_vanishes_on_minimal_sphere():
    model = ALEModel(0.1)
    assert abs(model.rho_of_t(10.0)) <= 1e-14


def test_rho_direct_value():
    assert_allclose(ALEModel(0.1).rho_of_t(100.0), 0.99)


def test_rho_t_roundtrip():
    model = ALEModel(0.1)
    ts = np.geomspace(1e-3, 1e3, 1000)
    back = model.t_of_rho(model.rho_of_t(ts))
    assert np.max(np.abs(back - ts) / ts) <= 1e-12


def test_t_of_rho_stable_on_negative_end():
    # the conjugate rewrite avoids catastrophic cancellation for rho << 0
    model = ALEModel(0.01)
    rho = -1e6
    t = float(model.t_of_rho(rho))
    assert t > 0
    assert_allclose(float(model.rho_of_t(t)), rho, rtol=1e-12)


def test_warp_identity():
    model = ALEModel(0.37)
    ts = np.geomspace(1e-2, 1e2, 1000)
    assert model.warp_identity_residual(ts).max() <= 1e-10


def test_minimal_sphere_area():
    eps = 0.23
    assert_allclose(ALEModel(eps).minimal_sphere_area(), 16 * pi ** 2 * eps ** 3,
                    rtol=1e-14)


def test_metric_eval_flat_degenerate_case():
    # eps = 0 documents the inverted flat metric with factor t^-4
    model = ALEModel(0.0)
    x = np.array([2.0, 0, 0, 0])
    assert_allclose(model.metric_eval(x), (1.0 / 16.0) * np.eye(4))
    with pytest.raises(ValueError):
        model.ricci_closed_form(x)
    with pytest.raises(ValueError):
        model.t_of_rho(1.0)


def test_underflowing_epsilon_is_flat_and_rejected():
    # below about 1.5e-162 epsilon^2 is 0 in floats: the same flat metric
    model = ALEModel(1e-300)
    for call in (lambda: model.t_of_rho(1.0), model.minimal_sphere_area,
                 lambda: model.ricci_closed_form(np.array([2.0, 0, 0, 0]))):
        with pytest.raises(ValueError, match="epsilon\\^2 = 0"):
            call()


def test_rho_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        ALEModel(0.1).rho_of_t(0.0)


# --------------------------------------------------------------- curvature

def test_ricci_closed_form_traceless_and_scalar_flat():
    model = ALEModel(0.5)
    for x in random_points(100, seed=1):
        assert abs(model.scalar_curvature(x)) <= 1e-12


def test_ricci_norm_identity():
    model = ALEModel(0.5)
    for x in random_points(100, seed=2):
        t = np.linalg.norm(x)
        rho = float(model.rho_of_t(t))
        expected = 192 * model.epsilon ** 4 / (rho ** 2 + 4 * model.epsilon ** 2) ** 4
        assert_allclose(model.ricci_norm_sq(x), expected, rtol=1e-10)


def test_ricci_numeric_matches_closed_form():
    model = ALEModel(0.5)
    x = np.array([2.0, 0.3, -0.4, 0.1])
    closed = model.ricci_closed_form(x)
    fd = model.ricci_numeric(x, 1e-3)
    rel = np.max(np.abs(closed - fd)) / np.max(np.abs(closed))
    assert rel <= 1e-4


def test_ricci_numeric_convergence_order():
    model = ALEModel(0.4)
    x = np.array([1.5, -0.7, 0.2, 0.9])
    closed = model.ricci_closed_form(x)
    errs = [np.max(np.abs(model.ricci_numeric(x, h) - closed)) for h in (2e-3, 1e-3)]
    order = np.log2(errs[0] / errs[1])
    assert 1.8 <= order <= 2.2


def test_ricci_vanishes_with_epsilon():
    x = np.array([1.3, 0.2, 0.1, -0.5])
    norms = [np.max(np.abs(ALEModel(e).ricci_closed_form(x))) for e in (0.04, 0.02, 0.01)]
    assert norms[0] > norms[1] > norms[2]
    # the eps^2 prefactor dominates once eps^2 << t^-2
    assert_allclose(norms[1] / norms[0], 0.25, rtol=0.01)


def test_ricci_numeric_stencil_guard():
    # the stencil scales with |x|, so it reaches the origin once 2h >= 1
    with pytest.raises(ValueError):
        ALEModel(0.5).ricci_numeric(np.array([1e-3, 0, 0, 0]), 0.6)


# --------------------------------------------------------------- the form

def test_ak_form_is_closed():
    sdf = ak_form(AKFormParams(1.0, 1.0, 0.3))
    x = np.array([0.9, 0.5, -0.2, 0.4])
    r = [d_residual(sdf, x, h) for h in (1e-2, 5e-3)]
    assert 3.5 <= r[0] / r[1] <= 4.5


def test_ak_form_eval_matches_closed_form_norm():
    params = AKFormParams(0.8, -1.2, 0.25)
    pairing_poly = frame_pairing_poly()
    for x in random_points(50, seed=3):
        t = np.linalg.norm(x)
        u = x / t
        _, norm_sq = ak_form_eval(params, x)
        expected = ak_norm_sq_closed_form(params, t, float(pairing_poly(u)))
        assert_allclose(norm_sq, expected, rtol=1e-10, atol=1e-14)


def ak_matrices_by_hand(params, X):
    """The form written out: alpha eps^4 times the constant Kahler matrix
    plus beta t^-4 times F^{-1}(phi^1), phi^1 = (x * e_hat_1) / t."""
    X = np.asarray(X, dtype=float)
    t = np.linalg.norm(X, axis=-1)
    n = X / t[..., None]
    xi = np.einsum("nm,...m->...n", RIGHT_MULT[0], X) / t[..., None]
    A = np.einsum("...i,...j->...ij", n, xi) - np.einsum("...i,...j->...ij", xi, n)
    star = np.zeros_like(A)
    star[..., 0, 1] = A[..., 2, 3]
    star[..., 2, 3] = A[..., 0, 1]
    star[..., 0, 2] = -A[..., 1, 3]
    star[..., 1, 3] = -A[..., 0, 2]
    star[..., 0, 3] = A[..., 1, 2]
    star[..., 1, 2] = A[..., 0, 3]
    star = star - np.swapaxes(star, -1, -2)
    w_minus = (A + star) / np.sqrt(2.0)
    w_plus = np.zeros((4, 4))
    w_plus[0, 1] = w_plus[2, 3] = 1.0 / np.sqrt(2.0)
    w_plus = w_plus - w_plus.T
    return (params.alpha * params.epsilon ** 4 * w_plus
            + (params.beta * t ** -4)[..., None, None] * w_minus)


@pytest.mark.parametrize("alpha,beta,eps", [(0.6, 0.9, 0.2), (1.0, 0.0, 0.1),
                                            (0.0, -1.3, 0.5), (2.0, 1.0, 1.0)])
def test_ak_matrix_batch_matches_hand_formula(alpha, beta, eps):
    params = AKFormParams(alpha, beta, eps)
    pts = random_points(60, seed=7).reshape(3, 20, 4)
    batch = ak_matrix_batch(params, pts)
    assert batch.shape == (3, 20, 4, 4)
    assert_allclose(batch, ak_matrices_by_hand(params, pts), rtol=0, atol=1e-12)


def test_ak_matrix_batch_consistent_with_series():
    params = AKFormParams(0.6, 0.9, 0.2)
    sdf = ak_form(params)
    pts = random_points(20, seed=4)
    batch = ak_matrix_batch(params, pts)
    for k, x in enumerate(pts):
        assert_allclose(batch[k], sdf(x), atol=1e-12)


def test_ak_form_self_dual():
    params = AKFormParams(1.0, 1.0, 0.15)
    for x in random_points(20, seed=5):
        M, _ = ak_form_eval(params, x)
        assert np.max(np.abs(star_two_form(M) - M)) <= 1e-12


def test_pairing_absolute_bound_and_zero_mean():
    # |<eta_2, eta_{-2}>| <= 1 pointwise and the sphere average vanishes
    pairing = frame_pairing_poly()
    pts = random_points(200, seed=6, lo=1.0, hi=1.0)
    vals = pairing(pts)
    assert np.max(np.abs(vals)) <= 1.0 + 1e-12
    assert abs(frame_pairing_mean()) <= 1e-14


# --------------------------------------------------------------- asymptotics

def test_plus_end_norm_approaches_alpha_squared():
    params = AKFormParams(1.0, 0.0, 0.1)
    t = float(params.model.t_of_rho(1000.0))
    norm_sq = float(ak_norm_sq_closed_form(params, t, 0.0))
    assert abs(norm_sq - 1.0) <= 10.0 / 1000.0 ** 2


def test_minus_end_norm_approaches_beta_squared():
    params = AKFormParams(0.0, 1.0, 0.1)
    t = float(params.model.t_of_rho(-1000.0))
    norm_sq = float(ak_norm_sq_closed_form(params, t, 0.0))
    assert abs(norm_sq - 1.0) <= 10.0 / 1000.0 ** 2


def test_three_asymptotic_envelopes():
    # leading coefficients of the three norm contributions at rho = +-1000
    eps = 0.1
    model = ALEModel(eps)
    rho = 1000.0
    tp = float(model.t_of_rho(rho))
    tm = float(model.t_of_rho(-rho))
    fp = eps ** 2 + tp ** -2
    fm = eps ** 2 + tm ** -2
    # alpha^2 piece: 1 - 4 eps^2/rho^2 going out, eps^8 rho^-8 going in
    a_plus = eps ** 8 * fp ** -4
    assert_allclose((1.0 - a_plus) * rho ** 2, 4 * eps ** 2, rtol=0.05)
    a_minus = eps ** 8 * fm ** -4
    assert_allclose(a_minus * rho ** 8, eps ** 8, rtol=0.05)
    # cross piece: 2 eps^4 rho^-4 on both ends (modulo the pairing factor)
    c_plus = 2 * eps ** 4 * tp ** -4 * fp ** -4
    c_minus = 2 * eps ** 4 * tm ** -4 * fm ** -4
    assert_allclose(c_plus * rho ** 4, 2 * eps ** 4, rtol=0.05)
    assert_allclose(c_minus * rho ** 4, 2 * eps ** 4, rtol=0.05)
    # beta^2 piece mirrors the alpha^2 piece
    b_plus = tp ** -8 * fp ** -4
    assert_allclose(b_plus * rho ** 8, eps ** 8, rtol=0.05)


# --------------------------------------------------------------- energy

def test_energy_boundary_vs_volume_oracle():
    params = AKFormParams(1.0, 0.0, 0.1)
    boundary = grad_energy_boundary(params, 50.0)
    volume = grad_energy_volume(params, 50.0)
    assert abs(volume - boundary) / boundary <= 0.01


def test_energy_beta_contributes_symmetrically():
    # the minus end carries the same energy in beta^2 as the plus end in alpha^2
    e_alpha = grad_energy_boundary(AKFormParams(1.0, 0.0, 0.1), 50.0)
    e_beta = grad_energy_boundary(AKFormParams(0.0, 1.0, 0.1), 50.0)
    assert_allclose(e_alpha, e_beta, rtol=1e-12)
    v_beta = grad_energy_volume(AKFormParams(0.0, 1.0, 0.1), 50.0)
    assert abs(v_beta - e_beta) / e_beta <= 0.01


def test_energy_epsilon_square_law():
    eps_seq = [0.4, 0.2, 0.1, 0.05]
    energies = [grad_energy_boundary(AKFormParams(1.0, 0.0, e), 50.0)
                for e in eps_seq]
    slope = np.polyfit(np.log(eps_seq), np.log(energies), 1)[0]
    assert abs(slope - 2.0) <= 0.05
    # doubling epsilon quadruples the energy
    assert_allclose(energies[0] / energies[1], 4.0, rtol=1e-10)


def test_energy_zero_form():
    params = AKFormParams(0.0, 0.0, 0.1)
    assert grad_energy_boundary(params, 50.0) == 0.0


def test_energy_computed_constant_vs_paper_values():
    # the computed limit is 8 pi^2 eps^2 (alpha^2 + beta^2); the report keeps
    # the two printed reference constants alongside for comparison
    params = AKFormParams(1.0, 0.0, 0.1)
    refs = energy_reference_values(params)
    computed = grad_energy_boundary(params, 100.0)
    assert_allclose(computed, refs["computed_expected"], rtol=1e-8)
    assert not np.isclose(computed, refs["reference_area_form"], rtol=0.3)
    assert not np.isclose(computed, refs["reference_prose"], rtol=0.3)


def grad_norm_sq_christoffel(params, X, h=1e-4):
    """Oracle of grad_norm_sq_batch: the dense 4^4 Christoffel tensor, by einsum.

    Returns |grad omega|^2 and the same sum with every term taken in absolute
    value, the scale of the cancellation between derivative and connection.
    """
    flat = np.asarray(X, dtype=float).reshape(-1, 4)
    t = np.linalg.norm(flat, axis=-1)
    f = params.epsilon ** 2 + t ** -2
    step = (h * t)[None, :, None] * np.eye(4)[:, None, :]
    M = ak_matrix_batch(params, np.concatenate([flat[None], flat + step, flat - step]))
    omega = M[0]
    grad = ((M[1:5] - M[5:]) / (2.0 * h * t)[None, :, None, None]).swapaxes(0, 1)
    # Gamma^p_sm = delta^p_s phi_m + delta^p_m phi_s - delta_sm phi^p, phi = grad log f
    phi = (-2.0 / t ** 4 / f)[:, None] * flat
    eye = np.eye(4)
    gamma = (np.einsum("ps,km->kpsm", eye, phi)
             + np.einsum("pm,ks->kpsm", eye, phi)
             - np.einsum("sm,kp->kpsm", eye, phi))
    conn = (np.einsum("kpsm,kpn->ksmn", gamma, omega)
            + np.einsum("kpsn,kmp->ksmn", gamma, omega))
    nabla = grad - conn
    scale = np.abs(grad) + np.abs(conn)
    return (0.5 * np.einsum("ksmn,ksmn->k", nabla, nabla) / f ** 6,
            0.5 * np.einsum("ksmn,ksmn->k", scale, scale) / f ** 6)


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.6, -1.3)])
def test_closed_form_connection_matches_christoffel_oracle(alpha, beta):
    params = AKFormParams(alpha, beta, 0.1)
    A = 100.0
    rng = np.random.default_rng(34)
    for lo, hi in ((0.0, A), (-A, 0.0)):
        t = params.model.t_of_rho(rng.uniform(lo, hi, 300))
        X = rng.standard_normal((300, 4))
        X *= (t / np.linalg.norm(X, axis=1))[:, None]
        q = grad_norm_sq_batch(params, X)
        oracle, scale = grad_norm_sq_christoffel(params, X)
        if lo == 0.0:
            # from the neck out to rho = A nothing cancels
            assert np.max(np.abs(q - oracle) / oracle) <= 1e-13
        # toward the minus end the beta t^-4 form has flat components of
        # size t^-4 whose derivative and connection terms cancel to a small
        # curved norm: the routes agree relative to the cancelling terms
        assert np.max(np.abs(q - oracle) / scale) <= 1e-13


def test_grad_norm_sq_batch_keeps_point_shape():
    params = AKFormParams(1.0, 1.0, 0.2)
    X = random_points(3 * EVAL_BLOCK // 9 + 5, seed=35).reshape(-1, 1, 4)
    q = grad_norm_sq_batch(params, X)
    assert q.shape == X.shape[:-1]
    assert_allclose(q.ravel(), grad_norm_sq_christoffel(params, X)[0], rtol=1e-13)


#: rounding floor of a central difference of step h: eps_machine |omega| / h
#: noise, with the margin kato_ratio's constant-form floor uses
STENCIL_FLOOR = 64.0 * np.finfo(float).eps / 1e-4


def test_energy_volume_compiles_once_and_sums_every_shell(monkeypatch):
    # each term is evaluated once, with unit coefficient, on the 9-point
    # stencils of the sphere rule: 9 len(pts) len(terms) evaluations however
    # many shells, one stencil slot per call; the sum over shells equals the
    # sum of grad_norm_sq_batch shell by shell to the stencil's rounding
    # floor, since the two routes round their stencil points differently
    from sdforms import ale

    params = AKFormParams(1.0, 1.0, 0.2)
    pts, ws = s3_quadrature(4)
    call = SelfDualForm.__call__
    for n_radial in (3, 6):
        rhos, wr = ale._radial_panels(params.epsilon, 20.0, n_radial)
        expected = 0.0
        for rho, w in zip(rhos, wr):
            t = float(params.model.t_of_rho(rho))
            f = params.epsilon ** 2 + t ** -2
            expected += w * float(ws @ grad_norm_sq_batch(params, t * pts)) * t ** 3 * f ** 3
        built, batches = [], []
        with monkeypatch.context() as m:
            m.setattr(ale, "ak_form", lambda p: built.append(p) or ak_form(p))
            m.setattr(SelfDualForm, "__call__",
                      lambda self, x: batches.append(np.size(x) // 4) or call(self, x))
            volume = grad_energy_volume(params, 20.0, n_radial=n_radial, n_sphere=4)
        assert_allclose(volume, expected, rtol=STENCIL_FLOOR)
        assert len(built) == 1
        assert max(batches) <= len(pts)
        assert sum(batches) == 9 * len(pts) * len(ak_form(params).terms)


@pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (0.6, -1.3)])
def test_energy_shells_match_the_per_point_route(alpha, beta):
    # every 4th shell of the eps = 0.1, A = 100 volume integral, both ends
    # and the neck, against grad_norm_sq_batch at the shell's points
    from sdforms import ale

    params = AKFormParams(alpha, beta, 0.1)
    rhos, _ = ale._radial_panels(params.epsilon, 100.0, 12)
    rhos = rhos[::4]
    pts, ws = s3_quadrature(8)
    ts = params.model.t_of_rho(rhos)
    f = params.epsilon ** 2 + ts ** -2
    per_point = (grad_norm_sq_batch(params, ts[:, None, None] * pts) @ ws) * ts ** 3 * f ** 3
    shells = ale._shell_energies(params, rhos)
    assert np.max(np.abs(shells - per_point)) <= STENCIL_FLOOR * np.max(np.abs(per_point))


def test_sphere_rule_resolves_the_energy_density():
    # the shell integrals of the density change by less than 1e-9 when the
    # sphere rule of grad_energy_volume (n_sphere = 8) is doubled; at
    # rho = +-A the density is ~5e-14, at the rounding floor of its h = 1e-4
    # stencil, and the noise there moves the shell integral by up to ~3e-7
    params = AKFormParams(1.0, 1.0, 0.1)
    A = 100.0
    rules = [s3_quadrature(8), s3_quadrature(16)]
    for rho, rtol in ((0.0, 1e-9), (0.1, 1e-9), (-0.1, 1e-9), (A, 1e-6), (-A, 1e-6)):
        t = float(params.model.t_of_rho(rho))
        coarse, fine = (float(ws @ grad_norm_sq_batch(params, t * pts)) for pts, ws in rules)
        assert abs(coarse - fine) <= rtol * abs(fine), rho


def test_energy_extrapolation_instability_flagged():
    with pytest.raises(ValueError, match="unstable"):
        grad_energy_boundary(AKFormParams(1.0, 1.0, 0.1), 0.02)


# --------------------------------------------------------------- switching

def test_sup_grad_increases_while_energy_decreases():
    eps_seq = [0.4, 0.2, 0.1]
    sups = sup_grad((1.0, 1.0), eps_seq)
    energies = [grad_energy_boundary(AKFormParams(1.0, 1.0, e), 50.0)
                for e in eps_seq]
    assert all(b > a for a, b in zip(sups, sups[1:]))
    assert all(b < a for a, b in zip(energies, energies[1:]))


def test_sup_grad_zero_form():
    assert sup_grad((0.0, 0.0), [0.2, 0.1]) == [0.0, 0.0]


def test_sup_grad_validates_sequence():
    with pytest.raises(ValueError):
        sup_grad((1.0, 1.0), [0.1, 0.2])


# --------------------------------------------------------------- decay

def test_decay_plus_end_kahler():
    report = decay_classify(decay_profile(AKFormParams(1.0, 1.0, 0.1), "plus"))
    assert report.classification == ASYMPTOTICALLY_KAHLER
    assert abs(report.exponent) < 0.1


def test_decay_minus_end_fast_for_beta_zero():
    report = decay_classify(decay_profile(AKFormParams(1.0, 0.0, 0.1), "minus"))
    assert report.classification == FAST_DECAY
    assert abs(report.exponent + 4.0) <= 0.1


def test_decay_synthetic_control_indeterminate():
    rhos = np.geomspace(10, 1000, 30)
    profile = [(float(r), float(r ** -2)) for r in rhos]
    report = decay_classify(profile)
    assert report.classification == INDETERMINATE
    assert_allclose(report.exponent, -2.0, atol=1e-12)


@pytest.mark.parametrize("end", ["plus", "minus"])
@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])
def test_decay_fit_matches_polyfit(alpha, beta, end):
    # the closed-form fit on centred sums is the least-squares line of
    # np.polyfit; its residual is a difference of numbers near log|omega|
    # and agrees to rounding of those, not of itself
    profile = decay_profile(AKFormParams(alpha, beta, 0.1), end)
    x = np.log(np.abs([r for r, _ in profile]))
    y = np.log([v for _, v in profile])
    slope, intercept = np.polyfit(x, y, 1)
    report = decay_classify(profile)
    assert report.exponent == pytest.approx(slope, rel=1e-12)
    residual = np.sqrt(np.mean((y - slope * x - intercept) ** 2))
    assert abs(report.residual - residual) <= 1e-12 * np.max(np.abs(y))


def test_decay_classifier_validation():
    with pytest.raises(ValueError, match="10 samples"):
        decay_classify([(1.0, 1.0)] * 5)
    rhos = np.geomspace(10, 1000, 20)
    profile = [(float(r), 1.0) for r in rhos]
    profile[5], profile[6] = profile[6], profile[5]
    with pytest.raises(ValueError, match="monotone"):
        decay_classify(profile)
    narrow = [(float(r), 1.0) for r in np.linspace(10, 20, 15)]
    with pytest.raises(ValueError, match="decade"):
        decay_classify(narrow)
    with pytest.raises(ValueError, match="finite.*got nan at rho = 10"):
        decay_classify([(float(r), float("nan")) for r in rhos])


def test_profile_is_finite_and_silent_at_extreme_rho():
    # rho^2 and t^-8 overflowed here, leaving NaN values and RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps, end in [(0.5, "plus"), (0.5, "minus"), (1e-150, "minus")]:
            profile = decay_profile(AKFormParams(1.0, 1.0, eps), end=end, rho_max=1.7e308)
            values = np.array([v for _, v in profile])
            assert np.all(np.isfinite(values)), (eps, end)
            assert values[-1] == pytest.approx(1.0)


def test_decay_classifier_decade_test_does_not_overflow():
    # max / min of these radii overflows a float
    wide = [(float(r), 1.0) for r in np.geomspace(1e-300, 1e10, 20)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert decay_classify(wide).classification == ASYMPTOTICALLY_KAHLER


def test_decay_never_indeterminate_on_generated_forms():
    for alpha, beta in [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.5, -2.0)]:
        if alpha == 0.0 and beta == 0.0:
            continue
        params = AKFormParams(alpha, beta, 0.1)
        for end in ("plus", "minus"):
            coeff = alpha if end == "plus" else beta
            profile = decay_profile(params, end)
            if all(v > 0 for _, v in profile):
                report = decay_classify(profile)
                assert report.classification != INDETERMINATE
                if coeff != 0.0:
                    assert report.classification == ASYMPTOTICALLY_KAHLER
                else:
                    assert report.classification == FAST_DECAY
