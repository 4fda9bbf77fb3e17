"""Command-line verification pipelines and report emission.

Subcommands
-----------
spectrum     eigenvalue/multiplicity report of *d on divergence-free fields
evolve       Runge-Kutta evolution of an initial field from a JSON file,
             cross-checked against the spectral propagator
verify       fixed named check suites: frames | hodge | kato | orthogonality
             | elliptic
ale-report   curvature, asymptotics, energy and decay report of the 2-ended
             model
moser        sweep of the iteration product ratio against its claimed bound
decay        decay classification of one end of the 2-ended model

All reports are JSON on stdout (floats fixed to 12 significant digits, keys
sorted, so identical configurations give byte-identical output).  Sampling
is seeded (``sampling.Sampler``: the standard library's Mersenne Twister,
53-bit uniforms and Box-Muller normals) and the seed is recorded in the
report.  Exit codes: 0 all checks passed, 1 at least one failure
(machine-readable failure records in the report), 2 usage errors.  A JSON config file with a schema_version field
supplies per-subcommand defaults; explicit flags win over the file.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import ale, evolution, regularity, selfdual, spectrum
from .frames import hodge_star_s3, left_frame_at, right_frame_at, structure_residual
from .polys import left_invariant_coframe, make_basis, right_invariant_coframe
from .sampling import Sampler
from .spectrum import failure

__all__ = ["main", "dispatch"]

DEFAULT_SEED = 20240817
CONFIG_SCHEMA_VERSION = 1
KATO_BOUND = 2.0 / 3.0 + 1e-6
KATO_DEFAULT_H = 1e-4
SHELL_RADII = (0.5, 1.0, 2.0)


def _round_floats(obj, digits=12):
    if isinstance(obj, (float, np.floating)):
        return float(f"{obj:.{digits}e}") if math.isfinite(obj) else float(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _annulus_samples(n, seed, lo=0.4, hi=2.5):
    """Uniform directions at radii uniform in [lo, hi]; lo = hi = 1 is S^3."""
    sampler = Sampler(seed)
    return sampler.directions(n) * sampler.uniform(lo, hi, (n, 1))


# ------------------------------------------------------------- subcommands

def cmd_spectrum(args):
    modes, report = spectrum.eigen_decompose(
        args.degree, ring="exact" if args.exact else "float")
    return report.verify(), report.to_json()


def _power_is_finite(value, p):
    try:
        return math.isfinite(abs(value) ** p)
    except OverflowError:
        return False


def _check_flags(args, positive=(), finite=(), counts=(), squared=(), powers=()):
    """Reject out-of-range numeric flags, naming the flag, before any work.

    ``squared`` flags enter as their square, which must not underflow to 0.
    ``powers`` holds (flag, p) pairs: the computation takes the flag's p-th
    power, which must be finite (for p < 0 the flag must not be too small).
    """
    rules = ([(f, "finite and > 0", lambda v: math.isfinite(v) and v > 0) for f in positive]
             + [(f, "finite", math.isfinite) for f in finite]
             + [(f, ">= 1", lambda v: v >= 1) for f in counts]
             + [(f, "large enough that its square is > 0 (about 1.5e-162)",
                 lambda v: v * v > 0) for f in squared]
             + [(f, f"{'small' if p > 0 else 'large'} enough that {f}^{p} is finite "
                    f"(about {sys.float_info.max ** (1.0 / p):.3g})",
                 lambda v, p=p: _power_is_finite(v, p)) for f, p in powers])
    for flag, rule, holds in rules:
        value = getattr(args, flag)
        if not holds(value):
            raise ValueError(f"--{flag.replace('_', '-')} must be {rule}, got {value}")


def _check_growth(args, D, norm):
    """Reject, naming --t1, a ratio t = t1/t0 whose largest mode factor
    max(t^D, t^(-D-2)) takes the propagated field's squared L^2 norm past the
    float range.  The eigencomponents are L^2-orthogonal, so that norm is at
    most the factor squared times ||eta0||^2 = norm^2; it is compared in
    logarithms, so the bound itself cannot overflow.
    """
    u = math.log(args.t1) - math.log(args.t0)
    log_sq = 2 * max(D * u, -(D + 2) * u) + (2 * math.log(norm) if norm > 0 else -math.inf)
    if not log_sq < math.log(sys.float_info.max):
        raise ValueError(
            f"--t1 must keep the propagated field finite: with --t0 {args.t0} the largest "
            f"mode factor max((t1/t0)^{D}, (t1/t0)^{-D - 2}) takes its squared L^2 norm to "
            f"about 1e{log_sq / math.log(10):.0f}, past the float range")


def cmd_evolve(args):
    _check_flags(args, positive=("t0", "t1"), counts=("steps",))
    if args.t1 == args.t0:
        raise ValueError(f"--t1 must differ from --t0, both are {args.t0}: "
                         "no evolution to compare")
    eta0 = evolution.load_initial_field(args.init)
    D = eta0.degree
    size0 = evolution.gram_norm(D, make_basis(D).coframe_to_vector(eta0))
    _check_growth(args, D, size0)
    # divergence and the eigencomponents' certificate are judged relative to the field
    tol = evolution.DIV_TOL * size0
    failures = []
    u0, u1 = math.log(args.t0), math.log(args.t1)
    result = evolution.evolve_ode(eta0, u0, u1, args.steps)
    div_after = evolution.div_residual(result)
    if not div_after <= tol:
        failures.append(failure("maxwell", "evolve_ode", {"steps": args.steps},
                                div_after, tol, "divergence not conserved"))
    expansion = evolution.decompose_initial(eta0)
    cross = None
    if expansion.residual <= tol:
        t = args.t1 / args.t0
        err = expansion.distance(result, t)
        err_fine = expansion.distance(evolution.evolve_ode(eta0, u0, u1, 2 * args.steps), t)
        # the comparison's own rounding: the certificate grown by the largest mode
        # factor, and one rounding of the larger field norm (at t0 or t1) per step
        # of the doubled run; at or below it the ratio measures nothing
        size = max(size0, evolution.gram_norm(D, expansion.coefficients(t)))
        floor = float(expansion.residual * (t ** (expansion.lam - 2.0)).max()
                      + 2 * args.steps * np.finfo(float).eps * size)
        ratio = err / err_fine if err_fine > floor else None
        cross = {"error": err, "error_double_steps": err_fine,
                 "step_doubling_ratio": ratio, "rounding_floor": floor}
        if ratio is not None and ratio < 8.0:
            failures.append(failure(
                "maxwell", "evolve_ode", {"steps": args.steps}, ratio, 8.0,
                "step doubling does not show fourth-order convergence"))
    else:
        failures.append(failure(
            "maxwell", "decompose_initial", {"degree": D}, expansion.residual, tol,
            "eigencomponents fail their *d certificate; spectral cross-check skipped"))
    return failures, {
        "t0": args.t0,
        "t1": args.t1,
        "steps": args.steps,
        "divergence_residual": div_after,
        "decomposition_residual": expansion.residual,
        "spectral_cross_check": cross,
        "final_field": evolution.dump_initial_field(result),
    }


def _verify_frames(args):
    failures = []
    pts = _annulus_samples(args.samples, args.seed, lo=1.0, hi=1.0)
    worst_structure = 0.0
    worst_orth = 0.0
    for p in pts:
        worst_structure = max(worst_structure, structure_residual(p),
                              structure_residual(p, frame="right"))
        for frame in (left_frame_at(p), right_frame_at(p)):
            gram = frame @ frame.T
            worst_orth = max(worst_orth, float(np.max(np.abs(gram - np.eye(3)))))
    if worst_structure > 1e-12:
        failures.append(failure("frame_calculus", "structure_residual", {},
                                worst_structure, 1e-12, "structure equations"))
    if worst_orth > 1e-12:
        failures.append(failure("frame_calculus", "frames", {},
                                worst_orth, 1e-12, "orthonormality"))
    worst_star = 0.0
    for xi in Sampler(args.seed + 1).normal((50, 3)):
        back = hodge_star_s3(hodge_star_s3(xi, 1), 2)
        worst_star = max(worst_star, float(np.max(np.abs(back - xi))))
    if worst_star > 1e-12:
        failures.append(failure("frame_calculus", "hodge_star_s3", {},
                                worst_star, 1e-12, "star involution"))
    return failures, {
        "max_structure_residual": worst_structure,
        "max_orthonormality_defect": worst_orth,
        "max_star_involution_defect": worst_star,
        "samples": args.samples,
    }


def _verify_hodge(args):
    failures = []
    rep = spectrum.hodge_laplacian_check(args.degree)
    if rep["mu_min"] < 4 - 1e-8:
        failures.append(failure("spectral", "hodge_laplacian_check",
                                {"degree": args.degree}, rep["mu_min"],
                                4 - 1e-8, "Hodge Laplacian below 4"))
    if rep["max_square_pairing_deviation"] > 1e-7:
        failures.append(failure("spectral", "hodge_laplacian_check",
                                {"degree": args.degree},
                                rep["max_square_pairing_deviation"], 1e-7,
                                "mu values are not the squared *d eigenvalues"))
    defect = rep["subspace_invariance_defect"]
    if defect > 1e-10:
        failures.append(failure("spectral", "divergence_free_subspace",
                                {"degree": args.degree}, defect, 1e-10,
                                "subspace not *d-invariant"))
    return failures, rep


def _verify_kato(args):
    failures = []
    forms = {
        "ak_mixed": ale.ak_form(ale.AKFormParams(1.0, 1.0, 0.2)),
        "pure_minus_two": selfdual.SelfDualForm(
            [(1.0, -2, right_invariant_coframe(1))]),
        "kahler_plus_decaying": selfdual.SelfDualForm(
            [(0.5, 2, left_invariant_coframe(1)),
             (1.5, -2, right_invariant_coframe(2))]),
    }
    worst = {}
    evaluated = {}
    pts = _annulus_samples(args.samples, args.seed)
    for name, sdf in forms.items():
        # rejected points and points where the ratio is undefined are NaN
        ratios, _ = selfdual.kato_ratio(sdf, pts, KATO_DEFAULT_H)
        ratios = ratios[~np.isnan(ratios)]
        evaluated[name] = ratios.size
        worst[name] = float(ratios.max()) if ratios.size else None
        if not ratios.size:
            failures.append(failure("selfdual_r4", "kato_ratio", {"form": name},
                                    0, 1, "no point with a defined Kato ratio"))
        elif worst[name] > KATO_BOUND:
            failures.append(failure("selfdual_r4", "kato_ratio", {"form": name},
                                    worst[name], KATO_BOUND,
                                    "sharpened Kato bound violated"))
    return failures, {"max_ratio_per_form": worst, "points_evaluated_per_form": evaluated,
                      "bound": KATO_BOUND, "samples": args.samples, "h": KATO_DEFAULT_H}


def _verify_orthogonality(args):
    failures = []
    modes = spectrum.eigenmodes(args.degree)
    lam = modes.lam_int
    i, j = np.triu_indices(len(modes), k=1)
    distinct = lam[i] != lam[j]
    i, j = i[distinct], j[distinct]
    n_pairs = len(i)
    worst_shell = max(float(np.max(np.abs(selfdual.shell_pairings(modes, t)[i, j]),
                                   initial=0.0))
                      for t in SHELL_RADII)
    if n_pairs == 0:
        failures.append(failure("selfdual_r4", "shell_pairings",
                                {"degree": args.degree}, n_pairs, 1,
                                "no distinct eigenvalue pairs to check"))
    if worst_shell > 1e-10:
        failures.append(failure("selfdual_r4", "shell_pairings",
                                {"degree": args.degree}, worst_shell, 1e-10,
                                "distinct eigenvalue shells not orthogonal"))
    return failures, {"max_shell_pairing": worst_shell,
                      "distinct_pairs_checked": n_pairs, "degree": args.degree}


def _verify_elliptic(args):
    failures = []
    sdf = ale.ak_form(ale.AKFormParams(1.0, 1.0, 0.2))
    h = 1e-4
    pts = _annulus_samples(args.samples, args.seed, lo=0.5, hi=3.0)
    coarse, accepted = regularity.sqrt_elliptic_check(sdf, pts, 2 * h)
    # a point accepted at 2h has its stencil at h inside the annulus too
    pts, coarse = pts[accepted], coarse[accepted]
    worst = worst_x = None
    if not len(pts):
        failures.append(failure("regularity", "sqrt_elliptic_check", {}, 0, 1,
                                "no point where |omega|^(1/2) could be checked"))
    else:
        tol = 2.0 * np.maximum(np.abs(coarse) / (2 * h) ** 2, 1.0) * h ** 2 + 5e-6
        val, _ = regularity.sqrt_elliptic_check(sdf, pts, h)
        # margin = value + tolerance, positive wherever the check passes
        margin = val + tol
        worst, worst_x = float(margin.min()), list(map(float, pts[np.argmin(margin)]))
        bad = val < -tol
        for x, v, bound in zip(pts[bad], val[bad], -tol[bad]):
            failures.append(failure("regularity", "sqrt_elliptic_check",
                                    {"x": list(map(float, x))}, float(v), float(bound),
                                    "sqrt-norm subharmonicity violated"))
    return failures, {"points_checked": len(pts), "h": h,
                      "worst_margin": worst, "worst_margin_x": worst_x}


VERIFY_SUITES = {
    "frames": _verify_frames,
    "hodge": _verify_hodge,
    "kato": _verify_kato,
    "orthogonality": _verify_orthogonality,
    "elliptic": _verify_elliptic,
}


def cmd_verify(args):
    _check_flags(args, counts=("samples",))
    failures, details = VERIFY_SUITES[args.suite](args)
    return failures, {"suite": args.suite, "details": details}


def _ric_sq(epsilon, rho):
    """Closed form of |Ric|^2 on the 2-ended model at signed distance rho.

    Where (rho^2 + 4 epsilon^2)^4 leaves the float range the value is 0.
    """
    with np.errstate(over="ignore"):
        return 192 * epsilon ** 4 / (rho ** 2 + 4 * epsilon ** 2) ** 4


def _mean_norm_sq(params, rho):
    """Sphere average of |omega|^2 at rho; the <eta_2, eta_-2> term averages out."""
    return float(ale.ak_norm_sq_closed_form(params, float(params.model.t_of_rho(rho)), 0.0))


def _ale_curvature(args, params):
    # closed-form identities over the full window, the finite-difference
    # oracle where its stencil resolves the metric, with the O(h^2) contract
    # certified by step-doubling at the worst point
    failures = []
    model = params.model
    sampler = Sampler(args.seed)
    dirs = sampler.directions(args.ricci_samples)
    rhos_id = sampler.uniform(-5.0, 5.0, args.ricci_samples)
    X = model.t_of_rho(rhos_id)[:, None] * dirs
    expected = _ric_sq(params.epsilon, rhos_id)
    worst_norm = float(np.max(np.abs(model.ricci_norm_sq(X) - expected) / expected))
    worst_scalar = float(np.max(np.abs(model.scalar_curvature(X))))
    rhos_fd = sampler.uniform(-1.0, 5.0, args.ricci_samples)
    X = model.t_of_rho(rhos_fd)[:, None] * dirs
    closed = model.ricci_closed_form(X)
    rel = (np.max(np.abs(closed - model.ricci_numeric(X, args.h)), axis=(1, 2))
           / np.max(np.abs(closed), axis=(1, 2)))
    worst = int(np.argmax(rel))
    worst_fd, worst_x = float(rel[worst]), X[worst]
    order = None
    if worst_fd > 1e-9:
        closed = model.ricci_closed_form(worst_x)
        coarse = float(np.max(np.abs(closed - model.ricci_numeric(worst_x, 2 * args.h)))
                       / np.max(np.abs(closed)))
        order = float(np.log2(coarse / worst_fd))
        if not 1.5 <= order <= 2.6:
            failures.append(failure("ale_models", "ricci_numeric",
                                    {"h": args.h}, order, [1.5, 2.6],
                                    "oracle not converging at second order"))
    if worst_fd > 1e-2:
        failures.append(failure("ale_models", "ricci_numeric", {"h": args.h},
                                worst_fd, 1e-2, "oracle disagrees"))
    if worst_norm > 1e-10:
        failures.append(failure("ale_models", "ricci_closed_form", {},
                                worst_norm, 1e-10, "|Ric|^2 identity violated"))
    if worst_scalar > 1e-10:
        failures.append(failure("ale_models", "ricci_closed_form", {},
                                worst_scalar, 1e-10, "scalar curvature nonzero"))
    return failures, {"max_fd_relative_error": worst_fd,
                      "fd_convergence_order": order,
                      "fd_meets_1e-4": bool(worst_fd <= 1e-4),
                      "max_norm_identity_error": worst_norm,
                      "max_scalar_curvature": worst_scalar,
                      "h": args.h, "samples": args.ricci_samples}


def _ale_asymptotics(args, params):
    failures = []
    asym = {}
    bound = 10.0 / args.rho_max ** 2
    for end, rho, coeff in (("plus_end", args.rho_max, args.alpha),
                            ("minus_end", -args.rho_max, args.beta)):
        norm_sq = _mean_norm_sq(params, rho)
        # in closed form: norm_sq - coeff^2 would measure the rounding of norm_sq
        deviation = abs(float(ale.ak_norm_sq_end_deviation(
            params, params.model.t_of_rho(rho), end == "plus_end")))
        asym[end] = {"norm_sq": norm_sq, "limit": coeff ** 2,
                     "deviation": deviation, "bound": bound}
        if deviation > bound:
            failures.append(failure("ale_models", "ak_form_eval",
                                    {"end": end, "rho": rho}, deviation, bound,
                                    "end asymptotics out of envelope"))
    return failures, asym


def _ale_energy(args, params):
    if params.alpha == 0.0 and params.beta == 0.0:
        return [], {"boundary": 0.0, "volume": 0.0, "relative_agreement": 0.0}
    # the cut-off lies well outside the neck, whose width is about epsilon
    # for large epsilon and whose energy spreads out to rho ~ 1/epsilon for small
    A = max(20.0, 20.0 * params.epsilon, 10.0 / params.epsilon)
    boundary = ale.grad_energy_boundary(params, A)
    if boundary == 0.0:
        raise ValueError(f"boundary energy underflows to 0 for the non-zero form "
                         f"alpha = {params.alpha}, beta = {params.beta}")
    if not math.isfinite(boundary):
        raise ValueError(f"boundary energy is {boundary}, past the float range, for "
                         f"alpha = {params.alpha}, beta = {params.beta}, "
                         f"epsilon = {params.epsilon}")
    volume = ale.grad_energy_volume(params, A)
    rel = abs(volume - boundary) / abs(boundary)
    refs = ale.energy_reference_values(params)
    failures = []
    if rel > 0.01:
        failures.append(failure("ale_models", "grad_energy_boundary",
                                {"A": A}, rel, 0.01,
                                "boundary and volume energies disagree"))
    return failures, {
        "cutoff": A,
        "boundary": boundary,
        "volume": volume,
        "relative_agreement": rel,
        "computed_constant": refs["computed_expected"],
        "reference_area_form": refs["reference_area_form"],
        "reference_prose": refs["reference_prose"],
        "matches_area_form": bool(np.isclose(boundary, refs["reference_area_form"],
                                             rtol=0.05)),
        "matches_prose": bool(np.isclose(boundary, refs["reference_prose"], rtol=0.05)),
    }


def _decay_end(params, end, rho_max):
    """Failures, classification and profile of one end of the 2-ended model.

    Only the zero form is classified "Zero", and its profile must vanish;
    any other form must give a positive profile, or ``decay_classify`` raises.
    """
    profile = ale.decay_profile(params, end, rho_min=10.0, rho_max=rho_max)
    if params.alpha == 0.0 and params.beta == 0.0:
        for rho, value in profile:
            if value != 0.0:
                raise ValueError(f"the profile of the zero form must vanish, "
                                 f"got {value} at rho = {rho}")
        return [], {"classification": "Zero", "exponent": None}, profile
    rep = ale.decay_classify(profile)
    coeff = params.alpha if end == "plus" else params.beta
    expected = ale.ASYMPTOTICALLY_KAHLER if coeff != 0.0 else ale.FAST_DECAY
    failures = []
    if rep.classification != expected:
        failures.append(failure("ale_models", "decay_classify", {"end": end},
                                rep.classification, expected,
                                "decay classification off the dichotomy"))
    return failures, rep.to_json(), profile


def _ale_decay(args, params):
    failures = []
    decay = {}
    for end in ("plus", "minus"):
        found, decay[end], _ = _decay_end(params, end, args.rho_max)
        failures += found
    return failures, decay


#: the check blocks of ``ale-report`` in the order they run, by report key
ALE_BLOCKS = {
    "ricci_check": _ale_curvature,
    "asymptotics": _ale_asymptotics,
    "energy": _ale_energy,
    "decay": _ale_decay,
}


def cmd_ale_report(args):
    # the energy takes alpha^2, beta^2 and epsilon^8, the asymptotics rho_max^-2;
    # the boundary energy's radial derivative takes t^-9 at t ~ 1 / epsilon (the
    # inner sphere at large epsilon) and f^-5 with f ~ epsilon^2 (the outer sphere
    # at small epsilon, where t^-9 at t ~ epsilon / 10 stays finite longer); that
    # bound also keeps the |x|^4 of the curvature window -5 <= rho <= 5 finite
    _check_flags(args, positive=("epsilon", "rho_max", "h"), finite=("alpha", "beta"),
                 counts=("ricci_samples",), squared=("epsilon", "rho_max"),
                 powers=(("alpha", 2), ("beta", 2), ("epsilon", 9), ("epsilon", -10),
                         ("rho_max", 2)))
    params = ale.AKFormParams(args.alpha, args.beta, args.epsilon)
    failures = []
    report = {"epsilon": args.epsilon, "alpha": args.alpha, "beta": args.beta}
    for key, block in ALE_BLOCKS.items():
        found, report[key] = block(args, params)
        failures += found
    return failures, report


def _ale_profile_csv(args, report):
    params = ale.AKFormParams(args.alpha, args.beta, args.epsilon)
    rows = ["rho,norm_sq,ric_sq"]
    for rho in np.linspace(-args.rho_max, args.rho_max, 201):
        if abs(rho) < 1e-9:
            rho = 0.0
        rows.append(f"{rho:.12e},{_mean_norm_sq(params, rho):.12e},"
                    f"{_ric_sq(args.epsilon, rho):.12e}")
    return "\n".join(rows) + "\n"


def cmd_moser(args):
    _check_flags(args, positive=("c_min", "c_max"), counts=("points",))
    failures = []
    cs = np.geomspace(args.c_min, args.c_max, args.points)
    csv_text = regularity.moser_sweep_csv(cs)
    small = regularity.moser_product(1e-6)
    if not (1.0 <= small.ratio <= 1.0 + 1e-4):
        failures.append(failure("regularity", "moser_product", {"c": 1e-6},
                                small.ratio, 1 + 1e-4,
                                "small-c ratio not tending to one"))
    big = regularity.moser_product(1.0, N=60)
    return failures, {
        "c_min": args.c_min,
        "c_max": args.c_max,
        "points": args.points,
        "ratio_at_1e-6": small.ratio,
        "ratio_at_1": big.ratio,
        "printed_bound_holds_at_1": big.ratio <= 1.0,
        "sweep_csv": csv_text.splitlines(),
    }


def _moser_sweep_csv(args, report):
    return "\n".join(report["sweep_csv"]) + "\n"


def cmd_decay(args):
    _check_flags(args, positive=("epsilon", "rho_max"), finite=("alpha", "beta"),
                 squared=("epsilon",), powers=(("alpha", 2), ("beta", 2), ("epsilon", 2)))
    params = ale.AKFormParams(args.alpha, args.beta, args.epsilon)
    failures, decay, profile = _decay_end(params, args.end, args.rho_max)
    return failures, {
        "epsilon": args.epsilon,
        "alpha": args.alpha,
        "beta": args.beta,
        "end": args.end,
        "decay": decay,
        "profile_head": [[r, v] for r, v in profile[:5]],
    }


# ------------------------------------------------------------- plumbing

#: the files ``--output`` writes beside the JSON report, by subcommand
ARTIFACTS = {
    "ale-report": {"ale_profile.csv": _ale_profile_csv},
    "moser": {"moser_sweep.csv": _moser_sweep_csv},
}


def _report_name(args):
    """File name of the JSON report under ``--output``."""
    if args.command == "spectrum":
        return f"spectrum_d{args.degree}.json"
    if args.command == "verify":
        return f"verify_{args.suite}.json"
    return args.command.replace("-", "_") + ".json"


def _run(args):
    """Run one subcommand and emit its report; the exit code is 0 or 1.

    The subcommand returns ``(failures, fields)``.  The report is the fields
    plus ``seed``, ``status`` and ``failures``; with ``--output`` it is also
    written to the subcommand's report file, beside its other artifacts.
    """
    failures, report = args.func(args)
    report.update(seed=args.seed, status="fail" if failures else "pass",
                  failures=failures)
    blob = json.dumps(_round_floats(report), indent=1, sort_keys=True, allow_nan=False)
    print(blob)
    if args.output:
        files = {_report_name(args): blob + "\n"}
        files.update((name, write(args, report))
                     for name, write in ARTIFACTS.get(args.command, {}).items())
        os.makedirs(args.output, exist_ok=True)
        for name, text in files.items():
            with open(os.path.join(args.output, name), "w") as fh:
                fh.write(text)
    return 1 if failures else 0


def _build_parser():
    # the common flags are accepted both before and after the subcommand;
    # SUPPRESS keeps an unset subparser flag from clobbering the top-level one
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON config file with defaults")
    common.add_argument("--output", default=argparse.SUPPRESS,
                        help="directory for report artifacts")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    top = argparse.ArgumentParser(
        prog="sdforms", parents=[common],
        description="verification pipelines for the sphere spectral calculus")
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(name, func, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(func=func)
        return p

    p = add_parser("spectrum", cmd_spectrum, help="eigenvalue report of *d")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--exact", action="store_true",
                   help="exact integer kernel ranks instead of a float solver")

    p = add_parser("evolve", cmd_evolve, help="evolve an initial field")
    p.add_argument("--init", required=True, help="JSON initial-data file")
    p.add_argument("--t0", type=float, default=1.0)
    p.add_argument("--t1", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=100)

    p = add_parser("verify", cmd_verify, help="named check suites")
    p.add_argument("suite", choices=sorted(VERIFY_SUITES))
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--samples", type=int, default=500)

    p = add_parser("ale-report", cmd_ale_report, help="2-ended model report")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--rho-max", type=float, default=1000.0)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--ricci-samples", type=int, default=100)

    p = add_parser("moser", cmd_moser, help="iteration product sweep")
    p.add_argument("--c-min", type=float, default=1e-8)
    p.add_argument("--c-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=33)

    p = add_parser("decay", cmd_decay, help="decay classification of one end")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--end", choices=["plus", "minus"], required=True)
    p.add_argument("--rho-max", type=float, default=1000.0)
    return top


def _apply_config(args, parser, argv):
    """Defaults from the config file's section for the subcommand.

    Each key must name a flag of the subcommand, and its value goes through
    the flag's type; explicit flags win over the file.
    """
    if not args.config:
        return args
    with open(args.config) as fh:
        cfg = json.load(fh)
    if cfg.get("schema_version") != CONFIG_SCHEMA_VERSION:
        parser.error(f"unsupported config schema_version {cfg.get('schema_version')!r}")
    subparsers, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in subparsers.choices[args.command]._actions
             if a.option_strings and a.dest != "help"}
    explicit = {a.lstrip("-").replace("-", "_").split("=")[0]
                for a in argv if a.startswith("--")}
    for key, value in cfg.get(args.command, {}).items():
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            parser.error(f"config key {key!r} is not a flag of {args.command}")
        if flag.dest in explicit:
            continue
        try:
            setattr(args, flag.dest, flag.type(value) if flag.type else value)
        except (TypeError, ValueError):
            parser.error(f"config key {key!r} must be {flag.type.__name__}, got {value!r}")
    return args


def dispatch(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    defaults = argparse.Namespace(config=None, output=None, seed=DEFAULT_SEED)
    args = _apply_config(parser.parse_args(argv, defaults), parser, argv)
    try:
        return _run(args)
    except (ValueError, OverflowError, OSError) as exc:
        # an OverflowError means a flag put the model outside the float range
        print(json.dumps({"status": "error", "message": str(exc)}))
        return 2


def main(argv=None):
    return sys.exit(dispatch(argv))


if __name__ == "__main__":
    main()
