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
(machine-readable failure records in the report; a check that raises
ArithmeticError or LinAlgError is one), 2 usage errors: an error in the
arguments or the config file prints argparse's usage message on stderr and
nothing on stdout, one found after parsing prints the report
{"status": "error", "message": ...}.  A JSON config file with a
schema_version field supplies per-subcommand defaults; explicit flags win
over the file.  Each subcommand's block in ``_build_parser`` declares its
flags, their ranges, its report file and its artifacts; a flag out of range
is found once the config file is applied, before any work, and named.
"""

# Every layer module is imported here, before the standard library: the
# benchmark's traced bootstrap wraps the layers right after importing this
# module, and this is the load order a fresh `python -m sdforms.cli` had when
# the package imported its layers eagerly.  The heap layout, and with it the
# process's peak RSS, follows the load order.
from . import ale, evolution, regularity, selfdual, spectrum
from .frames import hodge_star_s3, left_frame_at, right_frame_at, structure_residual
from .polys import left_invariant_coframe, make_basis, right_invariant_coframe
from .sampling import Sampler

import argparse
import json
import math
import operator
import os
import sys

import numpy as np

__all__ = ["main", "dispatch"]

DEFAULT_SEED = 20240817
CONFIG_SCHEMA_VERSION = 1
KATO_BOUND = 2.0 / 3.0 + 1e-6
KATO_DEFAULT_H = 1e-4
RICCI_H = 1e-3
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
    pts = sampler.directions(n)
    pts *= sampler.uniform(lo, hi, (n, 1))
    return pts


def failure(module, operation, inputs, observed, tolerance, reason):
    """One machine-readable failure record, the form every report uses."""
    return {"module": module, "operation": operation, "input": inputs,
            "observed": observed, "tolerance": tolerance, "reason": reason}


def bound(failures, module, operation, inputs, observed, tolerance, reason, above=False):
    """Append the failure record of one value checked against one bound.

    The check passes when ``observed <= tolerance``, or ``observed >=
    tolerance`` with ``above``, or ``lo <= observed <= hi`` for a ``(lo, hi)``
    tolerance; anything else, NaN included, fails.
    """
    lo, hi = tolerance if isinstance(tolerance, tuple) else (
        (tolerance, math.inf) if above else (-math.inf, tolerance))
    if not lo <= observed <= hi:
        failures.append(failure(module, operation, inputs, observed, tolerance, reason))


# ------------------------------------------------------------- subcommands

def cmd_spectrum(args):
    report = spectrum.eigen_decompose(args.degree, ring="exact" if args.exact else "float")
    return _spectrum_checks(report), report.to_json()


def _power_is_finite(value, p):
    try:
        return math.isfinite(abs(value) ** p)
    except OverflowError:
        return False


def _check_flags(args, positive=(), finite=(), limits=(), squared=(), powers=()):
    """Reject out-of-range numeric flags, naming the flag, before any work.

    ``limits`` holds (flag, op, limit) triples, op ">=", "<" or "<=": the flag
    must compare so with the limit (">= 1" for a count).  ``squared`` flags
    enter as their square, which must not underflow to 0.  ``powers`` holds
    (flag, p) pairs: the computation takes the flag's p-th power, which must
    be finite (for p < 0 the flag must not be too small).
    """
    compare = {">=": operator.ge, "<": operator.lt, "<=": operator.le}
    rules = ([(f, "finite and > 0", lambda v: math.isfinite(v) and v > 0) for f in positive]
             + [(f, "finite", math.isfinite) for f in finite]
             + [(f, f"{op} {limit}", lambda v, op=op, limit=limit: compare[op](v, limit))
                for f, op, limit in limits]
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
    if args.t1 == args.t0:
        raise ValueError(f"--t1 must differ from --t0, both are {args.t0}: "
                         "no evolution to compare")
    eta0 = evolution.load_initial_field(args.init)
    D = eta0.degree
    basis = make_basis(D)
    c0 = basis.coframe_to_vector(eta0)
    size0 = evolution.gram_norm(D, c0)
    _check_growth(args, D, size0)
    t = args.t1 / args.t0
    expansion = evolution.decompose_initial(D, c0)
    # the certificate is judged relative to the initial field, conservation to the
    # larger of ||eta0|| and the exact solution's norm at t1 once it is certified
    tol = evolution.DIV_TOL * size0
    certified = expansion.residual <= tol
    size = max(size0, evolution.gram_norm(D, evolution.propagate(expansion, t))
               if certified else 0.0)
    failures = []
    u0, u1 = math.log(args.t0), math.log(args.t1)
    result = evolution.evolve_ode(D, c0, u0, u1, args.steps)
    div_after = evolution.div_residual(D, result)
    bound(failures, "maxwell", "evolve_ode", {"steps": args.steps}, div_after,
          evolution.DIV_TOL * size, "divergence not conserved")
    cross = None
    if certified:
        err = expansion.distance(result, t)
        err_fine = expansion.distance(evolution.evolve_ode(D, c0, u0, u1, 2 * args.steps), t)
        # the comparison's own rounding: the certificate grown by the largest mode
        # factor, and one rounding of the larger field norm (at t0 or t1) per step
        # of the doubled run; at or below it the ratio measures nothing
        floor = float(expansion.residual * (t ** (expansion.lam - 2.0)).max()
                      + 2 * args.steps * np.finfo(float).eps * size)
        ratio = err / err_fine if err_fine > floor else None
        cross = {"error": err, "error_double_steps": err_fine,
                 "step_doubling_ratio": ratio, "rounding_floor": floor}
        if ratio is not None:
            bound(failures, "maxwell", "evolve_ode", {"steps": args.steps}, ratio, 8.0,
                  "step doubling does not show fourth-order convergence", above=True)
    else:
        bound(failures, "maxwell", "decompose_initial", {"degree": D}, expansion.residual,
              tol, "eigencomponents fail their *d certificate; spectral cross-check skipped")
    return failures, {
        "t0": args.t0,
        "t1": args.t1,
        "steps": args.steps,
        "divergence_residual": div_after,
        "decomposition_residual": expansion.residual,
        "spectral_cross_check": cross,
        "final_field": evolution.dump_initial_field(basis.coframe_from_vector(result)),
    }


def _frame_defects(pts):
    """Per point: the worse structure residual of the two frames, their orthonormality defect."""
    frames = np.stack([left_frame_at(pts), right_frame_at(pts)])
    defect = np.abs(frames @ frames.swapaxes(-1, -2) - np.eye(3)).max(axis=(0, 2, 3))
    return np.maximum(structure_residual(pts), structure_residual(pts, frame="right")), defect


def _verify_frames(args):
    failures = []
    pts = _annulus_samples(args.samples, args.seed, lo=1.0, hi=1.0)
    structure, orth = selfdual.in_blocks(_frame_defects, selfdual.EVAL_BLOCK, pts)
    worst_structure, worst_orth = float(structure.max()), float(orth.max())
    bound(failures, "frame_calculus", "structure_residual", {}, worst_structure, 1e-12,
          "structure equations")
    bound(failures, "frame_calculus", "frames", {}, worst_orth, 1e-12, "orthonormality")
    xi = Sampler(args.seed + 1).normal((50, 3))
    worst_star = float(np.max(np.abs(hodge_star_s3(hodge_star_s3(xi, 1), 2) - xi)))
    bound(failures, "frame_calculus", "hodge_star_s3", {}, worst_star, 1e-12,
          "star involution")
    return failures, {
        "max_structure_residual": worst_structure,
        "max_orthonormality_defect": worst_orth,
        "max_star_involution_defect": worst_star,
        "samples": args.samples,
    }


def _spectrum_checks(report):
    """Failure records of the spectrum's laws: no eigenvalue in the gap
    |lambda| < 2, multiplicity lambda^2 - 1 inside the trusted window,
    integer eigenvalues, eigenspaces spanning the divergence-free subspace
    and no exact kernel at -1, 0 or 1."""
    failures = []
    where = ("spectrum", "eigen_decompose")
    deg = {"degree": report.degree}
    lo, hi = report.window
    for lam, mult in sorted(report.multiplicities.items()):
        at = {**deg, "lambda": lam}
        if abs(lam) < 2:
            bound(failures, *where, at, mult, 0, "eigenvalue inside the spectral gap")
        elif lo <= lam <= hi and mult != lam * lam - 1:
            failures.append(failure(*where, at, mult, lam * lam - 1,
                                    "multiplicity differs from lambda^2 - 1"))
    bound(failures, *where, deg, report.max_integer_deviation, spectrum.CLUSTER_TOL,
          "eigenvalue deviates from the integers")
    if not report.complete:
        failures.append(failure(*where, deg, sum(report.multiplicities.values()),
                                report.subspace_dim,
                                "eigenspaces do not span the divergence-free subspace"))
    for lam, mult in report.forbidden_multiplicities.items():
        bound(failures, *where, {**deg, "lambda": lam}, mult, 0,
              "exact kernel found inside the spectral gap")
    return failures


def _verify_hodge(args):
    failures = []
    rep = spectrum.hodge_laplacian_check(args.degree)
    deg = {"degree": args.degree}
    bound(failures, "spectral", "hodge_laplacian_check", deg, rep["mu_min"], 4 - 1e-8,
          "Hodge Laplacian below 4", above=True)
    bound(failures, "spectral", "hodge_laplacian_check", deg,
          rep["max_square_pairing_deviation"], 1e-7,
          "mu values are not the squared *d eigenvalues")
    bound(failures, "spectral", "divergence_free_subspace", deg,
          rep["subspace_invariance_defect"], 1e-10, "subspace not *d-invariant")
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
        bound(failures, "selfdual_r4", "kato_ratio", {"form": name}, ratios.size, 1,
              "no point with a defined Kato ratio", above=True)
        if ratios.size:
            bound(failures, "selfdual_r4", "kato_ratio", {"form": name}, worst[name],
                  KATO_BOUND, "sharpened Kato bound violated")
    return failures, {"max_ratio_per_form": worst, "points_evaluated_per_form": evaluated,
                      "bound": KATO_BOUND, "samples": args.samples, "h": KATO_DEFAULT_H}


def _verify_orthogonality(args):
    failures = []
    modes = spectrum.eigenmodes(args.degree)
    lam = modes.lam_int
    i, j = np.triu_indices(len(modes.lam), k=1)
    distinct = lam[i] != lam[j]
    i, j = i[distinct], j[distinct]
    n_pairs = len(i)
    worst_shell = max(float(np.max(np.abs(selfdual.shell_pairings(modes, t)[i, j]),
                                   initial=0.0))
                      for t in SHELL_RADII)
    deg = {"degree": args.degree}
    bound(failures, "selfdual_r4", "shell_pairings", deg, n_pairs, 1,
          "no distinct eigenvalue pairs to check", above=True)
    bound(failures, "selfdual_r4", "shell_pairings", deg, worst_shell, 1e-10,
          "distinct eigenvalue shells not orthogonal")
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
    bound(failures, "regularity", "sqrt_elliptic_check", {}, len(pts), 1,
          "no point where |omega|^(1/2) could be checked", above=True)
    if len(pts):
        tol = 2.0 * np.maximum(np.abs(coarse) / (2 * h) ** 2, 1.0) * h ** 2 + 5e-6
        val, _ = regularity.sqrt_elliptic_check(sdf, pts, h)
        # margin = value + tolerance, positive wherever the check passes
        margin = val + tol
        worst, worst_x = float(margin.min()), list(map(float, pts[np.argmin(margin)]))
        bad = val < -tol
        for x, v, limit in zip(pts[bad], val[bad], -tol[bad]):
            failures.append(failure("regularity", "sqrt_elliptic_check",
                                    {"x": list(map(float, x))}, float(v), float(limit),
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


def _fd_relative_error(model, x, h):
    """Largest entry of |Ric_closed - Ric_fd(h)| over that of |Ric_closed|, per point."""
    closed = model.ricci_closed_form(x)
    return (np.max(np.abs(closed - model.ricci_numeric(x, h)), axis=(-2, -1))
            / np.max(np.abs(closed), axis=(-2, -1)))


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
    # the closed forms and the metric inverse hold about 0.5 KB per point
    norm_sq, scalar = selfdual.in_blocks(
        lambda x: (model.ricci_norm_sq(x), model.scalar_curvature(x)), selfdual.EVAL_BLOCK, X)
    worst_norm = float(np.max(np.abs(norm_sq - expected) / expected))
    worst_scalar = float(np.max(np.abs(scalar)))
    # in units of eps: on the homothetic family, with step h |x|, the oracle's error
    # is one number at every eps (the identity window's R bound is absolute)
    rhos_fd = sampler.uniform(-10.0 * params.epsilon, 50.0 * params.epsilon, args.ricci_samples)
    X = model.t_of_rho(rhos_fd)[:, None] * dirs
    # in the oracle's blocks, so the closed form is held for one block at a time
    rel = selfdual.in_blocks(lambda x: _fd_relative_error(model, x, RICCI_H),
                             selfdual.EVAL_BLOCK // 81, X)
    worst = int(np.argmax(rel))
    worst_fd, worst_x = float(rel[worst]), X[worst]
    order = None
    if worst_fd > 1e-9:
        coarse = float(_fd_relative_error(model, worst_x, 2 * RICCI_H))
        order = float(np.log2(coarse / worst_fd))
        bound(failures, "ale_models", "ricci_numeric", {"h": RICCI_H}, order, (1.5, 2.6),
              "oracle not converging at second order")
    bound(failures, "ale_models", "ricci_numeric", {"h": RICCI_H}, worst_fd, 1e-2,
          "oracle disagrees")
    bound(failures, "ale_models", "ricci_closed_form", {}, worst_norm, 1e-10,
          "|Ric|^2 identity violated")
    bound(failures, "ale_models", "ricci_closed_form", {}, worst_scalar, 1e-10,
          "scalar curvature nonzero")
    return failures, {"max_fd_relative_error": worst_fd,
                      "fd_convergence_order": order,
                      "fd_meets_1e-4": bool(worst_fd <= 1e-4),
                      "max_norm_identity_error": worst_norm,
                      "max_scalar_curvature": worst_scalar,
                      "h": RICCI_H, "samples": args.ricci_samples}


def _ale_asymptotics(args, params):
    failures = []
    asym = {}
    envelope = 10.0 / args.rho_max ** 2
    for end, rho, coeff in (("plus_end", args.rho_max, args.alpha),
                            ("minus_end", -args.rho_max, args.beta)):
        norm_sq = _mean_norm_sq(params, rho)
        # in closed form: norm_sq - coeff^2 would measure the rounding of norm_sq
        deviation = abs(float(ale.ak_norm_sq_end_deviation(
            params, params.model.t_of_rho(rho), end == "plus_end")))
        asym[end] = {"norm_sq": norm_sq, "limit": coeff ** 2,
                     "deviation": deviation, "bound": envelope}
        bound(failures, "ale_models", "ak_form_eval", {"end": end, "rho": rho}, deviation,
              envelope, "end asymptotics out of envelope")
    return failures, asym


def _ale_energy(args, params):
    # the family is homothetic (g_eps pulled back by x = y / eps is eps^2 g_1): cut
    # off at rho = 1000 eps, both routes see one model at every eps (100 at 0.1)
    A = 1000.0 * params.epsilon
    boundary = ale.grad_energy_boundary(params, A)
    failures = []
    if params.alpha == 0.0 and params.beta == 0.0:
        # no relative agreement is defined at 0: both routes must give exactly 0
        volume = ale.grad_energy_volume(params, A)
        bound(failures, "ale_models", "grad_energy_boundary", {"A": A},
              abs(boundary) + abs(volume), 0.0, "zero form has nonzero energy")
        return failures, {"boundary": boundary, "volume": volume, "relative_agreement": 0.0}
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
    bound(failures, "ale_models", "grad_energy_boundary", {"A": A}, rel, 0.01,
          "boundary and volume energies disagree")
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
    profile = ale.decay_profile(params, end, rho_max=rho_max)
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
    failures = []
    cs = np.geomspace(args.c_min, args.c_max, args.points)
    csv_text = regularity.moser_sweep_csv(cs)
    small = regularity.moser_product(1e-6)
    bound(failures, "regularity", "moser_product", {"c": 1e-6}, small.ratio, (1.0, 1.0 + 1e-4),
          "small-c ratio not tending to one")
    big = regularity.moser_product(1.0)
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

def _print(text):
    """Print ``text``; a stdout whose reader is gone is pointed at the null device,
    so nothing more reaches the pipe, not even the flush at interpreter exit."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _run(args):
    """Run one subcommand and emit its report; the exit code is 0 or 1.

    The flag rules the subcommand declares (:func:`_build_parser`) are
    checked first; a flag out of range is a ValueError naming it.  The
    subcommand returns ``(failures, fields)``.  The report is the fields
    plus ``seed``, ``status`` and ``failures``; with ``--output`` it is also
    written to the report file the subcommand declares, beside its declared
    artifacts, and printed only once they are written.  A subcommand that
    raises ArithmeticError (a failed certificate; OverflowError, a flag
    outside the float range, excepted) or LinAlgError (a singular matrix)
    reports one failure record, with the exception's message as its reason,
    and writes no other artifact.  A stdout whose reader has closed it
    changes neither the files nor the code.
    """
    func, rules, report_name, artifacts = args.declared
    _check_flags(args, **rules)
    try:
        failures, report = func(args)
    except OverflowError:
        raise
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        flags = {k: v for k, v in vars(args).items()
                 if k not in ("declared", "command", "config", "output", "seed")}
        failures = [failure(args.command, type(exc).__name__, flags, None, None, str(exc))]
        report, artifacts = {}, ()
    report.update(seed=args.seed, status="fail" if failures else "pass",
                  failures=failures)
    blob = json.dumps(_round_floats(report), indent=1, sort_keys=True, allow_nan=False)
    if args.output:
        files = {report_name.format(**vars(args)): blob + "\n"}
        files.update((name, write(args, report)) for name, write in artifacts)
        os.makedirs(args.output, exist_ok=True)
        for name, text in files.items():
            with open(os.path.join(args.output, name), "w") as fh:
                fh.write(text)
    _print(blob)
    return 1 if failures else 0


def _build_parser():
    # the common flags are accepted both before and after the subcommand;
    # SUPPRESS keeps an unset subparser flag from clobbering the top-level one
    # allow_abbrev=False: a prefix such as --deg would escape _apply_config,
    # which spots explicit flags by their full spelling
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON config file with defaults")
    common.add_argument("--output", default=argparse.SUPPRESS,
                        help="directory for report artifacts")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    top = argparse.ArgumentParser(
        prog="sdforms", parents=[common], allow_abbrev=False,
        description="verification pipelines for the sphere spectral calculus")
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(name, func, help, report, artifacts=(), **rules):
        """Declare one subcommand: ``func`` runs it, ``rules`` are its flags'
        ranges (the keywords of :func:`_check_flags`), ``report`` the name of
        its report file under ``--output``, formatted with its flags, and
        ``artifacts`` the (file name, writer) pairs of its other files."""
        p = sub.add_parser(name, parents=[common], allow_abbrev=False, help=help)
        p.set_defaults(declared=(func, rules, report, artifacts))
        return p

    p = add_parser("spectrum", cmd_spectrum, "eigenvalue report of *d",
                   "spectrum_d{degree}.json", limits=(("degree", ">=", 0),))
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--exact", action="store_true",
                   help="exact integer kernel ranks instead of a float solver")

    p = add_parser("evolve", cmd_evolve, "evolve an initial field", "evolve.json",
                   positive=("t0", "t1"), limits=(("steps", ">=", 1),))
    p.add_argument("--init", required=True, help="JSON initial-data file")
    p.add_argument("--t0", type=float, default=1.0)
    p.add_argument("--t1", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=100)

    # both flags are checked whatever the suite: a config section can set either
    p = add_parser("verify", cmd_verify, "named check suites", "verify_{suite}.json",
                   limits=(("samples", ">=", 1), ("degree", ">=", 0)))
    p.add_argument("suite", choices=sorted(VERIFY_SUITES))
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--samples", type=int, default=500)

    # the energy takes alpha^2, beta^2 and epsilon^8, the asymptotics rho_max^-2;
    # the epsilon^9 and epsilon^-10 bounds keep the curvature block in range:
    # below them ricci_closed_form's |x|^4 (t2 ** 2) overflows on the window
    # -5 <= rho <= 5 (epsilon = 1e-60), above them the closed form of |Ric|^2
    # underflows to 0 and the identity's relative error divides by it (1e40).
    # The decay profile runs from |rho| = 10 to rho_max and must span a decade
    p = add_parser("ale-report", cmd_ale_report, "2-ended model report", "ale_report.json",
                   artifacts=(("ale_profile.csv", _ale_profile_csv),),
                   positive=("epsilon", "rho_max"), finite=("alpha", "beta"),
                   limits=(("ricci_samples", ">=", 1), ("rho_max", ">=", 100)),
                   squared=("epsilon", "rho_max"),
                   powers=(("alpha", 2), ("beta", 2), ("epsilon", 9), ("epsilon", -10),
                           ("rho_max", 2)))
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--rho-max", type=float, default=1000.0)
    p.add_argument("--ricci-samples", type=int, default=100)

    # e^c overflows a float past c = log(float max), about 709.78
    p = add_parser("moser", cmd_moser, "iteration product sweep", "moser.json",
                   artifacts=(("moser_sweep.csv", _moser_sweep_csv),),
                   positive=("c_min", "c_max"),
                   limits=(("points", ">=", 1), ("c_min", "<=", regularity.LOG_FLOAT_MAX),
                           ("c_max", "<=", regularity.LOG_FLOAT_MAX)))
    p.add_argument("--c-min", type=float, default=1e-8)
    p.add_argument("--c-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=33)

    # the profile runs from |rho| = 10 to rho_max and must span a decade
    p = add_parser("decay", cmd_decay, "decay classification of one end", "decay.json",
                   positive=("epsilon", "rho_max"), finite=("alpha", "beta"),
                   limits=(("rho_max", ">=", 100),), squared=("epsilon",),
                   powers=(("alpha", 2), ("beta", 2), ("epsilon", 2)))
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--end", choices=["plus", "minus"], required=True)
    p.add_argument("--rho-max", type=float, default=1000.0)
    return top


def _apply_config(args, parser, argv):
    """Defaults from the config file's section for the subcommand.

    The file must be readable JSON whose top level and section are objects,
    with ``schema_version`` the JSON integer 1.  Each key must name a flag of
    the subcommand other than ``config`` (``output`` and ``seed`` included);
    an on/off flag takes a JSON boolean, any other flag a string or number,
    converted as its text would be on the command line.  Explicit flags win
    over the file.  Anything else is a usage error.
    """
    if not args.config:
        return args
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    except ValueError as exc:
        parser.error(f"config file {args.config!r} is not JSON: {exc}")
    if not isinstance(cfg, dict):
        parser.error(f"config file {args.config!r} must hold a JSON object")
    version = cfg.get("schema_version")
    # type(True) is bool and type(1.0) float: only the JSON integer 1 passes
    if type(version) is not int or version != CONFIG_SCHEMA_VERSION:
        parser.error(f"unsupported config schema_version {version!r}, "
                     f"expected the integer {CONFIG_SCHEMA_VERSION}")
    section = cfg.get(args.command, {})
    if not isinstance(section, dict):
        parser.error(f"config section {args.command!r} must be a JSON object")
    subparsers, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    # the file is read before any section, so a section cannot name another
    flags = {a.dest: a for a in subparsers.choices[args.command]._actions
             if a.option_strings and a.dest not in ("help", "config")}
    explicit = {a.lstrip("-").replace("-", "_").split("=")[0]
                for a in argv if a.startswith("--")}
    for key, value in section.items():
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            parser.error(f"config key {key!r} is not a flag of {args.command} "
                         "that a config file can set")
        if flag.dest in explicit:
            continue
        if flag.nargs == 0:
            if not isinstance(value, bool):
                parser.error(f"config key {key!r} must be true or false, got {value!r}")
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            text = str(value)
            try:
                value = flag.type(text) if flag.type else text
            except ValueError:
                parser.error(f"config key {key!r} must be {flag.type.__name__}, got {value!r}")
        else:
            parser.error(f"config key {key!r} must be a string or a number, got {value!r}")
        setattr(args, flag.dest, value)
    return args


def dispatch(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    defaults = argparse.Namespace(config=None, output=None, seed=DEFAULT_SEED)
    args = _apply_config(parser.parse_args(argv, defaults), parser, argv)
    try:
        return _run(args)
    except (ValueError, OverflowError, MemoryError, OSError) as exc:
        # an OverflowError means a flag put the model outside the float range,
        # a MemoryError an input too large for the dense arrays it needs
        _print(json.dumps({"status": "error", "message": str(exc)}))
        return 2


def main(argv=None):
    return sys.exit(dispatch(argv))


if __name__ == "__main__":
    main()
