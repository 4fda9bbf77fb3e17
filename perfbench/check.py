"""Output checker for one ``sdforms`` invocation of the benchmark.

It reads the report and the exit code and returns a list of problems; an
empty list means the report is well formed, its status agrees with the exit
code, and every value the report bounds stays inside that bound.  The bounds
are the program's own (``spectrum.CLUSTER_TOL``, the Kato bound, ...); the
checker only reads them, so a report that is wrong or shows nothing
evaluated fails here even when the program printed ``pass``.
"""

import json

EXIT_FOR_STATUS = {"pass": 0, "fail": 1, "error": 2}
KATO_BOUND = 2.0 / 3.0 + 1e-6


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report")


def parse_report(text):
    """Strict JSON: NaN and the infinities are rejected."""
    report = json.loads(text, parse_constant=_reject_constant)
    if not isinstance(report, dict):
        raise ValueError("report is not a JSON object")
    return report


def check_invocation(argv, exit_code, stdout, may_fail=False):
    """Problems with one invocation's report, as a list of strings.

    ``may_fail`` marks the top rung of the float ladder: a well-formed
    ``fail`` report with exit code 1 is then an accepted outcome rather than
    a problem.
    """
    try:
        report = parse_report(stdout)
    except ValueError as exc:
        return [f"stdout is not strict JSON: {exc}"]
    status = report.get("status")
    if status not in EXIT_FOR_STATUS:
        return [f"unknown status {status!r}"]
    if EXIT_FOR_STATUS[status] != exit_code:
        return [f"status {status!r} but exit code {exit_code}"]
    failures = report.get("failures")
    if not isinstance(failures, list):
        return ["report has no failures list"]
    if status == "fail":
        if not failures:
            return ["status fail with no failure records"]
        return [] if may_fail else [f"check failed: {failures[0].get('reason')}"]
    if status == "error" or failures:
        return [f"status {status!r} with failures {failures!r}"]
    try:
        return _CHECKS[_kind(argv)](report, argv)
    except (KeyError, TypeError) as exc:
        return [f"report lacks an expected field: {exc!r}"]


def _kind(argv):
    return argv[1] if argv[0] == "verify" else argv[0]


def _bound(problems, name, value, limit, above=False):
    """Record a problem when ``value`` is past ``limit`` (or None)."""
    if value is None or (value < limit if above else value > limit):
        side = ">=" if above else "<="
        problems.append(f"{name} = {value!r}, expected {side} {limit!r}")


def _check_spectrum(report, argv):
    problems = []
    if report["subspace_dim"] <= 0:
        problems.append("empty divergence-free subspace")
    mults = {m["lambda"]: m["multiplicity"] for m in report["modes"]}
    lo, hi = report["trusted_window"]
    for lam in range(lo, hi + 1):
        if abs(lam) >= 2 and mults.get(lam, 0) != lam * lam - 1:
            problems.append(f"multiplicity of {lam} is {mults.get(lam, 0)}, "
                            f"expected {lam * lam - 1}")
    res = report["residuals"]
    _bound(problems, "max_integer_deviation", res["max_integer_deviation"],
           res["cluster_tol"])
    if "--exact" in argv and report["complete"] is not True:
        problems.append("exact spectrum not complete")
    return problems


def _check_hodge(report, argv):
    d = report["details"]
    problems = []
    _bound(problems, "mu_min", d["mu_min"], 4 - 1e-8, above=True)
    _bound(problems, "max_square_pairing_deviation",
           d["max_square_pairing_deviation"], 1e-7)
    _bound(problems, "subspace_invariance_defect", d["subspace_invariance_defect"], 1e-10)
    return problems


def _check_kato(report, argv):
    d = report["details"]
    problems = []
    if d["samples"] <= 0 or not d["max_ratio_per_form"]:
        problems.append("no Kato samples evaluated")
    for form, worst in sorted(d["max_ratio_per_form"].items()):
        _bound(problems, f"Kato ratio of {form}", worst, KATO_BOUND)
    return problems


def _check_orthogonality(report, argv):
    d = report["details"]
    problems = []
    _bound(problems, "distinct_pairs_checked", d["distinct_pairs_checked"], 1, above=True)
    _bound(problems, "max_shell_pairing", d["max_shell_pairing"], 1e-10)
    return problems


def _check_elliptic(report, argv):
    d = report["details"]
    problems = []
    _bound(problems, "points_checked", d["points_checked"], 1, above=True)
    _bound(problems, "worst_margin", d["worst_margin"], 0.0, above=True)
    return problems


def _check_evolve(report, argv):
    problems = []
    cross = report["spectral_cross_check"]
    if cross is None:
        problems.append("spectral cross-check did not run")
    else:
        _bound(problems, "step_doubling_ratio", cross["step_doubling_ratio"], 8.0,
               above=True)
    _bound(problems, "decomposition_residual", report["decomposition_residual"], 1e-8)
    _bound(problems, "divergence_residual", report["divergence_residual"], 1e-8)
    return problems


def _check_ale(report, argv):
    problems = []
    ricci = report["ricci_check"]
    _bound(problems, "ricci samples", ricci["samples"], 1, above=True)
    _bound(problems, "max_fd_relative_error", ricci["max_fd_relative_error"], 1e-2)
    _bound(problems, "max_norm_identity_error", ricci["max_norm_identity_error"], 1e-10)
    _bound(problems, "max_scalar_curvature", ricci["max_scalar_curvature"], 1e-10)
    _bound(problems, "energy relative_agreement",
           report["energy"]["relative_agreement"], 0.01)
    return problems


_CHECKS = {
    "spectrum": _check_spectrum,
    "hodge": _check_hodge,
    "kato": _check_kato,
    "orthogonality": _check_orthogonality,
    "elliptic": _check_elliptic,
    "evolve": _check_evolve,
    "ale-report": _check_ale,
}
