import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdforms
from sdforms.cli import dispatch
from sdforms.evolution import dump_initial_field
from sdforms.polys import left_invariant_coframe, right_invariant_coframe


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def assert_report_shape(rep, out_dir, keys, files):
    """The report holds ``keys`` plus seed, status and failures, and --output
    wrote exactly ``files``, the first of them a copy of the report."""
    assert set(rep) == {"seed", "status", "failures"} | set(keys)
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(files)
    assert json.loads((out_dir / files[0]).read_text()) == rep


def test_spectrum_report(capsys):
    code, rep = run(capsys, "spectrum", "--degree", "2")
    assert code == 0
    assert rep["status"] == "pass"
    mults = {m["lambda"]: m["multiplicity"] for m in rep["modes"]}
    assert mults == {-2: 3, 2: 3, 3: 8, 4: 15}
    assert rep["trusted_window"] == [-2, 4]
    assert rep["residuals"]["max_integer_deviation"] <= 1e-8
    assert "seed" in rep


def test_spectrum_exact_ring(capsys):
    code, rep = run(capsys, "spectrum", "--degree", "1", "--exact")
    assert code == 0
    assert rep["ring"] == "exact"
    assert rep["complete"]
    mults = {m["lambda"]: m["multiplicity"] for m in rep["modes"]}
    assert mults == {2: 3, 3: 8}


def test_spectrum_deterministic_output(capsys):
    _, _ = run(capsys, "spectrum", "--degree", "1")
    first = dispatch(["spectrum", "--degree", "1"])
    text1 = capsys.readouterr().out
    second = dispatch(["spectrum", "--degree", "1"])
    text2 = capsys.readouterr().out
    assert first == second == 0
    assert text1 == text2


@pytest.mark.parametrize("argv", [
    ["verify", "kato"],
    ["verify", "elliptic"],
    ["ale-report", "--epsilon", "0.1"],
])
def test_seeded_output_is_deterministic(capsys, argv):
    # the same seed draws the same points: stdout is byte-identical
    texts = []
    for _ in range(2):
        assert dispatch([*argv, "--seed", "5"]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert dispatch([*argv, "--seed", "6"]) == 0
    assert capsys.readouterr().out != texts[0]


#: every subcommand with small flags, run in one fresh interpreter; the
#: library's seeded draws and Gauss rules are called as well
IMPORT_GUARD = """\
import contextlib, io, json, sys
from sdforms import ale, spectrum
from sdforms.cli import dispatch
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(dispatch(argv))
ale.sup_grad((1.0, 1.0), [0.2], n_rho=5, n_dirs=2)
spectrum.constant_norm_check(spectrum.eigenmodes(1)[0], n_samples=10)
print(json.dumps([codes, sorted(m for m in ("numpy.random", "numpy.polynomial", "hashlib")
                                if m in sys.modules)]))
"""


def test_no_path_imports_numpy_random_polynomial_or_hashlib(tmp_path):
    init = tmp_path / "init.json"
    dump_initial_field(left_invariant_coframe(1), str(init))
    argvs = [["spectrum", "--degree", "2"], ["spectrum", "--degree", "1", "--exact"],
             ["verify", "frames", "--samples", "5"], ["verify", "hodge", "--degree", "2"],
             ["verify", "kato", "--samples", "5"], ["verify", "orthogonality", "--degree", "2"],
             ["verify", "elliptic", "--samples", "5"],
             ["evolve", "--init", str(init), "--steps", "4"],
             ["ale-report", "--epsilon", "0.1", "--ricci-samples", "5"],
             ["decay", "--epsilon", "0.1", "--end", "plus"], ["moser", "--points", "3"]]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sdforms.__file__))}
    out = subprocess.run([sys.executable, "-c", IMPORT_GUARD, json.dumps(argvs)],
                         capture_output=True, text=True, env=env, check=True).stdout
    codes, loaded = json.loads(out)
    assert codes == [0] * len(argvs)
    assert loaded == []


def test_verify_suites_pass(capsys, tmp_path):
    for suite, extra in [("frames", ["--samples", "50"]),
                         ("hodge", ["--degree", "2"]),
                         ("kato", ["--samples", "60"]),
                         ("orthogonality", ["--degree", "2"]),
                         ("elliptic", ["--samples", "40"])]:
        out = tmp_path / suite
        code, rep = run(capsys, "verify", suite, *extra, "--output", str(out))
        assert code == 0, f"{suite} failed: {rep['failures']}"
        assert rep["status"] == "pass"
        assert rep["failures"] == []
        assert_report_shape(rep, out, {"suite", "details"}, [f"verify_{suite}.json"])


def test_ale_report(capsys, tmp_path):
    code, rep = run(capsys, "--output", str(tmp_path),
                    "ale-report", "--epsilon", "0.1",
                    "--alpha", "1", "--beta", "0", "--ricci-samples", "20")
    assert code == 0
    assert rep["decay"]["plus"]["classification"] == "AsymptoticallyKahler"
    assert rep["decay"]["minus"]["classification"] == "FastDecay"
    assert rep["energy"]["relative_agreement"] <= 0.01
    assert rep["ricci_check"]["max_norm_identity_error"] <= 1e-10
    assert_report_shape(rep, tmp_path,
                        {"epsilon", "alpha", "beta", "ricci_check", "asymptotics",
                         "energy", "decay"}, ["ale_report.json", "ale_profile.csv"])
    profile = (tmp_path / "ale_profile.csv").read_text().splitlines()
    assert profile[0] == "rho,norm_sq,ric_sq"
    assert len(profile) == 202


def test_ale_report_energy_constants_reported(capsys):
    code, rep = run(capsys, "ale-report", "--epsilon", "0.2",
                    "--alpha", "1", "--beta", "0", "--ricci-samples", "10")
    assert code == 0
    e = rep["energy"]
    # the computed constant sits beside both printed reference values and,
    # for (alpha, beta) = (1, 0), matches neither of them
    assert not e["matches_area_form"]
    assert not e["matches_prose"]
    assert e["boundary"] == pytest.approx(e["computed_constant"], rel=1e-6)


def test_moser_sweep(capsys, tmp_path):
    code, rep = run(capsys, "--output", str(tmp_path), "moser",
                    "--c-min", "1e-7", "--c-max", "2.0", "--points", "9")
    assert code == 0
    assert 1.0 <= rep["ratio_at_1e-6"] <= 1.0 + 1e-4
    assert rep["ratio_at_1"] > 1.0
    assert not rep["printed_bound_holds_at_1"]
    assert_report_shape(rep, tmp_path,
                        {"c_min", "c_max", "points", "ratio_at_1e-6", "ratio_at_1",
                         "printed_bound_holds_at_1", "sweep_csv"},
                        ["moser.json", "moser_sweep.csv"])
    csv = (tmp_path / "moser_sweep.csv").read_text().splitlines()
    assert csv[0] == "c,product,exp_c,ratio"
    assert len(csv) == 10


def test_decay_subcommand(capsys, tmp_path):
    code, rep = run(capsys, "decay", "--epsilon", "0.1", "--alpha", "1",
                    "--beta", "0", "--end", "minus", "--output", str(tmp_path))
    assert code == 0
    assert rep["decay"]["classification"] == "FastDecay"
    assert abs(rep["decay"]["exponent"] + 4) <= 0.1
    assert_report_shape(rep, tmp_path,
                        {"epsilon", "alpha", "beta", "end", "decay", "profile_head"},
                        ["decay.json"])


def test_evolve_subcommand(capsys, tmp_path):
    init = tmp_path / "init.json"
    eta = left_invariant_coframe(1) + 0.5 * right_invariant_coframe(2)
    dump_initial_field(eta, str(init))
    out = tmp_path / "out"
    code, rep = run(capsys, "evolve", "--init", str(init),
                    "--t0", "1.0", "--t1", "2.0", "--steps", "40", "--output", str(out))
    assert code == 0
    assert rep["divergence_residual"] <= 1e-8
    assert rep["spectral_cross_check"]["step_doubling_ratio"] >= 8.0
    assert_report_shape(rep, out,
                        {"t0", "t1", "steps", "divergence_residual",
                         "decomposition_residual", "spectral_cross_check", "final_field"},
                        ["evolve.json"])


def test_evolve_rejects_non_divergence_free(capsys, tmp_path):
    init = tmp_path / "bad.json"
    # gradient of x0 in frame components: divergence is -3 x0, not zero
    from sdforms.polys import PolyScalar, gradient_coframe

    dump_initial_field(gradient_coframe(PolyScalar.coordinate(0)), str(init))
    code, rep = run(capsys, "evolve", "--init", str(init))
    assert code == 2
    assert rep["status"] == "error"
    assert "divergence" in rep["message"]


def test_common_flags_accepted_after_subcommand(capsys, tmp_path):
    # --output/--seed work in either position relative to the subcommand
    code, rep = run(capsys, "spectrum", "--degree", "1",
                    "--output", str(tmp_path), "--seed", "7")
    assert code == 0
    assert rep["seed"] == 7
    assert_report_shape(rep, tmp_path,
                        {"D", "ring", "subspace_dim", "trusted_window", "modes",
                         "residuals", "complete"}, ["spectrum_d1.json"])


def test_config_file_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1,
                               "spectrum": {"degree": 1}}))
    code, rep = run(capsys, "--config", str(cfg), "spectrum")
    assert code == 0
    assert rep["D"] == 1
    # explicit flag wins over the config file
    code, rep = run(capsys, "--config", str(cfg), "spectrum", "--degree", "2")
    assert rep["D"] == 2


@pytest.mark.parametrize("section", [
    {"report": "/tmp/elsewhere.json"},
    {"artifacts": 1},
    {"func": 1},
    {"command": "moser"},
    {"no_such_flag": 1},
    {"degree": "three"},
    {"seed": [1]},
])
def test_config_sets_only_the_subcommand_flags(tmp_path, capsys, section):
    # anything but a flag of the subcommand, of the flag's type, is a usage error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "spectrum": section}))
    with pytest.raises(SystemExit) as exc:
        dispatch(["--config", str(cfg), "--output", str(tmp_path / "out"), "spectrum"])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_config_values_take_the_flag_type(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1,
                               "spectrum": {"degree": "1", "seed": 5}}))
    code, rep = run(capsys, "--config", str(cfg), "spectrum")
    assert code == 0
    assert (rep["D"], rep["seed"]) == (1, 5)


def test_config_rejects_unknown_schema(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(SystemExit) as exc:
        dispatch(["--config", str(cfg), "spectrum"])
    assert exc.value.code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        dispatch(["no-such-command"])
    assert exc.value.code == 2


def test_alpha_zero_plus_end_decays_fast(capsys):
    # with alpha = 0 the plus end decays like rho^-4 as well
    code, rep = run(capsys, "decay", "--epsilon", "0.1", "--alpha", "0",
                    "--beta", "1", "--end", "plus")
    assert code == 0
    assert rep["decay"]["classification"] == "FastDecay"


def test_failure_records_shape(capsys, monkeypatch):
    # force a classification mismatch to exercise the failure-record path
    from sdforms import ale
    from sdforms.ale import DecayReport

    monkeypatch.setattr(
        "sdforms.cli.ale.decay_classify",
        lambda profile: DecayReport(-2.0, 0.0, ale.INDETERMINATE))
    code, rep = run(capsys, "decay", "--epsilon", "0.1", "--alpha", "1",
                    "--beta", "0", "--end", "plus")
    assert code == 1
    assert rep["status"] == "fail"
    rec = rep["failures"][0]
    assert {"module", "operation", "input", "observed", "tolerance",
            "reason"} <= set(rec)
    # the same reason as the decay block of ale-report
    assert rec["reason"] == "decay classification off the dichotomy"


def test_zero_form_is_zero_in_both_commands(capsys):
    # alpha = beta = 0 is the one form classified "Zero"; decay exited 2 on it
    code, ale_rep = run(capsys, "ale-report", "--epsilon", "0.1", "--alpha", "0",
                        "--beta", "0", "--ricci-samples", "5")
    assert code == 0
    for end in ("plus", "minus"):
        code, rep = run(capsys, "decay", "--epsilon", "0.1", "--alpha", "0",
                        "--beta", "0", "--end", end)
        assert code == 0
        assert rep["decay"] == ale_rep["decay"][end] == {"classification": "Zero",
                                                          "exponent": None}


def test_ale_report_underflowing_form_is_an_error(capsys):
    # alpha^2 underflows, so the boundary energy of this non-zero form is 0;
    # it passed as "Zero" with a relative agreement of 0 before
    code, rep = run(capsys, "ale-report", "--epsilon", "0.1", "--alpha", "1e-200",
                    "--beta", "0", "--ricci-samples", "5")
    assert code == 2
    assert rep["status"] == "error"
    assert "boundary energy underflows to 0" in rep["message"]


def test_decay_underflowing_form_is_an_error(capsys):
    # a non-zero form with a zero profile is not the zero form
    code, rep = run(capsys, "decay", "--epsilon", "0.1", "--alpha", "1e-200",
                    "--beta", "0", "--end", "plus")
    assert code == 2
    assert rep["message"] == "profile values must be positive to fit a decay rate"


def test_decay_non_finite_profile_is_named(capsys, monkeypatch):
    # a NaN profile (an underflowing epsilon^2 made one before --epsilon was
    # checked); the error used to be the JSON encoder's refusal of a NaN exponent
    monkeypatch.setattr("sdforms.cli.ale.decay_profile", lambda params, end, **kwargs:
                        [(10.0 * 1.1 ** i, float("nan")) for i in range(40)])
    code, rep = run(capsys, "decay", "--epsilon", "0.1", "--end", "plus")
    assert code == 2
    assert rep["message"].startswith("profile values must be finite to fit a decay rate")
    # the zero form fits nothing, but its NaN profile is still named
    code, rep = run(capsys, "decay", "--epsilon", "0.1", "--alpha", "0", "--beta", "0",
                    "--end", "plus")
    assert code == 2
    assert rep["message"].startswith("the profile of the zero form must vanish, got nan")


def test_orthogonality_fails_when_nothing_checked(capsys):
    # at degree 0 every mode has eigenvalue 2, so there is no distinct pair
    code, rep = run(capsys, "verify", "orthogonality", "--degree", "0")
    assert code == 1
    assert rep["status"] == "fail"
    assert rep["details"]["distinct_pairs_checked"] == 0
    assert rep["failures"][0]["reason"] == "no distinct eigenvalue pairs to check"


@pytest.mark.parametrize("flags,named", [
    (["--t1", "nan"], "--t1"),
    (["--t1", "inf"], "--t1"),
    (["--t0", "0"], "--t0"),
    (["--t0", "-1"], "--t0"),
    (["--t0=-inf"], "--t0"),
    (["--steps", "0"], "--steps"),
    (["--steps", "-3"], "--steps"),
    (["--t0", "1.5", "--t1", "1.5"], "--t1 must differ from --t0"),
])
def test_evolve_rejects_bad_flags(capsys, tmp_path, flags, named):
    # the flags are checked before the initial-data file is even read
    code, rep = run(capsys, "evolve", "--init", str(tmp_path / "missing.json"), *flags)
    assert code == 2
    assert rep["status"] == "error"
    assert named in rep["message"]


def forbid_everywhere(monkeypatch, owner, names, message):
    """Make every sdforms binding of owner's ``names`` raise AssertionError(message)."""
    def forbidden(*args, **kwargs):
        raise AssertionError(message)

    for name in names:
        original = getattr(owner, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "sdforms" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, forbidden)


def pairings_input(D, path):
    """The benchmark's pairings-workload evolve input of degree D at seed 7."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads.write_evolve_input(7, D, str(path))


def test_evolve_fails_when_cross_check_skipped(capsys, tmp_path, monkeypatch):
    # eigenvalues k + 1 in place of k + 2: the *d certificate sees the wrong
    # labels, the cross-check is skipped and that is a failure
    from sdforms import spectrum

    split = spectrum.eigencomponents

    def relabelled(D, c0):
        lam, V = split(D, c0)
        return np.where(lam > 0, lam - 1, lam), V

    monkeypatch.setattr(spectrum, "eigencomponents", relabelled)
    init = tmp_path / "init.json"
    pairings_input(3, init)
    code, rep = run(capsys, "evolve", "--init", str(init), "--steps", "10")
    assert (code, rep["status"]) == (1, "fail")
    assert rep["spectral_cross_check"] is None
    assert rep["decomposition_residual"] > 1.0
    assert [f["operation"] for f in rep["failures"]] == ["decompose_initial"]


def test_evolve_builds_no_eigenbasis(capsys, tmp_path, monkeypatch):
    # the spectral side is the projector split: evolve passes on the
    # pairings inputs with every route to an eigenbasis raising
    from sdforms import spectrum

    forbid_everywhere(monkeypatch, spectrum, ("eigenmodes", "divergence_free_subspace",
                                              "_float_block", "_sorted_modes", "eigh"),
                      "eigenbasis built")
    for D in (3, 4):
        init = tmp_path / f"init_d{D}.json"
        pairings_input(D, init)
        code, rep = run(capsys, "evolve", "--init", str(init), "--steps", "100")
        assert (code, rep["status"]) == (0, "pass")
        assert 15.0 < rep["spectral_cross_check"]["step_doubling_ratio"] < 17.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t1, code", [("1e100", 2), ("5e50", 1)])
def test_evolve_bounds_the_growth_of_the_field(capsys, tmp_path, t1, code):
    # the largest mode factor of the degree-3 input is (t1/t0)^3: at 1e100
    # the propagated field's squared norm overflows and the run stops before
    # any work, naming --t1; at 5e50 it is finite, and the run reports
    # finite values (RK4 is unstable at such steps, so it fails)
    init = tmp_path / "init.json"
    pairings_input(3, init)
    assert dispatch(["evolve", "--init", str(init), "--t1", t1]) == code
    rep = strict_json(capsys.readouterr().out)
    if code == 2:
        assert rep["status"] == "error" and "--t1" in rep["message"]
    else:
        assert rep["status"] == "fail" and rep["spectral_cross_check"] is not None


def test_evolve_judges_divergence_relative_to_the_field(capsys, tmp_path):
    # a divergence-free field passes at any scale with the same statuses; a
    # field whose divergence is a large share of its norm is rejected at any
    # scale
    from sdforms.evolution import load_initial_field
    from sdforms.polys import PolyScalar, gradient_coframe

    init = tmp_path / "init.json"
    pairings_input(3, init)
    eta0 = load_initial_field(str(init))
    leak = gradient_coframe(PolyScalar.coordinate(0) * PolyScalar.coordinate(1))
    reports = []
    for scale in (1.0, 1e8, 1e-8):
        dump_initial_field(scale * eta0, str(init))
        code, rep = run(capsys, "evolve", "--init", str(init))
        assert (code, rep["status"], rep["failures"]) == (0, "pass", [])
        reports.append(rep)
        dump_initial_field(scale * (eta0 + leak), str(init))
        code, rep = run(capsys, "evolve", "--init", str(init))
        assert (code, rep["status"]) == (2, "error")
        assert "not divergence-free" in rep["message"]
    ratios = [rep["spectral_cross_check"]["step_doubling_ratio"] for rep in reports]
    assert ratios == pytest.approx([ratios[0]] * 3, rel=1e-4)


def write_random_field(D, path, seed=5):
    """star_d of a seeded random degree-D field, divergence-free, as evolve input."""
    from sdforms.polys import make_basis, star_d

    basis = make_basis(D)
    rng = np.random.default_rng(seed)
    dump_initial_field(star_d(basis.coframe_from_vector(rng.standard_normal(3 * basis.dim))),
                       str(path))


@pytest.mark.parametrize("D, flags", [(4, ["--t1", "1.01"]), (3, ["--steps", "3000"])])
def test_evolve_step_doubling_at_the_rounding_floor_passes(capsys, tmp_path, D, flags):
    # both RK4 errors down at the comparison's own rounding: the ratio
    # measures nothing there and is not judged
    init = tmp_path / "init.json"
    write_random_field(D, init)
    code, rep = run(capsys, "evolve", "--init", str(init), *flags)
    cross = rep["spectral_cross_check"]
    assert (code, rep["status"]) == (0, "pass")
    assert cross["error_double_steps"] <= cross["rounding_floor"] <= 1e-9
    assert cross["step_doubling_ratio"] is None


def euler(eta0, u0, u1, steps):
    """A first-order stepper in place of RK4."""
    from sdforms.polys import coframe_triples, make_basis, sparse_apply

    basis = make_basis(eta0.degree)
    curl = coframe_triples(eta0.degree)["curl"]
    y = basis.coframe_to_vector(eta0)
    h = (u1 - u0) / steps
    for _ in range(steps):
        y = y + h * sparse_apply(curl, y, len(y))
    return basis.coframe_from_vector(y)


@pytest.mark.parametrize("flags", [[], ["--steps", "3000"]])
def test_evolve_first_order_stepper_fails(capsys, tmp_path, monkeypatch, flags):
    # the rounding floor must leave a first-order error visible: the ratio
    # is about 2, far above the floor, at the default steps and at 3000
    monkeypatch.setattr("sdforms.cli.evolution.evolve_ode", euler)
    init = tmp_path / "init.json"
    write_random_field(3, init)
    code, rep = run(capsys, "evolve", "--init", str(init), *flags)
    cross = rep["spectral_cross_check"]
    assert (code, rep["status"]) == (1, "fail")
    assert cross["error_double_steps"] > 1e3 * cross["rounding_floor"]
    assert 1.5 < cross["step_doubling_ratio"] < 2.5
    assert [f["reason"] for f in rep["failures"]] == [
        "step doubling does not show fourth-order convergence"]


RECORD = '{"monomial": [1, 0, 0, 0], "axis": 1, "coefficient": %s}'


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text, named", [
    ("[%s]" % RECORD % "NaN", "record 0"),
    ("[%s]" % RECORD % "Infinity", "record 0"),
    ("[%s]" % RECORD % "-Infinity", "record 0"),
    ("[%s]" % RECORD % "1e300", "record 0"),
    ("[%s, %s]" % (RECORD % "2e153", RECORD % "2e153"), "record 1"),
    ("[]", "zero field"),
    ("[%s, %s]" % (RECORD % "1.0", RECORD % "-1.0"), "zero field"),
], ids=["nan", "inf", "-inf", "1e300", "norm-overflow", "empty", "cancelling"])
def test_evolve_rejects_unusable_initial_data(capsys, tmp_path, text, named):
    # no NaN, infinity, overflowing norm or zero field gets past the loader
    init = tmp_path / "init.json"
    init.write_text(text)
    code, rep = run(capsys, "evolve", "--init", str(init))
    assert (code, rep["status"]) == (2, "error")
    assert str(init) in rep["message"] and named in rep["message"]


def test_library_paths_form_no_dense_operator_or_gram(capsys, tmp_path, monkeypatch):
    # the dense operators and the coframe Gram are test and tracing oracles:
    # evolve and the orthogonality check pass with every binding of them raising
    from sdforms import polys
    from sdforms.polys import make_basis, star_d

    forbid_everywhere(monkeypatch, polys, ("operator_matrix", "coframe_gram"),
                      "dense 3N x 3N operator or coframe Gram formed")
    rng = np.random.default_rng(5)
    for D in (3, 4):
        basis = make_basis(D)
        init = tmp_path / f"init_d{D}.json"
        dump_initial_field(star_d(basis.coframe_from_vector(rng.standard_normal(3 * basis.dim))),
                           str(init))
        code, rep = run(capsys, "evolve", "--init", str(init), "--steps", "100")
        assert (code, rep["status"]) == (0, "pass")
        assert rep["spectral_cross_check"]["step_doubling_ratio"] >= 8.0
    code, rep = run(capsys, "verify", "orthogonality", "--degree", "3")
    assert (code, rep["status"]) == (0, "pass")


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite {name}")

    return json.loads(text, parse_constant=reject)


def test_elliptic_reports_true_worst_margin(capsys):
    code, rep = run(capsys, "verify", "elliptic")
    d = rep["details"]
    assert code == 0
    assert d["points_checked"] == 500
    assert d["worst_margin"] > 0.0
    assert len(d["worst_margin_x"]) == 4


def test_elliptic_fails_when_no_point_is_checked(capsys, monkeypatch):
    # a check that rejects every point has evaluated nothing, which must fail
    def rejects_all(sdf, x, h):
        return np.full(len(x), np.nan), np.zeros(len(x), dtype=bool)

    monkeypatch.setattr("sdforms.cli.regularity.sqrt_elliptic_check", rejects_all)
    code, rep = run(capsys, "verify", "elliptic", "--samples", "5")
    assert code == 1
    assert rep["details"]["points_checked"] == 0
    assert rep["details"]["worst_margin"] is None
    assert [f["reason"] for f in rep["failures"]] == [
        "no point where |omega|^(1/2) could be checked"]


def test_elliptic_reports_each_violating_point(capsys, monkeypatch):
    def negative(sdf, x, h):
        return np.full(len(x), -1.0), np.ones(len(x), dtype=bool)

    monkeypatch.setattr("sdforms.cli.regularity.sqrt_elliptic_check", negative)
    code, rep = run(capsys, "verify", "elliptic", "--samples", "5")
    assert code == 1
    assert rep["details"]["points_checked"] == 5
    assert rep["details"]["worst_margin"] < 0
    assert len(rep["failures"]) == 5
    assert {f["reason"] for f in rep["failures"]} == {"sqrt-norm subharmonicity violated"}


def test_kato_batches_stay_within_the_block(capsys, monkeypatch):
    # the points go through in blocks, so no evaluation sees more than
    # EVAL_BLOCK points however many samples are asked for
    from sdforms.selfdual import EVAL_BLOCK, SelfDualForm

    batches = []
    call = SelfDualForm.__call__
    monkeypatch.setattr(SelfDualForm, "__call__",
                        lambda self, x: batches.append(np.size(x) // 4) or call(self, x))
    code, rep = run(capsys, "verify", "kato", "--samples", "5000")
    assert code == 0
    assert set(rep["details"]["points_evaluated_per_form"].values()) == {5000}
    assert max(batches) <= EVAL_BLOCK
    assert sum(batches) == 3 * 9 * 5000


@pytest.mark.parametrize("suite", ["frames", "kato", "elliptic", "hodge"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_nonpositive_samples(capsys, suite, samples):
    code, rep = run(capsys, "verify", suite, "--samples", samples)
    assert code == 2
    assert rep["status"] == "error"
    assert "--samples" in rep["message"]


def test_kato_reports_points_evaluated(capsys):
    code, rep = run(capsys, "verify", "kato", "--samples", "30")
    assert code == 0
    assert rep["details"]["points_evaluated_per_form"] == {
        "ak_mixed": 30, "kahler_plus_decaying": 30, "pure_minus_two": 30}


def test_kato_fails_when_a_form_has_no_points(capsys, monkeypatch):
    # a ratio that is undefined everywhere checks nothing, which must fail
    def undefined(sdf, x, h):
        return np.full(len(x), np.nan), np.ones(len(x), dtype=bool)

    monkeypatch.setattr("sdforms.cli.selfdual.kato_ratio", undefined)
    code, rep = run(capsys, "verify", "kato", "--samples", "5")
    assert code == 1
    assert set(rep["details"]["points_evaluated_per_form"].values()) == {0}
    assert len(rep["failures"]) == 3
    assert rep["failures"][0]["reason"] == "no point with a defined Kato ratio"


@pytest.mark.parametrize("flags,named", [
    (["--epsilon", "nan"], "--epsilon"),
    (["--epsilon", "inf"], "--epsilon"),
    (["--epsilon", "0"], "--epsilon"),
    (["--epsilon=-0.1"], "--epsilon"),
    (["--epsilon", "0.1", "--rho-max", "0"], "--rho-max"),
    (["--epsilon", "0.1", "--rho-max", "inf"], "--rho-max"),
    (["--epsilon", "0.1", "--h", "nan"], "--h"),
    (["--epsilon", "0.1", "--h=-1e-3"], "--h"),
    (["--epsilon", "0.1", "--alpha", "nan"], "--alpha"),
    (["--epsilon", "0.1", "--beta=-inf"], "--beta"),
    (["--epsilon", "0.1", "--ricci-samples", "0"], "--ricci-samples"),
    (["--epsilon", "1e-300"], "--epsilon"),  # epsilon^2 underflows: a flat model
    # rho_max^2 underflows: the asymptotics envelope 10 / rho_max^2 divided by 0
    (["--epsilon", "0.1", "--rho-max", "1e-300"], "--rho-max"),
    (["--epsilon", "0.1", "--rho-max", "1e200"], "--rho-max"),
    # the powers the energy takes overflow: alpha^2, beta^2, epsilon^8
    (["--epsilon", "0.1", "--alpha", "1e300"], "--alpha"),
    (["--epsilon", "0.1", "--beta", "1e200"], "--beta"),
    (["--epsilon", "1e300"], "--epsilon"),
    (["--epsilon", "1e39"], "--epsilon"),
    # the boundary energy's radial derivative takes f^-5 with f ~ epsilon^2 and
    # t^-9 with t ~ 1 / epsilon; these printed the bare errno text
    (["--epsilon", "1e-36"], "--epsilon"),
    (["--epsilon", "1e37"], "--epsilon"),
])
def test_ale_report_rejects_bad_flags(capsys, monkeypatch, flags, named):
    # the flags are checked before any computation
    from sdforms import ale

    def forbidden(*args, **kwargs):
        raise AssertionError("computation ran")

    monkeypatch.setattr(ale.AKFormParams, "__post_init__", forbidden)
    code, rep = run(capsys, "ale-report", *flags)
    assert code == 2
    assert rep["status"] == "error"
    assert named in rep["message"]


@pytest.mark.parametrize("flags,named", [
    (["--epsilon", "1e-170", "--end", "minus", "--alpha", "1", "--beta", "1"], "--epsilon"),
    (["--epsilon", "1e-300", "--end", "plus"], "--epsilon"),
    (["--epsilon", "0", "--end", "plus"], "--epsilon"),
    (["--epsilon", "0.1", "--end", "plus", "--rho-max", "nan"], "--rho-max"),
    (["--epsilon", "0.1", "--end", "minus", "--alpha", "inf"], "--alpha"),
    # alpha^2, beta^2 or epsilon^2 overflow; these printed the bare errno text
    (["--epsilon", "0.1", "--end", "plus", "--alpha", "1e300"], "--alpha"),
    (["--epsilon", "0.1", "--end", "minus", "--beta", "1e200"], "--beta"),
    (["--epsilon", "1e300", "--end", "plus"], "--epsilon"),
])
def test_decay_rejects_bad_flags(capsys, monkeypatch, flags, named):
    # the flags are checked before any computation; epsilon^2 underflowing
    # to 0 made a flat model that reported pass
    from sdforms import ale

    def forbidden(*args, **kwargs):
        raise AssertionError("computation ran")

    monkeypatch.setattr(ale.AKFormParams, "__post_init__", forbidden)
    code, rep = run(capsys, "decay", *flags)
    assert code == 2
    assert rep["status"] == "error"
    assert named in rep["message"]


def test_evolve_ratio_at_rounding_level_is_null(capsys, tmp_path, monkeypatch):
    # both step-doubling errors at rounding level: the ratio is undefined,
    # reported as null rather than as a non-JSON infinity
    from sdforms.evolution import ModeExpansion

    monkeypatch.setattr(ModeExpansion, "distance", lambda self, field, t: 0.0)
    init = tmp_path / "init.json"
    dump_initial_field(left_invariant_coframe(1), str(init))
    code = dispatch(["evolve", "--init", str(init), "--steps", "4"])
    rep = strict_json(capsys.readouterr().out)
    assert code == 0
    assert rep["spectral_cross_check"]["step_doubling_ratio"] is None


def test_non_finite_report_value_is_an_error(capsys, monkeypatch):
    # no report is printed with NaN in it: strict JSON or a usage error
    from sdforms.ale import DecayReport

    monkeypatch.setattr("sdforms.cli.ale.decay_classify",
                        lambda profile: DecayReport(float("nan"), 0.0, "FastDecay"))
    code = dispatch(["decay", "--epsilon", "0.1", "--beta", "0", "--end", "minus"])
    rep = strict_json(capsys.readouterr().out)
    assert code == 2
    assert rep["status"] == "error"


@pytest.mark.parametrize("flags,named", [
    (["--points", "0"], "--points"),
    (["--c-min", "0"], "--c-min"),
    (["--c-min", "nan"], "--c-min"),
    (["--c-max", "inf"], "--c-max"),
    (["--c-max=-1"], "--c-max"),
])
def test_moser_rejects_bad_flags(capsys, monkeypatch, flags, named):
    # the flags are checked before any computation; --points 0 used to pass
    def forbidden(*args, **kwargs):
        raise AssertionError("computation ran")

    monkeypatch.setattr("sdforms.cli.regularity.moser_product", forbidden)
    code, rep = run(capsys, "moser", *flags)
    assert code == 2
    assert rep["status"] == "error"
    assert named in rep["message"]


def test_moser_overflow_is_an_error(capsys):
    # e^c overflows a float for c above about 709
    code, rep = run(capsys, "moser", "--c-max", "1e3")
    assert code == 2
    assert rep["status"] == "error"
    assert "c = 1000.0" in rep["message"]


def test_ale_report_curvature_window_past_the_float_range(capsys):
    # at epsilon = 1e-100 the window out to rho = 5 reaches |x| ~ 5e200,
    # whose fourth power the closed-form Ricci tensor takes
    code, rep = run(capsys, "ale-report", "--epsilon", "1e-100")
    assert code == 2
    assert "--epsilon" in rep["message"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ale_profile_past_the_float_range_is_silent(capsys, tmp_path):
    # (rho^2 + 4 epsilon^2)^4 overflows for |rho| above about 3.4e38: |Ric|^2
    # is written as 0 there, with no RuntimeWarning, and exactly as before
    # where the power is finite
    from sdforms.cli import _ric_sq

    assert _ric_sq(0.1, np.float64(1e50)) == 0.0
    assert _ric_sq(0.1, np.float64(3.0)) == pytest.approx(192e-4 / 9.04 ** 4, rel=1e-15)
    code = dispatch(["ale-report", "--epsilon", "0.1", "--alpha", "1", "--beta", "1",
                     "--rho-max", "1e50", "--ricci-samples", "5", "--output", str(tmp_path)])
    assert strict_json(capsys.readouterr().out)["status"] == "pass"
    assert code == 0
    rows = (tmp_path / "ale_profile.csv").read_text().splitlines()[1:]
    ric = {float(r.split(",")[0]): float(r.split(",")[2]) for r in rows}
    assert ric[1e50] == ric[-1e50] == 0.0
    assert ric[0.0] == pytest.approx(7500.0, rel=1e-12)


@pytest.mark.parametrize("rho_max, bound", [("1e8", 1e-15), ("1e20", 1e-39), ("1e50", 1e-99)])
def test_ale_asymptotics_far_out_pass(capsys, rho_max, bound):
    # the deviation from alpha^2 (beta^2) is taken in closed form, so it can
    # meet an envelope 10 / rho_max^2 far below the rounding of norm_sq
    code, rep = run(capsys, "ale-report", "--epsilon", "0.1", "--alpha", "1", "--beta", "1",
                    "--rho-max", rho_max, "--ricci-samples", "5")
    assert code == 0
    for end in ("plus_end", "minus_end"):
        asym = rep["asymptotics"][end]
        assert asym["bound"] == pytest.approx(bound, rel=1e-12)
        assert 0 < asym["deviation"] <= asym["bound"]


def test_ale_asymptotics_fail_far_from_the_end_regime(capsys):
    # at epsilon = 1e25 the default rho_max = 1000 is nowhere near either end
    code, rep = run(capsys, "ale-report", "--epsilon", "1e25", "--ricci-samples", "5")
    assert code == 1
    asym = rep["asymptotics"]
    assert asym["plus_end"]["deviation"] == pytest.approx(0.9375, rel=1e-12)
    assert asym["minus_end"]["deviation"] == pytest.approx(0.0625, rel=1e-12)
    assert [f["input"]["end"] for f in rep["failures"]
            if f["reason"] == "end asymptotics out of envelope"] == ["plus_end", "minus_end"]


@pytest.mark.parametrize("epsilon", ["1e3", "1e28"])
def test_ale_energy_at_large_epsilon(capsys, epsilon):
    # the cut-off 20 epsilon lies outside the neck; at 20 the extrapolation
    # was unstable (1e3) and the two boundary fluxes cancelled exactly (1e28)
    # (the asymptotics and decay blocks still fail there: their envelopes
    # do not scale with epsilon)
    code, rep = run(capsys, "ale-report", "--epsilon", epsilon, "--ricci-samples", "5")
    assert code in (0, 1)
    energy = rep["energy"]
    assert energy["cutoff"] == pytest.approx(20 * float(epsilon), rel=1e-15)
    assert energy["relative_agreement"] == pytest.approx(0.0074, abs=1e-4)
    assert energy["boundary"] == pytest.approx(energy["computed_constant"], rel=1e-6)
    assert not [f for f in rep["failures"] if f["operation"] == "grad_energy_boundary"]


@pytest.mark.parametrize("epsilon, cutoff", [(0.1, 100.0), (0.5, 20.0), (0.75, 20.0),
                                             (1.0, 20.0), (2.0, 40.0)])
def test_ale_energy_cutoff(epsilon, cutoff):
    # max(20, 20 epsilon, 10 / epsilon): unchanged at epsilon <= 1
    from sdforms.ale import AKFormParams
    from sdforms.cli import _ale_energy

    failures, energy = _ale_energy(None, AKFormParams(1.0, 0.0, epsilon))
    assert failures == []
    assert energy["cutoff"] == cutoff


def test_ale_report_overflowing_energy_is_an_error(capsys):
    # alpha and beta pass their own bound, but the energy leaves the float range
    code, rep = run(capsys, "ale-report", "--epsilon", "10", "--alpha", "1e153",
                    "--ricci-samples", "5")
    assert code == 2
    assert "past the float range" in rep["message"]


def test_decay_overflow_is_an_error(capsys):
    # epsilon^2 leaves the float range; this printed a traceback before
    code, rep = run(capsys, "decay", "--epsilon=1e300", "--end=plus")
    assert code == 2
    assert rep["status"] == "error"


def test_spectrum_degree10_passes(capsys):
    # the monomial Gram route gave an integer deviation of 5.0e-8 here
    code, rep = run(capsys, "spectrum", "--degree", "10")
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["residuals"]["max_integer_deviation"] <= 1e-12
    assert rep["complete"]


#: flag values at and past the edges: non-finite, signed zeros, negatives,
#: subnormal and overflowing magnitudes, plus ordinary values
EDGE_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0, -1.0,
                     5e-324, 1e-300, 1e300, 1.7e308, 700.0, 710.0]),
    st.floats(min_value=-1e3, max_value=1e3),
)


def exit_and_stdout(argv):
    """Exit code and stdout of one in-process run, usage errors included."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = dispatch(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def assert_exit_and_strict_json(argv):
    code, out = exit_and_stdout(argv)
    assert code in (0, 1, 2), (argv, code)
    rep = strict_json(out)
    assert rep["status"] == {0: "pass", 1: "fail", 2: "error"}[code], argv


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=-2, max_value=3), st.booleans())
def test_spectrum_degree_flag_values(degree, exact):
    assert_exit_and_strict_json(["spectrum", f"--degree={degree}"] + ["--exact"] * exact)


@settings(max_examples=40, deadline=None)
@given(EDGE_FLOATS, EDGE_FLOATS, st.integers(min_value=-2, max_value=40))
def test_moser_flag_values(c_min, c_max, points):
    assert_exit_and_strict_json(["moser", f"--c-min={c_min!r}", f"--c-max={c_max!r}",
                                 f"--points={points}"])


@settings(max_examples=60, deadline=None)
@given(EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS, st.sampled_from(["plus", "minus"]))
def test_decay_flag_values(epsilon, alpha, beta, rho_max, end):
    assert_exit_and_strict_json(["decay", f"--epsilon={epsilon!r}", f"--alpha={alpha!r}",
                                 f"--beta={beta!r}", f"--rho-max={rho_max!r}", f"--end={end}"])


@settings(max_examples=40, deadline=None)
@given(EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS)
def test_ale_report_flag_values(epsilon, alpha, beta, rho_max):
    assert_exit_and_strict_json(["ale-report", f"--epsilon={epsilon!r}", f"--alpha={alpha!r}",
                                 f"--beta={beta!r}", f"--rho-max={rho_max!r}"])
