"""Tests of the benchmark's own code: generator, checker and span arithmetic.

Run from the checkout root with ``python3 -m pytest -q perfbench``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from check import check_invocation
from traced import LAYERS, Tracer, layer_totals, self_times
from workloads import WORKLOADS, derive_seed, generate, invocations

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.fixture
def sdforms_path(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path, sdforms_path):
    generate(workload, 17, tmp_path / "a")
    generate(workload, 17, tmp_path / "b")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert "manifest.json" in first
    if workload == "pairings":
        assert {"init_d3.json", "init_d4.json"} <= set(first)


def test_generator_derives_every_seed_from_the_benchmark_seed():
    for workload in WORKLOADS:
        a = invocations(workload, 1)
        b = invocations(workload, 2)
        for inv_a, inv_b in zip(a, b):
            seed_a = inv_a["argv"][inv_a["argv"].index("--seed") + 1]
            seed_b = inv_b["argv"][inv_b["argv"].index("--seed") + 1]
            assert seed_a != seed_b
    assert derive_seed(5, "kato") == derive_seed(5, "kato") < 2 ** 31


def test_evolve_inputs_differ_between_seeds(tmp_path, sdforms_path):
    generate("pairings", 1, tmp_path / "a")
    generate("pairings", 2, tmp_path / "b")
    assert (tmp_path / "a" / "init_d3.json").read_bytes() != \
        (tmp_path / "b" / "init_d3.json").read_bytes()


ORTHO = ["verify", "orthogonality", "--degree", "3"]


def _ortho_report(status="pass", pairs=1387, worst=1e-16, failures=()):
    return json.dumps({"suite": "orthogonality", "status": status,
                       "failures": list(failures),
                       "details": {"distinct_pairs_checked": pairs,
                                   "max_shell_pairing": worst, "degree": 3}})


def test_checker_accepts_a_good_report():
    assert check_invocation(ORTHO, 0, _ortho_report()) == []


def test_checker_rejects_nan():
    text = _ortho_report().replace("1e-16", "NaN")
    assert "NaN" in text
    problems = check_invocation(ORTHO, 0, text)
    assert problems and "strict JSON" in problems[0]


def test_checker_rejects_status_exit_mismatch():
    assert check_invocation(ORTHO, 1, _ortho_report())
    assert check_invocation(ORTHO, 0, _ortho_report("fail", failures=[{"reason": "x"}]))


def test_checker_rejects_a_vacuous_or_out_of_bound_pass():
    assert check_invocation(ORTHO, 0, _ortho_report(pairs=0))
    assert check_invocation(ORTHO, 0, _ortho_report(worst=1e-9))


def test_checker_accepts_a_failing_ladder_rung_only_when_allowed():
    argv = ["spectrum", "--degree", "10"]
    text = json.dumps({"status": "fail", "failures": [{"reason": "deviation"}]})
    assert check_invocation(argv, 1, text, may_fail=True) == []
    assert check_invocation(argv, 1, text)
    empty = json.dumps({"status": "fail", "failures": []})
    assert check_invocation(argv, 1, empty, may_fail=True)


def test_checker_spectrum_multiplicities():
    argv = ["spectrum", "--degree", "2", "--exact"]
    modes = [{"lambda": lam, "multiplicity": lam * lam - 1} for lam in (-2, 2, 3, 4)]
    report = {"status": "pass", "failures": [], "subspace_dim": 37,
              "trusted_window": [-2, 4], "modes": modes, "complete": True,
              "residuals": {"max_integer_deviation": 0.0, "cluster_tol": 1e-8}}
    assert check_invocation(argv, 0, json.dumps(report)) == []
    modes[1]["multiplicity"] = 2
    assert check_invocation(argv, 0, json.dumps(report))
    modes[1]["multiplicity"] = 3
    report["complete"] = False
    assert check_invocation(argv, 0, json.dumps(report))


def test_span_self_time_never_exceeds_span():
    tracer = Tracer()

    def leaf(k):
        return sum(range(k))

    traced_leaf = tracer.wrap(leaf, "inner")

    def outer(k):
        return traced_leaf(k) + traced_leaf(2 * k)

    traced_outer = tracer.wrap(outer, "outer")
    for k in (10, 1000, 100000):
        traced_outer(k)
    spans = tracer.to_json()
    dur, own = self_times(spans)
    assert all(0 <= s <= d for s, d in zip(own, dur))
    totals = layer_totals(spans)
    assert totals["outer"]["calls"] == 3 and totals["inner"]["calls"] == 6
    outer_total = sum(d for d, layer in zip(dur, spans["layer"]) if layer == "outer")
    assert totals["outer"]["self_s"] + totals["inner"]["self_s"] <= outer_total * 1e-9 + 1e-12


def test_raised_calls_are_counted_as_errors():
    tracer = Tracer()

    def reject(x):
        if x < 0:
            raise ValueError("negative")
        return x

    wrapped = tracer.wrap(reject, "layer")
    wrapped(1)
    with pytest.raises(ValueError):
        wrapped(-1)
    assert layer_totals(tracer.to_json())["layer"]["errors"] == 1


def test_traced_bootstrap_records_layers(tmp_path):
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans_path), "--",
         "spectrum", "--degree", "2", "--exact"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert check_invocation(["spectrum", "--degree", "2", "--exact"], 0, proc.stdout) == []
    spans = json.loads(spans_path.read_text())
    dur, own = self_times(spans)
    assert all(0 <= s <= d for s, d in zip(own, dur))
    totals = layer_totals(spans)
    assert set(totals) <= set(LAYERS)
    for layer in ("polys.gram", "spectrum.decompose", "exactla.elimination"):
        assert totals[layer]["calls"] > 0
    assert "selfdual.series" not in totals
