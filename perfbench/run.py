"""Benchmark runner: runs one workload of ``sdforms`` command lines.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the program is imported from
``src/`` there, never from an installed copy.  Each invocation is a fresh
``python3 -m sdforms.cli`` process, started only after the previous one has
exited: a closed loop with one client.  The runner

1. writes the workload's inputs from ``--seed`` (``workloads.py``),
2. times ``import sdforms`` in fresh interpreters (``setup_s``),
3. runs the invocation list in passes until ``--seconds`` is used up (a pass
   starts while at least half of it still fits), checks every report
   (``check.py``) and
4. prints a readable summary, then one JSON line: with ``--trace 0`` the
   end-to-end metrics, with ``--trace 1`` the per-layer metrics of one
   traced pass (``traced.py``) next to untraced passes.

The inputs and reports are kept under ``.perfbench_work/`` in the checkout
and removed on exit.  Exit code 2 without a result means the checkout has
no program to run.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import check_invocation  # noqa: E402
from traced import ERROR_LAYERS, LAYERS, SIZES, layer_totals  # noqa: E402
from workloads import LADDER, WORKLOADS  # noqa: E402

SETUP_IMPORTS = 7
#: children still running this long after the runner started are killed
RUN_LIMIT_S = 170.0
#: no pass starts after this many seconds of measuring
LAST_PASS_START_S = 100.0
SUBCOMMANDS = ("spectrum", "verify", "evolve", "ale-report")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

IMPORT_PROBE = """\
import json, sys, time
t = time.perf_counter()
import sdforms
dt = time.perf_counter() - t
import numpy, scipy
print(json.dumps({"import_s": dt, "sdforms_file": sdforms.__file__,
                  "sdforms": sdforms.__version__, "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "python": sys.version.split()[0]}))
"""

#: layer -> name of its size metric (``entries``, ``dim``, ``order``)
LAYER_SIZE = {layer: size_name for target, (size_name, _) in SIZES.items()
              for layer, targets in LAYERS.items() if target in targets}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for layer, size_name in LAYER_SIZE.items():
        units[f"{layer}.{size_name}"] = "count"
    for layer in ERROR_LAYERS:
        units[f"{layer}.errors"] = "count"
    for sub in SUBCOMMANDS:
        units[f"cli.{sub}.wall_s"] = "s"
    units["cli.failed_frac"] = "ratio"
    units["spectrum.max_degree_float"] = "degree"
    units["trace.overhead_s"] = "s"
    return units


class ChildFailed(RuntimeError):
    pass


def run_child(cmd, cwd, env, stdout_path, timeout):
    """Run one process to completion; returns wall, CPU, peak RSS, exit, stdout.

    The child is reaped with ``os.wait4`` so its own resource usage is read.
    A child still running after ``timeout`` seconds is killed.
    """
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
        "stdout": Path(stdout_path).read_text(errors="replace"),
    }


class Bench:
    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.python = sys.executable
        self.invocations = []
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def child(self, cmd, name):
        timeout = max(self.deadline - time.perf_counter(), 1.0)
        return run_child(cmd, self.work, self.env, self.work / f"{name}.out", timeout)

    def generate(self):
        res = self.child([self.python, str(HERE / "workloads.py"), "--workload",
                          self.workload, "--seed", str(self.seed), "--out", str(self.work)],
                         "generate")
        if res["exit"] != 0:
            raise ChildFailed("input generator failed")
        manifest = json.loads((self.work / "manifest.json").read_text())
        self.invocations = manifest["invocations"]

    def setup(self):
        """Median import time of ``sdforms`` in fresh interpreters, and versions.

        The first import compiles bytecode and fills the file cache, which a
        user pays once, not on every run; it is not timed.
        """
        probes = []
        for k in range(SETUP_IMPORTS + 1):
            res = self.child([self.python, "-c", IMPORT_PROBE], f"import{k}")
            if res["exit"] != 0:
                raise ChildFailed("import sdforms failed")
            probes.append(json.loads(res["stdout"]))
        src = (self.root / "src").resolve()
        if src not in Path(probes[0]["sdforms_file"]).resolve().parents:
            raise ChildFailed(f"sdforms imported from {probes[0]['sdforms_file']}, not {src}")
        return statistics.median(p["import_s"] for p in probes[1:]), probes[0]

    def invoke(self, k, inv, spans_path=None):
        argv = inv["argv"]
        if spans_path is None:
            cmd = [self.python, "-m", "sdforms.cli", *argv]
        else:
            cmd = [self.python, str(HERE / "traced.py"), str(spans_path), "--", *argv]
        res = self.child(cmd, f"inv{k}")
        res["argv"] = argv
        res["ladder"] = inv["ladder"]
        res["problems"] = check_invocation(argv, res["exit"], res["stdout"],
                                           may_fail=inv["ladder"] == LADDER[-1])
        del res["stdout"]
        return res

    def passes(self, seconds, t_start):
        """Untraced passes over the invocation list until ``seconds`` are used."""
        out = []
        while True:
            out.append([self.invoke(k, inv) for k, inv in enumerate(self.invocations)])
            elapsed = time.perf_counter() - t_start
            last = sum(r["wall_s"] for r in out[-1])
            if elapsed + 0.5 * last > seconds or elapsed > LAST_PASS_START_S:
                return out

    def traced_pass(self):
        results, spans = [], []
        for k, inv in enumerate(self.invocations):
            path = self.work / f"spans{k}.json"
            results.append(self.invoke(k, inv, spans_path=path))
            if path.exists():
                spans.append(json.loads(path.read_text()))
        return results, spans


def git_commit(root):
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root, seed, probe):
    return {
        "seed": seed,
        "sdforms": probe["sdforms"],
        "numpy": probe["numpy"],
        "scipy": probe["scipy"],
        "python": probe["python"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
        "git_commit": git_commit(root),
    }


def max_ladder_degree(results):
    """Highest ladder degree whose spectrum exits 0 (0 when none ran)."""
    return max((r["ladder"] for r in results
                if r["ladder"] is not None and r["exit"] == 0), default=0)


def failed_frac(results):
    """Invocations that exit non-zero or fail the checker, per attempted."""
    bad = sum(1 for r in results if r["exit"] != 0 or r["problems"])
    return bad / len(results)


def end_to_end(setup_s, passes):
    flat = [r for p in passes for r in p]
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(sum(r["wall_s"] for r in p) for p in passes),
        "cpu_s": statistics.median(sum(r["cpu_s"] for r in p) for p in passes),
        "peak_rss_mb": max(r["rss_mb"] for r in flat),
    }


def per_layer(traced, spans, passes, invocations):
    values = {name: 0 for name in per_layer_units()}
    for trace in spans:
        for layer, t in layer_totals(trace).items():
            values[f"{layer}.calls"] += t["calls"]
            values[f"{layer}.self_s"] += t["self_s"]
            if layer in ERROR_LAYERS:
                values[f"{layer}.errors"] += t["errors"]
            if layer in LAYER_SIZE:
                values[f"{layer}.{LAYER_SIZE[layer]}"] += t["size"]
    medians = [statistics.median(p[k]["wall_s"] for p in passes)
               for k in range(len(invocations))]
    for inv, wall in zip(invocations, medians):
        values[f"cli.{inv['argv'][0]}.wall_s"] += wall
    values["trace.overhead_s"] = sum(r["wall_s"] for r in traced) - sum(medians)
    values["cli.failed_frac"] = failed_frac([r for p in passes for r in p])
    values["spectrum.max_degree_float"] = max_ladder_degree(passes[0])
    return values


def summary_lines(workload, passes, checked, metrics, units):
    flat = [r for p in passes for r in p]
    walls = ", ".join(f"{sum(r['wall_s'] for r in p):.3f}" for p in passes)
    lines = [f"workload {workload}: {len(passes)} untraced pass(es) of "
             f"{len(passes[0])} invocations, pass walls {walls} s"]
    for k, r in enumerate(passes[0]):
        walls = [p[k]["wall_s"] for p in passes]
        note = "; ".join(r["problems"]) or ("ok" if r["exit"] == 0 else
                                           f"exit {r['exit']} (top ladder rung)")
        lines.append(f"  sdforms {' '.join(r['argv']):60s} exit {r['exit']}  "
                     f"median {statistics.median(walls):8.3f} s  {note}")
    for name, value in metrics.items():
        lines.append(f"  {name:32s} {value:.6g} {units[name]}")
    if any(r["ladder"] is not None for r in flat):
        lines.append(f"  {'max_degree_float':32s} {max_ladder_degree(passes[0])} degree")
    lines.append(f"  {'failed_frac':32s} {failed_frac(flat):.6g} ratio "
                 "(exit non-zero or checker failure, ladder rungs included)")
    for r in (r for p in checked for r in p if r["problems"]):
        lines.append(f"  FAILED sdforms {' '.join(r['argv'])}: {'; '.join(r['problems'])}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated runner unwinds, so it kills its running child and waits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "sdforms" / "cli.py").is_file():
        print(f"no sdforms source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        try:
            bench.generate()
            setup_s, probe = bench.setup()
        except ChildFailed as exc:
            print(f"cannot run the benchmark: {exc}", file=sys.stderr)
            return 2
        t_start = time.perf_counter()
        if args.trace:
            traced, spans = bench.traced_pass()
            passes = bench.passes(args.seconds, t_start)
            metrics = per_layer(traced, spans, passes, bench.invocations)
            units = per_layer_units()
            checked = [traced] + passes
        else:
            passes = bench.passes(args.seconds, t_start)
            metrics = end_to_end(setup_s, passes)
            units = END_TO_END
            checked = passes
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    for line in summary_lines(args.workload, passes, checked, metrics, units):
        print(line)
    print("env " + json.dumps(environment(root, args.seed, probe), sort_keys=True))
    results = [r for p in checked for r in p]
    failed = sum(1 for r in results if r["problems"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
