"""Wall time, CPU time and peak memory of ``sdforms spectrum`` at growing degree.

    python3 tools/spectrum_ladder.py
    python3 tools/spectrum_ladder.py --float 16 --exact --max-rss-mb 250
    python3 tools/spectrum_ladder.py --root ../other-checkout --out ladder.json

Each rung is one fresh ``python3 -m sdforms.cli spectrum --degree D`` process
(``--exact`` for the exact rungs) importing the program from ``ROOT/src``.
The child is reaped with ``os.wait4``, so its own CPU time (user plus
system) and peak RSS are read; its address space is capped at 4 GiB so
that a rung which would exhaust a shared machine fails instead, and it is
killed after 600 s.  One line per rung is printed and, with ``--out``, the
records are written as JSON.  The exit code is 1 when a rung
exits non-zero or goes over ``--max-rss-mb``.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

FLOAT_DEGREES = (10, 12, 16, 20, 24)
EXACT_DEGREES = (6, 8, 10)
LIMIT_BYTES = 4 * 2 ** 30
TIMEOUT_S = 600.0


def run_rung(root, degree, exact):
    """Exit code, report status, wall and CPU time and peak RSS of one spectrum run."""
    argv = [sys.executable, "-m", "sdforms.cli", "spectrum", "--degree", str(degree)]
    argv += ["--exact"] * exact
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))

    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, preexec_fn=cap)
    timer = threading.Timer(TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        report = json.loads(out)
    except ValueError:
        report = {}
    return {
        "degree": degree,
        "ring": "exact" if exact else "float",
        "exit": proc.returncode,
        "status": report.get("status"),
        "wall_s": round(wall, 3),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
        "max_integer_deviation": report.get("residuals", {}).get("max_integer_deviation"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=Path(__file__).resolve().parent.parent,
                    help="source checkout whose src/ is run (default: this one)")
    ap.add_argument("--float", dest="float_degrees", type=int, nargs="*",
                    default=FLOAT_DEGREES, help="float-ring degrees")
    ap.add_argument("--exact", dest="exact_degrees", type=int, nargs="*",
                    default=EXACT_DEGREES, help="exact-ring degrees")
    ap.add_argument("--max-rss-mb", type=float, default=None,
                    help="fail when a rung's peak RSS exceeds this")
    ap.add_argument("--out", default=None, help="write the records to this JSON file")
    args = ap.parse_args(argv)
    rungs = ([(D, False) for D in args.float_degrees]
             + [(D, True) for D in args.exact_degrees])
    records = []
    bad = 0
    for degree, exact in rungs:
        rec = run_rung(args.root, degree, exact)
        over = args.max_rss_mb is not None and rec["peak_rss_mb"] > args.max_rss_mb
        bad += rec["exit"] != 0 or over
        records.append(rec)
        print(f"spectrum --degree {degree:3d} {'--exact' if exact else '       '}  "
              f"exit {rec['exit']}  {rec['wall_s']:8.2f} s  {rec['cpu_s']:8.2f} s cpu  "
              f"{rec['peak_rss_mb']:8.1f} MB"
              + ("  over --max-rss-mb" if over else ""), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
