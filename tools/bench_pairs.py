"""Alternated before/after runs of the benchmark, for a BENCH_*.json record.

    python3 tools/bench_pairs.py --before ../parent --after . --out pairs.json

For each workload and each of ten pairs i (seed i + 1), runs ``python3
perfbench/run.py --workload W --seed S --seconds 30 --trace 0`` in the
``--before`` checkout and in the ``--after`` checkout, one process at a
time, alternating which side goes first.  Each run's last stdout line is its JSON result.  The
output holds per workload the end-to-end metrics of every run, their median
and quartiles per side, and per metric the number of pairs in which
``--after`` read lower.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("spectral", "pointwise", "pairings")
PAIRS = 10


def run_bench(root, workload, seed):
    """The end-to-end metrics and failure counts of one benchmark run."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "30", "--trace", "0"],
                          cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    out = {name: m["value"] for name, m in result["metrics"].items()}
    out.update(attempted=result["attempted"], failed=result["failed"])
    return out


def summary(runs, name):
    values = sorted(r[name] for r in runs)
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--before", required=True, help="checkout of the parent commit")
    ap.add_argument("--after", required=True, help="checkout of the change")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    record = {}
    for workload in WORKLOADS:
        runs = {"before": [], "after": []}
        for i in range(PAIRS):
            sides = ["before", "after"] if i % 2 == 0 else ["after", "before"]
            for side in sides:
                runs[side].append(run_bench(getattr(args, side), workload, i + 1))
                print(workload, i, side, json.dumps(runs[side][-1]), flush=True)
        metrics = [m for m in runs["before"][0] if m not in ("attempted", "failed")]
        record[workload] = {
            "runs": runs,
            "before": {m: summary(runs["before"], m) for m in metrics},
            "after": {m: summary(runs["after"], m) for m in metrics},
            "after_lower_in_pairs": {m: sum(a[m] < b[m] for a, b in
                                            zip(runs["after"], runs["before"]))
                                     for m in metrics},
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
