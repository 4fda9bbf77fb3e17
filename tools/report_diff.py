"""Byte-compare the reports of two checkouts, invocation by invocation.

    python3 tools/report_diff.py --before ../parent --after .

Runs every invocation of the benchmark workloads at seeds 1, 2 and 7, with
their input files written by ``perfbench/workloads.generate`` into a
temporary directory, and a fixed list of further invocations that reach the
edges the workloads do not (large samples and degrees, failing ε, the
Ricci oracle from ε = 1.5e-31 to 1e28, the zero form's energy, both decay
ends with and without the β cross term, a ``verify frames`` that crosses
block boundaries, the exact and float eigenfield routes on blocks of both
parities, ``evolve`` on the seeded degree-14 field of
``tools/memory_guard.py``, whose eigencomponent split runs through every
parity, and ``evolve`` on a seeded degree-3 field where the step-doubling
ratio is null, where the field grows and where the run goes backward, the
smallest mode sets of ``verify orthogonality`` and the error reports of
out-of-range ``--samples``, ``--degree`` and ``--epsilon``).  Each
runs once in each checkout as a fresh ``python3 -m sdforms.cli`` process
through ``spectrum_ladder.run_child``, which imports the program from
``CHECKOUT/src``.  Then every ``demos/*.py`` of either checkout runs in
each, from the checkout's directory with its ``src`` on the path.  One line
per invocation or demo says ``same`` or ``DIFF``; the exit code is 1 when
any stdout or exit code differs.  With ``--before . --after .`` it checks
that stdout is deterministic: every run happens twice, each in a fresh
process with its own random hash seed unless ``PYTHONHASHSEED`` is set.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the evolve inputs are written with this checkout's sdforms
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from spectrum_ladder import run_child  # noqa: E402

SEEDS = (1, 2, 7)
EXTRA = (
    ["verify", "frames", "--seed", "1"],
    ["verify", "frames", "--seed", "2"],
    ["verify", "frames", "--seed", "7"],
    ["verify", "frames", "--samples", "1"],
    ["verify", "frames", "--samples", "5000"],
    ["verify", "kato", "--samples", "2000"],
    ["verify", "elliptic", "--samples", "2000"],
    ["ale-report", "--epsilon", "1"],
    ["ale-report", "--epsilon", "2"],
    ["ale-report", "--epsilon", "1e-2"],
    ["ale-report", "--epsilon", "1e-6"],
    ["ale-report", "--epsilon", "1.5e-31"],
    ["ale-report", "--epsilon", "1e28"],
    # the zero form, whose energy both routes evaluate
    ["ale-report", "--epsilon", "0.1", "--alpha", "0", "--beta", "0"],
    ["decay", "--epsilon", "0.1", "--end", "plus"],
    ["decay", "--epsilon", "0.1", "--end", "minus"],
    # beta != 0 reaches the cross term <eta_2, eta_{-2}> of the decay profile
    ["decay", "--epsilon", "0.1", "--end", "plus", "--beta", "1"],
    ["decay", "--epsilon", "0.1", "--end", "minus", "--beta", "1"],
    ["moser"],
    ["spectrum", "--degree", "12"],
    ["spectrum", "--degree", "6", "--exact"],
    ["verify", "hodge", "--degree", "12"],
    ["verify", "orthogonality", "--degree", "6"],
    ["verify", "orthogonality", "--degree", "8"],
    # degree 0 has no distinct eigenvalue pair, a failure record
    ["verify", "orthogonality", "--degree", "0"],
    ["verify", "orthogonality", "--degree", "1"],
    # error reports
    ["verify", "kato", "--samples", "0"],
    ["verify", "orthogonality", "--samples", "0"],
    ["verify", "kato", "--degree", "-1"],
    ["verify", "hodge", "--degree", "-1"],
    ["spectrum", "--degree", "-1"],
    ["spectrum", "--degree", "-1", "--exact"],
    # epsilon^2 underflows to 0: the epsilon^-10 rule names --epsilon
    ["ale-report", "--epsilon", "1e-300"],
)
#: flags of ``evolve`` on the seeded degree-3 field: a ratio at the rounding
#: floor (null), a growing field and a backward run
EVOLVE_D3 = (
    ["--steps", "1000"],
    ["--t1", "1e4", "--steps", "2000"],
    ["--t0", "2", "--t1", "0.5", "--steps", "300"],
)


def invocations(tmp):
    """The command lines to compare; input files are written under ``tmp``."""
    out = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            d = Path(tmp) / f"{workload}-{seed}"
            for inv in workloads.generate(workload, seed, str(d)):
                # manifest paths are relative to the workload directory
                out.append([str(d / a) if (d / a).is_file() else a for a in inv["argv"]])
    evolve_input, evolve_d3 = (str(Path(tmp) / f"evolve-d{D}.json") for D in (14, 3))
    workloads.write_evolve_input(7, 14, evolve_input)
    workloads.write_evolve_input(7, 3, evolve_d3)
    return (out + [list(argv) for argv in EXTRA] + [["evolve", "--init", evolve_input]]
            + [["evolve", "--init", evolve_d3, *flags] for flags in EVOLVE_D3])


def run_demo(root, name):
    """Exit code and stdout of ``demos/NAME`` run in the checkout ``root``."""
    root = Path(root).resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, str(root / "demos" / name)], cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return {"exit": proc.returncode, "stdout": proc.stdout}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--before", required=True, help="checkout of the parent commit")
    ap.add_argument("--after", required=True, help="checkout of the change")
    args = ap.parse_args(argv)
    demos = sorted({p.name for root in (args.before, args.after)
                    for p in Path(root).glob("demos/*.py")})
    diffs = 0
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(run_child, cmd, " ".join(Path(a).name if a.startswith(tmp) else a for a in cmd))
                for cmd in invocations(tmp)]
        runs += [(run_demo, name, f"demos/{name}") for name in demos]
        for run, what, label in runs:
            before, after = run(args.before, what), run(args.after, what)
            same = (before["exit"], before["stdout"]) == (after["exit"], after["stdout"])
            diffs += not same
            print(f"{'same' if same else 'DIFF'}  exit {before['exit']} -> {after['exit']}  "
                  + label, flush=True)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
