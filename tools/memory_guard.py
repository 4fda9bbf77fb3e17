"""Peak memory guard for ``sdforms evolve``, ``ale-report`` and ``verify frames``.

    python3 tools/memory_guard.py

Runs three commands, each in one fresh ``python3 -m sdforms.cli`` process
reaped with ``os.wait4`` as in ``tools/spectrum_ladder.py``:

* ``evolve --init FILE`` on the benchmark's evolve input of degree 14 at
  seed 7 (``perfbench/workloads.write_evolve_input``, written to a temporary
  directory), within 100 MB peak RSS;
* ``ale-report --epsilon 0.1 --ricci-samples 30000``, within 45 MB: the
  finite-difference Ricci oracle and its comparison with the closed form
  run in blocks, so their memory does not grow with the number of samples
  (the comparison over all samples at once peaked at 49 MB);
* ``verify frames --samples 100000``, within 60 MB: the frame checks run in
  blocks too (all points at once peaked at 138 MB).

One line is printed per command; the exit code is 1 unless all exit 0
within their bounds.
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]

import spectrum_ladder  # noqa: E402
import workloads  # noqa: E402

DEGREE = 14
SEED = 7
RICCI_SAMPLES = 30000
FRAME_SAMPLES = 100000


def guard(label, argv, max_rss_mb):
    """Run one command; True when it exits 0 within max_rss_mb peak RSS."""
    run = spectrum_ladder.run_child(ROOT, argv)
    over = run["peak_rss_mb"] > max_rss_mb
    print(f"{label}  exit {run['exit']}  {run['wall_s']:8.2f} s  "
          f"{run['cpu_s']:8.2f} s cpu  {run['peak_rss_mb']:8.1f} MB"
          + (f"  over {max_rss_mb:.0f} MB" if over else ""), flush=True)
    return run["exit"] == 0 and not over


def main():
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "init.json")
        workloads.write_evolve_input(SEED, DEGREE, path)
        ok = guard(f"evolve, degree-{DEGREE} field", ["evolve", "--init", path], 100.0)
    ok &= guard(f"ale-report, {RICCI_SAMPLES} Ricci samples",
                ["ale-report", "--epsilon", "0.1", "--ricci-samples", str(RICCI_SAMPLES)], 45.0)
    ok &= guard(f"verify frames, {FRAME_SAMPLES} samples",
                ["verify", "frames", "--samples", str(FRAME_SAMPLES)], 60.0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
