"""Peak memory guard for ``sdforms evolve`` on the seeded degree-14 field.

    python3 tools/evolve_guard.py

Writes the benchmark's evolve input of degree 14 at seed 7
(``perfbench/workloads.write_evolve_input``) to a temporary directory and
runs ``python3 -m sdforms.cli evolve --init FILE`` on it in one fresh
process, reaped with ``os.wait4`` as in ``tools/spectrum_ladder.py``.  One
line is printed; the exit code is 1 unless the run exits 0 within 100 MB
peak RSS.
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
MAX_RSS_MB = 100.0


def main():
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "init.json")
        workloads.write_evolve_input(SEED, DEGREE, path)
        run = spectrum_ladder.run_child(ROOT, ["evolve", "--init", path])
    over = run["peak_rss_mb"] > MAX_RSS_MB
    print(f"evolve, degree-{DEGREE} field  exit {run['exit']}  {run['wall_s']:8.2f} s  "
          f"{run['cpu_s']:8.2f} s cpu  {run['peak_rss_mb']:8.1f} MB"
          + (f"  over {MAX_RSS_MB:.0f} MB" if over else ""), flush=True)
    return 1 if run["exit"] != 0 or over else 0


if __name__ == "__main__":
    sys.exit(main())
