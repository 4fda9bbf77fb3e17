"""Workloads of the sdforms benchmark and their seeded input generator.

Each workload is a fixed list of ``sdforms`` command lines.  Everything that
varies with the benchmark seed -- each ``--seed`` flag and the ``evolve``
initial-data files -- is derived from it here, so the same seed gives
byte-identical inputs.  The program itself receives only flags and files.

Run as a script, with the checkout's ``src`` on ``PYTHONPATH``::

    python3 perfbench/workloads.py --workload pairings --seed 7 --out DIR

It writes ``DIR/manifest.json`` (the invocation list) and any input files
the workload needs; argument paths in the manifest are relative to ``DIR``.
"""

import argparse
import hashlib
import json
import os
import sys

#: the float spectrum ladder; the highest degree that exits 0 is the
#: ``max_degree_float`` figure, so its top rung may fail without the
#: invocation counting as a broken report
LADDER = (4, 6, 8, 10)
EXACT_DEGREES = (2, 3)
EVOLVE_DEGREES = (3, 4)

#: spectral: operator assembly, the divergence-free SVD, eigh and rational
#: elimination, no pointwise evaluation.  pointwise: one-point series
#: evaluation and stencils, no operator, Gram matrix or eigensolve (the
#: bypass for spectral changes).  pairings: dict-of-monomials products
#: (coframe_inner, sphere_integral) and RK4.
WORKLOADS = ("spectral", "pointwise", "pairings")


def derive_seed(seed, label):
    """A 31-bit seed for one input, fixed by the benchmark seed and a label."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def invocations(workload, seed):
    """The workload's command lines, as dicts with ``argv`` and ``ladder``.

    ``ladder`` holds the degree of a float-ladder rung and is ``None``
    for every other invocation.
    """
    def seeded(label, *argv):
        return [*argv, "--seed", str(derive_seed(seed, label))]

    out = []
    if workload == "spectral":
        for D in LADDER:
            out.append({"argv": seeded(f"spectrum-d{D}", "spectrum", "--degree", str(D)),
                        "ladder": D})
        for D in EXACT_DEGREES:
            out.append({"argv": seeded(f"spectrum-exact-d{D}", "spectrum", "--degree",
                                       str(D), "--exact"), "ladder": None})
        out.append({"argv": seeded("hodge", "verify", "hodge", "--degree", "6"),
                    "ladder": None})
    elif workload == "pointwise":
        out.append({"argv": seeded("kato", "verify", "kato"), "ladder": None})
        out.append({"argv": seeded("elliptic", "verify", "elliptic"), "ladder": None})
        out.append({"argv": seeded("ale", "ale-report", "--epsilon", "0.1"),
                    "ladder": None})
    elif workload == "pairings":
        out.append({"argv": seeded("orthogonality", "verify", "orthogonality",
                                   "--degree", "3"), "ladder": None})
        for D in EVOLVE_DEGREES:
            out.append({"argv": seeded(f"evolve-d{D}", "evolve", "--init",
                                       evolve_input_name(D), "--steps", "100"),
                        "ladder": None})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def evolve_input_name(D):
    return f"init_d{D}.json"


def write_evolve_input(seed, D, path):
    """A random divergence-free degree-D field, written in the evolve format.

    ``star_d`` of any field is divergence-free (div o *d = 0), so the image
    of a field with standard normal coefficients is a valid initial datum.
    """
    import numpy as np

    from sdforms.evolution import dump_initial_field
    from sdforms.polys import make_basis, star_d

    rng = np.random.default_rng(derive_seed(seed, f"evolve-field-d{D}"))
    basis = make_basis(D)
    field = star_d(basis.coframe_from_vector(rng.standard_normal(3 * basis.dim)))
    if field.degree != D:
        raise RuntimeError(f"generated field has degree {field.degree}, wanted {D}")
    dump_initial_field(field, path)


def generate(workload, seed, out_dir):
    """Write the manifest and input files of one workload into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    invs = invocations(workload, seed)
    if workload == "pairings":
        for D in EVOLVE_DEGREES:
            write_evolve_input(seed, D, os.path.join(out_dir, evolve_input_name(D)))
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed, "invocations": invs},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return invs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
