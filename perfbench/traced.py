"""Traced bootstrap: run one ``sdforms`` command with per-layer spans.

    python3 perfbench/traced.py SPANS.json -- spectrum --degree 8

Before dispatching, it wraps the public functions of each layer (named after
the module that owns them) wherever an ``sdforms`` module binds them -- for
instance ``sdforms.spectrum.operator_matrix`` as well as
``sdforms.polys.operator_matrix`` -- and methods on their classes.  Each call
appends a span (layer, start, end, parent, raised, size) to lists kept in
memory; the spans are written to SPANS.json when the command returns.  The
program itself is not changed.

The module imports nothing from ``sdforms`` at import time, so the
benchmark runner and the tests can use :data:`LAYERS` and
:func:`layer_totals` without loading the program.
"""

import json
import sys
import time

#: layer -> the functions it owns, as (module, qualified name)
LAYERS = {
    "polys.gram": [("sdforms.polys", "PolyBasis.gram"), ("sdforms.polys", "coframe_gram")],
    "polys.operator": [("sdforms.polys", "operator_matrix"), ("sdforms.polys", "make_basis")],
    "polys.materialize": [("sdforms.polys", "PolyBasis.coframe_from_vector")],
    "polys.algebra": [("sdforms.polys", "coframe_inner"), ("sdforms.polys", "sphere_integral"),
                      ("sdforms.polys", "CoframeField.norm_sq_poly")],
    "polys.eval": [("sdforms.polys", "PolyScalar.__call__"),
                   ("sdforms.polys", "CoframeField.evaluate")],
    "spectrum.subspace": [("sdforms.spectrum", "divergence_free_subspace")],
    "spectrum.eigensolve": [("sdforms.spectrum", "eigh")],
    "spectrum.decompose": [("sdforms.spectrum", "eigen_decompose")],
    "exactla.elimination": [("sdforms.exactla", "nullspace"), ("sdforms.exactla", "rref")],
    "selfdual.series": [("sdforms.selfdual", "SelfDualForm.__call__"),
                        ("sdforms.selfdual", "SelfDualForm.norm")],
    "selfdual.stencil": [("sdforms.selfdual", "kato_ratio"), ("sdforms.selfdual", "d_residual"),
                         ("sdforms.selfdual", "harmonic_residual")],
    "regularity.stencil": [("sdforms.regularity", "sqrt_elliptic_check")],
    "ale.curvature": [("sdforms.ale", "ALEModel.ricci_numeric"),
                      ("sdforms.ale", "ALEModel.ricci_closed_form"),
                      ("sdforms.ale", "ALEModel.ricci_norm_sq"),
                      ("sdforms.ale", "ALEModel.scalar_curvature")],
    "ale.energy": [("sdforms.ale", "grad_energy_volume"), ("sdforms.ale", "grad_energy_boundary"),
                   ("sdforms.ale", "grad_norm_sq_batch"), ("sdforms.ale", "ak_matrix_batch")],
    "quadrature": [("sdforms.quadrature", "s3_quadrature"),
                   ("sdforms.quadrature", "radial_gauss")],
    "evolution.rk4": [("sdforms.evolution", "evolve_ode")],
    "evolution.expand": [("sdforms.evolution", "decompose_initial"),
                         ("sdforms.evolution", "propagate"),
                         ("sdforms.evolution", "div_residual")],
}

#: (module, qualified name) -> (size metric, size of one call from its
#: positional arguments and result); sizes are summed per layer
SIZES = {
    ("sdforms.polys", "PolyBasis.gram"): ("entries", lambda args, out: args[0].dim ** 2),
    ("sdforms.spectrum", "divergence_free_subspace"): ("dim", lambda args, out: out.dim),
    ("sdforms.spectrum", "eigh"): ("order", lambda args, out: len(args[0])),
    ("sdforms.exactla", "rref"): ("entries",
                                  lambda args, out: len(args[0]) * len(args[0][0])
                                  if args[0] else 0),
}

#: layers whose functions reject some inputs by raising
ERROR_LAYERS = ("selfdual.stencil", "regularity.stencil")


class Tracer:
    """Span lists for one process; ``wrap`` returns a recording wrapper."""

    def __init__(self):
        self.layer = []
        self.start = []
        self.end = []
        self.parent = []
        self.raised = []
        self.size = []
        self._stack = [-1]

    def wrap(self, fn, layer, size_fn=None):
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(self.start)
            self.layer.append(layer)
            self.parent.append(self._stack[-1])
            self.end.append(0)
            self.raised.append(False)
            self.size.append(0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.raised[i] = True
                raise
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if size_fn is not None:
                self.size[i] = size_fn(args, out)
            return out

        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def to_json(self):
        return {"layer": self.layer, "start": self.start, "end": self.end,
                "parent": self.parent, "raised": self.raised, "size": self.size}


def install(tracer):
    """Wrap every function of :data:`LAYERS` at each place it is bound."""
    import importlib

    importlib.import_module("sdforms.cli")
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "sdforms" or name.startswith("sdforms."))]
    for layer, targets in LAYERS.items():
        for module_name, qualname in targets:
            owner = importlib.import_module(module_name)
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            _, size_fn = SIZES.get((module_name, qualname), (None, None))
            wrapper = tracer.wrap(original, layer, size_fn)
            if cls_path:
                setattr(owner, attr, wrapper)
                continue
            bound = 0
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"{module_name}.{qualname} is bound nowhere")


def self_times(spans):
    """Each span's duration and self time, in nanoseconds.

    Self time is the duration minus the durations of the direct children;
    calls in one process nest, so children never overlap.
    """
    duration = [e - s for s, e in zip(spans["start"], spans["end"])]
    child = [0] * len(duration)
    for i, p in enumerate(spans["parent"]):
        if p >= 0:
            child[p] += duration[i]
    return duration, [d - c for d, c in zip(duration, child)]


def layer_totals(spans):
    """Per-layer calls, self time (s), raised count and summed size."""
    _, own = self_times(spans)
    totals = {}
    for i, self_ns in enumerate(own):
        t = totals.setdefault(spans["layer"][i],
                              {"calls": 0, "self_s": 0.0, "errors": 0, "size": 0})
        t["calls"] += 1
        t["self_s"] += self_ns * 1e-9
        t["errors"] += int(spans["raised"][i])
        t["size"] += spans["size"][i]
    return totals


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py SPANS.json -- SDFORMS-ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    from sdforms.cli import dispatch

    try:
        return dispatch(argv[2:])
    finally:
        with open(argv[0], "w") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
