"""Spectral calculus for *d on the 3-sphere and self-dual 2-forms in four dimensions.

The package computes, in an exact finite polynomial model, the spectrum of
the curl-type operator *d on divergence-free 1-form fields of the round
3-sphere (integers of absolute value >= 2, multiplicity lambda^2 - 1),
evolves such fields by the first-order system d eta/du = curl(eta), and
synthesizes the corresponding closed self-dual 2-forms on flat R^4 and on an
explicit 2-ended scalar-flat ALE family, together with verification
pipelines for the curvature identities, the sharpened Kato bound, shell
orthogonality, gradient-energy laws and the flat-or-fast decay dichotomy.

Importing the package before numpy pins OpenBLAS to one thread unless the
caller set a BLAS thread count: the matrices here have at most a few hundred
rows at the usual degrees, where a second thread costs CPU and buys no wall
time, and a threaded product's rounding depends on the core count.  A numpy
already imported by a host program is left alone.

That pin and ``__version__`` are all that ``import sdforms`` does.  The
public names below, and the submodules (``sdforms.spectrum``, ...), are
served on first access (PEP 562): the owning module is imported then, with
numpy behind it, and the name is cached here.  ``import sdforms.polys``
likewise loads only polys and what it imports.
"""

import os as _os
import sys as _sys
from importlib import import_module as _import_module

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
if "numpy" not in _sys.modules and not any(v in _os.environ for v in _BLAS_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

#: submodule -> the public names it owns
_EXPORTS = {
    "ale": ("AKFormParams", "ALEModel", "DecayReport", "ak_form", "ak_form_eval",
            "decay_classify", "decay_profile", "grad_energy_boundary", "grad_energy_volume",
            "sup_grad"),
    "evolution": ("ModeExpansion", "decompose_initial", "evolve_ode", "load_initial_field",
                  "propagate"),
    "frames": ("hodge_star_s3", "left_frame_at", "right_frame_at", "structure_residual"),
    "polys": ("CoframeField", "PolyScalar", "curl", "div", "frame_derivative",
              "left_invariant_coframe", "make_basis", "operator_matrix",
              "right_invariant_coframe", "sphere_integral", "star_d"),
    "regularity": ("moser_product", "sqrt_elliptic_check"),
    "selfdual": ("SelfDualForm", "d_residual", "kato_ratio", "l2_shell_orthogonality",
                 "shell_pairings"),
    "spectrum": ("ModeSet", "SpectrumReport", "constant_norm_check",
                 "divergence_free_subspace", "eigen_decompose", "eigenmodes",
                 "hodge_laplacian_check", "trusted_window"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("ale", "cli", "evolution", "exactla", "frames", "polys", "quadrature",
               "regularity", "sampling", "selfdual", "spectrum")

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _SUBMODULES:
        # the import binds the submodule here, so this runs once per name
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
