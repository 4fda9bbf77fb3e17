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
"""

import os as _os
import sys as _sys

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
if "numpy" not in _sys.modules and not any(v in _os.environ for v in _BLAS_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .ale import (
    AKFormParams,
    ALEModel,
    DecayReport,
    ak_form,
    ak_form_eval,
    decay_classify,
    decay_profile,
    grad_energy_boundary,
    grad_energy_volume,
    sup_grad,
)
from .evolution import (
    ModeExpansion,
    decompose_initial,
    evolve_ode,
    load_initial_field,
    propagate,
)
from .frames import hodge_star_s3, left_frame_at, right_frame_at, structure_residual
from .polys import (
    CoframeField,
    PolyScalar,
    curl,
    div,
    frame_derivative,
    left_invariant_coframe,
    make_basis,
    operator_matrix,
    right_invariant_coframe,
    sphere_integral,
    star_d,
)
from .regularity import moser_product, sqrt_elliptic_check
from .selfdual import (
    SelfDualForm,
    d_residual,
    kato_ratio,
    l2_shell_orthogonality,
    shell_pairings,
)
from .spectrum import (
    ModeSet,
    SpectralMode,
    SpectrumReport,
    constant_norm_check,
    divergence_free_subspace,
    eigen_decompose,
    eigenmodes,
    hodge_laplacian_check,
    trusted_window,
)

__version__ = "0.1.0"
