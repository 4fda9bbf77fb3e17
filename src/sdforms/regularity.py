"""Numerical evaluation of the iteration product bound and the sqrt-norm
subharmonicity of closed self-dual forms.

The iteration constant is the infinite product prod_i (1 + c 2^i)^(1/2^i),
evaluated in log space so that large shifts cannot overflow.  The printed
claim compares it against e^c: direct evaluation shows the product exceeds
that bound by an O(1) factor once c is of order one, while the excess
vanishes as c -> 0 (the only regime the iteration is used in).  The sweep
therefore reports the ratio rather than asserting the printed inequality.

The second check evaluates the flat-space Laplacian of |omega|^(1/2) for
closed self-dual forms by finite differences; it is nonnegative up to
stencil error (the scalar-flat case of the improved elliptic inequality).
"""

import sys
from dataclasses import dataclass
from math import exp, log, log1p

import numpy as np

from .selfdual import ZERO_TOL, stencil_batch, stencil_laplacian

__all__ = [
    "MoserEvaluation",
    "moser_product",
    "moser_sweep_csv",
    "sqrt_elliptic_check",
]

#: largest c with e^c finite
LOG_FLOAT_MAX = log(sys.float_info.max)


@dataclass
class MoserEvaluation:
    """One evaluation of the iteration product against its claimed bound."""

    c: float
    n_terms: int
    partial_product: float
    claimed_bound: float
    ratio: float
    converged: bool


def moser_product(c, N=200):
    """Evaluate prod_{i=0..N} (1 + c 2^i)^(2^-i) in log space.

    The log-series terms 2^-i log(1 + c 2^i) decay geometrically, so the
    partial products converge; convergence is flagged, and the sum stopped,
    once the relative change of the log falls below 1e-12.  ``n_terms`` is
    the number of terms summed, at most N + 1.  The claimed bound is e^c;
    the ratio product/bound exceeds 1 for c of order one and tends to 1 as
    c -> 0.  Raises ValueError when e^c overflows a float (c above
    log(float max), about 709.78); the product is at most
    (2 (1 + c))^2 and cannot overflow first.
    """
    if c < 0:
        raise ValueError(f"the product needs c >= 0, got {c}")
    if N < 0:
        raise ValueError(f"need N >= 0, got {N}")
    if c > LOG_FLOAT_MAX:
        raise ValueError(f"c = {c} is too large: e^c or the product overflows a float")
    log_total = 0.0
    converged = False
    for i in range(N + 1):
        term = log1p(c * 2.0 ** i) / 2.0 ** i
        log_total += term
        if log_total > 0 and term <= 1e-12 * log_total:
            converged = True
            break
    product = exp(log_total)
    bound = exp(c)
    # ratio from the log difference keeps precision when both sides are ~1
    ratio = exp(log_total - c)
    return MoserEvaluation(
        c=float(c),
        n_terms=i + 1,
        partial_product=product,
        claimed_bound=bound,
        ratio=ratio,
        converged=converged,
    )


def moser_sweep_csv(c_values):
    """CSV text of the sweep (c, converged_product, e^c, ratio) over the given c grid."""
    rows = ["c,product,exp_c,ratio"]
    for c in c_values:
        ev = moser_product(c)
        rows.append(f"{ev.c:.12e},{ev.partial_product:.12e},"
                    f"{ev.claimed_bound:.12e},{ev.ratio:.12e}")
    return "\n".join(rows) + "\n"


def sqrt_elliptic_check(sdf, x, h):
    """Finite-difference Laplacian of |omega|^(1/2) at points x.

    For closed self-dual forms on flat space this is nonnegative; the value
    should only dip below zero by the stencil error C h^2.  A point is
    rejected where |omega| <= ZERO_TOL, too small for the square root to be
    differentiable, and where its stencil reaches the origin.  Returns the
    values (NaN where rejected) and the mask of points not rejected, both of
    shape x.shape[:-1], as selfdual.stencil_batch does.
    """
    def rule(sdf, S, h):
        norms = sdf.norm(S)
        return stencil_laplacian(np.sqrt(norms), h), ~(norms[0] <= ZERO_TOL)

    return stencil_batch(rule, sdf, x, h)
