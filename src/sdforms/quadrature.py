"""Product quadrature on the unit 3-sphere and radial Gauss rules.

Hyperspherical coordinates x = (cos a, sin a cos b, sin a sin b cos c,
sin a sin b sin c) give the measure sin^2(a) sin(b) da db dc.  The a-integral
carries the Chebyshev weight sqrt(1 - t^2) and uses the Gauss-Chebyshev rule
of the second kind, the b-integral uses Gauss-Legendre, and the periodic
c-integral a uniform grid.  With n nodes per angle the rule integrates
polynomials of total degree up to n - 1 exactly.  The uniform grid sets that
limit: it integrates cos^a(c) sin^b(c) exactly only for a + b <= n - 1, and
at degree n the frequency-n terms alias to a constant.

The Gauss-Legendre rules, for the b-integral and the radial panels, come
from Newton's method on the three-term Legendre recurrence (Hale & Townsend,
SIAM J. Sci. Comput. 35, 2013), once per node count.  It is elementwise work
and calls no LAPACK driver.
"""

from functools import cache

import numpy as np

__all__ = ["s3_quadrature", "radial_gauss"]


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, elementwise in x.

    x^2 - 1 is formed as (x - 1)(x + 1), which does not cancel near the ends.
    """
    p_prev, p = np.ones_like(x), x
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, n * (x * p - p_prev) / ((x - 1.0) * (x + 1.0))


@cache
def _gauss_legendre(n):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    Newton's method on P_n from the guesses cos(pi (k - 1/4) / (n + 1/2)),
    k = n .. 1, until the largest step is below 1e-14; from there the
    quadratic convergence leaves an error far below rounding.  The weight of
    a node x is 2 / ((1 - x^2) P_n'(x)^2).  Both are symmetrised about 0, so
    odd polynomials integrate to 0 exactly.
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    while True:
        p, dp = _legendre(n, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= 1e-14:
            break
    dp = _legendre(n, x)[1]
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    x, w = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def s3_quadrature(n):
    """Nodes (n^3, 4) and weights (n^3,) integrating smooth functions over S^3.

    The weights sum to 2 pi^2, the sphere's total measure.  Polynomials of
    total degree at most n - 1 are integrated exactly; at degree n the rule
    is off, for instance by 0.82, 0.15 and 3.1e-2 on x_2^n at n = 4, 6, 8.
    """
    if n < 2:
        raise ValueError("need at least two nodes per angle")
    k = np.arange(1, n + 1)
    t = np.cos(k * np.pi / (n + 1))              # Chebyshev-U nodes, cos(a)
    wa = (np.pi / (n + 1)) * np.sin(k * np.pi / (n + 1)) ** 2
    u, wb = _gauss_legendre(n)                   # cos(b) nodes
    c = 2 * np.pi * np.arange(n) / n             # periodic angle
    wc = np.full(n, 2 * np.pi / n)

    sa = np.sqrt(1 - t ** 2)
    sb = np.sqrt(1 - u ** 2)
    pts = np.empty((n, n, n, 4))
    pts[..., 0] = t[:, None, None]
    pts[..., 1] = sa[:, None, None] * u[None, :, None]
    pts[..., 2] = sa[:, None, None] * sb[None, :, None] * np.cos(c)[None, None, :]
    pts[..., 3] = sa[:, None, None] * sb[None, :, None] * np.sin(c)[None, None, :]
    wts = wa[:, None, None] * wb[None, :, None] * wc[None, None, :]
    return pts.reshape(-1, 4), wts.reshape(-1)


def radial_gauss(a, b, n):
    """Gauss-Legendre nodes and weights on the interval [a, b]."""
    x, w = _gauss_legendre(n)
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    return mid + half * x, half * w
