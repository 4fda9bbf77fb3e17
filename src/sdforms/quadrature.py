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
from the eigenproblem of the symmetric Jacobi matrix of the Legendre
recurrence (Golub & Welsch, Math. Comp. 23, 1969), once per node count.
"""

from functools import cache

import numpy as np

__all__ = ["s3_quadrature", "radial_gauss"]


@cache
def _gauss_legendre(n):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    The nodes are the eigenvalues of the Jacobi matrix with zero diagonal and
    off-diagonal k / sqrt(4 k^2 - 1), k = 1 .. n - 1; the weight of a node is
    2 times the square of the first component of its unit eigenvector.  Both
    are symmetrised about 0, so odd polynomials integrate to 0 exactly.
    """
    k = np.arange(1, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x, V = np.linalg.eigh(np.diag(off, -1) + np.diag(off, 1))
    w = 2.0 * V[0] ** 2
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
