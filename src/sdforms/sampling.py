"""Seeded sampling: the one source of random points in the package.

A :class:`Sampler` wraps the standard library's Mersenne Twister,
``random.Random(seed)``.  Uniforms are 53-bit: each is 8 bytes of
``randbytes``, read as a little-endian uint64, shifted right by 11 and scaled
by 2^-53, so they lie on the grid k 2^-53 in [0, 1) and a whole array comes
from one call.  Normals come from uniforms by Box-Muller, directions are
normalised normal vectors and radii are uniform.  A seed fixes the
uniforms bit for bit on every platform, and everything drawn from them on a
given machine and numpy build.

numpy's own generators are not used: importing numpy's random subpackage
loads ``secrets``, ``hashlib`` and libcrypto, about 6 MB and 20 ms in a
process that draws a few hundred points.
"""

import math
import random

import numpy as np

__all__ = ["Sampler"]


def _count(size):
    """Number of entries of an array of shape ``size`` (an int or a tuple)."""
    return math.prod(size) if isinstance(size, tuple) else int(size)


class Sampler:
    """Uniforms, normals, directions and radii from one seeded stream.

    Draws are consumed in call order, so two samplers with the same seed
    that make the same calls return identical arrays.
    """

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def uniform(self, lo=0.0, hi=1.0, size=1):
        """Uniform floats in [lo, hi) of shape ``size``; lo = hi gives lo."""
        n = _count(size)
        # the random bytes are freed once shifted, before u is allocated
        bits = np.frombuffer(self._rng.randbytes(8 * n), dtype="<u8") >> np.uint64(11)
        u = bits * 2.0 ** -53
        u *= hi - lo
        u += lo
        return u.reshape(size)

    def normal(self, size):
        """Standard normal floats of shape ``size`` by Box-Muller.

        Works in place on the uniforms and one output array, so it holds
        about two arrays of the result's size, not a temporary per step.
        """
        n = _count(size)
        u = self.uniform(size=(2, (n + 1) // 2))
        r, theta = u
        # 1 - u lies in (0, 1], so the logarithm is finite
        np.log1p(np.negative(r, out=r), out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= 2.0 * np.pi
        z = np.empty_like(u)
        np.cos(theta, out=z[0])
        np.sin(theta, out=z[1])
        z *= r
        return z.reshape(-1)[:n].reshape(size)

    def directions(self, n):
        """``n`` unit vectors (n, 4), uniform on the sphere S^3.

        The squared norms are summed column by column, in the order of
        ``np.linalg.norm`` and with its bits, without an (n, 4) temporary.
        """
        p = self.normal((n, 4))
        norm = p[:, 0] * p[:, 0]
        for k in (1, 2, 3):
            norm += p[:, k] * p[:, k]
        np.sqrt(norm, out=norm)
        p /= norm[:, None]
        return p
