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
        raw = np.frombuffer(self._rng.randbytes(8 * n), dtype="<u8")
        u = (raw >> np.uint64(11)) * 2.0 ** -53
        return (lo + (hi - lo) * u).reshape(size)

    def normal(self, size):
        """Standard normal floats of shape ``size`` by Box-Muller."""
        n = _count(size)
        u = self.uniform(size=(2, (n + 1) // 2))
        # 1 - u lies in (0, 1], so the logarithm is finite
        r = np.sqrt(-2.0 * np.log1p(-u[0]))
        theta = 2.0 * np.pi * u[1]
        return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n].reshape(size)

    def directions(self, n):
        """``n`` unit vectors (n, 4), uniform on the sphere S^3."""
        p = self.normal((n, 4))
        return p / np.linalg.norm(p, axis=1, keepdims=True)
