"""The seeded sampler: reproducible streams, unit directions and radii in range."""

import numpy as np
import pytest

from sdforms.cli import _annulus_samples
from sdforms.sampling import Sampler


@pytest.mark.parametrize("draw", [
    lambda s: s.uniform(-1.0, 2.0, (7, 3)),
    lambda s: s.normal((5, 3)),
    lambda s: s.directions(40),
    lambda s: np.concatenate([s.directions(3).ravel(), s.uniform(size=5)]),
])
def test_same_seed_same_bits_other_seed_other_points(draw):
    a, b, c = (draw(Sampler(seed)) for seed in (11, 11, 12))
    assert a.tobytes() == b.tobytes()
    assert not np.any(a == c)


def test_annulus_samples_reproduce_bit_for_bit():
    assert (_annulus_samples(50, 3).tobytes() == _annulus_samples(50, 3).tobytes()
            != _annulus_samples(50, 4).tobytes())


def test_uniforms_are_53_bit_and_in_range():
    u = Sampler(0).uniform(size=10000)
    k = u * 2.0 ** 53
    assert np.array_equal(k, np.floor(k))
    assert u.min() >= 0.0 and u.max() < 1.0
    r = Sampler(1).uniform(0.4, 2.5, 10000)
    assert r.min() >= 0.4 and r.max() < 2.5


def test_uniform_shapes():
    s = Sampler(2)
    assert s.uniform(size=3).shape == (3,)
    assert s.uniform(size=(2, 1)).shape == (2, 1)
    assert s.normal(5).shape == (5,)
    assert s.normal((3, 3)).shape == (3, 3)
    assert s.directions(3).shape == (3, 4)


def test_normals_have_standard_moments():
    z = Sampler(5).normal(200001)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.01
    assert abs(np.mean(z ** 4) - 3.0) < 0.05
    assert np.all(np.isfinite(z))


def test_directions_are_unit_and_cover_the_sphere():
    d = Sampler(6).directions(20000)
    assert np.max(np.abs(np.linalg.norm(d, axis=1) - 1.0)) <= 1e-15
    # uniform on S^3: each coordinate has mean 0 and mean square 1/4
    assert np.max(np.abs(d.mean(axis=0))) < 0.02
    assert np.max(np.abs((d ** 2).mean(axis=0) - 0.25)) < 0.01


def test_annulus_radii_in_range_and_unit_sphere():
    r = np.linalg.norm(_annulus_samples(2000, 7, lo=0.5, hi=3.0), axis=1)
    assert r.min() >= 0.5 * (1 - 1e-15) and r.max() < 3.0
    on_sphere = _annulus_samples(500, 7, lo=1.0, hi=1.0)
    assert np.max(np.abs(np.linalg.norm(on_sphere, axis=1) - 1.0)) <= 1e-15
