"""The Newton Gauss-Legendre rule behind the sphere and radial quadratures."""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from sdforms.quadrature import _gauss_legendre, radial_gauss


def test_gauss_rule_matches_leggauss():
    for n in range(1, 65):
        x, w = _gauss_legendre(n)
        X, W = leggauss(n)
        assert np.max(np.abs(x - X)) <= 1e-14, n
        assert np.max(np.abs(w - W)) <= 1e-14, n


def test_gauss_rule_exact_to_degree_2n_minus_1():
    for n in range(1, 65):
        x, w = _gauss_legendre(n)
        assert w @ x ** (2 * n - 1) == pytest.approx(0.0, abs=1e-14), n
        assert w @ x ** (2 * n - 2) == pytest.approx(2.0 / (2 * n - 1), rel=1e-14), n


def test_gauss_rule_is_built_once_and_read_only():
    x, w = _gauss_legendre(12)
    assert _gauss_legendre(12)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_radial_gauss_maps_the_rule():
    # exact for degree 2n - 1 on [a, b], with the sign of b - a
    a, b, n = 0.3, 2.5, 6
    x, w = radial_gauss(a, b, n)
    assert x.min() > a and x.max() < b
    assert w @ x ** 11 == pytest.approx((b ** 12 - a ** 12) / 12, rel=1e-14)
    x, w = radial_gauss(-a, -b, n)
    assert w @ x ** 10 == pytest.approx(-(b ** 11 - a ** 11) / 11, rel=1e-14)
