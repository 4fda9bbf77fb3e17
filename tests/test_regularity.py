import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sdforms.ale import AKFormParams, ak_form
from sdforms.polys import left_invariant_coframe, right_invariant_coframe
from sdforms.regularity import LOG_FLOAT_MAX, moser_product, moser_sweep_csv, sqrt_elliptic_check
from sdforms.selfdual import SelfDualForm


def minus_two_form():
    return SelfDualForm([(1.0, -2, right_invariant_coframe(1))])


# ---------------------------------------------------------------- product

def test_moser_product_at_zero():
    ev = moser_product(0.0)
    assert ev.partial_product == 1.0
    assert ev.claimed_bound == 1.0
    assert ev.ratio == 1.0


def test_moser_product_order_one_exceeds_bound():
    # at c = 1 the product converges to ~10.8 while e^1 = 2.718...: the
    # printed inequality fails by a factor ~4 and the sweep documents it
    ev = moser_product(1.0, N=60)
    assert ev.converged
    assert_allclose(ev.partial_product, 10.8, rtol=0.05)
    assert ev.ratio > 3.5


def test_moser_product_small_c_ratio_tends_to_one():
    ev = moser_product(1e-6)
    assert 1.0 <= ev.ratio <= 1.0 + 1e-4


def test_moser_product_counts_terms_summed():
    # at c = 1e-6 the series converges after 62 of the N + 1 = 201 terms
    ev = moser_product(1e-6)
    assert ev.converged
    assert 1 <= ev.n_terms < 200
    direct = sum(math.log1p(1e-6 * 2.0 ** i) / 2.0 ** i for i in range(ev.n_terms))
    assert math.exp(direct) == ev.partial_product
    # without convergence every one of the N + 1 terms is summed
    ev = moser_product(1.0, N=5)
    assert not ev.converged
    assert ev.n_terms == 6


def test_moser_product_monotone_in_n():
    vals = [moser_product(0.5, N=n).partial_product for n in (2, 5, 10, 30)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-8, max_value=10.0),
       st.floats(min_value=1e-8, max_value=10.0))
def test_moser_product_monotone_in_c(c1, c2):
    lo, hi = sorted([c1, c2])
    assert moser_product(hi).partial_product >= moser_product(lo).partial_product


def test_moser_log_space_matches_direct_for_small_inputs():
    c, N = 0.3, 12
    direct = 1.0
    for i in range(N + 1):
        direct *= (1.0 + c * 2.0 ** i) ** (2.0 ** -i)
    assert_allclose(moser_product(c, N=N).partial_product, direct, rtol=1e-12)


def test_moser_product_rejects_negative_c():
    with pytest.raises(ValueError):
        moser_product(-0.1)


def test_moser_sweep_csv():
    text = moser_sweep_csv(np.geomspace(1e-6, 1.0, 7))
    lines = text.strip().split("\n")
    assert lines[0] == "c,product,exp_c,ratio"
    assert len(lines) == 8
    assert text.endswith("\n")


# ---------------------------------------------------------------- elliptic

def test_sqrt_elliptic_minus_two_harmonic():
    # |omega|^(1/2) = t^-2 is harmonic on punctured R^4: the finite
    # difference value is zero up to stencil error; at the optimal stencil
    # the rounding floor of the evaluation chain is a few 1e-6
    sdf = minus_two_form()
    rng = np.random.default_rng(17)
    for _ in range(30):
        x = rng.standard_normal(4)
        x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
        value, accepted = sqrt_elliptic_check(sdf, x, 1e-4)
        assert accepted and value >= -5e-6


def test_sqrt_elliptic_calibrated_tolerance():
    # the contract is >= -C h^2 with C calibrated by step-doubling: measure
    # the constant at 2h and assert at h with margin
    sdf = minus_two_form()
    rng = np.random.default_rng(19)
    h = 5e-4
    for _ in range(20):
        x = rng.standard_normal(4)
        x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
        coarse, accepted = sqrt_elliptic_check(sdf, x, 2 * h)
        assert accepted
        C = max(abs(coarse) / (2 * h) ** 2, 1.0)
        value, accepted = sqrt_elliptic_check(sdf, x, h)
        assert accepted and value >= -2.0 * C * h ** 2


def test_sqrt_elliptic_constant_form():
    sdf = SelfDualForm.kahler(2)
    val, accepted = sqrt_elliptic_check(sdf, np.array([1.0, 0.3, -0.2, 0.5]), 1e-3)
    assert accepted and abs(val) <= 1e-8


def test_sqrt_elliptic_mixed_form_nonnegative():
    sdf = ak_form(AKFormParams(1.0, 1.0, 0.2))
    rng = np.random.default_rng(18)
    count = 0
    h = 1e-3
    while count < 200:
        x = rng.standard_normal(4)
        x *= rng.uniform(0.5, 3.0) / np.linalg.norm(x)
        val, accepted = sqrt_elliptic_check(sdf, x, h)
        if not accepted:
            continue
        count += 1
        assert val >= -2e-4 * max(1.0, abs(val))


def test_sqrt_elliptic_tolerance_shrinks_with_h():
    # the negative excursions are pure stencil error: C h^2
    sdf = SelfDualForm([(0.5, 2, left_invariant_coframe(1)),
                        (1.0, -2, right_invariant_coframe(2))])
    x = np.array([0.8, -0.4, 0.2, 0.6])
    vals = []
    for h in (2e-3, 1e-3):
        value, accepted = sqrt_elliptic_check(sdf, x, h)
        assert accepted
        vals.append(abs(min(value, 0.0)))
    if vals[1] > 1e-12:
        assert vals[0] / vals[1] == pytest.approx(4.0, rel=0.5)


def test_sqrt_elliptic_rejects_zero_norm():
    zero = SelfDualForm([])
    value, accepted = sqrt_elliptic_check(zero, np.array([1.0, 0, 0, 0]), 1e-3)
    assert not accepted and np.isnan(value)


def test_moser_product_at_the_overflow_edge():
    assert moser_product(LOG_FLOAT_MAX).claimed_bound == math.exp(LOG_FLOAT_MAX)


@pytest.mark.parametrize("c", [710.0, 1e300,
                               pytest.param(np.float64(1e300), id="numpy-1e+300"),
                               pytest.param(np.nextafter(LOG_FLOAT_MAX, np.inf),
                                            id="just-above-log-max")])
def test_moser_product_overflow_raises_value_error(c):
    # e^c overflows a float for c above about 709.78; the check comes before
    # the loop, where c * 2^i would overflow a numpy c with a warning
    with warnings.catch_warnings(), \
            pytest.raises(ValueError, match=re.escape(f"c = {c} is too large")):
        warnings.simplefilter("error")
        moser_product(c)
