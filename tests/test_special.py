"""Oracle tests for the iterated-normal-integral helpers.

Each function is checked against direct numerical quadrature of its
defining integral, so these tests are independent of the closed forms
used in the implementation.
"""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from minvar.special import norm_cdf, norm_cdf_int, norm_pdf
from minvar.weights import _CDF_ONE


def phi(t):
    return np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)


def cdf_quad(x):
    val, _ = quad(phi, -40.0, x)
    return val


def cdf_int_quad(x):
    # Integrating the CDF once and collapsing the double integral gives
    # int_{-inf}^{x} (x - t) phi(t) dt.
    val, _ = quad(lambda t: (x - t) * phi(t), -40.0, x)
    return val


GRID = [-8.0, -3.0, -1.0, -0.25, 0.0, 0.1, 0.5, 1.0, 2.5, 6.0]


@pytest.mark.parametrize("x", GRID)
def test_norm_cdf_matches_quadrature(x):
    assert norm_cdf(x) == pytest.approx(cdf_quad(x), abs=1e-13)


@pytest.mark.parametrize("x", GRID)
def test_norm_cdf_int_matches_quadrature(x):
    assert norm_cdf_int(x) == pytest.approx(cdf_int_quad(x), abs=1e-13)


def test_nested_quadrature_once():
    # One genuinely nested evaluation (no collapse trick) to confirm the
    # iterated-integral reading end to end.
    x = 3.0
    inner = lambda u: quad(phi, -40.0, u)[0]
    middle_val, _ = quad(inner, -40.0, x)
    assert norm_cdf_int(x) == pytest.approx(middle_val, abs=1e-9)


def test_pdf_matches_formula():
    xs = np.linspace(-10, 10, 41)
    assert np.allclose(norm_pdf(xs), phi(xs), rtol=0, atol=1e-16)


def test_known_values_at_zero():
    assert norm_cdf(0.0) == 0.5
    assert norm_cdf_int(0.0) == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-15)


def test_reflection_and_recursion_identities():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-6.0, 6.0, size=1000)
    diff = norm_cdf_int(xs) - norm_cdf_int(-xs) - xs
    assert np.max(np.abs(diff)) < 1e-12


def test_extreme_arguments_are_finite_and_monotone():
    xs = np.array([-60.0, -40.0, -20.0, 20.0, 40.0, 60.0])
    for f in (norm_cdf, norm_cdf_int):
        vals = f(xs)
        assert np.all(np.isfinite(vals))
    # Deep negative tail decays to zero; deep positive tail follows the
    # linear envelope.
    assert norm_cdf_int(-40.0) < 1e-300
    assert norm_cdf_int(40.0) == 40.0


def test_scalar_and_array_polymorphism():
    x = 0.7
    arr = np.array([0.7, -0.2])
    for f in (norm_pdf, norm_cdf, norm_cdf_int):
        s = f(x)
        v = f(arr)
        assert isinstance(s, float)
        assert isinstance(v, np.ndarray)
        assert v[0] == s


def test_norm_cdf_is_exactly_one_past_the_skip_bound():
    # WeightMixture.bin_mass writes 1.0 instead of calling norm_cdf at
    # z >= _CDF_ONE; that is exact only while erfc saturates there. 8.29
    # still rounds below 1, which shows how close the constant sits.
    dense = np.linspace(_CDF_ONE, 1e3, 2_000_001)
    assert np.all(norm_cdf(dense) == 1.0)
    geometric = np.geomspace(_CDF_ONE, 1e300, 100_000)
    assert np.all(norm_cdf(geometric) == 1.0)
    assert norm_cdf(np.inf) == 1.0
    assert norm_cdf(_CDF_ONE) == 1.0
    assert norm_cdf(8.29) < 1.0


@given(arrays(float, st.integers(1, 50), elements=st.floats(-40.0, 40.0)))
@example(np.array([0.0, -0.0, 40.0, -40.0, 5e-324, -5e-324]))
def test_reflected_pdf_and_cdf_integral_are_exact_to_the_bit(x):
    # minvar.theory forms Psi(-b1) from one cdf and the pdf of b1, and reads
    # Psi(-b2) off the tail terms, on these identities
    assert norm_pdf(-x).tobytes() == norm_pdf(x).tobytes()
    assert ((-x) * norm_cdf(-x) + norm_pdf(x)).tobytes() == norm_cdf_int(-x).tobytes()
