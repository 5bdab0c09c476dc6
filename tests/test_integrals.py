"""Closed-form kernel averages against frozen high-precision oracle values.

Each frozen constant below was computed with 40-digit quadrature of the
defining integral (or, where noted, an exact erf/exponential identity) and
rounded to binary64. Tolerances are relative.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imspe import (
    BESSEL_BRACKET_MATERN32,
    BESSEL_BRACKET_MATERN52,
    FAMILY_KINDS,
    InvalidHyperparameterError,
    bessel_polynomial_coefficients,
    integrate_pair,
    integrate_single,
    pair_integral,
    single_integral,
)
from imspe import integrals, kernels

coords = st.floats(-1.0, 1.0, allow_nan=False)
THETAS = (0.1, 1.0, 10.0)

# (kind, theta, a, b, 40-digit oracle rounded to binary64)
PAIR_ORACLE = [
    ("matern32", 1.0, 0.3, -0.2, 0.5750843616966185),
    ("matern52", 1.0, 0.5, 0.5, 0.5984026162577739),
    ("matern52", 10.0, -0.4, 0.4, 0.0547618132113323),
    ("matern52", 0.1, 0.9, -0.9, 0.8407432030297001),
    ("exponential", 1.0, 0.25, 0.25, 0.42369621030691784),
    ("gaussian", 1.0, -0.7, 0.7, 0.2244900844114329),
]

# (kind, theta, a, oracle)
SINGLE_ORACLE = [
    ("matern32", 1.0, 0.3, 0.7496934835505268),
    ("matern52", 0.1, -0.6, 0.9490094636811671),
    ("exponential", 10.0, 0.0, 0.09999546000702375),
    # exact identity (1/2) sqrt(pi/10) erf(sqrt(10))
    ("gaussian", 10.0, 0.0, 0.28024739050664274),
]


@pytest.mark.parametrize("kind,theta,a,b,expected", PAIR_ORACLE)
def test_pair_integral_against_frozen_oracle(kind, theta, a, b, expected):
    assert float(pair_integral(kind, theta, a, b)) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("kind,theta,a,expected", SINGLE_ORACLE)
def test_single_integral_against_frozen_oracle(kind, theta, a, expected):
    assert float(single_integral(kind, theta, a)) == pytest.approx(expected, rel=1e-13)


def test_gaussian_pair_coincident_erf_identity():
    # two coincident gaussian kernels multiply to one with doubled theta:
    # (1/2) sqrt(pi/20) erf(sqrt(20))
    expected = 0.5 * math.sqrt(math.pi / 20.0) * math.erf(math.sqrt(20.0))
    assert float(pair_integral("gaussian", 10.0, 0.0, 0.0)) == pytest.approx(
        expected, rel=1e-14
    )


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("theta", THETAS)
def test_pair_reduces_to_single_at_unit_correlation_limit(kind, theta):
    # sanity: pair value never exceeds the smaller single value
    a, b = 0.35, -0.15
    pair = float(pair_integral(kind, theta, a, b))
    single_a = float(single_integral(kind, theta, a))
    single_b = float(single_integral(kind, theta, b))
    assert 0.0 < pair <= min(single_a, single_b)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(FAMILY_KINDS),
    theta=st.sampled_from(THETAS),
    a=coords,
    b=coords,
)
def test_pair_interchange_symmetry_bit_exact(kind, theta, a, b):
    assert float(pair_integral(kind, theta, a, b)) == float(
        pair_integral(kind, theta, b, a)
    )


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_anchor_interchange_is_bit_exact_on_array_anchors(kind):
    # the assembly takes R and W on the anchor pairs i <= j alone and fills
    # in the rest, so swapping the anchor arrays must keep every byte; ties,
    # 0.0 against -0.0, the box edges and one theta per axis included. The
    # joint reflection (a, b) -> (-a, -b) keeps every byte too, at a = -b
    # and at signed zeros, where the closed forms meet S = a + b at -S
    rng = np.random.default_rng(FAMILY_KINDS.index(kind))
    grid = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
    shape = (3, 400)
    a = np.where(rng.random(shape) < 0.5, rng.choice(grid, size=shape), rng.uniform(-1.0, 1.0, size=shape))
    b = np.where(rng.random(shape) < 0.5, rng.choice(grid, size=shape), rng.uniform(-1.0, 1.0, size=shape))
    b[:, :50] = a[:, :50]  # ties
    b[:, 50:60], a[:, 50:60] = 0.0, -0.0
    b[:, 60:80] = -a[:, 60:80]  # a = -b, so S is a signed zero
    b[:, 80:85], a[:, 80:85] = -0.0, -0.0
    for theta in (np.float64(2.5), rng.uniform(0.05, 20.0, size=(3, 1)), np.array([[1e-6], [1.0], [1e2]])):
        forward = kernels._correlations(kind, theta, a, b)
        assert forward.tobytes() == kernels._correlations(kind, theta, b, a).tobytes()
        forward = integrals._PAIR[kind](theta, a, b)
        assert forward.tobytes() == integrals._PAIR[kind](theta, b, a).tobytes()
        assert forward.tobytes() == integrals._PAIR[kind](theta, -a, -b).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(FAMILY_KINDS),
    theta=st.sampled_from(THETAS),
    a=coords,
    b=coords,
)
def test_pair_reflection_symmetry(kind, theta, a, b):
    # bitwise, as README promises
    assert float(pair_integral(kind, theta, a, b)) == float(pair_integral(kind, theta, -a, -b))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(FAMILY_KINDS), theta=st.sampled_from(THETAS), a=coords)
def test_single_reflection_and_bounds(kind, theta, a):
    value = float(single_integral(kind, theta, a))
    mirrored = float(single_integral(kind, theta, -a))
    assert value == pytest.approx(mirrored, rel=1e-15)
    assert 0.0 < value <= 1.0


def test_vectorized_inputs_match_scalar_loop():
    a = np.linspace(-1.0, 1.0, 7)
    b = np.linspace(1.0, -1.0, 7)
    for kind in FAMILY_KINDS:
        vec = pair_integral(kind, 3.0, a, b)
        scalars = [float(pair_integral(kind, 3.0, ai, bi)) for ai, bi in zip(a, b)]
        assert np.array_equal(vec, scalars)
        vec_single = single_integral(kind, 3.0, a)
        assert np.array_equal(vec_single, [float(single_integral(kind, 3.0, ai)) for ai in a])


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_invalid_theta_and_out_of_box_anchor(kind):
    # the closed forms and the quadrature oracle check the same way
    for pair, single in ((pair_integral, single_integral), (integrate_pair, integrate_single)):
        with pytest.raises(InvalidHyperparameterError):
            pair(kind, 0.0, 0.1, 0.2)
        with pytest.raises(InvalidHyperparameterError):
            single(kind, -2.0, 0.1)
        with pytest.raises(ValueError):
            pair(kind, 1.0, 1.5, 0.0)
        with pytest.raises(ValueError):
            single(kind, 1.0, -1.0001)
        with pytest.raises(ValueError, match="finite"):
            pair(kind, 1.0, math.nan, 0.0)
        with pytest.raises(ValueError, match="finite"):
            single(kind, 1.0, math.nan)
        with pytest.raises(InvalidHyperparameterError):
            pair(kind, math.nan, 0.1, 0.2)
        with pytest.raises(InvalidHyperparameterError):
            single(kind, math.nan, 0.1)
        with pytest.raises(InvalidHyperparameterError, match="unknown covariance kind"):
            pair(kind + "x", 1.0, 0.1, 0.2)
        with pytest.raises(InvalidHyperparameterError, match="unknown covariance kind"):
            single(kind + "x", 1.0, 0.1)
        # one theta: several would broadcast against the anchors, or fail to
        with pytest.raises(InvalidHyperparameterError, match="one theta"):
            pair(kind, [1.0, 2.0], [0.1, 0.2], [0.3, 0.4])
        with pytest.raises(InvalidHyperparameterError, match="one theta"):
            single(kind, [1.0, 2.0], [0.1, 0.2, 0.3])


class TestBesselCoefficients:
    def test_bracket_tables(self):
        assert BESSEL_BRACKET_MATERN32 == (15, 15, 6, 1)
        assert BESSEL_BRACKET_MATERN52 == (945, 945, 420, 105, 15, 1)

    def test_brackets_are_reversed_bessel_rows(self):
        assert BESSEL_BRACKET_MATERN32 == tuple(
            reversed(bessel_polynomial_coefficients(3))
        )
        assert BESSEL_BRACKET_MATERN52 == tuple(
            reversed(bessel_polynomial_coefficients(5))
        )

    @pytest.mark.parametrize("degree", range(7))
    def test_recurrence_matches_factorial_formula(self, degree):
        # independent route: coefficient of x^k in y_n is (n+k)! / (2^k k! (n-k)!)
        expected = tuple(
            math.factorial(degree + k)
            // (2**k * math.factorial(k) * math.factorial(degree - k))
            for k in range(degree + 1)
        )
        assert bessel_polynomial_coefficients(degree) == expected

    def test_negative_degree_raises(self):
        with pytest.raises(ValueError, match="^degree must be nonnegative$"):
            bessel_polynomial_coefficients(-1)


class TestSymmetrizePlus:
    def test_worked_affine_example_is_exactly_two(self):
        from imspe import symmetrize_plus

        f = lambda a, b: 1.0 + (a + b) / 2.0
        for a, b in [(0.4, -0.1), (0.93, 0.17), (-1.0, 1.0), (0.0, 0.0)]:
            assert symmetrize_plus(f, a, b) == 2.0

    @settings(max_examples=500, deadline=None)
    @given(a=coords, b=coords)
    def test_affine_example_exact_under_random_inputs(self, a, b):
        from imspe import symmetrize_plus

        assert symmetrize_plus(lambda x, y: 1.0 + (x + y) / 2.0, a, b) == 2.0

    def test_even_part_doubles(self):
        from imspe import symmetrize_plus

        assert symmetrize_plus(lambda a, b: a * b, 0.3, 0.5) == 2.0 * (0.3 * 0.5)
        assert symmetrize_plus(lambda a, b: 7.25, -0.2, 0.9) == 14.5


@pytest.mark.parametrize("kind, theta", [("matern52", 1e300), ("matern32", 1e308)])
def test_nonfinite_closed_form_raises_invalid_hyperparameter(kind, theta):
    # inf * 0 makes these averages nan; they raise as the criterion does
    named = kind + r".*" + re.escape(repr(theta))
    with np.errstate(all="ignore"):
        with pytest.raises(InvalidHyperparameterError, match=named + r".*\(value has inf or nan"):
            pair_integral(kind, theta, 0.3, 0.1)
        with pytest.raises(InvalidHyperparameterError, match=named):
            pair_integral(kind, theta, np.array([0.3, 0.5]), np.array([0.1, 0.1]))
