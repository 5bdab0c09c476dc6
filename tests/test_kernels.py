"""Correlation families: values, symmetries, validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imspe import (
    FAMILY_KINDS,
    CovarianceFamily,
    Design,
    InvalidDesignError,
    InvalidHyperparameterError,
    as_design,
    correlation,
    cross_correlation,
    rho,
)

THETAS = (0.1, 1.0, 10.0)

coords = st.floats(-1.0, 1.0, allow_nan=False)


def test_family_kinds_are_the_four_supported():
    assert FAMILY_KINDS == ("exponential", "gaussian", "matern32", "matern52")


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("theta", (0.0, -1.0, math.nan, math.inf))
def test_bad_theta_rejected(kind, theta):
    with pytest.raises(InvalidHyperparameterError):
        rho(kind, theta, 0.5)
    with pytest.raises(InvalidHyperparameterError):
        CovarianceFamily(kind, [theta])


def test_unknown_kind_rejected():
    with pytest.raises(InvalidHyperparameterError):
        rho("cubic", 1.0, 0.5)
    with pytest.raises(InvalidHyperparameterError):
        CovarianceFamily("cubic", [1.0])


def test_rho_closed_forms_pointwise():
    # spot values straight from the definitions
    assert rho("exponential", 2.0, 0.5) == math.exp(-1.0)
    assert rho("gaussian", 10.0, 0.5) == math.exp(-2.5)
    u = math.sqrt(3.0) * 0.7
    assert rho("matern32", 1.0, 0.7) == pytest.approx((1.0 + u) * math.exp(-u), rel=1e-15)
    # cross-oracle: 40-digit arithmetic gives (1 + sqrt(5) + 5/3) exp(-sqrt(5))
    assert rho("matern52", 1.0, 1.0) == pytest.approx(0.5239941088318203, rel=1e-15)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("theta", THETAS)
def test_rho_unit_at_zero_and_bounded(kind, theta):
    assert rho(kind, theta, 0.0) == 1.0
    h = np.linspace(0.0, 2.0, 81)
    vals = rho(kind, theta, h)
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("theta", THETAS)
def test_rho_strictly_decreasing_in_distance(kind, theta):
    h = np.linspace(0.0, 2.0, 81)
    vals = rho(kind, theta, h)
    assert np.all(np.diff(vals) < 0.0)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_rho_even_in_offset(kind):
    # negations are exact, so the grid is bit-symmetric around zero
    half = np.linspace(0.0, 2.0, 21)
    h = np.concatenate([-half[::-1], half[1:]])
    vals = rho(kind, 1.7, h)
    assert np.array_equal(vals, vals[::-1])


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(FAMILY_KINDS),
    theta=st.sampled_from(THETAS),
    x=st.lists(coords, min_size=1, max_size=3),
    y=st.lists(coords, min_size=1, max_size=3),
)
def test_correlation_symmetric_and_bounded(kind, theta, x, y):
    d = min(len(x), len(y))
    x, y = x[:d], y[:d]
    fam = CovarianceFamily(kind, [theta])
    forward = correlation(fam, x, y)
    assert forward == correlation(fam, y, x)
    assert 0.0 < forward <= 1.0
    assert correlation(fam, x, x) == 1.0


def test_correlation_is_tensor_product_over_dimensions():
    fam = CovarianceFamily("matern52", [2.0, 0.5])
    x = [0.3, -0.8]
    y = [-0.1, 0.4]
    per_dim = [
        float(rho("matern52", 2.0, x[0] - y[0])),
        float(rho("matern52", 0.5, x[1] - y[1])),
    ]
    assert correlation(fam, x, y) == pytest.approx(per_dim[0] * per_dim[1], rel=1e-15)


def test_cross_correlation_matches_pointwise():
    fam = CovarianceFamily("exponential", [1.5])
    pts = np.array([[-0.5], [0.2], [0.9]])
    other = np.array([[0.0], [0.6]])
    mat = cross_correlation(fam, pts, other)
    assert mat.shape == (3, 2)
    for i in range(3):
        for j in range(2):
            assert mat[i, j] == correlation(fam, pts[i], other[j])
    for x, y in (([0.1, 0.2], [0.3]), ([[0.1], [0.2]], [[0.1], [0.2]])):
        with pytest.raises(InvalidDesignError):
            correlation(fam, x, y)


def _per_axis_cross_correlation(family, points, other):
    # reference: one kernel call per axis, multiplied into a matrix of ones
    th = family.theta_for_dimension(points.shape[1])
    out = np.ones((points.shape[0], other.shape[0]))
    for k in range(points.shape[1]):
        out *= rho(family.kind, th[k], points[:, k, None] - other[None, :, k])
    return out


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_cross_correlation_has_the_bits_of_a_per_axis_product(kind):
    rng = np.random.default_rng(7)
    for d in range(1, 11):
        pts = rng.uniform(-1.0, 1.0, size=(5, d))
        other = rng.uniform(-1.0, 1.0, size=(3, d))
        theta = rng.uniform(0.1, 10.0, size=d)
        for fam in (CovarianceFamily(kind, theta), CovarianceFamily(kind, theta[:1])):
            expected = _per_axis_cross_correlation(fam, pts, other)
            assert cross_correlation(fam, pts, other).tobytes() == expected.tobytes()
            assert cross_correlation(fam, other, pts).tobytes() == expected.T.copy().tobytes()


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_rho_takes_a_list_theta_like_its_array(kind):
    grid = np.linspace(-2.0, 2.0, 41)
    for theta, h in (([1.0, 2.0], 0.3), ([0.3], grid), ([[1.0], [2.0]], grid)):
        assert rho(kind, theta, h).tobytes() == rho(kind, np.array(theta), h).tobytes()


def test_theta_broadcast_and_anisotropy_mismatch():
    fam = CovarianceFamily("gaussian", [2.0])
    assert np.array_equal(fam.theta_for_dimension(3), [2.0, 2.0, 2.0])
    aniso = CovarianceFamily("gaussian", [2.0, 3.0])
    with pytest.raises(InvalidHyperparameterError):
        aniso.theta_for_dimension(3)


def test_design_validation():
    dsn = Design([0.1, -0.4, 1.0])
    assert dsn.n == 3 and dsn.d == 1
    assert dsn.points.shape == (3, 1)
    with pytest.raises(InvalidDesignError):
        Design([1.2])
    with pytest.raises(InvalidDesignError):
        Design([[0.1, math.nan]])
    with pytest.raises(InvalidDesignError):
        Design(np.empty((0, 1)))
    assert as_design(dsn) is dsn
    assert np.array_equal(as_design([[0.0, 0.5]]).points, [[0.0, 0.5]])


def test_design_points_read_only():
    dsn = Design([0.1, 0.2])
    with pytest.raises(ValueError):
        dsn.points[0, 0] = 0.9
