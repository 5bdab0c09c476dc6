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
    imspe,
    integrate_pair,
    integrate_single,
    pair_integral,
    rho,
    single_integral,
)
from imspe import integrals, kernels, quadrature

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


# a bool, a string and a complex number are no real theta
NOT_REAL_THETAS = (True, np.True_, "1.0", np.array(["2.0"]), "abc", 1 + 2j)


@pytest.mark.parametrize("theta", NOT_REAL_THETAS, ids=repr)
def test_family_refuses_a_theta_that_is_not_real(theta):
    with pytest.raises(InvalidHyperparameterError, match="real, positive and finite"):
        CovarianceFamily("matern52", theta)
    with pytest.raises(InvalidHyperparameterError, match="real, positive and finite"):
        CovarianceFamily("matern52", [theta])


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
    assert rho(kind, [0.3], grid).tobytes() == rho(kind, np.array([0.3]), grid).tobytes()
    # one theta in any shape gives the offsets' shape and the scalar's bytes
    for theta in ([0.3], [[0.3]], np.array([[[0.3]]])):
        assert rho(kind, theta, grid).shape == grid.shape
        assert rho(kind, theta, 0.2).shape == ()
        assert rho(kind, theta, grid).tobytes() == rho(kind, 0.3, grid).tobytes()


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_closed_forms_take_the_anchors_shape_at_one_theta(kind):
    a = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    for theta in ([2.0], [[2.0]], np.array([2.0])):
        assert pair_integral(kind, theta, 0.1, 0.3).shape == ()
        assert single_integral(kind, theta, 0.1).shape == ()
        assert pair_integral(kind, theta, a, -0.2).shape == a.shape
        assert single_integral(kind, theta, a).shape == a.shape
        assert pair_integral(kind, theta, a, -a).tobytes() == pair_integral(kind, 2.0, a, -a).tobytes()
        assert single_integral(kind, theta, a).tobytes() == single_integral(kind, 2.0, a).tobytes()


# the five kernel entries, each at the one theta it is given
KERNEL_ENTRIES = {
    "rho at one offset": lambda theta: rho("matern52", theta, 0.3),
    "rho at two offsets": lambda theta: rho("matern52", theta, [0.1, 0.2]),
    "rho at three offsets": lambda theta: rho("matern52", theta, [0.1, 0.2, 0.3]),
    "pair_integral": lambda theta: pair_integral("matern52", theta, 0.3, -0.2),
    "single_integral": lambda theta: single_integral("matern52", theta, 0.3),
    "integrate_pair": lambda theta: integrate_pair("matern52", theta, 0.3, -0.2),
    "integrate_single": lambda theta: integrate_single("matern52", theta, 0.3),
}


@pytest.mark.parametrize("entry", KERNEL_ENTRIES)
def test_kernel_entries_take_one_theta(entry):
    with pytest.raises(InvalidHyperparameterError, match="one theta"):
        KERNEL_ENTRIES[entry]([1.0, 2.0])
    # a bad value is named as such, as before the count
    with pytest.raises(InvalidHyperparameterError, match="positive and finite"):
        KERNEL_ENTRIES[entry]([1.0, -2.0])
    for theta in NOT_REAL_THETAS:
        with pytest.raises(InvalidHyperparameterError, match="real, positive and finite"):
            KERNEL_ENTRIES[entry](theta)


def test_kernel_entries_call_the_checker_once(monkeypatch):
    calls = []
    original = kernels.validate_args

    def counting(*args):
        calls.append(args)
        return original(*args)

    # integrals and quadrature bind their own names for the checker
    for module in (kernels, integrals, quadrature):
        monkeypatch.setattr(module, "validate_args", counting)
    for entry, call in KERNEL_ENTRIES.items():
        calls.clear()
        call(2.0)
        assert len(calls) == 1, entry


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


def test_design_names_why_its_points_are_rejected():
    # one pass rejects both; the message tells a non-finite coordinate from
    # one outside the box
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidDesignError, match=r"^design coordinates must be finite$"):
            Design([[0.5, bad], [0.0, 1.0]])
    for bad in (np.nextafter(1.0, 2.0), -np.nextafter(1.0, 2.0)):
        with pytest.raises(InvalidDesignError, match=r"^design coordinates must lie in \[-1, 1\]$"):
            Design([[0.5, bad], [0.0, 1.0]])
    # a non-finite coordinate is named even beside one outside the box
    with pytest.raises(InvalidDesignError, match="finite"):
        Design([1.5, math.nan])
    assert Design([-1.0, 1.0, -0.0]).n == 3
    # coordinates that are not real numbers, and a ragged input, are named
    # as such; a bool is not read as 1.0 or 0.0
    fam = CovarianceFamily("matern52", 2.0)
    not_real = ("abc", [[0.1, "a"]], [[0.1 + 0.2j]], [[True], [False]], np.array([[0.1]], dtype=object), [[None]])
    for bad in not_real:
        for call in (Design, lambda points: imspe(fam, points), lambda points: cross_correlation(fam, points, [0.3])):
            with pytest.raises(InvalidDesignError, match=r"^design coordinates must be real numbers, got dtype "):
                call(bad)
    for call in (Design, lambda points: imspe(fam, points), lambda points: cross_correlation(fam, [0.3], points)):
        with pytest.raises(InvalidDesignError, match="ragged"):
            call([[0.1, 0.2], [0.3]])
    assert imspe(fam, np.array([[1], [0]], dtype=np.uint8)).value == imspe(fam, [[1.0], [0.0]]).value


def test_design_points_read_only():
    dsn = Design([0.1, 0.2])
    with pytest.raises(ValueError):
        dsn.points[0, 0] = 0.9
