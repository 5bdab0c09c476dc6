"""Quadrature oracle: agreement with exact identities and with the closed forms."""

import math

import numpy as np
import pytest

from imspe import integrals, kernels

from imspe import (
    CovarianceFamily,
    Design,
    OracleDivergenceError,
    QuadratureSpec,
    average_over_domain,
    integrate_mspe,
    integrate_pair,
    integrate_single,
    pair_integral,
    rho,
    single_integral,
)


def test_polynomial_average_is_exact():
    # (1/2) int_{-1}^{1} (x^4 + x) dx = 1/5
    value = average_over_domain(lambda x: x**4 + x)
    assert value == pytest.approx(0.2, rel=1e-15)


def test_average_respects_split_points():
    # |x| has a kink at 0; splitting there makes the rule exact
    value = average_over_domain(np.abs, splits=(0.0,))
    assert value == pytest.approx(0.5, rel=1e-15)


def test_gaussian_pair_coincident_matches_erf_identity():
    expected = 0.5 * math.sqrt(math.pi / 20.0) * math.erf(math.sqrt(20.0))
    assert integrate_pair("gaussian", 10.0, 0.0, 0.0) == pytest.approx(expected, rel=1e-13)


def test_gaussian_single_matches_erf_identity():
    expected = 0.5 * math.sqrt(math.pi / 10.0) * math.erf(math.sqrt(10.0))
    assert integrate_single("gaussian", 10.0, 0.0) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize(
    "kind,theta,a,b",
    [
        ("matern32", 1.0, 0.3, -0.2),
        ("matern52", 10.0, -0.4, 0.4),
        ("exponential", 0.1, 0.9, -0.9),
        ("gaussian", 1.0, -0.7, 0.7),
        # steep and near-coincident: a doubled rule diverged here
        ("exponential", 58.65513694707694, 0.30230729473956175, 0.3075607452836615),
    ],
)
def test_pair_oracle_certifies_closed_form(kind, theta, a, b):
    oracle = integrate_pair(kind, theta, a, b)
    closed = float(pair_integral(kind, theta, a, b))
    assert closed == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize(
    "kind,theta,a",
    [
        ("matern32", 1.0, 0.3),
        ("matern52", 0.1, -0.6),
        ("exponential", 10.0, 0.0),
        ("gaussian", 10.0, 0.0),
        ("exponential", 100.0, 0.3710839689613894),
    ],
)
def test_single_oracle_certifies_closed_form(kind, theta, a):
    oracle = integrate_single(kind, theta, a)
    closed = float(single_integral(kind, theta, a))
    assert closed == pytest.approx(oracle, rel=1e-12)


def test_pair_reflection_bit_exact():
    # symmetric nodes plus exact summation make the reflected integral identical
    for kind in ("exponential", "matern32"):
        assert integrate_pair(kind, 2.0, 0.35, -0.6) == integrate_pair(
            kind, 2.0, -0.35, 0.6
        )


def test_kernel_oracles_check_theta_once(monkeypatch):
    calls = []
    original = kernels.validate_theta

    def counting(theta):
        calls.append(theta)
        return original(theta)

    # integrals binds its own name for the checker, so both places are counted
    monkeypatch.setattr(integrals, "validate_theta", counting)
    monkeypatch.setattr(kernels, "validate_theta", counting)
    integrate_pair("matern52", 2.0, 0.3, -0.2)
    assert len(calls) == 1
    calls.clear()
    integrate_single("matern52", 2.0, 0.3)
    assert len(calls) == 1


def test_refinement_is_self_consistent():
    # extra split points move most panels, and with them the nodes, at
    # every level; the value must not depend on where the panels lie
    def integrand(x):
        return rho("matern52", 5.0, x - 0.2) * rho("matern52", 5.0, x + 0.8)

    extra = average_over_domain(integrand, splits=(0.2, -0.8, -0.55, 0.1, 0.7))
    assert extra == pytest.approx(integrate_pair("matern52", 5.0, 0.2, -0.8), rel=1e-13)


def test_integrate_mspe_matches_reference_single_point():
    fam = CovarianceFamily("gaussian", [1.0])
    value = integrate_mspe(fam, Design([0.0]))
    assert value == pytest.approx(float("0.50635173437514594921"), rel=1e-13)


def test_integrate_mspe_matches_reference_two_point():
    fam = CovarianceFamily("exponential", [10.0])
    dsn = Design([-0.428843076502973738580913342642835688, 0.428843076502926651019953387262858211])
    value = integrate_mspe(fam, dsn)
    assert value == pytest.approx(float("1.25050610713192036875720412020"), rel=1e-12)


def test_integrate_mspe_pins_corrected_reference_cell():
    # regression pin: this cell's magnitude was independently verified by
    # 50-digit direct integration at the tabulated design
    fam = CovarianceFamily("exponential", [0.1])
    dsn = Design([-0.595372085098266846217447737796589109, 0.595372085098266701740581888228899010])
    value = integrate_mspe(fam, dsn)
    assert value == pytest.approx(0.0397515674484840954706126153626, rel=1e-12)


def test_integrate_mspe_reflection():
    fam = CovarianceFamily("matern32", [2.0])
    a = integrate_mspe(fam, Design([-0.7, 0.1, 0.5]))
    b = integrate_mspe(fam, Design([0.7, -0.1, -0.5]))
    assert a == pytest.approx(b, rel=1e-13)


def test_integrate_mspe_rejects_multidimensional_designs():
    fam = CovarianceFamily("gaussian", [1.0])
    with pytest.raises(ValueError):
        integrate_mspe(fam, Design([[0.0, 0.0]]))


def test_single_oracle_converges_for_a_steep_exponential():
    # a doubled Gauss-Legendre rule never settled here (as at theta = 100):
    # leggauss errs by 2e-13 to 4e-13 above about 100 nodes. The closed form
    # is within 4.9e-17 of a 40-digit mpmath value
    theta, a = 80.2004294629232, 0.3710839689613894
    oracle = integrate_single("exponential", theta, a)
    assert float(single_integral("exponential", theta, a)) == pytest.approx(oracle, rel=1e-12)


def test_divergence_raises():
    # the jump sits inside a panel at every level: 0.3 is no midpoint of
    # any split of [-1, 1]
    with pytest.raises(OracleDivergenceError):
        average_over_domain(lambda x: np.sign(x - 0.3))


def test_spec_validation():
    for rtol in (0.0, -1e-13, math.inf, math.nan):
        with pytest.raises(ValueError):
            QuadratureSpec(rtol=rtol)
