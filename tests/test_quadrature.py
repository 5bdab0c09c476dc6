"""Quadrature oracle: agreement with exact identities and with the closed forms."""

import math

import numpy as np
import pytest

from imspe import kernels, quadrature

from imspe import (
    CovarianceFamily,
    Design,
    InvalidHyperparameterError,
    OracleDivergenceError,
    QuadratureSpec,
    average_over_domain,
    integrate_mspe,
    integrate_pair,
    integrate_single,
    mspe_evaluator,
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
    original = kernels.validate_args

    def counting(*args):
        calls.append(args)
        return original(*args)

    # quadrature binds its own name for the checker, so both places are counted
    monkeypatch.setattr(quadrature, "validate_args", counting)
    monkeypatch.setattr(kernels, "validate_args", counting)
    integrate_pair("matern52", 2.0, 0.3, -0.2)
    assert len(calls) == 1
    calls.clear()
    integrate_single("matern52", 2.0, 0.3)
    assert len(calls) == 1


def test_kernel_oracles_take_single_values():
    # the oracle takes one theta, as the closed forms do, and one value per
    # anchor where they broadcast over anchor arrays; it names the anchor
    with pytest.raises(InvalidHyperparameterError, match="one theta"):
        integrate_pair("matern52", [1.0, 2.0], 0.3, -0.2)
    with pytest.raises(InvalidHyperparameterError, match="one theta"):
        integrate_single("matern52", [1.0, 2.0], 0.3)
    with pytest.raises(ValueError, match="anchor a must be a single value"):
        integrate_pair("matern52", 2.0, [0.3, 0.1], -0.2)
    with pytest.raises(ValueError, match="anchor b must be a single value"):
        integrate_pair("matern52", 2.0, 0.3, [-0.2, 0.1])
    with pytest.raises(ValueError, match="anchor a must be a single value"):
        integrate_single("matern52", 2.0, [0.3, 0.1])


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
    # any split of [-1, 1]; levels 0 and 1 share the first of six calls
    counting, calls = _counted(lambda x: np.sign(x - 0.3))
    with pytest.raises(OracleDivergenceError, match="64 sub-panels"):
        average_over_domain(counting)
    assert calls == [64 * (1 + 2), *(64 * 2**level for level in range(2, 7))]


def _average_by_level(func, splits=(), spec=QuadratureSpec()):
    # reference: the oracle with one integrand call per level, its breaks
    # from np.unique and one fsum over each level's numpy products
    def fixed_rule(breaks):
        nodes, weights = np.polynomial.legendre.leggauss(64)
        half = 0.5 * (breaks[1:] - breaks[:-1])
        mid = 0.5 * (breaks[1:] + breaks[:-1])
        x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        w = (half[:, None] * weights[None, :]).ravel()
        return 0.5 * math.fsum(w * np.asarray(func(x), dtype=float))

    breaks = np.unique(np.array([-1.0, 1.0] + [float(p) for p in splits if -1.0 < float(p) < 1.0]))
    previous = fixed_rule(breaks)
    for _ in range(6):
        breaks = np.unique(np.concatenate((breaks, 0.5 * (breaks[:-1] + breaks[1:]))))
        value = fixed_rule(breaks)
        if abs(value - previous) <= spec.rtol * max(abs(value), 1e-300):
            return value
        previous = value
    raise OracleDivergenceError(
        f"quadrature did not stabilize to rtol={spec.rtol:g} "
        "after splitting every panel into 64 sub-panels"
    )


def _outcome(average, func, splits):
    try:
        return average(func, splits).hex()
    except OracleDivergenceError as exc:
        return str(exc)


def _split_sets(rng):
    # duplicates, 0.0 and -0.0, splits one ulp apart, out-of-box, infinite
    # and NaN splits, in random order
    for _ in range(40):
        anchors = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 4)))
        extras = [
            anchors[0],
            rng.choice([0.0, -0.0]),
            np.nextafter(anchors[-1], rng.choice([-1.0, 1.0])),
            rng.choice([1.0, -1.0, 1.5, -3.0, math.inf, math.nan]),
        ]
        picked = [extra for extra in extras if rng.random() < 0.5]
        yield anchors, rng.permutation(np.concatenate((anchors, picked)))


def test_refinement_keeps_the_bits_of_one_call_per_level():
    rng = np.random.default_rng(19)
    for anchors, splits in _split_sets(rng):
        kind = str(rng.choice(kernels.FAMILY_KINDS))
        theta = float(rng.uniform(0.1, 60.0))

        def product(x):
            return np.prod([kernels._RHO[kind](theta, np.abs(x - p)) for p in anchors], axis=0)

        assert _outcome(average_over_domain, product, splits) == _outcome(_average_by_level, product, splits)
    for n in range(1, 7):
        points = rng.uniform(-1.0, 1.0, size=n)
        points[0] = rng.choice([0.0, -0.0])
        profile = mspe_evaluator(CovarianceFamily("matern32", [float(rng.uniform(0.5, 5.0))]), points)
        assert _outcome(average_over_domain, profile, points) == _outcome(_average_by_level, profile, points)

    def step(x):
        return np.sign(x - 0.3)

    assert _outcome(average_over_domain, step, ()) == _outcome(_average_by_level, step, ())


def test_refined_breaks_match_np_unique():
    # a midpoint of breaks one ulp apart rounds onto one of them
    rng = np.random.default_rng(7)
    for _, splits in _split_sets(rng):
        breaks = fine = quadrature._panel_breaks(splits)
        for _ in range(6):
            breaks = np.unique(np.concatenate((breaks, 0.5 * (breaks[:-1] + breaks[1:]))))
            fine = quadrature._refined(fine)
            assert np.array_equal(fine, breaks)


def _counted(func):
    calls = []

    def counting(x):
        calls.append(x.size)
        return func(x)

    return counting, calls


def _counting_average(monkeypatch):
    # counts every integrand call of each average the kernel oracles take
    integrand_calls = []
    average = quadrature.average_over_domain

    def counting_average(func, splits=(), spec=quadrature.DEFAULT_SPEC):
        counting, calls = _counted(func)
        integrand_calls.append(calls)
        return average(counting, splits, spec)

    monkeypatch.setattr(quadrature, "average_over_domain", counting_average)
    return integrand_calls


def test_kernel_oracles_refuse_a_nonfinite_kernel_after_one_call(monkeypatch):
    # sqrt(3 theta) overflows, so every kernel value is inf * 0; the closed
    # forms raise the same error for the same input
    integrand_calls = _counting_average(monkeypatch)
    named = r"matern32 correlation at theta \[1e\+308\] is not finite"
    with np.errstate(all="ignore"):
        with pytest.raises(InvalidHyperparameterError, match=named):
            integrate_pair("matern32", 1e308, 0.3, -0.2)
        with pytest.raises(InvalidHyperparameterError, match=named):
            integrate_single("matern32", 1e308, 0.3)
        with pytest.raises(InvalidHyperparameterError, match=named):
            pair_integral("matern32", 1e308, 0.3, -0.2)
    assert [len(calls) for calls in integrand_calls] == [1, 1]


@pytest.mark.parametrize(
    "kind, theta, closed",
    [("matern52", 1e200, 1.19e-100), ("gaussian", 1e308, 8.9e-155), ("exponential", 1e308, 0.0)],
)
def test_kernel_oracles_refuse_an_unresolved_zero(kind, theta, closed):
    # the kernel is narrower than the finest panel, so every node sees 0.0;
    # two levels agreeing on 0.0 certify nothing
    with np.errstate(over="ignore"):
        assert float(single_integral(kind, theta, 0.3)) == pytest.approx(closed, rel=0.01)
    with pytest.raises(OracleDivergenceError, match=f"{kind} .* narrower than the finest panel"):
        integrate_single(kind, theta, 0.3)
    with pytest.raises(OracleDivergenceError, match=f"{kind} .* narrower than the finest panel"):
        integrate_pair(kind, theta, 0.3, -0.2)


def test_average_of_an_odd_integrand_is_zero():
    # the generic average keeps 0.0 where the average really is 0
    assert average_over_domain(lambda x: x) == 0.0
    assert average_over_domain(np.sin) == 0.0
    assert average_over_domain(np.sign, splits=(0.0,)) == 0.0


def test_first_two_levels_take_one_integrand_call():
    counting, calls = _counted(lambda x: rho("matern52", 5.0, x - 0.2) * rho("matern52", 5.0, x + 0.8))
    assert average_over_domain(counting, (0.2, -0.8)) == integrate_pair("matern52", 5.0, 0.2, -0.8)
    assert calls == [64 * (3 + 6)]  # levels 0 and 1: 3 and 6 panels of 64 nodes


def test_kernel_oracles_multiply_through_the_shared_kernel_path(monkeypatch):
    # every integrand call is one kernels._correlations call on the (k, 1)
    # column of the k anchors, whose rows kernels._product multiplies
    rows = []
    correlations = quadrature._correlations

    def counting_correlations(kind, theta, col, row):
        rows.append(np.shape(row))
        return correlations(kind, theta, col, row)

    monkeypatch.setattr(quadrature, "_correlations", counting_correlations)
    integrand_calls = _counting_average(monkeypatch)
    # the narrow gaussian needs a third level, an integrand call of its own
    for oracle, args, column, count in (
        (integrate_pair, ("matern52", 2.0, 0.3, -0.2), (2, 1), 1),
        (integrate_pair, ("gaussian", 1000.0, 0.31, -0.7), (2, 1), 2),
        (integrate_single, ("matern52", 2.0, 0.3), (1, 1), 1),
    ):
        rows.clear()
        integrand_calls.clear()
        oracle(*args)
        assert [len(calls) for calls in integrand_calls] == [count]
        assert rows == [column] * count


def test_spec_validation():
    for rtol in (0.0, -1e-13, math.inf, math.nan, True, np.True_, "1e-9"):
        with pytest.raises(ValueError, match="rtol"):
            QuadratureSpec(rtol=rtol)
