"""Criterion assembly: matrices, the integrated-variance value, the pointwise profile."""

import math

import numpy as np
import pytest

from imspe import (
    FAMILY_KINDS,
    CovarianceFamily,
    Design,
    SingularDesignError,
    build_correlation_matrix,
    build_pair_matrix,
    build_single_vector,
    correlation,
    imspe,
    imspe_value,
    mspe_evaluator,
    mspe_profile,
    pair_integral,
    single_integral,
)

THETAS = (0.1, 1.0, 10.0)


def test_correlation_matrix_structure():
    fam = CovarianceFamily("matern32", [2.0])
    dsn = Design([-0.5, 0.0, 0.75])
    R = build_correlation_matrix(fam, dsn)
    assert np.array_equal(np.diag(R), np.ones(3))
    assert np.array_equal(R, R.T)
    assert R[0, 2] == correlation(fam, [-0.5], [0.75])


def test_pair_matrix_symmetric_and_matches_entries():
    fam = CovarianceFamily("matern52", [3.0])
    dsn = Design([-0.4, 0.1, 0.8])
    W = build_pair_matrix(fam, dsn)
    assert np.array_equal(W, W.T)
    for i, a in enumerate((-0.4, 0.1, 0.8)):
        for j, b in enumerate((-0.4, 0.1, 0.8)):
            assert W[i, j] == float(pair_integral("matern52", 3.0, a, b))


def test_single_vector_matches_entries():
    fam = CovarianceFamily("exponential", [0.5])
    dsn = Design([-0.9, 0.25])
    v = build_single_vector(fam, dsn)
    assert v[0] == float(single_integral("exponential", 0.5, -0.9))
    assert v[1] == float(single_integral("exponential", 0.5, 0.25))


def test_tensor_product_assembly_d2():
    fam = CovarianceFamily("gaussian", [2.0, 0.7])
    dsn = Design([[0.3, -0.5], [-0.2, 0.8]])
    W = build_pair_matrix(fam, dsn)
    expected = float(
        pair_integral("gaussian", 2.0, 0.3, -0.2)
    ) * float(pair_integral("gaussian", 0.7, -0.5, 0.8))
    assert W[0, 1] == pytest.approx(expected, rel=1e-15)
    v = build_single_vector(fam, dsn)
    expected_v = float(single_integral("gaussian", 2.0, 0.3)) * float(
        single_integral("gaussian", 0.7, -0.5)
    )
    assert v[0] == pytest.approx(expected_v, rel=1e-15)


def test_reference_single_point_values():
    # 20-digit reference criterion values for the single-point gaussian optimum
    for theta, digits in (
        (10.0, "1.4395052189867145188"),
        (1.0, "0.50635173437514594921"),
        (0.1, "0.064713374728816338000"),
    ):
        fam = CovarianceFamily("gaussian", [theta])
        assert imspe_value(fam, [0.0]) == pytest.approx(float(digits), rel=1e-13)


def test_reference_two_point_values():
    cells = [
        ("exponential", 10.0, 0.428843076502973738580913342642835688, "1.25050610713192036875720412020"),
        ("gaussian", 1.0, 0.547984842186733040086552912592693869, "0.104338053693786375286958781117"),
        # magnitude of this cell independently verified by 50-digit direct integration
        ("exponential", 0.1, 0.595372085098266846217447737796589109, "0.0397515674484840954706126153626"),
    ]
    for kind, theta, x, digits in cells:
        fam = CovarianceFamily(kind, [theta])
        assert imspe_value(fam, [-x, x]) == pytest.approx(float(digits), rel=1e-12)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("a", (-0.85, 0.0, 0.3))
def test_single_point_reduction_is_exact(kind, theta, a):
    fam = CovarianceFamily(kind, [theta])
    expected = 2.0 - 2.0 * float(single_integral(kind, theta, a))
    assert imspe_value(fam, [a]) == expected


def test_regression_anchors():
    # frozen values from an independent straight-line implementation of the
    # same formula (explicit inverse, plain summation)
    fam32 = CovarianceFamily("matern32", [1.0])
    assert imspe_value(fam32, [-0.5, 0.1, 0.7]) == pytest.approx(
        0.06045736916043292, rel=1e-12
    )
    fam52 = CovarianceFamily("matern52", [10.0])
    assert imspe_value(fam52, [-0.8, -0.1, 0.4, 0.9]) == pytest.approx(
        0.21651874694245654, rel=1e-12
    )


def test_reflection_invariance_is_exact():
    # internal canonicalization maps a design and its mirror image to the
    # same representative, so the values agree to the bit
    rng = np.random.default_rng(7)
    for kind in FAMILY_KINDS:
        for theta in THETAS:
            fam = CovarianceFamily(kind, [theta])
            pts = np.sort(rng.uniform(-1.0, 1.0, size=4))
            assert imspe_value(fam, pts) == imspe_value(fam, -pts)


def test_reflection_invariance_per_axis():
    fam = CovarianceFamily("matern52", [2.0, 0.7])
    pts = np.array([[-0.4, 0.2], [0.3, -0.9], [0.8, 0.5]])
    base = imspe_value(fam, pts)
    assert imspe_value(fam, pts * np.array([-1.0, 1.0])) == base
    assert imspe_value(fam, pts * np.array([1.0, -1.0])) == base
    assert imspe_value(fam, -pts) == base


def test_permutation_invariance_is_exact():
    fam = CovarianceFamily("matern52", [2.0])
    pts = [0.6, -0.3, 0.1, -0.9]
    base = imspe_value(fam, pts)
    rng = np.random.default_rng(3)
    for _ in range(5):
        perm = rng.permutation(pts)
        assert imspe_value(fam, perm) == base


def test_monotone_information_gain():
    rng = np.random.default_rng(11)
    for kind in FAMILY_KINDS:
        fam = CovarianceFamily(kind, [1.0])
        for _ in range(5):
            pts = np.sort(rng.uniform(-1.0, 1.0, size=3))
            extra = rng.uniform(-1.0, 1.0)
            while np.min(np.abs(pts - extra)) < 0.05:
                extra = rng.uniform(-1.0, 1.0)
            smaller = imspe_value(fam, pts)
            larger = imspe_value(fam, np.append(pts, extra))
            assert larger <= smaller + 1e-12


def test_singular_design_raises_with_condition_estimate():
    fam = CovarianceFamily("gaussian", [10.0])
    with pytest.raises(SingularDesignError) as info:
        imspe(fam, [0.25, 0.25])
    assert info.value.condition_estimate == math.inf
    with pytest.raises(SingularDesignError):
        mspe_evaluator(fam, [0.25, 0.25])


def test_evaluation_diagnostics_shape():
    fam = CovarianceFamily("exponential", [1.0])
    ev = imspe(fam, [-0.5, 0.5])
    assert ev.R.shape == (2, 2)
    assert ev.W.shape == (2, 2)
    assert ev.v.shape == (2,)
    assert ev.condition_estimate >= 1.0
    assert 0.0 < ev.value < 2.0


def test_condition_estimate_is_computed_only_when_read(monkeypatch):
    calls = []
    cond = np.linalg.cond

    def counting_cond(*args, **kwargs):
        calls.append(args)
        return cond(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counting_cond)
    fam = CovarianceFamily("matern52", [2.0])
    ev = imspe(fam, [-0.6, 0.1, 0.6])
    assert 0.0 < ev.value < 1.0
    assert calls == []
    assert ev.condition_estimate == cond(ev.R)
    assert len(calls) == 1


def test_mspe_profile_interpolates_design_points():
    fam = CovarianceFamily("matern52", [1.0])
    dsn = Design([-0.6, 0.0, 0.7])
    profile = mspe_evaluator(fam, dsn)
    for x in (-0.6, 0.0, 0.7):
        assert abs(profile(x)) <= 1e-12
    grid = np.linspace(-1.0, 1.0, 101)
    vals = profile(grid)
    assert np.all(vals >= -1e-12)
    assert mspe_profile(fam, dsn, 0.31) == profile(0.31)


def test_mspe_profile_vector_matches_scalars():
    fam = CovarianceFamily("exponential", [2.0])
    dsn = Design([-0.2, 0.4])
    profile = mspe_evaluator(fam, dsn)
    grid = np.linspace(-1.0, 1.0, 11)
    vec = profile(grid)
    assert np.array_equal(vec, [profile(float(x)) for x in grid])
