"""Criterion assembly: matrices, the integrated-variance value, the pointwise profile."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from imspe import (
    FAMILY_KINDS,
    CovarianceFamily,
    Design,
    InvalidDesignError,
    InvalidHyperparameterError,
    SingularDesignError,
    build_correlation_matrix,
    build_pair_matrix,
    build_single_vector,
    correlation,
    cross_correlation,
    imspe,
    imspe_value,
    mspe_evaluator,
    mspe_profile,
    pair_integral,
    single_integral,
)
from imspe import criterion, integrals, kernels
from imspe.criterion import _canonical_form, _sort_rows, _value_and_gradient

THETAS = (0.1, 1.0, 10.0)


def test_correlation_matrix_structure():
    fam = CovarianceFamily("matern32", [2.0])
    dsn = Design([-0.5, 0.0, 0.75])
    R = build_correlation_matrix(fam, dsn)
    assert np.array_equal(np.diag(R), np.ones(3))
    assert np.array_equal(R, R.T)
    assert R[0, 2] == correlation(fam, [-0.5], [0.75])


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_correlation_matrix_has_the_bits_of_the_assembled_R(kind):
    rng = np.random.default_rng(11)
    for d in range(1, 11):
        theta = rng.uniform(0.5, 5.0, size=d)
        # at canonical points imspe() assembles R on the points as given
        points = _canonical_form(rng.uniform(-1.0, 1.0, size=(6, d)))[0]
        for fam in (CovarianceFamily(kind, theta), CovarianceFamily(kind, theta[:1])):
            R = build_correlation_matrix(fam, points)
            assert R.tobytes() == imspe(fam, points).R.tobytes()


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


def _canonical_by_enumeration(points):
    # reference: every one of the 2^d per-axis sign flips, keeping the first
    # variant whose row-sorted, flattened coordinates are smallest
    d = points.shape[1]
    best, best_key = None, None
    for mask in range(1 << d):
        signs = np.where((mask >> np.arange(d)) & 1, -1.0, 1.0)
        variant = _sort_rows(points * signs)[0]
        key = tuple(variant.ravel().tolist())
        if best_key is None or key < best_key:
            best, best_key = variant, key
    return best


def _canonicalization_cases(rng):
    for d in range(1, 8):
        corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * d)).reshape(d, -1).T
        star = np.vstack([0.7 * np.eye(d), -0.7 * np.eye(d)])
        yield np.vstack([corners, star, np.zeros((1, d))])  # central composite
        yield np.vstack([star, np.zeros((1, d))])
        for n in (1, 2, 3, 5, 8):
            # the diagonal equispaced design every multistart begins with
            yield np.repeat(np.linspace(-1.0, 1.0, n + 2)[1:-1, None], d, axis=1)
            for _ in range(3):
                yield rng.uniform(-1.0, 1.0, size=(n, d))
                grid = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(n, d))  # ties, zeros
                yield grid
                zero_axis = grid.copy()
                zero_axis[:, rng.integers(d)] = 0.0
                yield zero_axis
                half = rng.uniform(-1.0, 1.0, size=(n, d))
                yield np.vstack([half, -half])  # centrally symmetric
                yield np.vstack([grid, grid[: max(1, n // 2)]])  # repeated rows
                yield np.vstack([grid, grid * np.where(rng.random(d) < 0.5, -1.0, 1.0)])


def test_canonical_points_match_the_sign_flip_enumeration():
    rng = np.random.default_rng(5)
    for points in _canonicalization_cases(rng):
        fast, order, signs = _canonical_form(points)
        slow = _canonical_by_enumeration(points)
        assert np.array_equal(fast, slow)
        assert fast.tobytes() == slow.tobytes()  # signed zeros agree too
        assert (points * signs)[order].tobytes() == fast.tobytes()


def _stacked_design(rng, n, d, kind):
    if kind == "ties":  # ties, 0.0 and -0.0
        return rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=(n, d))
    points = rng.uniform(-0.9, 0.9, size=(n, d))
    if kind == "mirror":
        half = points[: n // 2]
        points[n - len(half):] = -half[rng.permutation(len(half))]
    elif kind == "first tie" and n > 1:  # rows 0 and 1 tie on axis 0 alone, so the head is unique
        points[0, 0] = rng.choice([-0.95, 0.95])
        points[1, 0] = -points[0, 0]
    elif kind == "repeat" and n > 1:
        points[-1] = points[int(rng.integers(n - 1))]
    return rng.permutation(points)


def _head_leaves_a_sign_open(design):
    # the head is the smallest row any sign vector makes, the least -|x|;
    # a second row equal to it, or a zero coordinate, leaves a sign open
    rows = (-np.abs(design)).tolist()
    head = min(rows)
    return rows.count(head) > 1 or 0.0 in head


def test_the_head_row_gives_the_canonical_form_of_every_stacked_design(monkeypatch):
    # ties, 0.0 and -0.0, mirror-symmetric designs, first coordinates that
    # tie under a unique head, repeated points and uniform draws, mixed in
    # one stack: points (sign bits included), row orders and signs agree,
    # each flag says whether adjacent sorted rows repeat a point, and only
    # designs whose head ties or has a zero coordinate take the search
    calls = []
    canonical_form = criterion._canonical_form

    def recording_canonical_form(points):
        calls.append(points.tobytes())
        return canonical_form(points)

    monkeypatch.setattr(criterion, "_canonical_form", recording_canonical_form)
    kinds = ("ties", "mirror", "first tie", "repeat", "uniform")
    rng = np.random.default_rng(14)
    searched = 0
    for d in (1, 2, 3, 6, 10):
        for size in (2, 7, 32):
            for _ in range(12):
                n = int(rng.integers(1, 9))
                stack = np.stack([_stacked_design(rng, n, d, kinds[rng.integers(5)]) for _ in range(size)])
                calls.clear()
                points, order, signs, repeated = criterion._canonical_forms(stack)
                assert calls == [design.tobytes() for design in stack if _head_leaves_a_sign_open(design)]
                searched += len(calls)
                for s, design in enumerate(stack):
                    ref_points, ref_order, ref_signs = canonical_form(design)
                    assert points[s].tobytes() == ref_points.tobytes()
                    assert np.array_equal(order[s], ref_order)
                    assert signs[s].tobytes() == np.array(ref_signs).tobytes()
                    rows = _sort_rows(design)[0]
                    assert repeated[s] == any(np.array_equal(a, b) for a, b in zip(rows[1:], rows[:-1]))
    assert 0 < searched


def test_the_batch_shape_picks_the_canonical_rule(monkeypatch):
    # a batch of one takes the per-design search once; a batch of two or
    # more designs with unique, zero-free heads takes the stacked rule alone
    calls = []
    canonical_form = criterion._canonical_form

    def counting_canonical_form(points):
        calls.append(points.shape)
        return canonical_form(points)

    monkeypatch.setattr(criterion, "_canonical_form", counting_canonical_form)
    fam = CovarianceFamily("matern32", 2.0)
    rng = np.random.default_rng(18)
    for size, d, expected in ((1, 1, 1), (1, 3, 1), (2, 1, 0), (7, 1, 0), (3, 2, 0)):
        stack = rng.uniform(-1.0, 1.0, size=(size, 5, d))
        for call in (criterion._canonical_forms, lambda batch: criterion._values_and_gradients(fam, batch)):
            calls.clear()
            call(stack)
            assert calls == [(5, d)] * expected


def test_canonical_points_sort_once_when_the_extreme_row_is_unique(monkeypatch):
    calls = []
    sort_rows = criterion._sort_rows

    def counting_sort_rows(points):
        calls.append(points.shape)
        return sort_rows(points)

    monkeypatch.setattr(criterion, "_sort_rows", counting_sort_rows)
    rng = np.random.default_rng(9)
    for d in (1, 2, 10, 40):
        calls.clear()
        _canonical_form(rng.uniform(-1.0, 1.0, size=(12, d)))
        assert calls == [(12, d)]


def test_canonical_points_of_a_centrally_symmetric_design_match_the_enumeration():
    # the extreme row ties with its mirror image, and flipping every axis
    # maps the design onto itself: the two branches merge on equal bytes
    rng = np.random.default_rng(10)
    for d in (1, 2, 5):
        half = rng.uniform(-1.0, 1.0, size=(4, d))
        for points in (np.array([[-0.5] * d, [0.5] * d]), np.vstack([half, -half])):
            canonical = _canonical_form(points)[0]
            assert canonical.tobytes() == _canonical_by_enumeration(points).tobytes()


def test_permutation_and_reflection_invariance_above_sixteen_axes():
    rng = np.random.default_rng(17)
    fam = CovarianceFamily("matern52", [2.0])
    for d in range(17, 41):
        for _ in range(2):
            pts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(3, 7)), d))
            moved = rng.permutation(pts) * np.where(rng.random(d) < 0.5, -1.0, 1.0)
            assert imspe_value(fam, moved) == imspe_value(fam, pts)


def test_wrong_theta_count_raises_at_sixteen_axes():
    fam = CovarianceFamily("matern52", [1.0, 2.0])
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(3, 16))
    with pytest.raises(InvalidHyperparameterError):
        imspe(fam, pts)


def test_imspe_checks_its_design_once(monkeypatch):
    designs, checks = [], []
    init, validate = Design.__init__, kernels.validate_args

    def counting_init(self, points):
        designs.append(np.shape(points))
        init(self, points)

    def counting_validate(*args):
        checks.append(args)
        return validate(*args)

    monkeypatch.setattr(Design, "__init__", counting_init)
    # integrals binds its own name for the kernels' argument checker
    monkeypatch.setattr(kernels, "validate_args", counting_validate)
    monkeypatch.setattr(integrals, "validate_args", counting_validate)
    fam = CovarianceFamily("matern32", [1.5, 0.5])
    ev = imspe(fam, [[-0.5, 0.25], [0.0, -0.75], [0.6, 0.6]])
    assert 0.0 < ev.value < 1.0
    assert designs == [(3, 2)]
    assert checks == []


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
    with pytest.raises(SingularDesignError):
        imspe(fam, [0.25, 0.25])
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


def test_value_and_gradient_share_the_bits_and_symmetries_of_imspe():
    rng = np.random.default_rng(12)
    for kind in FAMILY_KINDS:
        for d in (1, 2, 3, 4):
            fam = CovarianceFamily(kind, rng.uniform(0.5, 5.0, size=d))
            for n in (1, 2, 5):
                grid = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(n, d))  # ties, zeros
                pts = np.where(rng.random((n, d)) < 0.5, grid, rng.uniform(-1.0, 1.0, size=(n, d)))
                try:
                    expected = imspe_value(fam, pts)
                except SingularDesignError:
                    with pytest.raises(SingularDesignError):
                        _value_and_gradient(fam, pts)
                    continue
                value, grad, _ = _value_and_gradient(fam, pts)
                assert value == expected
                assert grad.shape == pts.shape
                # moving rows and reflecting axes moves and reflects the
                # gradient, to the last bit, for a design that no such move
                # maps onto itself
                pts = rng.uniform(-1.0, 1.0, size=(n, d))
                value, grad, _ = _value_and_gradient(fam, pts)
                order = rng.permutation(n)
                signs = np.where(rng.random(d) < 0.5, -1.0, 1.0)
                moved_value, moved_grad, _ = _value_and_gradient(fam, pts[order] * signs)
                assert moved_value == value
                assert np.array_equal(moved_grad, grad[order] * signs)


def _scipy_factor(R):
    # the scipy wrapper around dpotrf, with its own checks
    return cho_factor(R, lower=True)[0]


def _scipy_solve(c, b):
    return cho_solve((c, True), b)


def _product_from_ones(factors):
    out = np.ones_like(factors[0])
    for factor in factors:
        out = out * factor
    return out


def _leave_one_out_from_ones(factors):
    ones = np.ones_like(factors[0])
    before, after = [ones], [ones]
    for factor in factors[:-1]:
        before.append(before[-1] * factor)
    for factor in factors[:0:-1]:
        after.append(after[-1] * factor)
    return np.array([head * tail for head, tail in zip(before, reversed(after))])


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_lapack_core_has_the_bits_of_the_scipy_wrappers(kind, monkeypatch):
    rng = np.random.default_rng(FAMILY_KINDS.index(kind))
    cases = []
    for d in (1, 2):
        for n in (1, 2, 8, 32):
            # one point per row and column stratum, theta growing with n:
            # R stays positive definite at every size
            strata = np.stack([rng.permutation(n) for _ in range(d)], axis=1)
            pts = (strata + rng.uniform(0.2, 0.8, size=(n, d))) / n * 2.0 - 1.0
            fam = CovarianceFamily(kind, n * rng.uniform(0.5, 2.0, size=d))
            cases.append((fam, pts, imspe(fam, pts), _value_and_gradient(fam, pts)))
    # rebuild every case on scipy's cho_factor and cho_solve, with products
    # started from ones
    monkeypatch.setattr(criterion, "_factor", _scipy_factor)
    monkeypatch.setattr(criterion, "_solve", _scipy_solve)
    monkeypatch.setattr(criterion, "_product", _product_from_ones)
    monkeypatch.setattr(criterion, "_leave_one_out", _leave_one_out_from_ones)
    for fam, pts, ev, (value, grad, unit) in cases:
        rebuilt = imspe(fam, pts)
        assert ev.value.hex() == rebuilt.value.hex()
        for array, expected in ((ev.R, rebuilt.R), (ev.W, rebuilt.W), (ev.v, rebuilt.v)):
            assert array.tobytes() == expected.tobytes()
        rebuilt_value, rebuilt_grad, rebuilt_unit = _value_and_gradient(fam, pts)
        assert value.hex() == rebuilt_value.hex()
        assert grad.tobytes() == rebuilt_grad.tobytes()
        assert unit == rebuilt_unit


def _per_axis_factors(family, points):
    # reference: each closed form called once per axis, on that axis' theta
    # and column, as the assembly ran before the axes were stacked
    th = family.theta_for_dimension(points.shape[1])
    rho, pair, single = (table[family.kind] for table in (kernels._RHO, criterion._PAIR, criterion._SINGLE))
    R, W, v = [], [], []
    for k, col in enumerate(points.T):
        R.append(rho(th[k], np.abs(col[:, None] - col[None, :])))
        W.append(pair(th[k], col[:, None], col[None, :]))
        v.append(single(th[k], col))
    return R, W, v


def _per_axis_product(factors):
    out = factors[0]
    for factor in factors[1:]:
        out = out * factor
    return out


def _per_axis_leave_one_out(factors):
    if len(factors) == 1:
        return [np.ones_like(factors[0])]
    before = [factors[0]]
    for factor in factors[1:-1]:
        before.append(before[-1] * factor)
    after = [factors[-1]]
    for factor in factors[-2:0:-1]:
        after.append(after[-1] * factor)
    inner = [head * tail for head, tail in zip(before[:-1], reversed(after[:-1]))]
    return [after[-1], *inner, before[-1]]


def _per_axis_evaluation(family, points):
    """Value, R, W, v, gradient and rounding unit, one axis, one solve and one design at a time."""
    canonical, _, signs = _canonical_form(points)
    n, d = canonical.shape
    factors = _per_axis_factors(family, canonical)
    R, W, v = map(_per_axis_product, factors)
    c = criterion._factor(R)
    ones = np.ones(n)
    u = criterion._solve(c, ones)
    denom = float(u @ ones)
    if not np.isfinite(c).all() or (c.diagonal() <= 0.0).any() or not 0.0 < denom < math.inf:
        raise SingularDesignError("correlation matrix is numerically singular")
    if (canonical[1:] == canonical[:-1]).all(axis=1).any():
        raise SingularDesignError("design has repeated points")
    RiW = criterion._solve(c, W)
    uW = u @ W
    lin, quad = float(u @ v), float(uW @ u)
    terms = (1.0, -float(np.trace(RiW)), 1.0 / denom, -2.0 * lin / denom, quad / denom)
    value = math.fsum(terms)
    Rinv = criterion._solve(c, np.eye(n))
    uu = u[:, None] * u / denom
    numerator = 1.0 - 2.0 * lin + quad
    z = Rinv @ (uW - v)
    dW = uu - Rinv
    dv = -2.0 * u / denom
    dR = criterion._solve(c, RiW.T) - (z[:, None] * u + u[:, None] * z) / denom + numerator * uu / denom
    th = family.theta_for_dimension(d)
    kind = family.kind
    R_rest, W_rest, v_rest = map(_per_axis_leave_one_out, factors)
    grad = np.empty((n, d))
    for k, col in enumerate(canonical.T):
        gap = col[:, None] - col[None, :]
        sR = criterion._DRHO[kind](th[k], np.abs(gap)) * np.sign(gap)
        sW = criterion._DPAIR[kind](th[k], col[:, None], col[None, :])
        sv = integrals._dsingle(kind, th[k], col)
        rows = (dR * sR * R_rest[k]).sum(axis=1) + (dW * sW * W_rest[k]).sum(axis=1)
        grad[:, k] = 2.0 * rows + dv * sv * v_rest[k]
    out = np.empty_like(grad)
    out[np.lexsort((points * signs).T[::-1])] = grad * signs
    return value, R, W, v, out, criterion._EPS * math.fsum(abs(t) for t in terms)


def test_stacked_axes_have_the_bits_of_one_axis_at_a_time():
    rng = np.random.default_rng(10)
    for kind in FAMILY_KINDS:
        for d in range(1, 11):
            anisotropic = rng.uniform(0.5, 5.0, size=d)
            for n in range(1, 17):
                grid = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(n, d))  # ties, zeros
                pts = np.where(rng.random((n, d)) < 0.5, grid, rng.uniform(-1.0, 1.0, size=(n, d)))
                for fam in (CovarianceFamily(kind, anisotropic), CovarianceFamily(kind, anisotropic[0])):
                    try:
                        expected = _per_axis_evaluation(fam, pts)
                    except SingularDesignError:
                        for call in (imspe, _value_and_gradient):
                            with pytest.raises(SingularDesignError):
                                call(fam, pts)
                        continue
                    _assert_has_the_bits_of(expected, fam, pts)


def _assert_has_the_bits_of(expected, fam, pts):
    ev = imspe(fam, pts)
    value, grad, unit = _value_and_gradient(fam, pts)
    ref_value, ref_R, ref_W, ref_v, ref_grad, ref_unit = expected
    assert ev.value.hex() == value.hex() == ref_value.hex()
    for array, reference in ((ev.R, ref_R), (ev.W, ref_W), (ev.v, ref_v), (grad, ref_grad)):
        assert array.tobytes() == reference.tobytes()
    assert unit.hex() == ref_unit.hex()


def test_large_designs_have_the_bits_of_one_axis_at_a_time():
    # the triangle saves most at the largest designs; one point per stratum
    # and theta growing with n (with n^2 for the gaussian's h^2) keep R
    # positive definite
    rng = np.random.default_rng(11)
    for kind in FAMILY_KINDS:
        for n in (32, 64):
            for d in (1, 2):
                strata = np.stack([rng.permutation(n) for _ in range(d)], axis=1)
                pts = (strata + rng.uniform(0.0, 1.0, size=(n, d))) / n * 2.0 - 1.0
                pts[0, -1] = -0.0
                anisotropic = n ** (1 + (kind == "gaussian")) * rng.uniform(0.5, 2.0, size=d)
                for fam in (CovarianceFamily(kind, anisotropic), CovarianceFamily(kind, anisotropic[0])):
                    _assert_has_the_bits_of(_per_axis_evaluation(fam, pts), fam, pts)


def test_filled_stacks_are_c_contiguous(monkeypatch):
    # BLAS picks its arithmetic by memory order, so R, W and the filled
    # leave-one-out stacks must keep the C order a full grid had
    filled = []
    original = criterion._filled

    def recording(triangle, n):
        filled.append(original(triangle, n))
        return filled[-1]

    monkeypatch.setattr(criterion, "_filled", recording)
    rng = np.random.default_rng(12)
    for d in (1, 2, 3):
        fam = CovarianceFamily("matern52", rng.uniform(0.5, 5.0, size=d))
        pts = rng.uniform(-1.0, 1.0, size=(7, d))
        ev = imspe(fam, pts)
        assert ev.R.flags.c_contiguous and ev.W.flags.c_contiguous
        filled.clear()
        criterion._values_and_gradients(fam, np.stack([pts, pts[::-1], -pts]))
        # R and W, then the leave-one-out stacks of R and W
        assert [array.shape for array in filled] == [(3, 7, 7)] * 2 + [(d, 3, 7, 7)] * 2
        assert all(array.flags.c_contiguous for array in filled)


@pytest.mark.parametrize("d", [1, 2, 6, 10])
def test_each_closed_form_runs_once_for_all_axes(d, monkeypatch):
    calls = {}
    anchors = {}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] = calls.get(name, 0) + 1
            anchors.setdefault(name, [np.shape(arg) for arg in args[1:]])
            return fn(*args)
        return wrapped

    rng = np.random.default_rng(d)
    pts = rng.uniform(-1.0, 1.0, size=(5, d))
    tables = {"rho": kernels._RHO, "pair": criterion._PAIR, "single": criterion._SINGLE,
              "drho": criterion._DRHO, "dpair": criterion._DPAIR}
    monkeypatch.setattr(criterion, "_dsingle", counting("dsingle", criterion._dsingle))
    for kind in FAMILY_KINDS:
        for name, table in tables.items():
            monkeypatch.setitem(table, kind, counting(name, table[kind]))
        for theta in (2.0, rng.uniform(0.5, 5.0, size=d)):
            fam = CovarianceFamily(kind, theta)
            calls.clear()
            anchors.clear()
            criterion._assemble(fam, pts)
            assert calls == {"rho": 1, "pair": 1, "single": 1}
            # R and W on the 15 anchor pairs i <= j of 5 points, v on the points
            assert anchors == {"rho": [(d, 15)], "pair": [(d, 15), (d, 15)], "single": [(d, 5)]}
            calls.clear()
            _value_and_gradient(fam, pts)
            # the one _dsingle call takes rho at 1 + a and at 1 - a
            assert calls == {"rho": 3, "pair": 1, "single": 1, "drho": 1, "dpair": 1, "dsingle": 1}


def test_coincident_points_name_the_leading_minor():
    fam = CovarianceFamily("exponential", [1.0])
    pts = np.array([[0.5], [0.5], [-0.25]])
    for call in (imspe, _value_and_gradient, mspe_evaluator):
        with pytest.raises(SingularDesignError) as info:
            call(fam, pts)
        message = str(info.value)
        assert message.startswith("correlation matrix is not positive definite: ")
        assert "2-th leading minor" in message


def test_repeated_points_raise_even_where_the_factor_succeeds():
    fam = CovarianceFamily("exponential", 4.39158914157464)
    pts = np.array([0.5826086677441835, 0.5826086677441835, 1.0, 0.3328461741628328,
                    -0.5, 0.0, -0.39368554925243693])[:, None]
    canonical = _canonical_form(pts)[0]
    # in this row order, rounding leaves R a tiny positive pivot (cond(R)
    # near 5e16), where it used to price a value
    criterion._factor(build_correlation_matrix(fam, canonical))
    for call, points in ((imspe, pts), (_value_and_gradient, pts), (mspe_evaluator, canonical)):
        with pytest.raises(SingularDesignError, match="^design has repeated points$"):
            call(fam, points)
    # in a batch, the design prices as its own error
    distinct = np.linspace(-0.9, 0.9, 7)[:, None]
    values, _, _, errors = criterion._values_and_gradients(fam, np.stack([pts, distinct, pts[::-1]]))
    assert [str(error) for error in errors[::2]] == ["design has repeated points"] * 2
    assert errors[1] is None
    assert values[1] == imspe_value(fam, distinct)


@pytest.mark.parametrize("kind, theta", [("matern52", 1e200), ("matern32", 1e308)])
def test_huge_theta_raises_invalid_hyperparameter(kind, theta):
    # inf * 0 in the kernel and its averages makes W (and at 1e308 R) nan
    fam = CovarianceFamily(kind, theta)
    pts = np.array([[-0.5], [0.5]])
    named = re.escape(kind) + ".*" + re.escape(repr(theta))
    with np.errstate(all="ignore"):
        for call in (imspe, _value_and_gradient, build_pair_matrix):
            with pytest.raises(InvalidHyperparameterError, match=named):
                call(fam, pts)
        if theta == 1e308:
            with pytest.raises(InvalidHyperparameterError, match=named + r".*\(R has"):
                build_correlation_matrix(fam, pts)
        else:
            assert np.isfinite(build_correlation_matrix(fam, pts)).all()


@pytest.mark.parametrize("kind", ["exponential", "gaussian"])
def test_huge_theta_is_finite_for_exponential_and_gaussian(kind):
    with np.errstate(all="ignore"):
        assert imspe_value(CovarianceFamily(kind, 1e308), [[-0.5], [0.5]]) == 1.5


def test_mspe_profile_rejects_nonfinite_locations():
    profile = mspe_evaluator(CovarianceFamily("gaussian", [1.0]), [-0.5, 0.5])
    with pytest.raises(InvalidDesignError, match="locations must be finite"):
        profile(np.nan)
    # locations are read as Design reads points: a bool is not read as 1.0,
    # nor a string as the number it spells
    for bad in (True, "0.5", 1j, [[None]]):
        with pytest.raises(InvalidDesignError, match="^design coordinates must be real numbers, got dtype "):
            profile(bad)
    with pytest.raises(InvalidDesignError, match="ragged"):
        profile([[0.1], [0.2, 0.3]])
    with pytest.raises(InvalidDesignError, match="^point sets must share a dimension$"):
        profile([[0.1, 0.2]])
    # a scalar, a 0-d array and an int are one location; flat and (m, 1) arrays agree
    grid = np.linspace(-1.0, 1.0, 5)
    assert profile(1.0) == profile(np.array(1.0)) == profile(1) == profile(grid)[-1]
    assert np.array_equal(profile(grid), profile(grid[:, None]))


def test_each_input_is_read_once(monkeypatch):
    # the point reader runs where each input enters, and the code below it
    # takes the arrays it read
    read, reads = kernels._as_points, []

    def counted(points):
        reads.append(points)
        return read(points)

    monkeypatch.setattr(kernels, "_as_points", counted)
    monkeypatch.setattr(criterion, "_as_points", counted, raising=False)
    fam = CovarianceFamily("matern32", [2.0, 0.5])
    design = [[-0.5, 0.25], [0.5, -0.25], [0.0, 0.75]]
    for call in (imspe, build_correlation_matrix, mspe_evaluator):
        reads.clear()
        call(fam, design)
        assert len(reads) == 1 and reads[0] is design, call
    profile = mspe_evaluator(fam, design)
    locations = np.array([[0.1, 0.2], [0.3, -0.4]])
    reads.clear()
    profile(locations)
    assert len(reads) == 1 and reads[0] is locations
    reads.clear()
    cross_correlation(fam, design, locations)
    assert len(reads) == 2 and reads[0] is design and reads[1] is locations


def test_nonfinite_single_average_is_caught(monkeypatch):
    monkeypatch.setitem(criterion._SINGLE, "gaussian", lambda theta, col: np.full(col.shape, np.nan))
    fam = CovarianceFamily("gaussian", [1.0])
    for call in (imspe, _value_and_gradient):
        with pytest.raises(InvalidHyperparameterError, match=r"\(v has inf or nan"):
            call(fam, np.array([[-0.5], [0.5]]))


def test_a_batch_has_the_bits_of_one_design_at_a_time():
    # the search prices every live start's trial in one batch; each design
    # keeps the value, gradient and unit it has alone, and a singular design
    # mid-batch leaves the others' bits alone
    rng = np.random.default_rng(13)
    for kind in FAMILY_KINDS:
        for d in range(1, 11):
            anisotropic = rng.uniform(0.5, 5.0, size=d)
            n = int(rng.integers(2, 9))
            grid = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(5, n, d))  # ties, zeros
            stack = np.where(rng.random((5, n, d)) < 0.5, grid, rng.uniform(-1.0, 1.0, size=(5, n, d)))
            stack[2] = stack[2, 0]  # every point coincides: R is all ones
            for fam in (CovarianceFamily(kind, anisotropic), CovarianceFamily(kind, anisotropic[0])):
                values, grads, units, errors = criterion._values_and_gradients(fam, stack)
                assert (values.shape, grads.shape, units.shape, len(errors)) == ((5,), stack.shape, (5,), 5)
                for points, *priced, error in zip(stack, values, grads, units, errors):
                    try:
                        value, grad, unit = _value_and_gradient(fam, points)
                    except SingularDesignError as exc:
                        assert isinstance(error, SingularDesignError)
                        assert str(error) == str(exc)
                        continue
                    assert error is None
                    assert (priced[0].hex(), priced[1].tobytes(), priced[2].hex()) == (
                        value.hex(), grad.tobytes(), unit.hex())
                assert isinstance(errors[2], SingularDesignError)
                # a singular design's row holds placeholders: +inf, a zero gradient, a 0.0 unit
                assert values[2] == math.inf and units[2] == 0.0 and (grads[2] == 0.0).all()


def test_singular_designs_in_a_batch_raise_no_numpy_warning():
    # designs without a factor and designs that repeat a point, among
    # ordinary ones: their placeholders come from zeroed solves, not from
    # arithmetic on what a failed factor left behind
    rng = np.random.default_rng(19)
    # at exponential theta 4.39..., rounding leaves R a positive factor here
    repeats = np.array([0.5826086677441835, 0.5826086677441835, 1.0, 0.3328461741628328,
                        -0.5, 0.0, -0.39368554925243693])[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in FAMILY_KINDS:
            for fam in (CovarianceFamily(kind, 4.39158914157464), CovarianceFamily(kind, 2.0)):
                for d in (1, 2, 3):
                    stack = rng.uniform(-1.0, 1.0, size=(5, 7, d))
                    stack[1] = stack[1, 0]  # every point coincides
                    stack[3, 6] = stack[3, 2]  # one point twice
                    stack[4] = repeats
                    values, grads, units, errors = criterion._values_and_gradients(fam, stack)
                    assert [error is None for error in errors] == [True, False, True, False, False]
                    assert np.isfinite(values[[0, 2]]).all() and np.isfinite(grads[[0, 2]]).all()
                    for points, error in zip(stack, errors):
                        if error is None:
                            imspe(fam, points)
                            continue
                        for call in (imspe, mspe_evaluator):
                            with pytest.raises(SingularDesignError):
                                call(fam, points)
