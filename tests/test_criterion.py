"""Criterion assembly: matrices, the integrated-variance value, the pointwise profile."""

import math
import re

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
    imspe,
    imspe_value,
    mspe_evaluator,
    mspe_profile,
    pair_integral,
    single_integral,
)
from imspe import criterion, integrals, kernels
from imspe.criterion import _canonical_form, _value_and_gradient, sorted_rows

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
        variant = sorted_rows(points * signs)
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
        fast = _canonical_form(points)[0]
        slow = _canonical_by_enumeration(points)
        assert np.array_equal(fast, slow)
        assert fast.tobytes() == slow.tobytes()  # signed zeros agree too


def test_canonical_points_sort_once_when_the_extreme_row_is_unique(monkeypatch):
    calls = []

    def counting_sorted_rows(points):
        calls.append(points.shape)
        return sorted_rows(points)

    monkeypatch.setattr(criterion, "sorted_rows", counting_sorted_rows)
    rng = np.random.default_rng(9)
    for d in (1, 2, 10, 40):
        calls.clear()
        _canonical_form(rng.uniform(-1.0, 1.0, size=(12, d)))
        assert calls == [(12, d)]


def test_canonical_points_sort_once_for_a_centrally_symmetric_design(monkeypatch):
    # the extreme row ties with its mirror image; flipping every axis maps
    # the design onto itself, so the mirror branch needs no sort of its own
    calls = []

    def counting_sorted_rows(points):
        calls.append(points.shape)
        return sorted_rows(points)

    monkeypatch.setattr(criterion, "sorted_rows", counting_sorted_rows)
    rng = np.random.default_rng(10)
    for d in (1, 2, 5):
        half = rng.uniform(-1.0, 1.0, size=(4, d))
        for points in (np.array([[-0.5] * d, [0.5] * d]), np.vstack([half, -half])):
            calls.clear()
            canonical = _canonical_form(points)[0]
            assert len(calls) == 1
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
    init, validate = Design.__init__, integrals._validate_args

    def counting_init(self, points):
        designs.append(np.shape(points))
        init(self, points)

    def counting_validate(*args):
        checks.append(args)
        return validate(*args)

    monkeypatch.setattr(Design, "__init__", counting_init)
    monkeypatch.setattr(integrals, "_validate_args", counting_validate)
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
    # the scipy wrappers around dpotrf and dpotrs, with their own checks
    cho = cho_factor(R, lower=True)
    ones = np.ones(R.shape[0])
    u = cho_solve(cho, ones)
    return cho[0], u, float(u @ ones)


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
    return [head * tail for head, tail in zip(before, reversed(after))]


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
    """Value, R, W, v, gradient and rounding unit, assembled and contracted one axis at a time."""
    canonical, signs = _canonical_form(points)
    n, d = canonical.shape
    factors = _per_axis_factors(family, canonical)
    R, W, v = map(_per_axis_product, factors)
    c, u, denom = criterion._factor(R)
    value, terms, RiW, uW = criterion._value(c, u, denom, W, v)
    Rinv = criterion._solve(c, np.eye(n))
    uu = u[:, None] * u / denom
    numerator = 1.0 - 2.0 * float(u @ v) + float(uW @ u)
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
                    ev = imspe(fam, pts)
                    value, grad, unit = _value_and_gradient(fam, pts)
                    ref_value, ref_R, ref_W, ref_v, ref_grad, ref_unit = expected
                    assert ev.value.hex() == value.hex() == ref_value.hex()
                    for array, reference in ((ev.R, ref_R), (ev.W, ref_W), (ev.v, ref_v), (grad, ref_grad)):
                        assert array.tobytes() == reference.tobytes()
                    assert unit.hex() == ref_unit.hex()


@pytest.mark.parametrize("d", [1, 2, 6, 10])
def test_each_closed_form_runs_once_for_all_axes(d, monkeypatch):
    calls = {}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] = calls.get(name, 0) + 1
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
            criterion._axis_factors(*criterion._operands(fam, pts))
            assert calls == {"rho": 1, "pair": 1, "single": 1}
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


@pytest.mark.parametrize("kind, theta", [("matern52", 1e200), ("matern32", 1e308)])
def test_huge_theta_raises_invalid_hyperparameter(kind, theta):
    # inf * 0 in the kernel and its averages makes W (and at 1e308 R) nan
    fam = CovarianceFamily(kind, theta)
    pts = np.array([[-0.5], [0.5]])
    named = re.escape(kind) + ".*" + re.escape(repr(theta))
    with np.errstate(all="ignore"):
        for call in (imspe, _value_and_gradient):
            with pytest.raises(InvalidHyperparameterError, match=named):
                call(fam, pts)


@pytest.mark.parametrize("kind", ["exponential", "gaussian"])
def test_huge_theta_is_finite_for_exponential_and_gaussian(kind):
    with np.errstate(all="ignore"):
        assert imspe_value(CovarianceFamily(kind, 1e308), [[-0.5], [0.5]]) == 1.5


def test_mspe_profile_rejects_nonfinite_locations():
    profile = mspe_evaluator(CovarianceFamily("gaussian", [1.0]), [-0.5, 0.5])
    with pytest.raises(InvalidDesignError, match="locations must be finite"):
        profile(np.nan)


def test_nonfinite_single_average_is_caught(monkeypatch):
    monkeypatch.setitem(criterion._SINGLE, "gaussian", lambda theta, col: np.full(col.shape, np.nan))
    fam = CovarianceFamily("gaussian", [1.0])
    for call in (imspe, _value_and_gradient):
        with pytest.raises(InvalidHyperparameterError, match=r"\(v has inf or nan"):
            call(fam, np.array([[-0.5], [0.5]]))
