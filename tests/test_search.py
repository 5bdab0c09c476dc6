"""Gradients, local descent, and the deterministic multistart wrapper."""

import math

import numpy as np
import pytest

from imspe import search
from imspe.search import STOP_REASONS
from imspe import (
    CovarianceFamily,
    Design,
    InvalidHyperparameterError,
    SearchConfig,
    SingularDesignError,
    fd_gradient,
    imspe_value,
    local_search,
    multistart_search,
    projected_gradient,
)


def richardson_gradient(family, points, h=1e-4):
    """Independent oracle: central differences extrapolated over h and h/2."""
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    flat = pts.ravel().copy()

    def central(step):
        grad = np.empty(flat.size)
        for i in range(flat.size):
            hi = flat.copy()
            lo = flat.copy()
            hi[i] += step
            lo[i] -= step
            grad[i] = (
                imspe_value(family, hi.reshape(pts.shape))
                - imspe_value(family, lo.reshape(pts.shape))
            ) / (2.0 * step)
        return grad

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def test_fd_gradient_matches_richardson_oracle():
    rng = np.random.default_rng(5)
    for kind in ("gaussian", "matern32", "matern52", "exponential"):
        fam = CovarianceFamily(kind, [1.0])
        for _ in range(3):
            pts = np.sort(rng.uniform(-0.9, 0.9, size=3))
            while np.min(np.diff(pts)) < 0.1:
                pts = np.sort(rng.uniform(-0.9, 0.9, size=3))
            g = fd_gradient(fam, Design(pts))
            oracle = richardson_gradient(fam, pts)
            assert np.max(np.abs(g - oracle)) <= 1e-6


def test_fd_gradient_antisymmetric_for_symmetric_design():
    fam = CovarianceFamily("gaussian", [1.0])
    g = fd_gradient(fam, Design([-0.55, 0.55]))
    assert g[0] == pytest.approx(-g[1], abs=1e-9)


def test_fd_gradient_one_sided_at_bounds():
    fam = CovarianceFamily("matern32", [1.0])
    pts = np.array([-1.0, 0.2, 1.0])
    g = fd_gradient(fam, Design(pts))
    assert np.all(np.isfinite(g))

    def value_with(i, x):
        shifted = pts.copy()
        shifted[i] = x
        return imspe_value(fam, shifted)

    # interior coordinate against a Richardson central difference
    h = 1e-4
    central = lambda step: (value_with(1, 0.2 + step) - value_with(1, 0.2 - step)) / (2 * step)
    oracle_mid = (4.0 * central(h / 2.0) - central(h)) / 3.0
    assert g[1] == pytest.approx(oracle_mid, abs=1e-8)
    # boundary coordinates against inward one-sided slopes
    slope_hi = (value_with(2, 1.0) - value_with(2, 1.0 - 1e-7)) / 1e-7
    slope_lo = (value_with(0, -1.0 + 1e-7) - value_with(0, -1.0)) / 1e-7
    assert g[2] == pytest.approx(slope_hi, abs=1e-4)
    assert g[0] == pytest.approx(slope_lo, abs=1e-4)


def test_gradient_nearly_zero_at_reference_optimum():
    fam = CovarianceFamily("exponential", [10.0])
    x = 0.428843076502973738580913342642835688
    g = fd_gradient(fam, Design([-x, x]))
    assert np.max(np.abs(g)) <= 1e-6


def test_projected_gradient_zeroes_outward_components():
    x = np.array([-1.0, 0.0, 1.0])
    g = np.array([0.5, 0.5, 0.5])
    pg = projected_gradient(x, g)
    # at the lower bound a positive (outward-blocking) component is dropped
    assert pg[0] == 0.0
    assert pg[1] == 0.5
    assert pg[2] == 0.5
    pg2 = projected_gradient(x, -g)
    assert pg2[0] == -0.5
    assert pg2[2] == 0.0


def test_local_search_recovers_two_point_optimum():
    fam = CovarianceFamily("exponential", [10.0])
    out = local_search(fam, Design([-0.4, 0.4]))
    assert out.converged
    x = np.sort(out.design.points[:, 0])
    assert np.max(np.abs(x - [-0.42884307650, 0.42884307650])) <= 5e-7
    assert out.value == pytest.approx(1.2505061071319, rel=1e-11)


def test_local_search_reaches_every_stop_reason(monkeypatch):
    fam = CovarianceFamily("exponential", [10.0])
    assert local_search(fam, Design([-0.4, 0.4])).stop_reason == "grad_tol"
    capped = local_search(fam, Design([-0.4, 0.4]), SearchConfig(max_iterations=1))
    assert (capped.stop_reason, capped.converged, capped.iterations) == ("max_iterations", False, 1)
    exact = search._value_and_gradient
    calls = []

    def raised_after_start(family, points):
        calls.append(None)
        value, grad, unit = exact(family, points)
        return (value if len(calls) == 1 else value + 1e-3), grad, unit

    # every trial step rises well above the rounding of f: halving runs until
    # the predicted change g's falls below that rounding, then even the
    # steepest-descent step is refused
    monkeypatch.setattr(search, "_value_and_gradient", raised_after_start)
    stalled = local_search(fam, Design([-0.4, 0.4]))
    assert (stalled.stop_reason, stalled.converged, stalled.iterations) == ("linesearch_stall", False, 1)
    assert stalled.grad_norm > 1e-9

    def poisoned_after(count):
        def value_and_gradient(family, points):
            calls.append(None)
            value, grad, unit = exact(family, points)
            return value, grad if len(calls) <= count else np.full_like(grad, np.nan), unit
        return value_and_gradient

    for count, iterations in ((0, 0), (1, 1)):
        calls.clear()
        monkeypatch.setattr(search, "_value_and_gradient", poisoned_after(count))
        out = local_search(fam, Design([-0.4, 0.4]))
        assert (out.stop_reason, out.converged, out.iterations) == ("nonfinite_gradient", False, iterations)
        assert out.grad_norm == np.inf


def test_local_search_evaluates_each_trial_once(monkeypatch):
    exact = search._value_and_gradient
    seen = []

    def recorded(family, points):
        seen.append(points.tobytes())
        return exact(family, points)

    def forbidden(*args):
        raise AssertionError("the descent priced a point without its gradient")

    monkeypatch.setattr(search, "_value_and_gradient", recorded)
    monkeypatch.setattr(search, "imspe", forbidden)
    monkeypatch.setattr(search, "_objective", forbidden)
    out = local_search(CovarianceFamily("exponential", [10.0]), Design([-0.4, 0.4]))
    assert out.converged
    assert len(seen) > out.iterations
    assert len(set(seen)) == len(seen)


def test_local_search_prices_a_singular_trial_as_inf(monkeypatch):
    exact = search._value_and_gradient
    calls = []

    def singular_first_trial(family, points):
        calls.append(None)
        if len(calls) == 2:
            raise SingularDesignError("correlation matrix is not positive definite")
        return exact(family, points)

    monkeypatch.setattr(search, "_value_and_gradient", singular_first_trial)
    out = local_search(CovarianceFamily("exponential", [10.0]), Design([-0.4, 0.4]))
    assert len(calls) > 2
    assert (out.stop_reason, out.converged) == ("grad_tol", True)
    assert out.value == pytest.approx(1.2505061071319, rel=1e-11)


def test_line_search_prices_a_coincident_trial_as_inf(monkeypatch):
    exact = search._value_and_gradient
    raised = []

    def spy(family, points):
        try:
            return exact(family, points)
        except SingularDesignError as exc:
            raised.append(str(exc))
            raise

    monkeypatch.setattr(search, "_value_and_gradient", spy)
    fam = CovarianceFamily("gaussian", [1.0])
    x = np.array([-0.9, 0.1])
    f, g, unit = search._evaluate(fam, x, (2, 1))
    # the full step moves point 0 onto point 1; half of it is accepted
    accepted = search._line_search(fam, (2, 1), x, f, g, unit, np.array([1.0, 0.0]))
    assert raised == [
        "correlation matrix is not positive definite: "
        "2-th leading minor of the array is not positive definite"
    ]
    assert np.array_equal(accepted[0], [-0.4, 0.1])
    assert accepted[1] < f


def test_local_search_at_optimum_stays_put():
    fam = CovarianceFamily("gaussian", [1.0])
    start = Design([-0.5479848421867, 0.5479848421867])
    out = local_search(fam, start)
    assert out.converged
    assert out.iterations <= 3
    assert np.max(np.abs(out.design.points - start.points)) <= 1e-5


def test_local_search_rejects_singular_start():
    fam = CovarianceFamily("gaussian", [1.0])
    with pytest.raises(SingularDesignError):
        local_search(fam, Design([0.3, 0.3]))


def test_multistart_eight_points_in_two_dimensions():
    fam = CovarianceFamily("matern52", [2.0])
    res = multistart_search(fam, 8, 2, SearchConfig(starts=4, seed=0))
    assert res.best_imspe == pytest.approx(0.12109787975876996, rel=1e-12, abs=0.0)
    assert res.best_imspe == imspe_value(fam, res.best_design)
    assert len(res.outcomes) == 4
    assert all(o.stop_reason in STOP_REASONS for o in res.outcomes)
    assert res.starts_converged == sum(o.stop_reason == "grad_tol" for o in res.outcomes)


@pytest.mark.parametrize("kind,theta", [
    ("exponential", [3.0]), ("gaussian", [1.0, 4.0]), ("matern32", [3.0]), ("matern52", [1.0, 4.0]),
])
def test_multistart_three_points_in_two_dimensions(kind, theta):
    fam = CovarianceFamily(kind, theta)
    res = multistart_search(fam, 3, 2, SearchConfig(starts=4, seed=0))
    assert res.best_design is not None
    assert res.best_imspe == imspe_value(fam, res.best_design)
    assert all(o.stop_reason in STOP_REASONS for o in res.outcomes)
    # stationary by the finite-difference oracle too
    x = res.best_design.points.ravel()
    assert np.max(np.abs(projected_gradient(x, fd_gradient(fam, res.best_design)))) <= 1e-6


def test_multistart_single_point_gaussian():
    fam = CovarianceFamily("gaussian", [1.0])
    res = multistart_search(fam, 1, 1, SearchConfig(starts=8, seed=0))
    assert res.best_design is not None
    assert abs(res.best_design.points[0, 0]) <= 1e-8
    assert res.best_imspe == pytest.approx(float("0.50635173437514594921"), rel=1e-12)
    assert res.starts_converged >= 1
    assert res.iterations_total >= 0


def test_multistart_two_point_exponential():
    fam = CovarianceFamily("exponential", [1.0])
    res = multistart_search(fam, 2, 1, SearchConfig(starts=8, seed=0))
    x = np.sort(res.best_design.points[:, 0])
    assert np.max(np.abs(x - [-0.56261348448, 0.56261348448])) <= 5e-7
    assert res.best_imspe == pytest.approx(0.358372318581, rel=1e-10)


def test_multistart_matern_cells_symmetric():
    # two-point optima are symmetric about the origin for these kernels
    for kind, theta in (("matern32", 1.0), ("matern52", 10.0)):
        fam = CovarianceFamily(kind, [theta])
        res = multistart_search(fam, 2, 1, SearchConfig(starts=8, seed=2))
        x = np.sort(res.best_design.points[:, 0])
        assert abs(x[0] + x[1]) <= 1e-5
        # returned value is exactly the criterion at the returned design
        assert res.best_imspe == imspe_value(fam, res.best_design)


def test_best_value_bounds_all_reported_minima():
    fam = CovarianceFamily("matern32", [5.0])
    res = multistart_search(fam, 3, 1, SearchConfig(starts=12, seed=4))
    assert res.best_design is not None
    values = [value for _, value in res.local_minima]
    assert res.best_imspe == min(values)
    assert all(res.best_imspe <= v for v in values)
    # representatives are canonically sorted and pairwise distinct
    for dsn, _ in res.local_minima:
        pts = dsn.points[:, 0]
        assert np.all(np.diff(pts) >= 0.0)


def test_multistart_deterministic_and_seed_insensitive_optimum():
    fam = CovarianceFamily("gaussian", [10.0])
    cfg = SearchConfig(starts=8, seed=9)
    first = multistart_search(fam, 2, 1, cfg)
    second = multistart_search(fam, 2, 1, cfg)
    assert first.best_imspe == second.best_imspe
    assert np.array_equal(first.best_design.points, second.best_design.points)
    assert first.starts_converged == second.starts_converged
    assert first.iterations_total == second.iterations_total
    other_seed = multistart_search(fam, 2, 1, SearchConfig(starts=8, seed=10))
    assert np.max(np.abs(other_seed.best_design.points - first.best_design.points)) <= 1e-6


def test_multistart_zero_convergence_returns_none():
    fam = CovarianceFamily("matern32", [1.0])
    cfg = SearchConfig(starts=3, max_iterations=2, optimality_tol=1e-18)
    res = multistart_search(fam, 2, 1, cfg)
    assert res.starts_converged == 0
    assert res.best_design is None
    assert res.best_imspe is None
    assert res.local_minima == ()


def test_best_design_points_distinct():
    fam = CovarianceFamily("matern52", [1.0])
    res = multistart_search(fam, 3, 1, SearchConfig(starts=6, seed=1))
    pts = np.sort(res.best_design.points[:, 0])
    assert np.min(np.diff(pts)) > 1e-4


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(starts=0)
    for count in (0, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            SearchConfig(max_iterations=count)
    for tol in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            SearchConfig(optimality_tol=tol)
    # None would draw fresh OS entropy and break determinism
    for seed in (None, -1, 1.5):
        with pytest.raises(ValueError, match="seed"):
            SearchConfig(seed=seed)
    with pytest.raises(ValueError):
        multistart_search(CovarianceFamily("gaussian", [1.0]), 0, 1)


def test_multistart_rejects_non_integer_sizes_before_drawing_starts(monkeypatch):
    drawn = []
    monkeypatch.setattr(search, "_generate_starts", lambda *args: drawn.append(args) or [])
    fam = CovarianceFamily("gaussian", [1.0])
    for n, d in ((2.5, 1), (3, 1.0)):
        with pytest.raises(ValueError, match="need n >= 1 points and d >= 1 dimensions"):
            multistart_search(fam, n, d)
    assert drawn == []


def test_multistart_checks_theta_count_before_drawing_starts(monkeypatch):
    drawn = []

    def no_starts(*args):
        drawn.append(args)
        return []

    monkeypatch.setattr(search, "_generate_starts", no_starts)
    with pytest.raises(InvalidHyperparameterError):
        multistart_search(CovarianceFamily("gaussian", [1.0, 2.0]), 3, 3)
    assert drawn == []
