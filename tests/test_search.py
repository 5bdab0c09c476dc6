"""Gradients, local descent, and the deterministic multistart wrapper."""

import math

import numpy as np
import pytest

from imspe import criterion, search
from imspe.search import STOP_REASONS
from imspe import (
    FAMILY_KINDS,
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


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_fd_gradient_prices_a_repeating_neighbour_as_inf(kind):
    # x0 + h lands on x1 and x1 - h on x0: each stencil meets a repeated point
    g = fd_gradient(CovarianceFamily(kind, 2.0), [0.0, 1e-6])
    assert g.tolist() == [math.inf, -math.inf]


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_fd_gradient_one_sided_stencils_mirror_bit_for_bit(kind):
    # the first coordinate sits on a bound, so each stencil prices f0 first
    fam = CovarianceFamily(kind, 2.0)
    upper, lower = fd_gradient(fam, [1.0, 0.2]), fd_gradient(fam, [-1.0, -0.2])
    assert np.all(np.isfinite(upper))
    assert upper.tobytes() == (-lower).tobytes()


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


def _projected_by_fancy_indices(x, g):
    # the earlier implementation, kept as the reference
    pg = np.array(g, dtype=float, copy=True)
    lower = x <= -1.0 + 1e-7
    upper = x >= 1.0 - 1e-7
    pg[lower] = np.minimum(pg[lower], 0.0)
    pg[upper] = np.maximum(pg[upper], 0.0)
    return pg


def test_projected_gradient_is_a_new_array_with_the_earlier_bits():
    rng = np.random.default_rng(5)
    on_bounds = [-1.0, -1.0 + 5e-8, -1.0 + 2e-7, 0.0, -0.0, 1.0 - 2e-7, 1.0 - 5e-8, 1.0]
    for _ in range(50):
        x = np.where(rng.random((4, 6)) < 0.6, rng.choice(on_bounds, size=(4, 6)), rng.uniform(-1, 1, (4, 6)))
        g = rng.choice([-2.0, -0.0, 0.0, 3.0, math.inf, -math.inf, math.nan], size=(4, 6))
        g = np.where(rng.random((4, 6)) < 0.5, g, rng.standard_normal((4, 6)))
        kept = g.copy()
        pg = projected_gradient(x, g)
        assert pg.dtype == np.float64 and not np.shares_memory(pg, g) and not np.shares_memory(pg, x)
        # the same bits, signed zeros and NaN included, on both bounds and inside
        assert pg.tobytes() == _projected_by_fancy_indices(x, g).tobytes()
        assert g.tobytes() == kept.tobytes()
    # lists, and integer gradients
    assert projected_gradient([-1.0, 1.0, 0.0, 1.0], [1, -1, 2, 3]).tolist() == [0.0, 0.0, 2.0, 3.0]
    assert projected_gradient([-1.0, 1.0], [-0.5, 0.5]).tolist() == [-0.5, 0.5]


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
    exact = search._values_and_gradients
    calls = []

    def raised_after_start(family, stack):
        calls.append(None)
        values, grads, units, errors = exact(family, stack)
        return (values if len(calls) == 1 else values + 1e-3), grads, units, errors

    # every trial step rises well above the rounding of f: halving runs until
    # the predicted change g's falls below that rounding, then even the
    # steepest-descent step is refused
    monkeypatch.setattr(search, "_values_and_gradients", raised_after_start)
    stalled = local_search(fam, Design([-0.4, 0.4]))
    assert (stalled.stop_reason, stalled.converged, stalled.iterations) == ("linesearch_stall", False, 1)
    assert stalled.grad_norm > 1e-9

    def poisoned_after(count):
        def values_and_gradients(family, stack):
            calls.append(None)
            values, grads, units, errors = exact(family, stack)
            return values, grads if len(calls) <= count else np.full_like(grads, np.nan), units, errors
        return values_and_gradients

    for count, iterations in ((0, 0), (1, 1)):
        calls.clear()
        monkeypatch.setattr(search, "_values_and_gradients", poisoned_after(count))
        out = local_search(fam, Design([-0.4, 0.4]))
        assert (out.stop_reason, out.converged, out.iterations) == ("nonfinite_gradient", False, iterations)
        assert out.grad_norm == np.inf


def test_local_search_evaluates_each_trial_once(monkeypatch):
    exact = search._values_and_gradients
    seen = []

    def recorded(family, stack):
        seen.extend(points.tobytes() for points in stack)
        return exact(family, stack)

    def forbidden(*args):
        raise AssertionError("the descent priced a point without its gradient")

    monkeypatch.setattr(search, "_values_and_gradients", recorded)
    monkeypatch.setattr(search, "imspe", forbidden)
    monkeypatch.setattr(search, "_objective", forbidden)
    out = local_search(CovarianceFamily("exponential", [10.0]), Design([-0.4, 0.4]))
    assert out.converged
    assert len(seen) > out.iterations
    assert len(set(seen)) == len(seen)


def test_local_search_prices_a_singular_trial_as_inf(monkeypatch):
    exact = search._values_and_gradients
    calls = []

    def singular_first_trial(family, stack):
        calls.append(None)
        if len(calls) == 2:
            error = SingularDesignError("correlation matrix is not positive definite")
            return np.array([math.inf]), np.zeros(stack.shape), np.zeros(1), [error]
        return exact(family, stack)

    monkeypatch.setattr(search, "_values_and_gradients", singular_first_trial)
    out = local_search(CovarianceFamily("exponential", [10.0]), Design([-0.4, 0.4]))
    assert len(calls) > 2
    assert (out.stop_reason, out.converged) == ("grad_tol", True)
    assert out.value == pytest.approx(1.2505061071319, rel=1e-11)


def test_line_search_prices_a_coincident_trial_as_inf(monkeypatch):
    exact = search._values_and_gradients
    raised = []

    def spy(family, stack):
        values, grads, units, errors = exact(family, stack)
        raised.extend(str(error) for error in errors if error is not None)
        if len(stack) == 1 and np.array_equal(stack[0, :, 0], [-0.9, 0.1]):
            # at the start, steepest descent points along +x_0
            grads = np.array([[[-1.0], [0.0]]])
        return values, grads, units, errors

    monkeypatch.setattr(search, "_values_and_gradients", spy)
    fam = CovarianceFamily("gaussian", [1.0])
    x = np.array([-0.9, 0.1])
    f = imspe_value(fam, x)
    # the full step moves point 0 onto point 1; half of it is accepted
    out = search._descend(fam, x.reshape(1, 2, 1), SearchConfig(max_iterations=1))[0]
    assert raised == [
        "correlation matrix is not positive definite: "
        "2-th leading minor of the array is not positive definite"
    ]
    assert (out.stop_reason, out.iterations) == ("max_iterations", 1)
    assert np.array_equal(out.design.points[:, 0], [-0.4, 0.1])
    assert out.value < f


def test_line_search_stops_after_its_cap_of_priced_trials(monkeypatch):
    # a start at x_0 = 0.0 (x_0 <= 0.0 marks it) sees f = 1 at the start and
    # 2 at every trial, a constant gradient and a 0.0 rounding unit, so each
    # trial is refused and halved, and the halved steps stay resolvable; the
    # other start descends the quadratic |x - c|^2 to its minimum
    refusing, converging = np.array([[0.0], [0.5]]), np.array([[0.8], [-0.4]])
    centre = np.array([[0.6], [-0.2]])
    priced = []

    def fake(family, stack):
        values, grads = np.empty(len(stack)), np.empty(stack.shape)
        for k, points in enumerate(stack):
            if points[0, 0] <= 0.0:
                priced.append(points.tobytes())
                values[k], grads[k] = (1.0 if np.array_equal(points, refusing) else 2.0), 1.0
            else:
                values[k], grads[k] = ((points - centre) ** 2).sum(), 2.0 * (points - centre)
        return values, grads, np.zeros(len(stack)), [None] * len(stack)

    monkeypatch.setattr(search, "_values_and_gradients", fake)
    fam = CovarianceFamily("matern52", [2.0])
    for starts, at in (([refusing], 0), ([refusing, converging], 0), ([converging, refusing], 1)):
        priced.clear()
        outcomes = search._descend(fam, np.stack(starts), SearchConfig())
        stalled = outcomes[at]
        assert (stalled.stop_reason, stalled.iterations) == ("linesearch_stall", 1)
        assert stalled.design.points.tobytes() == refusing.tobytes()
        # the start itself, then exactly the cap of distinct trials
        assert len(priced) == 1 + search._LINESEARCH_CAP
        assert len(set(priced)) == len(priced)
        if len(starts) == 2:
            assert {o.stop_reason for o in outcomes} == {"linesearch_stall", "grad_tol"}


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
    # a bool is a number, but True would silently mean one start, seed 1
    # or a tolerance of 1.0
    for count in (0, 2.5, math.nan, math.inf, True):
        for name in ("starts", "max_iterations"):
            with pytest.raises(ValueError, match=name):
                SearchConfig(**{name: count})
    for tol in (-1.0, 0.0, math.inf, math.nan, True, np.True_, "1e-9"):
        with pytest.raises(ValueError, match="optimality_tol"):
            SearchConfig(optimality_tol=tol)
    # None would draw fresh OS entropy and break determinism
    for seed in (None, -1, 1.5, True):
        with pytest.raises(ValueError, match="seed"):
            SearchConfig(seed=seed)
    with pytest.raises(ValueError):
        multistart_search(CovarianceFamily("gaussian", [1.0]), 0, 1)


def test_multistart_rejects_non_integer_sizes_before_drawing_starts(monkeypatch):
    drawn = []
    monkeypatch.setattr(search, "_generate_starts", lambda *args: drawn.append(args) or [])
    fam = CovarianceFamily("gaussian", [1.0])
    for n, d in ((2.5, 1), (3, 1.0), (True, 1)):
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


def _starts(n, d, config):
    return search._generate_starts(n, d, config.starts, np.random.default_rng(config.seed))


def _fields(outcome):
    return (outcome.design.points.tobytes(), outcome.value.hex(), outcome.iterations,
            outcome.grad_norm.hex(), outcome.stop_reason)


@pytest.mark.parametrize("kind,theta,n,d,config", [
    ("exponential", [10.0], 2, 1, SearchConfig(starts=32, seed=0)),
    ("matern32", [3.0], 3, 2, SearchConfig(starts=4, seed=0)),
])
def test_multistart_outcomes_are_the_one_start_runs(kind, theta, n, d, config, monkeypatch):
    _assert_lockstep_is_alone(CovarianceFamily(kind, theta), n, d, config, _starts(n, d, config), monkeypatch)


def _reference_descent(family, points, config):
    """One start's descent as a plain loop, pricing one point per call: the lockstep driver's reference."""
    def price(x):
        values, grads, units, errors = search._values_and_gradients(family, x.reshape((1,) + points.shape))
        if errors[0] is not None:
            return math.inf, None, None
        return float(values[0]), grads[0].ravel(), float(units[0])

    x = points.ravel()
    f, g, unit = price(x)
    if g is None:
        return None
    H, iterations = None, 0
    while True:
        if not np.isfinite(g).all():
            stop, grad_norm = "nonfinite_gradient", math.inf
            break
        pg = projected_gradient(x, g)
        grad_norm = float(abs(pg).max())
        if grad_norm <= config.optimality_tol:
            stop = "grad_tol"
            break
        if iterations == config.max_iterations:
            stop = "max_iterations"
            break
        iterations += 1
        if H is not None:
            direction = -projected_gradient(x, H @ g)
            if float(direction @ g) >= 0.0 or not direction.any():
                H = None
        if H is None:
            direction = -pg
        rounding, scale, accepted = search._ROUNDING_UNITS * unit, 1.0, None
        for _ in range(search._LINESEARCH_CAP):
            candidate = np.minimum(np.maximum(x + scale * direction, -1.0), 1.0)
            step = candidate - x
            if not step.any():
                break
            slope = float(g @ step)
            f_new, g_new, unit_new = price(candidate)
            if f_new <= f + search._ARMIJO * slope:
                accepted = candidate, f_new, g_new, unit_new
                break
            if abs(f_new - f) <= rounding:
                slope_new = float(g_new @ step)
                if search._WOLFE_SIGMA * slope <= slope_new <= (2.0 * search._WOLFE_DELTA - 1.0) * slope:
                    accepted = candidate, f_new, g_new, unit_new
                    break
            if abs(slope) <= rounding:
                break
            scale *= 0.5
        if accepted is None:
            if H is None:
                stop = "linesearch_stall"
                break
            H = None
            continue
        x_new, f_new, g_new, unit_new = accepted
        s, y = x_new - x, g_new - g
        sy = float(s @ y) if np.isfinite(g_new).all() else math.nan
        if sy > search._CURVATURE_FLOOR * (math.sqrt(float(s @ s)) * math.sqrt(float(y @ y))):
            H = np.eye(x.size) if H is None else H
            rho_inv, Hy = 1.0 / sy, H @ y
            H = (H - rho_inv * (s[:, None] * Hy + Hy[:, None] * s)
                 + (rho_inv * rho_inv * float(y @ Hy) + rho_inv) * (s[:, None] * s))
        x, f, g, unit = x_new, f_new, g_new, unit_new
    return search.LocalSearchResult(Design(x.reshape(points.shape)), f, iterations, grad_norm, stop)


def _assert_lockstep_is_alone(fam, n, d, config, starts, monkeypatch):
    alone = []
    for start in starts:
        try:
            alone.append(local_search(fam, start, config))
        except SingularDesignError:
            pass
    reference = [_reference_descent(fam, start, config) for start in starts]
    assert [_fields(o) for o in alone] == [_fields(o) for o in reference if o is not None]

    def forbidden(*args):
        raise AssertionError("the multistart ran a start on its own")

    # the multistart runs all of its starts in lockstep, not one at a time
    monkeypatch.setattr(search, "_generate_starts", lambda *args: starts)
    monkeypatch.setattr(search, "local_search", forbidden)
    res = multistart_search(fam, n, d, config)
    assert [_fields(o) for o in res.outcomes] == [_fields(o) for o in alone]
    return res


def test_multistart_outcomes_are_the_one_start_runs_at_every_stop_reason(monkeypatch):
    config = SearchConfig(starts=10, seed=0, max_iterations=9)
    starts = _starts(3, 1, config)
    starts.insert(3, np.full((3, 1), 0.25))  # coincident: a singular start
    exact = search._values_and_gradients

    def seam(family, stack):
        # a first point past 0.8 poisons the gradient; below -0.7 the
        # gradient points uphill, so every trial from there is refused
        values, grads, units, errors = exact(family, stack)
        for k, (points, error) in enumerate(zip(stack, errors)):
            if error is None:
                if points[0, 0] > 0.8:
                    grads[k] = np.nan
                elif points[0, 0] < -0.7:
                    grads[k] = -grads[k]
        return values, grads, units, errors

    monkeypatch.setattr(search, "_values_and_gradients", seam)
    res = _assert_lockstep_is_alone(CovarianceFamily("matern52", [2.0]), 3, 1, config, starts, monkeypatch)
    assert len(res.outcomes) == len(starts) - 1
    assert {o.stop_reason for o in res.outcomes} == set(STOP_REASONS)


def test_multistart_assembles_once_per_round(monkeypatch):
    fam = CovarianceFamily("exponential", [10.0])
    config = SearchConfig(starts=32, seed=0)
    pair = criterion._PAIR["exponential"]
    calls = []
    monkeypatch.setitem(criterion._PAIR, "exponential", lambda *args: calls.append(None) or pair(*args))
    evaluations = []
    for start in _starts(2, 1, config):
        calls.clear()
        local_search(fam, start, config)
        evaluations.append(len(calls))
    calls.clear()
    multistart_search(fam, 2, 1, config)
    # one round per evaluation of the longest start, which the shorter ones share
    assert min(evaluations) < max(evaluations) < sum(evaluations)
    assert len(calls) == max(evaluations)


def test_multistart_drops_a_singular_start_alone(monkeypatch):
    fam = CovarianceFamily("matern52", [2.0])
    config = SearchConfig(starts=6, seed=3)
    starts = _starts(3, 1, config)
    before = multistart_search(fam, 3, 1, config)
    singular = np.full((3, 1), 0.25)
    monkeypatch.setattr(search, "_generate_starts", lambda *args: starts[:2] + [singular] + starts[2:])
    exact = search._values_and_gradients
    batches = []

    def spy(family, stack):
        batches.append([points.tobytes() for points in stack])
        return exact(family, stack)

    monkeypatch.setattr(search, "_values_and_gradients", spy)
    after = multistart_search(fam, 3, 1, config)
    assert [_fields(o) for o in after.outcomes] == [_fields(o) for o in before.outcomes]
    assert [(dsn.points.tobytes(), value.hex()) for dsn, value in after.local_minima] == [
        (dsn.points.tobytes(), value.hex()) for dsn, value in before.local_minima]
    # the singular start is priced once, in the first round, with every start
    assert batches[0][2] == singular.tobytes() and len(batches[0]) == 7
    assert all(singular.tobytes() not in batch for batch in batches[1:])
