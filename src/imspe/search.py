"""Multistart projected-BFGS minimization of the design criterion over the unit box.

Coordinates live in [-1, 1]; the only constraints are the box bounds, so
projection is a clip. The descent prices each point it tries by one
evaluation of the criterion and its exact gradient, from one assembly and
Cholesky factor (the adjoint in ``criterion._values_and_gradients``);
``fd_gradient`` stays as the finite-difference oracle the tests check it
against.

The starts run in lockstep. Each start's descent is a generator
(``_descent``, with ``_line_search`` as its sub-generator) that keeps its
own iterate, value, gradient, quasi-Newton matrix and step, yields each
point it wants priced and is sent back the value, gradient and rounding
unit, or the SingularDesignError of a singular point. One driver
(``_lockstep``) gathers the pending point of every live start and prices
them all with one criterion call per round, so a multistart makes as
many calls as its longest start makes evaluations. ``local_search`` is
the same driver with one start, and a start's outcome has the same bits
either way. A start converges when the projected gradient (gradient with
outward components zeroed on active bounds) has infinity norm at or below
the optimality tolerance. Converged optima are deduplicated by clustering
canonically sorted designs.

Everything is deterministic for a given seed: starting designs come from a
seeded generator and the descent itself contains no randomness, so repeated
searches return bit-identical results.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# imspe, as_design, fd_gradient and local_search are looked up as attributes
# of this module, where bench/spans.py installs its tracing wrappers
from .criterion import _sort_rows, _values_and_gradients, imspe
from .errors import SingularDesignError
from .kernels import Design, as_design

_ARMIJO = 1e-4
# approximate Wolfe conditions (Hager & Zhang, SIAM J. Optim. 16(1), 2005):
# sigma g's <= g_new's <= (2 delta - 1) g's
_WOLFE_SIGMA = 0.9
_WOLFE_DELTA = 0.1
# criterion differences within this many rounding units (machine epsilon on
# the scale of the criterion's terms, see criterion._values_and_gradients)
# are rounding
_ROUNDING_UNITS = 4
_LINESEARCH_CAP = 60
_CURVATURE_FLOOR = 1e-12
# coordinates within this distance of a bound count as on it
_FEASIBILITY_TOL = 1e-7
_FD_STEP = 1e-6
# converged designs within this infinity-norm distance count as one optimum
_CLUSTER_TOL = 1e-5


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the local descent and the multistart wrapper."""

    starts: int = 32
    optimality_tol: float = 1e-9
    max_iterations: int = 500
    seed: int = 0

    def __post_init__(self):
        for name in ("starts", "max_iterations"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1")
        if not 0.0 < self.optimality_tol < math.inf:
            raise ValueError("optimality_tol must be finite and positive")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


DEFAULT_CONFIG = SearchConfig()


STOP_REASONS = ("grad_tol", "linesearch_stall", "max_iterations", "nonfinite_gradient")


class LocalSearchResult(NamedTuple):
    """One descent's end point; ``stop_reason`` is one of ``STOP_REASONS``.

    Only ``grad_tol`` is converged. ``linesearch_stall`` means that even a
    steepest-descent step could not be accepted: f cannot resolve it and
    the gradient along it does not meet the approximate Wolfe conditions.
    """

    design: Design
    value: float
    iterations: int
    grad_norm: float
    stop_reason: str

    @property
    def converged(self):
        return self.stop_reason == "grad_tol"


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Multistart outcome; ``local_minima`` holds one (design, value) per cluster, best first.

    ``outcomes`` holds the LocalSearchResult of every start, in start order;
    a start whose correlation matrix is singular has none. The other
    fields derive from these two; with no converged start, ``best_design``
    and ``best_imspe`` are None.
    """

    local_minima: tuple
    outcomes: tuple

    @property
    def best_design(self):
        return self.local_minima[0][0] if self.local_minima else None

    @property
    def best_imspe(self):
        return self.local_minima[0][1] if self.local_minima else None

    @property
    def starts_converged(self):
        return sum(o.converged for o in self.outcomes)

    @property
    def iterations_total(self):
        return sum(o.iterations for o in self.outcomes)


def _objective(family, flat, shape):
    try:
        return imspe(family, flat.reshape(shape)).value
    except SingularDesignError:
        return math.inf


def fd_gradient(family, design):
    """Finite-difference gradient of the criterion in every coordinate.

    The oracle the tests hold the search's exact gradient to. Central
    differences with step 1e-6 in the interior; second-order one-sided
    stencils when a coordinate sits within one step of its bound, so
    evaluation never leaves the box. Returns a flat gradient, point-major.
    """
    dsn = as_design(design)
    shape = dsn.points.shape
    x = dsn.points.ravel().copy()
    grad = np.empty(x.size)
    f0 = None

    def at(i, offset):
        shifted = x.copy()
        shifted[i] += offset
        return _objective(family, shifted, shape)

    h = _FD_STEP
    for i in range(x.size):
        if x[i] + h <= 1.0 and x[i] - h >= -1.0:
            grad[i] = (at(i, h) - at(i, -h)) / (2.0 * h)
        elif x[i] + h > 1.0:
            if f0 is None:
                f0 = _objective(family, x, shape)
            grad[i] = (3.0 * f0 - 4.0 * at(i, -h) + at(i, -2.0 * h)) / (2.0 * h)
        else:
            if f0 is None:
                f0 = _objective(family, x, shape)
            grad[i] = -(3.0 * f0 - 4.0 * at(i, h) + at(i, 2.0 * h)) / (2.0 * h)
    return grad


def projected_gradient(x, g):
    """Gradient with outward components dropped on active bounds.

    On the lower bound only negative components survive; on the upper bound
    only positive ones. Its infinity norm is the stationarity measure for the
    box-constrained problem.
    """
    pg = np.array(g, dtype=float, copy=True)
    lower = x <= -1.0 + _FEASIBILITY_TOL
    upper = x >= 1.0 - _FEASIBILITY_TOL
    pg[lower] = np.minimum(pg[lower], 0.0)
    pg[upper] = np.maximum(pg[upper], 0.0)
    return pg


def local_search(family, start, config=DEFAULT_CONFIG):
    """Projected-BFGS descent from one starting design.

    The one-start run of the lockstep driver ``multistart_search`` runs for
    all of its starts, so a start's outcome is the same bits either way.
    Returns a LocalSearchResult; ``converged`` means the projected-gradient
    infinity norm reached ``config.optimality_tol``. Each trial step costs
    one evaluation of the criterion and its gradient, which an accepted step
    keeps. A step passes on Armijo sufficient decrease; where f changes by no
    more than its rounding (a few epsilon on the scale of the terms it is
    summed from), it passes on the approximate Wolfe conditions instead, and
    halving stops once the predicted change g's falls below that rounding.
    Trial points with a singular correlation matrix price as +inf, so the
    backtracking shrinks past them instead of crashing.
    """
    points = as_design(start).points
    outcome = _lockstep(family, points.shape, [_descent(points, config)])[0]
    if isinstance(outcome, SingularDesignError):
        raise SingularDesignError("starting design has a singular correlation matrix") from outcome
    return outcome


def _lockstep(family, shape, runs):
    """Run generators that price flat trial points of ``shape`` in lockstep; their return values, in order.

    Each run yields one trial at a time and is sent back (f, flat gradient,
    rounding unit), or the SingularDesignError the trial raised. Each round
    prices the pending trial of every live run in one
    ``_values_and_gradients`` call on their (S, n, d) stack, so a
    multistart makes as many calls as its longest start makes evaluations.
    """
    results = [None] * len(runs)
    pending = {}

    def advance(i, priced):
        try:
            pending[i] = runs[i].send(priced)
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(runs)):
        advance(i, None)
    while pending:
        live = list(pending)
        stack = np.stack([pending.pop(i).reshape(shape) for i in live])
        for i, priced in zip(live, _values_and_gradients(family, stack)):
            if not isinstance(priced, SingularDesignError):
                value, grad, unit = priced
                priced = value, grad.ravel(), unit
            advance(i, priced)
    return results


def _descent(points, config):
    """The descent of ``local_search`` from (n, d) points, as a run of ``_lockstep``.

    Yields the start, then each trial of each line search. Returns the
    LocalSearchResult, or the SingularDesignError of a singular start.
    """
    shape = points.shape
    x = points.ravel()
    priced = yield x
    if isinstance(priced, SingularDesignError):
        return priced
    f, g, unit = priced
    H = None  # the identity, until the first BFGS update is accepted
    iterations = 0
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
                # quasi-Newton model broke down; restart from steepest descent
                H = None
        if H is None:
            direction = -pg

        accepted = yield from _line_search(x, f, g, _ROUNDING_UNITS * unit, direction)
        if accepted is None:
            if H is None:
                stop = "linesearch_stall"
                break
            # stale quasi-Newton model; retry this iterate from steepest descent
            H = None
            continue
        x_new, f_new, g_new, unit_new = accepted
        s = x_new - x
        y = g_new - g
        # a non-finite g_new leaves H as it is, and the next pass stops on it
        sy = float(s @ y) if np.isfinite(g_new).all() else math.nan
        if sy > _CURVATURE_FLOOR * (math.sqrt(float(s @ s)) * math.sqrt(float(y @ y))):
            if H is None:
                H = np.eye(x.size)
            rho_inv = 1.0 / sy
            Hy = H @ y
            yHy = float(y @ Hy)
            H = (
                H
                - rho_inv * (s[:, None] * Hy + Hy[:, None] * s)
                + (rho_inv * rho_inv * yHy + rho_inv) * (s[:, None] * s)
            )
        x, f, g, unit = x_new, f_new, g_new, unit_new

    return LocalSearchResult(Design(x.reshape(shape)), f, iterations, grad_norm, stop)


def _line_search(x, f, g, rounding, direction):
    """Backtrack along ``direction`` from x, where f is rounded at ``rounding``.

    A sub-generator of ``_descent``: yields each trial, priced +inf where R
    is singular. Returns (x_new, f_new, g_new, unit_new) on Armijo decrease
    or on the approximate Wolfe conditions, or None on a stall.
    """
    step_scale = 1.0
    for _ in range(_LINESEARCH_CAP):
        candidate = np.minimum(np.maximum(x + step_scale * direction, -1.0), 1.0)
        step = candidate - x
        if not step.any():
            return None
        slope = float(g @ step)
        priced = yield candidate
        if isinstance(priced, SingularDesignError):
            f_cand = math.inf
        else:
            f_cand, g_cand, unit_cand = priced
        if f_cand <= f + _ARMIJO * slope:
            return candidate, f_cand, g_cand, unit_cand
        if abs(f_cand - f) <= rounding:
            slope_cand = float(g_cand @ step)
            if _WOLFE_SIGMA * slope <= slope_cand <= (2.0 * _WOLFE_DELTA - 1.0) * slope:
                return candidate, f_cand, g_cand, unit_cand
        if abs(slope) <= rounding:
            # a shorter step would change f by less than it can resolve
            return None
        step_scale *= 0.5
    return None


def _generate_starts(n, d, count, rng):
    base = np.repeat(np.linspace(-1.0, 1.0, n + 2)[1:-1][:, None], d, axis=1)
    starts = [base]
    for _ in range((count - 1) // 3):
        starts.append(np.clip(base + rng.normal(0.0, 0.15, size=(n, d)), -1.0, 1.0))
    while len(starts) < count:
        starts.append(rng.uniform(-1.0, 1.0, size=(n, d)))
    return starts


def multistart_search(family, n, d=1, config=DEFAULT_CONFIG):
    """Deterministic multistart over the box, returning the clustered optima.

    Start 0 is the symmetric equispaced design; roughly a third of the
    remaining starts are normal perturbations of it, the rest uniform draws,
    all from one seeded generator. Only converged starts count. If none
    converge, ``best_design`` and ``best_imspe`` are None and callers decide
    how loudly to fail. Bad n, d or theta count raise before any start.
    """
    if not all(isinstance(k, numbers.Integral) and k >= 1 for k in (n, d)):
        raise ValueError("need n >= 1 points and d >= 1 dimensions")
    family.theta_for_dimension(d)
    rng = np.random.default_rng(config.seed)
    runs = [_descent(start, config) for start in _generate_starts(n, d, config.starts, rng)]
    outcomes = [
        o for o in _lockstep(family, (n, d), runs) if not isinstance(o, SingularDesignError)
    ]
    # value and gradient ties happen where the criterion is flat to the last
    # ulp; within such a plateau every member is numerically equivalent, so
    # prefer the most stationary one, then the smallest-magnitude coordinates
    ranked = sorted(
        ((_sort_rows(o.design.points)[0], o.value, o.grad_norm) for o in outcomes if o.converged),
        key=lambda item: (
            item[1],
            item[2],
            float(np.max(np.abs(item[0]))),
            tuple(item[0].ravel()),
        ),
    )
    clusters = []
    for pts, value, _ in ranked:
        if any(np.max(np.abs(pts - kept)) <= _CLUSTER_TOL for kept, _ in clusters):
            continue
        clusters.append((pts, value))
    return SearchResult(tuple((Design(pts), value) for pts, value in clusters), tuple(outcomes))


__all__ = [
    "SearchConfig",
    "DEFAULT_CONFIG",
    "LocalSearchResult",
    "STOP_REASONS",
    "SearchResult",
    "fd_gradient",
    "projected_gradient",
    "local_search",
    "multistart_search",
]
