"""Multistart projected-BFGS minimization of the design criterion over the unit box.

Coordinates live in [-1, 1]; the only constraints are the box bounds, so
projection is a clip. The descent prices each point it tries by one
evaluation of the criterion and its exact gradient, from one assembly and
Cholesky factor (the adjoint in ``criterion._values_and_gradients``);
``fd_gradient`` stays as the finite-difference oracle the tests check it
against.

The starts run in lockstep, in one driver (``_descend``) that keeps every
running start's iterate, value, gradient, quasi-Newton matrix and
line-search trial as rows of compact arrays; a start's row goes once it
stops. Each round prices the trial of every row with one criterion call on
their stack, so a multistart makes as many calls as its longest start
makes evaluations. The round's decisions (accept, halve, stall, stop) are
masks over those rows, and the top of an iteration gathers the rows it
serves once and scatters back once. ``local_search`` is the same driver
with one start, and a start's outcome has the same bits either way. A start
converges when the projected gradient (gradient with outward components
zeroed on active bounds) has infinity norm at or below the optimality
tolerance. Converged optima are deduplicated by clustering their
row-sorted coordinates (``criterion._sort_rows``) within ``_CLUSTER_TOL``;
no sign is canonicalised, so a design and its mirror image count as two
optima.

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
from .kernels import Design, _is_positive_real, as_design

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


def _is_count(value, floor=1):
    """Whether value is an integer of at least ``floor``; a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= floor


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the local descent and the multistart wrapper."""

    starts: int = 32
    optimality_tol: float = 1e-9
    max_iterations: int = 500
    seed: int = 0

    def __post_init__(self):
        for name in ("starts", "max_iterations"):
            if not _is_count(getattr(self, name)):
                raise ValueError(f"{name} must be an integer of at least 1")
        if not _is_positive_real(self.optimality_tol):
            raise ValueError("optimality_tol must be finite and positive")
        if not _is_count(self.seed, 0):
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


def _bounds(x):
    """Clip bounds (low, high) of the projected gradient at points x.

    0.0 and +inf where a coordinate is on its upper bound, -inf and 0.0
    where it is on its lower bound, -inf and +inf elsewhere: the projected
    gradient is ``np.minimum(np.maximum(g, low), high)``.
    """
    return (np.where(x >= 1.0 - _FEASIBILITY_TOL, 0.0, -np.inf),
            np.where(x <= -1.0 + _FEASIBILITY_TOL, 0.0, np.inf))


def projected_gradient(x, g):
    """Gradient with outward components dropped on active bounds, as a new array.

    On the lower bound only negative components survive; on the upper bound
    only positive ones. Its infinity norm is the stationarity measure for the
    box-constrained problem.
    """
    low, high = _bounds(np.asarray(x))
    return np.minimum(np.maximum(g, low), high)


def local_search(family, start, config=DEFAULT_CONFIG):
    """Projected-BFGS descent from one starting design.

    The one-start case of the lockstep driver (``_descend``) that
    ``multistart_search`` runs for all of its starts, so a start's outcome
    is the same bits either way. Returns a LocalSearchResult; ``converged``
    means the projected-gradient infinity norm reached
    ``config.optimality_tol``. Each trial step costs one evaluation of the
    criterion and its gradient, which an accepted step keeps. A step passes
    on Armijo sufficient decrease; where f changes by no more than its
    rounding (a few epsilon on the scale of the terms it is summed from), it
    passes on the approximate Wolfe conditions instead, and halving stops
    once the predicted change g's falls below that rounding. Trial points
    with a singular correlation matrix price as +inf, so the backtracking
    shrinks past them instead of crashing.
    """
    points = as_design(start).points
    outcome = _descend(family, points[None], config)[0]
    if isinstance(outcome, SingularDesignError):
        raise SingularDesignError("starting design has a singular correlation matrix") from outcome
    return outcome


def _dot(a, b):
    """Row-by-row dot products of two (S, m) stacks, each one BLAS dot of its row."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


# a line search has spent its cap of trials once its scale, halved exactly from 1.0, gets here
_EXHAUSTED = 0.5**_LINESEARCH_CAP
# a stopped start's reason, as its index in STOP_REASONS
_GRAD_TOL, _STALL, _MAX_ITERATIONS, _NONFINITE = (
    STOP_REASONS.index(reason) for reason in ("grad_tol", "linesearch_stall", "max_iterations", "nonfinite_gradient"))


def _descend(family, starts, config):
    """The descents from every (n, d) start of an (S, n, d) stack, in lockstep.

    Returns each start's LocalSearchResult, or the SingularDesignError of a
    singular start, in start order. Every running start is one row of the
    state: its iterate, value, gradient, rounding unit, quasi-Newton matrix
    (with a flag for the identity), iteration count, gradient norm,
    direction, step scale and trial point; the step (trial - x) and its
    slope g's derive from them, as x and g change only on acceptance. A
    start's row goes once it stops, so each round prices the trial of every
    row in one ``_values_and_gradients`` call, and a multistart makes as
    many calls as its longest start makes evaluations. Its value, gradient
    and unit arrays are read as they are (a singular trial prices as +inf,
    which no test accepts), and the first call's errors name the singular
    starts. Masks over the rows make each decision; the top of an iteration
    gathers the rows it serves once and scatters back once. Between two
    rounds a start moves on until it has a trial to price or stops:

    - at the top of an iteration it stops on the optimality tolerance or on
      the iteration cap; otherwise it counts an iteration and takes the
      quasi-Newton direction, or steepest descent when it has no model or
      the model's direction is not downhill;
    - a trial is the step clipped to the box; a zero step stalls unpriced,
      as does a line search that has spent its cap of trials;
    - a priced trial passes on Armijo decrease, or, where f moved within
      its rounding, on the approximate Wolfe conditions; a rejected trial
      stalls once g's is within the rounding and halves the step otherwise;
    - a start stops as soon as its gradient is not finite, at its start or
      on acceptance;
    - a stall with a model drops the model and retries the iterate from
      steepest descent; without one the start stops.
    """
    size, n, d = starts.shape
    m = n * d
    f, g, unit, errors = _values_and_gradients(family, starts)
    outcomes = list(errors)
    ids = np.flatnonzero([error is None for error in errors])
    x, f, g, unit = starts.reshape(size, m)[ids], f[ids], g.reshape(size, m)[ids], unit[ids]
    rows = len(ids)
    H = np.zeros((rows, m, m))
    has_model = np.zeros(rows, dtype=bool)
    iterations = np.zeros(rows, dtype=int)
    grad_norm = np.zeros(rows)
    direction = np.zeros((rows, m))
    scale = np.ones(rows)
    stopped = np.full(rows, -1)  # the stop reason's index, once a start stops
    begin = np.isfinite(g).all(axis=1)
    stopped[~begin], grad_norm[~begin] = _NONFINITE, math.inf
    propose, stall = np.zeros(rows, dtype=bool), np.zeros(rows, dtype=bool)
    while True:
        while True:
            at = begin.nonzero()[0]
            if at.size:  # the top of an iteration
                x_at, g_at = x[at], g[at]
                low, high = _bounds(x_at)
                pg = np.minimum(np.maximum(g_at, low), high)
                norm = grad_norm[at] = np.abs(pg).max(axis=1)
                converged = norm <= config.optimality_tol
                ends = converged | (iterations[at] == config.max_iterations)
                if ends.any():
                    stopped[at[ends]] = np.where(converged[ends], _GRAD_TOL, _MAX_ITERATIONS)
                    go = ~ends
                    at, g_at, pg, low, high = at[go], g_at[go], pg[go], low[go], high[go]
                iterations[at] += 1
                # a row without a model prices a direction it does not take
                newton = -np.minimum(np.maximum((H[at] @ g_at[:, :, None])[:, :, 0], low), high)
                # a model whose direction is not downhill broke down; restart from steepest descent
                quasi = has_model[at] & ~((_dot(newton, g_at) >= 0.0) | ~newton.any(axis=1))
                has_model[at] = quasi
                direction[at] = np.where(quasi[:, None], newton, -pg)
                scale[at] = 1.0
                propose[at] = True
            # the next trial of every line search (a row that holds one gets it again)
            trial = np.minimum(np.maximum(x + scale[:, None] * direction, -1.0), 1.0)
            stall |= propose & ((scale == _EXHAUSTED) | (trial == x).all(axis=1))
            if not stall.any():
                break
            # retry from steepest descent, or stop
            stopped[stall & ~has_model] = _STALL
            begin = stall & has_model
            has_model &= ~stall
            propose, stall = np.zeros(rows, dtype=bool), np.zeros(rows, dtype=bool)
        done = (stopped >= 0).nonzero()[0]
        if done.size:
            for i in done.tolist():
                outcomes[ids[i]] = LocalSearchResult(
                    Design(x[i].reshape(n, d)), float(f[i]), int(iterations[i]), float(grad_norm[i]),
                    STOP_REASONS[stopped[i]])
            keep = stopped < 0
            ids, x, f, g, unit, H, has_model, iterations, grad_norm, direction, scale, trial = (
                state[keep] for state in
                (ids, x, f, g, unit, H, has_model, iterations, grad_norm, direction, scale, trial))
            rows = len(ids)
            stopped = np.full(rows, -1)
        if not rows:
            return outcomes
        f_new, g_new, unit_new, _ = _values_and_gradients(family, trial.reshape(rows, n, d))
        g_new = g_new.reshape(rows, m)
        step = trial - x
        slope = _dot(g, step)
        rounding = _ROUNDING_UNITS * unit
        armijo = f_new <= f + _ARMIJO * slope
        # where f moved within its rounding, the approximate Wolfe conditions decide
        wolfe = ~armijo & (np.abs(f_new - f) <= rounding)
        if wolfe.any():
            slope_new = _dot(g_new[wolfe], step[wolfe])
            wolfe[wolfe] = (_WOLFE_SIGMA * slope[wolfe] <= slope_new) & (
                slope_new <= (2.0 * _WOLFE_DELTA - 1.0) * slope[wolfe])
        accepted = armijo | wolfe
        # a shorter step would change f by less than it can resolve
        stall = ~accepted & (np.abs(slope) <= rounding)
        propose = ~(accepted | stall)
        np.multiply(scale, 0.5, out=scale, where=propose)
        begin = accepted & np.isfinite(g_new).all(axis=1)
        if begin.any():
            _update_models(H, has_model, begin.nonzero()[0], step[begin], (g_new - g)[begin])
        lost = accepted & ~begin
        if lost.any():
            stopped[lost], grad_norm[lost] = _NONFINITE, math.inf
        x, g = np.where(accepted[:, None], trial, x), np.where(accepted[:, None], g_new, g)
        f, unit = np.where(accepted, f_new, f), np.where(accepted, unit_new, unit)


def _update_models(H, has_model, rows, s, y):
    """BFGS update of the inverse-Hessian models H[rows] from steps s and gradient changes y.

    Only rows whose curvature s'y clears the floor update; a row without a
    model starts from the identity.
    """
    sy = _dot(s, y)
    curved = sy > _CURVATURE_FLOOR * (np.sqrt(_dot(s, s)) * np.sqrt(_dot(y, y)))
    if not curved.all():
        s, y, sy, rows = s[curved], y[curved], sy[curved], rows[curved]
    model = H[rows]
    fresh = ~has_model[rows]
    if fresh.any():
        model[fresh] = np.eye(s.shape[1])
    rho_inv = (1.0 / sy)[:, None, None]
    Hy = (model @ y[:, :, None])[:, :, 0]
    yHy = _dot(y, Hy)[:, None, None]
    # s Hy' + Hy s' is sHy plus its transpose: a product of two floats does not depend on their order
    sHy = s[:, :, None] * Hy[:, None, :]
    H[rows] = (
        model
        - rho_inv * (sHy + sHy.transpose(0, 2, 1))
        + (rho_inv * rho_inv * yHy + rho_inv) * (s[:, :, None] * s[:, None, :])
    )
    has_model[rows] = True


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
    if not (_is_count(n) and _is_count(d)):
        raise ValueError("need n >= 1 points and d >= 1 dimensions")
    family.theta_for_dimension(d)
    starts = np.stack(_generate_starts(n, d, config.starts, np.random.default_rng(config.seed)))
    outcomes = [o for o in _descend(family, starts, config) if not isinstance(o, SingularDesignError)]
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
