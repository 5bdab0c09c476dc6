"""Multistart projected-BFGS minimization of the design criterion over the unit box.

Coordinates live in [-1, 1]; the only constraints are the box bounds, so
projection is a clip. The descent prices each point it tries by one
evaluation of the criterion and its exact gradient, from one assembly and
Cholesky factor (the adjoint in ``criterion._values_and_gradients``);
``fd_gradient`` stays as the finite-difference oracle the tests check it
against.

The starts run in lockstep, in one driver (``_descend``) that keeps every
start's iterate, value, gradient, quasi-Newton matrix and line-search trial
as rows of (S, ...) arrays and makes each decision with masks over them.
Each round it prices the pending trial of every live start with one
criterion call on their stack, so a multistart makes as many calls as its
longest start makes evaluations. ``local_search`` is the same driver with
one start, and a start's outcome has the same bits either way. A start
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


def _descend(family, starts, config):
    """The descents from every (n, d) start of an (S, n, d) stack, in lockstep.

    Returns each start's LocalSearchResult, or the SingularDesignError of a
    singular start, in start order. Every start's iterate, value, gradient,
    rounding unit, quasi-Newton matrix (with a flag for the identity),
    iteration count, gradient norm, direction, step scale and trial point is
    a row of an (S, ...) array; the step (trial - x), its slope g's and the
    trial count (the scale's exact halvings from 1.0) derive from them, as x
    and g change only on acceptance. Masks make each decision for all
    starts at once. Each round prices the pending trial of every live start
    in one ``_values_and_gradients`` call on their stack, so a multistart
    makes as many calls as its longest start makes evaluations. Its value,
    gradient and unit arrays are read as they are (a singular trial prices
    as +inf, which no test accepts), and the first call's errors name the
    singular starts. Between two rounds a start moves on until it has a
    trial to price or stops:

    - at the top of an iteration it stops on a non-finite gradient, on the
      optimality tolerance or on the iteration cap; otherwise it counts an
      iteration and takes the quasi-Newton direction, or steepest descent
      when it has no model or the model's direction is not downhill;
    - a trial is the step clipped to the box; a zero step stalls unpriced;
    - a priced trial passes on Armijo decrease, or, where f moved within
      its rounding, on the approximate Wolfe conditions; a rejected trial
      stalls once g's is within the rounding or after the cap of trials,
      and halves the step otherwise;
    - a stall with a model drops the model and retries the iterate from
      steepest descent; without one the start stops.
    """
    size, n, d = starts.shape
    m = n * d
    x = starts.reshape(size, m).copy()
    f, g, unit, errors = _values_and_gradients(family, starts)
    g = g.reshape(size, m)
    stops = [None] * size
    H = np.zeros((size, m, m))
    has_model = np.zeros(size, dtype=bool)
    iterations = np.zeros(size, dtype=int)
    grad_norm = np.zeros(size)
    direction = np.zeros((size, m))
    scale = np.ones(size)
    trial = np.zeros((size, m))

    def stop(indices, reason):
        for i in indices:
            stops[i] = reason

    nothing = np.zeros(0, dtype=int)
    begin, propose, stall = np.flatnonzero([error is None for error in errors]), nothing, nothing
    while True:
        pending = []
        while begin.size or propose.size or stall.size:
            if stall.size:  # retry from steepest descent, or stop
                retry = stall[has_model[stall]]
                stop(stall[~has_model[stall]], "linesearch_stall")
                has_model[retry] = False
                begin, stall = np.concatenate((begin, retry)), nothing
            if begin.size:  # the top of an iteration
                finite = np.isfinite(g[begin]).all(axis=1)
                stop(begin[~finite], "nonfinite_gradient")
                grad_norm[begin[~finite]] = math.inf
                begin = begin[finite]
                pg = projected_gradient(x[begin], g[begin])
                grad_norm[begin] = np.abs(pg).max(axis=1)
                converged = grad_norm[begin] <= config.optimality_tol
                capped = ~converged & (iterations[begin] == config.max_iterations)
                stop(begin[converged], "grad_tol")
                stop(begin[capped], "max_iterations")
                go = ~(converged | capped)
                begin, pg = begin[go], pg[go]
                iterations[begin] += 1
                modelled = has_model[begin]
                if modelled.any():
                    at = begin[modelled]
                    newton = -projected_gradient(x[at], (H[at] @ g[at][:, :, None])[:, :, 0])
                    # quasi-Newton model broke down; restart from steepest descent
                    broken = (_dot(newton, g[at]) >= 0.0) | ~newton.any(axis=1)
                    has_model[at[broken]] = False
                    direction[at[~broken]] = newton[~broken]
                steepest = ~has_model[begin]
                direction[begin[steepest]] = -pg[steepest]
                scale[begin] = 1.0
                propose, begin = np.concatenate((propose, begin)), nothing
            if propose.size:  # the next trial of each line search
                exhausted = scale[propose] == 0.5**_LINESEARCH_CAP
                stall, propose = propose[exhausted], propose[~exhausted]
                origin = x[propose]
                candidate = np.minimum(np.maximum(origin + scale[propose, None] * direction[propose], -1.0), 1.0)
                zero = (candidate == origin).all(axis=1)
                stall = np.concatenate((stall, propose[zero]))
                live = propose[~zero]
                trial[live] = candidate[~zero]
                pending.append(live)
                propose = nothing
        pending = np.concatenate(pending) if pending else nothing
        if not pending.size:
            break
        pending.sort()  # each round's stack in start order
        f_new, g_new, unit_new, _ = _values_and_gradients(family, trial[pending].reshape(-1, n, d))
        g_new = g_new.reshape(-1, m)
        f_old = f[pending]
        step = trial[pending] - x[pending]
        slope = _dot(g[pending], step)
        rounding = _ROUNDING_UNITS * unit[pending]
        armijo = f_new <= f_old + _ARMIJO * slope
        near = ~armijo & (np.abs(f_new - f_old) <= rounding)
        wolfe = np.zeros_like(near)
        if near.any():
            slope_new = _dot(g_new[near], step[near])
            wolfe[near] = (_WOLFE_SIGMA * slope[near] <= slope_new) & (
                slope_new <= (2.0 * _WOLFE_DELTA - 1.0) * slope[near])
        accepted = armijo | wolfe
        # a shorter step would change f by less than it can resolve
        flat = ~accepted & (np.abs(slope) <= rounding)
        halve = pending[~accepted & ~flat]
        scale[halve] *= 0.5
        stall, propose = pending[flat], halve
        begin = pending[accepted]
        g_new = g_new[accepted]
        # a non-finite g_new leaves the model as it is, and the next top stops on it
        finite = np.isfinite(g_new).all(axis=1)
        _update_models(H, has_model, begin[finite], step[accepted][finite], (g_new - g[begin])[finite])
        x[begin], f[begin], g[begin], unit[begin] = trial[begin], f_new[accepted], g_new, unit_new[accepted]
    return [
        error if error is not None else LocalSearchResult(
            Design(x[i].reshape(n, d)), float(f[i]), int(iterations[i]), float(grad_norm[i]), stops[i])
        for i, error in enumerate(errors)
    ]


def _update_models(H, has_model, rows, s, y):
    """BFGS update of the inverse-Hessian models H[rows] from steps s and gradient changes y.

    Only rows whose curvature s'y clears the floor update; a row without a
    model starts from the identity.
    """
    sy = _dot(s, y)
    curved = sy > _CURVATURE_FLOOR * (np.sqrt(_dot(s, s)) * np.sqrt(_dot(y, y)))
    if not curved.any():
        return
    s, y, sy, rows = s[curved], y[curved], sy[curved], rows[curved]
    model = np.where(has_model[rows, None, None], H[rows], np.eye(s.shape[1]))
    rho_inv = (1.0 / sy)[:, None, None]
    Hy = (model @ y[:, :, None])[:, :, 0]
    yHy = _dot(y, Hy)[:, None, None]
    H[rows] = (
        model
        - rho_inv * (s[:, :, None] * Hy[:, None, :] + Hy[:, :, None] * s[:, None, :])
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
