"""Integrated prediction variance of a design under constant-mean kriging.

For a design X = {x_1, ..., x_n} in [-1, 1]^d and a unit-variance
correlation family, the pointwise prediction variance of the best linear
unbiased predictor with unknown constant mean is

    mspe(x) = 1 - r(x)' R^{-1} r(x) + (1 - 1' R^{-1} r(x))^2 / (1' R^{-1} 1)

with R_ij the correlation between design points and r_i(x) the correlation
between x_i and x. Averaging over the box factorizes through the closed-form
kernel averages: with W_ij the pair average of rows i, j and v_i the single
average of row i (tensor products over dimensions),

    imspe = 1 - tr(R^{-1} W) + (1 - 2 u'v + u'Wu) / (u'1),   u = R^{-1} 1.

R and W are symmetric bit for bit (each closed form is exactly symmetric
under anchor interchange), so their per-axis factors are taken only on the
T = n(n+1)/2 anchor pairs i <= j. The factors of R, W and v come as (d, T),
(d, T) and (d, n) stacks, from one call of each family's closed form on
the coordinate stacks of ``kernels._operands``; ``kernels._product`` takes
them over the axes, as ``cross_correlation`` does, and one ``take``
through a cached (n, n) index of slots fills R and W in. The value
and the search's exact gradient (``_values_and_gradients``) share those
stacks and one Cholesky factorization of R. Every factor in the package is
one LAPACK ``dpotrf`` call in ``_factor``, and every solve one ``dpotrs``
call on that factor in ``_solve``, which writes the solution over its
right-hand side. These are the routines scipy's ``cho_factor`` and
``cho_solve`` wrap, called without the wrappers' per-call checks: R, W and v
are checked finite once per evaluation instead. A design whose R has no
usable factor, or whose points repeat, is singular.

The search prices a batch of designs at once: ``_values_and_gradients``
takes an (S, n, d) stack, one design per live start. ``_operands`` keeps
the coordinate axis first and puts the start axis second, so each closed
form, each slope, the products over axes and the adjoint's contractions
run once for the whole batch, on (d, S, T) triangle stacks and, for the
slopes and the adjoint, (d, S, n, n) stacks. One canonicaliser
(``_canonical_forms``, its rule chosen by the batch's size) and one value
step (``_priced``) serve the batch and ``imspe()``, its batch of one. Per
design only this runs: one ``_factor`` with its info and last-pivot check,
one ``_solve`` of [1 | W] in place, the ``_singular`` comparison on its
1'u, the two exact sums of its five terms and, for the gradient, one more
``_solve`` of [I | (R^{-1} W)'] in place on the same factor. That keeps
LAPACK's bits, and an error is built only for a design that is singular,
which prices as that error alone. The dot products, traces, the adjoint,
the slopes (the gaussian's through the value's filled pair factors) and
the scatter of the gradient back to each design's row order run on the
stack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
# cho_factor and cho_solve are unused here but stay bound: bench/spans.py
# looks both up on this module to trace them
from scipy.linalg import cho_factor, cho_solve  # noqa: F401
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import InvalidDesignError, SingularDesignError
# pair_integral and single_integral are re-exported: bench/spans.py traces them here
from .integrals import _DPAIR, _PAIR, _SINGLE, _dsingle, pair_integral, single_integral  # noqa: F401
from .kernels import _DRHO, _as_points, _check_finite, _correlations, _cross_correlation, _operands, _product, as_design
# cross_correlation is unused here but stays bound: bench/spans.py looks it up on this module to trace it
from .kernels import cross_correlation  # noqa: F401

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class ImspeEvaluation:
    """Value plus the intermediates behind one criterion evaluation.

    Intermediates are reported in the canonical point order used internally
    (rows sorted after per-axis sign normalization); the value is unaffected.
    """

    value: float
    R: np.ndarray
    W: np.ndarray
    v: np.ndarray

    @property
    def condition_estimate(self):
        """2-norm condition number of R, computed (by SVD) each time it is read."""
        return float(np.linalg.cond(self.R))


def _sort_rows(points):
    """Rows of an (n, d) array in lexicographic order, first column first, and that order."""
    order = np.lexsort(points.T[::-1])
    return points.take(order, axis=0), order


def _canonical_form(points):
    """Canonical points of an (n, d) array, and the row order and per-axis signs s behind them.

    The canonical points are ``(points * s)[order]``, the rows of
    ``points * s`` sorted by ``_sort_rows``.
    """
    # evaluating one representative per orbit under row permutation and
    # per-axis reflection makes both invariances exact (sign flips and row
    # moves are exact on binary64): the smallest flattened
    # _sort_rows(points * s) over sign vectors s, ties to the least flip
    # mask (bit k set when axis k is negated). It grows row by row: the next
    # row is the smallest any unplaced row can become (-|x| on an axis whose
    # sign is free, +1 until fixed) and fixes its nonzero axes; tied rows
    # branch, and branches whose signed points agree (0.0 == -0.0) merge
    n, d = points.shape
    coords = points.tolist()
    neg = -np.abs(points)
    free = [True] * d
    branches = [([1.0] * d, list(range(n)), neg.tolist())]
    while True:
        head = min(min(rows) for _, _, rows in branches)
        grown = [
            ([-1.0 if f and x > 0.0 else v for v, f, x in zip(s, free, coords[i])], rest, i)
            for s, rest, rows in branches for i, row in zip(rest, rows) if row == head
        ]
        if len(grown) == 1:
            s, rest, i = grown[0]
            merged = [(*_sort_rows(points * s), s, rest, i)]
        else:
            grown.sort(key=lambda branch: [v < 0.0 for v in reversed(branch[0])])
            keyed = {}
            for s, rest, i in grown:
                variant, order = _sort_rows(points * s)
                keyed.setdefault((variant + 0.0).tobytes(), (variant, order, s, rest, i))
            merged = list(keyed.values())
        free = [f and x == 0.0 for f, x in zip(free, head)]
        if not any(free) or not points[:, free].any():
            if len(merged) == 1:
                return merged[0][:3]
            return min(merged, key=lambda entry: entry[0].ravel().tolist())[:3]
        branches = []
        for _, _, s, rest, i in merged:
            rest = [j for j in rest if j != i]
            branches.append((s, rest, np.where(free, neg[rest], points[rest] * s).tolist()))


def _repeats(rows):
    """Whether each design of an (S, n, d) stack of sorted rows repeats a point (0.0 == -0.0): (S,) flags."""
    return np.logical_or.reduce(np.logical_and.reduce(rows[:, 1:] == rows[:, :-1], axis=2), axis=1)


def _canonical_forms(stack):
    """Canonical points, row orders and signs of each design in an (S, n, d) stack, and which repeat a point.

    Design s gets ``_canonical_form(stack[s])``, which a batch of one calls;
    the rule goes by batch size alone, for speed. In a larger batch a design
    whose head row (least -|x|, by one lexsort) is unique and has no zero
    coordinate takes the head's signs (-1.0 on its positive axes) and one
    lexsort of the signed rows; any other design calls ``_canonical_form``.
    """
    size, n, d = stack.shape
    if size == 1:
        points, order, signs = np.empty((1, n, d)), np.empty((1, n), dtype=np.intp), np.empty((1, d))
        searched = [0]
    else:
        designs = np.arange(size)[:, None]
        ranked = np.lexsort(-np.abs(stack.transpose(2, 0, 1)[::-1]))
        lead = stack[designs, ranked[:, :2]]
        head, magnitude = lead[:, 0], np.abs(lead)
        tied = (magnitude[:, 1:] == magnitude[:, :1]).all(axis=2).any(axis=1)
        searched = np.flatnonzero(tied | (head == 0.0).any(axis=1))
        signs = np.where(head > 0.0, -1.0, 1.0)
        signed = stack * signs[:, None, :]
        order = np.lexsort(signed.transpose(2, 0, 1)[::-1])
        points = signed[designs, order]
    for k in searched:
        points[k], order[k], signs[k] = _canonical_form(stack[k])
    return points, order, signs, _repeats(points)


def build_correlation_matrix(family, design):
    """Symmetric n x n matrix of pairwise design correlations, unit diagonal; raises if an entry is not finite."""
    dsn = as_design(design)
    R = _cross_correlation(family, dsn.points, dsn.points)
    _check_finite(family.kind, family.theta, R=R)
    return R


@functools.lru_cache(maxsize=64)
def _triangle(n):
    """Row and column indices (i, j) of the n(n+1)/2 anchor pairs i <= j of n points, and their (n, n) slots.

    The pairs come in ``np.triu_indices`` order, and slot[i, j] = slot[j, i]
    is the position of the pair {i, j} among them. The arrays are cached
    for the last 64 sizes, so they are read-only.
    """
    i, j = np.triu_indices(n)
    slot = np.empty((n, n), dtype=np.intp)
    slot[i, j] = slot[j, i] = np.arange(len(i))
    for array in (i, j, slot):
        array.setflags(write=False)
    return i, j, slot


def _anchors(theta, col):
    """``_operands``' theta and column stack, shaped for the upper-triangle anchors.

    Returns theta, the (d, n) coordinate stack and the (d, T) anchor stacks
    a = x_i and b = x_j of the pairs i <= j of ``_triangle``; an (S, n, d)
    stack of designs gives (d, S, n) and (d, S, T) stacks.
    """
    cols = col[..., 0]
    i, j, _ = _triangle(cols.shape[-1])
    # one theta per axis comes as a (d, 1, 1) stack, for (d, n, n) grids
    theta = theta if np.ndim(theta) == 0 else theta[..., 0]
    return theta, cols, cols.take(i, axis=-1), cols.take(j, axis=-1)


def _filled(triangle, n):
    """Symmetric, C-contiguous (..., n, n) stack from a (..., T) stack over the pairs i <= j."""
    # take keeps C order; triangle[..., slot] would return a transposed
    # layout, slower to gather and read by BLAS in another arithmetic order
    return triangle.take(_triangle(n)[2], axis=-1)


def _assemble(family, points):
    """``_operands`` of checked (n, d) points or an (S, n, d) stack, their factor stacks and finite products R, W and v.

    R and W are symmetric under anchor interchange, bit for bit, so their
    per-axis factors are taken on the upper-triangle anchors alone: (d, T),
    (d, T) and (d, n) stacks with T = n(n+1)/2, or (d, S, T), (d, S, T) and
    (d, S, n) on an (S, n, d) stack of designs. R and W are multiplied over
    the axes on the triangle, then ``_filled``.
    """
    operands = kind, theta, col, _ = _operands(family, points)
    theta, cols, a, b = _anchors(theta, col)
    factors = _correlations(kind, theta, a, b), _PAIR[kind](theta, a, b), _SINGLE[kind](theta, cols)
    R, W, v = map(_product, factors)
    _check_finite(family.kind, family.theta, R=R, W=W, v=v)
    n = points.shape[-2]
    return operands, factors, _filled(R, n), _filled(W, n), v


def build_pair_matrix(family, design):
    """Symmetric n x n matrix of pair averages W_ij over the box (tensor product over axes); raises if an entry is not finite."""
    kind, theta, col, _ = _operands(family, as_design(design).points)
    theta, cols, a, b = _anchors(theta, col)
    W = _filled(_product(_PAIR[kind](theta, a, b)), cols.shape[-1])
    _check_finite(kind, family.theta, W=W)
    return W


def build_single_vector(family, design):
    """Length-n vector of single averages v_i over the box (tensor product over dimensions)."""
    kind, theta, col, _ = _operands(family, as_design(design).points)
    return _product(_SINGLE[kind](theta, col)[..., 0])


def _factor(R):
    """Lower Cholesky factor c of a finite R by LAPACK ``dpotrf``, or SingularDesignError.

    Raises when a leading minor is not positive definite or the last pivot is
    not positive and finite: ``dpotrf`` takes only positive or NaN pivots and
    a non-finite entry makes every later pivot NaN or stops it, so that pivot
    vouches for the whole factor. The upper triangle of c is R's own. Raises
    ValueError if LAPACK reports an illegal argument.
    """
    # the flags go by position (lower=1, clean=0), as parsing keywords costs
    # more than the LAPACK work on a small design
    c, info = dpotrf(R, 1, 0)
    if info or not 0.0 < c[-1, -1] < math.inf:
        if info < 0:
            raise ValueError(f"dpotrf reported an illegal value in argument {-info}")
        if info:
            raise SingularDesignError(
                "correlation matrix is not positive definite: "
                f"{info}-th leading minor of the array is not positive definite"
            )
        raise SingularDesignError("correlation matrix factorization produced non-finite entries")
    return c


def _singular(denom, repeated):
    """The SingularDesignError of a design with a factor, or None.

    From its 1'R^{-1}1 ``denom`` and its repeated-point flag, in this order:
    a 1'R^{-1}1 that is not positive and finite, or a repeated point
    (0.0 == -0.0). Rounding can leave R a positive factor at a repeated
    point, but its value means nothing.
    """
    if not 0.0 < denom < math.inf:
        return SingularDesignError("correlation matrix is numerically singular (1'R^{-1}1 not positive)")
    if repeated:
        return SingularDesignError("design has repeated points")
    return None


def _solve(c, b):
    """R^{-1} b by LAPACK ``dpotrs`` from the factor c of ``_factor``; b is a vector or a matrix of columns.

    The solution is written over b when b is Fortran-contiguous (a vector
    always is) and returned, so a caller that reads b again passes a copy.
    Raises ValueError if LAPACK reports an illegal argument.
    """
    x, info = dpotrs(c, b, 1, 1)  # lower=1, overwrite_b=1, by position as in _factor
    if info:
        raise ValueError(f"dpotrs reported an illegal value in argument {-info}")
    return x


def imspe(family, design):
    """Evaluate the integrated prediction variance of a design.

    Parameters
    ----------
    family : CovarianceFamily
    design : Design or array-like of points in [-1, 1]^d

    Returns
    -------
    ImspeEvaluation
        ``value`` holds the criterion; ``R``, ``W``, ``v`` the intermediates;
        ``condition_estimate`` the 2-norm condition number of R, computed
        only when read.

    The points are canonicalized first, so the value is bitwise invariant
    under point permutation and per-axis reflection. The input is checked
    once: the family checked its kind and theta when built, one ``Design``
    checks the points, and R, W and v are assembled on the checked arrays.

    Raises
    ------
    InvalidDesignError, InvalidHyperparameterError
        On bad points, a theta count that is neither 1 nor d, or a theta so
        large that R, W or v is not finite in double precision.
    SingularDesignError
        If R has no usable Cholesky factorization (near-coincident points),
        or if the design repeats a point.
    """
    canonical, _, _, repeated = _canonical_forms(as_design(design).points[None])
    R, W, v = _assemble(family, canonical[0])[2:]
    values, _, errors, _, _ = _priced(R[None], W[None], v[None], repeated)
    if errors[0] is not None:
        raise errors[0]
    return ImspeEvaluation(value=float(values[0]), R=R, W=W, v=v)


def _priced(R, W, v, repeated):
    """Values, rounding units and errors of a stack of designs, the solves behind them and the factors.

    R and W are (S, n, n) stacks, v an (S, n) stack and ``repeated`` the
    (S,) flags of ``_canonical_forms``. Returns the (S,) values, the (S,)
    rounding units, a list of S entries holding None or the design's
    SingularDesignError, the solves, and a list of S entries holding each
    priced design's ``dpotrf`` factor, or None where it is singular; a
    singular design's value is +inf and its unit 0.0. Per design only LAPACK
    and the exact sums run: one ``_factor``, which keeps LAPACK's bits (a
    design it refuses keeps that error and skips its solve), one ``_solve``
    of its columns [1 | W] in place, the ``_singular`` rule on its 1'u and
    the two exact sums of its five terms; the dot products and the trace run
    on the stack. The solves are u = R^{-1} 1, 1'u, u'W, u'v, u'Wu and
    (R^{-1} W)'; a singular design has zeros there (and 1.0 for 1'u).
    """
    size, n = v.shape
    # design s's solution of column k of [1 | W] is solved[s, k], zeros where s is singular
    solved = np.empty((size, n + 1, n))
    solved[:, 0] = 1.0
    solved[:, 1:] = W.transpose(0, 2, 1)
    errors, factors = [None] * size, [None] * size
    for s, (block, columns) in enumerate(zip(R, solved.transpose(0, 2, 1))):
        try:
            factors[s] = _factor(block)
        except SingularDesignError as error:
            # kept without its traceback, which would hold this frame and its stacks
            errors[s] = error.with_traceback(None)
            continue
        _solve(factors[s], columns)
    u = solved[:, 0]
    denom = (u[:, None, :] @ np.ones((n, 1)))[:, 0, 0]
    for s, (ones_u, twice) in enumerate(zip(denom.tolist(), repeated.tolist())):
        if factors[s] is not None:
            errors[s] = _singular(ones_u, twice)
    singular = [s for s, error in enumerate(errors) if error is not None]
    if singular:
        solved[singular] = 0.0
        denom[singular] = 1.0
        for s in singular:
            factors[s] = None
    row = u[:, None, :]
    uW = (row @ W)[:, 0]
    lin = (row @ v[:, :, None])[:, 0, 0]
    quad = (uW[:, None, :] @ u[:, :, None])[:, 0, 0]
    values, units = np.full(size, math.inf), np.zeros(size)
    traces = solved[:, 1:].trace(axis1=1, axis2=2)
    sums = zip(traces.tolist(), denom.tolist(), lin.tolist(), quad.tolist())
    for s, (trace, ones_u, v_u, uWu) in enumerate(sums):
        if factors[s] is not None:
            terms = (1.0, -trace, 1.0 / ones_u, -2.0 * v_u / ones_u, uWu / ones_u)
            # exact summation keeps the n = 1 identity value == 2 - 2 v[0] bit-exact
            values[s], units[s] = math.fsum(terms), _EPS * math.fsum(map(abs, terms))
    return values, units, errors, (u, denom, uW, lin, quad, solved[:, 1:]), factors


def _leave_one_out(stack):
    """Stack whose k-th entry is the product of all factors but the k-th, from a stack of two or more.

    Factors before k multiply in axis order, those after k in reverse order,
    each from its first factor."""
    before = np.multiply.accumulate(stack[:-1], axis=0)  # before[k]: factors 0..k
    after = np.multiply.accumulate(stack[:0:-1], axis=0)  # after[k]: factors d-1 down to d-1-k
    return np.concatenate((after[-1:], before[:-1] * after[:-1][::-1], before[-1:]))


def _value_and_gradient(family, points):
    """Criterion of checked (n, d) points, its gradient and its rounding unit.

    The one-design case of ``_values_and_gradients``: raises
    SingularDesignError like ``imspe()``.
    """
    values, grads, units, errors = _values_and_gradients(family, points[None])
    if errors[0] is not None:
        raise errors[0]
    return float(values[0]), grads[0], float(units[0])


def _values_and_gradients(family, stack):
    """Criterion, gradient and rounding unit of each design in an (S, n, d) stack of checked points.

    Returns (S,) values, (S, n, d) gradients, (S,) rounding units and a
    list of S errors: entry s of the list is None, or the
    SingularDesignError that makes design s singular, whose row then holds
    +inf, a 0.0 unit and a zero gradient (its solves are zeros).
    A singular design leaves the others' bits alone. The value is
    ``imspe(family, stack[s]).value`` bit for bit: the same canonical
    points, axis factors, products, factor and exact sum.
    The rounding unit is machine epsilon times the sum of the magnitudes of
    the value's five terms: the value is a small difference of terms near 1,
    so it is rounded on their scale, not on its own. The gradient, shaped
    like ``stack[s]``, comes from one factor of R as the adjoint of the
    assembly. With u = R^{-1} 1, c = 1'u, N = 1 - 2 u'v + u'Wu and
    z = R^{-1} (W u - v):

        df/dW = uu'/c - R^{-1}
        df/dv = -2 u / c
        df/dR = R^{-1} W R^{-1} - (z u' + u z') / c + N uu' / c^2

    Coordinate x_ik enters row and column i of R and W and entry i of v,
    each through its axis-k factor, so the chain rule contracts the stack of
    per-axis slopes, times the stack of products of the other axes' factors
    (taken on the triangle, then ``_filled``), over rows, for all axes at
    once, in O(n^2 d).
    A tied coordinate takes sign(0) = 0 in R, the mean of the one-sided
    slopes of the exponential kernel. Rows and signs are mapped back through
    the canonicalization.

    Everything runs once on the whole stack but what is kept per design:
    the factor ``_priced`` returns, the solves on it (here R^{-1} and
    R^{-1} W R^{-1}, from one ``_solve`` of the columns [I | (R^{-1} W)'] in
    place) and the exact sums. So every design keeps the bits it has on its
    own. The canonical forms and repeated-point flags come from
    ``_canonical_forms``.
    """
    size, n, _ = stack.shape
    canonical, order, signs, repeated = _canonical_forms(stack)
    (kind, theta, col, row), factors, R, W, v = _assemble(family, canonical)
    values, units, errors, (u, denom, uW, lin, quad, RiWt), cholesky = _priced(R, W, v, repeated)
    # design s's solution of column k of [I | (R^{-1} W)'] is solved[s, k], zeros where s is singular; R^{-1}
    # keeps the Fortran order dpotrs gives it, since BLAS products of R^{-1} pick their arithmetic by memory order
    solved = np.empty((size, 2 * n, n))
    solved[:, :n] = np.eye(n)
    solved[:, n:] = RiWt.transpose(0, 2, 1)
    for s, (c, columns) in enumerate(zip(cholesky, solved.transpose(0, 2, 1))):
        if c is None:
            solved[s] = 0.0
        else:
            _solve(c, columns)
    Rinv, RiWRi = solved[:, :n].transpose(0, 2, 1), solved[:, n:].transpose(0, 2, 1)
    z = (Rinv @ (uW - v)[:, :, None])[:, :, 0]
    numerator = 1.0 - 2.0 * lin + quad
    denom = denom[:, None, None]
    uu = u[:, :, None] * u[:, None, :] / denom
    dW = uu - Rinv
    dv = -2.0 * u / denom[:, 0]
    # z u' + u z' is zu' plus its transpose: a product of two floats does not depend on their order
    zu = z[:, :, None] * u[:, None, :]
    zu = zu + zu.transpose(0, 2, 1)
    dR = RiWRi - zu / denom + numerator[:, None, None] * uu / denom
    gap = col - row
    sR = _DRHO[kind](theta, np.abs(gap)) * np.sign(gap)
    pair = _filled(factors[1], n)
    sW = _DPAIR[kind](theta, col, row, pair)
    sv = _dsingle(kind, theta, col)[..., 0]
    # the products of the other axes' factors: R's on the triangle, then filled; W's on the filled pair
    # factors; a lone axis has none, and multiplying by 1.0 is exact
    R_rest = W_rest = v_rest = 1.0
    if len(pair) > 1:
        R_rest, W_rest = _filled(_leave_one_out(factors[0]), n), _leave_one_out(pair)
        v_rest = _leave_one_out(factors[2])
    # R and W are symmetric, so row i and column i contribute alike
    rows = (dR * sR * R_rest).sum(axis=-1) + (dW * sW * W_rest).sum(axis=-1)
    grad = 2.0 * rows + dv * sv * v_rest
    # back through each design's canonical row order and signs
    grads = np.empty(stack.shape)
    grads[np.arange(size)[:, None], order] = grad.transpose(1, 2, 0) * signs[:, None, :]
    return values, grads, units, errors


def imspe_value(family, design):
    """Shorthand for ``imspe(family, design).value``."""
    return imspe(family, design).value


def mspe_evaluator(family, design):
    """Build a callable x -> pointwise prediction variance, factorizing R once.

    The callable takes a scalar (d = 1), a flat array of d = 1 locations or an
    (m, d) array, read as ``Design`` reads points, and returns a float or a
    length-m vector. Locations may fall slightly outside the box, for quadrature.
    """
    dsn = as_design(design)
    R = build_correlation_matrix(family, dsn)
    c = _factor(R)
    u = _solve(c, np.ones(len(R)))  # written over its ones
    denom = float(u @ np.ones(len(R)))
    # not canonicalised: the profile is not reflection-invariant
    error = _singular(denom, _repeats(_sort_rows(dsn.points)[0][None])[0])
    if error is not None:
        raise error

    def profile(x):
        scalar = np.isscalar(x) or getattr(x, "ndim", None) == 0
        locations = _as_points([x] if scalar else x)
        if not np.isfinite(locations).all():
            raise InvalidDesignError("locations must be finite")
        r = _cross_correlation(family, dsn.points, locations)
        _check_finite(family.kind, family.theta, r=r)
        solved = _solve(c, r.copy(order="F"))  # r is read again below
        quad = np.einsum("ij,ij->j", r, solved)
        lin = u @ r
        out = 1.0 - quad + (1.0 - lin) ** 2 / denom
        return float(out[0]) if scalar else out

    return profile


def mspe_profile(family, design, x):
    """Pointwise prediction variance at ``x`` (see ``mspe_evaluator``)."""
    return mspe_evaluator(family, design)(x)


__all__ = [
    "ImspeEvaluation",
    "build_correlation_matrix",
    "build_pair_matrix",
    "build_single_vector",
    "imspe",
    "imspe_value",
    "mspe_evaluator",
    "mspe_profile",
]
