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

The per-axis factors of R, W and v come as (d, n, n), (d, n, n) and
(d, n) stacks, from one call of each family's closed form on the
coordinate stacks of ``kernels._operands``, and ``kernels._product`` takes
R, W and v over the axes, as ``cross_correlation`` does. The value
and the search's exact gradient (``_value_and_gradient``) share those
stacks and one Cholesky factorization of R, made by LAPACK ``dpotrf``
(``_factor``); every solve is one ``dpotrs`` call on that factor
(``_solve``). These are the routines scipy's ``cho_factor`` and
``cho_solve`` wrap, called without the wrappers' per-call checks: R, W and v
are checked finite once per evaluation instead. The value uses solves only;
the gradient also forms R^{-1} from the factor, as ``_solve(c, I)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# cho_factor and cho_solve are unused here but stay bound: bench/spans.py
# looks both up on this module to trace them
from scipy.linalg import cho_factor, cho_solve  # noqa: F401
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import InvalidDesignError, InvalidHyperparameterError, SingularDesignError
# pair_integral and single_integral are re-exported: bench/spans.py traces them here
from .integrals import _DPAIR, _PAIR, _SINGLE, _dsingle, pair_integral, single_integral  # noqa: F401
from .kernels import _DRHO, _correlations, _operands, _product, as_design, cross_correlation

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


def sorted_rows(points):
    """Rows of an (n, d) array in lexicographic order, first column most significant."""
    return points.take(np.lexsort(points.T[::-1]), axis=0)


def _mirrors_itself(variant):
    # negating every axis reverses the lexicographic row order, so a sorted
    # point set is centrally symmetric iff it equals its negated reverse
    rows = variant.tolist()
    return rows == [[-x for x in row] for row in reversed(rows)]


def _canonical_form(points):
    """Canonical points of an (n, d) array and the per-axis signs s behind them.

    The canonical points are ``sorted_rows(points * s)``.
    """
    # evaluating one representative per orbit under row permutation and
    # per-axis reflection makes both invariances exact (sign flips and row
    # moves are exact on binary64): the smallest flattened
    # sorted_rows(points * s) over sign vectors s, ties to the least flip
    # mask (bit k set when axis k is negated). It grows row by row: the next
    # row is the smallest any unplaced row can become (-|x| on an axis whose
    # sign is free, +1 until fixed) and fixes its nonzero axes; tied rows
    # branch, and branches whose signed points agree (0.0 == -0.0) merge. A
    # tied branch that flips every axis of a centrally symmetric one would
    # merge with it, so it is dropped before its sort
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
            merged = [(sorted_rows(points * s), s, rest, i)]
        else:
            grown.sort(key=lambda branch: [v < 0.0 for v in reversed(branch[0])])
            keyed, mirrored = {}, set()
            for s, rest, i in grown:
                if tuple(s) in mirrored:
                    continue
                variant = sorted_rows(points * s)
                keyed.setdefault((variant + 0.0).tobytes(), (variant, s, rest, i))
                if _mirrors_itself(variant):
                    mirrored.add(tuple(-v for v in s))
            merged = list(keyed.values())
        free = [f and x == 0.0 for f, x in zip(free, head)]
        if not any(free) or not points[:, free].any():
            if len(merged) == 1:
                return merged[0][:2]
            return min(merged, key=lambda entry: entry[0].ravel().tolist())[:2]
        branches = []
        for _, s, rest, i in merged:
            rest = [j for j in rest if j != i]
            branches.append((s, rest, np.where(free, neg[rest], points[rest] * s).tolist()))


def build_correlation_matrix(family, design):
    """Symmetric n x n matrix of pairwise design correlations, unit diagonal."""
    dsn = as_design(design)
    return cross_correlation(family, dsn.points, dsn.points)


def _axis_factors(kind, theta, col, row):
    """Per-axis factors of R, W and v from ``_operands``: (d, n, n), (d, n, n) and (d, n) stacks."""
    return (
        _correlations(kind, theta, col, row),
        _PAIR[kind](theta, col, row),
        _SINGLE[kind](theta, col)[:, :, 0],
    )


def _check_finite(family, **arrays):
    """InvalidHyperparameterError naming the family, theta and array if one is not finite."""
    for name, array in arrays.items():
        if not np.isfinite(array).all():
            raise InvalidHyperparameterError(
                f"{family.kind} correlation at theta {list(family.theta)} is not finite "
                f"in double precision ({name} has inf or nan entries)"
            )


def _assemble(family, points):
    """``_operands`` of checked (n, d) points, their factor stacks and finite products R, W and v."""
    operands = _operands(family, points)
    factors = _axis_factors(*operands)
    R, W, v = map(_product, factors)
    _check_finite(family, R=R, W=W, v=v)
    return operands, factors, R, W, v


def build_pair_matrix(family, design):
    """Symmetric n x n matrix of pair averages W_ij over the box (tensor product over axes)."""
    kind, theta, col, row = _operands(family, as_design(design).points)
    return _product(_PAIR[kind](theta, col, row))


def build_single_vector(family, design):
    """Length-n vector of single averages v_i over the box (tensor product over dimensions)."""
    kind, theta, col, _ = _operands(family, as_design(design).points)
    return _product(_SINGLE[kind](theta, col)[:, :, 0])


def _factor(R):
    """Lower Cholesky factor c of a finite R, u = R^{-1} 1 and 1'u, or SingularDesignError.

    Raises when R has no finite Cholesky factor or when 1'R^{-1}1 is not
    positive and finite. The upper triangle of c holds R's own entries.
    """
    c, info = dpotrf(R, lower=1, clean=0)
    if info > 0:
        raise SingularDesignError(
            "correlation matrix is not positive definite: "
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"dpotrf reported an illegal value in argument {-info}")
    if not np.isfinite(c).all() or (c.diagonal() <= 0.0).any():
        raise SingularDesignError("correlation matrix factorization produced non-finite entries")
    ones = np.ones(R.shape[0])
    u = _solve(c, ones)
    denom = float(u @ ones)
    if not math.isfinite(denom) or denom <= 0.0:
        raise SingularDesignError(
            "correlation matrix is numerically singular (1'R^{-1}1 not positive)"
        )
    return c, u, denom


def _solve(c, b):
    """R^{-1} b from the factor c of ``_factor``; b is a vector or a matrix of columns."""
    x, info = dpotrs(c, b, lower=1)
    if info != 0:
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
        If R has no Cholesky factorization (coincident or near-coincident
        points).
    """
    points = _canonical_form(as_design(design).points)[0]
    R, W, v = _assemble(family, points)[2:]
    value = _value(*_factor(R), W, v)[0]
    return ImspeEvaluation(value=value, R=R, W=W, v=v)


def _value(c, u, denom, W, v):
    """The criterion from ``_factor(R)``, W and v, with its five terms, R^{-1} W and u'W."""
    RiW = _solve(c, W)
    uW = u @ W
    lin = float(u @ v)
    quad = float(uW @ u)
    terms = (1.0, -float(np.trace(RiW)), 1.0 / denom, -2.0 * lin / denom, quad / denom)
    # exact summation keeps the n = 1 identity value == 2 - 2 v[0] bit-exact
    return math.fsum(terms), terms, RiW, uW


def _leave_one_out(stack):
    """Stack whose k-th entry is the product of all factors but the k-th (ones for a lone factor).

    Factors before k multiply in axis order, those after k in reverse order,
    each from its first factor."""
    if len(stack) == 1:
        return np.ones_like(stack)
    before = np.multiply.accumulate(stack[:-1], axis=0)  # before[k]: factors 0..k
    after = np.multiply.accumulate(stack[:0:-1], axis=0)  # after[k]: factors d-1 down to d-1-k
    return np.concatenate((after[-1:], before[:-1] * after[:-1][::-1], before[-1:]))


def _value_and_gradient(family, points):
    """Criterion of checked (n, d) points, its gradient and its rounding unit.

    The value is ``imspe(family, points).value`` bit for bit: the same
    canonical points, axis factors, products, factor and exact sum. The
    rounding unit is machine epsilon times the sum of the magnitudes of the
    value's five terms: the value is a small difference of terms near 1, so
    it is rounded on their scale, not on its own. The gradient, shaped like
    ``points``, comes from one factor of R as the adjoint of the assembly.
    With u = R^{-1} 1, c = 1'u, N = 1 - 2 u'v + u'Wu and z = R^{-1} (W u - v):

        df/dW = uu'/c - R^{-1}
        df/dv = -2 u / c
        df/dR = R^{-1} W R^{-1} - (z u' + u z') / c + N uu' / c^2

    Coordinate x_ik enters row and column i of R and W and entry i of v,
    each through its axis-k factor, so the chain rule contracts the stack of
    per-axis slopes, times the stack of products of the other axes' factors,
    over rows, for all axes at once, in O(n^2 d).
    A tied coordinate takes sign(0) = 0 in R, the mean of the one-sided
    slopes of the exponential kernel. Rows and signs are mapped back through
    the canonicalization. Raises SingularDesignError like ``imspe()``.
    """
    canonical, signs = _canonical_form(points)
    n = canonical.shape[0]
    (kind, theta, col, row), factors, R, W, v = _assemble(family, canonical)
    c, u, denom = _factor(R)
    value, terms, RiW, uW = _value(c, u, denom, W, v)

    # the value above used solves only; the adjoint needs R^{-1} itself
    Rinv = _solve(c, np.eye(n))
    uu = u[:, None] * u / denom
    numerator = 1.0 - 2.0 * float(u @ v) + float(uW @ u)
    z = Rinv @ (uW - v)
    dW = uu - Rinv
    dv = -2.0 * u / denom
    RiWRi = _solve(c, RiW.T)
    dR = RiWRi - (z[:, None] * u + u[:, None] * z) / denom + numerator * uu / denom
    gap = col - row
    sR = _DRHO[kind](theta, np.abs(gap)) * np.sign(gap)
    sW = _DPAIR[kind](theta, col, row)
    sv = _dsingle(kind, theta, col)[:, :, 0]
    R_rest, W_rest, v_rest = map(_leave_one_out, factors)
    # R and W are symmetric, so row i and column i contribute alike
    rows = (dR * sR * R_rest).sum(axis=2) + (dW * sW * W_rest).sum(axis=2)
    grad = (2.0 * rows + dv * sv * v_rest).T
    flipped = points * signs
    out = np.empty(points.shape)
    out[np.lexsort(flipped.T[::-1])] = grad * signs
    return value, out, _EPS * math.fsum(abs(t) for t in terms)


def imspe_value(family, design):
    """Shorthand for ``imspe(family, design).value``."""
    return imspe(family, design).value


def mspe_evaluator(family, design):
    """Build a callable x -> pointwise prediction variance, factorizing R once.

    The callable accepts a scalar (d = 1), a flat array of d = 1 locations,
    or an (m, d) array, returning a float or a length-m vector. Locations may
    fall slightly outside the box, which quadrature rules need.
    """
    dsn = as_design(design)
    R = build_correlation_matrix(family, dsn)
    _check_finite(family, R=R)
    c, u, denom = _factor(R)

    def profile(x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        if not np.isfinite(arr).all():
            raise InvalidDesignError("locations must be finite")
        r = cross_correlation(family, dsn.points, arr.reshape(1, -1) if scalar else arr)
        _check_finite(family, r=r)
        solved = _solve(c, r)
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
