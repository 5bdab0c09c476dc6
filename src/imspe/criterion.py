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

Everything goes through a Cholesky factorization of R; an explicit inverse
is never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import SingularDesignError
# pair_integral and single_integral are re-exported: bench/spans.py traces them here
from .integrals import _PAIR, _SINGLE, pair_integral, single_integral  # noqa: F401
from .kernels import as_design, cross_correlation


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
    return points[np.lexsort(points.T[::-1])]


def _canonical_evaluation_points(points):
    # evaluating one representative per orbit under row permutation and
    # per-axis reflection makes both invariances exact (sign flips and row
    # moves are exact on binary64): the smallest flattened
    # sorted_rows(points * s) over sign vectors s, ties to the least flip
    # mask (bit k set when axis k is negated). It grows row by row: the next
    # row is the smallest any unplaced row can become (-|x| on an axis whose
    # sign is free, +1 until fixed) and fixes its nonzero axes; tied rows
    # branch, and branches whose signed points agree (0.0 == -0.0) merge
    n, d = points.shape
    neg = -np.abs(points)
    free = [True] * d
    branches = [([1.0] * d, list(range(n)), neg.tolist())]
    while True:
        head = min(min(rows) for _, _, rows in branches)
        grown = [
            ([-1.0 if f and x > 0.0 else v for v, f, x in zip(s, free, points[i])], rest, i)
            for s, rest, rows in branches for i, row in zip(rest, rows) if row == head
        ]
        grown.sort(key=lambda branch: [v < 0.0 for v in reversed(branch[0])])
        merged = {}
        for s, rest, i in grown:
            variant = sorted_rows(points * s)
            merged.setdefault((variant + 0.0).tobytes(), (variant, s, [j for j in rest if j != i]))
        free = [f and x == 0.0 for f, x in zip(free, head)]
        if not any(free) or not points[:, free].any():
            return min([entry[0] for entry in merged.values()], key=lambda v: v.ravel().tolist())
        branches = [
            (s, rest, np.where(free, neg[rest], points[rest] * s).tolist())
            for _, s, rest in merged.values()
        ]


def build_correlation_matrix(family, design):
    """Symmetric n x n matrix of pairwise design correlations, unit diagonal."""
    dsn = as_design(design)
    return cross_correlation(family, dsn.points, dsn.points)


def _averages(family, points):
    """W and v of checked (n, d) points in one pass over the axes, without argument checks."""
    n, d = points.shape
    th = family.theta_for_dimension(d)
    pair, single = _PAIR[family.kind], _SINGLE[family.kind]
    W = np.ones((n, n))
    v = np.ones(n)
    for k in range(d):
        col = points[:, k]
        W *= pair(th[k], col[:, None], col[None, :])
        v *= single(th[k], col)
    return W, v


def build_pair_matrix(family, design):
    """Symmetric n x n matrix of pair averages W_ij over the box (tensor product over axes)."""
    return _averages(family, as_design(design).points)[0]


def build_single_vector(family, design):
    """Length-n vector of single averages v_i over the box (tensor product over dimensions)."""
    return _averages(family, as_design(design).points)[1]


def _factor(R):
    """Cholesky factor of R, u = R^{-1} 1 and 1'u, or SingularDesignError.

    Raises when R has no finite Cholesky factor or when 1'R^{-1}1 is not
    positive and finite.
    """
    try:
        cho = cho_factor(R, lower=True)
    except LinAlgError as exc:
        raise SingularDesignError(
            f"correlation matrix is not positive definite: {exc}"
        ) from exc
    diag = np.diag(cho[0])
    if not np.all(np.isfinite(cho[0])) or np.any(diag <= 0.0):
        raise SingularDesignError("correlation matrix factorization produced non-finite entries")
    ones = np.ones(R.shape[0])
    u = cho_solve(cho, ones)
    denom = float(u @ ones)
    if not math.isfinite(denom) or denom <= 0.0:
        raise SingularDesignError(
            "correlation matrix is numerically singular (1'R^{-1}1 not positive)"
        )
    return cho, u, denom


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
        On bad points, or a theta count that is neither 1 nor d.
    SingularDesignError
        If R has no Cholesky factorization (coincident or near-coincident
        points).
    """
    points = _canonical_evaluation_points(as_design(design).points)
    R = cross_correlation(family, points, points)
    W, v = _averages(family, points)
    cho, u, denom = _factor(R)
    trace = float(np.trace(cho_solve(cho, W)))
    lin = float(u @ v)
    quad = float(u @ W @ u)
    # exact summation keeps the n = 1 identity value == 2 - 2 v[0] bit-exact
    value = math.fsum((1.0, -trace, 1.0 / denom, -2.0 * lin / denom, quad / denom))
    return ImspeEvaluation(value=value, R=R, W=W, v=v)


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
    cho, u, denom = _factor(R)

    def profile(x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        r = cross_correlation(family, dsn.points, arr.reshape(1, -1) if scalar else arr)
        solved = cho_solve(cho, r)
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
