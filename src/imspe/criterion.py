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
from .integrals import pair_integral, single_integral
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
    # the criterion is invariant under point relabeling and per-axis
    # reflection; evaluating every member of that orbit at one canonical
    # representative makes the invariances hold to the last bit (sign flips
    # and row reordering are exact operations on binary64 values). Above
    # d = 16 the 2^d sign flips cost too much, so only the rows are sorted
    # and reflection invariance holds only to rounding
    n, d = points.shape
    if d > 16:
        return sorted_rows(points)
    best = None
    best_key = None
    for mask in range(1 << d):
        signs = np.where((mask >> np.arange(d)) & 1, -1.0, 1.0)
        variant = sorted_rows(points * signs)
        key = tuple(variant.ravel().tolist())
        if best_key is None or key < best_key:
            best, best_key = variant, key
    return best


def build_correlation_matrix(family, design):
    """Symmetric n x n matrix of pairwise design correlations, unit diagonal."""
    dsn = as_design(design)
    return cross_correlation(family, dsn.points, dsn.points)


def build_pair_matrix(family, design):
    """Symmetric n x n matrix of pair averages W_ij over the box.

    Each entry is the product over dimensions of the one-dimensional pair
    average at the two points' coordinates in that dimension.
    """
    dsn = as_design(design)
    th = family.theta_for_dimension(dsn.d)
    out = np.ones((dsn.n, dsn.n))
    for k in range(dsn.d):
        col = dsn.points[:, k]
        out *= pair_integral(family.kind, th[k], col[:, None], col[None, :])
    return out


def build_single_vector(family, design):
    """Length-n vector of single averages v_i over the box (tensor product over dimensions)."""
    dsn = as_design(design)
    th = family.theta_for_dimension(dsn.d)
    out = np.ones(dsn.n)
    for k in range(dsn.d):
        out *= single_integral(family.kind, th[k], dsn.points[:, k])
    return out


def _factor(R):
    """Cholesky factor of R, u = R^{-1} 1 and 1'u, or SingularDesignError.

    Raises when R has no Cholesky factor (the error carries an infinite
    condition estimate) or when 1'R^{-1}1 is not positive and finite.
    """
    try:
        cho = cho_factor(R, lower=True)
    except LinAlgError as exc:
        raise SingularDesignError(
            f"correlation matrix is not positive definite: {exc}",
            condition_estimate=float("inf"),
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

    The points are canonicalized first, so for d <= 16 the value is
    bitwise invariant under point permutation and per-axis reflection. For
    d > 16 only the rows are sorted: permutation invariance stays bitwise,
    reflection invariance holds only to rounding.

    Raises
    ------
    SingularDesignError
        If R has no Cholesky factorization (coincident or near-coincident
        points).
    """
    dsn = as_design(_canonical_evaluation_points(as_design(design).points))
    R = build_correlation_matrix(family, dsn)
    W = build_pair_matrix(family, dsn)
    v = build_single_vector(family, dsn)
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
