"""Stationary correlation families and design containers.

Four one-dimensional correlation functions are supported, each with a
positive length-scale parameter theta:

    exponential   rho(h) = exp(-theta h)
    gaussian      rho(h) = exp(-theta h^2)
    matern32      rho(h) = (1 + sqrt(3 theta) h) exp(-sqrt(3 theta) h)
    matern52      rho(h) = (1 + sqrt(5 theta) h + (5 theta / 3) h^2) exp(-sqrt(5 theta) h)

Multidimensional correlation is the anisotropic tensor product of the
one-dimensional function over coordinates, with a separate theta per
dimension if desired. ``cross_correlation`` and the criterion's assembly
take every product over coordinates alike: ``_operands`` stacks the
coordinate columns, one closed-form call covers all axes, and ``_product``
multiplies the stack over them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDesignError, InvalidHyperparameterError

FAMILY_KINDS = ("exponential", "gaussian", "matern32", "matern52")


def _rho_exponential(theta, h):
    return np.exp(-theta * h)


def _rho_gaussian(theta, h):
    return np.exp(-theta * h * h)


def _rho_matern32(theta, h):
    u = np.sqrt(3.0 * theta) * h
    return (1.0 + u) * np.exp(-u)


def _rho_matern52(theta, h):
    s = np.sqrt(5.0 * theta) * h
    return (1.0 + s + s * s / 3.0) * np.exp(-s)


_RHO = {
    "exponential": _rho_exponential,
    "gaussian": _rho_gaussian,
    "matern32": _rho_matern32,
    "matern52": _rho_matern52,
}


# derivatives rho'(h) for h >= 0, the slopes the criterion's gradient needs
def _drho_exponential(theta, h):
    return -theta * np.exp(-theta * h)


def _drho_gaussian(theta, h):
    return -2.0 * theta * h * np.exp(-theta * h * h)


def _drho_matern32(theta, h):
    u = np.sqrt(3.0 * theta)
    return -u * u * h * np.exp(-u * h)


def _drho_matern52(theta, h):
    s = np.sqrt(5.0 * theta)
    return -(s * s * h / 3.0) * (1.0 + s * h) * np.exp(-s * h)


_DRHO = {
    "exponential": _drho_exponential,
    "gaussian": _drho_gaussian,
    "matern32": _drho_matern32,
    "matern52": _drho_matern52,
}


def validate_kind(kind):
    if kind not in _RHO:
        raise InvalidHyperparameterError(
            f"unknown covariance kind {kind!r}; expected one of {FAMILY_KINDS}"
        )
    return kind


def validate_theta(theta):
    arr = np.asarray(theta, dtype=float)
    if arr.size == 0 or not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise InvalidHyperparameterError(
            f"theta must be positive and finite, got {theta!r}"
        )
    return arr


def rho(kind, theta, h):
    """Evaluate a one-dimensional correlation function.

    Parameters
    ----------
    kind : str
        One of ``FAMILY_KINDS``.
    theta : float
        Positive length-scale parameter.
    h : float or ndarray
        Coordinate offset; only ``|h|`` matters.

    Returns
    -------
    float or ndarray
        Correlation value(s) in (0, 1], with rho(0) = 1 exactly.
    """
    validate_kind(kind)
    return _RHO[kind](validate_theta(theta), np.abs(h))


@dataclass(frozen=True)
class CovarianceFamily:
    """A correlation family tag plus its per-dimension length scales.

    ``theta`` is stored as a tuple. A single value broadcasts across every
    dimension of whatever design the family is later paired with; a tuple of
    length d is anisotropic and only valid for d-dimensional designs.
    """

    kind: str
    theta: tuple

    def __init__(self, kind, theta):
        object.__setattr__(self, "kind", validate_kind(str(kind).lower()))
        arr = np.atleast_1d(validate_theta(theta))
        if arr.ndim != 1:
            raise InvalidHyperparameterError("theta must be a scalar or a flat sequence")
        object.__setattr__(self, "theta", tuple(float(t) for t in arr))

    def theta_for_dimension(self, d):
        """Per-dimension theta vector of length ``d``, broadcasting a lone value."""
        if len(self.theta) == 1:
            return np.full(d, self.theta[0])
        if len(self.theta) != d:
            raise InvalidHyperparameterError(
                f"got {len(self.theta)} theta values for a {d}-dimensional design"
            )
        return np.asarray(self.theta, dtype=float)


def _as_points(points):
    pts = np.array(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise InvalidDesignError(
            f"points must form an n x d array, got shape {np.shape(points)}"
        )
    return pts


@dataclass(frozen=True, eq=False)
class Design:
    """n points in the closed unit box [-1, 1]^d, stored as a read-only (n, d) array.

    A flat sequence is treated as n one-dimensional points.
    """

    points: np.ndarray

    def __init__(self, points):
        pts = _as_points(points)
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InvalidDesignError("a design needs at least one point and one dimension")
        if not np.all(np.isfinite(pts)):
            raise InvalidDesignError("design coordinates must be finite")
        if np.any(np.abs(pts) > 1.0):
            raise InvalidDesignError("design coordinates must lie in [-1, 1]")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]


def as_design(design):
    """Coerce an array-like (or pass through a Design) with full validation."""
    return design if isinstance(design, Design) else Design(design)


def correlation(family, x, y):
    """Product correlation between two points under ``family``.

    The one entry of ``cross_correlation`` for the two points. Accepts
    points slightly outside the unit box so quadrature abscissae can be
    evaluated without ceremony. Returns a float in (0, 1], equal to 1.0
    exactly when x == y coordinatewise.
    """
    return float(cross_correlation(family, [x], [y])[0, 0])


def _operands(family, points, other=None):
    """Kind, theta, and the (d, n, 1) and (d, 1, m) column stacks of checked points.

    ``other`` (m, d) defaults to ``points`` (n, d), whose columns are then
    copied once. One theta for all axes stays a scalar and one theta per
    axis is a (d, 1, 1) stack; either broadcasts over the columns.
    """
    theta = (np.float64(family.theta[0]) if len(family.theta) == 1
             else family.theta_for_dimension(points.shape[1])[:, None, None])
    # the closed forms run faster on a contiguous copy than on points.T
    cols = np.ascontiguousarray(points.T)
    rows = cols if other is None else np.ascontiguousarray(other.T)
    return family.kind, theta, cols[:, :, None], rows[:, None, :]


def _correlations(kind, theta, col, row):
    """Per-axis correlation factors of ``_operands``' stacks, a (d, n, m) stack."""
    return _RHO[kind](theta, np.abs(col - row))


def _product(stack):
    """Product over the axes of a (d, ...) stack, in axis order; one axis is its own factor."""
    return stack[0] if len(stack) == 1 else np.multiply.reduce(stack, axis=0)


def cross_correlation(family, points, other):
    """Correlation matrix between two point sets.

    Parameters
    ----------
    family : CovarianceFamily
    points : array-like, shape (n, d) or flat length n for d = 1
    other : array-like, shape (m, d) or flat length m for d = 1

    Returns
    -------
    ndarray, shape (n, m)
    """
    pts = _as_points(points)
    oth = _as_points(other)
    if pts.shape[1] != oth.shape[1]:
        raise InvalidDesignError("point sets must share a dimension")
    return _product(_correlations(*_operands(family, pts, oth)))
