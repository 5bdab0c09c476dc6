"""Stationary correlation families and design containers.

Four one-dimensional correlation functions are supported, each with a
positive length-scale parameter theta:

    exponential   rho(h) = exp(-theta h)
    gaussian      rho(h) = exp(-theta h^2)
    matern32      rho(h) = (1 + sqrt(3 theta) h) exp(-sqrt(3 theta) h)
    matern52      rho(h) = (1 + sqrt(5 theta) h + (5 theta / 3) h^2) exp(-sqrt(5 theta) h)

Multidimensional correlation is the anisotropic tensor product of the
one-dimensional function over coordinates, with a separate theta per
dimension if desired.
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
    validate_theta(theta)
    return _RHO[kind](theta, np.abs(h))


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
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    if xa.shape != ya.shape or xa.ndim != 1:
        raise InvalidDesignError("x and y must be coordinate vectors of equal length")
    return float(cross_correlation(family, xa[None, :], ya[None, :])[0, 0])


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
    th = family.theta_for_dimension(pts.shape[1])
    fn = _RHO[family.kind]
    out = np.ones((pts.shape[0], oth.shape[0]))
    for k in range(pts.shape[1]):
        out *= fn(th[k], np.abs(pts[:, k, None] - oth[None, :, k]))
    return out
