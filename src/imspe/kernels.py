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

import math
import numbers
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


def _is_positive_real(value):
    """Whether value is a real number in (0, inf); a bool is not, and a numpy bool is no Real."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0.0 < value < math.inf


def validate_theta(theta):
    arr = np.asarray(theta)
    # a bool, string or complex theta is no real number; NaN fails both comparisons
    if arr.dtype.kind not in "iuf" or arr.size == 0 or not ((arr > 0.0) & (arr < np.inf)).all():
        raise InvalidHyperparameterError(
            f"theta must be real, positive and finite, got {theta!r}"
        )
    return np.asarray(arr, dtype=float)


def validate_args(kind, theta, *anchors):
    """The checked (theta, *anchors) arrays of ``rho``, the kernel averages or their oracle.

    The one argument rule of those entries: a known kind, one positive finite
    real theta (returned 0-d) and anchors of any shape, finite and in [-1, 1].
    """
    validate_kind(kind)
    checked = np.asarray(theta)
    # NaN fails both comparisons; validate_theta runs only to name a bad value
    if checked.dtype.kind not in "iuf" or checked.size != 1 or not 0.0 < checked.item() < math.inf:
        validate_theta(theta)
        raise InvalidHyperparameterError(f"a kernel and its averages take one theta, got {theta!r}")
    arrays = [np.asarray(anchor, dtype=float) for anchor in anchors]
    # NaN fails the comparison too
    if any(np.count_nonzero(abs(arr) <= 1.0) != arr.size for arr in arrays):
        raise ValueError("integral anchor points must be finite and lie in [-1, 1]")
    return (np.asarray(checked, dtype=float).reshape(()), *arrays)


def _check_finite(kind, theta, **arrays):
    """InvalidHyperparameterError naming the kind, theta and array if one is not finite."""
    for name, array in arrays.items():
        if not np.isfinite(array).all():
            raise InvalidHyperparameterError(
                f"{kind} correlation at theta {np.ravel(theta).tolist()} is not finite "
                f"in double precision ({name} has inf or nan entries)"
            )


def rho(kind, theta, h):
    """Evaluate a one-dimensional correlation function.

    Parameters
    ----------
    kind : str
        One of ``FAMILY_KINDS``.
    theta : float
        Positive length scale; one value, as the kernel averages take.
    h : float or ndarray
        Coordinate offset, any real value; only ``|h|`` matters.

    Returns
    -------
    float or ndarray
        The kernel's IEEE value(s), in [0, 1] where finite: 1.0 at h = 0 and
        wherever the kernel rounds to 1 (gaussian theta = 1 at h = 1e-9), and
        0.0 once it underflows (exponential theta = 1 at h = 1000). The
        Matern kernels give NaN where 3 theta, 5 theta or the scaled offset
        s h (for matern52, its square) overflows: both at theta = 1e308, and
        matern52 at theta = 1, h = 1e154.
    """
    (checked,) = validate_args(kind, theta)
    return _RHO[kind](checked, np.abs(h))


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
    """A float copy of array-like points as an (n, d) array; a flat sequence gives d = 1.

    Raises InvalidDesignError for a ragged sequence, for coordinates that
    are not integer or floating-point numbers (bools, strings, complex
    numbers, objects) and for any other number of dimensions.
    """
    try:
        pts = np.array(points)
    except ValueError:
        raise InvalidDesignError("points must form an n x d array, not a ragged sequence") from None
    if pts.dtype.kind not in "fiu":
        raise InvalidDesignError(f"design coordinates must be real numbers, got dtype {pts.dtype}")
    pts = pts.astype(float, copy=False)
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
        # one pass: NaN fails the comparison too; the message is picked on failure
        if not (np.abs(pts) <= 1.0).all():
            if not np.isfinite(pts).all():
                raise InvalidDesignError("design coordinates must be finite")
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
    evaluated without ceremony. Returns the product of ``rho``'s IEEE
    values: 1.0 where x == y coordinatewise and wherever the kernel rounds
    to 1, 0.0 once it underflows, and NaN where a Matern kernel overflows.
    """
    return float(cross_correlation(family, [x], [y])[0, 0])


def _operands(family, points, other=None):
    """Kind, theta, and the (d, n, 1) and (d, 1, m) column stacks of checked points.

    ``other`` (m, d) defaults to ``points`` (n, d), whose columns are then
    copied once. A stack of S designs, (S, n, d), gives (d, S, n, 1) and
    (d, S, 1, n) stacks: the axis stays first, so products over axes take
    one design or a stack alike. One theta for all axes stays a scalar and
    one theta per axis is a (d, 1, 1) (or (d, 1, 1, 1)) stack; either
    broadcasts over the columns.
    """
    theta = (np.float64(family.theta[0]) if len(family.theta) == 1
             else family.theta_for_dimension(points.shape[-1]).reshape((-1,) + (1,) * points.ndim))
    # the closed forms run faster on a contiguous copy than on points.T
    cols = np.ascontiguousarray(points.transpose(-1, *range(points.ndim - 1)))
    rows = cols if other is None else np.ascontiguousarray(other.T)
    return family.kind, theta, cols[..., None], rows[..., None, :]


def _correlations(kind, theta, col, row):
    """Per-axis correlation factors of ``_operands``' stacks, a (d, n, m) (or (d, S, n, n)) stack."""
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
        Products of ``rho``'s IEEE values over coordinates, NaN included.
    """
    return _cross_correlation(family, _as_points(points), _as_points(other))


def _cross_correlation(family, points, other):
    """``cross_correlation`` of (n, d) and (m, d) point arrays already read by ``_as_points``."""
    if points.shape[1] != other.shape[1]:
        raise InvalidDesignError("point sets must share a dimension")
    return _product(_correlations(*_operands(family, points, other)))


__all__ = [
    "FAMILY_KINDS",
    "CovarianceFamily",
    "Design",
    "as_design",
    "correlation",
    "cross_correlation",
    "rho",
]
