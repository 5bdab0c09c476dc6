"""Deterministic quadrature oracle used to certify the closed forms.

The integrands are smooth except where |a - x| or |b - x| vanishes (the
exponential and Matern kernels have derivative kinks at zero distance), so
the domain is split into panels at those abscissae. Each panel gets one
fixed Gauss-Legendre rule and is split at its midpoint until two successive
refinements agree to a relative tolerance, which certifies the closed forms
to near machine precision without Monte Carlo noise. Refinement interleaves
the midpoints into the sorted breaks. The first two levels come from one
integrand call, and each later level from one call of its own. Each level's
sum is one exact math.fsum over its products, so results do not depend on
panel order or on which levels share a call. A level sum that is not
finite can never stabilize, so it ends the refinement and is returned.

The kernel oracles ``integrate_pair`` and ``integrate_single`` take their
arguments through ``kernels.validate_args``, the rule of ``rho`` and the
closed forms, plus single-valued anchors, and multiply kernels through
``kernels._correlations`` and ``_product``, the path of
``cross_correlation`` and the assembly. They refuse two results that a
kernel average cannot have: a non-finite one raises
``InvalidHyperparameterError`` naming the kind and theta, as the closed
forms do, after the first integrand call; and 0.0, which means the kernel
is narrower than the finest panel and was never resolved, raises
``OracleDivergenceError``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .criterion import mspe_evaluator
from .errors import OracleDivergenceError
# rho is unused here but stays bound: bench/spans.py looks it up on this module to trace it
from .kernels import _check_finite, _correlations, _is_positive_real, _product, as_design, rho, validate_args  # noqa: F401


@dataclass(frozen=True)
class QuadratureSpec:
    """Stopping rule: successive refinements agree to ``rtol``, relative."""

    rtol: float = 1e-13

    def __post_init__(self):
        if not _is_positive_real(self.rtol):
            raise ValueError("rtol must be finite and positive")


DEFAULT_SPEC = QuadratureSpec()


@functools.cache
def _gauss_legendre():
    # leggauss loses accuracy above about 100 nodes, so panels split instead;
    # built on first use, not at import, as leggauss loads numpy's eigen-solver
    return np.polynomial.legendre.leggauss(64)


def _panel_breaks(splits):
    # NaN fails both comparisons; 0.0 and -0.0 are one break, and either
    # sign gives the same nodes and weights
    interior = sorted({x for x in map(float, splits) if -1.0 < x < 1.0})
    return np.array([-1.0, *interior, 1.0])


def _refined(breaks):
    """The sorted breaks with every panel's midpoint between its ends.

    A midpoint lies in its panel's closed range, so the interleaved array
    is sorted; one that rounds onto an end (ends one ulp apart) is dropped.
    """
    out = np.empty(2 * breaks.size - 1)
    out[::2] = breaks
    out[1::2] = 0.5 * (breaks[:-1] + breaks[1:])
    return out[np.concatenate(([True], out[1:] != out[:-1]))]


def _averages(func, levels):
    """(1/2) * the fixed rule's sum over the panels of each break array, one func call for all."""
    nodes, weights = _gauss_legendre()
    lo = np.concatenate([breaks[:-1] for breaks in levels])
    hi = np.concatenate([breaks[1:] for breaks in levels])
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    products = iter((w * np.asarray(func(x), dtype=float)).tolist())
    # fsum is exact, so each level's sum does not depend on the panels' order
    return [
        0.5 * math.fsum(itertools.islice(products, nodes.size * (breaks.size - 1)))
        for breaks in levels
    ]


def average_over_domain(func, splits=(), spec=DEFAULT_SPEC):
    """(1/2) * int_{-1}^{1} func(x) dx by Gauss-Legendre on ever finer panels.

    The first call to ``func`` takes the nodes of the first two levels in
    one array, and each later level takes a call of its own, so each value
    ``func`` returns may depend only on its own abscissa, never on the
    others or on how many there are.

    Parameters
    ----------
    func : callable
        Vectorized integrand mapping an ndarray of abscissae to values,
        elementwise.
    splits : iterable of float
        Abscissae where the integrand loses smoothness; points outside the
        open interval are ignored.
    spec : QuadratureSpec

    Returns
    -------
    float
        The first level that agrees with the one before it, or the first
        level sum that is not finite, which no refinement can stabilize.
        An integrand whose average is 0 (an odd one) gives 0.0.

    Raises
    ------
    OracleDivergenceError
        If successive refinements never agree to ``spec.rtol``. The kernel
        oracles refuse two results of this function: a non-finite one
        raises ``InvalidHyperparameterError`` naming the kind and theta,
        and 0.0, a kernel narrower than the finest panel, raises
        ``OracleDivergenceError``.
    """
    breaks = _panel_breaks(splits)
    finer = _refined(breaks)
    previous, value = _averages(func, (breaks, finer))
    for split in range(6):  # six midpoint splits make 64 sub-panels of every panel
        if split:
            finer = _refined(finer)
            previous, (value,) = value, _averages(func, (finer,))
        if not math.isfinite(value) or abs(value - previous) <= spec.rtol * max(abs(value), 1e-300):
            return value
    raise OracleDivergenceError(
        f"quadrature did not stabilize to rtol={spec.rtol:g} "
        "after splitting every panel into 64 sub-panels"
    )


def _average_of_product(kind, theta, spec, **anchors):
    """(1/2) * int of the product of rho(|p - x|) over the anchors p, in order, on [-1, 1].

    The one entry of both kernel oracles: each anchor must be a single
    value, checked once here. Panels split at the anchors. A kernel average
    is positive and finite, so a non-finite average and 0.0 are refused.
    """
    checked, *points = validate_args(kind, theta, *anchors.values())
    for (name, value), point in zip(anchors.items(), points):
        if point.size != 1:
            raise ValueError(f"anchor {name} must be a single value, got {value!r}")
    column = np.concatenate([point.reshape(1, 1) for point in points])

    def integrand(x):
        return _product(_correlations(kind, checked, x, column))

    average = average_over_domain(integrand, column[:, 0], spec)
    # NaN fails both comparisons; _check_finite runs only to name a non-finite average
    if not 0.0 < average < math.inf:
        _check_finite(kind, checked, average=average)
        raise OracleDivergenceError(
            f"{kind} correlation at theta {np.ravel(checked).tolist()} is narrower than "
            "the finest panel: the oracle never resolved it and its average is 0.0"
        )
    return average


def integrate_pair(kind, theta, a, b, spec=DEFAULT_SPEC):
    """Oracle value of (1/2) * int rho(|a - x|) rho(|b - x|) dx on [-1, 1].

    Panels split at a and b. Matches pair_integral to near machine
    precision; the test suite holds the two within 1e-12 relative.
    """
    return _average_of_product(kind, theta, spec, a=a, b=b)


def integrate_single(kind, theta, a, spec=DEFAULT_SPEC):
    """Oracle value of (1/2) * int rho(|a - x|) dx on [-1, 1], split at a."""
    return _average_of_product(kind, theta, spec, a=a)


def integrate_mspe(family, design, spec=DEFAULT_SPEC):
    """Average the pointwise prediction variance by direct quadrature (d = 1 only).

    This is the independent route to the design criterion: it never touches
    the closed-form kernel averages, only the pointwise profile, so it
    cross-checks the full criterion assembly.
    """
    dsn = as_design(design)
    if dsn.d != 1:
        raise ValueError(
            "direct profile quadrature is one-dimensional; "
            "the closed-form criterion handles d > 1"
        )
    profile = mspe_evaluator(family, dsn)
    return average_over_domain(profile, tuple(dsn.points[:, 0]), spec)


__all__ = [
    "QuadratureSpec",
    "DEFAULT_SPEC",
    "average_over_domain",
    "integrate_pair",
    "integrate_single",
    "integrate_mspe",
]
