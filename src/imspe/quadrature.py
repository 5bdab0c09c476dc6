"""Deterministic quadrature oracle used to certify the closed forms.

The integrands are smooth except where |a - x| or |b - x| vanishes (the
exponential and Matern kernels have derivative kinks at zero distance), so
the domain is split into panels at those abscissae. Each panel gets one
fixed Gauss-Legendre rule and is split at its midpoint until two successive
refinements agree to a relative tolerance, which certifies the closed forms
to near machine precision without Monte Carlo noise. All summation goes
through math.fsum, so results do not depend on panel order. Arguments are
checked once, on entry; the integrands evaluate the kernel unchecked.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .criterion import mspe_evaluator
from .errors import OracleDivergenceError
from .integrals import _validate_args
# rho is unused here but stays bound: bench/spans.py looks it up on this module to trace it
from .kernels import _RHO, as_design, rho  # noqa: F401


@dataclass(frozen=True)
class QuadratureSpec:
    """Stopping rule: successive refinements agree to ``rtol``, relative."""

    rtol: float = 1e-13

    def __post_init__(self):
        if not 0.0 < self.rtol < math.inf:
            raise ValueError("rtol must be finite and positive")


DEFAULT_SPEC = QuadratureSpec()


@functools.cache
def _gauss_legendre():
    # leggauss loses accuracy above about 100 nodes, so panels split instead;
    # built on first use, not at import, as leggauss loads numpy's eigen-solver
    return np.polynomial.legendre.leggauss(64)


def _panel_breaks(splits):
    interior = [float(p) for p in splits if -1.0 < float(p) < 1.0]
    return np.unique(np.array([-1.0, 1.0] + interior))


def _fixed_rule(func, breaks):
    nodes, weights = _gauss_legendre()
    lo = breaks[:-1]
    hi = breaks[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return math.fsum(w * np.asarray(func(x), dtype=float))


def average_over_domain(func, splits=(), spec=DEFAULT_SPEC):
    """(1/2) * int_{-1}^{1} func(x) dx by Gauss-Legendre on ever finer panels.

    Parameters
    ----------
    func : callable
        Vectorized integrand mapping an ndarray of abscissae to values.
    splits : iterable of float
        Abscissae where the integrand loses smoothness; points outside the
        open interval are ignored.
    spec : QuadratureSpec

    Raises
    ------
    OracleDivergenceError
        If successive refinements never agree to ``spec.rtol``.
    """
    breaks = _panel_breaks(splits)
    previous = 0.5 * _fixed_rule(func, breaks)
    for _ in range(6):  # six midpoint splits make 64 sub-panels of every panel
        breaks = np.unique(np.concatenate((breaks, 0.5 * (breaks[:-1] + breaks[1:]))))
        value = 0.5 * _fixed_rule(func, breaks)
        if abs(value - previous) <= spec.rtol * max(abs(value), 1e-300):
            return value
        previous = value
    raise OracleDivergenceError(
        f"quadrature did not stabilize to rtol={spec.rtol:g} "
        "after splitting every panel into 64 sub-panels"
    )


def integrate_pair(kind, theta, a, b, spec=DEFAULT_SPEC):
    """Oracle value of (1/2) * int rho(|a - x|) rho(|b - x|) dx on [-1, 1].

    Panels split at a and b. Matches pair_integral to near machine
    precision; the test suite holds the two within 1e-12 relative.
    """
    theta = _validate_args(kind, theta, a, b)[0]
    af, bf = float(a), float(b)

    def integrand(x):
        return _RHO[kind](theta, np.abs(x - af)) * _RHO[kind](theta, np.abs(x - bf))

    return average_over_domain(integrand, (af, bf), spec)


def integrate_single(kind, theta, a, spec=DEFAULT_SPEC):
    """Oracle value of (1/2) * int rho(|a - x|) dx on [-1, 1], split at a."""
    theta = _validate_args(kind, theta, a)[0]
    af = float(a)

    def integrand(x):
        return _RHO[kind](theta, np.abs(x - af))

    return average_over_domain(integrand, (af,), spec)


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
