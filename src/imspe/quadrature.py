"""Deterministic quadrature oracle used to certify the closed forms.

The integrands are smooth except where |a - x| or |b - x| vanishes (the
exponential and Matern kernels have derivative kinks at zero distance), so
the domain is split into panels at those abscissae and each panel gets a
Gauss-Legendre rule. The node count per panel is doubled until two
successive refinements agree to a relative tolerance, which certifies the
closed forms to near machine precision without Monte Carlo noise. All
summation goes through math.fsum, so results do not depend on panel order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .criterion import mspe_evaluator
from .errors import OracleDivergenceError
from .kernels import as_design, rho, validate_kind, validate_theta


@dataclass(frozen=True)
class QuadratureSpec:
    """Refinement policy: base rule size and stopping rule."""

    nodes_per_panel: int = 64
    rtol: float = 1e-13
    max_doublings: int = 6

    def __post_init__(self):
        if self.nodes_per_panel < 2:
            raise ValueError("nodes_per_panel must be at least 2")
        if self.rtol <= 0.0:
            raise ValueError("rtol must be positive")
        if self.max_doublings < 0:
            raise ValueError("max_doublings must be nonnegative")


DEFAULT_SPEC = QuadratureSpec()


@lru_cache(maxsize=64)
def _gauss_legendre(n):
    return np.polynomial.legendre.leggauss(n)


def _panel_breaks(splits):
    interior = [float(p) for p in splits if -1.0 < float(p) < 1.0]
    return np.unique(np.array([-1.0, 1.0] + interior))


def _fixed_rule(func, breaks, nodes_per_panel):
    nodes, weights = _gauss_legendre(nodes_per_panel)
    lo = breaks[:-1]
    hi = breaks[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return math.fsum(w * np.asarray(func(x), dtype=float))


def average_over_domain(func, splits=(), spec=DEFAULT_SPEC):
    """(1/2) * int_{-1}^{1} func(x) dx by panelwise Gauss-Legendre refinement.

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
    n = spec.nodes_per_panel
    previous = None
    for _ in range(spec.max_doublings + 1):
        value = 0.5 * _fixed_rule(func, breaks, n)
        if previous is not None and abs(value - previous) <= spec.rtol * max(abs(value), 1e-300):
            return value
        previous = value
        n *= 2
    raise OracleDivergenceError(
        f"quadrature did not stabilize to rtol={spec.rtol:g} "
        f"after refining to {n // 2} nodes per panel"
    )


def integrate_pair(kind, theta, a, b, spec=DEFAULT_SPEC):
    """Oracle value of (1/2) * int rho(|a - x|) rho(|b - x|) dx on [-1, 1].

    Panels split at a and b. Matches pair_integral to near machine
    precision; the test suite holds the two within 1e-12 relative.
    """
    validate_kind(kind)
    validate_theta(theta)
    af = float(a)
    bf = float(b)

    def integrand(x):
        return rho(kind, theta, x - af) * rho(kind, theta, x - bf)

    return average_over_domain(integrand, (af, bf), spec)


def integrate_single(kind, theta, a, spec=DEFAULT_SPEC):
    """Oracle value of (1/2) * int rho(|a - x|) dx on [-1, 1], split at a."""
    validate_kind(kind)
    validate_theta(theta)
    af = float(a)

    def integrand(x):
        return rho(kind, theta, x - af)

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
