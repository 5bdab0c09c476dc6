"""Closed-form domain averages of kernel values and kernel products over [-1, 1].

Two building blocks feed the integrated-variance criterion, both expressed
as averages (integral divided by the domain length 2):

    single_integral(kind, theta, a)     = (1/2) * int_{-1}^{1} rho(|a - x|) dx
    pair_integral(kind, theta, a, b)    = (1/2) * int_{-1}^{1} rho(|a - x|) rho(|b - x|) dx

Each supported family admits elementary antiderivatives, so both averages
reduce to polynomial-times-exponential expressions (erf for the gaussian
family). The pair averages for the Matern kernels share one shape: a
stationary bracket in |b - a| whose integer coefficients are rows of the
Bessel-polynomial triangle, minus boundary brackets symmetrized by the
joint sign flip (a, b) -> (-a, -b).

Every formula here is certified against panelwise Gauss-Legendre quadrature
in the test suite; see quadrature.py for the oracle.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from .kernels import validate_kind, validate_theta

# Stationary-bracket coefficients, highest-order Bessel rows first entry:
# reversed rows n = 3 and n = 5 of the Bessel polynomial triangle.
BESSEL_BRACKET_MATERN32 = (15, 15, 6, 1)
BESSEL_BRACKET_MATERN52 = (945, 945, 420, 105, 15, 1)


def bessel_polynomial_coefficients(degree):
    """Coefficients of the degree-n Bessel polynomial y_n in ascending order.

    Built from the recurrence y_n = y_{n-2} + (2n - 1) x y_{n-1} with
    y_0 = 1 and y_1 = 1 + x.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree == 0:
        return (1,)
    prev, cur = [1], [1, 1]
    for n in range(2, degree + 1):
        nxt = [0] * (n + 1)
        for i, c in enumerate(prev):
            nxt[i] += c
        for i, c in enumerate(cur):
            nxt[i + 1] += (2 * n - 1) * c
        prev, cur = cur, nxt
    return tuple(cur)


def _verify_bessel_brackets():
    # brackets must equal reversed Bessel rows; wrong coefficients would
    # silently corrupt every Matern integral, so refuse to import
    for bracket, degree in (
        (BESSEL_BRACKET_MATERN32, 3),
        (BESSEL_BRACKET_MATERN52, 5),
    ):
        expected = tuple(reversed(bessel_polynomial_coefficients(degree)))
        if bracket != expected:
            raise AssertionError(
                f"stationary bracket {bracket} does not match Bessel row {degree} {expected}"
            )


_verify_bessel_brackets()


def symmetrize_plus(f, a, b):
    """Apply the joint sign-flip symmetrizer: f(a, b) + f(-a, -b).

    The boundary terms of every pair integral on [-1, 1] occur in pairs
    related by reflecting both arguments through the origin; this operator
    names that pattern. For f(a, b) = 1 + (a + b)/2 the result is exactly 2
    for any a, b.
    """
    return f(a, b) + f(-a, -b)


def _validate_args(kind, theta, *coords):
    validate_kind(kind)
    validate_theta(theta)
    for c in coords:
        arr = np.asarray(c, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("integral anchor points must be finite")
        if np.any(np.abs(arr) > 1.0):
            raise ValueError("integral anchor points must lie in [-1, 1]")


def _pair_exponential(theta, a, b):
    """Pair average for rho(h) = exp(-theta h).

    With delta = |b - a| and S = a + b:

        ( (1 + theta delta) e^{-theta delta}
          - (1/2) (e^{-theta (2 + S)} + e^{-theta (2 - S)}) ) / (2 theta)
    """
    th = np.asarray(theta, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    delta = np.abs(b - a)
    ssum = a + b
    stationary = (1.0 + th * delta) * np.exp(-th * delta)
    boundary = 0.5 * (np.exp(-th * (2.0 + ssum)) + np.exp(-th * (2.0 - ssum)))
    return (stationary - boundary) / (2.0 * th)


def _pair_gaussian(theta, a, b):
    """Pair average for rho(h) = exp(-theta h^2).

    The product of the two kernels is a gaussian centered at m = (a + b)/2
    with doubled theta, so with c = sqrt(2 theta):

        (1/4) sqrt(pi / (2 theta)) e^{-theta (a - b)^2 / 2}
            * ( erf(c (1 - m)) + erf(c (1 + m)) )
    """
    th = np.asarray(theta, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m = 0.5 * (a + b)
    c = np.sqrt(2.0 * th)
    amp = 0.25 * np.sqrt(np.pi / (2.0 * th)) * np.exp(-0.5 * th * (a - b) ** 2)
    return amp * (erf(c * (1.0 - m)) + erf(c * (1.0 + m)))


def _pair_matern32(theta, a, b):
    """Pair average for the nu = 3/2 Matern kernel.

    With u = sqrt(3 theta) and t = |b - a| u:

        ( 2 (15 + 15 t + 6 t^2 + t^3) e^{-t}
          - 3 J+[ (5 + 3 (2 + a + b) u + 2 (1 + a + b + a b) u^2) e^{-u (2 + a + b)} ] )
        / (24 u)

    where J+ g(a, b) = g(a, b) + g(-a, -b). The stationary coefficients
    (15, 15, 6, 1) are the reversed degree-3 Bessel row.
    """
    th = np.asarray(theta, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    u = np.sqrt(3.0 * th)
    t = np.abs(b - a) * u
    c0, c1, c2, c3 = BESSEL_BRACKET_MATERN32
    stationary = 2.0 * (c0 + c1 * t + c2 * t * t + c3 * t**3) * np.exp(-t)

    def boundary(a_, b_):
        ssum = a_ + b_
        poly = 5.0 + 3.0 * (2.0 + ssum) * u + 2.0 * (1.0 + ssum + a_ * b_) * u * u
        return poly * np.exp(-u * (2.0 + ssum))

    return (stationary - 3.0 * symmetrize_plus(boundary, a, b)) / (24.0 * u)


def _pair_matern52(theta, a, b):
    """Pair average for the nu = 5/2 Matern kernel.

    With s = sqrt(5 theta) and t = |b - a| s:

        ( 2 (945 + 945 t + 420 t^2 + 105 t^3 + 15 t^4 + t^5) e^{-t}
          - J+[ P(a, b) e^{-s (2 + a + b)} ] ) / (1080 s)

    where the stationary coefficients are the reversed degree-5 Bessel row
    and the boundary polynomial, written over the symmetric atoms S = a + b
    and G = a b, is

        P(a, b) = 945 + 675 (2 + S) s + 30 (27 + 27 S + 5 S^2 + 7 G) s^2
                  + 120 (1 + S + G) (2 + S) s^3 + 30 (1 + S + G)^2 s^4.
    """
    th = np.asarray(theta, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = np.sqrt(5.0 * th)
    t = np.abs(b - a) * s
    c0, c1, c2, c3, c4, c5 = BESSEL_BRACKET_MATERN52
    stationary = (
        2.0 * (c0 + c1 * t + c2 * t**2 + c3 * t**3 + c4 * t**4 + c5 * t**5) * np.exp(-t)
    )

    def boundary(a_, b_):
        # building everything from a + b and a * b keeps a <-> b exact
        ssum = a_ + b_
        prod = a_ * b_
        spg = 1.0 + ssum + prod
        p1 = 675.0 * (2.0 + ssum)
        p2 = 30.0 * (27.0 + 27.0 * ssum + 5.0 * ssum * ssum + 7.0 * prod)
        p3 = 120.0 * spg * (2.0 + ssum)
        p4 = 30.0 * spg * spg
        poly = 945.0 + p1 * s + p2 * s**2 + p3 * s**3 + p4 * s**4
        return poly * np.exp(-s * (2.0 + ssum))

    return (stationary - symmetrize_plus(boundary, a, b)) / (1080.0 * s)


_PAIR = {
    "exponential": _pair_exponential,
    "gaussian": _pair_gaussian,
    "matern32": _pair_matern32,
    "matern52": _pair_matern52,
}


def pair_integral(kind, theta, a, b):
    """Closed-form pair average (1/2) * int_{-1}^{1} rho(|a - x|) rho(|b - x|) dx.

    Parameters
    ----------
    kind : str
        One of ``FAMILY_KINDS``.
    theta : float
        Positive length scale.
    a, b : float or ndarray in [-1, 1]
        Anchor points; arrays broadcast against each other.
    """
    _validate_args(kind, theta, a, b)
    return _PAIR[kind](theta, a, b)


def _single_exponential(theta, a):
    th = np.asarray(theta, dtype=float)
    a = np.asarray(a, dtype=float)
    # summing the boundary terms before subtracting keeps a -> -a bit-exact
    return (2.0 - (np.exp(-th * (1.0 + a)) + np.exp(-th * (1.0 - a)))) / (2.0 * th)


def _single_gaussian(theta, a):
    th = np.asarray(theta, dtype=float)
    a = np.asarray(a, dtype=float)
    r = np.sqrt(th)
    return 0.25 * np.sqrt(np.pi / th) * (erf(r * (1.0 - a)) + erf(r * (1.0 + a)))


def _single_matern32(theta, a):
    th = np.asarray(theta, dtype=float)
    a = np.asarray(a, dtype=float)
    u = np.sqrt(3.0 * th)

    def half(T):
        # int_0^T (1 + u h) e^{-u h} dh = 2/u - (2/u + T) e^{-u T}
        return 2.0 / u - (2.0 / u + T) * np.exp(-u * T)

    return 0.5 * (half(1.0 + a) + half(1.0 - a))


def _single_matern52(theta, a):
    th = np.asarray(theta, dtype=float)
    a = np.asarray(a, dtype=float)
    s = np.sqrt(5.0 * th)

    def half(T):
        # int_0^T (1 + s h + s^2 h^2 / 3) e^{-s h} dh
        return 8.0 / (3.0 * s) - (8.0 / (3.0 * s) + 5.0 * T / 3.0 + s * T * T / 3.0) * np.exp(-s * T)

    return 0.5 * (half(1.0 + a) + half(1.0 - a))


_SINGLE = {
    "exponential": _single_exponential,
    "gaussian": _single_gaussian,
    "matern32": _single_matern32,
    "matern52": _single_matern52,
}


def single_integral(kind, theta, a):
    """Closed-form single average (1/2) * int_{-1}^{1} rho(|a - x|) dx.

    Parameters
    ----------
    kind : str
        One of ``FAMILY_KINDS``.
    theta : float
        Positive length scale.
    a : float or ndarray in [-1, 1]
        Anchor point.
    """
    _validate_args(kind, theta, a)
    return _SINGLE[kind](theta, a)


__all__ = [
    "BESSEL_BRACKET_MATERN32",
    "BESSEL_BRACKET_MATERN52",
    "bessel_polynomial_coefficients",
    "symmetrize_plus",
    "pair_integral",
    "single_integral",
]
