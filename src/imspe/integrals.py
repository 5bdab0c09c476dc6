"""Closed-form domain averages of kernel values and kernel products over [-1, 1].

Two building blocks feed the integrated-variance criterion, both expressed
as averages (integral divided by the domain length 2):

    single_integral(kind, theta, a)     = (1/2) * int_{-1}^{1} rho(|a - x|) dx
    pair_integral(kind, theta, a, b)    = (1/2) * int_{-1}^{1} rho(|a - x|) rho(|b - x|) dx

Each supported family admits elementary antiderivatives, so both averages
reduce to polynomial-times-exponential expressions (erf for the gaussian
family). The pair averages for the Matern kernels share one shape: a
stationary bracket in |b - a| whose integer coefficients are rows of the
Bessel-polynomial triangle, minus boundary brackets in the atoms S = a + b
and G = a b, symmetrized by the joint sign flip J+ (a, b) -> (-a, -b), S -> -S.

Every formula here is certified against panelwise Gauss-Legendre quadrature
in the test suite; see quadrature.py for the oracle.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from .kernels import _RHO, _check_finite, validate_args

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


def symmetrize_plus(f, a, b):
    """Apply the joint sign-flip symmetrizer J+: f(a, b) + f(-a, -b).

    The boundary terms of every pair integral on [-1, 1] occur in pairs
    related by reflecting both arguments through the origin; this stays the
    public name of that pattern, which the Matern forms apply as S -> -S.
    For f(a, b) = 1 + (a + b)/2 the result is exactly 2 for any a, b.
    """
    return f(a, b) + f(-a, -b)


def _pair_exponential(theta, a, b):
    """Pair average for rho(h) = exp(-theta h).

    With delta = |b - a| and S = a + b:

        ( (1 + theta delta) e^{-theta delta}
          - (1/2) (e^{-theta (2 + S)} + e^{-theta (2 - S)}) ) / (2 theta)
    """
    theta_delta = theta * np.abs(b - a)
    ssum = a + b
    stationary = (1.0 + theta_delta) * np.exp(-theta_delta)
    boundary = 0.5 * (np.exp(-theta * (2.0 + ssum)) + np.exp(-theta * (2.0 - ssum)))
    return (stationary - boundary) / (2.0 * theta)


def _pair_gaussian(theta, a, b):
    """Pair average for rho(h) = exp(-theta h^2).

    The product of the two kernels is a gaussian centered at m = (a + b)/2
    with doubled theta, so with c = sqrt(2 theta):

        (1/4) sqrt(pi / (2 theta)) e^{-theta (a - b)^2 / 2}
            * ( erf(c (1 - m)) + erf(c (1 + m)) )
    """
    m = 0.5 * (a + b)
    c = np.sqrt(2.0 * theta)
    amp = 0.25 * np.sqrt(np.pi / (2.0 * theta)) * np.exp(-0.5 * theta * (a - b) ** 2)
    return amp * (erf(c * (1.0 - m)) + erf(c * (1.0 + m)))


def _pair_matern32(theta, a, b):
    """Pair average for the nu = 3/2 Matern kernel.

    With u = sqrt(3 theta) and t = |b - a| u:

        ( 2 (15 + 15 t + 6 t^2 + t^3) e^{-t}
          - 3 J+[ (5 + 3 (2 + a + b) u + 2 (1 + a + b + a b) u^2) e^{-u (2 + a + b)} ] )
        / (24 u)

    where J+ g(a, b) = g(a, b) + g(-a, -b), on the atoms S = a + b and G = a b
    just S -> -S. The stationary coefficients (15, 15, 6, 1) are the reversed
    degree-3 Bessel row.
    """
    u = np.sqrt(3.0 * theta)
    t = np.abs(b - a) * u
    c0, c1, c2, c3 = BESSEL_BRACKET_MATERN32
    stationary = 2.0 * (c0 + c1 * t + c2 * t * t + c3 * t**3) * np.exp(-t)
    ssum, prod = a + b, a * b

    def boundary(S):
        shifted = 2.0 + S
        poly = 5.0 + 3.0 * shifted * u + 2.0 * (1.0 + S + prod) * u * u
        return poly * np.exp(-u * shifted)

    return (stationary - 3.0 * (boundary(ssum) + boundary(-ssum))) / (24.0 * u)


def _powers(s):
    """s**2, s**3 and s**4, each raised by the scalar power.

    numpy's power on arrays differs from the scalar one in the last bit on
    some inputs, so a stack of per-axis s is raised one entry at a time: a
    stack of axes keeps the bits of one axis at a time.
    """
    if np.ndim(s) == 0:
        return s**2, s**3, s**4
    return tuple(np.reshape([x**p for x in s.flat], s.shape) for p in (2, 3, 4))


def _pair_matern52(theta, a, b):
    """Pair average for the nu = 5/2 Matern kernel.

    With s = sqrt(5 theta) and t = |b - a| s:

        ( 2 (945 + 945 t + 420 t^2 + 105 t^3 + 15 t^4 + t^5) e^{-t}
          - J+[ P(a, b) e^{-s (2 + a + b)} ] ) / (1080 s)

    where the stationary coefficients are the reversed degree-5 Bessel row
    and the boundary polynomial, written over the symmetric atoms S = a + b
    and G = a b (on which J+ is S -> -S), is

        P(a, b) = 945 + 675 (2 + S) s + 30 (27 + 27 S + 5 S^2 + 7 G) s^2
                  + 120 (1 + S + G) (2 + S) s^3 + 30 (1 + S + G)^2 s^4.
    """
    s = np.sqrt(5.0 * theta)
    s2, s3, s4 = _powers(s)
    t = np.abs(b - a) * s
    c0, c1, c2, c3, c4, c5 = BESSEL_BRACKET_MATERN52
    stationary = (
        2.0 * (c0 + c1 * t + c2 * t**2 + c3 * t**3 + c4 * t**4 + c5 * t**5) * np.exp(-t)
    )
    # building everything from a + b and a * b keeps a <-> b exact
    ssum, prod = a + b, a * b

    def boundary(S):
        shifted = 2.0 + S
        spg = 1.0 + S + prod
        p1 = 675.0 * shifted
        p2 = 30.0 * (27.0 + 27.0 * S + 5.0 * S * S + 7.0 * prod)
        p3 = 120.0 * spg * shifted
        p4 = 30.0 * spg * spg
        poly = 945.0 + p1 * s + p2 * s2 + p3 * s3 + p4 * s4
        return poly * np.exp(-s * shifted)

    return (stationary - (boundary(ssum) + boundary(-ssum))) / (1080.0 * s)


_PAIR = {
    "exponential": _pair_exponential,
    "gaussian": _pair_gaussian,
    "matern32": _pair_matern32,
    "matern52": _pair_matern52,
}


# d/da of the pair averages: the gradient of the criterion in a design
# coordinate. Each takes the pair average P(a, b) on the same anchors too,
# which the value has already computed: the gaussian slope is written
# through it. The exponential and Matern stationary parts differentiate to
# (a - b) times the next lower reversed Bessel row, so no |b - a| kink
# survives; the boundary parts are written in p = 1 + a, q = 1 + b and
# mirrored through (a, b) -> (-a, -b)
def _dpair_exponential(theta, a, b, pair):
    """d/da of the exponential pair average, with S = a + b:

        -(theta / 2) (a - b) e^{-theta |b - a|}
            + (e^{-theta (2 + S)} - e^{-theta (2 - S)}) / 4
    """
    ssum = a + b
    stationary = -0.5 * theta * (a - b) * np.exp(-theta * np.abs(b - a))
    return stationary + 0.25 * (np.exp(-theta * (2.0 + ssum)) - np.exp(-theta * (2.0 - ssum)))


def _dpair_gaussian(theta, a, b, pair):
    """d/da of the gaussian pair average P(a, b), given as ``pair``:

        -theta (a - b) P(a, b)
            + (e^{-theta ((1 + a)^2 + (1 + b)^2)} - e^{-theta ((1 - a)^2 + (1 - b)^2)}) / 4
    """
    def boundary(p, q):
        return np.exp(-theta * (p * p + q * q))

    edges = boundary(1.0 + a, 1.0 + b) - boundary(1.0 - a, 1.0 - b)
    return -theta * (a - b) * pair + 0.25 * edges


def _dpair_matern32(theta, a, b, pair):
    """d/da of the nu = 3/2 Matern pair average, with u = sqrt(3 theta), t = |b - a| u:

        ( -2 u (a - b) (3 + 3 t + t^2) e^{-t} + 3 (A(1 + a, 1 + b) - A(1 - a, 1 - b)) ) / 24

    where A(p, q) = (2 + (3 p + q) u + 2 p q u^2) e^{-u (p + q)}.
    """
    u = np.sqrt(3.0 * theta)
    t = np.abs(b - a) * u
    stationary = -2.0 * u * (a - b) * (3.0 + 3.0 * t + t * t) * np.exp(-t)

    def boundary(p, q):
        return (2.0 + (3.0 * p + q) * u + 2.0 * p * q * u * u) * np.exp(-u * (p + q))

    return (stationary + 3.0 * (boundary(1.0 + a, 1.0 + b) - boundary(1.0 - a, 1.0 - b))) / 24.0


def _dpair_matern52(theta, a, b, pair):
    """d/da of the nu = 5/2 Matern pair average, with s = sqrt(5 theta), t = |b - a| s:

        ( -2 s (a - b) (105 + 105 t + 45 t^2 + 10 t^3 + t^4) e^{-t}
          + A(1 + a, 1 + b) - A(1 - a, 1 - b) ) / 1080

    where A(p, q) e^{s (p + q)} = 270 + (375 p + 165 q) s + 30 (5 p^2 + 9 p q + q^2) s^2
                                  + 60 p q (2 p + q) s^3 + 30 p^2 q^2 s^4.
    """
    s = np.sqrt(5.0 * theta)
    s2, s3, s4 = _powers(s)
    t = np.abs(b - a) * s
    bracket = 105.0 + 105.0 * t + 45.0 * t**2 + 10.0 * t**3 + t**4
    stationary = -2.0 * s * (a - b) * bracket * np.exp(-t)

    def boundary(p, q):
        pq = p * q
        poly = (
            270.0
            + (375.0 * p + 165.0 * q) * s
            + 30.0 * (5.0 * p * p + 9.0 * pq + q * q) * s2
            + 60.0 * pq * (2.0 * p + q) * s3
            + 30.0 * pq * pq * s4
        )
        return poly * np.exp(-s * (p + q))

    return (stationary + boundary(1.0 + a, 1.0 + b) - boundary(1.0 - a, 1.0 - b)) / 1080.0


_DPAIR = {
    "exponential": _dpair_exponential,
    "gaussian": _dpair_gaussian,
    "matern32": _dpair_matern32,
    "matern52": _dpair_matern52,
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

    Raises InvalidHyperparameterError when theta is so large that the value
    is not finite in double precision, as the criterion does.
    """
    theta, a, b = validate_args(kind, theta, a, b)
    value = _PAIR[kind](theta, a, b)
    _check_finite(kind, theta, value=value)
    return value


def _single_exponential(theta, a):
    # summing the boundary terms before subtracting keeps a -> -a bit-exact
    return (2.0 - (np.exp(-theta * (1.0 + a)) + np.exp(-theta * (1.0 - a)))) / (2.0 * theta)


def _single_gaussian(theta, a):
    r = np.sqrt(theta)
    return 0.25 * np.sqrt(np.pi / theta) * (erf(r * (1.0 - a)) + erf(r * (1.0 + a)))


def _single_matern32(theta, a):
    u = np.sqrt(3.0 * theta)

    def half(T):
        # int_0^T (1 + u h) e^{-u h} dh = 2/u - (2/u + T) e^{-u T}
        return 2.0 / u - (2.0 / u + T) * np.exp(-u * T)

    return 0.5 * (half(1.0 + a) + half(1.0 - a))


def _single_matern52(theta, a):
    s = np.sqrt(5.0 * theta)

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


def _dsingle(kind, theta, a):
    """d/da of the single average, the same for every family: (rho(1 + a) - rho(1 - a)) / 2."""
    rho = _RHO[kind]
    return 0.5 * (rho(theta, 1.0 + a) - rho(theta, 1.0 - a))


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

    Raises InvalidHyperparameterError like ``pair_integral``.
    """
    theta, a = validate_args(kind, theta, a)
    value = _SINGLE[kind](theta, a)
    _check_finite(kind, theta, value=value)
    return value


__all__ = [
    "BESSEL_BRACKET_MATERN32",
    "BESSEL_BRACKET_MATERN52",
    "bessel_polynomial_coefficients",
    "symmetrize_plus",
    "pair_integral",
    "single_integral",
]
