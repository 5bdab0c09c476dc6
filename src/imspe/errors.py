"""Exception types raised across the package."""


class ImspeError(Exception):
    """Base class for all package-specific errors."""


class InvalidHyperparameterError(ImspeError, ValueError):
    """Raised when a covariance kind or length-scale parameter is unusable."""


class InvalidDesignError(ImspeError, ValueError):
    """Raised when design points are malformed or leave the unit box."""


class SingularDesignError(ImspeError):
    """Raised when the design correlation matrix is not numerically positive definite.

    That is: R has no Cholesky factor, its factor is not finite,
    1'R^{-1}1 is not positive, or the design repeats a point (where rounding
    can leave R a factor, but its value means nothing). The message says
    which.
    """


class OracleDivergenceError(ImspeError):
    """Raised when the quadrature oracle fails to reach its tolerance within its refinement budget."""


__all__ = [
    "ImspeError",
    "InvalidDesignError",
    "InvalidHyperparameterError",
    "OracleDivergenceError",
    "SingularDesignError",
]
