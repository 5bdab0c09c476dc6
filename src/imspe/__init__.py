"""Integrated prediction variance of Gaussian-process designs on [-1, 1]^d.

The package evaluates the integrated mean-squared prediction error (IMSPE)
of a constant-mean kriging model in closed form for four stationary
correlation families (exponential, gaussian, Matern nu = 3/2 and nu = 5/2),
certifies those closed forms against a kink-aware Gauss-Legendre quadrature
oracle, and searches for IMSPE-optimal designs with a deterministic
multistart projected-BFGS descent over the unit box.
"""

__version__ = "0.1.0"

from .errors import (
    ImspeError,
    InvalidDesignError,
    InvalidHyperparameterError,
    OracleDivergenceError,
    SingularDesignError,
)
from .kernels import (
    FAMILY_KINDS,
    CovarianceFamily,
    Design,
    as_design,
    correlation,
    cross_correlation,
    rho,
)
from .integrals import (
    BESSEL_BRACKET_MATERN32,
    BESSEL_BRACKET_MATERN52,
    bessel_polynomial_coefficients,
    pair_integral,
    single_integral,
    symmetrize_plus,
)
from .criterion import (
    ImspeEvaluation,
    build_correlation_matrix,
    build_pair_matrix,
    build_single_vector,
    imspe,
    imspe_value,
    mspe_evaluator,
    mspe_profile,
)
from .quadrature import (
    DEFAULT_SPEC,
    QuadratureSpec,
    average_over_domain,
    integrate_mspe,
    integrate_pair,
    integrate_single,
)
from .search import (
    DEFAULT_CONFIG,
    LocalSearchResult,
    SearchConfig,
    SearchResult,
    fd_gradient,
    local_search,
    multistart_search,
    projected_gradient,
)
from .reference import ReferenceCase, load_reference_cases, reference_notes

__all__ = [
    "__version__",
    "ImspeError",
    "InvalidDesignError",
    "InvalidHyperparameterError",
    "OracleDivergenceError",
    "SingularDesignError",
    "FAMILY_KINDS",
    "CovarianceFamily",
    "Design",
    "as_design",
    "correlation",
    "cross_correlation",
    "rho",
    "BESSEL_BRACKET_MATERN32",
    "BESSEL_BRACKET_MATERN52",
    "bessel_polynomial_coefficients",
    "pair_integral",
    "single_integral",
    "symmetrize_plus",
    "ImspeEvaluation",
    "build_correlation_matrix",
    "build_pair_matrix",
    "build_single_vector",
    "imspe",
    "imspe_value",
    "mspe_evaluator",
    "mspe_profile",
    "DEFAULT_SPEC",
    "QuadratureSpec",
    "average_over_domain",
    "integrate_mspe",
    "integrate_pair",
    "integrate_single",
    "DEFAULT_CONFIG",
    "LocalSearchResult",
    "SearchConfig",
    "SearchResult",
    "fd_gradient",
    "local_search",
    "multistart_search",
    "projected_gradient",
    "ReferenceCase",
    "load_reference_cases",
    "reference_notes",
]
