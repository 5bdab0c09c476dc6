"""Integrated prediction variance of Gaussian-process designs on [-1, 1]^d.

The package evaluates the integrated mean-squared prediction error (IMSPE)
of a constant-mean kriging model in closed form for four stationary
correlation families (exponential, gaussian, Matern nu = 3/2 and nu = 5/2),
certifies those closed forms against a kink-aware Gauss-Legendre quadrature
oracle, and searches for IMSPE-optimal designs with a deterministic
multistart projected-BFGS descent over the unit box.
"""

__version__ = "0.1.0"

# each module's __all__ states its public API once; importing a submodule
# binds its name here, so the package's __all__ joins theirs
from .errors import *
from .kernels import *
from .integrals import *
from .criterion import *
from .quadrature import *
from .search import *
from .reference import *

__all__ = [
    "__version__",
    *errors.__all__,
    *kernels.__all__,
    *integrals.__all__,
    *criterion.__all__,
    *quadrature.__all__,
    *search.__all__,
    *reference.__all__,
]
