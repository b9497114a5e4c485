"""High-dimensional minimum-variance portfolios.

Analytic saddle-point theory of estimated minimum-variance portfolios in
the regime where the number of assets N and the sample size T grow with a
fixed ratio r = N/T, with or without a ban on short positions, plus exact
finite-size optimizers and a Monte Carlo harness that verifies the theory.
Each module's `__all__` declares its public names; this package re-exports
them.
"""

__version__ = "0.1.0"

from . import errors, mc, qp, special, theory, weights
from .errors import *
from .mc import *
from .qp import *
from .special import *
from .theory import *
from .weights import *

__all__ = ["__version__", *errors.__all__, *theory.__all__, *weights.__all__, *qp.__all__,
           *mc.__all__, *special.__all__]
