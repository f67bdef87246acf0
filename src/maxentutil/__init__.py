"""Maximum-entropy densities, utility functions, and risk-aversion profiles.

Pin or bracket a handful of moments and get back the least-committed
distribution consistent with them; do the same with a utility function's
increments and get back the least-committed preferences consistent with a
decision maker's answers.

The package exports what each module's ``__all__`` declares.
"""

from . import core, entropy, risk, solver, utility
from .core import *
from .entropy import *
from .risk import *
from .solver import *
from .utility import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *entropy.__all__, *risk.__all__, *solver.__all__,
           *utility.__all__, "__version__"]
