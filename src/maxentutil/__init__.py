"""Maximum-entropy densities, utility functions, and risk-aversion profiles.

Pin or bracket a handful of moments and get back the least-committed
distribution consistent with them; do the same with a utility function's
increments and get back the least-committed preferences consistent with a
decision maker's answers.

The package exports what each module's ``__all__`` declares.  Importing it
loads :mod:`~maxentutil.core`, :mod:`~maxentutil.solver` and
:mod:`~maxentutil.entropy` (and numpy), which every solve needs;
:mod:`~maxentutil.utility` and :mod:`~maxentutil.risk` load the first time
one of their names, or the module itself, is asked for.  Their names are
looked up in their module on every access and never copied here, so a
name has one binding, its module's.
"""

from importlib import import_module as _import_module

from . import core, entropy, solver
from .core import *
from .entropy import *
from .solver import *

__version__ = "0.1.0"


def __getattr__(name):
    """Load ``utility`` and then ``risk`` (which imports utility) until one
    is ``name`` or declares it; ``__all__`` is built afresh and loads both."""
    for lazy in ("utility", "risk"):
        module = globals().get(lazy) or _import_module(f".{lazy}", __name__)
        if name == lazy:
            return module
        if name in module.__all__:
            return getattr(module, name)
    if name == "__all__":  # the imports above bound utility and risk here
        return [*core.__all__, *solver.__all__, *entropy.__all__,
                *utility.__all__, *risk.__all__, "__version__"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
