"""Maximum-entropy densities, utility functions, and risk-aversion profiles.

Pin or bracket a handful of moments and get back the least-committed
distribution consistent with them; do the same with a utility function's
increments and get back the least-committed preferences consistent with a
decision maker's answers.

The package exports what each module's ``__all__`` declares.  Importing it
loads :mod:`~maxentutil.core`, :mod:`~maxentutil.solver` and
:mod:`~maxentutil.entropy` (and numpy), which every solve needs;
:mod:`~maxentutil.utility` and :mod:`~maxentutil.risk` load the first time
one of their names, or the module itself, is asked for, and then bind their
whole ``__all__`` here.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from . import core, entropy, solver
from .core import *
from .entropy import *
from .solver import *

__version__ = "0.1.0"

# The order __getattr__ loads them in: risk imports utility.
_LAZY = ("utility", "risk")


class _Package(_ModuleType):
    """The package module.  When the import system binds a lazy module here,
    whichever import loaded it (risk's ``from .utility import ...`` included),
    this binds the module's ``__all__`` too: once, as it loads, before any
    caller can have replaced one of those names in it."""

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if name in _LAZY:
            for attr in value.__all__:
                super().__setattr__(attr, getattr(value, attr))


_sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    """Load the lazy modules in turn until one declares ``name``; ``__all__``
    loads them all."""
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    declared = [*core.__all__, *solver.__all__, *entropy.__all__]
    for lazy in _LAZY:
        module = _import_module(f".{lazy}", __name__)
        if name in module.__all__:
            return getattr(module, name)
        declared += module.__all__
    if name == "__all__":
        global __all__
        __all__ = [*declared, "__version__"]
        return __all__
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    __getattr__("__all__")  # loads every module, which binds every name
    return sorted(globals())
