"""The package's API is the union of its library modules' ``__all__``."""

import pytest

import maxentutil
from maxentutil import core, entropy, risk, solver, utility

from test_numpy_only import run_python

MODULES = (core, entropy, risk, solver, utility)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_module_export_is_a_package_export(module):
    for name in module.__all__:
        assert getattr(maxentutil, name) is getattr(module, name), name
        assert name in maxentutil.__all__, name


def test_the_package_exports_the_modules_exports_and_its_version():
    names = [name for module in MODULES for name in module.__all__]
    assert sorted(maxentutil.__all__) == sorted([*names, "__version__"])
    assert len(set(maxentutil.__all__)) == len(maxentutil.__all__)


def test_importing_the_package_leaves_the_cli_out():
    res = run_python("import sys, maxentutil; print('maxentutil.cli' in sys.modules)")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
