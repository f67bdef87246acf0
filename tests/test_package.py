"""The package's API is the union of its library modules' ``__all__``,
loaded module by module on first use."""

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


def test_a_continuous_solve_loads_neither_utility_nor_risk():
    res = run_python(
        "import sys, maxentutil as mx\n"
        "power = mx.ConstraintFunction.power(1)\n"
        "mx.solve_equality(mx.Support.continuous(0.0, 1.0, 64),\n"
        "                  [mx.ConstraintSpec.equality(power, 0.3)])\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')\n"
        "             or m in ('maxentutil.utility', 'maxentutil.risk', 'maxentutil.cli')))\n"
        "assess = mx.maxent_utility_from_assessments\n"
        "print('maxentutil.utility' in sys.modules,\n"
        "      assess is sys.modules['maxentutil.utility'].maxent_utility_from_assessments)\n"
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "True True"]


def test_a_star_import_binds_exactly_the_package_exports():
    res = run_python(
        "names = {}\n"
        "exec('from maxentutil import *', names)\n"
        "del names['__builtins__']\n"
        "import maxentutil\n"
        "print(sorted(names) == sorted(maxentutil.__all__))\n"
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "True"


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        maxentutil.no_such_name


def test_a_module_loaded_by_another_import_binds_its_names_at_once():
    # risk imports utility; each binds its __all__ here as it loads, before
    # anything asks the package for a name.
    res = run_python(
        "import sys, maxentutil\n"
        "import maxentutil.risk\n"
        "names = dict(vars(maxentutil))\n"
        "print(all(names[n] is getattr(sys.modules['maxentutil.' + m], n)\n"
        "          for m in ('solver', 'entropy', 'utility', 'risk')\n"
        "          for n in sys.modules['maxentutil.' + m].__all__))\n"
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "True"


def test_a_loaded_module_answers_for_its_names_before_they_are_bound():
    # Another thread may ask for a name after the import system has put its
    # module in sys.modules but before it has bound the module here; the
    # module's __all__, not the package's globals, decides that it exists.
    res = run_python(
        "import maxentutil, maxentutil.utility as utility\n"
        "del vars(maxentutil)['UtilityCurve']\n"
        "print(maxentutil.UtilityCurve is utility.UtilityCurve)\n"
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "True"
