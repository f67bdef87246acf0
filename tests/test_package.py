"""The package's API is the union of its library modules' ``__all__``,
loaded module by module on first use.  A name of ``utility`` or ``risk`` is
looked up in its module on every access and never copied into the package,
so it has one binding, its module's."""

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


def test_a_module_loaded_by_another_import_answers_for_its_names():
    # risk imports utility; once loaded that way, each module is the
    # package's attribute and each of its names is the module's object.
    res = run_python(
        "import sys, maxentutil\n"
        "import maxentutil.risk\n"
        "print(all(getattr(maxentutil, m) is sys.modules['maxentutil.' + m]\n"
        "          and all(getattr(maxentutil, n) is getattr(sys.modules['maxentutil.' + m], n)\n"
        "                  for n in sys.modules['maxentutil.' + m].__all__)\n"
        "          for m in ('core', 'solver', 'entropy', 'utility', 'risk')))\n"
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "True"


def test_no_utility_or_risk_name_is_copied_into_the_package():
    # Every route that loads them: a name, the module, __all__, dir() and
    # a star import.
    res = run_python(
        "import maxentutil, maxentutil.risk as risk, maxentutil.utility as utility\n"
        "maxentutil.UtilityCurve, maxentutil.risk, maxentutil.__all__, dir(maxentutil)\n"
        "exec('from maxentutil import *', {})\n"
        "print(sorted(set(vars(maxentutil)) & {*utility.__all__, *risk.__all__}))\n"
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_a_patch_of_a_lazy_name_is_seen_through_the_package_and_undone(monkeypatch):
    original = utility.density_to_curve

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(utility, "density_to_curve", patched)
    assert maxentutil.density_to_curve is patched
    monkeypatch.undo()
    assert maxentutil.density_to_curve is original


def test_threads_asking_first_for_lazy_names_each_get_the_module_object():
    # Eight threads each ask first for a different name, so one may load
    # utility or risk while another's request finds it loading; a tiny
    # switch interval interleaves them.
    res = run_python(
        "import sys, threading\n"
        "sys.setswitchinterval(1e-6)\n"
        "import maxentutil\n"
        "names = ['UtilityCurve', 'cumulate', 'density_to_curve', 'classify_family',\n"
        "         'maxent_utility_from_assessments', 'RiskAversionProfile',\n"
        "         'risk_aversion_analytic', 'risk_aversion_numeric']\n"
        "barrier = threading.Barrier(len(names))\n"
        "got, errors = {}, []\n"
        "def ask(name):\n"
        "    barrier.wait()\n"
        "    try:\n"
        "        got[name] = getattr(maxentutil, name)\n"
        "    except Exception as exc:\n"
        "        errors.append(repr(exc))\n"
        "threads = [threading.Thread(target=ask, args=(n,)) for n in names]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join()\n"
        "u, r = sys.modules['maxentutil.utility'], sys.modules['maxentutil.risk']\n"
        "print(errors)\n"
        "print(all(got[n] is getattr(r if n in r.__all__ else u, n) for n in names))\n"
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "True"]


def test_asking_for_a_lazy_module_loads_and_returns_it():
    res = run_python(
        "import sys, maxentutil\n"
        "print('maxentutil.risk' in sys.modules)\n"
        "print(maxentutil.risk is sys.modules['maxentutil.risk'])\n"
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["False", "True"]


def test_dir_lists_every_export():
    assert set(maxentutil.__all__) <= set(dir(maxentutil))
