"""The package runs on numpy alone; scipy only serves the test oracles."""

import os
import subprocess
import sys
from pathlib import Path

from maxentutil.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
CARA = Path(__file__).resolve().parent / "data" / "cara.spec"


def run_python(code: str) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )


def test_import_loads_no_scipy():
    # Nor numpy.typing: the annotations that name it are never evaluated,
    # and importing it costs every CLI start about a millisecond.
    res = run_python(
        "import sys, maxentutil.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy' or m.startswith('numpy.typing')))"
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_solve_runs_with_scipy_unimportable(tmp_path):
    # A None entry in sys.modules makes every import of scipy raise.
    out = tmp_path / "without_scipy.csv"
    res = run_python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import maxentutil\n"
        "from maxentutil.cli import main\n"
        f"sys.exit(main(['solve', {str(CARA)!r}, '--out', {str(out)!r}]))"
    )
    assert res.returncode == 0, res.stderr
    here = tmp_path / "in_process.csv"
    assert main(["solve", str(CARA), "--out", str(here)]) == 0
    assert out.read_bytes() == here.read_bytes()
