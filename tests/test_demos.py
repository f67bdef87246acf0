"""Every demo script, and the README's quick start, runs to completion
against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args):
    """Python with ``args``, against the package in src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    res = _run([str(demo)])
    assert res.returncode == 0, res.stderr
    assert res.stdout


def test_the_readme_quick_start_prints_its_commented_values():
    """Each `print(...)  # value` line of README.md's python block prints a
    number that rounds to the commented value at the decimals it shows."""
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    expected = re.findall(r"^print\(.*\)\s+#\D*?(\d+\.\d+)", block.group(1), re.M)
    assert expected == ["0.9602", "0.9926", "0.4", "0.9602"]
    res = _run(["-c", block.group(1)])
    assert res.returncode == 0, res.stderr
    printed = res.stdout.split()
    assert len(printed) == len(expected), res.stdout
    for got, want in zip(printed, expected):
        decimals = len(want.split(".")[1])
        assert round(float(got), decimals) == float(want), (got, want)
