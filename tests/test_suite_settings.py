"""The suite's own pytest settings: a failing property is reported as a
failure, with its shrunk example, and the session goes on."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_property.py").write_text(textwrap.dedent("""\
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 10

        def test_passes():
            pass
        """))
    # -c runs pytest on this file with the suite's settings (filterwarnings
    # among them); what hypothesis writes stays in tmp_path.
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = res.stdout + res.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
    assert "Falsifying example: test_fails(" in output
