import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_sweep_small_run_is_correct():
    # A traced run reports a figure for every layer its tracer patches, and
    # fails with "metrics without a value" when nothing traced reaches one
    # (entropy.differential_ms, when building a solution stops calling
    # differential_entropy).  Untraced runs cannot see that.
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-small",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
