import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maxentutil.cli import main
from maxentutil.core import Support
from maxentutil.entropy import differential_entropy

from golden_compare import assert_matches_golden

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


# Without PYTHONUNBUFFERED the child's stdout is block-buffered, as it is
# for users writing to a pipe or file, so output lost at exit shows.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "maxentutil", *args],
        **{"capture_output": True, "text": True, "env": CHILD_ENV, **kwargs},
    )


def summary_dict(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            out[key] = value
    return out


# ----------------------------------------------------------------- solving

def test_solve_uniform_matches_golden(tmp_path):
    out = tmp_path / "table.csv"
    res = run_cli("solve", str(DATA / "uniform.spec"), "--out", str(out))
    assert res.returncode == 0
    assert_matches_golden(res.stdout, GOLDEN / "uniform.summary.txt")
    assert_matches_golden(out.read_bytes().decode(), GOLDEN / "uniform.csv")


def test_solve_cara_matches_golden(tmp_path):
    out = tmp_path / "table.csv"
    res = run_cli("solve", str(DATA / "cara.spec"), "--out", str(out))
    assert res.returncode == 0
    assert_matches_golden(res.stdout, GOLDEN / "cara.summary.txt")
    assert_matches_golden(out.read_bytes().decode(), GOLDEN / "cara.csv")


def test_solve_assessed_matches_golden(tmp_path):
    out = tmp_path / "table.csv"
    res = run_cli("solve", str(DATA / "assessed.spec"), "--out", str(out))
    assert res.returncode == 0
    assert_matches_golden(res.stdout, GOLDEN / "assessed.summary.txt")
    assert_matches_golden(out.read_bytes().decode(), GOLDEN / "assessed.csv")


def test_solve_is_deterministic(tmp_path):
    first = run_cli("solve", str(DATA / "cara.spec"))
    second = run_cli("solve", str(DATA / "cara.spec"))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_solve_without_out_prints_table_after_blank_line():
    res = run_cli("solve", str(DATA / "uniform.spec"))
    assert res.returncode == 0
    summary, _, table = res.stdout.partition("\n\n")
    assert "status = converged" in summary
    lines = table.strip().splitlines()
    assert lines[0] == "x,u,U,gamma"
    assert len(lines) == 129


def test_two_assessments_solve(tmp_path):
    spec = tmp_path / "two.spec"
    spec.write_text("domain = 0 1\nassessment = 0.25 0.5\nassessment = 0.75 0.8\n")
    res = run_cli("solve", str(spec))
    assert res.returncode == 0, res.stderr
    assert summary_dict(res.stdout)["status"] == "converged"


def test_quiet_drops_the_summary():
    res = run_cli("solve", str(DATA / "uniform.spec"), "--quiet")
    assert res.returncode == 0
    assert res.stdout.startswith("x,u,U,gamma\n")
    assert "status" not in res.stdout


def test_summary_reports_interval_activity():
    res = run_cli("solve", str(DATA / "interval.spec"))
    assert res.returncode == 0
    info = summary_dict(res.stdout)
    assert info["status"] == "converged"
    assert info["active[0]"] == "lo"
    assert float(info["multiplier[0]"]) < 0.0


def test_discrete_spec_has_no_curve_column():
    res = run_cli("solve", str(DATA / "coin.spec"), "--quiet")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "x,u,U,gamma"
    assert len(lines) == 3
    # Discrete supports have masses but no running curve or risk profile.
    row = lines[1].split(",")
    assert row[2] == "" and row[3] == ""
    assert float(row[1]) == pytest.approx(0.25, abs=1e-9)


def test_nodes_flag_overrides_spec_value():
    res = run_cli("solve", str(DATA / "uniform.spec"), "--nodes", "64")
    assert res.returncode == 0
    assert summary_dict(res.stdout)["nodes"] == "64"


def test_base2_flag_switches_entropy_units():
    res = run_cli("solve", str(DATA / "cara.spec"), "--base2")
    assert res.returncode == 0
    info = summary_dict(res.stdout)
    assert info["entropy_base"] == "base2"
    nats = float(summary_dict(run_cli("solve", str(DATA / "cara.spec")).stdout)["entropy"])
    assert float(info["entropy"]) == pytest.approx(nats / math.log(2.0), rel=1e-12)


def test_out_key_in_spec_file(tmp_path):
    target = tmp_path / "from_spec.csv"
    spec = tmp_path / "with_out.spec"
    spec.write_text(f"domain = 0 1\nnodes = 128\nout = {target}\n")
    res = run_cli("solve", str(spec))
    assert res.returncode == 0
    # The spec's `out` key writes exactly what `--out` writes.
    flagged = tmp_path / "from_flag.csv"
    assert run_cli("solve", str(spec), "--out", str(flagged)).returncode == 0
    assert target.read_bytes() == flagged.read_bytes()
    assert_matches_golden(target.read_bytes().decode(), GOLDEN / "uniform.csv")


def test_tol_flag_is_honored():
    res = run_cli("solve", str(DATA / "cara.spec"), "--tol", "1e-3")
    assert res.returncode == 0
    loose = float(summary_dict(res.stdout)["residual[0]"])
    assert abs(loose) <= 1e-3


@pytest.mark.parametrize(
    "spec_line, flags, message",
    [
        ("nodes = 0", [], "at least 16 nodes"),
        ("nodes = 128", ["--nodes", "0"], "at least 16 nodes"),
        ("tol = 0", [], "tol must be positive"),
        ("tol = 1e-3", ["--tol", "0"], "tol must be positive"),
        ("max_iter = 0", [], "max_iter must be at least 1"),
        ("max_iter = 50", ["--max-iter", "0"], "max_iter must be at least 1"),
        ("tol = inf", [], "tol must be positive and finite"),
        ("tol = 1e-3", ["--tol", "inf"], "tol must be positive and finite"),
        ("tol = nan", [], "tol must be positive and finite"),
        ("max_iter = 2.5", [], "max_iter expects an integer"),
    ],
)
def test_zero_settings_reach_the_validators(
    tmp_path, capsys, spec_line, flags, message
):
    # A zero is a setting, not a missing one: flag, then spec, then default.
    spec = tmp_path / "zero.spec"
    spec.write_text(f"domain = 0 5\nconstraint = power 1 eq 1.0\n{spec_line}\n")
    assert main(["solve", str(spec), *flags]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, first, second",
    [
        ("nodes", "128", "256"),
        ("tol", "1e-8", "1e-6"),
        ("max_iter", "50", "100"),
        ("base", "natural", "base2"),
        ("out", "a.csv", "b.csv"),
    ],
)
def test_repeated_setting_fails_with_line_number(tmp_path, capsys, key, first, second):
    spec = tmp_path / "twice.spec"
    lines = ["domain = 0 5", f"{key} = {first}", "constraint = power 1 eq 1.0"]
    spec.write_text("\n".join([*lines, f"{key} = {second}"]) + "\n")
    assert main(["solve", str(spec)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"line 4: {key} already set" in err


# ------------------------------------------------------------------ entropy

def test_entropy_of_solved_spec_matches_golden():
    res = run_cli("entropy", str(DATA / "coin.spec"))
    assert res.returncode == 0
    assert_matches_golden(res.stdout, GOLDEN / "coin.entropy.txt")


def test_entropy_of_masses_matches_golden():
    res = run_cli("entropy", "--masses", "0.25,0.75", "--base2")
    assert res.returncode == 0
    assert_matches_golden(res.stdout, GOLDEN / "masses.entropy.txt")
    value, unit = res.stdout.split()
    assert unit == "(bits)"
    expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert float(value) == pytest.approx(expected, abs=1e-12)


def test_entropy_requires_exactly_one_input():
    neither = run_cli("entropy")
    assert neither.returncode == 1
    both = run_cli("entropy", str(DATA / "coin.spec"), "--masses", "0.5,0.5")
    assert both.returncode == 1
    assert "not both" in both.stderr


# --------------------------------------------------------------- exit codes

def test_unknown_key_fails_with_line_number():
    res = run_cli("solve", str(DATA / "bad_key.spec"))
    assert res.returncode == 1
    assert res.stdout == ""
    assert "line 2" in res.stderr
    assert "oops" in res.stderr


def test_infeasible_target_exits_two():
    res = run_cli("solve", str(DATA / "infeasible.spec"))
    assert res.returncode == 2
    assert "error:" in res.stderr
    assert "attainable" in res.stderr


@pytest.mark.parametrize(
    "support_line",
    ["domain = 0 1", "points = " + " ".join(map(str, np.linspace(0.0, 1.0, 16)))],
)
def test_jointly_unattainable_targets_exit_two(tmp_path, capsys, support_line):
    # E[x] = 0.9 with E[x^2] = 0.5 asks for a negative variance.
    spec = tmp_path / "joint.spec"
    spec.write_text(
        f"{support_line}\nconstraint = power 1 eq 0.9\n"
        "constraint = power 2 eq 0.5\n"
    )
    assert main(["solve", str(spec)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "underflow" in err


def test_missing_spec_file_exits_one():
    res = run_cli("solve", "no/such/file.spec")
    assert res.returncode == 1
    assert "cannot read spec file" in res.stderr


def test_mixed_styles_are_rejected(tmp_path):
    spec = tmp_path / "mixed.spec"
    spec.write_text(
        "domain = 0 1\nconstraint = power 1 eq 0.5\nassessment = 0.5 0.8\n"
    )
    res = run_cli("solve", str(spec))
    assert res.returncode == 1
    assert "one style" in res.stderr


def test_bad_masses_exit_one():
    res = run_cli("entropy", "--masses", "0.5,oops")
    assert res.returncode == 1


# ------------------------------------------------------------------ process

@pytest.mark.parametrize(
    "name", ["uniform", "cara", "assessed", "bad_key", "infeasible"]
)
def test_process_matches_main(tmp_path, capsys, name):
    # The process ends with os._exit: whatever main() prints must be out by
    # then, with the exit code main() returns.
    spec = str(DATA / f"{name}.spec")
    code = main(["solve", spec])
    out, err = capsys.readouterr()
    res = run_cli("solve", spec, text=False)
    assert (res.returncode, res.stdout, res.stderr) == (
        code, out.encode(), err.encode()
    )
    assert code == {"bad_key": 1, "infeasible": 2}.get(name, 0)
    if code == 0:
        here, there = tmp_path / "main.csv", tmp_path / "process.csv"
        assert main(["solve", spec, "--out", str(here)]) == 0
        assert run_cli("solve", spec, "--out", str(there)).returncode == 0
        assert there.read_bytes() == here.read_bytes()


def test_usage_error_exits_two():
    res = run_cli("solve")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("usage: maxentutil solve")


@pytest.mark.parametrize(
    "args",
    [["entropy", "--masses", "0.5,0.5"], ["solve", str(DATA / "cara.spec")]],
)
def test_closed_stdout_pipe_exits_one_quietly(args):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = run_cli(*args, stdout=write_end, capture_output=False,
                      stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert res.returncode == 1
    assert res.stderr == ""


def test_unwritable_output_exits_one(tmp_path):
    res = run_cli("solve", str(DATA / "cara.spec"), "--out",
                  str(tmp_path / "missing" / "table.csv"))
    assert res.returncode == 1
    assert res.stderr.startswith("error: cannot write output:")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_on_a_full_device_exits_one():
    with open("/dev/full", "w") as full:
        res = run_cli("entropy", "--masses", "0.5,0.5", stdout=full,
                      capture_output=False, stderr=subprocess.PIPE)
    assert res.returncode == 1
    assert res.stderr.startswith("error: cannot write output:")
    assert "Traceback" not in res.stderr and "ignored" not in res.stderr


def test_quiet_run_needs_no_stdout(tmp_path):
    # Started with fd 1 closed, Python has no sys.stdout at all.
    out = tmp_path / "table.csv"
    res = run_cli("solve", str(DATA / "cara.spec"), "--quiet", "--out", str(out),
                  preexec_fn=lambda: os.close(1), capture_output=False,
                  stderr=subprocess.PIPE)
    assert res.returncode == 0, res.stderr
    assert len(out.read_text().splitlines()) == 129


# ---------------------------------------------------------------- roundtrip

def test_csv_density_reproduces_the_reported_entropy(tmp_path):
    out = tmp_path / "table.csv"
    res = run_cli("solve", str(DATA / "cara.spec"), "--out", str(out))
    reported = float(summary_dict(res.stdout)["entropy"])
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    density = np.array([float(r["u"]) for r in rows])
    support = Support.continuous(0.0, 5.0, len(rows))
    assert abs(differential_entropy(density, support).value - reported) < 1e-8


def test_csv_floats_roundtrip_exactly(tmp_path):
    # %.17g serialization means the parsed table is bit-identical to the
    # solver output, not an approximation of it.
    out = tmp_path / "table.csv"
    run_cli("solve", str(DATA / "uniform.spec"), "--out", str(out))
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    u = np.array([float(r["u"]) for r in rows])
    assert np.array_equal(u, np.ones(128))
