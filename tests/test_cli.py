import csv
import math
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxentutil import cli
from maxentutil.cli import ResultBundle, main
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


@pytest.mark.parametrize(
    "constraints,family",
    [
        (["power 1 in 0.4 0.6"], "linear_risk_neutral"),
        (["power 1 in 0.4 0.6", "power 2 eq 0.34"], "general"),
    ],
)
def test_family_leaves_out_slack_brackets(tmp_path, capsys, constraints, family):
    spec = tmp_path / "slack.spec"
    lines = ["domain = 0 1", *(f"constraint = {c}" for c in constraints)]
    spec.write_text("\n".join(lines) + "\n")
    out = str(tmp_path / "t.csv")
    assert main(["solve", str(spec), "--out", out]) == 0
    info = summary_dict(capsys.readouterr().out)
    assert info["active[0]"] == "slack"
    assert info["family"] == family
    # A bracket that binds still counts.
    assert main(["solve", str(DATA / "interval.spec"), "--out", out]) == 0
    info = summary_dict(capsys.readouterr().out)
    assert (info["active[0]"], info["family"]) == ("lo", "cara")


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


@pytest.mark.parametrize("out_line, flags", [("out =\n", []), ("", ["--out", ""])])
def test_an_empty_out_exits_one_from_flag_or_file(
    tmp_path, capsys, monkeypatch, out_line, flags
):
    # An empty file name asks for a file all the same; the table does not
    # fall back to stdout.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "uniform.spec").write_text(f"domain = 0 1\nnodes = 128\n{out_line}")
    assert main(["solve", "uniform.spec", *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: 'out' needs a file name\n"
    assert [p.name for p in tmp_path.iterdir()] == ["uniform.spec"]


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


def test_entropy_of_a_spec_solves_the_density_alone(tmp_path, capsys):
    # The indicator's lower edge lies inside a quadrature panel, so the
    # density jumps there and its utility curve fails the nondecreasing
    # check; the entropy needs no curve.
    spec = tmp_path / "edge.spec"
    spec.write_text(
        "domain = 0 1\nnodes = 1024\nconstraint = indicator 0.5001 0.9 eq 0.95\n"
    )
    assert main(["entropy", str(spec)]) == 0
    value, unit = capsys.readouterr().out.split()
    assert unit == "(nats)"
    # The maximum-entropy density is constant inside and outside the
    # indicator's nodes, with mass v inside.
    support = Support.continuous(0.0, 1.0, 1024)
    x, w = support.nodes, support.weights
    inside = float(w[(x >= 0.5001) & (x <= 0.9)].sum())
    outside, v = float(w.sum()) - inside, 0.95
    expected = -v * math.log(v / inside) - (1 - v) * math.log((1 - v) / outside)
    assert float(value) == pytest.approx(expected, rel=1e-10)


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


def _solve_quietly(tmp_path, capsys, spec_text):
    """``main(["solve", spec])`` on the spec: its exit code, stderr and the
    warnings it raised."""
    spec = tmp_path / "domain.spec"
    spec.write_text(spec_text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve", str(spec), "--quiet"])
    return code, capsys.readouterr().err, caught


@pytest.mark.parametrize("domain", ["0 1e-310", "-1e308 1e308",
                                    "0 3.9e-306", "0 1e-307", "0 6e-309"])
def test_a_domain_out_of_floating_point_range_exits_one(tmp_path, capsys, domain):
    code, err, caught = _solve_quietly(tmp_path, capsys, f"domain = {domain}\nnodes = 64\n")
    a, b = map(float, domain.split())
    assert code == 1
    assert err.startswith(f"error: continuous support [{a!r}, {b!r}]")
    assert "b - a and 1/(b - a) must be finite and positive" in err
    assert "Traceback" not in err
    assert [str(w.message) for w in caught] == []


def test_a_domain_too_narrow_for_its_nodes_exits_one(tmp_path, capsys):
    # All 64 nodes round to 5.0: the table would repeat x = 5.
    code, err, caught = _solve_quietly(
        tmp_path, capsys, "domain = 5 5.000000000000001\nnodes = 64\n")
    assert code == 1
    assert err == ("error: continuous support [5.0, 5.000000000000001] is too narrow "
                   "for 64 nodes: they are not strictly increasing in floating point\n")
    assert [str(w.message) for w in caught] == []


def test_a_density_whose_neg_p_log_p_overflows_exits_one(tmp_path, capsys):
    # 1/(b - a) is finite, but the solved density reaches about 8e305.
    code, err, caught = _solve_quietly(
        tmp_path, capsys,
        "domain = 0 1e-304\nnodes = 64\nconstraint = indicator 0 1e-306 eq 0.99\n")
    assert code == 1
    assert err.startswith("error: the density's largest value ")
    assert err.endswith(" is too large: its -p log p overflows a double\n")
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("support, constraint", [
    ("domain = 0 1e40\nnodes = 64", "power 8 eq 1e300"),
    ("points = 0 1e40 2e40", "power 8 eq 1e300"),
    ("domain = -1e40 0\nnodes = 64", "power 9 in -1e300 -1e290"),
], ids=["[0, 1e40]", "points to 2e40", "[-1e40, 0]"])
def test_a_power_row_that_overflows_exits_one(tmp_path, capsys, support, constraint):
    code, err, caught = _solve_quietly(
        tmp_path, capsys, f"{support}\nconstraint = {constraint}\n")
    assert code == 1
    degree = constraint.split()[1]
    assert err.startswith(f"error: power {degree} overflows a double at the node ")
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("domain", ["0 1e-300", "-8e307 8e307", "0 4e-306"])
def test_a_domain_near_the_floating_point_range_solves(tmp_path, capsys, domain):
    code, err, caught = _solve_quietly(tmp_path, capsys, f"domain = {domain}\nnodes = 64\n")
    assert (code, err) == (0, "")
    assert [str(w.message) for w in caught] == []


#: Specs whose rows are too wide or too narrow for doubles in the caller's
#: units: (spec lines, exit code, start of stderr).  Newton works in each
#: row's unit, so none overflows or underflows; a wide row at the default
#: absolute tol still cannot converge, as its rounding floor lies far above
#: tol.
NO_CONVERGENCE = "error: no convergence to tolerance 1e-08 in 200 iterations"
FAR_RANGE_SPECS = {
    "mean near 1e199": (["domain = 0 1e200", "nodes = 64",
                         "constraint = power 1 eq 1e199"], 2, NO_CONVERGENCE),
    "mean near 1e199, tol 1e192": (["domain = 0 1e200", "nodes = 64", "tol = 1e192",
                                    "constraint = power 1 eq 1e199"], 0, ""),
    "mean 0 on +-8e307": (["domain = -8e307 8e307", "nodes = 64",
                           "constraint = power 1 eq 0"], 2, NO_CONVERGENCE),
    "cube near 1.8e308": (["domain = -5.6e102 5.6e102", "nodes = 64",
                           "constraint = power 3 eq 1e300"], 2, NO_CONVERGENCE),
    "power 1023": (["domain = 0 2", "nodes = 64", "constraint = power 1023 eq 1e300"],
                   2, "error: multipliers drive the density to zero"),
    "tabulated +-1.7e308": (["points = 0 1 2", "constraint = tabulated -1.7e308 "
                             "1.7e308 1.7e308 eq 1e308"], 2, "error: "),
    "covariance near 1e-400": (["domain = 0 1e-100", "nodes = 64", "tol = 1e-208",
                                "constraint = power 2 eq 2e-201"], 0, ""),
    # In its own unit the row solves, but its multiplier in the caller's
    # units, near 1e310, is no double.
    "multiplier past the doubles": (
        ["points = 0 1 2", "tol = 1e-318",
         "constraint = tabulated 0 1e-310 2e-310 eq 1.9e-310"],
        2, "error: a multiplier overflows a double: its row is too narrow\n"),
    # A bracket bound far outside a narrow row's range never binds.
    "bracket of +-1e300 on [0, 1e-100]": (
        ["domain = 0 1e-100", "nodes = 64", "constraint = power 1 in -1e300 1e300"],
        0, ""),
    "bracket of +-1.7e308 on a subnormal row": (
        ["points = 0 1", "constraint = tabulated 0 5e-324 in -1.7e308 1.7e308"], 0, ""),
}


@pytest.mark.parametrize("spec, code, err", FAR_RANGE_SPECS.values(),
                         ids=FAR_RANGE_SPECS.keys())
def test_a_row_far_from_unit_scale_solves_or_fails_without_a_warning(
    tmp_path, capsys, spec, code, err
):
    got, stderr, caught = _solve_quietly(tmp_path, capsys, "\n".join(spec) + "\n")
    assert (got, stderr[:len(err)]) == (code, err)
    assert bool(stderr) == bool(code)
    assert [str(w.message) for w in caught] == []


def test_missing_spec_file_exits_one():
    res = run_cli("solve", "no/such/file.spec")
    assert res.returncode == 1
    assert "cannot read spec file" in res.stderr


def test_spec_file_that_is_not_utf8_exits_one(tmp_path):
    spec = tmp_path / "latin1.spec"
    spec.write_bytes(b"domain = 0 1\n# caf\xe9\n")
    res = run_cli("solve", str(spec))
    assert res.returncode == 1
    assert res.stderr.startswith("error: cannot read spec file:")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "constraint, message",
    [
        ("power 1 2 eq 1", "power takes one degree"),
        ("indicator 0.5 eq 0.3", "indicator takes two edges"),
        ("indicator 0.2 x eq 0.3", "indicator expects numbers"),
        ("tabulated 0.1 y eq 0.3", "tabulated expects numbers"),
        ("cubic 3 eq 0.3", "unknown constraint kind 'cubic'"),
        ("power 1 eq 0.3 0.4", "'eq' takes one target value"),
        ("power 1 in 0.3", "'in' takes a lower and an upper bound"),
    ],
)
def test_constraint_line_error_names_its_line_once(tmp_path, capsys, constraint, message):
    spec = tmp_path / "bad.spec"
    spec.write_text(f"domain = 0 1\nconstraint = {constraint}\n")
    assert main(["solve", str(spec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line 2: {message}")
    assert err.count("line 2:") == 1


@pytest.mark.parametrize(
    "support_line, flags",
    [("points = 0 1", ["--nodes", "64"]), ("points = 0 1", ["--nodes", "0"]),
     ("points = 0 1\nnodes = 64", [])],
)
def test_nodes_on_a_discrete_spec_exits_one_from_flag_or_file(
    tmp_path, capsys, support_line, flags
):
    # Flags are laid over the spec before its rules run.
    spec = tmp_path / "coin.spec"
    spec.write_text(f"{support_line}\nconstraint = power 1 eq 0.75\n")
    assert main(["solve", str(spec), *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: 'nodes' applies only to a continuous domain\n"


def test_mixed_styles_are_rejected(tmp_path):
    spec = tmp_path / "mixed.spec"
    spec.write_text(
        "domain = 0 1\nconstraint = power 1 eq 0.5\nassessment = 0.5 0.8\n"
    )
    res = run_cli("solve", str(spec))
    assert res.returncode == 1
    assert "one style" in res.stderr


@pytest.mark.parametrize("line", ["nan 0.5", "0.5 nan", "0.5 inf"])
def test_a_non_finite_assessment_exits_one(tmp_path, capsys, line):
    spec = tmp_path / "nan.spec"
    spec.write_text(f"domain = 0 1\nassessment = {line}\n")
    assert main(["solve", str(spec)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    x, v = (float(t) for t in line.split())
    assert err == (f"error: assessment 0: {(x, v)!r} is not a pair (point, value) "
                   "of finite real numbers\n")


def test_bad_masses_exit_one():
    res = run_cli("entropy", "--masses", "0.5,oops")
    assert res.returncode == 1


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--nodes", "3"], "--nodes"),
        (["--tol", "0"], "--tol"),
        (["--max-iter", "-5"], "--max-iter"),
        (["--nodes", "3", "--tol", "0", "--max-iter", "-5"], "--nodes, --tol, --max-iter"),
    ],
)
def test_solve_flags_with_masses_exit_one(capsys, flags, named):
    assert main(["entropy", "--masses", "0.5,0.5", *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --masses takes only --base2, not {named}\n"


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


# ------------------------------------------------------------------- table

def per_value_table(bundle: ResultBundle) -> str:
    """The table as one `f"{v:.17g}"` per value: the oracle for the
    run-at-a-time formatter."""
    s, n = bundle.solution, bundle.solution.support.n

    def column(values):
        return [f"{v:.17g}" for v in values.tolist()]

    curve = column(bundle.curve.curve) if bundle.curve is not None else [""] * n
    gamma = [""] * n
    if bundle.profile is not None:
        p = bundle.profile
        for i, g in zip(p.node_indices.tolist(), column(p.gamma)):
            gamma[i] = g
    rows = zip(column(s.support.nodes), column(s.density), curve, gamma)
    return "\n".join(["x,u,U,gamma", *map(",".join, rows)]) + "\n"


def first_mismatch(got: str, want: str):
    """None when the texts agree, else the first line where they differ.
    A short failure message: pytest's diff of two long tables would take
    minutes for every example hypothesis shrinks."""
    if got == want:
        return None
    a, b = got.split("\n"), want.split("\n")
    i = next((i for i, (p, q) in enumerate(zip(a, b)) if p != q), min(len(a), len(b)))
    return i, a[i : i + 1], b[i : i + 1]


def stand_in(cols, kept, shape):
    """A ResultBundle over plain columns.  `shape` is "gamma" (curve and
    profile), "curve" (no profile) or "discrete" (neither)."""
    x, u, U, g = cols
    solution = types.SimpleNamespace(
        support=types.SimpleNamespace(n=len(x), nodes=x), density=u
    )
    curve = None if shape == "discrete" else types.SimpleNamespace(curve=U)
    profile = None
    if shape == "gamma":
        idx = np.flatnonzero(kept)
        profile = types.SimpleNamespace(node_indices=idx, gamma=g[idx])
    return ResultBundle(solution, "custom", "natural", curve, profile)


DOUBLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, 1.0, -3.0]),
    st.integers(-(2**53), 2**53).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def tables(draw):
    n = draw(st.integers(2, 300))
    # Cells drawn from a small pool of values: drawing 4n doubles one by one
    # would cost seconds per example.
    pool = np.array(draw(st.lists(DOUBLES, min_size=1, max_size=24)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = pool[rng.integers(0, len(pool), (4, n))]
    # Alternating runs of kept and masked rows, repeated to length n.
    runs = draw(st.lists(st.integers(1, 40), min_size=1, max_size=10))
    first = draw(st.booleans())
    kept = np.resize(
        np.repeat([(first + j) % 2 == 1 for j in range(len(runs))], runs), n
    )
    shape = draw(st.sampled_from(["gamma", "curve", "discrete"]))
    return cols, kept, shape


@settings(derandomize=True, deadline=None, max_examples=300)
@given(tables())
def test_table_is_byte_identical_to_per_value_formatting(table):
    bundle = stand_in(*table)
    assert first_mismatch(bundle.table_text(), per_value_table(bundle)) is None


MASKS = {
    "none masked": [1, 1, 1, 1, 1, 1, 1, 1],
    "first row masked": [0, 1, 1, 1, 1, 1, 1, 1],
    "last row masked": [1, 1, 1, 1, 1, 1, 1, 0],
    "both ends masked": [0, 1, 1, 1, 1, 1, 1, 0],
    "middle stretch masked": [1, 1, 0, 0, 0, 1, 1, 1],
    "adjacent stretches masked": [1, 0, 1, 0, 0, 1, 0, 1],
    "all masked": [0, 0, 0, 0, 0, 0, 0, 0],
}


@pytest.mark.parametrize("shape", ["gamma", "curve", "discrete"])
@pytest.mark.parametrize("mask", MASKS.values(), ids=MASKS.keys())
def test_table_masks_each_run_of_rows(mask, shape):
    rng = np.random.default_rng(7)
    cols = rng.normal(size=(4, len(mask))) * 10.0 ** rng.integers(-300, 300, (4, len(mask)))
    cols[:, 0] = [-0.0, 0.0, 5e-324, 1e308]
    bundle = stand_in(cols, np.array(mask, dtype=bool), shape)
    assert first_mismatch(bundle.table_text(), per_value_table(bundle)) is None


def ramp(n):
    return " ".join(f"{i / n!r}" for i in range(n))


TABLE_SPECS = {
    **{p.stem: p.read_text() for p in sorted(DATA.glob("*.spec"))
       if p.stem not in ("bad_key", "infeasible")},
    "interval 8192": "domain = 0 1\nnodes = 8192\nconstraint = power 1 in 0.7 0.9\n",
    "indicator": "domain = 0 2\nnodes = 1024\n"
                 "constraint = indicator 0.5 1.25 eq 0.3\nconstraint = power 1 eq 0.9\n",
    "tabulated": f"domain = 0 1\nnodes = 16\nconstraint = tabulated {ramp(16)} eq 0.55\n",
}


@pytest.mark.parametrize("name", TABLE_SPECS)
def test_solved_table_is_byte_identical_to_per_value_formatting(tmp_path, name):
    path = tmp_path / "table.spec"
    path.write_text(TABLE_SPECS[name])
    bundle = cli._solve_spec(cli.parse_spec_file(str(path)))
    if name == "indicator":
        # A masked stretch around each edge, in the middle of the table.
        gaps = np.flatnonzero(np.diff(bundle.profile.node_indices) > 1)
        assert len(gaps) == 2
    if name == "tabulated":
        assert bundle.profile is None  # no slope, so no gamma at all
    assert first_mismatch(bundle.table_text(), per_value_table(bundle)) is None


@pytest.mark.parametrize("to_file", [False, True])
def test_solve_formats_summary_and_table_once(tmp_path, capsys, monkeypatch, to_file):
    # The benchmark's tracer wraps both methods and expects each reached
    # once per solve, with the table written as table_text returns it.
    calls = {"summary_text": [], "table_text": []}
    for name in calls:
        method = getattr(ResultBundle, name)

        def counted(self, _method=method, _name=name):
            text = _method(self)
            calls[_name].append(text)
            return text

        monkeypatch.setattr(ResultBundle, name, counted)
    argv = ["solve", str(DATA / "cara.spec")]
    out = tmp_path / "table.csv"
    if to_file:
        argv += ["--out", str(out)]
    assert main(argv) == 0
    assert [len(c) for c in calls.values()] == [1, 1]
    (summary,), (table,) = calls.values()
    stdout = capsys.readouterr().out
    if to_file:
        assert stdout == summary
        assert out.read_bytes().decode() == table
    else:
        assert stdout == summary + "\n" + table
