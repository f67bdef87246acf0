"""Command-line front end: solve a spec file, or report an entropy.

The spec format is one construct per line, `key = value`, with `#` starting
a comment.  Supports are given as either `domain = a b` (continuous, with
an optional `nodes = N`) or `points = x1 x2 ...` (discrete).  Constraints
repeat one per line:

    constraint = power 1 eq 1.0
    constraint = power 2 in 0.5 1.5
    constraint = indicator 0.25 0.75 eq 0.4
    constraint = tabulated v1 ... vn eq 0.3

Assessed utility points use `assessment = x v` lines instead; a spec that
mixes constraints and assessments is rejected.  `tol`, `max_iter`, `base`
(natural or base2) and `out` may be set in the file and are overridden by
the corresponding command-line flags.  Only `constraint` and `assessment`
lines repeat; any other key given twice is an error.

Exit status: 0 on convergence, 1 for parse or validation problems, output
that cannot be written, or a stdout pipe whose reader has gone away, 2 when
the problem is infeasible.
The `maxentutil` command and `python -m maxentutil` go through `run()`,
which flushes stdout and stderr and ends the process with `os._exit`: no
`atexit` handler runs after the command, so profile or trace through
`main(argv)`, which returns the exit status instead.

All numbers are printed with `%.17g`, so the table parses back bit for
bit.  The table is formatted one run of same-shaped rows at a time, byte
for byte what `%.17g` per value gives.  On one numpy/BLAS build, identical
inputs produce byte-identical output from run to run.  Across builds the
last bits of a number may move (numpy's `exp`, BLAS reductions, LAPACK's
quadrature nodes, and numpy's `pow`, whose SIMD and libm versions differ
by 1 ulp at 193-245 of 8192 nodes on [-1, 1]): numbers agree within
rel 1e-12 / abs 1e-14, and formatting and text are identical.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from .core import (
    ConstraintFunction,
    ConstraintSpec,
    InfeasibleError,
    MaxentError,
    MaxEntSolution,
    Support,
    ValidationError,
)
from .entropy import EntropyValue, discrete_entropy
from .risk import RiskAversionProfile, risk_aversion_analytic
from .solver import SolveOptions, solve_interval
from .utility import (
    UtilityCurve,
    classify_family,
    density_to_curve,
    maxent_utility_from_assessments,
)

__all__ = [
    "main", "run", "cmd_solve", "cmd_entropy", "parse_spec_file", "ResultBundle"
]

_UNIT = {"natural": "nats", "base2": "bits"}
#: Spec keys that may appear at most once.
_ONCE = ("domain", "points", "nodes", "tol", "max_iter", "base", "out")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


@dataclass
class SpecFile:
    """Everything a spec file can say, before it becomes a problem."""

    domain: tuple[float, float] | None = None
    nodes: int | None = None
    points: tuple[float, ...] | None = None
    constraints: list[ConstraintSpec] = field(default_factory=list)
    assessments: list[tuple[float, float]] = field(default_factory=list)
    tol: float | None = None
    max_iter: int | None = None
    base: str | None = None
    out: str | None = None


def _fail(lineno: int, message: str) -> None:
    raise ValidationError(f"line {lineno}: {message}")


def _floats(tokens: list[str], lineno: int, what: str) -> list[float]:
    try:
        return [float(t) for t in tokens]
    except ValueError:
        _fail(lineno, f"{what} expects numbers, got {' '.join(tokens)!r}")


def _parse_constraint(tokens: list[str], lineno: int) -> ConstraintSpec:
    if not tokens:
        _fail(lineno, "empty constraint")
    kind = tokens[0]
    split = None
    for marker in ("eq", "in"):
        if marker in tokens:
            split = tokens.index(marker)
            break
    if split is None:
        _fail(lineno, "constraint needs a target: 'eq value' or 'in lo hi'")
    params, marker, target = tokens[1:split], tokens[split], tokens[split + 1 :]

    try:
        if kind == "power":
            if len(params) != 1:
                _fail(lineno, "power takes one degree")
            fn = ConstraintFunction.power(int(params[0]))
        elif kind == "indicator":
            if len(params) != 2:
                _fail(lineno, "indicator takes two edges")
            lo, hi = _floats(params, lineno, "indicator")
            fn = ConstraintFunction.indicator(lo, hi)
        elif kind == "tabulated":
            fn = ConstraintFunction.tabulated(_floats(params, lineno, "tabulated"))
        else:
            _fail(lineno, f"unknown constraint kind {kind!r}")
    except ValueError:
        _fail(lineno, "power degree must be an integer")
    except ValidationError as exc:
        _fail(lineno, str(exc))

    values = _floats(target, lineno, "target")
    try:
        if marker == "eq":
            if len(values) != 1:
                _fail(lineno, "'eq' takes one target value")
            return ConstraintSpec.equality(fn, values[0])
        if len(values) != 2:
            _fail(lineno, "'in' takes a lower and an upper bound")
        return ConstraintSpec.interval(fn, values[0], values[1])
    except ValidationError as exc:
        _fail(lineno, str(exc))


def parse_spec_file(path: str) -> SpecFile:
    """Read a spec file; all failures carry their line number."""
    spec = SpecFile()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValidationError(f"cannot read spec file: {exc}") from None

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _fail(lineno, "expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        tokens = value.split()
        if key in _ONCE and getattr(spec, key) is not None:
            _fail(lineno, f"{key} already set")

        if key == "domain":
            if len(tokens) != 2:
                _fail(lineno, "domain takes two endpoints")
            a, b = _floats(tokens, lineno, "domain")
            spec.domain = (a, b)
        elif key == "points":
            spec.points = tuple(_floats(tokens, lineno, "points"))
        elif key == "nodes":
            try:
                spec.nodes = int(value)
            except ValueError:
                _fail(lineno, "nodes expects an integer")
        elif key == "constraint":
            spec.constraints.append(_parse_constraint(tokens, lineno))
        elif key == "assessment":
            if len(tokens) != 2:
                _fail(lineno, "assessment takes a point and a value")
            x, v = _floats(tokens, lineno, "assessment")
            spec.assessments.append((x, v))
        elif key == "tol":
            try:
                spec.tol = float(value)
            except ValueError:
                _fail(lineno, "tol expects a number")
        elif key == "max_iter":
            try:
                spec.max_iter = int(value)
            except ValueError:
                _fail(lineno, "max_iter expects an integer")
        elif key == "base":
            if value not in _UNIT:
                _fail(lineno, "base must be 'natural' or 'base2'")
            spec.base = value
        elif key == "out":
            spec.out = value
        else:
            _fail(lineno, f"unknown key {key!r}")

    if (spec.domain is None) == (spec.points is None):
        raise ValidationError("spec needs exactly one of 'domain' or 'points'")
    if spec.constraints and spec.assessments:
        raise ValidationError("spec mixes constraints and assessments; use one style")
    if spec.points is not None and spec.assessments:
        raise ValidationError("assessments need a continuous domain")
    if spec.points is not None and spec.nodes is not None:
        raise ValidationError("'nodes' applies only to a continuous domain")
    return spec


@dataclass
class ResultBundle:
    """A solved run, ready to be printed: summary plus per-node table."""

    solution: MaxEntSolution
    family: str
    base: str
    curve: UtilityCurve | None = None
    profile: RiskAversionProfile | None = None

    def summary_text(self) -> str:
        s = self.solution
        d = s.diagnostics
        lines = [
            "status = converged",
            f"family = {self.family}",
            f"support = {s.support.kind}",
            f"nodes = {s.support.n}",
            f"iterations = {d.iterations}",
            f"log_partition = {_fmt(s.log_partition)}",
            f"entropy = {_fmt(EntropyValue(s.entropy).in_base(self.base).value)}",
            f"entropy_base = {self.base}",
        ]
        for j, (m, r, a) in enumerate(
            zip(s.multipliers, d.residuals, d.active_bounds)
        ):
            lines.append(f"multiplier[{j}] = {_fmt(m)}")
            lines.append(f"residual[{j}] = {_fmt(r)}")
            lines.append(f"active[{j}] = {a}")
        return "\n".join(lines) + "\n"

    def table_text(self) -> str:
        """The `x,u,U,gamma` table, one `%` per run of rows that have (or
        lack) a gamma value; `U` is empty throughout without a curve."""
        s = self.solution
        n = s.support.n
        cols = [s.support.nodes, s.density]
        head = "%.17g,%.17g,,"
        if self.curve is not None:
            cols.append(self.curve.curve)
            head = "%.17g,%.17g,%.17g,"
        width = len(cols)
        kept = np.zeros(n, dtype=bool)
        if self.profile is not None:
            p = self.profile
            kept[p.node_indices] = True
            gamma = np.zeros(n)
            gamma[p.node_indices] = p.gamma
            cols.append(gamma)
        table = np.column_stack(cols)
        bounds = [0, *(np.flatnonzero(np.diff(kept)) + 1).tolist(), n]
        parts = ["x,u,U,gamma\n"]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            on = bool(kept[lo])
            row = head + ("%.17g\n" if on else "\n")
            block = table[lo:hi, : width + on]
            parts.append((row * (hi - lo)) % tuple(block.ravel().tolist()))
        return "".join(parts)


def _setting(*values):
    """The first value that is set (flag, spec file, default).  A zero is
    set, so the validators see it."""
    return next((v for v in values if v is not None), None)


def _solve_density(
    spec: SpecFile, args: argparse.Namespace
) -> tuple[MaxEntSolution, UtilityCurve | None]:
    """The spec's solved density.  Assessed points come with their curve:
    they are solved on a grid refined for it (see
    :func:`maxent_utility_from_assessments`).  No other spec builds a curve
    here."""
    if spec.domain is not None:
        nodes = _setting(getattr(args, "nodes", None), spec.nodes, 1024)
        support = Support.continuous(*spec.domain, n=nodes)
    else:
        support = Support.discrete(spec.points)
    options = SolveOptions(
        tol=_setting(getattr(args, "tol", None), spec.tol),
        max_iter=_setting(getattr(args, "max_iter", None), spec.max_iter, 200),
    )
    if spec.assessments:
        curve, solution = maxent_utility_from_assessments(
            support, spec.assessments, options
        )
        return solution, curve
    return solve_interval(support, spec.constraints, options), None


def _solve_spec(spec: SpecFile, args: argparse.Namespace) -> ResultBundle:
    solution, curve = _solve_density(spec, args)
    base = "base2" if getattr(args, "base2", False) else (spec.base or "natural")
    family = classify_family(solution.constraints)
    profile = None
    if solution.support.is_continuous:
        if curve is None:
            curve = density_to_curve(solution.density, solution.support)
        try:
            profile = risk_aversion_analytic(solution)
        except ValidationError:
            profile = None  # tabulated constraints without a slope
    return ResultBundle(
        solution=solution, family=family, base=base, curve=curve, profile=profile
    )


def cmd_solve(args: argparse.Namespace) -> int:
    spec = parse_spec_file(args.spec)
    bundle = _solve_spec(spec, args)
    out_path = args.out or spec.out
    if not args.quiet:
        sys.stdout.write(bundle.summary_text())
    table = bundle.table_text()
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(table)
    else:
        if not args.quiet:
            sys.stdout.write("\n")
        sys.stdout.write(table)
    return 0


def _parse_masses(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.replace(",", " ").split()])
    except ValueError:
        raise ValidationError(f"--masses expects numbers, got {text!r}") from None


def cmd_entropy(args: argparse.Namespace) -> int:
    base = "base2" if args.base2 else "natural"
    if (args.spec is None) == (args.masses is None):
        raise ValidationError("entropy needs a spec file or --masses, not both")
    if args.masses is not None:
        value = discrete_entropy(_parse_masses(args.masses), base)
    else:
        spec = parse_spec_file(args.spec)
        if spec.base and not args.base2:
            base = spec.base
        solution, _ = _solve_density(spec, args)
        value = EntropyValue(solution.entropy).in_base(base)
    sys.stdout.write(f"{_fmt(value.value)} ({_UNIT[value.base]})\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxentutil",
        description="Maximum-entropy densities and utility functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a spec file and print the result")
    solve.add_argument("spec", help="path to a problem spec file")
    solve.add_argument("--tol", type=float, default=None, help="residual tolerance")
    solve.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    solve.add_argument("--nodes", type=int, default=None, help="quadrature nodes")
    solve.add_argument("--base2", action="store_true", help="report entropy in bits")
    solve.add_argument("--out", default=None, help="write the table to this file")
    solve.add_argument("--quiet", action="store_true", help="suppress the summary")
    solve.set_defaults(func=cmd_solve)

    entropy = sub.add_parser("entropy", help="entropy of masses or of a solved spec")
    entropy.add_argument("spec", nargs="?", default=None)
    entropy.add_argument("--masses", default=None, help="comma-separated masses")
    entropy.add_argument("--tol", type=float, default=None)
    entropy.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    entropy.add_argument("--nodes", type=int, default=None)
    entropy.add_argument("--base2", action="store_true")
    entropy.set_defaults(func=cmd_entropy)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit status; the process goes on.

    This is the in-process API (tests, profilers, library callers).
    Usage errors and `--help` raise argparse's `SystemExit`.
    """
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:  # None when started with fd 1 closed
            # A reader that has gone away shows here, not at interpreter exit.
            sys.stdout.flush()
        return code
    except InfeasibleError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MaxentError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BrokenPipeError:
        # Downstream consumer (head, less) closed the pipe; leave quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        # The table or summary cannot be written (full disk, missing folder).
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        return 1


def run() -> NoReturn:
    """Process entry point of `maxentutil` and `python -m maxentutil`.

    Calls `main()`, flushes the standard streams and ends the process with
    `os._exit`, skipping interpreter teardown: output files are closed by
    then, and the package registers no `atexit` handler and starts no
    thread.  Exceptions that `main()` raises (usage errors, `--help`,
    interrupts) leave through the normal exit.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        code = code or 1
    os._exit(code)
