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
mixes constraints and assessments is rejected.  `nodes`, `tol`,
`max_iter`, `base` (natural or base2) and `out` may be set in the file; a
command-line flag that is given (a zero is) overrides its key, before the
spec's rules run, so they hold for flags too: `--nodes` on a `points` spec
fails as `nodes = N` does.  Only `constraint` and `assessment` lines
repeat; any other key given twice is an error.

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
    """Everything a spec file can say (and the flags laid over it), before
    it becomes a problem."""

    domain: tuple[float, float] | None = None
    nodes: int | None = None
    points: tuple[float, ...] | None = None
    constraints: list[ConstraintSpec] = field(default_factory=list)
    assessments: list[tuple[float, float]] = field(default_factory=list)
    tol: float | None = None
    max_iter: int | None = None
    base: str | None = None
    out: str | None = None


def _number(kind: type, text: str, message: str) -> float:
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(message) from None


def _floats(tokens: list[str], what: str) -> list[float]:
    try:
        return [float(t) for t in tokens]
    except ValueError:
        raise ValidationError(
            f"{what} expects numbers, got {' '.join(tokens)!r}"
        ) from None


def _parse_constraint(tokens: list[str]) -> ConstraintSpec:
    if not tokens:
        raise ValidationError("empty constraint")
    kind = tokens[0]
    split = next((tokens.index(m) for m in ("eq", "in") if m in tokens), None)
    if split is None:
        raise ValidationError("constraint needs a target: 'eq value' or 'in lo hi'")
    params, marker, target = tokens[1:split], tokens[split], tokens[split + 1 :]

    if kind == "power":
        if len(params) != 1:
            raise ValidationError("power takes one degree")
        degree = _number(int, params[0], "power degree must be an integer")
        fn = ConstraintFunction.power(degree)
    elif kind == "indicator":
        if len(params) != 2:
            raise ValidationError("indicator takes two edges")
        fn = ConstraintFunction.indicator(*_floats(params, "indicator"))
    elif kind == "tabulated":
        fn = ConstraintFunction.tabulated(_floats(params, "tabulated"))
    else:
        raise ValidationError(f"unknown constraint kind {kind!r}")

    values = _floats(target, "target")
    if marker == "eq":
        if len(values) != 1:
            raise ValidationError("'eq' takes one target value")
        return ConstraintSpec.equality(fn, values[0])
    if len(values) != 2:
        raise ValidationError("'in' takes a lower and an upper bound")
    return ConstraintSpec.interval(fn, values[0], values[1])


def _parse_line(spec: SpecFile, line: str) -> None:
    if "=" not in line:
        raise ValidationError("expected 'key = value'")
    key, _, value = line.partition("=")
    key, value = key.strip(), value.strip()
    tokens = value.split()
    if key in _ONCE and getattr(spec, key) is not None:
        raise ValidationError(f"{key} already set")

    if key == "domain":
        if len(tokens) != 2:
            raise ValidationError("domain takes two endpoints")
        spec.domain = tuple(_floats(tokens, "domain"))
    elif key == "points":
        spec.points = tuple(_floats(tokens, "points"))
    elif key in ("nodes", "max_iter"):
        setattr(spec, key, _number(int, value, f"{key} expects an integer"))
    elif key == "tol":
        spec.tol = _number(float, value, "tol expects a number")
    elif key == "constraint":
        spec.constraints.append(_parse_constraint(tokens))
    elif key == "assessment":
        if len(tokens) != 2:
            raise ValidationError("assessment takes a point and a value")
        spec.assessments.append(tuple(_floats(tokens, "assessment")))
    elif key == "base":
        if value not in _UNIT:
            raise ValidationError("base must be 'natural' or 'base2'")
        spec.base = value
    elif key == "out":
        spec.out = value
    else:
        raise ValidationError(f"unknown key {key!r}")


def parse_spec_file(path: str) -> SpecFile:
    """Read a spec file; each failure names its line number once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read spec file: {exc}") from None
    spec = SpecFile()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                _parse_line(spec, line)
            except ValidationError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from None
    return spec


def _checked_spec(args: argparse.Namespace) -> SpecFile:
    """The spec file with every given flag laid over it (a zero is given),
    then checked by the rules between keys, for flags as for the file."""
    spec = parse_spec_file(args.spec)
    for key in _ONCE:  # every flag that sets a spec key is one of these
        flag = vars(args).get(key)
        if flag is not None:
            setattr(spec, key, flag)
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


def _solve_density(spec: SpecFile) -> tuple[MaxEntSolution, UtilityCurve | None]:
    """The spec's solved density.  Assessed points come with their curve:
    they are solved on a grid refined for it (see
    :func:`maxent_utility_from_assessments`).  No other spec builds a curve
    here."""
    if spec.domain is not None:
        nodes = 1024 if spec.nodes is None else spec.nodes
        support = Support.continuous(*spec.domain, n=nodes)
    else:
        support = Support.discrete(spec.points)
    max_iter = 200 if spec.max_iter is None else spec.max_iter
    options = SolveOptions(tol=spec.tol, max_iter=max_iter)
    if spec.assessments:
        curve, solution = maxent_utility_from_assessments(
            support, spec.assessments, options
        )
        return solution, curve
    return solve_interval(support, spec.constraints, options), None


def _solve_spec(spec: SpecFile) -> ResultBundle:
    solution, curve = _solve_density(spec)
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
        solution=solution, family=family, base=spec.base or "natural",
        curve=curve, profile=profile,
    )


def cmd_solve(args: argparse.Namespace) -> int:
    spec = _checked_spec(args)
    bundle = _solve_spec(spec)
    if not args.quiet:
        sys.stdout.write(bundle.summary_text())
    table = bundle.table_text()
    if spec.out:
        with open(spec.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(table)
    else:
        if not args.quiet:
            sys.stdout.write("\n")
        sys.stdout.write(table)
    return 0


def cmd_entropy(args: argparse.Namespace) -> int:
    if (args.spec is None) == (args.masses is None):
        raise ValidationError("entropy needs a spec file or --masses, not both")
    if args.masses is not None:
        masses = _floats(args.masses.replace(",", " ").split(), "--masses")
        value = discrete_entropy(masses, args.base or "natural")
    else:
        spec = _checked_spec(args)
        solution, _ = _solve_density(spec)
        value = EntropyValue(solution.entropy).in_base(spec.base or "natural")
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
    solve.add_argument("--base2", action="store_const", const="base2", dest="base",
                       help="report entropy in bits")
    solve.add_argument("--out", default=None, help="write the table to this file")
    solve.add_argument("--quiet", action="store_true", help="suppress the summary")
    solve.set_defaults(func=cmd_solve)

    entropy = sub.add_parser("entropy", help="entropy of masses or of a solved spec")
    entropy.add_argument("spec", nargs="?", default=None)
    entropy.add_argument("--masses", default=None, help="comma-separated masses")
    entropy.add_argument("--tol", type=float, default=None)
    entropy.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    entropy.add_argument("--nodes", type=int, default=None)
    entropy.add_argument("--base2", action="store_const", const="base2", dest="base")
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
