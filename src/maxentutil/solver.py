"""Maximum-entropy densities through the convex dual.

For constraint functions h_1..h_m with equality targets b, the entropy
maximizer over the support has exponential form

    p(x) = exp(-log Z(m) - sum_j m_j h_j(x)),

and the multipliers m minimize the smooth convex dual

    D(m) = log Z(m) + sum_j m_j b_j,

whose gradient is b - E_m[h] and whose Hessian is the covariance matrix of
the h_j under p.

Newton, the dual maps and each solve take log Z and the density from one
function, :func:`~maxentutil.core._exponential_form`, by one rounding rule;
the dual maps and each solution evaluate it at given multipliers through
one more, :func:`~maxentutil.core._evaluate`.

There is one solve path, and it also takes interval targets
lo <= E[h] <= hi.  Their dual is one convex function,

    D(m) = log Z(m) + sum_j max(m_j lo_j, m_j hi_j),

smooth wherever no multiplier is zero; an equality is the bracket with
lo == hi.  By complementary slackness a positive multiplier pins an upper
bound and a negative one a lower bound, and a zero one leaves its bracket
slack.  One damped Newton run from zero minimizes D: a bracket row at zero
whose moment lies inside its bracket, or whose Newton step would leave the
side its violated bound names, is held at zero for that step, and a step
that would carry a multiplier across zero stops on it (a ratio test).

Every step is a Newton step on the Hessian scaled to a unit diagonal (plus
a 1e-14 ridge, factored by Cholesky), so no scaling of the constraint
functions or their multipliers changes it, and an Armijo line search damps
it.  Unattainable targets fail hard, not with a quiet wrong answer: their
multipliers diverge until the density underflows at some node, which is
checked after every accepted step.

Newton works on the feature rows centered at their uniform-density means;
the shift only moves log Z, and the reported log Z and density come from
the uncentered matrix.

Newton starts at zero, the uniform density, and what it computes there
before it reads a target is the rows' alone: a uniform start
(:class:`_UniformStart`).  Iteration 0 reads log Z and the moments from it,
and, when every row enters that step, the first scaled-Hessian factor (or
the fact that it is singular): the covariance at zero with every row in it
reads no target.  Power rows depend only on the grid, so the support keeps
the start of each set of power degrees for its later solves; rows with an
indicator or a tabulated function get a fresh one per solve.  The feature
matrix is still tabulated per solve and centered afresh, and a kept start
holds no m x n array.  Results are bit-identical either way: the same
inputs go through the same operations.

A Newton step allocates nothing of size m x n: the covariance centers and
weights its rows in one (2, m, n) workspace per solve, since glibc hands
blocks that large back to the OS and per-step temporaries were faulted in
again on every step (848 minor faults against 258 for an 8-step bracket
solve on 8192 nodes, glibc 2.36).  The kernel works in place on one n-length
array per call; buffering that too measured worse.  On a few rows a numpy
call costs more than its arithmetic, so the bracket bookkeeping runs on
Python floats, by numpy's rules bit for bit (``np.clip``'s ties), and the
scaled Hessian goes to LAPACK's gufuncs directly (:func:`_inverse_factor`).

Nodes with equal feature columns have equal density, so Newton runs on
atoms: each run of equal adjacent columns becomes one column carrying the
run's summed weight (an assessed utility on 8192 nodes has K+1 atoms, one
per cell between its K points).  The solve then hands Newton's multipliers
to :class:`~maxentutil.core.MaxEntSolution`, which evaluates log Z, the
density, the entropy, the residuals and the bracket labels on the full grid,
once, by the evaluation the dual maps share; its feature matrix is the one
the solve tabulated, which ``core._feature_matrix`` returns again while the
solve holds it.  The solve then checks the interval residuals against tol.
A density that loses its mass to rounding is thus named (ValidationError)
before an interval it misses.

A determined problem, m equality rows on m + 1 merged atoms (K assessed
points, or indicators cutting a discrete support into m + 1 runs), has one
density that meets its targets: they fix the atom masses, and the masses
fix the multipliers.  The solver finds those by two square linear solves
(:func:`_determined`), and Newton's first step goes straight to them, so
such a solve takes one step and its density is exact to rounding, not only
to tol.  When a mass is not positive (the targets are infeasible), a system
is singular or the line search rejects the step, Newton runs as for any
other problem.  Rows that merge nothing, such as m powers on m + 1 discrete
points, take no exact step: their multipliers can be so large that the
full-grid evaluation loses the mass to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.linalg import _umath_linalg as _lapack

from .core import (
    ConstraintFunction,
    ConstraintSpec,
    InfeasibleError,
    MaxEntSolution,
    SolverDiagnostics,
    Support,
    ValidationError,
    _UNDERFLOW,
    _exponential_form,
    _evaluate,
    _feature_matrix,
    _finite,
    _integer,
    validate_problem,
)
if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = [
    "SolveOptions",
    "log_partition",
    "dual_value",
    "dual_gradient",
    "dual_hessian",
    "solve_equality",
    "solve_interval",
    "moments",
    "DEFAULT_TOL_DISCRETE",
    "DEFAULT_TOL_CONTINUOUS",
]

DEFAULT_TOL_DISCRETE = 1e-9
DEFAULT_TOL_CONTINUOUS = 1e-8
_ARMIJO_SLOPE = 1e-4
#: The Armijo test forgives an increase of D this small relative to the terms
#: D sums (max(1, |D|, sum_j |m_j| max|h_j|)): near the optimum a Newton step
#: moves D by less than its rounding, and the search would halve it to nothing.
_ARMIJO_ROUNDING = 8.0 * np.finfo(np.float64).eps
#: Added to the unit diagonal of the scaled Hessian, so that consistent but
#: linearly dependent constraints still factor.
_RIDGE = 1e-14
_SINGULAR = "the dual Hessian is singular; the problem is infeasible or unbounded"


@dataclass(frozen=True)
class SolveOptions:
    """Settings of the Newton iteration.

    ``tol`` bounds the max-norm of the constraint residuals; None picks the
    per-kind default (1e-9 discrete, 1e-8 continuous).  ``max_iter`` caps
    the Newton steps of the whole solve.
    """

    tol: float | None = None
    max_iter: int = 200

    def __post_init__(self) -> None:
        if self.tol is not None and not (_finite(self.tol) and self.tol > 0.0):
            raise ValidationError("tol must be positive and finite")
        n = _integer(self.max_iter, "max_iter must be an integer")
        object.__setattr__(self, "max_iter", n)
        if n < 1:
            raise ValidationError("max_iter must be at least 1")

    def resolve_tol(self, support: Support) -> float:
        if self.tol is not None:
            return self.tol
        return DEFAULT_TOL_CONTINUOUS if support.is_continuous else DEFAULT_TOL_DISCRETE


def _inverse_factor(x: NDArray[np.float64]) -> NDArray[np.float64]:
    """``np.linalg.inv(np.linalg.cholesky(x))`` bit for bit, from the LAPACK
    gufuncs it calls; FloatingPointError where it raises LinAlgError."""
    with np.errstate(all="ignore", invalid="raise"):
        return _lapack.inv(_lapack.cholesky_lo(x, signature="d->d"), signature="d->d")


def _covariance(
    H: NDArray[np.float64], wp: NDArray[np.float64], mean: NDArray[np.float64],
    rows: list[int] | None = None, work: NDArray[np.float64] | None = None,
) -> NDArray[np.float64]:
    """Covariance of the rows of H (those listed in ``rows``, or all) about
    their ``mean`` under node masses wp, symmetrized, in a (2, m, n) ``work``."""
    k = H.shape[0] if rows is None else len(rows)
    work = np.empty((2, k, H.shape[1])) if work is None else work
    cen, weighted = work[0, :k], work[1, :k]
    if rows is None:
        np.subtract(H, mean[:, None], out=cen)
    else:
        for r, j in enumerate(rows):
            np.subtract(H[j], mean[j], out=cen[r])
    np.multiply(cen, wp, out=weighted)
    cov = weighted @ cen.T
    return 0.5 * (cov + cov.T)


def _equality_targets(constraints: Sequence[ConstraintSpec]) -> NDArray[np.float64]:
    for i, spec in enumerate(constraints):
        if not spec.is_equality:
            raise ValidationError(f"constraint {i}: {spec.function.label()} has "
                                  "an interval target, which only solve_interval takes")
    return np.array([spec.equals for spec in constraints], dtype=np.float64)


def log_partition(
    support: Support,
    functions: Sequence[ConstraintFunction],
    multipliers: Sequence[float] | NDArray[np.float64],
) -> float:
    """log of Z(m) = sum_i w_i exp(-sum_j m_j h_j(x_i)), with a max-shift so
    that exponents as large as several hundred in magnitude do not overflow."""
    return _evaluate(support, functions, multipliers)[1]


def dual_value(
    support: Support,
    constraints: Sequence[ConstraintSpec],
    multipliers: Sequence[float] | NDArray[np.float64],
) -> float:
    """D(m) = log Z(m) + m . b for equality constraints."""
    specs = validate_problem(support, constraints)
    lam, lz, *_ = _evaluate(support, [s.function for s in specs], multipliers)
    return lz + float(lam @ _equality_targets(specs))


def dual_gradient(
    support: Support,
    constraints: Sequence[ConstraintSpec],
    multipliers: Sequence[float] | NDArray[np.float64],
) -> NDArray[np.float64]:
    """Gradient of the dual: b - E[h] at the current multipliers."""
    specs = validate_problem(support, constraints)
    b = _equality_targets(specs)
    return b - _evaluate(support, [s.function for s in specs], multipliers)[5]


def dual_hessian(
    support: Support,
    constraints: Sequence[ConstraintSpec],
    multipliers: Sequence[float] | NDArray[np.float64],
) -> NDArray[np.float64]:
    """Hessian of the dual: the covariance matrix of the h_j under p."""
    functions = [s.function for s in validate_problem(support, constraints)]
    return _covariance(*_evaluate(support, functions, multipliers)[3:])


def _bracket_rows(
    lam: list[float], mom: list[float], lo: list[float], hi: list[float],
    bracket: list[bool],
) -> tuple[list[float], list[int], list[int]]:
    """A step's bracket bookkeeping on Python floats (see :func:`_newton`):
    the gradient, a tie going to the bound as in ``np.clip``; the rows that
    enter the step; and the positions among those of the rows at zero."""
    g, kept, zero = [], [], []
    for j, (l, x, a, b, is_bracket) in enumerate(zip(lam, mom, lo, hi, bracket)):
        g.append(min(a if l < 0.0 else b, max(b if l > 0.0 else a, x)) - x)
        if is_bracket and l == 0.0:
            if g[j] == 0.0:
                continue
            zero.append(len(kept))
        kept.append(j)
    return g, kept, zero


def _leaving(zero: list[int], step: list[float], g: list[float]) -> list[int]:
    """The rows at zero whose step would leave their target's side."""
    return [r for r in zero if step[r] * g[r] > 0.0]


def _ratio_test(
    lam: list[float], direction: list[float], bracket: list[bool]
) -> tuple[float, list[int]]:
    """The step, at most 1, at which a bracket multiplier first reaches zero,
    and the rows that reach it there."""
    ratio = {j: -l / d for j, (l, d, br) in enumerate(zip(lam, direction, bracket))
             if br and l * d < 0.0}
    step = min([1.0, *ratio.values()])
    return step, [j for j, r in ratio.items() if r <= step]


def _newton_state(steps: int, gnorm: float, lam: NDArray[np.float64]) -> str:
    """Where Newton stopped, for its errors: on a line of its own, so that
    the first line still names the cause alone."""
    values = ", ".join(f"{v:.6g}" for v in lam.tolist())
    return (f"\nat Newton step {steps}: gradient max-norm {gnorm:.6g}, "
            f"multipliers [{values}]")


def _scaled_factor(
    hess: NDArray[np.float64], s: NDArray[np.float64] | None = None
) -> tuple[NDArray[np.float64], ...]:
    """The Hessian scaled by ``s`` on both sides (by default to a unit
    diagonal, s = 1/sqrt(diagonal)), its diagonal set to 1 plus the ridge,
    and factored: (s, L^-1) for its Cholesky factor L, or () when the
    Hessian is singular.  A held row's s is zero, which leaves it out."""
    if s is None:
        var = hess.diagonal()
        if not all(v > 0.0 for v in var.tolist()):  # a NaN fails too
            return ()
        s = 1.0 / np.sqrt(var)
    # The scaling makes the ridge relative, so a multiplier of any size gets
    # the same step.  With a few rows, products with the inverted factor
    # beat two solves, and the factor is numpy.linalg's, bit for bit,
    # without its wrappers' cost.
    scaled = hess * np.multiply.outer(s, s)
    scaled.flat[::len(s) + 1] = 1.0 + _RIDGE
    try:
        return s, _inverse_factor(scaled)
    except FloatingPointError:
        return ()


def _newton_direction(
    factor: tuple[NDArray[np.float64], ...], hess: NDArray[np.float64] | None,
    g: NDArray[np.float64], rows: list[int] | None, zero: list[int],
) -> NDArray[np.float64] | None:
    """Newton's direction from ``factor``, the :func:`_scaled_factor` of the
    Hessian ``hess`` on the rows in ``rows`` (all when None), the rest held at
    zero, as are the rows in ``zero`` whose step would leave their target's
    side (see :func:`_newton`), ``hess`` being factored again without them;
    None when the Hessian is singular.  ``factor`` may be a kept one, so
    its ``s`` is copied, not written."""
    g_rows = g if rows is None else g[rows]
    while factor:
        s, inv = factor
        step_rows = -s * (inv.T @ (inv @ (s * g_rows)))
        away = zero and _leaving(zero, step_rows.tolist(), g_rows.tolist())
        if not away:
            if rows is None:
                return step_rows
            direction = np.zeros(len(g))
            direction[rows] = step_rows
            return direction
        s = s.copy()
        s[away] = 0.0
        factor = _scaled_factor(hess, s)
    return None


def _newton(
    H: NDArray[np.float64],
    w: NDArray[np.float64],
    lo: NDArray[np.float64],
    hi: NDArray[np.float64],
    h_size: NDArray[np.float64],
    tol: float,
    max_iter: int,
    start: _UniformStart,
    exact: NDArray[np.float64] | None = None,
) -> tuple[NDArray[np.float64], int, float, tuple[float, ...], int, int]:
    """Damped Newton descent on the bracket dual
    D(lam) = log Z(lam) + sum_j max(lam_j lo_j, lam_j hi_j) from zero.
    Returns the multipliers, the accepted steps, the final gradient max-norm,
    D at the start and after every accepted step, the line search's
    halvings and the multipliers its accepted steps stopped at zero.

    A row with lo < hi is a bracket.  Its target is the bound its
    multiplier's sign names (hi if positive, lo if negative); at zero it is
    the bound its moment violates, or the moment itself, which holds the row
    at zero.  A row at zero whose Newton step would leave its target's side
    is held too, and the step is recomputed without it.  The first trial
    stops where a multiplier first reaches zero and sets it to exactly 0, so
    every trial lies on the Newton direction.  A row with lo == hi is an
    equality and skips all of this.  ``h_size`` is max|H| per row, the
    scale of D's rounding.

    ``exact``, a determined problem's multipliers (see :func:`_determined`),
    replaces the first Newton direction with the step from zero to them.
    The line search takes that step whole or not at all: when Armijo rejects
    it, Newton takes its own first step instead, as if ``exact`` were None.

    ``start`` is the rows' :class:`_UniformStart`.  Its iteration-0 fields
    are filled by the first run that needs them and read by every later one."""
    m = H.shape[0]
    lam = np.zeros(m)
    bracket = (lo < hi).tolist()
    any_bracket = any(bracket)
    lows, highs = lo.tolist(), hi.tolist()
    # On finite rows p is exp(-log Z) at every node when the multipliers are
    # zero, so w p there is w exp(-log Z) bit for bit, formed where needed.
    wp = None
    if start.mom is None:
        log_z = _exponential_form(H, w, lam)[0]
        wp = w * math.exp(-log_z)
        start.log_z, start.mom = log_z, wp @ H.T
    mom = start.mom
    here = start.log_z + float(lam @ np.where(lam > 0.0, hi, lo))
    trace = [here]
    if m == 0:
        return lam, 0, 0.0, tuple(trace), 0, 0
    work = np.empty((2, m, H.shape[1]))
    halvings = ratio_stops = 0
    for it in range(max_iter + 1):
        rows, zero = None, []
        if any_bracket:
            lams = lam.tolist()
            g_list, kept, zero = _bracket_rows(lams, mom.tolist(), lows, highs, bracket)
            g = np.array(g_list)
            if len(kept) < m:
                # A row held at zero by its bracket stays out of the step
                # and of the covariance.
                rows = kept
        else:
            g = lo - mom
        gnorm = float(np.maximum.reduce(abs(g)))
        if it and not np.minimum.reduce(p) > 0.0:
            raise InfeasibleError(_UNDERFLOW + _newton_state(it, gnorm, lam))
        if gnorm <= tol:
            return lam, it, gnorm, tuple(trace), halvings, ratio_stops
        if it == max_iter:
            break
        allowance = _ARMIJO_ROUNDING * max(1.0, abs(here), float(np.abs(lam) @ h_size))
        step, stops = 1.0, []
        direction = None if exact is None else exact - lam
        while True:
            if direction is None:
                # With every row in it, the first step's Hessian reads no target.
                first = not it and rows is None
                if first and start.first is not None:
                    hess, factor = start.first
                else:
                    if wp is None:
                        wp = w * math.exp(-start.log_z)
                    hess = _covariance(H, wp, mom, rows, work)
                    factor = _scaled_factor(hess)
                    if first:
                        start.first = hess, factor
                direction = _newton_direction(factor, hess, g, rows, zero)
                if direction is None:
                    raise InfeasibleError(_SINGULAR + _newton_state(it, gnorm, lam))
                if any_bracket:
                    step, stops = _ratio_test(lams, direction.tolist(), bracket)
            trial, bound = lam + (direction if step == 1.0 else step * direction), lo
            if any_bracket:
                if stops:
                    trial[stops] = 0.0
                bound = np.where(trial > 0.0, hi, lo)
            lz, p = _exponential_form(H, w, trial)
            value = lz + float(trial @ bound)
            # Written so that a NaN value is rejected too.
            if value <= here + _ARMIJO_SLOPE * float(g @ (trial - lam)) + allowance:
                break
            if exact is not None:
                # The exact step is taken whole or not at all: Newton's own
                # step replaces it.
                exact = direction = None
                continue
            # Only the first trial can reach a ratio-test stop.
            step, stops = 0.5 * step, []
            halvings += 1
            # Stalled once the step no longer moves the multipliers (or,
            # for a direction that is not finite, once it underflows).
            if step == 0.0 or (lam + step * direction == lam).all():
                raise InfeasibleError(
                    "line search stalled; the problem is infeasible or unbounded"
                    + _newton_state(it, gnorm, lam)
                )
        exact = None
        lam, here = trial, value
        trace.append(here)
        ratio_stops += len(stops)
        wp = w * p
        mom = wp @ H.T
    raise InfeasibleError(
        f"no convergence to tolerance {tol:g} in {max_iter} iterations; "
        "the problem is infeasible or unbounded" + _newton_state(max_iter, gnorm, lam)
    )


def _atom_starts(H: NDArray[np.float64]) -> NDArray[np.intp] | None:
    """First column of each run of equal adjacent columns of H, or None when
    every adjacent pair differs.  The rows are compared one at a time, so a
    row that separates every pair (a power of the nodes) ends the search."""
    differs = np.zeros(H.shape[1] - 1, dtype=bool)
    for row in H:
        differs |= row[1:] != row[:-1]
        if differs.all():
            return None
    return np.flatnonzero(np.concatenate(([True], differs)))


def _determined(
    Ha: NDArray[np.float64], wa: NDArray[np.float64], Hc: NDArray[np.float64],
    b: NDArray[np.float64],
) -> NDArray[np.float64] | None:
    """The exact multipliers of m equality rows with targets b on m + 1
    atoms (columns of Ha, weights wa), or None when a system is singular or
    a mass is not positive.  The targets fix the atom masses q, through
    [1; Ha] q = [1; b], and the masses fix the multipliers: the density
    q / wa is exp(-c - Hc^T lam) on the centered rows Hc, so
    [1 | Hc^T] (c, lam) = -log(q / wa).  Both are solved by the LAPACK
    gufunc behind ``np.linalg.solve``, where its LinAlgError (or an
    overflow) raises FloatingPointError."""
    k = len(wa)
    a, rhs = np.empty((k, k)), np.empty(k)
    a[0] = rhs[0] = 1.0
    a[1:], rhs[1:] = Ha, b
    with np.errstate(all="ignore", over="raise", invalid="raise"):
        try:
            q = _lapack.solve1(a, rhs, signature="dd->d")
            if not q.min() > 0.0:
                return None
            a[:, 0], a[:, 1:] = 1.0, Hc.T
            return _lapack.solve1(a, -np.log(q / wa), signature="dd->d")[1:]
        except FloatingPointError:
            return None


class _UniformStart:
    """What a solve computes from its feature rows H before it reads a
    target: each row's range (``h_min``, ``h_max``); the first column of
    each atom (``atoms``, None when no columns merge) and the atoms' weights
    ``wa``; the rows' uniform-density mean ``center`` on the atoms;
    ``hc_size``, max |H - center| per row; and Newton's iteration 0 on the
    centred atom rows, which its first run fills: ``log_z`` and the moments
    ``mom`` of the uniform density, and ``first``, the Hessian there and its
    :func:`_scaled_factor`, once a first step takes every row.  It holds
    O(m^2) numbers, and the atom weights when columns merge: no m x n
    array.  A support keeps one per set of power degrees
    (``Support._uniform_starts``).

    A plain class: a dataclass generates its methods at import, which every
    CLI process pays."""

    def __init__(
        self, H: NDArray[np.float64], w: NDArray[np.float64],
        h_min: NDArray[np.float64], h_max: NDArray[np.float64],
    ) -> None:
        self.h_min, self.h_max = h_min, h_max
        # Newton runs on the atoms; with none to merge it gets the grid's
        # own arrays.
        self.atoms = atoms = _atom_starts(H)
        Ha, wa = (H, w) if atoms is None else (H[:, atoms], np.add.reduceat(w, atoms))
        center = (Ha @ wa) / float(wa.sum())
        self.wa, self.center = wa, center
        self.hc_size = np.maximum(h_max - center, center - h_min)
        self.log_z = self.mom = self.first = None


def _solve(
    support: Support, specs: tuple[ConstraintSpec, ...], options: SolveOptions
) -> MaxEntSolution:
    """One Newton run on the validated specs: the one place a solve
    tabulates them, once, into the feature matrix every step reads."""
    functions = [s.function for s in specs]
    H, w = _feature_matrix(support, functions), support.weights
    tol = options.resolve_tol(support)

    # An equality is the bracket with lo == hi.
    lo = np.array([s.equals if s.is_equality else s.bounds[0] for s in specs])
    hi = np.array([s.equals if s.is_equality else s.bounds[1] for s in specs])
    # Power rows are a function of the grid alone, so the grid keeps their
    # uniform start for every later solve of the same powers.  Indicator and
    # tabulated rows carry per-problem data; theirs is computed per solve.
    key = None
    if all(f.kind == "power" for f in functions):
        key = tuple(f.degree for f in functions)
    start = None if key is None else support._uniform_starts.get(key)
    if start is None:
        h_min, h_max = H.min(axis=1), H.max(axis=1)
    else:
        h_min, h_max = start.h_min, start.h_max
    for i, spec in enumerate(specs):
        # One rule per row: its bracket meets the open range (h_min, h_max),
        # which puts an equality's target strictly inside.
        if lo[i] < h_max[i] and hi[i] > h_min[i]:
            continue
        label = spec.function.label()
        attainable = f"the attainable range ({h_min[i]:g}, {h_max[i]:g})"
        if not spec.is_equality:
            why = (f"interval [{lo[i]:g}, {hi[i]:g}] for {label} cannot "
                   f"intersect {attainable}")
        elif h_min[i] == h_max[i]:
            why = f"constraint {label} is constant on the support"
        else:
            why = (f"target {lo[i]:g} for {label} does not lie strictly inside "
                   f"{attainable}; the problem is infeasible or degenerate")
        raise InfeasibleError(why)

    if start is None:
        start = _UniformStart(H, w, h_min, h_max)
        if key is not None:
            support._uniform_starts[key] = start
    Ha = H if start.atoms is None else H[:, start.atoms]
    # C order: `H[:, atoms]` comes out in F order, on which matmul rounds
    # differently.
    Hc = np.subtract(Ha, start.center[:, None], order="C")
    # A determined problem's first step goes straight to its multipliers.
    # Only merged atoms qualify: m powers on m + 1 points can have exact
    # multipliers near 1e7, at which the solution's full-grid log Z loses
    # the mass to rounding.
    exact, wa, center = None, start.wa, start.center
    if start.atoms is not None and len(wa) == len(specs) + 1 and (lo == hi).all():
        exact = _determined(Ha, wa, Hc, lo)
    lam, iters, gnorm, trace, halvings, ratio_stops = _newton(
        Hc, wa, lo - center, hi - center, start.hc_size, tol, options.max_iter,
        start, exact,
    )

    solution = MaxEntSolution(
        support=support, constraints=specs, multipliers=lam,
        diagnostics=SolverDiagnostics(
            iterations=iters, grad_max_norm=gnorm, atoms=len(wa),
            dual_trace=tuple(trace), halvings=halvings, ratio_stops=ratio_stops,
        ),
    )
    for spec, residual in zip(specs, solution.residuals):
        if not spec.is_equality and abs(residual) > tol:
            raise InfeasibleError(
                f"interval constraint {spec.function.label()} violated after "
                "Newton; the problem is infeasible or unbounded"
            )
    return solution


def solve_equality(
    support: Support,
    constraints: Sequence[ConstraintSpec],
    options: SolveOptions = SolveOptions(),
) -> MaxEntSolution:
    """Maximum-entropy density meeting every E[h_j] = b_j exactly.

    With no constraints the result is the uniform density.  Raises
    InfeasibleError when a target is outside (or on the edge of) its
    attainable range, or when the iteration cannot meet the residual
    tolerance.
    """
    specs = validate_problem(support, constraints)
    _equality_targets(specs)
    return _solve(support, specs, options)


def solve_interval(
    support: Support,
    constraints: Sequence[ConstraintSpec],
    options: SolveOptions = SolveOptions(),
) -> MaxEntSolution:
    """Maximum-entropy density with interval targets lo <= E[h] <= hi.

    Equality constraints may be mixed in.  One Newton run minimizes the
    bracket dual (see the module docstring): a multiplier's sign names the
    bound it pins, and a bracket whose multiplier ends at zero is slack.
    With equality constraints only, this is the same solve as
    :func:`solve_equality`.
    """
    return _solve(support, validate_problem(support, constraints), options)


def moments(
    solution: MaxEntSolution, functions: Sequence[ConstraintFunction]
) -> NDArray[np.float64]:
    """E[h] under a solved density, for any constraint functions."""
    support = solution.support
    H = _feature_matrix(support, functions)
    return (support.weights * solution.density) @ H.T
