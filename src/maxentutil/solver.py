"""Maximum-entropy densities through the convex dual.

For constraint functions h_1..h_m with equality targets b, the entropy
maximizer over the support has exponential form

    p(x) = exp(-log Z(m) - sum_j m_j h_j(x)),

and the multipliers m minimize the smooth convex dual

    D(m) = log Z(m) + sum_j m_j b_j,

whose gradient is b - E_m[h] and whose Hessian is the covariance matrix of
the h_j under p.

Only :func:`~maxentutil.core._shifted_exponent` forms the exponent
-sum_j m_j h_j; it exponentiates it shifted by its maximum, top, so that it
cannot overflow.  Newton and the dual maps (:func:`_dual_kernel`) divide that
by the shifted Z: Newton's multipliers follow its density's last bits, and
ill-conditioned 128-node problems moved by up to 1.3e-3 relative under the
reported rule.  A solve takes log Z and its reported density from one
exponent, scaled by exp(top - log Z) as :class:`MaxEntSolution` checks it, so
the density carries log Z's rounding, not Z's: the uniform density on 128
nodes of [0, 1] is 1, not 1.0000000000000002.

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

A Newton step allocates nothing of size m x n: the covariance centers and
weights its rows in one (2, m, n) workspace per solve.  glibc hands blocks
that large back to the OS when they are freed, so temporaries allocated per
step were faulted in again on every step (848 minor faults against 258 for
an 8-step bracket solve on 8192 nodes, glibc 2.36).  The kernel's n-length
temporaries stay per call: buffering them as well measured more faults per
op and slower small solves.  The bracket bookkeeping runs on Python floats,
once per step, because on a few rows a numpy call costs more than its
arithmetic; it follows numpy's rules bit for bit (``np.clip``'s ties).

Nodes with equal feature columns have equal density, so Newton runs on
atoms: each run of equal adjacent columns becomes one column carrying the
run's summed weight (an assessed utility on 8192 nodes has K+1 atoms, one
per cell between its K points), while the final log Z, density, residuals
and entropy are evaluated on the full grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .core import (
    ConstraintFunction,
    ConstraintSpec,
    InfeasibleError,
    MaxEntSolution,
    Problem,
    SolverDiagnostics,
    Support,
    ValidationError,
    _feature_matrix,
    _features_and_multipliers,
    _shifted_exponent,
    validate_problem,
)
from .entropy import differential_entropy, discrete_entropy

__all__ = [
    "SolveOptions",
    "DualState",
    "log_partition",
    "dual_value",
    "dual_gradient",
    "dual_hessian",
    "dual_state",
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
_UNDERFLOW = (
    "multipliers drive the density to zero at some nodes (floating-point underflow); "
    "the targets are too near the attainable boundary, or not attainable together"
)
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
        if self.tol is not None and not 0.0 < self.tol < math.inf:
            raise ValidationError("tol must be positive and finite")
        n = self.max_iter
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValidationError("max_iter must be an integer")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be at least 1")

    def resolve_tol(self, support: Support) -> float:
        if self.tol is not None:
            return self.tol
        return DEFAULT_TOL_CONTINUOUS if support.is_continuous else DEFAULT_TOL_DISCRETE


@dataclass(frozen=True, eq=False)
class DualState:
    """Snapshot of the dual problem at a multiplier vector.

    The Hessian is symmetrized and must be positive semidefinite up to
    1e-10; a violation means the moment computation itself is broken.
    """

    multipliers: NDArray[np.float64]
    gradient: NDArray[np.float64]
    hessian: NDArray[np.float64]
    iteration: int

    def __post_init__(self) -> None:
        m = len(self.multipliers)
        if self.gradient.shape != (m,) or self.hessian.shape != (m, m):
            raise ValidationError("dual state shapes disagree")
        if m > 0:
            if not np.allclose(self.hessian, self.hessian.T, atol=1e-10):
                raise ValidationError("dual Hessian must be symmetric")
            if float(np.linalg.eigvalsh(self.hessian).min()) < -1e-10:
                raise ValidationError("dual Hessian must be positive semidefinite")


def _dual_kernel(
    H: NDArray[np.float64], w: NDArray[np.float64], lam: NDArray[np.float64]
) -> tuple[float, NDArray[np.float64]]:
    """log Z and Newton's node density p = shifted / Z at multipliers lam,
    with Z = sum_i w_i exp(-sum_j lam_j H[j, i]) (see the module docstring)."""
    top, shifted = _shifted_exponent(H, lam)
    z = w @ shifted
    return float(top + np.log(z)), shifted / z


def _covariance(
    H: NDArray[np.float64], wp: NDArray[np.float64], mean: NDArray[np.float64],
    rows: list[int] | None = None, work: NDArray[np.float64] | None = None,
) -> NDArray[np.float64]:
    """Covariance of the rows of H (those listed in ``rows``, or all) about
    their ``mean`` under node masses wp, symmetrized.

    The centered and the weighted rows go into ``work``, a (2, m, n) block,
    allocated here when not given.  Newton passes one per solve: glibc hands
    m x n temporaries back to the OS when they are freed, and every step
    faulted them in again.  (The kernel's n-length temporaries are not
    buffered; that measured worse.)"""
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
    for spec in constraints:
        if not spec.is_equality:
            raise ValidationError("dual calculus is defined for equality targets")
    return np.array([spec.equals for spec in constraints], dtype=np.float64)


def _moments_at(
    support: Support,
    constraints: Sequence[ConstraintSpec],
    multipliers: Sequence[float] | NDArray[np.float64],
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Feature matrix, node masses w*p and moments E[h] at the multipliers."""
    H, lam = _features_and_multipliers(
        support, [s.function for s in constraints], multipliers
    )
    _, p = _dual_kernel(H, support.weights, lam)
    wp = support.weights * p
    return H, wp, wp @ H.T


def log_partition(
    support: Support,
    functions: Sequence[ConstraintFunction],
    multipliers: Sequence[float] | NDArray[np.float64],
) -> float:
    """log of Z(m) = sum_i w_i exp(-sum_j m_j h_j(x_i)), with a max-shift so
    that exponents as large as several hundred in magnitude do not overflow."""
    H, lam = _features_and_multipliers(support, functions, multipliers)
    top, shifted = _shifted_exponent(H, lam)
    return float(top + np.log(support.weights @ shifted))


def dual_value(
    support: Support,
    constraints: Sequence[ConstraintSpec],
    multipliers: Sequence[float] | NDArray[np.float64],
) -> float:
    """D(m) = log Z(m) + m . b for equality constraints."""
    b = _equality_targets(constraints)
    lam = np.asarray(multipliers, dtype=np.float64)
    lz = log_partition(support, [s.function for s in constraints], lam)
    return lz + float(lam @ b)


def dual_gradient(
    support: Support,
    constraints: Sequence[ConstraintSpec],
    multipliers: Sequence[float] | NDArray[np.float64],
) -> NDArray[np.float64]:
    """Gradient of the dual: b - E[h] at the current multipliers."""
    b = _equality_targets(constraints)
    return b - _moments_at(support, constraints, multipliers)[2]


def dual_hessian(
    support: Support,
    constraints: Sequence[ConstraintSpec],
    multipliers: Sequence[float] | NDArray[np.float64],
) -> NDArray[np.float64]:
    """Hessian of the dual: the covariance matrix of the h_j under p."""
    return _covariance(*_moments_at(support, constraints, multipliers))


def dual_state(
    support: Support,
    constraints: Sequence[ConstraintSpec],
    multipliers: Sequence[float] | NDArray[np.float64],
    iteration: int = 0,
) -> DualState:
    b = _equality_targets(constraints)
    lam = np.asarray(multipliers, dtype=np.float64)
    H, wp, mom = _moments_at(support, constraints, lam)
    return DualState(
        multipliers=lam,
        gradient=b - mom,
        hessian=_covariance(H, wp, mom),
        iteration=iteration,
    )


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


def _newton(
    H: NDArray[np.float64],
    w: NDArray[np.float64],
    lo: NDArray[np.float64],
    hi: NDArray[np.float64],
    lam0: NDArray[np.float64],
    h_size: NDArray[np.float64],
    tol: float,
    max_iter: int,
) -> tuple[NDArray[np.float64], int, float, tuple[float, ...], int, int]:
    """Damped Newton descent on the bracket dual
    D(lam) = log Z(lam) + sum_j max(lam_j lo_j, lam_j hi_j) from ``lam0``.
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
    scale of D's rounding."""
    m = H.shape[0]
    lam = np.array(lam0, dtype=np.float64)
    bracket = (lo < hi).tolist()
    any_bracket = any(bracket)
    lows, highs = lo.tolist(), hi.tolist()
    lz, p = _dual_kernel(H, w, lam)
    here = lz + float(lam @ np.where(lam > 0.0, hi, lo))
    trace = [here]
    if m == 0:
        return lam, 0, 0.0, tuple(trace), 0, 0
    work = np.empty((2, m, H.shape[1]))
    halvings = ratio_stops = 0
    for it in range(max_iter + 1):
        wp = w * p
        mom = wp @ H.T
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
        gnorm = float(abs(g).max())
        if it and not p.min() > 0.0:
            raise InfeasibleError(_UNDERFLOW + _newton_state(it, gnorm, lam))
        if gnorm <= tol:
            return lam, it, gnorm, tuple(trace), halvings, ratio_stops
        if it == max_iter:
            break
        hess = _covariance(H, wp, mom, rows, work)
        var = hess.diagonal()
        if not (var > 0.0).all():
            raise InfeasibleError(_SINGULAR + _newton_state(it, gnorm, lam))
        g_rows = g if rows is None else g[rows]
        held = np.zeros(len(g_rows), dtype=bool)
        while True:
            # Newton on the Hessian scaled to a unit diagonal: the scaling
            # makes the ridge relative, so a multiplier of any size gets the
            # same step.  A held row scales to zero, which leaves it out.
            s = np.where(held, 0.0, 1.0 / np.sqrt(var))
            scaled = hess * np.outer(s, s)
            np.fill_diagonal(scaled, 1.0 + _RIDGE)
            # With a few rows, products with the inverted factor beat two
            # solves.
            try:
                inv = np.linalg.inv(np.linalg.cholesky(scaled))
            except np.linalg.LinAlgError:
                state = _newton_state(it, gnorm, lam)
                raise InfeasibleError(_SINGULAR + state) from None
            step_rows = -s * (inv.T @ (inv @ (s * g_rows)))
            # A row at zero whose step would leave its target's side.
            away = zero and _leaving(zero, step_rows.tolist(), g_rows.tolist())
            if not away:
                break
            held[away] = True
        direction = step_rows
        if rows is not None:
            direction = np.zeros(m)
            direction[rows] = step_rows
        step, stops = 1.0, []
        if any_bracket:
            step, stops = _ratio_test(lams, direction.tolist(), bracket)
        allowance = _ARMIJO_ROUNDING * max(1.0, abs(here), float(np.abs(lam) @ h_size))
        while True:
            trial, bound = lam + step * direction, lo
            if any_bracket:
                trial[stops] = 0.0
                bound = np.where(trial > 0.0, hi, lo)
            lz, p = _dual_kernel(H, w, trial)
            value = lz + float(trial @ bound)
            # Written so that a NaN value is rejected too.
            if value <= here + _ARMIJO_SLOPE * float(g @ (trial - lam)) + allowance:
                break
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
        lam, here = trial, value
        trace.append(here)
        ratio_stops += len(stops)
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


def _entropy_of(support: Support, density: NDArray[np.float64]) -> float:
    if support.is_continuous:
        return differential_entropy(density, support).value
    return discrete_entropy(density).value


def _solve(problem: Problem, options: SolveOptions) -> MaxEntSolution:
    """One Newton run on the problem's feature matrix."""
    support, specs = problem.support, problem.constraints
    H, w = problem.features, support.weights
    tol = options.resolve_tol(support)

    # An equality is the bracket with lo == hi.
    lo = np.array([s.equals if s.is_equality else s.bounds[0] for s in specs])
    hi = np.array([s.equals if s.is_equality else s.bounds[1] for s in specs])
    h_min, h_max = H.min(axis=1), H.max(axis=1)
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

    # Newton runs on the atoms; with none to merge it gets the grid's own
    # arrays.
    starts = _atom_starts(H)
    Ha, wa = (H, w) if starts is None else (H[:, starts], np.add.reduceat(w, starts))
    center = (Ha @ wa) / float(wa.sum())
    # C order: `H[:, starts]` comes out in F order, on which matmul rounds
    # differently.
    Hc = np.subtract(Ha, center[:, None], order="C")
    hc_size = np.maximum(h_max - center, center - h_min)
    lam, iters, gnorm, trace, halvings, ratio_stops = _newton(
        Hc, wa, lo - center, hi - center, np.zeros(len(specs)), hc_size, tol,
        options.max_iter,
    )

    top, shifted = _shifted_exponent(H, lam)
    lz = float(top + np.log(w @ shifted))
    density = shifted * math.exp(top - lz)
    if not np.all(density > 0.0):
        raise InfeasibleError(_UNDERFLOW)
    moment = (w * density) @ H.T
    residuals, labels = [], []
    for i, spec in enumerate(specs):
        # The moment's distance to its bracket; an equality's miss.
        residuals.append(moment[i] - min(max(moment[i], lo[i]), hi[i]))
        if spec.is_equality:
            labels.append("eq")
            continue
        if moment[i] < lo[i] - tol or moment[i] > hi[i] + tol:
            raise InfeasibleError(
                f"interval constraint {spec.function.label()} violated after "
                "Newton; the problem is infeasible or unbounded"
            )
        labels.append("hi" if lam[i] > 0.0 else "lo" if lam[i] < 0.0 else "slack")

    diagnostics = SolverDiagnostics(
        iterations=iters,
        grad_max_norm=gnorm,
        residuals=tuple(float(r) for r in residuals),
        active_bounds=tuple(labels),
        atoms=Ha.shape[1],
        dual_trace=tuple(trace),
        halvings=halvings,
        ratio_stops=ratio_stops,
    )
    return MaxEntSolution(
        support=support,
        constraints=specs,
        density=density,
        multipliers=lam,
        log_partition=lz,
        entropy=_entropy_of(support, density),
        diagnostics=diagnostics,
        features=H,
    )


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
    problem = validate_problem(support, constraints)
    _equality_targets(problem.constraints)
    return _solve(problem, options)


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
    return _solve(validate_problem(support, constraints), options)


def moments(
    solution: MaxEntSolution, functions: Sequence[ConstraintFunction]
) -> NDArray[np.float64]:
    """E[h] under a solved density, for any constraint functions."""
    support = solution.support
    H = _feature_matrix(support, functions)
    return (support.weights * solution.density) @ H.T
