"""Maximum-entropy densities through the convex dual.

For constraint functions h_1..h_m with equality targets b, the entropy
maximizer over the support has exponential form

    p(x) = exp(-log Z(m) - sum_j m_j h_j(x)),

and the multipliers m minimize the smooth convex dual

    D(m) = log Z(m) + sum_j m_j b_j,

whose gradient is b - E_m[h] and whose Hessian is the covariance matrix of
the h_j under p.

One kernel, :func:`_dual_kernel`, maps a feature matrix (one row per h_j,
one column per node), the quadrature weights and the multipliers to log Z
and the normalized density, in numpy with a max-shift so that large
exponents do not overflow.  The public dual maps call it on a matrix they
tabulate; the solver calls it on the matrix its :class:`Problem` tabulates
once per solve.

There is one solve path.  An outer active-set loop handles interval targets
lo <= E[h] <= hi: after each pass the one constraint whose moment misses a
bound by more than tol, and by the largest share of its attainable range,
enters the equality solve (bounds violated together need not be attainable
together).  By complementary slackness a positive multiplier can only pin
an upper bound and a negative one a lower bound: Newton projects onto those
signs, and a bound whose multiplier ends at zero leaves the working set.

Each pass runs damped Newton on D with an Armijo line search.  Every step
is a Newton step on the Hessian scaled to a unit diagonal (plus a 1e-14
ridge, factored by Cholesky), so no scaling of the constraint functions or
their multipliers changes it.  Unattainable targets fail hard, not with a
quiet wrong answer: their multipliers diverge until the density underflows
at some node, which is checked after every accepted step.

Newton works on the feature rows centered at their uniform-density means;
the shift only moves log Z, and the reported log Z and density come from
the uncentered matrix.

Nodes with equal feature columns have equal density, so Newton and the
active-set check run on atoms: each run of equal adjacent columns becomes
one column carrying the run's summed weight (an assessed utility on 8192
nodes has K+1 atoms, one per cell between its K points), while the final
log Z, density, residuals and entropy are evaluated on the full grid.
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
    ActiveSetCycleError,
    MaxEntSolution,
    Problem,
    SolverDiagnostics,
    Support,
    ValidationError,
    _exponential_density,
    _feature_matrix,
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
MAX_OUTER_PASSES = 50
#: The multiplier sign that lets a pinned bound bind.
_SIGN = {"lo": -1.0, "hi": 1.0}
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
    the Newton steps of each active-set pass.
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
    """log Z and the normalized node density p at multipliers lam.

    Z = sum_i w_i exp(-sum_j lam_j H[j, i]).  The exponents are shifted by
    their maximum before exponentiating, so magnitudes of several hundred
    neither overflow nor lose the sum.
    """
    expo = -(lam @ H)
    top = expo.max()
    shifted = np.exp(expo - top)
    z = w @ shifted
    return float(top + np.log(z)), shifted / z


def _covariance(
    H: NDArray[np.float64], wp: NDArray[np.float64], mean: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Covariance of the rows of H under node masses wp, symmetrized."""
    cen = H - mean[:, None]
    cov = (cen * wp) @ cen.T
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
    H = _feature_matrix(support, [s.function for s in constraints])
    _, p = _dual_kernel(H, support.weights, np.asarray(multipliers, dtype=np.float64))
    wp = support.weights * p
    return H, wp, wp @ H.T


def log_partition(
    support: Support,
    functions: Sequence[ConstraintFunction],
    multipliers: Sequence[float] | NDArray[np.float64],
) -> float:
    """log of Z(m) = sum_i w_i exp(-sum_j m_j h_j(x_i)).

    Evaluated with a max-shift inside the log-sum-exp, so exponents as large
    as several hundred in magnitude do not overflow.
    """
    lam = np.asarray(multipliers, dtype=np.float64)
    H = _feature_matrix(support, functions)
    if lam.shape != (H.shape[0],):
        raise ValidationError("one multiplier per constraint function is required")
    return _dual_kernel(H, support.weights, lam)[0]


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


def _check_target_attainable(
    function: ConstraintFunction, h: NDArray[np.float64], target: float
) -> None:
    h_min, h_max = float(h.min()), float(h.max())
    if h_min == h_max:
        raise InfeasibleError(
            f"constraint {function.label()} is constant on the support"
        )
    if target <= h_min or target >= h_max:
        raise InfeasibleError(
            f"target {target:g} for {function.label()} does not lie strictly "
            f"inside the attainable range ({h_min:g}, {h_max:g}); the problem "
            "is infeasible or degenerate"
        )


def _newton(
    H: NDArray[np.float64],
    w: NDArray[np.float64],
    b: NDArray[np.float64],
    lam0: NDArray[np.float64],
    sign: NDArray[np.float64],
    h_size: NDArray[np.float64],
    tol: float,
    max_iter: int,
) -> tuple[NDArray[np.float64], int, float, tuple[float, ...]]:
    """Damped Newton descent on D(lam) = log Z(lam) + lam . b from a warm
    start.  Returns the multipliers, the accepted steps, the final gradient
    max-norm and D at the start and after every accepted step.

    A row with ``sign`` +1 (-1) keeps a nonnegative (nonpositive) multiplier:
    trial points are projected onto the signs, and a row that its gradient
    holds at zero takes no step until the gradient turns.  ``h_size`` is
    max|H| per row, the scale of D's rounding."""
    m = H.shape[0]
    lam = np.array(lam0, dtype=np.float64)
    lz, p = _dual_kernel(H, w, lam)
    here = lz + float(lam @ b)
    trace = [here]
    if m == 0:
        return lam, 0, 0.0, tuple(trace)
    signed = bool(sign.any())
    for it in range(max_iter):
        wp = w * p
        mom = wp @ H.T
        g = b - mom
        held = (lam == 0.0) & (sign * g > 0.0)
        gnorm = float(abs(np.where(held, 0.0, g)).max())
        if gnorm <= tol:
            return lam, it, gnorm, tuple(trace)
        hess = _covariance(H, wp, mom)
        var = hess.diagonal()
        if not (var > 0.0).all():
            raise InfeasibleError(_SINGULAR)
        # Newton on the Hessian scaled to a unit diagonal: the scaling makes
        # the ridge relative, so a multiplier of any size gets the same step.
        # A held row scales to zero, which leaves it out of the step.
        s = np.where(held, 0.0, 1.0 / np.sqrt(var))
        scaled = hess * np.outer(s, s)
        np.fill_diagonal(scaled, 1.0 + _RIDGE)
        # With a few rows, products with the inverted factor beat two solves.
        try:
            inv = np.linalg.inv(np.linalg.cholesky(scaled))
        except np.linalg.LinAlgError:
            raise InfeasibleError(_SINGULAR) from None
        direction = -s * (inv.T @ (inv @ (s * g)))
        allowance = _ARMIJO_ROUNDING * max(1.0, abs(here), float(np.abs(lam) @ h_size))
        step = 1.0
        while True:
            trial = lam + step * direction
            if signed:
                trial[sign * trial < 0.0] = 0.0
            lz, p = _dual_kernel(H, w, trial)
            value = lz + float(trial @ b)
            # Written so that a NaN value is rejected too.
            if value <= here + _ARMIJO_SLOPE * float(g @ (trial - lam)) + allowance:
                break
            step *= 0.5
            if step < 1e-14:
                raise InfeasibleError(
                    "line search stalled; the problem is infeasible or unbounded"
                )
        lam, here = trial, value
        trace.append(here)
        if not p.min() > 0.0:
            raise InfeasibleError(_UNDERFLOW)
    raise InfeasibleError(
        f"no convergence to tolerance {tol:g} in {max_iter} iterations; "
        "the problem is infeasible or unbounded"
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
    """The active-set loop around Newton, on the problem's feature matrix."""
    support, specs = problem.support, problem.constraints
    H, w = problem.features, support.weights
    tol = options.resolve_tol(support)

    eq_ids = [i for i, s in enumerate(specs) if s.is_equality]
    int_ids = [i for i, s in enumerate(specs) if not s.is_equality]
    for i in eq_ids:
        _check_target_attainable(specs[i].function, H[i], specs[i].equals)
    h_min, h_max = H.min(axis=1), H.max(axis=1)
    for i in int_ids:
        lo, hi = specs[i].bounds
        if lo >= h_max[i] or hi <= h_min[i]:
            raise InfeasibleError(
                f"interval [{lo:g}, {hi:g}] for {specs[i].function.label()} "
                "cannot intersect the attainable range "
                f"({h_min[i]:g}, {h_max[i]:g})"
            )

    # Newton and the active-set check run on the atoms; with none to merge
    # they get the grid's own arrays.
    starts = _atom_starts(H)
    Ha, wa = (H, w) if starts is None else (H[:, starts], np.add.reduceat(w, starts))
    center = (Ha @ wa) / float(wa.sum())
    Hc = Ha - center[:, None]
    hc_size = np.maximum(h_max - center, center - h_min)
    active: dict[int, str] = {}
    lam = np.zeros(len(specs))
    total_iters = 0
    trace: list[float] = []

    for _ in range(MAX_OUTER_PASSES):
        solve_ids = eq_ids + sorted(active)
        # A pinned bound lies inside the attainable range: the moment it is
        # missed by does, and the range check above holds the other side.
        targets = np.array(
            [
                specs[i].bounds[active[i] == "hi"] if i in active else specs[i].equals
                for i in solve_ids
            ]
        )
        sign = np.array([_SIGN.get(active.get(i), 0.0) for i in solve_ids])
        sub, iters, gnorm, sub_trace = _newton(
            Hc[solve_ids], wa, targets - center[solve_ids], lam[solve_ids],
            sign, hc_size[solve_ids], tol, options.max_iter,
        )
        total_iters += iters
        trace.extend(sub_trace)
        lam[solve_ids] = sub  # a row outside the working set stays at zero
        if not int_ids:
            break
        # A bound whose multiplier Newton held at zero does not bind.
        for i in [i for i in active if lam[i] == 0.0]:
            del active[i]

        _, p = _dual_kernel(Ha, wa, lam)
        moment = (wa * p) @ Ha.T
        worst, worst_share = None, 0.0
        for i in int_ids:
            lo, hi = specs[i].bounds
            gap = max(lo - moment[i], moment[i] - hi)
            # A bracket missed by no more than tol is met (the final check
            # allows as much).  A constant row has no range, but it never
            # violates a bracket that passed the range check above.
            share = gap / (h_max[i] - h_min[i]) if gap > tol else 0.0
            if i not in active and share > worst_share:
                worst, worst_share = i, share
        if worst is None:
            break
        active[worst] = "lo" if moment[worst] < specs[worst].bounds[0] else "hi"
    else:
        raise ActiveSetCycleError(
            f"active-set loop exceeded {MAX_OUTER_PASSES} outer passes"
        )

    lz, _ = _dual_kernel(H, w, lam)
    density = _exponential_density(H, lam, lz)
    if not np.all(density > 0.0):
        raise InfeasibleError(_UNDERFLOW)
    moment = (w * density) @ H.T
    residuals = []
    labels = []
    for i, spec in enumerate(specs):
        if spec.is_equality:
            residuals.append(moment[i] - spec.equals)
            labels.append("eq")
        else:
            lo, hi = spec.bounds
            if moment[i] < lo - tol or moment[i] > hi + tol:
                raise InfeasibleError(
                    f"interval constraint {spec.function.label()} violated after "
                    "the active-set loop; the problem is infeasible or unbounded"
                )
            residuals.append(
                moment[i] - lo if moment[i] < lo else max(moment[i] - hi, 0.0)
            )
            labels.append(active.get(i, "slack"))

    diagnostics = SolverDiagnostics(
        iterations=total_iters,
        grad_max_norm=gnorm,
        residuals=tuple(float(r) for r in residuals),
        active_bounds=tuple(labels),
        atoms=Ha.shape[1],
        dual_trace=tuple(trace),
    )
    return MaxEntSolution(
        support=support,
        constraints=specs,
        density=density,
        multipliers=lam,
        log_partition=lz,
        entropy=_entropy_of(support, density),
        diagnostics=diagnostics,
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

    Equality constraints may be mixed in; they stay pinned throughout.
    Interval constraints start slack; each outer pass pins one bound, the
    one violated (by more than the tolerance) by the largest share of its
    function's attainable range.  Newton keeps each pinned multiplier on
    the sign complementary slackness allows, and a bound whose multiplier
    ends at zero is released.  Running past 50 outer passes raises
    ActiveSetCycleError.  With
    equality constraints only, this is the same solve as
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
