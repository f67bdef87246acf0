"""Utility vectors and curves, and their maximum-entropy estimation.

A normalized utility function behaves like a cumulative distribution: it is
0 at the worst outcome, 1 at the best, and nondecreasing in between.  Its
increments (discrete) or its derivative (continuous) therefore form a
probability object, which is what makes entropy maximization meaningful on
partial preference information.

Estimation reuses the density solver: moment constraints give smooth
exponential-family utility densities, while assessed points U(x_k) = v_k
become indicator-moment constraints whose maximum-entropy solution is
piecewise constant between assessed points.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import (
    ConstraintFunction,
    ConstraintSpec,
    Support,
    ValidationError,
    _density_on,
    _finite,
    _frozen,
    _integer,
    _items,
    _masses,
    _readonly,
    _real_array,
)
from .solver import MaxEntSolution, SolveOptions, solve_equality, solve_interval

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = [
    "UtilityVector",
    "UtilityIncrementVector",
    "UtilityCurve",
    "increments",
    "cumulate",
    "density_to_curve",
    "curve_to_density",
    "maxent_utility",
    "maxent_utility_from_assessments",
    "utility_volume",
    "classify_family",
]

#: Allowed drift of an increment sum away from 1.
INCREMENT_SUM_TOL = 1e-12
#: Snap tolerance for assessment points, as a fraction of the domain width.
SNAP_FRACTION = 1.0 / 4096.0
#: Grid-size ceiling for assessment refinement.
MAX_ASSESSMENT_NODES = 8192
#: Refined grids kept for reuse across assessed solves (least recently
#: used dropped first).
REFINED_GRID_CACHE = 32


@dataclass(frozen=True, eq=False)
class UtilityVector:
    """Normalized utilities over ordered outcomes: u_0 = 0, u_last = 1,
    nondecreasing; stored read-only, a writeable array copied."""

    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        v = _real_array(self.values, "utilities must be real numbers")
        object.__setattr__(self, "values", _readonly(v))
        if v.ndim != 1 or len(v) < 2:
            raise ValidationError("utility vector needs at least 2 outcomes")
        if not np.all(np.isfinite(v)):
            raise ValidationError("utilities must be finite")
        if v[0] != 0.0:
            raise ValidationError("utility of the worst outcome must be exactly 0")
        if v[-1] != 1.0:
            raise ValidationError("utility of the best outcome must be exactly 1")
        if np.any(np.diff(v) < 0.0):
            raise ValidationError("utilities must be nondecreasing")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class UtilityIncrementVector:
    """Differences of a normalized utility vector: non-negative, summing
    to 1; stored read-only, a writeable array copied.  Structurally a
    probability mass vector."""

    increments: NDArray[np.float64]

    def __post_init__(self) -> None:
        d = _masses(self.increments, "increments", INCREMENT_SUM_TOL)
        object.__setattr__(self, "increments", _readonly(d))

    def __len__(self) -> int:
        return len(self.increments)


def increments(utilities: UtilityVector) -> UtilityIncrementVector:
    """Consecutive utility differences."""
    return UtilityIncrementVector(np.diff(utilities.values))


def cumulate(incs: UtilityIncrementVector) -> UtilityVector:
    """Running sums prefixed with 0; inverse of :func:`increments`.

    The final entry is pinned to exactly 1.0 (the increment sum is already
    required to be 1 within 1e-12, and the utility-vector invariant demands
    exact endpoints)."""
    run = np.concatenate(([0.0], np.cumsum(incs.increments)))
    run = np.minimum(run, 1.0)
    run[-1] = 1.0
    return UtilityVector(run)


@dataclass(frozen=True, eq=False)
class UtilityCurve:
    """A utility function on a continuous support, built from its density
    alone: a normalized utility is its density's cumulative integral.

    The density must be finite, non-negative, one value per node and of mass
    1 within 1e-8.  One ``support.cumulative`` pass, divided by its total,
    gives ``curve`` (U at every node) and ``edge_curve`` (U at every panel
    edge, exactly 0 at a and 1 at b); ``density`` is stored divided by the
    same total.  The integral is exact for densities polynomial on each
    panel; one that jumps inside a panel can make U dip, so U is still
    checked to be nondecreasing and within [0, 1].
    """

    support: Support
    density: NDArray[np.float64]
    curve: NDArray[np.float64] = field(init=False)
    edge_curve: NDArray[np.float64] = field(init=False)

    def __post_init__(self) -> None:
        support = self.support
        if not support.is_continuous:
            raise ValidationError("utility curves need a continuous support")
        u, _ = _density_on(support, self.density)
        curve, edge_curve = support.cumulative(u)  # fresh arrays: divided in place
        total = edge_curve[-1]
        curve /= total
        edge_curve /= total
        edge_curve[0] = 0.0
        edge_curve[-1] = 1.0
        if np.minimum.reduce(np.diff(curve)) < -1e-12:
            raise ValidationError("utility curve must be nondecreasing")
        if np.minimum.reduce(curve) < -1e-10 or np.maximum.reduce(curve) > 1.0 + 1e-10:
            raise ValidationError("curve values must lie in [0, 1]")
        object.__setattr__(self, "density", _frozen(u / total))
        object.__setattr__(self, "curve", _frozen(curve))
        object.__setattr__(self, "edge_curve", _frozen(edge_curve))

    @cached_property
    def _knots(self) -> tuple[NDArray, NDArray]:
        xs = np.concatenate((self.support.nodes, self.support.panel_edges))
        us = np.concatenate((self.curve, self.edge_curve))
        order = np.argsort(xs, kind="stable")
        return _frozen(xs[order]), _frozen(us[order])

    def evaluate(self, x) -> NDArray[np.float64] | float:
        """U at arbitrary points of [a, b] (integers or floats),
        interpolated between grid knots.

        Exact at panel edges for densities that are constant on each panel.
        """
        xs, us = self._knots
        arr = _real_array(x, "curve points must be real numbers")
        # Written so that NaN fails the test too.
        if not np.all((arr >= self.support.lower) & (arr <= self.support.upper)):
            raise ValidationError("curve evaluated outside its support")
        out = np.interp(arr, xs, us)
        return float(out) if out.ndim == 0 else out


def density_to_curve(
    density: NDArray[np.float64], support: Support
) -> UtilityCurve:
    """The utility curve whose density is ``density``: its cumulative
    integral, renormalized so the curve ends at exactly 1 (see
    :class:`UtilityCurve`)."""
    return UtilityCurve(support, density)


def curve_to_density(
    curve: UtilityCurve | NDArray[np.float64], support: Support
) -> NDArray[np.float64]:
    """Derivative of a nondecreasing curve, clipped at 0 and renormalized.

    Central differences at interior nodes, one-sided at the two end nodes.
    A :class:`UtilityCurve` must live on ``support`` itself.
    """
    if not support.is_continuous:
        raise ValidationError("utility curves need a continuous support")
    if isinstance(curve, UtilityCurve) and curve.support != support:
        raise ValidationError("utility curve lives on a different support")
    U = support._per_node(getattr(curve, "curve", curve), "curve values")
    if not np.all(np.isfinite(U)):
        raise ValidationError("curve values must be finite")
    if np.any(np.diff(U) < -1e-12):
        raise ValidationError("decreasing utility curve has no density")
    # edge_order=2 keeps the boundary nodes second-order accurate like the
    # interior; the default one-sided difference loses three digits there.
    d = np.maximum(np.gradient(U, support.nodes, edge_order=2), 0.0)
    total = support.integrate(d)
    if total <= 0.0:
        raise ValidationError("curve has no increase to differentiate")
    return d / total


def maxent_utility(
    support: Support,
    constraints: Sequence[ConstraintSpec],
    options: SolveOptions = SolveOptions(),
) -> tuple[UtilityCurve, MaxEntSolution]:
    """Maximum-entropy utility density under moment constraints, plus its
    cumulative curve.

    Equality and interval targets may be mixed (see :func:`solve_interval`).
    """
    if not support.is_continuous:
        raise ValidationError("utility curves need a continuous support")
    solution = solve_interval(support, constraints, options)
    return density_to_curve(solution.density, support), solution


@lru_cache(maxsize=REFINED_GRID_CACHE)
def _refined_grid(a: float, b: float, n: int) -> Support:
    """The n-node grid on [a, b], built once per process and shared by every
    assessed solve that refines to it.

    Supports are frozen and their node and weight arrays read-only, so
    sharing one is safe.  Refined levels stay below twice
    MAX_ASSESSMENT_NODES, so the cache holds at most about
    REFINED_GRID_CACHE x 16 382 nodes (two float64 arrays each, about 8 MB).
    The key treats -0.0 and 0.0 as one endpoint; both give bit-identical
    edges, nodes and weights, and only the shared support's ``a`` keeps the
    sign of the first caller's.
    """
    return Support.continuous(a, b, n)


def _refined_support(
    support: Support, xs: Sequence[float]
) -> tuple[Support, list[float]]:
    """Grow the grid until every assessment point sits on a panel edge.

    Points are snapped to the nearest panel edge; the grid doubles until the
    worst snap error is below (b - a)/4096 or the node ceiling (8192) is
    reached.  Indicator edges must line up with quadrature panels for the
    solved density, the curve, and the assessed values to agree to 1e-6.
    The first level is ``support`` itself; the doubled ones come from
    :func:`_refined_grid`.

    "Nearest" is the smallest |edge - x| as rounded in floating point, and a
    point halfway between two edges goes to the lower edge: the argmin over
    all edges, first index on a tie.  Rounded distances shrink towards x
    from either side, so only the two edges around x, found by bisection,
    are compared.
    """
    a, b = support.lower, support.upper
    limit = (b - a) * SNAP_FRACTION
    trial = support
    while True:
        edges = trial.panel_edges.tolist()
        idx = []
        for x in xs:
            i = bisect_left(edges, x)  # the first edge >= x
            if i == len(edges) or (i > 0 and x - edges[i - 1] <= edges[i] - x):
                i -= 1  # the lower edge is as near or nearer
            idx.append(i)
        snapped = [edges[i] for i in idx]
        err = max(abs(s - x) for s, x in zip(snapped, xs))
        interior = 0 < min(idx) and max(idx) < len(edges) - 1
        distinct = len(set(idx)) == len(idx)
        if (err <= limit and interior and distinct) or trial.n >= MAX_ASSESSMENT_NODES:
            if not interior:
                raise ValidationError(
                    "assessment point collapses onto a support endpoint"
                )
            if not distinct:
                raise ValidationError(
                    "assessment points collapse onto the same grid cell"
                )
            return trial, snapped
        trial = _refined_grid(a, b, 2 * trial.n)


def maxent_utility_from_assessments(
    support: Support,
    assessments: Sequence[tuple[float, float]],
    options: SolveOptions = SolveOptions(),
) -> tuple[UtilityCurve, MaxEntSolution]:
    """Maximum-entropy utility through assessed points U(x_k) = v_k, each
    assessment a pair (x_k, v_k) of finite real numbers.

    Each assessment becomes an indicator-moment constraint
    E[1_{[a, x_k]}] = v_k on the utility density, solved by the same dual
    Newton iteration as any other moment problem.  The solution is constant
    between consecutive assessment points.  The returned curve and solution
    live on the refined grid, which may be finer than the one passed in.

    K points leave K + 1 atoms, one per cell, so the problem is determined:
    the assessed values fix each cell's mass, the solve takes one exact
    Newton step (``iterations == 1``), and the density and the curve match
    their closed form to rounding at the snapped points.

    Each point moves to the nearest panel edge of that grid, the lower one
    when it lies halfway, by at most half a panel: (b - a)/512 at the
    8192-node ceiling, where refinement stops.
    Nothing reports the move.  So a 128-node support may come back with
    8192 nodes, and the CLI then prints 8192 table rows.

    Each refined grid is built once per process for its domain and node
    count and may be shared between calls (see :func:`_refined_grid` for
    the cache's memory bound); a call that needs no refinement returns
    ``support`` itself.
    """
    if not support.is_continuous:
        raise ValidationError("utility curves need a continuous support")
    pairs = []
    for i, item in enumerate(_items(assessments, "assessments")):
        try:
            x, v = item
        except (TypeError, ValueError):  # not a pair
            x = v = None
        if not (_finite(x) and _finite(v)):
            raise ValidationError(f"assessment {i}: {item!r} is not a pair "
                                  "(point, value) of finite real numbers")
        pairs.append((float(x), float(v)))
    if not pairs:
        raise ValidationError("at least one assessment is required")
    # A few finite floats: plain comparisons cost less than numpy calls.
    xs, vs = zip(*pairs)
    a, b = support.lower, support.upper
    if not all(a < x < b for x in xs):
        raise ValidationError("assessment points must lie strictly inside the support")
    if not all(x < y for x, y in zip(xs, xs[1:])):
        raise ValidationError("assessment points must be strictly increasing")
    if not all(0.0 < v < 1.0 for v in vs):
        raise ValidationError("assessed values must lie strictly inside (0, 1)")
    if not all(v < w for v, w in zip(vs, vs[1:])):
        raise ValidationError("assessed values must be strictly increasing")

    refined, snapped = _refined_support(support, xs)
    specs = [
        ConstraintSpec.equality(ConstraintFunction.indicator(a, edge), value)
        for edge, value in zip(snapped, vs)
    ]
    solution = solve_equality(refined, specs, options)
    return density_to_curve(solution.density, refined), solution


def utility_volume(outcomes: int) -> float:
    """Fraction of the unit hypercube occupied by valid utility vectors.

    The free coordinates of a normalized nondecreasing utility vector over
    K outcomes form the ordered simplex of dimension K - 2, whose volume is
    1/(K - 2)!.
    """
    message = "volume needs an integer outcome count >= 3"
    k = _integer(outcomes, message)
    if k < 3:
        raise ValidationError(message)
    return 1.0 / math.factorial(k - 2)


def classify_family(constraints: Sequence[ConstraintSpec]) -> str:
    """Name the utility family implied by a constraint set.

    No constraints force the risk-neutral straight line; a first-moment pin
    gives the exponential (constant absolute risk aversion) family; first
    plus second moments give the truncated-Gaussian S-shaped family.
    Anything else is reported as general.
    """
    specs = _items(constraints, "constraints")
    for i, spec in enumerate(specs):
        if not isinstance(spec, ConstraintSpec):
            raise ValidationError(f"constraint {i}: not a ConstraintSpec")
    shapes = sorted(
        ("power", spec.function.degree)
        if spec.function.kind == "power"
        else (spec.function.kind, None)
        for spec in specs
    )
    if shapes == []:
        return "linear_risk_neutral"
    if shapes == [("power", 1)]:
        return "cara"
    if shapes == [("power", 1), ("power", 2)]:
        return "gaussian_s_shaped"
    return "general"
