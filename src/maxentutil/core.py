"""Domain types shared by every other module.

A problem is a support (discrete points or a continuous interval carrying a
fixed quadrature grid) together with constraint functions and their moment
targets.  A solved problem is a :class:`MaxEntSolution`: a strictly positive
density of exponential form, the Lagrange multipliers that generate it, and
solver diagnostics.

Continuous supports discretize `[a, b]` once, at construction, with a
composite Gauss-Legendre rule (panels of up to 32 nodes).  Every downstream
integral, including the cumulative integrals used for utility curves, is
taken against this grid, so results are deterministic for a given support
on one numpy/BLAS build.  Across builds the nodes (from numpy's LAPACK-backed
`leggauss`), the BLAS reductions and numpy's `pow` may differ in the last
bits; the CLI's output contract (see :mod:`maxentutil.cli`) holds such drift
within rel 1e-12 / abs 1e-14.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass, field
from functools import lru_cache, cached_property
from typing import Iterable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander
from numpy.typing import ArrayLike, NDArray

__all__ = [
    "MaxentError",
    "ValidationError",
    "InfeasibleError",
    "ActiveSetCycleError",
    "Support",
    "ConstraintFunction",
    "ConstraintSpec",
    "Problem",
    "SolverDiagnostics",
    "MaxEntSolution",
    "validate_problem",
    "exponential_density",
]

DEFAULT_NODES = 1024
MAX_PANEL_NODES = 32
MIN_CONTINUOUS_NODES = 16

#: Tolerance for |sum(p) - 1| on discrete solutions.
MASS_TOL_DISCRETE = 1e-12
#: Tolerance for |integral(p) - 1| on continuous solutions.
MASS_TOL_CONTINUOUS = 1e-10
#: Relative tolerance when rebuilding the density from its multipliers.
RECONSTRUCTION_RTOL = 1e-12


class MaxentError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MaxentError):
    """A support, constraint, or input value violates a structural rule."""


class InfeasibleError(MaxentError):
    """The constraint targets cannot be met by any density on the support."""


class ActiveSetCycleError(MaxentError):
    """Kept for callers that catch it: no solver path raises it since the
    interval solve became one Newton run."""


def _readonly(a: NDArray, dtype: type = np.float64) -> NDArray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


def _power(x: NDArray[np.float64], degree: int) -> NDArray[np.float64]:
    """x**degree in a fresh array, computed as |x|**degree with the sign of x
    put back for odd degrees.

    numpy's vectorised ``pow`` takes a slow scalar path for a negative base
    (about 30x slower for degree >= 3 at 8192 nodes); |x| keeps every base
    non-negative.  Nodes ascend, so when the first is not negative (-0.0
    included) none is: plain ``x ** degree`` then gives the same bits
    without the two extra calls.  On negative nodes the result may differ
    from ``x ** degree`` by 1 ulp, because the fast and the slow ``pow``
    round differently.
    """
    if x[0] >= 0.0:
        return x ** degree
    out = np.abs(x) ** degree
    if degree % 2:
        np.copysign(out, x, out=out)
    return out


def _panel_sizes(n: int) -> tuple[int, ...]:
    """Split n quadrature nodes into panels of at most MAX_PANEL_NODES."""
    k = max(1, math.ceil(n / MAX_PANEL_NODES))
    base, extra = divmod(n, k)
    return (base + 1,) * extra + (base,) * (k - extra)


@lru_cache(maxsize=None)
def _reference_rule(q: int) -> tuple[NDArray, NDArray]:
    xi, w = leggauss(q)
    return _readonly(xi), _readonly(w)


@lru_cache(maxsize=None)
def _partial_integration_matrix(q: int) -> NDArray[np.float64]:
    """Matrix M with (M @ f)[i] = integral of the degree-(q-1) interpolant
    of f from -1 to the i-th Gauss-Legendre node.

    Built through the Legendre expansion of the interpolant; exact for
    polynomial data, which makes cumulative integrals of panel-constant
    densities exact as well.
    """
    xi, w = _reference_rule(q)
    V = legvander(xi, q)  # columns are P_0 .. P_q evaluated at the nodes
    k = np.arange(q)
    # Discrete Legendre transform: f at the nodes -> expansion coefficients.
    to_coef = ((2.0 * k + 1.0) / 2.0)[:, None] * (V[:, :q].T * w)
    J = np.empty((q, q))
    J[:, 0] = xi + 1.0
    for j in range(1, q):
        J[:, j] = (V[:, j + 1] - V[:, j - 1]) / (2.0 * j + 1.0)
    return _readonly(J @ to_coef)


@dataclass(frozen=True)
class Support:
    """Where densities live: explicit points, or an interval with a grid.

    Attributes:
        kind: ``"discrete"`` or ``"continuous"``.
        a, b: interval endpoints (continuous only).
        n: number of nodes (grid size, or the number of discrete points).
        points: the discrete points (discrete only), strictly increasing.
    """

    kind: str
    a: float | None = None
    b: float | None = None
    n: int = 0
    points: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "discrete":
            if self.points is None or len(self.points) < 2:
                raise ValidationError("discrete support needs at least 2 points")
            arr = np.asarray(self.points, dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise ValidationError("support points must be finite")
            if not np.all(np.diff(arr) > 0):
                raise ValidationError("support points must be strictly increasing")
            if self.n != len(self.points):
                raise ValidationError("discrete support size disagrees with its points")
        elif self.kind == "continuous":
            if self.a is None or self.b is None:
                raise ValidationError("continuous support needs bounds a and b")
            if not (math.isfinite(self.a) and math.isfinite(self.b)):
                raise ValidationError("support bounds must be finite")
            if not self.a < self.b:
                raise ValidationError("continuous support requires a < b")
            if self.n < MIN_CONTINUOUS_NODES:
                raise ValidationError(
                    f"continuous support needs at least {MIN_CONTINUOUS_NODES} nodes"
                )
        else:
            raise ValidationError(f"unknown support kind {self.kind!r}")

    @classmethod
    def discrete(cls, points: Iterable[float]) -> "Support":
        pts = tuple(float(x) for x in points)
        return cls(kind="discrete", points=pts, n=len(pts))

    @classmethod
    def continuous(cls, a: float, b: float, n: int = DEFAULT_NODES) -> "Support":
        return cls(kind="continuous", a=float(a), b=float(b), n=int(n))

    @property
    def is_continuous(self) -> bool:
        return self.kind == "continuous"

    @property
    def lower(self) -> float:
        return self.points[0] if self.points is not None else self.a  # type: ignore[return-value]

    @property
    def upper(self) -> float:
        return self.points[-1] if self.points is not None else self.b  # type: ignore[return-value]

    @cached_property
    def panel_sizes(self) -> tuple[int, ...]:
        if not self.is_continuous:
            raise ValidationError("discrete supports have no quadrature panels")
        return _panel_sizes(self.n)

    @cached_property
    def panel_edges(self) -> NDArray[np.float64]:
        return _readonly(np.linspace(self.a, self.b, len(self.panel_sizes) + 1))

    def _panel_groups(self):
        """Yield ``(q, panels, nodes)`` per run of q-node panels: slices of
        the panel and node axes, so grid-wide work is one broadcast per
        panel size (there are at most two) rather than a loop over panels."""
        panel = node = 0
        for q, group in itertools.groupby(self.panel_sizes):
            count = len(list(group))
            yield q, slice(panel, panel + count), slice(node, node + q * count)
            panel += count
            node += q * count

    @cached_property
    def nodes(self) -> NDArray[np.float64]:
        """Quadrature abscissas, or the discrete points themselves.  A panel
        maps the reference nodes xi as ``mid + hw * xi`` (midpoint, half-width)."""
        if not self.is_continuous:
            return _readonly(np.asarray(self.points, dtype=np.float64))
        edges = self.panel_edges
        mid, hw = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        return _readonly(np.concatenate([
            (mid[p, None] + hw[p, None] * _reference_rule(q)[0]).ravel()
            for q, p, _ in self._panel_groups()
        ]))

    @cached_property
    def weights(self) -> NDArray[np.float64]:
        """Quadrature weights ``hw * w`` per panel; all ones when discrete."""
        if not self.is_continuous:
            return _readonly(np.ones(self.n))
        hw = 0.5 * np.diff(self.panel_edges)
        return _readonly(np.concatenate([
            (hw[p, None] * _reference_rule(q)[1]).ravel()
            for q, p, _ in self._panel_groups()
        ]))

    def integrate(self, values: NDArray[np.float64]) -> float:
        """Weighted sum of per-node values (a plain sum when discrete)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n,):
            raise ValidationError("support mismatch: expected one value per node")
        return float(np.dot(self.weights, values))

    def cumulative(self, values: NDArray[np.float64]) -> tuple[NDArray, NDArray]:
        """Cumulative integral of per-node values from the left endpoint.

        Returns:
            Pair ``(at_nodes, at_edges)``: partial integrals up to every
            quadrature node and up to every panel edge.  Exact for data that
            is polynomial on each panel.
        """
        if not self.is_continuous:
            raise ValidationError("cumulative integrals need a continuous support")
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n,):
            raise ValidationError("support mismatch: expected one value per node")
        sizes = self.panel_sizes
        half_widths = 0.5 * np.diff(self.panel_edges)
        within = np.empty(self.n)
        masses = np.empty(len(sizes))
        for q, panels, nodes in self._panel_groups():
            block = values[nodes].reshape(-1, q)
            hw = half_widths[panels, None]
            within[nodes] = (hw * (block @ _partial_integration_matrix(q).T)).ravel()
            masses[panels] = hw[:, 0] * (block @ _reference_rule(q)[1])
        at_edges = np.concatenate(([0.0], np.cumsum(masses)))
        at_nodes = within + np.repeat(at_edges[:-1], sizes)
        return at_nodes, at_edges


@dataclass(frozen=True)
class ConstraintFunction:
    """A function h(x) whose moment E[h] is pinned or bracketed.

    Three kinds are supported.  ``power`` is h(x) = x**degree.  ``indicator``
    is 1 on [lower, upper] and 0 elsewhere.  ``tabulated`` supplies one value
    per support node (and, optionally, one slope per node so that risk
    profiles can be formed from it).
    """

    kind: str
    degree: int | None = None
    lower: float | None = None
    upper: float | None = None
    values: tuple[float, ...] | None = None
    slope: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind == "power":
            d = self.degree
            if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
                raise ValidationError("power degree must be a positive integer")
            object.__setattr__(self, "degree", int(d))
        elif self.kind == "indicator":
            if self.lower is None or self.upper is None:
                raise ValidationError("indicator needs both edges")
            if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
                raise ValidationError("indicator edges must be finite")
            if not self.lower < self.upper:
                raise ValidationError("indicator requires lower < upper")
        elif self.kind == "tabulated":
            if self.values is None or len(self.values) == 0:
                raise ValidationError("tabulated constraint needs values")
            if not all(math.isfinite(v) for v in self.values):
                raise ValidationError("tabulated values must be finite")
            if self.slope is not None and len(self.slope) != len(self.values):
                raise ValidationError("tabulated slope must match values in length")
        else:
            raise ValidationError(f"unknown constraint kind {self.kind!r}")

    @classmethod
    def power(cls, degree: int) -> "ConstraintFunction":
        return cls(kind="power", degree=degree)

    @classmethod
    def indicator(cls, lower: float, upper: float) -> "ConstraintFunction":
        return cls(kind="indicator", lower=float(lower), upper=float(upper))

    @classmethod
    def tabulated(
        cls,
        values: Iterable[float],
        slope: Iterable[float] | None = None,
    ) -> "ConstraintFunction":
        return cls(
            kind="tabulated",
            values=tuple(float(v) for v in values),
            slope=None if slope is None else tuple(float(s) for s in slope),
        )

    def validate_on(self, support: Support) -> None:
        if self.kind == "indicator":
            if self.lower < support.lower or self.upper > support.upper:
                raise ValidationError("indicator exceeds support")
        elif self.kind == "tabulated":
            if len(self.values) != support.n:
                raise ValidationError(
                    "tabulated constraint needs one value per support node"
                )

    def tabulate(self, support: Support) -> NDArray[np.float64]:
        """Values of h at every support node, in a fresh array.

        Powers are computed as |x|**degree with the sign put back for odd
        degrees (:func:`_power`): numpy's ``pow`` is slow on negative bases,
        and this matches ``x ** degree`` bit for bit on non-negative nodes
        and within 1 ulp on negative ones.
        """
        self.validate_on(support)
        x = support.nodes
        if self.kind == "power":
            return _power(x, self.degree)
        if self.kind == "indicator":
            return ((x >= self.lower) & (x <= self.upper)).astype(np.float64)
        return np.asarray(self.values, dtype=np.float64)

    def derivative(self, support: Support) -> NDArray[np.float64]:
        """Values of h'(x) at every node.

        A power's slope degree * x**(degree - 1) takes its power the way
        :meth:`tabulate` does (|x| to the power, sign put back), for the same
        reason.  Indicator functions differentiate to 0 away from their
        edges; the nodes at (or straddling) an edge are the caller's problem
        and are reported by :meth:`edge_mask` (the risk profile masks the
        same nodes for every indicator at once).
        """
        self.validate_on(support)
        x = support.nodes
        if self.kind == "power":
            if self.degree == 1:
                return np.ones_like(x)
            return self.degree * _power(x, self.degree - 1)
        if self.kind == "indicator":
            return np.zeros_like(x)
        if self.slope is None:
            raise ValidationError(
                "tabulated constraint function has no supplied derivative"
            )
        return np.asarray(self.slope, dtype=np.float64)

    def edge_mask(self, support: Support) -> NDArray[np.bool_]:
        """True at nodes whose central-difference stencil spans a jump of h.

        Only indicator functions produce masked nodes.
        """
        x = support.nodes
        mask = np.zeros(len(x), dtype=bool)
        if self.kind != "indicator":
            return mask
        left = np.empty_like(x)
        right = np.empty_like(x)
        left[0] = x[0]
        left[1:] = x[:-1]
        right[-1] = x[-1]
        right[:-1] = x[1:]
        for edge in (self.lower, self.upper):
            mask |= (left <= edge) & (edge <= right)
        return mask

    def label(self) -> str:
        if self.kind == "power":
            return f"power {self.degree}"
        if self.kind == "indicator":
            return f"indicator [{self.lower:g}, {self.upper:g}]"
        return "tabulated"


@dataclass(frozen=True)
class ConstraintSpec:
    """A constraint function together with its target: E[h] = value, or
    E[h] in [lo, hi]."""

    function: ConstraintFunction
    equals: float | None = None
    bounds: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if (self.equals is None) == (self.bounds is None):
            raise ValidationError(
                "constraint needs exactly one of an equality target or bounds"
            )
        if self.equals is not None and not math.isfinite(self.equals):
            raise ValidationError("equality target must be finite")
        if self.bounds is not None:
            lo, hi = self.bounds
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValidationError("interval bounds must be finite")
            if lo > hi:
                raise ValidationError("interval target requires lo <= hi")

    @classmethod
    def equality(cls, function: ConstraintFunction, value: float) -> "ConstraintSpec":
        return cls(function=function, equals=float(value))

    @classmethod
    def interval(
        cls, function: ConstraintFunction, lo: float, hi: float
    ) -> "ConstraintSpec":
        return cls(function=function, bounds=(float(lo), float(hi)))

    @property
    def is_equality(self) -> bool:
        return self.equals is not None


def _feature_matrix(
    support: Support, functions: Sequence[ConstraintFunction]
) -> NDArray[np.float64]:
    """Row j holds functions[j] tabulated at every support node."""
    H = np.empty((len(functions), support.n))
    for j, f in enumerate(functions):
        H[j] = f.tabulate(support)
    return H


def _features_and_multipliers(
    support: Support, functions: Sequence[ConstraintFunction], multipliers: ArrayLike
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """The feature matrix, and the multipliers as a vector checked to hold one
    per row: every map that takes multipliers from a caller checks them here."""
    lam = np.asarray(multipliers, dtype=np.float64)
    H = _feature_matrix(support, functions)
    if lam.shape != (H.shape[0],):
        raise ValidationError("one multiplier per constraint function is required")
    return H, lam


@dataclass(frozen=True)
class Problem:
    """A support with validated constraints, ready for the solver."""

    support: Support
    constraints: tuple[ConstraintSpec, ...]

    @cached_property
    def features(self) -> NDArray[np.float64]:
        """The constraint functions tabulated once: one row per constraint,
        one column per node.  Every solver step reads rows of this matrix."""
        return _readonly(
            _feature_matrix(self.support, [s.function for s in self.constraints])
        )


def validate_problem(
    support: Support, constraints: Sequence[ConstraintSpec]
) -> Problem:
    """Check constraints against the support and return the bundled problem.

    Validation is idempotent: re-validating a problem's own fields returns
    an equal problem.  The first violated rule raises ValidationError with
    the offending constraint's position.
    """
    specs = tuple(constraints)
    for i, spec in enumerate(specs):
        if not isinstance(spec, ConstraintSpec):
            raise ValidationError(f"constraint {i}: not a ConstraintSpec")
        try:
            spec.function.validate_on(support)
        except ValidationError as exc:
            raise ValidationError(f"constraint {i}: {exc}") from None
    return Problem(support=support, constraints=specs)


@dataclass(frozen=True)
class SolverDiagnostics:
    """What the solver did and how well the targets were met.

    Attributes:
        iterations: accepted Newton steps of the solve.
        grad_max_norm: max-norm of the final dual gradient.
        residuals: signed per-constraint residuals; for an interval
            constraint this is the signed distance outside its bounds
            (0.0 when satisfied).
        active_bounds: per constraint, one of "eq", "lo", "hi", "slack";
            a bracket's label is its multiplier's sign (negative "lo",
            positive "hi", zero "slack").
        atoms: columns Newton ran on: runs of nodes with equal feature
            columns, each merged into one (the node count when none merge).
        dual_trace: dual objective at the start and after each accepted
            step, so it has iterations + 1 entries.
        halvings: times the line search halved a step, over the solve.
        ratio_stops: multipliers that accepted steps stopped at exactly
            zero by the ratio test (a bracket leaving its bound).
    """

    iterations: int
    grad_max_norm: float
    residuals: tuple[float, ...]
    active_bounds: tuple[str, ...]
    atoms: int
    dual_trace: tuple[float, ...] = field(default=(), repr=False)
    halvings: int = 0
    ratio_stops: int = 0


@dataclass(frozen=True, eq=False)
class MaxEntSolution:
    """A solved maximum-entropy density in exponential form.

    The density at node x_i is exp(-log_partition - sum_j m_j h_j(x_i)) with
    multipliers m.  Construction re-derives the density from the multipliers
    by the solver's rule and rejects the solution if anything fails to line up:

    * density strictly positive at every node;
    * total mass 1 (sum for discrete, quadrature for continuous);
    * the rebuilt density matches the stored one to 1e-12 relative error.

    The rebuild reads ``features``, the constraint functions tabulated at
    the nodes (one row per constraint), when the caller already holds them:
    the solver passes its problem's matrix, so a solve tabulates each
    constraint once.  The matrix is not kept on the solution.  Without it,
    construction tabulates the constraints itself, as
    :meth:`rebuild_density` always does.
    """

    support: Support
    constraints: tuple[ConstraintSpec, ...]
    density: NDArray[np.float64]
    multipliers: NDArray[np.float64]
    log_partition: float
    entropy: float
    diagnostics: SolverDiagnostics
    features: InitVar[NDArray[np.float64] | None] = None

    def __post_init__(self, features: NDArray[np.float64] | None) -> None:
        object.__setattr__(self, "density", _readonly(self.density))
        object.__setattr__(self, "multipliers", _readonly(self.multipliers))
        n, m = self.support.n, len(self.constraints)
        if self.density.shape != (n,):
            raise ValidationError("solution density needs one value per node")
        if self.multipliers.shape != (m,):
            raise ValidationError("solution needs one multiplier per constraint")
        if not np.all(self.density > 0.0):
            raise ValidationError("solution density must be strictly positive")
        mass = self.support.integrate(self.density)
        tol = MASS_TOL_CONTINUOUS if self.support.is_continuous else MASS_TOL_DISCRETE
        if abs(mass - 1.0) > tol:
            raise ValidationError(f"solution mass {mass!r} is not 1 within {tol:g}")
        if features is None:
            H = _feature_matrix(self.support, [s.function for s in self.constraints])
        else:
            H = np.asarray(features, dtype=np.float64)
        if H.shape != (m, n):
            raise ValidationError(
                "solution features need one row per constraint and one column "
                "per node"
            )
        rebuilt = _exponential_density(H, self.multipliers, self.log_partition)
        rel = np.max(np.abs(rebuilt - self.density) / self.density)
        if rel > RECONSTRUCTION_RTOL:
            raise ValidationError(
                f"density does not match its multipliers (rel err {rel:.3e})"
            )
        if not math.isfinite(self.entropy):
            raise ValidationError("solution entropy must be finite")

    def rebuild_density(self) -> NDArray[np.float64]:
        """Evaluate exp(-log_partition - sum_j m_j h_j(x)) at the nodes."""
        return exponential_density(
            self.support, self.constraints, self.multipliers, self.log_partition
        )


def exponential_density(
    support: Support,
    constraints: Sequence[ConstraintSpec],
    multipliers: NDArray[np.float64],
    log_partition: float,
) -> NDArray[np.float64]:
    """Density exp(-log_partition - sum_j m_j h_j(x)) at the support nodes,
    with the constraint functions tabulated afresh.  It takes the rule the
    solver reports its density by (:func:`_exponential_density`), so a
    solution reconstructs bit for bit from its own multipliers."""
    H, lam = _features_and_multipliers(
        support, [spec.function for spec in constraints], multipliers
    )
    return _exponential_density(H, lam, log_partition)


def _shifted_exponent(
    H: NDArray[np.float64], multipliers: NDArray[np.float64]
) -> tuple[np.float64, NDArray[np.float64]]:
    """(top, exp(e - top)) for the exponent e = -sum_j m_j h_j at the nodes,
    top its maximum, so that e cannot overflow; no other code forms e."""
    expo = -(multipliers @ H)
    top = expo.max()
    return top, np.exp(expo - top)


def _exponential_density(
    H: NDArray[np.float64], multipliers: NDArray[np.float64], log_partition: float
) -> NDArray[np.float64]:
    """The reported density: exp(e - top) scaled by exp(top - log_partition)."""
    top, shifted = _shifted_exponent(H, multipliers)
    return shifted * math.exp(top - log_partition)
