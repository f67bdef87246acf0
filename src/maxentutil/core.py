"""Domain types shared by every other module.

A problem is a support (discrete points or a continuous interval carrying a
fixed quadrature grid) together with constraint functions and their moment
targets.  A solved problem is a :class:`MaxEntSolution`: the Lagrange
multipliers and solver diagnostics, from which it derives its strictly
positive density of exponential form, log Z, residuals, bracket labels and
entropy.

Continuous supports discretize `[a, b]` once, at construction, with a
composite Gauss-Legendre rule (panels of up to 32 nodes).  Every downstream
integral, including the cumulative integrals used for utility curves, is
taken against this grid, so results are deterministic for a given support
on one numpy/BLAS build.  Across builds the nodes (from a LAPACK eigenvalue
solve, as in numpy's `leggauss`), the BLAS reductions and numpy's `pow` may
differ in the last bits; the CLI's output contract (see :mod:`maxentutil.cli`)
holds such drift within rel 1e-12 / abs 1e-14.
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref
from dataclasses import dataclass, field
from functools import lru_cache, cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import ArrayLike, NDArray

__all__ = [
    "MaxentError",
    "ValidationError",
    "InfeasibleError",
    "ActiveSetCycleError",
    "Support",
    "ConstraintFunction",
    "ConstraintSpec",
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

_UNDERFLOW = (
    "multipliers drive the density to zero at some nodes (floating-point underflow); "
    "the targets are too near the attainable boundary, or not attainable together"
)


class MaxentError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MaxentError):
    """A support, constraint, or input value violates a structural rule."""


class InfeasibleError(MaxentError):
    """The constraint targets cannot be met by any density on the support."""


class ActiveSetCycleError(MaxentError):
    """Kept for callers that catch it: no solver path raises it since the
    interval solve became one Newton run."""


def _readonly(a: ArrayLike, dtype: type = np.float64) -> NDArray:
    """``a`` as a read-only C-contiguous array of ``dtype``: a copy, so the
    caller's array stays writeable and later writes to it do not reach the
    copy; ``a`` itself when it already is such an array and owns its memory,
    as the package's builders pass their fresh arrays (:func:`_frozen`)."""
    if (isinstance(a, np.ndarray) and a.dtype == dtype and a.base is None
            and not a.flags.writeable and a.flags.c_contiguous):
        return a
    return _frozen(np.array(a, dtype=dtype, order="C"))


def _frozen(a: NDArray) -> NDArray:
    """``a`` itself made read-only, for a fresh array that nothing else holds."""
    a.flags.writeable = False
    return a


def _integer(value, message: str) -> int:
    """``value`` as a plain int: Python and numpy integers pass, bools and
    every other type (floats, strings) raise ValidationError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(message)
    return int(value)


def _finite(value) -> bool:
    """Whether ``value`` is a finite real number: Python and numpy integers
    and floats are; bools and every other type (strings, None) are not."""
    if isinstance(value, bool) or not isinstance(
        value, (float, int, np.floating, np.integer)
    ):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _reals(values, message: str) -> tuple[float, ...]:
    """``values`` as a tuple of Python floats, each passing :func:`_finite`;
    ValidationError(message) for anything else, a non-iterable included."""
    items = tuple(values) if np.iterable(values) else (None,)
    if not all(map(_finite, items)):
        raise ValidationError(message)
    return tuple(map(float, items))


def _array_of(values: ArrayLike, kinds: str, message: str) -> NDArray:
    """``values`` as an array whose dtype kind is one of ``kinds``, without
    a copy when it already is one; ValidationError(message) for any other
    dtype and for ragged nesting."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged, such as ([0.5], 2.0)
        raise ValidationError(message) from None
    if arr.dtype.kind not in kinds:
        raise ValidationError(message)
    return arr


def _real_array(values: ArrayLike, message: str) -> NDArray[np.float64]:
    """``values`` as a float64 array, converted from integers and floats
    only, and without a copy when it already is one; ValidationError(message)
    for any other dtype (strings, bools, objects) and for ragged nesting."""
    return _array_of(values, "iuf", message).astype(np.float64, copy=False)


def _items(values, noun: str) -> tuple:
    """``values`` read once, as a tuple; ValidationError naming them when
    they cannot be iterated."""
    if not np.iterable(values):
        raise ValidationError(f"{noun} {values!r} are not iterable")
    return tuple(values)


def _masses(values: ArrayLike, noun: str, tol: float) -> NDArray[np.float64]:
    """``values`` as a probability mass vector of real numbers, non-empty,
    finite and non-negative, of sum 1 within ``tol``; ``noun`` names it in
    errors."""
    p = _real_array(values, f"{noun} must be real numbers")
    if p.ndim != 1 or len(p) == 0:
        raise ValidationError(f"{noun} must be a non-empty vector")
    if not np.isfinite(p).all():
        raise ValidationError(f"{noun} must be finite")
    if (p < 0.0).any():
        raise ValidationError(f"{noun} must be non-negative")
    total = float(p.sum())
    if abs(total - 1.0) > tol:
        raise ValidationError(f"{noun} sum to {total!r}, not 1 within {tol:g}")
    return p


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


def _legendre_series(x: NDArray[np.float64], c: Sequence[float]) -> NDArray[np.float64]:
    """The Legendre series with coefficients ``c`` (lowest degree first) at
    ``x``, by Clenshaw's recurrence rounded as numpy 2.4's ``legval`` rounds
    it: each step scales by ``(nd - 1) / nd`` and ``(2 nd - 1) / nd``.  Older
    releases may multiply first and divide after, which rounds apart."""
    c0, c1 = (c[0], 0.0) if len(c) == 1 else (c[-2], c[-1])
    nd = len(c)
    for i in range(3, len(c) + 1):
        nd -= 1
        c0, c1 = c[-i] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=None)
def _reference_rule(q: int) -> tuple[NDArray, NDArray]:
    """The q-node Gauss-Legendre rule on [-1, 1]: nodes and weights by the
    arithmetic of numpy's ``leggauss``, step for step (Golub & Welsch 1969),
    with :func:`_legendre_series`'s rounding on every numpy.  On numpy 2.4
    they are ``leggauss``'s bit for bit.

    The nodes start as the eigenvalues of P_q's symmetric companion (Jacobi)
    matrix and take one Newton step on P_q.  The weights are 1/(P_{q-1} P_q')
    at the nodes, each factor scaled by its largest magnitude; nodes and
    weights are then symmetrized, and the weights scaled to sum to 2.
    """
    unit = [0.0] * q + [1.0]  # P_q's coefficients; unit[1:] are P_{q-1}'s
    # P_q' = sum of (2k + 1) P_k over k = q-1, q-3, ...
    slope = [2.0 * k + 1.0 if (q - 1 - k) % 2 == 0 else 0.0 for k in range(q)]
    scale = 1.0 / np.sqrt(2 * np.arange(q) + 1)
    off_diagonal = np.arange(1, q) * scale[:-1] * scale[1:]
    jacobi = np.zeros((q, q))
    jacobi.flat[1::q + 1] = off_diagonal
    jacobi.flat[q::q + 1] = off_diagonal
    x = np.linalg.eigvalsh(jacobi)
    df = _legendre_series(x, slope)
    x -= _legendre_series(x, unit) / df
    fm = _legendre_series(x, unit[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return _frozen(x), _frozen(w)


@lru_cache(maxsize=None)
def _partial_integration_matrix(q: int) -> NDArray[np.float64]:
    """Matrix M with (M @ f)[i] = integral of the degree-(q-1) interpolant
    of f from -1 to the i-th Gauss-Legendre node.

    Built through the Legendre expansion of the interpolant; exact for
    polynomial data, which makes cumulative integrals of panel-constant
    densities exact as well.
    """
    xi, w = _reference_rule(q)
    # Row i is P_i at the nodes, by the forward three-term recurrence (the
    # arithmetic of numpy's ``legvander``).
    P = np.empty((q + 1, q))
    P[0] = 1.0
    P[1] = xi
    for i in range(2, q + 1):
        P[i] = (P[i - 1] * xi * (2 * i - 1) - P[i - 2] * (i - 1)) / i
    k = np.arange(q)
    # Discrete Legendre transform: f at the nodes -> expansion coefficients.
    to_coef = ((2.0 * k + 1.0) / 2.0)[:, None] * (P[:q] * w)
    J = np.empty((q, q))
    J[:, 0] = xi + 1.0
    for j in range(1, q):
        J[:, j] = (P[j + 1] - P[j - 1]) / (2.0 * j + 1.0)
    return _frozen(J @ to_coef)


@dataclass(frozen=True)
class Support:
    """Where densities live: explicit points, or an interval with a grid.

    Attributes:
        kind: ``"discrete"`` or ``"continuous"``.
        a, b: interval endpoints (continuous only), stored as floats.
        n: number of nodes (grid size, or the number of discrete points);
            an int (numpy integers are stored as int; bools and floats
            raise ValidationError).  A grid's nodes must come out strictly
            increasing as doubles, which a domain too narrow for n fails.
        points: the discrete points (discrete only): a flat sequence of
            integers or floats, strictly increasing as floats (a tuple
            mixing bools and floats converts), stored as a tuple of floats.
    """

    kind: str
    a: float | None = None
    b: float | None = None
    n: int = 0
    points: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer(self.n, "node count must be an integer"))
        if self.kind == "discrete":
            message = "support points must be real numbers"
            pts = _real_array(() if self.points is None else self.points, message)
            if pts.ndim != 1:
                raise ValidationError(message)
            if len(pts) < 2:
                raise ValidationError("discrete support needs at least 2 points")
            if not np.isfinite(pts).all():
                raise ValidationError("support points must be finite")
            if not (np.diff(pts) > 0).all():
                raise ValidationError("support points must be strictly increasing")
            if self.n != len(pts):
                raise ValidationError("discrete support size disagrees with its points")
            object.__setattr__(self, "points", tuple(pts.tolist()))
        elif self.kind == "continuous":
            if self.a is None or self.b is None:
                raise ValidationError("continuous support needs bounds a and b")
            if not (_finite(self.a) and _finite(self.b)):
                raise ValidationError("support bounds must be finite real numbers")
            if not self.a < self.b:
                raise ValidationError("continuous support requires a < b")
            a, b = float(self.a), float(self.b)
            # The grid spans b - a, and its uniform density 1/(b - a) has
            # -p log p = log(b - a)/(b - a), finite only if 1/(b - a) is.
            width = b - a
            if not (width > 0.0 and math.isfinite(width)
                    and math.isfinite(math.log(width) / width)):
                raise ValidationError(
                    f"continuous support [{a!r}, {b!r}] is out of floating-point "
                    "range: b - a and 1/(b - a) must be finite and positive"
                )
            if self.n < MIN_CONTINUOUS_NODES:
                raise ValidationError(
                    f"continuous support needs at least {MIN_CONTINUOUS_NODES} nodes"
                )
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
            # On a domain too narrow for n nodes, some nodes round to the
            # same double (or out of order), and the grid is not a grid.
            x = self.nodes
            if not (x[1:] > x[:-1]).all():
                raise ValidationError(
                    f"continuous support [{a!r}, {b!r}] is too narrow for "
                    f"{self.n} nodes: they are not strictly increasing in "
                    "floating point"
                )
        else:
            raise ValidationError(f"unknown support kind {self.kind!r}")

    @classmethod
    def discrete(cls, points: Iterable[float]) -> "Support":
        pts = tuple(points) if np.iterable(points) else points  # len() needs a tuple
        return cls(kind="discrete", points=pts, n=len(pts) if np.iterable(pts) else 0)

    @classmethod
    def continuous(cls, a: float, b: float, n: int = DEFAULT_NODES) -> "Support":
        return cls(kind="continuous", a=a, b=b, n=n)

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
        return _frozen(np.linspace(self.a, self.b, len(self.panel_sizes) + 1))

    @cached_property
    def _panel_groups(self) -> tuple[tuple[int, slice, slice], ...]:
        """``(q, panels, nodes)`` per run of q-node panels: slices of the
        panel and node axes, so grid-wide work is one broadcast per panel
        size (there are at most two) rather than a loop over panels."""
        groups, panel, node = [], 0, 0
        for q, group in itertools.groupby(self.panel_sizes):
            count = len(list(group))
            groups.append((q, slice(panel, panel + count), slice(node, node + q * count)))
            panel += count
            node += q * count
        return tuple(groups)

    @cached_property
    def _half_widths(self) -> NDArray[np.float64]:
        return _frozen(0.5 * np.diff(self.panel_edges))

    @cached_property
    def _panel_repeats(self) -> NDArray[np.intp]:
        """Nodes per panel, as the repeat counts that spread a per-panel
        value over the panel's nodes."""
        return _readonly(self.panel_sizes, dtype=np.intp)

    @cached_property
    def nodes(self) -> NDArray[np.float64]:
        """Quadrature abscissas, or the discrete points themselves.  A panel
        maps the reference nodes xi as ``mid + hw * xi`` (midpoint, half-width)."""
        if not self.is_continuous:
            return _readonly(self.points)
        edges, hw = self.panel_edges, self._half_widths
        mid = 0.5 * (edges[:-1] + edges[1:])
        return _frozen(np.concatenate([
            (mid[p, None] + hw[p, None] * _reference_rule(q)[0]).ravel()
            for q, p, _ in self._panel_groups
        ]))

    @cached_property
    def weights(self) -> NDArray[np.float64]:
        """Quadrature weights ``hw * w`` per panel; all ones when discrete."""
        if not self.is_continuous:
            return _frozen(np.ones(self.n))
        hw = self._half_widths
        return _frozen(np.concatenate([
            (hw[p, None] * _reference_rule(q)[1]).ravel()
            for q, p, _ in self._panel_groups
        ]))

    @cached_property
    def _outermost_node(self) -> float:
        """The node of largest magnitude (nodes ascend: the first or the
        last), as a Python float: a power row overflows where it does."""
        x = self.nodes
        return max(x.item(0), x.item(-1), key=abs)

    def _per_node(self, values: ArrayLike, noun: str = "values") -> NDArray[np.float64]:
        """``values`` as a float array of real numbers (see
        :func:`_real_array`), checked to hold one value per node; ``noun``
        names them in the dtype error."""
        values = _real_array(values, f"{noun} must be real numbers")
        if values.shape != (self.n,):
            raise ValidationError("support mismatch: expected one value per node")
        return values

    def integrate(self, values: NDArray[np.float64]) -> float:
        """Weighted sum of per-node values (a plain sum when discrete)."""
        return float(np.dot(self.weights, self._per_node(values)))

    def cumulative(self, values: NDArray[np.float64]) -> tuple[NDArray, NDArray]:
        """Cumulative integral of per-node values from the left endpoint.

        Returns:
            Pair ``(at_nodes, at_edges)``: partial integrals up to every
            quadrature node and up to every panel edge.  Exact for data that
            is polynomial on each panel.
        """
        if not self.is_continuous:
            raise ValidationError("cumulative integrals need a continuous support")
        values = self._per_node(values)
        hw = self._half_widths
        at_nodes = np.empty(self.n)
        at_edges = np.empty(len(hw) + 1)
        at_edges[0] = 0.0
        masses = at_edges[1:]  # each panel's mass, then their running sum
        for q, panels, nodes in self._panel_groups:
            block = values[nodes].reshape(-1, q)
            within = at_nodes[nodes].reshape(-1, q)  # a view: written in place
            np.matmul(block, _partial_integration_matrix(q).T, out=within)
            within *= hw[panels, None]
            np.multiply(hw[panels], block @ _reference_rule(q)[1], out=masses[panels])
        np.cumsum(masses, out=masses)
        at_nodes += np.repeat(at_edges[:-1], self._panel_repeats)
        return at_nodes, at_edges


def _density_on(
    support: Support, values: ArrayLike
) -> tuple[NDArray[np.float64], float]:
    """``values`` as a density on the support's grid: one finite,
    non-negative value per node, of mass 1 within 1e-8; returned with its
    largest value."""
    p = support._per_node(values, "density values")
    low, high = np.minimum.reduce(p), np.maximum.reduce(p)  # a NaN makes both NaN
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValidationError("density must be finite")
    if low < 0.0:
        raise ValidationError("density must be non-negative")
    mass = support.integrate(p)
    if abs(mass - 1.0) > 1e-8:
        raise ValidationError(f"density integrates to {mass!r}, not 1")
    return p, high


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
            message = "power degree must be a positive integer"
            d = _integer(self.degree, message)
            if d < 1:
                raise ValidationError(message)
            object.__setattr__(self, "degree", d)
        elif self.kind == "indicator":
            if self.lower is None or self.upper is None:
                raise ValidationError("indicator needs both edges")
            if not (_finite(self.lower) and _finite(self.upper)):
                raise ValidationError("indicator edges must be finite real numbers")
            if not self.lower < self.upper:
                raise ValidationError("indicator requires lower < upper")
            object.__setattr__(self, "lower", float(self.lower))
            object.__setattr__(self, "upper", float(self.upper))
        elif self.kind == "tabulated":
            values = _reals(self.values, "tabulated values must be finite real numbers")
            if not values:
                raise ValidationError("tabulated constraint needs values")
            slope = None if self.slope is None else _reals(
                self.slope, "tabulated slope must be finite real numbers")
            if slope is not None and len(slope) != len(values):
                raise ValidationError("tabulated slope must match values in length")
            object.__setattr__(self, "values", values)
            object.__setattr__(self, "slope", slope)
        else:
            raise ValidationError(f"unknown constraint kind {self.kind!r}")

    @classmethod
    def power(cls, degree: int) -> "ConstraintFunction":
        return cls(kind="power", degree=degree)

    @classmethod
    def indicator(cls, lower: float, upper: float) -> "ConstraintFunction":
        return cls(kind="indicator", lower=lower, upper=upper)

    @classmethod
    def tabulated(
        cls,
        values: Iterable[float],
        slope: Iterable[float] | None = None,
    ) -> "ConstraintFunction":
        return cls(kind="tabulated", values=values, slope=slope)

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
        and within 1 ulp on negative ones.  A power that overflows a double
        at the node of largest magnitude raises ValidationError naming the
        degree and that node.
        """
        self.validate_on(support)
        x = support.nodes
        if self.kind == "power":
            node = support._outermost_node
            try:
                node ** self.degree  # a Python float raises where numpy warns
            except OverflowError:
                raise ValidationError(
                    f"power {self.degree} overflows a double at the node {node!r}"
                ) from None
            return _power(x, self.degree)
        if self.kind == "indicator":
            # Nodes ascend, so the nodes in [lower, upper] are one slice.
            row = np.zeros(len(x))
            row[x.searchsorted(self.lower, "left"):x.searchsorted(self.upper, "right")] = 1.0
            return row
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
        if not isinstance(self.function, ConstraintFunction):
            raise ValidationError("constraint function must be a ConstraintFunction")
        if (self.equals is None) == (self.bounds is None):
            raise ValidationError(
                "constraint needs exactly one of an equality target or bounds"
            )
        if self.equals is not None:
            if not _finite(self.equals):
                raise ValidationError("equality target must be a finite real number")
            object.__setattr__(self, "equals", float(self.equals))
        if self.bounds is not None:
            if not (isinstance(self.bounds, tuple) and len(self.bounds) == 2):
                raise ValidationError("interval bounds must be a (lo, hi) pair")
            lo, hi = _reals(self.bounds, "interval bounds must be finite real numbers")
            if lo > hi:
                raise ValidationError("interval target requires lo <= hi")
            object.__setattr__(self, "bounds", (lo, hi))

    @classmethod
    def equality(cls, function: ConstraintFunction, value: float) -> "ConstraintSpec":
        return cls(function=function, equals=value)

    @classmethod
    def interval(
        cls, function: ConstraintFunction, lo: float, hi: float
    ) -> "ConstraintSpec":
        return cls(function=function, bounds=(lo, hi))

    @property
    def is_equality(self) -> bool:
        return self.equals is not None


#: The support and the functions of the last call to :func:`_feature_matrix`,
#: and a weak reference to its matrix; read and written there only.
_last_table: tuple = ()


def _feature_matrix(
    support: Support, functions: Sequence[ConstraintFunction]
) -> NDArray[np.float64]:
    """Row j holds functions[j] tabulated at every support node, in a
    read-only matrix; the functions are read once, so any iterable of them
    will do.

    Tabulation is a pure function of the frozen support and functions, so a
    call with the very objects of the last call (``operator.is_``) returns
    that call's matrix while something still holds it: the solution a solve
    builds reads the matrix the solve tabulated.  The matrix is referenced
    weakly, never kept alive here; any other call tabulates afresh.
    """
    global _last_table
    # Read once: another thread's call may record its own table meanwhile.
    key, last = (support, *_items(functions, "constraint functions")), _last_table
    if len(last) == len(key) + 1 and all(map(operator.is_, key, last)):
        H = last[-1]()
        if H is not None:
            return H
    H = np.empty((len(key) - 1, support.n))
    for j, f in enumerate(key[1:]):
        if not isinstance(f, ConstraintFunction):
            raise ValidationError(f"constraint function {j}: not a ConstraintFunction")
        H[j] = f.tabulate(support)
    _last_table = (*key, weakref.ref(_frozen(H)))
    return H


def _evaluate(
    support: Support, functions: Sequence[ConstraintFunction], multipliers: ArrayLike
) -> tuple[NDArray[np.float64], float, NDArray[np.float64], NDArray[np.float64],
           NDArray[np.float64], NDArray[np.float64]]:
    """The one evaluation at caller-given multipliers, for a solution and
    every dual map, and the one owner of their rule: integers or floats (see
    :func:`_real_array`), then finite, before the table and the kernel, then
    one per function.  Returns the multipliers as a vector, log Z, the
    density p (:func:`_exponential_form`), the feature matrix, the node
    masses w*p and the moments E[h]."""
    lam = _real_array(multipliers, "multipliers must be real numbers")
    if not np.isfinite(lam).all():
        raise ValidationError("multipliers must be finite")
    H = _feature_matrix(support, functions)
    if lam.shape != (H.shape[0],):
        raise ValidationError("one multiplier per constraint function is required")
    log_z, p = _exponential_form(H, support.weights, lam)
    wp = support.weights * p
    return lam, log_z, p, H, wp, wp @ H.T


def validate_problem(
    support: Support, constraints: Sequence[ConstraintSpec]
) -> tuple[ConstraintSpec, ...]:
    """The constraints, read once from any iterable, as a tuple, each checked
    against the support.

    Validation is idempotent: re-validating the returned tuple returns an
    equal tuple.  The first violated rule raises ValidationError with the
    offending constraint's position; constraints that cannot be iterated
    are named.
    """
    specs = _items(constraints, "constraints")
    for i, spec in enumerate(specs):
        if not isinstance(spec, ConstraintSpec):
            raise ValidationError(f"constraint {i}: not a ConstraintSpec")
        try:
            spec.function.validate_on(support)
        except ValidationError as exc:
            raise ValidationError(f"constraint {i}: {exc}") from None
    return specs


@dataclass(frozen=True)
class SolverDiagnostics:
    """What Newton did; how well the targets were met is the solution's
    own :attr:`MaxEntSolution.residuals`.

    Attributes:
        iterations: accepted Newton steps of the solve; 1 for a determined
            problem (m equality rows on m + 1 merged atoms, such as
            assessed points), whose first step goes to its exact
            multipliers.
        grad_max_norm: max-norm of the final dual gradient.
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
    atoms: int
    dual_trace: tuple[float, ...] = field(default=(), repr=False)
    halvings: int = 0
    ratio_stops: int = 0


@dataclass(frozen=True, eq=False)
class MaxEntSolution:
    """A solved maximum-entropy density in exponential form, given by its
    multipliers m: one per constraint, finite integers or floats by the rule
    of :func:`_evaluate`, stored read-only (a writeable array is copied).
    The constraints are checked by :func:`validate_problem` and stored as
    its tuple.

    Construction derives the rest from one evaluation at the multipliers,
    by the solver's rule (:func:`_exponential_form`) on the feature matrix
    of :func:`_feature_matrix`, which in a solve is the matrix the solve
    tabulated: the read-only ``density``
    exp(-log_partition - sum_j m_j h_j(x_i)) at every node, ``log_partition``
    (log Z), ``entropy`` (in nats, by :func:`differential_entropy` or
    :func:`discrete_entropy`), ``residuals`` (each moment's signed distance
    to its target: an equality's miss, 0.0 inside an interval) and
    ``active_bounds`` ("eq", or an interval's label by the sign of its
    multiplier: "lo" negative, "hi" positive, "slack" zero).  A density
    that underflows to zero at some node raises InfeasibleError; a total
    mass (sum for discrete, quadrature for continuous) off 1 by more than
    1e-12 (discrete) or 1e-10 (continuous) raises ValidationError.
    """

    support: Support
    constraints: tuple[ConstraintSpec, ...]
    multipliers: NDArray[np.float64]
    diagnostics: SolverDiagnostics
    density: NDArray[np.float64] = field(init=False)
    log_partition: float = field(init=False)
    entropy: float = field(init=False)
    residuals: tuple[float, ...] = field(init=False)
    active_bounds: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        from .entropy import differential_entropy, discrete_entropy  # imports core

        support, specs = self.support, validate_problem(self.support, self.constraints)
        lam, log_z, p, _, _, moments = _evaluate(
            support, [s.function for s in specs], self.multipliers)
        object.__setattr__(self, "constraints", specs)
        object.__setattr__(self, "multipliers", _readonly(lam))
        if not np.minimum.reduce(p) > 0.0:  # a NaN fails too
            raise InfeasibleError(_UNDERFLOW)
        mass = support.integrate(p)
        tol = MASS_TOL_CONTINUOUS if support.is_continuous else MASS_TOL_DISCRETE
        if abs(mass - 1.0) > tol:
            raise ValidationError(f"solution mass {mass!r} is not 1 within {tol:g}")
        entropy = (differential_entropy(p, support) if support.is_continuous
                   else discrete_entropy(p))
        residuals, labels = [], []
        for spec, x, sign in zip(specs, moments.tolist(), lam.tolist()):
            # The moment's distance to its bracket; an equality's miss.
            lo, hi = (spec.equals, spec.equals) if spec.is_equality else spec.bounds
            residuals.append(x - min(max(x, lo), hi))
            labels.append("eq" if spec.is_equality
                          else "hi" if sign > 0.0 else "lo" if sign < 0.0 else "slack")
        object.__setattr__(self, "density", _frozen(p))
        object.__setattr__(self, "log_partition", log_z)
        object.__setattr__(self, "entropy", entropy.value)
        object.__setattr__(self, "residuals", tuple(residuals))
        object.__setattr__(self, "active_bounds", tuple(labels))


def exponential_density(
    support: Support,
    constraints: Sequence[ConstraintSpec],
    multipliers: NDArray[np.float64],
) -> NDArray[np.float64]:
    """Density exp(-log Z - sum_j m_j h_j(x)) at the support nodes, the
    constraints checked, by the evaluation a solution is built from
    (:func:`_evaluate`): a solution rebuilds bit for bit."""
    functions = [s.function for s in validate_problem(support, constraints)]
    return _evaluate(support, functions, multipliers)[2]


def _exponential_form(
    H: NDArray[np.float64], w: NDArray[np.float64], multipliers: NDArray[np.float64]
) -> tuple[float, NDArray[np.float64]]:
    """log Z and p = exp(e - log Z) for e = -sum_j m_j H[j] and weights w, by
    one rule for Newton, the dual maps, each solve and its check: p is
    exp(e - top) * exp(top - log Z) with top = max e, which cannot overflow
    and carries log Z's rounding, not Z's (the 128-node uniform density is 1)."""
    expo = multipliers @ H  # -e; e - top rounds as min(-e) - (-e), in place
    low = np.minimum.reduce(expo)
    shifted = np.exp(np.subtract(low, expo, out=expo), out=expo)
    log_z = float(np.log(w @ shifted) - low)
    return log_z, np.multiply(shifted, math.exp(-low - log_z), out=shifted)
