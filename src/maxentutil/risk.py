"""Arrow-Pratt absolute risk aversion of maximum-entropy utilities.

For a utility density u(x) the coefficient is gamma(x) = -d/dx ln u(x).
A solved exponential-form density makes this analytic: the log-density is
-log Z - sum_j m_j h_j(x), so gamma(x) = sum_j m_j h_j'(x), one additive
term per constraint; the analytic profile is given those terms and sums
them into gamma itself.  A numeric route differentiates -ln u directly,
gives gamma alone, and is kept as an independent check on the analytic one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    MaxEntSolution, Support, ValidationError,
    _array_of, _frozen, _readonly, _real_array,
)
from .entropy import ZERO_MASS_FLOOR
from .utility import UtilityCurve

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = [
    "RiskAversionProfile",
    "risk_aversion_analytic",
    "risk_aversion_numeric",
]


@dataclass(frozen=True, eq=False)
class RiskAversionProfile:
    """gamma at interior nodes, given whole or as per-constraint terms.

    ``node_indices`` names the support nodes the profile covers; nodes whose
    difference stencil would span an indicator jump are left out.  A profile
    takes exactly one of ``gamma`` and ``terms``.  The numeric route gives
    ``gamma``.  The analytic route gives ``terms``, whose row j is
    m_j * h_j'(x), and the profile derives ``gamma`` as their column sum,
    so the two cannot disagree.

    Node indices must have an integer dtype (an empty list is float, so an
    empty profile takes an empty integer array); gamma and terms are
    integers or floats.  Each is stored read-only, and a writeable array is
    copied, so later writes to the caller's array do not reach the profile.
    """

    support: Support
    node_indices: NDArray[np.int64]
    gamma: NDArray[np.float64] | None = None
    terms: NDArray[np.float64] | None = None

    def __post_init__(self) -> None:
        if (self.gamma is None) == (self.terms is None):
            raise ValidationError("profile needs exactly one of gamma or terms")
        message = "profile node indices must be integers"
        idx = _array_of(self.node_indices, "iu", message)
        if self.terms is None:
            g = _real_array(self.gamma, "gamma values must be real numbers")
        else:
            t = _readonly(_real_array(self.terms, "terms must be real numbers"))
            if t.ndim != 2 or t.shape[1] != len(idx):
                raise ValidationError("terms need one row per constraint and "
                                      "one column per covered node")
            object.__setattr__(self, "terms", t)
            g = _frozen(t.sum(axis=0))
        if idx.shape != g.shape:
            raise ValidationError("profile needs one gamma per covered node")
        if len(idx) and (idx.min() < 0 or idx.max() >= self.support.n):
            raise ValidationError("profile node indices fall outside the support")
        object.__setattr__(self, "node_indices", _readonly(idx, dtype=np.int64))
        object.__setattr__(self, "gamma", _readonly(g))

    @property
    def nodes(self) -> NDArray[np.float64]:
        return self.support.nodes[self.node_indices]


def risk_aversion_analytic(solution: MaxEntSolution) -> RiskAversionProfile:
    """gamma(x) = sum_j m_j h_j'(x) from a solution's own multipliers.

    Indicator constraints contribute 0 away from their edges; interior
    nodes whose stencil spans an edge are masked out of the profile.  One
    search of every indicator edge against the nodes gives the mask: node i
    is masked when x[i-1] <= edge <= x[i+1], the nodes that
    :meth:`ConstraintFunction.edge_mask` reports.  An indicator's term row
    is m_j * 0 without tabulating its derivative.  Tabulated constraint
    functions must carry a supplied derivative.
    """
    support = solution.support
    if not support.is_continuous:
        raise ValidationError("risk profiles need a continuous support")
    x = support.nodes
    keep = np.zeros(support.n, dtype=bool)
    keep[1:-1] = True
    edges = [
        edge
        for spec in solution.constraints
        if spec.function.kind == "indicator"
        for edge in (spec.function.lower, spec.function.upper)
    ]
    # x[first - 1] is the last node below the edge and x[after] the first
    # above it; they and every node between them are masked.
    first = np.searchsorted(x, edges, "left")
    after = np.searchsorted(x, edges, "right")
    for i, j in zip(first.tolist(), after.tolist()):
        keep[max(i - 1, 0) : j + 1] = False
    idx = np.flatnonzero(keep)
    terms = np.empty((len(solution.constraints), len(idx)))
    for row, m_j, spec in zip(terms, solution.multipliers, solution.constraints):
        if spec.function.kind == "indicator":
            row.fill(m_j * 0.0)
        else:
            row[:] = m_j * spec.function.derivative(support)[idx]
    # Frozen, the fresh K x n terms are kept rather than copied; the
    # profile sums them into gamma.
    return RiskAversionProfile(
        support=support, node_indices=_frozen(idx), terms=_frozen(terms),
    )


def risk_aversion_numeric(curve: UtilityCurve) -> RiskAversionProfile:
    """Central differences of -ln u(x) at the interior nodes."""
    support = curve.support
    u = curve.density
    if np.any(u[1:-1] <= ZERO_MASS_FLOOR):
        raise ValidationError("density is zero at an interior node")
    neg_log = -np.log(np.maximum(u, ZERO_MASS_FLOOR))
    # A view of np.gradient's output: the profile keeps a copy of it.
    gamma = np.gradient(neg_log, support.nodes)[1:-1]
    return RiskAversionProfile(
        support=support,
        node_indices=_frozen(np.arange(1, support.n - 1, dtype=np.int64)),
        gamma=gamma,
    )
