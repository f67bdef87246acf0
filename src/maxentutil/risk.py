"""Arrow-Pratt absolute risk aversion of maximum-entropy utilities.

For a utility density u(x) the coefficient is gamma(x) = -d/dx ln u(x).
A solved exponential-form density makes this analytic: the log-density is
-log Z - sum_j m_j h_j(x), so gamma(x) = sum_j m_j h_j'(x), one additive
term per constraint.  A numeric route differentiates -ln u directly and is
kept as an independent check on the analytic one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import MaxEntSolution, Support, ValidationError, _readonly
from .entropy import ZERO_MASS_FLOOR
from .utility import UtilityCurve

__all__ = [
    "RiskAversionProfile",
    "risk_aversion_analytic",
    "risk_aversion_numeric",
]


@dataclass(frozen=True, eq=False)
class RiskAversionProfile:
    """gamma at interior nodes, optionally split into per-constraint terms.

    ``node_indices`` names the support nodes the profile covers; nodes whose
    difference stencil would span an indicator jump are left out.  When
    ``terms`` is present (analytic route), row j is m_j * h_j'(x) and the
    rows must sum to gamma.
    """

    support: Support
    node_indices: NDArray[np.int64]
    gamma: NDArray[np.float64]
    terms: NDArray[np.float64] | None = None

    def __post_init__(self) -> None:
        idx = np.asarray(self.node_indices, dtype=np.int64)
        g = np.asarray(self.gamma, dtype=np.float64)
        object.__setattr__(self, "node_indices", _readonly(idx, dtype=np.int64))
        object.__setattr__(self, "gamma", _readonly(g))
        if idx.shape != g.shape:
            raise ValidationError("profile needs one gamma per covered node")
        if len(idx) and (idx.min() < 0 or idx.max() >= self.support.n):
            raise ValidationError("profile node indices fall outside the support")
        if self.terms is not None:
            t = _readonly(np.asarray(self.terms, dtype=np.float64))
            object.__setattr__(self, "terms", t)
            if t.ndim != 2 or t.shape[1] != len(g):
                raise ValidationError("terms need one row per constraint")
            if np.max(np.abs(t.sum(axis=0) - g), initial=0.0) > 1e-12:
                raise ValidationError("per-constraint terms must sum to gamma")

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
    return RiskAversionProfile(
        support=support,
        node_indices=idx,
        gamma=terms.sum(axis=0),
        terms=terms,
    )


def risk_aversion_numeric(curve: UtilityCurve) -> RiskAversionProfile:
    """Central differences of -ln u(x) at the interior nodes."""
    support = curve.support
    u = curve.density
    if np.any(u[1:-1] <= ZERO_MASS_FLOOR):
        raise ValidationError("density is zero at an interior node")
    neg_log = -np.log(np.maximum(u, ZERO_MASS_FLOOR))
    gamma = np.gradient(neg_log, support.nodes)[1:-1]
    return RiskAversionProfile(
        support=support,
        node_indices=np.arange(1, support.n - 1, dtype=np.int64),
        gamma=gamma,
        terms=None,
    )
