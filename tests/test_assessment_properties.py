"""Property tests of the assessed-utility pipeline against its closed form.

Assessed points U(x_k) = v_k, with x_0 = a, v_0 = 0 and x_{K+1} = b,
v_{K+1} = 1 added, have a maximum-entropy utility density that is flat
between consecutive (snapped) points at height
(v_{k+1} - v_k) / (x_{k+1} - x_k).  Its curve therefore runs from 0 to 1
through every assessed value, and its risk aversion -(ln u)' is 0 away from
the steps.  Hypothesis draws the assessments; the oracle is that formula.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from maxentutil.cli import main
from maxentutil.core import Support, ValidationError
from maxentutil.risk import risk_aversion_analytic, risk_aversion_numeric
from maxentutil.utility import _refined_support, maxent_utility_from_assessments

DOMAINS = [(0.0, 1.0), (-1.0, 2.0), (0.0, 5.0)]
NODES = [128, 1024]
#: Least gap between consecutive points or values, as a share of their range.
GAP = 0.02

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def spaced_shares(draw, k):
    """k increasing numbers in (0, 1), each GAP or more from its neighbours
    and from 0 and 1."""
    weights = np.array(
        draw(st.lists(st.floats(0.01, 1.0), min_size=k + 1, max_size=k + 1))
    )
    free = 1.0 - (k + 1) * GAP
    return GAP * np.arange(1, k + 1) + free * np.cumsum(weights)[:k] / weights.sum()


@st.composite
def assessment_problems(draw):
    a, b = draw(st.sampled_from(DOMAINS))
    n = draw(st.sampled_from(NODES))
    k = draw(st.integers(1, 6))
    xs = a + (b - a) * draw(spaced_shares(k))
    vs = draw(spaced_shares(k))
    return Support.continuous(a, b, n), [(float(x), float(v)) for x, v in zip(xs, vs)]


def _snapped(edges, xs):
    return np.array([edges[np.argmin(np.abs(edges - x))] for x in xs])


@PROPERTY_SETTINGS
@given(assessment_problems())
def test_assessed_utility_matches_the_closed_form(problem):
    support, assessments = problem
    curve, sol = maxent_utility_from_assessments(support, assessments)
    grid = curve.support
    a, b = grid.lower, grid.upper

    assert curve.edge_curve[0] == 0.0 and curve.edge_curve[-1] == 1.0
    assert np.all(np.diff(curve.curve) >= 0.0)
    assert np.all(np.diff(curve.edge_curve) >= 0.0)

    xs = _snapped(grid.panel_edges, [x for x, _ in assessments])
    knots = np.concatenate(([a], xs, [b]))
    levels = np.concatenate(([0.0], [v for _, v in assessments], [1.0]))
    heights = np.diff(levels) / np.diff(knots)
    expected = heights[np.searchsorted(knots, grid.nodes) - 1]
    # K rows on K + 1 atoms: one exact step, or none from a uniform start
    # that already meets the targets.
    assert sol.diagnostics.iterations <= 1
    np.testing.assert_allclose(sol.density, expected, rtol=1e-12)
    np.testing.assert_allclose(curve.evaluate(xs), levels[1:-1], rtol=0, atol=1e-12)

    analytic = risk_aversion_analytic(sol)
    assert np.all(analytic.gamma == 0.0)
    numeric = risk_aversion_numeric(curve)
    at_kept = np.isin(numeric.node_indices, analytic.node_indices)
    assert np.max(np.abs(numeric.gamma[at_kept]), initial=0.0) <= 1e-8


@PROPERTY_SETTINGS
@given(assessment_problems())
def test_cli_round_trip_reproduces_the_in_process_table(problem):
    support, assessments = problem
    curve, sol = maxent_utility_from_assessments(support, assessments)
    profile = risk_aversion_analytic(sol)
    gamma = np.full(sol.support.n, np.nan)
    gamma[profile.node_indices] = profile.gamma

    lines = [f"domain = {support.lower!r} {support.upper!r}", f"nodes = {support.n}"]
    lines += [f"assessment = {x!r} {v!r}" for x, v in assessments]
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "assessed.spec")
        out = os.path.join(tmp, "table.csv")
        with open(spec, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        assert main(["solve", spec, "--quiet", "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            rows = fh.read().splitlines()

    assert rows[0] == "x,u,U,gamma"
    table = np.array(
        [[float(c) if c else np.nan for c in row.split(",")] for row in rows[1:]]
    )
    expected = np.column_stack((sol.support.nodes, sol.density, curve.curve, gamma))
    np.testing.assert_array_equal(table, expected)


# -------------------------------------------------------------- refinement

#: Domains for the refinement rule: ordinary ones, one from -0.0, a wide one,
#: a narrow one, and the narrowest from 1 by powers of two whose every level
#: (up to 16 383 nodes) is a strictly increasing grid: at 2**-34 wide, some
#: level's nodes collapse and its support is rejected.
REFINE_DOMAINS = [(0.0, 1.0), (-1.0, 2.0), (-0.0, 5.0), (-1e6, 3.0),
                  (1e-3, 1e-3 + 1e-9), (1.0, 1.0 + 2.0**-33)]
REFINE_NODES = [16, 100, 128, 1000, 1024, 5000, 8192]


def _refined_by_definition(support, xs):
    """The refinement by its definition: on each doubling level, each point
    goes to the argmin of |edge - x| over all edges, first index on a tie;
    the levels stop when every snap is within (b - a)/4096 at distinct
    interior edges, or at 8192 nodes.  Returns the error message instead
    when the last level fails."""
    a, b = support.lower, support.upper
    trial, xs = support, np.array(xs, dtype=np.float64)
    while True:
        edges = trial.panel_edges
        idx = np.argmin(np.abs(edges[None, :] - xs[:, None]), axis=1)
        err = np.max(np.abs(edges[idx] - xs))
        interior = 0 < idx.min() and idx.max() < len(edges) - 1
        distinct = len(set(idx.tolist())) == len(idx)
        if (err <= (b - a) / 4096 and interior and distinct) or trial.n >= 8192:
            if not interior:
                return "assessment point collapses onto a support endpoint"
            if not distinct:
                return "assessment points collapse onto the same grid cell"
            return trial, edges[idx]
        trial = Support.continuous(a, b, 2 * trial.n)


@st.composite
def refinement_problems(draw):
    """A support and 1-6 points of it, in any order: random points, edges of
    a grid the support refines through, and midpoints between such edges."""
    a, b = draw(st.sampled_from(REFINE_DOMAINS))
    n = draw(st.sampled_from(REFINE_NODES))
    levels = [n * 2**j for j in range(11) if n * 2**j < 2 * 8192]
    xs = []
    for kind in draw(st.lists(st.sampled_from(["random", "edge", "midpoint"]),
                              min_size=1, max_size=6)):
        if kind == "random":
            xs.append(draw(st.floats(a, b)))
            continue
        edges = Support.continuous(a, b, draw(st.sampled_from(levels))).panel_edges
        i = draw(st.integers(0, len(edges) - 2))
        xs.append(float(edges[i] if kind == "edge" else (edges[i] + edges[i + 1]) / 2))
    return Support.continuous(a, b, n), xs


@settings(derandomize=True, deadline=None, max_examples=300)
@given(refinement_problems())
def test_refinement_snaps_to_the_nearest_edge_by_definition(problem):
    support, xs = problem
    want = _refined_by_definition(support, xs)
    try:
        got = _refined_support(support, xs)
    except ValidationError as exc:
        assert str(exc) == want
        return
    assert not isinstance(want, str)
    assert got[0] == want[0]
    assert np.array(got[1], dtype=np.float64).tobytes() == want[1].tobytes()
