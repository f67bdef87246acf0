import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from maxentutil.core import (
    ConstraintFunction,
    ConstraintSpec,
    MaxEntSolution,
    SolverDiagnostics,
    Support,
    ValidationError,
)
from maxentutil.risk import (
    RiskAversionProfile,
    risk_aversion_analytic,
    risk_aversion_numeric,
)
from maxentutil.solver import solve_equality, solve_interval
from maxentutil.utility import density_to_curve

CARA_LAMBDA = 0.960201509944503


def _mean_spec(value: float) -> ConstraintSpec:
    return ConstraintSpec.equality(ConstraintFunction.power(1), value)


def _var_spec(value: float) -> ConstraintSpec:
    return ConstraintSpec.equality(ConstraintFunction.power(2), value)


# -------------------------------------------------------------- analytic

def test_uniform_solution_has_zero_risk_aversion():
    sol = solve_equality(Support.continuous(0.0, 1.0, 256), [])
    prof = risk_aversion_analytic(sol)
    assert np.max(np.abs(prof.gamma), initial=0.0) == 0.0
    assert len(prof.node_indices) == 254


def test_mean_constraint_gives_constant_risk_aversion():
    sol = solve_equality(Support.continuous(0.0, 5.0, 1024), [_mean_spec(1.0)])
    prof = risk_aversion_analytic(sol)
    assert np.max(np.abs(prof.gamma - sol.multipliers[0])) < 1e-12
    assert prof.gamma[0] == pytest.approx(CARA_LAMBDA, abs=1e-6)


def test_mean_and_variance_give_affine_risk_aversion():
    sol = solve_equality(
        Support.continuous(-3.0, 3.0, 1024), [_mean_spec(0.0), _var_spec(1.0)]
    )
    prof = risk_aversion_analytic(sol)
    m1, m2 = sol.multipliers
    expected = m1 + 2.0 * m2 * prof.nodes
    assert np.max(np.abs(prof.gamma - expected)) < 1e-12
    slope, intercept = np.polyfit(prof.nodes, prof.gamma, 1)
    assert slope == pytest.approx(2.0 * m2, abs=1e-10)
    assert intercept == pytest.approx(m1, abs=1e-10)


def test_terms_expose_one_row_per_constraint():
    sol = solve_equality(
        Support.continuous(-2.0, 2.0, 512), [_mean_spec(0.1), _var_spec(1.2)]
    )
    prof = risk_aversion_analytic(sol)
    assert prof.terms.shape == (2, len(prof.node_indices))
    assert np.max(np.abs(prof.terms.sum(axis=0) - prof.gamma)) == 0.0
    # The mean row is constant, the variance row is linear through 0.
    assert np.ptp(prof.terms[0]) == 0.0
    assert np.polyfit(prof.nodes, prof.terms[1], 1)[0] == pytest.approx(
        2.0 * sol.multipliers[1], abs=1e-10
    )


def test_indicator_constraints_mask_edge_stencils():
    spec = ConstraintSpec.equality(ConstraintFunction.indicator(0.0, 0.5), 0.8)
    sol = solve_equality(Support.continuous(0.0, 1.0, 1024), [spec])
    prof = risk_aversion_analytic(sol)
    # Away from the jump the indicator contributes nothing.
    assert np.max(np.abs(prof.gamma), initial=0.0) == 0.0
    # Nodes whose stencil spans 0.5 are excluded.
    gap = np.abs(prof.nodes - 0.5) < 1e-4
    assert not gap.any()
    assert len(prof.node_indices) < sol.support.n - 2


def test_sign_tracks_the_direction_of_the_mean_shift():
    lo = solve_equality(Support.continuous(0.0, 1.0, 256), [_mean_spec(0.4)])
    hi = solve_equality(Support.continuous(0.0, 1.0, 256), [_mean_spec(0.6)])
    assert np.all(risk_aversion_analytic(lo).gamma > 0.0)
    assert np.all(risk_aversion_analytic(hi).gamma < 0.0)


def test_slack_interval_does_not_change_the_profile():
    support = Support.continuous(0.0, 5.0, 512)
    base = solve_equality(support, [_mean_spec(1.0)])
    widened = solve_interval(
        support,
        [
            _mean_spec(1.0),
            ConstraintSpec.interval(ConstraintFunction.power(2), 0.5, 50.0),
        ],
    )
    assert widened.active_bounds[1] == "slack"
    a = risk_aversion_analytic(base)
    b = risk_aversion_analytic(widened)
    assert np.max(np.abs(a.gamma - b.gamma)) < 1e-8


def test_analytic_rejects_discrete_support():
    sol = solve_equality(Support.discrete([0.0, 1.0]), [])
    with pytest.raises(ValidationError, match="continuous"):
        risk_aversion_analytic(sol)


def test_analytic_rejects_tabulated_without_slope():
    support = Support.continuous(0.0, 1.0, 128)
    fn = ConstraintFunction.tabulated(list(support.nodes))
    sol = solve_equality(support, [ConstraintSpec.equality(fn, 0.5)])
    with pytest.raises(ValidationError, match="derivative"):
        risk_aversion_analytic(sol)


def test_tabulated_with_slope_matches_power_route():
    support = Support.continuous(0.0, 1.0, 256)
    fn = ConstraintFunction.tabulated(
        list(support.nodes), slope=[1.0] * support.n
    )
    tab = solve_equality(support, [ConstraintSpec.equality(fn, 0.4)])
    pow1 = solve_equality(support, [_mean_spec(0.4)])
    a = risk_aversion_analytic(tab)
    b = risk_aversion_analytic(pow1)
    assert np.max(np.abs(a.gamma - b.gamma)) < 1e-8


# ------------------------------------------------- analytic, by property

@st.composite
def indicator_edges(draw, support):
    """A point of [a, b]: on a node, on a panel edge, strictly between two
    nodes, or outside the node range (between an endpoint and its nearest
    node, or the endpoint itself)."""
    x, a, b = support.nodes, support.a, support.b
    where = draw(st.sampled_from(["node", "panel", "between", "outside"]))
    if where == "node":
        return float(x[draw(st.integers(0, len(x) - 1))])
    if where == "panel":
        edges = support.panel_edges
        return float(edges[draw(st.integers(0, len(edges) - 1))])
    t = draw(st.floats(0.0, 1.0, exclude_max=where == "between"))
    if where == "between":
        k = draw(st.integers(0, len(x) - 2))
        return float(x[k] + t * (x[k + 1] - x[k]))
    return float(a + t * (x[0] - a)) if draw(st.booleans()) else float(b - t * (b - x[-1]))


@st.composite
def hand_built_solutions(draw):
    """A solution built from drawn multipliers (no solve) on powers, a
    tabulated row with a slope and 0-4 indicators on drawn edges."""
    a, b = draw(st.sampled_from([(0.0, 1.0), (-1.0, 2.0)]))
    support = Support.continuous(a, b, draw(st.sampled_from([16, 50, 70, 100])))
    functions = [ConstraintFunction.power(d) for d in draw(st.sets(st.integers(1, 3)))]
    if draw(st.booleans()):
        x = support.nodes
        functions.append(ConstraintFunction.tabulated(np.sin(x), slope=np.cos(x)))
    for _ in range(draw(st.integers(0, 4))):
        lo, hi = sorted(draw(indicator_edges(support)) for _ in range(2))
        assume(lo < hi)
        functions.append(ConstraintFunction.indicator(lo, hi))
    order = draw(st.permutations(range(len(functions))))
    functions = [functions[j] for j in order]
    m = len(functions)
    lam = np.array(
        draw(st.lists(
            st.one_of(st.just(0.0), st.just(-0.0), st.floats(-3.0, 3.0)),
            min_size=m, max_size=m,
        )),
        dtype=np.float64,
    )
    specs = tuple(ConstraintSpec.equality(f, 0.0) for f in functions)
    return MaxEntSolution(
        support=support,
        constraints=specs,
        multipliers=lam,
        diagnostics=SolverDiagnostics(iterations=0, grad_max_norm=0.0, atoms=support.n),
    )


@settings(derandomize=True, deadline=None, max_examples=300)
@given(hand_built_solutions())
def test_analytic_profile_matches_the_per_constraint_formula(sol):
    support = sol.support
    keep = np.zeros(support.n, dtype=bool)
    keep[1:-1] = True
    for spec in sol.constraints:
        keep &= ~spec.function.edge_mask(support)
    idx = np.flatnonzero(keep)
    terms = np.array(
        [m_j * spec.function.derivative(support)[idx]
         for m_j, spec in zip(sol.multipliers, sol.constraints)]
    ).reshape(len(sol.constraints), len(idx))

    prof = risk_aversion_analytic(sol)
    assert np.array_equal(prof.node_indices, idx)
    # Bit for bit, the sign of every zero included.
    assert prof.terms.shape == terms.shape
    assert prof.terms.tobytes() == terms.tobytes()
    assert prof.gamma.tobytes() == terms.sum(axis=0).tobytes()


# --------------------------------------------------------------- numeric

def test_numeric_profile_of_flat_curve_is_zero():
    s = Support.continuous(0.0, 1.0, 256)
    curve = density_to_curve(np.ones(s.n), s)
    prof = risk_aversion_numeric(curve)
    assert np.max(np.abs(prof.gamma)) < 1e-10
    assert prof.terms is None


def test_numeric_matches_analytic_for_smooth_families():
    support = Support.continuous(0.0, 5.0, 1024)
    sol = solve_equality(support, [_mean_spec(1.0)])
    curve = density_to_curve(sol.density, support)
    num = risk_aversion_numeric(curve)
    ana = risk_aversion_analytic(sol)
    # Same interior coverage for constraint sets without indicators.
    assert np.array_equal(num.node_indices, ana.node_indices)
    assert np.max(np.abs(num.gamma - ana.gamma)) < 1e-4


def test_numeric_matches_analytic_for_affine_profiles():
    support = Support.continuous(-3.0, 3.0, 1024)
    sol = solve_equality(support, [_mean_spec(0.0), _var_spec(1.0)])
    curve = density_to_curve(sol.density, support)
    num = risk_aversion_numeric(curve)
    ana = risk_aversion_analytic(sol)
    assert np.max(np.abs(num.gamma - ana.gamma)) < 1e-4


def test_numeric_rejects_zero_density_nodes():
    s = Support.continuous(0.0, 1.0, 1024)
    density = np.where(s.nodes >= 0.5, 8.0 * (s.nodes - 0.5), 0.0)
    curve = density_to_curve(density, s)
    with pytest.raises(ValidationError, match="zero"):
        risk_aversion_numeric(curve)


# ------------------------------------------------------------- invariants

# Node indices are integers, and gamma and terms integers or floats:
# strings, bools and floats (for indices) are not converted.
@pytest.mark.parametrize(
    "fields,message",
    [
        (dict(node_indices=["1", "2"]), "profile node indices must be integers"),
        (dict(node_indices=[1.0, 2.0]), "profile node indices must be integers"),
        (dict(node_indices=[True, False]), "profile node indices must be integers"),
        (dict(node_indices=[[1], 2]), "profile node indices must be integers"),
        (dict(gamma=["0.5", "0.1"]), "gamma values must be real numbers"),
        (dict(gamma=[True, False]), "gamma values must be real numbers"),
        (dict(gamma=None, terms=[["0.5", "0.1"]]), "terms must be real numbers"),
        (dict(gamma=None, terms=np.array([[True, False]])), "terms must be real numbers"),
    ],
)
def test_profile_takes_integer_indices_and_real_values_only(fields, message):
    args = dict(support=Support.continuous(0.0, 1.0, 64), node_indices=[1, 2],
                gamma=[0.5, 0.1])
    args.update(fields)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        RiskAversionProfile(**args)


@pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.intp])
def test_profile_takes_any_integer_indices(dtype):
    p = RiskAversionProfile(support=Support.continuous(0.0, 1.0, 64),
                            node_indices=np.array([1, 2], dtype=dtype), gamma=[1, 2])
    assert p.node_indices.dtype == np.int64 and p.gamma.dtype == np.float64
    assert p.node_indices.tolist() == [1, 2] and p.gamma.tolist() == [1.0, 2.0]


def test_profile_copies_the_callers_arrays():
    s = Support.continuous(0.0, 1.0, 64)
    idx, g, t = np.array([1, 2]), np.array([0.5, 0.1]), np.array([[0.5, 0.1]])
    given = RiskAversionProfile(support=s, node_indices=idx, gamma=g)
    summed = RiskAversionProfile(support=s, node_indices=idx, terms=t)
    assert idx.flags.writeable and g.flags.writeable and t.flags.writeable
    idx[0], g[0], t[0, 0] = 3, 9.0, 9.0
    assert given.node_indices.tolist() == summed.node_indices.tolist() == [1, 2]
    assert given.gamma.tolist() == summed.gamma.tolist() == [0.5, 0.1]
    assert summed.terms.tolist() == [[0.5, 0.1]]


@pytest.mark.parametrize("terms", [
    np.array([[0.5, -0.25, 3.0], [1e-17, 0.25, -0.0], [0.1, 0.2, -0.0]]),
    np.array([[-0.0, -0.0, -0.0]]),
    np.empty((0, 3)),
])
def test_a_profile_of_terms_derives_gamma_as_their_column_sum(terms):
    p = RiskAversionProfile(support=Support.continuous(0.0, 1.0, 64),
                            node_indices=np.array([1, 2, 3]), terms=terms)
    # Byte for byte, the sign of every zero included.
    assert p.gamma.tobytes() == terms.sum(axis=0).tobytes()
    assert not p.gamma.flags.writeable and not p.terms.flags.writeable
    with pytest.raises(ValueError):
        p.gamma[0] = 1.0


@pytest.mark.parametrize("fields", [
    dict(gamma=[0.5, 0.1], terms=[[0.5, 0.1]]),
    dict(gamma=None, terms=None),
    dict(),
])
def test_a_profile_takes_exactly_one_of_gamma_and_terms(fields):
    with pytest.raises(ValidationError,
                       match="^profile needs exactly one of gamma or terms$"):
        RiskAversionProfile(support=Support.continuous(0.0, 1.0, 64),
                            node_indices=[1, 2], **fields)


def test_profile_validates_its_own_shape():
    s = Support.continuous(0.0, 1.0, 64)
    with pytest.raises(ValidationError):
        RiskAversionProfile(
            support=s,
            node_indices=np.array([1, 2, 3]),
            gamma=np.array([0.0, 0.0]),
        )
    with pytest.raises(ValidationError, match="one row per constraint"):
        RiskAversionProfile(
            support=s,
            node_indices=np.array([1, 2]),
            terms=np.array([[0.0, 0.0, 0.0]]),
        )
    with pytest.raises(ValidationError):
        RiskAversionProfile(
            support=s,
            node_indices=np.array([70]),
            gamma=np.array([0.0]),
        )
