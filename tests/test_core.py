import math
from fractions import Fraction

import numpy as np
import pytest

from maxentutil.core import (
    ConstraintFunction,
    ConstraintSpec,
    MaxEntSolution,
    SolverDiagnostics,
    Support,
    ValidationError,
    _partial_integration_matrix,
    _reference_rule,
    validate_problem,
)


# ---------------------------------------------------------------- supports

def test_default_grid_is_32_panels_of_32():
    s = Support.continuous(0.0, 1.0)
    assert s.n == 1024
    assert s.panel_sizes == (32,) * 32
    assert len(s.panel_edges) == 33
    assert np.all(np.diff(s.nodes) > 0)
    assert abs(s.weights.sum() - 1.0) < 1e-14


def test_grid_integrates_polynomials_exactly():
    s = Support.continuous(0.0, 1.0, 64)
    x = s.nodes
    assert abs(s.integrate(x**5) - 1.0 / 6.0) < 1e-14
    assert abs(s.integrate(7 * x**3 - x) - (7.0 / 4.0 - 0.5)) < 1e-14


def test_grid_handles_non_multiple_node_counts():
    s = Support.continuous(0.0, 1.0, 100)
    assert sum(s.panel_sizes) == 100
    assert max(s.panel_sizes) <= 32
    assert abs(s.integrate(np.exp(s.nodes)) - (np.e - 1.0)) < 1e-13


def test_cumulative_of_uniform_is_identity():
    s = Support.continuous(0.0, 1.0, 256)
    at_nodes, at_edges = s.cumulative(np.ones(s.n))
    assert np.max(np.abs(at_nodes - s.nodes)) < 1e-13
    assert np.max(np.abs(at_edges - s.panel_edges)) < 1e-13


# 1000 nodes split into 8 panels of 32 and 24 of 31: two panel sizes.
@pytest.mark.parametrize("n", [1024, 1000])
def test_cumulative_of_exponential_matches_closed_form(n):
    s = Support.continuous(0.0, 2.0, n)
    at_nodes, at_edges = s.cumulative(np.exp(s.nodes))
    assert np.max(np.abs(at_nodes - (np.exp(s.nodes) - 1.0))) < 1e-12
    assert abs(at_edges[-1] - (np.exp(2.0) - 1.0)) < 1e-12


@pytest.mark.parametrize(
    "a, b, n",
    [
        (0.0, 1.0, 16),
        (0.0, 1.0, 17),
        (-1.0, 2.0, 128),
        (0.0, 2.0, 1000),
        (0.0, 5.0, 1024),
        (-1.0, 2.0, 4099),
        (0.1, 0.7, 5000),
        (0.0, 5.0, 8192),
    ],
)
def test_grid_matches_a_panel_by_panel_loop(a, b, n):
    # Reference: map the reference rule onto each panel on its own.  The
    # broadcast grid does the same arithmetic in the same order, so the two
    # agree bit for bit.
    s = Support.continuous(a, b, n)
    edges = s.panel_edges
    ref_nodes, ref_weights = [], []
    for j, q in enumerate(s.panel_sizes):
        xi, w = _reference_rule(q)
        mid = 0.5 * (edges[j] + edges[j + 1])
        hw = 0.5 * (edges[j + 1] - edges[j])
        ref_nodes.append(mid + hw * xi)
        ref_weights.append(hw * w)
    assert np.array_equal(s.nodes, np.concatenate(ref_nodes))
    assert np.array_equal(s.weights, np.concatenate(ref_weights))


@pytest.mark.parametrize("n", [16, 100, 1000, 8192])
def test_cumulative_matches_a_panel_by_panel_loop(n):
    # Reference: integrate each panel on its own and carry the running sum.
    # The batched version sums in another order, so it may differ by a few
    # ulps of the running total.
    s = Support.continuous(-1.0, 2.0, n)
    values = np.random.default_rng(n).random(n)
    ref_nodes, ref_edges = np.empty(n), [0.0]
    pos = 0
    for j, q in enumerate(s.panel_sizes):
        hw = 0.5 * (s.panel_edges[j + 1] - s.panel_edges[j])
        chunk = values[pos : pos + q]
        ref_nodes[pos : pos + q] = ref_edges[-1] + hw * (
            _partial_integration_matrix(q) @ chunk
        )
        ref_edges.append(ref_edges[-1] + hw * float(_reference_rule(q)[1] @ chunk))
        pos += q
    at_nodes, at_edges = s.cumulative(values)
    atol = 32 * np.finfo(np.float64).eps * ref_edges[-1]
    np.testing.assert_allclose(at_nodes, ref_nodes, rtol=0, atol=atol)
    np.testing.assert_allclose(at_edges, ref_edges, rtol=0, atol=atol)


def test_cumulative_exact_for_panel_aligned_step():
    # A density that jumps exactly at a panel edge integrates exactly.
    s = Support.continuous(0.0, 1.0, 1024)
    mid = s.panel_edges[16]
    values = np.where(s.nodes <= mid, 1.6, 0.4)
    at_nodes, at_edges = s.cumulative(values)
    assert abs(at_edges[16] - 1.6 * mid) < 1e-14
    true = np.where(s.nodes <= mid, 1.6 * s.nodes, 0.8 + 0.4 * (s.nodes - mid))
    assert np.max(np.abs(at_nodes - true)) < 1e-13


def test_discrete_support_basics():
    s = Support.discrete([0.0, 1.0, 2.5])
    assert s.n == 3
    assert not s.is_continuous
    assert np.array_equal(s.weights, np.ones(3))
    assert s.lower == 0.0 and s.upper == 2.5


@pytest.mark.parametrize(
    "points",
    [[0.0], [1.0, 1.0], [2.0, 1.0], [0.0, np.inf]],
)
def test_discrete_support_rejects_bad_points(points):
    with pytest.raises(ValidationError):
        Support.discrete(points)


@pytest.mark.parametrize(
    "a,b,n",
    [(1.0, 1.0, 64), (2.0, 1.0, 64), (0.0, np.inf, 64), (0.0, 1.0, 15)],
)
def test_continuous_support_rejects_bad_bounds(a, b, n):
    with pytest.raises(ValidationError):
        Support.continuous(a, b, n)


def test_cumulative_rejected_on_discrete_support():
    s = Support.discrete([0.0, 1.0])
    with pytest.raises(ValidationError):
        s.cumulative(np.ones(2))


# -------------------------------------------------------------- constraints

def test_power_constraint_tabulates():
    s = Support.discrete([0.0, 2.0, 3.0])
    fn = ConstraintFunction.power(2)
    assert np.array_equal(fn.tabulate(s), [0.0, 4.0, 9.0])
    assert np.array_equal(fn.derivative(s), [0.0, 4.0, 6.0])


def test_indicator_tabulates_and_masks():
    s = Support.continuous(0.0, 1.0, 64)
    fn = ConstraintFunction.indicator(0.25, 0.75)
    h = fn.tabulate(s)
    assert set(np.unique(h)) == {0.0, 1.0}
    assert np.array_equal(fn.derivative(s), np.zeros(64))
    mask = fn.edge_mask(s)
    # Stencils touching either edge are masked, everything else is usable.
    assert mask.any()
    inside = (s.nodes > 0.3) & (s.nodes < 0.7)
    assert not mask[inside].any()


def test_power_rejects_bad_degree():
    with pytest.raises(ValidationError):
        ConstraintFunction.power(0)
    with pytest.raises(ValidationError):
        ConstraintFunction(kind="power", degree=None)
    for flag in (True, np.bool_(True)):
        with pytest.raises(ValidationError):
            ConstraintFunction.power(flag)
    with pytest.raises(ValidationError):
        ConstraintFunction.power(3.0)


def test_power_accepts_numpy_integer_degree_as_int():
    fn = ConstraintFunction.power(np.int64(3))
    assert type(fn.degree) is int
    assert fn == ConstraintFunction.power(3)
    assert fn.label() == "power 3"


# Supports with negative nodes, where powers take the |x|**d path.
_SIGNED_SUPPORTS = [
    Support.continuous(-1.0, 1.0, 512),
    Support.continuous(-3.0, -1.0, 512),
    Support.discrete([-2.5, -1.0, -0.3, 0.0, 1e-3, 0.7, 1.0, 4.0]),
]
_DEGREES = list(range(1, 9)) + [13]


def _sign(v):
    return (v > 0) - (v < 0)


def _exact_power(x: float, d: int) -> Fraction:
    # Rational arithmetic throughout: never calls numpy's (or libm's) pow.
    return Fraction(x) ** d


def _assert_near_exact(values, exact, ulps):
    for got, want in zip(values.tolist(), exact):
        assert _sign(got) == _sign(want)
        assert abs(Fraction(got) - want) <= ulps * Fraction(math.ulp(float(want)))


@pytest.mark.parametrize("support", _SIGNED_SUPPORTS)
@pytest.mark.parametrize("d", _DEGREES)
def test_power_rows_match_an_exact_oracle(support, d):
    fn = ConstraintFunction.power(d)
    x = support.nodes.tolist()
    _assert_near_exact(fn.tabulate(support), [_exact_power(v, d) for v in x], 1)
    slope = fn.derivative(support)
    if d == 1:
        assert np.array_equal(slope, np.ones(support.n))
    else:
        # One rounding in the power, one in the product with d.
        _assert_near_exact(slope, [d * _exact_power(v, d - 1) for v in x], 2)


@pytest.mark.parametrize(
    "support",
    [Support.continuous(0.0, 5.0, 512), Support.discrete([0.0, 0.5, 1.0, 2.0, 3.7])],
)
@pytest.mark.parametrize("d", _DEGREES)
def test_power_rows_are_plain_pow_on_non_negative_nodes(support, d):
    x = support.nodes
    fn = ConstraintFunction.power(d)
    assert np.array_equal(fn.tabulate(support), x**d)
    if d > 1:
        assert np.array_equal(fn.derivative(support), d * x ** (d - 1))


def _signed_rule(x, d):
    # The |x|**d rule with the sign put back, for every support.
    out = np.abs(x) ** d
    return np.copysign(out, x) if d % 2 else out


@pytest.mark.parametrize(
    "support",
    [
        Support.continuous(0.0, 1.0, 1024),
        Support.continuous(0.0, 5.0, 8192),
        Support.discrete([-0.0, 0.25, 1.0, 3.5]),
        Support.discrete([0.0, 1e-300, 2.0]),
        Support.continuous(-1.0, 1.0, 8192),
    ],
    ids=["[0, 1]", "[0, 5]", "from -0.0", "from 0.0", "[-1, 1]"],
)
@pytest.mark.parametrize("d", _DEGREES)
def test_power_rows_are_bit_identical_to_the_signed_rule(support, d):
    # Non-negative nodes take plain x**d; it must give the same bits,
    # signed zeros included.
    x = support.nodes
    fn = ConstraintFunction.power(d)
    want = _signed_rule(x, d)
    got = fn.tabulate(support)
    assert got.tobytes() == want.tobytes()
    assert got.flags.writeable and not np.shares_memory(got, x)
    if d > 1:
        assert fn.derivative(support).tobytes() == (d * _signed_rule(x, d - 1)).tobytes()


def test_first_power_row_is_a_fresh_writable_array():
    s = Support.continuous(-1.0, 1.0, 64)
    h = ConstraintFunction.power(1).tabulate(s)
    assert np.array_equal(h, s.nodes)
    assert h.flags.writeable
    assert not np.shares_memory(h, s.nodes)


def test_indicator_rejects_bad_edges():
    with pytest.raises(ValidationError):
        ConstraintFunction.indicator(0.5, 0.5)
    with pytest.raises(ValidationError):
        ConstraintFunction.indicator(0.7, 0.2)


def test_tabulated_needs_matching_length():
    s = Support.discrete([0.0, 1.0, 2.0])
    fn = ConstraintFunction.tabulated([1.0, 2.0])
    with pytest.raises(ValidationError, match="one value per support node"):
        fn.tabulate(s)


def test_tabulated_derivative_requires_slope():
    s = Support.discrete([0.0, 1.0])
    fn = ConstraintFunction.tabulated([1.0, 2.0])
    with pytest.raises(ValidationError, match="no supplied derivative"):
        fn.derivative(s)
    with_slope = ConstraintFunction.tabulated([1.0, 2.0], slope=[1.0, 1.0])
    assert np.array_equal(with_slope.derivative(s), [1.0, 1.0])


def test_constraint_spec_needs_exactly_one_target():
    fn = ConstraintFunction.power(1)
    with pytest.raises(ValidationError):
        ConstraintSpec(function=fn)
    with pytest.raises(ValidationError):
        ConstraintSpec(function=fn, equals=1.0, bounds=(0.0, 2.0))
    with pytest.raises(ValidationError):
        ConstraintSpec.interval(fn, 2.0, 1.0)


# ----------------------------------------------------------------- problems

def test_validate_problem_accepts_spec_examples():
    p = validate_problem(
        Support.discrete([0.0, 1.0]),
        [ConstraintSpec.equality(ConstraintFunction.power(1), 0.75)],
    )
    assert len(p.constraints) == 1

    validate_problem(
        Support.continuous(0.0, 1.0, 64),
        [ConstraintSpec.equality(ConstraintFunction.indicator(0.2, 0.7), 0.4)],
    )


def test_validate_problem_rejects_indicator_outside_support():
    with pytest.raises(ValidationError, match="indicator exceeds support"):
        validate_problem(
            Support.continuous(0.0, 1.0, 64),
            [ConstraintSpec.equality(ConstraintFunction.indicator(-1.0, 0.5), 0.4)],
        )


def test_validate_problem_is_idempotent():
    support = Support.discrete([0.0, 1.0, 2.0])
    specs = [
        ConstraintSpec.equality(ConstraintFunction.power(1), 1.2),
        ConstraintSpec.interval(ConstraintFunction.power(2), 0.5, 2.0),
    ]
    once = validate_problem(support, specs)
    twice = validate_problem(once.support, once.constraints)
    assert once == twice


# ---------------------------------------------------------------- solutions

def _diag(m: int) -> SolverDiagnostics:
    return SolverDiagnostics(
        iterations=0,
        grad_max_norm=0.0,
        residuals=(0.0,) * m,
        active_bounds=("eq",) * m,
        atoms=1,  # with no constraints every node is in one run
    )


def test_solution_accepts_consistent_uniform():
    s = Support.discrete([0.0, 1.0])
    sol = MaxEntSolution(
        support=s,
        constraints=(),
        density=np.array([0.5, 0.5]),
        multipliers=np.zeros(0),
        log_partition=np.log(2.0),
        entropy=np.log(2.0),
        diagnostics=_diag(0),
    )
    assert np.array_equal(sol.rebuild_density(), sol.density)


def test_solution_rejects_unnormalized_density():
    s = Support.discrete([0.0, 1.0])
    with pytest.raises(ValidationError, match="mass"):
        MaxEntSolution(
            support=s,
            constraints=(),
            density=np.array([0.7, 0.2]),
            multipliers=np.zeros(0),
            log_partition=np.log(2.0),
            entropy=0.5,
            diagnostics=_diag(0),
        )


def test_solution_rejects_density_that_disagrees_with_multipliers():
    s = Support.discrete([0.0, 1.0])
    with pytest.raises(ValidationError, match="multipliers"):
        MaxEntSolution(
            support=s,
            constraints=(),
            density=np.array([0.6, 0.4]),
            multipliers=np.zeros(0),
            log_partition=np.log(2.0),
            entropy=0.5,
            diagnostics=_diag(0),
        )


def test_solution_rejects_zero_density():
    s = Support.discrete([0.0, 1.0])
    with pytest.raises(ValidationError, match="positive"):
        MaxEntSolution(
            support=s,
            constraints=(),
            density=np.array([1.0, 0.0]),
            multipliers=np.zeros(0),
            log_partition=0.0,
            entropy=0.0,
            diagnostics=_diag(0),
        )
