import math
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from maxentutil import core
from maxentutil.core import (
    ConstraintFunction,
    ConstraintSpec,
    InfeasibleError,
    MaxEntSolution,
    SolverDiagnostics,
    Support,
    ValidationError,
    _partial_integration_matrix,
    _reference_rule,
    exponential_density,
    validate_problem,
)
from maxentutil.solver import SolveOptions


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


@pytest.mark.parametrize("q", range(1, 65))
def test_the_reference_rule_is_numpys(q):
    # numpy.polynomial is imported here only, as the reference.
    from numpy.polynomial.legendre import leggauss, legvander, legval

    xi, w = leggauss(q)
    nodes, weights = _reference_rule(q)
    # The matrix as built from legvander's columns P_0 .. P_q.
    V = legvander(xi, q)
    k = np.arange(q)
    to_coef = ((2.0 * k + 1.0) / 2.0)[:, None] * (V[:, :q].T * w)
    J = np.empty((q, q))
    J[:, 0] = xi + 1.0
    for j in range(1, q):
        J[:, j] = (V[:, j + 1] - V[:, j - 1]) / (2.0 * j + 1.0)
    # The rule's Clenshaw steps form c1 * ((nd - 1) / nd), as numpy 2.4's
    # legval does; older releases may form (c1 * (nd - 1)) / nd, which rounds
    # apart from it on P_3 at these points.
    probe, p3 = np.linspace(-1.0, 1.0, 101), [0.0, 0.0, 0.0, 1.0]
    if np.array_equal(legval(probe, p3), core._legendre_series(probe, p3)):
        assert np.array_equal(nodes, xi) and np.array_equal(weights, w)
        assert np.array_equal(_partial_integration_matrix(q), J @ to_coef)
        return
    assert np.lib.NumpyVersion(np.__version__) < "2.4.0"
    # Repeating the rule with the other rounding moves nodes by up to
    # 1.2e-16, weights by up to a relative 4e-12 and the matrix by up to
    # 1.8e-15 (q = 1..64).
    assert np.allclose(nodes, xi, rtol=0.0, atol=np.finfo(float).eps)
    assert np.allclose(weights, w, rtol=1e-11, atol=0.0)
    assert np.allclose(_partial_integration_matrix(q), J @ to_coef, rtol=0.0, atol=1e-14)


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


@pytest.mark.parametrize("n", [16, 100, 1000, 8192])
def test_cumulative_writes_the_bits_of_the_broadcast_formula(n):
    # Reference: the same products formed in fresh arrays, one broadcast per
    # panel size; writing them into the outputs in place changes no bit.
    s = Support.continuous(-1.0, 2.0, n)
    values = np.random.default_rng(n).random(n)
    sizes = np.array(s.panel_sizes)
    half_widths = 0.5 * np.diff(s.panel_edges)
    within, masses = np.empty(n), np.empty(len(sizes))
    starts = np.concatenate(([0], np.cumsum(sizes)))
    for q in sorted(set(s.panel_sizes)):
        panels = np.flatnonzero(sizes == q)
        nodes = slice(starts[panels[0]], starts[panels[-1] + 1])
        block = values[nodes].reshape(-1, q)
        hw = half_widths[panels, None]
        within[nodes] = (hw * (block @ _partial_integration_matrix(q).T)).ravel()
        masses[panels] = hw[:, 0] * (block @ _reference_rule(q)[1])
    ref_edges = np.concatenate(([0.0], np.cumsum(masses)))
    ref_nodes = within + np.repeat(ref_edges[:-1], sizes)
    at_nodes, at_edges = s.cumulative(values)
    assert at_nodes.tobytes() == ref_nodes.tobytes()
    assert at_edges.tobytes() == ref_edges.tobytes()
    assert at_nodes.flags.writeable and at_edges.flags.writeable


def test_a_support_computes_its_per_grid_constants_once_and_read_only():
    s = Support.continuous(0.0, 1.0, 1000)  # panels of 32 and of 31 nodes
    s.cumulative(np.ones(s.n))
    names = ("_panel_groups", "_half_widths", "_panel_repeats")
    first = {name: getattr(s, name) for name in names}
    assert set(names) <= set(vars(s))  # stored on the support by the first use
    s.cumulative(np.ones(s.n))
    s.nodes, s.weights
    assert all(getattr(s, name) is value for name, value in first.items())
    assert [q for q, _, _ in first["_panel_groups"]] == [32, 31]
    assert first["_panel_repeats"].tolist() == list(s.panel_sizes)
    assert first["_half_widths"].tobytes() == (0.5 * np.diff(s.panel_edges)).tobytes()
    for name in ("_half_widths", "_panel_repeats"):
        with pytest.raises(ValueError, match="read-only"):
            first[name][0] = 0


@pytest.mark.parametrize(
    "values",
    [["1"] * 16, np.ones(16, dtype=bool), [True] * 16, [None] * 16,
     np.ones(16, dtype=complex), [[1.0]] * 15 + [[1.0, 2.0]]],
)
def test_per_node_values_must_be_integers_or_floats(values):
    s = Support.continuous(0.0, 1.0, 16)
    for call in (s.integrate, s.cumulative):
        with pytest.raises(ValidationError, match="^values must be real numbers$"):
            call(values)


def test_per_node_values_take_integers_and_floats_and_keep_float64_uncopied():
    s = Support.continuous(0.0, 1.0, 16)
    x = np.linspace(0.0, 1.0, 16)
    assert s._per_node(x) is x
    for values in (np.arange(16), np.arange(16).tolist(), x.astype(np.float32)):
        assert s.integrate(values) == s.integrate(np.asarray(values, dtype=np.float64))


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


def test_discrete_support_takes_points_whose_difference_overflows():
    # Points are compared, not subtracted: 1.7e308 - (-1.7e308) is no double.
    assert Support.discrete([-1.7e308, 1.7e308]).points == (-1.7e308, 1.7e308)


@pytest.mark.parametrize(
    "a,b,n",
    [(1.0, 1.0, 64), (2.0, 1.0, 64), (0.0, np.inf, 64), (0.0, 1.0, 15)],
)
def test_continuous_support_rejects_bad_bounds(a, b, n):
    with pytest.raises(ValidationError):
        Support.continuous(a, b, n)


@pytest.mark.parametrize(
    "a,b",
    [
        (0.0, 1e-310),  # 1/(b - a) overflows
        (-1e308, 1e308),  # b - a overflows
        (2**53, 2**53 + 1),  # a < b as integers, equal as floats
        # 1/(b - a) is finite, but the uniform density's -p log p overflows.
        (0.0, 3.9e-306),
        (0.0, 1e-307),
        (0.0, 6e-309),
    ],
)
def test_continuous_support_needs_a_width_and_its_inverse_in_float_range(a, b):
    message = (f"continuous support [{float(a)!r}, {float(b)!r}] is out of floating-point "
               "range: b - a and 1/(b - a) must be finite and positive")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        Support.continuous(a, b, 64)


# (0, 1.7e308): two panel edges near b sum past the doubles, so the panel
# midpoints are halved before the sum.
@pytest.mark.parametrize("a,b", [(0.0, 1e-300), (-8e307, 8e307), (0.0, 4e-306),
                                 (0.0, 1.7e308)])
def test_continuous_support_takes_widths_near_the_float_range(a, b):
    s = Support.continuous(a, b, 64)
    assert (s.a, s.b) == (a, b)
    assert np.isfinite(s.nodes).all() and (np.diff(s.nodes) > 0.0).all()


@pytest.mark.parametrize(
    "a,b,n",
    [
        (5.0, 5.000000000000001, 64),  # every node rounds to 5.0
        (1.0, 1.0000000000000004, 16),  # two ulps wide
        (1.0, 1.0 + 2.0**-40, 200),  # wide enough for 128 nodes, not for 200
        (1e6, 1e6 + 1e-6, 8192),
    ],
)
def test_continuous_support_needs_strictly_increasing_nodes(a, b, n):
    message = (f"continuous support [{a!r}, {b!r}] is too narrow for {n} nodes: "
               "they are not strictly increasing in floating point")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        Support.continuous(a, b, n)


def test_the_narrowest_valid_grids_strictly_increase():
    for a, b, n in [(1.0, 1.0 + 2.0**-40, 128), (1.0, 1.0 + 2.0**-33, 8192)]:
        assert (np.diff(Support.continuous(a, b, n).nodes) > 0.0).all()


@pytest.mark.parametrize("n", [1000.7, 64.0, "64", True, np.bool_(True), None])
def test_support_node_count_must_be_an_integer(n):
    with pytest.raises(ValidationError, match="node count must be an integer"):
        Support.continuous(0.0, 1.0, n)
    with pytest.raises(ValidationError, match="node count must be an integer"):
        Support(kind="continuous", a=0.0, b=1.0, n=n)
    with pytest.raises(ValidationError, match="node count must be an integer"):
        Support(kind="discrete", points=(0.0, 1.0), n=n)


def test_support_stores_a_numpy_integer_node_count_as_int():
    s = Support.continuous(0.0, 1.0, np.int64(64))
    assert type(s.n) is int
    assert s == Support.continuous(0.0, 1.0, 64)
    assert np.array_equal(s.nodes, Support.continuous(0.0, 1.0, 64).nodes)
    assert type(Support(kind="discrete", points=(0.0, 1.0), n=np.int32(2)).n) is int


@pytest.mark.parametrize(
    "fields, message",
    [
        # Its nodes lie in [a, b], yet lower and upper would read the points.
        (dict(kind="continuous", a=0.0, b=1.0, n=16, points=(5.0, 6.0)),
         "continuous support takes no points"),
        # Kept, they would make it unequal to Support.discrete of its points.
        (dict(kind="discrete", points=(0.0, 1.0), n=2, a=0.0), "discrete support takes no a"),
        (dict(kind="discrete", points=(0.0, 1.0), n=2, b=1.0), "discrete support takes no b"),
    ],
)
def test_a_support_rejects_a_field_its_kind_does_not_use(fields, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        Support(**fields)


# Every field that takes a real number follows one rule: Python and numpy
# integers and floats pass, bools and every other type raise ValidationError.
_REAL_FIELDS = {
    "support bound": lambda v: Support(kind="continuous", a=v, b=2.0, n=64),
    "indicator edge": lambda v: ConstraintFunction(kind="indicator", lower=v, upper=2.0),
    "tabulated value": lambda v: ConstraintFunction(kind="tabulated", values=(v, 1.0)),
    "tabulated slope": lambda v: ConstraintFunction(
        kind="tabulated", values=(0.0, 1.0), slope=(v, 1.0)
    ),
    "equality target": lambda v: ConstraintSpec(
        function=ConstraintFunction.power(1), equals=v
    ),
    "interval bound": lambda v: ConstraintSpec(
        function=ConstraintFunction.power(1), bounds=(v, 2.0)
    ),
    "tol": lambda v: SolveOptions(tol=v),
}


@pytest.mark.parametrize("field", sorted(_REAL_FIELDS))
@pytest.mark.parametrize(
    "value,is_real",
    [
        (0.5, True), (1, True), (np.float64(0.5), True), (np.float32(0.5), True),
        (np.int64(1), True), ("0.5", False), (b"1", False), (True, False),
        (np.bool_(True), False), (0.5 + 0j, False), (Fraction(1, 2), False),
        ([0.5], False), (math.nan, False), (-math.inf, False),
        pytest.param(10**400, False, id="int-beyond-float"),
    ],
)
def test_real_fields_accept_reals_and_reject_everything_else(field, value, is_real):
    if is_real:
        _REAL_FIELDS[field](value)
    else:
        with pytest.raises(ValidationError, match="finite"):
            _REAL_FIELDS[field](value)


# The classmethods pass their arguments through to the field checks, so a bad
# value fails with one message whichever constructor takes it, and a good one
# is stored as a Python float.
_CONSTRUCTORS = {
    "support bound": (
        lambda v: Support.continuous(v, 2.0, 64),
        lambda v: Support(kind="continuous", a=v, b=2.0, n=64),
    ),
    "support points": (
        lambda v: Support.discrete((v, 2.0)),
        lambda v: Support(kind="discrete", points=(v, 2.0), n=2),
    ),
    "indicator edge": (
        lambda v: ConstraintFunction.indicator(v, 2.0),
        lambda v: ConstraintFunction(kind="indicator", lower=v, upper=2.0),
    ),
    "tabulated value": (
        lambda v: ConstraintFunction.tabulated((v, 1.0)),
        lambda v: ConstraintFunction(kind="tabulated", values=(v, 1.0)),
    ),
    "tabulated slope": (
        lambda v: ConstraintFunction.tabulated((0.0, 1.0), slope=(v, 1.0)),
        lambda v: ConstraintFunction(
            kind="tabulated", values=(0.0, 1.0), slope=(v, 1.0)
        ),
    ),
    "equality target": (
        lambda v: ConstraintSpec.equality(ConstraintFunction.power(1), v),
        lambda v: ConstraintSpec(function=ConstraintFunction.power(1), equals=v),
    ),
    "interval bound": (
        lambda v: ConstraintSpec.interval(ConstraintFunction.power(1), v, 2.0),
        lambda v: ConstraintSpec(function=ConstraintFunction.power(1), bounds=(v, 2.0)),
    ),
}
_BAD_VALUES = {"str": "0", "word": "x", "None": None, "list": [0.1],
               "int-beyond-float": 10**400, "bool": True}


@pytest.mark.parametrize("field,value", [
    pytest.param(field, value, id=f"{field}-{name}")
    for field in sorted(_CONSTRUCTORS) for name, value in _BAD_VALUES.items()
    # A tuple mixing a bool with floats is a float array (see below).
    if (field, name) != ("support points", "bool")
])
def test_classmethods_and_field_constructors_reject_alike(field, value):
    messages = []
    for build in _CONSTRUCTORS[field]:
        with pytest.raises(ValidationError) as err:
            build(value)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_real_fields_are_stored_as_python_floats():
    for value in (1, np.int64(1), np.float32(1.0), np.float64(1.0)):
        s = Support.continuous(value - 1, value + 1, 64)
        ind = ConstraintFunction.indicator(value - 1, value)
        tab = ConstraintFunction.tabulated(np.array([value, 2]), slope=[value, 0])
        eq = ConstraintSpec.equality(ConstraintFunction.power(1), value)
        bracket = ConstraintSpec.interval(ConstraintFunction.power(1), value, 2)
        points = Support(kind="discrete", points=(value, 2), n=2).points
        stored = (s.a, s.b, ind.lower, ind.upper, *tab.values, *tab.slope,
                  eq.equals, *bracket.bounds, *points)
        assert {type(x) for x in stored} == {float}
    assert Support.discrete(iter([0, 1])).points == (0.0, 1.0)


# Discrete points follow the real-number rule as an array: it must convert to
# a flat array of integers or floats, which a tuple mixing bools with floats
# still does; nested points do not (a 2 x 2 array, or ragged ones that numpy
# refuses to convert).
@pytest.mark.parametrize(
    "points",
    [("0", "1"), (b"0", b"1"), (False, True), (np.bool_(False), np.bool_(True)),
     (0j, 1j), (Fraction(0), Fraction(1)), (None, 1.0), (0, 10**400),
     ((0, 1), (2, 3)), ([0.5], 2.0)],
)
def test_discrete_support_points_must_be_real_numbers(points):
    with pytest.raises(ValidationError, match="support points must be real numbers"):
        Support(kind="discrete", points=points, n=2)


@pytest.mark.parametrize(
    "points",
    [(0, 1), (np.int32(0), np.uint8(1)), (np.float32(0.0), 1.0), (True, 2.5)],
)
def test_discrete_support_points_take_integers_and_floats(points):
    s = Support(kind="discrete", points=points, n=2)
    assert np.array_equal(s.nodes, [float(x) for x in points])


# Unsigned differences would wrap, and these two int64 values are one float.
@pytest.mark.parametrize(
    "points", [(np.uint8(3), np.uint8(1)), (np.int64(2**60), np.int64(2**60 + 1))]
)
def test_discrete_support_compares_integer_points_as_floats(points):
    with pytest.raises(ValidationError, match="strictly increasing"):
        Support(kind="discrete", points=points, n=2)


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


@st.composite
def sorted_nodes_and_edges(draw):
    """Ascending node arrays, ties included, and indicator edges on nodes,
    between them, outside them and at +-0.0."""
    if draw(st.booleans()):
        # A collapsed grid: reference nodes mapped onto a domain a few ulps
        # wide, so runs of them round to one double.
        mid = draw(st.sampled_from([-0.0, 0.0, 1.0, 5.0, -3.0]))
        xi = _reference_rule(draw(st.integers(2, 32)))[0]
        x = mid + draw(st.sampled_from([1e-15, 4e-16, 1e-300, 0.0])) * xi
    else:
        pool = draw(st.lists(st.floats(-10.0, 10.0, width=32), min_size=1, max_size=8))
        x = np.sort(np.array(draw(st.lists(st.sampled_from(pool + [-0.0, 0.0]),
                                           min_size=1, max_size=40))))
    assert (np.diff(x) >= 0.0).all()
    i = draw(st.integers(0, len(x) - 1))
    candidates = [
        x[i], x[-1], x[0], 0.5 * (x[i] + x[min(i + 1, len(x) - 1)]),
        x[0] - 1.0, x[-1] + 1.0, -0.0, 0.0,
        np.nextafter(x[i], -np.inf), np.nextafter(x[i], np.inf),
    ]
    lo, hi = sorted(draw(st.lists(st.sampled_from(candidates), min_size=2, max_size=2,
                                  unique_by=float)))
    assume(lo < hi)
    return x, float(lo), float(hi)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(sorted_nodes_and_edges())
def test_indicator_rows_equal_the_two_comparisons_byte_for_byte(problem):
    x, lo, hi = problem
    # tabulate reads the nodes and checks the edges against the bounds only.
    support = SimpleNamespace(nodes=x, lower=min(lo, x[0]), upper=max(hi, x[-1]))
    row = ConstraintFunction.indicator(lo, hi).tabulate(support)
    assert row.dtype == np.float64 and row.flags.writeable
    assert row.tobytes() == ((x >= lo) & (x <= hi)).astype(np.float64).tobytes()


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


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(kind="power", degree=2, lower=0.1, upper=0.3), "power constraint takes no lower"),
        (dict(kind="power", degree=2, upper=0.3), "power constraint takes no upper"),
        (dict(kind="power", degree=2, values=(1.0, 2.0)), "power constraint takes no values"),
        (dict(kind="power", degree=2, slope=(1.0, 2.0)), "power constraint takes no slope"),
        (dict(kind="indicator", lower=0.0, upper=1.0, degree=1),
         "indicator constraint takes no degree"),
        (dict(kind="indicator", lower=0.0, upper=1.0, values=(1.0, 0.0)),
         "indicator constraint takes no values"),
        (dict(kind="indicator", lower=0.0, upper=1.0, slope=(0.0, 0.0)),
         "indicator constraint takes no slope"),
        (dict(kind="tabulated", values=(1.0, 2.0), degree=3),
         "tabulated constraint takes no degree"),
        (dict(kind="tabulated", values=(1.0, 2.0), lower=0.0),
         "tabulated constraint takes no lower"),
        (dict(kind="tabulated", values=(1.0, 2.0), upper=1.0),
         "tabulated constraint takes no upper"),
    ],
)
def test_a_constraint_function_rejects_a_field_its_kind_does_not_use(fields, message):
    # Kept, such a field would make the function unequal to the one its
    # classmethod builds, though it tabulates the same row.
    with pytest.raises(ValidationError, match=f"^{message}$"):
        ConstraintFunction(**fields)


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


@pytest.mark.parametrize(
    "support, degree, node",
    [
        (Support.continuous(0.0, 1e40, 64), 8, "last"),
        (Support.discrete([0.0, 1e40, 2e40]), 8, "last"),
        (Support.continuous(-1e40, 0.0, 64), 9, "first"),
    ],
    ids=["[0, 1e40]", "points to 2e40", "[-1e40, 0]"],
)
def test_a_power_row_that_overflows_is_an_input_error(support, degree, node):
    x = support.nodes[-1 if node == "last" else 0]
    with pytest.raises(ValidationError) as info:
        ConstraintFunction.power(degree).tabulate(support)
    assert str(info.value) == f"power {degree} overflows a double at the node {float(x)!r}"
    # Below 1e40**7 = 1e280, the row is finite and the signed rule's.
    row = ConstraintFunction.power(7).tabulate(support)
    assert row.tobytes() == _signed_rule(support.nodes, 7).tobytes()


@pytest.mark.parametrize(
    "points, degree, node",
    [
        # 2**1023 is finite, but 1023 * 2**1022 is not: the product overflows.
        ([0.0, 1.0, 2.0], 1023, 2.0),
        ([-2.0, 0.0, 1.0], 1023, -2.0),
        # 2.0**1024 itself overflows.
        ([0.0, 1.0, 2.0], 1025, 2.0),
    ],
)
def test_a_power_slope_that_overflows_is_an_input_error(points, degree, node):
    support, fn = Support.discrete(points), ConstraintFunction.power(degree)
    if degree == 1023:
        assert abs(fn.tabulate(support)).max() == 2.0 ** 1023
    # The suite turns numpy's overflow warning into an error; none is raised.
    with pytest.raises(ValidationError) as info:
        fn.derivative(support)
    assert str(info.value) == (
        f"the derivative of power {degree} overflows a double at the node {node!r}")
    # Below, 1014 * 2**1013 is about 2**1023: finite, and the signed rule's.
    slope = ConstraintFunction.power(1014).derivative(support)
    assert slope.tobytes() == (1014 * _signed_rule(support.nodes, 1013)).tobytes()


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


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"function": "power 1", "equals": 0.5}, "must be a ConstraintFunction"),
        ({"function": None, "equals": 0.5}, "must be a ConstraintFunction"),
        ({"bounds": 5}, "must be a (lo, hi) pair"),
        ({"bounds": (1.0,)}, "must be a (lo, hi) pair"),
        ({"bounds": (0.0, 1.0, 2.0)}, "must be a (lo, hi) pair"),
        ({"bounds": [0.0, 1.0]}, "must be a (lo, hi) pair"),
    ],
)
def test_constraint_spec_checks_its_own_shape(fields, message):
    fields = {"function": ConstraintFunction.power(1), **fields}
    with pytest.raises(ValidationError) as err:
        ConstraintSpec(**fields)
    assert message in str(err.value)


# ----------------------------------------------------------------- problems

def test_validate_problem_accepts_spec_examples():
    specs = [ConstraintSpec.equality(ConstraintFunction.power(1), 0.75)]
    assert validate_problem(Support.discrete([0.0, 1.0]), specs) == tuple(specs)

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
    twice = validate_problem(support, once)
    assert once == twice


@pytest.mark.parametrize("constraints", [None, 5, 0.5])
def test_validate_problem_names_constraints_that_cannot_be_iterated(constraints):
    with pytest.raises(
        ValidationError, match=rf"^constraints {constraints!r} are not iterable$"
    ):
        validate_problem(Support.discrete([0.0, 1.0]), constraints)


def test_validate_problem_reads_any_iterable_once():
    specs = [ConstraintSpec.equality(ConstraintFunction.power(1), 0.75)]
    support = Support.discrete([0.0, 1.0])
    assert validate_problem(support, iter(specs)) == tuple(specs)


# ---------------------------------------------------------------- solutions

def _uniform_on_two_points(**fields) -> MaxEntSolution:
    return MaxEntSolution(
        support=Support.discrete([0.0, 1.0]),
        constraints=(),
        multipliers=np.zeros(0),
        # with no constraints every node is in one run
        diagnostics=SolverDiagnostics(iterations=0, grad_max_norm=0.0, atoms=1),
        **fields,
    )


def test_solution_accepts_consistent_uniform():
    sol = _uniform_on_two_points()
    rebuilt = exponential_density(sol.support, (), sol.multipliers)
    assert np.array_equal(rebuilt, sol.density)
    assert sol.density.tolist() == [0.5, 0.5]
    assert sol.log_partition == math.log(2.0)
    assert (sol.residuals, sol.active_bounds) == ((), ())


def test_solution_rejects_unnormalized_density(monkeypatch):
    # The kernel normalizes by construction; a kernel that does not reaches
    # the mass check.
    monkeypatch.setattr(
        core, "_exponential_form", lambda H, w, lam: (math.log(2.0), np.array([0.75, 0.125]))
    )
    with pytest.raises(ValidationError, match="^solution mass 0.875 is not 1 within 1e-12$"):
        _uniform_on_two_points()


def test_solution_rejects_zero_density():
    # exp(-1e4) underflows to zero at x = 1.
    specs = (ConstraintSpec.equality(ConstraintFunction.power(1), 0.5),)
    with pytest.raises(InfeasibleError) as excinfo:
        MaxEntSolution(
            support=Support.discrete([0.0, 1.0]),
            constraints=specs,
            multipliers=np.array([1e4]),
            diagnostics=SolverDiagnostics(iterations=0, grad_max_norm=0.0, atoms=2),
        )
    assert str(excinfo.value) == core._UNDERFLOW


def test_readonly_keeps_only_a_frozen_array_that_owns_its_memory():
    kept = core._frozen(np.arange(3.0))
    assert core._readonly(kept) is kept
    base = np.arange(3.0)
    # A writeable array, a view of it (read-only or not), another dtype and a
    # list are copied: nothing written to them later reaches the copy.
    for given in (base, base[:], core._frozen(base[1:]), kept.astype(np.float32),
                  [0.0, 1.0]):
        out = core._readonly(given)
        assert out is not given and not np.shares_memory(out, base)
        assert not out.flags.writeable and out.dtype == np.float64
    assert base.flags.writeable


def _mean_solution(multipliers) -> MaxEntSolution:
    return MaxEntSolution(
        support=Support.continuous(0.0, 1.0, 64),
        constraints=(ConstraintSpec.equality(ConstraintFunction.power(1), 0.5),),
        multipliers=multipliers,
        diagnostics=SolverDiagnostics(iterations=0, grad_max_norm=0.0, atoms=64),
    )


@pytest.mark.parametrize(
    "values,message",
    [
        (["0.5"], "multipliers must be real numbers"),
        ([True], "multipliers must be real numbers"),
        ([None], "multipliers must be real numbers"),
        (np.array([1.0 + 0.0j]), "multipliers must be real numbers"),
        ([math.nan], "multipliers must be finite"),
        ([-math.inf], "multipliers must be finite"),
        ([0.5, 0.5], "one multiplier per constraint function is required"),
        ([math.inf, 0.5], "multipliers must be finite"),  # checked before the count
    ],
)
def test_solution_multipliers_must_be_finite_integers_or_floats(values, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        _mean_solution(values)


def test_solution_takes_integer_multipliers():
    assert _mean_solution([1]).density.tobytes() == _mean_solution([1.0]).density.tobytes()


def test_solution_copies_the_callers_multipliers_and_derives_a_read_only_density():
    lam = np.array([0.5])
    sol = _mean_solution(lam)
    assert lam.flags.writeable
    lam[0] = 2.0
    assert sol.multipliers.tolist() == [0.5]
    for derived in (sol.multipliers, sol.density):
        with pytest.raises(ValueError, match="read-only"):
            derived[0] = 0.0
