import math
import re

import numpy as np
import pytest

from maxentutil.core import (
    ConstraintFunction,
    ConstraintSpec,
    Support,
    ValidationError,
)
from maxentutil.entropy import differential_entropy, discrete_entropy
from maxentutil.solver import solve_equality
from maxentutil.utility import (
    UtilityCurve,
    UtilityIncrementVector,
    UtilityVector,
    classify_family,
    cumulate,
    curve_to_density,
    density_to_curve,
    increments,
    maxent_utility,
    maxent_utility_from_assessments,
    utility_volume,
    _refined_grid,
)

# Multiplier of the mean-1 exponential family on [0, 5]; see test_solver.py
# for the independent derivation.
CARA_LAMBDA = 0.960201509944503


# ------------------------------------------------------- vectors of utility

def test_utility_vector_invariants():
    UtilityVector(np.array([0.0, 0.25, 1.0]))
    with pytest.raises(ValidationError):
        UtilityVector(np.array([0.1, 0.5, 1.0]))
    with pytest.raises(ValidationError):
        UtilityVector(np.array([0.0, 0.5, 0.999]))
    with pytest.raises(ValidationError):
        UtilityVector(np.array([0.0, 0.6, 0.5, 1.0]))
    with pytest.raises(ValidationError):
        UtilityVector(np.array([0.0]))


# Utilities, increments and masses are integers or floats: strings and
# bools are not converted.
@pytest.mark.parametrize(
    "build,values,message",
    [
        (UtilityVector, ["0", "1"], "utilities must be real numbers"),
        (UtilityVector, [False, True], "utilities must be real numbers"),
        (UtilityVector, [0.0, None, 1.0], "utilities must be real numbers"),
        (UtilityIncrementVector, ["0.5", "0.5"], "increments must be real numbers"),
        (UtilityIncrementVector, np.array([True]), "increments must be real numbers"),
    ],
)
def test_utility_vectors_take_integers_and_floats_only(build, values, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build(values)


def test_utility_vectors_take_integers():
    assert UtilityVector([0, 1]).values.tolist() == [0.0, 1.0]
    assert UtilityIncrementVector([1]).increments.tolist() == [1.0]


@pytest.mark.parametrize("build", [UtilityVector, UtilityIncrementVector])
def test_utility_vectors_copy_the_callers_array(build):
    v = np.array([0.0, 0.25, 1.0]) if build is UtilityVector else np.array([0.25, 0.75])
    kept = v.tolist()
    obj = build(v)
    assert v.flags.writeable
    v[1] = 0.5
    stored = obj.values if build is UtilityVector else obj.increments
    assert stored.tolist() == kept
    with pytest.raises(ValueError, match="read-only"):
        stored[1] = 0.5


def test_increments_of_simple_vector():
    u = UtilityVector(np.array([0.0, 0.25, 0.75, 1.0]))
    d = increments(u)
    assert np.array_equal(d.increments, [0.25, 0.5, 0.25])


def test_cumulate_restores_simple_vector():
    d = UtilityIncrementVector(np.array([0.1, 0.4, 0.5]))
    u = cumulate(d)
    assert np.array_equal(u.values, [0.0, 0.1, 0.5, 1.0])


def test_roundtrip_is_exact_for_dyadic_increments():
    # Increments with denominator 2**20 add without rounding, so the
    # roundtrip must be bit-exact, not just close.
    rng = np.random.default_rng(7)
    for _ in range(25):
        k = rng.integers(2, 9)
        counts = rng.multinomial(2**20, np.full(k, 1.0 / k))
        d = UtilityIncrementVector(counts / 2.0**20)
        assert np.array_equal(increments(cumulate(d)).increments, d.increments)


def test_roundtrip_is_close_for_arbitrary_increments():
    rng = np.random.default_rng(9)
    for _ in range(50):
        raw = rng.random(rng.integers(2, 12))
        d = UtilityIncrementVector(raw / raw.sum())
        back = increments(cumulate(d))
        assert np.max(np.abs(back.increments - d.increments)) < 1e-12


def test_increment_vector_rejects_bad_sums():
    with pytest.raises(ValidationError, match="sum"):
        UtilityIncrementVector(np.array([0.5, 0.5 + 1e-9]))
    with pytest.raises(ValidationError):
        UtilityIncrementVector(np.array([1.2, -0.2]))


# ------------------------------------------------------------ curve algebra

def test_uniform_density_gives_linear_utility():
    s = Support.continuous(0.0, 1.0, 256)
    curve = density_to_curve(np.ones(s.n), s)
    assert np.max(np.abs(curve.curve - s.nodes)) < 1e-12
    assert curve.evaluate(0.0) == 0.0
    assert curve.evaluate(1.0) == 1.0
    assert abs(curve.evaluate(0.3) - 0.3) < 1e-10


def test_cara_curve_matches_closed_form():
    lam = CARA_LAMBDA
    s = Support.continuous(0.0, 5.0, 1024)
    sol = solve_equality(
        s, [ConstraintSpec.equality(ConstraintFunction.power(1), 1.0)]
    )
    curve = density_to_curve(sol.density, s)
    closed = (1.0 - np.exp(-lam * s.nodes)) / (1.0 - math.exp(-5.0 * lam))
    assert np.max(np.abs(curve.curve - closed)) < 1e-9
    # Frozen point values of the closed form.  Off the grid knots the curve
    # interpolates linearly, which costs O(h^2) between nodes.
    assert curve.evaluate(1.0) == pytest.approx(0.622300481081589, abs=2e-5)
    assert curve.evaluate(2.5) == pytest.approx(0.916865710791798, abs=2e-5)
    assert curve.evaluate(4.0) == pytest.approx(0.986635298366603, abs=2e-5)


def test_curve_to_density_recovers_slope():
    s = Support.continuous(0.0, 1.0, 512)
    linear = curve_to_density(s.nodes, s)
    assert np.max(np.abs(linear - 1.0)) < 1e-10
    quadratic = curve_to_density(s.nodes**2, s)
    interior = slice(2, -2)
    assert np.max(np.abs(quadratic[interior] - 2.0 * s.nodes[interior])) < 1e-8


def test_density_curve_roundtrip():
    s = Support.continuous(0.0, 5.0, 1024)
    sol = solve_equality(
        s, [ConstraintSpec.equality(ConstraintFunction.power(1), 1.0)]
    )
    curve = density_to_curve(sol.density, s)
    back = curve_to_density(curve, s)
    assert np.max(np.abs(back - sol.density)) < 1e-4


def test_curve_to_density_differentiates_a_curve_on_its_own_support_only():
    flat = UtilityCurve(Support.continuous(0.0, 1.0, 128), np.ones(128))
    wide = Support.continuous(0.0, 5.0, 128)
    # The same nodes spread over [0, 5] would give 0.2 at every node.
    with pytest.raises(ValidationError, match="curve lives on a different support"):
        curve_to_density(flat, wide)
    assert np.allclose(curve_to_density(flat, flat.support), 1.0, rtol=1e-12)
    # Plain curve values carry no support and are taken on the one given.
    assert np.allclose(curve_to_density(flat.curve, wide), 0.2)


def test_curve_to_density_rejects_flat_and_decreasing():
    s = Support.continuous(0.0, 1.0, 64)
    with pytest.raises(ValidationError, match="no increase"):
        curve_to_density(np.zeros(s.n), s)
    with pytest.raises(ValidationError, match="decreasing"):
        curve_to_density(-s.nodes, s)


def test_curve_rejects_unnormalized_density():
    s = Support.continuous(0.0, 2.0, 64)
    with pytest.raises(ValidationError):
        density_to_curve(np.full(s.n, -1.0), s)


# A utility density is a density and utility increments are masses: each
# rule is one check, so both of its callers fail alike on the same input.
_GRID = Support.continuous(0.0, 1.0, 64)


def _ones_with(index, value):
    p = np.ones(_GRID.n)
    p[index] = value
    return p


@pytest.mark.parametrize(
    "density,message",
    [
        (np.ones(_GRID.n - 1), "support mismatch: expected one value per node"),
        (_ones_with(5, math.nan), "density must be finite"),
        (_ones_with(5, -1.0), "density must be non-negative"),
        (np.full(_GRID.n, 1.01), "density integrates to "),
        (_ones_with(5, math.inf), "density must be finite"),
        (_ones_with(5, -math.inf), "density must be finite"),
        # "finite" is checked first, on either side of the negative value.
        (_ones_with([3, 7], [-1.0, math.nan]), "density must be finite"),
        (_ones_with([3, 7], [math.nan, -1.0]), "density must be finite"),
        (np.full(_GRID.n, 1.01),
         f"density integrates to {_GRID.integrate(np.full(_GRID.n, 1.01))!r}, not 1"),
        (np.ones(_GRID.n, dtype=bool), "density values must be real numbers"),
        (["1"] * _GRID.n, "density values must be real numbers"),
    ],
)
def test_a_curve_and_differential_entropy_share_the_density_rule(density, message):
    raised = []
    for build in (UtilityCurve, lambda s, p: density_to_curve(p, s),
                  lambda s, p: differential_entropy(p, s)):
        with pytest.raises(ValidationError) as err:
            build(_GRID, density)
        raised.append(str(err.value))
    assert raised[0] == raised[1] == raised[2]
    assert raised[0].startswith(message)


@pytest.mark.parametrize(
    "masses,message",
    [
        ([], "{noun} must be a non-empty vector"),
        ([0.5, math.nan], "{noun} must be finite"),
        ([1.5, -0.5], "{noun} must be non-negative"),
        ([0.5, 0.51], "{noun} sum to 1.01, not 1 within {tol:g}"),
    ],
)
def test_increments_and_discrete_entropy_share_the_mass_rule(masses, message):
    for build, noun, tol in (
        (lambda p: UtilityIncrementVector(np.array(p, dtype=float)), "increments", 1e-12),
        (discrete_entropy, "masses", 1e-9),
    ):
        with pytest.raises(ValidationError) as err:
            build(masses)
        assert str(err.value) == message.format(noun=noun, tol=tol)


def test_curve_evaluate_rejects_points_outside_support():
    s = Support.continuous(0.0, 1.0, 64)
    curve = density_to_curve(np.ones(s.n), s)
    with pytest.raises(ValidationError):
        curve.evaluate(-0.01)
    with pytest.raises(ValidationError):
        curve.evaluate(np.array([0.5, 1.2]))


def test_curve_evaluate_rejects_nan():
    s = Support.continuous(0.0, 1.0, 64)
    curve = density_to_curve(np.ones(s.n), s)
    with pytest.raises(ValidationError, match="outside its support"):
        curve.evaluate(float("nan"))
    with pytest.raises(ValidationError, match="outside its support"):
        curve.evaluate(np.array([0.5, float("nan")]))


@pytest.mark.parametrize(
    "points", ["0.5", True, [0.25, "0.5"], np.array([False]), None, [[0.5], 0.25]]
)
def test_curve_evaluate_takes_integers_and_floats_only(points):
    s = Support.continuous(0.0, 1.0, 64)
    curve = density_to_curve(np.ones(s.n), s)
    with pytest.raises(ValidationError, match="^curve points must be real numbers$"):
        curve.evaluate(points)


def test_curve_evaluate_takes_integers():
    s = Support.continuous(0.0, 1.0, 64)
    curve = density_to_curve(np.ones(s.n), s)
    assert curve.evaluate(1) == curve.evaluate(1.0) == 1.0
    assert curve.evaluate([0, 1]).tolist() == [0.0, 1.0]


# -------------------------------------------------------- maxent utilities

def test_maxent_utility_unconstrained_is_linear():
    s = Support.continuous(0.0, 1.0, 128)
    curve, sol = maxent_utility(s, [])
    assert np.max(np.abs(curve.curve - s.nodes)) < 1e-10
    assert sol.entropy == pytest.approx(0.0, abs=1e-10)


def test_maxent_utility_routes_intervals():
    s = Support.continuous(0.0, 1.0, 128)
    spec = ConstraintSpec.interval(ConstraintFunction.power(1), 0.4, 0.6)
    curve, sol = maxent_utility(s, [spec])
    assert sol.active_bounds == ("slack",)
    assert np.max(np.abs(curve.curve - s.nodes)) < 1e-10


def test_mean_and_variance_give_single_inflection():
    s = Support.continuous(-3.0, 3.0, 1024)
    specs = [
        ConstraintSpec.equality(ConstraintFunction.power(1), 0.0),
        ConstraintSpec.equality(ConstraintFunction.power(2), 1.0),
    ]
    curve, sol = maxent_utility(s, specs)
    # The density is unimodal, so the curve has exactly one inflection.
    rising = np.diff(sol.density) > 0
    assert rising[0] and not rising[-1]
    flips = np.count_nonzero(np.diff(rising.astype(int)))
    assert flips == 1
    # And the curve is rotation-symmetric about the mode: U(x) + U(-x) = 1.
    u_plus = np.asarray(curve.evaluate(s.nodes))
    u_minus = np.asarray(curve.evaluate(-s.nodes))
    assert np.max(np.abs(u_plus + u_minus - 1.0)) < 1e-8


# ---------------------------------------------------------- assessed curves

def test_single_assessment_gives_two_flats():
    s = Support.continuous(0.0, 1.0, 1024)
    curve, sol = maxent_utility_from_assessments(s, [(0.5, 0.8)])
    nodes = curve.support.nodes
    left = nodes < 0.5
    assert np.max(np.abs(sol.density[left] - 1.6)) < 1e-6
    assert np.max(np.abs(sol.density[~left] - 0.4)) < 1e-6
    assert curve.evaluate(0.5) == pytest.approx(0.8, abs=1e-6)
    assert curve.evaluate(0.25) == pytest.approx(0.4, abs=1e-6)
    assert curve.evaluate(0.75) == pytest.approx(0.9, abs=1e-6)


def test_consistent_assessment_keeps_uniform():
    s = Support.continuous(0.0, 1.0, 1024)
    curve, sol = maxent_utility_from_assessments(s, [(0.5, 0.5)])
    assert np.max(np.abs(sol.density - 1.0)) < 1e-9
    assert abs(sol.multipliers[0]) < 1e-8


def test_two_assessments_snap_to_grid_edges():
    # Points 2 and 5 on [0, 10]: 5 lands on an edge at every refinement,
    # 2 settles at 1.9921875 once the refinement cap is reached.
    s = Support.continuous(0.0, 10.0)
    curve, sol = maxent_utility_from_assessments(s, [(2.0, 0.5), (5.0, 0.9)])
    assert curve.support.n == 8192
    edges = curve.support.panel_edges
    assert 1.9921875 in edges
    assert 5.0 in edges
    nodes = curve.support.nodes
    expected = np.where(
        nodes < 1.9921875,
        0.5 / 1.9921875,
        np.where(nodes < 5.0, 0.4 / (5.0 - 1.9921875), 0.02),
    )
    assert np.max(np.abs(sol.density - expected)) < 1e-9
    assert curve.evaluate(1.9921875) == pytest.approx(0.5, abs=1e-8)
    assert curve.evaluate(5.0) == pytest.approx(0.9, abs=1e-8)
    # Against the nominal (unsnapped) plateau heights the error is bounded
    # by the snap distance as a share of the interval width.
    heights = (0.5 / 1.9921875, 0.4 / (5.0 - 1.9921875), 0.02)
    nominal = (0.25, 0.4 / 3.0, 0.02)
    for got, want in zip(heights, nominal):
        assert abs(got - want) / want < 6e-3


def test_snapping_tie_goes_to_the_lower_edge():
    # 128.5/256 lies halfway between two edges of the 8192-node grid, where
    # refinement stops; the nearest-edge snap takes the lower one.
    s = Support.continuous(0.0, 1.0, 1024)
    curve, sol = maxent_utility_from_assessments(s, [(128.5 / 256, 0.4)])
    assert curve.support.n == 8192
    assert [c.function.upper for c in sol.constraints] == [0.5]
    s = Support.continuous(0.0, 1.0, 128)
    curve, sol = maxent_utility_from_assessments(
        s, [(0.3, 0.4), (128.5 / 256, 0.6)]
    )
    assert curve.support.n == 8192
    assert [c.function.upper for c in sol.constraints] == [0.30078125, 0.5]


def test_an_assessment_near_the_edge_survives_a_vanishing_variance():
    # The first Newton step leaves the cell right of the snapped point with
    # mass 5e-20, so the next direction is about -1e18 and the line search
    # must halve its step to about 3e-17 before a trial is acceptable.
    x, v = 0.9791288347739763, 0.052577598800638795
    s = Support.continuous(0.0, 1.0, 128)
    curve, sol = maxent_utility_from_assessments(s, [(x, v)])
    (edge,) = [c.function.upper for c in sol.constraints]
    assert edge == 0.98046875
    # Two flats: the density ratio across the edge is exp(multiplier).
    closed_form = math.log((1.0 - v) * edge / ((1.0 - edge) * v))
    assert sol.multipliers[0] == pytest.approx(closed_form, rel=1e-6)
    assert curve.evaluate(edge) == pytest.approx(v, abs=1e-8)


def _assessed_bits(curve, sol) -> list[bytes]:
    """Every number an assessed solve reports, as raw bytes."""
    arrays = (
        sol.density, sol.multipliers, sol.support.nodes, sol.support.weights,
        sol.support.panel_edges, curve.curve, curve.edge_curve, curve.density,
        [sol.entropy, sol.log_partition],
        [c.function.upper for c in sol.constraints],
    )
    return [np.asarray(a, dtype=np.float64).tobytes() for a in arrays]


def test_a_repeated_assessed_call_reuses_its_refined_grids():
    assessments = [(0.3, 0.4), (0.7, 0.9)]
    _refined_grid.cache_clear()
    first = maxent_utility_from_assessments(
        Support.continuous(0.0, 1.0, 128), assessments
    )
    built = _refined_grid.cache_info()
    assert built.misses > 0 and built.hits == 0
    second = maxent_utility_from_assessments(
        Support.continuous(0.0, 1.0, 128), assessments
    )
    reused = _refined_grid.cache_info()
    assert reused.misses == built.misses
    assert reused.hits == built.misses
    assert second[0].support is first[0].support
    assert _assessed_bits(*second) == _assessed_bits(*first)
    # The same numbers as a solve on a grid built afresh at the refined size.
    fresh = Support.continuous(0.0, 1.0, first[1].support.n)
    sol = solve_equality(fresh, first[1].constraints)
    assert _assessed_bits(density_to_curve(sol.density, fresh), sol) == (
        _assessed_bits(*first)
    )


@pytest.mark.parametrize("n", [8192, 10000])
def test_a_start_grid_at_the_ceiling_adds_no_cache_entry(n):
    _refined_grid.cache_clear()
    s = Support.continuous(0.0, 1.0, n)
    curve, sol = maxent_utility_from_assessments(s, [(0.3, 0.4)])
    assert sol.support is s
    assert _refined_grid.cache_info().currsize == 0


def test_a_domain_from_negative_zero_gives_the_numbers_of_one_from_zero():
    assessments = [(0.3, 0.4)]
    runs = []
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        _refined_grid.cache_clear()
        for a in (first, second):
            s = Support.continuous(a, 1.0, 128)
            runs.append(_assessed_bits(*maxent_utility_from_assessments(s, assessments)))
        # The second domain found the first's grids: one key for both zeros.
        assert _refined_grid.cache_info().hits > 0
    assert all(bits == runs[0] for bits in runs)


@pytest.mark.parametrize(
    "assessments",
    [
        [(0.5, 0.55)],
        [(0.25, 0.5), (0.75, 0.8)],
        [(0.2, 0.5), (0.4, 0.6)],
        [(0.1, 0.3), (0.5, 0.6), (0.9, 0.95)],
    ],
)
def test_small_density_steps_pass_the_curve_check(assessments):
    # Small steps of a piecewise-constant density are valid utilities; the
    # curve must pass through every assessed value at its snapped point.
    s = Support.continuous(0.0, 1.0)
    curve, _ = maxent_utility_from_assessments(s, assessments)
    edges = curve.support.panel_edges
    for x, v in assessments:
        snapped = edges[np.argmin(np.abs(edges - x))]
        assert curve.evaluate(snapped) == pytest.approx(v, abs=1e-6)


def test_mean_with_indicator_passes_the_curve_check():
    s = Support.continuous(0.0, 5.0)
    specs = [
        ConstraintSpec.equality(ConstraintFunction.power(1), 2.0),
        ConstraintSpec.equality(ConstraintFunction.indicator(0.0, 1.0), 0.3),
    ]
    curve, sol = maxent_utility(s, specs)
    assert s.integrate(sol.density * s.nodes) == pytest.approx(2.0, abs=1e-8)
    assert s.integrate(sol.density * (s.nodes <= 1.0)) == pytest.approx(0.3, abs=1e-8)
    assert curve.edge_curve[0] == 0.0 and curve.edge_curve[-1] == 1.0


def test_flat_per_interval_beats_any_cell_split():
    # Brute force over densities that are constant on half-cells: mass 0.8
    # left of 0.5 split t/(1-t), mass 0.2 right split s/(1-s).  Entropy is
    # maximized when each pair is flat, which is the solver's answer.
    def cell_entropy(masses, widths):
        dens = masses / widths
        return -np.sum(masses * np.log(dens))

    widths = np.array([0.25, 0.25, 0.25, 0.25])
    best = -np.inf
    best_split = None
    for t in np.linspace(0.05, 0.95, 181):
        for u in np.linspace(0.05, 0.95, 181):
            masses = np.array([0.8 * t, 0.8 * (1 - t), 0.2 * u, 0.2 * (1 - u)])
            h = cell_entropy(masses, widths)
            if h > best:
                best, best_split = h, (t, u)
    assert best_split == pytest.approx((0.5, 0.5), abs=1e-9)

    s = Support.continuous(0.0, 1.0, 1024)
    _, sol = maxent_utility_from_assessments(s, [(0.5, 0.8)])
    assert sol.entropy >= best - 1e-9
    assert sol.entropy == pytest.approx(best, abs=1e-6)


def test_within_interval_perturbations_lose_entropy():
    # Move mass inside one assessment interval without changing any assessed
    # cumulative; entropy must not rise.
    s = Support.continuous(0.0, 1.0, 1024)
    curve, sol = maxent_utility_from_assessments(s, [(0.5, 0.8)])
    support = curve.support
    w = support.weights
    nodes = support.nodes
    rng = np.random.default_rng(77)
    h0 = sol.entropy
    left = nodes < 0.5
    for _ in range(20):
        bump = rng.normal(size=support.n) * left
        bump -= left * (np.dot(w, bump) / np.dot(w, left.astype(float)))
        scale = 0.5 * np.min(sol.density[left]) / (np.max(np.abs(bump)) + 1e-300)
        q = sol.density + scale * bump
        assert abs(np.dot(w, q) - 1.0) < 1e-12
        h_q = differential_entropy(q / np.dot(w, q), support).value
        assert h_q <= h0 + 1e-9


def test_assessments_validate():
    s = Support.continuous(0.0, 1.0, 128)
    with pytest.raises(ValidationError):
        maxent_utility_from_assessments(s, [])
    with pytest.raises(ValidationError):
        maxent_utility_from_assessments(s, [(0.5, 0.8), (0.4, 0.9)])
    with pytest.raises(ValidationError):
        maxent_utility_from_assessments(s, [(0.5, 0.8), (0.7, 0.7)])
    with pytest.raises(ValidationError):
        maxent_utility_from_assessments(s, [(0.5, 1.2)])
    with pytest.raises(ValidationError, match="endpoint"):
        maxent_utility_from_assessments(s, [(1e-9, 0.5)])
    with pytest.raises(ValidationError, match="same grid cell"):
        maxent_utility_from_assessments(
            s, [(0.5, 0.5), (0.5 + 1e-12, 0.6)]
        )


@pytest.mark.parametrize(
    "item",
    [(math.nan, 0.5), (0.5, math.nan), (0.5, math.inf), ("0.5", 0.8), (0.5, "0.8"),
     (0.5, 0.8, 1), (0.5,), 0.5],
    ids=["nan point", "nan value", "inf value", "str point", "str value",
         "triple", "single", "scalar"],
)
def test_each_assessment_is_a_pair_of_finite_numbers(item):
    s = Support.continuous(0.0, 1.0, 128)
    with pytest.raises(ValidationError) as err:
        maxent_utility_from_assessments(s, [(0.2, 0.3), item])
    assert str(err.value) == (
        f"assessment 1: {item!r} is not a pair (point, value) of finite real numbers"
    )


def test_assessments_may_be_any_iterable_of_pairs():
    s, pairs = Support.continuous(0.0, 1.0, 128), [(0.25, 0.4), (0.6, 0.8)]
    curve, sol = maxent_utility_from_assessments(s, (pair for pair in pairs))
    want_curve, want = maxent_utility_from_assessments(s, pairs)
    assert sol.density.tobytes() == want.density.tobytes()
    assert curve.curve.tobytes() == want_curve.curve.tobytes()


@pytest.mark.parametrize("assessments", [5, None, 0.5])
def test_assessments_that_cannot_be_iterated_are_named(assessments):
    s = Support.continuous(0.0, 1.0, 128)
    with pytest.raises(ValidationError) as err:
        maxent_utility_from_assessments(s, assessments)
    assert str(err.value) == f"assessments {assessments!r} are not iterable"


def test_no_assessments_is_an_input_error():
    for empty in ([], iter(())):
        with pytest.raises(ValidationError, match="at least one assessment"):
            maxent_utility_from_assessments(Support.continuous(0.0, 1.0, 128), empty)


# ------------------------------------------------------------------ volumes

def test_utility_volume_closed_form():
    assert utility_volume(3) == 1.0
    assert utility_volume(4) == 0.5
    assert utility_volume(5) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert utility_volume(8) == pytest.approx(1.0 / 720.0, abs=1e-18)


def test_utility_volume_rejects_small_counts():
    with pytest.raises(ValidationError):
        utility_volume(2)


def test_utility_volume_takes_integers_by_the_package_rule():
    assert utility_volume(np.int64(5)) == utility_volume(5)
    for bad in (True, 5.0, "5", np.bool_(True)):
        with pytest.raises(ValidationError):
            utility_volume(bad)


# ----------------------------------------------------------- classification

def test_classify_family_routes():
    mean = ConstraintSpec.equality(ConstraintFunction.power(1), 0.5)
    var = ConstraintSpec.equality(ConstraintFunction.power(2), 0.4)
    ind = ConstraintSpec.equality(ConstraintFunction.indicator(0.1, 0.4), 0.3)
    assert classify_family([]) == "linear_risk_neutral"
    assert classify_family([mean]) == "cara"
    assert classify_family([mean, var]) == "gaussian_s_shaped"
    assert classify_family([var, mean]) == "gaussian_s_shaped"
    assert classify_family([mean, ind]) == "general"
    assert classify_family([var]) == "general"


def test_classify_family_names_a_member_that_is_not_a_constraint_spec():
    mean = ConstraintSpec.equality(ConstraintFunction.power(1), 0.5)
    for specs in ([None], [mean, ConstraintFunction.power(2)]):
        with pytest.raises(ValidationError) as err:
            classify_family(specs)
        assert str(err.value) == f"constraint {len(specs) - 1}: not a ConstraintSpec"
    # The check reads an iterator once, as the classification does.
    assert classify_family(iter([mean])) == "cara"


# -------------------------------------------------------------- spread laws

def test_spread_is_permutation_symmetric():
    from maxentutil.entropy import entropy_of_increments

    rng = np.random.default_rng(13)
    for _ in range(25):
        raw = rng.random(6)
        d = raw / raw.sum()
        h = entropy_of_increments(d).value
        perm = rng.permutation(d)
        assert abs(entropy_of_increments(perm).value - h) < 1e-12


def test_spread_is_continuous_under_tiny_transfers():
    from maxentutil.entropy import entropy_of_increments

    base = np.array([0.3, 0.25, 0.25, 0.2])
    h = entropy_of_increments(base).value
    eps = 1e-6
    moved = base + np.array([eps, -eps, 0.0, 0.0])
    assert abs(entropy_of_increments(moved / moved.sum()).value - h) < 1e-4


def test_spread_grows_with_outcome_count_for_even_vectors():
    from maxentutil.entropy import entropy_of_increments

    values = [
        entropy_of_increments(np.full(k - 1, 1.0 / (k - 1))).value
        for k in range(3, 10)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(math.log(2.0), abs=1e-15)


# ------------------------------------------------------------- curve checks

def test_curve_is_built_from_its_density_alone():
    s = Support.continuous(0.0, 1.0, 256)
    curve = UtilityCurve(s, 2.0 * s.nodes)
    assert curve.edge_curve[0] == 0.0 and curve.edge_curve[-1] == 1.0
    assert np.max(np.abs(curve.curve - s.nodes**2)) < 1e-14
    assert np.max(np.abs(curve.edge_curve - s.panel_edges**2)) < 1e-14
    with pytest.raises(TypeError):
        UtilityCurve(s, np.ones(s.n), s.nodes)


@pytest.mark.parametrize("fraction", [0.3, 0.5, 0.7, 0.9])
def test_curve_rejects_a_density_that_dips_inside_a_panel(fraction):
    # A step strictly inside a panel is not polynomial there: the per-panel
    # integral of a density that is 1e-9 below the step and 1 above it
    # dips below zero before the step.
    s = Support.continuous(0.0, 1.0, 64)
    edges = s.panel_edges
    step = edges[0] + fraction * (edges[1] - edges[0])
    density = np.where(s.nodes < step, 1e-9, 1.0)
    with pytest.raises(ValidationError, match="nondecreasing"):
        density_to_curve(density / s.integrate(density), s)


def test_curve_knots_are_exact_at_panel_edges():
    s = Support.continuous(0.0, 1.0, 1024)
    mid = s.panel_edges[16]
    density = np.where(s.nodes <= mid, 1.6, 0.4)
    curve = density_to_curve(density, s)
    assert curve.evaluate(mid) == pytest.approx(1.6 * mid, abs=1e-13)


def test_refinement_into_a_grid_too_narrow_for_its_nodes_names_the_domain():
    # 128 and 256 nodes fit on this domain, and 512 do not: the point lies
    # off those grids' panel edges, so refining it fails at 512 nodes.
    b = 1.0 + 2.0**-40
    s = Support.continuous(1.0, b, 128)
    message = (f"continuous support [1.0, {b!r}] is too narrow for 512 nodes: "
               "they are not strictly increasing in floating point")
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        maxent_utility_from_assessments(s, [(1.0 + 2.0**-40 / 3.0, 0.5)])
