import collections
import dataclasses
import decimal
import math
import platform
import re
import subprocess
import sys
import textwrap
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import bisect

from maxentutil.core import (
    ConstraintFunction,
    ConstraintSpec,
    InfeasibleError,
    MaxEntSolution,
    Support,
    ValidationError,
    _feature_matrix,
    exponential_density,
)
from maxentutil.entropy import differential_entropy, discrete_entropy
from maxentutil import core, entropy, solver
from maxentutil.solver import (
    SolveOptions,
    _bracket_rows,
    _leaving,
    _newton,
    _ratio_test,
    dual_gradient,
    dual_hessian,
    dual_value,
    log_partition,
    moments,
    solve_equality,
    solve_interval,
)
from maxentutil.utility import classify_family, maxent_utility_from_assessments

# lambda* for the mean-1 exponential family on [0, 5], found by bisection on
# the quadrature-free moment equation.  Recomputed live in the oracle test.
CARA_LAMBDA = 0.960201509944503

# E[x^4] on [0, 0.1] under a density proportional to exp(-30 x), by
# adaptive quadrature.
POWER4_TARGET = 5.760479005835254e-06


def _power_spec(k: int, value: float) -> ConstraintSpec:
    return ConstraintSpec.equality(ConstraintFunction.power(k), value)


def _mean_spec(value: float) -> ConstraintSpec:
    return _power_spec(1, value)


# ------------------------------------------------------------ log partition

def test_log_partition_with_no_constraints():
    assert log_partition(Support.discrete([0.0, 1.0]), [], np.zeros(0)) == (
        pytest.approx(math.log(2.0), abs=1e-15)
    )
    s = Support.continuous(0.0, 1.0, 64)
    assert log_partition(s, [], np.zeros(0)) == pytest.approx(0.0, abs=1e-14)


def test_log_partition_matches_closed_form():
    # Z(l) = (1 - exp(-5 l)) / l for h(x) = x on [0, 5].
    s = Support.continuous(0.0, 5.0, 512)
    fn = [ConstraintFunction.power(1)]
    for lam in (0.3, 1.0, 2.5):
        expected = math.log((1.0 - math.exp(-5.0 * lam)) / lam)
        got = log_partition(s, fn, np.array([lam]))
        assert abs(got - expected) < 1e-12


# -------------------------------------------------------- equality solving

def test_unconstrained_discrete_solution_is_uniform():
    for n in range(2, 11):
        sol = solve_equality(Support.discrete(list(np.arange(n, dtype=float))), [])
        assert np.max(np.abs(sol.density - 1.0 / n)) < 1e-12
        assert sol.entropy == pytest.approx(math.log(n), abs=1e-12)


def test_unconstrained_continuous_solution_is_uniform():
    sol = solve_equality(Support.continuous(2.0, 6.0, 128), [])
    assert np.max(np.abs(sol.density - 0.25)) < 1e-12
    assert sol.entropy == pytest.approx(math.log(4.0), abs=1e-10)


def test_biased_coin_mean_constraint():
    sol = solve_equality(Support.discrete([0.0, 1.0]), [_mean_spec(0.75)])
    assert np.max(np.abs(sol.density - [0.25, 0.75])) < 1e-12
    assert sol.multipliers[0] == pytest.approx(-math.log(3.0), abs=1e-10)
    assert abs(sol.residuals[0]) <= 1e-9


def test_truncated_exponential_against_quadrature_oracle():
    # Independent route: for density exp(-l x)/Z on [0, 5], solve the moment
    # equation E[x] = 1 by bisection with adaptive quadrature, then compare
    # the Newton solver's multiplier against it.
    def mean_minus_target(lam: float) -> float:
        z, _ = quad(lambda x: math.exp(-lam * x), 0.0, 5.0)
        m, _ = quad(lambda x: x * math.exp(-lam * x), 0.0, 5.0)
        return m / z - 1.0

    oracle = bisect(mean_minus_target, 0.5, 1.5, xtol=1e-13)
    assert oracle == pytest.approx(CARA_LAMBDA, abs=1e-12)

    sol = solve_equality(Support.continuous(0.0, 5.0, 1024), [_mean_spec(1.0)])
    assert sol.multipliers[0] == pytest.approx(oracle, abs=1e-6)
    assert abs(sol.residuals[0]) <= 1e-8
    assert abs(sol.support.integrate(sol.density * sol.support.nodes) - 1.0) <= 1e-8


def test_gaussian_like_solution_is_symmetric():
    s = Support.continuous(-3.0, 3.0, 1024)
    specs = [
        _mean_spec(0.0),
        ConstraintSpec.equality(ConstraintFunction.power(2), 1.0),
    ]
    sol = solve_equality(s, specs)
    mom = moments(sol, [spec.function for spec in specs])
    assert abs(mom[0]) < 1e-8
    assert abs(mom[1] - 1.0) < 1e-8
    assert np.max(np.abs(sol.density - sol.density[::-1])) < 1e-10


def test_solution_dominates_feasible_competitors():
    # Every other mean-1 distribution on {0, 1, 2} carries less entropy.
    support = Support.discrete([0.0, 1.0, 2.0])
    sol = solve_equality(support, [_mean_spec(1.0)])
    for t in np.linspace(0.01, 0.49, 25):
        q = np.array([t, 1.0 - 2.0 * t, t])
        h_q = -np.sum(q * np.log(q))
        assert h_q <= sol.entropy + 1e-9


def test_solution_reconstructs_bit_for_bit():
    sol = solve_equality(Support.continuous(0.0, 5.0, 256), [_mean_spec(1.0)])
    rebuilt = exponential_density(sol.support, sol.constraints, sol.multipliers)
    assert np.array_equal(rebuilt, sol.density)


_SOLVES = {
    "continuous": lambda: solve_equality(
        Support.continuous(0.0, 5.0, 256), [_mean_spec(1.2), _power_spec(2, 2.5)]
    ),
    "discrete": lambda: solve_equality(
        Support.discrete(np.linspace(0.0, 3.0, 40) ** 1.5),
        [_power_spec(1, 1.8), _power_spec(2, 4.5)],
    ),
    "assessed": lambda: maxent_utility_from_assessments(
        Support.continuous(0.0, 1.0, 128), [(0.3, 0.6), (0.7, 0.9)]
    )[1],
}


@pytest.mark.parametrize("kind", _SOLVES)
def test_log_z_and_the_density_rebuild_bit_for_bit_from_the_multipliers(kind):
    sol = _SOLVES[kind]()
    rebuilt = exponential_density(sol.support, sol.constraints, sol.multipliers)
    assert rebuilt.tobytes() == sol.density.tobytes()
    functions = [s.function for s in sol.constraints]
    assert log_partition(sol.support, functions, sol.multipliers) == sol.log_partition


@pytest.mark.parametrize("kind", _SOLVES)
def test_entropy_is_that_of_the_density_on_a_solve_and_on_a_copy(kind):
    sol = _SOLVES[kind]()
    if sol.support.is_continuous:
        expected = differential_entropy(sol.density, sol.support).value
    else:
        expected = discrete_entropy(sol.density).value
    assert sol.entropy == expected
    assert dataclasses.replace(sol).entropy == expected


def test_a_solution_computes_its_entropy_once_when_built(monkeypatch):
    calls = []
    monkeypatch.setattr(
        entropy, "differential_entropy",
        lambda p, s: calls.append(1) or differential_entropy(p, s),
    )
    sol = solve_equality(Support.continuous(0.0, 5.0, 256), [_mean_spec(1.0)])
    assert calls == [1]
    assert sol.entropy == sol.entropy
    assert calls == [1]


@pytest.mark.parametrize("name", ["entropy", "density", "log_partition",
                                  "residuals", "active_bounds"])
def test_a_derived_value_cannot_be_passed_in(name):
    sol = _SOLVES["continuous"]()
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(sol, **{name: getattr(sol, name)})


def _oracle_solutions():
    yield solve_equality(
        Support.continuous(-1.0, 1.0, 1024),
        [_power_spec(k, t) for k, t in enumerate([0.1, 0.3, 0.02, 0.17], start=1)],
    )
    pinned = solve_interval(
        Support.continuous(0.0, 5.0, 512),
        [ConstraintSpec.interval(ConstraintFunction.power(1), 0.5, 1.0),
         _power_spec(2, 2.0)],
    )
    assert pinned.active_bounds[0] == "hi"
    yield pinned
    yield solve_equality(
        Support.discrete(np.linspace(0.0, 3.0, 40) ** 1.5),
        [_power_spec(1, 1.8), _power_spec(2, 4.5)],
    )
    yield maxent_utility_from_assessments(
        Support.continuous(0.0, 1.0, 1024),
        [(0.1, 0.3), (0.3, 0.55), (0.6, 0.8), (0.85, 0.95)],
    )[1]


def test_density_matches_a_40_digit_evaluation_of_its_exponential_form():
    """exp(-log Z - sum_j m_j h_j(x)) in decimal arithmetic, from the
    solution's own doubles, is independent of the solver's arithmetic."""
    eps = np.finfo(np.float64).eps
    for sol in _oracle_solutions():
        H = [s.function.tabulate(sol.support) for s in sol.constraints]
        lz, lam = sol.log_partition, sol.multipliers.tolist()
        n = sol.support.n
        with decimal.localcontext(decimal.Context(prec=40)):
            for i in np.unique(np.linspace(0, n - 1, 97).astype(int)).tolist():
                terms = [decimal.Decimal(m) * decimal.Decimal(float(h[i]))
                         for m, h in zip(lam, H)]
                exact = (-decimal.Decimal(lz) - sum(terms)).exp()
                rel = abs(decimal.Decimal(float(sol.density[i])) - exact) / exact
                size = max(1.0, abs(lz) + float(sum(abs(t) for t in terms)))
                assert float(rel) <= 8.0 * eps * size, (sol.support.kind, i, float(rel))


def test_a_solution_takes_no_feature_matrix():
    # A solution is its multipliers: derived data, the feature matrix
    # included, cannot be passed in.
    sol = solve_equality(Support.continuous(0.0, 5.0, 256), [_mean_spec(1.2)])
    fields = {f.name: getattr(sol, f.name) for f in dataclasses.fields(sol) if f.init}
    assert list(fields) == ["support", "constraints", "multipliers", "diagnostics"]
    H = _feature_matrix(sol.support, [s.function for s in sol.constraints])
    with pytest.raises(TypeError, match="features"):
        MaxEntSolution(**fields, features=H)


def _counted_tabulate(monkeypatch):
    """The functions ConstraintFunction.tabulate is called on, in order."""
    calls, tabulate = [], ConstraintFunction.tabulate
    monkeypatch.setattr(
        ConstraintFunction, "tabulate", lambda f, s: calls.append(f) or tabulate(f, s)
    )
    return calls


def test_feature_matrix_returns_the_held_matrix_for_the_same_objects(monkeypatch):
    support = Support.continuous(0.0, 2.0, 64)
    functions = [ConstraintFunction.power(1), ConstraintFunction.indicator(0.5, 1.0)]
    calls = _counted_tabulate(monkeypatch)
    H = _feature_matrix(support, functions)
    assert calls == functions
    # Any iterable of the very same objects, while the caller holds H.
    assert _feature_matrix(support, iter(functions)) is H
    assert _feature_matrix(support, tuple(functions)) is H
    assert calls == functions
    assert not H.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        H[0, 0] = 1.0


def test_feature_matrix_tabulates_afresh_once_dropped_or_for_other_objects(monkeypatch):
    support = Support.continuous(0.0, 2.0, 64)
    power, cube = ConstraintFunction.power(1), ConstraintFunction.power(3)
    want = np.array([support.nodes, support.nodes ** 3])
    calls = _counted_tabulate(monkeypatch)
    H = _feature_matrix(support, [power, cube])
    held = weakref.ref(H)
    del H
    # The matrix is not kept alive for the next call.
    assert held() is None
    H = _feature_matrix(support, [power, cube])
    assert calls == [power, cube] * 2
    assert H.tobytes() == want.tobytes()
    # Equal but distinct functions, or an equal but distinct support, are
    # tabulated afresh, each with its own values.
    equal = ConstraintFunction.power(1)
    assert equal == power and equal is not power
    again = _feature_matrix(support, [equal, cube])
    assert again is not H and again.tobytes() == want.tobytes()
    assert calls[4:] == [equal, cube]
    swapped = _feature_matrix(support, [cube, power])
    assert swapped.tobytes() == want[::-1].tobytes()
    same_grid = Support.continuous(0.0, 2.0, 64)
    assert _feature_matrix(same_grid, [cube, power]) is not swapped
    assert len(calls) == 10


def test_solution_keeps_no_feature_matrix_and_replace_retabulates(monkeypatch):
    sol = solve_equality(Support.continuous(0.0, 5.0, 256), [_mean_spec(1.0)])
    assert "features" not in vars(sol)
    calls = []
    tabulate = ConstraintFunction.tabulate
    monkeypatch.setattr(
        ConstraintFunction, "tabulate", lambda f, s: calls.append(f) or tabulate(f, s)
    )
    copy = dataclasses.replace(sol)
    assert calls == [sol.constraints[0].function]
    assert np.array_equal(copy.density, sol.density)


def test_entropy_equals_dual_value_at_optimum():
    support = Support.continuous(0.0, 5.0, 256)
    specs = [_mean_spec(1.0)]
    sol = solve_equality(support, specs)
    d = dual_value(support, specs, sol.multipliers)
    assert abs(d - sol.entropy) < 1e-9


def test_dual_trace_is_monotone_nonincreasing():
    sol = solve_equality(Support.continuous(0.0, 5.0, 512), [_mean_spec(1.0)])
    trace = np.asarray(sol.diagnostics.dual_trace)
    assert len(trace) == sol.diagnostics.iterations + 1
    assert np.all(np.diff(trace) <= 1e-12)


def _powers(targets):
    """{k: target} for E[x^k] = target, k = 1, 2, ..."""
    return dict(enumerate(targets, start=1))


@pytest.mark.parametrize(
    "support, targets",
    [
        # E[x], E[x^2] on [0, 2]; the Hessian's condition number is 119.
        (
            Support.continuous(0.0, 2.0, 128),
            _powers([1.1220040211442108, 1.5990287920780002]),
        ),
        # Powers 1..5 on [0, 5].
        (
            Support.continuous(0.0, 5.0, 128),
            _powers(
                [
                    1.2643997555282347,
                    2.451480623316138,
                    5.833089815182364,
                    15.760782065949963,
                    46.57189763952141,
                ]
            ),
        ),
        # Powers 1..5 on [0, 2], the moments of a random positive density.
        (
            Support.continuous(0.0, 2.0, 128),
            _powers(
                [
                    1.0837462919586134,
                    1.521041329224289,
                    2.3575341986704674,
                    3.8567357996228337,
                    6.530017796476205,
                ]
            ),
        ),
        # Powers 1..8 on [0, 5] just off the uniform moments: the unscaled
        # Hessian's condition number is far above 1e12.
        (
            Support.continuous(0.0, 5.0, 128),
            _powers([5.0**d / (d + 1) * 1.0001 for d in range(1, 9)]),
        ),
        # E[x^4] on [0, 0.1] under a density proportional to exp(-30 x): the
        # multiplier is about 4.2e4 (see the oracle test below).
        (Support.continuous(0.0, 0.1, 128), {4: POWER4_TARGET}),
    ],
)
def test_newton_converges_at_the_rounding_floor_of_the_dual(support, targets):
    # Near the optimum a full Newton step changes the dual by less than its
    # rounding error; the line search must accept it instead of halving the
    # step to nothing and running out of iterations.
    specs = [_power_spec(k, t) for k, t in targets.items()]
    sol = solve_equality(support, specs)
    assert sol.diagnostics.grad_max_norm <= 1e-8
    for k, t in targets.items():
        got = support.integrate(sol.density * support.nodes**k)
        assert abs(got - t) <= 1e-8 * max(1.0, t)


def test_large_multiplier_against_quadrature_oracle():
    # Power k on [0, b] has a multiplier that grows like b^-k: no bound on
    # its size may stand in for a divergence test.
    def fourth_moment(lam: float) -> float:
        z, _ = quad(lambda x: math.exp(-lam * x**4), 0.0, 0.1, epsabs=0.0)
        m, _ = quad(lambda x: x**4 * math.exp(-lam * x**4), 0.0, 0.1, epsabs=0.0)
        return m / z

    oracle = bisect(
        lambda lam: fourth_moment(lam) - POWER4_TARGET, 3e4, 6e4, xtol=1e-8
    )
    spec = _power_spec(4, POWER4_TARGET)
    # The target is 6e-6, so the default absolute tolerance would leave the
    # multiplier loose by 1e-3 relative.
    sol = solve_equality(
        Support.continuous(0.0, 0.1, 128), [spec], SolveOptions(tol=1e-16)
    )
    assert sol.multipliers[0] == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize(
    "support, specs, density",
    [
        # On {0, 1}, x and x^2 are the same function.
        (
            Support.discrete([0.0, 1.0]),
            [_mean_spec(0.3), _power_spec(2, 0.3)],
            [0.7, 0.3],
        ),
        # One constraint given twice.
        (Support.continuous(0.0, 1.0, 1024), [_mean_spec(0.3)] * 2, None),
    ],
)
def test_consistent_dependent_constraints_converge(support, specs, density):
    # The Hessian is singular; the ridge keeps it factorable, and the step
    # along its null space is harmless because the gradient has none.
    sol = solve_equality(support, specs)
    once = solve_equality(support, specs[:1])
    assert sol.diagnostics.iterations <= 6
    assert np.max(np.abs(sol.residuals)) <= 1e-9
    assert np.max(np.abs(sol.density - once.density)) <= 1e-9 * np.max(once.density)
    if density is not None:
        assert np.max(np.abs(sol.density - density)) < 1e-12


@pytest.mark.parametrize(
    "support",
    [
        Support.continuous(0.0, 1.0, 1024),
        Support.discrete(list(np.linspace(0.0, 1.0, 16))),
    ],
)
def test_jointly_unattainable_targets_underflow(support):
    # Each target lies inside its own range, but E[x] = 0.9 with
    # E[x^2] = 0.5 asks for a negative variance.
    specs = [_mean_spec(0.9), _power_spec(2, 0.5)]
    with pytest.raises(InfeasibleError, match="underflow"):
        solve_equality(support, specs)


_STATE = re.compile(
    r"at Newton step (\d+): gradient max-norm (\S+), multipliers \[(.*)\]"
)


def _newton_failure(excinfo, cause):
    """The state line after ``cause``: (steps, gradient max-norm, multipliers)."""
    first, state = str(excinfo.value).split("\n")
    assert first == cause
    found = _STATE.fullmatch(state)
    assert found, state
    steps, gnorm, values = found.groups()
    return int(steps), float(gnorm), [float(v) for v in values.split(", ")]


def test_an_underflow_names_where_newton_stopped():
    support = Support.continuous(0.0, 1.0, 1024)
    specs = [_mean_spec(0.9), _power_spec(2, 0.5)]
    with pytest.raises(InfeasibleError, match="underflow") as excinfo:
        solve_equality(support, specs)
    steps, gnorm, lam = _newton_failure(excinfo, solver._UNDERFLOW)
    assert steps >= 1 and gnorm > 0.0
    # Diverging multipliers: far beyond what any attainable target needs.
    assert max(map(abs, lam)) > 1e3


def test_no_convergence_names_where_newton_stopped():
    support, specs = Support.continuous(0.0, 1.0, 128), [_mean_spec(0.3)]
    with pytest.raises(InfeasibleError) as excinfo:
        solve_equality(support, specs, SolveOptions(max_iter=1))
    steps, gnorm, lam = _newton_failure(
        excinfo,
        "no convergence to tolerance 1e-08 in 1 iterations; "
        "the problem is infeasible or unbounded",
    )
    assert steps == 1 and len(lam) == 1
    # The reported norm is the dual gradient's at the reported multiplier.
    grad = dual_gradient(support, specs, np.array(lam))
    assert float(np.abs(grad).max()) == pytest.approx(gnorm, rel=1e-4)
    assert gnorm > 1e-8


@pytest.mark.parametrize(
    "hessian",
    [
        # A zero variance fails the diagonal check ...
        np.zeros((2, 2)),
        # ... and a correlation above 1 fails the Cholesky factor.
        np.array([[1.0, 2.0], [2.0, 1.0]]),
    ],
)
def test_a_singular_hessian_names_where_newton_stopped(monkeypatch, hessian):
    monkeypatch.setattr(solver, "_covariance", lambda *args: hessian)
    with pytest.raises(InfeasibleError) as excinfo:
        solve_equality(
            Support.continuous(0.0, 1.0, 128), [_mean_spec(0.3), _power_spec(2, 0.2)]
        )
    state = _newton_failure(excinfo, solver._SINGULAR)
    assert state == (0, pytest.approx(0.2), [0.0, 0.0])


@st.composite
def _newton_matrices(draw):
    """A covariance of m = 1-12 rows scaled to a unit diagonal plus the
    ridge, as Newton factors it: some with a row repeated up to a
    perturbation at the ridge's level (near-singular), some with a
    correlation pushed past 1 (indefinite), some with a NaN; each scaled
    by a power of ten."""
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((m, draw(st.integers(1, 2 * m))))
    kind = draw(st.sampled_from(["spd", "near", "indefinite", "nan"]))
    if kind == "near" and m > 1:
        x[-1] = x[0] + draw(st.sampled_from([0.0, 1e-16, 1e-14, 1e-12])) * x[-1]
    cov = x @ x.T
    s = 1.0 / np.sqrt(cov.diagonal())
    scaled = cov * np.multiply.outer(s, s)
    scaled.flat[:: m + 1] = 1.0 + solver._RIDGE
    i, j = rng.integers(m, size=2)
    if kind == "indefinite" and m > 1:
        i, j = (0, 1) if i == j else (i, j)
        scaled[i, j] = scaled[j, i] = draw(st.floats(1.0, 3.0))
    if kind == "nan":
        scaled[i, j] = scaled[j, i] = np.nan
    return scaled * 10.0 ** draw(st.integers(-200, 200))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_newton_matrices())
def test_inverse_factor_is_the_public_wrappers_bit_for_bit(x):
    # The oracle: what Newton called before it reached past the wrappers.
    try:
        want = np.linalg.inv(np.linalg.cholesky(x))
    except np.linalg.LinAlgError:
        # pytest turns any warning into an error, so none may escape.
        with pytest.raises(FloatingPointError):
            solver._inverse_factor(x)
        return
    got = solver._inverse_factor(x)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def test_a_stalled_line_search_names_where_newton_stopped(monkeypatch):
    # A kernel whose log Z is NaN at every trial: no step is ever accepted.
    kernel, calls = solver._exponential_form, []

    def nan_after_the_start(H, w, lam):
        lz, p = kernel(H, w, lam)
        calls.append(lam)
        return (lz if len(calls) == 1 else math.nan), p

    monkeypatch.setattr(solver, "_exponential_form", nan_after_the_start)
    with pytest.raises(InfeasibleError) as excinfo:
        solve_equality(Support.continuous(0.0, 1.0, 128), [_mean_spec(0.3)])
    steps, gnorm, lam = _newton_failure(
        excinfo, "line search stalled; the problem is infeasible or unbounded"
    )
    assert (steps, lam) == (0, [0.0])
    assert gnorm == pytest.approx(0.2)


def test_a_bracket_the_full_grid_density_misses_by_more_than_tol_is_named(monkeypatch):
    # Newton stopping at zero leaves the uniform density, of mean 0.5.
    monkeypatch.setattr(solver, "_newton",
                        lambda H, w, *args: (np.zeros(len(H)), 0, 0.0, (0.0,), 0, 0))
    support, mean = Support.continuous(0.0, 1.0, 128), ConstraintFunction.power(1)
    with pytest.raises(InfeasibleError, match=(
        r"^interval constraint power 1 violated after Newton; "
        r"the problem is infeasible or unbounded$"
    )):
        solve_interval(support, [ConstraintSpec.interval(mean, 0.1, 0.2)])
    # An equality's miss is Newton's to judge, by its gradient; it is reported.
    sol = solve_interval(support, [ConstraintSpec.equality(mean, 0.2)])
    assert sol.residuals == pytest.approx((0.3,), abs=1e-14)


def test_a_density_that_loses_its_mass_is_named_before_a_missed_bracket(monkeypatch):
    # The solution checks its mass as it is built, before the solve reads
    # its residuals: a solve that fails both raises the mass error (exit 1).
    monkeypatch.setattr(solver, "_newton",
                        lambda H, w, *args: (np.zeros(len(H)), 0, 0.0, (0.0,), 0, 0))
    monkeypatch.setattr(core, "_exponential_form",
                        lambda H, w, lam: (0.0, np.full(H.shape[1], 0.5)))
    support, mean = Support.continuous(0.0, 1.0, 128), ConstraintFunction.power(1)
    with pytest.raises(ValidationError, match=r"^solution mass 0\.49+4 is not 1 within 1e-10$"):
        solve_interval(support, [ConstraintSpec.interval(mean, 0.1, 0.2)])


def test_a_solve_may_take_exactly_max_iter_steps():
    support, specs = Support.continuous(0.0, 1.0, 128), [_mean_spec(0.3)]
    sol = solve_equality(support, specs)
    iters = sol.diagnostics.iterations
    capped = solve_equality(support, specs, SolveOptions(max_iter=iters))
    assert capped.multipliers.tobytes() == sol.multipliers.tobytes()
    with pytest.raises(InfeasibleError, match="no convergence"):
        solve_equality(support, specs, SolveOptions(max_iter=iters - 1))


@pytest.mark.parametrize(
    "solve, specs",
    [
        (solve_equality, [_mean_spec(1.0)]),
        (
            solve_interval,
            [
                ConstraintSpec.equality(ConstraintFunction.power(1), 1.5),
                ConstraintSpec.interval(ConstraintFunction.power(2), 1.0, 3.0),
                ConstraintSpec.interval(
                    ConstraintFunction.indicator(0.0, 1.0), 0.5, 0.6
                ),
            ],
        ),
    ],
)
def test_solve_tabulates_each_constraint_once(monkeypatch, solve, specs):
    calls = collections.Counter()
    tabulate = ConstraintFunction.tabulate

    def counted(self, support):
        calls[self] += 1
        return tabulate(self, support)

    monkeypatch.setattr(ConstraintFunction, "tabulate", counted)
    sol = solve(Support.continuous(0.0, 5.0, 1024), specs)
    # One Newton run: D at its start and after every accepted step.
    assert len(sol.diagnostics.dual_trace) == sol.diagnostics.iterations + 1
    # Once, for the problem's feature matrix; the solution's reconstruction
    # check reads that matrix.
    assert calls == {spec.function: 1 for spec in specs}


# -------------------------------------------------------------------- atoms

def _full_grid_multipliers(sol):
    """The multipliers `_newton` reaches on the full centered grid (Hc, w)
    from zero, in each row's unit as `_solve` passes them."""
    H = _feature_matrix(sol.support, [s.function for s in sol.constraints])
    w = sol.support.weights
    lo, hi = np.array(
        [(s.equals, s.equals) if s.is_equality else s.bounds for s in sol.constraints]
    ).T
    # Newton fills the start's iteration 0 from the full grid (H, w), in
    # the rows' units; the start's atoms go unread.
    start = solver._UniformStart(H, w, H.min(axis=1), H.max(axis=1))
    inv, c = 1.0 / start.unit, start.center
    lam = _newton(
        H * inv[:, None] - c[:, None], w, lo * inv - c, hi * inv - c,
        SolveOptions().resolve_tol(sol.support), 200, start,
    )[0]
    return lam / start.unit


def _indicator_spec(lo: float, hi: float, value: float) -> ConstraintSpec:
    return ConstraintSpec.equality(ConstraintFunction.indicator(lo, hi), value)


@pytest.mark.parametrize("k", [1, 2, 4, 6])
def test_assessed_utility_solves_on_one_atom_per_cell(k):
    xs = [0.1, 0.23, 0.37, 0.52, 0.68, 0.85][:k]
    vs = [(j + 1) / (k + 1) for j in range(k)]
    support = Support.continuous(0.0, 1.0)
    _, sol = maxent_utility_from_assessments(support, list(zip(xs, vs)))
    assert sol.support.n == 8192
    assert sol.diagnostics.atoms == k + 1
    # The closed form: the density is flat between the snapped points, and
    # the multiplier of the indicator on [0, x_j] is the log of the ratio of
    # the heights right and left of x_j.
    edges = sol.support.panel_edges
    knots = [0.0] + [edges[np.argmin(np.abs(edges - x))] for x in xs] + [1.0]
    heights = np.diff([0.0, *vs, 1.0]) / np.diff(knots)
    np.testing.assert_allclose(sol.multipliers, np.log(heights[1:] / heights[:-1]),
                               rtol=1e-12)


@pytest.mark.parametrize(
    "support, specs, atoms",
    [
        # The zero runs on either side of the indicator stay apart.
        (Support.continuous(0.0, 1.0), [_indicator_spec(0.2, 0.5, 0.5)], 3),
        (Support.discrete(list(range(10))), [_indicator_spec(2.0, 5.0, 0.7)], 3),
        # Brackets, one bound met and one slack, solved on atoms.
        (
            Support.continuous(0.0, 1.0),
            [
                ConstraintSpec.interval(ConstraintFunction.indicator(lo, hi), *bounds)
                for lo, hi, bounds in [(0.2, 0.5, (0.5, 0.6)), (0.6, 0.9, (0.1, 0.5))]
            ],
            5,
        ),
        # A power row separates every node: nothing merges.
        (
            Support.continuous(0.0, 5.0),
            [_mean_spec(2.0), _indicator_spec(0.0, 1.0, 0.3)],
            1024,
        ),
    ],
)
def test_newton_on_atoms_matches_the_full_grid(support, specs, atoms):
    sol = solve_interval(support, specs)
    assert sol.diagnostics.atoms == atoms
    np.testing.assert_allclose(sol.multipliers, _full_grid_multipliers(sol), rtol=1e-12)


def test_an_indicator_given_twice_matches_the_full_grid():
    # Only the sum of the two multipliers is determined: rounding splits it
    # differently on atoms and on the full grid.
    spec = _indicator_spec(0.2, 0.5, 0.5)
    sol = solve_equality(Support.continuous(0.0, 1.0), [spec, spec])
    assert sol.diagnostics.atoms == 3
    total = sol.multipliers.sum()
    assert total == pytest.approx(_full_grid_multipliers(sol).sum(), rel=1e-12)
    once = solve_equality(sol.support, [spec]).multipliers[0]
    assert total == pytest.approx(once, rel=1e-12)


# ------------------------------------------------------ determined problems
# m equality rows on m + 1 atoms: the targets fix the atom masses and the
# masses fix the multipliers, which Newton's first step goes to.


def _assert_same_solve(a, b):
    assert a.diagnostics == b.diagnostics
    assert (a.residuals, a.active_bounds) == (b.residuals, b.active_bounds)
    np.testing.assert_array_equal(a.multipliers, b.multipliers)
    np.testing.assert_array_equal(a.density, b.density)


def _assessed_spec():
    return Support.continuous(0.0, 1.0, 128), [_indicator_spec(0.0, 0.5, 0.8)]


def test_an_assessed_point_solves_in_one_exact_step():
    support, specs = _assessed_spec()
    sol = solve_equality(support, specs)
    d = sol.diagnostics
    assert (d.atoms, d.iterations, d.halvings, sol.residuals) == (2, 1, 0, (0.0,))
    assert len(d.dual_trace) == 2
    # Heights 1.6 and 0.4 on the two halves: the multiplier is -ln 4.
    assert sol.multipliers[0] == pytest.approx(-math.log(4.0), rel=1e-14)
    np.testing.assert_allclose(sol.density, np.where(support.nodes < 0.5, 1.6, 0.4),
                               rtol=1e-14)


def test_a_determined_problem_with_a_negative_mass_fails_as_before(monkeypatch):
    # On [0, 1], mass 0.8 on [0, 0.5] and 0.9 on [0, 0.3] leave -0.1 for
    # (0.3, 0.5]: no density meets them.
    support = Support.continuous(0.0, 1.0, 128)
    specs = [_indicator_spec(0.0, 0.5, 0.8), _indicator_spec(0.0, 0.3, 0.9)]
    with pytest.raises(InfeasibleError) as err:
        solve_equality(support, specs)
    first, where = str(err.value).splitlines()
    assert first.startswith("multipliers drive the density to zero")
    assert where.startswith("at Newton step 3: gradient max-norm 0.0809492,")
    monkeypatch.setattr(solver, "_determined", lambda *args: None)
    with pytest.raises(InfeasibleError) as plain:
        solve_equality(support, specs)
    assert str(err.value) == str(plain.value)


def test_powers_on_one_more_point_take_no_exact_step():
    # Powers 1..7 on 8 points merge no atoms.  Their exact multipliers reach
    # about 1e7, and from there the full-grid log Z loses the mass to
    # rounding, so Newton runs from zero as for any other problem.
    points = [0.20890550599152005, 0.3752482790624849, 0.4207578833965073,
              0.4784867070209472, 0.5084843795767526, 0.6875187139655412,
              0.85638523627457, 0.9441731002136275]
    targets = [0.6869872975098761, 0.5010627710430747, 0.3820941795938682,
               0.30206279664753394, 0.24629573102505464, 0.2063521320507058,
               0.1770343234249814]
    support = Support.discrete(points)
    specs = [_power_spec(k, t) for k, t in enumerate(targets, start=1)]
    sol = solve_equality(support, specs)
    assert sol.diagnostics.atoms == 8 and sol.diagnostics.iterations > 1
    assert np.abs(sol.residuals).max() <= SolveOptions().resolve_tol(support)


def test_a_singular_determined_system_gives_no_exact_step():
    row = np.array([1.0, 0.0, 0.0])
    Ha, wa = np.array([row, row]), np.full(3, 1.0 / 3.0)
    assert solver._determined(Ha, wa, Ha - 1.0 / 3.0, np.array([0.5, 0.5])) is None


def test_a_determined_system_whose_atom_density_underflows_gives_no_exact_step():
    # The masses are positive, but 5e-324 / 1e10 is 0: its log is no double.
    Ha, wa = np.array([[0.0, 1.0]]), np.array([1e10, 1e10])
    assert solver._determined(Ha, wa, Ha - 0.5, np.array([5e-324])) is None


def test_an_exact_step_that_armijo_rejects_gives_way_to_newtons_own(monkeypatch):
    # A wrong "exact" multiplier raises the dual: Newton takes its own first
    # step instead, and never a part of the rejected one.
    support, specs = _assessed_spec()
    monkeypatch.setattr(solver, "_determined", lambda *args: np.array([50.0]))
    rejected = solve_equality(support, specs)
    monkeypatch.setattr(solver, "_determined", lambda *args: None)
    plain = solve_equality(support, specs)
    assert plain.diagnostics.iterations > 1
    _assert_same_solve(rejected, plain)


# ---------------------------------------------------------------- dual maps

# A mean of 0.75 on {0, 1}: at zero multipliers the dual gradient is
# b - E[x] = 0.75 - 0.5 and the Hessian is Var[x] = 0.25.
COIN = (Support.discrete([0.0, 1.0]), [_mean_spec(0.75)])


def test_dual_gradient_matches_finite_differences():
    rng = np.random.default_rng(41)
    powers = (
        Support.continuous(0.0, 2.0, 128),
        [
            ConstraintSpec.equality(ConstraintFunction.power(1), 0.9),
            ConstraintSpec.equality(ConstraintFunction.power(2), 1.1),
        ],
    )
    assert dual_gradient(*COIN, np.zeros(1))[0] == pytest.approx(0.25, abs=1e-15)
    for support, specs in (powers, COIN):
        m = len(specs)
        for _ in range(10):
            lam = rng.normal(scale=0.7, size=m)
            grad = dual_gradient(support, specs, lam)
            eps = 1e-6
            for j in range(m):
                step = np.zeros(m)
                step[j] = eps
                fd = (
                    dual_value(support, specs, lam + step)
                    - dual_value(support, specs, lam - step)
                ) / (2.0 * eps)
                denom = max(1.0, abs(fd))
                assert abs(grad[j] - fd) / denom < 1e-6


def test_dual_hessian_matches_finite_differences_and_is_psd():
    rng = np.random.default_rng(43)
    powers = (
        Support.discrete([0.0, 0.5, 1.2, 2.0]),
        [
            ConstraintSpec.equality(ConstraintFunction.power(1), 1.0),
            ConstraintSpec.equality(ConstraintFunction.power(3), 1.5),
        ],
    )
    assert dual_hessian(*COIN, np.zeros(1))[0, 0] == pytest.approx(0.25, abs=1e-15)
    for support, specs in (powers, COIN):
        m = len(specs)
        for _ in range(10):
            lam = rng.normal(scale=0.5, size=m)
            hess = dual_hessian(support, specs, lam)
            assert np.array_equal(hess, hess.T)
            assert np.min(np.linalg.eigvalsh(hess)) >= -1e-10
            eps = 1e-5
            for j in range(m):
                step = np.zeros(m)
                step[j] = eps
                fd = (
                    dual_gradient(support, specs, lam + step)
                    - dual_gradient(support, specs, lam - step)
                ) / (2.0 * eps)
                assert np.max(np.abs(hess[:, j] - fd)) < 1e-5


def test_solve_equality_names_a_bracket_row_and_solve_interval():
    specs = [
        _mean_spec(0.5), ConstraintSpec.interval(ConstraintFunction.power(2), 0.2, 0.4)
    ]
    with pytest.raises(ValidationError) as err:
        solve_equality(Support.continuous(0.0, 1.0, 128), specs)
    assert str(err.value) == (
        "constraint 1: power 2 has an interval target, which only solve_interval takes"
    )


DUAL_MAPS = {
    "log_partition": lambda sup, specs, lam: log_partition(
        sup, [s.function for s in specs], lam
    ),
    "dual_value": dual_value,
    "dual_gradient": dual_gradient,
    "dual_hessian": dual_hessian,
    "exponential_density": exponential_density,
}


@pytest.mark.parametrize("lam", [[], [0.1], [0.1, 0.2, 0.3], [[0.1, 0.2]]],
                         ids=["none", "too few", "too many", "a matrix"])
@pytest.mark.parametrize("name", DUAL_MAPS)
def test_dual_maps_reject_a_multiplier_vector_of_the_wrong_shape(name, lam):
    support = Support.discrete([0.0, 0.5, 1.0])
    specs = [_mean_spec(0.6), ConstraintSpec.equality(ConstraintFunction.power(2), 0.4)]
    with pytest.raises(ValidationError, match="one multiplier per constraint function"):
        DUAL_MAPS[name](support, specs, np.array(lam))


# Multipliers are integers or floats: strings, bools and None are not
# converted.
@pytest.mark.parametrize("values", [["0.5"], [True], [None], np.array(["0.5"]),
                                    [[0.5], 2.0]])
@pytest.mark.parametrize("name", DUAL_MAPS)
def test_the_dual_maps_take_real_multipliers_only(name, values):
    s = Support.continuous(0.0, 1.0, 64)
    with pytest.raises(ValidationError, match="^multipliers must be real numbers$"):
        DUAL_MAPS[name](s, [_mean_spec(0.5)], values)


# Finite, checked before the table and the kernel: no numpy warning, and
# before the count of multipliers.
@pytest.mark.parametrize("values", [[math.nan], [math.inf], [-math.inf], [0.5, math.nan]])
@pytest.mark.parametrize("name", DUAL_MAPS)
def test_the_dual_maps_take_finite_multipliers_only(name, values):
    s = Support.continuous(0.0, 1.0, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^multipliers must be finite$"):
            DUAL_MAPS[name](s, [_mean_spec(0.5)], values)


def test_log_partition_checks_the_multipliers_before_the_functions():
    s = Support.continuous(0.0, 1.0, 64)
    with pytest.raises(ValidationError, match="^multipliers must be finite$"):
        log_partition(s, [None], [math.nan])


@pytest.mark.parametrize("name", DUAL_MAPS)
def test_the_dual_maps_take_integer_multipliers(name):
    s = Support.continuous(0.0, 1.0, 64)
    got = DUAL_MAPS[name](s, [_mean_spec(0.5)], [1])
    assert np.array_equal(got, DUAL_MAPS[name](s, [_mean_spec(0.5)], [1.0]))


# Members that are not constraints are named, not left to an AttributeError.
_NOT_A_CONSTRAINT = {
    "dual_value": lambda s, sol: dual_value(s, [None], [0.0]),
    "dual_gradient": lambda s, sol: dual_gradient(s, [None], [0.0]),
    "dual_hessian": lambda s, sol: dual_hessian(s, [None], [0.0]),
    "exponential_density": lambda s, sol: exponential_density(s, [None], [0.0]),
    "log_partition": lambda s, sol: log_partition(s, [None], [0.0]),
    "moments": lambda s, sol: moments(sol, [None]),
    "classify_family": lambda s, sol: classify_family([None]),
    "MaxEntSolution": lambda s, sol: dataclasses.replace(sol, constraints=[None]),
}


@pytest.mark.parametrize("name", _NOT_A_CONSTRAINT)
def test_a_member_that_is_not_a_constraint_is_named(name):
    support = Support.discrete([0.0, 0.5, 1.0])
    sol = solve_equality(support, [_mean_spec(0.6)])
    with pytest.raises(ValidationError) as err:
        _NOT_A_CONSTRAINT[name](support, sol)
    assert str(err.value) in ("constraint 0: not a ConstraintSpec",
                              "constraint function 0: not a ConstraintFunction")


# A constraint list that cannot be iterated is an input error that names it.
_NOT_ITERABLE = {
    "solve_equality": lambda s, sol: solve_equality(s, 5),
    "solve_interval": lambda s, sol: solve_interval(s, None),
    "dual_value": lambda s, sol: dual_value(s, None, [0.0]),
    "exponential_density": lambda s, sol: exponential_density(s, 5, [0.0]),
    "log_partition": lambda s, sol: log_partition(s, None, [0.0]),
    "moments": lambda s, sol: moments(sol, None),
    "classify_family": lambda s, sol: classify_family(5),
    "MaxEntSolution": lambda s, sol: dataclasses.replace(sol, constraints=5),
}


@pytest.mark.parametrize("name", _NOT_ITERABLE)
def test_a_constraint_list_that_cannot_be_iterated_is_named(name):
    support = Support.discrete([0.0, 0.5, 1.0])
    sol = solve_equality(support, [_mean_spec(0.6)])
    with pytest.raises(ValidationError) as err:
        _NOT_ITERABLE[name](support, sol)
    assert str(err.value) in ("constraints 5 are not iterable",
                              "constraints None are not iterable",
                              "constraint functions None are not iterable")


def test_constraint_functions_may_be_any_iterable():
    support = Support.continuous(0.0, 1.0, 64)
    sol = solve_equality(support, [_mean_spec(0.4)])
    functions = [ConstraintFunction.power(1), ConstraintFunction.power(2)]
    assert moments(sol, iter(functions)).tobytes() == moments(sol, functions).tobytes()
    lam = [0.5, -0.25]
    assert log_partition(support, iter(functions), lam) == log_partition(
        support, functions, lam
    )


# -------------------------------------------------------------- infeasible

@pytest.mark.parametrize("target", [-0.5, 0.0, 1.0, 2.0])
def test_mean_outside_open_range_is_infeasible(target):
    with pytest.raises(InfeasibleError, match=f"target {target:g} .* strictly inside"):
        solve_equality(Support.discrete([0.0, 1.0]), [_mean_spec(target)])


def test_constant_constraint_function_is_infeasible():
    # An indicator covering the whole support pins nothing.
    spec = ConstraintSpec.equality(ConstraintFunction.indicator(0.0, 1.0), 0.9)
    with pytest.raises(InfeasibleError, match="constant on the support"):
        solve_equality(Support.continuous(0.0, 1.0, 64), [spec])


def test_barely_attainable_target_fails_loudly():
    # Inside the open node range but so close to the edge that the density
    # underflows at the far nodes: must raise, not return garbage.
    s = Support.continuous(0.0, 1.0, 64)
    lowest = float(np.min(s.nodes))
    with pytest.raises(InfeasibleError):
        solve_equality(s, [_mean_spec(lowest * 1.001)], SolveOptions(max_iter=400))


# ------------------------------------------------------------- interval

def test_slack_interval_keeps_uniform():
    spec = ConstraintSpec.interval(ConstraintFunction.power(1), 0.4, 0.6)
    sol = solve_interval(Support.continuous(0.0, 1.0, 128), [spec])
    assert sol.active_bounds == ("slack",)
    assert sol.multipliers[0] == 0.0
    assert np.max(np.abs(sol.density - 1.0)) < 1e-12
    assert sol.residuals[0] == 0.0


def test_lower_bound_activates():
    spec = ConstraintSpec.interval(ConstraintFunction.power(1), 0.7, 0.9)
    sol = solve_interval(Support.discrete([0.0, 1.0]), [spec])
    assert sol.active_bounds == ("lo",)
    assert np.max(np.abs(sol.density - [0.3, 0.7])) < 1e-10
    assert sol.multipliers[0] == pytest.approx(-math.log(7.0 / 3.0), abs=1e-10)


def test_upper_bound_activates():
    spec = ConstraintSpec.interval(ConstraintFunction.power(1), 0.1, 0.3)
    sol = solve_interval(Support.discrete([0.0, 1.0]), [spec])
    assert sol.active_bounds == ("hi",)
    assert np.max(np.abs(sol.density - [0.7, 0.3])) < 1e-10


def test_degenerate_interval_matches_equality():
    support = Support.continuous(0.0, 5.0, 256)
    eq = solve_equality(support, [_mean_spec(1.0)])
    iv = solve_interval(
        support, [ConstraintSpec.interval(ConstraintFunction.power(1), 1.0, 1.0)]
    )
    assert np.max(np.abs(eq.density - iv.density)) < 1e-8
    assert abs(eq.multipliers[0] - iv.multipliers[0]) < 1e-6


def test_mixed_equality_and_interval():
    support = Support.continuous(-2.0, 2.0, 512)
    specs = [
        _mean_spec(0.0),
        ConstraintSpec.interval(ConstraintFunction.power(2), 0.2, 3.0),
    ]
    sol = solve_interval(support, specs)
    assert sol.active_bounds[0] == "eq"
    # The uniform-with-mean-zero solution has variance 4/3, inside the band.
    assert sol.active_bounds[1] == "slack"
    assert sol.multipliers[1] == 0.0
    mom = moments(sol, [s.function for s in specs])
    assert abs(mom[0]) < 1e-8
    assert 0.2 - 1e-8 <= mom[1] <= 3.0 + 1e-8


def test_active_interval_multiplier_sign_is_consistent():
    # Pushing the mean up from the free optimum needs a negative multiplier
    # on the lower bound; pushing it down needs a positive one on the upper.
    lo = solve_interval(
        Support.continuous(0.0, 1.0, 128),
        [ConstraintSpec.interval(ConstraintFunction.power(1), 0.7, 0.9)],
    )
    assert lo.active_bounds == ("lo",)
    assert lo.multipliers[0] < 0.0
    hi = solve_interval(
        Support.continuous(0.0, 1.0, 128),
        [ConstraintSpec.interval(ConstraintFunction.power(1), 0.1, 0.3)],
    )
    assert hi.active_bounds == ("hi",)
    assert hi.multipliers[0] > 0.0


def test_bounds_pinned_together_need_not_be_jointly_attainable():
    # From the uniform density all four lower bounds are violated, but
    # pinning E[x] = 0.808 and E[x^2] = 0.6425 together asks for a negative
    # variance.  Only the first and the last bind at the optimum.
    brackets = [
        (0.8082667863234827, 0.8737501367884588),
        (0.6425187916500261, 0.8434680151736358),
        (0.6173155955437142, 0.7508804191694859),
        (0.5647161882184031, 0.7127038976191468),
    ]
    specs = [
        ConstraintSpec.interval(ConstraintFunction.power(k), lo, hi)
        for k, (lo, hi) in enumerate(brackets, start=1)
    ]
    sol = solve_interval(Support.continuous(0.0, 1.0, 1024), specs)
    assert sol.active_bounds == ("lo", "slack", "slack", "lo")
    mom = moments(sol, [s.function for s in specs])
    for m, (lo, hi) in zip(mom, brackets):
        assert lo - 1e-8 <= m <= hi + 1e-8


def test_a_pinned_bound_that_stops_binding_is_released():
    # Both lower bounds are violated at the uniform density, and the two
    # together ask for a negative variance.  E[x] >= 4.2 binds alone: the
    # multiplier of E[x^2] must end at exactly zero.
    specs = [
        ConstraintSpec.interval(ConstraintFunction.power(1), 4.2, 4.5),
        ConstraintSpec.interval(ConstraintFunction.power(2), 17.2, 21.5),
    ]
    sol = solve_interval(Support.continuous(0.0, 5.0, 1024), specs)
    assert sol.active_bounds == ("lo", "slack")
    assert sol.multipliers[0] < 0.0 and sol.multipliers[1] == 0.0
    mom = moments(sol, [s.function for s in specs])
    assert abs(mom[0] - 4.2) <= 1e-8
    assert 17.2 <= mom[1] <= 21.5


def test_diagnostics_count_ratio_test_stops_and_halvings():
    # The pinned-bound problem above releases E[x^2] through a ratio-test
    # stop; this indicator target (one row on three atoms, so not a
    # determined problem) takes damped steps.
    specs = [
        ConstraintSpec.interval(ConstraintFunction.power(1), 4.2, 4.5),
        ConstraintSpec.interval(ConstraintFunction.power(2), 17.2, 21.5),
    ]
    d = solve_interval(Support.continuous(0.0, 5.0, 1024), specs).diagnostics
    assert d.ratio_stops >= 1
    d = solve_equality(
        Support.continuous(0.0, 1.0, 128), [_indicator_spec(0.2, 0.3, 0.99)]
    ).diagnostics
    assert d.atoms == 3 and d.halvings >= 1 and d.ratio_stops == 0
    d = solve_equality(Support.continuous(0.0, 1.0, 128), [_mean_spec(0.5)]).diagnostics
    assert (d.halvings, d.ratio_stops) == (0, 0)


# Values that make ties: a moment at a bound, multipliers of +0.0 and -0.0,
# lo == hi, a ratio of exactly 1 or shared by two rows, a direction of 0.
_TIES = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])
_VALUES = _TIES | st.floats(1e-3, 3.0) | st.floats(-3.0, -1e-3)


@st.composite
def _bracket_steps(draw):
    m = draw(st.integers(1, 6))
    rows = []
    for _ in range(m):
        lo, hi = sorted([draw(_VALUES), draw(_VALUES)])
        mom = draw(st.sampled_from([lo, hi]) | _VALUES)
        rows.append((draw(_VALUES), mom, lo, hi, draw(_VALUES)))
    return [np.array(col) for col in zip(*rows)]


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_bracket_steps())
def test_scalar_bracket_bookkeeping_matches_the_vectorised_rule(step_inputs):
    lam, mom, lo, hi, direction = step_inputs
    m = len(lam)
    # The oracle: the vectorised expressions the Newton step used to run.
    bracket = lo < hi
    low, high = np.where(lam > 0.0, hi, lo), np.where(lam < 0.0, lo, hi)
    g = np.clip(mom, low, high) - mom
    at_zero = bracket & (lam == 0.0)
    inside = at_zero & (g == 0.0)
    rows = ~inside
    zero_rows = at_zero[rows]
    step_rows = direction[rows]
    away = zero_rows & (step_rows * g[rows] > 0.0)
    ratio = np.full(m, np.inf)
    crossing = bracket & (lam * direction < 0.0)
    ratio[crossing] = -lam[crossing] / direction[crossing]
    step = min(1.0, float(ratio.min()))

    g_list, kept, zero = _bracket_rows(
        lam.tolist(), mom.tolist(), lo.tolist(), hi.tolist(), bracket.tolist()
    )
    assert np.array(g_list).tobytes() == g.tobytes()
    assert kept == np.flatnonzero(rows).tolist()
    assert zero == np.flatnonzero(zero_rows).tolist()
    leaving = _leaving(zero, step_rows.tolist(), g[rows].tolist())
    assert leaving == np.flatnonzero(away).tolist()
    got_step, stops = _ratio_test(lam.tolist(), direction.tolist(), bracket.tolist())
    assert np.float64(got_step).tobytes() == np.float64(step).tobytes()
    assert stops == np.flatnonzero(ratio <= step).tolist()


_FAULTS_PER_SOLVE = textwrap.dedent("""
    import resource, statistics
    from maxentutil import ConstraintFunction as F, ConstraintSpec as S
    from maxentutil import Support, solve_interval
    support = Support.continuous(0.0, 1.0, 8192)
    specs = [
        S.interval(F.power(1), 0.30, 0.35), S.interval(F.power(2), 0.15, 0.2),
        S.equality(F.power(3), 0.08), S.interval(F.power(4), 0.01, 0.2),
        S.interval(F.indicator(0.2, 0.6), 0.3, 0.5),
    ]
    faults = []
    for _ in range(3 + 25):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        solve_interval(support, specs)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(statistics.median(faults[3:]))
""")


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="measures glibc's allocator"
)
def test_a_bracket_solve_does_not_fault_in_its_pages_every_step():
    # glibc hands blocks as large as Newton's m x n temporaries back to the
    # OS when they are freed, so a step that allocates them faults them in
    # again.  This 8-step solve on 8192 nodes took a median 848 minor faults
    # when every step allocated them, and takes 258 with one workspace per
    # solve (glibc 2.36, numpy 2.4).
    res = subprocess.run(
        [sys.executable, "-c", _FAULTS_PER_SOLVE],
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    assert float(res.stdout) < 500


def test_a_multiplier_near_zero_does_not_zig_zag():
    # Projecting each trial onto the multipliers' signs zig-zags here at a
    # near-zero multiplier; on the Newton direction with a ratio test the
    # solve converges.  The expected multipliers are those an active-set
    # solve (one bound pinned per pass) finds.
    power = ConstraintFunction.power
    specs = [
        _power_spec(1, 0.8973105358010705),
        _power_spec(2, 0.8397799741875639),
        ConstraintSpec.interval(power(3), 0.7004916875609075, 0.8374575199504822),
        _power_spec(4, 0.7572634196837966),
        ConstraintSpec.interval(power(5), 0.6768284105976351, 0.8468078226823708),
        ConstraintSpec.interval(power(6), 0.6832377082208193, 0.8293944745529324),
        ConstraintSpec.interval(
            ConstraintFunction.indicator(0.0214639, 0.826223),
            0.12851471898163974,
            0.16947958169161445,
        ),
    ]
    sol = solve_interval(Support.continuous(0.0, 1.0, 128), specs)
    assert sol.active_bounds == (
        "eq", "eq", "slack", "eq", "slack", "slack", "lo",
    )
    expected = [2.516642, -0.472675, 0.0, -6.816841, 0.0, 0.0, -0.065940]
    np.testing.assert_allclose(sol.multipliers, expected, rtol=0.0, atol=1e-6)


def test_bracket_missed_within_tol_stays_slack():
    spec = ConstraintSpec.interval(ConstraintFunction.power(1), 0.4, 0.5 - 1e-10)
    sol = solve_interval(Support.discrete([0.0, 1.0]), [spec])
    assert sol.active_bounds == ("slack",)
    assert sol.multipliers[0] == 0.0


def test_interval_residuals_report_signed_violation_or_zero():
    spec = ConstraintSpec.interval(ConstraintFunction.power(1), 0.7, 0.9)
    sol = solve_interval(Support.discrete([0.0, 1.0]), [spec])
    # Bound met to solver tolerance: the signed residual is tiny.
    assert abs(sol.residuals[0]) <= 1e-9


def test_interval_range_checked_upfront():
    spec = ConstraintSpec.interval(ConstraintFunction.power(1), 2.0, 3.0)
    with pytest.raises(InfeasibleError, match=r"interval \[2, 3\] .* cannot intersect"):
        solve_interval(Support.discrete([0.0, 1.0]), [spec])


@pytest.mark.parametrize("target", [0.2, 0.7])
def test_a_bracket_of_one_point_solves_as_the_equality(target):
    s = Support.continuous(0.0, 1.0, 256)
    power = ConstraintFunction.power(1)
    eq = solve_interval(s, [ConstraintSpec.equality(power, target)])
    pinned = solve_interval(s, [ConstraintSpec.interval(power, target, target)])
    assert pinned.multipliers.tobytes() == eq.multipliers.tobytes()
    assert pinned.residuals == eq.residuals
    assert eq.active_bounds == ("eq",)
    # Labelled by the multiplier's sign: a mean below 1/2 pins the upper
    # bound (positive multiplier), one above it the lower bound.
    assert pinned.active_bounds == ("hi" if target < 0.5 else "lo",)


# ---------------------------------------------------------------- moments

def test_moments_of_uniform_solutions():
    sol = solve_equality(Support.continuous(0.0, 1.0, 256), [])
    vals = moments(sol, [ConstraintFunction.power(1), ConstraintFunction.power(2)])
    assert vals[0] == pytest.approx(0.5, abs=1e-12)
    assert vals[1] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_solver_options_validate():
    from maxentutil.core import ValidationError

    with pytest.raises(ValidationError):
        SolveOptions(tol=-1.0)
    with pytest.raises(ValidationError):
        SolveOptions(max_iter=0)
    for tol in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="tol must be positive and finite"):
            SolveOptions(tol=tol)
    for max_iter in (2.5, True):
        with pytest.raises(ValidationError, match="max_iter must be an integer"):
            SolveOptions(max_iter=max_iter)
