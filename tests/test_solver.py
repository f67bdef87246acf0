import collections
import dataclasses
import decimal
import math
import platform
import re
import subprocess
import sys
import textwrap

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
    exponential_density,
    validate_problem,
)
from maxentutil import solver
from maxentutil.solver import (
    SolveOptions,
    _bracket_rows,
    _leaving,
    _newton,
    _ratio_test,
    dual_gradient,
    dual_hessian,
    dual_state,
    dual_value,
    log_partition,
    moments,
    solve_equality,
    solve_interval,
)
from maxentutil.utility import maxent_utility_from_assessments

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
    assert abs(sol.diagnostics.residuals[0]) <= 1e-9


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
    assert abs(sol.diagnostics.residuals[0]) <= 1e-8
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
    assert np.array_equal(sol.rebuild_density(), sol.density)


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
    assert pinned.diagnostics.active_bounds[0] == "hi"
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


def _solved_fields():
    """A solved problem's fields and its feature matrix, as the solver hands
    them to MaxEntSolution."""
    specs = [_mean_spec(1.2), ConstraintSpec.equality(ConstraintFunction.power(2), 2.5)]
    sol = solve_equality(Support.continuous(0.0, 5.0, 256), specs)
    fields = {f.name: getattr(sol, f.name) for f in dataclasses.fields(sol)}
    return fields, validate_problem(sol.support, sol.constraints).features


def test_solver_style_construction_rejects_a_density_off_by_one_part_in_1e9():
    fields, H = _solved_fields()
    MaxEntSolution(**fields, features=H)
    density = np.array(fields["density"])
    density[100] *= 1.0 + 1e-9
    with pytest.raises(ValidationError, match="multipliers"):
        MaxEntSolution(**{**fields, "density": density}, features=H)


def test_solution_checks_against_the_passed_feature_matrix():
    fields, H = _solved_fields()
    swapped = np.ascontiguousarray(H[::-1])
    with pytest.raises(ValidationError, match="multipliers"):
        MaxEntSolution(**fields, features=swapped)


@pytest.mark.parametrize("shape", ["transposed", "extra row", "short row", "flat"])
def test_solution_rejects_a_feature_matrix_of_the_wrong_shape(shape):
    fields, H = _solved_fields()
    bad = {
        "transposed": H.T,
        "extra row": np.vstack([H, H[:1]]),
        "short row": H[:, :-1],
        "flat": H.ravel(),
    }[shape]
    with pytest.raises(ValidationError, match="one row per constraint"):
        MaxEntSolution(**fields, features=bad)


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
    assert np.max(np.abs(sol.diagnostics.residuals)) <= 1e-9
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


def test_a_stalled_line_search_names_where_newton_stopped(monkeypatch):
    # A kernel whose log Z is NaN at every trial: no step is ever accepted.
    kernel, calls = solver._dual_kernel, []

    def nan_after_the_start(H, w, lam):
        lz, p = kernel(H, w, lam)
        calls.append(lam)
        return (lz if len(calls) == 1 else math.nan), p

    monkeypatch.setattr(solver, "_dual_kernel", nan_after_the_start)
    with pytest.raises(InfeasibleError) as excinfo:
        solve_equality(Support.continuous(0.0, 1.0, 128), [_mean_spec(0.3)])
    steps, gnorm, lam = _newton_failure(
        excinfo, "line search stalled; the problem is infeasible or unbounded"
    )
    assert (steps, lam) == (0, [0.0])
    assert gnorm == pytest.approx(0.2)


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
    from zero."""
    H = validate_problem(sol.support, sol.constraints).features
    w = sol.support.weights
    center = (H @ w) / float(w.sum())
    Hc = H - center[:, None]
    lo, hi = np.array(
        [(s.equals, s.equals) if s.is_equality else s.bounds for s in sol.constraints]
    ).T
    return _newton(
        Hc, w, lo - center, hi - center, np.zeros(len(lo)),
        np.abs(Hc).max(axis=1), SolveOptions().resolve_tol(sol.support), 200,
    )[0]


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
    np.testing.assert_allclose(sol.multipliers, _full_grid_multipliers(sol), rtol=1e-12)


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


# ---------------------------------------------------------------- dual maps

def test_dual_gradient_matches_finite_differences():
    rng = np.random.default_rng(41)
    support = Support.continuous(0.0, 2.0, 128)
    specs = [
        ConstraintSpec.equality(ConstraintFunction.power(1), 0.9),
        ConstraintSpec.equality(ConstraintFunction.power(2), 1.1),
    ]
    for _ in range(10):
        lam = rng.normal(scale=0.7, size=2)
        grad = dual_gradient(support, specs, lam)
        eps = 1e-6
        for j in range(2):
            step = np.zeros(2)
            step[j] = eps
            fd = (
                dual_value(support, specs, lam + step)
                - dual_value(support, specs, lam - step)
            ) / (2.0 * eps)
            denom = max(1.0, abs(fd))
            assert abs(grad[j] - fd) / denom < 1e-6


def test_dual_hessian_matches_finite_differences_and_is_psd():
    rng = np.random.default_rng(43)
    support = Support.discrete([0.0, 0.5, 1.2, 2.0])
    specs = [
        ConstraintSpec.equality(ConstraintFunction.power(1), 1.0),
        ConstraintSpec.equality(ConstraintFunction.power(3), 1.5),
    ]
    for _ in range(10):
        lam = rng.normal(scale=0.5, size=2)
        hess = dual_hessian(support, specs, lam)
        assert np.array_equal(hess, hess.T)
        assert np.min(np.linalg.eigvalsh(hess)) >= -1e-10
        eps = 1e-5
        for j in range(2):
            step = np.zeros(2)
            step[j] = eps
            fd = (
                dual_gradient(support, specs, lam + step)
                - dual_gradient(support, specs, lam - step)
            ) / (2.0 * eps)
            assert np.max(np.abs(hess[:, j] - fd)) < 1e-5


def test_dual_state_bundles_the_three_maps():
    support = Support.discrete([0.0, 1.0])
    specs = [_mean_spec(0.75)]
    state = dual_state(support, specs, np.array([0.0]))
    assert state.gradient[0] == pytest.approx(0.25, abs=1e-15)
    assert state.hessian[0, 0] == pytest.approx(0.25, abs=1e-15)


DUAL_MAPS = {
    "log_partition": lambda sup, specs, lam: log_partition(
        sup, [s.function for s in specs], lam
    ),
    "dual_value": dual_value,
    "dual_gradient": dual_gradient,
    "dual_hessian": dual_hessian,
    "dual_state": dual_state,
    "exponential_density": lambda sup, specs, lam: exponential_density(
        sup, specs, lam, 0.0
    ),
}


@pytest.mark.parametrize("lam", [[], [0.1], [0.1, 0.2, 0.3], [[0.1, 0.2]]],
                         ids=["none", "too few", "too many", "a matrix"])
@pytest.mark.parametrize("name", DUAL_MAPS)
def test_dual_maps_reject_a_multiplier_vector_of_the_wrong_shape(name, lam):
    support = Support.discrete([0.0, 0.5, 1.0])
    specs = [_mean_spec(0.6), ConstraintSpec.equality(ConstraintFunction.power(2), 0.4)]
    with pytest.raises(ValidationError, match="one multiplier per constraint function"):
        DUAL_MAPS[name](support, specs, np.array(lam))


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
    assert sol.diagnostics.active_bounds == ("slack",)
    assert sol.multipliers[0] == 0.0
    assert np.max(np.abs(sol.density - 1.0)) < 1e-12
    assert sol.diagnostics.residuals[0] == 0.0


def test_lower_bound_activates():
    spec = ConstraintSpec.interval(ConstraintFunction.power(1), 0.7, 0.9)
    sol = solve_interval(Support.discrete([0.0, 1.0]), [spec])
    assert sol.diagnostics.active_bounds == ("lo",)
    assert np.max(np.abs(sol.density - [0.3, 0.7])) < 1e-10
    assert sol.multipliers[0] == pytest.approx(-math.log(7.0 / 3.0), abs=1e-10)


def test_upper_bound_activates():
    spec = ConstraintSpec.interval(ConstraintFunction.power(1), 0.1, 0.3)
    sol = solve_interval(Support.discrete([0.0, 1.0]), [spec])
    assert sol.diagnostics.active_bounds == ("hi",)
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
    assert sol.diagnostics.active_bounds[0] == "eq"
    # The uniform-with-mean-zero solution has variance 4/3, inside the band.
    assert sol.diagnostics.active_bounds[1] == "slack"
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
    assert lo.diagnostics.active_bounds == ("lo",)
    assert lo.multipliers[0] < 0.0
    hi = solve_interval(
        Support.continuous(0.0, 1.0, 128),
        [ConstraintSpec.interval(ConstraintFunction.power(1), 0.1, 0.3)],
    )
    assert hi.diagnostics.active_bounds == ("hi",)
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
    assert sol.diagnostics.active_bounds == ("lo", "slack", "slack", "lo")
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
    assert sol.diagnostics.active_bounds == ("lo", "slack")
    assert sol.multipliers[0] < 0.0 and sol.multipliers[1] == 0.0
    mom = moments(sol, [s.function for s in specs])
    assert abs(mom[0] - 4.2) <= 1e-8
    assert 17.2 <= mom[1] <= 21.5


def test_diagnostics_count_ratio_test_stops_and_halvings():
    # The pinned-bound problem above releases E[x^2] through a ratio-test
    # stop; this indicator target takes damped steps.
    specs = [
        ConstraintSpec.interval(ConstraintFunction.power(1), 4.2, 4.5),
        ConstraintSpec.interval(ConstraintFunction.power(2), 17.2, 21.5),
    ]
    d = solve_interval(Support.continuous(0.0, 5.0, 1024), specs).diagnostics
    assert d.ratio_stops >= 1
    d = solve_equality(
        Support.continuous(0.0, 1.0, 128), [_indicator_spec(0.0, 0.1, 0.99)]
    ).diagnostics
    assert d.halvings >= 1 and d.ratio_stops == 0
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
    assert sol.diagnostics.active_bounds == (
        "eq", "eq", "slack", "eq", "slack", "slack", "lo",
    )
    expected = [2.516642, -0.472675, 0.0, -6.816841, 0.0, 0.0, -0.065940]
    np.testing.assert_allclose(sol.multipliers, expected, rtol=0.0, atol=1e-6)


def test_bracket_missed_within_tol_stays_slack():
    spec = ConstraintSpec.interval(ConstraintFunction.power(1), 0.4, 0.5 - 1e-10)
    sol = solve_interval(Support.discrete([0.0, 1.0]), [spec])
    assert sol.diagnostics.active_bounds == ("slack",)
    assert sol.multipliers[0] == 0.0


def test_interval_residuals_report_signed_violation_or_zero():
    spec = ConstraintSpec.interval(ConstraintFunction.power(1), 0.7, 0.9)
    sol = solve_interval(Support.discrete([0.0, 1.0]), [spec])
    # Bound met to solver tolerance: the signed residual is tiny.
    assert abs(sol.diagnostics.residuals[0]) <= 1e-9


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
    assert pinned.diagnostics.residuals == eq.diagnostics.residuals
    assert eq.diagnostics.active_bounds == ("eq",)
    # Labelled by the multiplier's sign: a mean below 1/2 pins the upper
    # bound (positive multiplier), one above it the lower bound.
    assert pinned.diagnostics.active_bounds == ("hi" if target < 0.5 else "lo",)


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
