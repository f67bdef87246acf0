"""The uniform start a grid keeps for each set of power degrees.

A solve on a grid that other solves have used ("warm") must give the same
bits as one on a fresh grid ("cold"): its solution, its diagnostics and its
failures alike.  The start is kept only for power rows, holds no m x n
array, and lives and dies with its support.
"""

import dataclasses
import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxentutil import solver
from maxentutil.core import (
    ConstraintFunction,
    ConstraintSpec,
    MaxentError,
    Support,
    _exponential_form,
    _feature_matrix,
)
from maxentutil.solver import SolveOptions, solve_equality, solve_interval

#: The benchmark's continuous domains.
INTERVALS = [(0.0, 1.0), (-1.0, 1.0), (0.0, 2.0), (0.0, 5.0)]


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def _outcome(solve, support, specs, options=SolveOptions()):
    """Everything a solve returns or raises, as comparable bytes and strings."""
    try:
        sol = solve(support, specs, options)
    except MaxentError as exc:
        return type(exc).__name__, str(exc)
    d = sol.diagnostics
    return (
        _bits(sol.density), _bits(sol.multipliers), _bits(sol.log_partition),
        _bits(sol.entropy), _bits(sol.residuals), sol.active_bounds,
        d.iterations, _bits(d.grad_max_norm), d.atoms, _bits(d.dual_trace),
        d.halvings, d.ratio_stops,
    )


@st.composite
def grids(draw):
    """The parameters of a continuous grid (16-256 nodes on a benchmark
    domain) or of a discrete support (4-64 jittered points on [0, 1]); a
    fresh support is built from them every time."""
    if draw(st.booleans()):
        (a, b), n = draw(st.sampled_from(INTERVALS)), draw(st.integers(16, 256))
        return lambda: Support.continuous(a, b, n)
    k = draw(st.integers(4, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = ((np.arange(k) + rng.uniform(0.0, 1.0, k)) / k).tolist()
    return lambda: Support.discrete(points)


@st.composite
def power_problems(draw, support):
    """1-8 power degrees, with equality and bracket targets taken from a
    drawn exponential-family density of those powers (each row scaled to a
    largest magnitude of 1 in its exponent)."""
    degrees = draw(st.lists(st.integers(1, 8), min_size=1, max_size=8, unique=True))
    x, w = support.nodes, support.weights
    H = np.array([x ** d for d in degrees])
    scale = np.abs(H).max(axis=1)
    theta = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=len(degrees),
                                   max_size=len(degrees))))
    q = np.exp(-(theta / scale) @ H)
    q /= w @ q
    targets = H @ (w * q)
    sd = np.sqrt(np.maximum(H ** 2 @ (w * q) - targets ** 2, 0.0))
    specs = []
    for d, t, s in zip(degrees, targets.tolist(), sd.tolist()):
        fn = ConstraintFunction.power(d)
        if draw(st.booleans()):
            specs.append(ConstraintSpec.equality(fn, t))
        else:
            lo, hi = draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 0.5))
            specs.append(ConstraintSpec.interval(fn, t - lo * s, t + hi * s))
    solve = solve_equality if all(s.is_equality for s in specs) else solve_interval
    return solve, specs


@settings(derandomize=True, deadline=None, max_examples=150)
@given(grids(), st.data())
def test_a_warm_grid_solves_bit_for_bit_as_a_fresh_one(grid, data):
    shape = grid()
    problems = [data.draw(power_problems(shape)) for _ in range(data.draw(st.integers(2, 4)))]
    cold = [_outcome(solve, grid(), specs) for solve, specs in problems]
    # One grid for every problem, each solved twice in turn: the second
    # round reads the starts that the first round kept.
    shared = grid()
    for _ in range(2):
        for (solve, specs), want in zip(problems, cold):
            assert _outcome(solve, shared, specs) == want
    assert set(shared._uniform_starts) == {
        tuple(s.function.degree for s in specs) for _, specs in problems
    }


def _powers(*targets):
    return [ConstraintSpec.equality(ConstraintFunction.power(k + 1), t)
            for k, t in enumerate(targets)]


@pytest.mark.parametrize(
    "targets, options, cause, newton",
    [
        # Each target inside its range, but jointly they ask for a negative
        # variance: the multipliers diverge until the density underflows.
        ((0.9, 0.5), SolveOptions(), solver._UNDERFLOW, True),
        ((0.3,), SolveOptions(max_iter=1), "no convergence to tolerance 1e-08", True),
        # Outside the range: named before Newton, from the kept range.
        ((1.5,), SolveOptions(), "target 1.5 for power 1 does not lie", False),
    ],
    ids=["unattainable", "max_iter=1", "out of range"],
)
def test_a_warm_grid_fails_as_a_fresh_one(targets, options, cause, newton):
    grid = lambda: Support.continuous(0.0, 1.0, 1024)  # noqa: E731
    specs = _powers(*targets)
    cold = _outcome(solve_equality, grid(), specs, options)
    assert cold[0] == "InfeasibleError" and cold[1].startswith(cause)
    assert ("\nat Newton step " in cold[1]) == newton
    shared = grid()
    solve_equality(shared, _powers(*(0.4, 0.2)[: len(targets)]))
    assert _outcome(solve_equality, shared, specs, options) == cold
    # And again after another set of powers used the grid.
    solve_equality(shared, _powers(0.45, 0.25, 0.15))
    assert _outcome(solve_equality, shared, specs, options) == cold


def test_a_singular_first_hessian_fails_warm_as_cold(monkeypatch):
    calls = []

    def zero(*args):
        calls.append(args)
        return np.zeros((2, 2))

    monkeypatch.setattr(solver, "_covariance", zero)
    support, specs = Support.continuous(0.0, 1.0, 128), _powers(0.3, 0.2)
    cold = _outcome(solve_equality, support, specs)
    assert cold == ("InfeasibleError", solver._SINGULAR + "\nat Newton step 0: "
                    "gradient max-norm 0.2, multipliers [0, 0]")
    # The grid kept the fact that the first Hessian is singular.
    assert _outcome(solve_equality, support, specs) == cold
    assert len(calls) == 1


# ------------------------------------------------------ the first factor
# Newton's first step reads the kept Hessian and factor whenever every row
# enters it, brackets or not: at zero, that covariance reads no target.


def _brackets(*bounds):
    return [ConstraintSpec.interval(ConstraintFunction.power(k + 1), lo, hi)
            for k, (lo, hi) in enumerate(bounds)]


#: Brackets on powers 1 and 2 on [0, 1], where the uniform density has
#: E[x] = 1/2 and E[x^2] = 1/3.  Both rows violated, and both in the step.
EVERY_ROW = _brackets((0.4, 0.45), (0.36, 0.4))
#: Both violated, but the first step would carry the second row's
#: multiplier off its side, so the step holds it (its ``s`` goes to zero).
HELD_BY_ITS_STEP = _brackets((0.55, 0.6), (0.36, 0.4))
#: The mean is inside its bracket at zero: that row stays out of the step.
HELD_SLACK = _brackets((0.45, 0.55), (0.36, 0.4))


def _counted_covariances(monkeypatch):
    calls = []
    covariance = solver._covariance

    def counted(*args):
        calls.append(args[3])  # the rows
        return covariance(*args)

    monkeypatch.setattr(solver, "_covariance", counted)
    return calls


def test_a_bracket_solve_with_every_row_in_its_first_step_fills_the_factor(monkeypatch):
    support = Support.continuous(0.0, 1.0, 256)
    calls = _counted_covariances(monkeypatch)
    assert solve_interval(support, EVERY_ROW).active_bounds == ("hi", "lo")
    assert calls[0] is None
    hess, (s, inv) = support._uniform_starts[(1, 2)].first
    assert hess.shape == inv.shape == (2, 2) and s.shape == (2,)
    # A later equality solve of the same powers forms no covariance at zero,
    # only one per later step; on a fresh grid it forms one per step.
    specs = _powers(0.45, 0.25)
    calls.clear()
    cold = _outcome(solve_equality, Support.continuous(0.0, 1.0, 256), specs)
    steps = cold[6]
    assert steps > 1 and len(calls) == steps
    calls.clear()
    assert _outcome(solve_equality, support, specs) == cold
    assert len(calls) == steps - 1
    assert support._uniform_starts[(1, 2)].first[0] is hess


@pytest.mark.parametrize("held", [HELD_BY_ITS_STEP, HELD_SLACK],
                         ids=["by its step", "slack"])
def test_a_bracket_solve_that_holds_a_row_leaves_the_kept_factor_as_it_was(
    monkeypatch, held
):
    cold = _outcome(solve_interval, Support.continuous(0.0, 1.0, 256), held)
    support = Support.continuous(0.0, 1.0, 256)
    solve_equality(support, _powers(0.45, 0.25))
    hess, (s, inv) = support._uniform_starts[(1, 2)].first
    before = [a.tobytes() for a in (hess, s, inv)]
    leaving, away = solver._leaving, []

    def recorded(*args):
        away.append(leaving(*args))
        return away[-1]

    monkeypatch.setattr(solver, "_leaving", recorded)
    calls = _counted_covariances(monkeypatch)
    assert _outcome(solve_interval, support, held) == cold
    if held is HELD_BY_ITS_STEP:
        # The first step read the kept factor and held row 1 off it.
        assert away[0] == [1] and len(calls) == cold[6] - 1
    else:
        # A fresh covariance of the one row in the first step.
        assert calls[0] == [1] and len(calls) == cold[6]
    assert [a.tobytes() for a in (hess, s, inv)] == before
    assert support._uniform_starts[(1, 2)].first[0] is hess


def _kept_masses(support):
    """(w exp(-log Z), the kernel's w p at zero) for each start the support
    keeps, on its centred atom rows."""
    for degrees, start in support._uniform_starts.items():
        H = _feature_matrix(support, [ConstraintFunction.power(d) for d in degrees])
        Ha = H if start.atoms is None else H[:, start.atoms]
        Hc = Ha / start.unit[:, None] - start.center[:, None]
        w = start.wa
        p = _exponential_form(Hc, w, np.zeros(len(degrees)))[1]
        yield (w * math.exp(-start.log_z)).tobytes(), (w * p).tobytes()


@pytest.mark.parametrize("a, b", INTERVALS)
def test_the_masses_at_zero_are_the_kernels_on_the_benchmark_intervals(a, b):
    support = Support.continuous(a, b)
    x, w = support.nodes, support.weights / (b - a)
    for degrees in [(1,), (1, 2), (2, 3), (1, 2, 3, 4)]:
        moments = [float(w @ (0.9 * x + 0.1 * a) ** d) for d in degrees]
        specs = [ConstraintSpec.equality(ConstraintFunction.power(d), t)
                 for d, t in zip(degrees, moments)]
        solve_equality(support, specs)
        solve_interval(support, [ConstraintSpec.interval(
            s.function, *sorted((0.9 * s.equals, 0.95 * s.equals))) for s in specs])
    assert len(support._uniform_starts) == 4
    for derived, kernel in _kept_masses(support):
        assert derived == kernel


def test_the_masses_at_zero_are_the_kernels_on_merged_atoms():
    support = Support.discrete([-2.0, -1.0, 1.0, 2.0])
    solve_equality(support, [ConstraintSpec.equality(ConstraintFunction.power(2), 2.0)])
    start = support._uniform_starts[(2,)]
    assert start.atoms.tolist() == [0, 1, 3]  # x^2 is 1 at both -1 and 1
    assert start.wa.tolist() == [1.0, 2.0, 1.0]
    [(derived, kernel)] = _kept_masses(support)
    assert derived == kernel


# ------------------------------------------------------- scope and lifetime

_MEAN = ConstraintFunction.power(1)


@pytest.mark.parametrize(
    "other",
    [ConstraintFunction.indicator(0.0, 0.5),
     ConstraintFunction.tabulated(np.linspace(0.0, 1.0, 128) ** 0.5)],
    ids=["indicator", "tabulated"],
)
def test_a_set_with_an_indicator_or_a_tabulated_row_keeps_no_start(other):
    support = Support.continuous(0.0, 1.0, 128)
    target = float(other.tabulate(support) @ support.weights) * 0.9
    solve_equality(support, [ConstraintSpec.equality(_MEAN, 0.45),
                             ConstraintSpec.equality(other, target)])
    assert support._uniform_starts == {}


def _arrays(values):
    for value in values:
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):
            yield from _arrays(value)


@pytest.mark.parametrize(
    "support",
    [Support.continuous(0.0, 5.0, 1024), Support.discrete([-1.0, 0.0, 1.0, 2.0, 3.0])],
    ids=["grid", "points"],
)
def test_a_start_holds_no_m_by_n_array(support):
    m, w = 3, support.weights / support.weights.sum()
    specs = _powers(*(0.9 * w @ support.nodes ** k for k in range(1, m + 1)))
    solve_equality(support, specs)
    # A bracket problem of the same powers reuses the start.
    solve_interval(support, [ConstraintSpec.interval(s.function, 0.95 * s.equals,
                                                     1.05 * s.equals) for s in specs])
    start = support._uniform_starts[(1, 2, 3)]
    assert start.first[1]  # filled by the equality problem
    # No columns merge, so the atom weights are the grid's own.
    assert start.wa is support.weights
    shapes = [a.shape for a in _arrays(vars(start).values()) if a is not start.wa]
    assert (m, m) in shapes
    assert all(s in ((m,), (m, m)) for s in shapes), shapes


def test_equal_distinct_and_replaced_supports_start_cold():
    support = Support.continuous(0.0, 1.0, 128)
    solve_equality(support, _powers(0.3))
    for other in (Support.continuous(0.0, 1.0, 128), dataclasses.replace(support)):
        assert other == support and other is not support
        assert "_uniform_starts" not in vars(other)
        assert other._uniform_starts == {}


def test_the_memo_leaves_equality_hash_and_repr_as_they_were():
    support, fresh = Support.continuous(0.0, 2.0, 64), Support.continuous(0.0, 2.0, 64)
    before = repr(support)
    solve_equality(support, _powers(1.2))
    assert support._uniform_starts
    assert support == fresh and hash(support) == hash(fresh)
    assert repr(support) == before == repr(fresh)
    assert [f.name for f in dataclasses.fields(Support)] == ["kind", "a", "b", "n", "points"]


def test_a_dropped_support_is_collected_with_its_starts():
    support = Support.continuous(0.0, 1.0, 64)
    solve_equality(support, _powers(0.3, 0.2))
    start = support._uniform_starts[(1, 2)]
    refs = [weakref.ref(a) for a in (support, start, start.mom, start.first[0])]
    del support, start
    # The feature-matrix owner holds the support of its last call until the next.
    solve_equality(Support.discrete([0.0, 1.0]), [])
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4


def test_threads_on_one_grid_give_the_serial_bytes():
    grid = lambda: Support.continuous(0.0, 1.0, 256)  # noqa: E731
    # Equalities, and brackets on powers 1 and 2 whose first step takes
    # every row from the kept factor, holds a row off it, or holds a slack
    # row: every thread but the last two shares the start of powers 1, 2.
    problems = [
        (solve_equality, _powers(0.45, 0.25)), (solve_interval, EVERY_ROW),
        (solve_interval, HELD_BY_ITS_STEP), (solve_interval, HELD_SLACK),
        (solve_equality, _powers(0.55)), (solve_equality, _powers(0.5, 0.3, 0.2)),
    ]
    want = [_outcome(solve, grid(), specs) for solve, specs in problems]
    assert all(isinstance(outcome[0], bytes) for outcome in want)
    shared, barrier = grid(), threading.Barrier(len(problems))
    got = [[] for _ in problems]

    def worker(i):
        barrier.wait()
        solve, specs = problems[i]
        for _ in range(25):
            got[i].append(_outcome(solve, shared, specs))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(problems))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the solves
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for outcomes, expected in zip(got, want):
        assert outcomes == [expected] * 25
