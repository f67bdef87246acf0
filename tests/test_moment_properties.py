"""Property tests of moment problems whose targets are known to be feasible.

Hypothesis draws a positive density q on a quadrature grid and takes its
power moments E_q[x^k], k = 1..m, as targets (equalities) or as centres of
brackets (intervals).  The interval suite also draws some rows as
equalities, and may add a bracket on the mass of a run of nodes.  Every draw
is feasible because q meets it, so every solve must succeed and meet each
target within the residual tolerance.

It must also carry at least q's entropy.  For p = exp(-log Z - lam . h),
Gibbs' inequality gives

    H(q) <= -E_q[log p] = H(p) + sum_j lam_j (E_q[h_j] - E_p[h_j]).

At the maximum-entropy density a positive lam_j pins E_p[h_j] to its upper
bound and a negative one to its lower bound, which E_q[h_j] cannot pass, so
each term is at most |lam_j| times the distance of E_p[h_j] from the bound
its sign names.  The oracle computes moments and entropies with numpy alone.

The tolerance is DEFAULT_TOL_CONTINUOUS relative to the largest target:
E[x^8] on [0, 5] is near 4e4, and at the returned multipliers the exact
exponential density misses it by up to 2.6e-7, which is rounding of the
multipliers themselves (an absolute 1e-8 there asks for 2.5e-13 relative).
"""

import numpy as np
from hypothesis import given, strategies as st

from maxentutil.core import ConstraintFunction, ConstraintSpec, Support
from maxentutil.solver import (
    DEFAULT_TOL_CONTINUOUS,
    SolveOptions,
    solve_equality,
    solve_interval,
)

from test_assessment_properties import DOMAINS, NODES, PROPERTY_SETTINGS, spaced_shares

POWERS = [ConstraintFunction.power(k) for k in range(1, 9)]


@st.composite
def generating_densities(draw):
    """A grid and a positive density on it: log q is piecewise linear
    through 2-10 equispaced knots with heights in [-4, 4]."""
    a, b = draw(st.sampled_from(DOMAINS))
    support = Support.continuous(a, b, draw(st.sampled_from(NODES)))
    heights = draw(st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=10))
    knots = np.linspace(a, b, len(heights))
    q = np.exp(np.interp(support.nodes, knots, heights))
    return support, q / (support.weights @ q)


@st.composite
def moment_problems(draw):
    support, q = draw(generating_densities())
    m = draw(st.integers(1, 8))
    H = support.nodes[None, :] ** np.arange(1, m + 1)[:, None]
    return support, q, H, H @ (support.weights * q)


def _entropy(support, density):
    return -float((support.weights * density) @ np.log(density))


def _tolerance(targets):
    return DEFAULT_TOL_CONTINUOUS * max(1.0, float(np.max(np.abs(targets))))


def _check(support, q, H, sol, lo, hi, tol):
    p, lam = sol.density, sol.multipliers
    assert np.all(p > 0.0)
    moment = H @ (support.weights * p)
    assert np.all(moment >= lo - tol)
    assert np.all(moment <= hi + tol)
    assert np.max(np.abs(sol.residuals)) <= tol

    bound = np.where(lam > 0.0, hi, lo)
    rounding = 1e-13 * np.maximum(1.0, np.abs(bound))
    gibbs = float(np.abs(lam) @ (np.abs(moment - bound) + rounding)) + 1e-12
    assert _entropy(support, q) <= _entropy(support, p) + gibbs


@PROPERTY_SETTINGS
@given(moment_problems())
def test_equality_moments_of_a_positive_density_solve(problem):
    support, q, H, targets = problem
    specs = [
        ConstraintSpec.equality(fn, float(t)) for fn, t in zip(POWERS, targets)
    ]
    tol = _tolerance(targets)
    sol = solve_equality(support, specs, SolveOptions(tol=tol))
    _check(support, q, H, sol, targets, targets, tol)


@PROPERTY_SETTINGS
@given(moment_problems(), st.data())
def test_interval_moments_of_a_positive_density_solve(problem, data):
    support, q, H, targets = problem
    functions = POWERS[: len(targets)]
    if data.draw(st.booleans()):
        # A bracket on the mass of the nodes i..j, never the whole grid.
        x, n = support.nodes, support.n
        i = data.draw(st.integers(0, n - 2))
        j = data.draw(st.integers(i + 1, n - 1 if i > 0 else n - 2))
        functions = functions + [ConstraintFunction.indicator(x[i], x[j])]
        row = ((x >= x[i]) & (x <= x[j])).astype(np.float64)
        H = np.vstack([H, row])
        targets = np.append(targets, row @ (support.weights * q))
    sd = np.sqrt(H**2 @ (support.weights * q) - targets**2)
    # Each bracket reaches 0-0.5 standard deviations of q to either side;
    # a row drawn as an equality is a bracket of zero width.
    share = st.floats(0.0, 0.5)
    m = len(targets)
    pairs = st.lists(st.tuples(share, share), min_size=m, max_size=m)
    widths = np.array(data.draw(pairs))
    equal = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    widths[equal] = 0.0
    lo = targets - widths[:, 0] * sd
    hi = targets + widths[:, 1] * sd
    specs = [
        ConstraintSpec.equality(fn, float(t))
        if e
        else ConstraintSpec.interval(fn, float(l), float(h))
        for fn, t, e, l, h in zip(functions, targets, equal, lo, hi)
    ]
    tol = _tolerance(targets)
    sol = solve_interval(support, specs, SolveOptions(tol=tol))
    _check(support, q, H, sol, lo, hi, tol)


@st.composite
def determined_problems(draw):
    """A discrete support cut into m + 1 runs of points by m nested
    indicators, from the first point to midway past run j, and drawn
    positive masses on the runs, with the indicators' means as targets."""
    a, b = draw(st.sampled_from(DOMAINS))
    n = draw(st.integers(3, 12))
    support = Support.discrete(a + (b - a) * draw(spaced_shares(n)))
    # Some run has two points or more: points that merge nothing take no
    # exact step.
    m = draw(st.integers(1, min(n - 2, 5)))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=m, max_size=m,
                                unique=True)))
    q = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=m + 1, max_size=m + 1)))
    q /= q.sum()
    x = support.nodes
    specs = [
        ConstraintSpec.equality(ConstraintFunction.indicator(x[0], (x[c - 1] + x[c]) / 2), float(t))
        for c, t in zip(cuts, np.cumsum(q))
    ]
    runs = np.diff([0, *cuts, n])
    return support, specs, np.repeat(q / runs, runs)


@PROPERTY_SETTINGS
@given(determined_problems())
def test_determined_indicators_solve_in_one_exact_step(problem):
    # m targets on m + 1 runs fix the runs' masses, and the masses fix the
    # multipliers: Newton's one step lands on them (it takes none when the
    # uniform start already meets the targets).
    support, specs, expected = problem
    sol = solve_equality(support, specs)
    assert sol.diagnostics.atoms == len(specs) + 1
    assert sol.diagnostics.iterations <= 1 and sol.diagnostics.halvings == 0
    np.testing.assert_allclose(sol.density, expected, rtol=1e-12)
