"""Every later use of a solution, on the solutions of each solve path.

A solution is copied with ``dataclasses.replace``, its dual is evaluated
again at its own multipliers, and it is turned into a utility curve and a
risk profile.  The profiling harness takes these paths after its timed
loop; here they run in-process on one solution of each kind.
"""

import dataclasses

import numpy as np
import pytest

from maxentutil.core import ConstraintFunction, ConstraintSpec, Support, exponential_density
from maxentutil.risk import risk_aversion_analytic
from maxentutil.solver import (
    dual_gradient, dual_hessian, log_partition, solve_equality, solve_interval,
)
from maxentutil.utility import density_to_curve, maxent_utility_from_assessments


def _power(degree, lo, hi=None):
    f = ConstraintFunction.power(degree)
    return ConstraintSpec.equality(f, lo) if hi is None else ConstraintSpec.interval(f, lo, hi)


def _solutions():
    s = Support.continuous(0.0, 1.0, 256)
    return {
        "equality": solve_equality(s, [_power(1, 0.3), _power(2, 0.15)]),
        "slack bracket": solve_interval(s, [_power(1, 0.4, 0.6)]),
        "pinned bracket": solve_interval(s, [_power(1, 0.1, 0.2), _power(2, 0.0, 0.9)]),
        "assessed": maxent_utility_from_assessments(s, [(0.25, 0.5), (0.6, 0.8)])[1],
    }


SOLUTIONS = _solutions()


def test_the_solutions_cover_slack_and_pinned_brackets():
    assert SOLUTIONS["slack bracket"].active_bounds == ("slack",)
    assert SOLUTIONS["pinned bracket"].active_bounds == ("hi", "slack")


@pytest.mark.parametrize("kind", sorted(SOLUTIONS))
def test_solution_paths(kind, monkeypatch):
    sol = SOLUTIONS[kind]
    copy = dataclasses.replace(sol)
    assert copy.density.tobytes() == sol.density.tobytes()

    functions = [spec.function for spec in sol.constraints]
    # One evaluation serves the solution and the dual maps: at the
    # solution's own multipliers they agree with it bit for bit.
    lz = log_partition(sol.support, functions, sol.multipliers)
    assert lz == sol.log_partition
    density = exponential_density(sol.support, sol.constraints, sol.multipliers)
    assert density.tobytes() == sol.density.tobytes()
    if all(spec.is_equality for spec in sol.constraints):
        grad = dual_gradient(sol.support, sol.constraints, sol.multipliers)
        assert grad.tobytes() == (-np.array(sol.residuals)).tobytes()
    hess = dual_hessian(sol.support, sol.constraints, sol.multipliers)
    assert hess.shape == (len(functions),) * 2
    assert np.linalg.eigvalsh(hess).min() > 0.0

    calls = []
    cumulative = Support.cumulative

    def counted(self, values):
        calls.append(1)
        return cumulative(self, values)

    monkeypatch.setattr(Support, "cumulative", counted)
    curve = density_to_curve(sol.density, sol.support)
    assert len(calls) == 1
    assert curve.support is sol.support
    assert curve.edge_curve[0] == 0.0 and curve.edge_curve[-1] == 1.0
    assert np.all(np.diff(curve.curve) >= 0.0)
    assert np.max(np.abs(curve.density - sol.density)) < 1e-12

    profile = risk_aversion_analytic(sol)
    assert profile.terms.shape == (len(functions), len(profile.gamma))
