"""The solve does not depend on the units of its outcomes.

E[x^k] = b s^k on [0, s] is E[y^k] = b on [0, 1] with x = s y: the density
is p(y)/s and the multiplier s^-k lam.  Newton works in each row's own unit,
a power of two near its spread, so the problem on [0, s] takes the steps it
takes on [0, 1] for every s whose s^k is a double, and meets the same
solution to rounding.

s is a power of two, 2^-996 to 2^996 (about 1e-300 to 1e300), so that the
grid on [0, s] is exactly s times the grid on [0, 1] and every difference
is the solve's.  For other s the nodes differ by up to about 1e-14
relative (each is mid + hw * xi of its panel), which a multiplier near 30
carries to about 1e-12 in the density.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from maxentutil.core import ConstraintFunction, ConstraintSpec, Support
from maxentutil.solver import SolveOptions, solve_equality

NODES = 64


@st.composite
def scaled_problems(draw):
    """(s, k, b): s = 2^e with s^k in [2^-996, 2^996], and b inside the
    range (0, 1) of E[y^k], up to 1.8 times its uniform mean 1/(k + 1)."""
    k = draw(st.integers(1, 8))
    e = draw(st.integers(-996 // k, 996 // k))
    return 2.0**e, k, draw(st.floats(0.02, 0.9)) * 2.0 / (k + 1)


def _solve(s, k, b):
    support = Support.continuous(0.0, s, NODES)
    spec = ConstraintSpec.equality(ConstraintFunction.power(k), b * s**k)
    return solve_equality(support, [spec], SolveOptions(tol=1e-8 * s**k))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(scaled_problems())
# Each failed when Newton worked in the caller's units: an overflow in the
# covariance, or a covariance below the doubles and a singular Hessian.
@example((2.0**332, 2, 0.4))  # about 1e100
@example((2.0**-332, 2, 0.4))
@example((2.0**-996, 1, 0.4))  # about 1e-300
@example((2.0**996, 1, 0.7))
def test_a_power_row_solves_alike_in_any_units(problem):
    s, k, b = problem
    unit, scaled = _solve(1.0, k, b), _solve(s, k, b)
    assert scaled.diagnostics.iterations == unit.diagnostics.iterations
    # A multiplier near zero is compared absolutely, and the density's far
    # tail, exp(-lam) of its peak and less, relative to the peak.
    np.testing.assert_allclose(scaled.multipliers * s**k, unit.multipliers,
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(scaled.density * s, unit.density,
                               rtol=1e-12, atol=1e-12 * unit.density.max())
