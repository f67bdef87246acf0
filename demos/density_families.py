"""Classic maximum-entropy densities from moment information.

Three solves on the same pattern: say what you know as moment constraints,
get back the least-informative density consistent with it.  No information
gives the uniform density; a mean gives a truncated exponential; a mean
plus a variance gives a truncated Gaussian.
"""

import numpy as np

from maxentutil import (
    ConstraintFunction,
    ConstraintSpec,
    Support,
    solve_equality,
)


def describe(title, sol):
    print(f"\n{title}")
    print(f"  iterations     {sol.diagnostics.iterations}")
    print(f"  log partition  {sol.log_partition:+.6f}")
    print(f"  entropy        {sol.entropy:+.6f} nats")
    for j, (m, spec) in enumerate(zip(sol.multipliers, sol.constraints)):
        print(
            f"  multiplier[{j}]  {m:+.6f}   "
            f"(target {spec.equals:g}, residual {sol.residuals[j]:+.1e})"
        )


def sketch(support, density, height=8):
    """Tiny console profile of a density over its support."""
    cols = 64
    edges = np.linspace(support.lower, support.upper, cols + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    level = np.interp(mids, support.nodes, density)
    level = np.round(level / level.max() * height).astype(int)
    for row in range(height, 0, -1):
        print("  " + "".join("#" if lv >= row else " " for lv in level))
    print(f"  {support.lower:<8g}{'':>48}{support.upper:>8g}")


def main():
    support = Support.continuous(0.0, 5.0, 512)

    sol = solve_equality(support, [])
    describe("No constraints: uniform on [0, 5]", sol)
    sketch(support, sol.density)

    mean = ConstraintSpec.equality(ConstraintFunction.power(1), 1.0)
    sol = solve_equality(support, [mean])
    describe("Mean pinned at 1: truncated exponential", sol)
    sketch(support, sol.density)

    sym = Support.continuous(-4.0, 4.0, 512)
    specs = [
        ConstraintSpec.equality(ConstraintFunction.power(1), 0.0),
        ConstraintSpec.equality(ConstraintFunction.power(2), 1.0),
    ]
    sol = solve_equality(sym, specs)
    describe("Mean 0, variance 1 on [-4, 4]: truncated Gaussian", sol)
    sketch(sym, sol.density)

    # The Gaussian multiplier on x^2 approaches 1/(2 sigma^2) = 0.5 as the
    # support widens; on [-4, 4] the truncation still shows in digit four.
    print(f"\n  second multiplier vs 0.5: {sol.multipliers[1] - 0.5:+.2e}")


if __name__ == "__main__":
    main()
