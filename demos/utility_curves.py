"""Utility functions as cumulative maximum-entropy densities.

A normalized utility curve U on [a, b] runs from 0 to 1 and never
decreases, so its derivative behaves exactly like a probability density.
Solving for the maximum-entropy density under moment constraints and
integrating it back up yields the least-committal utility function that
honors the stated information.
"""

import numpy as np

from maxentutil import (
    ConstraintFunction,
    ConstraintSpec,
    Support,
    classify_family,
    maxent_utility,
)


def show_curve(label, curve, constraints):
    family = classify_family(constraints)
    print(f"\n{label}   [family: {family}]")
    xs = np.linspace(curve.support.lower, curve.support.upper, 9)
    us = np.asarray(curve.evaluate(xs))
    print("  x:", "  ".join(f"{x:7.3f}" for x in xs))
    print("  U:", "  ".join(f"{u:7.4f}" for u in us))


def main():
    support = Support.continuous(0.0, 1.0, 512)

    curve, sol = maxent_utility(support, [])
    show_curve("No information: linear (risk neutral)", curve, sol.constraints)

    mean = [ConstraintSpec.equality(ConstraintFunction.power(1), 0.35)]
    curve, sol = maxent_utility(support, mean)
    show_curve("E[x] = 0.35: exponential density, concave utility", curve,
               sol.constraints)
    print(f"  multiplier {sol.multipliers[0]:+.4f} > 0 means risk aversion")

    both = [
        ConstraintSpec.equality(ConstraintFunction.power(1), 0.5),
        ConstraintSpec.equality(ConstraintFunction.power(2), 0.3),
    ]
    curve, sol = maxent_utility(support, both)
    show_curve("Mean and second moment: S-shaped utility", curve, sol.constraints)
    u = sol.density
    mode = support.nodes[int(np.argmax(u))]
    print(f"  density peaks at x = {mode:.3f}; the curve inflects there")

    # Interval information works too: the bound only binds if it has to.
    band = [ConstraintSpec.interval(ConstraintFunction.power(1), 0.30, 0.45)]
    curve, sol = maxent_utility(support, band)
    show_curve("E[x] in [0.30, 0.45]: lower bound inactive, upper active",
               curve, sol.constraints)
    print(f"  active bounds: {sol.active_bounds}")


if __name__ == "__main__":
    main()
