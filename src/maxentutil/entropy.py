"""Shannon entropy of masses, densities, and utility increments.

Discrete entropy is -sum p_i log p_i with the convention 0 log 0 = 0;
differential entropy replaces the sum with a quadrature integral on the
support's grid.  Each is taken in nats; :meth:`EntropyValue.in_base` is the
one conversion to bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import Support, ValidationError, _density_on, _finite, _masses

if TYPE_CHECKING:
    from numpy.typing import NDArray

__all__ = [
    "EntropyValue",
    "discrete_entropy",
    "differential_entropy",
    "entropy_of_increments",
    "ZERO_MASS_FLOOR",
]

#: Masses below this are treated as exact zeros inside p log p.
ZERO_MASS_FLOOR = 1e-300

_BASES = ("natural", "base2")


@dataclass(frozen=True)
class EntropyValue:
    """An entropy together with the logarithm base it was taken in."""

    value: float
    base: str = "natural"

    def __post_init__(self) -> None:
        if self.base not in _BASES:
            raise ValidationError(f"entropy base must be one of {_BASES}")
        if not _finite(self.value):
            raise ValidationError("entropy value must be a finite real number")

    def in_base(self, base: str) -> "EntropyValue":
        if base == self.base:
            return self
        if base == "base2":
            return EntropyValue(self.value / math.log(2.0), base)
        return EntropyValue(self.value * math.log(2.0), base)


def _neg_xlogx(p: NDArray[np.float64]) -> NDArray[np.float64]:
    """-p log p per entry, in one pass: an entry at or below the floor takes
    log 1 and comes out as a zero, -0.0 where p > 0.  Adding -0.0 leaves
    any value unchanged, so every sum of these equals that of exact zeros.
    The product and its sign are taken in the log's own buffer: -(log p * p)
    rounds as (-p) * log p does."""
    out = np.log(np.where(p > ZERO_MASS_FLOOR, p, 1.0))
    return np.negative(np.multiply(out, p, out=out), out=out)


def _finish(value: float) -> EntropyValue:
    # Round-off can push a mathematically non-negative sum a hair below 0.
    if -1e-12 < value < 0.0:
        value = 0.0
    return EntropyValue(value)


def discrete_entropy(masses: Sequence[float] | NDArray[np.float64]) -> EntropyValue:
    """Entropy -sum p log p of a probability mass vector.

    The masses must be non-negative and sum to 1 within 1e-9.  The sum is
    returned as computed (the input is not renormalized).
    """
    p = _masses(masses, "masses", 1e-9)
    return _finish(float(_neg_xlogx(p).sum()))


def differential_entropy(
    density: NDArray[np.float64], support: Support
) -> EntropyValue:
    """Entropy -integral p log p of a density tabulated on a continuous grid.

    Above p = 1, |p log p| grows with p, so the density's largest value
    decides whether every -p log p is a finite double; one that is not
    raises ValidationError naming that value.
    """
    if not support.is_continuous:
        raise ValidationError("differential entropy needs a continuous support")
    p, high = _density_on(support, density)
    if high > 1.0 and not math.isfinite(float(high) * float(np.log(high))):
        raise ValidationError(
            f"the density's largest value {float(high)!r} is too large: its "
            "-p log p overflows a double"
        )
    return _finish(support.integrate(_neg_xlogx(p)))


def entropy_of_increments(increments) -> EntropyValue:
    """Entropy of a utility increment vector.

    Increments form a probability vector (non-negative, summing to 1), so
    their spread is measured exactly like a discrete distribution.  Accepts
    a UtilityIncrementVector or any plain sequence of increments.
    """
    arr = getattr(increments, "increments", increments)
    return discrete_entropy(arr)
