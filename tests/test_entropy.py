import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxentutil.core import Support, ValidationError
from maxentutil.entropy import (
    ZERO_MASS_FLOOR,
    EntropyValue,
    _neg_xlogx,
    differential_entropy,
    discrete_entropy,
    entropy_of_increments,
)

# Hand-checked reference values.
#   -(0.25 ln 0.25 + 0.75 ln 0.75)
H_QUARTER = 0.5623351446188083


def _h(masses, base="natural") -> float:
    return discrete_entropy(masses).in_base(base).value


def _hd(density, support, base="natural") -> float:
    return differential_entropy(density, support).in_base(base).value


def _hi(increments, base="natural") -> float:
    return entropy_of_increments(increments).in_base(base).value


def test_fair_coin_entropy():
    assert _h([0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-15)
    assert _h([0.5, 0.5], base="base2") == pytest.approx(1.0, abs=1e-15)


def test_degenerate_distribution_has_zero_entropy():
    assert _h([1.0, 0.0, 0.0]) == 0.0
    assert _h([0.0, 1.0], base="base2") == 0.0


def test_skewed_coin_matches_frozen_value():
    masses = np.array([0.25, 0.75])
    fresh = -np.sum(masses * np.log(masses))
    assert abs(fresh - H_QUARTER) < 1e-15
    assert _h(masses) == pytest.approx(H_QUARTER, abs=1e-15)


def test_uniform_discrete_entropy_is_log_n():
    for n in range(2, 12):
        h = _h(np.full(n, 1.0 / n))
        assert abs(h - math.log(n)) < 1e-12


def test_uniform_maximizes__h():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = rng.integers(2, 9)
        p = rng.dirichlet(np.ones(n))
        assert _h(p) <= math.log(n) + 1e-12


def test_near_uniform_stays_strictly_below_log_n():
    # A 1e-5 perturbation must lose measurably more than the 1e-12 slack
    # that the uniform vector itself is allowed.
    p = np.array([0.25 + 1e-5, 0.25 - 1e-5, 0.25, 0.25])
    assert _h(p) < math.log(4.0) - 1e-12


def test_entropy_additivity_for_product_distributions():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = rng.dirichlet(np.ones(rng.integers(2, 6)))
        q = rng.dirichlet(np.ones(rng.integers(2, 6)))
        joint = np.outer(p, q).ravel()
        total = _h(p) + _h(q)
        assert abs(_h(joint) - total) < 1e-12


@pytest.mark.parametrize(
    "masses",
    [[], [0.5], [0.5, 0.6], [0.5, -0.1, 0.6], [0.5, np.nan]],
)
def test_discrete_entropy_rejects_bad_masses(masses):
    with pytest.raises(ValidationError):
        _h(masses)


# Masses are integers or floats: strings and bools are not converted.
@pytest.mark.parametrize(
    "masses",
    [["0.5", "0.5"], [True, False], np.array([True, False]), [None, 1.0],
     [0.5 + 0j, 0.5], [[0.5], [0.25, 0.25]]],
)
def test_discrete_entropy_takes_integers_and_floats_only(masses):
    with pytest.raises(ValidationError, match="^masses must be real numbers$"):
        _h(masses)


def test_discrete_entropy_takes_integer_masses():
    assert _h([0, 1]) == 0.0
    assert _h(np.array([1], dtype=np.uint8)) == 0.0


def test_discrete_entropy_does_not_renormalize():
    # Off by more than the 1e-9 mass gate: reject, never silently rescale.
    with pytest.raises(ValidationError, match="sum"):
        _h([0.3, 0.69])


# ------------------------------------------------------------- differential

def test_uniform_density_has_log_width_entropy():
    for a, b in [(0.0, 1.0), (0.0, 2.0), (-3.0, -2.5)]:
        s = Support.continuous(a, b, 128)
        p = np.full(s.n, 1.0 / (b - a))
        assert abs(_hd(p, s) - math.log(b - a)) < 1e-12


def test_differential_entropy_can_be_negative():
    s = Support.continuous(0.0, 0.5, 128)
    h = _hd(np.full(s.n, 2.0), s)
    assert h == pytest.approx(-math.log(2.0), abs=1e-12)


def test_differential_entropy_translation_invariance():
    rng = np.random.default_rng(23)
    s0 = Support.continuous(0.0, 1.5, 256)
    raw = np.exp(rng.normal(size=s0.n))
    p = raw / s0.integrate(raw)
    h0 = _hd(p, s0)
    for shift in (-4.0, 0.25, 3.0):
        s1 = Support.continuous(shift, 1.5 + shift, 256)
        assert abs(_hd(p, s1) - h0) < 1e-12


def test_differential_entropy_scaling_law():
    rng = np.random.default_rng(29)
    s0 = Support.continuous(0.5, 2.0, 256)
    raw = 0.1 + rng.random(s0.n)
    p = raw / s0.integrate(raw)
    h0 = _hd(p, s0)
    for c in (0.25, 2.0, 7.5):
        s1 = Support.continuous(0.5 * c, 2.0 * c, 256)
        assert abs(_hd(p / c, s1) - (h0 + math.log(c))) < 1e-8


def test_differential_entropy_requires_unit_mass():
    s = Support.continuous(0.0, 1.0, 64)
    with pytest.raises(ValidationError, match="integrates"):
        _hd(np.full(s.n, 1.01), s)


@pytest.mark.parametrize(
    "density", [np.ones(128, dtype=bool), ["1"] * 128, [None] * 128]
)
def test_differential_entropy_takes_integers_and_floats_only(density):
    s = Support.continuous(0.0, 1.0, 128)
    with pytest.raises(ValidationError, match="^density values must be real numbers$"):
        differential_entropy(density, s)


def test_differential_entropy_rejects_discrete_support():
    with pytest.raises(ValidationError):
        _hd(np.array([0.5, 0.5]), Support.discrete([0.0, 1.0]))


def test_zero_density_regions_contribute_nothing():
    s = Support.continuous(0.0, 1.0, 1024)
    mid = s.panel_edges[16]
    p = np.where(s.nodes <= mid, 1.0 / mid, 0.0)
    expected = math.log(mid)
    assert abs(_hd(p, s) - expected) < 1e-10


def _masked_neg_xlogx(p):
    """-p log p on the entries above the floor, exact zeros elsewhere."""
    out = np.zeros_like(p)
    big = p > ZERO_MASS_FLOOR
    out[big] = -p[big] * np.log(p[big])
    return out


_MASSES = st.one_of(
    st.just(0.0),
    st.floats(0.0, ZERO_MASS_FLOOR),
    st.floats(0.0, np.finfo(np.float64).tiny, exclude_max=True),  # subnormals
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e3),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(_MASSES, min_size=1, max_size=64))
def test_neg_xlogx_matches_the_masked_formula(masses):
    p = np.array(masses)
    got, want = _neg_xlogx(p), _masked_neg_xlogx(p)
    # Equal entry by entry; a masked entry may come out as -0.0.
    assert np.array_equal(got, want)
    nonzero = want != 0.0
    assert got[nonzero].tobytes() == want[nonzero].tobytes()
    assert got.sum().tobytes() == want.sum().tobytes()


# --------------------------------------------------------------- increments

def test_increment_entropy_examples():
    assert _hi([0.25, 0.25, 0.25, 0.25]) == pytest.approx(
        math.log(4.0), abs=1e-15
    )
    assert _hi([1.0]) == 0.0
    assert _hi([0.25, 0.75]) == pytest.approx(
        H_QUARTER, abs=1e-15
    )


def test_increment_entropy_accepts_increment_vectors():
    from maxentutil.utility import UtilityIncrementVector

    vec = UtilityIncrementVector(np.array([0.5, 0.5]))
    assert _hi(vec) == pytest.approx(math.log(2.0), abs=1e-15)


# -------------------------------------------------------------- unit labels

def test_entropy_value_base_conversion():
    nats = EntropyValue(math.log(2.0), "natural")
    assert nats.in_base("base2").value == pytest.approx(1.0, abs=1e-15)
    assert nats.in_base("natural") is nats
    bits = EntropyValue(3.0, "base2")
    assert bits.in_base("natural").value == pytest.approx(3.0 * math.log(2.0))


@pytest.mark.parametrize("value", ["x", True, None, math.inf, 10**400],
                         ids=["str", "bool", "None", "inf", "int-beyond-float"])
def test_entropy_value_takes_finite_real_numbers_only(value):
    with pytest.raises(ValidationError, match="entropy value must be a finite real"):
        EntropyValue(value)


def test_entropy_value_rejects_unknown_base():
    with pytest.raises(ValidationError):
        EntropyValue(1.0, "base3")
    for convert in (
        lambda: EntropyValue(1.0).in_base("base3"),
        lambda: EntropyValue(1.0, "base2").in_base("base3"),
        lambda: _h([0.5, 0.5], base="base3"),
        lambda: _hd(np.ones(64), Support.continuous(0.0, 1.0, 64), base="base3"),
    ):
        with pytest.raises(ValidationError, match="entropy base must be one of"):
            convert()


@pytest.mark.parametrize("b,n", [(1e-304, 64), (4e-306, 64)])
def test_an_overflowing_neg_p_log_p_is_named_without_a_warning(b, n):
    # Almost all the mass on the first 1e-306 of the domain: the density
    # there is near (b / 1e-306) / b, above 1e305, and its -p log p
    # overflows.  Only the largest value is tested, so no warning is raised.
    support = Support.continuous(0.0, b, n)
    p = np.where(support.nodes < 1e-306, 1.0, 1e-3)
    p /= support.integrate(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as info:
            differential_entropy(p, support)
    assert str(info.value) == (f"the density's largest value {float(p.max())!r} is too "
                               "large: its -p log p overflows a double")


def test_a_density_just_below_the_overflow_has_a_finite_entropy():
    # The uniform density on the narrowest domain the width rule takes: its
    # -p log p is finite, and so is the entropy.
    support = Support.continuous(0.0, 4e-306, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = differential_entropy(np.full(64, 1.0 / 4e-306), support).value
    assert h == pytest.approx(math.log(4e-306), rel=1e-12)
