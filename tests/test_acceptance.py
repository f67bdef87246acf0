"""Acceptance gate: twelve end-to-end checks, one printed line apiece.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines
as they happen; without ``-s`` pytest shows them for failing criteria only.
Each criterion is oracle- or property-based and runs in well under five
seconds.
"""

import math
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy.optimize import bisect

from maxentutil.core import ConstraintFunction, ConstraintSpec, Support
from maxentutil.entropy import differential_entropy, entropy_of_increments
from maxentutil.risk import risk_aversion_analytic, risk_aversion_numeric
from maxentutil.solver import (
    dual_gradient,
    dual_hessian,
    dual_value,
    solve_equality,
)
from maxentutil.utility import (
    density_to_curve,
    maxent_utility,
    maxent_utility_from_assessments,
    utility_volume,
)

from golden_compare import assert_matches_golden

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({label}): FAIL")
        raise
    print(f"criterion {number:2d} ({label}): PASS")


def _eq(fn: ConstraintFunction, value: float) -> ConstraintSpec:
    return ConstraintSpec.equality(fn, value)


def test_criterion_01_uniform_limit():
    with criterion(1, "uniform limit"):
        for n in range(2, 11):
            points = np.linspace(0.0, 1.0, n)
            sol = solve_equality(Support.discrete(points), [])
            assert np.max(np.abs(sol.density - 1.0 / n)) <= 1e-12
            assert abs(sol.entropy - math.log(n)) <= 1e-12


def test_criterion_02_exponential_family():
    with criterion(2, "exponential family"):
        # Closed-form mean of exp(-l x)/Z on [0, 5]: 1/l - 5/(e^(5l) - 1).
        def mean_minus_one(lam: float) -> float:
            return 1.0 / lam - 5.0 / math.expm1(5.0 * lam) - 1.0

        oracle = bisect(mean_minus_one, 0.5, 1.5, xtol=1e-13)
        sol = solve_equality(
            Support.continuous(0.0, 5.0, 1024),
            [_eq(ConstraintFunction.power(1), 1.0)],
        )
        assert abs(sol.multipliers[0] - oracle) <= 1e-6
        assert abs(sol.residuals[0]) <= 1e-8


def test_criterion_03_gaussian_family():
    with criterion(3, "gaussian family"):
        support = Support.continuous(-4.0, 4.0, 1024)
        curve, sol = maxent_utility(
            support,
            [
                _eq(ConstraintFunction.power(1), 0.0),
                _eq(ConstraintFunction.power(2), 1.0),
            ],
        )
        x = support.nodes
        w = support.weights
        assert abs(float(np.dot(w * sol.density, x))) <= 1e-8
        assert abs(float(np.dot(w * sol.density, x**2)) - 1.0) <= 1e-8
        assert np.max(np.abs(sol.density - sol.density[::-1])) <= 1e-10
        probe = np.linspace(-3.5, 3.5, 141)
        u_plus = np.asarray(curve.evaluate(probe))
        u_minus = np.asarray(curve.evaluate(-probe))
        assert np.max(np.abs(u_plus + u_minus - 1.0)) <= 1e-8


def test_criterion_04_entropy_laws():
    with criterion(4, "entropy laws"):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            width = rng.uniform(0.5, 3.0)
            a = rng.uniform(-3.0, 3.0)
            s0 = Support.continuous(a, a + width, 128)
            raw = 0.1 + rng.random(s0.n)
            p = raw / s0.integrate(raw)
            h0 = differential_entropy(p, s0).value

            shift = rng.uniform(-5.0, 5.0)
            s1 = Support.continuous(a + shift, a + width + shift, 128)
            assert abs(differential_entropy(p, s1).value - h0) <= 1e-12

            c = rng.uniform(0.2, 5.0)
            s2 = Support.continuous(a * c, (a + width) * c, 128)
            h2 = differential_entropy(p / c, s2).value
            assert abs(h2 - (h0 + math.log(c))) <= 1e-8


def test_criterion_05_maximality_oracle():
    with criterion(5, "maximality oracle"):
        # n = 3: masses on a 0.01 grid with E[x] = 1 on {0, 1, 2}.
        sol3 = solve_equality(
            Support.discrete([0.0, 1.0, 2.0]), [_eq(ConstraintFunction.power(1), 1.0)]
        )
        klogk = np.zeros(101)
        klogk[1:] = np.arange(1, 101) * np.log(np.arange(1, 101) / 100.0)
        best3 = -np.inf
        for k2 in range(0, 51):
            k1 = 100 - 2 * k2
            k0 = k2
            h = -(klogk[k0] + klogk[k1] + klogk[k2]) / 100.0
            best3 = max(best3, h)
        assert sol3.entropy >= best3 - 1e-6

        # n = 4: E[x] = 1.5 on {0, 1, 2, 3}; integer-exact feasibility.
        sol4 = solve_equality(
            Support.discrete([0.0, 1.0, 2.0, 3.0]),
            [_eq(ConstraintFunction.power(1), 1.5)],
        )
        k0, k1, k2 = np.meshgrid(
            np.arange(101), np.arange(101), np.arange(101), indexing="ij"
        )
        k3 = 100 - k0 - k1 - k2
        ok = (k3 >= 0) & (k1 + 2 * k2 + 3 * k3 == 150)
        ks = np.stack([k[ok] for k in (k0, k1, k2, k3)])
        h_grid = -(klogk[ks].sum(axis=0)) / 100.0
        assert len(h_grid) > 0
        assert sol4.entropy >= float(h_grid.max()) - 1e-6


def test_criterion_06_dual_calculus():
    with criterion(6, "dual calculus"):
        rng = np.random.default_rng(99)
        for _ in range(50):
            if rng.random() < 0.5:
                pts = np.sort(rng.uniform(-2.0, 2.0, size=rng.integers(3, 7)))
                while len(np.unique(pts)) < len(pts):
                    pts = np.sort(rng.uniform(-2.0, 2.0, size=len(pts)))
                support = Support.discrete(pts)
            else:
                a = rng.uniform(-2.0, 0.0)
                support = Support.continuous(a, a + rng.uniform(1.0, 3.0), 64)
            degrees = rng.permutation([1, 2, 3])[: rng.integers(1, 4)]
            specs = []
            for d in degrees:
                h = ConstraintFunction.power(int(d)).tabulate(support)
                lo, hi = float(h.min()), float(h.max())
                specs.append(
                    _eq(ConstraintFunction.power(int(d)), rng.uniform(lo, hi))
                )
            m = len(specs)
            lam = rng.normal(scale=0.5, size=m)

            grad = dual_gradient(support, specs, lam)
            hess = dual_hessian(support, specs, lam)
            assert np.min(np.linalg.eigvalsh(hess)) >= -1e-10

            eps_g, eps_h = 1e-6, 1e-5
            for j in range(m):
                step = np.zeros(m)
                step[j] = eps_g
                fd = (
                    dual_value(support, specs, lam + step)
                    - dual_value(support, specs, lam - step)
                ) / (2.0 * eps_g)
                assert abs(grad[j] - fd) / max(1.0, abs(fd)) <= 1e-6
                step[j] = eps_h
                fd_col = (
                    dual_gradient(support, specs, lam + step)
                    - dual_gradient(support, specs, lam - step)
                ) / (2.0 * eps_h)
                denom = np.maximum(1.0, np.abs(fd_col))
                assert np.max(np.abs(hess[:, j] - fd_col) / denom) <= 1e-5


def test_criterion_07_assessed_point_closed_form():
    with criterion(7, "assessed closed form"):
        support = Support.continuous(0.0, 1.0, 1024)
        curve, sol = maxent_utility_from_assessments(support, [(0.5, 0.8)])
        nodes = curve.support.nodes
        left = nodes < 0.5
        assert np.max(np.abs(sol.density[left] - 1.6)) <= 1e-6
        assert np.max(np.abs(sol.density[~left] - 0.4)) <= 1e-6
        assert abs(curve.evaluate(0.5) - 0.8) <= 1e-6


def test_criterion_08_risk_aversion():
    with criterion(8, "risk aversion"):
        cara = solve_equality(
            Support.continuous(0.0, 5.0, 1024),
            [_eq(ConstraintFunction.power(1), 1.0)],
        )
        prof = risk_aversion_analytic(cara)
        assert np.max(np.abs(prof.gamma - cara.multipliers[0])) <= 1e-10

        gauss = solve_equality(
            Support.continuous(-4.0, 4.0, 1024),
            [
                _eq(ConstraintFunction.power(1), 0.0),
                _eq(ConstraintFunction.power(2), 1.0),
            ],
        )
        gprof = risk_aversion_analytic(gauss)
        m1, m2 = gauss.multipliers
        affine = m1 + 2.0 * m2 * gprof.nodes
        assert np.max(np.abs(gprof.gamma - affine)) <= 1e-8

        for sol in (cara, gauss):
            ana = risk_aversion_analytic(sol)
            num = risk_aversion_numeric(density_to_curve(sol.density, sol.support))
            assert np.array_equal(ana.node_indices, num.node_indices)
            assert np.max(np.abs(ana.gamma - num.gamma)) <= 1e-4


def test_criterion_09_risk_neutral_maximum():
    with criterion(9, "risk-neutral maximum"):
        support = Support.continuous(0.0, 1.0, 256)
        x, w = support.nodes, support.weights
        lams = np.round(np.arange(-1000, 1001) * 0.01, 2)
        expo = -np.outer(lams, x)
        shift = expo.max(axis=1, keepdims=True)
        z = np.sum(w * np.exp(expo - shift), axis=1)
        log_z = np.log(z) + shift[:, 0]
        p = np.exp(expo - shift) * w / z[:, None]
        means = p @ x
        entropies = log_z + lams * means
        best = lams[int(np.argmax(entropies))]
        assert abs(best - 0.0) <= 0.01 + 1e-12


def test_criterion_10_utility_volume():
    with criterion(10, "utility volume"):
        for k in range(3, 9):
            assert utility_volume(k) == 1.0 / math.factorial(k - 2)
        rng = np.random.default_rng(123456)
        draws = rng.random((1_000_000, 3))
        ordered = np.all(np.diff(draws, axis=1) >= 0.0, axis=1)
        p_hat = float(ordered.mean())
        p = 1.0 / 6.0
        se = math.sqrt(p * (1.0 - p) / len(draws))
        assert abs(p_hat - p) <= 3.0 * se


def test_criterion_11_spread_axioms():
    with criterion(11, "spread axioms"):
        values = []
        for k in range(3, 10):
            h = entropy_of_increments(np.full(k - 1, 1.0 / (k - 1))).value
            assert abs(h - math.log(k - 1)) <= 1e-12
            values.append(h)
        assert all(b > a for a, b in zip(values, values[1:]))

        rng = np.random.default_rng(314)
        for _ in range(25):
            raw = rng.random(6)
            d = raw / raw.sum()
            h = entropy_of_increments(d).value
            assert abs(entropy_of_increments(rng.permutation(d)).value - h) <= 1e-12
            eps = 1e-6
            moved = d.copy()
            moved[0] += eps
            moved[1] -= eps
            if np.all(moved >= 0.0):
                h_moved = entropy_of_increments(moved / moved.sum()).value
                assert abs(h_moved - h) <= 1e-4


def test_criterion_12_cli_determinism():
    with criterion(12, "cli determinism"):
        cases = [
            ("uniform.spec", "uniform.summary.txt", "uniform.csv"),
            ("cara.spec", "cara.summary.txt", "cara.csv"),
            ("assessed.spec", "assessed.summary.txt", "assessed.csv"),
        ]
        for spec_name, summary_name, csv_name in cases:
            outputs = []
            for run in range(2):
                res = subprocess.run(
                    [
                        sys.executable,
                        "-m",
                        "maxentutil",
                        "solve",
                        str(DATA / spec_name),
                    ],
                    capture_output=True,
                    text=True,
                )
                assert res.returncode == 0
                outputs.append(res.stdout)
            assert outputs[0] == outputs[1]
            summary, _, table = outputs[0].partition("\n\n")
            assert_matches_golden(summary + "\n", GOLDEN / summary_name)
            assert_matches_golden(table, GOLDEN / csv_name)
