"""Correctness checks that do not rely on the code they check.

Everything here is plain numpy on plain arrays: the support's nodes and
weights, the returned density, multipliers and entropy, or the text of a
CSV table.  No function of maxentutil is called, and its `moments` and
`diagnostics` are never read.  Each check returns None when the result
passes and a one-line reason when it does not.

A feature is ``("power", d)`` for x**d or ``("indicator", lo, hi)`` for the
indicator of [lo, hi].
"""

from __future__ import annotations

import numpy as np

#: Absolute moment tolerance: ten times the solver's documented default
#: residual tolerance (1e-8 continuous, 1e-9 discrete), relative to
#: max(1, |target|).
MOMENT_TOL = {True: 1e-7, False: 1e-8}
#: Entropy slack on top of the first-order bound sum_j |m_j| * moment_tol.
ENTROPY_TOL = 1e-7
#: log p + m . h must be constant to this precision, relative to max |m . h|.
EXPFORM_RTOL = 1e-10
#: An assessed curve must pass through each snapped point this closely.
ASSESS_TOL = 1e-6


def features(nodes, feats):
    """Feature matrix, one row per feature, evaluated with numpy."""
    rows = []
    for f in feats:
        if f[0] == "power":
            rows.append(nodes ** f[1])
        else:
            rows.append(((nodes >= f[1]) & (nodes <= f[2])).astype(np.float64))
    return np.array(rows).reshape(len(feats), len(nodes))


def entropy(p, w):
    return float(-(w * p) @ np.log(p))


def check_grid(nodes, weights, a, b, continuous):
    """A quadrature grid must be ordered, inside [a, b], and exact on
    polynomials of degree <= 8 (the highest power any workload pins)."""
    if not (np.all(np.isfinite(nodes)) and np.all(np.diff(nodes) > 0)):
        return "grid nodes are not finite and strictly increasing"
    if not continuous:
        return None if np.all(weights == 1.0) else "discrete weights are not 1"
    if nodes[0] <= a or nodes[-1] >= b or np.any(weights <= 0):
        return "grid nodes outside (a, b) or non-positive weights"
    for d in range(9):
        exact = (b ** (d + 1) - a ** (d + 1)) / (d + 1)
        if abs(weights @ nodes**d - exact) > 1e-12 * max(1.0, abs(exact), abs(a) ** d * (b - a)):
            return f"grid does not integrate x^{d} exactly"
    return None


def generating_density(nodes, weights, F, theta):
    """exp(-theta . h) normalized on the grid, and its moments and entropy."""
    e = -(theta @ F)
    p = np.exp(e - e.max())
    p /= weights @ p
    return p, F @ (weights * p), entropy(p, weights)


def check_maxent(r, feats, targets, h_gen, continuous):
    """A solved maximum-entropy density.

    `r` has nodes, weights, density, multipliers and entropy.  `targets`
    holds a float (equality) or a (lo, hi) pair per feature.  `h_gen` is the
    entropy of a density that meets every target: the solution's entropy
    must equal it when all targets are equalities and may not be lower
    otherwise.
    """
    p, w, lam = r["density"], r["weights"], r["multipliers"]
    if p.shape != w.shape or lam.shape != (len(feats),):
        return "result shapes disagree with the problem"
    if not (np.all(np.isfinite(p)) and np.all(p > 0)):
        return "density not finite and strictly positive"
    mass_tol = 1e-9 if continuous else 1e-11
    if abs(float(w @ p) - 1.0) > mass_tol:
        return f"density mass {float(w @ p)!r} is not 1"
    F = features(r["nodes"], feats)
    expo = lam @ F
    resid = np.log(p) + expo
    scale = 1.0 + float(np.max(np.abs(expo)))
    if np.ptp(resid) > EXPFORM_RTOL * scale:
        return f"density is not exp(-c - m.h) (spread {np.ptp(resid):.3e})"
    mom = F @ (w * p)
    slack = 0.0
    all_eq = True
    for j, t in enumerate(targets):
        if isinstance(t, tuple):
            all_eq = False
            tol = MOMENT_TOL[continuous] * max(1.0, abs(t[0]), abs(t[1]))
            if not t[0] - tol <= mom[j] <= t[1] + tol:
                return f"moment {j} = {mom[j]!r} outside [{t[0]!r}, {t[1]!r}]"
        else:
            tol = MOMENT_TOL[continuous] * max(1.0, abs(t))
            if abs(mom[j] - t) > tol:
                return f"moment {j} = {mom[j]!r} misses target {t!r}"
        slack += abs(lam[j]) * tol
    h = entropy(p, w)
    if abs(h - r["entropy"]) > 1e-9 * max(1.0, abs(h)):
        return f"reported entropy {r['entropy']!r} differs from {h!r}"
    tol_h = ENTROPY_TOL + slack
    if all_eq and abs(h - h_gen) > tol_h:
        return f"entropy {h!r} differs from the generating density's {h_gen!r}"
    if h < h_gen - tol_h:
        return f"entropy {h!r} below the generating density's {h_gen!r}"
    return None


def check_assessed(r, a, b, snapped, values, xs):
    """A utility through assessed points, against its closed form.

    The maximum-entropy utility density through U(e_k) = v_k is constant
    on each (e_{k-1}, e_k), with mass v_k - v_{k-1}.  `r` holds the grid,
    the curve's density, node and panel-edge values, and the risk profile.
    """
    nodes, w, u = r["nodes"], r["weights"], r["density"]
    panels = len(r["edge_curve"]) - 1
    width = (b - a) / panels
    e = np.concatenate(([a], snapped, [b]))
    v = np.concatenate(([0.0], values, [1.0]))
    for k, (x, s) in enumerate(zip(xs, snapped)):
        j = round((s - a) / width)
        if abs(a + j * width - s) > 1e-12 * (b - a) or abs(s - x) > width / 2 + 1e-12:
            return f"assessment {k} snapped to {s!r}, not the panel edge nearest {x!r}"
        if abs(r["edge_curve"][j] - values[k]) > ASSESS_TOL:
            return f"curve misses U({s!r}) = {values[k]!r}"
        if abs(float(w[nodes < s] @ u[nodes < s]) - values[k]) > ASSESS_TOL:
            return f"density mass below {s!r} is not {values[k]!r}"
    if abs(r["edge_curve"][0]) > 1e-12 or abs(r["edge_curve"][-1] - 1.0) > 1e-12:
        return "curve is not anchored at U(a) = 0 and U(b) = 1"
    if np.any(np.diff(r["curve"]) < 0.0) or np.any(np.diff(r["edge_curve"]) < 0.0):
        return "curve decreases"
    piece = np.searchsorted(e, nodes) - 1
    expected = np.diff(v)[piece] / np.diff(e)[piece]
    if np.max(np.abs(u - expected) / expected) > ASSESS_TOL:
        return "density is not the closed-form piecewise-constant density"
    gap = np.diff(v)
    h_closed = float(-(gap @ np.log(gap / np.diff(e))))
    if abs(r["entropy"] - h_closed) > ASSESS_TOL:
        return f"entropy {r['entropy']!r} differs from closed form {h_closed!r}"
    # A piecewise-constant density has gamma = -(ln u)' = 0 off the jumps.
    if np.any(r["gamma"] != 0.0):
        return "risk aversion is not zero on a piecewise-constant density"
    return None


def check_table(text, nodes, density):
    """A CLI table must have one row per node and reproduce the in-process
    solution's x and u columns bit for bit."""
    lines = text.split("\n")
    if lines[0] != "x,u,U,gamma" or lines[-1] != "":
        return "table header or trailer is wrong"
    rows = lines[1:-1]
    if len(rows) != len(nodes):
        return f"table has {len(rows)} rows, expected {len(nodes)}"
    try:
        cols = [row.split(",") for row in rows]
        x = np.array([float(c[0]) for c in cols])
        u = np.array([float(c[1]) for c in cols])
    except (ValueError, IndexError):
        return "table does not parse"
    if not (np.array_equal(x, nodes) and np.array_equal(u, density)):
        return "table differs from the in-process solution"
    return None

