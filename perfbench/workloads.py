"""The four workloads: seeded inputs, set-up, one op, and its check.

Every workload is closed loop with one caller: op i+1 starts when op i
returns.  Inputs come from `numpy.random.default_rng(seed)` in a fixed
order, so a seed fixes the whole op sequence.  Structural choices (support,
number and kind of constraints) cycle through every combination in a
seeded random order, block by block, so every run sees the same mix and
only the numbers inside each combination change with the seed.  A run
counts the outcomes of its first BLOCKS blocks, the same for every run of
a seed.

A workload object is used in this order:

    w = Workload(seed)        # draws the support parameters (benchmark work)
    w.build(mx)               # builds every Support and constraint (set-up)
    w.prepare()               # checks the grids, writes spec files
    w.solve_references()      # in-process solves the cli oracle compares to
    inp = w.draw()            # draws the next op's input (benchmark work)
    out = w.op(inp)           # the timed call into the program
    w.check(inp, out)         # the oracle: None or a reason

Only `build`, `op` and `solve_references` call maxentutil.
"""

from __future__ import annotations

import os

import numpy as np

import oracle

# Continuous supports shared by the library workloads.
INTERVALS = [(0.0, 1.0), (-1.0, 1.0), (0.0, 2.0), (0.0, 5.0)]


def _plain(support):
    """Support as plain data for the benchmark: ("continuous", a, b, n) or
    ("discrete", points), with the program's grid checked by the oracle."""
    nodes = np.array(support.nodes)
    weights = np.array(support.weights)
    if support.is_continuous:
        desc = ("continuous", support.a, support.b, support.n)
        a, b = support.a, support.b
    else:
        desc = ("discrete", tuple(support.points))
        a, b = nodes[0], nodes[-1]
    reason = oracle.check_grid(nodes, weights, a, b, support.is_continuous)
    if reason:
        raise RuntimeError(f"support grid fails the oracle: {reason}")
    return {"desc": desc, "nodes": nodes, "weights": weights,
            "R": max(abs(a), abs(b)), "continuous": support.is_continuous}


def _blocks(rng, combos):
    """Endless stream of `combos`, each block a fresh seeded permutation."""
    while True:
        for j in rng.permutation(len(combos)):
            yield combos[j]


def _jittered(rng, k):
    """k sorted points on [0, 1], one uniform draw in each of k equal cells,
    so every seed gives supports of the same shape."""
    return (np.arange(k) + rng.uniform(0.0, 1.0, k)) / k


def _sorted_gap(rng, k, gap=0.02):
    """k strictly increasing values in [gap, 1 - gap], at least `gap` apart."""
    while True:
        x = np.sort(rng.uniform(gap, 1.0 - gap, k))
        if k == 1 or np.min(np.diff(x)) >= gap:
            return [float(v) for v in x]


def draw_moments(rng, sup, m, indicator=False, brackets=False):
    """Targets for powers 1..m (plus an indicator) of a seeded
    exponential-family density on `sup`, feasible by construction.

    With `brackets`, each target becomes an interval strictly containing
    the density's moment with probability 0.6 (at least one does).
    """
    feats = [("power", d) for d in range(1, m + 1)]
    scale = rng.uniform(0.5, 3.0 if brackets else 5.0)
    theta = [scale * rng.uniform(-1, 1) / sup["R"] ** d for d in range(1, m + 1)]
    if indicator:
        lo, hi = sup["nodes"][0], sup["nodes"][-1]
        while True:
            e = np.sort(rng.uniform(lo, hi, 2))
            if e[1] - e[0] >= 0.1 * (hi - lo):
                break
        feats.append(("indicator", float(e[0]), float(e[1])))
        theta.append(rng.uniform(-1.5, 1.5))
    F = oracle.features(sup["nodes"], feats)
    p, mom, h = oracle.generating_density(sup["nodes"], sup["weights"], F, np.array(theta))
    targets = [float(t) for t in mom]
    if brackets:
        sd = np.sqrt(np.maximum(F**2 @ (sup["weights"] * p) - mom**2, 0.0))
        pick = rng.uniform(size=len(feats)) < 0.6
        if not pick.any():
            pick[rng.integers(len(feats))] = True
        for j in np.flatnonzero(pick):
            lo = mom[j] - sd[j] * rng.uniform(0.02, 0.5)
            hi = mom[j] + sd[j] * rng.uniform(0.02, 0.5)
            targets[j] = (float(lo), float(hi))
    return {"sup": sup, "feats": feats, "targets": targets, "h_gen": h, "p_gen": p}


def spec_text(inp):
    """The input as a CLI spec file; floats round-trip exactly through repr."""
    desc = inp["sup"]["desc"]
    if desc[0] == "continuous":
        lines = [f"domain = {desc[1]!r} {desc[2]!r}", f"nodes = {desc[3]}"]
    else:
        lines = ["points = " + " ".join(repr(x) for x in desc[1])]
    for x, v in inp.get("assessments", ()):
        lines.append(f"assessment = {x!r} {v!r}")
    for f, t in zip(inp.get("feats", ()), inp.get("targets", ())):
        head = f"power {f[1]}" if f[0] == "power" else f"indicator {f[1]!r} {f[2]!r}"
        tail = f"in {t[0]!r} {t[1]!r}" if isinstance(t, tuple) else f"eq {t!r}"
        lines.append(f"constraint = {head} {tail}")
    return "\n".join(lines) + "\n"


def record(sol):
    """The parts of a solution the oracle reads, as plain arrays."""
    return {"nodes": np.array(sol.support.nodes), "weights": np.array(sol.support.weights),
            "density": np.array(sol.density), "multipliers": np.array(sol.multipliers),
            "entropy": float(sol.entropy)}


class Workload:
    """Input stream, op and check for moment problems; `Assess` and `Cli`
    replace the op and the check."""

    def draw(self):
        return self.make(next(self.stream), self.rng)

    def warmup(self):
        """The warm-up op's input: the same for every seed."""
        return self.make(self.combos[0], np.random.default_rng(0))

    def refused(self, out):
        return False

    def op(self, inp):
        return self.solve(inp["sup"]["obj"], self.specs(inp))

    def specs(self, inp):
        mx = self.mx
        specs = []
        for f, t in zip(inp["feats"], inp["targets"]):
            if f[0] == "power":
                fn = self.powers[f[1]]
            else:
                fn = mx.ConstraintFunction.indicator(f[1], f[2])
            if isinstance(t, tuple):
                specs.append(mx.ConstraintSpec.interval(fn, *t))
            else:
                specs.append(mx.ConstraintSpec.equality(fn, t))
        return specs

    def solution(self, out):
        return out

    def solve_references(self):
        """Oracle data that needs the program; only the cli workload has any."""

    def check(self, inp, sol, corrupt=False):
        r = record(sol)
        if corrupt:
            r["density"][len(r["density"]) // 2] *= 1.001
        return oracle.check_maxent(
            r, inp["feats"], inp["targets"], inp["h_gen"], inp["sup"]["continuous"]
        )

    def _build_pool(self, mx, grids):
        self.mx = mx
        self._objs = [mx.Support.continuous(a, b, n) for (a, b), n in grids]
        self._objs += [mx.Support.discrete(p) for p in self.points]
        for s in self._objs:
            s.nodes, s.weights
        self.powers = {d: mx.ConstraintFunction.power(d) for d in range(1, 9)}

    def prepare(self):
        self.sups = []
        for obj in self._objs:
            sup = _plain(obj)
            sup["obj"] = obj
            self.sups.append(sup)


class SweepSmall(Workload):
    """One solve_equality per op on a pooled small support: four 128-node
    grids and four discrete supports of 4-64 points, with 1-8 power
    moments (at most points - 1 on a discrete support)."""

    name = "sweep-small"
    BLOCKS = 3

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.points = [_jittered(self.rng, k) for k in (4, 16, 32, 64)]

    def build(self, mx):
        self._build_pool(mx, [(ab, 128) for ab in INTERVALS])

    def solve(self, sup, specs):
        return self.mx.solve_equality(sup, specs)

    def prepare(self):
        super().prepare()
        self.combos = [(s, m) for s in range(len(self.sups)) for m in range(1, 9)]
        self.stream = _blocks(self.rng, self.combos)

    def make(self, combo, rng):
        s, m = combo
        sup = self.sups[s]
        return draw_moments(rng, sup, min(m, len(sup["nodes"]) - 1))


class IntervalLarge(Workload):
    """One solve_interval per op: four 8192-node grids and one 10^4-point
    discrete support (a fifth of the ops), with powers 1..m (m <= 4) and an
    optional indicator, 2-5 constraints, each an equality or a bracket."""

    name = "interval-large"
    BLOCKS = 5
    SHAPES = [(1, True), (2, False), (2, True), (3, False), (3, True), (4, False), (4, True)]

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.points = [_jittered(self.rng, 10_000)]

    def build(self, mx):
        self._build_pool(mx, [(ab, 8192) for ab in INTERVALS])

    def solve(self, sup, specs):
        return self.mx.solve_interval(sup, specs)

    def prepare(self):
        super().prepare()
        self.combos = [(s, sh) for s in range(len(self.sups)) for sh in self.SHAPES]
        self.stream = _blocks(self.rng, self.combos)

    def make(self, combo, rng):
        s, (m, ind) = combo
        return draw_moments(rng, self.sups[s], m, indicator=ind, brackets=True)


def draw_assessment(rng, sup, k):
    return {"sup": sup, "assessments": list(zip(_sorted_gap(rng, k), _sorted_gap(rng, k)))}


class Assess(Workload):
    """One maxent_utility_from_assessments plus risk_aversion_analytic per
    op: 1-6 strictly increasing assessed points on [0, 1], starting from a
    128- or 1024-node grid that the op refines (no grid is shared)."""

    name = "assess"
    BLOCKS = 40

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.points = []

    def build(self, mx):
        self._build_pool(mx, [((0.0, 1.0), 128), ((0.0, 1.0), 1024)])

    def prepare(self):
        super().prepare()
        self.combos = [(s, k) for s in range(2) for k in range(1, 7)]
        self.stream = _blocks(self.rng, self.combos)

    def make(self, combo, rng):
        s, k = combo
        return draw_assessment(rng, self.sups[s], k)

    def op(self, inp):
        curve, sol = self.mx.maxent_utility_from_assessments(inp["sup"]["obj"], inp["assessments"])
        return curve, sol, self.mx.risk_aversion_analytic(sol)

    def solution(self, out):
        return out[1]

    def check(self, inp, out, corrupt=False):
        curve, sol, profile = out
        return check_assessment(inp, curve, sol, profile, corrupt)


def check_assessment(inp, curve, sol, profile, corrupt=False):
    r = record(sol)
    sup = sol.support
    reason = oracle.check_grid(r["nodes"], r["weights"], sup.a, sup.b, True)
    if reason:
        return reason
    if corrupt:
        r["density"][len(r["density"]) // 2] *= 1.001
    r.update(curve=np.array(curve.curve), edge_curve=np.array(curve.edge_curve),
             gamma=np.array(profile.gamma))
    xs = [x for x, _ in inp["assessments"]]
    vs = [v for _, v in inp["assessments"]]
    snapped = [spec.function.upper for spec in sol.constraints]
    if len(snapped) != len(xs):
        return "solution does not carry one constraint per assessment"
    return oracle.check_assessed(r, sup.a, sup.b, np.array(snapped), np.array(vs), xs)


class Cli(Workload):
    """One `python -m maxentutil solve SPEC --out FILE` subprocess per op,
    cycling through 28 seeded spec files written at set-up: seven each of
    equality, interval and assessment specs (at 128, 1024 and 8192 nodes)
    and seven discrete specs of 4-64 points.  One pass over them takes
    about 20 s; the first pass is counted."""

    name = "cli"
    BLOCKS = 1
    PER_CLASS = 7

    # `workdir` (where spec files go) and `run_child(prefix, argv)` are
    # set by the runner before `prepare`.

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        k = self.PER_CLASS
        self.points = [_jittered(self.rng, int(n)) for n in np.linspace(4, 64, k)]
        self.grids = [(INTERVALS[i % 4], n) for n in (128, 1024, 8192) for i in range(k)]

    def build(self, mx):
        self._build_pool(mx, self.grids)

    def prepare(self):
        """Write the spec files."""
        rng, pool = self.rng, []
        cont = 3 * self.PER_CLASS
        for i, obj in enumerate(self._objs):
            sup = _plain(obj)
            sup["obj"] = obj
            j = i // 3 if i < cont else i - cont  # index within the spec's class
            kind = ("equality", "interval", "assessment")[i % 3] if i < cont else "discrete"
            if kind == "assessment":
                inp = draw_assessment(rng, sup, 1 + j % 6)
            elif kind == "interval":
                m, ind = IntervalLarge.SHAPES[j % len(IntervalLarge.SHAPES)]
                inp = draw_moments(rng, sup, m, indicator=ind, brackets=True)
            else:
                inp = draw_moments(rng, sup, min(1 + j % 4, len(sup["nodes"]) - 1))
            inp["path"] = os.path.join(self.workdir, f"spec{i:02d}.txt")
            with open(inp["path"], "w", encoding="utf-8") as fh:
                fh.write(spec_text(inp))
            pool.append(inp)
        self.combos = pool
        self.out_path = os.path.join(self.workdir, "out.csv")
        self.stream = _blocks(rng, pool)

    def solve_references(self):
        for inp in self.combos:
            inp.update(self._reference(inp))

    def _reference(self, inp):
        """In-process solve of the spec through the library, checked by the
        oracle; returns the exit code the CLI must give and its table."""
        mx = self.mx
        try:
            if "assessments" in inp:
                curve, sol = mx.maxent_utility_from_assessments(inp["sup"]["obj"], inp["assessments"])
                reason = check_assessment(inp, curve, sol, mx.risk_aversion_analytic(sol))
            else:
                sol = self.solve(inp["sup"]["obj"], self.specs(inp))
                reason = oracle.check_maxent(record(sol), inp["feats"], inp["targets"],
                                             inp["h_gen"], inp["sup"]["continuous"])
                if inp["sup"]["continuous"]:  # the CLI also prints the curve
                    mx.density_to_curve(sol.density, sol.support)
        except (mx.InfeasibleError, mx.ActiveSetCycleError):
            return {"exit": 2, "sol": None, "reason": None}
        except mx.MaxentError:
            return {"exit": 1, "sol": None, "reason": None}
        return {"exit": 0, "sol": sol, "reason": reason}

    def solve(self, sup, specs):
        if any(not s.is_equality for s in specs):
            return self.mx.solve_interval(sup, specs)
        return self.mx.solve_equality(sup, specs)

    def make(self, combo, rng):
        return combo

    def op(self, inp, traced_argv=None):
        """Run the CLI; `traced_argv` replaces the interpreter command with
        one that records spans.  Returns (exit code, table text, peak RSS)."""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        argv = ["solve", inp["path"], "--out", self.out_path]
        code, rss = self.run_child(traced_argv or ["-m", "maxentutil"], argv)
        text = None
        if code == 0 and os.path.exists(self.out_path):
            with open(self.out_path, encoding="utf-8") as fh:
                text = fh.read()
        return code, text, rss

    def solution(self, out):
        return None

    def check(self, inp, out, corrupt=False):
        code, text, _ = out
        if inp["reason"]:
            return f"in-process reference fails the oracle: {inp['reason']}"
        if code != inp["exit"]:
            return f"exit code {code}, in-process solve implies {inp['exit']}"
        if code != 0:
            return None
        if corrupt:
            rows = text.split("\n")
            text = "\n".join(rows[:1] + rows[2:])
        return oracle.check_table(text, record(inp["sol"])["nodes"], inp["sol"].density)

    def refused(self, out):
        return out[0] != 0


WORKLOADS = {w.name: w for w in (SweepSmall, IntervalLarge, Assess, Cli)}
