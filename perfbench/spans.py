"""In-memory spans around calls into maxentutil's public functions.

The benchmark does not instrument the library itself.  `Tracer.enable`
replaces selected public functions, methods and cached properties with
wrappers that record a span (name, start, end, parent, op id, error) and
`Tracer.disable` puts the originals back.  Module-level functions are
patched at every binding inside the package (``solver.solve_equality`` is
also bound in ``utility``, ``cli`` and the package namespace), so calls
made by the library to its own public functions are traced too.

Spans stay in memory; `per_layer_metrics` turns them into the per-layer
figures and `dump` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from functools import cached_property

OP_NONE = -1  # spans recorded outside a timed op (set-up, probes)

#: Per-layer metrics and their units, in report order.
UNITS = {
    "import.package_ms": "ms",
    "import.interpreter_ms": "ms",
    "cli.parse_ms": "ms",
    "cli.format_ms": "ms",
    "cli.main_ms": "ms",
    "cli.table_bytes": "bytes",
    "core.grid_ms": "ms",
    "core.tabulate_calls_per_op": "count",
    "core.tabulate_ms_per_op": "ms",
    "core.solution_check_ms": "ms",
    "solver.solve_ms": "ms",
    "solver.newton_iters_per_op": "count",
    "solver.outer_passes_per_op": "count",
    "solver.ms_per_iter": "ms",
    "solver.log_partition_us": "us",
    "solver.hessian_us": "us",
    "solver.feature_matrix_bytes": "bytes",
    "solver.fail_infeasible": "count",
    "solver.fail_cycle": "count",
    "entropy.differential_ms": "ms",
    "utility.assess_self_ms": "ms",
    "utility.refined_nodes": "count",
    "utility.grids_per_op": "count",
    "utility.curve_ms": "ms",
    "utility.curve_rejects": "count",
    "risk.profile_ms": "ms",
    "trace.overhead_ms": "ms",
}


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "op", "error", "info")

    def __init__(self, name, t0, parent, op):
        self.name, self.t0, self.t1 = name, t0, t0
        self.parent, self.op = parent, op
        self.error, self.info = None, None

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}

    @classmethod
    def from_dict(cls, d):
        s = cls(d["name"], d["t0"], d["parent"], d["op"])
        s.t1, s.error, s.info = d["t1"], d["error"], d["info"]
        return s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = OP_NONE

    # -- recording -------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.t1 = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, note=None, **kwargs):
        """Run fn inside a span; `note(result, args)` may attach a dict."""
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._close(span)
        if note is not None:
            span.info = note(result, args)
        return result

    def _wrapper(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, note=note, **kwargs)

        return traced

    # -- patching --------------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, name, fn, note=None):
        """Replace fn at every module binding inside the package."""
        wrapped = self._wrapper(name, fn, note)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "maxentutil":
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapped)

    def patch_method(self, cls, attr, name, note=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self._wrapper(name, raw.__func__, note)))
        elif isinstance(raw, cached_property):
            prop = cached_property(self._wrapper(name, raw.func, note))
            prop.__set_name__(cls, attr)
            self._set(cls, attr, prop)
        else:
            self._set(cls, attr, self._wrapper(name, raw, note))

    def enable(self, mx):
        """Wrap the public entry points of every layer of package `mx`."""
        core, solver, utility, risk, cli = (
            mx.core, mx.solver, mx.utility, mx.risk, mx.cli
        )
        for attr in ("continuous", "nodes", "weights"):
            self.patch_method(core.Support, attr, "core.grid", note=_grid_note)
        self.patch_method(core.ConstraintFunction, "tabulate", "core.tabulate")
        for fn in (solver.solve_equality, solver.solve_interval):
            self.patch_function("solver.solve", fn, note=_solve_note)
        self.patch_function("entropy.differential", mx.entropy.differential_entropy)
        self.patch_function("utility.assess", utility.maxent_utility_from_assessments)
        self.patch_function("utility.curve", utility.density_to_curve)
        self.patch_function("risk.profile", risk.risk_aversion_analytic)
        self.patch_function("cli.parse", cli.parse_spec_file)
        self.patch_function("cli.main", cli.main)
        self.patch_method(cli.ResultBundle, "summary_text", "cli.format")
        self.patch_method(
            cli.ResultBundle, "table_text", "cli.format",
            note=lambda text, args: {"bytes": len(text.encode())},
        )

    def disable(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- output ----------------------------------------------------------
    def adopt(self, dicts, op):
        """Append spans recorded in a child process, re-parented to this list."""
        base = len(self.spans)
        for d in dicts:
            s = Span.from_dict(d)
            s.parent = None if s.parent is None else s.parent + base
            s.op = op
            self.spans.append(s)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")


def _grid_note(result, args):
    # Support.continuous returns the new support; nodes/weights return arrays.
    new = hasattr(result, "kind")
    return {"new": new, "continuous": (result if new else args[0]).is_continuous}


def _solve_note(sol, args):
    d = sol.diagnostics
    return {
        "n": sol.support.n,
        "m": len(sol.constraints),
        "iterations": d.iterations,
        "passes": len(d.dual_trace) - d.iterations,
    }


# -- per-layer figures ---------------------------------------------------


def _self_times(spans):
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.t1 - s.t0
    return [(s.t1 - s.t0) - c for s, c in zip(spans, covered)]


def per_layer_metrics(spans, traced_ops):
    """Per-layer figures from spans.

    Per-op figures count only spans inside the `traced_ops` timed ops;
    per-call figures (ms per grid, per parse, per curve, ...) use every span
    of the layer, including set-up and the post-loop probes.
    """
    selfs = _self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name, in_ops=False):
        return [i for i in by_name.get(name, []) if not in_ops or spans[i].op >= 0]

    def info(i, key):
        return (spans[i].info or {}).get(key)

    def dur(i):
        return spans[i].t1 - spans[i].t0

    def ms(ids, per, self_time=False):
        if not per:
            return math.nan
        return 1e3 * sum(selfs[i] if self_time else dur(i) for i in ids) / per

    def per_call(name):
        ids = idx(name)
        return ms(ids, len(ids))

    def mean(values):
        return sum(values) / len(values) if values else math.nan

    ops = max(traced_ops, 1)
    grid_spans = [i for i in idx("core.grid") if info(i, "continuous")]
    new_grids = [i for i in grid_spans if info(i, "new")]
    tabulate = idx("core.tabulate", in_ops=True)
    # Solves that raised carry no diagnostics; iteration figures are per
    # successful solve.
    solves = idx("solver.solve", in_ops=True)
    ok_solves = [i for i in solves if spans[i].info]
    iters = sum(info(i, "iterations") for i in ok_solves)
    assess = idx("utility.assess")
    in_assess = set(assess)
    grids_in = {i: 0 for i in assess}
    for i in new_grids:
        if spans[i].parent in in_assess:
            grids_in[spans[i].parent] += 1
    curves = idx("utility.curve")
    tables = [info(i, "bytes") for i in idx("cli.format") if info(i, "bytes")]
    return {
        "cli.parse_ms": per_call("cli.parse"),
        # summary_text + table_text, per formatted result
        "cli.format_ms": ms(idx("cli.format"), len(tables)),
        "cli.main_ms": per_call("cli.main"),
        "cli.table_bytes": mean(tables),
        "core.grid_ms": ms(grid_spans, len(new_grids)),
        "core.tabulate_calls_per_op": len(tabulate) / ops,
        "core.tabulate_ms_per_op": ms(tabulate, ops),
        "core.solution_check_ms": per_call("core.solution_check"),
        "solver.solve_ms": ms(ok_solves, len(ok_solves), self_time=True),
        "solver.newton_iters_per_op": mean([info(i, "iterations") for i in ok_solves]),
        "solver.outer_passes_per_op": mean([info(i, "passes") for i in ok_solves]),
        "solver.ms_per_iter": ms(ok_solves, iters),
        "solver.log_partition_us": 1e3 * per_call("solver.log_partition"),
        "solver.hessian_us": 1e3 * per_call("solver.hessian"),
        # computed, not measured: one float64 row of n values per constraint
        "solver.feature_matrix_bytes": mean([8 * info(i, "m") * info(i, "n") for i in ok_solves]),
        "solver.fail_infeasible": sum(spans[i].error == "InfeasibleError" for i in solves),
        "solver.fail_cycle": sum(spans[i].error == "ActiveSetCycleError" for i in solves),
        "entropy.differential_ms": per_call("entropy.differential"),
        "utility.assess_self_ms": ms(assess, len(assess), self_time=True),
        "utility.refined_nodes": mean(
            [info(i, "n") for i in idx("solver.solve") if spans[i].parent in in_assess and spans[i].info]
        ),
        "utility.grids_per_op": mean(list(grids_in.values())),
        "utility.curve_ms": ms(curves, len(curves)),
        "utility.curve_rejects": sum(spans[i].error == "ValidationError" for i in curves),
        "risk.profile_ms": per_call("risk.profile"),
    }
