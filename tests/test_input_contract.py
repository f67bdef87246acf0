"""The CLI's input contract over the whole spec grammar.

Every spec, valid or not, ends in exit status 0, 1 (bad input) or 2
(infeasible); a non-zero status puts `error:` first on stderr; and no spec
ends in a traceback or a numpy warning.  Hypothesis writes spec files from
every key of the grammar in the `cli` docstring, repeated or missing, with
numbers at and beyond the edges of the doubles (nan, inf, 1e400, +-1.7e308,
subnormals), empty values and junk, and runs `main(["solve", path])` in
the process on each.
"""

import contextlib
import io
import os
import tempfile
import warnings

from hypothesis import example, given, settings, strategies as st

from maxentutil.cli import main

#: Ordinary numbers, and finite ones at the edges of the doubles.
PLAIN = ["0", "1", "2", "-1", "0.5", "0.25", "0.3", "3", "1e-100", "1e200",
         "1e300", "-1e300", "1e-300"]
EDGES = ["1.7e308", "-1.7e308", "5e-324", "-5e-324", "2.2e-310", "1e-320"]
#: Tokens that are no finite double, or no number at all.
BAD = ["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "", "x", "1..2", "0x10",
       "--", "1,5"]
NUMBER = st.one_of(*[st.sampled_from(PLAIN)] * 3, st.sampled_from(EDGES))
ANY_TOKEN = st.sampled_from(PLAIN + EDGES + BAD + ["15", "64.0", "1023", "eq", "in"])
KEYS = ["domain", "points", "nodes", "tol", "max_iter", "base", "out",
        "constraint", "assessment", "step", ""]
#: The value of `out`; OUT stands for a file in the example's folder.
OUT = "<out>"


def _ordered(tokens):
    """The numbers in increasing order: a domain, points, edges and
    brackets are then often valid."""
    return sorted(tokens, key=float)


def _pairs(values):
    return st.lists(values, min_size=2, max_size=2, unique=True).map(_ordered)


#: One line of any key of the grammar, or of none.
ANY_LINE = st.one_of(
    st.tuples(st.sampled_from(KEYS), st.lists(ANY_TOKEN, max_size=6)).map(
        lambda kv: f"{kv[0]} = {' '.join(kv[1])}"),
    st.sampled_from(["", "# a comment", "domain", "= 1", "nodes == 64"]),
)


@st.composite
def specs(draw):
    """The lines of a spec: a domain or points, constraints (tabulated on
    points) or assessed points (on a domain), some of the settings, all well
    formed, and most indicator edges and assessed points inside the
    support; then, for half the specs, one or two changes: a token replaced
    by any token (a bad number, junk, an empty value), a line given twice
    or left out, or a line of any key added."""
    lines, points = [], None
    if draw(st.integers(0, 6)) < 4:
        ends = draw(_pairs(NUMBER))
        lines.append("domain = " + " ".join(ends))
        if draw(st.booleans()):
            lines.append("nodes = " + draw(st.sampled_from(["16", "64", "512"])))
    else:
        points = _ordered(draw(st.lists(NUMBER, min_size=2, max_size=6, unique=True)))
        lines.append("points = " + " ".join(points))
        ends = [points[0], points[-1]]
    lo, hi = map(float, ends)
    # A point between the support's ends, or any number.
    fractions = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    inner = st.one_of(*[fractions.map(lambda f: repr(lo * (1.0 - f) + hi * f))] * 3,
                      NUMBER)
    if points or draw(st.integers(0, 3)):
        kinds = ["power", "indicator"] + ["tabulated"] * bool(points)
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(kinds))
            if kind == "power":
                params = [draw(st.sampled_from(["1", "2", "3", "8", "1023"]))]
            elif kind == "indicator":
                params = draw(_pairs(inner))
            else:
                params = draw(st.lists(NUMBER, min_size=len(points),
                                       max_size=len(points)))
            target = (["eq", draw(NUMBER)] if draw(st.booleans())
                      else ["in", *draw(_pairs(NUMBER))])
            lines.append(" ".join(["constraint =", kind, *params, *target]))
    else:
        k = draw(st.integers(1, 3))
        xs = _ordered(draw(st.lists(inner, min_size=k, max_size=k)))
        values = st.sampled_from(["0.1", "0.25", "0.5", "0.8"]) | NUMBER
        vs = _ordered(draw(st.lists(values, min_size=k, max_size=k)))
        lines += [f"assessment = {x} {v}" for x, v in zip(xs, vs)]
    for key, values in [
        ("tol", st.sampled_from(["1e-8", "1e-3", "1e192", "1e-208"]) | NUMBER),
        ("max_iter", st.sampled_from(["5", "50", "200"])),
        ("base", st.sampled_from(["natural", "base2"])),
        ("out", st.just(OUT)),
    ]:
        if draw(st.integers(0, 3)) == 0:
            lines.append(f"{key} = {draw(values)}")
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        change = draw(st.sampled_from(["token", "repeat", "drop", "add"]))
        i = draw(st.integers(0, len(lines)))  # len(lines): a new line
        if change == "add" or i == len(lines):
            lines.insert(i, draw(ANY_LINE))
        elif change == "repeat":
            lines.insert(i, lines[i])
        elif change == "drop":
            del lines[i]
        else:
            key, _, value = lines[i].partition(" = ")
            tokens = value.split()
            j = draw(st.integers(0, len(tokens)))
            tokens[j:j + 1] = [draw(ANY_TOKEN)]
            lines[i] = f"{key} = {' '.join(tokens)}"
    return lines


@settings(derandomize=True, deadline=None, max_examples=200)
@given(specs())
# The rows of these are too wide or too narrow for doubles in the caller's
# units; each gave an overflow or a singular Hessian while Newton worked in
# those units.
@example(["domain = 0 1e200", "nodes = 64", "constraint = power 1 eq 1e199"])
@example(["domain = 0 1e200", "nodes = 64", "tol = 1e192",
          "constraint = power 1 eq 1e199"])
@example(["domain = -8e307 8e307", "nodes = 64", "constraint = power 1 eq 0"])
@example(["domain = -5.6e102 5.6e102", "nodes = 64",
          "constraint = power 3 eq 1e300"])
@example(["domain = 0 2", "nodes = 64", "constraint = power 1023 eq 1e300"])
@example(["points = 0 1 2",
          "constraint = tabulated -1.7e308 1.7e308 1.7e308 eq 1e308"])
@example(["domain = 0 1e-100", "nodes = 64", "tol = 1e-208",
          "constraint = power 2 eq 2e-201"])
# A multiplier past the doubles in the caller's units; a bracket bound far
# beyond a narrow row's range.
@example(["points = 0 1 2", "tol = 1e-318",
          "constraint = tabulated 0 1e-310 2e-310 eq 1.9e-310"])
@example(["domain = 0 1e-100", "nodes = 64", "constraint = power 1 in -1e300 1e300"])
@example(["points = 0 1", "constraint = tabulated 0 5e-324 in -1.7e308 1.7e308"])
# Found by this property: a grid's panel midpoints, the difference of two
# points, and a determined step whose atom density underflows overflowed.
@example(["domain = 0 1.7e308"])
@example(["points = -1.7e308 1.7e308"])
@example(["domain = 0 1e10", "constraint = indicator 1e9 1e10 eq 5e-324"])
def test_every_spec_exits_zero_one_or_two_with_its_error_first(lines):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "problem.spec")
        text = "\n".join(lines).replace(OUT, os.path.join(folder, "table.csv"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["solve", path])
    stderr = err.getvalue()
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr
    if code:
        assert stderr.startswith("error: ")
    else:
        assert stderr == ""
