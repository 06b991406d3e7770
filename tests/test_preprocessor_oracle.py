"""`preprocess` against the preprocessor it replaced (`preprocessor_oracle`).

The new preprocessor keeps, per included file and for the whole run,
the extent of each directive line, the definitions parsed from its
`#define` lines and a memo of what processing the file produced under the
macros it read; the oracle works everything out again in every
translation unit. On every input both must give each unit the same
tokens, field for field, and the same pragmas, or raise the same
exception class with the same message and location. Each side runs the
units of one example in order through its own `SourceManager`, so what
the new side keeps from one unit must not change the next one's output.

Run as a script to compare every translation unit of all three
generated workloads:

    PYTHONPATH=src:tests:perfbench python3 tests/test_preprocessor_oracle.py --seeds 1 2 3
"""
from __future__ import annotations

import os
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import preprocessor_oracle
from ccomply.builtins import BUILTIN_MACRO_SPECS
from ccomply.errors import AnalysisError
from ccomply.frontend import macro_from_define_flag, preprocess
from ccomply.source import SourceManager

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
from gen import WORKLOADS, generate  # noqa: E402  (the generator imports nothing from ccomply)

# Lines outside conditionals: definitions (object-like, function-like,
# a redefinition with the same body, self-reference), #undef, #include,
# #pragma, _Pragma, text that invokes the macros, and invocations whose
# arguments span lines (and so may meet a directive). `W_BLOCK` defines
# `W` differently in each group, the case where a kept definition depends
# on which group a unit reached.
W_BLOCK = "#ifdef CFG\n#define W 1\n#elif MODE\n#define W(x) x\n#else\n#define W 2\n#endif"
LINES = [
    "#define A 1", "#define A  1", "#define B A + 1", "#define F(x) (x + A)",
    "#define G(x, y) F(y) * x", "#define E()", "#define H F", "#define R R + B",
    "#define CFG", "#define MODE 2", "#define P(a) a(", W_BLOCK,
    "#undef A", "#undef F", "#undef CFG", "#undef W", "#undef MODE",
    "#pragma pack(1)", '_Pragma("once") int p;', '_Pragma("pack(push, 1)") int q;',
    '_Pragma("message(\\"a\\\\b\\")")', "_Pragma", "#",
    "int v = A B;", "F(A) G(1, 2) H(3) E() R;", "F(F(A)) G(B, F(2));", "CFG MODE W;",
    "W(A) W(W(1));", "P(F) 2);", "F(", "G(A,", "1,", "2)", "(3);", ")", "H", "x = E(", ");",
]
# Lines that raise, each drawn about as often as one line above is drawn
# eight times: redefinitions with a different body, malformed and
# unsupported directives, unbalanced conditionals, a header that includes
# itself.
FAULTS = [
    "#define A 2", "#define F(y) (y + A)", "#define B (A)", "#define", "#define 1",
    "#define F(x", "#define S(x) #x", "#define V(...) 1", "#undef", "#error stop here",
    "#line 3", "#bogus", "#endif", "#else", "_Pragma(1)", '_Pragma("a \\\\ b")',
    '#include "h.h"',
]
IF_HEADS = [
    "#ifdef CFG", "#ifndef A", "#if A == 1", "#if defined(F) || defined G", "#if MODE",
    "#if MODE == 2 || defined W", "#ifdef W", "#if defined H && !defined(CFG)",
    "#if (A + 1) * 2 > 3 ? 1 : 0",
]
IF_FAULTS = ["#if 1/0", "#if", "#ifdef", "#if A +"]
ELIF_HEADS = ["#elif A", "#elif 0", "#elif MODE == 2", "#elif defined F", "#elif 1"]

# Command-line macros; each unit picks a subset.
PREDEFINED = ["CFG", "MODE=2", "MODE=0", "A=1", "B=A + 1"]


def _render(group) -> list[str]:
    out: list[str] = []
    for item in group:
        if isinstance(item, str):
            out.append(item)
            continue
        head, body, elifs, else_body = item
        out.append(head)
        out += _render(body)
        for elif_head, elif_body in elifs:
            out.append(elif_head)
            out += _render(elif_body)
        if else_body is not None:
            out.append("#else")
            out += _render(else_body)
        out.append("#endif")
    return out


def _group(lines: list[str]):
    """Text of up to about 16 lines, with conditionals nested in it."""
    line = st.sampled_from(lines * 8 + FAULTS)

    def conditional(children):
        return st.tuples(
            st.sampled_from(IF_HEADS * 8 + IF_FAULTS),
            children,
            st.lists(st.tuples(st.sampled_from(ELIF_HEADS), children), max_size=2),
            st.one_of(st.none(), children),
        )

    return st.recursive(
        st.lists(line, max_size=5),
        lambda children: st.lists(st.one_of(line, conditional(children)), max_size=5),
        max_leaves=16,
    ).map(lambda group: "\n".join(_render(group)) + "\n")


# `h.h` and the units may include `g.h`; `g.h` includes nothing but,
# through a fault line, `h.h`.
GROUP = _group(LINES + ['#include "g.h"'])
UNIT = st.tuples(GROUP, GROUP, st.sets(st.integers(0, len(PREDEFINED) - 1)))


def outcome(preprocess_fn, entry, predefined, manager):
    """What preprocessing one unit gives: tokens and pragmas, or the error."""
    try:
        tokens, _, pragmas = preprocess_fn(entry, [], predefined, manager)
    except AnalysisError as exc:
        return ("error", type(exc), exc.message, exc.loc)
    return ("tokens", [
        (t.kind, t.lexeme, t.origin, tuple((f.macro, f.site) for f in t.chain),
         t.at_bol, t.ws_before, t.no_expand)
        for t in tokens
    ], [(p.loc, p.text) for p in pragmas])


class _Side:
    """One preprocessor with its own manager and predefined macros."""

    def __init__(self, preprocess_fn, define_fn, specs):
        self.preprocess = preprocess_fn
        self.manager = SourceManager()
        self.predefined = [define_fn(spec, self.manager) for spec in specs]

    def run(self, path, chosen=None):
        predefined = self.predefined if chosen is None else [self.predefined[i] for i in chosen]
        return outcome(self.preprocess, self.manager.load(path), predefined, self.manager)


def sides(specs):
    return (_Side(preprocess, macro_from_define_flag, specs),
            _Side(preprocessor_oracle.preprocess, preprocessor_oracle.macro_from_define_flag,
                  specs))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(GROUP, _group(LINES), st.lists(UNIT, min_size=2, max_size=3))
def test_units_sharing_headers_match_oracle(header, second_header, units):
    with tempfile.TemporaryDirectory() as workdir:
        files = {"h.h": header, "g.h": second_header}
        for k, (before, after, _) in enumerate(units):
            files[f"u{k}.c"] = before + '#include "h.h"\n' + after
        for name, text in files.items():
            with open(os.path.join(workdir, name), "w", encoding="ascii") as fh:
                fh.write(text)
        new, old = sides(PREDEFINED)
        for k, (_, _, chosen) in enumerate(units):
            path = os.path.join(workdir, f"u{k}.c")
            chosen = sorted(chosen)
            assert new.run(path, chosen) == old.run(path, chosen), files


# A macro context: a header included before `h.h`, and the command-line
# macros chosen.
CONTEXT = st.tuples(GROUP, st.sets(st.integers(0, len(PREDEFINED) - 1)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(GROUP, _group(LINES), st.tuples(CONTEXT, CONTEXT), st.lists(GROUP, min_size=4, max_size=6))
def test_units_alternating_two_contexts_match_oracle(header, second_header, contexts, afters):
    """Units alternate two contexts before `#include "h.h"`, so from the
    third unit on one may replay what `h.h` produced two units before,
    under the other context's entry."""
    with tempfile.TemporaryDirectory() as workdir:
        files = {"h.h": header, "g.h": second_header, "c0.h": contexts[0][0],
                 "c1.h": contexts[1][0]}
        for k, after in enumerate(afters):
            files[f"u{k}.c"] = f'#include "c{k % 2}.h"\n#include "h.h"\n' + after
        for name, text in files.items():
            with open(os.path.join(workdir, name), "w", encoding="ascii") as fh:
                fh.write(text)
        new, old = sides(PREDEFINED)
        for k in range(len(afters)):
            path = os.path.join(workdir, f"u{k}.c")
            chosen = sorted(contexts[k % 2][1])
            assert new.run(path, chosen) == old.run(path, chosen), files


# Examples of each shortcut the expansion takes, run unit after unit
# through one manager per side. Each is checked against a deliberately
# broken preprocessor (a mutant) that gives some of them a wrong outcome:
# - `reads`: an argument substituted as it is records no reads;
# - `hide`: an argument token's hide set is looked up by the size of its
#   own, not by the object, so two of one size share one;
# - `wide`: the settled test takes every name the scan has expanded so far
#   as hidden, not the token's own hide set;
# - `args`: the settled test looks at the body's names and not at the
#   argument tokens;
# - `directive`: an argument list that meets a directive is reported as
#   unterminated.
# A settled test that ignores the hide set altogether takes every defined
# name as one that can expand: that only rescans more, so no output can
# tell it apart.
SHORTCUT_CASES = {
    # `reads`: the argument holds `N`, undefined when `h.h` is first
    # processed; the second unit defines `N` and must not replay it.
    "argument_read_replayed_after_definition": (
        {"h.h": "#define ID(x) x\nint v = ID(N) + ID(M);\n",
         "u0.c": '#include "h.h"\n', "u1.c": '#define N 5\n#include "h.h"\n',
         "u2.c": '#define M 6\n#include "h.h"\n'},
        ["u0.c", "u1.c", "u2.c", "u0.c"]),
    # `wide`: the expansion ends in a function-like name and its `(` comes
    # from the source.
    "expansion_ends_in_function_like_name": (
        {"u0.c": "#define F(x) (x + 1)\n#define H F\n#define HH H\nint a = H(2) + HH(3) + H;\n"},
        ["u0.c"]),
    # `args`: an argument holds a function-like name the body calls.
    "argument_function_like_name_called_by_body": (
        {"u0.c": "#define F(x) (x + 1)\n#define CALL(f, v) f(v)\n#define TWICE(f) f(f(1))\n"
                 "int a = CALL(F, 2) + TWICE(F) + CALL(CALL, F);\n"},
        ["u0.c"]),
    # `wide`: self-reference, directly and through another name, next to a
    # name expanded earlier in the same text.
    "self_referential_names": (
        {"u0.c": "#define B 2\n#define R R + B\n#define P Q + 1\n#define Q P * B\n"
                 "#define ID(x) x\nint a = B + R + P + Q + ID(R) + ID(ID(P));\n"},
        ["u0.c"]),
    # `args`: `_Pragma` out of an expansion, from the body and from an
    # argument, each destringized and relexed (C99 6.10.9).
    "pragma_from_expansion": (
        {"u0.c": '#define PR _Pragma("pack(1)") int\n#define ID(x) x\n#define B 1\n'
                 'PR a;\nID(_Pragma("message(\\"hi\\")")) int b = ID(B);\nID(_Pragma) c;\n'},
        ["u0.c"]),
    # `hide`: one argument holds tokens of several expansions, with hide
    # sets of one size; arguments start in an expansion and end in the
    # source.
    "arguments_span_front_and_source": (
        {"u0.c": "#define A 1\n#define B 2\n#define C A B\n#define G(x, y) x y B\n"
                 "#define OPEN G(A B C,\n#define SUM(x) (x + A)\n"
                 "int a[] = { OPEN C) };\nint b = SUM(A B C) + G(C, A);\n"},
        ["u0.c"]),
    # `directive`: a directive inside the arguments, in source text and
    # after an expansion that opened them.
    "directive_inside_arguments": (
        {"u0.c": "#define F(x) x\nint a = F(1\n#define X\n);\n",
         "u1.c": "#define F(x) x\n#define OPEN F(\nint a = OPEN 1\n#undef F\n);\n"},
        ["u0.c", "u1.c"]),
}


@pytest.mark.parametrize("name", sorted(SHORTCUT_CASES))
def test_expansion_shortcuts_match_oracle(tmp_path, name):
    files, units = SHORTCUT_CASES[name]
    for path, text in files.items():
        (tmp_path / path).write_text(text, encoding="ascii")
    new, old = sides([])
    for path in units:
        full = str(tmp_path / path)
        assert new.run(full) == old.run(full), path


def workload_diffs(workload: str, seed: int, workdir: str, tus: int | None = None):
    """(units, output tokens, units whose outcome differs) over the first `tus` units."""
    project = generate(workload, seed)
    for path, text in project.files.items():
        full = os.path.join(workdir, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="ascii") as fh:
            fh.write(text)
    new, old = sides(BUILTIN_MACRO_SPECS)
    units = tokens = diffs = 0
    for path in project.tus[:tus]:
        full = os.path.join(workdir, path)
        got, want = new.run(full), old.run(full)
        units += 1
        tokens += len(got[1]) if got[0] == "tokens" else 0
        diffs += got != want
    return units, tokens, diffs


def test_workload_units_match_oracle(tmp_path):
    for workload in WORKLOADS:
        units, tokens, diffs = workload_diffs(workload, 1, str(tmp_path / workload), 10)
        assert units == 10 and tokens > 0 and diffs == 0


def main(argv: list[str]) -> int:
    """Compare every translation unit of all three workloads at the given seeds."""
    import argparse
    import json

    ap = argparse.ArgumentParser(description=main.__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    report = {}
    for workload in WORKLOADS:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                units, tokens, diffs = workload_diffs(workload, seed, workdir)
            report[f"{workload}:{seed}"] = {"tus": units, "tokens": tokens, "diffs": diffs}
    print(json.dumps(report))
    return 0 if all(r["diffs"] == 0 for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
