"""The `Expr.kinds` masks sema records, and the walks that skip subtrees by them.

Four oracles, each checked on every input:
- every expression's `kinds` equals a mask built from a `children` walk of
  its subtree (`oracle_kinds`);
- every full expression R13.2 skips (`_cannot_conflict`) gives no conflict
  from `_accesses`, with every variable taken as escaped;
- every CFG item and terminator expression the interval lowering skips
  lowers to a function that cannot change the state, with calls forgetting
  an address-taken variable;
- `NodeIndex` equals `walk` filtered to the nodes it keeps, by identity and
  order (`test_parser.node_index_diffs`).

The inputs are the parser corpus, the data-flow and checker snippets,
shapes aimed at the mask bits, and the first units of each benchmark
workload.

Run as a script to check whole workloads and count what is skipped:

    PYTHONPATH=src:tests:perfbench python3 tests/test_kinds.py --seeds 1 2 3
"""
from __future__ import annotations

import sys
from dataclasses import replace

import pytest

from ccomply.errors import SemaError
from ccomply.flow import build_cfg
from ccomply.flow.cfg import DeclItem
from ccomply.flow.intervals import _MUTATORS, _AbstractEval, _tracked
from ccomply.parsing import (
    KIND_ADDR, KIND_ALL, KIND_BRANCH, KIND_CALL, KIND_CAST, KIND_MULTICALL, KIND_SIZEOF,
    KIND_STORE, KIND_VOLATILE, AddrOf, Assign, Binary, Call, Cast, Comma, CompoundAssign,
    Conditional, Deref, Expr, FunctionDef, Identifier, IncDec, Index, Member, NodeIndex,
    Sizeof, walk,
)
from ccomply.rules.checkers_ast import _accesses, _cannot_conflict, _full_expressions
from ccomply.sema.typesys import DEFAULT_MODEL
from flow_helpers import workload_units
from gen import WORKLOADS
from rule_helpers import PRELUDE
from test_call_sites import CORPUS_PRELUDE
from test_checkers import EVALUATION_SHAPES
from test_dataflow_oracle import SNIPPETS as DATAFLOW_SNIPPETS
from test_lifetime import SNIPPETS as CHECKER_SNIPPETS
from test_parser import CORPUS_SAMPLES, node_index_diffs
from test_sema import analyze as _resolved

WORKLOAD_TUS = 10  # units of each workload the tier-1 comparison runs

_OWN = {Assign: KIND_STORE, CompoundAssign: KIND_STORE, IncDec: KIND_STORE,
        Call: KIND_CALL, AddrOf: KIND_ADDR, Cast: KIND_CAST, Sizeof: KIND_SIZEOF}

# Shapes aimed at each bit: volatile objects, members and elements, calls
# as siblings, nested and under `sizeof`, and stores R13.2 may skip or not.
SHAPES = [
    "volatile int v;\nint w;\nvoid f(int x) { w = v; x = v + 1; use(x); }",
    "struct R { int m; int a[2]; };\nvolatile struct R r;\nstruct R s;\n"
    "void f(void) { int t = r.m + r.a[1]; s.m = t; use(s.a[0]); }",
    "void f(volatile int *p, int *q) { int t = *p; *q = p[1]; use(t + *(volatile int *)q); }",
    "void f(int x) { use(get() + get()); x = get() + 1; use(x); use(get()); }",
    "int g(int);\nvoid f(int x) { x = g(g(x)); use(x); x = sizeof(g(1)) + g(2); use(x); }",
    "int g(int);\nvoid f(int x, int y) { x = y = 1; x += y++; y = x++; use(g(x) && g(y)); }",
    "void f(int *p, int i) { int a[2] = { i++, i }; p[i] = i++; *p = i; a[0] = a[1]; "
    "usep(&a[i]); use((int)sizeof(int[sizeof(get())]) + a[0]); }",
    "void f(int x) { int y = (x > 0 && get()) || (x < 0 ? get() : 1); use(y); }",
    "void f(unsigned n) { for (unsigned i = 0u; i < n; i++) { useu(i); } }",
    "void f(int x) { int a[2] = { 0, 0 }; x = x++; a[x++]++; x = a[x] = 1; use(x); }",
]

TEXTS = ([PRELUDE + t for t in DATAFLOW_SNIPPETS + SHAPES + list(CHECKER_SNIPPETS.values())]
         + [PRELUDE + text for _, text, _ in EVALUATION_SHAPES])


def oracle_kinds(e: Expr) -> int:
    """`e`'s mask, from its own bits and those of every node `walk` gives."""
    kinds = calls = 0
    for n in walk(e):
        cls = type(n)
        kinds |= _OWN.get(cls, 0)
        calls += cls is Call
        if cls is Binary and n.op in ("&&", "||") or cls is Conditional or cls is Comma:
            kinds |= KIND_BRANCH
        elif cls is Identifier and n.symbol is not None and "volatile" in n.symbol.quals:
            kinds |= KIND_VOLATILE
        elif cls in (Deref, Index, Member) and "volatile" in n.ctype.quals:
            kinds |= KIND_VOLATILE
    return kinds | (KIND_MULTICALL if calls > 1 else 0)


def _expressions(tu):
    return [n for decl in tu.decls for n in walk(decl) if isinstance(n, Expr)]


def kinds_diffs(tu) -> list[str]:
    """The expressions whose recorded mask differs from the oracle's."""
    return [f"{tu.path}: {type(e).__name__} at {e.start}: {e.kinds} != {oracle_kinds(e)}"
            for e in _expressions(tu) if e.kinds != oracle_kinds(e)]


def order_skips(tu) -> tuple[int, int, list[str]]:
    """(full expressions, those R13.2 skips, skipped ones with a conflict)."""
    total, skipped, diffs = 0, 0, []
    index = NodeIndex(tu.decls)
    for fn in tu.decls:
        if not isinstance(fn, FunctionDef):
            continue
        for full in _full_expressions(index.subtree(fn.body)):
            total += 1
            if _cannot_conflict(full):
                skipped += 1
                conflicts: list = []
                _accesses(full, lambda key: True, conflicts)
                if conflicts:
                    diffs.append(f"{tu.path}: {fn.name}: {full.start}: {conflicts[0][2]}")
    return total, skipped, diffs


def lowering_skips(tu) -> tuple[int, int, list[str]]:
    """(items and terminators, those the lowering skips, skipped ones that change)."""
    total, skipped, diffs = 0, 0, []
    for fn in tu.decls:
        if not isinstance(fn, FunctionDef):
            continue
        cfg = build_cfg(fn)
        # A call forgets an address-taken variable, so a skipped call shows.
        lower = _AbstractEval(DEFAULT_MODEL, frozenset({-1}))
        exprs = []
        for b in cfg.blocks:
            for item in b.items:
                if not isinstance(item, DeclItem):
                    exprs.append(item.expr)
                elif item.init is not None and not _tracked(item.symbol):
                    exprs.append(item.init)
            if b.term_expr is not None:
                exprs.append(b.term_expr)
        for e in exprs:
            total += 1
            if not e.kinds & _MUTATORS:
                skipped += 1
                if lower._lower(e, True)[1]:
                    diffs.append(f"{tu.path}: {fn.name}: {type(e).__name__} at {e.start}")
    return total, skipped, diffs


def all_diffs(tu) -> list[str]:
    return (kinds_diffs(tu) + order_skips(tu)[2] + lowering_skips(tu)[2]
            + [f"{tu.path}: NodeIndex {d}" for d in node_index_diffs(tu)])


def _corpus_tu(text: str):
    try:
        return _resolved(text)[0]
    except SemaError:
        return _resolved(CORPUS_PRELUDE + text)[0]


@pytest.mark.parametrize("idx", range(len(CORPUS_SAMPLES)))
def test_corpus_matches_the_oracles(idx):
    assert all_diffs(_corpus_tu(CORPUS_SAMPLES[idx])) == []


@pytest.mark.parametrize("idx", range(len(TEXTS)))
def test_snippets_match_the_oracles(idx):
    assert all_diffs(_resolved(TEXTS[idx])[0]) == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_units_match_the_oracles(workload, tmp_path):
    tus = list(workload_units(workload, 1, str(tmp_path), WORKLOAD_TUS))
    assert len(tus) == WORKLOAD_TUS
    assert [d for tu in tus for d in all_diffs(tu)] == []
    # The skips happen: most full expressions and items hold nothing to check.
    orders = [order_skips(tu) for tu in tus]
    lowerings = [lowering_skips(tu) for tu in tus]
    assert 0 < sum(s for _, s, _ in orders) < sum(t for t, _, _ in orders)
    assert 0 < sum(s for _, s, _ in lowerings) < sum(t for t, _, _ in lowerings)


def _stmt_exprs(text: str) -> list[Expr]:
    """The expression of each expression statement of the last function."""
    tu, _ = _resolved(PRELUDE + text)
    return [s.expr for s in tu.decls[-1].body.items if hasattr(s, "expr")]


def test_masks_of_shapes():
    exprs = _stmt_exprs(
        "volatile int v;\nint g(int);\n"
        "void f(int x, int *p) { x = 1; g(x) + g(1); g(g(x)); x = sizeof(g(1)) + g(2); "
        "x = v; *p = (int)v; p = &x; x > 0 && g(x); }")
    assert [e.kinds for e in exprs] == [
        KIND_STORE,
        KIND_CALL | KIND_MULTICALL,
        KIND_CALL | KIND_MULTICALL,
        KIND_STORE | KIND_SIZEOF | KIND_CALL | KIND_MULTICALL,
        KIND_STORE | KIND_VOLATILE,
        KIND_STORE | KIND_CAST | KIND_VOLATILE,
        KIND_STORE | KIND_ADDR,
        KIND_BRANCH | KIND_CALL,
    ]
    # A leaf holds nothing; a node built after sema holds every bit.
    assert exprs[0].target.kinds == exprs[0].value.kinds == 0
    assert replace(exprs[0]).kinds == Identifier("x").kinds == KIND_ALL


def test_masks_of_branch_shapes():
    # Every operator CFG lowering splits sets KIND_BRANCH; other operators,
    # and a `sizeof` of a branch, hold only their own bits and the operand's.
    exprs = _stmt_exprs(
        "void f(int x, int y) { x = y ? 1 : 2; use((x, y)); x ? get() : 0; (x, y); "
        "x = y || x; use(x + y); x = sizeof(x ? 1 : 2); }")
    assert [e.kinds for e in exprs] == [
        KIND_STORE | KIND_BRANCH,
        KIND_CALL | KIND_BRANCH,
        KIND_BRANCH | KIND_CALL,
        KIND_BRANCH,
        KIND_STORE | KIND_BRANCH,
        KIND_CALL,
        KIND_STORE | KIND_SIZEOF | KIND_BRANCH,
    ]
    conditional, comma = exprs[0].value, exprs[3]
    assert type(conditional) is Conditional and type(comma) is Comma
    assert conditional.cond.kinds == comma.left.kinds == 0


@pytest.mark.parametrize("stmt, skipped", [
    ("x = y + get();", True),
    ("x += y;", True),
    ("x++;", True),
    ("use(x + y);", True),
    ("x = y = 1;", False),
    ("x = get() + get();", False),
    ("use(get());", False),
    ("a[x] = y;", False),
    ("*p = y;", False),
    ("x = v;", False),
    ("use(x++ + x);", False),
    ("x = x++;", False),
    ("a[x++]++;", False),
])
def test_which_full_expressions_r13_2_skips(stmt, skipped):
    text = (f"volatile int v;\n"
            f"void f(int x, int y, int *p) {{ int a[2] = {{ 0, 0 }}; {stmt} use(a[0]); }}")
    assert _cannot_conflict(_stmt_exprs(text)[0]) is skipped


def test_index_keeps_only_looked_up_classes():
    tu, _ = _resolved(PRELUDE + "void f(int x) { int n = sizeof(x && get()); "
                                "use(n + (x || get())); }")
    index = NodeIndex(tu.decls)
    logic = index.of(Binary)
    assert [b.op for b in logic] == ["&&", "||"]
    assert logic[0] in index.unevaluated and logic[1] not in index.unevaluated
    for cls in (Identifier, Deref, Index, Member):
        with pytest.raises(TypeError):
            index.of(cls)


def main(argv: list[str]) -> int:
    """Check every unit of every workload at the given seeds and count the skips."""
    import argparse
    import json
    import tempfile

    ap = argparse.ArgumentParser(description=main.__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    report = {}
    for workload in sorted(WORKLOADS):
        for seed in args.seeds:
            row = dict.fromkeys(("full_expressions", "r13_2_skipped", "items", "lowering_skipped",
                                 "index_kept", "walked", "diffs"), 0)
            with tempfile.TemporaryDirectory() as workdir:
                for tu in workload_units(workload, seed, workdir):
                    total, skipped, order_diffs = order_skips(tu)
                    items, lowered, lowering_diffs = lowering_skips(tu)
                    row["full_expressions"] += total
                    row["r13_2_skipped"] += skipped
                    row["items"] += items
                    row["lowering_skipped"] += lowered
                    row["index_kept"] += len(NodeIndex(tu.decls).nodes)
                    row["walked"] += sum(1 for decl in tu.decls for _ in walk(decl))
                    row["diffs"] += len(kinds_diffs(tu) + order_diffs + lowering_diffs
                                        + node_index_diffs(tu))
            report[f"{workload}:{seed}"] = row
    print(json.dumps(report))
    return 0 if all(r["diffs"] == 0 for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
