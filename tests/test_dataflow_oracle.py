"""Recorded constants and the bit-vector analyses against the old code.

`consteval_oracle` is the recursive `const_eval` the resolver replaced, and
`dataflow_oracle` is definite assignment and liveness as they were before
bit vectors. On every function:
- every expression of the unit, and every node of every lowered item and
  terminator, has the constant value and `behavior` tag the recursive
  evaluator gives it; every `TBranch` the folded value of its condition;
- definite assignment gives the same `ReadEvent`s in the same order and the
  same `decl_spans`, in no more solver visits;
- liveness gives the same `live_in`, the same `is_live_after` at every item
  of every block for every uid the graph mentions, and the same solver
  visits.

The inputs are the snippets of the interval oracle, of the lifetime tests
and of the definite-assignment, liveness, R9.1 and R2.2 tests, cases aimed
at constant folding, and the first TUs of two benchmark workloads.

Run as a script to compare every function of whole workloads:

    PYTHONPATH=src:tests:perfbench python3 tests/test_dataflow_oracle.py --seeds 1 2
"""
from __future__ import annotations

import sys

import pytest

import consteval_oracle
import dataflow_oracle
from ccomply.flow import build_cfg, definite_assignment, interval_analysis, liveness
from ccomply.flow.cfg import DeclItem, TBranch
from ccomply.parsing import Binary, CompoundAssign, Expr, FunctionDef, If, parse, walk
from ccomply.sema import resolve
from ccomply.sema.typesys import DEFAULT_MODEL
from flow_helpers import analyze_fn, probe_points, sym_named, workload_units
from rule_helpers import PRELUDE
from support import pp_text
from test_interval_oracle import SNIPPETS as INTERVAL_SNIPPETS
from test_lifetime import SNIPPETS as LIFETIME_SNIPPETS

SNIPPETS = INTERVAL_SNIPPETS + list(LIFETIME_SNIPPETS.values()) + [
    # Definite assignment (test_dataflow.TestDefiniteAssignment, R9.1).
    "void f(void) { int x; use(x); }",
    "void f(int a) { int x; if (a) x = 1; else x = 2; use(x); }",
    "void f(int a) { int x; if (a) x = 1; if (a) use(x); }",
    "extern void fill(int *);\nvoid f(void) { int x; int *p = &x; fill(p); use(x); }",
    "void f(int a) { use(a); }",
    "void f(void) { int x = 3; use(x); }",
    "void f(void) { int x; use(x); x = 1; }",
    "void f(int n) { int i; int s; for (i = 0; i < n; ++i) { s = i; } use(s); }",
    "void f(int c) { int x; int *p = &x; if (c) { *p = 1; } use(x); x = 2; use(x); }",
    "void f(int c) { static int s; int t; if (c) { t = s; } use(t); }",
    "void f(int c) { int a; int b; a = c ? b : 1; use(a); }",
    "void f(int c) { int x; switch (c) { case 1: x = 1; break; default: break; } use(x); }",
    "void f(int c) { int x; goto done; x = 1; done: use(x); }",
    "void f(int c) { int x; while (c) { use(x); x = c; c--; } }",
    # Liveness (test_dataflow.TestLiveness, R2.2).
    "void f(void) { int x; x = 1; x = 2; use(x); }",
    "void f(void) { int x; x = get(); }",
    "int f(int n) { int s = 0; int i; for (i = 0; i < n; ++i) { s = s + i; } return s; }",
    "void f(void) { volatile int v; v = 1; v = 2; }",
    "void f(int a) { int t; a + 1; t = a; t = a + 2; use(t); }",
    "void f(int *p) { int x = 1; int *q = &x; *p = 2; x = 3; use(*q); }",
    "void f(int n) { int x = 0; do { x = x + n; n--; } while (n > 0); }",
    "void f(int a, int b) { int t; t = (a && b); t = a ? b : t; use(t); }",
    "void f(int a) { int x; int y; x = a; y = x; x = y; return; y = 2; }",
    # Constants: every operator, strictness, flaws, and values read by CFG
    # lowering (case labels, folded branches), R11.4 and R12.2.
    "enum E { A = 2, B, C = B << 3 };\n"
    "void f(int x) { int a[A + 1]; use(sizeof a + sizeof(struct { int m; char c; }));"
    " use(-(1) + ~0 + !5 + (unsigned char)300 + (1 ? 2 : 3) + (0 ? x : 3));"
    " use(C % 7 + (1 << 20) - 1 + 10 / 3 + -7 / 2 + -7 % 2 + (-1 < 0u) + (3 && 0) + (0 || 4)); }",
    "void f(void) { use(2147483647 + 1); use(1 / 0); use(1 << 40); use(-1 << 1); "
    "use(4294967295u + 1u); use((1 / 0) + 1); use((2147483647 + 1) * 0 + get()); }",
    "void f(int x) { if ((1 ? 2 : 3) + 4) { use(1); } if (1 && x) { use(2); } "
    "if (0 || 0) { use(3); } while ((x, 1)) { if (x++ > 3) { break; } } }",
    "void f(int x) { int *p = 0; int *q = (int *)(2 - 2); int *r = (int *)8; "
    "if (p == 0) { use(1); } useu(x << (31 & 0x1F)); usep(q); usep(r); "
    "switch (x) { case 1 + 1: break; case 'a': break; case sizeof(int): break; } }",
]


def compare_constants(tu) -> list[str]:
    """Nodes of `tu` whose recorded value or `behavior` differs from the oracle's.

    The oracle tags as it evaluates, so every tag is cleared first and each
    node is then evaluated once by the oracle; it tags exactly the nodes
    whose own evaluation has a flaw.
    """
    nodes = [n for n in walk(tu) if isinstance(n, Expr)]
    recorded = [(n.const_value, n.behavior) for n in nodes]
    for n in nodes:
        n.behavior = None
    oracle = [consteval_oracle.const_eval(n, DEFAULT_MODEL).value for n in nodes]
    diffs = []
    for n, (value, behavior), want in zip(nodes, recorded, oracle):
        if (value, behavior) != (want, n.behavior):
            diffs.append(f"{type(n).__name__} at {n.span}: recorded {(value, behavior)} "
                         f"!= oracle {(want, n.behavior)}")
    return diffs


def compare_function(cfg) -> tuple[list[str], int, int]:
    """Differences on one function, then its definite-assignment visits, new and old."""
    name = cfg.fn.name
    diffs = []

    def check(what, a, b):
        if a != b:
            diffs.append(f"{name}: {what}: {a!r} != {b!r}")

    # Constants of the lowered code: rebuilt nodes and temporaries included.
    for b in cfg.blocks:
        exprs = [item.init if isinstance(item, DeclItem) else item.expr for item in b.items]
        for expr in exprs + [b.term_expr]:
            for node in walk(expr) if expr is not None else ():
                check(f"lowered {type(node).__name__} at {node.span}", node.const_value,
                      consteval_oracle.const_eval(node, DEFAULT_MODEL).value)
        if isinstance(b.term, TBranch):
            check(f"TBranch of block {b.id}", b.term.const_value,
                  consteval_oracle.const_eval(b.term.cond, DEFAULT_MODEL).value)

    new, old = definite_assignment(cfg), dataflow_oracle.definite_assignment(cfg)
    check("reads", [_read(ev) for ev in new.reads], [_read(ev) for ev in old.reads])
    check("decl_spans", {uid: entry.span for uid, entry in new.decl_entries.items()},
          old.decl_spans)
    if new.iterations > old.iterations:
        diffs.append(f"{name}: definite assignment visits {new.iterations} > {old.iterations}")

    live, old_live = liveness(cfg), dataflow_oracle.liveness(cfg)
    check("live_in", live.live_in, old_live.live_in)
    check("liveness iterations", live.iterations, old_live.iterations)
    uids = sorted(_mentioned_uids(cfg))
    for b in cfg.blocks:
        for idx in range(-1, len(b.items) + 1):
            got = [uid for uid in uids if live.is_live_after(b.id, idx, uid)]
            want = [uid for uid in uids if old_live.is_live_after(b.id, idx, uid)]
            check(f"is_live_after({b.id}, {idx})", got, want)
    return diffs, new.iterations, old.iterations


def _read(ev):
    return id(ev.node), ev.sym.uid, ev.state.name, ev.block, ev.index


def _mentioned_uids(cfg) -> set[int]:
    uids = set(cfg.addr_taken)
    for b in cfg.blocks:
        for item in b.items:
            if isinstance(item, DeclItem):
                uids.add(item.symbol.uid)
            uids.update(ev.sym.uid for ev in item.events if ev.sym is not None)
        uids.update(ev.sym.uid for ev in b.term_events if ev.sym is not None)
    return uids


def compare_unit(tu) -> tuple[list[str], int, int, int]:
    """(differences, functions, new and old definite-assignment visits) over one unit."""
    diffs = compare_constants(tu)
    functions = new_visits = old_visits = 0
    for fn in tu.decls:
        if isinstance(fn, FunctionDef):
            found, new, old = compare_function(build_cfg(fn))
            diffs += found
            functions += 1
            new_visits += new
            old_visits += old
    return diffs, functions, new_visits, old_visits


def _unit(text: str):
    toks, _, _, _ = pp_text(PRELUDE + text)
    tu = parse(toks, "t.c")
    resolve(tu)
    return tu


@pytest.mark.parametrize("text", SNIPPETS)
def test_snippet_matches_oracle(text):
    assert compare_unit(_unit(text))[0] == []


@pytest.mark.parametrize("workload", ["project_all_rules", "header_heavy"])
def test_workload_matches_oracle(workload, tmp_path):
    units = list(workload_units(workload, 1, str(tmp_path), 10))
    assert units
    results = [compare_unit(tu) for tu in units]
    assert sum(functions for _, functions, _, _ in results) > 0
    assert [d for diffs, _, _, _ in results for d in diffs] == []


class TestNodesBuiltAfterResolution:
    """Nodes that lowering builds read as not constant, as the recursive evaluator saw them."""

    def test_condition_rebuilt_around_a_temporary_stays_open(self):
        tu = _unit("void f(void) { if ((1 ? 2 : 3) + 4) { use(1); } }")
        fn = tu.decls[-1]
        stmt = next(n for n in walk(fn) if isinstance(n, If))
        assert stmt.cond.const_value == 6
        cfg = build_cfg(fn)
        (branch,) = [b.term for b in cfg.blocks
                     if isinstance(b.term, TBranch) and b.term.node is stmt]
        assert branch.cond is not stmt.cond
        assert branch.const_value is None
        assert cfg.has_open_branch

    def test_compound_assignment_is_not_constant(self):
        cfg, fn, table, _ = analyze_fn(
            "void f(int c) { int x = 0; if (c) { x = 5; } x += 1; probe(x); }")
        compound = next(n for n in walk(fn) if isinstance(n, CompoundAssign))
        assert compound.const_value is None
        # The operation interval lowering builds for it.
        assert Binary(compound.op, compound.target, compound.value).const_value is None
        (bid, idx, _), = probe_points(cfg)
        x = interval_analysis(cfg).env_at(bid, idx)[sym_named(table, "x").uid]
        assert (x.lo, x.hi) == (1, 6)


def main(argv: list[str]) -> int:
    """Compare every function of both workloads at the given seeds."""
    import argparse
    import json
    import tempfile

    ap = argparse.ArgumentParser(description=main.__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    report = {}
    for workload in ("project_all_rules", "header_heavy"):
        for seed in args.seeds:
            row = {"units": 0, "functions": 0, "diffs": 0,
                   "assign_visits": 0, "oracle_assign_visits": 0}
            with tempfile.TemporaryDirectory() as workdir:
                for tu in workload_units(workload, seed, workdir):
                    diffs, functions, new, old = compare_unit(tu)
                    row["units"] += 1
                    row["functions"] += functions
                    row["diffs"] += len(diffs)
                    row["assign_visits"] += new
                    row["oracle_assign_visits"] += old
            report[f"{workload}:{seed}"] = row
    print(json.dumps(report))
    return 0 if all(r["diffs"] == 0 for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
