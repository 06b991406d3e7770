"""The lowered interval analysis against the original evaluator (`interval_oracle`).

On every function both must give the same state at every program point,
the same terminator states, dead edges, statement outcomes, block visits
and widenings, and the same `eval_expr` on every shift's right operand.
The inputs are the snippets of the interval, R12.2, R14.3 and R2.1 tests,
cases aimed at the lowering's special paths and at branches, and the
first TUs of two benchmark workloads.

The analysis takes each block's terminator state, and which edges of each
branch are live, from the solver's last visit to the block; `replay_diffs`
checks them against a replay of every reached block at the fixpoint
(`state_at` to the terminator, then the block's edge function).

Run as a script to compare every function of whole workloads, both ways:

    PYTHONPATH=src:tests:perfbench python3 tests/test_interval_oracle.py --seeds 1 2 3
"""
from __future__ import annotations

import sys

import pytest

import interval_oracle
from ccomply.flow import build_cfg, interval_analysis
from ccomply.flow.cfg import DeclItem, TBranch
from ccomply.flow.intervals import Interval
from ccomply.flow.solver import state_at
from ccomply.parsing import Binary, CompoundAssign, FunctionDef, If, walk
from flow_helpers import analyze_fn, workload_units
from gen import WORKLOADS
from rule_helpers import PRELUDE

SNIPPETS = [
    # The interval tests (test_dataflow.TestIntervals).
    "void f(void) { int x; x = 5; use(x); }",
    "void f(uint32_t n) { if (n < 32) { use(n); } }",
    "void f(uint32_t n) { if (n < 32) { } else { use(n); } }",
    "void f(void) { int i; for (i = 0; i < 10; ++i) { use(i); } }",
    "void f(int n) { int i = 0; while (n) { use(i); i = i + 1; } }",
    "void f(int n) { int i = 0; while (i < n) { use(i); i = i + 1; } }",
    "extern void touch(int *);\n"
    "void f(void) { int x = 1; int *p = &x; touch(p); use(x); }",
    "void f(void) { int x = 32 & 0x1F; use(x); }",
    "void f(int x) { use(x * 0); }",
    "void f(uint8_t u) { use(u); }",
    "void f(int n) { int i; int s = 0; for (i = 0; i < n; ++i) "
    "{ if (s < 100) { s += i; } } use(s); }",
    # R12.2.
    "void f(void) { uint32_t i = 1; i = i << 32; useu(i); }",
    "void f(void) { uint32_t i = 1; i = i << (32 & 0x1F); useu(i); }",
    "void f(uint32_t i, uint32_t n) { if (n <= 40u) { useu(i << n); } }",
    "void f(uint32_t i, uint32_t n) { if (n < 32u) { useu(i << n); } }",
    "void f(int x) { use(x << -1); }",
    "void f(uint8_t b) { use(b << 20); }",
    "void f(void) { uint32_t i = 1; i <<= 32; useu(i); }",
    # R14.3.
    "void f(void) { uint8_t u = get(); if (u < 256) { use(1); } }",
    "void f(void) { while (1) { if (get()) { break; } } }",
    "void f(void) { do { get(); } while (0); }",
    "void f(void) { if (0) { use(1); } }",
    "void f(uint8_t u) { if (u < 10) { use(1); } }",
    # R2.1.
    "void f(void) { return; use(1); }",
    "void f(void) { if (0) { use(1); } use(2); }",
    "void f(int x) { if (x * 0 == 0) { use(1); } else { use(2); } }",
    "void f(void) { while (1) { get(); } use(1); }",
    "void f(int a) { if (a) { use(1); } else { use(2); } use(3); }",
    # Temporaries of different types across a widened loop; each has its
    # own uid, so each is widened to the range of its own type.
    "void f(int n, int a, int b) { long k = 0; long t = (a && b); int i; for (i = 0; i < n; i++) "
    "{ t = t + (a ? k : 0L); k = k + 1; } use((int)t); }",
    "void f(int n, uint8_t c) { int s = 0; int i; for (i = 0; i < n; i++) "
    "{ s = s + (c ? 300 : (uint8_t)i) + (i && n); } use(s); }",
    "void f(long n) { long k = 0; while (k < n || n > 7) "
    "{ k = k + (n > 3 ? (unsigned char)k : 9L); } use((int)k); }",
    # Calls forget address-taken locals, not other locals; a static local
    # is never tracked.
    "void f(int n) { static int calls = 0; int x = 3; int *p = &n; "
    "while (calls < n) { calls = calls + 1; get(); x = x + *p; } use(x + calls); }",
    "void f(void) { static int calls = 0; get(); if (calls > 0) { use(calls); } }",
    # Branches decided by the condition's value, not by narrowing.
    "void f(int x) { if (x * 0) { use(1); } if (x * 0 + 3) { use(2); } }",
    # Stores through memory, with side effects in the address.
    "void f(int *a, int i) { int k = 0; int *q = &k; a[i++] += 1; *q = 2; "
    "a[k++] = a[i] << k; use(k + i); }",
    # Volatile reads, negated and scalar conditions, casts.
    "void f(volatile int v, int x) { if (!(v < 3)) { use(v); } "
    "if (!!x) { use(x); } else { use(x); } if ((char)x) { use(x); } }",
    "void f(int x) { if (x) { use(x); } if (!x) { use(x); } "
    "if (x == 5) { use(x); } if (5 != x) { use(x); } if (x >= x) { use(x); } }",
    # Switches, with a narrowable and an opaque scrutinee.
    "void f(int x) { int y = 0; switch (x) { case 1: y = x; break; "
    "case 2: case 3: y = x << x; break; default: y = -x; } "
    "switch (x + 1) { case 4: y++; break; } use(y); }",
    # goto loops (label blocks are loop heads).
    "void f(int n) { int i = 0; top: i++; if (i < n) goto top; use(i); }",
    # Division, remainder, bitwise, unary, increments.
    "void f(int a, unsigned b) { int r = 0; int i; for (i = -3; i < 9; i += 2) "
    "{ r = r + a / (i | 1) + (a % 7) - (int)(b & 12u) + (~i ^ 5) - -i; "
    "r += b >> 3; r -= i--; i++; } use(r); }",
    # Static locals are initialised once, before startup.
    "void f(void) { static int n = 0; if (n == 0) { use(1); } n = 5; }",
    "void f(void) { static int calls = 0; if (calls > 0) { use(calls); } calls = 1; }",
    "void f(void) { static unsigned k = 40u; useu(1u << k); k = 3u; }",
    # Initializer lists and the operand of `&` are evaluated.
    "void f(void) { int x = 0; int a[1] = { x++ }; use(a[0]); if (x == 0) { use(1); } }",
    "struct P { int m; };\nvoid f(void) { int z = 0; struct P s = { z = 3 }; use(s.m); "
    "if (z == 0) { use(1); } }",
    "void f(void) { int i = 0; int a[2]; int *p = &a[i++]; usep(p); if (i == 0) { use(1); } }",
    # `op=` and `++` compute their target's address once.
    "void f(void) { int i = 0; int a[2] = { 0, 0 }; a[i++] += 1; use(a[0]); "
    "if (i == 2) { use(1); } }",
    "void f(void) { int k = 0; int b[2] = { 0, 0 }; b[k++]++; use(b[0]); if (k == 1) { use(1); } }",
    "void f(void) { int k; int b[2] = { 0, 0 }; b[k]++; use(b[0]); }",
    # Only a store through a pointer (`*q`, `i[q]`) or a call forgets `x`.
    "struct S { int m; };\nvoid f(void) { struct S s; int t[2]; int x; int *p = &x; x = 1; "
    "s.m = 2; t[0] = 2; if (x == 1) { use(1); } usep(p); use(s.m + t[0]); }",
    "struct S { int m; };\nvoid f(int *q) { struct S s; int t[2]; int x; int *p = &x; x = 1; "
    "*q = 2; if (x == 1) { use(1); } usep(p); use(s.m + t[0]); }",
    "void f(int *q, int i) { int x; int *p = &x; x = 1; i[q] = 2; if (x == 1) { use(1); } usep(p); }",
    "void f(int i) { int t[2]; int x; int *p = &x; x = 1; i[t] = 2; if (x == 1) { use(1); } "
    "usep(p); use(t[0]); }",
    "struct S { int m; };\nvoid f(void) { struct S s; int t[2]; int x; int *p = &x; x = 1; "
    "get(); if (x == 1) { use(1); } usep(p); use(s.m + t[0]); }",
    # && || ?: and , in controlling expressions.
    "void f(int a, int b) { while (a < 10 && (b = a, b > 2)) { a++; } "
    "if (a ? b : a + 1) { use(a); } if (a > 3 || b < 0) { use(b); } "
    "for (; a < 100 && b; a += b) { use(a << b); } }",
    # Conditions that store are read before their stores; both edges take
    # the state after them.
    "void f(int x) { int y = 0; if (x > 0 && (y = 1, y > 0)) { use(y); } }",
    "void f(int x) { int y = 0; if (x > 0 && y++ == 0 && y == 1) { use(y); } }",
    "void f(void) { int x = 0, y = 0; if (x++ == 0) { y = 5; } if (y == 0) { use(1); } }",
    "void f(void) { int x = 0; unsigned s = 40u; if (x++ == 0) { useu(1u << s); } }",
    "void f(int n) { int i = 0; while (i++ < n) { use(i); } do { n--; } while (--n > 3); "
    "if ((i = get()) != 0) { use(i); } if (n < get()) { use(n); } }",
    "void f(int *p, int n) { int k = 0; int *q = &k; while (n < get() && (*p = n) > k) "
    "{ n++; } if ((*q = 3) == 3) { use(k); } }",
    # Casts: a scalar condition or a switch sees a variable only through
    # casts that keep its values.
    "void f(void) { int x = 256, y = 0; if ((unsigned char)x) { y = 1; } if (y == 0) { use(2); } }",
    "void f(unsigned char c, int x) { if ((int)c) { use(c); } if ((long)(short)x) { use(x); } "
    "switch ((unsigned char)x) { case 0: use(0); break; case 300: use(1); } "
    "switch ((long)c) { case 1: use(c); break; case 256: use(2); } }",
    # Opaque conditions exclude the side their value rules out.
    "void f(int x) { if (x * 0) { use(1); } if (!(x & 0)) { use(2); } if ((x, 3)) { use(3); } }",
    # Outcomes: a for init's short-circuit is not the loop's condition, and
    # a condition refuted on one path still counts the other.
    "void f(int c) { int i = 0; for (c && get(); i < 3; i++) { use(i); } }",
    "void f(int x) { if (x > 0 && x < 0) { use(x); } while (x > 5 || x < 9) { x = get(); } }",
    # Mixed-sign comparisons convert both operands to their common type
    # (C99 6.5.8p3): -3 and -1 become large unsigned values, and an
    # `unsigned char` promotes to `int` instead.
    "void f(void) { int x = -3; if (x < 5u) { use(1); } }",
    "void f(void) { unsigned u = 3u; int x = -1; if (u > x) { use(1); } }",
    "void f(void) { unsigned char c = 200; int x = -1; if (c > x) { use(c); } if (x < c) { use(x); } }",
    # C99 6.5p3: a call may set an address-taken local before or after a
    # read of it in the same full expression, so the read is its type range.
    "extern int set(int *);\n"
    "void f(void) { int x = 0; int *p = &x; if (x + set(p) * 0 == 0) { use(1); } }",
    "extern int set(int *);\n"
    "void f(void) { int x = 0; int *p = &x; int y = x + set(p) * 0; if (y == 0) { use(1); } }",
    "extern int set(int *);\n"
    "void f(unsigned u) { int n = 40; int *p = &n; useu(set(p) + (u << n)); "
    "switch (set(p) + n) { case 1: use(n); } return; }",
    "void f(void) { int x = 0; int *p = &x; if (x + *p * 0 == 0) { use(1); } }",
    "extern int set(int *);\nextern int id(int);\n"
    "void f(unsigned u) { int n = 3; int *p = &n; usep(p); n = 3; useu(u << n); "
    "useu(u << id(n)); useu(u << (n + set(p))); if (set(&n) > n) { use(n); } "
    "int k = id(id(n)) + (int)sizeof(set(p) + n); use(k); }",
]

# Functions of generated TUs compared in the suite, per workload.
WORKLOAD_TUS = 10


def compare(cfg, fn) -> list[str]:
    """Every way the lowered analysis differs from the oracle on `cfg`."""
    new, old = _outcome(interval_analysis, cfg), _outcome(interval_oracle.interval_analysis, cfg)
    if isinstance(new, str) or isinstance(old, str):
        return [] if new == old else [f"{fn.name}: {new} != {old}"]
    diffs = []

    def check(what, a, b):
        a, b = _plain(a), _plain(b)
        if a != b:
            diffs.append(f"{fn.name}: {what}: {a!r} != {b!r}")

    for b in cfg.blocks:
        for idx in range(len(b.items) + 1):
            check(f"env_at({b.id}, {idx})", new.env_at(b.id, idx), old.env_at(b.id, idx))
    check("term_env", new.term_env, old.term_env)
    check("dead_edges", new.dead_edges, old.dead_edges)
    check("outcomes", new.outcomes, old.outcomes)
    check("iterations", new.iterations, old.iterations)
    check("widenings", new.widenings, old.widenings)
    for bid, idx, expr in _point_exprs(cfg):
        for node in walk(expr):
            if isinstance(node, (Binary, CompoundAssign)) and node.op in ("<<", ">>"):
                right = node.value if isinstance(node, CompoundAssign) else node.right
                check(f"eval_expr at ({bid}, {idx})",
                      new.eval_expr(right, new.env_at(bid, idx), expr),
                      old.eval_expr(right, old.env_at(bid, idx), expr))
    return diffs


def replay_diffs(cfg, fn) -> list[str]:
    """Where the analysis's `term_env`, `dead_edges` and `outcomes` differ
    from a replay of every reached block at the fixpoint."""
    res = _outcome(interval_analysis, cfg)
    if isinstance(res, str):
        return []
    ev = res._evaluator
    term_env, dead_edges, outcomes = {}, set(), {}
    for bid, entry in res.in_states.items():
        b = cfg.block(bid)
        code = ev.lower_block(b)
        n = len(b.items)
        env = term_env[bid] = state_at(entry, ev.lower_items(b), n, n)
        term = b.term
        if not isinstance(term, TBranch):
            continue
        live = {target for target, state in code.edges(env) if state is not None}
        if term.const_value is None:
            dead_edges.update((bid, t) for t in (term.true_target, term.false_target)
                              if t not in live)
        targets = cfg.conditions.get(term.node)
        if targets is not None:
            was = outcomes.get(term.node, (False, False))
            outcomes[term.node] = (was[0] or targets[0] in live, was[1] or targets[1] in live)
    return [f"{fn.name}: {what}" for what, got, want in (
        ("term_env", res.term_env, term_env), ("dead_edges", res.dead_edges, dead_edges),
        ("outcomes", res.outcomes, outcomes)) if _plain(got) != _plain(want)]


def _plain(value):
    """`value` with each interval as a (lo, hi) pair: the two modules' classes differ."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if hasattr(value, "lo"):
        return (value.lo, value.hi)
    return value


def _outcome(analysis, cfg):
    """`analysis` of `cfg` at its fixpoint, where a budget `FlowError` surfaces."""
    try:
        res = analysis(cfg)
        res.term_env  # noqa: B018  (the read resumes a paused analysis)
        return res
    except Exception as exc:  # the same failure on both sides is agreement
        return f"{type(exc).__name__}: {exc}"


def _point_exprs(cfg):
    for b in cfg.blocks:
        for i, item in enumerate(b.items):
            expr = item.init if isinstance(item, DeclItem) else item.expr
            if expr is not None:
                yield b.id, i, expr
        if b.term_expr is not None:
            yield b.id, len(b.items), b.term_expr


def workload_functions(workload: str, seed: int, workdir: str, tus: int | None = None):
    """(CFG, FunctionDef) of every function in the workload's first `tus` TUs."""
    for tu in workload_units(workload, seed, workdir, tus):
        for fn in tu.decls:
            if isinstance(fn, FunctionDef):
                yield build_cfg(fn), fn


@pytest.mark.parametrize("text", SNIPPETS)
def test_snippet_matches_oracle(text):
    cfg, fn, _, _ = analyze_fn(text, prelude=PRELUDE)
    assert compare(cfg, fn) == []
    assert replay_diffs(cfg, fn) == []


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_final_pass_matches_a_replay(workload, seed, tmp_path):
    functions = list(workload_functions(workload, seed, str(tmp_path), WORKLOAD_TUS))
    assert functions
    assert [d for cfg, fn in functions for d in replay_diffs(cfg, fn)] == []


@pytest.mark.parametrize("workload", ["project_all_rules", "header_heavy"])
def test_workload_matches_oracle(workload, tmp_path):
    functions = list(workload_functions(workload, 1, str(tmp_path), WORKLOAD_TUS))
    assert functions
    diffs = [d for cfg, fn in functions for d in compare(cfg, fn)]
    assert diffs == []


class TestReplayContract:
    def analysis(self, text):
        cfg, fn, table, _ = analyze_fn(text, prelude=PRELUDE)
        return cfg, fn, interval_analysis(cfg), interval_oracle.interval_analysis(cfg)

    def test_unreached_block_has_empty_state(self):
        cfg, _, res, _ = self.analysis(
            "void f(int x) { x = 1; if (x == 2) { x = 3; use(x); } }")
        unreached = [b for b in cfg.blocks if b.id not in res.in_states]
        assert any(b.items for b in unreached)
        for b in unreached:
            for idx in range(len(b.items) + 1):
                assert res.env_at(b.id, idx) == {}

    def test_index_zero_is_the_block_entry_state(self):
        cfg, _, res, old = self.analysis(
            "void f(int n) { int i; for (i = 0; i < n; i++) { use(i); i += 2; } }")
        for bid, entry in res.in_states.items():
            assert res.env_at(bid, 0) is entry
            assert _plain(entry) == _plain(old.env_at(bid, 0))

    def test_last_index_is_the_state_before_the_terminator(self):
        cfg, _, res, old = self.analysis(
            "void f(int n) { int x = n; x = x + 1; if (x++ < 3) { use(x); } }")
        for bid in res.in_states:
            n = len(cfg.block(bid).items)
            assert res.env_at(bid, n) is res.term_env[bid]
            assert _plain(res.term_env[bid]) == _plain(old.env_at(bid, n))
        assert res.env_at(cfg.entry, len(cfg.block(cfg.entry).items) + 1) == {}

    def test_queries_leave_the_environment_unchanged(self):
        cfg, fn, res, _ = self.analysis(
            "extern int *ptr(void);\n"
            "void f(int x, int y) { if ((x = y++) + get() > 0 && (*ptr() = 4)) { use(x); } }")
        env = {uid: Interval(1, 5) for uid in range(20)}
        before = dict(env)
        cond = [s for s in walk(fn.body) if isinstance(s, If)][0].cond
        for node in walk(cond):
            res.eval_expr(node, env)
        assert env == before


def main(argv: list[str]) -> int:
    """Compare every function of every workload at the given seeds."""
    import argparse
    import json
    import tempfile

    ap = argparse.ArgumentParser(description=main.__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    report = {}
    for workload in sorted(WORKLOADS):
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                functions = diffs = replays = 0
                for cfg, fn in workload_functions(workload, seed, workdir):
                    functions += 1
                    diffs += len(compare(cfg, fn))
                    replays += len(replay_diffs(cfg, fn))
            report[f"{workload}:{seed}"] = {"functions": functions, "diffs": diffs,
                                            "replay_diffs": replays}
    print(json.dumps(report))
    return 0 if all(r["diffs"] == r["replay_diffs"] == 0 for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
