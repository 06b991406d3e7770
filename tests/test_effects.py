"""The lvalue designator (`effects.designate`), the events built on it, and
the sequencing relation over them.

Every question "which object does this lvalue name, and through which
pointer?" reads `designate`: the store and `&` events of `walk_effects`,
the points-to address of `&`, and the side-effect test of R13.1 and R13.5.
This checks one row per lvalue shape, the rule findings those shapes used
to get wrong, and a property over random lvalues: every store yields
exactly one `write` or `deref_store`, and `&` never reads the object it
names. A table gives one pair of events per C99 clause that orders
evaluations, with the answer `effects.sequencing` must give.

Run as a script to check the one-store-event invariant on every CFG item
of every function of whole workloads:

    PYTHONPATH=src:tests:perfbench python3 tests/test_effects.py --seeds 1 2
"""
from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccomply.flow import build_cfg
from ccomply.flow.assign import definite_assignment
from ccomply.flow.cfg import DeclItem
from ccomply.flow.effects import (
    INDETERMINATE, SEQUENCED, UNSEQUENCED, designate, sequencing, walk_effects,
)
from ccomply.flow.pointsto import local_points_to
from ccomply.parsing import (
    Assign, CompoundAssign, Declaration, FunctionDef, Identifier, IncDec, Member, parse,
    walk_operands,
)
from ccomply.sema import resolve
from flow_helpers import workload_units
from rule_helpers import run_rule
from support import pp_text

STORES = ("write", "deref_store")

# ---- shape table --------------------------------------------------------------

SHAPE_PRELUDE = (
    "struct S { int m; int v[2]; struct S *n; };\n"
    "struct T { struct S s; int v[3]; };\n"
    "int g[2][2];\n"
)
SHAPE_LOCALS = (
    "struct S s; struct T t; struct S sa[2]; int a1[2]; int a2[2][2]; int x; int i = 0;\n"
    "static struct S o;\n"
    "struct S *p = &s; struct T *q = &t; int *ip = &x; struct S *pa = sa;\n"
)

# (lvalue, its store event as (kind, object or pointer), its `addrof` root,
# the points-to targets of its address)
SHAPES = [
    ("x", ("write", "x"), "x", {"&x"}),
    ("s.m", ("write", "s"), "s", {"&s"}),
    ("s.v[0]", ("write", "s"), "s", {"&s"}),
    ("t.s.v[i]", ("write", "t"), "t", {"&t"}),
    ("sa[0].m", ("write", "sa"), "sa", {"&sa"}),
    ("a2[0][1]", ("write", "a2"), "a2", {"&a2"}),
    ("1[a2][i]", ("write", "a2"), "a2", {"&a2"}),
    ("i[a1]", ("write", "a1"), "a1", {"&a1"}),
    ("o.v[1]", ("write", "o"), "o", {"&o"}),
    ("g[1][1]", ("write", "g"), "g", {"&g"}),
    ("*ip", ("deref_store", "ip"), None, {"&x"}),
    ("ip[i]", ("deref_store", "ip"), None, {"&x"}),
    ("1[ip]", ("deref_store", "ip"), None, {"&x"}),
    ("i[ip]", ("deref_store", "ip"), None, {"&x"}),
    ("(*p).m", ("deref_store", "p"), None, {"&s"}),
    ("(*p).v[1]", ("deref_store", "p"), None, {"&s"}),
    ("p->m", ("deref_store", "p"), None, {"&s"}),
    ("p->v[0]", ("deref_store", "p"), None, {"&s"}),
    ("q->s.m", ("deref_store", "q"), None, {"&t"}),
    ("pa[0].m", ("deref_store", "pa"), None, {"&sa"}),
    ("((struct S *)ip)->m", ("deref_store", "(struct S *)ip"), None, {"&x"}),
    ("p->n->m", ("deref_store", "p->n"), None, {"<unknown>"}),
]


def _text(e) -> str:
    """The source text of an identifier, a member chain or a pointer cast."""
    if isinstance(e, Identifier):
        return e.name
    if isinstance(e, Member):
        return f"{_text(e.base)}{'->' if e.arrow else '.'}{e.name}"
    return f"(struct S *){_text(e.operand)}"


def _function(text: str) -> FunctionDef:
    toks, _, _, _ = pp_text(text, path="t.c")
    tu = parse(toks, "t.c")
    resolve(tu)
    return [d for d in tu.decls if isinstance(d, FunctionDef)][-1]


def _events(expr) -> list:
    return list(walk_effects(expr))


def _stores(expr) -> int:
    """How many `=`, `op=`, `++` and `--` evaluating `expr` evaluates."""
    return sum(isinstance(n, (Assign, CompoundAssign, IncDec)) for n in walk_operands(expr))


@pytest.mark.parametrize("lvalue, store, root, targets", SHAPES, ids=[s[0] for s in SHAPES])
def test_shape(lvalue, store, root, targets):
    fn = _function(f"{SHAPE_PRELUDE}void f(void) {{\n{SHAPE_LOCALS}{lvalue} = 1;\n&{lvalue};\n}}\n")
    assign, addr = fn.body.items[-2].expr, fn.body.items[-1].expr
    stores = [ev for ev in _events(assign) if ev.kind in STORES]
    assert len(stores) == 1
    ev = stores[0]
    named = ev.sym.name if ev.kind == "write" else _text(ev.pointer)
    assert (ev.kind, named) == store
    obj, pointer, _, _ = designate(assign.target)
    assert (obj is None) != (pointer is None)
    addr_events = _events(addr)
    assert [e.sym.name for e in addr_events if e.kind == "addrof"] == ([root] if root else [])
    assert root not in {e.sym.name for e in addr_events if e.kind == "read"}

    cfg = build_cfg(fn)
    pt = local_points_to(cfg)
    [(bid, idx)] = [(b.id, i) for b, i, item in cfg.points() if getattr(item, "expr", None) is addr]
    assert {repr(t) for t in pt.points_to(addr, pt.env_at(bid, idx)).targets} == targets


def test_events_are_immutable_records():
    fn = _function("int g(int *); void f(int a) { int x; int *p = &x; x = a; *p = g(&x); }\n")
    events = _events(fn.body.items[-1].expr)
    assert isinstance(walk_effects(fn.body.items[-1].expr), list)
    assert [ev.kind for ev in events] == ["addrof", "call", "read", "deref_store"]
    for ev in events:
        with pytest.raises(AttributeError):
            ev.kind = "read"
        with pytest.raises(AttributeError):
            ev.extra = 1
    read = definite_assignment(build_cfg(fn)).reads[0]
    with pytest.raises(AttributeError):
        read.state = None


def test_store_event_order_puts_the_address_first():
    fn = _function(f"{SHAPE_PRELUDE}void f(int j) {{\n{SHAPE_LOCALS}a2[i][j] = x;\np[i].v[j] = x;\n}}\n")
    array_store, pointer_store = (s.expr for s in fn.body.items[-2:])
    # The value, then the array root, the indices, and the store.
    assert [(e.kind, e.sym.name if e.sym else None) for e in _events(array_store)] == [
        ("read", "x"), ("read", "a2"), ("read", "i"), ("read", "j"), ("write", "a2"),
    ]
    assert [(e.kind, e.sym.name if e.sym else _text(e.pointer)) for e in _events(pointer_store)] == [
        ("read", "x"), ("read", "p"), ("read", "i"), ("read", "j"), ("deref_store", "p"),
    ]


def test_reversed_subscript_store_reads_an_array_root_first():
    fn = _function(f"{SHAPE_PRELUDE}void f(void) {{\n{SHAPE_LOCALS}i[a1] = x;\ni[ip] = x;\n}}\n")
    array_store, pointer_store = (s.expr for s in fn.body.items[-2:])
    # `i[a1]` is `a1[i]`: the array root before the index, then one `write`.
    assert [(e.kind, e.sym.name if e.sym else None) for e in _events(array_store)] == [
        ("read", "x"), ("read", "a1"), ("read", "i"), ("write", "a1"),
    ]
    # `i[ip]` stores through `ip`; its operands are read in source order.
    assert [(e.kind, e.sym.name if e.sym else _text(e.pointer)) for e in _events(pointer_store)] == [
        ("read", "x"), ("read", "i"), ("read", "ip"), ("deref_store", "ip"),
    ]


def test_store_into_a_member_of_a_call_result_evaluates_the_call():
    # `mk().m` is no lvalue (C99 6.5.2.3p3); an element of its array member is one.
    fn = _function("struct S { int a[2]; };\nstruct S mk(void);\nvoid f(void) { mk().a[0] = 1; }\n")
    assert [(e.kind, e.sym) for e in _events(fn.body.items[-1].expr)] == [("call", None), ("write", None)]


# ---- the sequencing relation ----------------------------------------------------

RELATION_PRELUDE = ("extern int get(void);\nextern int id(int);\nextern void use(int);\n"
                    "extern void two(int, int);\n")

# (C99 clause, statement, first event, second event, relation); an event is
# (kind, the name of its variable or callee).
RELATIONS = [
    ("6.5p3 operands of +", "use(x + y);", ("read", "x"), ("read", "y"), UNSEQUENCED),
    ("6.5.2.2p10 two arguments", "two(x, y);", ("read", "x"), ("read", "y"), UNSEQUENCED),
    ("6.5.2.2p10 argument and its call", "use(x);", ("read", "x"), ("call", "use"), SEQUENCED),
    ("6.5.2.2p10 call and a sibling operand", "use(get() + x);", ("call", "get"), ("read", "x"),
     INDETERMINATE),
    ("6.5.13 &&", "use(x && y);", ("read", "x"), ("read", "y"), SEQUENCED),
    ("6.5.14 ||", "use(x || y);", ("read", "x"), ("read", "y"), SEQUENCED),
    ("6.5.17 comma", "use((x, y));", ("read", "x"), ("read", "y"), SEQUENCED),
    ("6.5.15 ?:", "use(x ? y : 0);", ("read", "x"), ("read", "y"), SEQUENCED),
    ("6.5.16p3 value read and its store", "x = x + 1;", ("read", "x"), ("write", "x"), SEQUENCED),
    ("6.5.16p3 side effect in the address and the store", "a[i++] = 0;", ("write", "i"),
     ("write", "a"), UNSEQUENCED),
    ("6.5.2.2p10 side effect in an argument and the store", "y = id(x++);", ("write", "x"),
     ("write", "y"), SEQUENCED),
    ("6.5.17 side effect before a comma and the store", "y = (x++, 0);", ("write", "x"),
     ("write", "y"), SEQUENCED),
    ("6.5.17 side effect after a comma and the store", "y = (0, x++);", ("write", "x"),
     ("write", "y"), UNSEQUENCED),
    ("6.7.8p23 initializer list elements", "int b[2] = { x, y };", ("read", "x"), ("read", "y"),
     INDETERMINATE),
    ("6.5.16.2p3 target read of op= and its store", "x += 1;", ("read", "x"), ("write", "x"),
     SEQUENCED),
]


def _named(ev) -> tuple[str, str | None]:
    if ev.kind == "call":
        return ev.kind, ev.node.callee.name
    return ev.kind, ev.sym.name if ev.sym is not None else None


@pytest.mark.parametrize("clause, stmt, first, second, relation", RELATIONS,
                         ids=[r[0] for r in RELATIONS])
def test_relation_table(clause, stmt, first, second, relation):
    fn = _function(f"{RELATION_PRELUDE}void f(int x, int y, int i) {{ int a[2]; {stmt} }}\n")
    last = fn.body.items[-1]
    expr = last.entries[0].init if isinstance(last, Declaration) else last.expr
    events = walk_effects(expr)
    [a] = [ev for ev in events if _named(ev) == first]
    [b] = [ev for ev in events if _named(ev) == second]
    assert events.index(a) < events.index(b)
    assert sequencing(a, b) == relation


def test_an_array_element_read_is_an_event_of_its_own():
    fn = _function(f"{SHAPE_PRELUDE}void use(int);\n"
                   f"void f(void) {{\n{SHAPE_LOCALS}use(a1[i] + s.v[0]);\n}}\n")
    events = _events(fn.body.items[-1].expr)
    assert [(e.kind, e.sym.name if e.sym else None) for e in events] == [
        ("read", "a1"), ("read", "i"), ("elem_read", "a1"), ("read", "s"), ("elem_read", "s"),
        ("call", None),
    ]
    # The index is computed before the element is read; the two elements
    # are read unsequenced.
    assert sequencing(events[1], events[2]) == SEQUENCED
    assert sequencing(events[2], events[4]) == UNSEQUENCED


# ---- findings the shapes used to get wrong -------------------------------------

RULE_PRELUDE = SHAPE_PRELUDE + "struct R { volatile int c; };\n"

NO_DEAD_CODE = [
    "void f(struct S *p) { (*p).m = 1; }",
    "void f(struct S *a) { a[0].m = 1; }",
    "void f(struct T *p) { p->s.m = 1; }",
    "void f(struct S *p) { p->v[0] = 1; }",
    "void f(int *p) { 1[p] = 3; }",
    "void f(void) { static struct S o; o.v[1] = 2; }",
    "void f(void) { g[1][1] = 3; }",
    "void f(void) { struct S s; s.v[0] = 1; use(s.v[0]); }",
    "void f(void) { int a[2][2]; a[0][1] = 1; use(a[0][1]); }",
    "void f(void) { struct S a[2]; a[0].m = 1; use(a[0].m); }",
]


@pytest.mark.parametrize("text", NO_DEAD_CODE)
def test_aggregate_store_is_not_dead_code(text):
    assert [f for f in run_rule(RULE_PRELUDE + text, "R2.2") if f.certainty.value == "definite"] == []


@pytest.mark.parametrize("text, column", [
    # The store into an element reads the aggregate first, as `a[0] = 1` does.
    ("void f(void) { struct S s; s.v[0] = 1; s.v[1] = 2; use(s.v[0]); }", 28),
    ("void f(void) { int a[2][2]; a[0][1] = 1; use(a[0][1]); }", 29),
    ("void f(void) { int a[2]; a[0] = 1; use(a[0]); }", 26),
])
def test_element_store_reads_the_aggregate_once(text, column):
    findings = run_rule(RULE_PRELUDE + text, "R9.1")
    line = RULE_PRELUDE.count("\n") + 7  # after `rule_helpers.PRELUDE`'s six lines
    assert [(f.span.start.line, f.span.start.column, f.certainty.value) for f in findings] == [
        (line, column, "definite"),
    ]


@pytest.mark.parametrize("rule, text", [
    ("R13.1", "volatile int v; void f(void) { volatile int *p = &v; usep((int *)p); }"),
    ("R13.1", "volatile int va[2]; void f(void) { volatile int *p = &va[1]; usep((int *)p); }"),
    ("R13.1", "void f(struct R *r) { volatile int *p = &r->c; usep((int *)p); }"),
    ("R13.5", "volatile int v; void f(int a) { if (a && (&v != 0)) { use(1); } }"),
])
def test_forming_an_address_is_no_access(rule, text):
    assert run_rule(RULE_PRELUDE + text, rule) == []


@pytest.mark.parametrize("rule, text", [
    ("R13.1", "volatile int v; void f(void) { int x = v; use(x); }"),
    ("R13.1", "void f(int i) { int x = i++; use(x); use(i); }"),
    ("R13.1", "void f(void) { int x = get(); use(x); }"),
    ("R13.5", "void f(int a) { if (a && get()) { use(a); } }"),
    ("R13.5", "void f(int a, int b) { if (a || (b = 1)) { use(b); } }"),
    ("R13.5", "void f(int a, struct S *p) { if (a || (p->v[0] = 1)) { use(a); } }"),
])
def test_side_effects_are_still_found(rule, text):
    assert [f.certainty.value for f in run_rule(RULE_PRELUDE + text, rule)] == ["definite"]


# ---- random lvalues ----------------------------------------------------------------

PROPERTY_PRELUDE = (
    "struct U { int k; int w[2]; };\n"
    "struct S { int m; int v[2]; struct S *n; struct U u; };\n"
    "struct S gs; struct S ga[2]; int gi; volatile struct S gv;\n"
)
PROPERTY_PARAMS = "struct S *pp, int *ip, volatile struct S *vp, int i"
PROPERTY_LOCALS = (
    "struct S s; struct S sa[3]; struct S *lp = &s; int x; int ia[2][2];\n"
    "int *ipa[2]; struct S *spa[2]; volatile int vx; volatile int va[2];\n"
)

INT, S, U = ("int",), ("S",), ("U",)


def ptr(t):
    return ("ptr", t)


def arr(t):
    return ("arr", t)


ROOTS = {
    "s": S, "sa": arr(S), "lp": ptr(S), "x": INT, "ia": arr(arr(INT)), "ipa": arr(ptr(INT)),
    "spa": arr(ptr(S)), "vx": INT, "va": arr(INT), "gs": S, "ga": arr(S), "gi": INT,
    "gv": S, "pp": ptr(S), "ip": ptr(INT), "vp": ptr(S),
}
FIELDS = {S: {"m": INT, "v": arr(INT), "n": ptr(S), "u": U}, U: {"k": INT, "w": arr(INT)}}
INDICES = ("0", "1", "i", "i++")


@st.composite
def lvalues(draw):
    """`(text, type, named)`: a random scalar lvalue and the variable it is
    part of, or None where it goes through a pointer."""
    named = draw(st.sampled_from(sorted(ROOTS)))
    text, t = named, ROOTS[named]
    for _ in range(draw(st.integers(0, 5))):
        if t == INT:
            break
        text, t, through = draw(st.sampled_from(_steps(text, t)))
        if through:
            named = None
    while t != INT and t[0] != "ptr":  # end on a scalar
        text, t, through = _steps(text, t)[0]
    return text, t, named


def _steps(text: str, t: tuple) -> list[tuple[str, tuple, bool]]:
    """`(text, type, goes through a pointer)` for each way to extend an lvalue."""
    if t in FIELDS:
        return [(f"{text}.{name}", ft, False) for name, ft in FIELDS[t].items()]
    kind, inner = t
    through = kind == "ptr"
    out = [(f"{text}[{i}]", inner, through) for i in INDICES]
    out += [(f"{i}[{text}]", inner, through) for i in INDICES]
    out.append((f"(*{text})", inner, True))
    if kind == "ptr" and inner in FIELDS:
        out += [(f"{text}->{name}", ft, True) for name, ft in FIELDS[inner].items()]
        out.append((f"((struct S *){text})->m", INT, True))
    return out


@settings(derandomize=True, max_examples=60, deadline=None)
@given(lvalues())
def test_every_store_of_a_random_lvalue_has_one_store_event(lvalue):
    text, t, named = lvalue
    value = "1" if t == INT else "0"
    stmts = [f"{text} = {value};", f"{text} += 1;", f"{text}++;", f"--{text};", f"&{text};"]
    fn = _function(f"{PROPERTY_PRELUDE}void f({PROPERTY_PARAMS}) {{\n{PROPERTY_LOCALS}"
                   + "\n".join(stmts) + "\n}\n")
    exprs = [s.expr for s in fn.body.items[-len(stmts):]]
    for expr in exprs:
        assert len([ev for ev in _events(expr) if ev.kind in STORES]) == _stores(expr), text
    events = _events(exprs[-1])
    if named is not None:
        # The address of a part of a named object reads only constant indices and `i`.
        assert [ev.sym.name for ev in events if ev.kind == "addrof"] == [named], text
        assert {ev.sym.name for ev in events if ev.kind == "read"} <= {"i"}, text
        assert [ev for ev in events if ev.kind == "volatile"] == [], text


# ---- whole workloads ----------------------------------------------------------------

WORKLOAD_TUS = 10


def store_mismatches(fn: FunctionDef) -> list[str]:
    """Each CFG item of `fn` whose store events differ in number from its stores.

    Every `=`, `op=`, `++` and `--` an item evaluates yields exactly one
    `write` or `deref_store`; a declaration with an initializer adds one.
    """
    cfg = build_cfg(fn)
    streams = [(item.expr if not isinstance(item, DeclItem) else item.init, item.events,
                isinstance(item, DeclItem) and item.init is not None)
               for _, _, item in cfg.points()]
    streams += [(b.term_expr, b.term_events, False) for b in cfg.blocks]
    out = []
    for expr, events, declares in streams:
        want = declares + (0 if expr is None else _stores(expr))
        got = sum(ev.kind in STORES for ev in events)
        if got != want:
            out.append(f"{fn.name}: {got} store events for {want} stores")
    return out


def workload_mismatches(workload: str, seed: int, workdir: str, tus: int | None = None):
    """(functions checked, mismatches) over a workload's first `tus` TUs."""
    functions, mismatches = 0, []
    for tu in workload_units(workload, seed, workdir, tus):
        for fn in tu.decls:
            if isinstance(fn, FunctionDef):
                functions += 1
                mismatches += store_mismatches(fn)
    return functions, mismatches


@pytest.mark.parametrize("workload", ["project_all_rules", "header_heavy"])
def test_workload(workload, tmp_path):
    functions, mismatches = workload_mismatches(workload, 1, str(tmp_path), WORKLOAD_TUS)
    assert functions and mismatches == []


def main(argv: list[str]) -> int:
    """Check every CFG item of every function of every workload at the given seeds."""
    import argparse
    import json
    import tempfile

    from gen import WORKLOADS

    ap = argparse.ArgumentParser(description=main.__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    report = {}
    for workload in sorted(WORKLOADS):
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                functions, mismatches = workload_mismatches(workload, seed, workdir)
            report[f"{workload}:{seed}"] = {
                "functions": functions, "mismatches": len(mismatches), "first": mismatches[:3],
            }
    print(json.dumps(report))
    return 0 if all(r["mismatches"] == 0 for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
