import random
from collections import Counter

import pytest

from ccomply.errors import AnalysisError, FlowError
from ccomply.flow import (
    AssignState, build_call_graph, definite_assignment, interval_analysis,
    liveness, local_points_to, recursion_components,
)
from ccomply.flow import effects
from ccomply.flow.cfg import DeclItem, EvalItem
from ccomply.flow.solver import Solver, solve
from ccomply.parsing import Assign, Call, FunctionDef, Identifier, parse, walk
from ccomply.sema import resolve
from flow_helpers import PRELUDE, analyze_fn, probe_points, sym_named, var_interval
from support import pp_text


def read_state(text: str, var: str, occurrence: int = 0):
    cfg, fn, table, _ = analyze_fn(text)
    res = definite_assignment(cfg)
    reads = [ev for ev in res.reads if ev.sym.name == var]
    assert len(reads) > occurrence, f"no read #{occurrence} of {var}"
    return reads[occurrence].state, res


class TestDefiniteAssignment:
    def test_read_of_uninitialized_local(self):
        state, _ = read_state("void f(void) { int x; use(x); }", "x")
        assert state is AssignState.MAYBE_UNASSIGNED

    def test_assigned_in_both_branches_is_definite(self):
        state, _ = read_state(
            "void f(int a) { int x; if (a) x = 1; else x = 2; use(x); }", "x"
        )
        assert state is AssignState.DEFINITELY_ASSIGNED

    def test_assigned_in_one_branch_stays_maybe(self):
        # The approximation deliberately ignores that the same condition
        # could guard the read dynamically.
        state, _ = read_state(
            "void f(int a) { int x; if (a) x = 1; if (a) use(x); }", "x"
        )
        assert state is AssignState.MAYBE_UNASSIGNED

    def test_address_taken_moves_to_alias(self):
        state, _ = read_state(
            "extern void fill(int *);\n"
            "void f(void) { int x; int *p = &x; fill(p); use(x); }",
            "x",
        )
        assert state is AssignState.ASSIGNED_BY_ALIAS

    def test_params_are_definitely_assigned(self):
        state, _ = read_state("void f(int a) { use(a); }", "a")
        assert state is AssignState.DEFINITELY_ASSIGNED

    def test_initializer_counts_as_assignment(self):
        state, _ = read_state("void f(void) { int x = 3; use(x); }", "x")
        assert state is AssignState.DEFINITELY_ASSIGNED

    def test_assignment_after_read_does_not_help(self):
        state, _ = read_state("void f(void) { int x; use(x); x = 1; use(x); }", "x", 0)
        assert state is AssignState.MAYBE_UNASSIGNED
        state2, _ = read_state("void f(void) { int x; use(x); x = 1; use(x); }", "x", 1)
        assert state2 is AssignState.DEFINITELY_ASSIGNED

    def test_loop_carried_assignment(self):
        state, _ = read_state(
            "void f(int n) { int x; int i; for (i = 0; i < n; ++i) { use(x); x = i; } }",
            "x",
        )
        assert state is AssignState.MAYBE_UNASSIGNED

    def test_iteration_budget(self):
        cfg, _, _, _ = analyze_fn(
            "void f(int n) { int a; int b; int c; for (a = 0; a < n; ++a) "
            "{ b = a; if (b) { c = b; } } use(a); }"
        )
        res = definite_assignment(cfg)
        lattice_height = 3
        assert res.iterations <= len(cfg.blocks) * lattice_height + 32


class TestIntervals:
    def env_at_probe(self, text, var, probe_index=0):
        cfg, fn, table, _ = analyze_fn(text)
        res = interval_analysis(cfg)
        points = probe_points(cfg)
        bid, idx, _ = points[probe_index]
        env = res.env_at(bid, idx)
        sym = sym_named(table, var)
        return var_interval(res, env, sym), res

    def test_constant_assignment(self):
        iv, _ = self.env_at_probe("void f(void) { int x; x = 5; probe(x); }", "x")
        assert (iv.lo, iv.hi) == (5, 5)

    def test_branch_narrowing_unsigned(self):
        iv, _ = self.env_at_probe(
            "void f(uint32_t n) { if (n < 32) { probe(n); } }", "n"
        )
        assert (iv.lo, iv.hi) == (0, 31)

    def test_false_branch_narrowing(self):
        iv, _ = self.env_at_probe(
            "void f(uint32_t n) { if (n < 32) { } else { probe(n); } }", "n"
        )
        assert (iv.lo, iv.hi) == (32, 4294967295)

    def test_loop_counter_interval_matches_brute_force(self):
        # Oracle: executing `for (i=0; i<10; ++i)` enumerates i in 0..9
        # at the body, frozen here.
        oracle_values = []
        i = 0
        while i < 10:
            oracle_values.append(i)
            i += 1
        assert (min(oracle_values), max(oracle_values)) == (0, 9)
        iv, _ = self.env_at_probe(
            "void f(void) { int i; for (i = 0; i < 10; ++i) { probe(i); } }", "i"
        )
        assert (iv.lo, iv.hi) == (0, 9)

    def test_widening_reaches_type_bound_on_open_loop(self):
        # Widening sends the growing bound to INT_MAX; the increment then
        # overflows the type range, which degrades soundly to the full
        # range (the increment may wrap on a two's-complement target).
        iv, _ = self.env_at_probe(
            "void f(int n) { int i = 0; while (n) { probe(i); i = i + 1; } }", "i"
        )
        assert (iv.lo, iv.hi) == (-2147483648, 2147483647)

    def test_widening_with_guard_keeps_range(self):
        iv, _ = self.env_at_probe(
            "void f(int n) { int i = 0; while (i < n) { probe(i); i = i + 1; } }", "i"
        )
        assert iv.lo == 0 and iv.hi <= 2147483646

    def test_call_havocs_address_taken(self):
        iv, _ = self.env_at_probe(
            "extern void touch(int *);\n"
            "void f(void) { int x = 1; int *p = &x; touch(p); probe(x); }",
            "x",
        )
        assert (iv.lo, iv.hi) == (-2147483648, 2147483647)

    def test_singleton_bitand_exact(self):
        iv, _ = self.env_at_probe("void f(void) { int x = 32 & 0x1F; probe(x); }", "x")
        assert (iv.lo, iv.hi) == (0, 0)

    def test_multiplication_by_zero_exact(self):
        cfg, fn, table, _ = analyze_fn("void f(int x) { probe(x * 0); }")
        res = interval_analysis(cfg)
        bid, idx, call = probe_points(cfg)[0]
        iv = res.eval_expr(call.args[0], res.env_at(bid, idx))
        assert (iv.lo, iv.hi) == (0, 0)

    def test_uint8_type_clamp(self):
        iv, _ = self.env_at_probe(
            "void f(uint8_t u) { probe(u); }", "u"
        )
        assert (iv.lo, iv.hi) == (0, 255)

    def test_monotone_transfer_spot_checks(self):
        rng = random.Random(7)
        from ccomply.flow.intervals import Interval, _AbstractEval
        from ccomply.sema.typesys import DEFAULT_MODEL, make_int

        ev = _AbstractEval(DEFAULT_MODEL, set())
        t = make_int(32, True)
        for _ in range(200):
            a_lo = rng.randint(-50, 50)
            a_hi = a_lo + rng.randint(0, 20)
            b_lo = rng.randint(-10, 10)
            b_hi = b_lo + rng.randint(0, 8)
            wide_a = Interval(a_lo - rng.randint(0, 5), a_hi + rng.randint(0, 5))
            op = rng.choice(["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"])
            narrow = ev._arith(op, Interval(a_lo, a_hi), Interval(b_lo, b_hi), t)
            wide = ev._arith(op, wide_a, Interval(b_lo, b_hi), t)
            assert wide.lo <= narrow.lo and narrow.hi <= wide.hi, (
                op, (a_lo, a_hi), (b_lo, b_hi))

    def test_iteration_budget(self):
        cfg, _, _, _ = analyze_fn(
            "void f(int n) { int i; int s = 0; for (i = 0; i < n; ++i) "
            "{ if (s < 100) { s += i; } } probe(s); }"
        )
        res = interval_analysis(cfg)
        res.in_states  # noqa: B018  (the read runs the analysis to its fixpoint)
        assert res.iterations <= len(cfg.blocks) * 8 + 64


class TestLiveness:
    def test_dead_between_writes(self):
        cfg, fn, table, _ = analyze_fn("void f(void) { int x; x = 1; x = 2; use(x); }")
        res = liveness(cfg)
        x = sym_named(table, "x")
        writes = [
            (b.id, i) for b, i, item in cfg.points()
            if isinstance(item, EvalItem) and isinstance(item.expr, Assign)
            and isinstance(item.expr.target, Identifier)
            and item.expr.target.name == "x"
        ]
        first, second = writes[0], writes[1]
        assert not res.is_live_after(first[0], first[1], x.uid)
        assert res.is_live_after(second[0], second[1], x.uid)

    def test_store_from_call_dead_but_call_kept(self):
        cfg, fn, table, _ = analyze_fn("void f(void) { int x; x = get(); }")
        res = liveness(cfg)
        x = sym_named(table, "x")
        (bid, idx) = [
            (b.id, i) for b, i, item in cfg.points() if isinstance(item, EvalItem)
        ][0]
        assert not res.is_live_after(bid, idx, x.uid)

    def test_loop_carried_variable_live_at_back_edge(self):
        # Oracle: on the 3-block loop, a path from the back edge reaches
        # the read of s at the loop head before any write.
        cfg, fn, table, _ = analyze_fn(
            "int f(int n) { int s = 0; int i; for (i = 0; i < n; ++i) "
            "{ s = s + i; } return s; }"
        )
        res = liveness(cfg)
        s = sym_named(table, "s")
        head = [b for b in cfg.blocks if b.is_loop_head][0]
        assert s.uid in res.live_in[head.id]

    def test_volatile_local_always_live(self):
        cfg, fn, table, _ = analyze_fn("void f(void) { volatile int v; v = 1; v = 2; }")
        res = liveness(cfg)
        v = sym_named(table, "v")
        for b, i, item in cfg.points():
            if isinstance(item, EvalItem):
                assert res.is_live_after(b.id, i, v.uid)


class TestPointsTo:
    def env_at_probe(self, text):
        cfg, fn, table, _ = analyze_fn(text)
        res = local_points_to(cfg)
        bid, idx, call = probe_points(cfg)[0]
        return res, res.env_at(bid, idx), table, call

    def test_string_literal_binding(self):
        res, env, table, _ = self.env_at_probe(
            'void f(void) { char *p = "String"; probe(0); use((int)*p); }'
        )
        p = sym_named(table, "p")
        pts = env[p.uid]
        assert pts.only_literals()
        assert "String" in repr(pts)

    def test_strong_update_on_reassignment(self):
        res, env, table, _ = self.env_at_probe(
            "void f(void) { int x; int y; int *p = &x; p = &y; probe(0); }"
        )
        p = sym_named(table, "p")
        assert repr(env[p.uid]) == "{&y}"

    def test_branch_join_unions(self):
        res, env, table, _ = self.env_at_probe(
            "void f(int c) { int x; int y; int *p; if (c) p = &x; else p = &y; probe(0); }"
        )
        p = sym_named(table, "p")
        assert repr(env[p.uid]) == "{&x, &y}"

    def test_call_result_is_unknown(self):
        res, env, table, _ = self.env_at_probe(
            "extern int *mk(void);\nvoid f(void) { int *p = mk(); probe(0); }"
        )
        p = sym_named(table, "p")
        assert env[p.uid].is_unknown

    def test_unknown_absorbs_on_join(self):
        res, env, table, _ = self.env_at_probe(
            "extern int *mk(void);\n"
            "void f(int c) { int x; int *p; if (c) p = &x; else p = mk(); probe(0); }"
        )
        p = sym_named(table, "p")
        assert env[p.uid].is_unknown

    def test_array_and_pointer_arithmetic_track_base(self):
        res, env, table, call = self.env_at_probe(
            "void f(void) { char a[8]; char *p = a + 2; probe(0); }"
        )
        p = sym_named(table, "p")
        assert repr(env[p.uid]) == "{&a}"


class TestSolver:
    def test_budget_exhaustion_raises_flow_error(self):
        cfg, fn, _, _ = analyze_fn("void f(int n) { while (n) { n = n - 1; } }")
        head = next(b for b in cfg.blocks if b.is_loop_head)
        # A counter that grows on every visit never reaches a fixpoint.
        with pytest.raises(FlowError) as info:
            solve(cfg, {head.id: 0}, lambda bid, n: [(bid, n + 1)], max,
                  budget=50, analysis="counter")
        err = info.value
        assert isinstance(err, AnalysisError)
        assert err.stage == "flow"
        assert err.loc == fn.span.start
        assert "counter" in err.message and "'f'" in err.message

        # Paused after 20 visits and resumed, the same run fails on the same
        # visit, with the same error, and fails again if resumed once more.
        visited = []

        def counting(bid, n):
            visited.append(bid)
            return [(bid, n + 1)]

        run = Solver(cfg, {head.id: 0}, counting, max, budget=50, analysis="counter")
        assert run.run(until=lambda: len(visited) == 20) is False
        assert run.visits == len(visited) == 20
        for _ in range(2):
            with pytest.raises(FlowError) as again:
                run.run()
            assert (again.value.message, again.value.loc) == (err.message, err.loc)
            assert run.visits == len(visited) == 50

    def test_paused_run_matches_an_unpaused_one(self):
        # A loop whose counter is widened to a cap: a pause after every
        # visit changes neither the visits, nor the states, nor the widenings.
        cfg, _, _, _ = analyze_fn(
            "void f(int n) { int i = 0; while (i < n) { if (n > 3) { i++; } } use(i); }"
        )
        cap = 1000

        def problem(order):
            def transfer(bid, n):
                order.append(bid)
                return [(t, min(n + 1, cap)) for t, _ in cfg.block(bid).succs]
            return (cfg, {cfg.entry: 0}, transfer, max), dict(
                budget=500, analysis="count", widen=lambda old, new: cap if new > old else old)

        def solver(order):
            args, kwargs = problem(order)
            return Solver(*args, **kwargs)

        plain_order, paused_order, solve_order = [], [], []
        plain, paused = solver(plain_order), solver(paused_order)
        assert plain.run() is True
        args, kwargs = problem(solve_order)
        assert solve(*args, **kwargs) == (plain.states, plain.visits)
        assert solve_order == plain_order
        pauses = 0
        while not paused.run(until=lambda: True):
            pauses += 1
        assert pauses == paused.visits - 1 > 0
        assert paused_order == plain_order
        assert (paused.states, paused.visits, paused.widenings) == (
            plain.states, plain.visits, plain.widenings)
        assert plain.widenings > 0

    def test_visits_in_breadth_first_order(self):
        # A state that never changes after its first arrival makes the FIFO
        # worklist visit each reachable block once, in breadth-first order.
        cfg, _, _, _ = analyze_fn(
            "void f(int a) { if (a) { use(1); } else { use(2); } use(3); }"
        )
        order = []

        def transfer(bid, state):
            order.append(bid)
            return [(t, state) for t, _ in cfg.block(bid).succs]

        states, visits = solve(cfg, {cfg.entry: frozenset()}, transfer, frozenset.union,
                               budget=100, analysis="reach")
        bfs, frontier = [cfg.entry], 0
        while frontier < len(bfs):
            for t, _ in cfg.block(bfs[frontier]).succs:
                if t not in bfs:
                    bfs.append(t)
            frontier += 1
        assert order == bfs
        assert visits == len(bfs) == len(states)


class TestEffectCache:
    TEXT = (
        "int f(int n) { int a = n + 1; int b; int *p = &a; "
        "for (b = 0; b < n; ++b) { *p = *p + b; use(a); } "
        "switch (a) { case 1: return b; default: break; } return a ? b : n; }"
    )

    def test_each_expression_walked_once_across_analyses(self, monkeypatch):
        cfg, _, _, _ = analyze_fn(self.TEXT)
        walked = Counter()
        addr_walks = []
        walk = effects.walk_effects
        addr_taken = effects.addr_taken_syms

        def counting_walk(e):
            walked[id(e)] += 1
            return walk(e)

        def counting_addr_taken(g):
            addr_walks.append(g)
            return addr_taken(g)

        monkeypatch.setattr(effects, "walk_effects", counting_walk)
        monkeypatch.setattr(effects, "addr_taken_syms", counting_addr_taken)
        definite_assignment(cfg)
        interval_analysis(cfg)
        liveness(cfg)
        local_points_to(cfg)

        exprs = [item.expr if isinstance(item, EvalItem) else item.init
                 for _, _, item in cfg.points()
                 if isinstance(item, EvalItem) or item.init is not None]
        exprs += [b.term_expr for b in cfg.blocks if b.term_expr is not None]
        assert any(isinstance(item, DeclItem) for _, _, item in cfg.points())
        assert exprs and all(walked[id(e)] == 1 for e in exprs)
        assert max(walked.values()) == 1
        assert addr_walks == [cfg]


def _unit(text, path):
    toks, _, _, _ = pp_text(PRELUDE + text, path=path)
    tu = parse(toks, path)
    table = resolve(tu)
    return tu, table


class TestCallGraph:
    def test_mutual_recursion_edges(self):
        tu, table = _unit(
            "void fo(void);\nvoid go(void) { fo(); }\nvoid fo(void) { go(); }\n", "a.c"
        )
        graph = build_call_graph([(tu, table)])
        assert ("fo", "go") in graph.direct_edges
        assert ("go", "fo") in graph.direct_edges
        comps = recursion_components(graph)
        assert comps == {frozenset({"fo", "go"})}

    def test_pointer_call_is_indirect_site_not_edge(self):
        tu, table = _unit(
            "extern void h(void);\nvoid f(void) { void (*fp)(void) = h; fp(); }\n",
            "a.c",
        )
        graph = build_call_graph([(tu, table)])
        assert not [e for e in graph.direct_edges if e[0] == "f"]
        assert len(graph.indirect_call_sites) == 1
        assert graph.indirect_call_sites[0][0] == "f"

    def test_self_loop_component(self):
        tu, table = _unit("void r(int n) { if (n) r(n - 1); }\n", "a.c")
        graph = build_call_graph([(tu, table)])
        assert recursion_components(graph) == {frozenset({"r"})}

    def test_cross_tu_unification(self):
        a = _unit("void callee(void);\nvoid caller(void) { callee(); }\n", "a.c")
        b = _unit("void caller(void);\nvoid callee(void) { caller(); }\n", "b.c")
        graph = build_call_graph([a, b])
        assert ("caller", "callee") in graph.direct_edges
        assert ("callee", "caller") in graph.direct_edges
        assert recursion_components(graph) == {frozenset({"caller", "callee"})}

    def test_static_functions_stay_distinct(self):
        a = _unit("static void s(void) { }\nvoid fa(void) { s(); }\n", "a.c")
        b = _unit("static void s(void) { }\nvoid fb(void) { s(); }\n", "b.c")
        graph = build_call_graph([a, b])
        s_nodes = [n for n in graph.nodes if n.endswith("::s")]
        assert len(s_nodes) == 2

    def test_random_programs_match_ast_scan_oracle(self):
        rng = random.Random(42)
        for trial in range(30):
            n = rng.randint(2, 12)
            calls = set()
            for caller in range(n):
                for callee in range(n):
                    if caller != callee and rng.random() < 0.18:
                        calls.add((caller, callee))
            lines = [f"void fn{i}(void);" for i in range(n)]
            for i in range(n):
                body = " ".join(f"fn{j}();" for (a, j) in sorted(calls) if a == i)
                lines.append(f"void fn{i}(void) {{ {body} }}")
            tu, table = _unit("\n".join(lines) + "\n", f"r{trial}.c")
            graph = build_call_graph([(tu, table)])
            # Independent oracle: scan the AST for Call nodes with
            # identifier callees.
            expected = set()
            for decl in tu.decls:
                if isinstance(decl, FunctionDef):
                    for node in walk(decl.body):
                        if isinstance(node, Call) and isinstance(node.callee, Identifier):
                            expected.add((decl.name, node.callee.name))
            got = {(a, b) for a, b in graph.direct_edges}
            assert got == expected
            # Brute-force cycle detection by DFS path enumeration.
            adj = {}
            for a, b in expected:
                adj.setdefault(a, []).append(b)
            on_cycle = set()

            def dfs(start, node, seen):
                for nxt in adj.get(node, []):
                    if nxt == start:
                        on_cycle.add(start)
                    elif nxt not in seen:
                        dfs(start, nxt, seen | {nxt})

            for name in [f"fn{i}" for i in range(n)]:
                dfs(name, name, {name})
            comp_members = set().union(*recursion_components(graph)) if recursion_components(graph) else set()
            assert comp_members == on_cycle
