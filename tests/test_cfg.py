from dataclasses import replace

import pytest

from ccomply.errors import SemaError
from ccomply.flow.cfg import CfgBuilder, EdgeKind, EvalItem, TBranch, TJump, TReturn, TSwitch
from ccomply.parsing import Call, Identifier, walk
from flow_helpers import analyze_fn


def reachable_ids(cfg):
    return {b.id for b in cfg.blocks if b.reachable}


def test_if_else_produces_cond_then_else_join():
    cfg, _, _, _ = analyze_fn("void f(int a) { int x; if (a) x = 1; else x = 2; use(x); }")
    branch_blocks = [b for b in cfg.blocks if isinstance(b.term, TBranch)]
    assert len(branch_blocks) == 1
    cond = branch_blocks[0]
    then_id = cond.term.true_target
    else_id = cond.term.false_target
    assert then_id != else_id
    then_b, else_b = cfg.block(then_id), cfg.block(else_id)
    assert isinstance(then_b.term, TJump) and isinstance(else_b.term, TJump)
    join_id = then_b.term.target
    assert else_b.term.target == join_id
    # Four structural roles: condition, then, else, join.
    assert len({cond.id, then_id, else_id, join_id}) == 4
    kinds = {kind for _, kind in cond.succs}
    assert kinds == {EdgeKind.TRUE, EdgeKind.FALSE}


def test_while_true_leaves_no_exit_edge_and_return_unreachable():
    cfg, _, _, _ = analyze_fn("void f(void) { while (1) { g(); } return; }")
    heads = [b for b in cfg.blocks if b.is_loop_head]
    assert heads, "loop head expected"
    head = heads[0]
    # The constant-true condition materializes only the body edge.
    assert isinstance(head.term, TBranch) and head.term.const_value == 1
    assert [kind for _, kind in head.succs] == [EdgeKind.TRUE]
    after = cfg.block(head.term.false_target)
    assert not after.reachable
    assert after.unlinked_reason is not None


def test_short_circuit_call_guarded_by_true_branch():
    cfg, _, _, _ = analyze_fn("void f(int a) { a && get(); }")
    call_blocks = [
        b for b, i, item in cfg.points()
        if isinstance(item, EvalItem) and isinstance(item.expr, Call)
    ]
    assert len(call_blocks) == 1
    call_block = call_blocks[0]
    preds = call_block.preds
    assert len(preds) == 1
    pred = cfg.block(preds[0])
    assert isinstance(pred.term, TBranch)
    assert pred.term.true_target == call_block.id
    kind = [k for t, k in pred.succs if t == call_block.id][0]
    assert kind is EdgeKind.TRUE


def test_conditional_operator_lowered_with_temp():
    cfg, _, table, _ = analyze_fn("int f(int a) { int x = a ? 1 : 2; return x; }")
    assigns = [
        item.expr for _, _, item in cfg.points()
        if isinstance(item, EvalItem) and isinstance(item.expr, type(item.expr))
    ]
    temp_writes = [
        e for e in assigns
        if hasattr(e, "target") and isinstance(getattr(e, "target", None), Identifier)
        and e.target.name.startswith("$t")
    ]
    assert len(temp_writes) == 2  # one per branch


def _temps(cfg):
    return {
        id(e.symbol): e.symbol for _, _, item in cfg.points() if isinstance(item, EvalItem)
        for e in walk(item.expr) if isinstance(e, Identifier) and e.symbol.is_temp
    }.values()


def test_each_temporary_has_its_own_negative_uid():
    cfg, _, _, _ = analyze_fn(
        "int f(int a, int b, int c) { int x = (a && b) + (c ? a : b) + (a || c); "
        "return (b ? x : c) + (x && a); }"
    )
    uids = [t.uid for t in _temps(cfg)]
    assert len(uids) >= 5
    assert len(set(uids)) == len(uids)
    assert all(uid < 0 for uid in uids)


def test_parameters_and_temporaries_are_local_objects():
    cfg, fn, _, _ = analyze_fn("int f(int a, char *p) { return a ? *p : 0; }")
    syms = [p.symbol for p in fn.params] + list(_temps(cfg))
    assert len(syms) == 3
    assert all(sym.is_local_object for sym in syms)


def test_switch_edges_and_implicit_default_fallthrough():
    cfg, _, _, _ = analyze_fn(
        "void f(int x) { switch (x) { case 1: g(); break; case 2: break; } use(x); }"
    )
    switches = [b for b in cfg.blocks if isinstance(b.term, TSwitch)]
    assert len(switches) == 1
    sw = switches[0]
    case_edges = [k for _, k in sw.succs if k is EdgeKind.CASE]
    fallthrough = [k for _, k in sw.succs if k is EdgeKind.FALLTHROUGH]
    assert len(case_edges) == 2
    assert len(fallthrough) == 1  # no default: implicit edge to join


def test_switch_with_default_has_no_fallthrough_edge():
    cfg, _, _, _ = analyze_fn(
        "void f(int x) { switch (x) { case 1: break; default: g(); } }"
    )
    sw = [b for b in cfg.blocks if isinstance(b.term, TSwitch)][0]
    assert all(k is EdgeKind.CASE for _, k in sw.succs)


def test_goto_resolves_and_undefined_label_errors():
    cfg, _, _, _ = analyze_fn(
        "void f(int a) { if (a) goto done; g(); done: use(a); }"
    )
    jump_edges = [k for _, _, k in cfg.edges() if k is EdgeKind.JUMP]
    assert jump_edges
    with pytest.raises(SemaError) as exc:
        analyze_fn("void f(void) { goto nowhere; }")
    assert "undefined label" in str(exc.value)


def test_statement_after_return_is_unreachable_block():
    cfg, _, _, _ = analyze_fn("void f(void) { return; g(); }")
    unreachable_with_items = [b for b in cfg.blocks if not b.reachable and b.items]
    assert len(unreachable_with_items) == 1


def test_do_while_back_edge():
    cfg, _, _, _ = analyze_fn("void f(int n) { int i = 0; do { i++; } while (i < n); }")
    heads = [b for b in cfg.blocks if b.is_loop_head]
    assert heads
    head = heads[0]
    assert any(t == head.id for b in cfg.blocks for t, _ in b.succs if b.id != head.id)


def test_for_loop_structure_continue_hits_step():
    cfg, _, _, _ = analyze_fn(
        "void f(int n) { int i; for (i = 0; i < n; ++i) { if (i == 2) continue; g(); } }"
    )
    assert any(b.is_loop_head for b in cfg.blocks)
    # continue produces a jump edge to the step block, which jumps to the head
    head = [b for b in cfg.blocks if b.is_loop_head][0]
    jump_preds = [p for p in head.preds if any(
        k is EdgeKind.JUMP for t, k in cfg.block(p).succs if t == head.id)]
    assert jump_preds, "step block should jump back to the loop head"


def test_entry_has_no_preds_every_block_owned():
    cfg, _, _, _ = analyze_fn(
        "void f(int a) { int x = 0; while (a) { x += 1; if (x == 3) break; } use(x); }"
    )
    assert cfg.block(cfg.entry).preds == []
    for b, i, item in cfg.points():
        assert cfg.blocks[b.id] is b


def _eval_items(cfg):
    return [item for _, _, item in cfg.points() if isinstance(item, EvalItem)]


def test_branch_free_statement_item_is_the_ast_expression():
    cfg, fn, _, _ = analyze_fn("void f(int a, int *p) { *p = a + 1; use(a); }")
    stmts = fn.body.items
    items = _eval_items(cfg)
    assert [item.stmt for item in items] == stmts
    assert all(item.expr is stmt.expr for item, stmt in zip(items, stmts))


def test_declaration_and_terminator_expressions_are_shared():
    cfg, fn, _, _ = analyze_fn(
        "int f(int a) { int x = a * 2; int v[2] = { a, x }; if (x > a) { return v[0]; } return x; }"
    )
    decl_x, decl_v, if_stmt, ret = fn.body.items
    decls = [item for _, _, item in cfg.points() if not isinstance(item, EvalItem)]
    assert decls[0].init is decl_x.entries[0].init
    assert decls[1].init is decl_v.entries[0].init
    [branch] = [b.term for b in cfg.blocks if isinstance(b.term, TBranch)]
    assert branch.cond is if_stmt.cond
    returns = [b.term.value for b in cfg.blocks if isinstance(b.term, TReturn)]
    assert any(v is ret.value for v in returns)


def test_only_nodes_above_a_temporary_are_new():
    cfg, fn, _, _ = analyze_fn("void f(int a, int b, int c) { int x; x = (a && b) + c; use(x); }")
    stmt = fn.body.items[1]
    ast_assign = stmt.expr
    ast_sum = ast_assign.value
    [item] = [item for item in _eval_items(cfg) if item.stmt is stmt]
    assign = item.expr
    assert assign is not ast_assign and type(assign) is type(ast_assign)
    assert assign.target is ast_assign.target
    total = assign.value
    assert total is not ast_sum and total.op == "+"
    assert total.left.name.startswith("$t")
    assert total.right is ast_sum.right
    # The AST itself is untouched.
    assert ast_sum.left.op == "&&"


def test_sizeof_operand_is_not_lowered():
    cfg, fn, _, _ = analyze_fn("void f(int a, int b) { use((int)sizeof(a && b)); }")
    [item] = _eval_items(cfg)
    assert item.expr is fn.body.items[0].expr
    assert len([b for b in cfg.blocks if b.reachable]) == 2


class _CountingBuilder(CfgBuilder):
    """A builder that records every expression `_expr` is asked to lower."""

    def __init__(self, fn):
        super().__init__(fn)
        self.lowered = []

    def _expr(self, e, cur):
        self.lowered.append(e)
        return super()._expr(e, cur)


def _lower(text):
    """(the statement expressions of `f`, each lowered for value by a fresh builder)."""
    _, fn, _, _ = analyze_fn(text)
    out = []
    for stmt in fn.body.items:
        builder = _CountingBuilder(fn)
        block = builder.new_block()
        lowered, end = builder._expr(stmt.expr, block)
        out.append((stmt.expr, lowered, end is block, builder.lowered))
    return out


def test_a_branch_free_expression_is_taken_unwalked():
    rows = _lower("void f(int a, int b, int *p) { use(a + b * *p); *p = (a << 2) - b; }")
    for expr, lowered, same_block, walked in rows:
        assert lowered is expr and same_block and walked == [expr]


@pytest.mark.parametrize("stmt", ["use(a && b);", "use(c ? a : b);", "use((a, b));"])
def test_a_branch_is_lowered_around_a_temporary(stmt):
    [(expr, lowered, same_block, walked)] = _lower(f"void f(int a, int b, int c) {{ {stmt} }}")
    assert lowered is not expr and type(lowered) is Call
    # `&&` and `?:` end the block in a branch; `,` puts its left operand in an item.
    assert same_block is (stmt == "use((a, b));")
    # Only the call, its callee and the branching argument are visited, and
    # the operands of `&&`, `?:` and `,` that lowering splits.
    assert walked[:3] == [expr, expr.callee, expr.args[0]]
    assert expr.callee not in walked[3:]


def test_a_tree_rebuilt_after_sema_is_walked():
    _, fn, _, _ = analyze_fn("void f(int a, int b) { use(a + b); }")
    copy = replace(fn.body.items[0].expr)
    builder = _CountingBuilder(fn)
    lowered, _ = builder._expr(copy, builder.new_block())
    assert lowered is copy and builder.lowered[:2] == [copy, copy.callee]
