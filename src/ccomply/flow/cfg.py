"""Control-flow graph construction.

Short-circuit operators, the conditional operator, and comma chains
are lowered into explicit branch structure (with synthetic temporaries
for value contexts), so every item in a basic block is a straight-line
expression. Branches whose condition is a syntactic constant get only
the taken edge; the untaken side records why it was orphaned so the
unreachable-code checker can cite the condition. Each `if`, `while`, `do`
and `for` statement with a condition records where its condition goes
when true and when false (`Cfg.conditions`).

Lowering never mutates an AST node. An item's expression (and a
terminator's) is the AST's own node unless one of its descendants was
lowered to a temporary; then only the nodes on the path from it to that
temporary are new, and every other subtree is shared with the AST. A
subtree whose `Expr.kinds` shows no `&&`, `||`, `?:` or `,`
(`KIND_BRANCH`) is taken as it is, unwalked. Operands are lowered in the
order `astnodes.operands` gives, so the operand of `sizeof` is never
lowered.

The function must be resolved: the resolver checks every statement
constraint (labels, `goto`, `break`, `continue`, `case` and `default`), so
lowering checks none and takes each jump's target as given.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from operator import is_not

from ccomply.flow import effects
from ccomply.flow.effects import Event
from ccomply.parsing.astnodes import (
    KIND_BRANCH, Assign, Binary, Break, Comma, CompoundStmt, Conditional, Constant, Continue,
    DeclEntry, Declaration, DoWhile, Expr, ExprStmt, For, FunctionDef, Goto,
    Identifier, If, Label, Node, Return, Switch, Unary, While, operand_fields, placed,
)
from ccomply.sema.symbols import Linkage, Storage, SymKind, Symbol
from ccomply.sema.typesys import DEFAULT_MODEL, IntegerModel, make_int
from ccomply.source import Extent


class EdgeKind(Enum):
    FALLTHROUGH = "fallthrough"
    TRUE = "true-branch"
    FALSE = "false-branch"
    CASE = "switch-case"
    JUMP = "jump"


@dataclass(eq=False, slots=True)
class EvalItem:
    expr: Expr
    stmt: Node  # originating statement (or declaration entry)
    _events: list[Event] | None = field(default=None, init=False, repr=False)

    @property
    def events(self) -> list[Event]:
        """The item's effect events, walked on first read and kept."""
        events = self._events
        if events is None:
            events = self._events = effects.walk_effects(self.expr)
        return events


@dataclass(eq=False, slots=True)
class DeclItem:
    symbol: Symbol
    init: Expr | None
    entry: DeclEntry
    stmt: Node
    _events: list[Event] | None = field(default=None, init=False, repr=False)

    @property
    def events(self) -> list[Event]:
        """The initializer's events, then the store of the declared object;
        walked on first read and kept."""
        events = self._events
        if events is None:
            events = []
            if self.init is not None:
                events = effects.walk_effects(self.init)
                events.append(Event("write", self.symbol, self.init, self.init))
            self._events = events
        return events


Item = EvalItem | DeclItem


@dataclass(eq=False)
class TBranch:
    cond: Expr
    true_target: int
    false_target: int
    node: Node
    const_value: int | None = None  # folded condition, when syntactically constant


@dataclass(eq=False)
class TSwitch:
    expr: Expr
    cases: list[tuple[int, int]]  # (constant value, target block)
    default_target: int
    has_default: bool
    node: Node


@dataclass(eq=False)
class TJump:
    target: int
    kind: EdgeKind = EdgeKind.FALLTHROUGH


@dataclass(eq=False)
class TReturn:
    value: Expr | None
    node: Node


@dataclass(eq=False, slots=True)
class Block:
    id: int
    items: list[Item] = field(default_factory=list)
    term: TBranch | TSwitch | TJump | TReturn | None = None
    # The first statement, declarator or expression lowered into the block
    # that has a source extent; R2.1 reports unreachable code there.
    anchor: Extent | None = None
    is_loop_head: bool = False
    unlinked_reason: tuple[Expr, int] | None = None  # (condition, folded value)
    preds: list[int] = field(default_factory=list)
    succs: list[tuple[int, EdgeKind]] = field(default_factory=list)
    reachable: bool = True
    _term_events: list[Event] | None = field(default=None, init=False, repr=False)

    def note(self, holder: Extent) -> None:
        if self.anchor is None and holder.start is not None:
            self.anchor = holder

    @property
    def term_expr(self) -> Expr | None:
        """The expression the terminator evaluates, if any."""
        term = self.term
        if isinstance(term, TBranch):
            return term.cond
        if isinstance(term, TSwitch):
            return term.expr
        if isinstance(term, TReturn):
            return term.value
        return None

    @property
    def term_events(self) -> list[Event]:
        """The terminator expression's effect events, walked on first read and kept."""
        events = self._term_events
        if events is None:
            expr = self.term_expr
            events = self._term_events = effects.walk_effects(expr) if expr is not None else []
        return events


@dataclass(eq=False)
class Cfg:
    fn: FunctionDef
    blocks: list[Block]
    entry: int
    exit: int
    # statement -> (true target, false target) of its controlling expression
    conditions: dict[Node, tuple[int, int]] = field(default_factory=dict)

    def block(self, bid: int) -> Block:
        return self.blocks[bid]

    def points(self):
        """Iterate (block, index, item) over reachable blocks in id order."""
        for b in self.blocks:
            if not b.reachable:
                continue
            for i, item in enumerate(b.items):
                yield b, i, item

    def edges(self) -> list[tuple[int, int, EdgeKind]]:
        out = []
        for b in self.blocks:
            for target, kind in b.succs:
                out.append((b.id, target, kind))
        return out

    @property
    def has_open_branch(self) -> bool:
        """Whether a reachable block ends in a branch whose condition did not
        fold to a constant: interval analysis can refute no other edge."""
        return any(
            b.reachable and isinstance(b.term, TBranch) and b.term.const_value is None
            for b in self.blocks
        )

    @cached_property
    def addr_taken(self) -> frozenset[int]:
        """`addr_taken_syms` of this graph, computed once."""
        return effects.addr_taken_syms(self)


@dataclass
class _LoopCtx:
    break_target: int
    continue_target: int


@dataclass
class _SwitchCtx:
    cases: list[tuple[int, int]]
    default_target: int | None
    break_target: int
    node: Switch


class CfgBuilder:
    def __init__(self, fn: FunctionDef, model: IntegerModel = DEFAULT_MODEL):
        self.fn = fn
        self.model = model
        self.blocks: list[Block] = []
        self.temp_count = 0
        self.loops: list[_LoopCtx] = []
        self.switches: list[_SwitchCtx] = []
        self.breakables: list[int] = []  # innermost-last break targets
        self.labels: dict[str, int] = {}
        self.pending_gotos: list[tuple[str, Block]] = []
        self.conditions: dict[Node, tuple[int, int]] = {}

    # ---- plumbing -----------------------------------------------------------

    def new_block(self) -> Block:
        b = Block(len(self.blocks))
        self.blocks.append(b)
        return b

    def new_temp(self, ctype) -> Symbol:
        # Temporaries get uids -1, -2, ...: distinct within the graph, and
        # never a symbol-table uid (those are >= 0).
        name = f"$t{self.temp_count}"
        self.temp_count += 1
        fn = self.fn
        return Symbol(
            name, SymKind.OBJECT, ctype or make_int(self.model.int_bits, True),
            0, Storage.AUTO, Linkage.NONE, fn.start, fn.end, fn.via,
            is_temp=True, uid=-self.temp_count,
        )

    def temp_ref(self, temp: Symbol, at: Expr) -> Identifier:
        ref = placed(Identifier(temp.name), at)
        ref.symbol = temp
        ref.ctype = temp.type
        return ref

    def build(self) -> Cfg:
        entry = self.new_block()
        exit_block = self.new_block()
        self.exit_id = exit_block.id
        cur = self._stmt(self.fn.body, entry)
        if cur is not None:
            cur.term = TJump(self.exit_id, EdgeKind.FALLTHROUGH)
        for name, block in self.pending_gotos:
            block.term = TJump(self.labels[name], EdgeKind.JUMP)
        cfg = Cfg(self.fn, self.blocks, entry.id, self.exit_id, self.conditions)
        _materialize_edges(cfg)
        return cfg

    # ---- statements -----------------------------------------------------------

    def _stmt(self, node: Node, cur: Block | None) -> Block | None:
        """Lower one statement; returns the open block or None after a jump."""
        if cur is None:
            cur = self.new_block()  # unreachable continuation after a jump
        cur.note(node)

        if isinstance(node, CompoundStmt):
            for item in node.items:
                cur = self._stmt(item, cur)
            return cur

        if isinstance(node, Declaration):
            for entry in node.entries:
                if entry.symbol is None or entry.symbol.kind is not SymKind.OBJECT:
                    continue
                init = entry.init
                if init is not None:
                    init, cur = self._expr(init, cur)
                cur.items.append(DeclItem(entry.symbol, init, entry, node))
                cur.note(entry)
            return cur

        if isinstance(node, ExprStmt):
            if node.expr is None:
                return cur
            return self._expr_statement(node.expr, node, cur)

        if isinstance(node, If):
            then_b = self.new_block()
            else_b = self.new_block() if node.els is not None else None
            join = self.new_block()
            self._test(node, then_b.id, (else_b or join).id, cur)
            end_then = self._stmt(node.then, then_b)
            if end_then is not None:
                end_then.term = TJump(join.id, EdgeKind.FALLTHROUGH)
            if node.els is not None:
                end_else = self._stmt(node.els, else_b)
                if end_else is not None:
                    end_else.term = TJump(join.id, EdgeKind.FALLTHROUGH)
            return join

        if isinstance(node, While):
            head = self.new_block()
            head.is_loop_head = True
            head.note(node.cond)
            cur.term = TJump(head.id, EdgeKind.FALLTHROUGH)
            body_b = self.new_block()
            after = self.new_block()
            self._test(node, body_b.id, after.id, head)
            self.loops.append(_LoopCtx(after.id, head.id))
            self.breakables.append(after.id)
            end_body = self._stmt(node.body, body_b)
            self.breakables.pop()
            self.loops.pop()
            if end_body is not None:
                end_body.term = TJump(head.id, EdgeKind.JUMP)
            return after

        if isinstance(node, DoWhile):
            body_b = self.new_block()
            body_b.is_loop_head = True
            cond_b = self.new_block()
            after = self.new_block()
            cur.term = TJump(body_b.id, EdgeKind.FALLTHROUGH)
            self.loops.append(_LoopCtx(after.id, cond_b.id))
            self.breakables.append(after.id)
            end_body = self._stmt(node.body, body_b)
            self.breakables.pop()
            self.loops.pop()
            if end_body is not None:
                end_body.term = TJump(cond_b.id, EdgeKind.FALLTHROUGH)
            cond_b.note(node.cond)
            self._test(node, body_b.id, after.id, cond_b)
            return after

        if isinstance(node, For):
            if isinstance(node.init, Declaration):
                cur = self._stmt(node.init, cur)
            elif node.init is not None:
                cur = self._expr_statement(node.init, node, cur)
            head = self.new_block()
            head.is_loop_head = True
            head.note(node.cond if node.cond is not None else node)
            cur.term = TJump(head.id, EdgeKind.FALLTHROUGH)
            body_b = self.new_block()
            step_b = self.new_block()
            after = self.new_block()
            if node.cond is not None:
                self._test(node, body_b.id, after.id, head)
            else:
                head.term = TJump(body_b.id, EdgeKind.TRUE)
            self.loops.append(_LoopCtx(after.id, step_b.id))
            self.breakables.append(after.id)
            end_body = self._stmt(node.body, body_b)
            self.breakables.pop()
            self.loops.pop()
            if end_body is not None:
                end_body.term = TJump(step_b.id, EdgeKind.FALLTHROUGH)
            if node.step is not None:
                step_end = self._expr_statement(node.step, node, step_b)
            else:
                step_end = step_b
            if step_end is not None:
                step_end.term = TJump(head.id, EdgeKind.JUMP)
            return after

        if isinstance(node, Switch):
            expr, cur = self._expr(node.cond, cur)
            after = self.new_block()
            ctx = _SwitchCtx([], None, after.id, node)
            self.switches.append(ctx)
            self.breakables.append(after.id)
            body_b = self.new_block()
            end_body = self._stmt(node.body, body_b)
            self.breakables.pop()
            self.switches.pop()
            if end_body is not None:
                end_body.term = TJump(after.id, EdgeKind.FALLTHROUGH)
            default_target = ctx.default_target if ctx.default_target is not None else after.id
            cur.term = TSwitch(expr, ctx.cases, default_target,
                               ctx.default_target is not None, node)
            return after

        if isinstance(node, Label):
            target = self.new_block()
            target.note(node)
            if cur is not None:
                cur.term = TJump(target.id, EdgeKind.FALLTHROUGH)
            if node.kind == "named":
                self.labels[node.name] = target.id
                target.is_loop_head = True  # goto may form a loop through here
            elif node.kind == "case":
                self.switches[-1].cases.append((node.case_expr.const_value, target.id))
            else:
                self.switches[-1].default_target = target.id
            return self._stmt(node.stmt, target)

        if isinstance(node, Goto):
            self.pending_gotos.append((node.label, cur))
            return None

        if isinstance(node, Break):
            cur.term = TJump(self.breakables[-1], EdgeKind.JUMP)
            return None

        if isinstance(node, Continue):
            cur.term = TJump(self.loops[-1].continue_target, EdgeKind.JUMP)
            return None

        if isinstance(node, Return):
            value = None
            if node.value is not None:
                value, cur = self._expr(node.value, cur)
            cur.term = TReturn(value, node)
            return None

        raise AssertionError(f"cannot lower statement {type(node).__name__}")

    # ---- expressions ------------------------------------------------------------

    def _expr_statement(self, expr: Expr, stmt: Node, cur: Block) -> Block:
        # Statement-position comma chains and short-circuits need no value.
        if isinstance(expr, Comma):
            cur = self._expr_statement(expr.left, stmt, cur)
            return self._expr_statement(expr.right, stmt, cur)
        if isinstance(expr, Binary) and expr.op in ("&&", "||"):
            # Evaluate for control only: the right side runs conditionally.
            rhs_b = self.new_block()
            join = self.new_block()
            if expr.op == "&&":
                self._cond(expr.left, rhs_b.id, join.id, cur, stmt)
            else:
                self._cond(expr.left, join.id, rhs_b.id, cur, stmt)
            end = self._expr_statement(expr.right, stmt, rhs_b)
            end.term = TJump(join.id, EdgeKind.FALLTHROUGH)
            return join
        lowered, cur = self._expr(expr, cur)
        cur.items.append(EvalItem(lowered, stmt))
        cur.note(expr)
        return cur

    def _expr(self, e: Expr, cur: Block) -> tuple[Expr, Block]:
        """Lower an expression for value; returns a branch-free tree."""
        if not e.kinds & KIND_BRANCH:
            return e, cur
        if isinstance(e, Binary) and e.op in ("&&", "||"):
            temp = self.new_temp(e.ctype)
            true_b = self.new_block()
            false_b = self.new_block()
            join = self.new_block()
            self._cond(e, true_b.id, false_b.id, cur, e)
            for blk, value in ((true_b, 1), (false_b, 0)):
                const = placed(Constant(str(value), value, False), e)
                const.ctype, const.const_value = temp.type, value
                assign = placed(Assign(self.temp_ref(temp, e), const), e)
                assign.ctype = temp.type
                blk.items.append(EvalItem(assign, e))
                blk.term = TJump(join.id, EdgeKind.FALLTHROUGH)
            return self.temp_ref(temp, e), join

        if isinstance(e, Conditional):
            temp = self.new_temp(e.ctype)
            then_b = self.new_block()
            else_b = self.new_block()
            join = self.new_block()
            self._cond(e.cond, then_b.id, else_b.id, cur, e)
            for blk, branch in ((then_b, e.then), (else_b, e.other)):
                value, end = self._expr(branch, blk)
                assign = placed(Assign(self.temp_ref(temp, branch), value), branch)
                assign.ctype = temp.type
                end.items.append(EvalItem(assign, e))
                end.term = TJump(join.id, EdgeKind.FALLTHROUGH)
            return self.temp_ref(temp, e), join

        if isinstance(e, Comma):
            left, cur = self._expr(e.left, cur)
            cur.items.append(EvalItem(left, e))
            return self._expr(e.right, cur)

        # Everything else: lower the operands in order. The node is rebuilt
        # only when an operand was lowered to a temporary, so a branch-free
        # expression comes back as the AST's own node.
        lowered: dict[str, Expr | list[Expr]] = {}
        for name in operand_fields(e):
            value = getattr(e, name)
            if type(value) is list:
                items = []
                for x in value:
                    low, cur = self._expr(x, cur)
                    items.append(low)
                if any(map(is_not, items, value)):
                    lowered[name] = items
            else:
                low, cur = self._expr(value, cur)
                if low is not value:
                    lowered[name] = low
        return (replace(e, **lowered) if lowered else e), cur

    def _test(self, node: If | While | DoWhile | For, true_t: int, false_t: int,
              cur: Block) -> None:
        """Lower statement `node`'s controlling expression; record its targets."""
        self.conditions[node] = (true_t, false_t)
        self._cond(node.cond, true_t, false_t, cur, node)

    def _cond(self, e: Expr, true_t: int, false_t: int, cur: Block, node: Node) -> None:
        """Lower a boolean context; always terminates `cur`'s chain."""
        cur.note(e)
        if isinstance(e, Binary) and e.op == "&&":
            mid = self.new_block()
            self._cond(e.left, mid.id, false_t, cur, node)
            self._cond(e.right, true_t, false_t, mid, node)
            return
        if isinstance(e, Binary) and e.op == "||":
            mid = self.new_block()
            self._cond(e.left, true_t, mid.id, cur, node)
            self._cond(e.right, true_t, false_t, mid, node)
            return
        if isinstance(e, Unary) and e.op == "!":
            self._cond(e.operand, false_t, true_t, cur, node)
            return
        if isinstance(e, Comma):
            left, cur2 = self._expr(e.left, cur)
            cur2.items.append(EvalItem(left, node))
            self._cond(e.right, true_t, false_t, cur2, node)
            return
        if isinstance(e, Conditional):
            then_b = self.new_block()
            else_b = self.new_block()
            self._cond(e.cond, then_b.id, else_b.id, cur, node)
            self._cond(e.then, true_t, false_t, then_b, node)
            self._cond(e.other, true_t, false_t, else_b, node)
            return
        lowered, cur = self._expr(e, cur)
        # A condition rebuilt around a temporary has no recorded value.
        cur.term = TBranch(lowered, true_t, false_t, node, lowered.const_value)


def _materialize_edges(cfg: Cfg) -> None:
    for b in cfg.blocks:
        term = b.term
        if term is None:
            continue
        if isinstance(term, TJump):
            b.succs.append((term.target, term.kind))
        elif isinstance(term, TReturn):
            b.succs.append((cfg.exit, EdgeKind.JUMP))
        elif isinstance(term, TBranch):
            if term.const_value is None:
                b.succs.append((term.true_target, EdgeKind.TRUE))
                b.succs.append((term.false_target, EdgeKind.FALSE))
            elif term.const_value != 0:
                b.succs.append((term.true_target, EdgeKind.TRUE))
                cfg.blocks[term.false_target].unlinked_reason = (term.cond, term.const_value)
            else:
                b.succs.append((term.false_target, EdgeKind.FALSE))
                cfg.blocks[term.true_target].unlinked_reason = (term.cond, term.const_value)
        elif isinstance(term, TSwitch):
            seen = set()
            for value, target in term.cases:
                if target not in seen:
                    b.succs.append((target, EdgeKind.CASE))
                    seen.add(target)
            if term.default_target not in seen:
                kind = EdgeKind.CASE if term.has_default else EdgeKind.FALLTHROUGH
                b.succs.append((term.default_target, kind))
    for b in cfg.blocks:
        for target, _ in b.succs:
            cfg.blocks[target].preds.append(b.id)
    # Reachability from entry.
    seen: set[int] = set()
    stack = [cfg.entry]
    while stack:
        bid = stack.pop()
        if bid in seen:
            continue
        seen.add(bid)
        for target, _ in cfg.blocks[bid].succs:
            stack.append(target)
    for b in cfg.blocks:
        b.reachable = b.id in seen


def build_cfg(fn: FunctionDef, model: IntegerModel = DEFAULT_MODEL) -> Cfg:
    """Build the control-flow graph for one resolved function."""
    return CfgBuilder(fn, model).build()
