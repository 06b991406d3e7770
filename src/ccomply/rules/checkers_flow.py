"""Checkers backed by data-flow facts: R12.2, R9.1, R2.1, R2.2, R14.3, R1.3."""
from __future__ import annotations

from ccomply.flow.assign import AssignState
from ccomply.flow.cfg import Cfg, DeclItem, EvalItem, TBranch, TReturn, TSwitch
from ccomply.parsing.astnodes import (
    Binary, CompoundAssign, Constant, DoWhile, Expr, ExprStmt, For, If, NodeIndex,
    While, walk_operands,
)
from ccomply.rules.context import FunctionFacts, TUFacts
from ccomply.rules.findings import BehaviorClass, Certainty, Evidence, Finding
from ccomply.sema.typesys import is_integer, promoted_width, rvalue_type
from ccomply.source import Span


def _point_exprs(cfg: Cfg):
    """(block id, index, expr, its events) for every evaluated expression, in order."""
    for b, i, item in cfg.points():
        if isinstance(item, EvalItem):
            yield b.id, i, item.expr, item.events
        elif isinstance(item, DeclItem) and item.init is not None:
            yield b.id, i, item.init, item.events
    for b in cfg.blocks:
        if b.reachable and b.term_expr is not None:
            yield b.id, len(b.items), b.term_expr, b.term_events


# ---- R12.2: shift amount within the promoted width --------------------------


def check_shift_range(
    facts: TUFacts, index: NodeIndex, functions: list[FunctionFacts],
) -> list[Finding]:
    out: list[Finding] = []
    for fn in functions:
        if not fn.fn.unproven_shifts:
            continue  # every shift count is a constant in range: nothing to report
        for bid, idx, expr, _ in _point_exprs(fn.cfg):
            for node in walk_operands(expr):
                shift = _shift_parts(node)
                if shift is None:
                    continue
                op, left, right = shift
                left_t = rvalue_type(left.ctype)
                if left_t is None or not is_integer(left_t):
                    continue
                width = promoted_width(left_t, facts.model)
                legal_lo, legal_hi = 0, width - 1
                if right.const_value is not None:
                    lo = hi = right.const_value
                else:
                    iv = fn.intervals.eval_expr(right, fn.intervals.env_at(bid, idx), expr)
                    if iv is None:
                        continue
                    lo, hi = iv.lo, iv.hi
                if hi < legal_lo or lo > legal_hi:
                    out.append(Finding(
                        "R12.2", node.span, Certainty.DEFINITE,
                        f"right-hand operand of {op} is {_range_text(lo, hi)}, "
                        f"outside the legal range [0, {legal_hi}]",
                        behavior_class=BehaviorClass.UNDEFINED,
                        evidence=(
                            Evidence(right.span,
                                     f"right operand evaluates to {_range_text(lo, hi)}"),
                            Evidence(left.span,
                                     f"promoted width of the left operand is {width} bits"),
                        ),
                    ))
                elif lo < legal_lo or hi > legal_hi:
                    out.append(Finding(
                        "R12.2", node.span, Certainty.CAUTION,
                        f"right-hand operand of {op} may reach {_range_text(lo, hi)}, "
                        f"escaping the legal range [0, {legal_hi}]",
                        behavior_class=BehaviorClass.UNDEFINED,
                        evidence=(
                            Evidence(right.span,
                                     f"right operand range {_range_text(lo, hi)} "
                                     f"overlaps both sides of [0, {legal_hi}]"),
                        ),
                    ))
    return out


def _shift_parts(node) -> tuple[str, Expr, Expr] | None:
    if isinstance(node, Binary) and node.op in ("<<", ">>"):
        return node.op, node.left, node.right
    if isinstance(node, CompoundAssign) and node.op in ("<<", ">>"):
        return node.op + "=", node.target, node.value
    return None


def _range_text(lo: int, hi: int) -> str:
    return str(lo) if lo == hi else f"in [{lo}, {hi}]"


# ---- R9.1: no read of unset automatic storage --------------------------------


def check_uninitialized_read(
    facts: TUFacts, index: NodeIndex, functions: list[FunctionFacts],
) -> list[Finding]:
    out: list[Finding] = []
    for fn in functions:
        for ev in fn.assign.reads:
            if ev.sym.is_temp or ev.sym.is_param:
                continue
            if ev.state is AssignState.DEFINITELY_ASSIGNED:
                continue
            entry = fn.assign.decl_entries.get(ev.sym.uid)
            evidence = [Evidence(entry and entry.span,
                                 f"'{ev.sym.name}' is declared here without an initializer")]
            if ev.state is AssignState.MAYBE_UNASSIGNED:
                out.append(Finding(
                    "R9.1", ev.node.span, Certainty.DEFINITE,
                    f"'{ev.sym.name}' is read before it is set on some path",
                    behavior_class=BehaviorClass.UNDEFINED,
                    evidence=tuple(evidence),
                ))
            else:
                evidence.append(Evidence(
                    None,
                    f"the address of '{ev.sym.name}' escapes before this read; "
                    "a callee or alias may or may not have set it "
                    "(analysis approximation, not rule undecidability alone)",
                ))
                out.append(Finding(
                    "R9.1", ev.node.span, Certainty.CAUTION,
                    f"'{ev.sym.name}' may be read before it is set",
                    behavior_class=BehaviorClass.UNDEFINED,
                    evidence=tuple(evidence),
                ))
    return out


# ---- R2.1: no unreachable code ------------------------------------------------


def check_unreachable(
    facts: TUFacts, index: NodeIndex, functions: list[FunctionFacts],
) -> list[Finding]:
    out: list[Finding] = []
    for fn in functions:
        cfg = fn.cfg
        # Without an open branch there is no dead edge, and the analysis is skipped.
        dead = fn.intervals.dead_edges if cfg.has_open_branch else set()
        graph_unreachable = {b.id for b in cfg.blocks if not b.reachable and b.id != cfg.exit}
        interval_unreachable = _interval_unreachable(cfg, dead) - graph_unreachable
        for region in _regions(cfg, graph_unreachable | interval_unreachable):
            span, block = _region_anchor(cfg, region)
            if span is None:
                continue
            evidence = []
            reason = _region_reason(cfg, region, dead)
            if reason is not None:
                cond, value = reason
                evidence.append(Evidence(
                    cond.span,
                    f"this condition always evaluates {'true' if value else 'false'}",
                ))
            else:
                evidence.append(Evidence(None, "no path from the function entry reaches this code"))
            out.append(Finding(
                "R2.1", span, Certainty.DEFINITE,
                "code is unreachable",
                evidence=tuple(evidence),
            ))
    return out


def _interval_unreachable(cfg: Cfg, dead: set[tuple[int, int]]) -> set[int]:
    if not dead:
        return set()
    seen: set[int] = set()
    stack = [cfg.entry]
    while stack:
        bid = stack.pop()
        if bid in seen:
            continue
        seen.add(bid)
        for target, _ in cfg.block(bid).succs:
            if (bid, target) in dead:
                continue
            stack.append(target)
    return {
        b.id for b in cfg.blocks
        if b.reachable and b.id not in seen and b.id != cfg.exit
    }


def _regions(cfg: Cfg, blocks: set[int]) -> list[set[int]]:
    regions: list[set[int]] = []
    remaining = set(blocks)
    while remaining:
        seed = min(remaining)
        region = {seed}
        frontier = [seed]
        while frontier:
            bid = frontier.pop()
            b = cfg.block(bid)
            neighbors = [t for t, _ in b.succs] + list(b.preds)
            for n in neighbors:
                if n in remaining and n not in region:
                    region.add(n)
                    frontier.append(n)
        regions.append(region)
        remaining -= region
    return regions


def _region_anchor(cfg: Cfg, region: set[int]) -> tuple[Span | None, int | None]:
    best: tuple[tuple[int, int], Span, int] | None = None
    for bid in region:
        b = cfg.block(bid)
        if not b.items and not isinstance(b.term, (TReturn, TBranch, TSwitch)):
            continue
        if b.anchor is None:
            continue
        span = b.anchor.span
        key = (span.start.line, span.start.column)
        if best is None or key < best[0]:
            best = (key, span, bid)
    if best is None:
        return None, None
    return best[1], best[2]


def _region_reason(cfg: Cfg, region: set[int], dead: set[tuple[int, int]]):
    for bid in sorted(region):
        reason = cfg.block(bid).unlinked_reason
        if reason is not None:
            return reason
    for (src, dst) in sorted(dead):
        if dst in region and src not in region:
            term = cfg.block(src).term
            if isinstance(term, TBranch):
                kind = [k for t, k in cfg.block(src).succs if t == dst]
                value = 0 if kind and kind[0].value == "true-branch" else 1
                return (term.cond, value)
    return None


# ---- R2.2: no dead code ---------------------------------------------------------


def check_dead_code(
    facts: TUFacts, index: NodeIndex, functions: list[FunctionFacts],
) -> list[Finding]:
    out: list[Finding] = []
    for fn in functions:
        for b, idx, item in fn.cfg.points():
            if not isinstance(item, EvalItem) or not isinstance(item.stmt, ExprStmt):
                continue
            events = item.events
            if any(ev.kind in ("call", "volatile", "deref_store") for ev in events):
                continue
            writes = [ev for ev in events if ev.kind == "write"]
            if any(ev.sym is None or not ev.sym.is_local_object for ev in writes):
                continue  # stores to globals or escaped objects may be observed
            if not writes:
                out.append(Finding(
                    "R2.2", item.expr.span, Certainty.DEFINITE,
                    "statement computes a value that is never used and has no side effects",
                    evidence=(Evidence(item.expr.span, "expression result is discarded"),),
                ))
                continue
            user_writes = [ev for ev in writes if not ev.sym.is_temp]
            if not user_writes:
                continue
            if all(not fn.live.is_live_after(b.id, idx, ev.sym.uid) for ev in user_writes):
                names = ", ".join(sorted({f"'{ev.sym.name}'" for ev in user_writes}))
                out.append(Finding(
                    "R2.2", item.expr.span, Certainty.DEFINITE,
                    f"value stored to {names} is never read",
                    evidence=(Evidence(item.expr.span,
                                       f"no later read of {names} on any path"),),
                ))
    return out


# ---- R14.3: no invariant controlling expressions ---------------------------------


def check_invariant_condition(
    facts: TUFacts, index: NodeIndex, functions: list[FunctionFacts],
) -> list[Finding]:
    """A controlling expression is invariant when the interval analysis
    reaches it and finds an edge into only one of its outcomes live
    (`IntervalResult.outcomes`, final without running the analysis to its
    fixpoint): the same edge decisions that R2.1 reads. A condition no
    state reaches gives no finding."""
    out: list[Finding] = []
    for fn in functions:
        for stmt in index.subtree(fn.fn.body):
            if not isinstance(stmt, (If, While, DoWhile, For)) or stmt.cond is None:
                continue
            cond = stmt.cond
            if isinstance(stmt, While) and isinstance(cond, Constant) and cond.value == 1:
                continue  # exempt literal while(1)
            if isinstance(stmt, DoWhile) and isinstance(cond, Constant) and cond.value == 0:
                continue  # exempt literal do..while(0)
            can_true, can_false = fn.intervals.outcomes.get(stmt, (False, False))
            if can_true == can_false:
                continue  # both outcomes live, or the condition is never reached
            value = "true" if can_true else "false"
            out.append(Finding(
                "R14.3", cond.span, Certainty.DEFINITE,
                f"controlling expression is invariant: always {value}",
                evidence=(Evidence(cond.span,
                                   f"analysis shows every evaluation yields {value}"),),
            ))
    return out


# ---- R1.3 (string-literal-write instance): no writes through literals -------------


def check_literal_write(
    facts: TUFacts, index: NodeIndex, functions: list[FunctionFacts],
) -> list[Finding]:
    out: list[Finding] = []
    for fn in functions:
        for bid, idx, expr, events in _point_exprs(fn.cfg):
            stores = [ev for ev in events if ev.kind == "deref_store" and ev.pointer is not None]
            if not stores:
                continue
            env = fn.points.env_at(bid, idx)
            for ev in stores:
                pts = fn.points.points_to(ev.pointer, env)
                if pts.is_unknown or not pts.has_literal():
                    continue
                node = ev.node if ev.node is not None else expr
                if pts.only_literals():
                    out.append(Finding(
                        "R1.3", node.span, Certainty.DEFINITE,
                        "write through a pointer to a string literal",
                        behavior_class=BehaviorClass.UNDEFINED,
                        evidence=(Evidence(ev.pointer.span,
                                           f"pointer targets {pts!r}"),),
                    ))
                else:
                    out.append(Finding(
                        "R1.3", node.span, Certainty.CAUTION,
                        "write through a pointer that may target a string literal",
                        behavior_class=BehaviorClass.UNDEFINED,
                        evidence=(Evidence(ev.pointer.span,
                                           f"pointer targets {pts!r}; some targets are writable"),),
                    ))
    return out
