"""Syntax-driven checkers: R11.4, R13.1, R13.5, R13.2, R8.13, R14.1, R14.2."""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from ccomply.flow.effects import walk_effects
from ccomply.parsing.astnodes import (
    AddrOf, Assign, Binary, Call, Cast, Comma, CompoundAssign, Conditional,
    Declaration, Deref, DoWhile, Expr, ExprStmt, For, FunctionDef, Identifier,
    If, IncDec, Index, InitList, Member, Node, NodeIndex, Return, Sizeof,
    Switch, Unary, While, children, for_clauses, operands, walk,
)
from ccomply.rules.context import FunctionFacts, TUFacts
from ccomply.rules.findings import BehaviorClass, Certainty, Evidence, Finding
from ccomply.sema.symbols import SymKind, Symbol
from ccomply.sema.typesys import TK, TypeDesc, is_integer, is_object_pointer, rvalue_type


# ---- R11.4: no integer <-> object-pointer conversion ---------------------------


def check_int_pointer_conversion(
    facts: TUFacts, index: NodeIndex, functions: list[FunctionFacts],
) -> list[Finding]:
    out: list[Finding] = []

    def site(dst: TypeDesc | None, src_expr: Expr, node: Expr, what: str) -> None:
        src = rvalue_type(src_expr.ctype)
        if dst is None or src is None:
            return
        int_to_ptr = is_integer(src) and is_object_pointer(dst)
        ptr_to_int = is_object_pointer(src) and is_integer(dst)
        if not (int_to_ptr or ptr_to_int):
            return
        if int_to_ptr and src_expr.const_value == 0:
            return  # null pointer constant
        direction = "integer to object pointer" if int_to_ptr else "object pointer to integer"
        out.append(Finding(
            "R11.4", node.span, Certainty.DEFINITE,
            f"{what} converts {direction}",
            behavior_class=BehaviorClass.IMPLEMENTATION_DEFINED,
            evidence=(Evidence(src_expr.span, f"operand has type {src!r}"),),
        ))

    for decl in facts.tu.decls:
        ret_t = None
        if isinstance(decl, FunctionDef) and decl.symbol is not None:
            ret_t = decl.symbol.type.ret
        for node in index.subtree(decl):
            if isinstance(node, Cast):
                site(node.ctype, node.operand, node, "cast")
            elif isinstance(node, Assign):
                site(node.target.ctype, node.value, node, "assignment")
            elif isinstance(node, Call):
                callee_t = node.callee.ctype
                ft = callee_t.pointee if callee_t is not None and callee_t.kind is TK.POINTER else callee_t
                if ft is not None and ft.kind is TK.FUNCTION and ft.params is not None:
                    for param_t, arg in zip(ft.params, node.args):
                        site(param_t, arg, arg, "argument passing")
            elif isinstance(node, Return) and node.value is not None and ret_t is not None:
                site(ret_t, node.value, node, "return")
            elif isinstance(node, Declaration):
                for entry in node.entries:
                    if (
                        entry.init is not None
                        and not isinstance(entry.init, InitList)
                        and entry.symbol is not None
                    ):
                        site(entry.symbol.type, entry.init, entry.init, "initialization")
    return out


# ---- side-effect predicate shared by R13.1 / R13.5 ------------------------------


_SIDE_EFFECTS = frozenset({"write", "deref_store", "call", "volatile"})


def _has_side_effect(e: Expr) -> bool:
    """Does evaluating `e` store, call, or access a volatile object?"""
    return any(ev.kind in _SIDE_EFFECTS for ev in walk_effects(e))


def check_initializer_side_effects(
    facts: TUFacts, index: NodeIndex, functions: list[FunctionFacts],
) -> list[Finding]:
    out: list[Finding] = []
    for node in index.of(Declaration):
        for entry in node.entries:
            if entry.init is not None and _has_side_effect(entry.init):
                out.append(Finding(
                    "R13.1", entry.init.span, Certainty.DEFINITE,
                    f"initializer of '{entry.name}' contains a side effect",
                    evidence=(Evidence(entry.init.span,
                                       "side effects in initializers are not permitted"),),
                ))
    return out


def check_logical_operand_side_effects(
    facts: TUFacts, index: NodeIndex, functions: list[FunctionFacts],
) -> list[Finding]:
    out: list[Finding] = []
    for node in index.of(Binary):
        if node.op in ("&&", "||") and not _under_sizeof(node, index.parents):
            if _has_side_effect(node.right):
                out.append(Finding(
                    "R13.5", node.right.span, Certainty.DEFINITE,
                    f"right-hand operand of {node.op} contains a persistent side effect",
                    evidence=(Evidence(node.right.span,
                                       "this operand is conditionally evaluated"),),
                ))
    return out


def _under_sizeof(node: Node, parents: dict[int, Node]) -> bool:
    """Is `node` inside the operand of a `sizeof`, which C99 6.5.3.4p2 never evaluates?"""
    parent = parents.get(id(node))
    while parent is not None:
        if isinstance(parent, Sizeof):
            return True
        parent = parents.get(id(parent))
    return False


# ---- R13.2: no reliance on unspecified evaluation order --------------------------

_WORLD = ("world", -1)

# Says whether the variable an access key names may be reached through a pointer.
_Escaped = Callable[[tuple], bool]


@dataclass(frozen=True)
class _Access:
    write: bool
    key: tuple
    deref: bool
    name: str


def _accesses(e: Expr, escaped: _Escaped, conflicts: list) -> list[_Access]:
    """Collect accesses of a subtree, checking unsequenced sibling groups."""
    if isinstance(e, Identifier):
        sym = e.symbol
        if isinstance(sym, Symbol) and sym.kind is SymKind.OBJECT:
            volatile = "volatile" in sym.quals
            return [_Access(volatile, ("var", sym.uid), False, sym.name)]
        return []
    if isinstance(e, (Assign, CompoundAssign)):
        value_acc = _accesses(e.value, escaped, conflicts)
        target_reads, target_write = _lvalue_accesses(e.target, escaped, conflicts)
        if isinstance(e, CompoundAssign) and target_write is not None:
            target_reads = target_reads + [_Access(False, target_write.key,
                                                   target_write.deref,
                                                   target_write.name)]
        # The updating store is exempt from conflicts with reads of the same
        # key that feed the stored value, but two writes of one object always
        # conflict, and a store through one pointer may alias a read through
        # another.
        if target_write is not None:
            for other in value_acc + target_reads:
                if other.write or (target_write.deref and other.deref
                                   and other.key != target_write.key):
                    _check_pair(target_write, other, e, escaped, conflicts)
        _cross([value_acc, target_reads], e, escaped, conflicts)
        result = value_acc + target_reads
        if target_write is not None:
            result.append(target_write)
        return result
    if isinstance(e, IncDec):
        reads, write = _lvalue_accesses(e.operand, escaped, conflicts)
        out = reads[:]
        if write is not None:
            out.append(write)
            out.append(_Access(False, write.key, write.deref, write.name))
        return out
    if isinstance(e, Deref):
        inner = _accesses(e.operand, escaped, conflicts)
        return inner + [_Access(False, _deref_key(e.operand), True, _expr_name(e.operand))]
    if isinstance(e, Index):
        base = _accesses(e.base, escaped, conflicts)
        index = _accesses(e.index, escaped, conflicts)
        _cross([base, index], e, escaped, conflicts)
        acc = base + index
        acc.append(_Access(False, _deref_key(e.base), True, _expr_name(e.base)))
        return acc
    if isinstance(e, Member):
        inner = _accesses(e.base, escaped, conflicts)
        if e.arrow:
            inner = inner + [_Access(False, _deref_key(e.base), True, _expr_name(e.base))]
        return inner
    # Every other class: the operands' accesses. The operands of a call, of
    # an initializer list and of a binary operator other than && and || are
    # unsequenced against each other.
    groups = [_accesses(x, escaped, conflicts) for x in operands(e)]
    cls = type(e)
    if cls is Call or cls is InitList or (cls is Binary and e.op not in ("&&", "||")):
        _cross(groups, e, escaped, conflicts)
    flat = [x for g in groups for x in g]
    if cls is Call:
        flat.append(_Access(True, _WORLD, False, "<call>"))
    return flat


def _cross(groups: list[list[_Access]], node: Expr, escaped: _Escaped, conflicts: list) -> None:
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            for a in groups[i]:
                for b in groups[j]:
                    _check_pair(a, b, node, escaped, conflicts)


def _lvalue_accesses(target: Expr, escaped, conflicts) -> tuple[list[_Access], _Access | None]:
    """(address-computation accesses, the store access)."""
    if isinstance(target, Identifier) and isinstance(target.symbol, Symbol):
        sym = target.symbol
        return [], _Access(True, ("var", sym.uid), False, sym.name)
    if isinstance(target, Deref):
        reads = _accesses(target.operand, escaped, conflicts)
        return reads, _Access(True, _deref_key(target.operand), True,
                              _expr_name(target.operand))
    if isinstance(target, Index):
        reads = _accesses(target.base, escaped, conflicts) + _accesses(target.index, escaped, conflicts)
        return reads, _Access(True, _deref_key(target.base), True, _expr_name(target.base))
    if isinstance(target, Member):
        if target.arrow:
            reads = _accesses(target.base, escaped, conflicts)
            return reads, _Access(True, _deref_key(target.base), True,
                                  _expr_name(target.base))
        reads, write = _lvalue_accesses(target.base, escaped, conflicts)
        return reads, write
    if isinstance(target, Cast):
        return _lvalue_accesses(target.operand, escaped, conflicts)
    return _accesses(target, escaped, conflicts), None


def _deref_key(pointer: Expr) -> tuple:
    if isinstance(pointer, Identifier) and isinstance(pointer.symbol, Symbol):
        return ("deref", pointer.symbol.uid)
    return ("deref", None)


def _expr_name(e: Expr) -> str:
    if isinstance(e, Identifier):
        return f"*{e.name}"
    return "*<expr>"


def _is_escaped(key: tuple, fn: FunctionFacts, symbols: list[Symbol]) -> bool:
    """May the variable `key` names be reached through a pointer in `fn`?

    Only a local's own function can take its address, so only `fn`'s
    address-taken set is read, and only for a local.
    """
    if key[0] != "var":
        return True
    uid = key[1]
    return not symbols[uid].is_local_object or uid in fn.addr_taken


def _check_pair(a: _Access, b: _Access, node: Expr, escaped: _Escaped,
                conflicts: list) -> None:
    if not (a.write or b.write):
        return
    if a.key == _WORLD or b.key == _WORLD:
        if a.key == _WORLD and b.key == _WORLD:
            conflicts.append(("definite", node, "two unsequenced calls both carry side effects"))
        return
    if not a.deref and not b.deref:
        if a.key == b.key:
            conflicts.append((
                "definite", node,
                f"unsequenced side effect and access on '{a.name}'",
            ))
        return
    # At least one access goes through a dereference: the don't-know
    # channel owns every aliasing question, so these never escalate
    # past caution.
    involved_var = a if not a.deref else (b if not b.deref else None)
    if involved_var is not None and not escaped(involved_var.key):
        return  # a never-escaping local cannot alias a dereference
    conflicts.append((
        "caution", node,
        "unsequenced accesses through possibly aliasing lvalues",
    ))


def _full_expressions(body: list[Node]) -> list[Expr]:
    out: list[Expr] = []
    for node in body:
        if isinstance(node, ExprStmt) and node.expr is not None:
            out.append(node.expr)
        elif isinstance(node, (If, While, DoWhile, Switch)):
            out.append(node.cond)
        elif isinstance(node, For):
            for clause in for_clauses(node):
                if clause is not None and isinstance(clause, Expr):
                    out.append(clause)
        elif isinstance(node, Return) and node.value is not None:
            out.append(node.value)
        elif isinstance(node, Declaration):
            for entry in node.entries:
                if entry.init is not None:
                    out.append(entry.init)
    return out


def check_evaluation_order(
    facts: TUFacts, index: NodeIndex, functions: list[FunctionFacts],
) -> list[Finding]:
    out: list[Finding] = []
    symbols = facts.table.symbols
    for fn in functions:
        escaped = partial(_is_escaped, fn=fn, symbols=symbols)
        for full in _full_expressions(index.subtree(fn.fn.body)):
            conflicts: list = []
            _accesses(full, escaped, conflicts)
            seen: set[tuple] = set()
            for level, node, message in conflicts:
                key = (level, message)
                if key in seen:
                    continue
                seen.add(key)
                out.append(Finding(
                    "R13.2", full.span,
                    Certainty.DEFINITE if level == "definite" else Certainty.CAUTION,
                    message,
                    behavior_class=BehaviorClass.UNSPECIFIED,
                    evidence=(Evidence(node.span, "within one full expression"),),
                ))
    return out


# ---- R8.13: pointer to const where possible ---------------------------------------


def check_const_pointer(
    facts: TUFacts, index: NodeIndex, functions: list[FunctionFacts],
) -> list[Finding]:
    out: list[Finding] = []
    parents = index.parents
    for decl in facts.tu.decls:
        if not isinstance(decl, FunctionDef):
            continue
        body = index.subtree(decl.body)
        candidates = _const_candidates(decl, body)
        if not candidates:
            continue
        ret_t = decl.symbol.type.ret if decl.symbol is not None else None
        verdicts = {sym.uid: "const-ok" for sym in candidates}
        by_uid = {sym.uid: sym for sym in candidates}
        for node in body:
            if not isinstance(node, Identifier) or not isinstance(node.symbol, Symbol):
                continue
            uid = node.symbol.uid
            if uid not in verdicts or verdicts[uid] != "const-ok":
                continue
            verdicts[uid] = _classify_use(node, parents, ret_t)
        for uid, verdict in verdicts.items():
            if verdict == "const-ok":
                sym = by_uid[uid]
                out.append(Finding(
                    "R8.13", sym.def_span, Certainty.DEFINITE,
                    f"'{sym.name}' is never used to modify its pointee and could "
                    f"point to a const-qualified type",
                    evidence=(Evidence(sym.def_span, "no write through this pointer"),),
                ))
    return out


def _const_candidates(fn: FunctionDef, body: list[Node]) -> list[Symbol]:
    syms: list[Symbol] = []
    for p in fn.params:
        if p.symbol is not None:
            syms.append(p.symbol)
    for node in body:
        if isinstance(node, Declaration):
            for entry in node.entries:
                if entry.symbol is not None:
                    syms.append(entry.symbol)
    return [
        s for s in syms
        if s.type.kind is TK.POINTER
        and s.type.pointee is not None
        and s.type.pointee.kind is not TK.FUNCTION
        and "const" not in s.type.pointee.quals
    ]


def _classify_use(node: Expr, parents: dict[int, Node], fn_ret: TypeDesc | None) -> str:
    """'const-ok', 'writes', or 'havoc' for one use of a candidate pointer."""
    parent = parents.get(id(node))
    child: Expr = node
    while isinstance(parent, Cast):
        target_t = parent.ctype
        if target_t is None or target_t.kind is not TK.POINTER:
            return "havoc"  # cast away from pointer land
        if target_t.pointee is not None and "const" in target_t.pointee.quals:
            return "const-ok"
        child = parent
        parent = parents.get(id(parent))
    if parent is None:
        return "const-ok"
    if (
        isinstance(parent, Deref)
        or (isinstance(parent, Index) and parent.base is child)
        or (isinstance(parent, Member) and parent.arrow and parent.base is child)
    ):
        return _classify_access(parent, parents)
    if isinstance(parent, AddrOf):
        return "havoc"
    if isinstance(parent, Call):
        if child in parent.args:
            position = parent.args.index(child)
            callee_t = parent.callee.ctype
            ft = callee_t.pointee if callee_t is not None and callee_t.kind is TK.POINTER else callee_t
            if ft is None or ft.kind is not TK.FUNCTION or ft.params is None:
                return "havoc"
            if position >= len(ft.params):
                return "havoc"  # variadic tail
            pt = ft.params[position]
            if pt.kind is TK.POINTER and pt.pointee is not None and "const" in pt.pointee.quals:
                return "const-ok"
            if pt.kind is TK.POINTER:
                return "writes"
            return "havoc"
        return "const-ok"  # callee position
    if isinstance(parent, Assign):
        if parent.target is child:
            return "const-ok"  # reassigning the pointer itself
        return _sink_verdict(parent.target.ctype)
    if isinstance(parent, Declaration):
        # `child` is a direct child of the declaration, so it lies within
        # an initializer only if it is that initializer.
        for entry in parent.entries:
            if entry.init is child:
                sink = entry.symbol.type if entry.symbol is not None else None
                return _sink_verdict(sink)
        return "const-ok"  # array-size or enum position: value-only use
    if isinstance(parent, Return):
        return _sink_verdict(fn_ret)
    if isinstance(parent, (CompoundAssign, IncDec)):
        return "const-ok"  # pointer arithmetic on the pointer itself
    if isinstance(parent, InitList):
        return "havoc"  # stored into an aggregate; tracking stops
    if isinstance(parent, (Binary, Unary, Member, Index, Comma, Conditional,
                           ExprStmt, Sizeof)):
        return "const-ok"
    return "havoc"


def _classify_access(access: Expr, parents: dict[int, Node]) -> str:
    """Classify a `*p` / `p[i]` / `p->m` lvalue built on the candidate."""
    while True:
        grand = parents.get(id(access))
        if isinstance(grand, Member) and not grand.arrow and grand.base is access:
            access = grand
            continue
        if isinstance(grand, Index) and grand.base is access:
            access = grand
            continue
        break
    if isinstance(grand, Assign) and grand.target is access:
        return "writes"
    if isinstance(grand, CompoundAssign) and grand.target is access:
        return "writes"
    if isinstance(grand, IncDec) and grand.operand is access:
        return "writes"
    if isinstance(grand, AddrOf):
        return "havoc"  # a fresh pointer into the pointee escapes
    return "const-ok"


def _sink_verdict(sink: TypeDesc | None) -> str:
    if sink is None:
        return "havoc"
    if sink.kind is TK.POINTER:
        if sink.pointee is not None and "const" in sink.pointee.quals:
            return "const-ok"
        return "writes"
    return "havoc"


# ---- R14.1 / R14.2: loop counter discipline -----------------------------------------


def _clause_writes(expr: Expr | None) -> set[Symbol]:
    if expr is None:
        return set()
    return {
        ev.sym for ev in walk_effects(expr)
        if ev.kind == "write" and ev.sym is not None
    }


def _clause_reads(expr: Expr | None) -> set[Symbol]:
    if expr is None:
        return set()
    return {
        ev.sym for ev in walk_effects(expr)
        if ev.kind == "read" and ev.sym is not None
    }


def _loop_counter(node: For) -> Symbol | None:
    """The single variable written by the step and read by the condition."""
    candidates = _clause_writes(node.step) & _clause_reads(node.cond)
    if len(candidates) == 1:
        return candidates.pop()
    return None


def check_float_loop_counter(
    facts: TUFacts, index: NodeIndex, functions: list[FunctionFacts],
) -> list[Finding]:
    out: list[Finding] = []
    for node in index.of(For):
        counter = _loop_counter(node)
        if counter is None and isinstance(node.init, Declaration):
            # `for (float f = 0; ...)` declares the counter in the init.
            declared = {e.symbol for e in node.init.entries if e.symbol is not None}
            stepped = _clause_writes(node.step)
            overlap = declared & stepped
            counter = overlap.pop() if len(overlap) == 1 else None
        if counter is None:
            continue
        if counter.type.kind in (TK.FLOAT, TK.DOUBLE):
            out.append(Finding(
                "R14.1", node.span, Certainty.DEFINITE,
                f"loop counter '{counter.name}' has floating type",
                evidence=(Evidence(counter.def_span,
                                   f"'{counter.name}' is declared with type {counter.type!r}"),),
            ))
    return out


def check_for_loop_shape(
    facts: TUFacts, index: NodeIndex, functions: list[FunctionFacts],
) -> list[Finding]:
    out: list[Finding] = []
    for node in index.of(For):
        problem = _for_shape_problem(node)
        if problem is not None:
            out.append(Finding(
                "R14.2", node.span, Certainty.DEFINITE,
                f"for loop is not in the restricted form: {problem}",
                evidence=(Evidence(node.span, "init, condition, and step must "
                                              "manage exactly one loop counter"),),
            ))
    return out


def _for_shape_problem(node: For) -> str | None:
    init, cond, step = for_clauses(node)
    if init is None or cond is None or step is None:
        return "every clause (init, condition, step) must be present"
    if isinstance(init, Comma):
        return "the init clause initializes more than one object"
    if isinstance(init, Declaration):
        if len(init.entries) != 1 or init.entries[0].init is None:
            return "the init clause must initialize exactly the loop counter"
        init_targets = {init.entries[0].symbol}
    else:
        init_writes = _clause_writes(init)
        if len(init_writes) != 1:
            return "the init clause must assign exactly the loop counter"
        init_targets = init_writes
    step_writes = _clause_writes(step)
    if len(step_writes) != 1:
        return "the step clause must modify exactly one variable"
    counter = next(iter(step_writes))
    if init_targets != {counter}:
        return "init and step clauses do not agree on one loop counter"
    if counter not in _clause_reads(cond):
        return "the condition does not test the loop counter"
    body_writes = _clause_writes_body(node)
    if counter in body_writes:
        return f"the loop body modifies the counter '{counter.name}'"
    return None


def _clause_writes_body(node: For) -> set[Symbol]:
    written: set[Symbol] = set()
    for stmt in walk(node.body):
        if isinstance(stmt, Expr):
            continue
        for child in children(stmt):
            if isinstance(child, Expr):
                for ev in walk_effects(child):
                    if ev.kind in ("write", "addrof") and ev.sym is not None:
                        written.add(ev.sym)
    return written
