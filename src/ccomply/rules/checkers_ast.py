"""Syntax-driven checkers: R11.4, R13.1, R13.5, R13.2, R8.13, R14.1, R14.2."""
from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

from ccomply.flow.effects import (
    BEFORE_CALL, IN_TURN, SELF, SEQUENCED, SIDE_BY_SIDE, STORE, TOP, Event, Frame, designate,
    meet, sym_of, walk_effects,
)
from ccomply.parsing.astnodes import (
    KIND_ADDR, KIND_CALL, KIND_MULTICALL, KIND_STORE, KIND_VOLATILE, AddrOf,
    Assign, Binary, Call, Cast, Comma, CompoundAssign, Conditional,
    Declaration, Deref, DoWhile, Expr, ExprStmt, For, FunctionDef, Identifier,
    If, IncDec, Index, InitList, Member, Node, NodeIndex, Return, Switch,
    While, children, for_clauses, operands,
)
from ccomply.rules.context import FunctionFacts, TUFacts
from ccomply.rules.findings import BehaviorClass, Certainty, Evidence, Finding
from ccomply.sema.symbols import Symbol
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

    for decl in index.decls:
        ret_t = None
        if isinstance(decl, FunctionDef) and decl.symbol is not None:
            ret_t = decl.symbol.type.ret
        for node in index.subtree(decl):
            cls = type(node)
            if cls is Cast:
                site(node.ctype, node.operand, node, "cast")
            elif cls is Assign:
                site(node.target.ctype, node.value, node, "assignment")
            elif cls is Call:
                callee_t = node.callee.ctype
                ft = callee_t.pointee if callee_t is not None and callee_t.kind is TK.POINTER else callee_t
                if ft is not None and ft.kind is TK.FUNCTION and ft.params is not None:
                    for param_t, arg in zip(ft.params, node.args):
                        site(param_t, arg, arg, "argument passing")
            elif cls is Return and node.value is not None and ret_t is not None:
                site(ret_t, node.value, node, "return")
            elif cls is Declaration:
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
# The `Expr.kinds` bits of the nodes that yield those events.
_SIDE_EFFECT_KINDS = KIND_STORE | KIND_CALL | KIND_VOLATILE


def _has_side_effect(e: Expr) -> bool:
    """Does evaluating `e` store, call, or access a volatile object?

    A subtree whose `kinds` shows no store, call or volatile operand has
    none, and its events are not walked; otherwise `walk_effects` decides,
    so nothing under `sizeof` counts. Every call counts as a persistent
    side effect, a call to a body-less `extern` function included: only a
    summary of a callee's body could show that it has none (ROADMAP item 3).
    """
    if not e.kinds & _SIDE_EFFECT_KINDS:
        return False
    return any(ev.kind in _SIDE_EFFECTS for ev in walk_effects(e))


def check_initializer_side_effects(
    facts: TUFacts, index: NodeIndex, functions: list[FunctionFacts],
) -> list[Finding]:
    """R13.1: an initializer contains no persistent side effect.

    MISRA C:2012 words the rule for initializer lists; this checker also
    flags scalar initializers (`int x = i++;`), a deliberate superset.
    """
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
    # `of(Binary)` holds only `&&` and `||`; C99 6.5.3.4p2: the operand of
    # sizeof is never evaluated.
    for node in index.of(Binary):
        if node not in index.unevaluated:
            if _has_side_effect(node.right):
                out.append(Finding(
                    "R13.5", node.right.span, Certainty.DEFINITE,
                    f"right-hand operand of {node.op} contains a persistent side effect",
                    evidence=(Evidence(node.right.span,
                                       "this operand is conditionally evaluated"),),
                ))
    return out


# ---- R13.2: no reliance on unspecified evaluation order --------------------------

# Says whether the variable a key names may be reached through a pointer.
_Escaped = Callable[[tuple], bool]
_ADJACENT_VOLATILE_READS = "two volatile reads between adjacent sequence points"


class _Touch(NamedTuple):
    """What one event reads or modifies, as R13.2 weighs it. `key` is
    ("var", uid) for a named object, ("deref", uid or None) for what a
    pointer or an array element reaches, and None for a call, which writes
    what it may, or for a volatile member of a named object."""

    write: bool
    key: tuple | None
    name: str
    volatile: bool

    @property
    def deref(self) -> bool:
        return self.key is not None and self.key[0] == "deref"


def _touches(events: list[Event]) -> list[tuple[Event, _Touch]]:
    """Each event R13.2 weighs, with what it touches.

    A `volatile` event marks the next event volatile if that event is on
    the same node, and is the read of a volatile member of a named object
    if not. A store into an array element touches the element, not the
    array its `write` event names; `&` touches nothing.
    """
    out = []
    for i, ev in enumerate(events):
        kind, sym, prev = ev.kind, ev.sym, events[i - 1] if i else None
        volatile = prev is not None and prev.kind == "volatile" and prev.node is ev.node
        if kind == "volatile":
            if i + 1 == len(events) or events[i + 1].node is not ev.node:
                out.append((ev, _Touch(False, None, "", True)))
            continue
        if kind == "call":
            touch = _Touch(True, None, "<call>", False)
        elif kind == "deref_read" or kind == "deref_store":
            pointer = sym_of(ev.pointer)
            touch = _Touch(kind == "deref_store", ("deref", pointer and pointer.uid), "", volatile)
        elif kind == "elem_read" or kind == "write" and designate(
                ev.node.operand if type(ev.node) is IncDec else ev.node.target)[3]:
            touch = _Touch(kind == "write", ("deref", sym and sym.uid), "", volatile)
        elif (kind == "read" or kind == "write") and sym is not None:
            touch = _Touch(kind == "write", ("var", sym.uid), sym.name, volatile)
        else:
            continue
        out.append((ev, touch))
    return out


def _conflicts(full: Expr, escaped: _Escaped) -> list[tuple[str, Frame, str]]:
    """The R13.2 conflicts of one full expression: (level, frame, message).

    Every pair of events `effects.meet` calls unsequenced or
    indeterminately sequenced is weighed (`_check_pair`) at the frame
    where they meet. Where this departs from that relation, the line that
    does so says "Departure". Besides, a volatile read that the address of
    a volatile read depends on, with no `&&`, `||`, `?:`, `,` or call
    between them, is a second volatile read between the same sequence
    points.
    """
    touched = _touches(walk_effects(full))
    conflicts: list[tuple[str, Frame, str]] = []
    for j, (b, tb) in enumerate(touched):
        for a, ta in touched[:j]:
            if not (ta.write or tb.write or (ta.volatile and tb.volatile)):
                continue  # two reads conflict only when both are volatile
            frame, slot_a, slot_b, path, relation = meet(a, b)
            if slot_b != SELF or slot_a == SELF:
                if relation != SEQUENCED:
                    _check_pair(ta, tb, frame, escaped, conflicts)
            elif frame.order == STORE:  # `b` is a store, `a` in its operands
                # Departure: the store of `++` and `--` is weighed against
                # nothing in its operand (`a[i++]++` gives nothing).
                if type(frame.node) is IncDec:
                    continue
                # Departure: the store of `=` and `op=` is weighed against
                # every write in its operands, sequenced or not (`x = f(x++)`
                # conflicts), and a store through a pointer or into an
                # element against such reads with another key (`*p = *q + 1`).
                if ta.write or (tb.deref and ta.deref and ta.key != tb.key):
                    _check_pair(tb, ta, frame, escaped, conflicts)
            elif (frame.order == SIDE_BY_SIDE and slot_a > 0 and ta.volatile and tb.volatile
                  and not (ta.write or tb.write or path & (IN_TURN | BEFORE_CALL))):
                # `b` reads an lvalue whose address `a` is read for.
                conflicts.append(("definite", frame, _ADJACENT_VOLATILE_READS))
    # Departure: R13.2 reports the first conflict of each level and message
    # in the post-order of their frames, and drops the others.
    if len(conflicts) > 1:
        done = {}  # id of a frame -> the index of its last event
        for idx, (ev, _) in enumerate(touched):
            f = ev.frame
            while f is not TOP:
                done[id(f)] = idx
                f = f.parent
        conflicts.sort(key=lambda c: (done[id(c[1])], -c[1].depth))
    return conflicts


def _is_escaped(key: tuple, fn: FunctionFacts, symbols: list[Symbol]) -> bool:
    """May the variable `key` names be reached through a pointer in `fn`?

    Only a local's own function can take its address, so only `fn`'s
    address-taken set is read, and only for a local.
    """
    if key[0] != "var":
        return True
    uid = key[1]
    return not symbols[uid].is_local_object or uid in fn.addr_taken


def _check_pair(a: _Touch, b: _Touch, frame: Frame, escaped: _Escaped,
                conflicts: list) -> None:
    """Record the conflict, if any, between two touches R13.2 weighs at `frame`.

    MISRA C:2012 Rule 13.2 allows at most one volatile read and at most one
    volatile modification between sequence points: two of either kind
    conflict whatever objects they reach. Otherwise a conflict needs a
    modification.
    """
    if a.volatile and b.volatile and a.write is b.write:
        conflicts.append((
            "definite", frame,
            "two unsequenced volatile modifications" if a.write
            else "two unsequenced volatile reads",
        ))
        return
    if not (a.write or b.write):
        return
    if a.key is None or b.key is None:
        # Departure: a call conflicts only with another call.
        if a.key is None and b.key is None and a.write and b.write:
            conflicts.append(("definite", frame, "two unsequenced calls both carry side effects"))
        return
    if not a.deref and not b.deref:
        if a.key == b.key:
            conflicts.append((
                "definite", frame,
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
        "caution", frame,
        "unsequenced accesses through possibly aliasing lvalues",
    ))


def _full_expressions(body: list[Node]) -> list[Expr]:
    out: list[Expr] = []
    for node in body:
        cls = type(node)
        if cls is ExprStmt:
            if node.expr is not None:
                out.append(node.expr)
        elif cls is If or cls is While or cls is DoWhile or cls is Switch:
            out.append(node.cond)
        elif cls is For:
            for clause in for_clauses(node):
                if clause is not None and isinstance(clause, Expr):
                    out.append(clause)
        elif cls is Return:
            if node.value is not None:
                out.append(node.value)
        elif cls is Declaration:
            for entry in node.entries:
                if entry.init is not None:
                    out.append(entry.init)
    return out


def _cannot_conflict(e: Expr) -> bool:
    """Does `e`'s `kinds` show that `_conflicts` finds none in it?

    A conflict needs two volatile accesses or a write (`_check_pair`): a
    store, or a call, which conflicts only with another call. So with no
    volatile operand and fewer than two calls there is none when `e` has
    no store, or when its one store is `e` itself into a plain identifier:
    that store is weighed only against writes in its own operands, and
    they hold none.
    """
    kinds = e.kinds
    if kinds & (KIND_VOLATILE | KIND_MULTICALL):
        return False
    if not kinds & KIND_STORE:
        return True
    cls = type(e)
    if cls is IncDec:
        return type(e.operand) is Identifier
    return ((cls is Assign or cls is CompoundAssign) and type(e.target) is Identifier
            and not e.value.kinds & KIND_STORE)


def check_evaluation_order(
    facts: TUFacts, index: NodeIndex, functions: list[FunctionFacts],
) -> list[Finding]:
    out: list[Finding] = []
    symbols = facts.table.symbols
    for fn in functions:
        escaped = partial(_is_escaped, fn=fn, symbols=symbols)
        for full in _full_expressions(index.subtree(fn.fn.body)):
            if _cannot_conflict(full):
                continue
            seen: set[tuple] = set()
            for level, frame, message in _conflicts(full, escaped):
                key = (level, message)
                if key in seen:
                    continue
                seen.add(key)
                out.append(Finding(
                    "R13.2", full.span,
                    Certainty.DEFINITE if level == "definite" else Certainty.CAUTION,
                    message,
                    behavior_class=BehaviorClass.UNSPECIFIED,
                    evidence=(Evidence(frame.node.span, "within one full expression"),),
                ))
    return out


# ---- R8.13: pointer to const where possible ---------------------------------------


def check_const_pointer(
    facts: TUFacts, index: NodeIndex, functions: list[FunctionFacts],
) -> list[Finding]:
    """R8.13: a pointer parameter or local whose pointee is never modified
    through it could point to a const-qualified type.

    One top-down pass over each body spoils a candidate (it is written
    through, or escapes) when
    - a store, `++`/`--`, compound assignment or `&` goes through the
      pointer `designate` finds for its lvalue, and that pointer's value
      comes from the candidate (see `_roots`);
    - its value flows into a sink whose type is not a pointer to const:
      an assignment to another object, an initializer, an argument, a
      return value, or the element or member an initializer-list value
      initializes (every value of a list with elided braces is spoiled, as
      which element it meets is not tracked);
    - its value is cast to a non-pointer type; or
    - its own address is taken (`&p`).
    Uses as conditions, in comparisons, under `*` for a read, or stores
    into the pointer itself spoil nothing.
    """
    out: list[Finding] = []
    for decl in index.decls:
        if not isinstance(decl, FunctionDef):
            continue
        body = index.subtree(decl.body)
        candidates = _const_candidates(decl, body)
        if not candidates:
            continue
        ret_t = decl.symbol.type.ret if decl.symbol is not None else None
        spoiled: set[Symbol] = set()
        for node in body:
            if type(node) in _SPOILERS:
                _spoil(node, ret_t, spoiled)
        for sym in candidates:
            if sym not in spoiled:
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


_SPOILERS = frozenset({Assign, CompoundAssign, IncDec, AddrOf, Declaration, Call, Return, Cast})


def _spoil(node: Node, ret_t: TypeDesc | None, spoiled: set[Symbol]) -> None:
    """Add to `spoiled` the variables whose pointee `node` may modify or let escape."""
    cls = type(node)
    if cls is Assign or cls is CompoundAssign or cls is IncDec or cls is AddrOf:
        lvalue = node.operand if cls is IncDec or cls is AddrOf else node.target
        obj, pointer, _, _ = designate(lvalue)
        if pointer is not None:
            spoiled.update(_roots(pointer))
        elif cls is AddrOf:
            spoiled.add(sym_of(obj))  # `&p`: the pointer itself escapes
        if cls is Assign:
            target = sym_of(node.target)
            _sink(node.value, node.target.ctype, spoiled, keep=target)
    elif cls is Declaration:
        for entry in node.entries:
            if entry.init is not None:
                _sink_init(entry.init, entry.symbol.type if entry.symbol else None, spoiled)
    elif cls is Call:
        callee_t = node.callee.ctype
        ft = callee_t.pointee if callee_t is not None and callee_t.kind is TK.POINTER else callee_t
        params = ft.params if ft is not None and ft.kind is TK.FUNCTION else None
        for i, arg in enumerate(node.args):
            # No prototype or the variadic tail: the callee is unknown.
            _sink(arg, params[i] if params is not None and i < len(params) else None, spoiled)
    elif cls is Return and node.value is not None:
        _sink(node.value, ret_t, spoiled)
    elif cls is Cast and (node.ctype is None or node.ctype.kind is not TK.POINTER):
        _sink(node.operand, None, spoiled)


def _sink(value: Expr, sink: TypeDesc | None, spoiled: set[Symbol],
          keep: Symbol | None = None) -> None:
    """`value` flows into an object of type `sink`: unless that is a pointer
    to const, the variables it may come from, other than `keep`, are spoiled."""
    if not _points_to_const(sink):
        spoiled.update(sym for sym in _roots(value) if sym is not keep)


def _sink_init(init: Expr, t: TypeDesc | None, spoiled: set[Symbol]) -> None:
    """`init` initializes an object of type `t`: each value of a braced list
    flows into the element or member it initializes (C99 6.7.8p17), the i-th
    element of an array or the i-th member of a struct, the first of a
    union. A list whose braces are elided somewhere, or that initializes
    another type, sinks every value into an unknown type."""
    if type(init) is not InitList:
        _sink(init, t, spoiled)
        return
    targets: list[TypeDesc | None] = []
    if t is not None and t.kind is TK.ARRAY:
        targets = [t.elem] * len(init.elements)
    elif t is not None and t.kind is TK.RECORD:
        targets = [mt for _, mt, _ in t.record.members]
        if t.record.kind == "union":
            targets = targets[:1]
    targets += [None] * (len(init.elements) - len(targets))
    if any(type(element) is not InitList and target is not None
           and target.kind in (TK.ARRAY, TK.RECORD)
           for element, target in zip(init.elements, targets)):
        targets = [None] * len(init.elements)  # elided braces
    for element, target in zip(init.elements, targets):
        _sink_init(element, target, spoiled)


def _points_to_const(t: TypeDesc | None) -> bool:
    return t is not None and t.kind is TK.POINTER and t.pointee is not None \
        and "const" in t.pointee.quals


def _roots(e: Expr) -> list[Symbol]:
    """The variables whose pointer value `e` may be, pointee still writable.

    Looks through pointer `+`/`-`, `++`/`--`, `+=`/`-=`, casts to a pointer
    to non-const, both arms of `?:`, the right operand of `,`, and an array
    that decays to a pointer into what another pointer points at.
    """
    out: list[Symbol] = []
    stack = [e]
    while stack:
        e = stack.pop()
        cls = type(e)
        if cls is Identifier:
            if isinstance(e.symbol, Symbol):
                out.append(e.symbol)
        elif cls is Cast:
            if e.ctype is not None and e.ctype.kind is TK.POINTER and not _points_to_const(e.ctype):
                stack.append(e.operand)
        elif cls is Binary:
            if e.op in ("+", "-") and e.ctype is not None and e.ctype.kind is TK.POINTER:
                stack += (e.left, e.right)
        elif cls is IncDec:
            stack.append(e.operand)
        elif cls is CompoundAssign:
            stack.append(e.target)
        elif cls is Conditional:
            stack += (e.then, e.other)
        elif cls is Comma:
            stack.append(e.right)
        elif (cls is Deref or cls is Index or cls is Member) and e.ctype is not None \
                and e.ctype.kind is TK.ARRAY:
            # An array decays to a pointer into what it designates (C99 6.3.2.1p3).
            pointer = designate(e)[1]
            if pointer is not None:
                stack.append(pointer)
    return out


# ---- R14.1 / R14.2: loop counter discipline -----------------------------------------


def _clause_writes(expr: Expr | None) -> set[Symbol]:
    if expr is None or not expr.kinds & KIND_STORE:
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
    """The variables the loop body stores into or takes the address of.

    Only statements are walked; the effects of a statement's expression are
    walked only when its `kinds` shows a store or an `&`.
    """
    written: set[Symbol] = set()
    stack: list[Node] = [node.body]
    while stack:
        for child in children(stack.pop()):
            if not isinstance(child, Expr):
                stack.append(child)
            elif child.kinds & (KIND_STORE | KIND_ADDR):
                for ev in walk_effects(child):
                    if ev.kind in ("write", "addrof") and ev.sym is not None:
                        written.add(ev.sym)
    return written
