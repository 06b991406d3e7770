"""Evaluation-order read/write event streams over lowered expressions.

CFG lowering guarantees item expressions are branch-free, so every
event in the stream happens exactly once when the item executes. The
canonical order is left-to-right, value before store. An event is a
tuple record (`Event`), and `walk_effects` makes one recursive walk that
appends every event of an expression to one list. `op=`, `++` and
`--` compute their target's address once, in their read of the target
(C99 6.5.16.2p3, 6.5.2.4p2), so their store adds only its own event.

`designate` is the one answer to "which object does this lvalue name, and
through which pointer?". `.`, casts and subscripts of arrays part an
object: each names a piece of the object its operand names, so the walk
goes on down to that object. `*`, `->` and subscripts of pointers (`p[i]`
and `i[p]` alike) go through a pointer: the lvalue names whatever the
pointer expression points at, and the walk stops at that expression.
Reads, stores and `&` here, the points-to address of `&`, the
side-effect test of R13.1 and R13.5, the access keys of R13.2 and the
writes through a pointer that R8.13 looks for all read this one
decomposition.
"""
from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from ccomply.parsing.astnodes import (
    AddrOf, Assign, Call, Cast, CompoundAssign, Deref, Expr, Identifier,
    IncDec, Index, Member, operands,
)
from ccomply.sema.symbols import SymKind, Symbol
from ccomply.sema.typesys import TK


class Event(NamedTuple):
    """One effect of evaluating an expression: a tuple record, built in one
    step and never changed."""

    kind: str              # read | write | addrof | deref_read | deref_store | call | volatile
    sym: Symbol | None = None
    node: Expr | None = None
    value: Expr | None = None      # for write: RHS when it is a plain copy
    pointer: Expr | None = None    # for deref events: the pointer expression


# Kinds as module globals: reading them through their enum class is slow.
_OBJECT = SymKind.OBJECT
_POINTER, _ARRAY = TK.POINTER, TK.ARRAY


def sym_of(e: Expr | None) -> Symbol | None:
    """The symbol `e` names, if it is an identifier."""
    if isinstance(e, Identifier) and isinstance(e.symbol, Symbol):
        return e.symbol
    return None


def designate(e: Expr) -> tuple[Expr | None, Expr | None, list[Expr], bool]:
    """What the lvalue `e` names: `(object, pointer, operands, indexed)`.

    Exactly one of `object` and `pointer` is set. `object` is the
    expression that names the whole object `e` is part of: an identifier,
    or a call or literal. `pointer` is the pointer expression `e` goes
    through. `operands` are the expressions computing the address
    evaluates, in source order: the index of every array subscript and,
    through a pointer, the pointer expression and the other operand of
    its subscript. `indexed` says whether an array subscript was walked.
    """
    ops: list[Expr] = []  # gathered outside in
    indexed = False
    obj = pointer = None
    while pointer is None:
        cls = type(e)
        if cls is Cast:
            e = e.operand
        elif cls is Member:
            if e.arrow:
                pointer = e.base
                ops.append(pointer)
            else:
                e = e.base
        elif cls is Deref:
            pointer = e.operand
            ops.append(pointer)
        elif cls is Index:
            base, index = e.base, e.index
            if index.ctype is not None and index.ctype.kind in (_POINTER, _ARRAY):
                base, index = index, base  # `i[p]` is `p[i]`
            if base.ctype is not None and base.ctype.kind is _ARRAY:
                ops.append(index)
                indexed = True
                e = base
            else:
                pointer = base
                ops.append(e.index)
                ops.append(e.base)
        else:
            obj = e
            break
    ops.reverse()
    return obj, pointer, ops, indexed


def is_volatile_access(e: Expr) -> bool:
    """Does evaluating this lvalue touch a volatile object?"""
    if isinstance(e, Identifier):
        sym = e.symbol
        return sym is not None and "volatile" in getattr(sym, "quals", frozenset())
    if isinstance(e, Deref):
        t = e.operand.ctype
        return bool(t is not None and t.kind is _POINTER and t.pointee is not None
                    and "volatile" in t.pointee.quals) or (e.ctype is not None and "volatile" in e.ctype.quals)
    if isinstance(e, Index):
        return e.ctype is not None and "volatile" in e.ctype.quals
    if isinstance(e, Member):
        return (e.ctype is not None and "volatile" in e.ctype.quals) or is_volatile_access(e.base)
    return False


def walk_effects(e: Expr) -> list[Event]:
    """The events of one branch-free expression tree, in order.

    Stores, `&`, `*`, `[]`, `.` and `->` have their own events. Every other
    class gives its operands' events in the order `astnodes.operands`
    gives, so nothing under `sizeof` or in a cast's type name counts.
    """
    out: list[Event] = []
    _walk(e, out)
    return out


def _walk(e: Expr, out: list[Event]) -> None:
    """Append the events of `e` to `out`."""
    cls = type(e)
    if cls is Identifier:
        sym = e.symbol
        if isinstance(sym, Symbol) and sym.kind is _OBJECT:
            if "volatile" in sym.quals:
                out.append(Event("volatile", sym, e))
            out.append(Event("read", sym, e))
        return
    if cls is Assign:
        _walk(e.value, out)
        obj, _, ops, indexed = designate(e.target)
        _address(obj, ops, obj is not None and (indexed or type(obj) is not Identifier), out)
        _store(e.target, e.value, e, out)
        return
    if cls is CompoundAssign:
        _walk(e.value, out)
        _walk(e.target, out)  # read-modify-write reads the target
        _store(e.target, None, e, out)
        return
    if cls is IncDec:
        _walk(e.operand, out)
        _store(e.operand, None, e, out)
        return
    if cls is AddrOf:
        # Forming an address reads the pointer and the indices it goes
        # through, but never the object it names (C99 6.5.3.2).
        obj, _, ops, _ = designate(e.operand)
        _address(obj, ops, False, out)
        sym = sym_of(obj)
        if sym is not None:
            if sym.kind is _OBJECT:
                out.append(Event("addrof", sym, obj))
        elif obj is not None:
            _walk(obj, out)
        return
    if cls is Deref or cls is Index or cls is Member:
        obj, pointer, ops, _ = designate(e)
        _address(obj, ops, obj is not None, out)
        if is_volatile_access(e):
            out.append(Event("volatile", None, e))
        if pointer is not None:
            out.append(Event("deref_read", None, e, None, pointer))
        return
    # Every other class only evaluates its operands, in order; a call then
    # happens. Lowered items hold no comma or conditional, but AST-level
    # callers pass them.
    for x in operands(e):
        _walk(x, out)
    if cls is Call:
        out.append(Event("call", None, e))


def _address(obj: Expr | None, ops: list[Expr], read_root: bool, out: list[Event]) -> None:
    """Append the events of computing a designated address.

    The root's when `read_root`, then the operands', in order.
    """
    if read_root:
        _walk(obj, out)
    for x in ops:
        _walk(x, out)


def _store(target: Expr, value: Expr | None, node: Expr, out: list[Event]) -> None:
    """Append the events of storing into `target` once its address is computed.

    A store into an array element reads the array first (in the address of
    `=`, or in the read of `op=` and `++`) and then writes it as a whole, so
    the array stays assigned once any element is. A store into a member
    writes the whole object without reading it.
    """
    obj, pointer, _, _ = designate(target)
    if is_volatile_access(target):
        out.append(Event("volatile", None, node))
    if pointer is not None:
        out.append(Event("deref_store", None, node, value, pointer))
    else:
        out.append(Event("write", sym_of(obj), node, value if obj is target else None))


def addr_taken_syms(cfg) -> frozenset[int]:
    """uids of automatic-storage variables whose address is ever taken.

    Walks the graph's cached events; `Cfg.addr_taken` keeps the result.
    """
    streams = chain((item.events for _, _, item in cfg.points()),
                    (b.term_events for b in cfg.blocks))
    return frozenset(
        ev.sym.uid for events in streams for ev in events
        if ev.kind == "addrof" and ev.sym is not None and ev.sym.is_local_object
    )
