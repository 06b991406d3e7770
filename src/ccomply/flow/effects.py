"""Evaluation-order read/write event streams over lowered expressions.

CFG lowering guarantees item expressions are branch-free, so every
event in the stream happens exactly once when the item executes. The
canonical order is left-to-right, value before store. `op=`, `++` and
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

from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from ccomply.parsing.astnodes import (
    AddrOf, Assign, Call, Cast, CompoundAssign, Deref, Expr, Identifier,
    IncDec, Index, Member, operands,
)
from ccomply.sema.symbols import SymKind, Symbol
from ccomply.sema.typesys import TK


@dataclass(frozen=True, slots=True)
class Event:
    kind: str              # read | write | addrof | deref_read | deref_store | call | volatile
    sym: Symbol | None = None
    node: Expr | None = None
    value: Expr | None = None      # for write: RHS when it is a plain copy
    pointer: Expr | None = None    # for deref events: the pointer expression


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
            if index.ctype is not None and index.ctype.kind in (TK.POINTER, TK.ARRAY):
                base, index = index, base  # `i[p]` is `p[i]`
            if base.ctype is not None and base.ctype.kind is TK.ARRAY:
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
        return bool(t is not None and t.kind is TK.POINTER and t.pointee is not None
                    and "volatile" in t.pointee.quals) or (e.ctype is not None and "volatile" in e.ctype.quals)
    if isinstance(e, Index):
        return e.ctype is not None and "volatile" in e.ctype.quals
    if isinstance(e, Member):
        return (e.ctype is not None and "volatile" in e.ctype.quals) or is_volatile_access(e.base)
    return False


def walk_effects(e: Expr) -> Iterator[Event]:
    """Yield events for one branch-free expression tree, in order.

    Stores, `&`, `*`, `[]`, `.` and `->` have their own events. Every other
    class yields its operands' events in the order `astnodes.operands`
    gives, so nothing under `sizeof` or in a cast's type name counts.
    """
    cls = type(e)
    if cls is Identifier:
        sym = sym_of(e)
        if sym is not None and sym.kind is SymKind.OBJECT:
            if "volatile" in sym.quals:
                yield Event("volatile", sym=sym, node=e)
            yield Event("read", sym=sym, node=e)
        return
    if cls is Assign:
        yield from walk_effects(e.value)
        obj, _, ops, indexed = designate(e.target)
        yield from _address(obj, ops, obj is not None and (indexed or type(obj) is not Identifier))
        yield from _store(e.target, e.value, e)
        return
    if cls is CompoundAssign:
        yield from walk_effects(e.value)
        yield from walk_effects(e.target)  # read-modify-write reads the target
        yield from _store(e.target, None, e)
        return
    if cls is IncDec:
        yield from walk_effects(e.operand)
        yield from _store(e.operand, None, e)
        return
    if cls is AddrOf:
        # Forming an address reads the pointer and the indices it goes
        # through, but never the object it names (C99 6.5.3.2).
        obj, _, ops, _ = designate(e.operand)
        yield from _address(obj, ops, False)
        sym = sym_of(obj)
        if sym is not None:
            if sym.kind is SymKind.OBJECT:
                yield Event("addrof", sym=sym, node=obj)
        elif obj is not None:
            yield from walk_effects(obj)
        return
    if cls is Deref or cls is Index or cls is Member:
        obj, pointer, ops, _ = designate(e)
        yield from _address(obj, ops, obj is not None)
        if is_volatile_access(e):
            yield Event("volatile", node=e)
        if pointer is not None:
            yield Event("deref_read", pointer=pointer, node=e)
        return
    # Every other class only evaluates its operands, in order; a call then
    # happens. Lowered items hold no comma or conditional, but AST-level
    # callers pass them.
    for x in operands(e):
        yield from walk_effects(x)
    if cls is Call:
        yield Event("call", node=e)


def _address(obj: Expr | None, ops: list[Expr], read_root: bool) -> Iterator[Event]:
    """The events of computing a designated address.

    The root's when `read_root`, then the operands', in order.
    """
    if read_root:
        yield from walk_effects(obj)
    for x in ops:
        yield from walk_effects(x)


def _store(target: Expr, value: Expr | None, node: Expr) -> Iterator[Event]:
    """The events of storing into `target` once its address is computed.

    A store into an array element reads the array first (in the address of
    `=`, or in the read of `op=` and `++`) and then writes it as a whole, so
    the array stays assigned once any element is. A store into a member
    writes the whole object without reading it.
    """
    obj, pointer, _, _ = designate(target)
    if is_volatile_access(target):
        yield Event("volatile", node=node)
    if pointer is not None:
        yield Event("deref_store", pointer=pointer, value=value, node=node)
    else:
        yield Event("write", sym=sym_of(obj), value=value if obj is target else None, node=node)


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
