"""Evaluation-order read/write event streams over lowered expressions.

CFG lowering guarantees item expressions are branch-free, so every
event in the stream happens exactly once when the item executes. The
canonical order is left-to-right, value before store.
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


def _sym_of(e: Expr) -> Symbol | None:
    if isinstance(e, Identifier) and isinstance(e.symbol, Symbol):
        return e.symbol
    return None


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
    if isinstance(e, Identifier):
        sym = _sym_of(e)
        if sym is not None and sym.kind in (SymKind.OBJECT,):
            if "volatile" in sym.quals:
                yield Event("volatile", sym=sym, node=e)
            yield Event("read", sym=sym, node=e)
        return
    if isinstance(e, Assign):
        yield from walk_effects(e.value)
        yield from _store_events(e.target, e.value, e)
        return
    if isinstance(e, CompoundAssign):
        yield from walk_effects(e.value)
        yield from walk_effects(e.target)  # read-modify-write reads the target
        yield from _store_events(e.target, None, e)
        return
    if isinstance(e, IncDec):
        yield from walk_effects(e.operand)
        yield from _store_events(e.operand, None, e)
        return
    if isinstance(e, AddrOf):
        yield from _address_events(e.operand)
        return
    if isinstance(e, Deref):
        yield from walk_effects(e.operand)
        if is_volatile_access(e):
            yield Event("volatile", node=e)
        yield Event("deref_read", pointer=e.operand, node=e)
        return
    if isinstance(e, Index):
        yield from walk_effects(e.base)
        yield from walk_effects(e.index)
        base_t = e.base.ctype
        if base_t is not None and base_t.kind in (TK.POINTER, TK.ARRAY):
            if is_volatile_access(e):
                yield Event("volatile", node=e)
            if base_t.kind is TK.POINTER:
                yield Event("deref_read", pointer=e.base, node=e)
        return
    if isinstance(e, Member):
        yield from walk_effects(e.base)
        if is_volatile_access(e):
            yield Event("volatile", node=e)
        if e.arrow:
            yield Event("deref_read", pointer=e.base, node=e)
        return
    # Every other class only evaluates its operands, in order; a call then
    # happens. Lowered items hold no comma or conditional, but AST-level
    # callers pass them.
    for x in operands(e):
        yield from walk_effects(x)
    if type(e) is Call:
        yield Event("call", node=e)


def _store_events(target: Expr, value: Expr | None, node: Expr) -> Iterator[Event]:
    if isinstance(target, Identifier):
        sym = _sym_of(target)
        if sym is not None:
            if "volatile" in sym.quals:
                yield Event("volatile", sym=sym, node=node)
            yield Event("write", sym=sym, value=value, node=node)
        return
    if isinstance(target, Deref):
        yield from walk_effects(target.operand)
        if is_volatile_access(target):
            yield Event("volatile", node=node)
        yield Event("deref_store", pointer=target.operand, value=value, node=node)
        return
    if isinstance(target, Index):
        yield from walk_effects(target.base)
        yield from walk_effects(target.index)
        base_t = target.base.ctype
        if is_volatile_access(target):
            yield Event("volatile", node=node)
        if base_t is not None and base_t.kind is TK.POINTER:
            yield Event("deref_store", pointer=target.base, value=value, node=node)
        elif isinstance(target.base, Identifier):
            sym = _sym_of(target.base)
            if sym is not None:
                # Storing into an element keeps the array partially assigned;
                # model as a write for definite assignment of arrays.
                yield Event("write", sym=sym, value=None, node=node)
        return
    if isinstance(target, Member):
        if target.arrow:
            yield from walk_effects(target.base)
            if is_volatile_access(target):
                yield Event("volatile", node=node)
            yield Event("deref_store", pointer=target.base, value=value, node=node)
        else:
            if is_volatile_access(target):
                yield Event("volatile", node=node)
            root = _member_root(target)
            if root is not None:
                yield Event("write", sym=root, value=None, node=node)
        return
    if isinstance(target, Cast):
        yield from _store_events(target.operand, value, node)
        return
    yield from walk_effects(target)


def _member_root(e: Expr) -> Symbol | None:
    while isinstance(e, Member) and not e.arrow:
        e = e.base
    return _sym_of(e)


def _address_events(operand: Expr) -> Iterator[Event]:
    if isinstance(operand, Identifier):
        sym = _sym_of(operand)
        if sym is not None and sym.kind is SymKind.OBJECT:
            yield Event("addrof", sym=sym, node=operand)
        return
    if isinstance(operand, Index):
        yield from walk_effects(operand.index)
        base_t = operand.base.ctype
        if base_t is not None and base_t.kind is TK.ARRAY:
            yield from _address_events(operand.base)
        else:
            yield from walk_effects(operand.base)
        return
    if isinstance(operand, Member):
        if operand.arrow:
            yield from walk_effects(operand.base)
        else:
            yield from _address_events(operand.base)
        return
    if isinstance(operand, Deref):
        yield from walk_effects(operand.operand)
        return
    yield from walk_effects(operand)


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
