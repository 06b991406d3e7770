"""The effects of evaluating an expression, and how C orders them.

`walk_effects` makes one recursive walk over an expression and gives its
events in one canonical order: left to right, value before store. An event
is a tuple record (`Event`). `op=`, `++` and `--` compute their target's
address once, in their read of the target (C99 6.5.16.2p3, 6.5.2.4p2), so
their store adds only its own event. CFG lowering guarantees item
expressions are branch-free, so every event of an item happens exactly
once when the item executes.

The same walk tags each event with where it happens: a `Frame` for each
operator whose operands C orders, linked to the operand of its parent it
lies in, and a slot of that frame (`SELF` for the operator's own store,
call or access). `sequencing` reads two events of one full expression and
answers as C11 6.5p1-3 words C99's rules: `SEQUENCED`, `UNSEQUENCED` or
`INDETERMINATE` (indeterminately sequenced). It climbs both events to their
lowest common frame, so it costs O(depth), and decides there:
- the operands of an arithmetic, comparison or bitwise operator, of an
  assignment and of an lvalue's address are unsequenced (6.5p2-3);
- the callee and arguments of a call are unsequenced, and all of them come
  before the call (6.5.2.2p10); a call against an operand it is unsequenced
  with is indeterminately sequenced, as two calls are;
- each operand of `&&`, `||`, `?:` and `,` comes before the next, with a
  sequence point after the first (6.5.13-6.5.17);
- the elements of an initializer list are indeterminately sequenced
  (6.7.8p23 leaves their order unspecified; C11 6.7.9p23 names it so);
- a store comes after the value computations of its operands (6.5.16p3,
  6.5.2.4p2) and is unsequenced with their side effects, unless a call or
  a sequence point puts the side effect first.
The walk order is consistent with the relation: an event sequenced before
another comes first in the stream. R13.2 and the interval analysis read
this relation and nothing else about evaluation order.

`designate` is the one answer to "which object does this lvalue name, and
through which pointer?". `.`, casts and subscripts of arrays part an
object: each names a piece of the object its operand names, so the walk
goes on down to that object. `*`, `->` and subscripts of pointers (`p[i]`
and `i[p]` alike) go through a pointer: the lvalue names whatever the
pointer expression points at, and the walk stops at that expression.
Reads, stores and `&` here, the points-to address of `&`, the
side-effect test of R13.1 and R13.5, the objects R13.2 weighs and the
writes through a pointer that R8.13 looks for all read this one
decomposition.
"""
from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from ccomply.parsing.astnodes import (
    AddrOf, Assign, Binary, Call, Cast, Comma, CompoundAssign, Conditional,
    Deref, Expr, Identifier, IncDec, Index, InitList, Member, operands,
)
from ccomply.sema.symbols import SymKind, Symbol
from ccomply.sema.typesys import TK

# How a frame's operator orders its operands, one bit each, so that `meet`
# can gather the orders an event climbs through in one mask.
SIDE_BY_SIDE = 1   # unsequenced: arithmetic, comparison, bitwise, an lvalue's address
IN_TURN = 2        # each before the next, a sequence point after the first: &&, ||, ?:, `,`
BEFORE_CALL = 4    # unsequenced, and all before the call
LIST = 8           # indeterminately sequenced: an initializer list
STORE = 16         # unsequenced, and their value computations before the store: =, op=, ++, --
PAST_POINT = 32    # in a `meet` path only: left the first operand of an IN_TURN frame

SELF = -1  # the slot of an operator's own event: its store, its call or its access

SEQUENCED = "sequenced"
UNSEQUENCED = "unsequenced"
INDETERMINATE = "indeterminately sequenced"


class Frame(NamedTuple):
    """One operator whose operands C orders, in one walked expression.

    `parent` is the frame it lies under and `slot` the operand of
    `parent.node` it is (for an lvalue: 0 is the named object, 1, 2, ...
    the address operands of `designate`). Unary operators and casts have
    no frame: their one operand is ordered as they are.
    """

    parent: Frame | None
    slot: int
    node: Expr | None
    order: int
    depth: int


TOP = Frame(None, 0, None, 0, 0)  # the full expression itself


class Event(NamedTuple):
    """One effect of evaluating an expression: a tuple record, built in one
    step and never changed."""

    # read | write | addrof | deref_read | elem_read | deref_store | call | volatile
    kind: str
    sym: Symbol | None = None
    node: Expr | None = None
    value: Expr | None = None      # for write: RHS when it is a plain copy
    pointer: Expr | None = None    # for deref events: the pointer expression
    frame: Frame = TOP             # where it happens: under this operator,
    slot: int = 0                  # in this operand of it (SELF: as its own event)


# Kinds as module globals: reading them through their enum class is slow.
_OBJECT = SymKind.OBJECT
_POINTER, _ARRAY = TK.POINTER, TK.ARRAY
# The order of each operator class with a frame, but `Binary`'s.
_ORDERS = {Call: BEFORE_CALL, Comma: IN_TURN, Conditional: IN_TURN, InitList: LIST}
_STORES = (Assign, CompoundAssign, IncDec)
# Builds an `Event` or a `Frame` from a tuple of all its fields, without the
# Python-level `__new__` a NamedTuple has: the walk makes one per event.
_new = tuple.__new__


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
    """The events of one expression tree, in order, each tagged with its frame.

    Stores, `&`, `*`, `[]`, `.` and `->` have their own events; reading an
    element of an array (`a[i]`, `s.v[i]`) is an `elem_read` of the array.
    Every other class gives its operands' events in the order
    `astnodes.operands` gives, so nothing under `sizeof` or in a cast's
    type name counts.
    """
    out: list[Event] = []
    _walk(e, out, TOP, 0)
    return out


def _walk(e: Expr, out: list[Event], frame: Frame, slot: int) -> None:
    """Append the events of `e`, which lies in operand `slot` of `frame`, to `out`."""
    cls = type(e)
    if cls is Identifier:
        sym = e.symbol
        if isinstance(sym, Symbol) and sym.kind is _OBJECT:
            if "volatile" in sym.quals:
                out.append(_new(Event, ("volatile", sym, e, None, None, frame, slot)))
            out.append(_new(Event, ("read", sym, e, None, None, frame, slot)))
        return
    if cls is Assign or cls is CompoundAssign or cls is IncDec:
        f = _new(Frame, (frame, slot, e, STORE, frame.depth + 1))
        if cls is IncDec:
            target = e.operand
        else:
            target = e.target
            _walk(e.value, out, f, 1)
        if cls is Assign:
            obj, _, ops, indexed = designate(target)
            read_root = obj is not None and (indexed or type(obj) is not Identifier)
            _address(target, obj if read_root else None, ops, out, f, 0)
        else:
            _walk(target, out, f, 0)  # read-modify-write reads the target
        _store(target, e.value if cls is Assign else None, e, out, f)
        return
    if cls is AddrOf:
        # Forming an address reads the pointer and the indices it goes
        # through, but never the object it names (C99 6.5.3.2).
        obj, _, ops, _ = designate(e.operand)
        at, pos = _address(e.operand, None, ops, out, frame, slot)
        sym = sym_of(obj)
        if sym is not None:
            if sym.kind is _OBJECT:
                out.append(_new(Event, ("addrof", sym, obj, None, None, at, pos)))
        elif obj is not None:
            _walk(obj, out, at, slot if at is frame else 0)
        return
    if cls is Deref or cls is Index or cls is Member:
        obj, pointer, ops, indexed = designate(e)
        at, pos = _address(e, obj, ops, out, frame, slot)
        if is_volatile_access(e):
            out.append(_new(Event, ("volatile", None, e, None, None, at, pos)))
        if pointer is not None:
            out.append(_new(Event, ("deref_read", None, e, None, pointer, at, pos)))
        elif indexed:
            out.append(_new(Event, ("elem_read", sym_of(obj), e, None, None, at, pos)))
        return
    # Every other class only evaluates its operands, in order; a call then
    # happens. Lowered items hold no comma or conditional, but AST-level
    # callers pass them.
    if cls is Binary:
        order = IN_TURN if e.op == "&&" or e.op == "||" else SIDE_BY_SIDE
        f = _new(Frame, (frame, slot, e, order, frame.depth + 1))
        _walk(e.left, out, f, 0)
        _walk(e.right, out, f, 1)
        return
    order = _ORDERS.get(cls)
    if order is None:  # one operand or none: ordered as `e` is
        for x in operands(e):
            _walk(x, out, frame, slot)
        return
    f = _new(Frame, (frame, slot, e, order, frame.depth + 1))
    for i, x in enumerate(operands(e)):
        _walk(x, out, f, i)
    if cls is Call:
        out.append(_new(Event, ("call", None, e, None, None, f, SELF)))


def _address(lvalue: Expr, root: Expr | None, ops: list[Expr], out: list[Event],
             frame: Frame, slot: int) -> tuple[Frame, int]:
    """Append the events of computing the address `lvalue` designates.

    `root`'s events (when given), then the operands'. With operands, the
    lvalue gets a frame: the root in slot 0, the operands in 1, 2, ...
    Returns where the lvalue's own events happen.
    """
    if not ops:
        if root is not None:
            _walk(root, out, frame, slot)
        return frame, slot
    f = _new(Frame, (frame, slot, lvalue, SIDE_BY_SIDE, frame.depth + 1))
    if root is not None:
        _walk(root, out, f, 0)
    for i, x in enumerate(ops, 1):
        _walk(x, out, f, i)
    return f, SELF


def _store(target: Expr, value: Expr | None, node: Expr, out: list[Event], frame: Frame) -> None:
    """Append the events of storing into `target` once its address is computed.

    A store into an array element reads the array first (in the address of
    `=`, or in the read of `op=` and `++`) and then writes it as a whole, so
    the array stays assigned once any element is. A store into a member
    writes the whole object without reading it.
    """
    obj, pointer, _, _ = designate(target)
    if is_volatile_access(target):
        out.append(_new(Event, ("volatile", None, node, None, None, frame, SELF)))
    if pointer is not None:
        out.append(_new(Event, ("deref_store", None, node, value, pointer, frame, SELF)))
    else:
        value = value if obj is target else None
        out.append(_new(Event, ("write", sym_of(obj), node, value, None, frame, SELF)))


def meet(a: Event, b: Event) -> tuple[Frame, int, int, int, str]:
    """Where events `a` and `b` of one stream, `a` first, meet, and how C
    orders them (see the module docstring); O(depth).

    Returns their lowest common frame, the slot of it each lies in, the
    order bits of the frames `a` climbs out of on the way (with
    `PAST_POINT`), and the relation.
    """
    fa, sa, fb, sb = a.frame, a.slot, b.frame, b.slot
    da, db = fa.depth, fb.depth
    path = 0
    while fa is not fb:
        if da >= db:
            order = fa.order
            path |= PAST_POINT | order if order == IN_TURN and sa == 0 else order
            fa, sa, da = fa.parent, fa.slot, da - 1
        if db > da:
            fb, sb, db = fb.parent, fb.slot, db - 1
    order = fa.order
    if sa == sb:  # one operand's evaluation holds the other event
        relation = SEQUENCED
    elif sb == SELF:  # a store is unsequenced with the side effects of its operands
        kind = a.kind
        modifies = kind == "write" or kind == "deref_store" or (
            kind == "volatile" and type(a.node) in _STORES)
        relation = (UNSEQUENCED if order == STORE and modifies
                    and not path & (BEFORE_CALL | PAST_POINT) else SEQUENCED)
    elif order == IN_TURN:
        relation = SEQUENCED
    elif order == LIST or a.kind == "call" or b.kind == "call":
        relation = INDETERMINATE
    else:
        relation = UNSEQUENCED
    return fa, sa, sb, path, relation


def sequencing(a: Event, b: Event) -> str:
    """How C orders events `a` and `b` of one stream, `a` first:
    `SEQUENCED` (`a` before `b`), `UNSEQUENCED` or `INDETERMINATE`."""
    return meet(a, b)[4]


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
