"""R13.2's access walk and the interval analysis's unordered reads, as they
were before `flow/effects` gave one sequencing relation; kept as test oracles.

`_accesses` walks a full expression and records R13.2's conflicts: it
groups the operands of calls, initializer lists and binary operators other
than `&&` and `||`, and of an lvalue's address (`_lvalue`), and weighs
every pair across groups (`_cross`, `_check_pair`), and a store against
the writes in its operands. `_unordered_reads` finds the reads of
address-taken locals that a call may precede: all but those in the
operands of every call. The code is moved here unchanged;
`full_expression` is the `_AbstractEval._full_expression` that read it.
`test_sequencing_oracle.py` compares both with what the relation gives.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

from ccomply.flow.effects import designate, is_volatile_access, sym_of
from ccomply.parsing.astnodes import (
    KIND_CALL, AddrOf, Assign, Binary, Call, CompoundAssign, Deref, Expr, Identifier, IncDec,
    Index, InitList, Member, operands,
)
from ccomply.sema.symbols import SymKind, Symbol

_WORLD = ("world", -1)

# Says whether the variable an access key names may be reached through a pointer.
_Escaped = Callable[[tuple], bool]


class _Access(NamedTuple):
    write: bool  # a modification; every other access is a read
    key: tuple
    deref: bool
    name: str
    volatile: bool = False  # an access to a volatile object


def _accesses(e: Expr, escaped: _Escaped, conflicts: list) -> list[_Access]:
    """Collect accesses of a subtree, checking unsequenced sibling groups."""
    cls = type(e)
    if cls is Identifier:
        sym = e.symbol
        if isinstance(sym, Symbol) and sym.kind is SymKind.OBJECT:
            return [_Access(False, ("var", sym.uid), False, sym.name, "volatile" in sym.quals)]
        return []
    if cls is Assign or cls is CompoundAssign:
        value_acc = _accesses(e.value, escaped, conflicts)
        target_reads, named = _lvalue(e.target, "store", escaped, conflicts)
        if named is not None:
            target_write = _Access(True, named.key, named.deref, named.name, named.volatile)
            if cls is CompoundAssign:
                target_reads.append(named)
            # The updating store is exempt from conflicts with reads of the
            # same key that feed the stored value, but two writes of one
            # object always conflict, and a store through one pointer may
            # alias a read through another.
            for other in value_acc + target_reads:
                if other.write or (named.deref and other.deref and other.key != named.key):
                    _check_pair(target_write, other, e, escaped, conflicts)
        _cross([value_acc, target_reads], e, escaped, conflicts)
        result = value_acc + target_reads
        if named is not None:
            result.append(target_write)
        return result
    if cls is IncDec:
        out, named = _lvalue(e.operand, "store", escaped, conflicts)
        if named is not None:
            out += [_Access(True, named.key, named.deref, named.name, named.volatile), named]
        return out
    if cls is AddrOf:
        return _lvalue(e.operand, "address", escaped, conflicts)[0]
    if cls is Deref or cls is Index or cls is Member:
        out, named = _lvalue(e, "read", escaped, conflicts)
        if named is not None and named.deref:
            out.append(named)  # a named object's read is its root's read
        return out
    # Every other class: the operands' accesses. The operands of a call, of
    # an initializer list and of a binary operator other than && and || are
    # unsequenced against each other.
    groups = [_accesses(x, escaped, conflicts) for x in operands(e)]
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


def _lvalue(e: Expr, use: str, escaped: _Escaped,
            conflicts: list) -> tuple[list[_Access], _Access | None]:
    """The accesses computing the address of the lvalue `e`, and a read of what it names.

    `use` is "read", "store" or "address" (`&e`). The address operands of
    `designate` are unsequenced against each other; the root object is
    read where `walk_effects` reads it. Through a pointer the key is
    `("deref", pointer uid or None)`, an array element's is
    `("deref", root uid or None)`, any other part of a named object's is
    `("var", uid)`, and a call or literal root names nothing. The read is
    volatile when `e` designates a volatile object.
    """
    obj, pointer, ops, indexed = designate(e)
    groups = [_accesses(x, escaped, conflicts) for x in ops]
    if obj is not None and (use == "read" or type(obj) is not Identifier
                            or (use == "store" and indexed)):
        groups.insert(0, _accesses(obj, escaped, conflicts))
    _cross(groups, e, escaped, conflicts)
    address = [x for g in groups for x in g]
    if pointer is not None or indexed:
        sym = sym_of(obj if pointer is None else pointer)
        return address, _Access(False, ("deref", sym.uid if sym else None), True, "",
                                is_volatile_access(e))
    sym = sym_of(obj)
    if sym is None:
        return address, None
    return address, _Access(False, ("var", sym.uid), False, sym.name, is_volatile_access(e))


def _check_pair(a: _Access, b: _Access, node: Expr, escaped: _Escaped,
                conflicts: list) -> None:
    """Record the conflict, if any, between two unsequenced accesses.

    MISRA C:2012 Rule 13.2 allows at most one volatile read and at most one
    volatile modification between sequence points: two of either kind
    conflict whatever objects they reach. Otherwise a conflict needs a
    modification.
    """
    if a.volatile and b.volatile and a.write is b.write:
        conflicts.append((
            "definite", node,
            "two unsequenced volatile modifications" if a.write
            else "two unsequenced volatile reads",
        ))
        return
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



def _unordered_reads(e: Expr, uids) -> set[Expr]:
    """The reads in full expression `e` of the locals `uids` that a call of
    `e` may precede: C leaves the order of operands unspecified (C99 6.5p3),
    and only a call's own operands are read before it (6.5.2.2p10), so
    every read but those in the operands of every call of `e`."""
    calls = 0
    reads = []  # (read, how many calls it is an operand of)
    stack = [(e, 0)]
    while stack:
        node, inside = stack.pop()
        cls = type(node)
        if cls is Call:
            calls += 1
            inside += 1
        elif cls is Identifier and getattr(node.symbol, "uid", None) in uids:
            reads.append((node, inside))
        stack += [(x, inside) for x in operands(node)]
    return {read for read, inside in reads if inside < calls}


def full_expression(self, e: Expr | None) -> None:
    """`_AbstractEval._full_expression` as it was: `_unordered_reads`."""
    calls = self.addr_taken and e is not None and e.kinds & KIND_CALL
    self._unordered = _unordered_reads(e, self.addr_taken) if calls else frozenset()


def conflicts(full: Expr, escaped: _Escaped) -> list[tuple[str, Expr, str]]:
    """(level, node, message) of each conflict `_accesses` records in `full`."""
    found: list = []
    _accesses(full, escaped, found)
    return found
