"""Span-insensitive AST comparison, for the parser's round-trip tests.

`structural_equal` compares two trees on their syntax alone: node classes,
operators, names, literal texts and type names, but not spans, token
indices or what sema fills in.
"""
from __future__ import annotations

from typing import Any

from ccomply.parsing.astnodes import (
    Binary, Cast, CompoundAssign, Constant, Declaration, DeclEntry, FunctionDef,
    Goto, Identifier, IncDec, Label, Member, Node, Sizeof, StringLiteral, SynArr,
    SynFunc, SynPtr, SynType, TranslationUnitAst, Unary, children,
)

_ATOM_FIELDS = {
    Identifier: ("name",),
    Constant: ("text",),
    StringLiteral: ("value",),
    Unary: ("op",), Binary: ("op",), CompoundAssign: ("op",),
    IncDec: ("op", "prefix"),
    Member: ("name", "arrow"),
    Goto: ("label",),
    Label: ("kind", "name"),
    FunctionDef: ("name",),
    DeclEntry: ("name",),
    TranslationUnitAst: (),
}


def _atoms(node: Any) -> tuple:
    return tuple(getattr(node, n) for n in _ATOM_FIELDS.get(type(node), ()))


def _syn_sig(st: SynType) -> tuple:
    base = st.base
    parts: list[Any] = [tuple(sorted(base.specs)), base.typedef_name, base.record_kind,
                        base.tag, tuple(sorted(base.quals)), base.storage]
    if base.members is not None:
        parts.append(tuple((m.name, _syn_sig(m.syntype)) for m in base.members))
    if base.enumerators is not None:
        parts.append(tuple(name for name, _ in base.enumerators))
    derivs = []
    for d in st.derivs:
        if isinstance(d, SynPtr):
            derivs.append(("ptr", tuple(sorted(d.quals))))
        elif isinstance(d, SynArr):
            derivs.append(("arr", d.size is not None))
        elif isinstance(d, SynFunc):
            sig = None
            if d.params is not None:
                sig = tuple((p.name, _syn_sig(p.syntype)) for p in d.params)
            derivs.append(("func", sig, d.variadic))
    parts.append(tuple(derivs))
    return tuple(parts)


def structural_equal(a: Node, b: Node) -> bool:
    """Compare trees ignoring spans, token indices, and sema results."""
    if type(a) is not type(b):
        return False
    if _atoms(a) != _atoms(b):
        return False
    if isinstance(a, (Declaration,)) and isinstance(b, (Declaration,)):
        if len(a.entries) != len(b.entries):
            return False
        for ea, eb in zip(a.entries, b.entries):
            if ea.name != eb.name or _syn_sig(ea.syntype) != _syn_sig(eb.syntype):
                return False
            if (ea.init is None) != (eb.init is None):
                return False
    if isinstance(a, FunctionDef) and isinstance(b, FunctionDef):
        if _syn_sig(a.syntype) != _syn_sig(b.syntype):
            return False
    if isinstance(a, Cast) and isinstance(b, Cast):
        if _syn_sig(a.type_name) != _syn_sig(b.type_name):
            return False
    if isinstance(a, Sizeof) and isinstance(b, Sizeof):
        if (a.type_name is None) != (b.type_name is None):
            return False
        if a.type_name is not None and _syn_sig(a.type_name) != _syn_sig(b.type_name):
            return False
    ca, cb = children(a), children(b)
    if len(ca) != len(cb):
        return False
    return all(structural_equal(x, y) for x, y in zip(ca, cb))
