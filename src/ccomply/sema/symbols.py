"""Symbols, scopes, and cross-TU linkage unification.

A symbol's kind, storage and linkage are fixed when it is built, and so is
`Symbol.is_local_object`, which the flow analyses read for every event.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ccomply.errors import SemaError
from ccomply.sema.typesys import DEFAULT_MODEL, TK, IntegerModel, TypeDesc, same_type
from ccomply.source import ExpansionFrame, Extent, Span


class SymKind(Enum):
    OBJECT = "object"
    FUNCTION = "function"
    TYPEDEF = "typedef"
    ENUM_CONST = "enum-constant"
    TAG = "tag"


class Storage(Enum):
    AUTO = "automatic"
    STATIC = "static"
    EXTERN = "extern"


class Linkage(Enum):
    NONE = "none"
    INTERNAL = "internal"
    EXTERNAL = "external"


@dataclass(eq=False, slots=True)
class Symbol(Extent):
    """A declared name. Its extent (see `source.Extent`) is that of the
    declarator that first declared it; `def_span` decodes it.

    Units that start with the same header prefix share the prefix's symbols
    (see `parsing.prefix`), so what one unit learns later about a symbol,
    such as that it defines the function, goes into that unit's
    `SymbolTable`. The one write into a declared symbol, a later declaration
    completing an array of unknown size (`_merge`), is why a prefix that
    declares such an array keeps no resolver state.
    """

    name: str
    kind: SymKind
    type: TypeDesc
    scope_id: int
    storage: Storage
    linkage: Linkage
    start: int
    end: int
    via: tuple[ExpansionFrame, ...]
    quals: frozenset = frozenset()
    is_param: bool = False
    enum_value: int | None = None
    uid: int = -1
    is_temp: bool = False  # synthetic temporary introduced by CFG lowering
    # An object of automatic storage with no linkage: what the flow analyses
    # track. Fixed at declaration, as nothing writes a symbol's kind,
    # storage or linkage after construction.
    is_local_object: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.is_local_object = (
            self.kind is SymKind.OBJECT
            and self.storage is Storage.AUTO
            and self.linkage is Linkage.NONE
        )

    @property
    def def_span(self) -> Span:
        return self.span

    def canonical_id(self, tu_path: str) -> str:
        """Stable cross-TU identity for linkage-based unification; `tu_path`
        is the path of the unit whose table holds the symbol."""
        if self.linkage is Linkage.EXTERNAL:
            return self.name
        if self.linkage is Linkage.INTERNAL:
            return f"{tu_path}::{self.name}"
        return f"{tu_path}::scope{self.scope_id}::{self.name}#{self.uid}"


@dataclass(eq=False, slots=True)
class Scope:
    id: int
    parent: int | None
    names: dict[str, Symbol] = field(default_factory=dict)
    tags: dict[str, TypeDesc] = field(default_factory=dict)


class SymbolTable:
    """One TU's scopes and symbols, and the integer model they were typed under.

    `defined` is the set of the uids of the symbols the unit defines (a
    function with a body, an object with an initializer, a parameter) as a
    bit set: bit n is set when the unit defines the symbol of uid n. An
    int costs a few words per table where a `set` costs kilobytes, and a
    fork shares it. `defines` reads it.
    """

    def __init__(self, tu_path: str = "<tu>", model: IntegerModel = DEFAULT_MODEL):
        self.tu_path = tu_path
        self.model = model
        self.scopes: list[Scope] = [Scope(0, None)]
        self._stack: list[int] = [0]
        self.symbols: list[Symbol] = []
        self.defined = 0

    def fork(self, tu_path: str) -> "SymbolTable":
        """A table for unit `tu_path` that starts where this one stands.

        Only at file scope. The copy has its own file scope and symbol
        list, and `defined` is an int, so what the copy declares next does
        not reach this table. It shares the symbols and the closed block
        scopes, which no later declaration changes.
        """
        if len(self._stack) != 1:
            raise ValueError("a symbol table forks only at file scope")
        table = SymbolTable(tu_path, self.model)
        top = self.scopes[0]
        table.scopes = [Scope(0, None, dict(top.names), dict(top.tags)), *self.scopes[1:]]
        table.symbols = list(self.symbols)
        table.defined = self.defined
        return table

    def defines(self, sym: Symbol) -> bool:
        """Whether this unit defines `sym`."""
        return self.defined >> sym.uid & 1 == 1

    # -- scope management --------------------------------------------------

    @property
    def current(self) -> Scope:
        return self.scopes[self._stack[-1]]

    @property
    def file_scope(self) -> Scope:
        return self.scopes[0]

    def push(self) -> Scope:
        scope = Scope(len(self.scopes), self._stack[-1])
        self.scopes.append(scope)
        self._stack.append(scope.id)
        return scope

    def pop(self) -> None:
        self._stack.pop()

    # -- declaration and lookup --------------------------------------------

    def declare(self, sym: Symbol, scope: Scope | None = None, defined: bool = False) -> Symbol:
        """Declare `sym` in `scope`, by default the current one; `defined`
        says that this declaration defines it. Returns the symbol the name
        denotes: `sym`, or an earlier declaration it merges into."""
        if scope is None:
            scope = self.current
        sym.uid = len(self.symbols)
        sym.scope_id = scope.id
        existing = scope.names.get(sym.name)
        if existing is not None:
            sym = self._merge(existing, sym)
        else:
            scope.names[sym.name] = sym
            self.symbols.append(sym)
        if defined:
            self.defined |= 1 << sym.uid
        return sym

    def _merge(self, old: Symbol, new: Symbol) -> Symbol:
        """Allow compatible redeclarations; reject conflicts.

        A function or object may be declared again at file scope, or in a
        block when both declarations have linkage (`extern`); C99 6.7p3
        forbids a second declaration only of a name with no linkage. An
        object declared once as an array of unknown size and once with a
        size (6.7.5.2p6) takes the sized type, which is the composite type
        of the two (6.2.7p3).
        """
        completes = old.kind is SymKind.OBJECT and _sizes_an_array(old.type, new.type)
        if old.kind is not new.kind or not (completes or same_type(old.type, new.type)):
            raise SemaError(
                f"conflicting redeclaration of {new.name!r}", new.loc
            )
        linked = old.linkage is not Linkage.NONE and new.linkage is not Linkage.NONE
        if old.kind in (SymKind.FUNCTION, SymKind.OBJECT) and (old.scope_id == 0 or linked):
            if completes and old.type.length is None:
                old.type = new.type
            return old
        if old.kind is SymKind.TYPEDEF:
            return old
        raise SemaError(f"redeclaration of {new.name!r}", new.loc)

    def lookup(self, name: str) -> Symbol | None:
        sid: int | None = self._stack[-1]
        while sid is not None:
            scope = self.scopes[sid]
            if name in scope.names:
                return scope.names[name]
            sid = scope.parent
        return None

    def declare_tag(self, tag: str, t: TypeDesc) -> None:
        self.current.tags[tag] = t

    def lookup_tag(self, tag: str) -> TypeDesc | None:
        sid: int | None = self._stack[-1]
        while sid is not None:
            scope = self.scopes[sid]
            if tag in scope.tags:
                return scope.tags[tag]
            sid = scope.parent
        return None

    def lookup_tag_current(self, tag: str) -> TypeDesc | None:
        return self.current.tags.get(tag)


def _sizes_an_array(a: TypeDesc, b: TypeDesc) -> bool:
    """Whether `a` and `b` are arrays of one element type, and exactly one has a size."""
    return (
        a.kind is TK.ARRAY and b.kind is TK.ARRAY
        and (a.length is None) != (b.length is None)
        and same_type(a.elem, b.elem)
    )


@dataclass
class LinkedProgram:
    """External-linkage unification across translation units."""

    functions: dict[str, list[Symbol]] = field(default_factory=dict)
    objects: dict[str, list[Symbol]] = field(default_factory=dict)


def link_units(tables: list[SymbolTable]) -> LinkedProgram:
    """Unify file-scope symbols by canonical id (name for external linkage)."""
    prog = LinkedProgram()
    for table in tables:
        for sym in table.file_scope.names.values():
            if sym.kind is SymKind.FUNCTION:
                prog.functions.setdefault(sym.canonical_id(table.tu_path), []).append(sym)
            elif sym.kind is SymKind.OBJECT:
                prog.objects.setdefault(sym.canonical_id(table.tu_path), []).append(sym)
    for name, syms in list(prog.objects.items()) + list(prog.functions.items()):
        first = syms[0]
        for other in syms[1:]:
            if not same_type(first.type, other.type):
                raise SemaError(
                    f"conflicting types for external symbol {name!r}",
                    other.loc,
                )
    return prog
