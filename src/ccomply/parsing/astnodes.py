"""AST node definitions for the supported C99 subset.

Nodes use identity equality (they serve as map keys in the analyses).
Sema fills the `ctype`/`symbol`/`const_value` attributes in place after
parsing. Units of one run that start with the same header prefix share
the prefix's nodes (see `parsing.prefix`), which sema fills once. Every
class is slotted: callers keep each unit's tree for the whole run, so a
node costs its fields and no per-instance dict.

A node's source extent is stored inline, as are a declarator's
(`DeclEntry`, `SynParam`, `RecordMember`): three fields, `start` and `end`
(packed positions, see `ccomply.source`) and `via` (the expansion chain,
the shared `()` outside macros). `span` and `loc` decode them when a
finding or an error reports them; nothing else decodes them. A node built
after parsing copies the extent of the node it stands for (`placed`).

The leaf syntactic types are shared values: the parser gives every
declaration with the same specifiers, typedef name, qualifiers and storage
class and no struct, union or enum body one `SynBase`, every `*` with the
same qualifiers one `SynPtr` (`SYN_PTRS`), and every declarator whose
derivations are all pointers one `SynType` per base. These three classes
are frozen; nothing may mutate a syntactic type after it is built.

`children` gives every syntactic child of a node. It reads only the fields
that can hold one, as one per-class table (`_CHILD_FIELDS`) gives them.
`operands` gives only the subexpressions that evaluating an expression
evaluates: it leaves out a cast's type name and the operand of `sizeof`.
Walkers that follow evaluation (CFG lowering, effect events, intervals,
side-effect and evaluation-order checks) read `operands`; the call sites a
function can evaluate are recorded by sema, in `FunctionDef.calls`.

Sema also records what each expression's subtree contains, as the bit mask
`Expr.kinds` (the `KIND_*` bits): stores, calls, `&`, volatile operands,
casts, `sizeof`, the operators CFG lowering splits into branches (`&&`,
`||`, `?:` and `,`), and whether it holds two or more calls. The
mask covers every node of the `children` subtree, so it is a superset of
what evaluating the expression does, and a walker that finds a bit absent
may skip the subtree exactly. A node sema never typed (a CFG temporary, or
one built by `placed` or `dataclasses.replace`) keeps `KIND_ALL`, which no
walker skips. `NodeIndex` descends only into expressions that hold a node
it keeps; CFG lowering (`flow.cfg.CfgBuilder._expr`), R13.2
(`checkers_ast.check_evaluation_order`), `_has_side_effect` (R13.1,
R13.5), R14.1/R14.2's clause writes and the interval lowering of CFG items
skip the subtrees whose mask shows they cannot matter.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Container, Iterator, Optional

from ccomply.source import ExpansionFrame, Extent

__all__ = [
    "Node", "Expr", "Stmt", "SynBase", "SynPtr", "SynArr", "SynFunc", "SynType",
    "SynParam", "RecordMember", "TranslationUnitAst", "DeclEntry", "Declaration", "for_clauses",
    "FunctionDef", "CompoundStmt", "If", "Switch", "While", "DoWhile", "For",
    "Goto", "Label", "Break", "Continue", "Return", "ExprStmt", "Identifier",
    "Constant", "StringLiteral", "Unary", "Binary", "Assign", "CompoundAssign",
    "IncDec", "Call", "Index", "Member", "Deref", "AddrOf", "Cast", "Conditional",
    "Comma", "Sizeof", "InitList", "children", "operands", "operand_fields", "walk",
    "walk_operands", "placed", "NodeIndex", "QUALIFIER_SETS", "SYN_PTRS", "qualifier_set",
    "KIND_STORE", "KIND_CALL", "KIND_ADDR", "KIND_VOLATILE", "KIND_CAST", "KIND_SIZEOF",
    "KIND_BRANCH", "KIND_MULTICALL", "KIND_ALL",
]

# The bits of `Expr.kinds`: what some node of the expression's subtree is.
KIND_STORE = 1        # `=`, `op=`, `++` or `--`
KIND_CALL = 2         # a call
KIND_ADDR = 4         # `&`
KIND_VOLATILE = 8     # a volatile access: a volatile object, or `*`, `[]`, `.`, `->` of one
KIND_CAST = 16        # a cast
KIND_SIZEOF = 32      # `sizeof`
KIND_BRANCH = 64      # `&&`, `||`, `?:` or `,`: an operator CFG lowering splits
KIND_MULTICALL = 128  # the subtree holds two or more calls
# The mask of a node sema never typed: every bit, so nothing skips it.
KIND_ALL = -1


@dataclass(eq=False, slots=True)
class Node(Extent):
    # Set by the parser; a node built without them has no span.
    start: Optional[int] = field(kw_only=True, default=None)
    end: Optional[int] = field(kw_only=True, default=None)
    via: tuple[ExpansionFrame, ...] = field(kw_only=True, default=())


@dataclass(eq=False, slots=True)
class Expr(Node):
    # Filled by sema.
    ctype: Any = field(kw_only=True, default=None, repr=False)
    behavior: Optional[str] = field(kw_only=True, default=None, repr=False)
    # The C99 6.6 integer-constant value sema recorded, else None. It is no
    # `__init__` argument, so `dataclasses.replace` and every node built
    # after sema start without one.
    const_value: Optional[int] = field(init=False, default=None, repr=False)
    # What the subtree holds, as `KIND_*` bits; sema records it, and it is
    # no `__init__` argument either. Every mask fits in 8 bits, so it is one
    # of the interpreter's shared small ints, never an object of its own.
    kinds: int = field(init=False, default=KIND_ALL, repr=False)


@dataclass(eq=False, slots=True)
class Stmt(Node):
    # A statement or declaration is never skipped: walkers that test a
    # child's `kinds` read every bit here.
    kinds: ClassVar[int] = KIND_ALL


# ---- syntactic types (pre-sema) -------------------------------------------

# The four `const`/`volatile` qualifier sets, keyed by (const, volatile).
# The parser and sema take every qualifier set from here, so a tree holds
# four sets however many declarations it has.
QUALIFIER_SETS: dict[tuple[bool, bool], frozenset[str]] = {
    (False, False): frozenset(),
    (True, False): frozenset({"const"}),
    (False, True): frozenset({"volatile"}),
    (True, True): frozenset({"const", "volatile"}),
}


def qualifier_set(words: Container[str]) -> frozenset[str]:
    """The shared set of the `const` and `volatile` among `words`.

    `restrict` is dropped: no checker reads it, and sema never kept it.
    """
    return QUALIFIER_SETS["const" in words, "volatile" in words]


@dataclass(eq=False, frozen=True, slots=True)
class SynBase:
    """Base type specifier: keyword multiset, typedef name, or tag type."""

    specs: tuple[str, ...] = ()          # e.g. ('unsigned', 'long')
    typedef_name: str | None = None
    record_kind: str | None = None       # 'struct' | 'union' | 'enum'
    tag: str | None = None
    members: list["RecordMember"] | None = None     # struct/union definition
    enumerators: list[tuple[str, Optional["Expr"]]] | None = None
    quals: frozenset[str] = QUALIFIER_SETS[False, False]
    storage: str | None = None           # 'typedef' | 'static' | 'extern' | 'auto'


@dataclass(eq=False, frozen=True, slots=True)
class SynPtr:
    quals: frozenset[str] = QUALIFIER_SETS[False, False]


# One `SynPtr` per qualifier set, shared by every pointer declarator.
SYN_PTRS: dict[frozenset[str], SynPtr] = {q: SynPtr(q) for q in QUALIFIER_SETS.values()}


@dataclass(eq=False, slots=True)
class SynArr:
    size: Optional["Expr"] = None


@dataclass(eq=False, slots=True)
class SynFunc:
    params: list["SynParam"] | None = None   # None = unspecified ()
    variadic: bool = False


@dataclass(eq=False, frozen=True, slots=True)
class SynType:
    base: SynBase
    derivs: tuple[Any, ...] = ()  # outermost first: (SynPtr, SynArr, ...)


@dataclass(eq=False, slots=True)
class SynParam(Extent):
    syntype: SynType
    name: str | None
    start: int
    end: int
    via: tuple[ExpansionFrame, ...]
    symbol: Any = None  # filled by sema


@dataclass(eq=False, slots=True)
class RecordMember(Extent):
    syntype: SynType
    name: str
    start: int
    end: int
    via: tuple[ExpansionFrame, ...]


# ---- declarations -----------------------------------------------------------


@dataclass(eq=False, slots=True)
class DeclEntry(Extent):
    name: str
    syntype: SynType
    init: Optional[Expr]
    start: int
    end: int
    via: tuple[ExpansionFrame, ...]
    symbol: Any = None  # filled by sema


@dataclass(eq=False, slots=True)
class Declaration(Stmt):
    entries: list[DeclEntry]
    base: SynBase  # carries tag/enum definitions even with no declarators


@dataclass(eq=False, slots=True)
class FunctionDef(Node):
    name: str
    syntype: SynType
    params: list[SynParam]
    body: "CompoundStmt"
    symbol: Any = field(default=None, repr=False)
    # Filled by sema: the calls the body can evaluate, in pre-order; a call
    # under `sizeof` is none (C99 6.5.3.4p2). The shared `()` when there are none.
    calls: tuple["Call", ...] = field(init=False, default=(), repr=False)
    # Filled by sema: whether the body holds a `<<`, `>>`, `<<=` or `>>=`
    # whose count is no constant in [0, promoted width of the left operand)
    # (C99 6.5.7p3), under `sizeof` too; R12.2 skips a function without one.
    # True until sema shows otherwise, so an unresolved function is checked.
    unproven_shifts: bool = field(init=False, default=True, repr=False)


class _Unit(Node):
    """Holds the header prefixes (`parsing.prefix.Prefix`) a unit shares
    with other units of the run: `started_from`, the kept prefix the parse
    started from, else None, and `kept`, the longer prefixes its parse
    kept, by length. They are run state, not syntax, so they are slots and
    no dataclass fields: `children`, `fields` and tree comparisons leave
    them out."""

    __slots__ = ("started_from", "kept")

    def __post_init__(self) -> None:
        self.started_from = None
        self.kept = ()

    @property
    def prefix(self):
        """The longest kept prefix whose declarations `decls` starts with, else None."""
        return self.kept[-1] if self.kept else self.started_from


@dataclass(eq=False, slots=True)
class TranslationUnitAst(_Unit):
    decls: list[Node]  # Declaration | FunctionDef
    path: str = ""


# ---- statements -------------------------------------------------------------


@dataclass(eq=False, slots=True)
class CompoundStmt(Stmt):
    items: list[Node]


@dataclass(eq=False, slots=True)
class If(Stmt):
    cond: Expr
    then: Stmt
    els: Optional[Stmt]


@dataclass(eq=False, slots=True)
class Switch(Stmt):
    cond: Expr
    body: Stmt


@dataclass(eq=False, slots=True)
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass(eq=False, slots=True)
class DoWhile(Stmt):
    body: Stmt
    cond: Expr


@dataclass(eq=False, slots=True)
class For(Stmt):
    init: Optional[Node]  # Declaration or Expr
    cond: Optional[Expr]
    step: Optional[Expr]
    body: Stmt


@dataclass(eq=False, slots=True)
class Goto(Stmt):
    label: str


@dataclass(eq=False, slots=True)
class Label(Stmt):
    kind: str  # 'named' | 'case' | 'default'
    name: str | None
    case_expr: Optional[Expr]
    stmt: Stmt


@dataclass(eq=False, slots=True)
class Break(Stmt):
    pass


@dataclass(eq=False, slots=True)
class Continue(Stmt):
    pass


@dataclass(eq=False, slots=True)
class Return(Stmt):
    value: Optional[Expr]


@dataclass(eq=False, slots=True)
class ExprStmt(Stmt):
    expr: Optional[Expr]  # None = empty statement ';'


# ---- expressions ------------------------------------------------------------


@dataclass(eq=False, slots=True)
class Identifier(Expr):
    name: str
    symbol: Any = field(default=None, repr=False)


@dataclass(eq=False, slots=True)
class Constant(Expr):
    text: str
    value: Any = None      # int | float, set by parser
    is_float: bool = False


@dataclass(eq=False, slots=True)
class StringLiteral(Expr):
    value: str             # decoded contents
    literal_id: int = -1   # per-TU id, set by sema


@dataclass(eq=False, slots=True)
class Unary(Expr):
    op: str  # + - ~ !
    operand: Expr


@dataclass(eq=False, slots=True)
class Binary(Expr):
    op: str  # * / % + - << >> < > <= >= == != & ^ | && ||
    left: Expr
    right: Expr


@dataclass(eq=False, slots=True)
class Assign(Expr):
    target: Expr
    value: Expr


@dataclass(eq=False, slots=True)
class CompoundAssign(Expr):
    op: str  # base operator, e.g. '+' for '+='
    target: Expr
    value: Expr


@dataclass(eq=False, slots=True)
class IncDec(Expr):
    op: str        # '++' | '--'
    prefix: bool
    operand: Expr


@dataclass(eq=False, slots=True)
class Call(Expr):
    callee: Expr
    args: list[Expr]


@dataclass(eq=False, slots=True)
class Index(Expr):
    base: Expr
    index: Expr


@dataclass(eq=False, slots=True)
class Member(Expr):
    base: Expr
    name: str
    arrow: bool


@dataclass(eq=False, slots=True)
class Deref(Expr):
    operand: Expr


@dataclass(eq=False, slots=True)
class AddrOf(Expr):
    operand: Expr


@dataclass(eq=False, slots=True)
class Cast(Expr):
    type_name: SynType
    operand: Expr


@dataclass(eq=False, slots=True)
class Conditional(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass(eq=False, slots=True)
class Comma(Expr):
    left: Expr
    right: Expr


@dataclass(eq=False, slots=True)
class Sizeof(Expr):
    type_name: Optional[SynType]
    operand: Optional[Expr]
    type_name_type: Any = field(default=None, repr=False)  # resolved TypeDesc


@dataclass(eq=False, slots=True)
class InitList(Expr):
    elements: list[Expr]


def placed(node: Node, like: Extent) -> Node:
    """`node`, given the extent of `like`: for a node built after parsing."""
    node.start, node.end, node.via = like.start, like.end, like.via
    return node


def for_clauses(node: "For") -> tuple[Optional[Node], Optional["Expr"], Optional["Expr"]]:
    """The three for-loop clauses; absent clauses are returned as None."""
    if not isinstance(node, For):
        raise TypeError(f"expected a for-loop node, got {type(node).__name__}")
    return node.init, node.cond, node.step


# ---- generic traversal ------------------------------------------------------

# Per expression class: the fields whose subexpressions evaluating the
# expression evaluates, in field order; each holds an expression or a list
# of them. This is `children` minus a cast's type name and everything under
# `sizeof`, whose operand C99 6.5.3.4p2 does not evaluate. Every walker that
# follows evaluation reads this one table.
_OPERAND_FIELDS: dict[type, tuple[str, ...]] = {
    Identifier: (), Constant: (), StringLiteral: (), Sizeof: (),
    Unary: ("operand",), IncDec: ("operand",), Deref: ("operand",),
    AddrOf: ("operand",), Cast: ("operand",),
    Binary: ("left", "right"), Comma: ("left", "right"),
    Assign: ("target", "value"), CompoundAssign: ("target", "value"),
    Call: ("callee", "args"), Index: ("base", "index"), Member: ("base",),
    Conditional: ("cond", "then", "other"), InitList: ("elements",),
}

# The shapes of a field that can hold a node: a node, a node or None, a list
# of nodes, declarators (`DeclEntry`: their initializers), a syntactic type
# or None (`SynType`: array sizes, and the members, enumerators and
# parameters it declares) and a `SynBase` (its members and enumerators).
_NODE, _OPTIONAL, _NODES, _ENTRIES, _SYNTYPE, _BASE = range(6)

# Row of an expression whose children are its operands (`_OPERAND_FIELDS`).
_OPERANDS = None

# Per node class: (shape, name) of each field that can hold a node, in field
# order; `children` reads nothing else. A cast's type name and what `sizeof`
# is applied to are the children that are no operands.
_CHILD_FIELDS: dict[type, Optional[tuple[tuple[int, str], ...]]] = {
    TranslationUnitAst: ((_NODES, "decls"),),
    Declaration: ((_ENTRIES, "entries"), (_BASE, "base")),
    FunctionDef: ((_SYNTYPE, "syntype"), (_NODE, "body")),
    CompoundStmt: ((_NODES, "items"),),
    If: ((_NODE, "cond"), (_NODE, "then"), (_OPTIONAL, "els")),
    Switch: ((_NODE, "cond"), (_NODE, "body")),
    While: ((_NODE, "cond"), (_NODE, "body")),
    DoWhile: ((_NODE, "body"), (_NODE, "cond")),
    For: ((_OPTIONAL, "init"), (_OPTIONAL, "cond"), (_OPTIONAL, "step"), (_NODE, "body")),
    Label: ((_OPTIONAL, "case_expr"), (_NODE, "stmt")),
    Return: ((_OPTIONAL, "value"),),
    ExprStmt: ((_OPTIONAL, "expr"),),
    Goto: (), Break: (), Continue: (),
    Cast: ((_SYNTYPE, "type_name"), (_NODE, "operand")),
    Sizeof: ((_SYNTYPE, "type_name"), (_OPTIONAL, "operand")),
    Identifier: _OPERANDS, Constant: _OPERANDS, StringLiteral: _OPERANDS,
    Unary: _OPERANDS, IncDec: _OPERANDS, Deref: _OPERANDS, AddrOf: _OPERANDS,
    Binary: _OPERANDS, Comma: _OPERANDS, Assign: _OPERANDS,
    CompoundAssign: _OPERANDS, Call: _OPERANDS, Index: _OPERANDS,
    Member: _OPERANDS, Conditional: _OPERANDS, InitList: _OPERANDS,
}


def children(node: Node) -> list[Node]:
    """Direct child nodes, in source order."""
    row = _CHILD_FIELDS[type(node)]
    if row is _OPERANDS:
        return operands(node)
    out: list[Node] = []
    for shape, name in row:
        value = getattr(node, name)
        if shape == _NODE:
            out.append(value)
        elif shape == _NODES:
            out += value
        elif value is None:
            pass
        elif shape == _OPTIONAL:
            out.append(value)
        elif shape == _ENTRIES:
            for entry in value:
                if entry.init is not None:
                    out.append(entry.init)
        elif shape == _SYNTYPE:
            _collect_syntype(value, out)
        elif value.members or value.enumerators:
            _collect_base(value, out)
    return out


def _collect_syntype(st: SynType, out: list[Node]) -> None:
    _collect_base(st.base, out)
    for d in st.derivs:
        if isinstance(d, SynArr) and d.size is not None:
            out.append(d.size)
        elif isinstance(d, SynFunc) and d.params:
            for p in d.params:
                _collect_syntype(p.syntype, out)


def _collect_base(b: SynBase, out: list[Node]) -> None:
    if b.members:
        for m in b.members:
            _collect_syntype(m.syntype, out)
    if b.enumerators:
        for _, e in b.enumerators:
            if e is not None:
                out.append(e)


def operand_fields(e: Expr) -> tuple[str, ...]:
    """The names of the fields of `e` that its evaluation evaluates."""
    return _OPERAND_FIELDS[type(e)]


def operands(e: Expr) -> list[Expr]:
    """The subexpressions evaluating `e` evaluates, in field order."""
    out: list[Expr] = []
    for name in _OPERAND_FIELDS[type(e)]:
        value = getattr(e, name)
        if type(value) is list:
            out.extend(value)
        else:
            out.append(value)
    return out


def walk_operands(e: Expr) -> Iterator[Expr]:
    """Pre-order traversal of `e` and of the subexpressions its evaluation evaluates."""
    stack = [e]
    while stack:
        n = stack.pop()
        yield n
        kids = operands(n)
        kids.reverse()
        stack.extend(kids)


def walk(node: Node) -> Iterator[Node]:
    """Pre-order traversal of a subtree."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(children(n)))


# The expression classes `NodeIndex` keeps, and the bits that show one in
# a subtree. `Binary` is kept only for `&&` and `||`; `KIND_BRANCH` also
# marks a `?:` or `,`, so it shows a superset.
_KEPT_EXPRS = frozenset({Assign, CompoundAssign, IncDec, Call, AddrOf, Cast, Sizeof, Binary})
_KEPT_KINDS = KIND_STORE | KIND_CALL | KIND_ADDR | KIND_CAST | KIND_SIZEOF | KIND_BRANCH
# Per node class: whether `NodeIndex` keeps its nodes. Every statement,
# declaration and function definition is kept.
_KEEPS = {cls: not issubclass(cls, Expr) or cls in _KEPT_EXPRS for cls in _CHILD_FIELDS}


class NodeIndex:
    """The nodes checkers look up below a run of top-level declarations, from
    one pre-order walk.

    `decls` is the run it indexes: a whole unit's declarations, or a part of
    them, such as those of a shared header prefix or those that follow it
    (see `rules.engine.run_rules`).

    It keeps every statement and declaration, the top-level declarations
    and function definitions, and the expressions of the classes in
    `_KEPT_EXPRS`: stores, calls, `&`, casts, `sizeof`, and the binaries
    `&&` and `||`. It descends into an expression child only when the
    child's `kinds` shows such a node in its subtree, so a subtree of
    operands and arithmetic costs one mask test.

    `nodes` lists the kept nodes in pre-order and `by_class` maps each
    class to its kept nodes in pre-order; `of` raises for a class the index
    does not keep, so no checker can read an empty list for a class it
    never sees. `subtree` gives the kept nodes of a top-level declaration
    or of a function's body as a slice of `nodes`. `unevaluated` holds the
    kept nodes under a `sizeof`, whose operand is not evaluated (C99
    6.5.3.4p2). There is no parent map: checkers read the tree top-down.

    The index costs two list slots per kept node, so a caller builds one
    for a batch of queries and drops it, rather than keeping it with the
    tree. Only the per-unit checkers read one: the call graph reads the
    call sites sema recorded (`FunctionDef.calls`), so nothing needs the
    index after `run_rules` returns.
    """

    __slots__ = ("decls", "nodes", "by_class", "unevaluated", "_bounds", "__weakref__")

    def __init__(self, decls: list[Node]) -> None:
        nodes: list[Node] = []
        unevaluated: set[Node] = set()
        bounds: dict[int, tuple[int, int]] = {}
        for decl in decls:
            start = len(nodes)
            _gather(decl, nodes, unevaluated)
            end = len(nodes)
            bounds[id(decl)] = (start, end)
            if isinstance(decl, FunctionDef):
                # `body` is the last child field, so its subtree ends the decl's.
                bounds[id(decl.body)] = (nodes.index(decl.body, start, end), end)
        by_class: dict[type, list[Node]] = {}
        for n in nodes:
            cls = type(n)
            if cls in by_class:
                by_class[cls].append(n)
            else:
                by_class[cls] = [n]
        self.decls = decls
        self.nodes = nodes
        self.by_class = by_class
        self.unevaluated = unevaluated
        self._bounds = bounds

    def of(self, cls: type) -> list[Node]:
        """The kept nodes whose class is exactly `cls`, in pre-order."""
        if not _KEEPS.get(cls, False):
            raise TypeError(f"NodeIndex keeps no {cls.__name__} nodes")
        return self.by_class.get(cls, [])

    def subtree(self, root: Node) -> list[Node]:
        """Kept pre-order nodes of a top-level declaration or a function body."""
        start, end = self._bounds[id(root)]
        return self.nodes[start:end]


def _gather(root: Node, nodes: list[Node], unevaluated: set[Node]) -> None:
    """Append the kept nodes of `root`'s subtree to `nodes`, in pre-order, and
    add those under a `sizeof` to `unevaluated`."""
    stack = [root]
    while stack:
        n = stack.pop()
        cls = type(n)
        if _KEEPS[cls] and (cls is not Binary or n.op in ("&&", "||")):
            nodes.append(n)
        kids = [k for k in children(n) if k.kinds & _KEPT_KINDS]
        if cls is Sizeof:
            first = len(nodes)
            for kid in kids:
                _gather(kid, nodes, unevaluated)
            unevaluated.update(nodes[first:])
        elif kids:
            kids.reverse()
            stack += kids
