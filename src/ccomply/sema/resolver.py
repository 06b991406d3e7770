"""Name resolution, expression typing and constant evaluation.

Binds every identifier to a symbol, annotates every expression with a
TypeDesc under the configured integer model, and assigns per-TU string
literal ids. The stdint/stddef integer typedefs (uint32_t and friends) are
predefined so bare fixed-width code analyzes without headers.

It is also the one constant evaluator. As it types an expression it
records the expression's C99 6.6 integer-constant value in `const_value`,
computed bottom-up from its operands' recorded values by the integer kernel
(`intarith`) under the resolver's model. Evaluation is strict: an
expression is constant only when every operand is, `?:` included, and
anything outside the constant subset is not constant rather than an error.
Each flaw the kernel reports tags the node's `behavior` as undefined:
signed overflow keeps the wrapped value; division by zero or a shift out of
range is not constant. A node built after resolution (a lowered copy, a
synthesized operator) has no recorded value, so it reads as not constant.

It also records each function's call sites, as it types them: a function
definition's `calls` lists the calls its body can evaluate, in pre-order.
A call typed under `sizeof` is dropped, since C99 6.5.3.4p2 does not
evaluate the operand. Outside function bodies a call can stand only in an
initializer or under `sizeof`: everywhere else an integer constant is
required, and no call is one. In the same way it records whether a body
holds a shift whose count it cannot show to be a constant in range
(`FunctionDef.unproven_shifts`), a shift under `sizeof` included.

And it records what each expression's subtree holds, as the `KIND_*` bits
of `Expr.kinds` (see `parsing.astnodes`). `type_expr` keeps one
accumulator: each node starts it at 0, its branch of `_type_expr` adds the
node's own bits while typing its children adds theirs, and the node's mask
is what the accumulator holds at its end, which then joins its parent's.
So no node's operands are walked twice, and a `sizeof` operand or a cast's
type name counts like any child. A call's bit is added before its operands
are typed: two or more calls meet in one accumulator, by nesting or as
siblings, and that sets `KIND_MULTICALL`. A declared identifier and an
integer constant typed before are leaves whose mask `type_expr` sets
itself, without `_type_expr`; `_type_expr` still types every leaf, so
`tests/test_resolver_parity.py` compares the two.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ccomply.errors import SemaError, UnsupportedConstructError
from ccomply.parsing.astnodes import (
    KIND_ADDR, KIND_BRANCH, KIND_CALL, KIND_CAST, KIND_MULTICALL, KIND_SIZEOF,
    KIND_STORE, KIND_VOLATILE, AddrOf, Assign, Binary, Break, Call, Cast,
    Comma, CompoundAssign, CompoundStmt, Conditional, Constant, Continue,
    DeclEntry, Declaration, Deref, DoWhile, Expr, ExprStmt, For, FunctionDef,
    Goto, Identifier, If, IncDec, Index, InitList, Label, Member, Node, Return, Sizeof,
    StringLiteral, Switch, SynArr, SynBase, SynFunc, SynParam, SynPtr, SynType,
    TranslationUnitAst, Unary, While, qualifier_set, walk_operands,
)
from ccomply.parsing.parser import parse
from ccomply.sema.intarith import IntResult, binary, result_type, unary, unary_type
from ccomply.sema.symbols import Linkage, Storage, SymKind, Symbol, SymbolTable
from ccomply.sema.typesys import (
    BOOL_T, DEFAULT_MODEL, DOUBLE_T, FLOAT_T, TK, VOID_T, EnumInfo,
    IntegerModel, RecordInfo, TypeDesc, TypeTable, convert_int, int_constant_type,
    integer_promote, is_arithmetic, is_floating, is_integer, is_pointer, is_scalar, make_int,
    promoted_width, sizeof_type, usual_arith_conversion,
)
from ccomply.source import pack


def _both(test):
    return lambda lt, rt, e, model: test(lt) and test(rt)


def _relational(lt: TypeDesc, rt: TypeDesc, e: Binary, model: IntegerModel) -> bool:
    """C99 6.5.8p2: two real operands (every arithmetic type here) or two pointers."""
    return (is_arithmetic(lt) and is_arithmetic(rt)) or (is_pointer(lt) and is_pointer(rt))


def _equality(lt: TypeDesc, rt: TypeDesc, e: Binary, model: IntegerModel) -> bool:
    """C99 6.5.9p2: two arithmetic operands, two pointers, or a pointer and a
    null pointer constant."""
    return (_relational(lt, rt, e, model)
            or (is_pointer(lt) and _null_pointer_constant(e.right, rt))
            or (is_pointer(rt) and _null_pointer_constant(e.left, lt)))


def _null_pointer_constant(operand: Expr, t: TypeDesc) -> bool:
    """An integer constant expression of value 0 (C99 6.3.2.3p3); the form
    cast to `void *` has pointer type already."""
    return is_integer(t) and operand.const_value == 0


# What a binary operator requires of its operands: a test over both types
# after lvalue conversion, the operator node and the integer model. Whether
# two pointers' types are compatible, as C99 6.5.8p2 and 6.5.9p2 also
# require, is not checked.
_OPERANDS = {
    **dict.fromkeys(("&&", "||"), ("scalar", _both(is_scalar))),
    **dict.fromkeys(("<<", ">>", "&", "|", "^", "%"), ("integers", _both(is_integer))),
    **dict.fromkeys(("+", "-", "*", "/"), ("arithmetic", _both(is_arithmetic))),
    **dict.fromkeys(("<", ">", "<=", ">="), ("arithmetic or pointers", _relational)),
    **dict.fromkeys(("==", "!="), (
        "arithmetic, pointers, or a pointer and a null pointer constant", _equality)),
}

_SPEC_COMBOS = {
    ("void",): "void",
    ("char",): "char",
    ("char", "signed"): "schar",
    ("char", "unsigned"): "uchar",
    ("short",): "short", ("int", "short"): "short",
    ("short", "signed"): "short", ("int", "short", "signed"): "short",
    ("short", "unsigned"): "ushort", ("int", "short", "unsigned"): "ushort",
    ("int",): "int", ("signed",): "int", ("int", "signed"): "int",
    ("unsigned",): "uint", ("int", "unsigned"): "uint",
    ("long",): "long", ("int", "long"): "long",
    ("long", "signed"): "long", ("int", "long", "signed"): "long",
    ("long", "unsigned"): "ulong", ("int", "long", "unsigned"): "ulong",
    ("long", "long"): "llong", ("int", "long", "long"): "llong",
    ("long", "long", "signed"): "llong", ("int", "long", "long", "signed"): "llong",
    ("long", "long", "unsigned"): "ullong", ("int", "long", "long", "unsigned"): "ullong",
    ("float",): "float",
    ("double",): "double",
    ("double", "long"): "double",  # long double maps onto the 64-bit model
    ("_Bool",): "bool",
}

_BUILTIN_TYPEDEFS = {
    "int8_t": (8, True), "int16_t": (16, True), "int32_t": (32, True),
    "int64_t": (64, True), "uint8_t": (8, False), "uint16_t": (16, False),
    "uint32_t": (32, False), "uint64_t": (64, False),
}


_TYPEDEF = SymKind.TYPEDEF
_ENUM_CONST = SymKind.ENUM_CONST

# Where builtin typedefs and enumeration constants are declared: line 1,
# column 1 of the builtin file, -1.
_BUILTIN_POS = pack(-1, 1, 1)


@dataclass(slots=True)
class _SwitchLabels:
    """The labels met so far in one switch body."""

    type: TypeDesc  # the promoted type of the controlling expression
    values: set[int] = field(default_factory=set)  # case values, converted to `type`
    default: bool = False


class Resolver:
    """Resolves one unit's declarations in order, starting from the builtin
    typedefs or from `start`, a `state()` kept where a header prefix ends."""

    def __init__(self, model: IntegerModel = DEFAULT_MODEL, path: str = "<tu>",
                 start: tuple[SymbolTable, TypeTable, int] | None = None):
        self.model = model
        model.conversions  # built on first use, which rejects an invalid model
        self._named_types = _named_types(model)
        self.current_function: FunctionDef | None = None
        # The calls typed so far, in pre-order, none under `sizeof`: the
        # current function body's, or at file scope an initializer's.
        self._calls: list[Call] = []
        # The `KIND_*` bits of the expression being typed, so far.
        self._kinds = 0
        # Whether the current function body holds a shift `_shift` noted.
        self._unproven_shifts = False
        # What the statement constraints need of the current function body:
        # the label names and `goto`s met so far, how many loops enclose the
        # statement being resolved, and the labels of each enclosing switch.
        self._labels: set[str] = set()
        self._gotos: list[Goto] = []
        self._loops = 0
        self._switches: list[_SwitchLabels] = []
        # The type of each integer constant spelling typed so far. The
        # spelling fixes the value and the model is fixed per resolver, so
        # the spelling alone fixes the type; `type_expr` reads it.
        self._int_constants: dict[str, TypeDesc] = {}
        if start is None:
            self.table = SymbolTable(path, model)
            self.types = TypeTable()
            self.literal_count = 0
            self._install_builtins()
        else:
            table, types, self.literal_count = start
            self.table = table.fork(path)
            self.types = types.copy()

    # -- builtins -----------------------------------------------------------

    def _install_builtins(self) -> None:
        for name, (width, signed) in _BUILTIN_TYPEDEFS.items():
            self._declare_builtin_typedef(name, make_int(width, signed))
        ptr_bits = self.model.pointer_bits
        self._declare_builtin_typedef("intptr_t", make_int(ptr_bits, True))
        self._declare_builtin_typedef("uintptr_t", make_int(ptr_bits, False))
        self._declare_builtin_typedef("size_t", make_int(ptr_bits, False))
        self._declare_builtin_typedef("ptrdiff_t", make_int(ptr_bits, True))

    def _declare_builtin_typedef(self, name: str, t: TypeDesc) -> None:
        self.table.declare(Symbol(
            name, SymKind.TYPEDEF, t, 0, Storage.STATIC, Linkage.NONE,
            _BUILTIN_POS, _BUILTIN_POS, (),
        ))

    # -- entry point ----------------------------------------------------------

    def resolve(self, decls: list[Node]) -> SymbolTable:
        """Resolve top-level declarations `decls`, in order, into the table."""
        for decl in decls:
            if isinstance(decl, FunctionDef):
                self._function_def(decl)
            elif isinstance(decl, Declaration):
                self._declaration(decl)
            else:
                raise SemaError(f"unexpected top-level node {type(decl).__name__}")
        return self.table

    def state(self) -> tuple[SymbolTable, TypeTable, int] | None:
        """A copy of the file-scope state to start later units from, or None
        when a later declaration could complete one of its types in place: a
        struct or union tag left incomplete, or an object of incomplete
        array type."""
        scope = self.table.file_scope
        for t in scope.tags.values():
            if t.kind is TK.RECORD and not t.record.complete:
                return None
        for sym in scope.names.values():
            if sym.kind is SymKind.OBJECT and sym.type.kind is TK.ARRAY and sym.type.length is None:
                return None
        return self.table.fork(self.table.tu_path), self.types.copy(), self.literal_count

    # -- types from syntax -----------------------------------------------------

    def syn_base_type(self, base: SynBase) -> TypeDesc:
        if base.record_kind in ("struct", "union"):
            t = self._record_type(base)
        elif base.record_kind == "enum":
            t = self._enum_type(base)
        elif base.typedef_name is not None:
            sym = self.table.lookup(base.typedef_name)
            if sym is None or sym.kind is not SymKind.TYPEDEF:
                raise SemaError(f"unknown type name {base.typedef_name!r}")
            t = sym.type
        else:
            key = tuple(sorted(base.specs))
            name = _SPEC_COMBOS.get(key)
            if name is None:
                raise SemaError(f"invalid type specifier combination {' '.join(base.specs)!r}")
            t = self._named_types[name]
        if base.quals:
            t = self._qualified(t, base.quals)
        return t

    def _record_type(self, base: SynBase) -> TypeDesc:
        if base.members is None:
            existing = self.table.lookup_tag(base.tag) if base.tag is not None else None
            if existing is not None:
                if existing.kind is not TK.RECORD:
                    raise SemaError(f"tag {base.tag!r} is not a {base.record_kind}")
                return existing
            info = RecordInfo(base.record_kind, base.tag)
            t = TypeDesc(TK.RECORD, record=info)
            if base.tag is not None:
                self.table.declare_tag(base.tag, t)
            return t
        # Definition: complete an incomplete tag from this scope, else a new one.
        existing = (
            self.table.lookup_tag_current(base.tag) if base.tag is not None else None
        )
        if existing is not None:
            if existing.kind is not TK.RECORD or existing.record is None:
                raise SemaError(f"tag {base.tag!r} is not a {base.record_kind}")
            if existing.record.complete:
                raise SemaError(f"redefinition of {base.record_kind} {base.tag!r}")
            t, info = existing, existing.record
        else:
            info = RecordInfo(base.record_kind, base.tag)
            t = TypeDesc(TK.RECORD, record=info)
            if base.tag is not None:
                self.table.declare_tag(base.tag, t)
        shared: tuple[SynBase, TypeDesc] | None = None
        for member in base.members:
            # The declarators of one member declaration share its base type.
            if shared is None or shared[0] is not member.syntype.base:
                shared = (member.syntype.base, self.syn_base_type(member.syntype.base))
            mt = self.syn_type(member.syntype, shared[1])
            info.members.append((member.name, mt, mt.quals))
        info.complete = True
        return t

    def _enum_type(self, base: SynBase) -> TypeDesc:
        if base.enumerators is None:
            if base.tag is not None:
                existing = self.table.lookup_tag(base.tag)
                if existing is not None:
                    return existing
            info = EnumInfo(base.tag)
            t = TypeDesc(TK.ENUM, enum=info)
            if base.tag is not None:
                self.table.declare_tag(base.tag, t)
            return t
        info = EnumInfo(base.tag)
        t = TypeDesc(TK.ENUM, enum=info)
        if base.tag is not None:
            self.table.declare_tag(base.tag, t)
        next_value = 0
        for name, value_expr in base.enumerators:
            if value_expr is not None:
                self.type_expr(value_expr)
                if value_expr.const_value is None:
                    raise SemaError(f"enumerator {name!r} requires a constant value")
                next_value = value_expr.const_value
            info.constants[name] = next_value
            self.table.declare(Symbol(
                name, SymKind.ENUM_CONST, make_int(32, True), 0,
                Storage.STATIC, Linkage.NONE, _BUILTIN_POS, _BUILTIN_POS, (),
                enum_value=next_value,
            ))
            next_value += 1
        return t

    def syn_type(self, syntype: SynType, base: TypeDesc | None = None) -> TypeDesc:
        """The type `syntype` names; `base` is its base type, when already resolved."""
        t = self.syn_base_type(syntype.base) if base is None else base
        return self._derive(t, syntype.derivs)

    def _derive(self, t: TypeDesc, derivs) -> TypeDesc:
        """`t` under the declarator derivations `derivs`, outermost first."""
        types = self.types
        for deriv in reversed(derivs):
            if isinstance(deriv, SynPtr):
                # Each TypeDesc carries its own qualifiers: the pointee's
                # live on the pointee, `* const` lands on the pointer itself.
                t = types.pointer(t)
                if deriv.quals:
                    t = self._qualify(t, deriv.quals)
            elif isinstance(deriv, SynArr):
                length: int | None = None
                if deriv.size is not None:
                    self.type_expr(deriv.size)
                    self._check_size_flaw(deriv.size)
                    length = deriv.size.const_value
                    if length is None:
                        raise UnsupportedConstructError(
                            "variable-length arrays are not supported",
                            deriv.size.loc,
                        )
                t = types.array(t, length)  # raises on a negative length
            elif isinstance(deriv, SynFunc):
                params: tuple[TypeDesc, ...] | None = None
                if deriv.params is not None:
                    params = tuple(self._param_type(p) for p in deriv.params)
                t = types.function(t, params, deriv.variadic)
        return t

    def _check_size_flaw(self, size: Expr) -> None:
        """Reject an array size whose evaluation has undefined behavior: it
        is no constant in its type's range (C99 6.6p4), and no VLA either."""
        for node in walk_operands(size):
            if node.behavior is None:
                continue
            if type(node) is Unary:
                result = unary(node.op, (node.operand.const_value, node.operand.ctype), self.model)
            else:
                result = binary(node.op, (node.left.const_value, node.left.ctype),
                                (node.right.const_value, node.right.ctype), self.model)
            raise SemaError(f"array size has undefined behavior: {result.flaw} "
                            f"in '{node.op}' (C99 6.6p4)", node.loc)

    def _param_type(self, p: SynParam) -> TypeDesc:
        """A parameter's type, adjusted as C99 6.7.5.3p7-8 says."""
        return self.types.rvalue(self.syn_type(p.syntype))

    # -- declarations -----------------------------------------------------------

    def _declaration(self, decl: Declaration) -> None:
        # Defines the declaration's tag and enumerators once for all its declarators.
        base_t = self.syn_base_type(decl.base)
        for entry in decl.entries:
            entry.symbol = sym = self._declare_entry(entry, decl.base, base_t)
            if entry.init is not None:
                if decl.base.storage == "extern" and self.table.current.id != 0:
                    # C99 6.7.8p5: a block-scope identifier with linkage
                    # takes no initializer.
                    raise SemaError(
                        f"{entry.name!r} has both 'extern' and initializer", entry.loc)
                first = len(self._calls)
                self._value(entry.init)
                if len(self._calls) > first and sym.storage is not Storage.AUTO:
                    # C99 6.7.8p4: an object of static storage duration takes
                    # constant initializers, and a call is none (6.6p3).
                    raise SemaError(
                        f"initializer of static object {entry.name!r} is not constant",
                        self._calls[first].loc,
                    )
                t = sym.type
                if t.kind is TK.ARRAY and t.length is None:
                    # C99 6.7.8p22: the initializer completes an array of unknown size.
                    length = self._initializer_length(t.elem, entry.init)
                    if length is not None:
                        sym.type = self.types.qualified(self.types.array(t.elem, length), t.quals)

    def _declare_entry(self, entry: DeclEntry, base: SynBase, base_t: TypeDesc) -> Symbol:
        t = self.syn_type(entry.syntype, base_t)
        storage_kw = base.storage
        at_file_scope = self.table.current.id == 0

        if storage_kw == "typedef":
            return self.table.declare(Symbol(
                entry.name, SymKind.TYPEDEF, t, 0, Storage.STATIC, Linkage.NONE,
                entry.start, entry.end, entry.via, quals=t.quals,
            ))
        if t.kind is TK.FUNCTION:
            if not at_file_scope and storage_kw is not None and storage_kw != "extern":
                # C99 6.7.1p5: a block-scope function takes no storage class but `extern`.
                raise SemaError(f"invalid storage class for function {entry.name!r}", entry.loc)
            linkage = Linkage.INTERNAL if storage_kw == "static" else Linkage.EXTERNAL
            return self.table.declare(Symbol(
                entry.name, SymKind.FUNCTION, t, 0, Storage.EXTERN, linkage,
                entry.start, entry.end, entry.via,
            ))
        if at_file_scope:
            storage = Storage.EXTERN if storage_kw == "extern" else Storage.STATIC
            linkage = Linkage.INTERNAL if storage_kw == "static" else Linkage.EXTERNAL
        elif storage_kw == "extern":
            storage, linkage = Storage.EXTERN, Linkage.EXTERNAL
        elif storage_kw == "static":
            storage, linkage = Storage.STATIC, Linkage.NONE
        else:
            storage, linkage = Storage.AUTO, Linkage.NONE
        if t.kind is TK.VOID:
            raise SemaError(f"variable {entry.name!r} declared void", entry.loc)
        sym = Symbol(
            entry.name, SymKind.OBJECT, t, 0, storage, linkage,
            entry.start, entry.end, entry.via, quals=t.quals,
        )
        return self.table.declare(sym, defined=entry.init is not None)

    def _initializer_length(self, elem: TypeDesc, init: Expr) -> int | None:
        """How many `elem`s `init` gives an array declared without a size."""
        if not isinstance(init, InitList):
            return len(init.value) + 1 if isinstance(init, StringLiteral) else None
        items = init.elements
        if len(items) == 1 and isinstance(items[0], StringLiteral) and is_integer(elem):
            return len(items[0].value) + 1  # `char s[] = {"abc"}` (C99 6.7.8p14)
        n = i = 0
        while i < len(items):
            i, n = self._elided_fill(elem, items, i), n + 1
        return n

    def _elided_fill(self, t: TypeDesc, items: list[Expr], i: int) -> int:
        """The index past the items that initialize one `t` from `items[i]` on.

        An aggregate whose braces are left out takes one item per scalar
        (C99 6.7.8p20); a braced list, a string for a char array or a value
        of the record's own type initializes it whole.
        """
        item, members = items[i], []
        if isinstance(item, InitList):
            return i + 1
        if t.kind is TK.ARRAY and not (isinstance(item, StringLiteral) and is_integer(t.elem)):
            members = [t.elem] * (t.length or 0)
        elif t.kind is TK.RECORD and item.ctype.record is not t.record:
            members = [mt for _, mt, _ in t.record.members]
            if t.record.kind == "union":
                members = members[:1]  # only the first member is initialized
        end = i + 1
        for mt in members:
            if i < len(items):
                i = end = self._elided_fill(mt, items, i)
        return end

    def _function_def(self, fn: FunctionDef) -> None:
        # The parser puts the parameter list outermost: derivs[0] is a SynFunc.
        func, *inner = fn.syntype.derivs
        ret = self._derive(self.syn_base_type(fn.syntype.base), inner)
        # Each parameter's type is resolved once, in the function's scope
        # (C99 6.2.1p4): its tags and enumeration constants are the body's.
        self.table.push()
        param_types = [self._param_type(p) for p in fn.params]
        t = self.types.function(
            ret, None if func.params is None else tuple(param_types), func.variadic,
        )
        linkage = Linkage.INTERNAL if fn.syntype.base.storage == "static" else Linkage.EXTERNAL
        sym = self.table.declare(Symbol(
            fn.name, SymKind.FUNCTION, t, 0, Storage.EXTERN, linkage,
            fn.start, fn.end, fn.via,
        ), self.table.file_scope, defined=True)
        fn.symbol = sym
        self.current_function = fn
        self._unproven_shifts = False
        for p, pt in zip(fn.params, param_types):
            p.symbol = self.table.declare(Symbol(
                p.name, SymKind.OBJECT, pt, 0, Storage.AUTO, Linkage.NONE,
                p.start, p.end, p.via, quals=pt.quals, is_param=True,
            ), defined=True)
        self._labels, self._gotos, self._loops, self._switches = set(), [], 0, []
        self._stmt(fn.body, push=False)
        for goto in self._gotos:
            # C99 6.8.6.1p1: a `goto` names a label of its own function.
            if goto.label not in self._labels:
                raise SemaError(f"goto to undefined label {goto.label!r}", goto.loc)
        fn.calls = tuple(self._calls)
        self._calls.clear()
        fn.unproven_shifts = self._unproven_shifts
        self.table.pop()
        self.current_function = None

    # -- statements ----------------------------------------------------------------

    def _stmt(self, node: Node, push: bool = True) -> None:
        if isinstance(node, CompoundStmt):
            if push:
                self.table.push()
            for item in node.items:
                if isinstance(item, Declaration):
                    self._declaration(item)
                else:
                    self._stmt(item)
            if push:
                self.table.pop()
        elif isinstance(node, ExprStmt):
            if node.expr is not None:
                self.type_expr(node.expr)
        elif isinstance(node, If):
            self._condition(node.cond)
            self._stmt(node.then)
            if node.els is not None:
                self._stmt(node.els)
        elif isinstance(node, Switch):
            # C99 6.8.4.2p1: the controlling expression has integer type.
            cond_t = self._rvalue(node.cond)
            self._require(is_integer(cond_t), node.cond,
                          "controlling expression of switch must have integer type")
            self._switches.append(_SwitchLabels(integer_promote(cond_t, self.model)))
            self._stmt(node.body)
            self._switches.pop()
        elif isinstance(node, While):
            self._condition(node.cond)
            self._loop_body(node.body)
        elif isinstance(node, DoWhile):
            self._loop_body(node.body)
            self._condition(node.cond)
        elif isinstance(node, For):
            self.table.push()
            if isinstance(node.init, Declaration):
                self._declaration(node.init)
                # C99 6.8.5p3: the clause declares only auto or register objects.
                automatic = node.init.base.storage in (None, "auto", "register")
                for entry in node.init.entries:
                    if not automatic or entry.symbol.kind is not SymKind.OBJECT:
                        raise SemaError(
                            f"'for' loop initial declaration of {entry.name!r} declares no "
                            "auto or register object", entry.loc)
            elif node.init is not None:
                self.type_expr(node.init)
            if node.cond is not None:
                self._condition(node.cond)
            if node.step is not None:
                self.type_expr(node.step)
            self._loop_body(node.body)
            self.table.pop()
        elif isinstance(node, Return):
            # C99 6.8.6.4p1: a value exactly when the function returns one.
            void = self.current_function.symbol.type.ret.kind is TK.VOID
            if node.value is not None:
                if void:
                    raise SemaError("'return' with a value in a function returning void",
                                    node.loc)
                self._value(node.value)
            elif not void:
                raise SemaError("'return' with no value in a function returning a value",
                                node.loc)
        elif isinstance(node, Label):
            if node.kind == "named":
                # C99 6.8.1p3: label names are unique in a function.
                if node.name in self._labels:
                    raise SemaError(f"duplicate label {node.name!r}", node.loc)
                self._labels.add(node.name)
            else:
                self._switch_label(node)
            self._stmt(node.stmt)
        elif isinstance(node, Goto):
            self._gotos.append(node)
        elif isinstance(node, Break):
            # C99 6.8.6.3p1: only in a loop or a switch body.
            if not self._loops and not self._switches:
                raise SemaError("'break' outside loop or switch", node.loc)
        elif isinstance(node, Continue):
            # C99 6.8.6.2p1: only in a loop body.
            if not self._loops:
                raise SemaError("'continue' outside loop", node.loc)
        else:
            raise SemaError(f"unexpected statement {type(node).__name__}")

    def _loop_body(self, body: Node) -> None:
        self._loops += 1
        self._stmt(body)
        self._loops -= 1

    def _condition(self, cond: Expr) -> None:
        # C99 6.8.4.1p1, 6.8.5p2: a controlling expression has scalar type.
        self._require(is_scalar(self._rvalue(cond)), cond,
                      "controlling expression must have scalar type")

    def _switch_label(self, node: Label) -> None:
        """Check a `case` or `default` label against its switch (C99 6.8.4.2)."""
        if not self._switches:
            # C99 6.8.1p2: only in a switch body.
            raise SemaError(f"'{node.kind}' label outside switch", node.loc)
        labels = self._switches[-1]
        if node.case_expr is None:
            # C99 6.8.4.2p3: at most one `default` per switch.
            if labels.default:
                raise SemaError("multiple default labels in one switch", node.loc)
            labels.default = True
            return
        self.type_expr(node.case_expr)
        value = node.case_expr.const_value
        if value is None:
            raise SemaError("case label requires a constant expression", node.loc)
        # C99 6.8.4.2p3, p5: no two case values are equal once converted to
        # the promoted type of the controlling expression.
        value = convert_int(value, labels.type, self.model)[0]
        if value in labels.values:
            raise SemaError(f"duplicate case value {value}", node.loc)
        labels.values.add(value)

    # -- expressions ------------------------------------------------------------------

    def type_expr(self, e: Expr) -> TypeDesc:
        """Type `e` and its operands, record their fields, and join `e`'s
        `kinds` into the accumulator of the node being typed.

        Two leaves are typed here without entering `_type_expr`: an
        identifier naming a declared non-typedef symbol, and an integer
        constant whose spelling this resolver has typed before (see
        `_int_constants`). Neither holds a call, so the accumulator needs
        no save and restore. Every other node, and every leaf that is an
        error, takes `_type_expr`.
        """
        cls = type(e)
        if cls is Identifier:
            sym = self.table.lookup(e.name)
            if sym is not None and sym.kind is not _TYPEDEF:
                e.symbol = sym
                if sym.kind is _ENUM_CONST:
                    e.const_value = sym.enum_value
                if "volatile" in sym.quals:
                    e.kinds = KIND_VOLATILE
                    self._kinds |= KIND_VOLATILE
                else:
                    e.kinds = 0
                t = e.ctype = sym.type
                return t
        elif cls is Constant:
            t = self._int_constants.get(e.text)
            if t is not None:
                e.const_value = e.value
                e.kinds = 0
                e.ctype = t
                return t
        outer = self._kinds
        self._kinds = 0
        t = e.ctype = self._type_expr(e)
        kinds = e.kinds = self._kinds
        if outer & kinds & KIND_CALL:
            outer |= KIND_MULTICALL
        self._kinds = outer | kinds
        return t

    def _rvalue(self, e: Expr) -> TypeDesc:
        return self.types.rvalue(self.type_expr(e))

    def _value(self, e: Expr) -> TypeDesc:
        """The type of `e`, whose value is used: C99 6.3.2.2p1 forbids using
        the value of a void expression. An initializer list is no value."""
        t = self.type_expr(e)
        if t.kind is TK.VOID and type(e) is not InitList:
            raise SemaError("void value not ignored as it ought to be", e.loc)
        return t

    def _type_expr(self, e: Expr) -> TypeDesc:
        model = self.model
        cls = type(e)

        if cls is Identifier:
            sym = self.table.lookup(e.name)
            if sym is None:
                raise SemaError(
                    f"use of undeclared identifier {e.name!r}",
                    e.loc,
                )
            if sym.kind is SymKind.TYPEDEF:
                raise SemaError(
                    f"unexpected type name {e.name!r} in expression",
                    e.loc,
                )
            e.symbol = sym
            if "volatile" in sym.quals:
                self._kinds |= KIND_VOLATILE
            if sym.kind is SymKind.ENUM_CONST:
                e.const_value = sym.enum_value
            return sym.type

        if cls is Constant:
            if e.is_float:
                return FLOAT_T if e.text[-1] in "fF" else DOUBLE_T
            e.const_value = e.value
            if e.text.startswith("'"):
                return make_int(model.int_bits, True)
            t = int_constant_type(e.text, e.value, model)
            self._require(t is not None, e,
                          f"integer constant {e.text!r} does not fit any supported type")
            self._int_constants[e.text] = t
            return t

        if cls is StringLiteral:
            e.literal_id = self.literal_count
            self.literal_count += 1
            return self.types.array(make_int(model.char_bits, model.char_signed), len(e.value) + 1)

        if cls is Unary:
            op_t = self._rvalue(e.operand)
            if e.op == "!":
                self._require(is_scalar(op_t), e, "operand of ! must be scalar")
                t = make_int(model.int_bits, True)
            else:
                self._require(is_arithmetic(op_t), e,
                              f"operand of unary {e.op} must be arithmetic")
                if e.op == "~":
                    self._require(is_integer(op_t), e, "operand of ~ must be an integer")
                t = unary_type(e.op, op_t, model) if is_integer(op_t) else op_t
            if e.operand.const_value is not None:
                self._fold(e, unary(e.op, (e.operand.const_value, op_t), model))
            return t

        if cls is Binary:
            return self._type_binary(e)

        if cls is Assign:
            self._kinds |= KIND_STORE
            target_t = self.type_expr(e.target)
            self._require_modifiable(e.target, target_t, "=")
            self._value(e.value)
            return self.types.rvalue(target_t)

        if cls is CompoundAssign:
            self._kinds |= KIND_STORE
            target_t = self.type_expr(e.target)
            self._require_modifiable(e.target, target_t, e.op + "=")
            target_t = self.types.rvalue(target_t)
            value_t = self._rvalue(e.value)
            # C99 6.5.16.2p1-2: the operands the binary operator takes, or a
            # pointer target of `+=` or `-=` with an integer value.
            what, test = _OPERANDS[e.op]
            if e.op in ("+", "-"):
                if is_pointer(target_t) and is_integer(value_t):
                    return target_t
                what += ", or a pointer and an integer"
            self._require(test(target_t, value_t, e, model), e,
                          f"operands of {e.op}= must be {what}")
            if e.op == "<<" or e.op == ">>":
                self._shift(promoted_width(target_t, model), e.value)
            return target_t

        if cls is IncDec:
            self._kinds |= KIND_STORE
            t = self.type_expr(e.operand)
            self._require_modifiable(e.operand, t, e.op)
            t = self.types.rvalue(t)
            self._require(is_scalar(t), e, "++/-- requires a scalar operand")
            return t

        if cls is Call:
            self._calls.append(e)
            self._kinds |= KIND_CALL  # before the operands, so a call in them meets it
            callee_t = self.type_expr(e.callee)
            ft = callee_t
            if ft.kind is TK.POINTER and ft.pointee is not None:
                ft = ft.pointee
            if ft.kind is not TK.FUNCTION:
                raise SemaError(
                    "called object is not a function or function pointer",
                    e.loc,
                )
            for a in e.args:
                self._value(a)
            if ft.params is not None:
                n, got = len(ft.params), len(e.args)
                if got < n or (got > n and not ft.variadic):
                    raise SemaError(
                        f"call expects {n}{'+' if ft.variadic else ''} argument(s), got {got}",
                        e.loc,
                    )
            return ft.ret if ft.ret is not None else VOID_T

        if cls is Index:
            base_t = self._rvalue(e.base)
            index_t = self._rvalue(e.index)
            if is_pointer(base_t) and is_integer(index_t):
                return self._designated(base_t.pointee)
            if is_pointer(index_t) and is_integer(base_t):
                return self._designated(index_t.pointee)
            raise SemaError(
                "subscripted value is not a pointer or array",
                e.loc,
            )

        if cls is Member:
            base_t = self.type_expr(e.base)
            if e.arrow:
                base_t = self.types.rvalue(base_t)
                if not is_pointer(base_t) or base_t.pointee is None:
                    raise SemaError("'->' requires a pointer to a record", e.loc)
                base_t = base_t.pointee
            if base_t.kind is not TK.RECORD or base_t.record is None:
                raise SemaError("member access requires a struct or union", e.loc)
            if not base_t.record.complete:
                raise SemaError(
                    f"member access into incomplete type "
                    f"{base_t.record.kind} {base_t.record.tag or '<anon>'}",
                    e.loc,
                )
            for name, mt, quals in base_t.record.members:
                if name == e.name:
                    # C99 6.5.2.3p3-4: the member has the object's qualifiers.
                    return self._designated(
                        self._qualified(mt, base_t.quals) if base_t.quals else mt)
            raise SemaError(
                f"no member named {e.name!r} in "
                f"{base_t.record.kind} {base_t.record.tag or '<anon>'}",
                e.loc,
            )

        if cls is Deref:
            t = self._rvalue(e.operand)
            if not is_pointer(t) or t.pointee is None:
                raise SemaError("cannot dereference a non-pointer", e.loc)
            return self._designated(t.pointee)

        if cls is AddrOf:
            self._kinds |= KIND_ADDR
            t = self.type_expr(e.operand)
            self._require_lvalue(e.operand, allow_function=True)
            return self.types.pointer(t)

        if cls is Cast:
            self._kinds |= KIND_CAST
            target = self.syn_type(e.type_name)
            operand_t = self._rvalue(e.operand)
            if not (is_scalar(target) and is_scalar(operand_t)) and target.kind is not TK.VOID:
                # C99 6.5.4p2: only a cast to void takes or gives a non-scalar.
                raise SemaError("cast of a non-scalar operand" if is_scalar(target)
                                else "cast to a non-scalar type", e.loc)
            # C99 6.5.4p4: no conversion between a pointer and a floating type.
            self._require(not (is_pointer(target) and is_floating(operand_t)
                               or is_floating(target) and is_pointer(operand_t)),
                          e, "cast between a pointer and a floating type")
            if e.operand.const_value is not None and is_integer(target):
                e.const_value = convert_int(e.operand.const_value, target, model)[0]
            return target

        if cls is Conditional:
            self._kinds |= KIND_BRANCH
            cond_t = self._rvalue(e.cond)
            self._require(is_scalar(cond_t), e, "condition must be scalar")
            then_t = self._rvalue(e.then)
            other_t = self._rvalue(e.other)
            if is_arithmetic(then_t) and is_arithmetic(other_t):
                t = usual_arith_conversion(then_t, other_t, model)
                # Strict, as everywhere: the operand not taken must be constant too.
                cond, then, other = e.cond.const_value, e.then.const_value, e.other.const_value
                if cond is not None and then is not None and other is not None:
                    e.const_value = convert_int(then if cond else other, t, model)[0]
                return t
            if then_t.kind is TK.VOID or other_t.kind is TK.VOID:
                # C99 6.5.15p3: both operands are void, or neither is.
                self._require(then_t.kind is other_t.kind, e, "only one operand of ?: is void")
                return VOID_T
            return then_t

        if cls is Comma:
            self._kinds |= KIND_BRANCH
            self.type_expr(e.left)
            return self._rvalue(e.right)

        if cls is Sizeof:
            self._kinds |= KIND_SIZEOF
            if e.type_name is not None:
                target = e.type_name_type = self.syn_type(e.type_name)
            else:
                first = len(self._calls)
                target = self.type_expr(e.operand)
                del self._calls[first:]
            try:
                e.const_value = sizeof_type(target, model)
            except SemaError as err:
                # C99 6.5.3.4p1: no `sizeof` of an incomplete or function type.
                raise SemaError(err.message, e.loc) from None
            return make_int(model.pointer_bits, False)

        if cls is InitList:
            for element in e.elements:
                self._value(element)
            return VOID_T

        raise SemaError(f"cannot type expression {type(e).__name__}")

    def _type_binary(self, e: Binary) -> TypeDesc:
        model = self.model
        op = e.op
        if op == "&&" or op == "||":
            self._kinds |= KIND_BRANCH
        left_t = self._rvalue(e.left)
        right_t = self._rvalue(e.right)
        if op in ("+", "-"):
            if is_pointer(left_t) and is_integer(right_t):
                return left_t
            if op == "+" and is_integer(left_t) and is_pointer(right_t):
                return right_t
            if op == "-" and is_pointer(left_t) and is_pointer(right_t):
                return make_int(model.pointer_bits, True)
        rule = _OPERANDS.get(op)
        if rule is None:
            raise SemaError(f"unknown binary operator {op!r}")
        what, test = rule
        self._require(test(left_t, right_t, e, model), e, f"operands of {op} must be {what}")
        left, right = e.left.const_value, e.right.const_value
        if left is not None and right is not None:
            self._fold(e, binary(op, (left, left_t), (right, right_t), model))
        t = result_type(op, left_t, right_t, model)
        if op == "<<" or op == ">>":
            self._shift(t.width, e.right)  # a shift has its promoted left operand's type
        return t

    # -- helpers ---------------------------------------------------------------------

    def _shift(self, width: int, count: Expr) -> None:
        """Note a shift by `count` of a left operand whose promoted width is
        `width`, unless `count` is a constant in [0, width) (C99 6.5.7p3)."""
        value = count.const_value
        if value is None or not 0 <= value < width:
            self._unproven_shifts = True

    @staticmethod
    def _fold(e: Expr, result: IntResult) -> None:
        """Record a kernel result on `e`: its value, and a flaw as undefined behavior."""
        if result.flaw is not None:
            e.behavior = "undefined"
        e.const_value = result.value

    def _designated(self, t: TypeDesc) -> TypeDesc:
        """`t`, the type of a `*`, `[]`, `.` or `->` lvalue; a volatile one
        sets `KIND_VOLATILE`, as an access to it is volatile."""
        if "volatile" in t.quals:
            self._kinds |= KIND_VOLATILE
        return t

    def _qualify(self, t: TypeDesc, quals: frozenset) -> TypeDesc:
        """`t` with `quals` added to its own qualifiers."""
        return self.types.qualified(t, qualifier_set(t.quals | quals))

    def _qualified(self, t: TypeDesc, quals: frozenset) -> TypeDesc:
        """`t` qualified with `quals`, as a typedef name's type in a
        declaration or a member read through a qualified object is: an
        array type's elements take the qualifiers (C99 6.7.3p8).
        """
        if t.kind is TK.ARRAY and t.elem is not None:
            return self.types.array(self._qualified(t.elem, quals), t.length)
        return self._qualify(t, quals)

    def _require(self, cond: bool, e: Expr, message: str) -> None:
        if not cond:
            raise SemaError(message, e.loc)

    def _require_lvalue(self, e: Expr, allow_function: bool = False) -> None:
        if isinstance(e, Identifier):
            sym = e.symbol
            if sym is not None and sym.kind is SymKind.ENUM_CONST:
                raise SemaError(f"{e.name!r} is not assignable", e.loc)
            if sym is not None and sym.kind is SymKind.FUNCTION and not allow_function:
                raise SemaError(f"function {e.name!r} is not assignable", e.loc)
            return
        base = e
        while isinstance(base, Member) and not base.arrow:
            # C99 6.5.2.3p3: `x.m` is an lvalue only when `x` is one.
            base = base.base
        if isinstance(base, (Identifier, Deref, Index, Member, StringLiteral)):
            return
        raise SemaError(
            f"expression is not an lvalue ({type(e).__name__})",
            e.loc,
        )

    def _require_modifiable(self, e: Expr, t: TypeDesc, op: str) -> None:
        """`e`, of type `t`, is the operand that `op` stores to: C99
        6.5.16p2, 6.5.2.4p1 and 6.5.3.1p1 want a modifiable lvalue, which
        by 6.3.2.1p1 has no array type, no const-qualified type, and no
        struct or union type with a const member at any depth."""
        self._require_lvalue(e)
        if t.kind is TK.ARRAY:
            flaw = "it has array type"
        elif "const" in t.quals:
            flaw = "it is const-qualified"
        elif t.kind is TK.RECORD and _has_const_member(t):
            flaw = "its struct or union type has a const member"
        else:
            return
        raise SemaError(f"operand of {op} is not a modifiable lvalue: {flaw}", e.loc)


def _has_const_member(t: TypeDesc) -> bool:
    """Whether a member of record type `t`, or an element or member inside
    one, at any depth, has a const-qualified type."""
    for _, mt, _ in t.record.members:
        while mt.kind is TK.ARRAY:
            mt = mt.elem
        if "const" in mt.quals or mt.kind is TK.RECORD and _has_const_member(mt):
            return True
    return False


def _named_types(m: IntegerModel) -> dict[str, TypeDesc]:
    """The type of each `_SPEC_COMBOS` name under integer model `m`."""
    return {
        "void": VOID_T, "bool": BOOL_T, "float": FLOAT_T, "double": DOUBLE_T,
        "char": make_int(m.char_bits, m.char_signed),
        "schar": make_int(m.char_bits, True),
        "uchar": make_int(m.char_bits, False),
        "short": make_int(m.short_bits, True),
        "ushort": make_int(m.short_bits, False),
        "int": make_int(m.int_bits, True),
        "uint": make_int(m.int_bits, False),
        "long": make_int(m.long_bits, True),
        "ulong": make_int(m.long_bits, False),
        "llong": make_int(m.long_long_bits, True),
        "ullong": make_int(m.long_long_bits, False),
    }


def resolve(tu: TranslationUnitAst, model: IntegerModel = DEFAULT_MODEL) -> SymbolTable:
    """Bind names and compute types for one translation unit (in place).

    A unit that starts from a kept header prefix (`tu.started_from`, see
    `parsing.prefix`) starts from the state kept after the prefix under
    `model`. Without kept state it resolves a fresh parse of the prefix, so
    that no unit writes into nodes another unit reads. Where each longer
    prefix the unit's parse kept (`tu.kept`) ends, the state after it is
    kept under `model`.
    """
    start = tu.started_from
    done = 0
    if start is None:
        resolver = Resolver(model, tu.path)
    else:
        done = len(start.decls)
        kept = start.resolved.get(model)
        if kept is not None:
            decls, state = kept
            tu.decls[:done] = decls
            resolver = Resolver(model, tu.path, state)
        else:
            tu.decls[:done] = parse(start.tokens, tu.path).decls
            resolver = Resolver(model, tu.path)
            _resolve_prefix(resolver, tu.decls, 0, start, model)
    for prefix in tu.kept:
        done = _resolve_prefix(resolver, tu.decls, done, prefix, model)
    return resolver.resolve(tu.decls[done:])


def _resolve_prefix(resolver: Resolver, decls: list, done: int, prefix, model: IntegerModel) -> int:
    """Resolve `decls` from `done` to where `prefix` ends, keep the state
    there under `model` if it can be kept, and return where it ends."""
    end = len(prefix.decls)
    resolver.resolve(decls[done:end])
    state = resolver.state()
    if state is not None:
        prefix.resolved[model] = (decls[:end], state)
    return end
