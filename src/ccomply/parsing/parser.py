"""Recursive-descent parser for the supported C99 subset.

Typedef names are tracked in a parse-time scope stack (the classic
lexer-feedback approach) so `T * x;` parses as a declaration exactly
when T is a visible typedef name. Excluded grammar raises
UnsupportedConstructError; malformed input raises ParseError with the
nearest token and an expected-token hint.

The cursor is an index `i` into `_pad`, the token list with three `None`
entries appended, so `_pad[i + k]` for k <= 2 never leaves the list and
`None` means end of input; `peek(k)` is exactly that read. No method moves
`i` past the last token: it advances only over a token it has just read
as not `None`. The hot loops read `_pad[i]` themselves rather than call
`peek`, and nodes take their extents from the token list directly.

One loop, `_expr`, parses every infix operator: `,`, the assignment
operators, `?:` and the ten binary levels. Casts, unary, postfix and
primary expressions keep a method each, but `_expr` reads a leaf operand
itself: an identifier, a number, or a parenthesized expression, which
costs one frame (`_expr`) and one more for any postfix operators after
it (`_postfix_tail`). A right-associative operator costs one frame, so no
input nests deeper in Python frames here than in the parser with one
method per level that `tests/parser_oracle.py` keeps, which the parity
rule of `tests/test_parser_oracle.py` needs.
"""
from __future__ import annotations

import re
from typing import Optional

from ccomply.errors import ParseError, UnsupportedConstructError
from ccomply.frontend.lexer import PPToken, TokenKind, int_constant_value, literal_units
from ccomply.frontend.preprocessor import PAREN_NESTING_LIMIT
from ccomply.parsing.astnodes import (
    SYN_PTRS, AddrOf, Assign, Binary, Break, Call, Cast, Comma, CompoundAssign,
    CompoundStmt, Conditional, Constant, Continue, DeclEntry, Declaration,
    Deref, DoWhile, Expr, ExprStmt, For, FunctionDef, Goto, Identifier, If,
    IncDec, Index, InitList, Label, Member, Node, RecordMember, Return,
    Sizeof, Stmt, StringLiteral, Switch, SynArr, SynBase, SynFunc, SynParam,
    SynPtr, SynType, TranslationUnitAst, Unary, While, qualifier_set,
)
from ccomply.parsing.prefix import find_prefix, keep_prefix
from ccomply.source import ExpansionFrame, Location, pack, unpack

KEYWORDS = {
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if",
    "inline", "int", "long", "register", "restrict", "return", "short",
    "signed", "sizeof", "static", "struct", "switch", "typedef", "union",
    "unsigned", "void", "volatile", "while", "_Bool", "_Complex", "_Imaginary",
}

_TYPE_SPECS = {
    "void", "char", "short", "int", "long", "float", "double",
    "signed", "unsigned", "_Bool",
}
_STORAGE = {"typedef", "extern", "static", "auto", "register"}
_QUALS = {"const", "volatile", "restrict"}
# Words that begin a type name, apart from typedef names.
_TYPE_START = frozenset(_TYPE_SPECS | _QUALS | {"struct", "union", "enum"})
# Words that begin a declaration, apart from typedef names.
_DECL_START = frozenset(_TYPE_START | _STORAGE | {"inline"})

_IDENT = TokenKind.IDENT
_PUNCT = TokenKind.PUNCT
_NUMBER = TokenKind.NUMBER

_ASSIGN_OPS = {
    "=": None, "*=": "*", "/=": "/", "%=": "%", "+=": "+", "-=": "-",
    "<<=": "<<", ">>=": ">>", "&=": "&", "^=": "^", "|=": "|",
}

# The levels of `_expr`, loosest first: an expression, an
# assignment-expression, a conditional-expression (C99 6.5.17, 6.5.16,
# 6.5.15), then the ten binary levels, `||` to `*`. The operator of a
# level takes its left operand at that level; `,` and the binary operators
# associate to the left, assignment and `?:` to the right.
_EXPRESSION, _ASSIGNMENT, _CONDITIONAL = 0, 1, 2
_INFIX_LEVELS = [
    (",",),
    tuple(_ASSIGN_OPS),
    ("?",),
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]
_INFIX_LEVEL = {op: level for level, ops in enumerate(_INFIX_LEVELS) for op in ops}
_POSTFIX_OPS = frozenset({"(", "[", ".", "->", "++", "--"})

# Compound, selection and iteration statements open inside one function
# body. C99 5.2.4.1 requires 127 nesting levels of blocks; deeper nesting is
# rejected before the recursive descent exhausts Python's stack, as
# PAREN_NESTING_LIMIT does for parentheses (grouping and call argument lists)
# inside one full expression.
BLOCK_NESTING_LIMIT = 127
_BLOCK_KEYWORDS = frozenset({"if", "switch", "while", "do", "for"})
_JUMP_KEYWORDS = frozenset({"goto", "continue", "break", "return", "case", "default"})

def _literal_units(t: PPToken) -> list[int]:
    units = literal_units(t.lexeme)
    if units is None:
        raise ParseError(f"malformed escape sequence in {t.lexeme}", t.report_site)
    return units


class Parser:
    def __init__(self, tokens: list[PPToken], path: str = "<tu>"):
        from ccomply.builtins import BUILTIN_TYPEDEF_NAMES

        # The tokens as `preprocess` returned them carry the run's prefix
        # table; the parser reads an exact list, which indexes faster.
        self.unit = tokens
        self.toks = list(tokens)
        self._pad: list[PPToken | None] = self.toks + [None, None, None]
        self.i = 0
        self.path = path
        self.paren_depth = 0
        self.block_depth = 0
        # One dict per open scope: name -> whether it names a typedef.
        self.scopes: list[dict[str, bool]] = [dict.fromkeys(BUILTIN_TYPEDEF_NAMES, True)]
        # The shared syntactic types of this unit (see `astnodes`).
        self._bases: dict[tuple, SynBase] = {}
        self._syntypes: dict[tuple, SynType] = {}

    # ---- cursor ---------------------------------------------------------

    def peek(self, ahead: int = 0) -> PPToken | None:
        return self._pad[self.i + ahead]

    def at_punct(self, *lexemes: str) -> bool:
        t = self._pad[self.i]
        return t is not None and t.kind is _PUNCT and t.lexeme in lexemes

    def at_kw(self, *names: str) -> bool:
        t = self._pad[self.i]
        return t is not None and t.kind is _IDENT and t.lexeme in names

    def pop(self) -> PPToken:
        t = self._pad[self.i]
        if t is None:
            raise ParseError("unexpected end of input", self._last_loc())
        self.i += 1
        return t

    def expect_punct(self, lexeme: str) -> PPToken:
        t = self._pad[self.i]
        if t is None or t.kind is not _PUNCT or t.lexeme != lexeme:
            got = t.lexeme if t is not None else "end of input"
            raise ParseError(f"expected {lexeme!r}, got {got!r}", self._here())
        self.i += 1
        return t

    def expect_ident(self, what: str = "identifier") -> PPToken:
        t = self._pad[self.i]
        if t is None or t.kind is not _IDENT or t.lexeme in KEYWORDS:
            got = t.lexeme if t is not None else "end of input"
            raise ParseError(f"expected {what}, got {got!r}", self._here())
        self.i += 1
        return t

    def _here(self) -> Location | None:
        t = self.peek()
        return t.report_site if t is not None else self._last_loc()

    def _last_loc(self) -> Location | None:
        return self.toks[-1].report_site if self.toks else None

    def extent_from(self, start_index: int) -> tuple[int, int, tuple[ExpansionFrame, ...]]:
        """(start, end, via) from token `start_index` to the last token read,
        clamped to the input; the positions are packed reporting positions."""
        toks = self.toks
        end_index = self.i - 1
        if end_index < start_index:
            end_index = start_index
        if start_index >= len(toks):
            if not toks:
                pos = pack(0, 1, 1)
                return pos, pos, ()
            start_index = end_index = len(toks) - 1
        return toks[start_index].report_pos, toks[end_index].report_pos, toks[start_index].chain

    def _finish(self, node: Node, start_index: int) -> Node:
        toks = self.toks
        end_index = self.i - 1
        if end_index < start_index:
            end_index = start_index
        if end_index < len(toks):  # `extent_from` without clamping, inline
            first = toks[start_index]
            last = toks[end_index]
            via = first.chain
            node.start = via[0].pos if via else first.pos
            node.end = last.chain[0].pos if last.chain else last.pos
            node.via = via
        else:
            node.start, node.end, node.via = self.extent_from(start_index)
        return node

    # ---- scopes ---------------------------------------------------------

    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()

    def declare_name(self, name: str, is_typedef: bool) -> None:
        self.scopes[-1][name] = is_typedef

    def is_typedef_name(self, name: str) -> bool:
        for names in reversed(self.scopes):
            is_typedef = names.get(name)
            if is_typedef is not None:
                return is_typedef
        return False

    def starts_declaration(self) -> bool:
        t = self._pad[self.i]
        if t is None or t.kind is not _IDENT:
            return False
        if t.lexeme in _DECL_START:
            return True
        if t.lexeme in ("_Complex", "_Imaginary"):
            raise UnsupportedConstructError(
                f"{t.lexeme} types are not supported", t.report_site
            )
        if t.lexeme in KEYWORDS:
            return False
        return self.is_typedef_name(t.lexeme)

    # ---- top level ------------------------------------------------------

    def parse_translation_unit(self) -> TranslationUnitAst:
        """The unit's tree; a unit that starts with a kept header prefix
        takes its declarations and parses on from the state after them, and
        keeps each prefix `find_prefix` names where a declaration ends
        exactly at its end."""
        prefix, keep = find_prefix(self.unit)
        decls: list[Node] = []
        if prefix is not None:
            decls += prefix.decls
            self.i = len(prefix.tokens)
            self.scopes = [dict(prefix.typedefs)]
            self._bases = dict(prefix.bases)
            self._syntypes = dict(prefix.syntypes)
        kept = []
        while self._pad[self.i] is not None:
            decls.append(self.parse_external_declaration())
            while keep and keep[-1][0] <= self.i:
                end, key = keep.pop()
                if end == self.i:
                    kept.append(keep_prefix(self.unit, end, key, decls, self.scopes[0],
                                            self._bases, self._syntypes))
        start, end, via = self.extent_from(0)
        tu = TranslationUnitAst(decls, path=self.path, start=start, end=end, via=via)
        tu.started_from = prefix
        tu.kept = tuple(kept)
        return tu

    def parse_external_declaration(self) -> Node:
        start = self.i
        t = self.peek()
        if t is not None and t.is_ident("asm"):
            raise UnsupportedConstructError("inline assembly is not supported", t.report_site)
        base = self.parse_decl_specifiers()
        if self.at_punct(";"):
            self.pop()  # bare struct/union/enum declaration
            return self._finish(Declaration([], base), start)
        name, derivs, name_extent = self.parse_declarator(base)
        if derivs and isinstance(derivs[0], SynFunc) and self.at_punct("{"):
            return self._parse_function_def(base, name, derivs, start)
        if (
            derivs
            and isinstance(derivs[0], SynFunc)
            and self.peek() is not None
            and self.starts_declaration_ahead()
        ):
            raise UnsupportedConstructError(
                "K&R-style function definitions are not supported", self._here()
            )
        return self._parse_declaration_tail(base, name, derivs, name_extent, start)

    def starts_declaration_ahead(self) -> bool:
        t = self.peek()
        return t is not None and t.kind is _IDENT and t.lexeme in _TYPE_START

    def _parse_function_def(
        self, base: SynBase, name: str | None, derivs: list, start: int
    ) -> FunctionDef:
        if name is None:
            raise ParseError("function definition requires a name", self._here())
        func = derivs[0]
        params = func.params if func.params is not None else []
        for p in params:
            if p.name is None and not _is_void_param(p):
                raise ParseError(
                    f"unnamed parameter in definition of {name!r}", p.loc
                )
        self.declare_name(name, is_typedef=False)
        self.push_scope()
        for p in params:
            if p.name is not None:
                self.declare_name(p.name, is_typedef=False)
        body = self.parse_compound(push=False)
        self.pop_scope()
        syntype = SynType(base, tuple(derivs))
        node = FunctionDef(name, syntype, list(params), body)
        return self._finish(node, start)

    def _parse_declaration_tail(
        self, base: SynBase, name: str | None, derivs: list, name_extent: tuple, start: int
    ) -> Declaration:
        entries: list[DeclEntry] = []
        is_typedef = base.storage == "typedef"
        while True:
            if name is None:
                raise ParseError("declarator requires a name", unpack(name_extent[0]))
            init = None
            if self.at_punct("="):
                self.i += 1
                init = self.parse_initializer()
            entries.append(DeclEntry(name, self._syntype(base, derivs), init, *name_extent))
            self.declare_name(name, is_typedef)
            if not self.at_punct(","):
                break
            self.i += 1
            name, derivs, name_extent = self.parse_declarator(base)
        self.expect_punct(";")
        return self._finish(Declaration(entries, base), start)

    # ---- declaration specifiers -----------------------------------------

    def parse_decl_specifiers(self, allow_storage: bool = True) -> SynBase:
        specs: list[str] = []
        quals: set[str] = set()
        storage: str | None = None
        typedef_name: str | None = None
        # (kind, tag, members or enumerators) of a struct, union or enum specifier
        record: tuple[str, str | None, list | None] | None = None
        pad = self._pad
        start_tok = pad[self.i]

        # The word classes tested below are disjoint, so their order only
        # puts the common ones first.
        while True:
            t = pad[self.i]
            if t is None or t.kind is not _IDENT:
                break
            word = t.lexeme
            if word in _TYPE_SPECS:
                if record is not None:
                    self._reject_second_type_specifier(t)
                specs.append(word)
                self.i += 1
                continue
            if word in _QUALS:
                quals.add(word)
                self.i += 1
                continue
            if word in _STORAGE:
                if not allow_storage and word != "register":
                    raise ParseError(
                        f"storage class {word!r} not allowed here", t.report_site
                    )
                if storage is not None and word != storage:
                    raise ParseError("multiple storage classes", t.report_site)
                storage = word
                self.i += 1
                continue
            if word == "inline":
                self.i += 1
                continue
            if word in ("_Complex", "_Imaginary"):
                raise UnsupportedConstructError(
                    f"{word} types are not supported", t.report_site
                )
            if word in ("struct", "union", "enum"):
                if specs or typedef_name is not None or record is not None:
                    self._reject_second_type_specifier(t)
                record = self._parse_enum() if word == "enum" else self._parse_record(word)
                continue
            if (
                word not in KEYWORDS
                and typedef_name is None
                and not specs
                and record is None
                and self.is_typedef_name(word)
            ):
                typedef_name = word
                self.i += 1
                continue
            break

        if not specs and typedef_name is None and record is None:
            if start_tok is None:
                raise ParseError("expected declaration", self._here())
            raise ParseError(
                f"expected type specifier, got {start_tok.lexeme!r}",
                start_tok.report_site,
            )
        qualset = qualifier_set(quals)
        if record is None:
            key = (tuple(specs), typedef_name, None, None, None, None, qualset, storage)
        else:
            kind, tag, body = record
            members, enumerators = (None, body) if kind == "enum" else (body, None)
            key = ((), None, kind, tag, members, enumerators, qualset, storage)
            if body is not None:  # a definition is never shared
                return SynBase(*key)
        base = self._bases.get(key)
        if base is None:
            base = self._bases[key] = SynBase(*key)
        return base

    @staticmethod
    def _reject_second_type_specifier(t) -> None:
        """C99 6.7.2p2: a struct, union or enum specifier is a declaration's
        only type specifier."""
        raise ParseError(
            f"{t.lexeme!r} cannot be combined with a struct, union or enum specifier",
            t.report_site,
        )

    def _syntype(self, base: SynBase, derivs: list) -> SynType:
        """`base` under `derivs`, shared when every derivation is a pointer."""
        shape = tuple(derivs)
        for d in shape:
            if type(d) is not SynPtr:
                return SynType(base, shape)
        key = (base, shape)
        syntype = self._syntypes.get(key)
        if syntype is None:
            syntype = self._syntypes[key] = SynType(base, shape)
        return syntype

    def _parse_record(self, kind: str) -> tuple[str, str | None, list | None]:
        self.pop()  # struct/union
        tag: str | None = None
        t = self.peek()
        if t is not None and t.kind is _IDENT and t.lexeme not in KEYWORDS:
            tag = self.pop().lexeme
        members: list[RecordMember] | None = None
        if self.at_punct("{"):
            self.pop()
            members = []
            while not self.at_punct("}"):
                members.extend(self._parse_member_declaration())
            self.pop()
        elif tag is None:
            raise ParseError(f"{kind} requires a tag or a body", self._here())
        return kind, tag, members

    def _parse_member_declaration(self) -> list[RecordMember]:
        base = self.parse_decl_specifiers(allow_storage=False)
        out: list[RecordMember] = []
        while True:
            start = self.i
            name, derivs, extent = self.parse_declarator(base)
            if self.at_punct(":"):
                raise UnsupportedConstructError(
                    "bit-fields are not supported", self._here()
                )
            if name is None:
                raise ParseError("member declarator requires a name", unpack(extent[0]))
            if derivs and isinstance(derivs[0], SynArr) and derivs[0].size is None:
                raise UnsupportedConstructError(
                    "flexible array members are not supported", unpack(extent[0])
                )
            out.append(RecordMember(self._syntype(base, derivs), name, *extent))
            if self.at_punct(","):
                self.pop()
                continue
            self.expect_punct(";")
            return out

    def _parse_enum(self) -> tuple[str, str | None, list | None]:
        self.pop()  # enum
        tag: str | None = None
        t = self.peek()
        if t is not None and t.kind is _IDENT and t.lexeme not in KEYWORDS:
            tag = self.pop().lexeme
        enumerators: list[tuple[str, Optional[Expr]]] | None = None
        if self.at_punct("{"):
            self.pop()
            enumerators = []
            while not self.at_punct("}"):
                name_tok = self.expect_ident("enumerator name")
                value: Expr | None = None
                if self.at_punct("="):
                    self.pop()
                    value = self._expr(_CONDITIONAL)
                enumerators.append((name_tok.lexeme, value))
                self.declare_name(name_tok.lexeme, is_typedef=False)
                if self.at_punct(","):
                    self.pop()
                    continue
                break
            self.expect_punct("}")
        elif tag is None:
            raise ParseError("enum requires a tag or a body", self._here())
        return "enum", tag, enumerators

    # ---- declarators ------------------------------------------------------

    def parse_declarator(self, base: SynBase) -> tuple[str | None, list, tuple]:
        """(name, derivations, extent): the extent is `extent_from`'s."""
        start = self.i
        ptrs = self._parse_pointers()
        name, derivs = self._parse_direct_declarator()
        derivs += ptrs
        return name, derivs, self.extent_from(start)

    def _parse_direct_declarator(self) -> tuple[str | None, list]:
        name: str | None = None
        nested: list = []
        pad = self._pad
        t = pad[self.i]
        if t is not None and t.kind is _IDENT and t.lexeme not in KEYWORDS:
            name = t.lexeme
            self.i += 1
        elif t is not None and t.kind is _PUNCT and t.lexeme == "(":
            # '(' begins a nested declarator unless it opens a parameter
            # list of an abstract declarator.
            nxt = pad[self.i + 1]
            is_params = nxt is not None and (
                nxt.is_punct(")") or self._token_starts_type(nxt)
            )
            if not is_params:
                self.i += 1
                name, nested = self._parse_nested_declarator()
                self.expect_punct(")")
        suffixes: list = []
        while True:
            t = pad[self.i]
            if t is None or t.kind is not _PUNCT:
                break
            if t.lexeme == "[":
                self.i += 1
                if self.at_kw("static"):
                    raise UnsupportedConstructError(
                        "array parameter qualifiers are not supported", self._here()
                    )
                size: Expr | None = None
                if not self.at_punct("]"):
                    size = self._expr(_CONDITIONAL)
                self.expect_punct("]")
                suffixes.append(SynArr(size))
                continue
            if t.lexeme == "(":
                suffixes.append(self._parse_param_list())
                continue
            break
        return name, nested + suffixes

    def _parse_nested_declarator(self) -> tuple[str | None, list]:
        ptrs = self._parse_pointers()
        name, derivs = self._parse_direct_declarator()
        derivs += ptrs
        return name, derivs

    def _parse_pointers(self) -> list[SynPtr]:
        """The `*` prefixes of a declarator, innermost first."""
        ptrs: list[SynPtr] = []
        while self.at_punct("*"):
            self.i += 1
            quals: set[str] = set()
            while self.at_kw("const", "volatile", "restrict"):
                quals.add(self.pop().lexeme)
            ptrs.append(SYN_PTRS[qualifier_set(quals)])
        ptrs.reverse()
        return ptrs

    def _token_starts_type(self, t: PPToken) -> bool:
        if t.kind is not _IDENT:
            return False
        return t.lexeme in _TYPE_START or (
            t.lexeme not in KEYWORDS and self.is_typedef_name(t.lexeme)
        )

    def _parse_param_list(self) -> SynFunc:
        self.expect_punct("(")
        if self.at_punct(")"):
            self.pop()
            return SynFunc(params=None)  # unspecified parameters
        first, after = self.peek(), self.peek(1)
        if self.at_kw("void") and after is not None and after.is_punct(")"):
            self.i += 2
            return SynFunc(params=[])
        if (
            first is not None
            and first.kind is _IDENT
            and first.lexeme not in KEYWORDS
            and not self._token_starts_type(first)
            and after is not None
            and (after.is_punct(",") or after.is_punct(")"))
        ):
            raise UnsupportedConstructError(
                "K&R-style parameter identifier lists are not supported",
                first.report_site,
            )
        params: list[SynParam] = []
        variadic = False
        while True:
            if self.at_punct("..."):
                self.pop()
                variadic = True
                break
            base = self.parse_decl_specifiers(allow_storage=False)
            name, derivs, extent = self.parse_declarator(base)
            params.append(SynParam(self._syntype(base, derivs), name, *extent))
            if self.at_punct(","):
                self.pop()
                continue
            break
        self.expect_punct(")")
        return SynFunc(params=params, variadic=variadic)

    def parse_type_name(self) -> SynType:
        base = self.parse_decl_specifiers(allow_storage=False)
        name, derivs, extent = self.parse_declarator(base)
        if name is not None:
            raise ParseError("type name must be abstract", unpack(extent[0]))
        return self._syntype(base, derivs)

    def parse_initializer(self) -> Expr:
        if self.at_punct("{"):
            start = self.i
            self.pop()
            elements: list[Expr] = []
            while not self.at_punct("}"):
                if self.at_punct(".", "["):
                    raise UnsupportedConstructError(
                        "designated initializers are not supported", self._here()
                    )
                elements.append(self.parse_initializer())
                if self.at_punct(","):
                    self.pop()
                    continue
                break
            self.expect_punct("}")
            return self._finish(InitList(elements), start)
        return self._expr(_ASSIGNMENT)

    # ---- statements -------------------------------------------------------

    def parse_compound(self, push: bool = True) -> CompoundStmt:
        start = self.i
        self.expect_punct("{")
        if push:
            self.push_scope()
        items: list[Node] = []
        pad = self._pad
        while True:
            t = pad[self.i]
            if t is None:
                raise ParseError("unterminated block: expected '}'", self._last_loc())
            if t.kind is _PUNCT and t.lexeme == "}":
                break
            if self.starts_declaration() and not self._is_label_ahead():
                items.append(self.parse_declaration_stmt())
            else:
                items.append(self.parse_statement())
        self.i += 1
        if push:
            self.pop_scope()
        return self._finish(CompoundStmt(items), start)

    def parse_declaration_stmt(self) -> Declaration:
        start = self.i
        base = self.parse_decl_specifiers()
        if self.at_punct(";"):
            self.i += 1
            return self._finish(Declaration([], base), start)
        name, derivs, sp = self.parse_declarator(base)
        return self._parse_declaration_tail(base, name, derivs, sp, start)

    def _is_label_ahead(self) -> bool:
        t, n = self.peek(), self.peek(1)
        return (
            t is not None
            and n is not None
            and t.kind is _IDENT
            and t.lexeme not in KEYWORDS
            and n.is_punct(":")
        )

    def parse_statement(self) -> Stmt:
        start = self.i
        t = self._pad[start]
        if t is None:
            raise ParseError("expected statement", self._last_loc())
        kind = t.kind
        word = t.lexeme

        if kind is _IDENT:
            if word in _BLOCK_KEYWORDS:
                return self._parse_block_statement(start, t)
            if word in _JUMP_KEYWORDS:
                self.i += 1
                if word == "return":
                    value = None
                    if not self.at_punct(";"):
                        value = self._expr(_EXPRESSION)
                    self.expect_punct(";")
                    return self._finish(Return(value), start)
                if word == "break":
                    self.expect_punct(";")
                    return self._finish(Break(), start)
                if word == "continue":
                    self.expect_punct(";")
                    return self._finish(Continue(), start)
                if word == "goto":
                    label = self.expect_ident("label name").lexeme
                    self.expect_punct(";")
                    return self._finish(Goto(label), start)
                if word == "case":
                    expr = self._expr(_CONDITIONAL)
                    self.expect_punct(":")
                    stmt = self.parse_statement()
                    return self._finish(Label("case", None, expr, stmt), start)
                self.expect_punct(":")  # default
                stmt = self.parse_statement()
                return self._finish(Label("default", None, None, stmt), start)
            if word == "asm":
                raise UnsupportedConstructError(
                    "inline assembly is not supported", t.report_site
                )
            if self._is_label_ahead():
                self.i += 2  # name, ':'
                stmt = self.parse_statement()
                return self._finish(Label("named", word, None, stmt), start)
        elif kind is _PUNCT:
            if word == "{":
                return self._parse_block_statement(start, t)
            if word == ";":
                self.i += 1
                return self._finish(ExprStmt(None), start)

        expr = self._expr(_EXPRESSION)
        self.expect_punct(";")
        return self._finish(ExprStmt(expr), start)

    def _parse_block_statement(self, start: int, t: PPToken) -> Stmt:
        """A compound, selection or iteration statement; `t` is its first token."""
        self.block_depth += 1
        if self.block_depth > BLOCK_NESTING_LIMIT:
            raise UnsupportedConstructError(
                f"blocks nested more than {BLOCK_NESTING_LIMIT} levels deep",
                t.report_site,
            )
        word = t.lexeme
        if word == "{":
            stmt: Stmt = self.parse_compound()
        elif word == "if":
            stmt = self._parse_if(start)
        elif word == "switch":
            self.i += 1
            self.expect_punct("(")
            cond = self._expr(_EXPRESSION)
            self.expect_punct(")")
            body = self.parse_statement()
            stmt = self._finish(Switch(cond, body), start)
        elif word == "while":
            self.i += 1
            self.expect_punct("(")
            cond = self._expr(_EXPRESSION)
            self.expect_punct(")")
            body = self.parse_statement()
            stmt = self._finish(While(cond, body), start)
        elif word == "do":
            self.i += 1
            body = self.parse_statement()
            if not self.at_kw("while"):
                raise ParseError("expected 'while' after do-body", self._here())
            self.i += 1
            self.expect_punct("(")
            cond = self._expr(_EXPRESSION)
            self.expect_punct(")")
            self.expect_punct(";")
            stmt = self._finish(DoWhile(body, cond), start)
        else:
            stmt = self._parse_for(start)
        self.block_depth -= 1
        return stmt

    def _parse_if(self, start: int) -> If:
        self.i += 1
        self.expect_punct("(")
        cond = self._expr(_EXPRESSION)
        self.expect_punct(")")
        then = self.parse_statement()
        els: Stmt | None = None
        if self.at_kw("else"):
            self.i += 1
            els = self.parse_statement()
        return self._finish(If(cond, then, els), start)

    def _parse_for(self, start: int) -> For:
        self.i += 1
        self.expect_punct("(")
        self.push_scope()
        init: Node | None = None
        if self.at_punct(";"):
            self.i += 1
        elif self.starts_declaration():
            init = self.parse_declaration_stmt()
        else:
            init_expr = self._expr(_EXPRESSION)
            self.expect_punct(";")
            init = init_expr
        cond: Expr | None = None
        if not self.at_punct(";"):
            cond = self._expr(_EXPRESSION)
        self.expect_punct(";")
        step: Expr | None = None
        if not self.at_punct(")"):
            step = self._expr(_EXPRESSION)
        self.expect_punct(")")
        body = self.parse_statement()
        self.pop_scope()
        return self._finish(For(init, cond, step, body), start)

    # ---- expressions ------------------------------------------------------

    def _expr(self, min_level: int) -> Expr:
        """An expression whose operators all bind at `min_level` or tighter.

        One loop takes every infix operator, after Pratt, "Top down
        operator precedence" (POPL 1973): it parses an operand, then
        while the next token is an operator of `min_level` or tighter,
        takes it and its right operand, which holds only operators that
        bind tighter (a left-associative level) or as tight (a
        right-associative one). Every node the loop builds spans from its
        first operand's first token.

        The first operand is read here, as Pratt's "null denotation" of
        its token, when it is a leaf: an identifier that is no keyword, a
        pp-number, or a `(` that opens no type name, whose inner
        expression this loop parses again. Any postfix operators after
        the leaf go to `_postfix_tail`. Every other operand (prefix
        operators, casts, `sizeof`, character constants, strings and
        every error) goes through `parse_cast`.
        """
        start = self.i
        pad = self._pad
        t = pad[start]
        kind = t.kind if t is not None else None
        if kind is _IDENT and t.lexeme not in KEYWORDS or kind is _NUMBER:
            self.i = start + 1
            if kind is _IDENT:
                left: Expr = Identifier(t.lexeme)
            else:
                value, is_float = _parse_number(t)
                left = Constant(t.lexeme, value, is_float)
            # `_finish` over the one token, inline.
            via = t.chain
            left.start = left.end = via[0].pos if via else t.pos
            left.via = via
        elif kind is _PUNCT and t.lexeme == "(" and not self._paren_opens_type():
            self._open_paren()
            left = self._expr(_EXPRESSION)
            self._close_paren()
        else:
            left = self.parse_cast()  # with any postfix operators of its own
            kind = None
        if kind is not None:
            t = pad[self.i]
            if t is not None and t.kind is _PUNCT and t.lexeme in _POSTFIX_OPS:
                left = self._postfix_tail(left, start)
        while True:
            t = pad[self.i]
            if t is None or t.kind is not _PUNCT:
                return left
            op = t.lexeme
            level = _INFIX_LEVEL.get(op)
            if level is None or level < min_level:
                return left
            self.i += 1
            if level > _CONDITIONAL:
                left = self._finish(Binary(op, left, self._expr(level + 1)), start)
            elif level == _CONDITIONAL:
                then = self._expr(_EXPRESSION)
                self.expect_punct(":")
                left = self._finish(Conditional(left, then, self._expr(_CONDITIONAL)), start)
            elif level == _ASSIGNMENT:
                right = self._expr(_ASSIGNMENT)
                base_op = _ASSIGN_OPS[op]
                node = Assign(left, right) if base_op is None else CompoundAssign(base_op, left, right)
                left = self._finish(node, start)
            else:
                left = self._finish(Comma(left, self._expr(_ASSIGNMENT)), start)

    def _open_paren(self) -> None:
        t = self.pop()
        self.paren_depth += 1
        if self.paren_depth > PAREN_NESTING_LIMIT:
            raise UnsupportedConstructError(
                f"parentheses nested more than {PAREN_NESTING_LIMIT} levels deep",
                t.report_site,
            )

    def _close_paren(self) -> None:
        self.expect_punct(")")
        self.paren_depth -= 1

    def parse_cast(self) -> Expr:
        start = self.i
        t = self._pad[start]
        if t is not None:
            kind = t.kind
            # An identifier or a number can only begin a postfix expression.
            if kind is _IDENT and t.lexeme not in KEYWORDS or kind is _NUMBER:
                return self.parse_postfix()
            if kind is _PUNCT and t.lexeme == "(" and self._paren_opens_type():
                self.i += 1
                type_name = self.parse_type_name()
                self.expect_punct(")")
                if self.at_punct("{"):
                    raise UnsupportedConstructError(
                        "compound literals are not supported", self._here()
                    )
                operand = self.parse_cast()
                return self._finish(Cast(type_name, operand), start)
        return self.parse_unary()

    def _paren_opens_type(self) -> bool:
        nxt = self._pad[self.i + 1]
        return nxt is not None and self._token_starts_type(nxt)

    def parse_unary(self) -> Expr:
        start = self.i
        t = self._pad[start]
        if t is None:
            raise ParseError("expected expression", self._last_loc())
        if t.kind is _PUNCT:
            op = t.lexeme
            if op in ("++", "--"):
                self.i += 1
                operand = self.parse_unary()
                return self._finish(IncDec(op, True, operand), start)
            if op == "&":
                self.i += 1
                return self._finish(AddrOf(self.parse_cast()), start)
            if op == "*":
                self.i += 1
                return self._finish(Deref(self.parse_cast()), start)
            if op in ("+", "-", "~", "!"):
                self.i += 1
                return self._finish(Unary(op, self.parse_cast()), start)
        elif t.kind is _IDENT and t.lexeme == "sizeof":
            self.i += 1
            if self.at_punct("(") and self._paren_opens_type():
                self.i += 1
                type_name = self.parse_type_name()
                self.expect_punct(")")
                return self._finish(Sizeof(type_name, None), start)
            operand = self.parse_unary()
            return self._finish(Sizeof(None, operand), start)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        start = self.i
        return self._postfix_tail(self.parse_primary(), start)

    def _postfix_tail(self, expr: Expr, start: int) -> Expr:
        """`expr`, which began at token `start`, under the postfix operators
        that follow it (C99 6.5.2); `parse_postfix` and `_expr` share it."""
        pad = self._pad
        while True:
            t = pad[self.i]
            if t is None or t.kind is not _PUNCT or t.lexeme not in _POSTFIX_OPS:
                return expr
            op = t.lexeme
            if op == "(":
                self._open_paren()
                args: list[Expr] = []
                if not self.at_punct(")"):
                    args.append(self._expr(_ASSIGNMENT))
                    while self.at_punct(","):
                        self.i += 1
                        args.append(self._expr(_ASSIGNMENT))
                self._close_paren()
                expr = self._finish(Call(expr, args), start)
            elif op == "[":
                self.i += 1
                index = self._expr(_EXPRESSION)
                self.expect_punct("]")
                expr = self._finish(Index(expr, index), start)
            elif op == "." or op == "->":
                self.i += 1
                name = self.expect_ident("member name").lexeme
                expr = self._finish(Member(expr, name, op == "->"), start)
            else:
                self.i += 1
                expr = self._finish(IncDec(op, False, expr), start)

    def parse_primary(self) -> Expr:
        start = self.i
        t = self._pad[start]
        if t is None:
            raise ParseError("expected expression", self._last_loc())
        kind = t.kind
        if kind is _IDENT:
            if t.lexeme in KEYWORDS:
                raise ParseError(
                    f"unexpected keyword {t.lexeme!r} in expression", t.report_site
                )
            self.i += 1
            return self._finish(Identifier(t.lexeme), start)
        if kind is _NUMBER:
            self.i += 1
            value, is_float = _parse_number(t)
            return self._finish(Constant(t.lexeme, value, is_float), start)
        if kind is _PUNCT and t.lexeme == "(":
            self._open_paren()
            inner = self._expr(_EXPRESSION)
            self._close_paren()
            return inner
        if kind is TokenKind.CHAR_CONST:
            self.i += 1
            units = _literal_units(t)
            if len(units) != 1:
                raise UnsupportedConstructError(
                    f"multi-character constant {t.lexeme}", t.report_site)
            value = units[0] - 256 if units[0] > 127 else units[0]  # plain char is signed
            return self._finish(Constant(t.lexeme, value, False), start)
        if kind is TokenKind.STRING:
            parts = [t]
            self.i += 1
            while True:
                n = self._pad[self.i]
                if n is not None and n.kind is TokenKind.STRING:
                    parts.append(n)
                    self.i += 1
                else:
                    break
            value = "".join(chr(u) for p in parts for u in _literal_units(p))
            return self._finish(StringLiteral(value), start)
        raise ParseError(f"unexpected token {t.lexeme!r}", t.report_site)


def _is_void_param(p: SynParam) -> bool:
    return p.syntype.base.specs == ("void",) and not p.syntype.derivs


# C99 6.4.4.2 decimal floating constants, and hexadecimal ones, which are
# valid C99 outside the supported subset; the binary exponent is required.
_FLOAT_CONSTANT = re.compile(
    r"(?:(?:[0-9]*\.[0-9]+|[0-9]+\.)(?:[eE][+-]?[0-9]+)?|[0-9]+[eE][+-]?[0-9]+)[fFlL]?"
)
_HEX_FLOAT_CONSTANT = re.compile(
    r"0[xX](?:[0-9a-fA-F]*\.[0-9a-fA-F]+|[0-9a-fA-F]+\.?)[pP][+-]?[0-9]+[fFlL]?"
)


def _parse_number(tok: PPToken) -> tuple[int | float, bool]:
    text = tok.lexeme
    value = int_constant_value(text)
    if value is not None:
        return value, False
    if _FLOAT_CONSTANT.fullmatch(text):
        return float(text.rstrip("fFlL")), True
    if _HEX_FLOAT_CONSTANT.fullmatch(text):
        raise UnsupportedConstructError(
            f"hexadecimal floating constant {text} is not supported", tok.report_site)
    raise ParseError(f"invalid numeric constant {text!r}", tok.report_site)


def parse(tokens: list[PPToken], path: str = "<tu>") -> TranslationUnitAst:
    """Parse a preprocessed token stream into a translation unit AST.

    `UnitTokens` from `preprocess` share a repeated header prefix with the
    run's earlier units (see `parsing.prefix`); a plain list shares nothing.
    """
    return Parser(tokens, path).parse_translation_unit()
