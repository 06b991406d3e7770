"""The recursive-descent parser before its cursor was padded, kept as a test oracle.

`ccomply.parsing.parse` must give exactly this parser's tree, field for
field (spans, token indices and expansion trails included), or raise the
same exception class with the same message and location, on every input
(see `test_parser_oracle.py`). The code below is the earlier parser
verbatim, except in three places. It builds spans of the frozen dataclass
`Span` defined here, the type the earlier `ccomply.source` had, from the
tokens' decoded positions, and packs them into the tree's inline extents
(`_extent`). Its declaration specifiers reject a second type specifier
next to a struct, union or enum specifier (C99 6.7.2p2) with the parser's
message, and a hexadecimal floating constant raises the parser's
`UnsupportedConstructError`: the parser learned both after this copy was
taken. Nothing under `src/` imports it.

Typedef names are tracked in a parse-time scope stack (the classic
lexer-feedback approach) so `T * x;` parses as a declaration exactly
when T is a visible typedef name. Excluded grammar raises
UnsupportedConstructError; malformed input raises ParseError with the
nearest token and an expected-token hint.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Optional

from ccomply.errors import ParseError, UnsupportedConstructError
from ccomply.frontend.lexer import PPToken, TokenKind, int_constant_value, literal_units
from ccomply.frontend.preprocessor import PAREN_NESTING_LIMIT
from ccomply.parsing.astnodes import (
    AddrOf, Assign, Binary, Break, Call, Cast, Comma, CompoundAssign,
    CompoundStmt, Conditional, Constant, Continue, DeclEntry, Declaration,
    Deref, DoWhile, Expr, ExprStmt, For, FunctionDef, Goto, Identifier, If,
    IncDec, Index, InitList, Label, Member, Node, RecordMember, Return,
    Sizeof, Stmt, StringLiteral, Switch, SynArr, SynBase, SynFunc, SynParam,
    SynPtr, SynType, TranslationUnitAst, Unary, While, qualifier_set,
)
from ccomply.source import ExpansionFrame, Location, pack


@dataclass(frozen=True)
class Span:
    """Source extent of a token run or AST node (the earlier frozen dataclass)."""

    start: Location
    end: Location
    via: tuple[ExpansionFrame, ...] = ()


def _extent(span: Span) -> tuple[int, int, tuple[ExpansionFrame, ...]]:
    """The inline (start, end, via) fields a tree node keeps for `span`."""
    return pack(*span.start), pack(*span.end), span.via


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

_ASSIGN_OPS = {
    "=": None, "*=": "*", "/=": "/", "%=": "%", "+=": "+", "-=": "-",
    "<<=": "<<", ">>=": ">>", "&=": "&", "^=": "^", "|=": "|",
}

_BINARY_LEVELS = [
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
_BINARY_PREC = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}

# Compound, selection and iteration statements open inside one function
# body. C99 5.2.4.1 requires 127 nesting levels of blocks; deeper nesting is
# rejected before the recursive descent exhausts Python's stack, as
# PAREN_NESTING_LIMIT does for parentheses (grouping and call argument lists)
# inside one full expression.
BLOCK_NESTING_LIMIT = 127
_BLOCK_KEYWORDS = frozenset({"if", "switch", "while", "do", "for"})

def _literal_units(t: PPToken) -> list[int]:
    units = literal_units(t.lexeme)
    if units is None:
        raise ParseError(f"malformed escape sequence in {t.lexeme}", t.report_site)
    return units


class _Scope:
    def __init__(self) -> None:
        self.names: dict[str, str] = {}  # name -> 'typedef' | 'ordinary'


def _reject_second_type_specifier(t: PPToken) -> None:
    raise ParseError(
        f"{t.lexeme!r} cannot be combined with a struct, union or enum specifier",
        t.report_site,
    )


class Parser:
    def __init__(self, tokens: list[PPToken], path: str = "<tu>"):
        from ccomply.builtins import BUILTIN_TYPEDEF_NAMES

        self.toks = tokens
        self.i = 0
        self.path = path
        self.paren_depth = 0
        self.block_depth = 0
        self.scopes: list[_Scope] = [_Scope()]
        for name in BUILTIN_TYPEDEF_NAMES:
            self.scopes[0].names[name] = "typedef"

    # ---- cursor ---------------------------------------------------------

    def peek(self, ahead: int = 0) -> PPToken | None:
        j = self.i + ahead
        return self.toks[j] if j < len(self.toks) else None

    def at_punct(self, *lexemes: str) -> bool:
        t = self.peek()
        return t is not None and t.kind is TokenKind.PUNCT and t.lexeme in lexemes

    def at_kw(self, *names: str) -> bool:
        t = self.peek()
        return t is not None and t.kind is TokenKind.IDENT and t.lexeme in names

    def pop(self) -> PPToken:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", self._last_loc())
        self.i += 1
        return t

    def expect_punct(self, lexeme: str) -> PPToken:
        t = self.peek()
        if t is None or not t.is_punct(lexeme):
            got = t.lexeme if t else "end of input"
            raise ParseError(f"expected {lexeme!r}, got {got!r}", self._here())
        return self.pop()

    def expect_ident(self, what: str = "identifier") -> PPToken:
        t = self.peek()
        if t is None or t.kind is not TokenKind.IDENT or t.lexeme in KEYWORDS:
            got = t.lexeme if t else "end of input"
            raise ParseError(f"expected {what}, got {got!r}", self._here())
        return self.pop()

    def _here(self) -> Location | None:
        t = self.peek()
        return t.report_site if t else self._last_loc()

    def _last_loc(self) -> Location | None:
        return self.toks[-1].report_site if self.toks else None

    def span_from(self, start_index: int) -> Span:
        end_index = max(start_index, self.i - 1)
        if not self.toks:
            loc = Location(0, 1, 1)
            return Span(loc, loc)
        start_index = min(start_index, len(self.toks) - 1)
        end_index = min(end_index, len(self.toks) - 1)
        first = self.toks[start_index]
        last = self.toks[end_index]
        return Span(first.report_site, last.report_site, via=first.chain)

    def _finish(self, node: Node, start_index: int) -> Node:
        node.start, node.end, node.via = _extent(self.span_from(start_index))
        return node

    # ---- scopes ---------------------------------------------------------

    def push_scope(self) -> None:
        self.scopes.append(_Scope())

    def pop_scope(self) -> None:
        self.scopes.pop()

    def declare_name(self, name: str, is_typedef: bool) -> None:
        self.scopes[-1].names[name] = "typedef" if is_typedef else "ordinary"

    def is_typedef_name(self, name: str) -> bool:
        for scope in reversed(self.scopes):
            kind = scope.names.get(name)
            if kind is not None:
                return kind == "typedef"
        return False

    def starts_declaration(self) -> bool:
        t = self.peek()
        if t is None or t.kind is not TokenKind.IDENT:
            return False
        if t.lexeme in _TYPE_SPECS or t.lexeme in _STORAGE or t.lexeme in _QUALS:
            return True
        if t.lexeme in ("struct", "union", "enum", "inline"):
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
        decls: list[Node] = []
        while self.peek() is not None:
            decls.append(self.parse_external_declaration())
        return self._finish(TranslationUnitAst(decls, path=self.path), 0)

    def parse_external_declaration(self) -> Node:
        start = self.i
        t = self.peek()
        if t is not None and t.is_ident("asm"):
            raise UnsupportedConstructError("inline assembly is not supported", t.report_site)
        base = self.parse_decl_specifiers()
        if self.at_punct(";"):
            self.pop()  # bare struct/union/enum declaration
            return self._finish(Declaration([], base), start)
        name, derivs, name_span = self.parse_declarator(base)
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
        return self._parse_declaration_tail(base, name, derivs, name_span, start)

    def starts_declaration_ahead(self) -> bool:
        t = self.peek()
        if t is None or t.kind is not TokenKind.IDENT:
            return False
        return t.lexeme in _TYPE_SPECS or t.lexeme in _QUALS or t.lexeme in (
            "struct", "union", "enum",
        )

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
                    f"unnamed parameter in definition of {name!r}", p.span.start
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
        self, base: SynBase, name: str | None, derivs: list, name_span: Span, start: int
    ) -> Declaration:
        entries: list[DeclEntry] = []

        def add_entry(nm: str | None, dv: list, sp: Span) -> None:
            if nm is None:
                raise ParseError("declarator requires a name", sp.start)
            init = None
            if self.at_punct("="):
                self.pop()
                init = self.parse_initializer()
            entries.append(DeclEntry(nm, SynType(base, tuple(dv)), init, *_extent(sp)))
            self.declare_name(nm, is_typedef=(base.storage == "typedef"))

        add_entry(name, derivs, name_span)
        while self.at_punct(","):
            self.pop()
            nm, dv, sp = self.parse_declarator(base)
            add_entry(nm, dv, sp)
        self.expect_punct(";")
        return self._finish(Declaration(entries, base), start)

    # ---- declaration specifiers -----------------------------------------

    def parse_decl_specifiers(self, allow_storage: bool = True) -> SynBase:
        specs: list[str] = []
        quals: set[str] = set()
        storage: str | None = None
        typedef_name: str | None = None
        record: SynBase | None = None
        start_tok = self.peek()

        while True:
            t = self.peek()
            if t is None or t.kind is not TokenKind.IDENT:
                break
            word = t.lexeme
            if word in ("_Complex", "_Imaginary"):
                raise UnsupportedConstructError(
                    f"{word} types are not supported", t.report_site
                )
            if word in _STORAGE:
                if not allow_storage and word != "register":
                    raise ParseError(
                        f"storage class {word!r} not allowed here", t.report_site
                    )
                if storage is not None and word != storage:
                    raise ParseError("multiple storage classes", t.report_site)
                storage = word
                self.pop()
                continue
            if word in _QUALS:
                quals.add(word)
                self.pop()
                continue
            if word == "inline":
                self.pop()
                continue
            if word in _TYPE_SPECS:
                if record is not None:
                    _reject_second_type_specifier(t)
                specs.append(word)
                self.pop()
                continue
            if word in ("struct", "union", "enum"):
                if specs or typedef_name is not None or record is not None:
                    _reject_second_type_specifier(t)
            if word in ("struct", "union"):
                record = self._parse_record(word)
                continue
            if word == "enum":
                record = self._parse_enum()
                continue
            if (
                word not in KEYWORDS
                and typedef_name is None
                and not specs
                and record is None
                and self.is_typedef_name(word)
            ):
                typedef_name = word
                self.pop()
                continue
            break

        if not specs and typedef_name is None and record is None:
            if start_tok is None:
                raise ParseError("expected declaration", self._here())
            raise ParseError(
                f"expected type specifier, got {start_tok.lexeme!r}",
                start_tok.report_site,
            )
        if record is not None:
            # Syntactic types are frozen: copy the record with its qualifiers and storage.
            return replace(record, quals=qualifier_set(quals), storage=storage)
        return SynBase(
            specs=tuple(specs),
            typedef_name=typedef_name,
            quals=qualifier_set(quals),
            storage=storage,
        )

    def _parse_record(self, kind: str) -> SynBase:
        self.pop()  # struct/union
        tag: str | None = None
        t = self.peek()
        if t is not None and t.kind is TokenKind.IDENT and t.lexeme not in KEYWORDS:
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
        return SynBase(record_kind=kind, tag=tag, members=members)

    def _parse_member_declaration(self) -> list[RecordMember]:
        base = self.parse_decl_specifiers(allow_storage=False)
        out: list[RecordMember] = []
        while True:
            start = self.i
            name, derivs, sp = self.parse_declarator(base)
            if self.at_punct(":"):
                raise UnsupportedConstructError(
                    "bit-fields are not supported", self._here()
                )
            if name is None:
                raise ParseError("member declarator requires a name", sp.start)
            if derivs and isinstance(derivs[0], SynArr) and derivs[0].size is None:
                raise UnsupportedConstructError(
                    "flexible array members are not supported", sp.start
                )
            out.append(RecordMember(SynType(base, tuple(derivs)), name, *_extent(sp)))
            if self.at_punct(","):
                self.pop()
                continue
            self.expect_punct(";")
            return out

    def _parse_enum(self) -> SynBase:
        self.pop()  # enum
        tag: str | None = None
        t = self.peek()
        if t is not None and t.kind is TokenKind.IDENT and t.lexeme not in KEYWORDS:
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
                    value = self.parse_conditional()
                enumerators.append((name_tok.lexeme, value))
                self.declare_name(name_tok.lexeme, is_typedef=False)
                if self.at_punct(","):
                    self.pop()
                    continue
                break
            self.expect_punct("}")
        elif tag is None:
            raise ParseError("enum requires a tag or a body", self._here())
        return SynBase(record_kind="enum", tag=tag, enumerators=enumerators)

    # ---- declarators ------------------------------------------------------

    def parse_declarator(self, base: SynBase) -> tuple[str | None, list, Span]:
        start = self.i
        ptrs: list[SynPtr] = []
        while self.at_punct("*"):
            self.pop()
            quals: set[str] = set()
            while self.at_kw("const", "volatile", "restrict"):
                quals.add(self.pop().lexeme)
            ptrs.append(SynPtr(qualifier_set(quals)))
        name, inner = self._parse_direct_declarator()
        derivs = inner + list(reversed(ptrs))
        return name, derivs, self.span_from(start)

    def _parse_direct_declarator(self) -> tuple[str | None, list]:
        name: str | None = None
        nested: list = []
        t = self.peek()
        if t is not None and t.is_punct("("):
            # '(' begins a nested declarator unless it opens a parameter
            # list of an abstract declarator.
            nxt = self.peek(1)
            is_params = nxt is not None and (
                nxt.is_punct(")") or self._token_starts_type(nxt)
            )
            if not is_params:
                self.pop()
                name, nested = self._parse_nested_declarator()
                self.expect_punct(")")
        elif t is not None and t.kind is TokenKind.IDENT and t.lexeme not in KEYWORDS:
            name = self.pop().lexeme
        suffixes: list = []
        while True:
            if self.at_punct("["):
                self.pop()
                if self.at_kw("static"):
                    raise UnsupportedConstructError(
                        "array parameter qualifiers are not supported", self._here()
                    )
                size: Expr | None = None
                if not self.at_punct("]"):
                    size = self.parse_conditional()
                self.expect_punct("]")
                suffixes.append(SynArr(size))
                continue
            if self.at_punct("("):
                suffixes.append(self._parse_param_list())
                continue
            break
        return name, nested + suffixes

    def _parse_nested_declarator(self) -> tuple[str | None, list]:
        ptrs: list[SynPtr] = []
        while self.at_punct("*"):
            self.pop()
            quals: set[str] = set()
            while self.at_kw("const", "volatile", "restrict"):
                quals.add(self.pop().lexeme)
            ptrs.append(SynPtr(qualifier_set(quals)))
        name, inner = self._parse_direct_declarator()
        return name, inner + list(reversed(ptrs))

    def _token_starts_type(self, t: PPToken) -> bool:
        if t.kind is not TokenKind.IDENT:
            return False
        return (
            t.lexeme in _TYPE_SPECS
            or t.lexeme in _QUALS
            or t.lexeme in ("struct", "union", "enum")
            or (t.lexeme not in KEYWORDS and self.is_typedef_name(t.lexeme))
        )

    def _parse_param_list(self) -> SynFunc:
        self.expect_punct("(")
        if self.at_punct(")"):
            self.pop()
            return SynFunc(params=None)  # unspecified parameters
        if self.at_kw("void") and self.peek(1) is not None and self.peek(1).is_punct(")"):
            self.pop()
            self.pop()
            return SynFunc(params=[])
        first = self.peek()
        after = self.peek(1)
        if (
            first is not None
            and first.kind is TokenKind.IDENT
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
            start = self.i
            base = self.parse_decl_specifiers(allow_storage=False)
            name, derivs, sp = self.parse_declarator(base)
            params.append(SynParam(SynType(base, tuple(derivs)), name, *_extent(sp)))
            if self.at_punct(","):
                self.pop()
                continue
            break
        self.expect_punct(")")
        return SynFunc(params=params, variadic=variadic)

    def parse_type_name(self) -> SynType:
        base = self.parse_decl_specifiers(allow_storage=False)
        name, derivs, sp = self.parse_declarator(base)
        if name is not None:
            raise ParseError("type name must be abstract", sp.start)
        return SynType(base, tuple(derivs))

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
        return self.parse_assignment()

    # ---- statements -------------------------------------------------------

    def parse_compound(self, push: bool = True) -> CompoundStmt:
        start = self.i
        self.expect_punct("{")
        if push:
            self.push_scope()
        items: list[Node] = []
        while not self.at_punct("}"):
            if self.peek() is None:
                raise ParseError("unterminated block: expected '}'", self._last_loc())
            if self.starts_declaration() and not self._is_label_ahead():
                items.append(self.parse_declaration_stmt())
            else:
                items.append(self.parse_statement())
        self.pop()
        if push:
            self.pop_scope()
        return self._finish(CompoundStmt(items), start)

    def parse_declaration_stmt(self) -> Declaration:
        start = self.i
        base = self.parse_decl_specifiers()
        if self.at_punct(";"):
            self.pop()
            return self._finish(Declaration([], base), start)
        name, derivs, sp = self.parse_declarator(base)
        return self._parse_declaration_tail(base, name, derivs, sp, start)

    def _is_label_ahead(self) -> bool:
        t, n = self.peek(), self.peek(1)
        return (
            t is not None
            and n is not None
            and t.kind is TokenKind.IDENT
            and t.lexeme not in KEYWORDS
            and n.is_punct(":")
        )

    def parse_statement(self) -> Stmt:
        start = self.i
        t = self.peek()
        if t is None:
            raise ParseError("expected statement", self._last_loc())

        if t.is_punct("{") or (t.kind is TokenKind.IDENT and t.lexeme in _BLOCK_KEYWORDS):
            self.block_depth += 1
            if self.block_depth > BLOCK_NESTING_LIMIT:
                raise UnsupportedConstructError(
                    f"blocks nested more than {BLOCK_NESTING_LIMIT} levels deep",
                    t.report_site,
                )
            stmt = self._parse_block_statement(start, t.lexeme)
            self.block_depth -= 1
            return stmt
        if t.is_punct(";"):
            self.pop()
            return self._finish(ExprStmt(None), start)

        if t.kind is TokenKind.IDENT:
            word = t.lexeme
            if word == "goto":
                self.pop()
                label = self.expect_ident("label name").lexeme
                self.expect_punct(";")
                return self._finish(Goto(label), start)
            if word == "continue":
                self.pop()
                self.expect_punct(";")
                return self._finish(Continue(), start)
            if word == "break":
                self.pop()
                self.expect_punct(";")
                return self._finish(Break(), start)
            if word == "return":
                self.pop()
                value = None
                if not self.at_punct(";"):
                    value = self.parse_expression()
                self.expect_punct(";")
                return self._finish(Return(value), start)
            if word == "case":
                self.pop()
                expr = self.parse_conditional()
                self.expect_punct(":")
                stmt = self.parse_statement()
                return self._finish(Label("case", None, expr, stmt), start)
            if word == "default":
                self.pop()
                self.expect_punct(":")
                stmt = self.parse_statement()
                return self._finish(Label("default", None, None, stmt), start)
            if word == "asm":
                raise UnsupportedConstructError(
                    "inline assembly is not supported", t.report_site
                )
            if self._is_label_ahead():
                name = self.pop().lexeme
                self.pop()  # ':'
                stmt = self.parse_statement()
                return self._finish(Label("named", name, None, stmt), start)

        expr = self.parse_expression()
        self.expect_punct(";")
        return self._finish(ExprStmt(expr), start)

    def _parse_block_statement(self, start: int, word: str) -> Stmt:
        """A compound, selection or iteration statement; `word` is its first token."""
        if word == "{":
            return self.parse_compound()
        if word == "if":
            return self._parse_if(start)
        if word == "switch":
            self.pop()
            self.expect_punct("(")
            cond = self.parse_expression()
            self.expect_punct(")")
            body = self.parse_statement()
            return self._finish(Switch(cond, body), start)
        if word == "while":
            self.pop()
            self.expect_punct("(")
            cond = self.parse_expression()
            self.expect_punct(")")
            body = self.parse_statement()
            return self._finish(While(cond, body), start)
        if word == "do":
            self.pop()
            body = self.parse_statement()
            if not self.at_kw("while"):
                raise ParseError("expected 'while' after do-body", self._here())
            self.pop()
            self.expect_punct("(")
            cond = self.parse_expression()
            self.expect_punct(")")
            self.expect_punct(";")
            return self._finish(DoWhile(body, cond), start)
        return self._parse_for(start)

    def _parse_if(self, start: int) -> If:
        self.pop()
        self.expect_punct("(")
        cond = self.parse_expression()
        self.expect_punct(")")
        then = self.parse_statement()
        els: Stmt | None = None
        if self.at_kw("else"):
            self.pop()
            els = self.parse_statement()
        return self._finish(If(cond, then, els), start)

    def _parse_for(self, start: int) -> For:
        self.pop()
        self.expect_punct("(")
        self.push_scope()
        init: Node | None = None
        if self.at_punct(";"):
            self.pop()
        elif self.starts_declaration():
            init = self.parse_declaration_stmt()
        else:
            init_expr = self.parse_expression()
            self.expect_punct(";")
            init = init_expr
        cond: Expr | None = None
        if not self.at_punct(";"):
            cond = self.parse_expression()
        self.expect_punct(";")
        step: Expr | None = None
        if not self.at_punct(")"):
            step = self.parse_expression()
        self.expect_punct(")")
        body = self.parse_statement()
        self.pop_scope()
        return self._finish(For(init, cond, step, body), start)

    # ---- expressions ------------------------------------------------------

    def parse_expression(self) -> Expr:
        start = self.i
        expr = self.parse_assignment()
        while self.at_punct(","):
            self.pop()
            right = self.parse_assignment()
            expr = self._finish(Comma(expr, right), start)
        return expr

    def parse_assignment(self) -> Expr:
        start = self.i
        left = self.parse_conditional()
        t = self.peek()
        if t is not None and t.kind is TokenKind.PUNCT and t.lexeme in _ASSIGN_OPS:
            self.pop()
            right = self.parse_assignment()
            base_op = _ASSIGN_OPS[t.lexeme]
            if base_op is None:
                return self._finish(Assign(left, right), start)
            return self._finish(CompoundAssign(base_op, left, right), start)
        return left

    def parse_conditional(self) -> Expr:
        start = self.i
        cond = self.parse_binary(0)
        if self.at_punct("?"):
            self.pop()
            then = self.parse_expression()
            self.expect_punct(":")
            other = self.parse_conditional()
            return self._finish(Conditional(cond, then, other), start)
        return cond

    def parse_binary(self, min_level: int) -> Expr:
        """Precedence climbing over `_BINARY_LEVELS`; all levels are left-associative."""
        start = self.i
        left = self.parse_cast()
        while True:
            t = self.peek()
            if t is None or t.kind is not TokenKind.PUNCT:
                return left
            level = _BINARY_PREC.get(t.lexeme)
            if level is None or level < min_level:
                return left
            self.pop()
            right = self.parse_binary(level + 1)
            left = self._finish(Binary(t.lexeme, left, right), start)

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
        t = self.peek()
        if t is not None and t.is_punct("(") and self._paren_opens_type():
            self.pop()
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
        nxt = self.peek(1)
        return nxt is not None and self._token_starts_type(nxt)

    def parse_unary(self) -> Expr:
        start = self.i
        t = self.peek()
        if t is None:
            raise ParseError("expected expression", self._last_loc())
        if t.kind is TokenKind.PUNCT:
            if t.lexeme in ("++", "--"):
                self.pop()
                operand = self.parse_unary()
                return self._finish(IncDec(t.lexeme, True, operand), start)
            if t.lexeme == "&":
                self.pop()
                return self._finish(AddrOf(self.parse_cast()), start)
            if t.lexeme == "*":
                self.pop()
                return self._finish(Deref(self.parse_cast()), start)
            if t.lexeme in ("+", "-", "~", "!"):
                self.pop()
                return self._finish(Unary(t.lexeme, self.parse_cast()), start)
        if t.is_ident("sizeof"):
            self.pop()
            if self.at_punct("(") and self._paren_opens_type():
                self.pop()
                type_name = self.parse_type_name()
                self.expect_punct(")")
                return self._finish(Sizeof(type_name, None), start)
            operand = self.parse_unary()
            return self._finish(Sizeof(None, operand), start)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        start = self.i
        expr = self.parse_primary()
        while True:
            t = self.peek()
            if t is None or t.kind is not TokenKind.PUNCT:
                return expr
            if t.lexeme == "(":
                self._open_paren()
                args: list[Expr] = []
                if not self.at_punct(")"):
                    args.append(self.parse_assignment())
                    while self.at_punct(","):
                        self.pop()
                        args.append(self.parse_assignment())
                self._close_paren()
                expr = self._finish(Call(expr, args), start)
            elif t.lexeme == "[":
                self.pop()
                index = self.parse_expression()
                self.expect_punct("]")
                expr = self._finish(Index(expr, index), start)
            elif t.lexeme == ".":
                self.pop()
                name = self.expect_ident("member name").lexeme
                expr = self._finish(Member(expr, name, False), start)
            elif t.lexeme == "->":
                self.pop()
                name = self.expect_ident("member name").lexeme
                expr = self._finish(Member(expr, name, True), start)
            elif t.lexeme in ("++", "--"):
                self.pop()
                expr = self._finish(IncDec(t.lexeme, False, expr), start)
            else:
                return expr

    def parse_primary(self) -> Expr:
        start = self.i
        t = self.peek()
        if t is None:
            raise ParseError("expected expression", self._last_loc())
        if t.is_punct("("):
            self._open_paren()
            inner = self.parse_expression()
            self._close_paren()
            return inner
        if t.kind is TokenKind.IDENT:
            if t.lexeme in KEYWORDS:
                raise ParseError(
                    f"unexpected keyword {t.lexeme!r} in expression", t.report_site
                )
            self.pop()
            return self._finish(Identifier(t.lexeme), start)
        if t.kind is TokenKind.NUMBER:
            self.pop()
            value, is_float = _parse_number(t)
            return self._finish(Constant(t.lexeme, value, is_float), start)
        if t.kind is TokenKind.CHAR_CONST:
            self.pop()
            units = _literal_units(t)
            if len(units) != 1:
                raise UnsupportedConstructError(
                    f"multi-character constant {t.lexeme}", t.report_site)
            value = units[0] - 256 if units[0] > 127 else units[0]  # plain char is signed
            return self._finish(Constant(t.lexeme, value, False), start)
        if t.kind is TokenKind.STRING:
            parts = [self.pop()]
            while True:
                n = self.peek()
                if n is not None and n.kind is TokenKind.STRING:
                    parts.append(self.pop())
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
    """Parse a preprocessed token stream into a translation unit AST."""
    return Parser(tokens, path).parse_translation_unit()
