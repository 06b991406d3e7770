"""Tracked C preprocessor.

Supported directives: #include (quoted and angle), #define/#undef
(object- and function-like), #if/#ifdef/#ifndef/#elif/#else/#endif,
#error. #pragma and _Pragma are consumed and recorded. Variadic
macros, stringize (#) and paste (##) are rejected as unsupported.

Every output token carries its physical origin and, when it came out
of a macro, the full expansion chain (outermost invocation first), so
diagnostics can always be mapped back to pre-preprocessing source.
"""
from __future__ import annotations

import operator
import os
import re
from collections import deque
from dataclasses import dataclass

from ccomply.errors import LexError, PreprocessError, UnsupportedConstructError
from ccomply.frontend.lexer import PPToken, TokenKind, lex
from ccomply.source import ExpansionFrame, Location, SourceFile, SourceManager

INCLUDE_DEPTH_LIMIT = 64

# Parentheses open inside one expression, in `#if` here and in the parser.
# C99 5.2.4.1 requires 63 levels of parenthesized expressions; deeper
# nesting is rejected before the recursive descent exhausts Python's stack.
PAREN_NESTING_LIMIT = 63


@dataclass
class MacroDef:
    name: str
    body: tuple[PPToken, ...]
    params: tuple[str, ...] | None = None  # None = object-like
    def_site: Location | None = None

    @property
    def function_like(self) -> bool:
        return self.params is not None

    def same_definition(self, other: "MacroDef") -> bool:
        if self.params != other.params or len(self.body) != len(other.body):
            return False
        return all(a.same_text(b) for a, b in zip(self.body, other.body))


@dataclass(frozen=True)
class PragmaRecord:
    loc: Location
    text: str


class SourceMap:
    """Total mapping from output-token index to physical origin."""

    def __init__(self, tokens: list[PPToken]):
        self._tokens = tokens

    def __len__(self) -> int:
        return len(self._tokens)

    def origin(self, index: int) -> Location:
        return self._tokens[index].origin

    def chain(self, index: int) -> tuple[ExpansionFrame, ...]:
        return self._tokens[index].chain

    def report_site(self, index: int) -> Location:
        return self._tokens[index].report_site

    def check_total(self, manager: SourceManager) -> None:
        """Assert every origin and chain site is a real place in a loaded file."""
        lines_of: dict[int, list[str]] = {}
        for i in range(len(self._tokens)):
            self._check_loc(manager, self.origin(i), lines_of)
            for frame in self.chain(i):
                self._check_loc(manager, frame.site, lines_of)

    @staticmethod
    def _check_loc(
        manager: SourceManager, loc: Location, lines_of: dict[int, list[str]]
    ) -> None:
        lines = lines_of.get(loc.file)
        if lines is None:
            if not manager.has(loc.file):
                raise AssertionError(f"origin refers to unknown file id {loc.file}")
            lines = lines_of[loc.file] = manager.get(loc.file).contents.split("\n")
        if not (1 <= loc.line <= len(lines)):
            raise AssertionError(f"origin line {loc.line} outside {manager.path_of(loc.file)}")
        if not (1 <= loc.column <= len(lines[loc.line - 1]) + 1):
            raise AssertionError(
                f"origin column {loc.column} outside {manager.path_of(loc.file)}:{loc.line}"
            )


class _Stream:
    """Token stream with pushback; expansions are pushed to the front."""

    def __init__(self, tokens: list[PPToken] | None = None):
        self.buf: deque[PPToken] = deque(tokens or ())

    def __bool__(self) -> bool:
        return bool(self.buf)

    def pop(self) -> PPToken:
        return self.buf.popleft()

    def peek(self) -> PPToken | None:
        return self.buf[0] if self.buf else None

    def push_front(self, tokens: list[PPToken]) -> None:
        self.buf.extendleft(reversed(tokens))


@dataclass
class _CondFrame:
    parent_active: bool
    active: bool
    taken: bool
    saw_else: bool = False
    site: Location | None = None


class _Preprocessor:
    def __init__(self, include_paths: list[str], manager: SourceManager):
        self.include_paths = list(include_paths)
        self.manager = manager
        self.macros: dict[str, MacroDef] = {}
        self.out: list[PPToken] = []
        self.pragmas: list[PragmaRecord] = []

    # ---- file processing ----------------------------------------------

    def process_file(
        self, source: SourceFile, tokens: list[PPToken], depth: int, site: Location | None
    ) -> None:
        if depth > INCLUDE_DEPTH_LIMIT:
            raise PreprocessError(
                f"include depth exceeded ({INCLUDE_DEPTH_LIMIT}) while including {source.path}",
                site,
            )
        stream = _Stream(tokens)
        conds: list[_CondFrame] = []
        while stream:
            tok = stream.pop()
            if tok.at_bol and tok.is_punct("#") and not tok.chain:
                line = self._collect_line(stream)
                self._directive(tok, line, conds, depth, source)
                continue
            if not self._active(conds):
                continue
            if self._maybe_expand(stream, tok):
                continue
            if tok.is_ident("_Pragma"):
                self._consume_operator_pragma(stream, tok)
                continue
            self.out.append(tok)
        if conds:
            raise PreprocessError("unmatched conditional at end of file", conds[-1].site)

    @staticmethod
    def _collect_line(stream: _Stream) -> list[PPToken]:
        line: list[PPToken] = []
        while stream and not stream.peek().at_bol:
            line.append(stream.pop())
        return line

    @staticmethod
    def _active(conds: list[_CondFrame]) -> bool:
        return all(f.active for f in conds)

    # ---- directives ----------------------------------------------------

    def _directive(
        self,
        hash_tok: PPToken,
        line: list[PPToken],
        conds: list[_CondFrame],
        depth: int,
        source: SourceFile,
    ) -> None:
        if not line:
            return  # null directive '#'
        head = line[0]
        name = head.lexeme if head.kind is TokenKind.IDENT else None
        rest = line[1:]
        active = self._active(conds)

        if name in ("if", "ifdef", "ifndef"):
            if not active:
                conds.append(_CondFrame(False, False, True, site=head.origin))
                return
            value = self._conditional_value(name, rest, head)
            conds.append(_CondFrame(True, value, value, site=head.origin))
            return
        if name == "elif":
            if not conds:
                raise PreprocessError("#elif without matching #if", head.origin)
            frame = conds[-1]
            if frame.saw_else:
                raise PreprocessError("#elif after #else", head.origin)
            if not frame.parent_active or frame.taken:
                frame.active = False
                return
            value = self._conditional_value("if", rest, head)
            frame.active = value
            frame.taken = value
            return
        if name == "else":
            if not conds:
                raise PreprocessError("#else without matching #if", head.origin)
            frame = conds[-1]
            if frame.saw_else:
                raise PreprocessError("duplicate #else", head.origin)
            frame.saw_else = True
            frame.active = frame.parent_active and not frame.taken
            frame.taken = True
            return
        if name == "endif":
            if not conds:
                raise PreprocessError("#endif without matching #if", head.origin)
            conds.pop()
            return

        if not active:
            return  # non-conditional directives in skipped groups are ignored

        if name == "define":
            self._define(rest, head)
            return
        if name == "undef":
            if not rest or rest[0].kind is not TokenKind.IDENT:
                raise PreprocessError("#undef requires a macro name", head.origin)
            self.macros.pop(rest[0].lexeme, None)
            return
        if name == "include":
            self._include(rest, head, depth, source)
            return
        if name == "error":
            from ccomply.frontend.lexer import render_tokens

            raise PreprocessError(f"#error {render_tokens(rest)}".rstrip(), head.origin)
        if name == "pragma":
            from ccomply.frontend.lexer import render_tokens

            self.pragmas.append(PragmaRecord(head.origin, render_tokens(rest)))
            return
        if name == "line":
            raise UnsupportedConstructError("#line is not supported", head.origin)
        raise PreprocessError(f"unknown preprocessing directive #{head.lexeme}", head.origin)

    def _conditional_value(self, kind: str, rest: list[PPToken], head: PPToken) -> bool:
        if kind in ("ifdef", "ifndef"):
            if not rest or rest[0].kind is not TokenKind.IDENT:
                raise PreprocessError(f"#{kind} requires a macro name", head.origin)
            defined = rest[0].lexeme in self.macros
            return defined if kind == "ifdef" else not defined
        if not rest:
            raise PreprocessError("#if with no controlling expression", head.origin)
        resolved = self._resolve_defined(rest)
        expanded = self._expand_isolated(resolved)
        return evaluate_pp_condition(expanded, self.macros, at=head.origin) != 0

    def _resolve_defined(self, tokens: list[PPToken]) -> list[PPToken]:
        out: list[PPToken] = []
        i = 0
        while i < len(tokens):
            t = tokens[i]
            if t.is_ident("defined"):
                j = i + 1
                close = False
                if j < len(tokens) and tokens[j].is_punct("("):
                    j += 1
                    close = True
                if j >= len(tokens) or tokens[j].kind is not TokenKind.IDENT:
                    raise PreprocessError("operator 'defined' requires a macro name", t.origin)
                name = tokens[j].lexeme
                if close:
                    j += 1
                    if j >= len(tokens) or not tokens[j].is_punct(")"):
                        raise PreprocessError("missing ')' after 'defined ('", t.origin)
                value = "1" if name in self.macros else "0"
                out.append(PPToken(TokenKind.NUMBER, value, t.pos, chain=t.chain))
                i = j + 1
                continue
            out.append(t)
            i += 1
        return out

    def _define(self, rest: list[PPToken], head: PPToken) -> None:
        if not rest or rest[0].kind is not TokenKind.IDENT:
            raise PreprocessError("#define requires a macro name", head.origin)
        name_tok = rest[0]
        body_start = 1
        params: tuple[str, ...] | None = None
        if len(rest) > 1 and rest[1].is_punct("(") and not rest[1].ws_before:
            names: list[str] = []
            i = 2
            if i < len(rest) and rest[i].is_punct(")"):
                i += 1
            else:
                while True:
                    if i >= len(rest):
                        raise PreprocessError("unterminated macro parameter list", name_tok.origin)
                    p = rest[i]
                    if p.is_punct("..."):
                        raise UnsupportedConstructError(
                            "variadic macros are not supported", p.origin
                        )
                    if p.kind is not TokenKind.IDENT:
                        raise PreprocessError("expected macro parameter name", p.origin)
                    if p.lexeme in names:
                        raise PreprocessError(
                            f"duplicate macro parameter {p.lexeme!r}", p.origin
                        )
                    names.append(p.lexeme)
                    i += 1
                    if i < len(rest) and rest[i].is_punct(","):
                        i += 1
                        continue
                    if i < len(rest) and rest[i].is_punct(")"):
                        i += 1
                        break
                    raise PreprocessError("expected ',' or ')' in macro parameters", p.origin)
            params = tuple(names)
            body_start = i
        body = tuple(rest[body_start:])
        for t in body:
            if t.is_punct("#") or t.is_punct("##"):
                raise UnsupportedConstructError(
                    "stringize/paste operators in macro bodies are not supported", t.origin
                )
        macro = MacroDef(name_tok.lexeme, body, params, name_tok.origin)
        existing = self.macros.get(macro.name)
        if existing is not None and not existing.same_definition(macro):
            raise PreprocessError(
                f"macro {macro.name!r} redefined with a different body", name_tok.origin
            )
        self.macros[macro.name] = macro

    def _include(self, rest: list[PPToken], head: PPToken, depth: int, source: SourceFile) -> None:
        name, angled = self._include_name(rest, head)
        path = self._resolve_include(name, angled, source)
        if path is None:
            form = f"<{name}>" if angled else f'"{name}"'
            raise PreprocessError(f"include file not found: {form}", head.origin)
        included = self.manager.load(path)
        tokens = self.manager.lexed.get(included.id)
        if tokens is None:
            tokens = self.manager.lexed[included.id] = lex(included)
        self.process_file(included, tokens, depth + 1, head.origin)

    def _include_name(self, rest: list[PPToken], head: PPToken) -> tuple[str, bool]:
        for attempt in range(2):
            if len(rest) == 1 and rest[0].kind is TokenKind.STRING:
                return rest[0].lexeme[1:-1], False
            if rest and rest[0].is_punct("<"):
                parts = []
                for t in rest[1:]:
                    if t.is_punct(">"):
                        return "".join(parts), True
                    parts.append(t.lexeme)
            if attempt == 0:
                rest = self._expand_isolated(list(rest))
        raise PreprocessError("invalid #include form", head.origin)

    def _resolve_include(self, name: str, angled: bool, source: SourceFile) -> str | None:
        dirs: list[str] = []
        if not angled:
            dirs.append(os.path.dirname(source.path) or ".")
        dirs.extend(self.include_paths)
        for d in dirs:
            candidate = os.path.join(d, name)
            if os.path.isfile(candidate):
                return candidate
        return None

    # ---- macro expansion ------------------------------------------------

    def _maybe_expand(self, stream: _Stream, tok: PPToken) -> bool:
        if tok.kind is not TokenKind.IDENT or tok.lexeme in tok.no_expand:
            return False
        macro = self.macros.get(tok.lexeme)
        if macro is None:
            return False
        if macro.function_like:
            nxt = stream.peek()
            if nxt is None or not nxt.is_punct("("):
                return False
            args = self._collect_args(stream, tok, macro)
            expanded_args = [self._expand_isolated(a) for a in args]
            body = self._substitute(macro, expanded_args)
        else:
            body = macro.body
        outer = tok.chain + (ExpansionFrame(macro.name, tok.pos),)
        hide = tok.no_expand | {macro.name}
        stream.push_front([
            PPToken(t.kind, t.lexeme, t.pos, chain=outer + t.chain, at_bol=False,
                    ws_before=t.ws_before, no_expand=t.no_expand | hide)
            for t in body
        ])
        return True

    def _collect_args(self, stream: _Stream, name_tok: PPToken, macro: MacroDef) -> list[list[PPToken]]:
        stream.pop()  # '('
        args: list[list[PPToken]] = [[]]
        depth = 1
        while True:
            if not stream:
                raise PreprocessError(
                    f"unterminated argument list for macro {macro.name!r}", name_tok.origin
                )
            t = stream.pop()
            if t.at_bol and t.is_punct("#") and not t.chain:
                raise PreprocessError(
                    "preprocessing directive inside macro arguments", t.origin
                )
            if t.is_punct("("):
                depth += 1
            elif t.is_punct(")"):
                depth -= 1
                if depth == 0:
                    break
            elif t.is_punct(",") and depth == 1:
                args.append([])
                continue
            args[-1].append(t)
        if macro.params == () and len(args) == 1 and not args[0]:
            args = []
        if len(args) != len(macro.params or ()):
            raise PreprocessError(
                f"macro {macro.name!r} expects {len(macro.params or ())} argument(s), "
                f"got {len(args)}",
                name_tok.origin,
            )
        return args

    @staticmethod
    def _substitute(macro: MacroDef, args: list[list[PPToken]]) -> list[PPToken]:
        index = {p: i for i, p in enumerate(macro.params or ())}
        out: list[PPToken] = []
        for t in macro.body:
            if t.kind is TokenKind.IDENT and t.lexeme in index:
                out.extend(args[index[t.lexeme]])
            else:
                out.append(t)
        return out

    def _expand_isolated(self, tokens: list[PPToken]) -> list[PPToken]:
        stream = _Stream(tokens)
        out: list[PPToken] = []
        while stream:
            t = stream.pop()
            if self._maybe_expand(stream, t):
                continue
            out.append(t)
        return out

    def _consume_operator_pragma(self, stream: _Stream, tok: PPToken) -> None:
        nxt = stream.peek()
        if nxt is None or not nxt.is_punct("("):
            self.out.append(tok)
            return
        stream.pop()
        string = stream.pop() if stream else None
        close = stream.pop() if stream else None
        if (
            string is None
            or string.kind is not TokenKind.STRING
            or close is None
            or not close.is_punct(")")
        ):
            raise PreprocessError("malformed _Pragma operator", tok.origin)
        # C99 6.10.9: drop the quotes, replace `\"` by `"` and `\\` by `\`,
        # then record the tokens of the result as #pragma records its own.
        from ccomply.frontend.lexer import render_tokens

        text = re.sub(r'\\(["\\])', r"\1", string.lexeme[1:-1])
        try:
            tokens = lex(SourceFile(tok.origin.file, "_Pragma", text))
        except (LexError, UnsupportedConstructError) as exc:
            raise type(exc)(exc.message, tok.origin) from None
        self.pragmas.append(PragmaRecord(tok.origin, render_tokens(tokens)))


def preprocess(
    entry: SourceFile,
    include_paths: list[str],
    predefined: list[MacroDef],
    manager: SourceManager,
) -> tuple[list[PPToken], SourceMap, list[PragmaRecord]]:
    """Run the tracked preprocessor over one translation unit."""
    pp = _Preprocessor(include_paths, manager)
    for m in predefined:
        pp.macros[m.name] = m
    pp.process_file(entry, lex(entry), depth=0, site=None)
    return pp.out, SourceMap(pp.out), pp.pragmas


def macro_from_define_flag(spec: str, manager: SourceManager) -> MacroDef:
    """Build an object-like macro from a NAME[=body] command-line define."""
    name, _, body_text = spec.partition("=")
    name = name.strip()
    virt = manager.add_virtual(f"<define:{name}>", body_text)
    body = tuple(lex(virt))
    return MacroDef(name, body, None, Location(virt.id, 1, 1))


# ---- #if expression evaluation ------------------------------------------

_U64 = 1 << 64
_S64_MAX = (1 << 63) - 1


def _wrap64(v: int) -> int:
    v %= _U64
    return v - _U64 if v > _S64_MAX else v


_PP_BINOPS: dict[str, int] = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6, "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8, "+": 9, "-": 9, "*": 10, "/": 10, "%": 10,
}


class _CondParser:
    def __init__(self, tokens: list[PPToken], at: Location | None):
        self.toks = tokens
        self.i = 0
        self.at = at
        self.paren_depth = 0

    def peek(self) -> PPToken | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def pop(self) -> PPToken:
        if self.i >= len(self.toks):
            raise PreprocessError("unexpected end of #if expression", self.at)
        t = self.toks[self.i]
        self.i += 1
        return t

    def parse(self):
        node = self.parse_binary(0)
        t = self.peek()
        if t is not None and t.is_punct("?"):
            self.pop()
            then = self.parse()
            colon = self.pop()
            if not colon.is_punct(":"):
                raise PreprocessError("expected ':' in #if conditional", colon.origin)
            other = self.parse()
            return ("?:", node, then, other)
        return node

    def parse_binary(self, min_prec: int):
        left = self.parse_unary()
        while True:
            t = self.peek()
            if t is None or t.kind is not TokenKind.PUNCT:
                return left
            prec = _PP_BINOPS.get(t.lexeme, 0)
            if prec == 0 or prec < min_prec:
                return left
            self.pop()
            right = self.parse_binary(prec + 1)
            left = (t.lexeme, left, right)

    def parse_unary(self):
        t = self.pop()
        if t.kind is TokenKind.PUNCT and t.lexeme in ("!", "~", "+", "-"):
            return ("u" + t.lexeme, self.parse_unary())
        if t.is_punct("("):
            self.paren_depth += 1
            if self.paren_depth > PAREN_NESTING_LIMIT:
                raise UnsupportedConstructError(
                    f"parentheses nested more than {PAREN_NESTING_LIMIT} levels deep",
                    t.report_site,
                )
            inner = self.parse()
            close = self.pop()
            if not close.is_punct(")"):
                raise PreprocessError("expected ')' in #if expression", close.origin)
            self.paren_depth -= 1
            return inner
        if t.kind is TokenKind.NUMBER:
            return ("num", _pp_int_value(t))
        if t.kind is TokenKind.CHAR_CONST:
            return ("num", _char_value(t))
        if t.kind is TokenKind.IDENT:
            return ("num", 0)  # undefined identifiers evaluate to 0
        raise PreprocessError(
            f"non-constant residue {t.lexeme!r} in #if expression", t.origin
        )


def _pp_int_value(tok: PPToken) -> int:
    text = tok.lexeme
    stripped = text.rstrip("uUlL")
    suffix = text[len(stripped):]
    if len(suffix) > 3 or text != stripped + suffix:
        raise PreprocessError(f"invalid integer constant {text!r}", tok.origin)
    try:
        value = int(stripped, 0)
    except ValueError:
        raise PreprocessError(
            f"non-constant residue {text!r} in #if expression", tok.origin
        ) from None
    return _wrap64(value)


_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34,
            "a": 7, "b": 8, "f": 12, "v": 11, "?": 63}


def _char_value(tok: PPToken) -> int:
    body = tok.lexeme[1:-1]
    if body.startswith("\\"):
        esc = body[1:]
        if not esc:
            raise PreprocessError(f"invalid character constant {tok.lexeme!r}", tok.origin)
        if esc[0] == "x":
            return _wrap64(int(esc[1:], 16))
        if esc[0] in "01234567":
            return _wrap64(int(esc, 8))
        if esc[0] in _ESCAPES and len(esc) == 1:
            return _ESCAPES[esc[0]]
        raise PreprocessError(f"unknown escape in {tok.lexeme!r}", tok.origin)
    if len(body) != 1:
        raise PreprocessError(
            f"multi-character constant {tok.lexeme!r} not supported", tok.origin
        )
    return ord(body)


def _c_quotient(a: int, b: int) -> int:
    """C99 6.5.5: integer division truncates toward zero."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


_UNARY_OPS = {
    "u!": lambda v: 0 if v else 1,
    "u~": lambda v: _wrap64(~v),
    "u+": lambda v: v,
    "u-": lambda v: _wrap64(-v),
}
# Results before the 64-bit wraparound that `_eval_cond` applies.
_BINARY_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _c_quotient, "%": lambda a, b: a - _c_quotient(a, b) * b,
    "<<": lambda a, b: a << min(b, 64) if b >= 0 else 0,
    ">>": lambda a, b: a >> min(b, 64) if b >= 0 else 0,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
    "==": lambda a, b: int(a == b), "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b), ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b), ">=": lambda a, b: int(a >= b),
}


def _eval_cond(node, at: Location | None) -> int:
    # `_CondParser.parse_binary` builds a chain `a op b op c ...` as a
    # left-deep tree, so walk each chain's left spine with a loop and
    # recurse only into right operands and other node kinds.
    spine = []
    while node[0] in _PP_BINOPS:
        spine.append(node)
        node = node[1]
    op = node[0]
    if op == "num":
        value = node[1]
    elif op == "?:":
        value = _eval_cond(node[2] if _eval_cond(node[1], at) else node[3], at)
    else:
        value = _UNARY_OPS[op](_eval_cond(node[1], at))
    for op, _, right in reversed(spine):
        if op == "&&":
            value = 1 if value and _eval_cond(right, at) else 0
        elif op == "||":
            value = 1 if value or _eval_cond(right, at) else 0
        else:
            b = _eval_cond(right, at)
            if b == 0 and op in ("/", "%"):
                raise PreprocessError("division by zero in #if expression", at)
            value = _wrap64(_BINARY_OPS[op](value, b))
    return value


def evaluate_pp_condition(
    tokens: list[PPToken],
    macros: dict[str, MacroDef] | None = None,
    at: Location | None = None,
) -> int:
    """Evaluate a #if controlling expression with 64-bit signed wraparound.

    The token list must already be macro-expanded with `defined`
    resolved; any remaining identifier evaluates to 0.
    """
    del macros  # identifiers left after expansion are 0 by definition
    if not tokens:
        raise PreprocessError("#if with no controlling expression", at)
    parser = _CondParser(tokens, at)
    node = parser.parse()
    leftover = parser.peek()
    if leftover is not None:
        raise PreprocessError(
            f"non-constant residue {leftover.lexeme!r} in #if expression", leftover.origin
        )
    return _eval_cond(node, at)
