"""Preprocessing-token lexer for 8-bit C99 source.

Tokens keep their physical (line, column) origin, packed into one int
(`source.pack`): positions always refer to the real text. Comments count
as whitespace. Trigraphs, digraphs, and wide literals are outside the
subset and raise UnsupportedConstructError.

A backslash-newline splice joins the text of an identifier, a pp-number,
a string literal or a character constant; it is dropped from the lexeme.
Anywhere else a splice only ends the physical line: it does not join
punctuators (`+\\<newline>+` lexes as `+`, `+`) or comment delimiters
(`/\\<newline>*` is `/`, `*`), and it does not extend a `//` comment
(`a // c \\<newline> b` yields `b` on line 2). All three differ from
C99 5.1.1.2 phase 2, which splices before tokenizing; the last is the
case MISRA C:2012 Rule 3.2 forbids. A splice sets neither `at_bol` nor
`ws_before`.

`lex` reads a file as the list of strings `re.findall` gives for
`_BRANCHES`, one piece per token, blank run, newline, comment or splice.
The pieces cover the text without a gap, so a piece's offset is the total
length of the pieces before it. A piece's first character says what it
is; only for `.`, `/`, `\\`, `<`, `%`, `:`, `?` and the quotes does the
second one decide as well (`_FIRST`).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from ccomply.errors import LexError, UnsupportedConstructError
from ccomply.source import ExpansionFrame, Location, SourceFile, line_base, pack, unpack


class TokenKind(Enum):
    IDENT = "identifier"
    NUMBER = "pp-number"
    CHAR_CONST = "char-const"
    STRING = "string-literal"
    PUNCT = "punctuator"
    OTHER = "other"


@dataclass(slots=True)
class PPToken:
    """One preprocessing token.

    Nothing sets a field after construction, because a token may be
    shared: the tokens of an included file serve every translation unit
    that includes it, and macro bodies are shared by every expansion.
    `pos` is the packed physical position; `origin` decodes it.
    """

    kind: TokenKind
    lexeme: str
    pos: int
    chain: tuple[ExpansionFrame, ...] = ()
    at_bol: bool = False
    ws_before: bool = True
    no_expand: frozenset[str] = frozenset()

    @property
    def origin(self) -> Location:
        return unpack(self.pos)

    @property
    def report_pos(self) -> int:
        """Where a human should look: outermost invocation for macro text."""
        return self.chain[0].pos if self.chain else self.pos

    @property
    def report_site(self) -> Location:
        return unpack(self.report_pos)

    def is_punct(self, lexeme: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.lexeme == lexeme

    def is_ident(self, name: str | None = None) -> bool:
        if self.kind is not TokenKind.IDENT:
            return False
        return name is None or self.lexeme == name

    def same_text(self, other: "PPToken") -> bool:
        return self.kind is other.kind and self.lexeme == other.lexeme


# In a literal a backslash takes the next character: an escaped one, or the
# newline of a splice (`.` matches it under DOTALL).
_QUOTED = r"[^{q}\\\n]*(?:\\.[^{q}\\\n]*)*{q}"
# What may follow the first character of a pp-number.
_NUMBER_TAIL = r"(?:\\\n|[eEpP][+-]|[A-Za-z0-9_.])*"
# One branch per shape of text, tried in order at each position; `lex`
# takes the text as the list of pieces these branches match. A
# backslash-newline splice may sit inside an identifier, a pp-number or a
# literal, and is dropped from its lexeme; anywhere else it stands alone.
# Numbers precede punctuators so that `.5` is a number, comments precede
# `/` (a block comment without its `*/` matches as just `/*`), and
# trigraphs and digraphs precede the punctuators they start with.
# The punctuators are grouped by first character, each group matching its
# longest punctuator ('#' is for directive detection; '##' lexes as one
# token so that macro definitions can reject pasting). The last branch
# takes any one character, so the pieces cover the text without a gap and
# each one starts where the one before it ends.
#
# Every branch starts with a literal or a character class: `sre` tests such
# a first op against the current character and skips the branch without
# entering it, while a group or a repeat as the first op makes it enter
# every branch at every position. So `+` is spelled `[c][c]*`. The pattern
# has no capturing group, so `findall` gives the pieces as plain strings.
_BRANCHES = (
    r"[ \t\f\v][ \t\f\v]*",
    r"\n[ \t\f\v]*",
    r"\\\n(?:\\\n)*",
    r"[A-Za-z_][A-Za-z0-9_]*(?:\\\n[A-Za-z0-9_]*)*",
    r"[0-9]" + _NUMBER_TAIL,
    r"\.[0-9]" + _NUMBER_TAIL,
    r"/(?:/[^\n]*|\*(?:.*?\*/)?)",
    r"\?\?[='()!<>\-/]",
    r"<[%:]",
    r"%[>:]",
    r":>",
    r"<<?=?",
    r">>?=?",
    r"-[->=]?",
    r"\+[+=]?",
    r"&[&=]?",
    r"\|[|=]?",
    r"[=!*/%^]=?",
    r"##?",
    r"\.\.\.",
    r"[][(){}.~?:;,]",
    '"' + _QUOTED.format(q='"'),
    "'" + _QUOTED.format(q="'"),
    r".",
)
_MASTER = re.compile("|".join(_BRANCHES), re.DOTALL)

# What a piece is, for text that makes no token or that `_reject` decides
# about; a piece that makes a token is classed by its `TokenKind`.
_BLANK = "blank"
_NEWLINE = "newline"
_SPLICE = "splice"
_COMMENT = "comment"
_TRIGRAPH = "trigraph"
_DIGRAPH = "digraph"
_OTHER = "other"


def _first_chars() -> dict[str, object]:
    """The class of a piece by its first character (absent: `_OTHER`).

    The first character decides, except for nine characters that begin
    pieces of two classes. For those the entry is a pair: a table from the
    second character ("" for a piece of one character) to the class, and
    the class of every other piece.
    """
    table: dict[str, object] = dict.fromkeys(" \t\f\v", _BLANK)
    table["\n"] = _NEWLINE
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
    table.update(dict.fromkeys(letters, TokenKind.IDENT))
    table.update(dict.fromkeys("0123456789", TokenKind.NUMBER))
    table.update(dict.fromkeys("[](){}~;,>-+&|=!*^#", TokenKind.PUNCT))
    table.update({
        ".": (dict.fromkeys("0123456789", TokenKind.NUMBER), TokenKind.PUNCT),
        "/": ({"/": _COMMENT, "*": _COMMENT}, TokenKind.PUNCT),
        "\\": ({"": _OTHER}, _SPLICE),
        "<": ({"%": _DIGRAPH, ":": _DIGRAPH}, TokenKind.PUNCT),
        "%": ({">": _DIGRAPH, ":": _DIGRAPH}, TokenKind.PUNCT),
        ":": ({">": _DIGRAPH}, TokenKind.PUNCT),
        "?": ({"?": _TRIGRAPH}, TokenKind.PUNCT),
        '"': ({"": _OTHER}, TokenKind.STRING),
        "'": ({"": _OTHER}, TokenKind.CHAR_CONST),
    })
    return table


_FIRST = _first_chars()
_NO_HIDE: frozenset[str] = frozenset()


def lex(source: SourceFile) -> list[PPToken]:
    """Tokenize one file into preprocessing tokens.

    Raises LexError for malformed input and UnsupportedConstructError
    for trigraphs/digraphs/wide literals.
    """
    text = source.contents
    file = source.id
    first = _FIRST
    blank = _BLANK
    newline = _NEWLINE
    other = _OTHER
    new = object.__new__
    tokens: list[PPToken] = []
    append = tokens.append
    line = 1
    # The offset of the newline before `line`, so offset `pos` is in
    # column `pos - line_break`; a token at an offset below `limit` is at
    # packed position `base | (pos - line_break)`.
    line_break = -1
    base, limit = line_base(file, line, line_break)
    at_bol = True
    ws_before = True
    end = 0

    for piece in _MASTER.findall(text):
        pos = end
        end += len(piece)
        kind = first.get(piece[0], other)
        if kind is blank:
            ws_before = True
            continue
        if kind is newline:
            line += 1
            line_break = pos
            base, limit = line_base(file, line, line_break)
            at_bol = ws_before = True
            continue
        if kind.__class__ is tuple:
            kind = kind[0].get(piece[1:2], kind[1])
        if kind.__class__ is str:
            if kind is _COMMENT:
                if piece[1] == "*":
                    if end - pos == 2:
                        raise LexError("unterminated block comment",
                                       unpack(pack(file, line, pos - line_break)))
                    newlines = piece.count("\n")
                    if newlines:
                        line += newlines
                        line_break = text.rindex("\n", pos, end)
                        base, limit = line_base(file, line, line_break)
                ws_before = True
                continue
            if kind is _SPLICE:
                line += (end - pos) // 2
                line_break = end - 1
                base, limit = line_base(file, line, line_break)
                continue
            origin = pack(file, line, pos - line_break)
            _reject(kind, piece, origin)
            lexeme = piece
            kind = TokenKind.OTHER
        else:
            lexeme = piece
            column = pos - line_break
            origin = base | column if pos < limit else pack(file, line, column)
            if "\\\n" in lexeme:
                line += lexeme.count("\n")
                line_break = text.rindex("\n", pos, end)
                base, limit = line_base(file, line, line_break)
                lexeme = lexeme.replace("\\\n", "")
            # Only an identifier can be `L`, only a character constant `''`.
            if lexeme == "L" and text[end:end + 1] in ("'", '"'):
                raise UnsupportedConstructError(
                    "wide character/string literals are not supported", unpack(origin))
            if lexeme == "''":
                raise LexError("empty character constant", unpack(origin))
        # This and `_expand` make nearly every token of a run, so neither
        # calls `PPToken.__init__`: it takes about 210 ns a token where
        # `object.__new__` and the seven slot stores take about 125 ns
        # (CPython 3.11, timeit, call overhead taken off).
        tok = new(PPToken)
        tok.kind = kind
        tok.lexeme = lexeme
        tok.pos = origin
        tok.chain = ()
        tok.at_bol = at_bol
        tok.ws_before = ws_before
        tok.no_expand = _NO_HIDE
        append(tok)
        at_bol = ws_before = False
    return tokens


def _reject(kind: str, ch: str, origin: int) -> None:
    """Raise the error that a piece of class `kind` means, if any; `ch` is
    the piece, one character unless it is a trigraph or a digraph.

    Only a character that no other branch takes may lex as OTHER.
    """
    if kind is _TRIGRAPH:
        raise UnsupportedConstructError("trigraph sequences are not supported", unpack(origin))
    if kind is _DIGRAPH:
        raise UnsupportedConstructError("digraph sequences are not supported", unpack(origin))
    if ch == '"':
        raise LexError("unterminated string literal", unpack(origin))
    if ch == "'":
        raise LexError("unterminated character constant", unpack(origin))
    if not 0x20 <= ord(ch) < 0x80:  # blanks and newlines never get here
        raise LexError(f"invalid byte 0x{ord(ch):02x} in source", unpack(origin))
    if ch in "\\@`$":
        raise LexError(f"unexpected character {ch!r}", unpack(origin))


# C99 6.4.4.1: a hexadecimal, octal or decimal digit sequence, then an
# optional suffix of `u` and `l`/`ll` in either order (`ll` in one case).
_INT_CONSTANT = re.compile(
    r"(?:0[xX](?P<hex>[0-9a-fA-F]+)|(?P<oct>0[0-7]*)|(?P<dec>[1-9][0-9]*))"
    r"(?:[uU](?:ll|LL|[lL])?|(?:ll|LL|[lL])[uU]?)?"
)


def int_constant_value(text: str) -> int | None:
    """The value of the integer constant `text`, or None if it is not one."""
    m = _INT_CONSTANT.fullmatch(text)
    if m is None:
        return None
    if m["hex"] is not None:
        return int(m["hex"], 16)
    if m["oct"] is not None:
        return int(m["oct"], 8)
    return int(m["dec"])


# C99 6.4.4.4: one character of a literal's body is a source character or an
# escape sequence: up to three octal digits, `x` and every hexadecimal digit
# that follows, or one more character, which must be a simple escape.
_LITERAL_CHAR = re.compile(r"\\(?:([0-7]{1,3})|x([0-9a-fA-F]+)|(.))|(.)", re.DOTALL)
_SIMPLE_ESCAPES = {
    "'": 39, '"': 34, "?": 63, "\\": 92,
    "a": 7, "b": 8, "f": 12, "n": 10, "r": 13, "t": 9, "v": 11,
}


def literal_units(lexeme: str) -> list[int] | None:
    """The code units of a character constant or string literal, or None.

    `lexeme` includes its quotes. None means an escape sequence in it is
    malformed: `\\x` without a hexadecimal digit, a character that is not
    a simple escape (C99 6.4.4.4 footnote 64), or an octal or hexadecimal
    value that does not fit an unsigned char (6.4.4.4p9).
    """
    units: list[int] = []
    for m in _LITERAL_CHAR.finditer(lexeme, 1, len(lexeme) - 1):
        octal, hexa, simple, plain = m.groups()
        if plain is not None:
            units.append(ord(plain))
        elif simple is not None:
            unit = _SIMPLE_ESCAPES.get(simple)
            if unit is None:
                return None
            units.append(unit)
        else:
            unit = int(octal, 8) if octal is not None else int(hexa, 16)
            if unit > 0xFF:
                return None
            units.append(unit)
    return units


def render_tokens(tokens: list[PPToken]) -> str:
    """Join lexemes into token-equivalent text (single-space separators)."""
    return " ".join(t.lexeme for t in tokens)
