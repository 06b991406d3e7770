"""The original character-at-a-time lexer, kept as a test oracle.

`ccomply.frontend.lexer.lex` must give exactly this scanner's tokens, or
raise the same exception class with the same message and location, on
every input (see `test_lexer_oracle.py`). Nothing under `src/` imports it.
"""
from __future__ import annotations

from ccomply.errors import LexError, UnsupportedConstructError
from ccomply.frontend.lexer import PPToken, TokenKind
from ccomply.source import Location, SourceFile, pack


# Longest-match punctuator table ('#' included for directive detection;
# '##' lexes as one token so macro definitions can reject pasting).
_PUNCT3 = ("<<=", ">>=", "...")
_PUNCT2 = (
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "*=", "/=", "%=", "+=", "-=", "&=", "^=", "|=", "##",
)
_PUNCT1 = set("[](){}.&*+-~!/%<>^|?:;=,#")

_DIGRAPHS = ("<%", "%>", "<:", ":>", "%:")
_TRIGRAPH_TAILS = set("='()!<>-/")

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")


class _Scanner:
    """Character cursor with physical position tracking and splicing."""

    def __init__(self, source: SourceFile):
        self.text = source.contents
        self.file = source.id
        self.pos = 0
        self.line = 1
        self.col = 1

    def loc(self) -> Location:
        return Location(self.file, self.line, self.col)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, ahead: int = 0) -> str:
        i = self.pos + ahead
        return self.text[i] if i < len(self.text) else ""

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def skip_splices(self) -> bool:
        """Consume any backslash-newline pairs at the cursor."""
        did = False
        while self.peek() == "\\" and self.peek(1) == "\n":
            self.advance()
            self.advance()
            did = True
        return did


def lex(source: SourceFile) -> list[PPToken]:
    """Tokenize one file into preprocessing tokens.

    Raises LexError for malformed input and UnsupportedConstructError
    for trigraphs/digraphs/wide literals.
    """
    sc = _Scanner(source)
    tokens: list[PPToken] = []
    at_bol = True
    ws_before = True

    while True:
        sc.skip_splices()
        if sc.at_end():
            break
        ch = sc.peek()

        if ch == "\n":
            sc.advance()
            at_bol = True
            ws_before = True
            continue
        if ch in " \t\f\v":
            sc.advance()
            ws_before = True
            continue
        if ch == "/" and sc.peek(1) == "/":
            while not sc.at_end() and sc.peek() != "\n":
                sc.advance()
            ws_before = True
            continue
        if ch == "/" and sc.peek(1) == "*":
            start = sc.loc()
            sc.advance()
            sc.advance()
            closed = False
            while not sc.at_end():
                if sc.peek() == "*" and sc.peek(1) == "/":
                    sc.advance()
                    sc.advance()
                    closed = True
                    break
                sc.advance()
            if not closed:
                raise LexError("unterminated block comment", start)
            ws_before = True
            continue

        if ch == "?" and sc.peek(1) == "?" and sc.peek(2) in _TRIGRAPH_TAILS:
            raise UnsupportedConstructError("trigraph sequences are not supported", sc.loc())

        tok = _lex_token(sc)
        tok.at_bol = at_bol
        tok.ws_before = ws_before
        tokens.append(tok)
        at_bol = False
        ws_before = False
    return tokens


def _lex_token(sc: _Scanner) -> PPToken:
    start = sc.loc()
    ch = sc.peek()

    if ch in _IDENT_START:
        name = _lex_spliced_run(sc, _IDENT_CONT)
        if name == "L" and sc.peek() in ("'", '"'):
            raise UnsupportedConstructError("wide character/string literals are not supported", start)
        return PPToken(TokenKind.IDENT, name, pack(*start))

    if ch in _DIGITS or (ch == "." and sc.peek(1) in _DIGITS):
        return PPToken(TokenKind.NUMBER, _lex_pp_number(sc), pack(*start))

    if ch == '"':
        return PPToken(TokenKind.STRING, _lex_quoted(sc, '"', "string literal"), pack(*start))
    if ch == "'":
        lex = _lex_quoted(sc, "'", "character constant")
        if lex == "''":
            raise LexError("empty character constant", start)
        return PPToken(TokenKind.CHAR_CONST, lex, pack(*start))

    two = ch + sc.peek(1)
    if two in _DIGRAPHS:
        raise UnsupportedConstructError("digraph sequences are not supported", start)

    three = two + sc.peek(2)
    for p in _PUNCT3:
        if three == p:
            sc.advance(), sc.advance(), sc.advance()
            return PPToken(TokenKind.PUNCT, p, pack(*start))
    for p in _PUNCT2:
        if two == p:
            sc.advance(), sc.advance()
            return PPToken(TokenKind.PUNCT, p, pack(*start))
    if ch in _PUNCT1:
        sc.advance()
        return PPToken(TokenKind.PUNCT, ch, pack(*start))

    if ord(ch) >= 0x80 or (ord(ch) < 0x20 and ch not in "\t\n\f\v"):
        raise LexError(f"invalid byte 0x{ord(ch):02x} in source", start)
    if ch in "\\@`$":
        raise LexError(f"unexpected character {ch!r}", start)
    sc.advance()
    return PPToken(TokenKind.OTHER, ch, pack(*start))


def _lex_spliced_run(sc: _Scanner, allowed: set[str]) -> str:
    out = []
    while True:
        sc.skip_splices()
        if sc.at_end() or sc.peek() not in allowed:
            break
        out.append(sc.advance())
    return "".join(out)


def _lex_pp_number(sc: _Scanner) -> str:
    # pp-number: digits, identifier chars, '.', and exponent sign pairs.
    out = [sc.advance()]
    while True:
        sc.skip_splices()
        ch = sc.peek()
        if ch and ch in "eEpP" and sc.peek(1) in ("+", "-"):
            out.append(sc.advance())
            out.append(sc.advance())
            continue
        if ch in _IDENT_CONT or ch == ".":
            out.append(sc.advance())
            continue
        break
    return "".join(out)


def _lex_quoted(sc: _Scanner, quote: str, what: str) -> str:
    start = sc.loc()
    out = [sc.advance()]
    while True:
        sc.skip_splices()
        if sc.at_end() or sc.peek() == "\n":
            raise LexError(f"unterminated {what}", start)
        ch = sc.advance()
        out.append(ch)
        if ch == "\\":
            if sc.at_end() or sc.peek() == "\n":
                raise LexError(f"unterminated {what}", start)
            out.append(sc.advance())
            continue
        if ch == quote:
            return "".join(out)
