import pytest

from ccomply.errors import LexError, UnsupportedConstructError
from ccomply.frontend import TokenKind, lex
from ccomply.source import ExpansionFrame, Location, Span, pack
from support import lex_text, lexemes


def kinds(tokens):
    return [t.kind for t in tokens]


def test_shift_statement_tokens():
    toks = lex_text("i = i << 32;")
    assert lexemes(toks) == ["i", "=", "i", "<<", "32", ";"]
    assert kinds(toks) == [
        TokenKind.IDENT,
        TokenKind.PUNCT,
        TokenKind.IDENT,
        TokenKind.PUNCT,
        TokenKind.NUMBER,
        TokenKind.PUNCT,
    ]


def test_empty_file_yields_no_tokens():
    assert lex_text("") == []


def test_comment_replaced_by_space_keeps_physical_column():
    toks = lex_text("/*c*/a")
    assert len(toks) == 1
    tok = toks[0]
    assert tok.kind is TokenKind.IDENT and tok.lexeme == "a"
    # Physical column of 'a' after the 5-char comment, per reference
    # preprocessor token dumps (clang -dump-tokens / gcc caret diagnostics).
    assert (tok.origin.line, tok.origin.column) == (1, 6)


def test_line_comment_and_block_comment_are_whitespace():
    toks = lex_text("a // x y z\nb /* multi\nline */ c")
    assert lexemes(toks) == ["a", "b", "c"]
    assert [t.origin.line for t in toks] == [1, 2, 3]


def test_line_splice_inside_identifier():
    toks = lex_text("ab\\\ncd = 1;")
    assert lexemes(toks) == ["abcd", "=", "1", ";"]
    assert toks[0].origin.column == 1


def test_line_splice_does_not_start_new_logical_line():
    toks = lex_text("x\\\ny")
    assert lexemes(toks) == ["xy"]
    toks = lex_text("x \\\n y")
    assert lexemes(toks) == ["x", "y"]
    assert toks[1].at_bol is False
    assert toks[1].origin.line == 2


def test_positions_and_bol_flags():
    toks = lex_text("a b\n  c\n")
    assert [(t.origin.line, t.origin.column) for t in toks] == [(1, 1), (1, 3), (2, 3)]
    assert [t.at_bol for t in toks] == [True, False, True]
    assert [t.ws_before for t in toks] == [True, True, True]


def test_adjacent_punctuation_maximal_munch():
    toks = lex_text("a+++b; x <<= 2; p->q; a...b")
    assert lexemes(toks) == [
        "a", "++", "+", "b", ";",
        "x", "<<=", "2", ";",
        "p", "->", "q", ";",
        "a", "...", "b",
    ]


def test_string_and_char_literals():
    toks = lex_text(r'char *s = "a\"b\\"; char c = ' + r"'\n';")
    lx = lexemes(toks)
    assert r'"a\"b\\"' in lx
    assert r"'\n'" in lx
    assert toks[4].kind is TokenKind.STRING


def test_pp_number_forms():
    toks = lex_text("0x1F 1e10 0.5f 1u 3ULL .5 1.0e-3")
    assert kinds(toks) == [TokenKind.NUMBER] * 7


def test_unterminated_string_reports_location():
    with pytest.raises(LexError) as exc:
        lex_text('a = "oops\n')
    assert exc.value.loc is not None and exc.value.loc.line == 1


def test_unterminated_char_literal():
    with pytest.raises(LexError):
        lex_text("c = 'x\n")


def test_unterminated_block_comment():
    with pytest.raises(LexError) as exc:
        lex_text("a /* never closed")
    assert "comment" in str(exc.value)


def test_invalid_byte_rejected_outside_literals():
    with pytest.raises(LexError) as exc:
        lex_text("int a\x80;")
    assert "invalid byte" in str(exc.value)


def test_high_bytes_pass_through_string_literals():
    toks = lex_text('char *s = "caf\xe9";')
    assert toks[4].kind is TokenKind.STRING


def test_trigraph_rejected():
    with pytest.raises(UnsupportedConstructError):
        lex_text("int a??(2??);")


def test_digraph_rejected():
    with pytest.raises(UnsupportedConstructError):
        lex_text("int a<:2:>;")


def test_wide_literal_rejected():
    with pytest.raises(UnsupportedConstructError):
        lex_text('wchar_t *p = L"wide";')


def test_lexing_is_deterministic():
    text = "#define A B\nint main(void) { return A + 0x10; }\n"
    a = lex_text(text)
    b = lex_text(text)
    assert lexemes(a) == lexemes(b)
    assert [t.origin for t in a] == [t.origin for t in b]


class TestLocation:
    """`Location`, `Span` and `ExpansionFrame` are immutable values: fields,
    keywords, defaults, equality, hash and repr."""

    def test_keyword_and_positional_construction_agree(self):
        loc = Location(file=2, line=7, column=3)
        assert loc == Location(2, 7, 3)
        assert (loc.file, loc.line, loc.column) == (2, 7, 3)
        assert loc.key() == (2, 7, 3) and type(loc.key()) is tuple

    def test_equal_values_hash_alike_and_differ_by_any_field(self):
        loc = Location(0, 1, 1)
        assert hash(loc) == hash(Location(0, 1, 1))
        assert {loc, Location(0, 1, 1)} == {loc}
        assert loc != Location(1, 1, 1) and loc != Location(0, 2, 1) and loc != Location(0, 1, 2)
        assert Span(loc, loc) == Span(Location(0, 1, 1), Location(0, 1, 1))

    def test_fields_cannot_be_reassigned(self):
        loc = Location(0, 1, 1)
        with pytest.raises(AttributeError):
            loc.line = 2

    def test_span_and_frame_are_values_too(self):
        loc, other = Location(0, 1, 1), Location(0, 2, 5)
        frame = ExpansionFrame(macro="M", pos=pack(0, 2, 5))
        assert frame.site == other
        assert frame == ExpansionFrame("M", pack(0, 2, 5))
        assert hash(frame) == hash(ExpansionFrame("M", pack(0, 2, 5)))
        assert repr(frame) == f"ExpansionFrame(macro='M', pos={pack(0, 2, 5)!r})"
        span = Span(start=loc, end=other)
        assert span.via == () and span == Span(loc, other, ())
        assert span != Span(loc, other, (frame,)) and span != Span(other, other)
        assert hash(Span(loc, other, (frame,))) == hash(Span(loc, other, via=(frame,)))
        assert repr(span) == f"Span(start={loc!r}, end={other!r}, via=())"
        with pytest.raises(AttributeError):
            span.via = (frame,)

    def test_every_token_origin_is_a_location(self):
        toks = lex_text("int x;\n  x = 1;")
        assert [t.origin.key() for t in toks][-4:] == [(0, 2, 3), (0, 2, 5), (0, 2, 7), (0, 2, 8)]
        assert all(type(t.origin) is Location for t in toks)
