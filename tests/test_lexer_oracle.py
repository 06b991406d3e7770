"""`lex` against the original character-at-a-time scanner (`lexer_oracle`).

On every input the two must give the same tokens, field for field, or
raise the same exception class with the same message and location.

Run as a script to compare every source file of all three generated
workloads:

    PYTHONPATH=src:tests:perfbench python3 tests/test_lexer_oracle.py --seeds 1 2 3
"""
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexer_oracle
from ccomply.errors import AnalysisError, LexError, UnsupportedConstructError
from ccomply.frontend.lexer import TokenKind, lex
from ccomply.source import Location, SourceFile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
from gen import WORKLOADS, generate  # noqa: E402  (the generator imports nothing from ccomply)

# C text, with splices, whole literals and whole comments, drawn three
# times as often as the pieces that end lexing with an error (stray quotes
# and backslashes, '@', '$', '`', bad bytes) or sit where splices,
# comments, trigraphs, digraphs, wide literals and exponents meet.
C_TEXT = list("abLxeEpP_019.+-*/%<>=!&|^~?:;,#()[]{} \t\n\f\v") + [
    "\\\n", '"s"', "'c'", '"\\\n"', "'\\\\'", "/* c */", "// c",
]
EDGES = list("'\"\\@$`") + [
    "/*", "*/", "//", "??", "<:", "%:", 'L"', "1e+", "\x80", "\x01", "\x7f",
]
PIECES = C_TEXT * 3 + EDGES


def outcome(lexer, text):
    try:
        tokens = lexer(SourceFile(0, "t.c", text))
    except AnalysisError as exc:
        return ("error", type(exc), exc.message, exc.loc)
    return ("tokens", [
        (t.kind, t.lexeme, t.origin, t.chain, t.at_bol, t.ws_before, t.no_expand)
        for t in tokens
    ])


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(PIECES), max_size=30).map("".join))
def test_lex_matches_seed_scanner(text):
    assert outcome(lex, text) == outcome(lexer_oracle.lex, text)


# Each character that begins pieces of two classes, in a piece of each.
SECOND_CHARACTER_DECIDES = [
    "x = .5 + 1.", "a...b", "a..b", "a/b /= c", "a // c\nb", "a /* c */ b", "\\", "a\\\nb",
    "a < b <<= c", "<%", "<:", "a % b %= c", "%>", "%:", "a ? b : c", ":>", "??=", "a ?? b",
    "\"", "\"s\"", "'", "'c'",
]


@pytest.mark.parametrize("text", SECOND_CHARACTER_DECIDES)
def test_second_character_decides_the_class(text):
    assert outcome(lex, text) == outcome(lexer_oracle.lex, text)


def at(line, column):
    return Location(0, line, column)


@pytest.mark.parametrize("text, expected", [
    ("/*", ("error", LexError, "unterminated block comment", at(1, 1))),
    ("a /*/", ("error", LexError, "unterminated block comment", at(1, 3))),
    ("L\\\n\"x\"", ("error", UnsupportedConstructError,
                    "wide character/string literals are not supported", at(1, 1))),
    ("???=", ("error", UnsupportedConstructError,
              "trigraph sequences are not supported", at(1, 2))),
    ("'\\\n'", ("error", LexError, "empty character constant", at(1, 1))),
    ("\"\\\\\n\"", ("error", LexError, "unterminated string literal", at(1, 1))),
])
def test_error_edges(text, expected):
    assert outcome(lex, text) == expected
    assert outcome(lexer_oracle.lex, text) == expected


def test_splice_after_exponent_letter_ends_the_number():
    text = "1e\\\n+5"
    assert outcome(lex, text) == outcome(lexer_oracle.lex, text)
    assert [(t.lexeme, t.origin.line, t.origin.column) for t in lex(SourceFile(0, "t.c", text))] == [
        ("1e", 1, 1), ("+", 2, 1), ("5", 2, 2),
    ]


def test_delete_character_is_an_other_token():
    text = "a \x7fb\n\x7f"
    assert outcome(lex, text) == outcome(lexer_oracle.lex, text)
    tokens = lex(SourceFile(0, "t.c", text))
    assert [(t.kind, t.lexeme, t.at_bol, t.ws_before) for t in tokens] == [
        (TokenKind.IDENT, "a", True, True),
        (TokenKind.OTHER, "\x7f", False, True),
        (TokenKind.IDENT, "b", False, False),
        (TokenKind.OTHER, "\x7f", True, True),
    ]


def test_standalone_splice_sets_no_flags():
    text = "+\\\n+"
    assert outcome(lex, text) == outcome(lexer_oracle.lex, text)
    tokens = lex(SourceFile(0, "t.c", text))
    assert [(t.lexeme, t.origin.line, t.at_bol, t.ws_before) for t in tokens] == [
        ("+", 1, True, True), ("+", 2, False, False),
    ]


def test_block_comment_ends_at_its_first_close():
    text = "/**/a/* b */c*/"
    assert outcome(lex, text) == outcome(lexer_oracle.lex, text)
    assert [t.lexeme for t in lex(SourceFile(0, "t.c", text))] == ["a", "c", "*", "/"]


def workload_diffs(workload: str, seed: int, files: int | None = None):
    """(files, tokens, files whose outcome differs) over the first `files`
    source files, headers included, in the generator's order."""
    project = generate(workload, seed)
    count = tokens = diffs = 0
    for text in list(project.files.values())[:files]:
        got, want = outcome(lex, text), outcome(lexer_oracle.lex, text)
        count += 1
        tokens += len(got[1]) if got[0] == "tokens" else 0
        diffs += got != want or got[0] != "tokens"
    return count, tokens, diffs


def test_workload_files_match_oracle():
    for workload in WORKLOADS:
        files, tokens, diffs = workload_diffs(workload, 1, 10)
        assert files == 10 and tokens > 0 and diffs == 0


def main(argv: list[str]) -> int:
    """Compare every source file of all three workloads at the given seeds."""
    import argparse
    import json

    ap = argparse.ArgumentParser(description=main.__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    report = {}
    for workload in WORKLOADS:
        for seed in args.seeds:
            files, tokens, diffs = workload_diffs(workload, seed)
            report[f"{workload}:{seed}"] = {"files": files, "tokens": tokens, "diffs": diffs}
    print(json.dumps(report))
    return 0 if all(r["diffs"] == 0 for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
