"""Packed source positions: the format in `ccomply.source` and what it must keep.

Tokens, tree nodes and symbols store a position as one int from
`source.pack`; `source.unpack` gives back its `Location`. The format must
round-trip every in-range (file, line, column), keep their tuple order so
packed positions sort as locations do, and refuse a field out of range
with a stage-tagged error rather than let it spill into its neighbour.
Every token the lexer and the preprocessor produce must decode to the
place of its text in its file.
"""
from __future__ import annotations

import os
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccomply.builtins import BUILTIN_MACRO_SPECS
from ccomply.errors import AnalysisError, LexError
from ccomply.frontend import lex, macro_from_define_flag, preprocess
from ccomply.source import (
    COLUMN_MAX, FILE_ID_MAX, LINE_MAX, Location, SourceFile, SourceManager, pack, unpack,
)
from rule_helpers import PRELUDE
from test_lifetime import SNIPPETS
from test_parser import CORPUS_SAMPLES

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
from gen import WORKLOADS, generate  # noqa: E402  (the generator imports nothing from ccomply)

POSITIONS = st.tuples(
    st.integers(-1, FILE_ID_MAX), st.integers(0, LINE_MAX), st.integers(0, COLUMN_MAX),
)
# Texts whose positions are easy to get wrong: splices inside and between
# tokens, tabs, comments that span lines, text on the last line.
EDGE_TEXTS = [
    "int ab\\\ncd = 1;\n",
    "int\tx;\n\t/* a\n b */ int y; // c\nint z;",
    'char *s = "ab\\\ncd"; char c = \'\\\\\';\n',
    "#define M(a) ((a) + \\\n 1)\nint v = M(2);\n",
    "x = 1.5e+3 + .5;\n\n\n  y",
]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(POSITIONS, POSITIONS)
def test_packing_round_trips_and_keeps_tuple_order(a, b):
    pa, pb = pack(*a), pack(*b)
    assert type(pa) is int and 0 <= pa < 1 << 60
    assert unpack(pa) == Location(*a) and unpack(pb) == Location(*b)
    assert (pa < pb) == (a < b) and (pa == pb) == (a == b)


def test_builtin_file_sorts_before_every_loaded_file():
    assert pack(-1, LINE_MAX, COLUMN_MAX) < pack(0, 0, 0)
    assert unpack(pack(-1, 1, 1)) == Location(-1, 1, 1)


@pytest.mark.parametrize("position", [
    (0, 1, COLUMN_MAX + 1), (0, LINE_MAX + 1, 1), (FILE_ID_MAX + 1, 1, 1),
    (-2, 1, 1), (0, -1, 1), (0, 1, -1),
])
def test_out_of_range_position_raises_a_lex_error(position):
    with pytest.raises(LexError) as exc:
        pack(*position)
    assert isinstance(exc.value, AnalysisError) and exc.value.stage == "lex"
    assert "out of range" in exc.value.message


def test_lexer_refuses_positions_it_cannot_pack():
    # A token past the last column would carry into the line field.
    with pytest.raises(LexError, match="out of range"):
        lex(SourceFile(0, "wide.c", " " * COLUMN_MAX + "x"))
    assert [t.origin for t in lex(SourceFile(0, "wide.c", " " * (COLUMN_MAX - 1) + "x"))] == [
        Location(0, 1, COLUMN_MAX)]
    with pytest.raises(LexError, match="out of range"):
        lex(SourceFile(FILE_ID_MAX + 1, "many.c", "int x;"))


def _offsets(text: str) -> list[int]:
    """The offset of the first character of each line, 1-based by index."""
    return [0, 0] + [m.end() for m in re.finditer("\n", text)]


def _spelled_at(manager: SourceManager, loc: Location, lines: dict[int, list[int]]) -> str:
    """The text at `loc` with splices taken out, long enough for any lexeme."""
    text = manager.get(loc.file).contents
    starts = lines.get(loc.file)
    if starts is None:
        starts = lines[loc.file] = _offsets(text)
    at = starts[loc.line] + loc.column - 1
    return text[at:at + 400].replace("\\\n", "")


def _tier1_inputs(workdir: str) -> tuple[SourceManager, list[str]]:
    """Every generated workload (seed 5) and every snippet the tests analyse, on disk."""
    paths = []
    for name in sorted(WORKLOADS):
        for path, text in generate(name, 5).files.items():
            full = os.path.join(workdir, name, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8") as fh:
                fh.write(text)
            paths.append(full)
    texts = [PRELUDE + t for t in SNIPPETS.values()] + CORPUS_SAMPLES + EDGE_TEXTS
    for i, text in enumerate(texts):
        full = os.path.join(workdir, f"snippet{i}.c")
        with open(full, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(full)
    manager = SourceManager()
    for path in paths:
        manager.load(path)
    return manager, paths


def test_every_token_decodes_to_its_own_text(tmp_path):
    manager, paths = _tier1_inputs(str(tmp_path))
    lines: dict[int, list[int]] = {}
    tokens = 0
    for path in paths:
        source = manager.load(path)
        for t in lex(source):
            assert t.origin.file == source.id
            assert _spelled_at(manager, t.origin, lines).startswith(t.lexeme), (path, t)
            tokens += 1
    assert tokens > 100_000


def test_every_expanded_token_and_frame_decodes_to_its_text(tmp_path):
    manager, paths = _tier1_inputs(str(tmp_path))
    builtins = [macro_from_define_flag(spec, manager) for spec in BUILTIN_MACRO_SPECS]
    lines: dict[int, list[int]] = {}
    frames = 0
    units = [p for p in paths if p.endswith(".c")]
    for path in units[:10] + units[-len(EDGE_TEXTS):]:
        tokens, _, _ = preprocess(manager.load(path), [], builtins, manager)
        for t in tokens:
            assert _spelled_at(manager, t.origin, lines).startswith(t.lexeme), (path, t)
            for frame in t.chain:
                assert _spelled_at(manager, frame.site, lines).startswith(frame.macro)
                frames += 1
    assert frames > 0
