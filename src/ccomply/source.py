"""Source files, physical positions, and macro-expansion provenance.

A position is stored as one plain `int`, packed from (file id, line,
column) by `pack` and decoded into a `Location` by `unpack`:

    ((file + 1) << 42) | (line << 20) | column

- `column` takes 20 bits: 0 .. `COLUMN_MAX` (1,048,575);
- `line` takes 22 bits: 0 .. `LINE_MAX` (4,194,303);
- `file + 1` takes 18 bits, so file ids run from -1 (the builtin
  declarations' file) to `FILE_ID_MAX` (262,142).

Packed values are below 2**60, and comparing two of them compares their
(file, line, column) tuples. `pack` raises a `LexError` for a field out of
range rather than let it spill into its neighbour. This module is the only
one that knows the format: no other module shifts or masks position bits.

Tokens, expansion frames, tree nodes and symbols keep packed positions: an
int is not tracked by the cyclic collector, and a node shares the int of
its token. `Location`, `Span` and `ExpansionFrame.site` are built only
when a finding, its evidence or an error reports a position.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple, Optional

from ccomply.errors import LexError

_LINE_SHIFT = 20
_FILE_SHIFT = 42
COLUMN_MAX = (1 << _LINE_SHIFT) - 1
LINE_MAX = (1 << (_FILE_SHIFT - _LINE_SHIFT)) - 1
FILE_ID_MAX = (1 << 18) - 2  # file + 1 fills the top 18 bits


class Location(NamedTuple):
    """A physical position in a loaded source file (1-based line/column)."""

    file: int
    line: int
    column: int

    def key(self) -> tuple[int, int, int]:
        return (self.file, self.line, self.column)


def pack(file: int, line: int, column: int) -> int:
    """The packed position of (file, line, column); see the module docstring."""
    if 0 <= column <= COLUMN_MAX and 0 <= line <= LINE_MAX and -1 <= file <= FILE_ID_MAX:
        return ((file + 1) << _FILE_SHIFT) | (line << _LINE_SHIFT) | column
    raise LexError(
        f"source position (file {file}, line {line}, column {column}) is out of range: "
        f"file ids reach {FILE_ID_MAX}, lines {LINE_MAX} and columns {COLUMN_MAX}"
    )


def line_base(file: int, line: int, line_break: int) -> tuple[int, int]:
    """(base, limit) for line `line` of file `file`, which follows offset
    `line_break` of the file's text (-1 for the first line): the character
    at offset `pos` is in column `pos - line_break`, and its packed position
    is `base | (pos - line_break)` for every `pos` below `limit`. At `limit`
    the column passes `COLUMN_MAX`; when `file` or `line` is out of range no
    column is valid. Past the limit `pack` raises.

    The base has no column bits, so `|` adds the column; a bitwise result
    takes no more memory than its larger operand, where `+` may allocate
    one digit more for the same value."""
    if 0 <= line <= LINE_MAX and -1 <= file <= FILE_ID_MAX:
        return pack(file, line, 0), line_break + COLUMN_MAX + 1
    return 0, line_break + 1


def unpack(pos: int) -> Location:
    """The `Location` a packed position stands for."""
    return Location((pos >> _FILE_SHIFT) - 1, (pos >> _LINE_SHIFT) & LINE_MAX, pos & COLUMN_MAX)


class ExpansionFrame(NamedTuple):
    """One step of macro expansion: which macro, invoked where.

    `pos` is the packed position of the invocation, and `site` its
    `Location`. The site is always a physical location: for a nested
    expansion the inner macro's name token physically appears in the outer
    macro's definition, so walking any chain ends in real source text.
    """

    macro: str
    pos: int

    @property
    def site(self) -> Location:
        return unpack(self.pos)


class Span(NamedTuple):
    """Source extent of a token run or AST node, as reported.

    `start`/`end` are reporting positions: for macro-produced text they
    point at the outermost invocation site, with the expansion chain
    kept in `via` so reports can show the full trail.
    """

    start: Location
    end: Location
    via: tuple[ExpansionFrame, ...] = ()


class Extent:
    """Base of every holder that keeps a source extent inline.

    A subclass declares three fields: `start` and `end`, the packed
    reporting positions of its first and last token, and `via`, the
    expansion chain of its first token (the shared `()` when there is
    none). `span` and `loc` decode them; a holder whose `start` is None
    has neither.
    """

    __slots__ = ()
    start: Optional[int]
    end: Optional[int]
    via: tuple[ExpansionFrame, ...]

    @property
    def span(self) -> Optional[Span]:
        start = self.start
        if start is None:
            return None
        return Span(unpack(start), unpack(self.end), self.via)

    @property
    def loc(self) -> Optional[Location]:
        """The decoded start, where an error reports the holder."""
        start = self.start
        return None if start is None else unpack(start)


@dataclass(frozen=True)
class SourceFile:
    id: int
    path: str
    contents: str


class SourceManager:
    """Owns all loaded files; ids are dense and unique per run.

    A loaded path is never reloaded, so a file's text, and therefore its
    tokens, are fixed for the manager's lifetime. The preprocessor keeps
    here, for every file reached through `#include` and keyed by file id,
    what the file's text alone decides, so that it is worked out once per
    run however many translation units include the file:

    - `lexed`: the file's tokens;
    - `directive_lines`: (index of the '#', index past the last token) of
      each directive line, so a unit jumps over directives and skipped
      groups without scanning their tokens;
    - `defines`: the `MacroDef` parsed from a `#define` line, keyed by the
      index of its '#', filled when a unit first reaches the line in an
      active group. A line that fails to parse has no entry.

    What processing an included file produced depends also on the macros
    defined before it. `memo` keeps it per file id, as a list of at most
    `MEMO_ENTRIES` `IncludeEntry`s, most recently used first: each holds the
    file's output tokens, its net change to the macro table, its pragma
    records, the files it included and its read set, the macro names it
    looked up with the definition each denoted. An `#include` replays an
    entry when every name in its read set still denotes the same object,
    and otherwise processes the file and keeps a new entry. `memo_made` counts
    the entries kept, and numbers them; `memo_hits` counts the replays. The
    tokens, definitions and entries here are shared by every unit and must
    not be mutated.

    `prefixes` is the run's table of header prefixes: the declarations,
    parser state and resolver state of the included text that units start
    with, kept so that units starting with the same text parse and resolve
    it once. It is keyed by every leading run of the serials of the memo
    entries that produced that text, one serial per leading `#include`, so
    units that share only their first few headers share those: a trie over
    include entries, in which a key maps to None until a second unit starts
    with it. `parsing.prefix` owns its entries; the preprocessor hands the
    table on with each unit's tokens.
    """

    def __init__(self) -> None:
        self._files: list[SourceFile] = []
        self._by_path: dict[str, int] = {}
        self.lexed: dict[int, list] = {}
        self.directive_lines: dict[int, list[tuple[int, int]]] = {}
        self.defines: dict[int, dict[int, object]] = {}
        self.memo: dict[int, list] = {}
        self.memo_made = 0
        self.memo_hits = 0
        self.prefixes: dict[tuple[int, ...], object] = {}

    def add_virtual(self, path: str, contents: str) -> SourceFile:
        """Register in-memory contents under a display path."""
        return self._add(path, contents)

    def load(self, path: str) -> SourceFile:
        real = os.path.realpath(path)
        if real in self._by_path:
            return self._files[self._by_path[real]]
        with open(path, "rb") as fh:
            raw = fh.read()
        text = raw.decode("latin-1")
        f = self._add(path, text, real_key=real)
        return f

    def _add(self, path: str, contents: str, real_key: str | None = None) -> SourceFile:
        # Normalize line endings once so lexing can assume bare '\n'.
        contents = contents.replace("\r\n", "\n").replace("\r", "\n")
        f = SourceFile(id=len(self._files), path=path, contents=contents)
        self._files.append(f)
        if real_key is not None:
            self._by_path[real_key] = f.id
        return f

    def get(self, file_id: int) -> SourceFile:
        return self._files[file_id]

    def path_of(self, file_id: int) -> str:
        return self._files[file_id].path

    def has(self, file_id: int) -> bool:
        return 0 <= file_id < len(self._files)

    def __len__(self) -> int:
        return len(self._files)


def format_location(mgr: SourceManager, loc: Location) -> str:
    return f"{mgr.path_of(loc.file)}:{loc.line}:{loc.column}"
