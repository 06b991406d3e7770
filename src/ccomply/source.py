"""Source files, physical locations, and macro-expansion provenance."""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple


class Location(NamedTuple):
    """A physical position in a loaded source file (1-based line/column).

    The lexer builds one per token, so it is a named tuple rather than a
    frozen dataclass, whose constructor sets each field through
    `object.__setattr__` and costs about twice as much.
    """

    file: int
    line: int
    column: int

    def key(self) -> tuple[int, int, int]:
        return (self.file, self.line, self.column)


class ExpansionFrame(NamedTuple):
    """One step of macro expansion: which macro, invoked where.

    The site is always a physical location: for a nested expansion the
    inner macro's name token physically appears in the outer macro's
    definition, so walking any chain ends in real source text.

    The preprocessor builds one per macro invocation, so it is a named
    tuple rather than a frozen dataclass, for the reason `Location` gives.
    """

    macro: str
    site: Location


class Span(NamedTuple):
    """Source extent of a token run or AST node.

    `start`/`end` are reporting positions: for macro-produced text they
    point at the outermost invocation site, with the expansion chain
    kept in `via` so reports can show the full trail.

    The parser builds one per AST node and per declarator, so it is a
    named tuple rather than a frozen dataclass, for the reason `Location`
    gives.
    """

    start: Location
    end: Location
    via: tuple[ExpansionFrame, ...] = ()


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

    Conditionals, `#undef`, `#include`, `#error`, `#pragma` and the
    redefinition check still run per unit, against its own macros. The
    tokens and definitions here are shared by every unit and must not be
    mutated.
    """

    def __init__(self) -> None:
        self._files: list[SourceFile] = []
        self._by_path: dict[str, int] = {}
        self.lexed: dict[int, list] = {}
        self.directive_lines: dict[int, list[tuple[int, int]]] = {}
        self.defines: dict[int, dict[int, object]] = {}

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
