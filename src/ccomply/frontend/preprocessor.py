"""Tracked C preprocessor.

Supported directives: #include (quoted and angle), #define/#undef
(object- and function-like), #if/#ifdef/#ifndef/#elif/#else/#endif,
#error. #pragma and _Pragma are consumed and recorded. Variadic
macros, stringize (#) and paste (##) are rejected as unsupported.

Every output token carries its physical origin and, when it came out
of a macro, the full expansion chain (outermost invocation first), so
diagnostics can always be mapped back to pre-preprocessing source.

What a file's text alone decides is worked out once per run and kept in
the `SourceManager` for every file reached through `#include`: its tokens,
the extent of each directive line, and the `MacroDef` parsed from each
`#define` line the first time a translation unit reaches it in an active
group (a line that fails to parse is not kept, so each unit that reaches
it raises again). Cached tokens and definitions are shared by every unit
and must not be mutated.

Macro expansion follows Prosser's algorithm (X3J11/86-196): a token's hide
set (`PPToken.no_expand`) names the macros it came out of, and a name in
its own hide set is never expanded. Each invocation builds its tokens once,
straight from the body and the arguments (`MacroDef.slots` says which
parameter each body token names). Every body token of the invocation
shares one chain and one hide set object; argument tokens with a chain or
hide set of their own share one extended chain and hide set per distinct
inner object in the invocation. An argument that holds no name that can
expand is substituted as it is; any other is expanded on its own first.
A name that can still expand is a defined macro outside the token's hide
set, or `_Pragma` where the text consumes it. An expansion that holds
none goes straight to the output; any other waits in front of the rest of
the text and is rescanned. Either way the read set gets exactly the names
the scan of those tokens would look up.

What processing an included file produced also depends on the macros
defined before it, so the manager keeps it per file as a few
`IncludeEntry`s (its memo): the output tokens, the net change to the macro
table, the pragma records, the files it included and how deep they went,
and its *read set*, each macro name its conditionals, `defined`,
expansions, computed includes and redefinition checks looked up before the
file itself wrote the name, with the `MacroDef` found or None. A later
`#include` of the file replays an entry instead of processing the file
when every name in its read set still denotes the same object, the include
paths are the same and the include depth still fits; this is the
verifying trace of Mokhov, Mitchell and Peyton Jones, "Build systems a la
carte" (ICFP 2018). A file whose processing raised keeps no entry, so each
unit that reaches it raises again. What a nested include read and wrote is
recorded into every enclosing file's entry. The files themselves are
assumed not to change during a run, as the manager assumes for loaded
files.

The same idea reaches past this stage. The returned `UnitTokens` say
which entries produced the included text the unit starts with, one per
leading `#include` that gave tokens, and where each one's tokens end, and
carry the run's table of header prefixes, so that `parse` and `resolve`
work out the declarations of every leading run of those entries that
several units start with once per run (see `parsing.prefix`).
"""
from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from operator import is_

from ccomply.errors import LexError, PreprocessError, UnsupportedConstructError
from ccomply.frontend.lexer import (
    PPToken, TokenKind, int_constant_value, lex, literal_units, render_tokens,
)
from ccomply.sema.intarith import IntResult, binary, result_type, unary, unary_type
from ccomply.sema.typesys import (
    IntegerModel, TypeDesc, convert_int, int_constant_type, make_int, usual_arith_conversion,
)
from ccomply.source import ExpansionFrame, Location, SourceFile, SourceManager, pack, unpack

INCLUDE_DEPTH_LIMIT = 64

# How many entries the memo keeps per included file, most recently used
# first: a file that reads a macro each unit defines anew keeps no more.
MEMO_ENTRIES = 4

# Parentheses open inside one expression, in `#if` here and in the parser.
# C99 5.2.4.1 requires 63 levels of parenthesized expressions; deeper
# nesting is rejected before the recursive descent exhausts Python's stack.
PAREN_NESTING_LIMIT = 63

_IDENT = TokenKind.IDENT
# A `\"` or `\\` escape in a _Pragma string literal (C99 6.10.9).
_DESTRINGIZE = re.compile(r'\\(["\\])')


@dataclass(frozen=True, slots=True)
class MacroDef:
    """One macro definition; shared by every translation unit of a run.

    The body tokens are lexed tokens: no expansion chain, no hide set.
    """

    name: str
    body: tuple[PPToken, ...]
    params: tuple[str, ...] | None = None  # None = object-like
    def_pos: int | None = None  # packed position of the macro's name
    # The hide set of a top-level expansion: {name}.
    hide: frozenset[str] = field(init=False, repr=False, compare=False)
    # Parallel to `body`: the index of the parameter each body token names,
    # or None.
    slots: tuple[int | None, ...] = field(init=False, repr=False, compare=False)
    # Each identifier of the body that names no parameter, once, in order.
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "hide", frozenset((self.name,)))
        index = {p: i for i, p in enumerate(self.params or ())}
        slots = tuple(index.get(t.lexeme) if t.kind is _IDENT else None for t in self.body)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "names", tuple(dict.fromkeys(
            t.lexeme for t, slot in zip(self.body, slots) if t.kind is _IDENT and slot is None
        )))

    @property
    def def_site(self) -> Location | None:
        return None if self.def_pos is None else unpack(self.def_pos)

    def same_definition(self, other: "MacroDef") -> bool:
        if self.params != other.params or len(self.body) != len(other.body):
            return False
        return all(a.same_text(b) for a, b in zip(self.body, other.body))


@dataclass(frozen=True)
class PragmaRecord:
    pos: int  # packed position of the `#pragma` or `_Pragma`
    text: str

    @property
    def loc(self) -> Location:
        return unpack(self.pos)


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


# In a read set being recorded: the file wrote this name before reading it.
_WRITTEN = object()


class IncludeEntry:
    """What processing one `#include`d file produced, and the macros it read.

    Kept in the file's memo (`SourceManager.memo`) and shared by every unit
    that replays it; nothing changes an entry once it is kept.
    """

    __slots__ = ("serial", "paths", "reads", "writes", "tokens", "pragmas", "loads", "height")

    def __init__(self, paths: tuple[str, ...]) -> None:
        # Unique in the run's manager; set when the entry is kept.
        self.serial = -1
        # The include paths the file was processed under.
        self.paths = paths
        # Macro name -> the definition it denoted, or None, for each name
        # read before the file wrote it (`_WRITTEN` while recording).
        self.reads: dict[str, object] = {}
        # Macro name -> its definition after the file, or None if undefined.
        self.writes: dict[str, MacroDef | None] = {}
        self.tokens: list[PPToken] = []
        self.pragmas: list[PragmaRecord] = []
        # The path of every file it included, nested ones too, in order.
        self.loads: list[str] = []
        # How many include levels below the file its processing reached.
        self.height = 0

    def fits(self, macros: dict[str, MacroDef], paths: tuple[str, ...], depth: int) -> bool:
        """Whether processing the file at include depth `depth` under `macros`
        and `paths` would give this entry."""
        reads = self.reads
        return (depth + self.height <= INCLUDE_DEPTH_LIMIT and self.paths == paths
                and all(map(is_, map(macros.get, reads), reads.values())))

    def absorb(self, inner: "IncludeEntry") -> None:
        """Record into this entry, while its file is processed, what an
        include of another file did."""
        reads = self.reads
        for name, macro in inner.reads.items():
            reads.setdefault(name, macro)
        for name in inner.writes:
            reads.setdefault(name, _WRITTEN)
        self.writes.update(inner.writes)
        self.loads += inner.loads
        self.height = max(self.height, inner.height + 1)


class UnitTokens(list):
    """The token stream of one translation unit, as `preprocess` returns it.

    A list of `PPToken`s that also carries what `parse` needs to share
    header prefixes with earlier units of the run (see `parsing.prefix`):

    - `prefixes`: the run's table of prefixes, `SourceManager.prefixes`;
    - `key`: the serials of the `IncludeEntry`s whose tokens the stream
      starts with, in order, one per `#include` of the main file that gave
      tokens before any text of the main file did;
    - `bounds`: parallel to `key`, the index past the tokens of each of
      those entries, so `bounds[k - 1]` tokens came from the first `k`.

    Units whose keys start with the same `k` serials start with the same
    `bounds[k - 1]` token objects.
    """

    __slots__ = ("prefixes", "key", "bounds")


def _directive_lines(tokens: list[PPToken]) -> list[tuple[int, int]]:
    """(index of the '#', index past the line's last token) of each directive.

    Lexed tokens have no expansion chain, so every '#' that begins a line
    introduces a directive.
    """
    lines = []
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.at_bol and tok.lexeme == "#":
            end = i + 1
            while end < n and not tokens[end].at_bol:
                end += 1
            lines.append((i, end))
    return lines


@dataclass(slots=True)
class _CondFrame:
    parent_active: bool
    active: bool  # implies parent_active, so the top frame decides activity
    taken: bool
    saw_else: bool = False
    site: int | None = None  # packed position of the opening directive


class _Preprocessor:
    def __init__(self, include_paths: list[str], manager: SourceManager):
        self.include_paths = tuple(include_paths)
        self.manager = manager
        self.macros: dict[str, MacroDef] = {}
        self.out: list[PPToken] = []
        # The serials of the memo entries whose tokens `out` starts with,
        # and the index past each one's tokens.
        self.key: list[int] = []
        self.bounds: list[int] = []
        # The entry of the innermost included file being processed, if any.
        self.trace: IncludeEntry | None = None
        self.pragmas: list[PragmaRecord] = []
        # Whether the innermost conditional group of the current file is
        # active; a file is only processed from an active `#include`.
        self.active = True

    # ---- file processing ----------------------------------------------

    def process_file(
        self,
        source: SourceFile,
        tokens: list[PPToken],
        lines: list[tuple[int, int]],
        defines: dict[int, MacroDef],
        depth: int,
        site: int | None,
    ) -> None:
        """Preprocess one file; `lines` are its `_directive_lines` and
        `defines` holds the definitions parsed from its `#define` lines,
        keyed by the index of the '#'. `site` is the packed position of
        the `#include` that reached it."""
        if depth > INCLUDE_DEPTH_LIMIT:
            raise PreprocessError(
                f"include depth exceeded ({INCLUDE_DEPTH_LIMIT}) while including {source.path}",
                unpack(site),
            )
        conds: list[_CondFrame] = []
        pos = 0
        for start, end in lines:
            if self.active:
                self._scan(tokens, pos, start, self.out, True)
            pos = end
            self._directive(tokens, start, end, conds, depth, source, defines)
        if self.active:
            self._scan(tokens, pos, len(tokens), self.out, True)
        if conds:
            raise PreprocessError("unmatched conditional at end of file", unpack(conds[-1].site))

    # ---- directives ----------------------------------------------------

    def _directive(
        self,
        tokens: list[PPToken],
        start: int,
        end: int,
        conds: list[_CondFrame],
        depth: int,
        source: SourceFile,
        defines: dict[int, MacroDef],
    ) -> None:
        if start + 1 == end:
            return  # null directive '#'
        head = tokens[start + 1]
        name = head.lexeme if head.kind is TokenKind.IDENT else None
        if name == "define":
            if self.active:
                macro = defines.get(start)
                if macro is None:
                    macro = defines[start] = self._parse_define(tokens[start + 2:end], head)
                self._define(macro)
            return
        rest = tokens[start + 2:end]

        if name in ("if", "ifdef", "ifndef"):
            if not self.active:
                conds.append(_CondFrame(False, False, True, site=head.pos))
                return
            value = self._conditional_value(name, rest, head)
            conds.append(_CondFrame(True, value, value, site=head.pos))
            self.active = value
            return
        if name == "elif":
            if not conds:
                raise PreprocessError("#elif without matching #if", head.origin)
            frame = conds[-1]
            if frame.saw_else:
                raise PreprocessError("#elif after #else", head.origin)
            if not frame.parent_active or frame.taken:
                frame.active = self.active = False
                return
            value = self._conditional_value("if", rest, head)
            frame.active = frame.taken = self.active = value
            return
        if name == "else":
            if not conds:
                raise PreprocessError("#else without matching #if", head.origin)
            frame = conds[-1]
            if frame.saw_else:
                raise PreprocessError("duplicate #else", head.origin)
            frame.saw_else = True
            frame.active = self.active = frame.parent_active and not frame.taken
            frame.taken = True
            return
        if name == "endif":
            if not conds:
                raise PreprocessError("#endif without matching #if", head.origin)
            conds.pop()
            self.active = conds[-1].active if conds else True
            return

        if not self.active:
            return  # non-conditional directives in skipped groups are ignored

        if name == "undef":
            if not rest or rest[0].kind is not TokenKind.IDENT:
                raise PreprocessError("#undef requires a macro name", head.origin)
            self._write(rest[0].lexeme, None)
            return
        if name == "include":
            self._include(rest, head, depth, source)
            return
        if name == "error":
            raise PreprocessError(f"#error {render_tokens(rest)}".rstrip(), head.origin)
        if name == "pragma":
            self.pragmas.append(PragmaRecord(head.pos, render_tokens(rest)))
            return
        if name == "line":
            raise UnsupportedConstructError("#line is not supported", head.origin)
        raise PreprocessError(f"unknown preprocessing directive #{head.lexeme}", head.origin)

    def _conditional_value(self, kind: str, rest: list[PPToken], head: PPToken) -> bool:
        if kind in ("ifdef", "ifndef"):
            if not rest or rest[0].kind is not TokenKind.IDENT:
                raise PreprocessError(f"#{kind} requires a macro name", head.origin)
            defined = self._lookup(rest[0].lexeme) is not None
            return defined if kind == "ifdef" else not defined
        if not rest:
            raise PreprocessError("#if with no controlling expression", head.origin)
        resolved = self._resolve_defined(rest)
        expanded: list[PPToken] = []
        self._scan(resolved, 0, len(resolved), expanded, False)
        return evaluate_pp_condition(expanded, at=head.origin) != 0

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
                value = "0" if self._lookup(name) is None else "1"
                out.append(PPToken(TokenKind.NUMBER, value, t.pos, chain=t.chain))
                i = j + 1
                continue
            out.append(t)
            i += 1
        return out

    @staticmethod
    def _parse_define(rest: list[PPToken], head: PPToken) -> MacroDef:
        """The definition a `#define` line gives; depends on the line alone."""
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
        return MacroDef(name_tok.lexeme, body, params, name_tok.pos)

    def _define(self, macro: MacroDef) -> None:
        existing = self._lookup(macro.name)
        if existing is not None and existing is not macro and not existing.same_definition(macro):
            raise PreprocessError(
                f"macro {macro.name!r} redefined with a different body", macro.def_site
            )
        self._write(macro.name, macro)

    def _lookup(self, name: str) -> MacroDef | None:
        """The macro `name` denotes, noted in the read set being recorded."""
        macro = self.macros.get(name)
        if self.trace is not None:
            self.trace.reads.setdefault(name, macro)
        return macro

    def _write(self, name: str, macro: MacroDef | None) -> None:
        """Define `name` as `macro`, or undefine it if `macro` is None."""
        if macro is None:
            self.macros.pop(name, None)
        else:
            self.macros[name] = macro
        trace = self.trace
        if trace is not None:
            trace.reads.setdefault(name, _WRITTEN)
            trace.writes[name] = macro

    def _include(self, rest: list[PPToken], head: PPToken, depth: int, source: SourceFile) -> None:
        name, angled = self._include_name(rest, head)
        path = self._resolve_include(name, angled, source)
        if path is None:
            form = f"<{name}>" if angled else f'"{name}"'
            raise PreprocessError(f"include file not found: {form}", head.origin)
        included = self.manager.load(path)
        # Whether the main file has produced no token of its own yet.
        leading = depth == 0 and len(self.out) == (self.bounds[-1] if self.bounds else 0)
        entry = self._replay(included, depth + 1) or self._record(included, depth + 1, head.pos)
        trace = self.trace
        if trace is not None:
            trace.loads.append(path)
            trace.absorb(entry)
        if leading and entry.tokens:
            self.key.append(entry.serial)
            self.bounds.append(len(self.out))

    def _replay(self, source: SourceFile, depth: int) -> IncludeEntry | None:
        """Replay a kept entry of `source` that fits, if there is one."""
        manager = self.manager
        entries = manager.memo.get(source.id, ())
        macros = self.macros
        for i, entry in enumerate(entries):
            if entry.fits(macros, self.include_paths, depth):
                break
        else:
            return None
        if i:
            entries.insert(0, entries.pop(i))
        self.out += entry.tokens
        self.pragmas += entry.pragmas
        for name, macro in entry.writes.items():
            if macro is None:
                macros.pop(name, None)
            else:
                macros[name] = macro
        for path in entry.loads:
            manager.load(path)
        manager.memo_hits += 1
        return entry

    def _record(self, source: SourceFile, depth: int, site: int) -> IncludeEntry:
        """Process `source` at include depth `depth` and keep what it produced."""
        manager = self.manager
        tokens = manager.lexed.get(source.id)
        if tokens is None:
            tokens = lex(source)
            manager.lexed[source.id] = tokens
            manager.directive_lines[source.id] = _directive_lines(tokens)
            manager.defines[source.id] = {}
        entry = IncludeEntry(self.include_paths)
        outer, self.trace = self.trace, entry
        out, pragmas = len(self.out), len(self.pragmas)
        self.process_file(
            source, tokens, manager.directive_lines[source.id], manager.defines[source.id],
            depth, site,
        )
        self.trace = outer
        entry.reads = {name: m for name, m in entry.reads.items() if m is not _WRITTEN}
        entry.tokens = self.out[out:]
        entry.pragmas = self.pragmas[pragmas:]
        entry.serial = manager.memo_made
        manager.memo_made += 1
        entries = manager.memo.setdefault(source.id, [])
        entries.insert(0, entry)
        del entries[MEMO_ENTRIES:]
        return entry

    def _include_name(self, rest: list[PPToken], head: PPToken) -> tuple[str, bool]:
        for attempt in range(2):
            if len(rest) == 1 and rest[0].kind is TokenKind.STRING:
                return rest[0].lexeme[1:-1], False
            if rest and rest[0].is_punct("<"):
                # C99 6.10.2: the characters between '<' and '>' as written;
                # a run of blanks between tokens reads as one space.
                parts = []
                for t in rest[1:]:
                    if t.ws_before:
                        parts.append(" ")
                    if t.is_punct(">"):
                        return "".join(parts), True
                    parts.append(t.lexeme)
            if attempt == 0:
                written, rest = rest, []
                self._scan(written, 0, len(written), rest, False)
        raise PreprocessError("invalid #include form", head.origin)

    def _resolve_include(self, name: str, angled: bool, source: SourceFile) -> str | None:
        dirs: list[str] = []
        if not angled:
            dirs.append(os.path.dirname(source.path) or ".")
        dirs.extend(self.include_paths)
        for d in dirs:
            # One spelling per file: `h.h`, not `./h.h` or `sub/../h.h`.
            candidate = os.path.normpath(os.path.join(d, name))
            if os.path.isfile(candidate):
                return candidate
        return None

    # ---- macro expansion ------------------------------------------------

    def _scan(
        self, tokens: list[PPToken], i: int, limit: int, out: list[PPToken], pragma: bool
    ) -> None:
        """Expand `tokens[i:limit]` into `out`; with `pragma`, consume each
        `_Pragma` operator as text outside directives does (C99 6.10.9).

        The tokens of an expansion that can still expand wait in `front`,
        last first, and are rescanned before the rest; any other expansion
        goes straight to `out`.
        """
        macros = self.macros
        reads = None if self.trace is None else self.trace.reads
        front: list[PPToken] = []
        while True:
            if front:
                tok = front.pop()
            elif i < limit:
                tok = tokens[i]
                i += 1
            else:
                return
            if tok.kind is _IDENT:
                name = tok.lexeme
                macro = macros.get(name)
                if macro is None:
                    if reads is not None:
                        reads.setdefault(name, None)
                elif name not in tok.no_expand:
                    if reads is not None:
                        reads.setdefault(name, macro)
                    if macro.params is None or self._next(front, tokens, i, limit) == "(":
                        args = None
                        if macro.params is not None:
                            args, i = self._collect_args(front, tokens, i, limit, tok, macro)
                        expansion, live = self._expand(macro, tok, args, pragma)
                        if live:
                            front += reversed(expansion)
                        else:
                            out += expansion
                        continue
                if pragma and name == "_Pragma" and self._next(front, tokens, i, limit) == "(":
                    i = self._operator_pragma(tok, front, tokens, i, limit)
                    continue
            out.append(tok)

    @staticmethod
    def _next(front: list[PPToken], tokens: list[PPToken], i: int, limit: int) -> str | None:
        """The lexeme of the token a scan takes next, if any."""
        if front:
            return front[-1].lexeme
        return tokens[i].lexeme if i < limit else None

    def _expand(
        self, macro: MacroDef, tok: PPToken, args: list[list[PPToken]] | None, pragma: bool
    ) -> tuple[list[PPToken], bool]:
        """The tokens `macro` invoked at `tok` gives, with `args` the tokens
        of its arguments (None if it is object-like), and whether a scan
        (consuming `_Pragma` if `pragma`) could expand or consume one of them.

        An argument is macro-expanded on its own first, unless a scan would
        pass each of its tokens through (`_Pragma` counts as one it would
        not, as the text it lands in may consume it). Every token of the
        result takes `outer` as its chain and `hide` as its hide set,
        extended by the argument token's own: one new chain and hide set
        per distinct one.
        """
        macros = self.macros
        outer = tok.chain + (ExpansionFrame(macro.name, tok.pos),)
        hide = tok.no_expand | macro.hide if tok.no_expand else macro.hide
        scanned = False
        if args is not None:
            for k, arg in enumerate(args):
                if not self._settled(arg, True):
                    args[k] = expanded = []
                    self._scan(arg, 0, len(arg), expanded, False)
                    scanned = True
        # Expansion makes most of a run's tokens, so each is built as
        # `lex` builds its own: `object.__new__` and the seven slot stores
        # take about 125 ns a token against 210 ns for `PPToken.__init__`.
        new = object.__new__
        out: list[PPToken] = []
        chains: dict[int, tuple[ExpansionFrame, ...]] = {}
        hides: dict[int, frozenset[str]] = {}
        # An object-like macro's slots are all None.
        for t, slot in zip(macro.body, macro.slots):
            if slot is None:
                e = new(PPToken)
                e.kind = t.kind
                e.lexeme = t.lexeme
                e.pos = t.pos
                e.chain = outer
                e.at_bol = False
                e.ws_before = t.ws_before
                e.no_expand = hide
                out.append(e)
                continue
            for a in args[slot]:
                inner = a.chain
                if inner:
                    chain = chains.get(id(inner))
                    if chain is None:
                        chain = chains[id(inner)] = outer + inner
                else:
                    chain = outer
                inner = a.no_expand
                if inner:
                    hidden = hides.get(id(inner))
                    if hidden is None:
                        hidden = hides[id(inner)] = inner | hide
                else:
                    hidden = hide
                e = new(PPToken)
                e.kind = a.kind
                e.lexeme = a.lexeme
                e.pos = a.pos
                e.chain = chain
                e.at_bol = False
                e.ws_before = a.ws_before
                e.no_expand = hidden
                out.append(e)
        for name in macro.names:
            if pragma and name == "_Pragma" or name in macros and name not in hide:
                return out, True
        if scanned:
            return out, not self._settled(out, pragma)
        if self.trace is not None:
            reads = self.trace.reads
            for name in macro.names:
                if name not in macros:
                    reads.setdefault(name, None)
        return out, False

    def _settled(self, tokens: list[PPToken], pragma: bool) -> bool:
        """Whether a scan (consuming `_Pragma` if `pragma`) would pass every
        token of `tokens` through: none is a defined macro outside its hide
        set. Notes each undefined name in the read set, as that scan would."""
        macros = self.macros
        reads = None if self.trace is None else self.trace.reads
        for t in tokens:
            if t.kind is _IDENT:
                name = t.lexeme
                if pragma and name == "_Pragma":
                    return False
                if name in macros:
                    if name not in t.no_expand:
                        return False
                elif reads is not None:
                    reads.setdefault(name, None)
        return True

    @staticmethod
    def _collect_args(
        front: list[PPToken], tokens: list[PPToken], i: int, limit: int,
        name_tok: PPToken, macro: MacroDef,
    ) -> tuple[list[list[PPToken]], int]:
        """The arguments of an invocation whose '(' is next, and the index
        in `tokens` past its ')'. Text ends at a directive or at the end of
        its file, and an argument list may cross neither."""
        if front:
            front.pop()
        else:
            i += 1
        arg: list[PPToken] = []
        args = [arg]
        depth = 1
        while True:
            if front:
                t = front.pop()
            elif i < limit:
                t = tokens[i]
                i += 1
            elif limit < len(tokens):
                raise PreprocessError(
                    "preprocessing directive inside macro arguments", tokens[limit].origin
                )
            else:
                raise PreprocessError(
                    f"unterminated argument list for macro {macro.name!r}", name_tok.origin
                )
            lexeme = t.lexeme
            if lexeme == "(":
                depth += 1
            elif lexeme == ")":
                depth -= 1
                if not depth:
                    break
            elif lexeme == "," and depth == 1:
                arg = []
                args.append(arg)
                continue
            arg.append(t)
        if macro.params == () and len(args) == 1 and not arg:
            args = []
        if len(args) != len(macro.params):
            raise PreprocessError(
                f"macro {macro.name!r} expects {len(macro.params)} argument(s), got {len(args)}",
                name_tok.origin,
            )
        return args, i

    def _operator_pragma(
        self, tok: PPToken, front: list[PPToken], tokens: list[PPToken], i: int, limit: int
    ) -> int:
        """Consume the `_Pragma` operator at `tok`, whose '(' is next, and
        record it; return the index in `tokens` past what it took."""
        taken: list[PPToken] = []
        while len(taken) < 3 and (front or i < limit):
            if front:
                taken.append(front.pop())
            else:
                taken.append(tokens[i])
                i += 1
        if len(taken) < 3 or taken[1].kind is not TokenKind.STRING or taken[2].lexeme != ")":
            raise PreprocessError("malformed _Pragma operator", tok.origin)
        # C99 6.10.9: destringize, then record the tokens as #pragma does.
        text = _DESTRINGIZE.sub(r"\1", taken[1].lexeme[1:-1])
        try:
            tokens = lex(SourceFile(tok.origin.file, "_Pragma", text))
        except (LexError, UnsupportedConstructError) as exc:
            raise type(exc)(exc.message, tok.origin) from None
        self.pragmas.append(PragmaRecord(tok.pos, render_tokens(tokens)))
        return i


def preprocess(
    entry: SourceFile,
    include_paths: list[str],
    predefined: list[MacroDef],
    manager: SourceManager,
) -> tuple[UnitTokens, SourceMap, list[PragmaRecord]]:
    """Run the tracked preprocessor over one translation unit."""
    pp = _Preprocessor(include_paths, manager)
    for m in predefined:
        pp.macros[m.name] = m
    tokens = lex(entry)
    pp.process_file(entry, tokens, _directive_lines(tokens), {}, depth=0, site=None)
    out = UnitTokens(pp.out)
    out.prefixes = manager.prefixes
    out.key = tuple(pp.key)
    out.bounds = pp.bounds
    return out, SourceMap(out), pp.pragmas


def macro_from_define_flag(spec: str, manager: SourceManager) -> MacroDef:
    """Build an object-like macro from a NAME[=body] command-line define."""
    name, _, body_text = spec.partition("=")
    name = name.strip()
    virt = manager.add_virtual(f"<define:{name}>", body_text)
    body = tuple(lex(virt))
    return MacroDef(name, body, None, pack(virt.id, 1, 1))


# ---- #if expression evaluation ------------------------------------------

# C99 6.10.1p4: every integer type acts as `intmax_t` or `uintmax_t`, so
# after promotion an operand is one of the two.
PP_MODEL = IntegerModel(int_bits=64, long_bits=64, long_long_bits=64)
_INTMAX = make_int(PP_MODEL.int_bits, True)

_PP_BINOPS: dict[str, int] = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6, "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8, "+": 9, "-": 9, "*": 10, "/": 10, "%": 10,
}


class _CondParser:
    """Parses a `#if` expression into tuples that end with their static type:
    ("num", value, t), ("u-", x, t), (op, x, y, t) and ("?:", c, x, y, t)."""

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
            return ("?:", node, then, other, usual_arith_conversion(then[-1], other[-1], PP_MODEL))
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
            left = (t.lexeme, left, right, result_type(t.lexeme, left[-1], right[-1], PP_MODEL))

    def parse_unary(self):
        t = self.pop()
        if t.kind is TokenKind.PUNCT and t.lexeme in ("!", "~", "+", "-"):
            operand = self.parse_unary()
            return ("u" + t.lexeme, operand, unary_type(t.lexeme, operand[-1], PP_MODEL))
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
            return _pp_int_constant(t)
        if t.kind is TokenKind.CHAR_CONST:
            return ("num", _char_value(t), _INTMAX)
        if t.kind is TokenKind.IDENT:
            return ("num", 0, _INTMAX)  # undefined identifiers evaluate to 0
        raise PreprocessError(
            f"non-constant residue {t.lexeme!r} in #if expression", t.origin
        )


def _pp_int_constant(tok: PPToken) -> tuple:
    value = int_constant_value(tok.lexeme)
    if value is None:
        raise PreprocessError(
            f"invalid integer constant {tok.lexeme!r} in #if expression", tok.origin
        )
    t = int_constant_type(tok.lexeme, value, PP_MODEL)
    if t is None:
        raise PreprocessError(f"integer constant {tok.lexeme!r} in #if fits no type", tok.origin)
    return ("num", value, t)


def _char_value(tok: PPToken) -> int:
    # C99 6.10.1p4 lets `#if` give a character constant a non-negative value.
    units = literal_units(tok.lexeme)
    if units is None:
        raise PreprocessError(
            f"malformed escape sequence in {tok.lexeme} in #if expression", tok.origin)
    if len(units) != 1:
        raise UnsupportedConstructError(
            f"multi-character constant {tok.lexeme} in #if expression", tok.origin)
    return units[0]


def _eval_cond(node, at: Location | None) -> tuple[int, TypeDesc]:
    """(value, type); `&&`, `||` and `?:` evaluate only what decides the result."""
    # `_CondParser.parse_binary` builds a chain `a op b op c ...` as a
    # left-deep tree, so walk each chain's left spine with a loop and
    # recurse only into right operands and other node kinds.
    spine = []
    while node[0] in _PP_BINOPS:
        spine.append(node)
        node = node[1]
    op = node[0]
    if op == "num":
        value = node[1], node[2]
    elif op == "?:":
        picked = _eval_cond(node[2] if _eval_cond(node[1], at)[0] else node[3], at)
        value = convert_int(picked[0], node[4], PP_MODEL)[0], node[4]
    else:
        value = _checked(unary(op[1], _eval_cond(node[1], at), PP_MODEL), at)
    for op, _, right, _ in reversed(spine):
        if op in ("&&", "||") and (value[0] != 0) == (op == "||"):
            value = int(op == "||"), _INTMAX  # the left operand decides
        else:
            value = _checked(binary(op, value, _eval_cond(right, at), PP_MODEL), at)
    return value


def _checked(result: IntResult, at: Location | None) -> tuple[int, TypeDesc]:
    if result.value is None:
        raise PreprocessError(f"{result.flaw} in #if expression", at)
    return result.value, result.type


def evaluate_pp_condition(tokens: list[PPToken], at: Location | None = None) -> int:
    """Evaluate a #if controlling expression in `intmax_t`/`uintmax_t` (C99 6.10.1p4).

    Constants take their C99 6.4.4.1 types under `PP_MODEL` and the integer
    kernel (`sema.intarith`) computes each operator. Signed overflow wraps;
    division by zero, a shift out of range and a constant that fits no type
    raise. The token list must already be macro-expanded with `defined`
    resolved; any remaining identifier evaluates to 0.
    """
    if not tokens:
        raise PreprocessError("#if with no controlling expression", at)
    parser = _CondParser(tokens, at)
    node = parser.parse()
    leftover = parser.peek()
    if leftover is not None:
        raise PreprocessError(
            f"non-constant residue {leftover.lexeme!r} in #if expression", leftover.origin
        )
    return _eval_cond(node, at)[0]
