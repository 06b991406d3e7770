"""Header prefixes, parsed and resolved once per run.

Many translation units of one system start by including the same headers,
and most start with the same first few of them. A unit's *prefix* of
level `k` is the run of top-level declarations that its token stream
starts with, parsed from the text of its first `k` leading `#include`s
(`UnitTokens.bounds[k - 1]` tokens) and ending exactly where that text
ends; if no declaration ends there, the unit has none at that level.
Clang's chained precompiled headers rest on the same rule: each one
extends the one before it by one more header.

The run keeps one `Prefix` per distinct prefix in `SourceManager.prefixes`,
keyed by every leading run `key[:k]` of `UnitTokens.key`: the serials of
the preprocessor's memo entries (`frontend.preprocessor.IncludeEntry`)
whose output tokens make up that text. So the table is a trie over
include entries, and sharing the whole included text of units with the
same key is its one-level case. An entry is replayed only under the
macros it read, and its tokens are the same objects in every unit that
replays it, so one key names one exact token sequence, positions and
expansion chains included: a different `#define` before the `#include`
that the header reads, a different set of builtin macros or another file
gives another key, and with it another branch. Every unit's leading
included text comes whole from entries, so no prefix needs a token hash.
The table travels with the tokens `preprocess` returns
(`UnitTokens.prefixes`); there is no other cache, and a plain list of
tokens shares nothing.

`find_prefix` walks a unit's key from the longest run down. A run no
earlier unit started with is only recorded, so a prefix that no second
unit repeats keeps nothing. A run recorded once is one the parse keeps:
where its text ends the parse keeps an entry, its declarations and a copy
of the parser's state after them (the typedef-name scope and the shared
syntactic types). The longest run with a kept entry whose tokens are the
unit's own is where the unit starts: it takes the entry's declarations as
its own first ones and parses on from a copy of that state. So a unit
starts from the longest prefix an earlier unit kept and keeps each longer
one that an earlier unit started with, and pays only for header text no
earlier unit shared. `parse` puts the started-from and kept entries on the
tree (`TranslationUnitAst.started_from` and `kept`).

`resolve` keeps, per integer model, the resolver's state after each
prefix (`resolved`) and starts a later unit from a copy of it, so symbol
uids, scope ids and string literal ids go on as a fresh parse would number
them. Units that share an entry share its nodes, symbols and types, so
nothing writes into them after the unit that resolves them first: what a
unit learns later about a shared symbol, such as that it defines it, goes
into its own `SymbolTable`. The unit whose parse kept an entry annotates
its nodes as it resolves its own tree; a later unit whose model has no
kept state, because it is another model, because the prefix keeps none or
because the unit that kept it failed before resolving it, resolves a fresh
parse of the prefix tokens instead. A kept entry may start with the
declarations of a shorter one, which other units read, so no unit
resolves an entry's own nodes after the unit that parsed them.

`run_rules` keeps, per integer model and per guideline, the findings of
a prefix's declarations (`findings`), so they are checked once per run and
not once per unit that includes them. A unit reuses them when its leading
declarations are, object for object, those `resolved` holds for its
model: it started from the prefix's state or kept it. Every per-unit
checker reads one declaration at a time, and a prefix's symbols have the
same uids in every unit that shares it (`SymbolTable.fork`), so the
findings are the same in each such unit. They are kept packed (positions
as packed ints), like the trees, and each unit gets its own fresh copies;
a finding in a header is still reported once per unit that includes it.

No resolver state is kept for a prefix that leaves a file-scope struct or
union tag incomplete, or that declares a file-scope object of incomplete
array type: a later declaration completes such a type in place, which would
reach every unit. Units that start from such a prefix parse and resolve
its text per unit, as without sharing; a shorter prefix of theirs may
still keep state.
"""
from __future__ import annotations

from operator import is_
from typing import Any

_UNSEEN = object()


class Prefix:
    """The declarations of one header prefix and the state after them."""

    __slots__ = ("tokens", "decls", "typedefs", "bases", "syntypes", "resolved", "findings")

    def __init__(self, tokens: list, decls: list, typedefs: dict, bases: dict,
                 syntypes: dict) -> None:
        # The prefix's tokens; a unit matches when they are its own.
        self.tokens = tokens
        self.decls = list(decls)
        # Copies of the parser's state where the prefix ends.
        self.typedefs = dict(typedefs)
        self.bases = dict(bases)
        self.syntypes = dict(syntypes)
        # Integer model -> (declarations, resolver state after them).
        self.resolved: dict[Any, tuple[list, Any]] = {}
        # Integer model -> guideline -> the packed findings of `decls`
        # (`rules.engine`), filled by the first `run_rules` call that needs them.
        self.findings: dict[Any, dict[str, tuple]] = {}


def find_prefix(tokens: list) -> tuple[Prefix | None, list[tuple[int, tuple]]]:
    """(the longest kept prefix `tokens` start with, or None; (index, key) of
    each longer prefix the parse of `tokens` is to keep where its text ends,
    by decreasing index)."""
    key = getattr(tokens, "key", None)
    keep: list[tuple[int, tuple]] = []
    if not key:
        return None, keep
    table = tokens.prefixes
    bounds = tokens.bounds
    for k in range(len(key), 0, -1):
        run = key[:k]
        entry = table.get(run, _UNSEEN)
        if entry is _UNSEEN:
            table[run] = None
        elif entry is None:
            keep.append((bounds[k - 1], run))
        else:
            # Under its own key a prefix's tokens are the unit's token
            # objects; an identity test per token keeps an entry filed
            # under another key from being taken.
            kept = entry.tokens
            if len(kept) == bounds[k - 1] and all(map(is_, kept, tokens)):
                return entry, keep
    return None, keep


def keep_prefix(tokens: list, end: int, key: tuple, decls: list, typedefs: dict, bases: dict,
                syntypes: dict) -> Prefix:
    """Keep in the run's table, under `key`, the prefix of `tokens` that
    ends at index `end`: `decls` and the parser's state after them."""
    prefix = Prefix(tokens[:end], decls, typedefs, bases, syntypes)
    tokens.prefixes[key] = prefix
    return prefix
