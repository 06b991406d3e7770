"""Header prefixes, parsed and resolved once per run.

Many translation units of one system start by including the same headers.
A unit's *prefix* is the run of top-level declarations that its token
stream starts with, parsed from the included text the stream starts with
(`UnitTokens.included` tokens) and ending exactly where that text ends; if
no declaration ends there, the unit has none. Clang's precompiled headers
rest on the same rule.

The run keeps one `Prefix` per distinct prefix in `SourceManager.prefixes`,
keyed by `UnitTokens.key`: the serials of the preprocessor's memo entries
(`frontend.preprocessor.IncludeEntry`) whose output tokens make up the
included text. An entry is replayed only under the macros it read, and its
tokens are the same objects in every unit that replays it, so one key names
one exact token sequence, positions and expansion chains included: a
different `#define` before the `#include` that the header reads, a
different set of builtin macros or another file gives another key. Every
unit's leading included text comes whole from entries, so no prefix needs
a token hash. The table travels with the tokens
`preprocess` returns (`UnitTokens.prefixes`); there is no other cache, and
a plain list of tokens shares nothing.

The first unit that starts with a prefix records only its key, so a
prefix that no second unit repeats keeps nothing. The second unit parses
as usual and, where its prefix ends, keeps an entry: its declarations and
a copy of the parser's state after them (the typedef-name scope and the
shared syntactic types). Every later unit with the same key takes the
entry's declarations as its own first ones and parses on from a copy of
that state; `parse` puts the entry on the tree (`TranslationUnitAst.prefix`).

`resolve` keeps, per integer model, the resolver's state after the prefix
(`resolved`) and starts a later unit from a copy of it, so symbol uids,
scope ids and string literal ids go on as a fresh parse would number them.
Units that share an entry share its nodes, symbols and types, so nothing
writes into them after the unit that resolves them first: what a unit
learns later about a shared symbol, such as that it defines it, goes into
its own `SymbolTable`. The first resolution annotates the entry's own
nodes (`claimed`); a later unit whose model has no kept state, because it
is another model or because the prefix keeps none, resolves a fresh parse
of the prefix tokens instead.

No resolver state is kept for a prefix that leaves a file-scope struct or
union tag incomplete, or that declares a file-scope object of incomplete
array type: a later declaration completes such a type in place, which would
reach every unit. Units with such a prefix parse and resolve it per unit,
as without sharing.
"""
from __future__ import annotations

from operator import is_
from typing import Any

_UNSEEN = object()


class Prefix:
    """The declarations of one header prefix and the state after them."""

    __slots__ = ("tokens", "decls", "typedefs", "bases", "syntypes", "resolved", "claimed")

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
        # Whether a resolution has annotated `decls`.
        self.claimed = False


def find_prefix(tokens: list) -> tuple[Prefix | None, tuple | None]:
    """(the kept prefix `tokens` start with, or None; the key of a prefix
    the parse of `tokens` is to keep where the included text ends, or None)."""
    key = getattr(tokens, "key", None)
    if not key:
        return None, None
    table = tokens.prefixes
    entry = table.get(key, _UNSEEN)
    if entry is _UNSEEN:
        table[key] = None
        return None, None
    if entry is None:
        return None, key
    # Under its own key a prefix's tokens are the unit's token objects; an
    # identity test per token keeps an entry filed under another key from
    # being taken.
    kept = entry.tokens
    if len(kept) == tokens.included and all(map(is_, kept, tokens)):
        return entry, None
    return None, None


def keep_prefix(tokens: list, key: tuple, decls: list, typedefs: dict, bases: dict,
                syntypes: dict) -> Prefix:
    """Keep in the run's table, under `key`, the prefix of `tokens`:
    `decls` and the parser's state after them."""
    prefix = Prefix(tokens[:tokens.included], decls, typedefs, bases, syntypes)
    tokens.prefixes[key] = prefix
    return prefix
