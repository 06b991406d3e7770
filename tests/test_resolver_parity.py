"""`Resolver.type_expr`'s leaf path against the path every node took before it.

`type_expr` types two leaves without entering `_type_expr`: an identifier
that names a non-typedef symbol, and an integer constant whose spelling the
resolver has typed before. `TwinResolver` types every expression node
twice: once through `Resolver.type_expr`, and once more, on a fresh copy
of the node, through `OldPathResolver.type_expr`, which always enters
`_type_expr`. In the second typing the node's operands are not typed
again: each gives back the type and `kinds` the first typing recorded on
it, so every node is typed twice and no subtree more often. The two
typings must agree on `ctype` (by identity), `kinds`, `const_value`,
`symbol` (by identity) and `behavior`, and leave the accumulator of the
enclosing node the same. A unit the resolver rejects must be rejected with
the same error by `OldPathResolver`.

Run as a script to check every unit of all three workloads:

    PYTHONPATH=src:tests:perfbench python3 tests/test_resolver_parity.py --seeds 1 2 3
"""
from __future__ import annotations

import contextlib
import sys
import tempfile
from dataclasses import replace

import pytest

from ccomply.builtins import BUILTIN_MACRO_SPECS
from ccomply.errors import AnalysisError
from ccomply.frontend import macro_from_define_flag, preprocess
from ccomply.parsing import KIND_CALL, KIND_MULTICALL, Constant, Expr, Identifier, parse, walk
from ccomply.sema import IntegerModel
from ccomply.sema import resolver as resolver_module
from ccomply.sema.resolver import Resolver
from ccomply.sema.typesys import DEFAULT_MODEL, int_constant_type
from ccomply.source import SourceManager
from flow_helpers import workload_units
from gen import WORKLOADS
from support import pp_text
from test_kinds import TEXTS as KINDS_TEXTS
from test_sema import (
    CONSTRAINT_PRELUDE, MODIFIABLE_ACCEPTED, STATEMENT_SHAPES, STATEMENTS_ACCEPTED,
    UNMODIFIABLE_SHAPES, VOID_VALUE_SHAPES, VOID_VALUES_ACCEPTED,
)

WORKLOAD_TUS = 10  # units of each workload the tier-1 comparison runs
SIXTEEN = IntegerModel(int_bits=16, long_bits=32, long_long_bits=64)


class OldPathResolver(Resolver):
    """A resolver whose `type_expr` always enters `_type_expr`."""

    def type_expr(self, e: Expr):
        outer = self._kinds
        self._kinds = 0
        t = e.ctype = self._type_expr(e)
        kinds = e.kinds = self._kinds
        if outer & kinds & KIND_CALL:
            outer |= KIND_MULTICALL
        self._kinds = outer | kinds
        return t


def _recorded(e: Expr) -> tuple:
    return (e.ctype, e.kinds, e.const_value, getattr(e, "symbol", None), e.behavior)


def _same(a: tuple, b: tuple) -> bool:
    return a[0] is b[0] and a[1:3] == b[1:3] and a[3] is b[3] and a[4] == b[4]


class TwinResolver(Resolver):
    """Types each expression node through both paths; see the module docstring."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.replaying: Expr | None = None  # the copy being typed the old way
        self.type_names: dict[int, tuple] = {}  # id(syntactic type) -> (type, kinds)
        self.nodes = 0
        self.diffs: list[str] = []

    def syn_type(self, syntype, base=None):
        # The second typing of a cast or `sizeof` takes the type its type
        # name got in the first one, and the `kinds` of the array sizes in
        # it: resolving the name again could redefine a tag it declares.
        if self.replaying is not None:
            t, kinds = self.type_names[id(syntype)]
        else:
            outer, self._kinds = self._kinds, 0
            t = super().syn_type(syntype, base)
            kinds, self._kinds = self._kinds, outer
            self.type_names[id(syntype)] = t, kinds
        if self._kinds & kinds & KIND_CALL:
            self._kinds |= KIND_MULTICALL
        self._kinds |= kinds
        return t

    def type_expr(self, e: Expr):
        if self.replaying is not None:
            # An operand of the node typed again: what the first typing recorded.
            kinds = e.kinds
            if self._kinds & kinds & KIND_CALL:
                self._kinds |= KIND_MULTICALL
            self._kinds |= kinds
            return e.ctype
        outer, literals = self._kinds, self.literal_count
        t = Resolver.type_expr(self, e)
        after, calls, shifts = self._kinds, len(self._calls), self._unproven_shifts
        twin = replace(e, ctype=None, behavior=None)
        if hasattr(twin, "symbol"):
            twin.symbol = None
        if hasattr(twin, "literal_id"):  # a string literal takes the next id again
            self.literal_count = literals
        self._kinds = outer
        self.replaying = twin
        try:
            t_old = OldPathResolver.type_expr(self, twin)
        finally:
            self.replaying = None
        self.nodes += 1
        if t_old is not t or self._kinds != after or not _same(_recorded(e), _recorded(twin)):
            self.diffs.append(f"{type(e).__name__} at {e.start}: new {_recorded(e)[:3]} "
                              f"acc {after}, old {_recorded(twin)[:3]} acc {self._kinds}")
        del self._calls[calls:]
        self._kinds, self._unproven_shifts = after, shifts
        return t


@contextlib.contextmanager
def twin_resolvers():
    """Make `resolve` build `TwinResolver`s; yields the list of those made."""
    made: list[TwinResolver] = []

    class Recorded(TwinResolver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    saved = resolver_module.Resolver
    resolver_module.Resolver = Recorded
    try:
        yield made
    finally:
        resolver_module.Resolver = saved


def _outcome(resolver_cls, tokens, model, path: str = "t.c"):
    """The resolver and error of resolving a fresh parse of `tokens`."""
    tu = parse(list(tokens), path)
    resolver = resolver_cls(model, path)
    try:
        resolver.resolve(tu.decls)
    except AnalysisError as exc:
        return tu, resolver, (type(exc), exc.message, exc.loc)
    return tu, resolver, None


def check_text(text: str, model=DEFAULT_MODEL):
    """Resolve `text` both ways; returns the twin resolver, its tree and
    the error both raised, if any."""
    tokens, _, _, _ = pp_text(text, path="t.c")
    tu, twin, error = _outcome(TwinResolver, tokens, model)
    assert twin.diffs == []
    assert error == _outcome(OldPathResolver, tokens, model)[2]
    return twin, tu, error


# Leaves of every kind the resolver types, in the places it types them.
SHAPES = [CONSTRAINT_PRELUDE + text for text in (
    "enum E { A, B = A + 2, C };\nvolatile int v;\nint x;\n"
    "void f(void) { x = A + B * C; x = v + (int)C; v = v | 1; use(sizeof v + sizeof(enum E)); }",
    "void f(int x) { x = 1 + 1u + 1l + 1 + 0x10 + 010 + 1u + 'a' + 'a'; "
    "x = 2147483647 + 1; use(x + 1.5 > 2.5f); }",
    "typedef int T;\nvoid f(int x) { { long T = 1; T = T + 1; use((int)T); } use((T)x); }",
    "struct S { int m; } s, *p;\nint a[3];\n"
    "void f(int i) { p = &s; a[i] = s.m + p->m + a[i++]; "
    "use(*a + sizeof(struct R { int r; }) + i); }",
    "int g(int);\nint (*fp)(int) = g;\n"
    "void f(int x) { x = g(g(x)) + fp(x) + (*fp)(x); use(x); }",
    'void f(int x) { const char *s = "ab"; use(s[x] + "cd"[1] + sizeof "ef"); }',
    "int h = 1 + 70000;\nvoid f(void) { h = 1 + 1u + 70000 + 1u + (int)sizeof(1); }",
)]
ACCEPTED = SHAPES + KINDS_TEXTS + [
    CONSTRAINT_PRELUDE + t for t in STATEMENTS_ACCEPTED + VOID_VALUES_ACCEPTED + MODIFIABLE_ACCEPTED]
# The errors of a leaf: an undeclared name, a typedef name, and a constant
# too large, which is never cached; then the sema constraint shapes.
REJECTED = [CONSTRAINT_PRELUDE + t for t in (
    "void f(void) { use(undeclared); }",
    "typedef int T;\nvoid f(void) { use(T); }",
    "void f(void) { use(1); use(99999999999999999999999); }",
    "void f(void) { use(1); use(1 + x); }",
)] + [CONSTRAINT_PRELUDE + t for t, _ in
      STATEMENT_SHAPES + VOID_VALUE_SHAPES + UNMODIFIABLE_SHAPES]


@pytest.mark.parametrize("index", range(len(ACCEPTED)))
def test_both_paths_type_every_node_alike(index):
    assert check_text(ACCEPTED[index])[2] is None


@pytest.mark.parametrize("index", range(len(REJECTED)))
def test_both_paths_raise_the_same_error(index):
    assert check_text(REJECTED[index])[2] is not None


class CountingResolver(Resolver):
    """A resolver that lists the nodes it types through `_type_expr`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entered: list[Expr] = []

    def _type_expr(self, e: Expr):
        self.entered.append(e)
        return super()._type_expr(e)


def test_leaves_take_the_short_path():
    tokens, _, _, _ = pp_text(SHAPES[1], path="t.c")
    tu, resolver, error = _outcome(CountingResolver, tokens, DEFAULT_MODEL)
    assert error is None
    entered = [type(e) for e in resolver.entered]
    assert Identifier not in entered
    # Each integer spelling enters `_type_expr` once and is then read from
    # the cache; character and floating constants always enter it.
    spellings = ["0x10", "010", "1", "1l", "1u", "2147483647"]
    assert sorted(e.text for e in resolver.entered if type(e) is Constant) == sorted(
        spellings + ["'a'", "'a'", "1.5", "2.5f"])
    assert sorted(resolver._int_constants) == sorted(spellings)


def _constants(tree) -> list[Constant]:
    return [n for n in walk(tree) if type(n) is Constant]


def test_constant_cache_under_two_models_in_one_process():
    widths = {}
    for model in (DEFAULT_MODEL, SIXTEEN, DEFAULT_MODEL, SIXTEEN):
        _, tu, _ = check_text(SHAPES[-1], model)
        constants = _constants(tu)
        assert len(constants) == 7
        for n in constants:
            assert n.ctype is int_constant_type(n.text, n.value, model)
            widths[model, n.text] = n.ctype.width
    assert widths[DEFAULT_MODEL, "1"] == widths[DEFAULT_MODEL, "1u"] == 32
    assert widths[SIXTEEN, "1"] == widths[SIXTEEN, "1u"] == 16


def test_constant_cache_in_units_started_from_a_kept_prefix(tmp_path):
    """Three units share a header prefix; the third starts from the state
    kept after it under each of two models, and its resolver types its own
    constants through `_type_expr` before it reads them from its cache."""
    files = {
        "h.h": "int h = 3;\nenum { K = 7 };\n",
        "a.c": '#include "h.h"\nvoid f(void) { h = 1 + K; }\n',
        "b.c": '#include "h.h"\nvoid f(void) { h = 3 + K; }\n',
        "c.c": '#include "h.h"\nvoid g(void) { h = 1 + 1u + K + 1; }\n',
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    manager = SourceManager()
    builtins = [macro_from_define_flag(spec, manager) for spec in BUILTIN_MACRO_SPECS]
    units = {name: preprocess(manager.load(str(tmp_path / name)), [], builtins, manager)[0]
             for name in ("a.c", "b.c", "c.c")}
    for model, width in ((DEFAULT_MODEL, 32), (SIXTEEN, 16), (DEFAULT_MODEL, 32)):
        with twin_resolvers() as made:
            tus = [parse(tokens, name) for name, tokens in units.items()]
            for tu in tus:
                resolver_module.resolve(tu, model)
        assert [r.diffs for r in made] == [[], [], []]
        assert tus[2].started_from is not None and model in tus[2].started_from.resolved
        assert made[2]._int_constants.keys() == {"1", "1u"}
        constants = _constants(tus[2].decls[-1])
        assert [n.text for n in constants] == ["1", "1u", "1"]
        assert [n.ctype.width for n in constants] == [width] * 3
        assert all(n.ctype is int_constant_type(n.text, n.value, model) for n in constants)


def workload_diffs(workload: str, seed: int, workdir: str, tus: int | None = None):
    """(units, nodes typed twice, differences) over a workload's first `tus` units."""
    with twin_resolvers() as made:
        units = sum(1 for _ in workload_units(workload, seed, workdir, tus))
    return units, sum(r.nodes for r in made), sum(len(r.diffs) for r in made)


def test_workload_units_type_alike(tmp_path):
    for workload in WORKLOADS:
        units, nodes, diffs = workload_diffs(workload, 1, str(tmp_path / workload), WORKLOAD_TUS)
        assert units == WORKLOAD_TUS and nodes > 0 and diffs == 0


def main(argv: list[str]) -> int:
    """Type every unit of all three workloads both ways at the given seeds."""
    import argparse
    import json

    ap = argparse.ArgumentParser(description=main.__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    report = {}
    for workload in sorted(WORKLOADS):
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                units, nodes, diffs = workload_diffs(workload, seed, workdir)
            report[f"{workload}:{seed}"] = {"tus": units, "nodes": nodes, "diffs": diffs}
    print(json.dumps(report))
    return 0 if all(r["diffs"] == 0 for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
