"""Header prefixes shared by the units of one run (`parsing.prefix`).

Units that start with the same included text share its parsed and
resolved declarations, and units that include a file under the macros it
read before share what preprocessing it produced (the include memo of
`frontend.preprocessor`). Sharing must not show: each case runs its units
through one shared `SourceManager` and through a fresh manager per unit,
and wants the same findings, trees, tables and pragma records, which is
what "matches a fresh parse" means here. Each fresh manager first loads
the files in the order the shared run loaded them, so file ids, and with
them the packed positions, agree.

Run as a script to compare whole workloads the same way, every finding
with its decoded span and evidence, every node's type, constant value and
symbol, and every table's symbols in uid order with whether the unit
defines them; it also reports how many units share a prefix, how many
tokens units took from the prefix they started from, and how many
(unit, guideline) checks of a prefix's declarations were served from the
findings the prefix keeps (see `rules.engine.run_rules`):

    PYTHONPATH=src:tests:perfbench python3 tests/test_prefix.py --seeds 1 2 3
"""
from __future__ import annotations

import collections
import contextlib
import copy
import gc
import os
import sys
import weakref
from dataclasses import dataclass, fields

import pytest

from ccomply.builtins import BUILTIN_MACRO_SPECS
from ccomply.errors import AnalysisError
from ccomply.flow import build_call_graph
from ccomply.frontend import macro_from_define_flag, preprocess
from ccomply.frontend.preprocessor import INCLUDE_DEPTH_LIMIT
from ccomply.parsing import Declaration, Expr, FunctionDef, Node, children, parse, walk
from ccomply.parsing.prefix import find_prefix
from ccomply.rules import IMPLEMENTED, compute_tu_facts, engine, run_rules
from ccomply.sema import IntegerModel, Symbol, TypeDesc, resolve
from ccomply.sema.typesys import DEFAULT_MODEL
from ccomply.source import SourceManager

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
from gen import WORKLOADS, generate  # noqa: E402  (the generator imports nothing from ccomply)

SYSTEM = set(IMPLEMENTED) - set(engine.PER_TU_CHECKERS)
WORKLOAD_TUS = 10  # units of each workload the tier-1 comparison runs
SMALL_LONG = IntegerModel(long_bits=32, pointer_bits=32)


@dataclass
class Run:
    """The outcome of every unit of one run, and of its whole-program stage;
    `manager` is the run's last manager."""

    outcomes: list
    system: tuple
    tus: list
    tables: list
    manager: SourceManager


@contextlib.contextmanager
def _cwd(workdir: str):
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        yield
    finally:
        os.chdir(cwd)


def _write(workdir: str, files: dict[str, str]) -> None:
    for path, text in files.items():
        full = os.path.join(workdir, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as fh:
            fh.write(text)


def _type(t: TypeDesc | None, shallow: bool = False):
    """A type as plain values; a record's members only at the top."""
    if t is None:
        return None
    record = None
    if t.record is not None:
        record = (t.record.kind, t.record.tag, t.record.complete)
        if not shallow:
            record += tuple((name, _type(mt, True)) for name, mt, _ in t.record.members)
    enum = None if t.enum is None else (t.enum.tag, tuple(sorted(t.enum.constants.items())))
    return (t.kind.name, t.width, sorted(t.quals), _type(t.pointee, True), _type(t.elem, True),
            t.length, _type(t.ret, True),
            None if t.params is None else tuple(_type(p, True) for p in t.params),
            t.variadic, record, enum)


def _sym(s) -> tuple | None:
    if not isinstance(s, Symbol):
        return None
    return (s.name, s.uid, s.kind.value, s.linkage.value, s.storage.value, s.scope_id,
            _type(s.type), s.start, s.end, s.via, sorted(s.quals), s.is_param, s.enum_value)


_PLAIN = (str, int, float, bool, type(None))


def _tree(tu) -> list:
    """Every node of `tu` in pre-order: its class, plain fields, child
    count, type, constant value and symbols."""
    rows = []
    for node in walk(tu):
        row = [type(node).__name__, len(children(node)), node.via]
        row += [(f.name, getattr(node, f.name)) for f in fields(node)
                if isinstance(getattr(node, f.name), _PLAIN)]
        if isinstance(node, Expr):
            row.append(_type(node.ctype))
        row.append(_sym(getattr(node, "symbol", None)))
        if isinstance(node, Declaration):
            row.append([(e.name, e.start, _sym(e.symbol)) for e in node.entries])
        if isinstance(node, FunctionDef):
            row.append([(p.name, p.start, _sym(p.symbol)) for p in node.params])
        rows.append(row)
    return rows


def _table(table) -> list:
    scopes = [(s.id, s.parent, sorted((n, sym.uid) for n, sym in s.names.items()),
               sorted((tag, _type(t)) for tag, t in s.tags.items())) for s in table.scopes]
    return [table.tu_path, [(_sym(s), table.defines(s)) for s in table.symbols], scopes]


def _findings(findings) -> list:
    return [(f.path, f.span, f.guideline, f.certainty.value, f.behavior_class, f.message,
             tuple((e.span, e.note) for e in f.evidence)) for f in findings]


def _graph(graph) -> tuple:
    return (sorted(graph.nodes), sorted(graph.direct_edges),
            sorted((cid, d.start, d.end) for cid, d in graph.definitions.items()),
            sorted(graph.display.items()),
            [(caller, call.start) for caller, call in graph.indirect_call_sites])


def run(workdir: str, units, shared: bool, rules=IMPLEMENTED, order=(),
        per_guideline: bool = False) -> Run:
    """Run `units`, (path, with builtin macros, integer model) each, through
    the stage chain with one manager, or with a fresh one per unit that
    first loads the files of `order`; with `per_guideline`, each unit's
    checkers run one `run_rules` call per guideline, as the benchmark's
    traced pass calls them."""
    outcomes, tus, tables, ok = [], [], [], []
    per_tu = set(rules) & set(engine.PER_TU_CHECKERS)
    with _cwd(workdir):
        manager = SourceManager()
        builtins = [macro_from_define_flag(spec, manager) for spec in BUILTIN_MACRO_SPECS]
        for path, with_builtins, model in units:
            if not shared:
                manager = SourceManager()
                builtins = [macro_from_define_flag(spec, manager) for spec in BUILTIN_MACRO_SPECS]
                for name in order:
                    manager.load(name)
            stage, tu, table = "preprocess", None, None
            try:
                tokens, _, pragmas = preprocess(manager.load(path), [],
                                                builtins if with_builtins else [], manager)
                stage = "parse"
                tu = parse(tokens, path)
                stage = "resolve"
                table = resolve(tu, model)
                stage = "rules"
                facts = compute_tu_facts(tu, table, manager)
                if per_guideline:
                    found = [f for gid in sorted(per_tu)
                             for f in run_rules([facts], {gid}, manager=manager)]
                    found.sort(key=lambda f: f.sort_key())
                else:
                    found = run_rules([facts], per_tu, manager=manager)
            except AnalysisError as exc:
                outcomes.append(("error", stage, type(exc).__name__, exc.stage, exc.message,
                                 exc.loc))
                tus.append(None)
                tables.append(None)
                continue
            outcomes.append(("ok", _tree(tu), _table(table), _findings(found),
                             [(p.pos, p.text) for p in pragmas]))
            tus.append(tu)
            tables.append(table)
            ok.append((tu, table))
        graph = build_call_graph(ok)
        found = run_rules([], set(rules) & SYSTEM, call_graph=graph, manager=manager)
    return Run(outcomes, (_graph(graph), _findings(found)), tus, tables, manager)


def compare(workdir: str, units, rules=IMPLEMENTED) -> tuple[Run, list[str]]:
    """The shared run, and where it differs from a fresh manager per unit.

    Equal values do not show a unit that resolved another unit's shared
    nodes again in place, as that numbers the same uids; so once the shared
    run is over, every symbol a unit's tree holds must also be the very
    object its own table holds under that uid (`foreign_symbols`)."""
    shared = run(workdir, units, True, rules)
    order = [shared.manager.path_of(i) for i in range(len(shared.manager))
             if not shared.manager.path_of(i).startswith("<define:")]
    fresh = run(workdir, units, False, rules, order)
    diffs = [f"{path}: {_first_difference(a, b)}"
             for (path, _, _), a, b in zip(units, shared.outcomes, fresh.outcomes) if a != b]
    diffs += [f"{path}: {where}" for (path, _, _), tu, table in zip(units, shared.tus, shared.tables)
              if tu is not None for where in foreign_symbols(tu, table)]
    if shared.system != fresh.system:
        diffs.append(f"<system>: {_first_difference(shared.system, fresh.system)}")
    return shared, diffs


def foreign_symbols(tu, table) -> list[str]:
    """Each place in `tu` whose symbol is not the object `table` holds under its uid."""
    out = []

    def check(node, sym) -> None:
        if isinstance(sym, Symbol) and not (
                sym.uid < len(table.symbols) and table.symbols[sym.uid] is sym):
            out.append(f"{type(node).__name__} at {node.start}: {sym.name!r} (uid {sym.uid}) "
                       f"is not the table's symbol")

    for node in walk(tu):
        check(node, getattr(node, "symbol", None))
        for held in (node.entries if isinstance(node, Declaration)
                     else node.params if isinstance(node, FunctionDef) else ()):
            check(held, held.symbol)
    return out


def _first_difference(a, b) -> str:
    """Where two outcomes first differ, for a readable failure."""
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return f"[{i}] " + _first_difference(x, y)
        return f"lengths {len(a)} != {len(b)}"
    return f"{a!r} != {b!r}"


def _units(paths, with_builtins: bool = True, model: IntegerModel = DEFAULT_MODEL):
    return [(path, with_builtins, model) for path in paths]


def _shares(run_: Run, i: int, j: int) -> bool:
    """Whether units i and j of a run start with the same declaration objects."""
    a, b = run_.tus[i], run_.tus[j]
    return a.prefix is not None and a.prefix is b.prefix and a.decls[0] is b.decls[0]


# ---- cases --------------------------------------------------------------------

PROTOS = "extern void use(int v);\n"


def test_same_header_after_defines_in_each_main_file_is_never_shared(tmp_path):
    # The expanded tokens come from each unit's own `#define`, so no two
    # units' prefix tokens have the same positions.
    files = {f"u{i}.c": "#define N 4\n#include \"h.h\"\nint g(void) { return v[0]; }\n"
             for i in range(4)}
    _write(str(tmp_path), {"h.h": "extern int v[N];\n", **files})
    shared, diffs = compare(str(tmp_path), _units(files))
    assert diffs == []
    assert [tu.prefix for tu in shared.tus] == [None] * 4


def test_an_equal_valued_symbol_from_elsewhere_is_a_difference(tmp_path):
    # What re-resolving a shared node in place leaves behind: a node of the
    # shared prefix whose symbol has the right values but is not the object
    # the unit's table holds. The tree rows cannot tell; `compare` can.
    files = {f"u{i}.c": f"#include \"h.h\"\nint f{i}(void) {{ return base[{i}]; }}\n"
             for i in range(3)}
    _write(str(tmp_path), {"h.h": "extern int base[4];\nextern int *at(int);\n", **files})
    shared, diffs = compare(str(tmp_path), _units(files))
    assert diffs == [] and _shares(shared, 1, 2)
    tu, table = shared.tus[2], shared.tables[2]
    entry = tu.decls[0].entries[0]
    before = _tree(tu)
    entry.symbol = copy.copy(entry.symbol)
    assert _tree(tu) == before
    assert foreign_symbols(tu, table) == [
        f"DeclEntry at {entry.start}: 'base' (uid {entry.symbol.uid}) is not the table's symbol"]


@pytest.mark.parametrize("variant", ["defines", "builtins"])
def test_same_header_in_another_context_gives_another_tree(tmp_path, variant):
    if variant == "defines":
        header = "extern int v[N];\nint get_v(void);\n"
        lengths = [4, 8, 4, 8, 4]
        files = {f"u{i}.c": f"#include \"n{n}.h\"\n#include \"h.h\"\n"
                            f"int get_v(void) {{ return (int)sizeof v; }}\n"
                 for i, n in enumerate(lengths)}
        units = _units(files)
        files.update({"n4.h": "#define N 4\n", "n8.h": "#define N 8\n"})
    else:
        header = "#ifdef NULL\nextern int with_null;\n#else\nextern long no_null;\n#endif\n"
        files = {f"u{i}.c": "#include \"h.h\"\nint f(void) { return 0; }\n" for i in range(5)}
        units = [(path, i % 2 == 0, DEFAULT_MODEL) for i, path in enumerate(files)]
    _write(str(tmp_path), {"h.h": header, **files})
    shared, diffs = compare(str(tmp_path), units)
    assert diffs == []
    if variant == "defines":
        got = [t.file_scope.names["v"].type.length for t in shared.tables]
        assert got == lengths
    else:
        got = [t.file_scope.names for t in shared.tables]
        assert ["with_null" in names for names in got] == [True, False, True, False, True]
        assert ["no_null" in names for names in got] == [False, True, False, True, False]
    # The third and fifth units repeat the first's context; the second and
    # fourth start another prefix.
    assert _shares(shared, 2, 4) and not _shares(shared, 1, 2)
    assert shared.tus[0].decls[0] is not shared.tus[2].decls[0]


def test_static_header_function_is_one_call_graph_node_per_unit(tmp_path):
    header = "static int helper(int x) { return x + 1; }\nint api(int x);\n"
    files = {f"u{i}.c": f"#include \"h.h\"\nint api{i}(int x) {{ return helper(x); }}\n"
             for i in range(4)}
    _write(str(tmp_path), {"h.h": header, **files})
    shared, diffs = compare(str(tmp_path), _units(files))
    assert diffs == []
    assert _shares(shared, 1, 3)
    graph = build_call_graph(list(zip(shared.tus, shared.tables)))
    helpers = sorted(n for n in graph.nodes if n.endswith("::helper"))
    assert helpers == [f"u{i}.c::helper" for i in range(4)]
    assert {(f"api{i}", f"u{i}.c::helper") for i in range(4)} <= graph.direct_edges


def test_prototype_defined_in_one_unit_and_called_in_another(tmp_path):
    header = PROTOS + "void ping(int n);\nvoid pong(int n);\n"
    files = {
        "a.c": "#include \"h.h\"\nvoid ping(int n) { if (n > 0) { pong(n - 1); } }\n",
        "b.c": "#include \"h.h\"\nvoid caller(void) { ping(3); }\n",
        "c.c": "#include \"h.h\"\nvoid pong(int n) { if (n > 0) { ping(n - 1); } }\n",
        "d.c": "#include \"h.h\"\nvoid other(void) { pong(2); use(1); }\n",
    }
    _write(str(tmp_path), {"h.h": header, **files})
    shared, diffs = compare(str(tmp_path), _units(files))
    assert diffs == []
    assert _shares(shared, 1, 2) and _shares(shared, 1, 3)
    ping = [t.file_scope.names["ping"] for t in shared.tables]
    # One symbol shared by the last three units, defined only where its body is.
    assert ping[1] is ping[2] is ping[3]
    assert [t.defines(p) for p, t in zip(ping, shared.tables)] == [True, False, False, False]
    graph, findings = shared.system
    assert sorted(f[5].split("'")[1] for f in findings) == ["ping", "pong"]
    assert ("ping", "pong") in graph[1] and ("pong", "ping") in graph[1]


def test_recursion_is_reported_at_the_definitions(tmp_path):
    # The functions are prototyped in the header their callers share; each
    # finding points at the body, not at the prototype.
    header = PROTOS + "void ping(int n);\nvoid pong(int n);\n"
    files = {
        "a.c": "#include \"h.h\"\nvoid ping(int n) { if (n > 0) { pong(n - 1); } }\n",
        "b.c": "#include \"h.h\"\nvoid caller(void) { ping(3); }\n",
        "c.c": "#include \"h.h\"\n\nvoid pong(int n) { if (n > 0) { ping(n - 1); } }\n",
    }
    _write(str(tmp_path), {"h.h": header, **files})
    shared, diffs = compare(str(tmp_path), _units(files))
    assert diffs == []
    _, findings = shared.system
    assert sorted((f[5].split("'")[1], f[0], f[1].start.line, f[1].start.column)
                  for f in findings) == [("ping", "a.c", 2, 1), ("pong", "c.c", 3, 1)]


@pytest.mark.parametrize("completing", [0, 1, 3])
@pytest.mark.parametrize("declared, used, completed", [
    ("struct S;\n", "sizeof(struct S)", "struct S { int m; };\n"),
    ("extern int a[];\n", "sizeof a", "int a[3];\n"),
])
def test_incomplete_header_types_stay_incomplete_in_other_units(
        tmp_path, declared, used, completed, completing):
    body = f"unsigned long f(void) {{ return {used}; }}\n"
    files = {f"u{i}.c": f"#include \"h.h\"\n{completed if i == completing else ''}{body}"
             for i in range(4)}
    _write(str(tmp_path), {"h.h": PROTOS + declared, **files})
    shared, diffs = compare(str(tmp_path), _units(files))
    assert diffs == []
    for i, outcome in enumerate(shared.outcomes):
        if i == completing:
            assert outcome[0] == "ok"
        else:
            assert outcome[:4] == ("error", "resolve", "SemaError", "sema"), outcome
            assert "incomplete" in outcome[4]


def test_integer_models_do_not_share_resolver_state(tmp_path):
    header = "extern long big;\nint width[sizeof(long)];\nenum { K = (int)sizeof(void *) };\n"
    files = {f"u{i}.c": "#include \"h.h\"\nint f(void) { return K + width[0]; }\n"
             for i in range(6)}
    _write(str(tmp_path), {"h.h": header, **files})
    models = [DEFAULT_MODEL, SMALL_LONG, DEFAULT_MODEL, SMALL_LONG, SMALL_LONG, DEFAULT_MODEL]
    units = [(path, True, model) for path, model in zip(files, models)]
    shared, diffs = compare(str(tmp_path), units)
    assert diffs == []
    lengths = [t.file_scope.names["width"].type.length for t in shared.tables]
    assert lengths == [8 if m is DEFAULT_MODEL else 4 for m in models]
    prefix = shared.tus[1].prefix
    assert set(prefix.resolved) == {DEFAULT_MODEL, SMALL_LONG}
    # Each model's units share that model's declarations, never the other's.
    assert shared.tus[2].decls[0] is shared.tus[5].decls[0]
    assert shared.tus[3].decls[0] is shared.tus[4].decls[0]
    assert shared.tus[2].decls[0] is not shared.tus[3].decls[0]


@pytest.mark.parametrize("error", [("int broken = ;\n", "parse"), ("int bad = nowhere;\n", "resolve")])
def test_header_error_fails_every_unit_alike(tmp_path, error):
    text, stage = error
    files = {f"u{i}.c": "#include \"h.h\"\nint ok(void) { return 1; }\n" for i in range(4)}
    _write(str(tmp_path), {"h.h": PROTOS + text, **files})
    shared, diffs = compare(str(tmp_path), _units(files))
    assert diffs == []
    assert len({o for o in shared.outcomes}) == 1
    assert shared.outcomes[0][:2] == ("error", stage) and shared.outcomes[0][5].line == 2


def test_names_and_types_a_unit_declares_stay_its_own(tmp_path):
    own = "unsigned short **own;\n"
    files = {
        "u0.c": "#include \"h.h\"\nint f(void) { return 0; }\n",
        "u1.c": "#include \"h.h\"\nint f(void) { return 1; }\n",
        "u2.c": "#include \"h.h\"\ntypedef int T;\n" + own + "T x;\n",
        "u3.c": "#include \"h.h\"\n" + own + "int g(void) { return (T) - 1; }\n",
        "u4.c": "#include \"h.h\"\n" + own + "int T;\n",
    }
    _write(str(tmp_path), {"h.h": PROTOS + "extern int *base;\n", **files})
    shared, diffs = compare(str(tmp_path), _units(files))
    assert diffs == []
    assert shared.outcomes[3][:2] == ("error", "resolve") and "undeclared" in shared.outcomes[3][4]
    two, four = shared.tables[2].file_scope.names, shared.tables[4].file_scope.names
    assert two["base"].type is four["base"].type  # the prefix's types are shared
    assert two["own"].type is not four["own"].type  # each unit derives its own
    bases = [shared.tus[i].decls[-2].base for i in (2, 4)]
    assert bases[0].specs == ("unsigned", "short") and bases[0] is not bases[1]


def test_declaration_running_from_header_into_main_file(tmp_path):
    files = {f"u{i}.c": "#include \"h.h\"\n= 3;\nint g(void) { return x + y; }\n"
             for i in range(3)}
    _write(str(tmp_path), {"h.h": "extern int y;\nint x\n", **files})
    shared, diffs = compare(str(tmp_path), _units(files))
    assert diffs == []
    assert [tu.prefix for tu in shared.tus] == [None, None, None]
    assert [o[0] for o in shared.outcomes] == ["ok"] * 3


def test_a_digest_collision_is_no_match(tmp_path):
    """A kept entry found under another prefix's key is not taken."""
    _write(str(tmp_path), {"a.h": "extern int a;\n", "b.h": "extern int b;\n",
                           "a.c": "#include \"a.h\"\n", "b.c": "#include \"b.h\"\n"})
    with _cwd(str(tmp_path)):
        manager = SourceManager()
        streams = [preprocess(manager.load(path), [], [], manager)[0]
                   for path in ("a.c", "a.c", "b.c")]
    parse(streams[0], "a.c")
    kept = parse(streams[1], "a.c").prefix
    assert kept is not None
    other = streams[2]
    assert other.key != streams[0].key and len(other) == len(streams[0])
    manager.prefixes[other.key] = kept
    assert find_prefix(other) == (None, [])


# ---- leading runs of headers ---------------------------------------------------

LEVEL_1 = PROTOS + "typedef unsigned short word_t;\nextern word_t level;\n"


def _nested(tmp_path, seconds, header=LEVEL_1, seconds_text=None) -> list[str]:
    """Write units that include p.h and then the named second header each,
    and return their paths; every second header declares one object."""
    texts = seconds_text or {name: f"extern word_t in_{name};\n" for name in set(seconds)}
    files = {f"u{i}.c": f"#include \"p.h\"\n#include \"{name}.h\"\n"
                        f"word_t f{i}(void) {{ return level; }}\n"
             for i, name in enumerate(seconds)}
    _write(str(tmp_path), {"p.h": header, **{f"{n}.h": t for n, t in texts.items()}, **files})
    return list(files)


def test_a_common_first_header_is_shared_under_different_second_headers(tmp_path):
    paths = _nested(tmp_path, ["a", "b", "c", "d"])
    shared, diffs = compare(str(tmp_path), _units(paths))
    assert diffs == []
    # The second unit keeps p.h's prefix; the later ones start from it.
    assert [tu.started_from is not None for tu in shared.tus] == [False, False, True, True]
    assert _shares(shared, 1, 2) and _shares(shared, 1, 3)
    assert shared.tables[1].file_scope.names["level"] is shared.tables[3].file_scope.names["level"]
    assert [len(k) for k, p in shared.manager.prefixes.items() if p is not None] == [1]


def test_a_unit_starts_from_one_level_and_keeps_the_next(tmp_path):
    paths = _nested(tmp_path, ["a", "b", "a", "a", "b"])
    shared, diffs = compare(str(tmp_path), _units(paths))
    assert diffs == []
    tus = shared.tus
    first = tus[1].prefix
    assert tus[1].started_from is None and tus[1].kept == (first,)
    # The third unit starts from p.h and keeps p.h with a.h, which the first
    # unit started with; the fourth starts from that.
    assert tus[2].started_from is first and len(tus[2].kept) == 1
    assert tus[3].started_from is tus[2].kept[0] and tus[3].kept == ()
    assert tus[4].started_from is first and len(tus[4].kept) == 1
    assert _shares(shared, 2, 3) and tus[3].decls[0] is tus[1].decls[0]
    assert len(tus[2].prefix.decls) == len(first.decls) + 1


def test_a_second_header_that_keeps_no_state_leaves_the_first_shared(tmp_path):
    texts = {"q": "struct S;\nextern struct S *sp;\n", "r": "extern word_t in_r;\n"}
    paths = _nested(tmp_path, ["q", "q", "r", "q"], seconds_text=texts)
    shared, diffs = compare(str(tmp_path), _units(paths))
    assert diffs == []
    tus = shared.tus
    first, second = tus[1].kept
    assert set(first.resolved) == {DEFAULT_MODEL} and second.resolved == {}
    # The third unit takes p.h's declarations; the fourth starts from the
    # prefix with q.h, which keeps no resolver state, and so parses it anew.
    assert tus[2].started_from is first and tus[2].decls[0] is tus[1].decls[0]
    assert tus[3].started_from is second and tus[3].decls[0] is not tus[1].decls[0]


def test_nested_prefixes_keep_state_per_integer_model(tmp_path):
    header = LEVEL_1 + "int width[sizeof(long)];\n"
    paths = _nested(tmp_path, ["a", "b", "a", "a", "a", "c", "a"], header=header)
    models = [DEFAULT_MODEL, SMALL_LONG, SMALL_LONG, DEFAULT_MODEL, SMALL_LONG, DEFAULT_MODEL,
              DEFAULT_MODEL]
    units = [(path, True, model) for path, model in zip(paths, models)]
    shared, diffs = compare(str(tmp_path), units)
    assert diffs == []
    assert [t.file_scope.names["width"].type.length for t in shared.tables] == [
        8 if m is DEFAULT_MODEL else 4 for m in models]
    tus = shared.tus
    first, (second,) = tus[1].prefix, tus[2].kept
    assert set(first.resolved) == {SMALL_LONG, DEFAULT_MODEL}
    assert set(second.resolved) == {SMALL_LONG, DEFAULT_MODEL}
    # Each model's units share that model's declarations, never the other's.
    assert tus[2].decls[0] is tus[4].decls[0] is tus[1].decls[0]
    assert tus[3].decls[0] is tus[6].decls[0]
    assert tus[3].decls[0] is not tus[2].decls[0]
    assert tus[5].decls[0] is not tus[2].decls[0]


def test_a_prefix_kept_by_a_unit_that_fails_later_is_parsed_anew(tmp_path):
    # The third unit starts from p.h's prefix, keeps the one with a.h and
    # then fails to parse; the fourth starts from that one, which holds
    # p.h's shared declarations, so it must not resolve them again in place.
    paths = _nested(tmp_path, ["a", "b", "a", "a", "c"])
    with open(tmp_path / paths[2], "a", encoding="utf-8") as fh:
        fh.write("int broken = ;\n")
    shared, diffs = compare(str(tmp_path), _units(paths))
    assert diffs == []
    assert [o[:2] for o in shared.outcomes][2] == ("error", "parse")
    tus, tables = shared.tus, shared.tables
    second = tus[3].started_from
    assert second is not None and second is not tus[1].prefix and second.resolved.keys() == {
        DEFAULT_MODEL}
    assert tus[3].decls[0] is not tus[1].decls[0] and tus[4].decls[0] is tus[1].decls[0]
    level = tables[1].file_scope.names["level"]
    assert tables[4].file_scope.names["level"] is level
    assert tus[1].decls[2].entries[0].symbol is level  # `extern word_t level;`


@pytest.mark.parametrize("where", ["main file", "header"])
def test_a_define_between_the_headers_gives_a_separate_branch(tmp_path, where):
    # q.h reads N. A unit that defines N itself gets q.h tokens of its own,
    # so no two units start with the same text past p.h; a definition from
    # n4.h or n8.h gives one branch per value, which units repeat.
    lengths = [4, 8, 4, 8, 4]
    define = "#define N {}\n" if where == "main file" else "#include \"n{}.h\"\n"
    files = {f"u{i}.c": f"#include \"p.h\"\n{define.format(n)}#include \"q.h\"\n"
                        f"int f(void) {{ return v[0] + (int)level; }}\n"
             for i, n in enumerate(lengths)}
    _write(str(tmp_path), {"p.h": LEVEL_1, "q.h": "extern int v[N];\n",
                           "n4.h": "#define N 4\n", "n8.h": "#define N 8\n", **files})
    shared, diffs = compare(str(tmp_path), _units(files))
    assert diffs == []
    assert [t.file_scope.names["v"].type.length for t in shared.tables] == lengths
    tus = shared.tus
    first = tus[1].prefix
    assert tus[2].started_from is tus[3].started_from is first
    assert all(tus[i].decls[0] is tus[1].decls[0] for i in (2, 3, 4))
    branches = [k for k in shared.manager.prefixes if len(k) == 2]
    if where == "main file":
        assert len(branches) == 5 and [tu.kept for tu in tus[2:]] == [()] * 3
        assert tus[4].started_from is first
    else:
        fours, eights = tus[2].kept[0], tus[3].kept[0]
        assert len(branches) == 2 and fours is not eights
        assert tus[4].started_from is fours and tus[4].kept == ()


# ---- the include memo ----------------------------------------------------------


def _entries(run_: Run, name: str) -> list:
    """The memo entries the run's manager keeps for the file named `name`."""
    manager = run_.manager
    (file_id,) = [i for i in range(len(manager)) if os.path.basename(manager.path_of(i)) == name]
    return manager.memo.get(file_id, [])


@pytest.mark.parametrize("defined, entries, hits", [("N", 3, 0), ("OTHER", 1, 2)])
def test_a_define_before_the_header_misses_only_if_the_header_reads_it(
        tmp_path, defined, entries, hits):
    header = "#ifndef N\n#define N 4\n#endif\nextern int v[N];\n"
    files = {f"u{i}.c": f"#define {defined} {i + 2}\n#include \"h.h\"\n"
                        f"int g(void) {{ return v[0]; }}\n" for i in range(3)}
    _write(str(tmp_path), {"h.h": header, **files})
    shared, diffs = compare(str(tmp_path), _units(files))
    assert diffs == []
    lengths = [t.file_scope.names["v"].type.length for t in shared.tables]
    assert lengths == ([2, 3, 4] if defined == "N" else [4, 4, 4])
    assert len(_entries(shared, "h.h")) == entries and shared.manager.memo_hits == hits


def test_an_identifier_in_header_text_is_a_read_of_it(tmp_path):
    # `size` is no macro in the first unit and one in the second.
    files = {"u0.c": "#include \"h.h\"\n",
             "u1.c": "#include \"alias.h\"\n#include \"h.h\"\n",
             "u2.c": "#include \"h.h\"\n"}
    _write(str(tmp_path), {"h.h": "extern int size;\n", "alias.h": "#define size length\n",
                           **files})
    shared, diffs = compare(str(tmp_path), _units(files))
    assert diffs == []
    assert [sorted(set(t.file_scope.names) & {"size", "length"}) for t in shared.tables] == [
        ["size"], ["length"], ["size"]]
    assert shared.manager.memo_hits == 1


def test_a_nested_header_s_reads_and_writes_are_its_includer_s(tmp_path):
    files = {f"u{i}.c": f"#include \"n{(4, 8)[i % 2]}.h\"\n#include \"h.h\"\n"
                        "int w = FROM_G;\n" for i in range(4)}
    _write(str(tmp_path), {"n4.h": "#define N 4\n", "n8.h": "#define N 8\n",
                           "h.h": "#include \"g.h\"\n",
                           "g.h": "extern int v[N];\n#define FROM_G 1\n", **files})
    shared, diffs = compare(str(tmp_path), _units(files))
    assert diffs == []
    assert [t.file_scope.names["v"].type.length for t in shared.tables] == [4, 8, 4, 8]
    # The last two units replay n4.h or n8.h and then h.h, which reads N
    # only through g.h and defines FROM_G only through it.
    assert len(_entries(shared, "h.h")) == 2 and shared.manager.memo_hits == 4


def test_undef_in_a_header_is_replayed(tmp_path):
    files = {f"u{i}.c": "#include \"cfg.h\"\n#include \"h.h\"\n#define LIMIT 5\n"
                        "#ifdef KEEP\nint good = LIMIT;\n#endif\n" for i in range(3)}
    _write(str(tmp_path), {"cfg.h": "#define LIMIT 3\n#define KEEP 1\n",
                           "h.h": "#undef LIMIT\nextern int k;\n", **files})
    shared, diffs = compare(str(tmp_path), _units(files))
    assert diffs == []
    # Without the #undef the main file's #define would redefine LIMIT.
    assert [o[0] for o in shared.outcomes] == ["ok"] * 3
    assert all("good" in t.file_scope.names for t in shared.tables)
    assert shared.manager.memo_hits == 4  # cfg.h and h.h in the last two units


def test_header_pragmas_reach_every_unit(tmp_path):
    header = "#pragma pack(1)\nextern int p;\n_Pragma(\"weak sym\") extern int q;\n"
    files = {f"u{i}.c": "#include \"h.h\"\n#pragma own\nint g(void) { return p + q; }\n"
             for i in range(3)}
    _write(str(tmp_path), {"h.h": header, **files})
    shared, diffs = compare(str(tmp_path), _units(files))
    assert diffs == []
    assert [[text for _, text in o[4]] for o in shared.outcomes] == [
        ["pack ( 1 )", "weak sym", "own"]] * 3
    assert shared.manager.memo_hits == 2


def test_computed_include_follows_each_unit_s_macro(tmp_path):
    files = {f"u{i}.c": f"#include \"h{'ab'[i % 2]}.h\"\n#include \"h.h\"\n"
                        "int g(void) { return 0; }\n" for i in range(4)}
    _write(str(tmp_path), {"ha.h": "#define HDR \"a.h\"\n", "hb.h": "#define HDR \"b.h\"\n",
                           "h.h": "#include HDR\n", "a.h": "extern int a;\n",
                           "b.h": "extern int b;\n", **files})
    shared, diffs = compare(str(tmp_path), _units(files))
    assert diffs == []
    assert [sorted(set(t.file_scope.names) & {"a", "b"}) for t in shared.tables] == [
        ["a"], ["b"], ["a"], ["b"]]
    # The third and fourth units replay the entries the first two kept, so
    # their keys repeat and each keeps its own prefix.
    assert len(_entries(shared, "h.h")) == 2
    prefixes = [tu.prefix for tu in shared.tus]
    assert prefixes[:2] == [None, None] and None not in prefixes[2:]
    assert prefixes[2] is not prefixes[3]


@pytest.mark.parametrize("fault", ["#error stop here\n", "#define F(x\n"])
def test_a_header_that_raises_raises_in_every_unit(tmp_path, fault):
    files = {f"u{i}.c": "#include \"h.h\"\nint g(void) { return 0; }\n" for i in range(3)}
    _write(str(tmp_path), {"h.h": "extern int h;\n#include \"g.h\"\n",
                           "g.h": "extern int g0;\n" + fault, **files})
    shared, diffs = compare(str(tmp_path), _units(files))
    assert diffs == []
    assert len(set(shared.outcomes)) == 1 and shared.outcomes[0][:2] == ("error", "preprocess")
    assert _entries(shared, "h.h") == _entries(shared, "g.h") == []


def test_a_header_chain_that_fits_from_one_site_raises_from_a_deeper_one(tmp_path):
    levels = INCLUDE_DEPTH_LIMIT - 4
    chain = {f"c{k}.h": f"#include \"c{k + 1}.h\"\n" for k in range(1, levels)}
    chain[f"c{levels}.h"] = "extern int deep;\n"
    chain.update({f"d{k}.h": f"#include \"d{k + 1}.h\"\n" for k in range(1, 5)})
    chain["d5.h"] = "#include \"c1.h\"\n"
    files = {f"u{i}.c": f"#include \"{'cd'[i % 2]}1.h\"\nint g(void) {{ return deep; }}\n"
             for i in range(4)}
    _write(str(tmp_path), {**chain, **files})
    shared, diffs = compare(str(tmp_path), _units(files))
    assert diffs == []
    assert [o[0] for o in shared.outcomes] == ["ok", "error"] * 2
    assert "include depth exceeded" in shared.outcomes[1][4]
    # The third unit replays the chain the first one kept; the second and
    # fourth reach it five levels deeper and process it again.
    assert len(_entries(shared, "c1.h")) == 1 and shared.manager.memo_hits == 1


def _reachable(roots) -> list:
    """Every tree node, symbol and type reachable from `roots`."""
    seen: set[int] = set()
    out, stack = [], list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, int, float, type(None))):
            continue
        seen.add(id(obj))
        if isinstance(obj, (Node, Symbol, TypeDesc)):
            out.append(obj)
        if isinstance(obj, (list, tuple, dict, set, frozenset)) or (
                type(obj).__module__.startswith("ccomply.") and not isinstance(obj, type)):
            stack.extend(gc.get_referents(obj))
    return out


def test_separate_managers_share_nothing(tmp_path):
    header = PROTOS + "typedef struct { int m; } rec_t;\nextern rec_t *head;\nint *spot(void);\n"
    files = {f"u{i}.c": "#include \"h.h\"\nint f(void) { return head->m + *spot(); }\n"
             for i in range(3)}
    _write(str(tmp_path), {"h.h": header, **files})
    first = run(str(tmp_path), _units(files), True)
    second = run(str(tmp_path), _units(files), True)
    assert _shares(first, 1, 2) and _shares(second, 1, 2)
    # Unqualified integer, void, bool and floating types are process-wide values.
    reach = [{id(o) for o in _reachable(r.tus + r.tables)
              if not (isinstance(o, TypeDesc) and o.kind.name in
                      ("INT", "UINT", "VOID", "BOOL", "FLOAT", "DOUBLE") and not o.quals)}
             for r in (first, second)]
    assert reach[0] and reach[0].isdisjoint(reach[1])


# ---- findings of a prefix's declarations ----------------------------------------

# A header with an R11.4 initializer and a `static` function with an R12.2
# shift; `wider`'s shift is out of range only where `long` has 32 bits.
FINDINGS_HEADER = ("extern unsigned reg;\nint *const base = (int *)4096;\n"
                   "static unsigned wide(unsigned x) { return x << 40; }\n"
                   "static long wider(long x) { return x << 40; }\n")


def _checker_calls(monkeypatch) -> list:
    """Each per-unit checker call, as (guideline, unit path, the declarations it indexed)."""
    calls = []
    for gid, checker in engine.PER_TU_CHECKERS.items():
        def spy(facts, index, functions, _gid=gid, _checker=checker):
            calls.append((_gid, facts.tu.path, list(index.decls)))
            return _checker(facts, index, functions)

        monkeypatch.setitem(engine.PER_TU_CHECKERS, gid, spy)
    return calls


def _header_findings(outcome) -> set:
    """(path, guideline) of each finding outside the unit's own file."""
    return {(row[0], row[2]) for row in outcome[3] if not row[0].endswith(".c")}


@pytest.mark.parametrize("per_guideline", [False, True])
def test_header_findings_are_computed_once_and_reported_by_every_unit(
        tmp_path, monkeypatch, per_guideline):
    files = {f"u{i}.c": "#include \"h.h\"\nunsigned f(void) { return wide(reg); }\n"
             for i in range(4)}
    _write(str(tmp_path), {"h.h": FINDINGS_HEADER, **files})
    units = _units(list(files)[:3]) + _units(["u3.c"], model=SMALL_LONG)
    calls = _checker_calls(monkeypatch)
    shared = run(str(tmp_path), units, True, per_guideline=per_guideline)
    monkeypatch.undo()
    assert compare(str(tmp_path), units)[1] == []
    # Each unit reports both header findings, as with a fresh parse.
    assert all(_header_findings(o) == {("h.h", "R11.4"), ("h.h", "R12.2")}
               for o in shared.outcomes)
    prefix = shared.tus[1].prefix
    assert prefix is not None and shared.tus[2].prefix is prefix
    common = shared.tus[1].decls[:len(prefix.decls)]

    def ran_on(unit: int) -> collections.Counter:
        """Per guideline, the calls whose declarations start with the unit's prefix run."""
        first = shared.tus[unit].decls[0]
        return collections.Counter(gid for gid, _, decls in calls if decls and decls[0] is first)

    # Under the default model every guideline ran once on the shared
    # declarations (for the second unit), and never for the third.
    every = set(engine.PER_TU_CHECKERS)
    assert ran_on(1) == collections.Counter(every) and ran_on(2) == ran_on(1)
    assert [d for gid, path, decls in calls if path == "u2.c" for d in decls
            if any(d is c for c in common)] == []
    # The unit under SMALL_LONG takes nothing from them: its leading
    # declarations are its own parse, checked once under its model.
    assert shared.tus[3].decls[0] is not common[0]
    assert ran_on(3) == collections.Counter(every)
    assert set(prefix.findings) == {DEFAULT_MODEL, SMALL_LONG}
    assert all(set(by_guideline) == every for by_guideline in prefix.findings.values())


def test_a_unit_reuses_a_prefix_only_with_its_very_declarations(tmp_path):
    files = {f"u{i}.c": "#include \"h.h\"\nunsigned f(void) { return wide(reg); }\n"
             for i in range(3)}
    _write(str(tmp_path), {"h.h": FINDINGS_HEADER, **files})
    shared = run(str(tmp_path), _units(files), True)
    tu = shared.tus[2]
    facts = compute_tu_facts(tu, shared.tables[2])
    assert engine._reused_prefix(facts) is tu.prefix is not None
    # An equal declaration that is another object is no match.
    tu.decls[0] = copy.copy(tu.decls[0])
    assert engine._reused_prefix(facts) is None


def test_no_index_of_a_prefix_outlives_the_call(tmp_path, monkeypatch):
    files = {f"u{i}.c": "#include \"h.h\"\nunsigned f(void) { return wide(reg); }\n"
             for i in range(3)}
    _write(str(tmp_path), {"h.h": FINDINGS_HEADER, **files})
    built = []

    class CountingIndex(engine.NodeIndex):
        __slots__ = ()

        def __init__(self, decls):
            super().__init__(decls)
            built.append(weakref.ref(self))

    monkeypatch.setattr(engine, "NodeIndex", CountingIndex)
    shared = run(str(tmp_path), _units(files), True)
    assert shared.tus[2].prefix is not None
    # One index per unit, and one over the prefix's declarations.
    assert len(built) == len(files) + 1
    assert all(ref() is None for ref in built)


# ---- whole workloads ---------------------------------------------------------------


def served_checks(run_: Run, rules) -> int:
    """How many (unit, guideline) checks of a prefix's declarations `run_`'s
    units took from the findings the prefix keeps, not counting the check
    that computed them."""
    guidelines = len(set(rules) & set(engine.PER_TU_CHECKERS))
    reusing = sum(engine._reused_prefix(compute_tu_facts(tu, table)) is not None
                  for tu, table in zip(run_.tus, run_.tables) if tu is not None)
    computed = sum(len(by_guideline) for prefix in run_.manager.prefixes.values()
                   if prefix is not None for by_guideline in prefix.findings.values())
    return reusing * guidelines - computed


def workload_diffs(workload: str, seed: int, workdir: str, tus: int | None = None):
    """(units compared, units sharing a prefix, tokens units took from a kept
    prefix, (unit, guideline) checks served from a prefix, differences) over
    a workload's first `tus` units."""
    project = generate(workload, seed)
    _write(workdir, project.files)
    units = _units(project.tus[:tus])
    rules = WORKLOADS[workload].rules
    shared, diffs = compare(workdir, units, rules)
    sharing = sum(tu is not None and tu.prefix is not None for tu in shared.tus)
    taken = sum(len(tu.started_from.tokens) for tu in shared.tus
                if tu is not None and tu.started_from is not None)
    return len(units), sharing, taken, served_checks(shared, rules), diffs


@pytest.mark.parametrize("workload", ["header_heavy", "project_all_rules"])
def test_workload_units_match_a_fresh_parse(workload, tmp_path):
    units, sharing, taken, served, diffs = workload_diffs(workload, 1, str(tmp_path),
                                                          WORKLOAD_TUS)
    assert units == WORKLOAD_TUS and diffs == []
    # Every unit after the first shares at least the first header, and the
    # units after the second take its findings from it.
    assert sharing == WORKLOAD_TUS - 1 and taken > 0 and served > 0


def main(argv: list[str]) -> int:
    """Compare every unit of every workload at the given seeds, shared against fresh."""
    import argparse
    import json
    import tempfile

    ap = argparse.ArgumentParser(description=main.__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    report = {}
    for workload in sorted(WORKLOADS):
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                units, sharing, taken, served, diffs = workload_diffs(workload, seed, workdir)
            report[f"{workload}:{seed}"] = {
                "units": units, "sharing_a_prefix": sharing, "tokens_from_a_prefix": taken,
                "checks_served_from_a_prefix": served,
                "differences": len(diffs), "first": diffs[:3],
            }
    print(json.dumps(report))
    return 0 if all(r["differences"] == 0 for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
