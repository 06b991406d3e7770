"""What a pass keeps alive: no per-function fact outlives `run_rules`.

`analyze` keeps every unit's `TUFacts` for the whole run, so whatever they
reach stays in the heap that every cyclic collection walks. `run_rules`
builds each unit's `FunctionFacts` next to its `NodeIndex` and drops both
when the unit's checkers return; reference counting must free them, so
an `analyze` run makes no cyclic garbage at all. If a change puts a cycle into
the CFG, the analyses or the facts, these tests name the types involved.
What is kept is compact: the units of a header-heavy project share their
syntactic and derived types, so their number stays under a bound, and the
declarations of the header prefix they start with, which are kept once per
distinct prefix and not once per unit, as are the findings of those
declarations, packed; a recorded constant value and the
mask of what an expression holds are plain ints on its node, and a source
position is a plain packed int: no
kept tree or symbol table reaches a `Span` or a `Location`.

Run as a script for a census of what a whole benchmark pass keeps: live
tracked objects by type, each with its count and its bytes by
`sys.getsizeof` (the object alone, not what it refers to; untracked
objects such as ints and strings are not counted), cyclic collections and
their CPU seconds by generation, and peak RSS, with automatic collection on
as in the benchmark, how many header prefixes the run kept, by how many
leading `#include`s each covers, and how many units share one, how many
(integer model, guideline) lists of findings the prefixes keep and how many
findings they hold, and how many include memo entries the run keeps, made
and replayed:

    PYTHONPATH=src:tests:perfbench python3 tests/test_lifetime.py --census header_heavy --seed 3
"""
from __future__ import annotations

import collections
import contextlib
import gc
import os
import sys

import pytest

from ccomply.flow import Cfg
from ccomply.frontend import preprocess
from ccomply.frontend.preprocessor import MEMO_ENTRIES
from ccomply.parsing import Declaration, Expr, walk
from ccomply.pipeline import analyze
from ccomply.rules import IMPLEMENTED, FunctionFacts, engine, run_rules
from ccomply.source import Extent, Location, SourceManager, Span
from rule_helpers import PRELUDE

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
from gen import WORKLOADS, generate  # noqa: E402  (the generator imports nothing from ccomply)

PER_TU = set(engine.PER_TU_CHECKERS)
PROJECT_TUS = 8  # of the generated project's 100 units
# Bounds on the shared syntactic and type objects that the chain over
# PROJECT_TUS units of header_heavy (seed 5) leaves alive: twice the 73
# SynBase, 425 SynType and 119 TypeDesc measured. With one of each per
# declaration there are 1,123, 1,123 and 962.
SHARED_BOUNDS = {"SynBase": 146, "SynType": 850, "TypeDesc": 238}
# Bound on the tracked objects the chain over the snippets and PROJECT_TUS
# units of project_all_rules (seed 5) leaves alive. 15,465 were measured;
# the kept trees hold 401 expressions with a constant value, so one object
# per recorded constant would break it.
LIVE_BOUND = 15_700

# One snippet per shape the checkers read facts for: every per-TU guideline
# finds something here, and R17.2 sees direct and indirect recursion.
SNIPPETS = {
    "shifts.c": "void f(unsigned n) { uint32_t i = 1; i = i << 32; "
                "if (n <= 40u) { useu(i << n); } useu(i); }\n",
    "unset.c": "void f(int c) { int x; int y; if (c) { x = 1; } use(x); usep(&y); use(y); }\n",
    "reach.c": "int f(int x) { return x; use(x); }\n"
               "void g(void) { int i = 0; if (i > 5) { use(i); } }\n",
    "dead.c": "void f(int a) { int t; a + 1; t = a; }\n",
    "literal.c": "void f(int c) { char b[2]; char *p = \"ab\"; if (c) { p = b; } *p = 'x'; }\n",
    "order.c": "void f(int *p, int x, int i) { int a[2] = { i++, i }; use((*p = 1) + x); "
               "use(i++ + i); if (x && get()) { use(a[0]); } }\n",
    "ast.c": "void f(int *p, float x) { float y; int *q = (int *)4096; "
             "for (y = 0.0f; y < x; y += 1.0f) { use(*p); } usep(q); }\n",
    "loops.c": "void f(int n) { int i; for (i = 0; i < n; i++) { i = i + 2; } }\n",
    "rec.c": "int fact(int n) { return n > 1 ? n * fact(n - 1) : 1; }\n"
             "int a(int n); int b(int n) { return a(n); } int a(int n) { return b(n); }\n"
             "void call(void (*fp)(void)) { fp(); }\n",
}


def _chain(manager: SourceManager, paths: list[str]) -> tuple[list, list]:
    """One `analyze` run over `paths` with every guideline, then its chain check."""
    run = analyze(paths, IMPLEMENTED, manager)
    assert run.errors == []
    # One call over every kept unit, as the chain check of the benchmark makes.
    assert run_rules(run.units, set(IMPLEMENTED), call_graph=run.call_graph, manager=manager)
    return run.units, run.findings


def _write_project(workload: str, seed: int, workdir: str):
    """Generate a workload's project into `workdir` and return it."""
    project = generate(workload, seed)
    for path, text in project.files.items():
        full = os.path.join(workdir, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as fh:
            fh.write(text)
    return project


@contextlib.contextmanager
def _cwd(workdir: str):
    """Run the body in `workdir`: a project's #include paths are relative to its root."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        yield
    finally:
        os.chdir(cwd)


def _run_snippets_and_project(workdir: str):
    """The chain over every snippet, then over the first units of a generated project."""
    for name, text in SNIPPETS.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(PRELUDE + text)
    project = _write_project("project_all_rules", 5, workdir)
    with _cwd(workdir):
        snippets = _chain(SourceManager(), list(SNIPPETS))
        project_run = _chain(SourceManager(), project.tus[:PROJECT_TUS])
    return snippets, project_run


def _live(names) -> collections.Counter:
    """Live tracked objects whose class is named in `names`, by class name."""
    return collections.Counter(
        type(o).__name__ for o in gc.get_objects() if type(o).__name__ in names
    )


@pytest.fixture
def automatic_gc_off():
    """Collect, then switch automatic collection off; restore it afterwards."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def test_every_snippet_exercises_its_checker(tmp_path, automatic_gc_off):
    (_, findings), (_, project_findings) = _run_snippets_and_project(str(tmp_path))
    assert {f.guideline for f in findings} == set(IMPLEMENTED)
    assert project_findings


def test_no_cfg_or_function_facts_outlive_run_rules(tmp_path, automatic_gc_off):
    kept = _run_snippets_and_project(str(tmp_path))
    assert kept  # every unit's TUFacts is still alive here
    alive = collections.Counter(
        type(o).__name__ for o in gc.get_objects() if isinstance(o, (Cfg, FunctionFacts))
    )
    assert alive == {}


def test_chain_makes_no_cyclic_garbage(tmp_path, automatic_gc_off):
    _run_snippets_and_project(str(tmp_path))
    gc.set_debug(gc.DEBUG_SAVEALL)
    unreachable = gc.collect()
    assert unreachable == 0, sorted({type(o).__name__ for o in gc.garbage})


def test_recorded_constants_keep_no_objects(tmp_path, automatic_gc_off):
    value_types = {"ConstValue", "IntResult"}
    values_before, before = _live(value_types), len(gc.get_objects())
    kept = _run_snippets_and_project(str(tmp_path))
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert kept
    # Each constant is a plain int on its node: no per-node value object.
    assert _live(value_types) - values_before == collections.Counter()
    assert grown <= LIVE_BOUND, grown


def _reachable(roots: list) -> list:
    """Every container and `ccomply` object reachable from `roots`.

    The walk follows `gc.get_referents` into lists, tuples, dicts and sets
    and into instances of `ccomply` classes only, so it stays inside the
    kept data and never enters classes, modules or functions.
    """
    seen: set[int] = set()
    out: list = []
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        out.append(obj)
        for ref in gc.get_referents(obj):
            if isinstance(ref, (list, tuple, dict, set, frozenset)) or (
                    type(ref).__module__.startswith("ccomply.") and not isinstance(ref, type)):
                stack.append(ref)
    return out


def test_recorded_kinds_keep_no_objects(tmp_path, automatic_gc_off):
    (snippets, _), (project, _) = _run_snippets_and_project(str(tmp_path))
    exprs = [n for facts in snippets + project for decl in facts.tu.decls
             for n in walk(decl) if isinstance(n, Expr)]
    assert exprs
    # Sema recorded a mask on every expression of the kept trees: none is
    # left at KIND_ALL, and each fits the eight `KIND_*` bits.
    assert all(type(e.kinds) is int and 0 <= e.kinds < 256 for e in exprs)
    # Equal masks are one object, the interpreter's shared small int.
    assert len({id(e.kinds) for e in exprs}) == len({e.kinds for e in exprs})


def test_kept_trees_and_symbols_hold_no_position_objects(tmp_path, automatic_gc_off):
    (snippets, _), (project, _) = _run_snippets_and_project(str(tmp_path))
    reached = _reachable([root for facts in snippets + project for root in (facts.tu, facts.table)])
    holders = [o for o in reached if isinstance(o, Extent)]
    kinds = collections.Counter(type(o).__name__ for o in holders)
    assert {"Identifier", "DeclEntry", "SynParam", "Symbol"} <= set(kinds)
    # Every extent is two packed ints and a chain of packed frames.
    assert all(type(h.start) is int and type(h.end) is int and type(h.via) is tuple
               for h in holders)
    assert [o for o in reached if isinstance(o, (Span, Location))] == []


def test_kept_units_share_their_types(tmp_path, automatic_gc_off):
    before = _live(SHARED_BOUNDS)
    project = _write_project("header_heavy", 5, str(tmp_path))
    with _cwd(str(tmp_path)):
        kept, _ = _chain(SourceManager(), project.tus[:PROJECT_TUS])
    grown = _live(SHARED_BOUNDS) - before
    assert kept
    over = {name: grown[name] for name, bound in SHARED_BOUNDS.items() if grown[name] > bound}
    assert over == {}, grown


def _declarations(decls) -> int:
    """How many `Declaration` nodes `decls` and their subtrees hold."""
    return sum(isinstance(node, Declaration) for decl in decls for node in walk(decl))


def test_header_declarations_are_kept_once_per_prefix(tmp_path, automatic_gc_off):
    before = _live({"Declaration"})
    project = _write_project("header_heavy", 5, str(tmp_path))
    with _cwd(str(tmp_path)):
        manager = SourceManager()
        kept, _ = _chain(manager, project.tus[:PROJECT_TUS])
    gc.collect()
    grown = (_live({"Declaration"}) - before)["Declaration"]
    prefixes = [p for p in manager.prefixes.values() if p is not None]
    # The first unit parses regs.h alone; every later one shares the copy
    # the second unit parsed.
    assert len(prefixes) == 1 and kept[0].tu.prefix is None
    assert all(facts.tu.prefix is prefixes[0] for facts in kept[1:])
    own = sum(_declarations(facts.tu.decls[len(facts.tu.prefix.decls) if facts.tu.prefix else 0:])
              for facts in kept)
    assert grown == own + _declarations(prefixes[0].decls)


def _prefix_findings(manager: SourceManager) -> tuple[int, int]:
    """(lists of findings the run's prefixes keep, findings in them)."""
    lists = [rows for prefix in manager.prefixes.values() if prefix is not None
             for by_guideline in prefix.findings.values() for rows in by_guideline.values()]
    return len(lists), sum(map(len, lists))


def test_kept_prefix_findings_hold_no_position_objects(tmp_path, automatic_gc_off):
    header = ("int *const base = (int *)4096;\n"
              "static unsigned wide(unsigned x) { return x << 40; }\n")
    (tmp_path / "h.h").write_text(header)
    for i in range(3):
        (tmp_path / f"u{i}.c").write_text(
            "#include \"h.h\"\nunsigned f(void) { return wide(1u); }\n")
    with _cwd(str(tmp_path)):
        manager = SourceManager()
        kept, findings = _chain(manager, [f"u{i}.c" for i in range(3)])
    header_findings = sorted(f.guideline for f in findings if f.path.endswith("h.h"))
    assert header_findings == ["R11.4"] * 3 + ["R12.2"] * 3
    # One list per per-unit guideline, and the two header findings in them.
    assert _prefix_findings(manager) == (len(PER_TU), 2)
    reached = _reachable([root for facts in kept for root in (facts.tu, facts.table)])
    assert any(type(o).__name__ == "Prefix" for o in reached)
    assert [o for o in reached if isinstance(o, (Span, Location))] == []


def test_include_memo_keeps_a_few_entries_per_file(tmp_path, automatic_gc_off):
    # Each unit defines the macro the header reads anew, so no unit replays
    # an entry and each keeps one; the file keeps only the newest few.
    before = _live({"IncludeEntry"})
    (tmp_path / "h.h").write_text("extern int v[N];\n")
    for i in range(100):
        (tmp_path / f"u{i}.c").write_text(f"#define N {i + 1}\n#include \"h.h\"\n")
    manager = SourceManager()
    for i in range(100):
        preprocess(manager.load(str(tmp_path / f"u{i}.c")), [], [], manager)
    (entries,) = manager.memo.values()
    assert manager.memo_made == 100 and manager.memo_hits == 0
    assert len(entries) == MEMO_ENTRIES
    assert (_live({"IncludeEntry"}) - before)["IncludeEntry"] == MEMO_ENTRIES
    gc.set_debug(gc.DEBUG_SAVEALL)
    assert gc.collect() == 0, sorted({type(o).__name__ for o in gc.garbage})


def census(workload: str, seed: int, top: int = 25) -> dict:
    """What a whole pass over `workload` keeps, and what collecting it costs."""
    import resource
    import tempfile
    import time

    collections_by_gen = [0, 0, 0]
    seconds_by_gen = [0.0, 0.0, 0.0]
    started = [0.0]

    def clock(phase: str, info: dict) -> None:
        if phase == "start":
            started[0] = time.process_time()
        else:
            collections_by_gen[info["generation"]] += 1
            seconds_by_gen[info["generation"]] += time.process_time() - started[0]

    rules = set(WORKLOADS[workload].rules)
    with tempfile.TemporaryDirectory() as workdir:
        project = _write_project(workload, seed, workdir)
        gc.callbacks.append(clock)
        try:
            with _cwd(workdir):
                manager = SourceManager()
                kept = analyze(project.tus, rules, manager).units
        finally:
            gc.callbacks.remove(clock)
        levels = collections.Counter(len(k) for k, p in manager.prefixes.items() if p is not None)
        findings_lists, findings_kept = _prefix_findings(manager)
        live: collections.Counter = collections.Counter()
        size: collections.Counter = collections.Counter()
        for o in gc.get_objects():
            live[type(o).__name__] += 1
            size[type(o).__name__] += sys.getsizeof(o)
    return {
        "workload": workload, "seed": seed, "units": len(project.tus), "kept_units": len(kept),
        "prefix_entries": sum(levels.values()),
        "prefix_entries_by_level": dict(sorted(levels.items())),
        "prefix_units": sum(facts.tu.prefix is not None for facts in kept),
        "prefix_findings_lists": findings_lists,
        "prefix_findings": findings_kept,
        "memo_entries": sum(map(len, manager.memo.values())),
        "memo_made": manager.memo_made,
        "memo_hits": manager.memo_hits,
        "live_tracked_objects": sum(live.values()),
        "live_tracked_bytes": sum(size.values()),
        "live_by_type": {name: {"count": n, "bytes": size[name]} for name, n in live.most_common(top)},
        "collections_by_generation": collections_by_gen,
        "gc_s_by_generation": [round(s, 4) for s in seconds_by_gen],
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 2),
    }


def main(argv: list[str]) -> int:
    """Print the census of one workload's pass as one JSON object."""
    import argparse
    import json

    ap = argparse.ArgumentParser(description=main.__doc__)
    ap.add_argument("--census", required=True, choices=sorted(WORKLOADS), metavar="WORKLOAD")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--top", type=int, default=25, help="how many types to list")
    args = ap.parse_args(argv)
    print(json.dumps(census(args.census, args.seed, args.top)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
