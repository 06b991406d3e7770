"""`ccomply.pipeline.analyze`: the one stage chain, checked against the benchmark's.

The benchmark's pass (`perfbench/one_pass._run_pass`) chains the stages
itself and is the reference: on the first units of each workload,
`analyze` must give findings whose digest equals the pass's. A unit that
fails is listed once in `Run.errors` and left out of the rest of the run.

Run as a script to compare every unit of every workload at the given seeds:

    PYTHONPATH=src:tests:perfbench python3 tests/test_pipeline.py --seeds 1 2 3
"""
from __future__ import annotations

import hashlib
import os
import sys

import pytest

from ccomply import pipeline
from ccomply.builtins import BUILTIN_MACRO_SPECS
from ccomply.errors import ConfigError
from ccomply.frontend import macro_from_define_flag
from ccomply.frontend.preprocessor import PAREN_NESTING_LIMIT
from ccomply.pipeline import analyze
from ccomply.rules import run_rules
from ccomply.source import SourceManager
from support import make_manager
from test_lifetime import _cwd, _write_project

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
from gen import WORKLOADS  # noqa: E402  (the generator imports nothing from ccomply)
from one_pass import _NoSpans, _run_pass, render  # noqa: E402

UNITS = 10  # of each workload's 100 in tier-1; the script mode takes every unit


def compare(paths: list[str], rules) -> dict:
    """Both chains over `paths` in the current directory, and the chain gate."""
    bench_manager = SourceManager()
    builtins = [macro_from_define_flag(spec, bench_manager) for spec in BUILTIN_MACRO_SPECS]
    bench = _run_pass(bench_manager, builtins, paths, rules, _NoSpans(), None)
    manager = SourceManager()
    run = analyze(paths, rules, manager)
    text = render(run.findings)
    single = run_rules(run.units, set(rules), call_graph=run.call_graph, manager=manager)
    return {
        "findings": len(run.findings),
        "bench_findings": bench["findings_count"],
        "same_sha256": hashlib.sha256(text.encode()).hexdigest() == bench["findings_sha256"],
        "same_failures": [p for p, _ in run.errors] == [f["tu"] for f in bench["failures"]],
        "chain_equals_single_call": render(single) == text,
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_analyze_matches_the_benchmark_chain(workload, tmp_path):
    project = _write_project(workload, 1, str(tmp_path))
    with _cwd(str(tmp_path)):
        got = compare(project.tus[:UNITS], WORKLOADS[workload].rules)
    assert got["findings"] > 0
    assert got["same_sha256"] and got["same_failures"] and got["chain_equals_single_call"], got


def test_in_memory_file_loads_by_its_path():
    manager = SourceManager()
    first = manager.add_virtual("not/on/disk.c", "int x;\n")
    second = manager.add_virtual("also/not/on/disk.c", "int y;\n")
    assert manager.load("not/on/disk.c") is first
    assert manager.load("also/not/on/disk.c") is second
    assert (first.id, second.id, len(manager)) == (0, 1, 2)


def _deep(depth: int) -> str:
    return "(" * depth + "a" + ")" * depth


DECLARE = "void ok_one(void);\n"
UNIT_TEXTS = {
    "ok1.c": "void ok_one(void) { bool b = true; int *p = NULL; if (b) { p; } }\n",
    "parse.c": DECLARE + "void in_parse(void) { ok_one(); }\nint ( ;\n",
    "sema.c": DECLARE + "void in_sema(void) { ok_one(); undeclared = 1; }\n",
    "deep.c": DECLARE + "int in_deep(int a) { ok_one(); return "
              + _deep(PAREN_NESTING_LIMIT + 1) + "; }\n",
    "include.c": DECLARE + "void in_include(void) { ok_one(); }\n#include \"missing.h\"\n",
    "ok2.c": "int ok_two(int n) { return n > 1 ? ok_two(n - 1) : 1; }\n",
}
RULES = {"R2.2", "R17.2"}


def test_failed_units_are_listed_once_and_left_out(tmp_path):
    unreadable = str(tmp_path / "gone.c")
    manager, _ = make_manager(UNIT_TEXTS)
    run = analyze([*UNIT_TEXTS, unreadable], RULES, manager)

    def where(exc):
        loc = exc.loc
        return loc and (manager.path_of(loc.file), loc.line, loc.column)

    assert [(path, type(exc).__name__, exc.stage, where(exc)) for path, exc in run.errors] == [
        ("parse.c", "ParseError", "parse", ("parse.c", 3, 7)),
        ("sema.c", "SemaError", "sema", ("sema.c", 2, 32)),
        ("deep.c", "UnsupportedConstructError", "unsupported", ("deep.c", 2, 102)),
        ("include.c", "PreprocessError", "preprocess", ("include.c", 3, 2)),
        (unreadable, "PreprocessError", "preprocess", None),
    ]
    assert [unit.path for unit in run.units] == ["ok1.c", "ok2.c"]
    assert run.call_graph.nodes == {"ok_one", "ok_two"}
    alone, _ = make_manager({path: UNIT_TEXTS[path] for path in ("ok1.c", "ok2.c")})
    expected = analyze(["ok1.c", "ok2.c"], RULES, alone).findings
    assert {f.guideline for f in expected} == RULES
    assert render(run.findings) == render(expected)


class _CountingManager(SourceManager):
    def __init__(self) -> None:
        super().__init__()
        self.loads = 0

    def load(self, path):
        self.loads += 1
        return super().load(path)


@pytest.mark.parametrize("enabled", [{"R2.2", "R99.9"}, {"R2.2", "R21.3"}])
def test_unchecked_guideline_raises_before_any_load(enabled):
    manager = _CountingManager()
    manager.add_virtual("ok1.c", UNIT_TEXTS["ok1.c"])
    with pytest.raises(ConfigError):
        analyze(["ok1.c"], enabled, manager)
    assert manager.loads == 0


def test_an_exception_that_is_no_analysis_error_propagates(monkeypatch):
    def crash(tu):
        raise RuntimeError("resolver crashed")

    monkeypatch.setattr(pipeline, "resolve", crash)
    manager, _ = make_manager({"ok1.c": UNIT_TEXTS["ok1.c"]})
    with pytest.raises(RuntimeError, match="resolver crashed"):
        analyze(["ok1.c"], RULES, manager)


def main(argv: list[str]) -> int:
    """Compare both chains over every unit of every workload at each seed."""
    import argparse
    import json
    import tempfile

    ap = argparse.ArgumentParser(description=main.__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    ok = True
    for workload in sorted(WORKLOADS):
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                project = _write_project(workload, seed, workdir)
                with _cwd(workdir):
                    got = compare(project.tus, WORKLOADS[workload].rules)
            ok = ok and got["same_sha256"] and got["same_failures"] \
                and got["chain_equals_single_call"]
            print(json.dumps({"workload": workload, "seed": seed, **got}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
