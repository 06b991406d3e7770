"""The call sites sema records (`FunctionDef.calls`) against a walk of the body.

The oracle (`flow_helpers._evaluated_calls`) walks each function body,
statements through `children` and expressions through `operands`, and
lists its calls in pre-order. Every definition's `calls` must hold the
same call nodes in the same order. The inputs are the parser corpus, the
data-flow and checker snippets, shapes aimed at `sizeof`, nested and
indirect calls, and the first units of each benchmark workload. The call
graph reads only the recorded lists: it makes no call to `children` or
`operands`.

Run as a script to compare every function of whole workloads:

    PYTHONPATH=src:tests:perfbench python3 tests/test_call_sites.py --seeds 1 2 3
"""
from __future__ import annotations

import sys

import pytest

from ccomply.errors import SemaError
from ccomply.flow import build_call_graph
from ccomply.parsing import FunctionDef, astnodes
from flow_helpers import _evaluated_calls, workload_units
from gen import WORKLOADS
from rule_helpers import PRELUDE
from test_checkers import EVALUATION_SHAPES
from test_dataflow_oracle import SNIPPETS as DATAFLOW_SNIPPETS
from test_parser import CORPUS_SAMPLES
from test_prefix import _shares, _units, _write, compare
from test_sema import analyze as _resolved

WORKLOAD_TUS = 10  # units of each workload the tier-1 comparison runs

SHAPES = [
    "int g(int);\nvoid f(int x) { use(sizeof(g(x))); }",
    "int g(int);\nvoid f(int x) { use(sizeof g(x)); }",
    "int g(int);\nint h(int);\nvoid f(int x) { use(h(g(x)) + g(h(x))); }",
    "int g(int);\nvoid f(int x) { use((&g)(1)); use(sizeof (&g)(x) + g(sizeof g(x))); }",
    "void f(int (*fp)(int)) { use((*fp)(1)); use(fp(get())); }",
    "int g(int);\nvoid f(int n) { int i; for (i = g(0); i < g(n); i += g(i)) { use(i); } }",
    "int g(int);\nvoid f(int n) { for (int i = g(n), j = get(); i < j; i++) { use(i); } }",
    "int g(int);\nvoid f(int n) { if (g(n) && get()) { use(1); } else if (get() ? g(1) : g(2)) "
    "{ use(2); } while (g(n--)) { } do { } while (g(n)); switch (g(n)) { case sizeof(g(1)): "
    "use(get()); break; default: return; } }",
    "int g(int);\nstruct P { int a; int b; };\n"
    "void f(int n) { int a[3] = { g(1), get(), g(g(n)) }; struct P p = { g(2), sizeof g(3) }; "
    "int b[2][2] = { { g(4), 0 }, { get(), g(5) } }; use(a[0] + p.a + b[1][1]); }",
    "int g(int);\nint f(int n) { static int k = sizeof(g(1)); int z = g(n); "
    "return n ? f(n - 1) : (g(n), get()) + k + z; }",
    "int g(int);\nvoid f(int *p) { p[g(0)] = g(1); *(p + g(2)) += get(); "
    "use((int)g(3) + (int)sizeof((char)g(4))); }",
]

# What some samples of the parser corpus use and do not declare.
CORPUS_PRELUDE = (
    "struct Q { struct Q *next; struct Q *prev; };\n"
    "extern int a, b;\nvoid f();\nvoid g();\nvoid use();\n"
)

TEXTS = [PRELUDE + t for t in DATAFLOW_SNIPPETS + SHAPES] + [
    PRELUDE + text for _, text, _ in EVALUATION_SHAPES]


def call_site_diffs(tu) -> list[str]:
    """Where a definition's recorded calls differ from the oracle's."""
    diffs = []
    for decl in tu.decls:
        if isinstance(decl, FunctionDef):
            want = _evaluated_calls(decl.body)
            got = decl.calls
            if len(got) != len(want) or any(a is not b for a, b in zip(got, want)):
                diffs.append(f"{tu.path}: {decl.name}: {len(got)} recorded, {len(want)} evaluated")
    return diffs


@pytest.mark.parametrize("idx", range(len(CORPUS_SAMPLES)))
def test_corpus_calls_match_the_oracle(idx):
    text = CORPUS_SAMPLES[idx]
    try:
        tu, _ = _resolved(text)
    except SemaError:
        tu, _ = _resolved(CORPUS_PRELUDE + text)
    assert call_site_diffs(tu) == []


@pytest.mark.parametrize("idx", range(len(TEXTS)))
def test_recorded_calls_match_the_oracle(idx):
    tu, _ = _resolved(TEXTS[idx])
    assert call_site_diffs(tu) == []


def test_shapes_record_what_they_evaluate():
    counts = []
    for text in SHAPES:
        tu, _ = _resolved(PRELUDE + text)
        counts.append(len(tu.decls[-1].calls))
    # Calls under `sizeof` are dropped; every other one is listed once.
    assert counts == [1, 1, 5, 4, 5, 4, 3, 12, 9, 4, 6]
    tu, _ = _resolved(PRELUDE + SHAPES[2])
    outer = tu.decls[-1].calls
    assert [c.callee.name for c in outer] == ["use", "h", "g", "g", "h"]


def test_a_function_without_calls_shares_the_empty_tuple():
    tu, _ = _resolved("int f(int x) { return x + sizeof(f(x)); }\n")
    assert tu.decls[-1].calls is tuple()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_units_match_the_oracle(workload, tmp_path):
    tus = list(workload_units(workload, 1, str(tmp_path), WORKLOAD_TUS))
    assert len(tus) == WORKLOAD_TUS
    assert sum(len(d.calls) for tu in tus for d in tu.decls if isinstance(d, FunctionDef)) > 0
    assert [d for tu in tus for d in call_site_diffs(tu)] == []


def test_static_function_in_a_shared_header_prefix(tmp_path):
    header = ("extern int get(void);\nextern void use(int v);\n"
              "static int helper(int x) { use(sizeof(get())); return get() + x; }\n")
    files = {f"u{i}.c": f"#include \"h.h\"\nint api{i}(int x) {{ return helper(x) + get(); }}\n"
             for i in range(4)}
    _write(str(tmp_path), {"h.h": header, **files})
    shared, diffs = compare(str(tmp_path), _units(files))
    assert diffs == []
    assert _shares(shared, 1, 3)
    helper = shared.tus[1].decls[2]
    assert helper.name == "helper" and helper is shared.tus[3].decls[2]
    assert [c.callee.name for c in helper.calls] == ["use", "get"]
    for tu in shared.tus:
        assert call_site_diffs(tu) == []
    graph = build_call_graph(list(zip(shared.tus, shared.tables)))
    assert {(f"u{i}.c::helper", "get") for i in range(4)} <= graph.direct_edges


def test_call_graph_walks_no_tree(monkeypatch):
    units = [_resolved(PRELUDE + text, f"s{i}.c") for i, text in enumerate(SHAPES)]
    walks = []
    real = {name: getattr(astnodes, name) for name in ("children", "operands")}
    for module in [m for name, m in sys.modules.items() if name.startswith("ccomply")]:
        for name, fn in real.items():
            if getattr(module, name, None) is fn:
                def counted(node, _fn=fn, _name=name):
                    walks.append(_name)
                    return _fn(node)
                monkeypatch.setattr(module, name, counted)
    graph = build_call_graph(units)
    assert walks == []
    assert graph.direct_edges and graph.indirect_call_sites


def main(argv: list[str]) -> int:
    """Compare every function of every workload at the given seeds."""
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
                functions = calls = 0
                diffs = []
                for tu in workload_units(workload, seed, workdir):
                    defs = [d for d in tu.decls if isinstance(d, FunctionDef)]
                    functions += len(defs)
                    calls += sum(len(d.calls) for d in defs)
                    diffs += call_site_diffs(tu)
            report[f"{workload}:{seed}"] = {"functions": functions, "calls": calls,
                                            "diffs": len(diffs)}
    print(json.dumps(report))
    return 0 if all(r["diffs"] == 0 for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
