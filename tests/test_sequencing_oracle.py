"""R13.2 and the interval analysis against the walks the sequencing relation
replaced (`sequencing_oracle`).

Both now read `effects.sequencing` over the events of `walk_effects`. On
every full expression of every function, R13.2's conflicts
(`checkers_ast._conflicts`) must equal those `_accesses` records, as the
(level, message, evidence start) R13.2 reports for each: the first
conflict of each level and message. The one conflict the access walk never
found, two volatile reads one of which feeds the other's address, is left
out of the comparison; `test_checkers.TestEvaluationOrder` checks it. On
every function, the interval analysis must give the same `in_states`,
`dead_edges` and `outcomes` as with `_unordered_reads` deciding which reads
a call may precede.

The inputs are `EVALUATION_SHAPES`, the snippets of
`test_checkers.TestEvaluationOrder`, the checker and data-flow snippets and
the mask shapes of `test_kinds`, shapes where R13.2 departs from the
relation, the parser corpus, and the first units of each benchmark
workload. One shape is left out on purpose: the read of a volatile member
of a non-volatile named object (`s.m + v`), which the access walk never
counted as a volatile read.

Run as a script to compare every unit of whole workloads:

    PYTHONPATH=src:tests:perfbench python3 tests/test_sequencing_oracle.py --seeds 1 2 3
"""
from __future__ import annotations

import sys
from contextlib import contextmanager
from functools import partial

import pytest

import sequencing_oracle
from ccomply.errors import FlowError, SemaError
from ccomply.flow import build_cfg, interval_analysis
from ccomply.flow.intervals import _AbstractEval
from ccomply.parsing import FunctionDef, NodeIndex
from ccomply.rules.checkers_ast import _conflicts, _full_expressions, _is_escaped
from ccomply.rules.context import FunctionFacts
from flow_helpers import workload_tables
from gen import WORKLOADS
from rule_helpers import PRELUDE
from test_call_sites import CORPUS_PRELUDE
from test_checkers import TestEvaluationOrder
from test_kinds import TEXTS
from test_parser import CORPUS_SAMPLES
from test_sema import analyze

WORKLOAD_TUS = 10  # units of each workload the tier-1 comparison runs

# The conflict only the relation finds.
NEW_ONLY = "two volatile reads between adjacent sequence points"


def _order_snippets() -> list[str]:
    """The snippets of `TestEvaluationOrder`, as its tests build them."""
    cls = TestEvaluationOrder
    texts = [
        "void f(int i) { i = i++ + 1; use(i); }",
        "extern int g1(void);\nextern int g2(void);\n"
        "extern void take(int, int);\nvoid f(void) { take(g1(), g2()); }",
        "void f(int *p, int *q) { *p = *q + 1; }",
        "void f(int i) { i = i + 1; use(i); }",
        "void f(int i) { use((i = 1) + i); }",
        "void f(int i) { use((i = 1) && i); }",
        "void f(int *p, int x) { use((*p = 1) + x); }",
        "void f(int i) { int a[4][4]; a[i][i++] = 0; use(a[0][0]); }",
        "void f(int i, int k) { use(i + (k + (i + i++))); }",
    ]

    def rows(test):
        return test.pytestmark[0].args[1]

    texts += rows(cls.test_store_and_its_own_address_clean)
    texts += rows(cls.test_element_stores_against_other_reads_are_caution)
    texts += [cls.VOLATILES + f"void f(void) {{ {stmt} }}"
              for stmt in rows(cls.test_one_volatile_read_and_one_modification_clean)]
    texts += [cls.VOLATILES + f"void f({param}) {{ {stmt} }}"
              for stmt, param, *_ in rows(cls.test_two_volatile_reads_or_modifications_definite)
              + rows(cls.test_one_volatile_read_between_sequence_points_clean)]
    texts += [cls.VOLATILES + f"void f(int *p) {{ {stmt} }}"
              for stmt in rows(cls.test_volatile_read_beside_a_plain_dereference_clean)]
    return [PRELUDE + t for t in texts]


# Where R13.2's pair policy departs from the relation (`_conflicts`): the
# store of `=` against a write a call or a `,` sequences before it, `++`
# against a write in its own address, and a call against a read.
DEPARTURES = [
    "int i;\nvoid f(void) { int a[4]; a[i++] = 0; use(a[0]); }",
    "int i;\nvoid f(void) { int a[4]; a[i++]++; use(a[0]); }",
    "void f(void) { int a[2] = { 0, 0 }; a[a[0]++]++; use(a[1]); }",
    "int g(int);\nvoid f(int x) { x = g(x++); use(x); }",
    "void f(int x) { x = (x++, 0); use(x); }",
    "int set(int *);\nvoid f(void) { int x = 0; use(x + set(&x)); }",
    "int n;\nint bump(void);\nvoid f(void) { use(n + bump()); }",
]

SNIPPETS = TEXTS + _order_snippets() + [PRELUDE + t for t in DEPARTURES]


def _reported(conflicts) -> list[tuple[str, str, int]]:
    """(level, message, evidence start) of the first conflict of each level and message."""
    first: dict[tuple[str, str], int] = {}
    for level, node, message in conflicts:
        if message != NEW_ONLY:
            first.setdefault((level, message), node.start)
    return sorted((level, message, start) for (level, message), start in first.items())


def order_diffs(tu, table) -> tuple[int, int, list[str]]:
    """(full expressions, conflicts R13.2 reports, differences from the oracle)."""
    total, reported, diffs = 0, 0, []
    index = NodeIndex(tu.decls)
    for fn in tu.decls:
        if not isinstance(fn, FunctionDef):
            continue
        escaped = partial(_is_escaped, fn=FunctionFacts(fn, table.model), symbols=table.symbols)
        for full in _full_expressions(index.subtree(fn.body)):
            total += 1
            new = _reported((level, frame.node, message)
                            for level, frame, message in _conflicts(full, escaped))
            old = _reported(sequencing_oracle.conflicts(full, escaped))
            reported += len(new)
            if new != old:
                diffs.append(f"{tu.path}: {fn.name}: {full.start}: {new} != {old}")
    return total, reported, diffs


@contextmanager
def _oracle_reads(seen: set | None = None):
    """Let `_unordered_reads` decide the interval analysis's unordered reads,
    and add each read it gives to `seen`."""
    new = _AbstractEval._full_expression

    def full_expression(self, e):
        sequencing_oracle.full_expression(self, e)
        if seen is not None:
            seen.update(self._unordered)

    _AbstractEval._full_expression = full_expression
    try:
        yield
    finally:
        _AbstractEval._full_expression = new


def _intervals(fn, model):
    try:
        result = interval_analysis(build_cfg(fn, model), model)
        return result.in_states, result.dead_edges, result.outcomes
    except FlowError as exc:
        return str(exc)


def interval_diffs(tu, table) -> tuple[int, int, list[str]]:
    """(functions, reads the oracle calls unordered, functions whose interval
    results differ from the oracle's)."""
    functions, unordered, diffs = 0, set(), []
    for fn in tu.decls:
        if not isinstance(fn, FunctionDef):
            continue
        functions += 1
        new = _intervals(fn, table.model)
        with _oracle_reads(unordered):
            old = _intervals(fn, table.model)
        if new != old:
            diffs.append(f"{tu.path}: {fn.name}: interval results differ")
    return functions, len(unordered), diffs


def all_diffs(tu, table) -> list[str]:
    return order_diffs(tu, table)[2] + interval_diffs(tu, table)[2]


def _corpus(text: str):
    try:
        return analyze(text)
    except SemaError:
        return analyze(CORPUS_PRELUDE + text)


@pytest.mark.parametrize("idx", range(len(SNIPPETS)))
def test_snippets_match_the_oracle(idx):
    assert all_diffs(*analyze(SNIPPETS[idx])) == []


@pytest.mark.parametrize("idx", range(len(CORPUS_SAMPLES)))
def test_corpus_matches_the_oracle(idx):
    assert all_diffs(*_corpus(CORPUS_SAMPLES[idx])) == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_units_match_the_oracle(workload, tmp_path):
    units = list(workload_tables(workload, 1, str(tmp_path), WORKLOAD_TUS))
    assert len(units) == WORKLOAD_TUS
    assert [d for tu, table in units for d in all_diffs(tu, table)] == []


def test_the_comparison_sees_conflicts_and_unordered_reads():
    # Both oracles have something to disagree with on these inputs.
    units = [analyze(text) for text in SNIPPETS]
    assert sum(order_diffs(tu, table)[1] for tu, table in units) > 20
    assert sum(interval_diffs(tu, table)[1] for tu, table in units) > 0


def main(argv: list[str]) -> int:
    """Compare every unit of every workload at the given seeds."""
    import argparse
    import json
    import tempfile

    ap = argparse.ArgumentParser(description=main.__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    report = {}
    for workload in sorted(WORKLOADS):
        for seed in args.seeds:
            row = dict.fromkeys(("units", "full_expressions", "reported", "functions",
                                 "unordered_reads", "diffs"), 0)
            first: list[str] = []
            with tempfile.TemporaryDirectory() as workdir:
                for tu, table in workload_tables(workload, seed, workdir):
                    total, reported, order = order_diffs(tu, table)
                    functions, unordered, intervals = interval_diffs(tu, table)
                    row["units"] += 1
                    row["full_expressions"] += total
                    row["reported"] += reported
                    row["functions"] += functions
                    row["unordered_reads"] += unordered
                    row["diffs"] += len(order) + len(intervals)
                    first += (order + intervals)[:3 - len(first)]
            report[f"{workload}:{seed}"] = dict(row, first=first)
    print(json.dumps(report))
    return 0 if all(r["diffs"] == 0 for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
