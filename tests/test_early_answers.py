"""The interval analysis's early answers against its fixpoint's.

`interval_analysis` pauses once every reachable branch block has been
visited and every open one has had both edges live: from there on no
edge is dead and every statement outcome is final, so R2.1 and R14.3 read
`dead_edges` and `outcomes` of a paused run. Reading `in_states`,
`term_env` or `env_at` resumes it to its fixpoint and leaves both as the
pause decided them. Here a fresh result's `dead_edges` and `outcomes` are
read first, before anything forces the fixpoint, and compared with those
of an analysis that never pauses and with the original evaluator's
(`interval_oracle`).
The inputs are the oracle's snippets, shapes aimed at the pause, and the
first TUs of every workload at three seeds.

Run as a script to compare every function of whole workloads:

    PYTHONPATH=src:tests:perfbench python3 tests/test_early_answers.py --seeds 1 2 3
"""
from __future__ import annotations

import sys
from unittest import mock

import pytest

import interval_oracle
from ccomply.errors import FlowError
from ccomply.flow import interval_analysis, intervals
from ccomply.flow.cfg import TBranch
from ccomply.flow.solver import Solver
from ccomply.rules import compute_tu_facts, context, run_rules
from flow_helpers import analyze_fn, workload_tables
from gen import WORKLOADS
from rule_helpers import PRELUDE
from test_interval_oracle import SNIPPETS, WORKLOAD_TUS, workload_functions

# Shapes aimed at the pause, each with whether the analysis may pause
# before its fixpoint.
SHAPES = {
    # A dead edge: the run goes on to the fixpoint.
    "dead_edge": ("void f(void) { int x = 1; if (x == 2) { use(1); } use(x); }", False),
    # A branch block no state reaches, behind a switch case the scrutinee
    # excludes; no branch edge is dead, yet the run goes on.
    "unreached_branch": (
        "void f(void) { int x = 1; switch (x) { case 2: if (get()) { use(1); } break; "
        "default: use(2); } }", False),
    # The loop's exit edge becomes live only once widening takes `i` past 100.
    "exit_after_widening": (
        "void f(void) { int i; for (i = 0; i != 100; i++) { use(i); } use(i); }", True),
    # An `&&` condition spans two branch blocks; both have two live edges.
    "and_condition": (
        "void f(int a, int b) { while (a > 0 && b > 0) { a--; } use(a); }", True),
    # An `&&` condition whose second test is refuted: an edge stays dead.
    "and_condition_refuted": (
        "void f(int a) { if (a > 0 && a < 0) { use(a); } use(1); }", False),
    # A condition that stores is read before its store.
    "storing_condition": (
        "void f(int n) { int x = 0; while (x++ == 0 || n > 3) { n = get(); } use(x); }",
        True),
    # A constant `if (0)`: its branch has one edge, and it is final at once.
    "constant_if": ("void f(int a) { if (0) { use(1); } if (a) { use(2); } use(3); }", True),
}


class _Unpaused(Solver):
    """A solver that ignores every pause: it decides at the fixpoint."""

    __slots__ = ()

    def run(self, until=None) -> bool:
        return super().run()


def early_diffs(cfg, fn) -> list[str]:
    """Where a fresh result's `dead_edges` and `outcomes`, read before its
    fixpoint is forced, differ from those of an analysis that never pauses
    or from the oracle's."""
    try:
        res = interval_analysis(cfg)
        early = (res.dead_edges, res.outcomes)
        res.in_states  # noqa: B018  (the read resumes the solver to its fixpoint)
        with mock.patch.object(intervals, "Solver", _Unpaused):
            unpaused = interval_analysis(cfg)
        final = (unpaused.dead_edges, unpaused.outcomes)
    except Exception as exc:  # the same failure on both sides is agreement
        res = f"{type(exc).__name__}: {exc}"
    try:
        old = interval_oracle.interval_analysis(cfg)
    except Exception as exc:
        old = f"{type(exc).__name__}: {exc}"
    if isinstance(res, str) or isinstance(old, str):
        return [] if res == old else [f"{fn.name}: {res} != {old}"]
    diffs = []
    for what, got in (("fixpoint", final), ("oracle", (old.dead_edges, old.outcomes))):
        if early != got:
            diffs.append(f"{fn.name}: early {early!r} != {what} {got!r}")
    return diffs


def paused(cfg) -> bool:
    """Whether a fresh analysis of `cfg` stops before its fixpoint."""
    res = interval_analysis(cfg)
    early = res.iterations
    res.in_states  # noqa: B018
    return res.iterations > early


def two_way(cfg, res) -> bool:
    """Whether every reachable branch block is reached at `res`'s fixpoint
    and no edge of an open one is dead: the analysis may pause early."""
    return not res.dead_edges and all(
        b.id in res.in_states for b in cfg.blocks
        if b.reachable and isinstance(b.term, TBranch))


@pytest.mark.parametrize("text", SNIPPETS + [text for text, _ in SHAPES.values()])
def test_snippet_early_answers_are_final(text):
    cfg, fn, _, _ = analyze_fn(text, prelude=PRELUDE)
    assert early_diffs(cfg, fn) == []


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_shape_pauses_only_when_its_answers_are_final(name):
    text, pauses = SHAPES[name]
    cfg, _, _, _ = analyze_fn(text, prelude=PRELUDE)
    assert paused(cfg) == pauses
    res = interval_analysis(cfg)
    res.in_states  # noqa: B018
    assert two_way(cfg, res) == pauses


def test_widening_makes_the_exit_edge_live_before_the_pause():
    cfg, _, _, _ = analyze_fn(SHAPES["exit_after_widening"][0], prelude=PRELUDE)
    res = interval_analysis(cfg)
    assert res.widenings > 0 and res.dead_edges == set()


def test_budget_error_after_the_pause_surfaces_at_state_reads(monkeypatch):
    """A function whose answers are final before its fixpoint would run out
    of budget gives R2.1 and R14.3 their answers; reading its states, as
    R12.2 does, raises the budget `FlowError`."""
    text = ("void g(void) { int x = 1; if (x == 2) { use(1); } use(x); }\n"
            "void f(int n) { int i; int s = 0; for (i = 0; i != 100; i++) "
            "{ if (s < 100) { s += i; } use(1u << (s & 7)); } if (n > 0) { use(i); } }")
    cfg, fn, table, tu = analyze_fn(text, prelude=PRELUDE)
    assert fn.unproven_shifts
    res = interval_analysis(cfg)
    at_pause = res.iterations
    res.in_states  # noqa: B018
    assert at_pause < res.iterations and res.dead_edges == set()
    outcomes = res.outcomes
    unit = compute_tu_facts(tu, table)
    findings = {gids: run_rules([unit], set(gids))
                for gids in (("R2.1",), ("R14.3",), ("R2.1", "R14.3"))}
    assert findings[("R2.1",)] and findings[("R14.3",)]  # from g's dead edge

    class Budgeted(Solver):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **{**kwargs, "budget": at_pause})

    monkeypatch.setattr(intervals, "Solver", Budgeted)
    res = interval_analysis(cfg)
    assert (res.iterations, res.dead_edges, res.outcomes) == (at_pause, set(), outcomes)
    for read in (lambda: res.env_at(cfg.entry, 0), lambda: res.term_env,
                 lambda: res.in_states):
        with pytest.raises(FlowError, match=f"within {at_pause} block visits in function 'f'"):
            read()
        assert res.iterations == at_pause
    # Under the same budget R2.1 and R14.3 report what they did, while
    # R12.2, which reads `f`'s states, fails the unit.
    for gids, found in findings.items():
        assert run_rules([unit], set(gids)) == found
    with pytest.raises(FlowError, match="in function 'f'"):
        run_rules([unit], {"R12.2"})


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_early_answers_are_final(workload, seed, tmp_path):
    functions = list(workload_functions(workload, seed, str(tmp_path), WORKLOAD_TUS))
    assert functions
    assert [d for cfg, fn in functions for d in early_diffs(cfg, fn)] == []


def test_r2_1_and_r14_3_leave_two_way_functions_paused(tmp_path, monkeypatch):
    """Only a rule that reads states, such as R12.2, runs a function whose
    branches all go both ways to its fixpoint; R2.1 and R14.3 do not."""
    results = []

    def recording(cfg, model):
        res = interval_analysis(cfg, model)
        results.append((cfg, res))
        return res

    monkeypatch.setattr(context, "interval_analysis", recording)
    for tu, table in workload_tables("project_all_rules", 1, str(tmp_path), WORKLOAD_TUS):
        run_rules([compute_tu_facts(tu, table)], {"R2.1", "R14.3"})
    # The visits each analysis made for the two rules, read before
    # `two_way` forces the fixpoint.
    visits = [(cfg, res, res.iterations) for cfg, res in results]
    grew = [res.iterations > seen for cfg, res, seen in visits if two_way(cfg, res)]
    assert grew and all(grew)


def main(argv: list[str]) -> int:
    """Compare early and fixpoint answers on every function of every workload."""
    import argparse
    import json
    import tempfile

    ap = argparse.ArgumentParser(description=main.__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    report = {}
    for workload in sorted(WORKLOADS):
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                functions = diffs = pauses = 0
                for cfg, fn in workload_functions(workload, seed, workdir):
                    functions += 1
                    diffs += len(early_diffs(cfg, fn))
                    pauses += paused(cfg)
            report[f"{workload}:{seed}"] = {"functions": functions, "diffs": diffs,
                                            "paused": pauses}
    print(json.dumps(report))
    return 0 if all(r["diffs"] == 0 for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
