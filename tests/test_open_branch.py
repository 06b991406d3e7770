"""Interval analysis finds dead edges only at open branches.

R2.1 skips the interval analysis of a function whose CFG has no open
branch (`Cfg.has_open_branch`: no reachable block ends in a branch whose
condition did not fold to a constant). That is sound only if such a
function's analysis never reports a dead edge. This checks it on the
snippets of the interval and checker tests and on the first TUs of every
generated workload.

Run as a script to check every function of whole workloads:

    PYTHONPATH=src:tests:perfbench python3 tests/test_open_branch.py --seeds 1 2
"""
from __future__ import annotations

import os
import sys

import pytest

from ccomply.flow import interval_analysis
from flow_helpers import analyze_fn
from rule_helpers import PRELUDE
from test_interval_oracle import SNIPPETS, WORKLOAD_TUS, workload_functions

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
from gen import WORKLOADS  # noqa: E402  (the generator imports nothing from ccomply)

CLOSED = [
    "void f(int x) { use(x + 1); }",
    "void f(void) { return; use(1); }",
    "void f(void) { if (0) { use(1); } use(2); }",
    "void f(void) { for (;;) { get(); } }",
    "void f(int x) { if (1) { return; } if (x) { use(x); } }",
    "void f(int x) { switch (x) { case 1: use(1); break; default: use(2); } }",
]


def violation(cfg) -> set:
    """The dead edges of a function with no open branch; empty for any other."""
    return set() if cfg.has_open_branch else interval_analysis(cfg).dead_edges


@pytest.mark.parametrize("text", SNIPPETS + [t for t in CLOSED if t not in SNIPPETS])
def test_snippet(text):
    cfg, _, _, _ = analyze_fn(text, prelude=PRELUDE)
    assert violation(cfg) == set()


@pytest.mark.parametrize("text", CLOSED)
def test_closed_snippets_have_no_open_branch(text):
    cfg, _, _, _ = analyze_fn(text, prelude=PRELUDE)
    assert not cfg.has_open_branch


def test_an_open_branch_after_a_return_is_not_reachable():
    cfg, _, _, _ = analyze_fn("void f(int x) { return; if (x) { use(x); } }", prelude=PRELUDE)
    assert not cfg.has_open_branch


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload(workload, tmp_path):
    functions = list(workload_functions(workload, 1, str(tmp_path), WORKLOAD_TUS))
    assert any(not cfg.has_open_branch for cfg, _ in functions)
    assert [fn.name for cfg, fn in functions if violation(cfg)] == []


def main(argv: list[str]) -> int:
    """Check every function of every workload at the given seeds."""
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
                functions = closed = violations = 0
                for cfg, _ in workload_functions(workload, seed, workdir):
                    functions += 1
                    closed += not cfg.has_open_branch
                    violations += bool(violation(cfg))
            report[f"{workload}:{seed}"] = {
                "functions": functions, "no_open_branch": closed, "violations": violations,
            }
    print(json.dumps(report))
    return 0 if all(r["violations"] == 0 for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
