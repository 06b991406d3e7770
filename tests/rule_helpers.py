"""Run single rules over in-memory sources."""
from __future__ import annotations

from ccomply.pipeline import analyze
from support import make_manager

PRELUDE = (
    "extern void use(int);\n"
    "extern void useu(unsigned int);\n"
    "extern void usep(int *);\n"
    "extern void usecp(const int *);\n"
    "extern void usec(char);\n"
    "extern int get(void);\n"
)


def run_rule(text: str, rule: str, prelude: str = PRELUDE, path: str = "t.c"):
    findings, _ = run_rule_full(text, rule, prelude, path)
    return findings


def run_rule_full(text: str, rule: str, prelude: str = PRELUDE, path: str = "t.c"):
    """(findings, the unit's `TUFacts`); the unit's `AnalysisError` is raised."""
    mgr, _ = make_manager({path: prelude + text})
    run = analyze([path], {rule}, mgr)
    if run.errors:
        raise run.errors[0][1]
    return run.findings, run.units[0]


def lines_of(findings):
    return sorted(f.span.start.line for f in findings)


def kinds_of(findings):
    return [(f.span.start.line, f.certainty.value) for f in sorted(findings, key=lambda f: f.sort_key())]
