"""The analyser's one stage chain: C files in, sorted findings out.

Each translation unit runs `preprocess` -> `parse` -> `resolve` ->
`compute_tu_facts` -> `run_rules` with the enabled per-unit guidelines.
Then the call graph is built over the units that succeeded, and the
enabled system guidelines run on it. Every unit is preprocessed with the
builtin macros (`BUILTIN_MACRO_SPECS`), no include paths, and resolved
under `DEFAULT_MODEL`.
"""
from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

from ccomply.builtins import BUILTIN_MACRO_SPECS
from ccomply.errors import AnalysisError, PreprocessError
from ccomply.flow import CallGraph, build_call_graph
from ccomply.frontend import macro_from_define_flag, preprocess
from ccomply.parsing import parse
from ccomply.rules import Finding, TUFacts, compute_tu_facts, run_rules
from ccomply.rules.engine import PER_TU_CHECKERS, reject_unchecked
from ccomply.sema import resolve
from ccomply.source import SourceManager

__all__ = ["Run", "analyze"]


class Run(NamedTuple):
    """What one `analyze` call found.

    `findings` are sorted. `errors` holds one `(path, AnalysisError)` per
    unit that failed, in input order; `units` the `TUFacts` of the units
    that succeeded, in input order; `call_graph` is built over those units.
    """

    findings: list[Finding]
    errors: list[tuple[str, AnalysisError]]
    units: list[TUFacts]
    call_graph: CallGraph


def analyze(paths: Iterable[str], enabled: Iterable[str],
            manager: SourceManager | None = None) -> Run:
    """Check the guidelines `enabled` over the translation units `paths`.

    `manager` is where files come from: a fresh `SourceManager` if None,
    else one the caller made, say with in-memory files (`add_virtual`).
    An id in `enabled` that has no checker raises `ConfigError` before any
    file is loaded. A unit that raises an `AnalysisError` is listed in
    `Run.errors` and left out of the rest of the run; any other exception
    propagates.
    """
    enabled = set(enabled)
    reject_unchecked(enabled)
    per_unit = enabled & PER_TU_CHECKERS.keys()
    manager = SourceManager() if manager is None else manager
    builtins = [macro_from_define_flag(spec, manager) for spec in BUILTIN_MACRO_SPECS]
    findings: list[Finding] = []
    errors: list[tuple[str, AnalysisError]] = []
    units: list[TUFacts] = []
    for path in paths:
        try:
            try:
                entry = manager.load(path)
            except OSError as exc:
                raise PreprocessError(f"cannot read {path}: {exc.strerror or exc}") from exc
            tokens, _, _ = preprocess(entry, [], builtins, manager)
            tu = parse(tokens, path)
            unit = compute_tu_facts(tu, resolve(tu), manager)
            findings += run_rules([unit], per_unit, manager=manager)
        except AnalysisError as exc:
            errors.append((path, exc))
            continue
        units.append(unit)
    graph = build_call_graph([(unit.tu, unit.table) for unit in units])
    findings += run_rules([], enabled - per_unit, call_graph=graph, manager=manager)
    findings.sort(key=Finding.sort_key)
    return Run(findings, errors, units, graph)
