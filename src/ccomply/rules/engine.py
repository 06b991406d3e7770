"""Checker dispatch: run enabled guidelines over computed facts."""
from __future__ import annotations

from operator import is_

from ccomply.errors import ConfigError
from ccomply.flow.callgraph import CallGraph
from ccomply.parsing.astnodes import NodeIndex
from ccomply.parsing.prefix import Prefix
from ccomply.rules import checkers_ast, checkers_flow, checkers_system
from ccomply.rules.context import TUFacts, function_facts
from ccomply.rules.findings import Evidence, Finding
from ccomply.rules.registry import REGISTRY
from ccomply.source import SourceManager, Span, format_location, pack, unpack

# Guideline id -> per-TU checker, called as checker(facts, index, functions)
# with a NodeIndex of a run of the TU's declarations (`index.decls`) and the
# `FunctionFacts` of the functions among them.
PER_TU_CHECKERS = {
    "R1.3": checkers_flow.check_literal_write,
    "R2.1": checkers_flow.check_unreachable,
    "R2.2": checkers_flow.check_dead_code,
    "R8.13": checkers_ast.check_const_pointer,
    "R9.1": checkers_flow.check_uninitialized_read,
    "R11.4": checkers_ast.check_int_pointer_conversion,
    "R12.2": checkers_flow.check_shift_range,
    "R13.1": checkers_ast.check_initializer_side_effects,
    "R13.2": checkers_ast.check_evaluation_order,
    "R13.5": checkers_ast.check_logical_operand_side_effects,
    "R14.1": checkers_ast.check_float_loop_counter,
    "R14.2": checkers_ast.check_for_loop_shape,
    "R14.3": checkers_flow.check_invariant_condition,
}

SYSTEM_CHECKERS = {
    "R17.2": checkers_system.check_recursion,
}


# The guidelines this tool checks: exactly the keys of the two tables above.
IMPLEMENTED = frozenset(PER_TU_CHECKERS | SYSTEM_CHECKERS)


def _reject_unchecked(enabled: set[str]) -> None:
    """Raise ConfigError naming every enabled id that has no checker.

    An id without a checker is either a MISRA guideline this tool does not
    check or no guideline id at all; silently skipping it would report a
    clean run for guidelines that were never checked.
    """
    unchecked = sorted(set(enabled) - IMPLEMENTED)
    if not unchecked:
        return
    guidelines = [g for g in unchecked if g in REGISTRY]
    unknown = [g for g in unchecked if g not in REGISTRY]
    parts = []
    if guidelines:
        parts.append("MISRA guideline(s) this tool does not check: " + ", ".join(guidelines))
    if unknown:
        parts.append("not a MISRA C:2012 guideline id: " + ", ".join(unknown))
    raise ConfigError("; ".join(parts))


def run_rules(
    units: list[TUFacts],
    enabled: set[str],
    call_graph: CallGraph | None = None,
    manager: SourceManager | None = None,
) -> list[Finding]:
    """Run every enabled checker; returns findings in deterministic order.

    Every id in `enabled` must have a checker (ConfigError otherwise), and
    system-scope checkers need `call_graph`. Each unit's NodeIndex and its
    functions' `FunctionFacts` are built once and shared by its checkers,
    so each fact is computed at most once per call and only if a checker
    reads it. Both are dropped as soon as the unit's checkers return:
    callers keep every unit's `TUFacts` alive, and a CFG or analysis state
    kept with them would only grow the heap that every collection walks.

    A unit that starts with a shared header prefix (`_reused_prefix`) is
    checked only past it: the findings of the prefix's declarations are
    computed once per run, integer model and guideline, and kept on the
    prefix (see `parsing.prefix`); the unit gets fresh copies of them.
    """
    _reject_unchecked(enabled)
    findings: list[Finding] = []
    gids = [gid for gid in sorted(enabled) if gid in PER_TU_CHECKERS]
    if gids:
        for unit in units:
            decls = unit.tu.decls
            prefix = _reused_prefix(unit)
            if prefix is not None:
                kept = _prefix_findings(prefix, unit, gids)
                decls = decls[len(prefix.decls):]
            index = NodeIndex(decls)
            functions = function_facts(decls, unit.model)
            for gid in gids:
                if prefix is not None:
                    findings.extend(map(_unpacked, kept[gid]))
                findings.extend(PER_TU_CHECKERS[gid](unit, index, functions))
    system_enabled = sorted(set(enabled) & set(SYSTEM_CHECKERS))
    if system_enabled:
        if call_graph is None:
            raise ConfigError(
                "system-scope rules need the whole-program call graph: "
                + ", ".join(system_enabled)
            )
        for gid in system_enabled:
            findings.extend(SYSTEM_CHECKERS[gid](call_graph))
    if manager is not None:
        _fill_paths_and_expansions(findings, manager)
    findings.sort(key=lambda f: f.sort_key())
    return findings


def _reused_prefix(unit: TUFacts) -> Prefix | None:
    """The longest header prefix whose resolved declarations under the
    unit's model the unit starts with, object for object, else None."""
    tu = unit.tu
    for prefix in (*reversed(tu.kept), tu.started_from):
        resolved = prefix is not None and prefix.resolved.get(unit.model)
        if resolved:
            decls = resolved[0]
            if len(decls) <= len(tu.decls) and all(map(is_, decls, tu.decls)):
                return prefix
    return None


def _prefix_findings(prefix: Prefix, unit: TUFacts, gids: list[str]) -> dict[str, tuple]:
    """Guideline -> the packed findings of `prefix`'s declarations under the
    unit's model; those of `gids` not kept yet are computed from the unit's
    leading declarations, over an index and function facts of theirs alone."""
    kept = prefix.findings.setdefault(unit.model, {})
    missing = [gid for gid in gids if gid not in kept]
    if missing:
        decls = unit.tu.decls[:len(prefix.decls)]
        index = NodeIndex(decls)
        functions = function_facts(decls, unit.model)
        for gid in missing:
            kept[gid] = tuple(map(_packed, PER_TU_CHECKERS[gid](unit, index, functions)))
    return kept


def _packed(f: Finding) -> tuple:
    """`f` as plain values, its positions packed (see `ccomply.source`)."""
    return (f.guideline, _packed_span(f.span), f.certainty, f.message, f.behavior_class,
            tuple((_packed_span(e.span), e.note) for e in f.evidence))


def _unpacked(row: tuple) -> Finding:
    """A new `Finding` from a `_packed` one."""
    guideline, span, certainty, message, behavior, evidence = row
    return Finding(guideline, _span(span), certainty, message, behavior,
                   tuple(Evidence(_span(s), note) for s, note in evidence))


def _packed_span(span: Span | None) -> tuple | None:
    return None if span is None else (pack(*span.start), pack(*span.end), span.via)


def _span(packed: tuple | None) -> Span | None:
    return None if packed is None else Span(unpack(packed[0]), unpack(packed[1]), packed[2])


def _fill_paths_and_expansions(findings: list[Finding], manager: SourceManager) -> None:
    for f in findings:
        if not f.path and manager.has(f.span.start.file):
            f.path = manager.path_of(f.span.start.file)
        if f.span.via:
            notes = tuple(
                Evidence(None, f"in expansion of {frame.macro} at "
                               f"{format_location(manager, frame.site)}")
                for frame in f.span.via
            )
            f.evidence = f.evidence + notes
