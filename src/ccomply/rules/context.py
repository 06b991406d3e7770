"""Fact bundles handed to the rule checkers."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ccomply.flow import (
    Cfg, DefAssignResult, IntervalResult, LivenessResult, PointsToResult,
    build_cfg, definite_assignment, interval_analysis, liveness, local_points_to,
)
from ccomply.parsing.astnodes import FunctionDef, TranslationUnitAst
from ccomply.sema.symbols import SymbolTable
from ccomply.sema.typesys import IntegerModel
from ccomply.source import SourceManager


@dataclass
class FunctionFacts:
    """The data-flow facts of one function, each computed on first access.

    `cfg` lowers the function; `assign`, `intervals`, `live` and `points`
    run definite assignment, interval analysis, liveness and points-to over
    it; `addr_taken` is the CFG's address-taken locals. Nothing runs until a
    checker reads it, and each runs at most once per `run_rules` call. A run
    of AST-scope guidelines only builds the CFG and `addr_taken`, and only
    of the functions R13.2 asks about when it weighs a dereference against
    a variable.

    `run_rules` builds these next to the unit's `NodeIndex` and drops them
    when the unit's checkers return, so no CFG or analysis state outlives
    the call: callers keep every unit's `TUFacts` for the whole run.

    `assign` and `live` are gen/kill problems on bit vectors: a state is a
    Python int used as a bit set over the CFG's uids, numbered in order of
    first mention. Liveness gives uid n bit n. Definite assignment gives it
    two bits, 2n ("may not be assigned directly") and 2n+1 ("may be
    unassigned"): 00 is DefinitelyAssigned, 01 AssignedByAlias and 11
    MaybeUnassigned, so both joins are `|`.

    `intervals`, `points` and `live` keep one state per reached block;
    `env_at` and `is_live_after` replay the state at a program point when a
    checker asks for it. R2.2 asks liveness only after its stores. R12.2
    asks only at shifts whose right operand is not constant, and only in a
    function sema could not show every shift of in range
    (`FunctionDef.unproven_shifts`), and R1.3 only
    at stores through a pointer, so points-to runs only on functions that
    store through a pointer. R2.1 reads `intervals` only of a function whose
    CFG has an open branch (`Cfg.has_open_branch`): interval analysis finds
    dead edges nowhere else.

    R2.1 and R14.3 read only `dead_edges` and `outcomes`, which are final
    once the interval analysis pauses (see `IntervalResult`), so they do not
    run it to its fixpoint; R12.2 reads states through `env_at`, which does.
    """

    fn: FunctionDef
    model: IntegerModel

    @cached_property
    def cfg(self) -> Cfg:
        return build_cfg(self.fn, self.model)

    @cached_property
    def assign(self) -> DefAssignResult:
        return definite_assignment(self.cfg)

    @cached_property
    def intervals(self) -> IntervalResult:
        return interval_analysis(self.cfg, self.model)

    @cached_property
    def live(self) -> LivenessResult:
        return liveness(self.cfg)

    @cached_property
    def points(self) -> PointsToResult:
        return local_points_to(self.cfg)

    @property
    def addr_taken(self) -> frozenset[int]:
        return self.cfg.addr_taken


@dataclass
class TUFacts:
    """What a translation unit's checkers start from, kept for the whole run.

    It holds the resolved tree and its symbol table only. The per-function
    facts are built by each `run_rules` call (`function_facts`) and dropped
    when it returns, so keeping every unit's `TUFacts` keeps no CFG or
    analysis state alive.

    Units that start with the same header prefix share the prefix's nodes,
    symbols and types (see `parsing.prefix`): a checker reads a node of one
    unit that other units' trees hold too, and writes nothing into it. Which
    symbols the unit defines is its table's (`SymbolTable.defines`).
    """

    tu: TranslationUnitAst
    table: SymbolTable
    path: str
    manager: SourceManager | None = None

    @property
    def model(self) -> IntegerModel:
        return self.table.model


def compute_tu_facts(
    tu: TranslationUnitAst,
    table: SymbolTable,
    manager: SourceManager | None = None,
) -> TUFacts:
    """Bundle a resolved TU for `run_rules`; no fact is computed here.

    Each `run_rules` call computes the function facts its checkers read,
    under the integer model the TU was resolved under, and drops them when
    it returns.
    """
    return TUFacts(tu, table, tu.path, manager)


def function_facts(decls: list, model: IntegerModel) -> list[FunctionFacts]:
    """One `FunctionFacts`, none of it computed yet, per function `decls` defines."""
    return [FunctionFacts(d, model) for d in decls if isinstance(d, FunctionDef)]
