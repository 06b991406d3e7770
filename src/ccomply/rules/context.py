"""Fact bundles handed to the rule checkers."""
from __future__ import annotations

from dataclasses import dataclass, field
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
    checker reads it, and each runs at most once. A run of AST-scope
    guidelines only builds the CFG and `addr_taken`, and only of the
    functions R13.2 asks about when it weighs a dereference against a
    variable.

    `intervals` and `points` keep one state per reached block; `env_at`
    replays the state at a program point when a checker asks for it. R12.2
    asks only at shifts whose right operand is not constant and R1.3 only
    at stores through a pointer, so points-to runs only on functions that
    store through a pointer.
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
    tu: TranslationUnitAst
    table: SymbolTable
    path: str
    functions: list[FunctionFacts] = field(default_factory=list)
    manager: SourceManager | None = None

    @property
    def model(self) -> IntegerModel:
        return self.table.model


def compute_tu_facts(
    tu: TranslationUnitAst,
    table: SymbolTable,
    manager: SourceManager | None = None,
) -> TUFacts:
    """List the TU's functions; their facts are computed when first read.

    Every fact uses the integer model the TU was resolved under.
    """
    functions = [FunctionFacts(d, table.model) for d in tu.decls if isinstance(d, FunctionDef)]
    return TUFacts(tu, table, tu.path, functions, manager)
