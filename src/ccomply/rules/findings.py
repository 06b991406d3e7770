"""Findings: what a checker reports, and how certain it is.

A `DEFINITE` finding holds on every path and under every evaluation order;
anything weaker is `CAUTION`, and its evidence names the source of the
"don't know". Findings are never dropped or promoted after a checker makes
them.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ccomply.source import Span


class Certainty(Enum):
    DEFINITE = "definite"
    CAUTION = "caution"


class BehaviorClass(Enum):
    IMPLEMENTATION_DEFINED = "implementation-defined"
    UNDEFINED = "undefined"
    UNSPECIFIED = "unspecified"


@dataclass(frozen=True)
class Evidence:
    span: Span | None
    note: str


@dataclass
class Finding:
    guideline: str
    span: Span
    certainty: Certainty
    message: str
    behavior_class: BehaviorClass | None = None
    evidence: tuple[Evidence, ...] = ()
    path: str = ""  # reporting path, filled by run_rules from its manager

    def sort_key(self) -> tuple:
        loc = self.span.start
        return (self.path, loc.line, loc.column, self.guideline,
                self.certainty.value, self.message)
