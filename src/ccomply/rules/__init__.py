"""Guideline registry, findings, and the rule checkers."""
from ccomply.rules.context import FunctionFacts, TUFacts, compute_tu_facts
from ccomply.rules.engine import IMPLEMENTED, run_rules
from ccomply.rules.findings import BehaviorClass, Certainty, Evidence, Finding
from ccomply.rules.registry import (
    REGISTRY, Category, Decidability, GuidelineMeta, Kind, Scope,
)

__all__ = [
    "FunctionFacts", "TUFacts", "compute_tu_facts",
    "IMPLEMENTED", "run_rules",
    "BehaviorClass", "Certainty", "Evidence", "Finding",
    "REGISTRY", "Category", "Decidability", "GuidelineMeta", "Kind", "Scope",
]
