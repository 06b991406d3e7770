"""Guideline registry, findings, policies, and the rule checkers."""
from ccomply.rules.context import FunctionFacts, TUFacts, compute_tu_facts
from ccomply.rules.engine import run_rules, validate_enabled
from ccomply.rules.findings import (
    BehaviorClass, Certainty, DontKnowPolicy, Evidence, Finding, PolicyMode,
    apply_dont_know_policy,
)
from ccomply.rules.registry import (
    IMPLEMENTED, REGISTRY, Category, Decidability, GuidelineMeta, Kind, Scope,
    all_ids,
)

__all__ = [
    "FunctionFacts", "TUFacts", "compute_tu_facts",
    "run_rules", "validate_enabled",
    "BehaviorClass", "Certainty", "DontKnowPolicy", "Evidence", "Finding",
    "PolicyMode", "apply_dont_know_policy",
    "IMPLEMENTED", "REGISTRY", "Category", "Decidability", "GuidelineMeta",
    "Kind", "Scope", "all_ids",
]
