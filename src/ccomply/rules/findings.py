"""Findings and the don't-know reporting policy."""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from ccomply.errors import ConfigError
from ccomply.rules.registry import REGISTRY
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
    path: str = ""  # reporting path, filled by the driver

    def sort_key(self) -> tuple:
        loc = self.span.start
        return (self.path, loc.line, loc.column, self.guideline,
                self.certainty.value, self.message)


class PolicyMode(Enum):
    SUPPRESS = "suppress"
    AS_VIOLATION = "as-violation"
    MIXED = "mixed"
    CAUTION = "caution"


@dataclass(frozen=True)
class DontKnowPolicy:
    mode: PolicyMode
    per_guideline: dict[str, PolicyMode] = field(default_factory=dict)

    def validate(self, enabled: set[str]) -> None:
        if self.mode is not PolicyMode.MIXED:
            return
        undecidable = {
            gid for gid in enabled
            if (meta := REGISTRY.get(gid)) is not None
            and meta.decidability is not None
            and meta.decidability.value == "undecidable"
        }
        missing = sorted(undecidable - set(self.per_guideline))
        if missing:
            raise ConfigError(
                "mixed policy requires a per-guideline entry for every enabled "
                f"undecidable guideline; missing: {', '.join(missing)}"
            )
        bad = sorted(
            gid for gid, mode in self.per_guideline.items()
            if mode not in (PolicyMode.SUPPRESS, PolicyMode.AS_VIOLATION)
        )
        if bad:
            raise ConfigError(
                f"mixed policy entries must map to suppress or as-violation: {', '.join(bad)}"
            )


def apply_dont_know_policy(findings: list[Finding], policy: DontKnowPolicy) -> list[Finding]:
    """Resolve caution findings according to the configured policy."""
    if policy.mode is PolicyMode.CAUTION:
        return list(findings)
    out: list[Finding] = []
    for f in findings:
        if f.certainty is Certainty.DEFINITE:
            out.append(f)
            continue
        if policy.mode is PolicyMode.SUPPRESS:
            continue
        if policy.mode is PolicyMode.AS_VIOLATION:
            out.append(replace_certainty(f, Certainty.DEFINITE))
            continue
        # mixed: per-guideline suppress / as-violation
        sub = policy.per_guideline.get(f.guideline, PolicyMode.SUPPRESS)
        if sub is PolicyMode.AS_VIOLATION:
            out.append(replace_certainty(f, Certainty.DEFINITE))
    return out


def replace_certainty(f: Finding, certainty: Certainty) -> Finding:
    return replace(f, certainty=certainty)
