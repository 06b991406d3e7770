"""System-scope checker: R17.2, no direct or indirect recursion."""
from __future__ import annotations

from ccomply.flow.callgraph import CallGraph, recursion_components
from ccomply.rules.findings import Certainty, Evidence, Finding


def check_recursion(graph: CallGraph) -> list[Finding]:
    out: list[Finding] = []
    for component in sorted(recursion_components(graph), key=lambda c: sorted(c)):
        members = sorted(component)
        display = [graph.display.get(m, m) for m in members]
        cycle_text = "recursion component: " + ", ".join(display)
        edges = sorted(
            (a, b) for a, b in graph.direct_edges
            if a in component and b in component
        )
        edge_text = "; ".join(
            f"{graph.display.get(a, a)} calls {graph.display.get(b, b)}" for a, b in edges
        )
        for member in members:
            definition = graph.definitions.get(member)
            if definition is None:
                continue
            name = graph.display.get(member, member)
            out.append(Finding(
                "R17.2", definition.span, Certainty.DEFINITE,
                f"'{name}' takes part in direct or indirect recursion",
                evidence=(
                    Evidence(None, cycle_text),
                    Evidence(None, edge_text),
                ),
            ))
    for caller, call in graph.indirect_call_sites:
        name = graph.display.get(caller, caller)
        out.append(Finding(
            "R17.2", call.span, Certainty.CAUTION,
            "call through a function pointer is potentially recursive",
            evidence=(
                Evidence(None,
                         f"inside '{name}'; the call graph cannot bound targets "
                         "of calls through pointers"),
            ),
        ))
    return out
