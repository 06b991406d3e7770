"""Cross-TU call graph and recursion detection.

Function identities are canonical ids from linkage unification, so a
call to an external-linkage function in another translation unit lands
on one shared node. Calls through pointer expressions are collected as
indirect call sites rather than edges. A call under `sizeof` is never
evaluated, so it is neither.

The graph walks no function body: it reads the call sites the resolver
recorded in each definition's `calls` as it typed them. So it costs one
step per call, and it is the same whichever per-unit guidelines ran and
whether or not their node index is still alive.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ccomply.parsing.astnodes import AddrOf, Call, FunctionDef, Identifier, TranslationUnitAst
from ccomply.sema.symbols import SymKind, Symbol, SymbolTable


@dataclass
class CallGraph:
    nodes: set[str] = field(default_factory=set)
    direct_edges: set[tuple[str, str]] = field(default_factory=set)
    # (caller, the call) for every call through a pointer expression.
    indirect_call_sites: list[tuple[str, Call]] = field(default_factory=list)
    # Where each defined function is reported: its first definition.
    definitions: dict[str, FunctionDef] = field(default_factory=dict)
    display: dict[str, str] = field(default_factory=dict)


def _callee_symbol(callee) -> Symbol | None:
    """Directly named callee, if any (f(...) or (&f)(...))."""
    if isinstance(callee, Identifier) and isinstance(callee.symbol, Symbol):
        if callee.symbol.kind is SymKind.FUNCTION:
            return callee.symbol
    if isinstance(callee, AddrOf):
        return _callee_symbol(callee.operand)
    return None


def build_call_graph(units: list[tuple[TranslationUnitAst, SymbolTable]]) -> CallGraph:
    graph = CallGraph()
    for tu, table in units:
        for sym in table.file_scope.names.values():
            if sym.kind is SymKind.FUNCTION:
                cid = sym.canonical_id(table.tu_path)
                graph.nodes.add(cid)
                graph.display.setdefault(cid, sym.name)
    for tu, table in units:
        path = table.tu_path
        for decl in tu.decls:
            if not isinstance(decl, FunctionDef):
                continue
            caller = decl.symbol.canonical_id(path)
            graph.nodes.add(caller)
            graph.definitions.setdefault(caller, decl)
            for node in decl.calls:
                target = _callee_symbol(node.callee)
                if target is not None:
                    callee = target.canonical_id(path)
                    graph.nodes.add(callee)
                    graph.display.setdefault(callee, target.name)
                    graph.direct_edges.add((caller, callee))
                else:
                    graph.indirect_call_sites.append((caller, node))
    return graph


def recursion_components(graph: CallGraph) -> set[frozenset[str]]:
    """Strongly connected components of size > 1, plus self-loop singletons."""
    succ: dict[str, list[str]] = {n: [] for n in graph.nodes}
    for caller, callee in graph.direct_edges:
        succ.setdefault(caller, []).append(callee)
        succ.setdefault(callee, [])

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    components: set[frozenset[str]] = set()

    def strongconnect(root: str) -> None:
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(succ[child])))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                if len(comp) > 1 or (node, node) in graph.direct_edges:
                    components.add(frozenset(comp))

    for node in sorted(succ):
        if node not in index:
            strongconnect(node)
    return components
