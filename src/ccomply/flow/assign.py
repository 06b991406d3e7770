"""Definite-assignment analysis for automatic storage.

Forward data-flow over the three-point lattice
MaybeUnassigned < AssignedByAlias < DefinitelyAssigned with pointwise
minimum at joins. Taking a variable's address raises it to
AssignedByAlias; so do calls and stores through pointers for
address-taken variables (an alias may have assigned them).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from ccomply.flow.cfg import Cfg, DeclItem
from ccomply.flow.solver import solve
from ccomply.parsing.astnodes import Identifier
from ccomply.sema.symbols import Symbol


class AssignState(IntEnum):
    MAYBE_UNASSIGNED = 0
    ASSIGNED_BY_ALIAS = 1
    DEFINITELY_ASSIGNED = 2


@dataclass(frozen=True)
class ReadEvent:
    node: Identifier
    sym: Symbol
    state: AssignState
    block: int
    index: int  # item index; terminator reads use len(items)


@dataclass
class DefAssignResult:
    reads: list[ReadEvent] = field(default_factory=list)
    decl_spans: dict[int, object] = field(default_factory=dict)
    iterations: int = 0


def _tracked(sym: Symbol | None) -> bool:
    # Parameters are tracked too: they start DefinitelyAssigned (the
    # default for variables absent from the state).
    return sym is not None and sym.is_local_object


def _join(a: dict[int, AssignState], b: dict[int, AssignState]) -> dict[int, AssignState]:
    out = dict(a)
    for uid, state in b.items():
        if uid in out:
            out[uid] = min(out[uid], state)
        else:
            out[uid] = state
    return out


def definite_assignment(cfg: Cfg) -> DefAssignResult:
    result = DefAssignResult()
    addr_taken = cfg.addr_taken

    def transfer_events(events, state: dict[int, AssignState], collect: bool, bid: int, idx: int) -> None:
        for ev in events:
            sym = ev.sym
            if ev.kind == "read" and _tracked(sym):
                current = state.get(sym.uid, AssignState.DEFINITELY_ASSIGNED)
                if collect:
                    result.reads.append(ReadEvent(ev.node, sym, current, bid, idx))
            elif ev.kind == "write" and _tracked(sym):
                state[sym.uid] = AssignState.DEFINITELY_ASSIGNED
            elif ev.kind == "addrof" and _tracked(sym):
                state[sym.uid] = max(
                    state.get(sym.uid, AssignState.DEFINITELY_ASSIGNED),
                    AssignState.ASSIGNED_BY_ALIAS,
                )
            elif ev.kind in ("call", "deref_store"):
                for uid in addr_taken:
                    if uid in state:
                        state[uid] = max(state[uid], AssignState.ASSIGNED_BY_ALIAS)

    def transfer_block(bid: int, entry: dict[int, AssignState], collect: bool) -> dict[int, AssignState]:
        b = cfg.block(bid)
        state = dict(entry)
        for idx, item in enumerate(b.items):
            # A declaration's events end with the store of its initializer.
            transfer_events(item.events, state, collect, bid, idx)
            if isinstance(item, DeclItem):
                if item.init is not None:
                    state[item.symbol.uid] = AssignState.DEFINITELY_ASSIGNED
                else:
                    state[item.symbol.uid] = AssignState.MAYBE_UNASSIGNED
                    result.decl_spans[item.symbol.uid] = item.entry.span
        transfer_events(b.term_events, state, collect, bid, len(b.items))
        return state

    def transfer(bid: int, entry: dict[int, AssignState]):
        state = transfer_block(bid, entry, False)
        return [(target, state) for target, _kind in cfg.block(bid).succs]

    in_states, result.iterations = solve(
        cfg, {cfg.entry: {}}, transfer, _join,
        budget=12 * len(cfg.blocks) + 128, analysis="definite assignment",
    )
    # Final collection pass over the stabilized states.
    for bid, entry_state in in_states.items():
        transfer_block(bid, entry_state, True)
    return result
