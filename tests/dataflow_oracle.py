"""Definite assignment and liveness as they stood before bit vectors: a test oracle.

The first half is `flow/assign.py` and the second `flow/liveness.py`,
verbatim but for the merged imports and liveness's copy of `_tracked`,
which was the same function. Each keeps its states as dicts and
frozensets of uids and records liveness per item. `test_dataflow_oracle`
compares the bit-vector analyses with these on every program point.
Nothing under `src/` imports it.

`flow/assign.py`: definite-assignment analysis for automatic storage.

Forward data-flow over the three-point lattice
MaybeUnassigned < AssignedByAlias < DefinitelyAssigned with pointwise
minimum at joins. Taking a variable's address raises it to
AssignedByAlias; so do calls and stores through pointers for
address-taken variables (an alias may have assigned them).

`flow/liveness.py`: backward live-variable analysis over automatic storage.

A variable is live at a point iff some path reaches a read before any
write. Calls read every address-taken local (a saved pointer may be
used inside the callee), dereference reads do the same, and volatile
locals are always live, so dead-store reasoning stays sound.
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


# ---- liveness --------------------------------------------------------------


@dataclass
class LivenessResult:
    live_after: dict[tuple[int, int], frozenset[int]] = field(default_factory=dict)
    live_in: dict[int, frozenset[int]] = field(default_factory=dict)
    iterations: int = 0

    def is_live_after(self, bid: int, idx: int, uid: int) -> bool:
        return uid in self.live_after.get((bid, idx), frozenset())


def liveness(cfg: Cfg) -> LivenessResult:
    result = LivenessResult()
    addr_taken = cfg.addr_taken
    volatile_locals = frozenset(
        item.symbol.uid
        for _, _, item in cfg.points()
        if isinstance(item, DeclItem) and "volatile" in item.symbol.quals
    )
    always_live = addr_taken | volatile_locals

    def backward_events(events, live: set[int]) -> None:
        for ev in reversed(events):
            sym = ev.sym
            if ev.kind == "write" and _tracked(sym):
                if sym.uid not in volatile_locals:
                    live.discard(sym.uid)
            elif ev.kind == "read" and _tracked(sym):
                live.add(sym.uid)
            elif ev.kind in ("call", "deref_read", "deref_store"):
                live.update(addr_taken)

    def transfer_block(bid: int, out: frozenset[int], after: list | None = None) -> frozenset[int]:
        """Live-in of a block from its live-out; fills `after` per item."""
        b = cfg.block(bid)
        live = set(out) | volatile_locals
        backward_events(b.term_events, live)
        for item in reversed(b.items):
            if after is not None:
                after.append(frozenset(live))
            if isinstance(item, DeclItem) and item.symbol.uid not in volatile_locals:
                live.discard(item.symbol.uid)
            # A declaration's events end with the store of its initializer.
            backward_events(item.events, live)
        return frozenset(live)

    def transfer(bid: int, out: frozenset[int]):
        live_in = transfer_block(bid, out)
        return [(p, live_in) for p in cfg.block(bid).preds if cfg.block(p).reachable]

    # States are live-out sets. Every reachable block is a seed, in reverse
    # id order; the exit keeps what may be read after the function returns.
    order = [b.id for b in cfg.blocks if b.reachable]
    seeds = {bid: always_live if bid == cfg.exit else frozenset() for bid in reversed(order)}
    live_out, result.iterations = solve(
        cfg, seeds, transfer, frozenset.union,
        budget=(len(order) + 1) * (len(order) + 8) * 4 + 64, analysis="liveness",
    )

    # Record per-item live-after sets from the stabilized solution.
    for bid in order:
        after: list[frozenset[int]] = []
        result.live_in[bid] = transfer_block(bid, live_out[bid], after)
        after.reverse()
        for idx, live_set in enumerate(after):
            result.live_after[(bid, idx)] = live_set
    return result
