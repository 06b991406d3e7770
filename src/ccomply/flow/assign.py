"""Definite-assignment analysis for automatic storage.

Forward data-flow over the three-point lattice
MaybeUnassigned < AssignedByAlias < DefinitelyAssigned with pointwise
minimum at joins. Taking a variable's address raises it to
AssignedByAlias; so do calls and stores through pointers for
address-taken variables (an alias may have assigned them).

This is a gen/kill problem, solved on bit vectors (Kildall, POPL 1973;
Aho, Lam, Sethi & Ullman, *Compilers*, §9.2). A state is a Python int
used as a bit set. The n-th uid the graph mentions owns bits 2n ("may
not be assigned directly") and 2n+1 ("may be unassigned"):

    DefinitelyAssigned 00    AssignedByAlias 01    MaybeUnassigned 11

So the minimum at a join is `|`, and a variable whose bits are all clear,
as every variable is in the entry state, is DefinitelyAssigned. Every
event is an update `state & ~kill | gen`, and a block's updates compose
into one such pair, computed on the solver's first visit to the block.
Each visit applies only that pair. One last pass over the stable in-states
replays the blocks' updates to collect the reads.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

from ccomply.flow.cfg import Block, Cfg, DeclItem
from ccomply.flow.solver import solve
from ccomply.parsing.astnodes import DeclEntry, Identifier
from ccomply.sema.symbols import Symbol


class AssignState(IntEnum):
    MAYBE_UNASSIGNED = 0
    ASSIGNED_BY_ALIAS = 1
    DEFINITELY_ASSIGNED = 2


# A variable's state by the value of its two bits.
_STATE_OF = (AssignState.DEFINITELY_ASSIGNED, AssignState.ASSIGNED_BY_ALIAS,
             None, AssignState.MAYBE_UNASSIGNED)


class ReadEvent(NamedTuple):
    """A read of a tracked variable and its state there; a tuple record."""

    node: Identifier
    sym: Symbol
    state: AssignState
    block: int
    index: int  # item index; terminator reads use len(items)


@dataclass
class DefAssignResult:
    reads: list[ReadEvent] = field(default_factory=list)
    # uid -> the declarator of each local declared without an initializer.
    decl_entries: dict[int, DeclEntry] = field(default_factory=dict)
    iterations: int = 0


def _tracked(sym: Symbol | None) -> bool:
    # Parameters are tracked too: they start DefinitelyAssigned (the
    # default for variables absent from the state).
    return sym is not None and sym.is_local_object


def definite_assignment(cfg: Cfg) -> DefAssignResult:
    result = DefAssignResult()
    shifts: dict[int, int] = {}  # uid -> 2n, the position of its low bit

    def shift(uid: int) -> int:
        s = shifts.get(uid)
        if s is None:
            s = shifts[uid] = 2 * len(shifts)
        return s

    # A call or a store through a pointer raises every address-taken local
    # to AssignedByAlias at most: it clears their "may be unassigned" bits.
    escaped = 0
    for uid in sorted(cfg.addr_taken):
        escaped |= 2 << shift(uid)

    def updates(b: Block) -> list[tuple[int, object, int, int]]:
        """`(item index, read event or None, kill, gen)` for block `b`, in order.

        A read changes nothing: its kill and gen are 0.
        """
        out = []

        def events(evs, idx: int) -> None:
            for ev in evs:
                kind = ev.kind
                if kind == "call" or kind == "deref_store":
                    out.append((idx, None, escaped, 0))
                elif _tracked(ev.sym):
                    if kind == "read":
                        shift(ev.sym.uid)
                        out.append((idx, ev, 0, 0))
                    elif kind == "write":
                        out.append((idx, None, 3 << shift(ev.sym.uid), 0))
                    elif kind == "addrof":
                        out.append((idx, None, 2 << shift(ev.sym.uid), 0))

        for idx, item in enumerate(b.items):
            # A declaration's events end with the store of its initializer.
            events(item.events, idx)
            if isinstance(item, DeclItem):
                both = 3 << shift(item.symbol.uid)
                if item.init is not None:
                    out.append((idx, None, both, 0))
                else:
                    out.append((idx, None, both, both))
                    result.decl_entries[item.symbol.uid] = item.entry
        events(b.term_events, len(b.items))
        return out

    compiled: dict[int, tuple[list, int, int]] = {}  # bid -> (updates, kill, gen)

    def transfer(bid: int, state: int):
        block = compiled.get(bid)
        if block is None:
            b = cfg.block(bid)
            steps = updates(b)
            kill = gen = 0
            for _idx, _read, k, g in steps:
                kill |= k
                gen = gen & ~k | g
            block = compiled[bid] = (steps, kill, gen)
        out = state & ~block[1] | block[2]
        return [(target, out) for target, _kind in cfg.block(bid).succs]

    in_states, result.iterations = solve(
        cfg, {cfg.entry: 0}, transfer, operator.or_,
        budget=12 * len(cfg.blocks) + 128, analysis="definite assignment",
    )
    # Final collection pass over the stabilized states.
    reads = result.reads
    for bid, state in in_states.items():
        for idx, read, kill, gen in compiled[bid][0]:
            if read is None:
                state = state & ~kill | gen
            else:
                code = state >> shifts[read.sym.uid] & 3
                reads.append(ReadEvent(read.node, read.sym, _STATE_OF[code], bid, idx))
    return result
