"""Backward live-variable analysis over automatic storage.

A variable is live at a point iff some path reaches a read before any
write. Calls read every address-taken local (a saved pointer may be
used inside the callee), dereference reads do the same, and volatile
locals are always live, so dead-store reasoning stays sound.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ccomply.flow.cfg import Cfg, DeclItem
from ccomply.flow.solver import solve
from ccomply.sema.symbols import Symbol


@dataclass
class LivenessResult:
    live_after: dict[tuple[int, int], frozenset[int]] = field(default_factory=dict)
    live_in: dict[int, frozenset[int]] = field(default_factory=dict)
    iterations: int = 0

    def is_live_after(self, bid: int, idx: int, uid: int) -> bool:
        return uid in self.live_after.get((bid, idx), frozenset())


def _tracked(sym: Symbol | None) -> bool:
    return sym is not None and sym.is_local_object


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
