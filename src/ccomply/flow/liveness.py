"""Backward live-variable analysis over automatic storage.

A variable is live at a point iff some path reaches a read before any
write. Calls read every address-taken local (a saved pointer may be
used inside the callee), dereference reads do the same, and volatile
locals are always live, so dead-store reasoning stays sound.

This is a gen/kill problem, solved on bit vectors (Kildall, POPL 1973;
Aho, Lam, Sethi & Ullman, *Compilers*, §9.2). A live set is a Python int
used as a bit set: the n-th uid the graph mentions owns bit n, and the
join is `|`. Each item's backward transfer is one update
`live & ~kill | gen`; a block's transfer composes its terminator's and its
items' updates into one pair, computed once. The result keeps only the
live-out set of each reachable block. `is_live_after` replays a block's
updates backward from its live-out when asked about a point in it, as
`env_at` does for intervals, and keeps the replay of the last block asked.
`live_in` is decoded into uid sets when first read.
"""
from __future__ import annotations

import operator
from functools import cached_property

from ccomply.flow.cfg import Block, Cfg, DeclItem, Item
from ccomply.flow.solver import solve
from ccomply.sema.symbols import Symbol

# Events that may read every address-taken local.
_READS_ESCAPED = frozenset({"call", "deref_read", "deref_store"})


def _tracked(sym: Symbol | None) -> bool:
    return sym is not None and sym.is_local_object


class _Updates:
    """The uid numbering of one graph and the backward update of each item."""

    def __init__(self, cfg: Cfg) -> None:
        self.bits: dict[int, int] = {}  # uid -> 1 << n
        self.escaped = 0
        for uid in sorted(cfg.addr_taken):
            self.escaped |= self.bit(uid)
        self.volatile = 0
        for _, _, item in cfg.points():
            if isinstance(item, DeclItem) and "volatile" in item.symbol.quals:
                self.volatile |= self.bit(item.symbol.uid)

    def bit(self, uid: int) -> int:
        b = self.bits.get(uid)
        if b is None:
            b = self.bits[uid] = 1 << len(self.bits)
        return b

    def events(self, events, kill: int = 0, gen: int = 0) -> tuple[int, int]:
        """`(kill, gen)` after the update `(kill, gen)` and then `events`, last first."""
        for ev in reversed(events):
            kind = ev.kind
            if kind in _READS_ESCAPED:
                gen |= self.escaped
            elif kind == "read" and _tracked(ev.sym):
                gen |= self.bit(ev.sym.uid)
            elif kind == "write" and _tracked(ev.sym):
                k = self.bit(ev.sym.uid) & ~self.volatile
                kill |= k
                gen &= ~k
        return kill, gen

    def item(self, item: Item) -> tuple[int, int]:
        """The live set before `item` is `live & ~kill | gen` of the set after it."""
        kill = 0
        if isinstance(item, DeclItem):
            kill = self.bit(item.symbol.uid) & ~self.volatile
        # A declaration's events end with the store of its initializer.
        return self.events(item.events, kill)

    def uids(self, live: int) -> frozenset[int]:
        return frozenset(uid for uid, b in self.bits.items() if live & b)


class LivenessResult:
    """Each reachable block's live-out set, and per-point queries over it.

    `iterations` counts the solver's block visits. `live_in` maps each
    reachable block to the uids live on entry to it. `is_live_after(bid,
    idx, uid)` says whether `uid` is live right after item `idx` of block
    `bid`; it is False in a block the analysis did not reach and at an
    index outside the block's items.
    """

    def __init__(self, cfg: Cfg, updates: _Updates, live_out: dict[int, int],
                 summaries: dict[int, tuple[int, int]], iterations: int) -> None:
        self.iterations = iterations
        self._cfg = cfg
        self._updates = updates
        self._live_out = live_out
        self._summaries = summaries  # bid -> the block's (kill, gen)
        self._replayed: tuple[int, list[int]] = (-1, [])  # (bid, live after each item)

    @cached_property
    def live_in(self) -> dict[int, frozenset[int]]:
        volatile, uids = self._updates.volatile, self._updates.uids
        out = {}
        for bid in sorted(self._live_out):
            kill, gen = self._summaries[bid]
            out[bid] = uids((self._live_out[bid] | volatile) & ~kill | gen)
        return out

    def is_live_after(self, bid: int, idx: int, uid: int) -> bool:
        live = self._live_out.get(bid)
        b = self._updates.bits.get(uid)
        if live is None or b is None:
            return False
        replayed_bid, after = self._replayed
        if replayed_bid != bid:
            after = self._replay(self._cfg.block(bid), live)
            self._replayed = (bid, after)
        return 0 <= idx < len(after) and bool(after[idx] & b)

    def _replay(self, block: Block, live_out: int) -> list[int]:
        """The live set after each item of `block`, from its live-out set."""
        updates = self._updates
        kill, gen = updates.events(block.term_events)
        live = (live_out | updates.volatile) & ~kill | gen
        after = [0] * len(block.items)
        for idx in range(len(block.items) - 1, -1, -1):
            after[idx] = live
            kill, gen = updates.item(block.items[idx])
            live = live & ~kill | gen
        return after


def liveness(cfg: Cfg) -> LivenessResult:
    updates = _Updates(cfg)
    always_live = updates.escaped | updates.volatile
    order = [b.id for b in cfg.blocks if b.reachable]
    # Each block's transfer and the reachable blocks it feeds.
    summaries: dict[int, tuple[int, int]] = {}
    feeds: dict[int, list[int]] = {}
    for bid in order:
        b = cfg.block(bid)
        kill, gen = updates.events(b.term_events)
        for item in reversed(b.items):
            k, g = updates.item(item)
            kill |= k
            gen = gen & ~k | g
        summaries[bid] = kill, gen
        feeds[bid] = [p for p in b.preds if cfg.block(p).reachable]
    volatile = updates.volatile

    def transfer(bid: int, out: int):
        kill, gen = summaries[bid]
        live_in = (out | volatile) & ~kill | gen
        return [(p, live_in) for p in feeds[bid]]

    # States are live-out sets. Every reachable block is a seed, in reverse
    # id order; the exit keeps what may be read after the function returns.
    seeds = {bid: always_live if bid == cfg.exit else 0 for bid in reversed(order)}
    live_out, iterations = solve(
        cfg, seeds, transfer, operator.or_,
        budget=(len(order) + 1) * (len(order) + 8) * 4 + 64, analysis="liveness",
    )
    return LivenessResult(cfg, updates, live_out, summaries, iterations)
