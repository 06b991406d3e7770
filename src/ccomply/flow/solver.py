"""The one worklist solver behind every data-flow analysis.

A monotone framework in the sense of Kildall (POPL 1973) and Kam & Ullman
(Acta Informatica 1977): the caller supplies an edge-wise transfer, a join
and optionally a widening; the solver owns the worklist, the change test,
the widening points and the budget. Direction is the caller's choice: a
forward analysis seeds the entry block and sends its transfer's results
along successor edges, a backward one seeds every block and sends them to
predecessors.
"""
from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, TypeVar

from ccomply.errors import FlowError
from ccomply.flow.cfg import Cfg

S = TypeVar("S")

# A loop head is widened from the join after this many incoming states.
WIDEN_DELAY = 3


def solve(
    cfg: Cfg,
    init: dict[int, S],
    transfer: Callable[[int, S], Iterable[tuple[int, S | None]]],
    join: Callable[[S, S], S],
    *,
    budget: int,
    analysis: str,
    widen: Callable[[S, S], S] | None = None,
) -> tuple[dict[int, S], int]:
    """Stabilise per-block states; returns (states, block visits).

    `init` maps the seed blocks to their starting states; they enter the
    worklist in its order. `transfer(bid, state)` must not mutate `state`;
    it yields `(neighbour, out)` pairs, where `out` is None for an edge
    that is infeasible. A neighbour with no state yet takes `out` as is;
    otherwise its state becomes `join(old, out)`, widened with
    `widen(old, joined)` once it is a loop head that has received more than
    `WIDEN_DELAY` states. A neighbour whose state changed is appended to the
    worklist unless it is already queued.

    Visit order is first-in first-out. Widening makes the result depend on
    that order, so the order is part of the contract. Each popped block
    counts as one visit; the `budget + 1`-th visit raises `FlowError`,
    tagged with the function's location.
    """
    states = dict(init)
    worklist = deque(states)
    queued = set(states)
    received: dict[int, int] = {}
    visits = 0
    while worklist:
        bid = worklist.popleft()
        queued.discard(bid)
        visits += 1
        if visits > budget:
            fn = cfg.fn
            raise FlowError(
                f"{analysis} did not stabilise within {budget} block visits "
                f"in function '{fn.name}'",
                fn.loc,
            )
        for target, out in transfer(bid, states[bid]):
            if out is None:
                continue
            received[target] = received.get(target, 0) + 1
            if target in states:
                old = states[target]
                new = join(old, out)
                if (widen is not None and received[target] > WIDEN_DELAY
                        and cfg.block(target).is_loop_head):
                    new = widen(old, new)
                if new == old:
                    continue
                out = new
            states[target] = out
            if target not in queued:
                queued.add(target)
                worklist.append(target)
    return states, visits


def state_at(entry: dict, steps: list[tuple[int, Callable[[dict], object]]],
             idx: int, n_items: int) -> dict:
    """The state before item `idx` of a block whose in-state is `entry`.

    `steps` are `(item index, step)` for the block's items that can change
    the state, in item order; a step updates a state in place. The steps
    before `idx` are replayed on a copy of `entry`; with none, `entry`
    itself is returned. An `idx` outside `0..n_items` gives `{}`.
    """
    if not 0 <= idx <= n_items:
        return {}
    state = entry
    for i, step in steps:
        if i >= idx:
            break
        if state is entry:
            state = dict(entry)
        step(state)
    return state
