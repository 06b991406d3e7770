"""The one worklist solver behind every data-flow analysis.

A monotone framework in the sense of Kildall (POPL 1973) and Kam & Ullman
(Acta Informatica 1977): the caller supplies an edge-wise transfer, a join
and optionally a widening; the solver owns the worklist, the change test,
the widening points and the budget. Direction is the caller's choice: a
forward analysis seeds the entry block and sends its transfer's results
along successor edges, a backward one seeds every block and sends them to
predecessors.

`solve` runs a `Solver` to the fixpoint in one go. A `Solver` can also pause between
two visits, once a question its caller asks has its final answer, and
resume later (demand-driven in the sense of Duesterwald, Gupta & Soffa,
POPL 1995): the interval analysis pauses once R2.1's and R14.3's answers
are final and runs on only when a rule asks for its states. A paused and
resumed run makes the same visits in the same order as one that never
paused, so its states, widenings and budget use are the same.
"""
from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, TypeVar

from ccomply.errors import FlowError
from ccomply.flow.cfg import Cfg

S = TypeVar("S")

# A loop head is widened from the join after this many incoming states.
WIDEN_DELAY = 3


class Solver:
    """One solver run over `cfg`, which `run` advances.

    The arguments are those of `solve`. `states` holds the state of each
    block reached so far; `visits` counts the blocks popped so far and
    `widenings` the widening steps that moved a state. A run paused by
    `until` resumes with the visit it would have made next, so a paused and
    resumed run makes the same visits as one that never paused. A run that
    raised `FlowError` for its budget raises it again if resumed; a run
    whose `transfer` raised anything else must not be resumed.
    """

    __slots__ = ("cfg", "states", "visits", "widenings", "_transfer", "_join", "_widen",
                 "_budget", "_analysis", "_worklist", "_queued", "_received")

    def __init__(
        self,
        cfg: Cfg,
        init: dict[int, S],
        transfer: Callable[[int, S], Iterable[tuple[int, S | None]]],
        join: Callable[[S, S], S],
        *,
        budget: int,
        analysis: str,
        widen: Callable[[S, S], S] | None = None,
    ) -> None:
        self.cfg = cfg
        self.states = dict(init)
        self.visits = 0
        self.widenings = 0
        self._transfer = transfer
        self._join = join
        self._widen = widen
        self._budget = budget
        self._analysis = analysis
        self._worklist = deque(self.states)
        self._queued = set(self.states)
        self._received: dict[int, int] = {}

    @property
    def stable(self) -> bool:
        """Whether the run has reached its fixpoint."""
        return not self._worklist

    def run(self, until: Callable[[], bool] | None = None) -> bool:
        """Visit blocks until the fixpoint, or until `until()` holds after a
        visit; returns whether the fixpoint is reached.

        A run at its fixpoint lets go of `transfer`, `join` and `widen`.
        """
        cfg, states, worklist, queued = self.cfg, self.states, self._worklist, self._queued
        received, transfer, join, widen = self._received, self._transfer, self._join, self._widen
        budget, visits, widenings = self._budget, self.visits, self.widenings
        try:
            while worklist:
                if visits == budget:
                    fn = cfg.fn
                    raise FlowError(
                        f"{self._analysis} did not stabilise within {budget} block visits "
                        f"in function '{fn.name}'",
                        fn.loc,
                    )
                bid = worklist.popleft()
                queued.discard(bid)
                visits += 1
                for target, out in transfer(bid, states[bid]):
                    if out is None:
                        continue
                    received[target] = received.get(target, 0) + 1
                    if target in states:
                        old = states[target]
                        new = join(old, out)
                        if (widen is not None and received[target] > WIDEN_DELAY
                                and cfg.block(target).is_loop_head):
                            joined, new = new, widen(old, new)
                            if new != joined:
                                widenings += 1
                        if new == old:
                            continue
                        out = new
                    states[target] = out
                    if target not in queued:
                        queued.add(target)
                        worklist.append(target)
                if until is not None and until():
                    break
        finally:
            self.visits, self.widenings = visits, widenings
        if worklist:
            return False
        self._transfer = self._join = self._widen = None
        return True


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
    run = Solver(cfg, init, transfer, join, budget=budget, analysis=analysis, widen=widen)
    run.run()
    return run.states, run.visits


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
