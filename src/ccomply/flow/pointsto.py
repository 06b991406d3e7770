"""Flow-sensitive intraprocedural points-to sets for local pointers.

Targets are named objects, string-literal ids, or the absorbing
`unknown` top element. The transfer reads each item's cached effect
events: a plain copy into a pointer variable updates it strongly; joins
take set union (with unknown absorbing); calls and stores through
pointers, other than `++`/`--`, havoc every address-taken pointer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from ccomply.flow.cfg import Cfg
from ccomply.flow.effects import Event, designate, sym_of
from ccomply.flow.solver import solve, state_at
from ccomply.parsing.astnodes import (
    AddrOf, Assign, Binary, Call, Cast, Comma, Conditional, Deref, Expr,
    Identifier, IncDec, Index, Member, StringLiteral,
)
from ccomply.sema.symbols import SymKind, Symbol
from ccomply.sema.typesys import TK


@dataclass(frozen=True)
class Target:
    kind: str                 # 'obj' | 'lit' | 'unknown'
    uid: int = -1             # symbol uid for 'obj', literal id for 'lit'
    label: str = ""           # variable name or literal preview

    def __repr__(self):
        if self.kind == "obj":
            return f"&{self.label}"
        if self.kind == "lit":
            return f'"{self.label}"'
        return "<unknown>"


UNKNOWN = Target("unknown")


@dataclass(frozen=True)
class PointsToSet:
    targets: frozenset[Target]

    def __post_init__(self):
        assert self.targets, "points-to sets are never empty"

    @property
    def is_unknown(self) -> bool:
        return UNKNOWN in self.targets

    def union(self, other: "PointsToSet") -> "PointsToSet":
        if self.is_unknown or other.is_unknown:
            return UNKNOWN_SET  # unknown absorbs
        return PointsToSet(self.targets | other.targets)

    def only_literals(self) -> bool:
        return all(t.kind == "lit" for t in self.targets)

    def has_literal(self) -> bool:
        return any(t.kind == "lit" for t in self.targets)

    def __repr__(self):
        return "{" + ", ".join(sorted(map(repr, self.targets))) + "}"


UNKNOWN_SET = PointsToSet(frozenset({UNKNOWN}))

PtEnv = dict[int, PointsToSet]


def _is_pointer_var(sym: Symbol | None) -> bool:
    return (
        sym is not None
        and sym.kind is SymKind.OBJECT
        and sym.type.kind is TK.POINTER
        and sym.is_local_object
    )


@dataclass
class PointsToResult:
    """The points-to state at the entry of each block the solver reached;
    `env_at` replays the states in between."""

    in_states: dict[int, PtEnv] = field(default_factory=dict)
    iterations: int = 0
    _evaluator: "_PtEval | None" = None
    _cfg: Cfg | None = None

    def env_at(self, bid: int, idx: int) -> PtEnv:
        """The state before item `idx` of block `bid`; {} if never reached."""
        entry = self.in_states.get(bid)
        if entry is None:
            return {}
        items = self._cfg.block(bid).items
        steps = [(i, partial(self._evaluator.apply, item.events)) for i, item in enumerate(items)]
        return state_at(entry, steps, idx, len(items))

    def points_to(self, expr: Expr, env: PtEnv) -> PointsToSet:
        assert self._evaluator is not None
        return self._evaluator.eval(expr, env)


class _PtEval:
    def __init__(self, addr_taken: set[int]):
        self.addr_taken = addr_taken

    def apply(self, events: list[Event], env: PtEnv) -> None:
        """Apply one item's (or terminator's) effect events to `env`."""
        for ev in events:
            kind = ev.kind
            if kind == "write":
                if ev.value is not None and _is_pointer_var(ev.sym):
                    env[ev.sym.uid] = self.eval(ev.value, env)  # strong update
            elif kind == "call" or (kind == "deref_store" and not isinstance(ev.node, IncDec)):
                # `++`/`--` through a pointer keeps the pointer within its object.
                self.havoc(env)

    def eval(self, e: Expr, env: PtEnv) -> PointsToSet:
        """The targets of `e`'s value; never changes `env`."""
        if isinstance(e, Identifier) and isinstance(e.symbol, Symbol):
            sym = e.symbol
            if sym.type.kind is TK.ARRAY:
                return PointsToSet(frozenset({Target("obj", sym.uid, sym.name)}))
            if sym.kind is SymKind.FUNCTION:
                return PointsToSet(frozenset({Target("obj", sym.uid, sym.name)}))
            if _is_pointer_var(sym):
                return env.get(sym.uid, UNKNOWN_SET)
            return UNKNOWN_SET
        if isinstance(e, StringLiteral):
            preview = e.value if len(e.value) <= 24 else e.value[:21] + "..."
            return PointsToSet(frozenset({Target("lit", e.literal_id, preview)}))
        if isinstance(e, AddrOf):
            obj, pointer, _, _ = designate(e.operand)
            if pointer is not None:
                return self.eval(pointer, env)
            sym = sym_of(obj)
            if sym is not None:
                return PointsToSet(frozenset({Target("obj", sym.uid, sym.name)}))
            return UNKNOWN_SET
        if isinstance(e, Cast):
            inner = self.eval(e.operand, env)
            operand_t = e.operand.ctype
            if operand_t is not None and operand_t.kind in (TK.POINTER, TK.ARRAY, TK.FUNCTION):
                return inner
            return UNKNOWN_SET  # integer-to-pointer and friends
        if isinstance(e, Binary) and e.op in ("+", "-"):
            # Pointer arithmetic stays within the pointed-to object.
            lt = e.left.ctype
            rt = e.right.ctype
            if lt is not None and lt.kind in (TK.POINTER, TK.ARRAY):
                return self.eval(e.left, env)
            if rt is not None and rt.kind in (TK.POINTER, TK.ARRAY):
                return self.eval(e.right, env)
            return UNKNOWN_SET
        if isinstance(e, Assign):
            return self.eval(e.value, env)
        if isinstance(e, (Call, Deref, Index, Member)):
            return UNKNOWN_SET  # loads through memory are not tracked
        if isinstance(e, Comma):
            return self.eval(e.right, env)
        if isinstance(e, Conditional):
            return self.eval(e.then, env).union(self.eval(e.other, env))
        return UNKNOWN_SET

    def havoc(self, env: PtEnv) -> None:
        for uid in list(env):
            if uid in self.addr_taken:
                env[uid] = UNKNOWN_SET


def _join_env(a: PtEnv, b: PtEnv) -> PtEnv:
    out: PtEnv = {}
    for uid in set(a) | set(b):
        sa = a.get(uid, UNKNOWN_SET)
        sb = b.get(uid, UNKNOWN_SET)
        out[uid] = sa.union(sb)
    return out


def local_points_to(cfg: Cfg) -> PointsToResult:
    ev = _PtEval(cfg.addr_taken)
    result = PointsToResult(_evaluator=ev, _cfg=cfg)

    def transfer(bid: int, entry: PtEnv):
        b = cfg.block(bid)
        env = dict(entry)
        for item in b.items:
            ev.apply(item.events, env)
        ev.apply(b.term_events, env)
        return [(target, env) for target, _kind in b.succs]

    result.in_states, result.iterations = solve(
        cfg, {cfg.entry: {}}, transfer, _join_env,
        budget=64 * len(cfg.blocks) + 768, analysis="points-to analysis",
    )
    return result
