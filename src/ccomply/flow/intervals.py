"""Interval analysis over integer variables, by abstract compilation.

Non-relational forward fixpoint. Every transfer clamps to the
variable's type range; widening fires after three visits to a loop
head and sends each unstable bound straight to its type bound (no
narrowing pass). Singleton operands evaluate exactly, so constant
subexpressions like `32 & 0x1F` keep their precise value.

The transfer functions are compiled, not interpreted (abstract
compilation, Boucher & Feeley, CC 1996). The first time the solver visits
a block, `_AbstractEval.lower_block` lowers its items and its terminator
into closures over an environment; the analysis keeps them until it
returns. Everything that does not depend on the abstract state is
resolved then, once per node: constant folding, which reads the value the
resolver recorded on the node (`const_value`; a node lowering rebuilt
around a temporary has none), type ranges (cached per type for the CFG's
model), which variables are tracked or volatile, store targets, which
subexpressions can change the environment at all (an item that cannot is
dropped), and how each `TBranch` and `TSwitch` splits the state. Only a
store or a call can change the environment, so an item or a terminator
expression whose `Expr.kinds` shows neither is dropped without being
lowered at all; an item rebuilt around a temporary has every bit set and
is lowered. Per visit only the interval arithmetic runs: the range
operators behind `_AbstractEval._arith` (`/` and `%` take C's truncating
quotient and remainder from `sema.intarith`), and `_compare`. A
comparison, and the narrowing it drives, first converts both operand
ranges to their common type (C99 6.5.8p3, 6.5.9p4); a branch refines a
variable only when that conversion keeps the variable's value.

Which way a branch can go has one answer, its block's `edges` function:
as in Cousot & Cousot (POPL 1977), a guard is one function of the state
before the test, and it gives None for an edge no state can take. A
condition that cannot change the state refines the variables it compares
or tests (through casts only when each cast's type holds every value of
the variable's type), or else gives None on the side its value excludes.
A condition that can change the state is evaluated once with its stores
(`x++ == 0` compares `x`'s value before the store); both edges take the
state after them, one is None if the value excludes it, and no variable
is refined. At the fixpoint an edge is dead exactly when `edges` gives it
None (`dead_edges`, R2.1's input); per `if`, `while`, `do` and `for`
statement, `outcomes` says whether an edge into its true and into its
false target (`Cfg.conditions`) is live (R14.3's input). Both come from
what the solver's latest visit to each branch block saw: a block's
in-state never changes after its last visit, since a change queues the
block again, so no block is replayed and no edge function called again
after the solver returns.

The solver's iterates only grow (Cousot & Cousot, POPL 1977), so an edge
that one visit finds live stays live at the fixpoint. Once every
reachable branch block has been visited and every open one has had both
edges live, no edge is dead and every outcome is final, so the analysis
pauses there (`solver.Solver`): R2.1 and R14.3 never run it further.
Reading `in_states`, `term_env` or `env_at`, as R12.2 does, resumes the
same worklist to its fixpoint; the resumed run makes the visits an
unpaused one would, so states, widenings and a budget `FlowError` are the
same, and the error surfaces at that read; `dead_edges` and `outcomes`
stay as the pause decided them. A function with a dead edge,
or with a reachable branch block no state reaches, runs to its fixpoint
at once.

The result keeps one state per reached block, not one per program point.
`IntervalResult.env_at(bid, idx)` lowers the block's items again and
replays those before `idx` on its in-state (`solver.state_at`): it is
`{}` in a block the solver never reached, the in-state itself at index 0,
and `term_env[bid]`, the state before the terminator that the last visit
recorded, at `len(items)`.
The lowered code is kept while the solver is paused and dropped at its
fixpoint: held for a whole run, its closures take more memory than the
per-point states they replace.
`eval_expr` lowers the queried expression on each call and never changes
the environment it is given; a `&&`, `||`, `?:` or `,`, which lowering
leaves in no item, reads as its type's range. C leaves the order of a full
expression's operands unspecified (C99 6.5p3), so in an item, an
initializer or a condition that calls a function, and in a query told the
full expression it is part of, a read of an address-taken local gives its
type range unless every call there is sequenced after it
(`effects.sequencing`; 6.5.2.2p10): a call may set the local before or
after the read.

The state tracks the local automatic integer objects, CFG temporaries
included (`Symbol.is_local_object`, as in the other analyses); a static
local is initialised once, before startup (C99 6.2.4p3), so it stays at
its type range. A variable's widening bound is its type range, which
lowering records (`_AbstractEval.bounds`). A call, and a store that
`effects.designate` finds goes through a pointer, forget the
address-taken locals (`Cfg.addr_taken`).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ccomply.flow.cfg import Block, Cfg, DeclItem, TBranch, TSwitch
from ccomply.flow.effects import SEQUENCED, designate, sequencing, sym_of, walk_effects
from ccomply.flow.solver import Solver, state_at
from ccomply.parsing.astnodes import (
    KIND_CALL, KIND_STORE, AddrOf, Assign, Binary, Call, Cast, CompoundAssign,
    Constant, Deref, Expr, Identifier, IncDec, Index, InitList, Member, Node,
    Sizeof, StringLiteral, Unary, operands, placed,
)
from ccomply.sema.intarith import truncating_divmod
from ccomply.sema.symbols import Symbol
from ccomply.sema.typesys import (
    DEFAULT_MODEL, IntegerModel, TypeDesc, is_integer, type_range, usual_arith_conversion,
)


@dataclass(frozen=True)
class Interval:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> "Interval | None":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def singleton(self) -> int | None:
        return self.lo if self.lo == self.hi else None

    def contains(self, v: int) -> bool:
        return self.lo <= v <= self.hi

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


Env = dict[int, Interval]  # symbol uid -> interval
# A lowered expression: its value under an environment, which it may update.
ValueFn = Callable[[Env], "Interval | None"]

ZERO = Interval(0, 0)
ONE = Interval(1, 1)
BOOL = Interval(0, 1)


def _type_interval(t: TypeDesc | None, model: IntegerModel) -> Interval | None:
    if t is None or not is_integer(t):
        return None
    lo, hi = type_range(t, model)
    return Interval(lo, hi)


def _clamp(lo: int, hi: int, full: Interval | None) -> Interval | None:
    """[lo, hi] in a type whose range is `full` (None: not an integer type)."""
    if full is None:
        return None
    if lo < full.lo or hi > full.hi:
        return full  # wraparound / overflow degrades to the type range
    return Interval(lo, hi)


def _converted(iv: Interval | None, full: Interval | None) -> Interval | None:
    """`iv` converted to a type whose range is `full`."""
    if iv is None or full is None:
        return full
    if iv.lo < full.lo or iv.hi > full.hi:
        return full
    return iv


def _converting(value: ValueFn, full: Interval) -> ValueFn:
    return lambda env: _converted(value(env), full)


# The `Expr.kinds` bits of the nodes that can change the environment.
_MUTATORS = KIND_STORE | KIND_CALL


def _tracked(sym) -> bool:
    return isinstance(sym, Symbol) and sym.is_local_object and is_integer(sym.type)


class IntervalResult:
    """Per-block states of one function, and queries against them.

    Each branch is decided by its block's edge function on the state before
    its terminator at the solver's latest visit; the function reads the
    condition before its own stores. `dead_edges` are the open branch edges
    it gives None, and `outcomes` maps each `if`, `while`, `do` and `for`
    statement with a reached branch block to (an edge into its true target
    is live, an edge into its false target is live). Both are final as soon
    as every reachable branch block has been visited and every open one
    has had both edges live, and the solver pauses there; they are decided
    once, when the result is made, and reading them never runs it further.

    `in_states` holds the state at the entry of each block the solver
    reached and `term_env` the state before its terminator; `env_at`
    replays the states in between. Each of the three first resumes the
    solver to its fixpoint, which leaves `dead_edges` and `outcomes` as
    they are; a budget `FlowError` surfaces there. `iterations` counts the
    block visits and `widenings` the widening steps that moved a bound so
    far; neither resumes the solver.
    """

    def __init__(self, model: IntegerModel, cfg: Cfg, evaluator: "_AbstractEval",
                 solver: Solver, term_env: dict[int, Env], live: dict[int, set[int]]):
        self.model = model
        self._cfg = cfg
        self._evaluator = evaluator
        self._solver = solver
        self._term_env = term_env
        dead, outcomes = set(), {}
        for bid, targets_live in live.items():
            term = cfg.block(bid).term
            if term.const_value is None:
                for target in (term.true_target, term.false_target):
                    if target not in targets_live:
                        dead.add((bid, target))
            targets = cfg.conditions.get(term.node)
            if targets is not None:
                true_live, false_live = outcomes.get(term.node, (False, False))
                outcomes[term.node] = (true_live or targets[0] in targets_live,
                                       false_live or targets[1] in targets_live)
        self.dead_edges: set[tuple[int, int]] = dead
        self.outcomes: dict[Node, tuple[bool, bool]] = outcomes

    @property
    def iterations(self) -> int:
        return self._solver.visits

    @property
    def widenings(self) -> int:
        return self._solver.widenings

    @property
    def in_states(self) -> dict[int, Env]:
        self._fixpoint()
        return self._solver.states

    @property
    def term_env(self) -> dict[int, Env]:
        self._fixpoint()
        return self._term_env

    def env_at(self, bid: int, idx: int) -> Env:
        """The state before item `idx` of block `bid`; {} if never reached."""
        entry = self.in_states.get(bid)
        if entry is None:
            return {}
        b = self._cfg.block(bid)
        if idx == len(b.items):
            return self._term_env[bid]
        steps = self._evaluator.lower_items(b) if 0 < idx < len(b.items) else []
        return state_at(entry, steps, idx, len(b.items))

    def eval_expr(self, expr: Expr, env: Env, within: Expr | None = None) -> Interval | None:
        """`expr`'s value in `env`; `within` is the full expression that
        holds it, whose calls may run before `expr` is read."""
        return self._evaluator.lower_value(expr, within)(env)

    def _fixpoint(self) -> None:
        """Resume the solver to its fixpoint."""
        if not self._solver.stable:
            self._solver.run()


class _BlockCode:
    """One block's lowered transfer.

    `items` applies the steps of the items that can change the state (None
    if there are none); `term` applies the expression of a terminator that
    is no open branch (None if it cannot change the state). `edges` gives
    `(successor, state)` pairs from the state after `term`, None for an
    edge no state can take, and never changes the state it is given; for an
    open branch, its condition is read there. `branch` says whether the
    terminator is a `TBranch`.
    """

    __slots__ = ("items", "term", "edges", "branch")

    def __init__(self, items, term, edges, branch):
        self.items = items
        self.term = term
        self.edges = edges
        self.branch = branch


class _AbstractEval:
    """Lowers one CFG's expressions to closures; holds the range arithmetic.

    `addr_taken` is the set of uids a call or a store through memory may
    change, and `bounds` maps the uid of each tracked variable lowering has
    met to its type range, the variable's widening bound. Each `_lower_*`
    method takes an expression and whether its stores and calls update the
    environment (`mutate`), and returns `(value function, whether that
    function can change the environment)`.

    C leaves the order of a full expression's operands unspecified (C99
    6.5p3), and a call may change an address-taken local before or after
    the local is read. So while a full expression that calls a function is
    lowered (an item, an initializer or a whole condition; `_full_expression`
    says which), a read of an address-taken local that some call of the
    expression is not sequenced after (`effects.sequencing`) gives its type
    range, which holds its values both before and after any call.
    """

    def __init__(self, model: IntegerModel, addr_taken):
        self.model = model
        self.addr_taken = addr_taken
        self.bounds: dict[int, Interval] = {}
        self._full: dict[TypeDesc | None, Interval | None] = {}
        # The reads that give their type range in the full expression being
        # lowered.
        self._unordered: set[Expr] | frozenset = frozenset()

    def _full_expression(self, e: Expr | None) -> None:
        """Lower what follows as (part of) full expression `e`."""
        uids = self.addr_taken
        if not (uids and e is not None and e.kinds & KIND_CALL):
            self._unordered = frozenset()
            return
        unordered = self._unordered = set()
        reads, called = [], False
        for ev in walk_effects(e):
            kind = ev.kind
            if kind == "read" and ev.sym.uid in uids:
                if called:  # a call comes first, so it is not sequenced after
                    unordered.add(ev.node)
                else:
                    reads.append(ev)
            elif kind == "call":
                called = True
                unordered.update(r.node for r in reads if sequencing(r, ev) != SEQUENCED)

    def full(self, t: TypeDesc | None) -> Interval | None:
        """The range of type `t`, or None if it is not an integer type."""
        try:
            return self._full[t]
        except KeyError:
            iv = self._full[t] = _type_interval(t, self.model)
            return iv

    def _range(self, sym: Symbol) -> Interval:
        """The type range of tracked variable `sym`, recorded in `bounds`."""
        full = self.bounds.get(sym.uid)
        if full is None:
            full = self.bounds[sym.uid] = self.full(sym.type)
        return full

    def _common_range(self, e: Binary) -> Interval | None:
        """The range of the common type of integer comparison `e`, else None."""
        lt, rt = e.left.ctype, e.right.ctype
        if lt is None or rt is None or not (is_integer(lt) and is_integer(rt)):
            return None
        return self.full(usual_arith_conversion(lt, rt, self.model))

    def _width(self, t: TypeDesc | None) -> int:
        return t.width if t is not None and is_integer(t) else self.model.int_bits

    def _arith(self, op: str, a: Interval | None, b: Interval | None,
               t: TypeDesc | None) -> Interval | None:
        """`a op b` over ranges, in type `t`."""
        full = self.full(t)
        if a is None or b is None:
            return full
        return _ARITH[op](a, b, full, self._width(t))

    # -- queries ---------------------------------------------------------------

    def lower_value(self, e: Expr, within: Expr | None = None) -> ValueFn:
        """`e`'s value function, with stores and calls leaving the state as
        is; `within` is the full expression that holds `e`, if any."""
        self._full_expression(within)
        return self._lower(e, False)[0]

    # -- blocks ----------------------------------------------------------------

    def lower_block(self, b: Block) -> _BlockCode:
        steps = self.lower_items(b)
        items = _sequence([step for _, step in steps]) if steps else None
        term = b.term
        self._full_expression(b.term_expr)
        effect = None
        if isinstance(term, TBranch) and term.const_value is None:
            edges = self._branch_edges(term)
        else:
            effect = self._effect(b.term_expr)
            succs = [target for target, _kind in b.succs]
            edges = (self._switch_edges(term) if isinstance(term, TSwitch)
                     else lambda env: [(t, env) for t in succs])
        return _BlockCode(items, effect, edges, isinstance(term, TBranch))

    def _effect(self, e: Expr | None) -> ValueFn | None:
        """`e` lowered with its stores and calls, or None if it cannot change the state."""
        if e is None or not e.kinds & _MUTATORS:
            return None
        fn, changes = self._lower(e, True)
        return fn if changes else None

    def lower_items(self, b: Block) -> list[tuple[int, ValueFn]]:
        """(index, step) for each of `b`'s items that can change the state."""
        steps = []
        for idx, item in enumerate(b.items):
            self._full_expression(item.init if type(item) is DeclItem else item.expr)
            step = self._lower_item(item)
            if step is not None:
                steps.append((idx, step))
        return steps

    def _lower_item(self, item) -> ValueFn | None:
        if not isinstance(item, DeclItem):
            return self._effect(item.expr)
        sym, init = item.symbol, item.init
        if init is None:
            return None
        tracked = _tracked(sym)
        if not (tracked or init.kinds & _MUTATORS):
            return None
        value, changes = self._lower(init, True)
        if not tracked:
            return value if changes else None
        uid, full = sym.uid, self._range(sym)

        def declare(env):
            env[uid] = _converted(value(env), full)
        return declare

    def _narrowable(self, e: Expr, common: Interval | None = None):
        """(uid, type range, volatile) of a variable a branch may refine: one
        whose value survives conversion to the compared type, of range `common`."""
        sym = e.symbol if type(e) is Identifier else None
        if _tracked(sym):
            full = self._range(sym)
            if common is None or _holds(common, full):
                return sym.uid, full, "volatile" in sym.quals
        return None

    def _tested(self, e: Expr):
        """The `_narrowable` variable a scalar condition or a switch on `e`
        tests: `e`, or its operand under casts that keep each of its values."""
        if type(e) is not Cast:
            return self._narrowable(e)
        var = self._tested(e.operand)
        return var if var is not None and _holds(self.full(e.ctype), var[1]) else None

    def _branch_edges(self, term: TBranch):
        """edges(env) of a branch whose condition did not fold."""
        targets = (term.true_target, term.false_target)
        effect = self._effect(term.cond)
        if effect is None:
            split = self._split(term.cond)
            return lambda env: zip(targets, split(env))

        def storing(env):
            env = dict(env)
            return zip(targets, _by_value(env, effect(env)))
        return storing

    def _split(self, cond: Expr):
        """split(env) -> (true-edge state, false-edge state), None where an
        edge cannot be taken, for a condition that cannot change the state.

        CFG construction turns a leading `!` into swapped branch targets,
        so `cond` is a comparison, a variable or an opaque expression.
        """
        if type(cond) is Binary and cond.op in _NEGATE:
            op, neg = cond.op, _NEGATE[cond.op]
            left, right = self.lower_value(cond.left), self.lower_value(cond.right)
            common = self._common_range(cond)
            if common is not None:
                left, right = _converting(left, common), _converting(right, common)
            lvar, rvar = self._narrowable(cond.left, common), self._narrowable(cond.right, common)

            def compare(env):
                lv, rv = left(env), right(env)
                return (_refine(env, op, lv, rv, lvar, rvar),
                        _refine(env, neg, lv, rv, lvar, rvar))
            return compare
        var = self._tested(cond)
        if var is None:
            value = self.lower_value(cond)
            return lambda env: _by_value(env, value(env))
        uid, full, volatile = var

        def scalar(env):
            iv = full if volatile else env.get(uid, full)
            return _nonzero(env, uid, iv), _zero(env, uid, iv)
        return scalar

    def _switch_edges(self, term: TSwitch):
        default = term.default_target
        var = self._tested(term.expr)
        if var is None:
            targets = [target for _value, target in term.cases] + [default]
            return lambda env: [(t, env) for t in targets]
        uid, full, volatile = var
        cases = [(Interval(value, value), target) for value, target in term.cases]

        def edges(env):
            iv = full if volatile else env.get(uid, full)
            out = []
            for case, target in cases:
                if iv.lo <= case.lo <= iv.hi:
                    state = dict(env)
                    state[uid] = case
                    out.append((target, state))
            out.append((default, env))
            return out
        return edges

    # -- expressions -------------------------------------------------------------

    def _lower(self, e: Expr, mutate: bool) -> tuple[ValueFn, bool]:
        value = e.const_value
        if value is not None:
            return _const(Interval(value, value)), False
        return _LOWER.get(type(e), _AbstractEval._lower_opaque)(self, e, mutate)

    def _effects(self, exprs, mutate: bool) -> list[ValueFn]:
        """Lower `exprs` in order; keep the ones that can change the state."""
        steps = []
        for x in exprs:
            fn, changes = self._lower(x, mutate)
            if changes:
                steps.append(fn)
        return steps

    def _lower_opaque(self, e, mutate):
        return _const(self.full(e.ctype)), False

    def _lower_identifier(self, e, mutate):
        sym = e.symbol
        if not _tracked(sym):
            return _const(self.full(e.ctype)), False
        uid, full = sym.uid, self._range(sym)
        if "volatile" in sym.quals or e in self._unordered:
            return _const(full), False
        return (lambda env: env.get(uid, full)), False

    def _lower_constant(self, e, mutate):
        return _const(None if e.is_float else Interval(e.value, e.value)), False

    def _lower_assign(self, e, mutate):
        value, changes = self._lower(e.value, mutate)
        address = self._effects(operands(e.target), mutate)  # `op=` and `++` read it
        if address:
            value, changes = _before(value, address), True
        store = self._store(e.target, mutate)
        full = self.full(e.ctype)
        if store is None:
            return (lambda env: _converted(value(env), full)), changes

        def assign(env):
            v = value(env)
            store(env, v)
            return _converted(v, full)
        return assign, True

    def _lower_compound_assign(self, e, mutate):
        synth = placed(Binary(e.op, e.target, e.value), e)
        synth.ctype = e.ctype
        value, changes = self._lower(synth, mutate)
        full = self.full(e.ctype)
        store = self._store(e.target, mutate)
        if store is None:
            return (lambda env: _converted(value(env), full)), changes

        def update(env):
            v = _converted(value(env), full)
            store(env, v)
            return v
        return update, True

    def _lower_incdec(self, e, mutate):
        old, changes = self._lower(e.operand, mutate)
        kernel = _ARITH["+" if e.op == "++" else "-"]
        full, width = self.full(e.ctype), self._width(e.ctype)
        store = self._store(e.operand, mutate)
        prefix = e.prefix

        def step(env):
            a = old(env)
            new = full if a is None else kernel(a, ONE, full, width)
            if store is not None:
                store(env, new)
            return new if prefix else _converted(a, full)
        return step, changes or store is not None

    def _store(self, target: Expr, mutate: bool):
        """store(env, value) for a store into `target` once its address is
        computed, or None if it cannot change the state."""
        if not mutate:
            return None
        obj, pointer, _, _ = designate(target)
        if pointer is not None:
            # Through memory: forget whatever the pointer may alias.
            if not self.addr_taken:
                return None
            forget = _forget(self.addr_taken)
            return lambda env, v: forget(env)
        sym = sym_of(obj)
        if not _tracked(sym):
            return None  # a store into an untracked object or a part of one
        uid, full = sym.uid, self._range(sym)

        def assign(env, v):
            env[uid] = _converted(v, full)
        return assign

    def _lower_unary(self, e, mutate):
        inner, changes = self._lower(e.operand, mutate)
        op, full = e.op, self.full(e.ctype)
        if op == "!":
            return (lambda env: _not(inner(env))), changes
        if op == "-":
            def negate(env):
                iv = inner(env)
                return full if iv is None else _clamp(-iv.hi, -iv.lo, full)
            return negate, changes
        if op == "+":
            return (lambda env: _converted(inner(env), full)), changes

        def complement(env):  # ~
            iv = inner(env)
            return full if iv is None else _clamp(~iv.hi, ~iv.lo, full)
        return complement, changes

    def _lower_binary(self, e, mutate):
        op = e.op
        if op in ("&&", "||"):  # never in an item
            return self._lower_opaque(e, mutate)
        left, lchanges = self._lower(e.left, mutate)
        right, rchanges = self._lower(e.right, mutate)
        changes = lchanges or rchanges
        if op in _NEGATE:
            common = self._common_range(e)
            if common is not None:
                left, right = _converting(left, common), _converting(right, common)

            def compare(env):
                truth = _compare(op, left(env), right(env))
                return BOOL if truth is None else (ONE if truth else ZERO)
            return compare, changes
        kernel, full, width = _ARITH[op], self.full(e.ctype), self._width(e.ctype)

        def arith(env):
            a, b = left(env), right(env)
            if a is None or b is None:
                return full
            return kernel(a, b, full, width)
        return arith, changes

    def _lower_cast(self, e, mutate):
        inner, changes = self._lower(e.operand, mutate)
        full = self.full(e.ctype)
        return (lambda env: _converted(inner(env), full)), changes

    def _lower_call(self, e, mutate):
        steps = self._effects(operands(e), mutate)
        if mutate and self.addr_taken:
            steps.append(_forget(self.addr_taken))
        return _then(steps, self.full(e.ctype)), bool(steps)

    def _lower_operands(self, e, mutate):
        steps = self._effects(operands(e), mutate)
        return _then(steps, self.full(e.ctype)), bool(steps)


_LOWER = {
    Identifier: _AbstractEval._lower_identifier,
    Constant: _AbstractEval._lower_constant,
    Assign: _AbstractEval._lower_assign,
    CompoundAssign: _AbstractEval._lower_compound_assign,
    IncDec: _AbstractEval._lower_incdec,
    Unary: _AbstractEval._lower_unary,
    Binary: _AbstractEval._lower_binary,
    Cast: _AbstractEval._lower_cast,
    Call: _AbstractEval._lower_call,
    Deref: _AbstractEval._lower_operands,
    Index: _AbstractEval._lower_operands,
    Member: _AbstractEval._lower_operands,
    AddrOf: _AbstractEval._lower_operands,
    InitList: _AbstractEval._lower_operands,
    StringLiteral: _AbstractEval._lower_opaque,
    Sizeof: _AbstractEval._lower_opaque,
}


def _const(value):
    return lambda env: value


def _sequence(steps: list[ValueFn]) -> Callable[[Env], None]:
    if len(steps) == 1:
        return steps[0]

    def run(env):
        for step in steps:
            step(env)
    return run


def _before(value: ValueFn, steps: list[ValueFn]) -> ValueFn:
    """`value`'s result, computed before `steps` are applied."""
    run = _sequence(steps)

    def first(env):
        v = value(env)
        run(env)
        return v
    return first


def _then(steps: list[ValueFn], value) -> ValueFn:
    """Apply `steps` for their effects, then give `value`."""
    if not steps:
        return _const(value)
    run = _sequence(steps)

    def then(env):
        run(env)
        return value
    return then


def _forget(uids) -> Callable[[Env], None]:
    def forget(env):
        for uid in env.keys() & uids:
            del env[uid]
    return forget


def _not(iv: Interval | None) -> Interval:
    if iv is None:
        return BOOL
    if not iv.lo <= 0 <= iv.hi:
        return ZERO
    if iv.lo == iv.hi:
        return ONE
    return BOOL


# -- range operators: (a, b, range of the result type, its width) ---------------


def _add(a, b, full, width):
    return _clamp(a.lo + b.lo, a.hi + b.hi, full)


def _sub(a, b, full, width):
    return _clamp(a.lo - b.hi, a.hi - b.lo, full)


def _mul(a, b, full, width):
    corners = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return _clamp(min(corners), max(corners), full)


def _div(a, b, full, width):
    if b.contains(0):
        return full
    corners = [truncating_divmod(x, y)[0] for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return _clamp(min(corners), max(corners), full)


def _mod(a, b, full, width):
    if b.contains(0):
        return full
    sa, sb = a.singleton(), b.singleton()
    if sa is not None and sb is not None:
        r = truncating_divmod(sa, sb)[1]
        return _clamp(r, r, full)
    m = max(abs(b.lo), abs(b.hi)) - 1
    return _clamp(-m if a.lo < 0 else 0, m if a.hi > 0 else 0, full)


def _shl(a, b, full, width):
    if b.lo < 0 or b.hi >= width:
        return full
    corners = (a.lo << b.lo, a.lo << b.hi, a.hi << b.lo, a.hi << b.hi)
    return _clamp(min(corners), max(corners), full)


def _shr(a, b, full, width):
    if b.lo < 0 or b.hi >= width or a.lo < 0:
        return full  # >> of negative is impl-defined
    return _clamp(a.lo >> b.hi, a.hi >> b.lo, full)


def _and(a, b, full, width):
    if a.lo == a.hi and b.lo == b.hi:
        return _clamp(a.lo & b.lo, a.lo & b.lo, full)
    if a.lo >= 0 and b.lo >= 0:
        return _clamp(0, min(a.hi, b.hi), full)
    return full


def _or(a, b, full, width):
    if a.lo == a.hi and b.lo == b.hi:
        return _clamp(a.lo | b.lo, a.lo | b.lo, full)
    return _nonnegative_bits(a, b, full)


def _xor(a, b, full, width):
    if a.lo == a.hi and b.lo == b.hi:
        return _clamp(a.lo ^ b.lo, a.lo ^ b.lo, full)
    return _nonnegative_bits(a, b, full)


def _nonnegative_bits(a, b, full):
    """`a | b` or `a ^ b` of non-singleton operands."""
    if a.lo >= 0 and b.lo >= 0:
        return _clamp(0, _next_pow2_mask(max(a.hi, b.hi)), full)
    return full


_ARITH = {
    "+": _add, "-": _sub, "*": _mul, "/": _div, "%": _mod,
    "<<": _shl, ">>": _shr,
    "&": _and, "|": _or, "^": _xor,
}


# -- branch reasoning --------------------------------------------------------------

_NEGATE = {"==": "!=", "!=": "==", "<": ">=", ">": "<=", "<=": ">", ">=": "<"}
_FLIP = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "==", "!=": "!="}


def _refine(env: Env, op: str, lv, rv, lvar, rvar) -> Env | None:
    """`env` where `left op right` holds, given both sides' values; None if it cannot."""
    if _compare(op, lv, rv) is False:
        return None
    out = env
    if lvar is not None and rv is not None:
        out = _meet_var(out, env, lvar, _bound_for(op, rv))
        if out is None:
            return None
    if rvar is not None and lv is not None:
        out = _meet_var(out, env, rvar, _bound_for(_FLIP[op], lv))
    return out


def _meet_var(out: Env, env: Env, var, bound: Interval | None) -> Env | None:
    """`out` with `var` met with `bound`; copies `env` before the first change."""
    if bound is None:
        return out
    uid, full, volatile = var
    refined = (full if volatile else out.get(uid, full)).meet(bound)
    if refined is None:
        return None
    if out.get(uid) != refined:
        if out is env:
            out = dict(env)
        out[uid] = refined
    return out


def _nonzero(env: Env, uid: int, iv: Interval) -> Env | None:
    if iv.lo == iv.hi == 0:
        return None
    if iv.lo == 0:
        return _with(env, uid, Interval(1, iv.hi))
    if iv.hi == 0 and iv.lo < 0:
        return _with(env, uid, Interval(iv.lo, -1))
    return env


def _zero(env: Env, uid: int, iv: Interval) -> Env | None:
    if not iv.lo <= 0 <= iv.hi:
        return None
    return _with(env, uid, ZERO)


def _with(env: Env, uid: int, iv: Interval) -> Env:
    if env.get(uid) == iv:
        return env
    out = dict(env)
    out[uid] = iv
    return out


def _holds(outer: Interval | None, inner: Interval) -> bool:
    """Whether range `outer` holds every value of range `inner`."""
    return outer is not None and outer.lo <= inner.lo and inner.hi <= outer.hi


def _by_value(env: Env, iv: Interval | None) -> tuple[Env | None, Env | None]:
    """(true-edge state, false-edge state) of a condition whose value is `iv`."""
    if iv is None:
        return env, env
    return (None if iv.lo == iv.hi == 0 else env), (env if iv.lo <= 0 <= iv.hi else None)


def _bound_for(op: str, other: Interval) -> Interval | None:
    big = 1 << 70
    if op == "==":
        return other
    if op == "<":
        return Interval(-big, other.hi - 1)
    if op == "<=":
        return Interval(-big, other.hi)
    if op == ">":
        return Interval(other.lo + 1, big)
    if op == ">=":
        return Interval(other.lo, big)
    return None  # !=: endpoint trimming is below interval precision


def _compare(op: str, a: Interval | None, b: Interval | None) -> bool | None:
    """Definite comparison outcome, or None when both are possible."""
    if a is None or b is None:
        return None
    if op == "<":
        if a.hi < b.lo:
            return True
        if a.lo >= b.hi:
            return False
        return None
    if op == "<=":
        if a.hi <= b.lo:
            return True
        if a.lo > b.hi:
            return False
        return None
    if op == ">":
        r = _compare("<=", a, b)
        return None if r is None else not r
    if op == ">=":
        r = _compare("<", a, b)
        return None if r is None else not r
    if op == "==":
        sa, sb = a.singleton(), b.singleton()
        if sa is not None and sa == sb:
            return True
        if a.hi < b.lo or b.hi < a.lo:
            return False
        return None
    if op == "!=":
        r = _compare("==", a, b)
        return None if r is None else not r
    return None


def _next_pow2_mask(v: int) -> int:
    m = 1
    while m <= v:
        m <<= 1
    return m - 1


def _join_env(a: Env, b: Env) -> Env:
    """Pointwise join; a variable missing on one side is at its type range."""
    out: Env = {}
    for uid in a.keys() & b.keys():
        x, y = a[uid], b[uid]
        if x.lo <= y.lo and y.hi <= x.hi:
            out[uid] = x
        elif y.lo <= x.lo and x.hi <= y.hi:
            out[uid] = y
        else:
            out[uid] = x.join(y)
    return out


def _widen_env(old: Env, new: Env, bounds: dict[int, Interval]) -> Env:
    out: Env = {}
    for uid in set(old) & set(new):
        o, n = old[uid], new[uid]
        full = bounds.get(uid)
        lo = o.lo if n.lo >= o.lo else (full.lo if full else n.lo)
        hi = o.hi if n.hi <= o.hi else (full.hi if full else n.hi)
        out[uid] = Interval(lo, hi)
    return out


def interval_analysis(cfg: Cfg, model: IntegerModel = DEFAULT_MODEL) -> IntervalResult:
    """Run the analysis until `dead_edges` and `outcomes` are final (see
    `IntervalResult`): to its fixpoint only if some reachable branch block
    is never visited or an edge of an open one stays dead."""
    ev = _AbstractEval(model, cfg.addr_taken)

    # The lowered blocks live as long as the solver: kept for the whole
    # run, closures would outweigh the states they replace.
    codes: dict[int, _BlockCode] = {}
    # Per block, what its latest visit saw: the state before the terminator
    # and, for a `TBranch`, the successors its edges gave a state.
    term_env: dict[int, Env] = {}
    live: dict[int, set[int]] = {}
    # The reachable branch blocks whose edges a later visit may still make
    # live: not visited yet, or an edge no visit has given a state. The
    # states only grow, so an edge once live stays live.
    unsettled = {b.id for b in cfg.blocks if b.reachable and type(b.term) is TBranch}

    def transfer(bid: int, entry: Env):
        code = codes.get(bid)
        if code is None:
            code = codes[bid] = ev.lower_block(cfg.blocks[bid])
        env = entry
        if code.items is not None:
            env = dict(entry)
            code.items(env)
        term_env[bid] = env
        if code.term is not None:
            env = dict(env)
            code.term(env)
        out = code.edges(env)
        if code.branch:
            out = list(out)
            targets = live[bid] = {target for target, state in out if state is not None}
            if len(targets) == len(out):
                unsettled.discard(bid)
        return out

    # The empty entry map is "all top": parameters and locals enter the
    # environment lazily at their full type range.
    solver = Solver(
        cfg, {cfg.entry: {}}, transfer, _join_env,
        budget=192 * len(cfg.blocks) + 1024, analysis="interval analysis",
        widen=lambda old, new: _widen_env(old, new, ev.bounds),
    )
    solver.run(until=lambda: not unsettled)
    return IntervalResult(model, cfg, ev, solver, term_env, live)
