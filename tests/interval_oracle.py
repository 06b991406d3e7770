"""The original AST-walking interval analysis, kept as a test oracle.

`ccomply.flow.intervals` lowers each expression to closures once per CFG;
on every function it must give exactly this evaluator's per-point states,
terminator states, dead edges, statement outcomes, block visits and
widenings, and the same `eval_expr` answers (see
`test_interval_oracle.py`). The code is the evaluator as it was before the
lowering, unchanged but for `IntervalResult.widenings`, which counts the
`_widen_env` calls that moved a bound, for one rule of branches, for one
rule of comparisons, for four evaluation rules that follow C99 as
`ccomply.flow.effects` states it, and for one rule of operand order.

Branches are decided by one function, `_AbstractEval.branch`, on the
state before the terminator; the solver sends its states, and the final
pass takes the dead edges and the outcomes from it at the fixpoint. The
AST-level `truth` and its rules for `&&`, `||`, `!`, `?:` and `,` are gone:
- a condition that can change the state (`changes_state`: it stores into
  a tracked variable or, when some local has its address taken, calls or
  stores through a pointer) is evaluated once with its stores; both edges
  take the state after them, the side its value excludes takes None, and
  no variable is refined;
- any other condition narrows as before, except that a scalar condition,
  and a switch, see a variable through casts only when each cast's type
  holds every value of the variable's type, and a condition that is no
  comparison and tests no such variable excludes the side its value rules
  out;
- an `if`, `while`, `do` or `for` statement's outcome is live when an edge
  into its true (false) target in `Cfg.conditions` is live;
- the evaluator keeps the symbols it meets (`symmap`), the widening bounds'
  source, for every evaluation, a narrowed variable included.

The rule of comparisons: an integer comparison converts both operand
ranges to their common type before it compares them (C99 6.5.8p3,
6.5.9p4), a range the common type cannot hold becoming that type's whole
range (`_common_range`, `_to_common`); it refines a variable only when
the common type holds every value of the variable's type. So `x < 5u`
with `int x = -3` compares in `unsigned int`, where `x` is 4294967293.

The four evaluation rules:
- only local automatic integer objects are tracked; any other variable,
  a static local included, is always at its type range (C99 6.2.4p3), and
  a call forgets only the address-taken locals;
- a store forgets the address-taken locals only when its target goes
  through a pointer (`_through_pointer`, its own test);
- the operand of `&` and the elements of an initializer list are
  evaluated (C99 6.5.3.2p3, 6.7.8p23);
- `op=`, `++` and `--` compute their target's address once, in their read
  of the target (C99 6.5.16.2p3, 6.5.2.4p2); only `=` evaluates the
  address of its target apart from the store.

The rule of operand order: C leaves the order in which a full
expression's operands are evaluated unspecified (C99 6.5p3), so a call in
it may change an address-taken local before or after a read of the local;
only the operands of a call are read before it (6.5.2.2p10). While the
evaluator is in a full expression that calls a function (an item, an
initializer, or a whole condition, both sides of a comparison included),
a read of an address-taken local that is not in the operands of every
call of the full expression gives its type range, the join of its values
before and after the call (`full_expression`, `unordered`). `eval_expr`
reads that way when it is told the full expression that holds the queried
one.
Nothing under `src/` imports it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ccomply.flow.cfg import Cfg, DeclItem, TBranch, TSwitch
from ccomply.flow.solver import solve
from ccomply.parsing.astnodes import (
    AddrOf, Assign, Binary, Call, Cast, Comma, CompoundAssign, Conditional,
    Constant, Deref, Expr, Identifier, IncDec, Index, InitList, Member, Node,
    Sizeof, StringLiteral, Unary, placed, walk_operands,
)
from ccomply.sema.symbols import Symbol
from ccomply.sema.typesys import (
    DEFAULT_MODEL, TK, IntegerModel, TypeDesc, is_integer, type_range,
    usual_arith_conversion,
)

from consteval_oracle import const_eval


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


def _type_interval(t: TypeDesc | None, model: IntegerModel) -> Interval | None:
    if t is None or not is_integer(t):
        return None
    lo, hi = type_range(t, model)
    return Interval(lo, hi)


def _clamp(lo: int, hi: int, t: TypeDesc | None, model: IntegerModel) -> Interval | None:
    full = _type_interval(t, model)
    if full is None:
        return None
    if lo < full.lo or hi > full.hi:
        return full  # wraparound / overflow degrades to the type range
    return Interval(lo, hi)


def _to_common(iv: Interval | None, common: Interval | None) -> Interval | None:
    """`iv` converted to a comparison's common type, whose range is `common`."""
    if common is None:
        return iv
    if iv is None or not _holds(common, iv):
        return common
    return iv


def _holds(outer: Interval | None, inner: Interval) -> bool:
    """Whether `outer` holds every value of `inner`; None holds everything."""
    return outer is None or (outer.lo <= inner.lo and inner.hi <= outer.hi)


def _tracked(sym) -> bool:
    return isinstance(sym, Symbol) and sym.is_local_object and is_integer(sym.type)


@dataclass
class IntervalResult:
    model: IntegerModel
    pre: dict[tuple[int, int], Env] = field(default_factory=dict)
    term_env: dict[int, Env] = field(default_factory=dict)
    dead_edges: set[tuple[int, int]] = field(default_factory=set)
    # statement -> (an edge into its true target is live, one into its false target is)
    outcomes: dict[Node, tuple[bool, bool]] = field(default_factory=dict)
    iterations: int = 0
    widenings: int = 0
    _evaluator: "_AbstractEval | None" = None

    def env_at(self, bid: int, idx: int) -> Env:
        return self.pre.get((bid, idx), {})

    def eval_expr(self, expr: Expr, env: Env, within: Expr | None = None) -> Interval | None:
        assert self._evaluator is not None
        self._evaluator.full_expression(within)
        return self._evaluator.eval(expr, dict(env), mutate=False)

    def var_interval(self, env: Env, sym: Symbol) -> Interval | None:
        if not _tracked(sym):
            return None
        iv = env.get(sym.uid)
        return iv if iv is not None else _type_interval(sym.type, self.model)


class _AbstractEval:
    def __init__(self, model: IntegerModel, addr_taken: set[int]):
        self.model = model
        self.addr_taken = addr_taken
        self.symmap: dict[int, Symbol] = {}
        # The ids of the reads that give their type range, in the full
        # expression being evaluated.
        self.unordered: set[int] = set()

    def full_expression(self, e: Expr | None) -> None:
        """Evaluate what follows as (part of) full expression `e`."""
        self.unordered = set()
        if e is None:
            return
        before_every_call = None
        for call in [n for n in walk_operands(e) if isinstance(n, Call)]:
            inside = {id(n) for n in walk_operands(call) if n is not call}
            before_every_call = inside if before_every_call is None else before_every_call & inside
        if before_every_call is None:
            return
        self.unordered = {
            id(n) for n in walk_operands(e)
            if isinstance(n, Identifier) and _tracked(n.symbol)
            and n.symbol.uid in self.addr_taken and id(n) not in before_every_call
        }

    # -- environment helpers -------------------------------------------------

    def var(self, env: Env, sym: Symbol) -> Interval | None:
        if not _tracked(sym):
            return None
        if "volatile" in sym.quals:
            return _type_interval(sym.type, self.model)
        iv = env.get(sym.uid)
        return iv if iv is not None else _type_interval(sym.type, self.model)

    # -- evaluation ------------------------------------------------------------

    def eval(self, e: Expr, env: Env, mutate: bool = True) -> Interval | None:
        return self._eval(e, env, mutate, self.symmap)

    def _eval(self, e: Expr, env: Env, mutate: bool, symmap: dict[int, Symbol]) -> Interval | None:
        model = self.model

        cv = const_eval(e, model)
        if cv.is_constant:
            return Interval(cv.value, cv.value)

        if isinstance(e, Identifier):
            sym = e.symbol
            if _tracked(sym):
                symmap[sym.uid] = sym
                if id(e) in self.unordered:
                    return _type_interval(sym.type, model)
                return self.var(env, sym)
            return _type_interval(e.ctype, model)

        if isinstance(e, Constant):
            if e.is_float:
                return None
            return Interval(e.value, e.value)

        if isinstance(e, Assign):
            value = self._eval(e.value, env, mutate, symmap)
            for child in _eval_children(e.target):  # the target's address
                self._eval(child, env, mutate, symmap)
            self._eval_store(e.target, value, e.value, env, mutate, symmap)
            return self._converted(value, e.ctype)

        if isinstance(e, CompoundAssign):
            synth = placed(Binary(e.op, e.target, e.value), e)
            synth.ctype = e.ctype
            value = self._eval(synth, env, mutate, symmap)
            value = self._converted(value, e.ctype)
            self._eval_store(e.target, value, None, env, mutate, symmap)
            return value

        if isinstance(e, IncDec):
            old = self._eval(e.operand, env, mutate, symmap)
            one = Interval(1, 1)
            op = "+" if e.op == "++" else "-"
            new = self._arith(op, old, one, e.ctype)
            self._eval_store(e.operand, new, None, env, mutate, symmap)
            return new if e.prefix else self._converted(old, e.ctype)

        if isinstance(e, Unary):
            inner = self._eval(e.operand, env, mutate, symmap)
            if e.op == "!":
                if inner is None:
                    return Interval(0, 1)
                if not inner.contains(0):
                    return Interval(0, 0)
                if inner.singleton() == 0:
                    return Interval(1, 1)
                return Interval(0, 1)
            if inner is None:
                return _type_interval(e.ctype, model)
            if e.op == "-":
                return _clamp(-inner.hi, -inner.lo, e.ctype, model)
            if e.op == "+":
                return self._converted(inner, e.ctype)
            if e.op == "~":
                return _clamp(~inner.hi, ~inner.lo, e.ctype, model)
            return _type_interval(e.ctype, model)

        if isinstance(e, Binary):
            return self._binary(e, env, mutate, symmap)

        if isinstance(e, Cast):
            inner = self._eval(e.operand, env, mutate, symmap)
            if inner is None:
                return _type_interval(e.ctype, model)
            return _clamp(inner.lo, inner.hi, e.ctype, model)

        if isinstance(e, Call):
            self._eval(e.callee, env, mutate, symmap)
            for a in e.args:
                self._eval(a, env, mutate, symmap)
            if mutate:
                for uid in list(env):
                    if uid in self.addr_taken:
                        del env[uid]
            return _type_interval(e.ctype, model)

        if isinstance(e, (Deref, Index, Member)):
            for child in _eval_children(e):
                self._eval(child, env, mutate, symmap)
            return _type_interval(e.ctype, model)

        if isinstance(e, AddrOf):
            self._eval(e.operand, env, mutate, symmap)
            return _type_interval(e.ctype, model)

        if isinstance(e, InitList):
            for element in e.elements:
                self._eval(element, env, mutate, symmap)
            return _type_interval(e.ctype, model)

        if isinstance(e, (StringLiteral, Sizeof)):
            return _type_interval(e.ctype, model)

        if isinstance(e, (Comma, Conditional)):
            # AST-level queries only (lowered items never contain these).
            if isinstance(e, Comma):
                self._eval(e.left, env, False, symmap)
                return self._eval(e.right, env, False, symmap)
            then = self._eval(e.then, env, False, symmap)
            other = self._eval(e.other, env, False, symmap)
            if then is None or other is None:
                return _type_interval(e.ctype, model)
            return then.join(other)

        return _type_interval(e.ctype, model)

    def _eval_store(self, target: Expr, value: Interval | None, value_expr, env: Env,
                    mutate: bool, symmap: dict[int, Symbol]) -> None:
        """Store `value` into `target`, whose address is already computed."""
        if isinstance(target, Identifier):
            sym = target.symbol
            if _tracked(sym):
                symmap[sym.uid] = sym
                if mutate:
                    converted = self._converted(value, sym.type)
                    if converted is not None:
                        env[sym.uid] = converted
                    else:
                        env.pop(sym.uid, None)
            return
        # Store through memory: havoc whatever the pointer may alias. A
        # store into a part of a named object reaches no other object.
        if mutate and _through_pointer(target):
            for uid in list(env):
                if uid in self.addr_taken:
                    del env[uid]

    def _common_range(self, e: Binary) -> Interval | None:
        """The range of the common type of an integer comparison's operands
        (C99 6.3.1.8p1), or None when an operand is no integer."""
        lt, rt = e.left.ctype, e.right.ctype
        if lt is None or rt is None or not (is_integer(lt) and is_integer(rt)):
            return None
        return _type_interval(usual_arith_conversion(lt, rt, self.model), self.model)

    def _converted(self, iv: Interval | None, t: TypeDesc | None) -> Interval | None:
        if iv is None:
            return _type_interval(t, self.model)
        return _clamp(iv.lo, iv.hi, t, self.model)

    def _binary(self, e: Binary, env: Env, mutate: bool, symmap) -> Interval | None:
        op = e.op
        left = self._eval(e.left, env, mutate, symmap)
        right = self._eval(e.right, env, mutate, symmap)
        if op in ("&&", "||"):
            return Interval(0, 1)
        if op in ("==", "!=", "<", ">", "<=", ">="):
            common = self._common_range(e)
            truth = _compare(op, _to_common(left, common), _to_common(right, common))
            return Interval(0, 1) if truth is None else Interval(int(truth), int(truth))
        if left is None or right is None:
            return _type_interval(e.ctype, self.model)
        return self._arith(op, left, right, e.ctype)

    def _arith(self, op: str, a: Interval | None, b: Interval | None,
               t: TypeDesc | None) -> Interval | None:
        model = self.model
        if a is None or b is None:
            return _type_interval(t, model)
        if op == "+":
            return _clamp(a.lo + b.lo, a.hi + b.hi, t, model)
        if op == "-":
            return _clamp(a.lo - b.hi, a.hi - b.lo, t, model)
        if op == "*":
            corners = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
            return _clamp(min(corners), max(corners), t, model)
        if op == "/":
            if b.contains(0):
                return _type_interval(t, model)
            corners = [_c_div(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
            return _clamp(min(corners), max(corners), t, model)
        if op == "%":
            if b.contains(0):
                return _type_interval(t, model)
            m = max(abs(b.lo), abs(b.hi)) - 1
            lo = -m if a.lo < 0 else 0
            hi = m if a.hi > 0 else 0
            sa, sb = a.singleton(), b.singleton()
            if sa is not None and sb is not None:
                r = _c_mod(sa, sb)
                return _clamp(r, r, t, model)
            return _clamp(lo, hi, t, model)
        if op in ("<<", ">>"):
            width = t.width if t is not None and is_integer(t) else model.int_bits
            if b.lo < 0 or b.hi >= width:
                return _type_interval(t, model)
            if op == "<<":
                corners = [a.lo << b.lo, a.lo << b.hi, a.hi << b.lo, a.hi << b.hi]
                return _clamp(min(corners), max(corners), t, model)
            if a.lo < 0:
                return _type_interval(t, model)  # >> of negative is impl-defined
            return _clamp(a.lo >> b.hi, a.hi >> b.lo, t, model)
        if op in ("&", "|", "^"):
            sa, sb = a.singleton(), b.singleton()
            if sa is not None and sb is not None:
                table = {"&": sa & sb, "|": sa | sb, "^": sa ^ sb}
                return _clamp(table[op], table[op], t, model)
            if a.lo >= 0 and b.lo >= 0:
                if op == "&":
                    return _clamp(0, min(a.hi, b.hi), t, model)
                bound = _next_pow2_mask(max(a.hi, b.hi))
                return _clamp(0, bound, t, model)
            return _type_interval(t, model)
        return _type_interval(t, model)

    # -- branch reasoning --------------------------------------------------------

    def branch(self, env: Env, cond: Expr) -> tuple[Env | None, Env | None]:
        """(true-edge state, false-edge state) of a branch on `cond` from
        `env`, the state before it; None = edge infeasible."""
        if self.changes_state(cond):
            out = dict(env)
            iv = self.eval(cond, out, mutate=True)
            if iv is None:
                return out, out
            return (None if iv.singleton() == 0 else out), (out if iv.contains(0) else None)
        return self.narrow(env, cond, True), self.narrow(env, cond, False)

    def changes_state(self, e: Expr) -> bool:
        """Whether evaluating `e` can change an environment."""
        for node in walk_operands(e):
            if isinstance(node, Call) and self.addr_taken:
                return True
            if isinstance(node, (Assign, CompoundAssign, IncDec)):
                target = node.operand if isinstance(node, IncDec) else node.target
                if isinstance(target, Identifier) and _tracked(target.symbol):
                    return True
                if self.addr_taken and _through_pointer(target):
                    return True
        return False

    def tested_var(self, e: Expr) -> Symbol | None:
        """The tracked variable `e` is, seen through casts whose types hold
        every value of the variable's type."""
        casts = []
        while isinstance(e, Cast):
            casts.append(_type_interval(e.ctype, self.model))
            e = e.operand
        if not isinstance(e, Identifier) or not _tracked(e.symbol):
            return None
        full = _type_interval(e.symbol.type, self.model)
        if all(c is not None and c.lo <= full.lo and full.hi <= c.hi for c in casts):
            return e.symbol
        return None

    def narrow(self, env: Env, cond: Expr, taken: bool) -> Env | None:
        """Refine `env` along a branch edge; None = edge infeasible."""
        out = dict(env)
        if not self._narrow_into(out, cond, taken):
            return None
        return out

    def _narrow_into(self, env: Env, cond: Expr, taken: bool) -> bool:
        if isinstance(cond, Unary) and cond.op == "!":
            return self._narrow_into(env, cond.operand, not taken)
        if isinstance(cond, Binary) and cond.op in ("==", "!=", "<", ">", "<=", ">="):
            op = cond.op
            if not taken:
                op = {"==": "!=", "!=": "==", "<": ">=", ">": "<=",
                      "<=": ">", ">=": "<"}[op]
            return self._narrow_compare(env, op, cond.left, cond.right, self._common_range(cond))
        # Bare scalar condition: x / (x) etc.
        sym = self.tested_var(cond)
        if sym is None:
            iv = self.eval(cond, dict(env), mutate=False)
            return iv is None or (iv.singleton() != 0 if taken else iv.contains(0))
        iv = self.var(env, sym)
        self.symmap[sym.uid] = sym
        if taken:
            if iv.singleton() == 0:
                return False
            if iv.lo == 0:
                env[sym.uid] = Interval(1, iv.hi) if iv.hi >= 1 else iv
            elif iv.hi == 0 and iv.lo < 0:
                env[sym.uid] = Interval(iv.lo, -1)
        else:
            refined = iv.meet(Interval(0, 0))
            if refined is None:
                return False
            env[sym.uid] = refined
        return True

    def _narrow_compare(self, env: Env, op: str, left: Expr, right: Expr,
                        common: Interval | None) -> bool:
        lv = _to_common(self.eval(left, dict(env), mutate=False), common)
        rv = _to_common(self.eval(right, dict(env), mutate=False), common)
        truth = _compare(op, lv, rv)
        if truth is False:
            return False
        for var_side, other_iv, var_op in (
            (left, rv, op),
            (right, lv, _flip(op)),
        ):
            target = var_side  # no narrowing through a cast
            if (
                isinstance(target, Identifier)
                and _tracked(target.symbol)
                and other_iv is not None
                and _holds(common, _type_interval(target.symbol.type, self.model))
            ):
                sym = target.symbol
                current = self.var(env, sym)
                if current is None:
                    continue
                bound = _bound_for(var_op, other_iv)
                if bound is None:
                    continue
                refined = current.meet(bound)
                if refined is None:
                    return False
                env[sym.uid] = refined
                self.symmap[sym.uid] = sym
        return True


def _through_pointer(e: Expr) -> bool:
    """Does the lvalue `e` go through a pointer? `*` and `->` do, and so
    does a subscript neither of whose operands is an array (`p[i]`, `i[p]`)."""
    while True:
        if isinstance(e, Deref) or isinstance(e, Member) and e.arrow:
            return True
        if isinstance(e, Member):
            e = e.base
        elif isinstance(e, Index):
            arrays = [x for x in (e.base, e.index) if x.ctype is not None and x.ctype.kind is TK.ARRAY]
            if not arrays:
                return True
            e = arrays[0]
        else:
            return False


def _eval_children(e: Expr) -> list[Expr]:
    if isinstance(e, Deref):
        return [e.operand]
    if isinstance(e, Index):
        return [e.base, e.index]
    if isinstance(e, Member):
        return [e.base]
    return []


def _flip(op: str) -> str:
    return {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "==", "!=": "!="}[op]


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
    if op == "!=":
        return None  # endpoint trimming is below interval precision
    return None


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


def _c_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _c_mod(a: int, b: int) -> int:
    return a - _c_div(a, b) * b


def _join_env(a: Env, b: Env) -> Env:
    out: Env = {}
    for uid in set(a) & set(b):
        out[uid] = a[uid].join(b[uid])
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
    result = IntervalResult(model)
    ev = _AbstractEval(model, cfg.addr_taken)
    result._evaluator = ev
    symmap = ev.symmap

    def transfer_block(b, entry: Env, pre: dict | None = None) -> Env:
        env = dict(entry)
        for idx, item in enumerate(b.items):
            if pre is not None:
                pre[(b.id, idx)] = dict(env)
            ev.full_expression(item.init if isinstance(item, DeclItem) else item.expr)
            if isinstance(item, DeclItem):
                sym = item.symbol
                if item.init is not None:
                    value = ev.eval(item.init, env, mutate=True)
                    if _tracked(sym):
                        symmap[sym.uid] = sym
                        converted = ev._converted(value, sym.type)
                        if converted is not None:
                            env[sym.uid] = converted
            else:
                ev.eval(item.expr, env, mutate=True)
        if pre is not None:
            pre[(b.id, len(b.items))] = dict(env)
        return env

    bounds: dict[int, Interval] = {}

    def note_bounds(env: Env) -> None:
        for uid in env:
            if uid not in bounds:
                sym = symmap.get(uid)
                if sym is not None:
                    full = _type_interval(sym.type, model)
                    if full is not None:
                        bounds[uid] = full

    def edges(b, env: Env):
        """(successor, state or None) pairs from `env`, the state before b's terminator."""
        term = b.term
        ev.full_expression(b.term_expr)
        if isinstance(term, TBranch) and term.const_value is None:
            return list(zip((term.true_target, term.false_target), ev.branch(env, term.cond)))
        env = dict(env)
        if b.term_expr is not None:
            ev.eval(b.term_expr, env, mutate=True)
        if not isinstance(term, TSwitch):
            return [(target, dict(env)) for target, _kind in b.succs]
        out = []
        sym = ev.tested_var(term.expr)
        for value, target in term.cases:
            out_env = dict(env)
            if sym is not None:
                refined = ev.var(out_env, sym).meet(Interval(value, value))
                if refined is None:
                    continue
                out_env[sym.uid] = refined
            out.append((target, out_env))
        out.append((term.default_target, dict(env)))
        return out

    def transfer(bid: int, entry: Env):
        b = cfg.block(bid)
        out = edges(b, transfer_block(b, entry))
        for _, env in out:
            if env is not None:
                note_bounds(env)
        return out

    def widen(old: Env, new: Env) -> Env:
        out = _widen_env(old, new, bounds)
        if out != new:
            result.widenings += 1
        return out

    # The empty entry map is "all top": parameters and locals enter the
    # environment lazily at their full type range.
    in_states, result.iterations = solve(
        cfg, {cfg.entry: {}}, transfer, _join_env,
        budget=192 * len(cfg.blocks) + 1024, analysis="interval analysis",
        widen=widen,
    )

    # Final pass: per-point pre-states, terminator states, and the dead
    # edges and statement outcomes of the branch function at the fixpoint.
    for bid, entry_env in in_states.items():
        b = cfg.block(bid)
        env = transfer_block(b, entry_env, result.pre)
        result.term_env[bid] = dict(env)
        term = b.term
        if not isinstance(term, TBranch):
            continue
        live = {target for target, state in edges(b, env) if state is not None}
        if term.const_value is None:
            for target in (term.true_target, term.false_target):
                if target not in live:
                    result.dead_edges.add((bid, target))
        if term.node in cfg.conditions:
            true_t, false_t = cfg.conditions[term.node]
            was = result.outcomes.get(term.node, (False, False))
            result.outcomes[term.node] = (was[0] or true_t in live, was[1] or false_t in live)
    return result
