"""C integer operator semantics over (value, type) pairs.

The one kernel behind the constant values the resolver records and `#if`.
An operand is a value and its integer type, the value in the type's range.
Operators apply the integer promotions (C99 6.3.1.1p2) and, except shifts,
the usual arithmetic conversions (6.3.1.8p1), comparisons included
(6.5.8p3, 6.5.9p4). A result wraps to the two's-complement width of its
type; `/` truncates toward zero (6.5.5p6).
A shift has the promoted left operand's type; a count that is negative or not
less than its width is out of range, and a signed left shift of a negative
value, or whose product does not fit, overflows (6.5.7p3-4). `#if` runs the
kernel under a model whose `int` is 64 bits wide, so that every operand acts
as `intmax_t` or `uintmax_t` (6.10.1p4).

A result has at most one flaw. Signed overflow keeps the wrapped value;
division by zero and a shift out of range leave no value. An unsigned result
never overflows (6.2.5p9), so `-1u` has no flaw.
"""
from __future__ import annotations

import operator
from typing import NamedTuple

from ccomply.sema.typesys import (
    TK, IntegerModel, TypeDesc, convert_int, integer_promote, make_int,
    usual_arith_conversion,
)

_ARITH = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
}
# Operators whose result is 0 or 1 of type int.
_TRUTH = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt, ">": operator.gt,
    "<=": operator.le, ">=": operator.ge,
    "&&": lambda a, b: a != 0 and b != 0, "||": lambda a, b: a != 0 or b != 0,
}


class IntResult(NamedTuple):
    value: int | None       # None when the flaw leaves no value
    type: TypeDesc
    flaw: str | None = None  # "signed overflow", "division by zero", "shift count out of range"


def unary_type(op: str, t: TypeDesc, model: IntegerModel) -> TypeDesc:
    """The type of `op x` for an `x` of type `t`."""
    return make_int(model.int_bits, True) if op == "!" else integer_promote(t, model)


def result_type(op: str, left: TypeDesc, right: TypeDesc, model: IntegerModel) -> TypeDesc:
    """The type of `x op y` for an `x` of type `left` and a `y` of type `right`."""
    if op in _TRUTH:
        return make_int(model.int_bits, True)
    if op == "<<" or op == ">>":
        return integer_promote(left, model)
    return usual_arith_conversion(left, right, model)


def truncating_divmod(a: int, b: int) -> tuple[int, int]:
    """C's `a / b` and `a % b` as mathematical integers; `b` is not 0."""
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        q = -q
    return q, a - q * b


def unary(op: str, operand: tuple[int, TypeDesc], model: IntegerModel) -> IntResult:
    """`op x` for `op` one of `+ - ~ !`."""
    value, t = operand
    t = unary_type(op, t, model)
    if op == "!":
        return IntResult(int(value == 0), t)
    return _wrapped(-value if op == "-" else ~value if op == "~" else value, t, model)


def binary(op: str, left: tuple[int, TypeDesc], right: tuple[int, TypeDesc],
           model: IntegerModel) -> IntResult:
    """`x op y`; `&&` and `||` with both operands evaluated."""
    (a, ta), (b, tb) = left, right
    t = result_type(op, ta, tb, model)
    if op == "<<" or op == ">>":
        if not 0 <= b < t.width:
            return IntResult(None, t, "shift count out of range")
        if op == ">>":
            return IntResult(a >> b, t)
        result = _wrapped(a << b, t, model)
        return result._replace(flaw="signed overflow") if a < 0 else result
    common = usual_arith_conversion(ta, tb, model)
    a, b = convert_int(a, common, model)[0], convert_int(b, common, model)[0]
    if op in _TRUTH:
        return IntResult(int(_TRUTH[op](a, b)), t)
    if op == "/" or op == "%":
        if b == 0:
            return IntResult(None, t, "division by zero")
        return _wrapped(truncating_divmod(a, b)[op == "%"], t, model)
    return _wrapped(_ARITH[op](a, b), t, model)


def _wrapped(raw: int, t: TypeDesc, model: IntegerModel) -> IntResult:
    value, changed = convert_int(raw, t, model)
    return IntResult(value, t, "signed overflow" if changed and t.kind is TK.INT else None)
