"""The recursive constant evaluator the resolver replaced: a test oracle.

`const_eval` as it stood before the resolver recorded each expression's
C99 6.6 value while typing it. `test_dataflow_oracle` compares the recorded
value and `behavior` tag of every expression with what this gives, and
`interval_oracle` folds with it. Nothing under `src/` imports it.

Evaluation is total: anything outside the constant subset yields
not-constant rather than an error. The integer kernel (`intarith`)
computes every operator under the given `IntegerModel`. Each flaw it
reports tags the node as undefined behavior: signed overflow keeps the
wrapped value; division by zero or a shift out of range is not constant.
"""
from __future__ import annotations

from typing import NamedTuple

from ccomply.parsing.astnodes import (
    Binary, Cast, Conditional, Constant, Expr, Identifier, Sizeof, Unary,
)
from ccomply.sema.intarith import IntResult, binary, unary
from ccomply.sema.symbols import SymKind
from ccomply.sema.typesys import (
    DEFAULT_MODEL, IntegerModel, TypeDesc, convert_int, is_integer, make_int,
    sizeof_type, usual_arith_conversion,
)


class ConstValue(NamedTuple):
    value: int | None
    type: TypeDesc | None

    @property
    def is_constant(self) -> bool:
        return self.value is not None


NOT_CONSTANT = ConstValue(None, None)


def const_eval(expr: Expr, model: IntegerModel = DEFAULT_MODEL) -> ConstValue:
    """Evaluate an integer constant expression; strict in all operands."""
    if isinstance(expr, Constant):
        if expr.is_float or expr.ctype is None or not is_integer(expr.ctype):
            return NOT_CONSTANT
        return ConstValue(expr.value, expr.ctype)

    if isinstance(expr, Identifier):
        sym = expr.symbol
        if sym is not None and sym.kind is SymKind.ENUM_CONST:
            return ConstValue(sym.enum_value, make_int(32, True))
        return NOT_CONSTANT

    if isinstance(expr, Sizeof):
        target = expr.type_name_type if expr.type_name is not None else None
        if target is None and expr.operand is not None:
            target = expr.operand.ctype
        if target is None:
            return NOT_CONSTANT
        try:
            size = sizeof_type(target, model)
        except Exception:
            return NOT_CONSTANT
        return ConstValue(size, make_int(model.pointer_bits, False))

    if isinstance(expr, Unary):
        inner = const_eval(expr.operand, model)
        if not inner.is_constant:
            return NOT_CONSTANT
        return _result(expr, unary(expr.op, inner, model))

    if isinstance(expr, Cast):
        if expr.ctype is None or not is_integer(expr.ctype):
            return NOT_CONSTANT
        inner = const_eval(expr.operand, model)
        if not inner.is_constant:
            return NOT_CONSTANT
        return ConstValue(convert_int(inner.value, expr.ctype, model)[0], expr.ctype)

    if isinstance(expr, Conditional):
        cond = const_eval(expr.cond, model)
        then = const_eval(expr.then, model)
        other = const_eval(expr.other, model)
        # Operand inspection is strict: every operand must be constant.
        if not (cond.is_constant and then.is_constant and other.is_constant):
            return NOT_CONSTANT
        picked = then if cond.value else other
        result_type = usual_arith_conversion(then.type, other.type, model)
        return ConstValue(convert_int(picked.value, result_type, model)[0], result_type)

    if isinstance(expr, Binary):
        left = const_eval(expr.left, model)
        right = const_eval(expr.right, model)
        if not (left.is_constant and right.is_constant):
            return NOT_CONSTANT
        return _result(expr, binary(expr.op, left, right, model))

    return NOT_CONSTANT


def _result(node: Expr, result: IntResult) -> ConstValue:
    if result.flaw is not None and node.behavior is None:
        node.behavior = "undefined"
    return NOT_CONSTANT if result.value is None else ConstValue(result.value, result.type)
