"""The rule-by-rule integer conversions that the per-model tables replaced:
a test oracle.

`effective_int`, `type_range`, `integer_promote`, `promoted_width`,
`usual_arith_conversion`, `int_constant_type` and `convert_int` as they
stood in `ccomply.sema.typesys` before each integer model kept its
conversions as tables (`IntegerModel.conversions`). They re-derive C99
6.3.1.1p2, 6.3.1.8p1, 6.4.4.1p5 and 6.2.5 on every call.
`test_conversions` checks that the table-backed functions return the same
object, or raise the same error, under several models. Nothing under
`src/` imports it.
"""
from __future__ import annotations

from ccomply.errors import SemaError
from ccomply.sema.typesys import (
    DEFAULT_MODEL, DOUBLE_T, FLOAT_T, TK, IntegerModel, TypeDesc, is_arithmetic,
    is_integer, make_int,
)


def effective_int(t: TypeDesc, model: IntegerModel) -> tuple[int, bool]:
    """(width, signed) of an integer type; enums use their underlying int."""
    if t.kind is TK.BOOL:
        return 8, False
    if t.kind is TK.ENUM:
        return 32, True
    if t.kind is TK.INT:
        return t.width, True
    if t.kind is TK.UINT:
        return t.width, False
    raise SemaError(f"expected integer type, got {t!r}")


def type_range(t: TypeDesc, model: IntegerModel) -> tuple[int, int]:
    width, signed = effective_int(t, model)
    if t.kind is TK.BOOL:
        return 0, 1
    if signed:
        return -(1 << (width - 1)), (1 << (width - 1)) - 1
    return 0, (1 << width) - 1


def integer_promote(t: TypeDesc, model: IntegerModel) -> TypeDesc:
    if not is_integer(t):
        raise SemaError(f"integer promotion requires an arithmetic type, got {t!r}")
    width, signed = effective_int(t, model)
    if width < model.int_bits or t.kind is TK.BOOL or t.kind is TK.ENUM:
        return make_int(model.int_bits, True)
    return make_int(width, signed)


def promoted_width(t: TypeDesc, model: IntegerModel = DEFAULT_MODEL) -> int:
    """Width in bits after integer promotion."""
    if not is_arithmetic(t):
        raise SemaError(f"promoted width requires an arithmetic type, got {t!r}")
    if not is_integer(t):
        raise SemaError(f"promoted width is defined for integer types, got {t!r}")
    return integer_promote(t, model).width


def usual_arith_conversion(a: TypeDesc, b: TypeDesc, model: IntegerModel) -> TypeDesc:
    if not (is_arithmetic(a) and is_arithmetic(b)):
        raise SemaError("usual arithmetic conversions require arithmetic types")
    if a.kind is TK.DOUBLE or b.kind is TK.DOUBLE:
        return DOUBLE_T
    if a.kind is TK.FLOAT or b.kind is TK.FLOAT:
        return FLOAT_T
    pa = integer_promote(a, model)
    pb = integer_promote(b, model)
    wa, sa = pa.width, pa.kind is TK.INT
    wb, sb = pb.width, pb.kind is TK.INT
    if sa == sb:
        return make_int(max(wa, wb), sa)
    if not sa and wa >= wb:
        return make_int(wa, False)
    if not sb and wb >= wa:
        return make_int(wb, False)
    if sa and wa > wb:
        return make_int(wa, True)
    if sb and wb > wa:
        return make_int(wb, True)
    return make_int(max(wa, wb), False)


def int_constant_type(text: str, value: int, model: IntegerModel) -> TypeDesc | None:
    """The type of integer constant `text`, whose value is `value`: the first
    type of its C99 6.4.4.1p5 list that can represent it, or None."""
    body = text.rstrip("uUlL")
    suffix = text[len(body):].lower()
    decimal = body == "0" or body[0] != "0"
    signs = (False,) if "u" in suffix else (True,) if decimal else (True, False)
    for width in (model.int_bits, model.long_bits, model.long_long_bits)[suffix.count("l"):]:
        for t in (make_int(width, signed) for signed in signs):
            lo, hi = type_range(t, model)
            if lo <= value <= hi:
                return t
    return None


def convert_int(value: int, target: TypeDesc, model: IntegerModel) -> tuple[int, bool]:
    """Convert a mathematical integer into `target`; flags signed wrap."""
    width, signed = effective_int(target, model)
    if target.kind is TK.BOOL:
        return (1 if value != 0 else 0), False
    span = 1 << width
    wrapped = value % span
    if signed and wrapped >= span // 2:
        wrapped -= span
    return wrapped, wrapped != value
