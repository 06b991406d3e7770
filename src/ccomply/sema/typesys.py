"""Type descriptors and the pinned implementation-defined integer model.

The default model: signed 8-bit char, 16-bit short, 32-bit int, 64-bit
long and long long, 64-bit pointers, two's complement. Widths and char
signedness can be overridden from the tool configuration; the closed
width set {8, 16, 32, 64} is enforced.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ccomply.errors import SemaError


class TK(Enum):
    VOID = "void"
    BOOL = "boolean"
    INT = "signed-int"
    UINT = "unsigned-int"
    FLOAT = "float"
    DOUBLE = "double"
    POINTER = "pointer"
    ARRAY = "array"
    FUNCTION = "function"
    RECORD = "record"
    ENUM = "enum"


# Kinds as module globals: reading `TK.X` goes through the enum metaclass,
# and a frozenset test calls `Enum.__hash__`, which is written in Python.
_INT, _UINT, _BOOL, _ENUM = TK.INT, TK.UINT, TK.BOOL, TK.ENUM
_FLOAT, _DOUBLE = TK.FLOAT, TK.DOUBLE
_POINTER, _ARRAY, _FUNCTION = TK.POINTER, TK.ARRAY, TK.FUNCTION

_WIDTHS = (8, 16, 32, 64)
_NO_QUALS: frozenset = frozenset()


@dataclass(eq=False, slots=True)
class RecordInfo:
    kind: str                   # 'struct' | 'union'
    tag: str | None
    members: list[tuple[str, "TypeDesc", frozenset]] = field(default_factory=list)
    complete: bool = False


@dataclass(eq=False, slots=True)
class EnumInfo:
    tag: str | None
    constants: dict[str, int] = field(default_factory=dict)


@dataclass(eq=False, frozen=True, slots=True)
class TypeDesc:
    kind: TK
    width: int = 0                      # INT/UINT/BOOL/FLOAT/DOUBLE
    pointee: "TypeDesc | None" = None
    quals: frozenset = _NO_QUALS        # qualifiers of this type itself
    elem: "TypeDesc | None" = None
    length: int | None = None
    ret: "TypeDesc | None" = None
    params: tuple["TypeDesc", ...] | None = None  # None = unspecified
    variadic: bool = False
    record: RecordInfo | None = None
    enum: EnumInfo | None = None

    def __repr__(self) -> str:  # compact, for diagnostics
        k = self.kind
        if k in (TK.INT, TK.UINT):
            return f"{k.value}({self.width})"
        if k is TK.POINTER:
            q = "+".join(sorted(self.quals))
            return f"ptr({self.pointee!r}{',' + q if q else ''})"
        if k is TK.ARRAY:
            return f"array({self.elem!r},{self.length})"
        if k is TK.FUNCTION:
            return f"fn(...)->{self.ret!r}"
        if k is TK.RECORD and self.record is not None:
            return f"{self.record.kind} {self.record.tag or '<anon>'}"
        if k is TK.ENUM and self.enum is not None:
            return f"enum {self.enum.tag or '<anon>'}"
        return k.value


VOID_T = TypeDesc(TK.VOID)
BOOL_T = TypeDesc(TK.BOOL, width=8)
FLOAT_T = TypeDesc(TK.FLOAT, width=32)
DOUBLE_T = TypeDesc(TK.DOUBLE, width=64)


# One shared TypeDesc per (width, signedness). Nothing mutates a TypeDesc
# after it is built (the class is frozen), so every integer type of a run is
# one of these eight. Derived and qualified types are shared the same way,
# but per translation unit: see `TypeTable`.
_INTS = {
    (width, signed): TypeDesc(TK.INT if signed else TK.UINT, width=width)
    for width in _WIDTHS for signed in (True, False)
}


def make_int(width: int, signed: bool) -> TypeDesc:
    t = _INTS.get((width, signed))
    if t is None:
        raise SemaError(f"integer width {width} outside the supported set {_WIDTHS}")
    return t


def make_pointer(pointee: TypeDesc, quals: frozenset = _NO_QUALS) -> TypeDesc:
    """A new, unshared pointer type; the resolver takes its pointers from a `TypeTable`."""
    return TypeDesc(TK.POINTER, pointee=pointee, quals=quals)


class TypeTable:
    """One shared `TypeDesc` per pointer, array, function and qualified type
    of one translation unit.

    Two requests get one object when every field agrees, component types,
    records and enums compared by identity: a unit's `volatile uint32_t`
    declarations share one type, and so do all its `int *`. The resolver
    owns the table, so it lives as long as one unit's resolution and no
    table grows from one unit to the next; a unit that starts with a kept
    header prefix starts from a `copy` of the table kept after the prefix,
    and so shares the prefix's types. Integer types come from `make_int`;
    each record and enum definition has its own type.
    """

    __slots__ = ("_shapes",)

    def __init__(self) -> None:
        self._shapes: dict[tuple, TypeDesc] = {}

    def copy(self) -> "TypeTable":
        """A table that starts with this one's types and grows on its own."""
        table = TypeTable()
        table._shapes = dict(self._shapes)
        return table

    def _shared(self, kind: TK, width: int = 0, pointee: TypeDesc | None = None,
                quals: frozenset = _NO_QUALS, elem: TypeDesc | None = None,
                length: int | None = None, ret: TypeDesc | None = None,
                params: tuple[TypeDesc, ...] | None = None, variadic: bool = False,
                record: RecordInfo | None = None, enum: EnumInfo | None = None) -> TypeDesc:
        shape = (kind, width, pointee, quals, elem, length, ret, params, variadic, record, enum)
        t = self._shapes.get(shape)
        if t is None:
            t = self._shapes[shape] = TypeDesc(*shape)
        return t

    def pointer(self, pointee: TypeDesc) -> TypeDesc:
        return self._shared(_POINTER, pointee=pointee)

    def array(self, elem: TypeDesc, length: int | None) -> TypeDesc:
        if length is not None and length < 0:
            raise SemaError(f"array length must be non-negative, got {length}")
        return self._shared(_ARRAY, elem=elem, length=length)

    def function(self, ret: TypeDesc, params: tuple[TypeDesc, ...] | None,
                 variadic: bool) -> TypeDesc:
        return self._shared(_FUNCTION, ret=ret, params=params, variadic=variadic)

    def qualified(self, t: TypeDesc, quals: frozenset) -> TypeDesc:
        """`t` with the qualifier set `quals` in place of its own."""
        if quals == t.quals:
            return t
        return self._shared(t.kind, t.width, t.pointee, quals, t.elem, t.length,
                            t.ret, t.params, t.variadic, t.record, t.enum)

    def rvalue(self, t: TypeDesc | None) -> TypeDesc | None:
        """`rvalue_type(t)`, with the pointer a decay gives taken from this table."""
        if t is not None:
            if t.kind is _ARRAY:
                return self.pointer(t.elem)
            if t.kind is _FUNCTION:
                return self.pointer(t)
        return t


@dataclass(frozen=True)
class IntegerModel:
    char_bits: int = 8
    short_bits: int = 16
    int_bits: int = 32
    long_bits: int = 64
    long_long_bits: int = 64
    pointer_bits: int = 64
    char_signed: bool = True

    def validate(self) -> None:
        for name in ("char_bits", "short_bits", "int_bits", "long_bits",
                     "long_long_bits", "pointer_bits"):
            if getattr(self, name) not in _WIDTHS:
                raise SemaError(
                    f"{name}={getattr(self, name)} outside the supported set {_WIDTHS}"
                )
        if not (self.char_bits <= self.short_bits <= self.int_bits
                <= self.long_bits <= self.long_long_bits):
            raise SemaError("integer widths must be non-decreasing char..long long")


DEFAULT_MODEL = IntegerModel()


# ---- predicates -------------------------------------------------------------


def is_integer(t: TypeDesc) -> bool:
    k = t.kind
    return k is _INT or k is _UINT or k is _BOOL or k is _ENUM


def is_floating(t: TypeDesc) -> bool:
    k = t.kind
    return k is _DOUBLE or k is _FLOAT


def is_arithmetic(t: TypeDesc) -> bool:
    return is_integer(t) or is_floating(t)


def is_pointer(t: TypeDesc) -> bool:
    return t.kind is TK.POINTER


def is_object_pointer(t: TypeDesc) -> bool:
    """Pointer to anything but a function (void * counts as object pointer)."""
    return t.kind is TK.POINTER and t.pointee is not None and t.pointee.kind is not TK.FUNCTION


def is_scalar(t: TypeDesc) -> bool:
    return is_arithmetic(t) or is_pointer(t)


def same_type(a: TypeDesc | None, b: TypeDesc | None) -> bool:
    if a is None or b is None:
        return a is b
    if a.kind is not b.kind:
        return False
    k = a.kind
    if k in (TK.VOID, TK.BOOL, TK.FLOAT, TK.DOUBLE):
        return True
    if k in (TK.INT, TK.UINT):
        return a.width == b.width
    if k is TK.POINTER:
        return a.quals == b.quals and same_type(a.pointee, b.pointee)
    if k is TK.ARRAY:
        return a.length == b.length and same_type(a.elem, b.elem)
    if k is TK.FUNCTION:
        if not same_type(a.ret, b.ret) or a.variadic != b.variadic:
            return False
        if a.params is None or b.params is None:
            return True  # unspecified parameter list is compatible
        return len(a.params) == len(b.params) and all(
            same_type(x, y) for x, y in zip(a.params, b.params)
        )
    if k is TK.RECORD:
        return a.record is b.record
    if k is TK.ENUM:
        return a.enum is b.enum
    return False


# ---- conversions ------------------------------------------------------------


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


def rvalue_type(t: TypeDesc | None) -> TypeDesc | None:
    """Type after lvalue conversion: arrays and functions decay to pointers."""
    if t is None:
        return None
    if t.kind is TK.ARRAY:
        return make_pointer(t.elem)
    if t.kind is TK.FUNCTION:
        return make_pointer(t)
    return t


def sizeof_type(t: TypeDesc, model: IntegerModel) -> int:
    k = t.kind
    if k is TK.VOID:
        raise SemaError("sizeof(void) is not defined")
    if k is TK.BOOL:
        return 1
    if k in (TK.INT, TK.UINT, TK.FLOAT, TK.DOUBLE):
        return t.width // 8
    if k is TK.ENUM:
        return 4
    if k is TK.POINTER:
        return model.pointer_bits // 8
    if k is TK.ARRAY:
        if t.length is None:
            raise SemaError("sizeof an incomplete array type")
        return t.length * sizeof_type(t.elem, model)
    if k is TK.RECORD:
        info = t.record
        if info is None or not info.complete:
            raise SemaError("sizeof an incomplete record type")
        if info.kind == "union":
            size = max((sizeof_type(mt, model) for _, mt, _ in info.members), default=0)
            align = max((_align_of(mt, model) for _, mt, _ in info.members), default=1)
            return _round_up(size, align)
        offset = 0
        align = 1
        for _, mt, _ in info.members:
            a = _align_of(mt, model)
            align = max(align, a)
            offset = _round_up(offset, a) + sizeof_type(mt, model)
        return _round_up(offset, align) if info.members else 0
    raise SemaError(f"sizeof not defined for {t!r}")


def _align_of(t: TypeDesc, model: IntegerModel) -> int:
    if t.kind is TK.ARRAY:
        return _align_of(t.elem, model)
    if t.kind is TK.RECORD:
        return max((_align_of(mt, model) for _, mt, _ in (t.record.members if t.record else [])), default=1)
    return min(sizeof_type(t, model), 8)


def _round_up(n: int, align: int) -> int:
    return (n + align - 1) // align * align
