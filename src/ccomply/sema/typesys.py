"""Type descriptors and the pinned implementation-defined integer model.

The default model: signed 8-bit char, 16-bit short, 32-bit int, 64-bit
long and long long, 64-bit pointers, two's complement. Widths and char
signedness can be overridden from the tool configuration; the closed
width set {8, 16, 32, 64} is enforced, and the widths must not decrease
from `char` to `long long`.

The integer ranges, promotions, usual arithmetic conversions and constant
types are a fixed function of the model and at most two types, so each
model keeps them as tables (`Conversions`), one set per model, built on
first use from the C99 rules (6.2.5, 6.3.1.1p2, 6.3.1.8p1, 6.4.4.1p5)
after the model is validated. The tables' keys are canonical unqualified
types: the eight shared integer types, `BOOL_T`, `FLOAT_T`, `DOUBLE_T`,
and one key, not a `TypeDesc`, for every enum type. A lookup maps a
qualified or enum type to its key, so the tables hold only process-wide
values. `type_range`, `integer_promote`, `promoted_width`,
`usual_arith_conversion`, `int_constant_type` and `convert_int` read them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

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
        """Raise a `SemaError` naming the field, unless every width is in the
        supported set and the widths do not decrease from `char` to `long
        long` (C99 6.2.5p8)."""
        for name in ("char_bits", "short_bits", "int_bits", "long_bits",
                     "long_long_bits", "pointer_bits"):
            if getattr(self, name) not in _WIDTHS:
                raise SemaError(
                    f"{name}={getattr(self, name)} outside the supported set {_WIDTHS}"
                )
        ranks = ("char_bits", "short_bits", "int_bits", "long_bits", "long_long_bits")
        for lower, higher in zip(ranks, ranks[1:]):
            if getattr(self, higher) < getattr(self, lower):
                raise SemaError(
                    f"{higher}={getattr(self, higher)} is narrower than "
                    f"{lower}={getattr(self, lower)}: integer widths must be "
                    f"non-decreasing char..long long"
                )

    @cached_property
    def conversions(self) -> "Conversions":
        """This model's conversion tables, built and validated on first use."""
        return Conversions(self)


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
    return t.kind is _POINTER


def is_object_pointer(t: TypeDesc) -> bool:
    """Pointer to anything but a function (void * counts as object pointer)."""
    return t.kind is _POINTER and t.pointee is not None and t.pointee.kind is not _FUNCTION


def is_scalar(t: TypeDesc) -> bool:
    """An arithmetic or a pointer type: one kind test, as casts ask it often."""
    k = t.kind
    return (k is _POINTER or k is _INT or k is _UINT or k is _BOOL or k is _ENUM
            or k is _DOUBLE or k is _FLOAT)


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
#
# The `_*_rule` functions are the one definition of the C99 rules; only
# `Conversions` runs them, and the public functions after it read its tables.

# The one table key of every enum type. Enum types are per unit, so a key
# that is a `TypeDesc` would keep one unit's enum alive in a process-wide table.
_ENUM_KEY = "enum"


def _key(t: TypeDesc):
    """The conversion tables' key of `t`: the canonical unqualified type,
    `_ENUM_KEY` for an enum type, None when `t` is not arithmetic."""
    k = t.kind
    if k is _INT or k is _UINT:
        return _INTS.get((t.width, k is _INT))
    if k is _ENUM:
        return _ENUM_KEY
    if k is _BOOL:
        return BOOL_T
    if k is _FLOAT:
        return FLOAT_T
    if k is _DOUBLE:
        return DOUBLE_T
    return None


def _int_rule(key) -> tuple[int, bool]:
    """(width, signed) of an integer key; an enum acts as a 32-bit `int`."""
    if key is BOOL_T:
        return 8, False
    if key is _ENUM_KEY:
        return 32, True
    return key.width, key.kind is _INT


def _range_rule(key) -> tuple[int, int]:
    if key is BOOL_T:
        return 0, 1
    width, signed = _int_rule(key)
    if signed:
        return -(1 << (width - 1)), (1 << (width - 1)) - 1
    return 0, (1 << width) - 1


def _promote_rule(key, model: IntegerModel) -> TypeDesc:
    """C99 6.3.1.1p2: `_Bool`, enums and types narrower than `int` become `int`."""
    width, signed = _int_rule(key)
    if width < model.int_bits or key is BOOL_T or key is _ENUM_KEY:
        return make_int(model.int_bits, True)
    return make_int(width, signed)


def _common_rule(a, b, model: IntegerModel) -> TypeDesc:
    """C99 6.3.1.8p1 on two arithmetic keys; long double is `double` here."""
    if a is DOUBLE_T or b is DOUBLE_T:
        return DOUBLE_T
    if a is FLOAT_T or b is FLOAT_T:
        return FLOAT_T
    pa, pb = _promote_rule(a, model), _promote_rule(b, model)
    wa, sa = pa.width, pa.kind is _INT
    wb, sb = pb.width, pb.kind is _INT
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


def _constant_rule(longs: int, unsigned: bool, decimal: bool,
                   model: IntegerModel) -> tuple[tuple[TypeDesc, int, int], ...]:
    """C99 6.4.4.1p5: the candidate types of a constant with `longs` `l`
    suffixes, a `u` suffix or not, written in decimal or not; each with its
    range, in the order the first that can represent the value is taken."""
    signs = (False,) if unsigned else (True,) if decimal else (True, False)
    widths = (model.int_bits, model.long_bits, model.long_long_bits)[longs:]
    return tuple((t, *_range_rule(t)) for t in
                 (make_int(width, signed) for width in widths for signed in signs))


class Conversions:
    """One integer model's conversion rules, as tables built once.

    Every table is keyed by canonical unqualified types: the eight shared
    integer types, `BOOL_T`, `FLOAT_T` and `DOUBLE_T`, and `_ENUM_KEY` for
    every enum type; a qualified or enum type is mapped to its key when it
    is looked up. So a table has a bounded size and holds only process-wide
    values. `IntegerModel.conversions` builds a model's tables on first use,
    after validating the model.

    - `range_of`: the range of each integer type;
    - `promote`: each integer type after the integer promotions;
    - `common`: `common[a][b]`, the usual arithmetic conversion of two
      arithmetic types;
    - `constants`: by (number of `l`s, `u` or not, decimal or not) of an
      integer constant, its candidate types, each with its range.
    """

    __slots__ = ("range_of", "promote", "common", "constants")

    def __init__(self, model: IntegerModel):
        model.validate()
        ints = [*_INTS.values(), BOOL_T, _ENUM_KEY]
        arith = [*ints, FLOAT_T, DOUBLE_T]
        self.range_of = {k: _range_rule(k) for k in ints}
        self.promote = {k: _promote_rule(k, model) for k in ints}
        self.common = {a: {b: _common_rule(a, b, model) for b in arith} for a in arith}
        self.constants = {
            (longs, unsigned, decimal): _constant_rule(longs, unsigned, decimal, model)
            for longs in (0, 1, 2) for unsigned in (False, True) for decimal in (False, True)
        }


def type_range(t: TypeDesc, model: IntegerModel) -> tuple[int, int]:
    range_of = model.conversions.range_of
    found = range_of.get(t) or range_of.get(_key(t))
    if found is None:
        raise SemaError(f"expected integer type, got {t!r}")
    return found


def integer_promote(t: TypeDesc, model: IntegerModel) -> TypeDesc:
    promote = model.conversions.promote
    found = promote.get(t) or promote.get(_key(t))
    if found is None:
        raise SemaError(f"integer promotion requires an arithmetic type, got {t!r}")
    return found


def promoted_width(t: TypeDesc, model: IntegerModel = DEFAULT_MODEL) -> int:
    """Width in bits after integer promotion."""
    if not is_arithmetic(t):
        raise SemaError(f"promoted width requires an arithmetic type, got {t!r}")
    if not is_integer(t):
        raise SemaError(f"promoted width is defined for integer types, got {t!r}")
    return integer_promote(t, model).width


def usual_arith_conversion(a: TypeDesc, b: TypeDesc, model: IntegerModel) -> TypeDesc:
    common = model.conversions.common
    row = common.get(a) or common.get(_key(a))
    found = row and (row.get(b) or row.get(_key(b)))
    if found is None:
        raise SemaError("usual arithmetic conversions require arithmetic types")
    return found


def int_constant_type(text: str, value: int, model: IntegerModel) -> TypeDesc | None:
    """The type of integer constant `text`, whose value is `value`: the first
    type of its C99 6.4.4.1p5 list that can represent it, or None."""
    body = text.rstrip("uUlL")
    suffix = text[len(body):].lower()
    decimal = body == "0" or body[0] != "0"
    candidates = model.conversions.constants.get((suffix.count("l"), "u" in suffix, decimal), ())
    for t, lo, hi in candidates:
        if lo <= value <= hi:
            return t
    return None


def convert_int(value: int, target: TypeDesc, model: IntegerModel) -> tuple[int, bool]:
    """Convert a mathematical integer into `target`; flags signed wrap."""
    lo, hi = type_range(target, model)
    if lo <= value <= hi:
        return value, False
    if target.kind is _BOOL:
        return 1, False
    return (value - lo) % (hi - lo + 1) + lo, True


def rvalue_type(t: TypeDesc | None) -> TypeDesc | None:
    """Type after lvalue conversion: arrays and functions decay to pointers."""
    if t is None:
        return None
    if t.kind is _ARRAY:
        return make_pointer(t.elem)
    if t.kind is _FUNCTION:
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
