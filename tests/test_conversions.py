"""The per-model conversion tables against the rules they replaced, and against gcc.

`ccomply.sema.typesys` keeps each integer model's promotions, usual
arithmetic conversions, integer ranges and constant types as tables
(`IntegerModel.conversions`). Under five models, every table-backed
function must return the same object as `conversions_oracle`, the
rule-by-rule functions as they stood before, or raise the same error. The
operands are the 14 arithmetic types of C99 6.2.5 (`long double` is
`double` here), their `const` and `volatile` variants, an enum type and a
pointer; the constants cover every suffix spelling, each base and the
boundary values of every width.

The differential test compiles one probe program with the installed gcc,
runs it, and compares the `sizeof`, signedness and floatness gcc gives
`+` and `<<` over every pair of types, and constants around each type
boundary, with the tables under `DEFAULT_MODEL` (an LP64 model with signed
`char`, as gcc's on x86-64). It is skipped when gcc is missing. Run as a
script to print its agreement count and every disagreement:

    PYTHONPATH=src:tests:perfbench python3 tests/test_conversions.py
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import conversions_oracle as oracle
from ccomply.errors import SemaError
from ccomply.flow import build_cfg, interval_analysis
from ccomply.frontend.preprocessor import PP_MODEL
from ccomply.parsing import FunctionDef
from ccomply.sema import typesys
from ccomply.sema.typesys import (
    BOOL_T, DEFAULT_MODEL, DOUBLE_T, FLOAT_T, TK, EnumInfo, IntegerModel, TypeDesc,
    TypeTable, is_integer, make_int, make_pointer, sizeof_type,
)
from flow_helpers import workload_units

MODELS = {
    "default": DEFAULT_MODEL,
    "unsigned_char": IntegerModel(char_signed=False),
    "16_32_64": IntegerModel(int_bits=16, long_bits=32, long_long_bits=64),
    "small_long": IntegerModel(long_bits=32, pointer_bits=32),
    "pp": PP_MODEL,
}

ENUM_T = TypeDesc(TK.ENUM, enum=EnumInfo("E", {"E0": 0}))


def arithmetic_types(model: IntegerModel) -> dict[str, TypeDesc]:
    """The 14 arithmetic types of C99 6.2.5 under `model`, by their C names."""
    m = model
    return {
        "_Bool": BOOL_T,
        "char": make_int(m.char_bits, m.char_signed),
        "signed char": make_int(m.char_bits, True),
        "unsigned char": make_int(m.char_bits, False),
        "short": make_int(m.short_bits, True),
        "unsigned short": make_int(m.short_bits, False),
        "int": make_int(m.int_bits, True),
        "unsigned int": make_int(m.int_bits, False),
        "long": make_int(m.long_bits, True),
        "unsigned long": make_int(m.long_bits, False),
        "long long": make_int(m.long_long_bits, True),
        "unsigned long long": make_int(m.long_long_bits, False),
        "float": FLOAT_T,
        "double": DOUBLE_T,
    }


def operand_types(model: IntegerModel) -> dict[str, TypeDesc]:
    """The arithmetic types, their `const` and `volatile` variants, an enum
    type (plain and `const`) and a pointer."""
    table = TypeTable()
    out = dict(arithmetic_types(model))
    for name, t in list(out.items()) + [("enum E", ENUM_T)]:
        for qual in ("const", "volatile"):
            out[f"{qual} {name}"] = table.qualified(t, frozenset({qual}))
    out["enum E"] = ENUM_T
    out["int *"] = make_pointer(make_int(model.int_bits, True))
    return out


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except SemaError as exc:
        return "error", type(exc), exc.message


def _same(new, old) -> bool:
    """Both raised the same error, or both returned the same object (an
    equal tuple for the functions that return a pair)."""
    if new[0] != old[0]:
        return False
    if new[0] == "error" or not isinstance(new[1], TypeDesc):
        return new == old
    return new[1] is old[1]


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
def test_single_type_functions_match_the_rules(model):
    for name, t in operand_types(model).items():
        for fn in ("type_range", "integer_promote", "promoted_width"):
            new = _outcome(getattr(typesys, fn), t, model)
            old = _outcome(getattr(oracle, fn), t, model)
            assert _same(new, old), (fn, name, new, old)


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
def test_usual_arithmetic_conversion_matches_the_rules_on_every_pair(model):
    types = operand_types(model)
    for a_name, a in types.items():
        for b_name, b in types.items():
            new = _outcome(typesys.usual_arith_conversion, a, b, model)
            old = _outcome(oracle.usual_arith_conversion, a, b, model)
            assert _same(new, old), (a_name, b_name, new, old)


def _boundaries() -> list[int]:
    """0, 1 and the values around the top of each signed and unsigned width."""
    out = {0, 1}
    for width in (8, 16, 32, 64):
        for top in ((1 << (width - 1)) - 1, (1 << width) - 1):
            out.update((top - 1, top, top + 1))
    return sorted(out)


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
def test_convert_int_matches_the_rules(model):
    values = [v for b in _boundaries() for v in (b, -b)] + [5 << 64, -(5 << 64)]
    for name, t in operand_types(model).items():
        for value in values:
            new = _outcome(typesys.convert_int, value, t, model)
            old = _outcome(oracle.convert_int, value, t, model)
            assert _same(new, old), (name, value, new, old)


SUFFIXES = ["", "u", "U", "l", "L", "ul", "uL", "Ul", "UL", "lu", "lU", "Lu", "LU",
            "ll", "LL", "ull", "uLL", "Ull", "ULL", "llu", "llU", "LLu", "LLU"]


def spellings(value: int) -> list[str]:
    """`value` written in decimal, octal and hexadecimal, without a suffix."""
    return [str(value), "0" + format(value, "o") if value else "0", hex(value), hex(value).upper()]


@pytest.mark.parametrize("model", MODELS.values(), ids=MODELS.keys())
def test_int_constant_type_matches_the_rules(model):
    for value in _boundaries():
        for body in spellings(value):
            for suffix in SUFFIXES:
                text = body + suffix
                new = _outcome(typesys.int_constant_type, text, value, model)
                old = _outcome(oracle.int_constant_type, text, value, model)
                assert new[0] == old[0] == "value" and new[1] is old[1], (text, new, old)


def _table_sizes(model: IntegerModel) -> dict[str, int]:
    conv = model.conversions
    sizes = {name: len(getattr(conv, name)) for name in type(conv).__slots__}
    sizes.update({f"common[{k!r}]": len(row) for k, row in conv.common.items()})
    return sizes


def test_tables_hold_only_canonical_keys_and_keep_their_size(tmp_path):
    canonical = {*typesys._INTS.values(), BOOL_T, FLOAT_T, DOUBLE_T, typesys._ENUM_KEY}
    before = {name: _table_sizes(model) for name, model in MODELS.items()}
    for tu in workload_units("project_all_rules", 1, str(tmp_path), 5):
        for fn in tu.decls:
            if isinstance(fn, FunctionDef):
                interval_analysis(build_cfg(fn)).in_states  # noqa: B018  (to the fixpoint)
    for name, model in MODELS.items():
        conv = model.conversions
        assert _table_sizes(model) == before[name], name
        for table in (conv.range_of, conv.promote, conv.common):
            assert set(table) <= canonical
        assert all(set(row) <= canonical for row in conv.common.values())
        assert len(conv.constants) == 12
    # One set of tables per model, built on first use.
    assert DEFAULT_MODEL.conversions is DEFAULT_MODEL.conversions


# ---- gcc differential ------------------------------------------------------------

GCC = shutil.which("gcc")
_PROBE_HEAD = """\
#include <stdio.h>
enum E { E0 };
#define SIGNED(e) ((__typeof__(e))-1 < (__typeof__(e))0)
#define FLOATING(e) ((__typeof__(e))0.5 != (__typeof__(e))0)
#define SHOW(key, e) printf("%s|%zu %d %d\\n", key, sizeof(e), (int)SIGNED(e), (int)FLOATING(e))
int main(void) {
"""


def probes() -> dict[str, tuple[str, tuple[int, bool, bool]]]:
    """key -> (C expression, the (size, signed, floating) the tables give it
    under `DEFAULT_MODEL`): `+` over every pair of the arithmetic types and
    `enum E`, `<<` over every pair of the integer ones, and each boundary
    constant in each base and suffix that has a type in the model."""
    model = DEFAULT_MODEL
    types = {**arithmetic_types(model), "enum E": ENUM_T}

    def shape(t: TypeDesc) -> tuple[int, bool, bool]:
        floating = t.kind in (TK.FLOAT, TK.DOUBLE)
        return sizeof_type(t, model), floating or t.kind is TK.INT, floating

    out = {}
    for a_name, a in types.items():
        for b_name, b in types.items():
            expr = f"(({a_name})0 + ({b_name})0)"
            out[f"{a_name} + {b_name}"] = expr, shape(typesys.usual_arith_conversion(a, b, model))
            if is_integer(a) and is_integer(b):
                expr = f"(({a_name})0 << ({b_name})0)"
                out[f"{a_name} << {b_name}"] = expr, shape(typesys.integer_promote(a, model))
    for value in _boundaries():
        for body in (str(value), hex(value)):
            for suffix in ("", "u", "l", "ul", "ll", "ull"):
                t = typesys.int_constant_type(body + suffix, value, model)
                if t is not None:
                    out[body + suffix] = body + suffix, shape(t)
    return out


# C99 6.7.2.2p4 leaves an enum's compatible type to the implementation. The
# model takes every enum type as `int`; gcc gives one with no negative
# constant, such as `enum E { E0 }`, the type `unsigned int`. So where
# `enum E` is promoted without meeting a wider or unsigned type, gcc's
# result is `unsigned int` and the model's `int`.
ENUM_SIGNEDNESS = frozenset(
    [f"enum E + {t}" for t in ("_Bool", "char", "signed char", "unsigned char", "short",
                               "unsigned short", "int", "enum E")]
    + [f"{t} + enum E" for t in ("_Bool", "char", "signed char", "unsigned char", "short",
                                 "unsigned short", "int")]
    + [f"enum E << {t}" for t in ("_Bool", "char", "signed char", "unsigned char", "short",
                                  "unsigned short", "int", "unsigned int", "long",
                                  "unsigned long", "long long", "unsigned long long",
                                  "enum E")]
)


def gcc_disagreements(workdir: str) -> tuple[int, dict[str, tuple]]:
    """(probes run, key -> (gcc's shape, the tables' shape) where they differ)."""
    table = probes()
    source = os.path.join(workdir, "probe.c")
    binary = os.path.join(workdir, "probe")
    with open(source, "w", encoding="ascii") as fh:
        fh.write(_PROBE_HEAD)
        for key, (expr, _) in table.items():
            fh.write(f'    SHOW("{key}", {expr});\n')
        fh.write("    return 0;\n}\n")
    subprocess.run([GCC, "-std=c99", "-w", "-o", binary, source], check=True,
                   capture_output=True)
    lines = subprocess.run([binary], check=True, capture_output=True, text=True).stdout
    got = {}
    for line in lines.splitlines():
        key, _, fields = line.partition("|")
        size, signed, floating = (int(x) for x in fields.split())
        got[key] = size, bool(signed), bool(floating)
    assert set(got) == set(table)
    return len(table), {k: (got[k], want) for k, (_, want) in table.items() if got[k] != want}


@pytest.mark.skipif(GCC is None, reason="gcc is not installed; the differential probe needs it")
def test_tables_agree_with_gcc_but_for_the_enum_exclusion(tmp_path):
    count, differ = gcc_disagreements(str(tmp_path))
    assert count > 400
    # Each excluded probe differs only in signedness; nothing else differs.
    assert set(differ) == ENUM_SIGNEDNESS
    for got, want in differ.values():
        assert got == (want[0], False, want[2]) and want[1]


def main() -> int:
    if GCC is None:
        print("gcc is not installed")
        return 1
    with tempfile.TemporaryDirectory() as workdir:
        count, differ = gcc_disagreements(workdir)
    print(f"{count - len(differ)} of {count} probes agree; "
          f"{len(set(differ) - ENUM_SIGNEDNESS)} disagreements outside the enum exclusion")
    for key, (got, want) in sorted(differ.items()):
        mark = "excluded" if key in ENUM_SIGNEDNESS else "DIFFERS"
        print(f"  {mark}: {key}: gcc {got}, tables {want}")
    return 0 if set(differ) == ENUM_SIGNEDNESS else 1


if __name__ == "__main__":
    sys.exit(main())
