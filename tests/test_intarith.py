"""The integer kernel (`sema.intarith`) and its two users, `#if` and the resolver's `const_value`.

Both apply the integer promotions and the usual arithmetic conversions
before they compute or compare (C99 6.3.1.1, 6.3.1.8, 6.5.8p3, 6.5.9p4),
and `#if` computes in `intmax_t` and `uintmax_t` (6.10.1p4). The interval
analysis converts compared ranges the same way.

Two derandomized properties pin the kernel:
- on signed operands, with every shift count in range, `#if` agrees with
  `preprocessor_oracle`, which computes everything as signed 64-bit;
- `#if E` and the `const_value` of the same `E`, resolved as C under `PP_MODEL`,
  give the same value or both give none.
"""
from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import preprocessor_oracle
from ccomply.errors import AnalysisError, PreprocessError, SemaError
from ccomply.frontend import evaluate_pp_condition, lex
from ccomply.frontend.preprocessor import PP_MODEL
from ccomply.parsing import Call, ExprStmt, FunctionDef, parse
from ccomply.sema import TK, resolve
from ccomply.sema.intarith import binary, unary
from ccomply.sema.typesys import DEFAULT_MODEL, make_int
from rule_helpers import kinds_of, run_rule
from support import lexemes, make_manager, pp_text

INTMAX_MAX = (1 << 63) - 1
UINTMAX_MAX = (1 << 64) - 1


def c_operand(text: str, model=DEFAULT_MODEL):
    """The expression `text`, parsed and resolved as C under `model`."""
    toks, _, _, _ = pp_text(f"extern void sink(long);\nvoid f(void) {{ sink({text}); }}\n")
    tu = parse(toks, "t.c")
    resolve(tu, model)
    fn = next(d for d in tu.decls if isinstance(d, FunctionDef))
    stmt = fn.body.items[0]
    assert isinstance(stmt, ExprStmt) and isinstance(stmt.expr, Call)
    return stmt.expr.args[0]


def pp_outcome(evaluate, text: str):
    """What evaluating `#if text` gives: the value, or the error."""
    _, f = make_manager({"c.h": text})
    try:
        return ("value", evaluate(lex(f)))
    except AnalysisError as exc:
        return ("error", type(exc), exc.message, exc.loc)


# -- the cases C99 decides -------------------------------------------------------

# (expression, value of `#if` under this kernel, value of the signed-64-bit oracle)
PP_CASES = [
    ("-1 < 0u", 0, 1),
    ("0xFFFFFFFFFFFFFFFF > 0", 1, 0),
    ("-1u > 0", 1, 0),
    ("-1u", UINTMAX_MAX, -1),
    ("18446744073709551615u == -1", 1, 1),
    ("(1 ? -1 : 0u) > 0", 1, 0),
    ("-1 >> 1u", -1, -1),
    ("0x7FFFFFFFFFFFFFFF + 1 < 0", 1, 1),
]


@pytest.mark.parametrize("text, value, oracle", PP_CASES)
def test_if_converts_operands(text, value, oracle):
    assert pp_outcome(evaluate_pp_condition, text) == ("value", value)
    assert pp_outcome(preprocessor_oracle.evaluate_pp_condition, text) == ("value", oracle)


@pytest.mark.parametrize("text, message", [
    ("1 << 64", "shift count out of range in #if expression"),
    ("1 << -1", "shift count out of range in #if expression"),
    ("1u >> 64", "shift count out of range in #if expression"),
    ("1 % 0u", "division by zero in #if expression"),
    ("18446744073709551615", "integer constant '18446744073709551615' in #if fits no type"),
])
def test_if_raises_where_no_value(text, message):
    with pytest.raises(PreprocessError) as info:
        _, f = make_manager({"c.h": text})
        evaluate_pp_condition(lex(f))
    assert info.value.message == message


def test_if_group_selection_uses_unsigned_comparison():
    toks, _, _, _ = pp_text("#if -1 < 0u\nint a;\n#else\nint b;\n#endif\n")
    assert lexemes(toks) == ["int", "b", ";"]
    toks, _, _, _ = pp_text("#if 0xFFFFFFFFFFFFFFFF > 0\nint a;\n#else\nint b;\n#endif\n")
    assert lexemes(toks) == ["int", "a", ";"]


@pytest.mark.parametrize("text, value", [
    ("-1 < 0u", 0), ("-1 > 0u", 1), ("-1 == 0xFFFFFFFFu", 1), ("-1 <= 0xFFFFFFFFu", 1),
    ("(unsigned char)200 > -1", 1), ("-1L < 1u", 1),
])
def test_const_eval_converts_compared_operands(text, value):
    operand = c_operand(text)
    assert operand.const_value == value and operand.ctype.kind is TK.INT


def test_const_eval_negative_left_shift_is_overflow():
    arg = c_operand("-1 << 1")
    assert arg.const_value == -2
    assert arg.behavior == "undefined"


def test_kernel_flaws():
    int_t, uint_t = make_int(32, True), make_int(32, False)
    assert unary("-", (1, uint_t), DEFAULT_MODEL) == (UINTMAX_MAX >> 32, uint_t, None)
    assert unary("-", (-(1 << 31), int_t), DEFAULT_MODEL) == (-(1 << 31), int_t, "signed overflow")
    assert binary("/", (-(1 << 31), int_t), (-1, int_t), DEFAULT_MODEL).flaw == "signed overflow"
    assert binary("%", (-(1 << 31), int_t), (-1, int_t), DEFAULT_MODEL) == (0, int_t, None)
    assert binary("/", (-7, int_t), (2, int_t), DEFAULT_MODEL).value == -3
    assert binary("%", (-7, int_t), (2, int_t), DEFAULT_MODEL).value == -1
    assert binary("/", (1, int_t), (0, uint_t), DEFAULT_MODEL) == (None, uint_t, "division by zero")
    assert binary("<<", (1, int_t), (32, int_t), DEFAULT_MODEL).value is None
    assert binary("&", (-1, int_t), (0xFF, uint_t), DEFAULT_MODEL) == (0xFF, uint_t, None)
    assert binary("&&", (2, int_t), (5, uint_t), DEFAULT_MODEL) == (1, int_t, None)


SRC_CONSTANT_IF = """void f(void) {
    if (-1 < 0u)
    {
        use(1);
    }
    else
    {
        use(2);
    }
}
"""


def test_constant_unsigned_comparison_findings():
    # `-1 < 0u` compares UINT_MAX < 0: always false, so the then-branch is dead.
    r14 = run_rule(SRC_CONSTANT_IF, "R14.3")
    assert [(f.certainty.value, f.message) for f in r14] == [
        ("definite", "controlling expression is invariant: always false")]
    line = r14[0].span.start.line
    assert kinds_of(run_rule(SRC_CONSTANT_IF, "R2.1")) == [(line + 1, "definite")]


# -- interval comparisons --------------------------------------------------------

def test_interval_comparison_converts_to_unsigned():
    # i converts to UINT_MAX, so `i < n` is false; the ranges cannot show it,
    # but neither branch may be reported dead.
    src = ("void f(void) { int i = -1; unsigned int n = 5u;\n"
           "  if (i < n) { use(1); } else { use(2); } }\n")
    assert run_rule(src, "R14.3") == []
    assert run_rule(src, "R2.1") == []


def test_narrowing_skips_a_variable_the_conversion_changes():
    # i = -1 takes the else branch, so `i < 0` can hold there.
    src = ("void f(int i) {\n  if (i < 5u) { use(1); }\n"
           "  else { if (i < 0) { use(2); } } }\n")
    assert run_rule(src, "R14.3") == []
    assert run_rule(src, "R2.1") == []


def test_narrowing_refines_a_variable_the_conversion_keeps():
    # Every unsigned char value is an unsigned int value: the else branch
    # has c >= 5, so `c < 3u` is always false.
    src = ("void f(unsigned char c) {\n  if (c < 5u) { use(1); }\n"
           "  else { if (c < 3u) { use(2); } } }\n")
    assert [(f.certainty.value, f.message) for f in run_rule(src, "R14.3")] == [
        ("definite", "controlling expression is invariant: always false")]


# -- property: `#if` against the signed-64-bit oracle ----------------------------

def _suffixed(values, suffixes):
    return st.tuples(values, st.sampled_from(["d", "x"]), st.sampled_from(suffixes)).map(
        lambda t: (str(t[0]) if t[1] == "d" else hex(t[0])) + t[2])


def _expressions(atoms, unary_ops, binary_ops, parenthesize, conditional):
    def extend(inner):
        ops = [
            st.tuples(st.sampled_from(unary_ops), inner).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(inner, st.sampled_from(binary_ops), inner).map(
                lambda t: f"({t[0]}) {t[1]} ({t[2]})" if parenthesize else f"{t[0]} {t[1]} {t[2]}"),
        ]
        if conditional:
            ops.append(st.tuples(inner, inner, inner).map(lambda t: f"({t[0]} ? {t[1]} : {t[2]})"))
            ops.append(inner.map(lambda x: f"({x})"))
        return st.one_of(ops)
    return st.recursive(atoms, extend, max_leaves=8)


ARITHMETIC = ["*", "/", "%", "+", "-", "<<", ">>", "<", ">", "<=", ">=", "==", "!=", "&", "^", "|"]
SMALL_OR_ANY = st.one_of(st.integers(0, 70), st.integers(0, INTMAX_MAX))
# Signed operands only: no `u` suffix and no constant above INTMAX_MAX.
SIGNED = st.one_of(
    _suffixed(SMALL_OR_ANY, ["", "l", "L", "ll", "LL"]),
    st.sampled_from([str(INTMAX_MAX), "'A'", "'\\n'", "UNDEFINED_NAME"]),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_expressions(SIGNED, ["-", "+", "~", "!"], ARITHMETIC + ["&&", "||"],
                    parenthesize=False, conditional=True))
def test_if_matches_signed_oracle_on_signed_operands(text):
    got = pp_outcome(evaluate_pp_condition, text)
    # A shift count out of range has no value here; the oracle gives 0 or
    # the wrapped product. That case is outside the oracle's domain.
    assume(got[:3] != ("error", PreprocessError, "shift count out of range in #if expression"))
    assert got == pp_outcome(preprocessor_oracle.evaluate_pp_condition, text), text


# -- property: `#if` against `const_value` under the same model -----------------

ANY_CONSTANT = _suffixed(
    st.one_of(st.integers(0, 70), st.integers(0, UINTMAX_MAX),
              st.sampled_from([1 << 31, (1 << 32) - 1, INTMAX_MAX, 1 << 63, UINTMAX_MAX])),
    ["", "u", "U", "l", "L", "ul", "LU", "ll", "ULL", "llu"],
)


def c_outcome(text: str):
    """The `const_value` of `text` resolved as C under `PP_MODEL`."""
    try:
        operand = c_operand(text, PP_MODEL)
    except SemaError:
        return None  # a constant that fits no type
    return operand.const_value


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_expressions(ANY_CONSTANT, ["-", "+", "~", "!"], ARITHMETIC,
                    parenthesize=True, conditional=False))
def test_if_matches_const_eval_under_pp_model(text):
    got = pp_outcome(evaluate_pp_condition, text)
    assert (got[1] if got[0] == "value" else None) == c_outcome(text), (text, got)
