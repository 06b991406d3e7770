import re
import shutil
import subprocess
from dataclasses import FrozenInstanceError, fields, is_dataclass

import pytest

from ccomply.errors import AnalysisError, SemaError, UnsupportedConstructError
from ccomply.flow import build_call_graph
from ccomply.parsing import (
    QUALIFIER_SETS, Assign, Binary, Call, Declaration, ExprStmt, FunctionDef, Identifier,
    Return, SynBase, SynPtr, SynType, astnodes, parse, walk,
)
from ccomply.sema import (
    TK, IntegerModel, Linkage, Scope, Storage, Symbol, SymKind,
    integer_promote, is_object_pointer, link_units, promoted_width, resolve,
    same_type, type_range,
)
from ccomply.sema.typesys import (
    DEFAULT_MODEL, EnumInfo, RecordInfo, TypeDesc, make_int, make_pointer, sizeof_type,
)
from ccomply.rules import IMPLEMENTED, compute_tu_facts, run_rules
from support import pp_text


def analyze(text: str, path: str = "t.c"):
    toks, _, _, _ = pp_text(text, path=path)
    tu = parse(toks, path)
    table = resolve(tu)
    return tu, table


def fn_body(text: str):
    tu, table = analyze(text)
    fn = [d for d in tu.decls if isinstance(d, FunctionDef)][0]
    return fn.body, table


def first_expr(body_text: str, prelude: str = ""):
    body, _ = fn_body(f"{prelude}\nvoid f(void) {{\n{body_text}\n}}\n")
    stmt = body.items[-1]
    assert isinstance(stmt, ExprStmt)
    return stmt.expr


class TestTyping:
    def test_uint32_shift_types_as_unsigned_32(self):
        # Promotion leaves uint32 unchanged; shift takes the left type.
        body, _ = fn_body("void f(void) { uint32_t i = 1; i = i << 1; }")
        assign = body.items[1].expr
        shift = assign.value
        assert shift.ctype.kind is TK.UINT and shift.ctype.width == 32

    def test_char_plus_int_promotes_to_int32(self):
        body, _ = fn_body("void f(void) { char c = 'a'; c + 1; }")
        add = body.items[1].expr
        assert add.ctype.kind is TK.INT and add.ctype.width == 32

    def test_undeclared_identifier_error_carries_location(self):
        with pytest.raises(SemaError) as exc:
            analyze("void f(void) { use(x); }\n")
        assert exc.value.loc is not None
        assert "undeclared" in str(exc.value)

    def test_shift_of_unsigned_8_promotes_left_to_int(self):
        body, _ = fn_body("void f(void) { uint8_t b = 1; b << 1; }")
        shift = body.items[1].expr
        assert shift.ctype.kind is TK.INT and shift.ctype.width == 32

    def test_pointer_arithmetic_and_deref(self):
        body, _ = fn_body("void f(int *p) { *(p + 1) = 2; }")
        target = body.items[0].expr.target
        assert target.ctype.kind is TK.INT

    def test_array_indexing_and_decay(self):
        body, _ = fn_body("void f(void) { int a[4]; a[1] = 2; }")
        target = body.items[1].expr.target
        assert target.ctype.kind is TK.INT

    def test_struct_member_access(self):
        text = "struct P { int x; char tag; };\nvoid f(struct P *p) { p->x = 1; (*p).tag = 'a'; }\n"
        body, _ = fn_body(text)
        assert body.items[0].expr.target.ctype.kind is TK.INT
        assert body.items[1].expr.target.ctype.width == 8

    def test_enum_constants_are_int(self):
        e = first_expr("use(GREEN);", prelude="enum C { RED, GREEN = 5 };\nextern void use(int);")
        arg = e.args[0]
        assert arg.symbol.kind is SymKind.ENUM_CONST
        assert arg.symbol.enum_value == 5

    def test_call_of_non_function_is_error(self):
        with pytest.raises(SemaError) as exc:
            analyze("void f(void) { int x; x(1); }\n")
        assert "not a function" in str(exc.value)

    def test_subscript_of_non_pointer_is_error(self):
        with pytest.raises(SemaError) as exc:
            analyze("void f(void) { int x; x[0] = 1; }\n")
        assert "subscripted" in str(exc.value)

    def test_conflicting_redeclaration_is_error(self):
        with pytest.raises(SemaError) as exc:
            analyze("int x;\nchar x;\n")
        assert "conflicting" in str(exc.value)

    def test_compatible_redeclaration_merges(self):
        tu, table = analyze("extern int x;\nint x;\nint f(void);\nint f(void) { return x; }\n")
        syms = [s for s in table.file_scope.names.values() if s.name == "x"]
        assert len(syms) == 1

    def test_call_arity_checked_with_prototype(self):
        with pytest.raises(SemaError):
            analyze("extern void g(int);\nvoid f(void) { g(1, 2); }\n")
        analyze("extern void v(int, ...);\nvoid f(void) { v(1, 2, 3); }\n")

    def test_vla_is_unsupported(self):
        with pytest.raises(UnsupportedConstructError):
            analyze("void f(int n) { int a[n]; }\n")

    def test_sizeof_types(self):
        tu, _ = analyze("unsigned long n = sizeof(int);\n")
        init = tu.decls[0].entries[0].init
        assert init.ctype.kind is TK.UINT and init.ctype.width == 64

    def test_function_pointer_call(self):
        body, _ = fn_body(
            "extern int g(int);\nvoid f(void) { int (*fp)(int) = g; fp(1); (*fp)(2); }"
        )
        assert body.items[1].expr.ctype.kind is TK.INT

    def test_volatile_and_const_qualifiers_land_on_types(self):
        tu, table = analyze("volatile int v;\nconst char *msg;\nint * const cp = 0;\n")
        v = table.file_scope.names["v"]
        assert "volatile" in v.type.quals
        msg = table.file_scope.names["msg"]
        assert msg.type.kind is TK.POINTER and "const" in msg.type.pointee.quals
        cp = table.file_scope.names["cp"]
        assert "const" in cp.type.quals and not cp.type.pointee.quals


class TestStorageAndLinkage:
    def test_file_scope_defaults(self):
        _, table = analyze("int g;\nstatic int s;\nextern int e;\n")
        names = table.file_scope.names
        assert names["g"].linkage is Linkage.EXTERNAL
        assert names["s"].linkage is Linkage.INTERNAL
        assert names["e"].storage is Storage.EXTERN

    def test_locals_are_automatic(self):
        body, table = fn_body("void f(int p) { int x; static int s; }")
        fn_scope_syms = {s.name: s for s in table.symbols if s.name in ("p", "x", "s")}
        assert fn_scope_syms["p"].is_param and fn_scope_syms["p"].storage is Storage.AUTO
        assert fn_scope_syms["x"].is_local_object
        assert fn_scope_syms["s"].storage is Storage.STATIC

    def test_external_unification_across_tus(self):
        def one(text, path):
            toks, _, _, _ = pp_text(text, path=path)
            tu = parse(toks, path)
            return resolve(tu)

        t1 = one("extern int x;\nint use_it(void) { return x; }\n", "a.c")
        t2 = one("int x;\n", "b.c")
        prog = link_units([t1, t2])
        assert len(prog.objects["x"]) == 2
        assert "use_it" in prog.functions

    def test_conflicting_external_types_rejected(self):
        def one(text, path):
            toks, _, _, _ = pp_text(text, path=path)
            return resolve(parse(toks, path))

        t1 = one("extern int x;\n", "a.c")
        t2 = one("char x;\n", "b.c")
        with pytest.raises(SemaError):
            link_units([t1, t2])

    def test_static_functions_unify_per_tu(self):
        def one(text, path):
            toks, _, _, _ = pp_text(text, path=path)
            return resolve(parse(toks, path))

        t1 = one("static int helper(void) { return 1; }\n", "a.c")
        t2 = one("static int helper(void) { return 2; }\n", "b.c")
        prog = link_units([t1, t2])
        helpers = [k for k in prog.functions if k.endswith("::helper")]
        assert len(helpers) == 2


class TestPromotedWidth:
    def test_spec_examples(self):
        assert promoted_width(make_int(32, False)) == 32
        assert promoted_width(make_int(8, False)) == 32
        assert promoted_width(make_int(64, False)) == 64

    def test_idempotent(self):
        for width in (8, 16, 32, 64):
            for signed in (True, False):
                w = promoted_width(make_int(width, signed))
                assert promoted_width(make_int(w, True)) == w

    def test_non_arithmetic_rejected(self):
        with pytest.raises(SemaError):
            promoted_width(make_pointer(make_int(32, True)))


class TestConstEval:
    """The C99 6.6 value the resolver records in `const_value`."""

    def evaluate(self, expr_text: str, prelude: str = "extern void sink(int);\n"):
        e = first_expr(f"sink({expr_text});", prelude=prelude + "extern void sink(int);")
        return e.args[0]

    def test_masked_shift_is_zero(self):
        arg = self.evaluate("32 & 0x1F")
        assert arg.const_value == 0

    def test_strict_conditional(self):
        e = first_expr("sink(1 ? 2 : x);",
                       prelude="extern void sink(int);\nextern int x;")
        assert e.args[0].const_value is None

    def test_unary_minus(self):
        arg = self.evaluate("-(1)")
        assert arg.const_value == -1
        assert arg.ctype.kind is TK.INT

    def test_signed_overflow_wraps_and_tags_undefined(self):
        e = first_expr("sink(2147483647 + 1);", prelude="extern void sink(int);")
        arg = e.args[0]
        assert arg.const_value == -(1 << 31)
        assert arg.behavior == "undefined"

    def test_unsigned_wraparound_is_silent(self):
        e = first_expr("sink(4294967295u + 1u);", prelude="extern void sink(unsigned int);")
        arg = e.args[0]
        assert arg.const_value == 0 and arg.ctype.kind is TK.UINT
        assert arg.behavior is None

    def test_division_by_zero_not_constant_and_tagged(self):
        e = first_expr("sink(1 / 0);", prelude="extern void sink(int);")
        arg = e.args[0]
        assert arg.const_value is None
        assert arg.behavior == "undefined"

    def test_call_and_volatile_are_not_constant(self):
        e = first_expr("sink(g() + 1);",
                       prelude="extern void sink(int);\nextern int g(void);")
        assert e.args[0].const_value is None
        e = first_expr("sink(v + 0);",
                       prelude="extern void sink(int);\nextern volatile int vv;\nextern int v;")
        assert e.args[0].const_value is None  # plain ident, still strict

    def test_enum_constant_folds(self):
        e = first_expr("sink(B + 1);",
                       prelude="enum E { A = 2, B };\nextern void sink(int);")
        assert e.args[0].const_value == 4

    def test_sizeof_folds(self):
        e = first_expr("sink(sizeof(uint16_t));", prelude="extern void sink(int);")
        assert e.args[0].const_value == 2

    def test_shift_out_of_range_not_constant(self):
        e = first_expr("sink(1 << 40);", prelude="extern void sink(int);")
        arg = e.args[0]
        assert arg.const_value is None and arg.behavior == "undefined"

    def test_agrees_with_bigint_oracle(self):
        # Independent oracle: evaluate with unbounded integers, then apply
        # one final conversion into the result type.
        cases = [
            ("(3 * 1000) % 7", (3 * 1000) % 7),
            ("(1 << 20) - 1", (1 << 20) - 1),
            ("~0 ^ 5", ~0 ^ 5),
            ("100 / 7", 100 // 7),
            ("-100 / 7", -(100 // 7)),
            ("-100 % 7", -(100 % 7)),
            ("6 & 3 | 8 ^ 1", 6 & 3 | 8 ^ 1),
        ]
        for text, expected in cases:
            value = self.evaluate(text).const_value
            assert value is not None, text
            assert value == expected, text


class TestIntegerModel:
    def test_char_signedness_override(self):
        model = IntegerModel(char_signed=False)
        toks, _, _, _ = pp_text("char c;\n")
        tu = parse(toks, "t.c")
        table = resolve(tu, model)
        c = table.file_scope.names["c"]
        assert c.type.kind is TK.UINT

    def test_width_override_changes_promotion(self):
        model = IntegerModel(int_bits=16, long_bits=32, long_long_bits=64)
        assert integer_promote(make_int(8, False), model).width == 16

    def test_invalid_width_rejected(self):
        with pytest.raises(SemaError):
            IntegerModel(int_bits=24).validate()

    @pytest.mark.parametrize("model, field", [
        (IntegerModel(int_bits=24), "int_bits=24"),
        (IntegerModel(int_bits=64, long_bits=32), "long_bits=32"),
    ])
    def test_resolve_rejects_an_invalid_model_naming_the_field(self, model, field):
        # A width outside the set, and widths that decrease (C99 6.2.5p8).
        toks, _, _, _ = pp_text("int x;\n")
        with pytest.raises(SemaError, match=field):
            resolve(parse(toks, "t.c"), model)

    def test_type_ranges(self):
        assert type_range(make_int(8, True), DEFAULT_MODEL) == (-128, 127)
        assert type_range(make_int(32, False), DEFAULT_MODEL) == (0, 4294967295)

    def test_record_layout_sizes(self):
        tu, table = analyze("struct S { char c; int i; char d; };\nstruct S s;\n")
        s = table.file_scope.names["s"]
        assert sizeof_type(s.type, DEFAULT_MODEL) == 12


class TestQualifiedRecords:
    """Qualifiers on a struct, union or enum object, and on its members."""

    @pytest.mark.parametrize("text", [
        "volatile struct S { int m; } s;\n",
        "struct S { int m; };\nvolatile struct S s;\n",
        "union U { int m; };\nconst volatile union U s;\n",
        "volatile enum E { A } s;\n",
    ])
    def test_object_keeps_its_qualifiers(self, text):
        _, table = analyze(text)
        s = table.file_scope.names["s"]
        assert "volatile" in s.type.quals and "volatile" in s.quals

    def test_tag_type_stays_unqualified(self):
        _, table = analyze("volatile struct S { int m; } s;\nstruct S t;\n")
        s, t = table.file_scope.names["s"], table.file_scope.names["t"]
        assert t.type.quals == frozenset() and same_type(s.type, t.type)

    def test_member_takes_the_object_qualifiers(self):
        prelude = ("struct S { int m; const int c; int a[2]; };\n"
                   "const volatile struct S s;\nstruct S *p;\nvolatile struct S *vp;\n")
        assert first_expr("s.m;", prelude).ctype.quals == {"const", "volatile"}
        assert first_expr("s.c;", prelude).ctype.quals == {"const", "volatile"}
        assert first_expr("s.a[0];", prelude).ctype.quals == {"const", "volatile"}
        assert first_expr("vp->m;", prelude).ctype.quals == {"volatile"}
        assert first_expr("p->m;", prelude).ctype.quals == frozenset()
        assert first_expr("p->c;", prelude).ctype.quals == {"const"}


class TestInterning:
    """Integer types and qualifier sets are shared values; records and enums are not."""

    def test_make_int_returns_one_value_per_width_and_signedness(self):
        values = {}
        for width in (8, 16, 32, 64):
            for signed in (True, False):
                t = make_int(width, signed)
                assert t is make_int(width, signed)
                assert t.kind is (TK.INT if signed else TK.UINT) and t.width == width
                values[width, signed] = t
        assert len({id(t) for t in values.values()}) == 8

    @pytest.mark.parametrize("width", [0, 1, 12, 24, 128])
    def test_make_int_rejects_unsupported_width(self, width):
        with pytest.raises(SemaError, match="outside the supported set"):
            make_int(width, True)

    def test_resolved_integer_types_are_shared(self):
        _, table = analyze("int a; signed b; unsigned int c; uint32_t d;\n")
        names = table.file_scope.names
        assert names["a"].type is names["b"].type is make_int(32, True)
        assert names["c"].type is names["d"].type is make_int(32, False)

    def test_qualifier_sets_come_from_the_shared_table(self):
        tu, table = analyze(
            "const volatile int * const restrict p;\n"
            "volatile struct S { const int m; } s;\n"
            "int * q;\n"
        )
        shared = [QUALIFIER_SETS[key] for key in QUALIFIER_SETS]

        def is_shared(quals):
            return any(quals is q for q in shared)

        syntax = [e.syntype for d in tu.decls for e in d.entries]
        syntax += [m.syntype for m in syntax[1].base.members]
        for st in syntax:
            assert is_shared(st.base.quals)
            assert all(is_shared(d.quals) for d in st.derivs if isinstance(d, SynPtr))
        p, s = table.file_scope.names["p"], table.file_scope.names["s"]
        assert p.type.quals is QUALIFIER_SETS[True, False]  # restrict is dropped
        assert p.type.pointee.quals is QUALIFIER_SETS[True, True]
        assert s.type.record.members[0][1].quals is QUALIFIER_SETS[True, False]

    def test_same_type_answers_are_unchanged(self):
        _, table = analyze(
            "struct A { int x; }; struct B { int x; };\n"
            "enum E { E0 }; enum F { F0 };\n"
            "int i1; int i2; unsigned u; long l; long long ll;\n"
            "struct A a1; struct A a2; struct B b;\n"
            "enum E e; enum F f;\n"
            "int *p1; int *p2; const int *pc; int * const cp; int arr[2];\n"
        )
        t = {name: sym.type for name, sym in table.file_scope.names.items()}
        # same_type holds exactly within each group. It compares a pointer's
        # own qualifiers but not those of an integer pointee.
        groups = [["i1", "i2"], ["u"], ["l", "ll"], ["a1", "a2"], ["b"], ["e"], ["f"],
                  ["p1", "p2", "pc"], ["cp"], ["arr"]]
        assert t["a1"] is t["a2"] and t["a1"] is not t["b"]
        assert t["a1"].record is not t["b"].record and t["e"].enum is not t["f"].enum
        group_of = {name: i for i, names in enumerate(groups) for name in names}
        for x in group_of:
            for y in group_of:
                assert same_type(t[x], t[y]) is (group_of[x] == group_of[y]), (x, y)


class TestCompactTrees:
    """The trees callers keep are compact: no per-instance dicts, and one
    object per leaf syntactic type and per derived type of a unit."""

    def test_no_instance_has_a_dict(self):
        classes = [c for c in vars(astnodes).values() if isinstance(c, type) and is_dataclass(c)]
        assert {Identifier, SynBase, SynType, FunctionDef} <= set(classes)
        classes += [Symbol, Scope, TypeDesc, RecordInfo, EnumInfo]
        assert [c.__name__ for c in classes if c.__dictoffset__] == []

    def test_register_declarations_share_one_base_syntype_and_type(self):
        tu, _ = analyze("extern volatile uint32_t a;\nextern volatile uint32_t b;\n")
        a, b = (d.entries[0] for d in tu.decls)
        assert tu.decls[0].base is tu.decls[1].base is a.syntype.base
        assert a.syntype is b.syntype
        assert a.symbol.type is b.symbol.type
        assert a.symbol.type.quals is QUALIFIER_SETS[False, True]

    def test_pointer_declarations_and_expressions_share_the_pointer_type(self):
        tu, table = analyze(
            "int *p;\nint *q;\nint a[2];\n"
            "void f(void) { p = a; q = &a[0]; }\n"
        )
        p, q = table.file_scope.names["p"], table.file_scope.names["q"]
        assert p.type is q.type
        assert tu.decls[0].entries[0].syntype is tu.decls[1].entries[0].syntype
        decay, addr = (s.expr for s in tu.decls[3].body.items)
        assert decay.ctype is addr.value.ctype is p.type

    def test_struct_definitions_never_share_a_base(self):
        tu, table = analyze(
            "struct { int m; } a;\nstruct { int m; } b;\n"
            "struct S { int m; } c;\nstruct T { int m; } d;\n"
            "struct S *p;\nstruct S *q;\n"
        )
        bases = [d.base for d in tu.decls]
        assert len({id(b) for b in bases[:4]}) == 4
        assert bases[4] is bases[5]  # a reference to a tag defines no body
        names = table.file_scope.names
        assert names["a"].type is not names["b"].type
        assert names["p"].type is names["q"].type

    def test_shared_classes_are_frozen(self):
        tu, _ = analyze("const int *p;\n")
        entry = tu.decls[0].entries[0]
        for obj in (entry.syntype, entry.syntype.base, entry.syntype.derivs[0],
                    entry.symbol.type, entry.symbol.type.pointee):
            name = fields(obj)[0].name
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, getattr(obj, name))

    def test_each_unit_builds_its_own_derived_types(self):
        _, first = analyze("int *p;\n")
        _, second = analyze("int *p;\n")
        assert first.file_scope.names["p"].type is not second.file_scope.names["p"].type


class TestFunctionDefinitionParameters:
    """A definition's parameter types are resolved once, in the function's
    scope (C99 6.2.1p4), and its function type is built from them."""

    def test_parameter_record_is_defined_once(self):
        tu, table = analyze("void f(struct P { int x; } a) { a.x = 1; }\n")
        fn = tu.decls[0]
        assert fn.symbol.type.params[0] is fn.params[0].symbol.type
        assert fn.symbol.type.params[0].record is fn.params[0].symbol.type.record
        assert "P" not in table.file_scope.tags

    def test_parameter_enumerators_are_declared_once(self):
        tu, table = analyze("void f(enum E { A } e) { e = A; }\n")
        fn = tu.decls[0]
        consts = [s for s in table.symbols if s.kind is SymKind.ENUM_CONST]
        assert [s.name for s in consts] == ["A"]
        assert consts[0].scope_id == fn.params[0].symbol.scope_id != 0
        assert fn.symbol.type.params[0] is fn.params[0].symbol.type

    def test_parameter_tag_hides_a_file_scope_tag(self):
        tu, table = analyze("struct P { int y; };\nvoid f(struct P { int x; } a) { a.x = 1; }\n")
        outer = table.file_scope.tags["P"].record
        assert tu.decls[1].params[0].symbol.type.record is not outer

    def test_adjusted_parameter_types_are_the_function_type_parameters(self):
        tu, _ = analyze("void f(int a[3], void g(void), const char *s) { }\n")
        fn = tu.decls[0]
        assert [p.symbol.type.kind for p in fn.params] == [TK.POINTER] * 3
        assert all(t is p.symbol.type for t, p in zip(fn.symbol.type.params, fn.params))


class TestSeveralDeclarators:
    """A tagged definition with several declarators defines its tag and
    enumerators once."""

    @pytest.mark.parametrize("text", [
        "struct S { int m; } a, b;",
        "struct S { int m; } a[2], *p;",
        "void f(void) { struct S { int m; } a, b; a.m = b.m; }",
        "typedef struct S { int m; } T, *TP;",
    ])
    def test_record_declarators_share_one_type(self, text):
        tu, table = analyze(text)
        objects = [s for s in table.symbols if s.kind in (SymKind.OBJECT, SymKind.TYPEDEF)
                   and s.name in ("a", "b", "p", "T", "TP")]
        assert objects
        records = set()
        for sym in objects:
            t = sym.type
            while t.kind in (TK.ARRAY, TK.POINTER):
                t = t.elem if t.kind is TK.ARRAY else t.pointee
            records.add(id(t.record))
        assert len(records) == 1

    def test_member_declarators_share_one_type(self):
        _, table = analyze("struct O { struct I { int x; } a, b[2]; } o;")
        o = [s for s in table.symbols if s.name == "o"][0]
        (_, a, _), (_, b, _) = o.type.record.members
        assert a is b.elem

    def test_anonymous_record_declarators_share_one_type(self):
        _, table = analyze("struct { int m; } a, b;")
        a, b = (s for s in table.symbols if s.name in ("a", "b"))
        assert a.type is b.type

    def test_enum_declarators_declare_each_enumerator_once(self):
        _, table = analyze("enum E { X, Y = 4 } e1, e2;")
        consts = sorted((s.name, s.enum_value) for s in table.symbols
                        if s.kind is SymKind.ENUM_CONST)
        assert consts == [("X", 0), ("Y", 4)]
        e1, e2 = (s for s in table.symbols if s.name in ("e1", "e2"))
        assert e1.type is e2.type

    @pytest.mark.parametrize("text, message", [
        ("struct S { int m; } a; struct S { int m; } b;", "redefinition of struct 'S'"),
        ("enum E { X } e1; enum F { X } e2;", "redeclaration of 'X'"),
        ("struct O { struct I { int x; } a; struct I { int x; } b; } o;",
         "redefinition of struct 'I'"),
    ])
    def test_second_definition_in_one_scope_is_error(self, text, message):
        with pytest.raises(SemaError, match=message):
            analyze(text)


class TestComparisonOperands:
    PRELUDE = "extern void use(int);\nstruct S { int m; } s;\n"

    @pytest.mark.parametrize("expr", [
        "s < 1", "1 > s", "s == s", "s != 0",
        "p == 5", "5 != p", "p < 0", "p >= 1.0", "p == 0.0", "p == x * 0",
        "f == 1",
    ])
    def test_invalid_operands_rejected_at_the_operator(self, expr):
        text = f"{self.PRELUDE}void f(int *p, int *q, int x) {{\n  use({expr});\n}}\n"
        with pytest.raises(SemaError, match="operands of") as info:
            analyze(text)
        assert (info.value.loc.line, info.value.loc.column) == (4, 7)

    @pytest.mark.parametrize("expr", [
        "p == 0", "0 != p", "p == (void *)0", "p == q", "p < q", "p >= q",
        "1 < 2.0", "x == 2.0", "p == 1 - 1", "p != (char)0", "p == (0)",
        "s.m < x", "p == g", "g != 0", "f == f",
    ])
    def test_valid_operands_accepted(self, expr):
        text = (f"{self.PRELUDE}int *g;\n"
                f"void f(int *p, int *q, int x) {{ use({expr}); }}\n")
        tu, _ = analyze(text)
        fn = [d for d in tu.decls if isinstance(d, FunctionDef)][0]
        cmp = [n for n in walk(fn.body) if isinstance(n, Binary)
               and n.op in ("==", "!=", "<", ">", "<=", ">=")][0]
        assert cmp.ctype.kind is TK.INT and cmp.ctype.width == 32


class TestSizeofOperand:
    """C99 6.5.3.4p1: `sizeof` takes no incomplete or function type."""

    PRELUDE = "extern void use(unsigned long);\n"

    @pytest.mark.parametrize("decls, expr, message", [
        ("", "sizeof(void)", "sizeof(void) is not defined"),
        ("extern int a[];\n", "sizeof a", "sizeof an incomplete array type"),
        ("struct S;\n", "sizeof(struct S)", "sizeof an incomplete record type"),
        ("extern int g(void);\n", "sizeof g", "sizeof not defined for"),
    ])
    def test_rejected_at_the_sizeof(self, decls, expr, message):
        text = f"{self.PRELUDE}{decls}void f(void) {{\n  use({expr});\n}}\n"
        with pytest.raises(SemaError, match=re.escape(message)) as info:
            analyze(text)
        assert (info.value.loc.line, info.value.loc.column) == (decls.count("\n") + 3, 7)

    def test_record_completed_later_is_rejected_before_and_folds_after(self):
        early = "struct S;\nunsigned long n = sizeof(struct S);\nstruct S { int m; };\n"
        with pytest.raises(SemaError, match="incomplete record type"):
            analyze(early)
        tu, _ = analyze("struct S;\nstruct S { int m; };\nunsigned long n = sizeof(struct S);\n")
        assert tu.decls[-1].entries[0].init.const_value == 4

    @pytest.mark.parametrize("decl, expr, value", [
        ("int a[] = {1, 2, 3};", "sizeof a / sizeof a[0]", 3),
        ('char s[] = "abc";', "sizeof s", 4),
        ('char s[] = {"ab"};', "sizeof s", 3),
        ('char *s[] = {"ab"};', "sizeof s / sizeof s[0]", 1),
        ('char s[][4] = {"ab", "cd"};', "sizeof s", 8),
        ("int m[][2] = {{1, 2}, {3, 4}, {5, 6}};", "sizeof m / sizeof m[0]", 3),
        ("int m[][2] = {1, 2, 3};", "sizeof m / sizeof m[0]", 2),
        ("struct P { int x; int y; };\nstruct P p[] = {1, 2, 3, 4, {5}};", "sizeof p / sizeof p[0]", 3),
        ("struct P { int x; int y; };\nstruct P p[] = {1, 2, 3, {4}};", "sizeof p / sizeof p[0]", 2),
        ("struct P { int x; int y; };\nstruct P q = {1, 2};\nstruct P p[] = {q, q};",
         "sizeof p / sizeof p[0]", 2),
        ("union U { int i; char c; };\nunion U u[] = {1, 2};", "sizeof u / sizeof u[0]", 2),
    ])
    def test_initializer_completes_an_array_of_unknown_size(self, decl, expr, value):
        # C99 6.7.8p22: the initializer gives the array its length.
        tu, _ = analyze(f"{decl}\nunsigned long n = {expr};\n")
        assert tu.decls[-1].entries[0].init.const_value == value
        local, _ = analyze(f"extern void use(unsigned long);\nvoid f(void) {{\n{decl}\nuse({expr});\n}}\n")
        call = [n for n in walk(local.decls[-1].body) if isinstance(n, Call)][0]
        assert call.args[0].const_value == value


class TestArrayRedeclaration:
    """C99 6.7.5.2p6: an array of unknown size is compatible with one of known
    size, and a redeclaration takes their composite type (6.2.7p3)."""

    @pytest.mark.parametrize("decls", [
        "extern int a[];\nint a[3];\n",
        "int a[3];\nextern int a[];\n",
        "extern int a[];\nextern int a[3];\nextern int a[];\n",
    ])
    def test_sized_and_unsized_declarations_merge_to_the_sized_type(self, decls):
        tu, table = analyze(decls + "unsigned long n = sizeof a;\n")
        a = table.file_scope.names["a"]
        assert a.type.kind is TK.ARRAY and a.type.length == 3 and a.type.elem.kind is TK.INT
        assert tu.decls[-1].entries[0].init.const_value == 12
        assert [e.symbol for d in tu.decls[:-1] for e in d.entries] == [a] * (len(tu.decls) - 1)

    def test_the_first_declaration_keeps_reporting_the_symbol(self):
        _, table = analyze("extern int a[];\nint a[3];\n")
        assert table.file_scope.names["a"].def_span.start.line == 1

    def test_multidimensional_outer_bound_merges(self):
        _, table = analyze("extern int m[][2];\nint m[4][2];\n")
        m = table.file_scope.names["m"].type
        assert m.length == 4 and m.elem.length == 2

    def test_an_initializer_still_completes_the_merged_array(self):
        _, table = analyze("extern int a[];\nint a[] = {1, 2};\n")
        assert table.file_scope.names["a"].type.length == 2

    @pytest.mark.parametrize("decls", [
        "int a[2];\nint a[3];\n",
        "extern int a[];\nchar a[3];\n",
        "extern int m[][2];\nint m[4][3];\n",
        "extern int a[];\nint a;\n",
    ])
    def test_incompatible_redeclarations_still_raise(self, decls):
        with pytest.raises(SemaError, match="conflicting redeclaration of '[am]'"):
            analyze(decls)


class TestBlockScopeRedeclaration:
    """C99 6.7p3 forbids declaring a name twice in one scope only when it
    has no linkage: two block-scope `extern` declarations name one object."""

    def test_two_extern_declarations_in_a_block_merge(self):
        tu, table = analyze("extern void use(int);\n"
                            "void f(void) { extern int x; extern int x; use(x); }\n")
        body = tu.decls[-1].body
        first, second = (e.symbol for d in body.items[:2] for e in d.entries)
        assert first is second and first.linkage is Linkage.EXTERNAL
        call = [n for n in walk(body) if isinstance(n, Call)][0]
        assert call.args[0].symbol is first

    def test_two_declarations_without_linkage_still_raise(self):
        with pytest.raises(SemaError, match="^redeclaration of 'x'"):
            analyze("void f(void) { int x; int x; }\n")

    def test_incompatible_extern_declarations_still_raise(self):
        with pytest.raises(SemaError, match="conflicting redeclaration of 'x'"):
            analyze("void f(void) { extern int x; extern float x; }\n")


class TestMemberOfNonLvalue:
    """C99 6.5.2.3p3: `x.m` is an lvalue only when `x` is one."""

    PRELUDE = ("struct S { int m; int a[2]; };\nstruct S mk(void);\n"
               "struct S s, t, arr[2];\nstruct S *p;\n")

    @pytest.mark.parametrize("stmt", [
        "mk().m = 1;",
        "int *q = &mk().m;",
        "(c ? s : t).m = 1;",
    ])
    def test_rejected(self, stmt):
        with pytest.raises(SemaError, match=r"not an lvalue \(Member\)") as info:
            analyze(f"{self.PRELUDE}void f(int c) {{\n  {stmt}\n}}\n")
        assert info.value.loc.line == 6

    @pytest.mark.parametrize("stmt", [
        "mk().a[0] = 1;",
        "s.m = 1;",
        "p->m = 1;",
        "arr[0].m = 1;",
        "int *q = &s.a[1];",
    ])
    def test_accepted(self, stmt):
        analyze(f"{self.PRELUDE}void f(int c) {{\n  {stmt}\n}}\n")


class TestStaticInitializerCall:
    """C99 6.7.8p4: an object of static storage duration takes constant
    initializers, and a call is none (6.6p3)."""

    PRELUDE = "int g(void);\nint v;\n"

    @pytest.mark.parametrize("decl, column", [
        ("int x = g();", 9),
        ("static int x = 1 + g();", 20),
        ("int x[2] = { 1, g() };", 17),
        ("void f(void) { static int x = g(); }", 31),
        ("void f(void) { static int x[2][1] = { { 0 }, { g() } }; }", 48),
    ])
    def test_rejected_at_the_call(self, decl, column):
        with pytest.raises(SemaError, match="initializer of static object 'x' is not constant") as info:
            analyze(f"{self.PRELUDE}{decl}\n")
        assert (info.value.loc.line, info.value.loc.column) == (3, column)

    @pytest.mark.parametrize("decl", [
        "static int n = sizeof(g());",
        "void f(void) { static unsigned long n = sizeof g(); }",
        "void f(void) { int z = g(); int a[2] = { g(), z }; }",
        "int *p = &v;",
    ])
    def test_accepted(self, decl):
        analyze(f"{self.PRELUDE}{decl}\n")


class TestBlockScopeExternInitializer:
    """C99 6.7.8p5: a block-scope declaration of an identifier with linkage
    has no initializer; gcc -std=c99 -pedantic-errors rejects both shapes."""

    PRELUDE = "int g(void);\n"

    @pytest.mark.parametrize("decl", [
        "void f(void) { extern int x = 1; }",
        "void f(void) { extern int x = g(); }",
    ])
    def test_rejected_at_the_declarator(self, decl):
        with pytest.raises(SemaError, match="'x' has both 'extern' and initializer") as info:
            analyze(f"{self.PRELUDE}{decl}\n")
        assert (info.value.loc.line, info.value.loc.column) == (2, 27)

    @pytest.mark.parametrize("decl", [
        "extern int x = 1;",
        "void f(void) { extern int x; int y = x; }",
        "void f(void) { static int x = 1; }",
    ])
    def test_accepted(self, decl):
        analyze(f"{self.PRELUDE}{decl}\n")


class TestForDeclaration:
    """C99 6.8.5p3: the declaration of a `for` clause declares only objects of
    storage class `auto` or `register`; gcc -std=c99 -pedantic-errors rejects
    every other shape."""

    @pytest.mark.parametrize("clause, name, column", [
        ("static int i = 0", "i", 33),
        ("extern int i", "i", 33),
        ("typedef int T", "T", 34),
        ("int g(void)", "g", 26),
    ])
    def test_rejected_at_the_declarator(self, clause, name, column):
        message = f"'for' loop initial declaration of '{name}' declares no auto or register"
        with pytest.raises(SemaError, match=message) as info:
            analyze(f"void f(int n) {{ for ({clause}; n < 1; n++) {{ }} }}\n")
        assert (info.value.loc.line, info.value.loc.column) == (1, column)

    @pytest.mark.parametrize("clause", ["int i = 0, j = 1", "register int i = 0", "auto int i = 0"])
    def test_accepted(self, clause):
        analyze(f"void f(int n) {{ for ({clause}; i < n; i++) {{ }} }}\n")


class TestBlockScopeFunctionStorage:
    """C99 6.7.1p5: a block-scope function declaration takes no storage class
    but `extern`; gcc rejects the others ("invalid storage class for function")."""

    @pytest.mark.parametrize("storage", ["static", "auto", "register"])
    def test_rejected_at_the_declarator(self, storage):
        with pytest.raises(SemaError, match="invalid storage class for function 'g'") as info:
            analyze(f"void f(void) {{ {storage} int g(void); }}\n")
        assert (info.value.loc.line, info.value.loc.column) == (1, 21 + len(storage))

    @pytest.mark.parametrize("decl", [
        "extern int g(void); int x = g();",
        "int g(void);",
        "typedef int G(void); extern G g;",
    ])
    def test_accepted(self, decl):
        analyze(f"void f(void) {{ {decl} }}\nstatic int h(void);\n")


class TestArraySizeFlaw:
    """An array size whose constant evaluation has undefined behavior is no
    constant in its type's range (C99 6.6p4): a `SemaError` that names the
    flaw, not the VLA message."""

    @pytest.mark.parametrize("text, flaw, column", [
        ("void f(void) { int a[1 << 35]; }\n", "shift count out of range in '<<'", 22),
        ("typedef int T[1 << 35];\n", "shift count out of range in '<<'", 15),
        ("int a[(1 << 35) + 1];\n", "shift count out of range in '<<'", 8),
        ("int a[65536 * 65537];\n", "signed overflow in '*'", 7),
        ("int a[-(-2147483647 - 1)];\n", "signed overflow in '-'", 7),
        ("int a[4 / 0];\n", "division by zero in '/'", 7),
    ])
    def test_rejected_naming_the_flaw(self, text, flaw, column):
        with pytest.raises(SemaError) as info:
            analyze(text)
        assert type(info.value) is SemaError
        assert info.value.message == f"array size has undefined behavior: {flaw} (C99 6.6p4)"
        assert (info.value.loc.line, info.value.loc.column) == (1, column)

    @pytest.mark.parametrize("size", ["1 << 30", "sizeof(1 << 35)", "65536 * 32767"])
    def test_sizes_without_a_flaw_are_accepted(self, size):
        analyze(f"int a[{size}];\n")

    def test_a_variable_size_is_still_a_vla(self):
        with pytest.raises(UnsupportedConstructError, match="variable-length"):
            analyze("void f(int n) { int a[n]; }\n")


class TestOperatorOperands:
    """Operand constraints the resolver checks at the operator, each shape
    as gcc -std=c99 -pedantic-errors decides it."""

    PRELUDE = ("int x; unsigned u; int i; int *p; double d; _Bool b;\n"
               "struct S { int m; } s; union U { int m; } w;\n")

    @pytest.mark.parametrize("stmt, message", [
        # C99 6.5.16.2p1-2: compound assignment takes its operator's operands.
        ("x |= 1.5", "operands of |= must be integers"),
        ("u <<= 1.5", "operands of <<= must be integers"),
        ("x >>= &u", "operands of >>= must be integers"),
        ("i %= 1.5", "operands of %= must be integers"),
        ("p *= 2", "operands of \\*= must be arithmetic"),
        ("p += 1.5", "operands of \\+= must be arithmetic, or a pointer and an integer"),
        # C99 6.8.4.2p1: a switch controls on an integer.
        ("switch (d) { default: break; }", "controlling expression of switch must have integer type"),
        # C99 6.5.4p4: no cast between a pointer and a floating type.
        ("(int *)1.5", "cast between a pointer and a floating type"),
        ("(double)&x", "cast between a pointer and a floating type"),
        # C99 6.5.4p2: but for a cast to void, a cast is from and to a scalar.
        ("s = (struct S)x", "cast to a non-scalar type"),
        ("w = (union U)x", "cast to a non-scalar type"),
        ("x = (int)s", "cast of a non-scalar operand"),
        ("p = (int *)w", "cast of a non-scalar operand"),
    ])
    def test_rejected(self, stmt, message):
        end = "" if stmt.endswith("}") else ";"
        with pytest.raises(SemaError, match=message) as info:
            analyze(f"{self.PRELUDE}void f(void) {{\n  {stmt}{end}\n}}\n")
        assert info.value.loc.line == 4

    @pytest.mark.parametrize("stmt", [
        "p += 1", "p -= 1", "d += 1", "b |= 1", "d *= 2", "u <<= 1", "x %= 'a'",
        "switch (b) { default: break; }", "(double)x", "(int *)0", "(char *)p",
        "(void)s", "(void)w", "(void)x", "(const int)x", "(_Bool)p",
    ])
    def test_accepted(self, stmt):
        end = "" if stmt.endswith("}") else ";"
        analyze(f"{self.PRELUDE}void f(void) {{ {stmt}{end} }}\n")

    def test_pointer_compound_assignment_keeps_the_pointer_type(self):
        expr = first_expr("p += 1;", self.PRELUDE)
        assert expr.ctype.kind is TK.POINTER


class TestReturnConstraints:
    """C99 6.8.6.4p1: a `return` has a value exactly when its function
    returns one; gcc -std=c99 -pedantic-errors rejects both other shapes."""

    @pytest.mark.parametrize("text, message", [
        ("void f(void) {\n  return 1;\n}\n", "'return' with a value in a function returning void"),
        ("int f(void) {\n  return;\n}\n",
         "'return' with no value in a function returning a value"),
        ("void *f(void) {\n  return;\n}\n",
         "'return' with no value in a function returning a value"),
    ])
    def test_rejected_at_the_return(self, text, message):
        with pytest.raises(SemaError, match=message) as info:
            analyze(text)
        assert (info.value.loc.line, info.value.loc.column) == (2, 3)

    @pytest.mark.parametrize("text", [
        "void f(void) { return; }",
        "int f(void) { return 1; }",
        "void f(void) { }",
        "int f(void) { }",
        "void f(int x) { if (x) { return; } x = 1; }",
    ])
    def test_accepted(self, text):
        analyze(text + "\n")


# Each shape below is checked against gcc -std=c99 -pedantic-errors
# -fsyntax-only when gcc is installed: a rejected shape must fail there
# too, on the same line, and an accepted one must compile.
GCC = shutil.which("gcc")
CONSTRAINT_PRELUDE = "extern void use(int);\nextern int get(void);\n"


def gcc_errors(tmp_path, text: str) -> list[str] | None:
    """gcc's error lines for `text`, or None if gcc is not installed."""
    if GCC is None:
        return None
    path = tmp_path / "t.c"
    path.write_text(text)
    run = subprocess.run([GCC, "-std=c99", "-pedantic-errors", "-fsyntax-only", str(path)],
                         capture_output=True, text=True, check=False)
    return [line for line in run.stderr.splitlines() if ": error: " in line]


def check_rejected(tmp_path, text: str, message: str, line: int) -> SemaError:
    with pytest.raises(SemaError, match=message) as info:
        analyze(text)
    assert info.value.loc.line == line
    errors = gcc_errors(tmp_path, text)
    assert errors is None or any(f"t.c:{line}:" in e for e in errors), errors
    return info.value


def check_accepted(tmp_path, text: str) -> None:
    analyze(text)
    assert gcc_errors(tmp_path, text) in (None, [])


# (body, message); the offending statement is on line 5.
STATEMENT_SHAPES = [
    # C99 6.8.1p3: label names are unique in a function.
    ("void f(void) {\n  L: use(1);\n  L: use(2);\n}\n", "duplicate label 'L'"),
    # C99 6.8.6.1p1: a `goto` names a label of its own function.
    ("void f(void) {\n  use(1);\n  goto M;\n}\n", "goto to undefined label 'M'"),
    ("void g(void) { M: use(1); }\nvoid f(void) {\n  goto M;\n}\n",
     "goto to undefined label 'M'"),
    # C99 6.8.6.3p1 and 6.8.6.2p1.
    ("void f(void) {\n  use(1);\n  break;\n}\n", "'break' outside loop or switch"),
    ("void f(void) {\n  use(1);\n  continue;\n}\n", "'continue' outside loop"),
    ("void f(int x) {\n  switch (x) { case 1: use(1);\n  continue; }\n}\n", "'continue' outside loop"),
    # C99 6.8.1p2: `case` and `default` only in a switch body.
    ("void f(void) {\n  use(1);\n  case 1: use(1);\n}\n", "'case' label outside switch"),
    ("void f(void) {\n  use(1);\n  default: use(1);\n}\n", "'default' label outside switch"),
    # C99 6.8.4.2p3: case values unique once converted to the promoted
    # type of the controlling expression, and at most one `default`.
    ("void f(int x) {\n  switch (x) { case 1: use(1);\n  case 1: use(2); }\n}\n",
     "duplicate case value 1"),
    ("void f(unsigned x) {\n  switch (x) { case -1: use(1);\n  case 4294967295u: use(2); }\n}\n",
     "duplicate case value 4294967295"),
    ("void f(int x) {\n  switch (x) { default: use(1);\n  default: use(2); }\n}\n",
     "multiple default labels in one switch"),
]

STATEMENTS_ACCEPTED = [
    "void f(int x) { while (x) { switch (x) { case 1: continue; default: break; } } }\n",
    "void f(int x) { switch (x) { case 1: { switch (x) { case 1: break; default: break; } }"
    " default: break; } }\n",
    "void f(int x) { switch (x) { case 1: while (x) { case 2: break; } } }\n",
    "void f(int x) { L: if (x) goto L; }\n",
    "void f(void) { goto L; L: use(1); }\n",
    "void f(int x) { for (;;) { if (x) break; } }\n",
    "void g(void) { L: use(1); }\nvoid f(void) { L: use(2); }\n",
]

# C99 6.3.2.2p1: no void value is used; C99 6.8.4.1p1, 6.8.5p2 and
# 6.5.15p2: a controlling expression and the first operand of `?:` are
# scalar; 6.5.15p3: both operands of `?:` are void, or neither is.
VOID_VALUE_SHAPES = [
    ("void f(void) {\n  use(1);\n  if (use(1)) { }\n}\n", "controlling expression must have scalar"),
    ("void f(void) {\n  use(1);\n  while (use(1)) { }\n}\n",
     "controlling expression must have scalar"),
    ("void f(void) {\n  use(1);\n  do { } while (use(1));\n}\n",
     "controlling expression must have scalar"),
    ("void f(void) {\n  use(1);\n  for (; use(1); ) { }\n}\n",
     "controlling expression must have scalar"),
    ("struct S { int m; } s;\nvoid f(void) {\n  if (s) { }\n}\n",
     "controlling expression must have scalar"),
    ("void f(void) {\n  use(1);\n  use(use(1) ? 1 : 2);\n}\n", "condition must be scalar"),
    ("void f(void) {\n  use(1);\n  int z = use(1); use(z);\n}\n", "void value not ignored"),
    ("void f(void) {\n  use(1);\n  int a[2] = { use(1), 2 }; use(a[0]);\n}\n",
     "void value not ignored"),
    ("void f(void) {\n  int z;\n  z = use(1); use(z);\n}\n", "void value not ignored"),
    ("void f(void) {\n  use(1);\n  use(use(2));\n}\n", "void value not ignored"),
    ("void f(int c) {\n  use(1);\n  c ? use(1) : 1;\n}\n", "only one operand of \\?: is void"),
    ("void f(int c) {\n  use(1);\n  c ? 1 : use(1);\n}\n", "only one operand of \\?: is void"),
    ("int f(void) {\n  use(1);\n  return use(1);\n}\n", "void value not ignored"),
]

VOID_VALUES_ACCEPTED = [
    "void f(int c) { c ? use(1) : use(2); }\n",
    "void f(void) { (void)use(1); }\n",
    "void f(int *p) { int a[2]; a[0] = 1; if (p) { use(a[0]); } while (a) { break; } }\n",
    "void f(double d) { if (d) { use(1); } }\n",
    "void f(void) { int z = (use(1), 2); use(z); }\n",
    "void f(void) { int a[2][2] = { { 1, 2 }, { 3, 4 } }; use(a[0][0]); }\n",
]


def _shape_id(shape) -> str:
    """A test id: a rejected shape's offending line, or an accepted body."""
    text = shape[0] if isinstance(shape, tuple) else shape
    lines = text.split("\n")
    return (lines[2] if len(lines) > 4 else lines[-2]).strip()


class TestStatementConstraints:
    """The resolver checks every statement constraint as it resolves a
    body, so whether a unit is accepted does not depend on the guidelines
    enabled."""

    @pytest.mark.parametrize("shape", STATEMENT_SHAPES + VOID_VALUE_SHAPES, ids=_shape_id)
    def test_rejected(self, tmp_path, shape):
        text, message = shape
        check_rejected(tmp_path, CONSTRAINT_PRELUDE + text, message, 5)

    @pytest.mark.parametrize("text", STATEMENTS_ACCEPTED + VOID_VALUES_ACCEPTED, ids=_shape_id)
    def test_accepted(self, tmp_path, text):
        check_accepted(tmp_path, CONSTRAINT_PRELUDE + text)

    @staticmethod
    def _outcome(text: str, guideline: str):
        """(stage, error class, message, location) of the first error the
        stage chain raises with only `guideline` enabled, or None."""
        stage = "preprocess"
        try:
            toks, _, _, mgr = pp_text(text)
            stage = "parse"
            tu = parse(toks, "t.c")
            stage = "resolve"
            table = resolve(tu)
            stage = "rules"
            facts = compute_tu_facts(tu, table, mgr)
            run_rules([facts], {guideline}, call_graph=build_call_graph([(tu, table)]),
                      manager=mgr)
        except AnalysisError as exc:
            return stage, type(exc).__name__, exc.message, exc.loc
        return None

    @pytest.mark.parametrize("text", [t for t, _ in STATEMENT_SHAPES + VOID_VALUE_SHAPES]
                             + STATEMENTS_ACCEPTED + VOID_VALUES_ACCEPTED, ids=_shape_id)
    def test_every_guideline_gets_the_same_outcome(self, text):
        text = CONSTRAINT_PRELUDE + text
        outcomes = {gid: self._outcome(text, gid) for gid in sorted(IMPLEMENTED)}
        first = outcomes["R2.1"]
        assert first is None or first[:2] == ("resolve", "SemaError")
        assert all(o == first for o in outcomes.values()), outcomes


# (text, message); the store is on line 5. C99 6.5.16p2, 6.5.2.4p1 and
# 6.5.3.1p1 want a modifiable lvalue, which by 6.3.2.1p1 has no array
# type, no const-qualified type, and no struct or union type with a
# const member, recursively through member structs, unions and arrays.
UNMODIFIABLE_SHAPES = [
    ("void f(void) {\n  const int k = 1;\n  k = 2;\n}\n", "operand of = .*const-qualified"),
    ("void f(void) {\n  const int k = 1;\n  k++;\n}\n", "operand of \\+\\+ .*const-qualified"),
    ("void f(void) {\n  const int k = 1;\n  --k;\n}\n", "operand of -- .*const-qualified"),
    ("void f(void) {\n  const int k = 1;\n  k += 2;\n}\n", "operand of \\+= .*const-qualified"),
    ("void f(const int *p) {\n  use(*p);\n  *p = 1;\n}\n", "operand of = .*const-qualified"),
    ("void f(void) {\n  int x[2], y[2];\n  x = y;\n}\n", "operand of = .*array type"),
    ("void f(void) {\n  int x[2];\n  x += 1;\n}\n", "operand of \\+= .*array type"),
    ("void f(void) {\n  int x[2];\n  x++;\n}\n", "operand of \\+\\+ .*array type"),
    ("const int t[2] = { 1, 2 };\nvoid f(void) {\n  t[0] = 3;\n}\n",
     "operand of = .*const-qualified"),
    ("typedef const int CI;\nCI c = 1;\nvoid f(void) { c = 2; }\n",
     "operand of = .*const-qualified"),
    ("const struct P { int m; } cp = { 1 };\nvoid f(void) {\n  cp.m = 2;\n}\n",
     "operand of = .*const-qualified"),
    ("struct S { const int m; int n; };\nvoid f(struct S *a, struct S *b) {\n  *a = *b;\n}\n",
     "operand of = .*has a const member"),
    ("struct S { const int m; int n; };\nvoid f(struct S *a) {\n  a->m = 1;\n}\n",
     "operand of = .*const-qualified"),
    ("union U { int i; const int c; } u, v;\nvoid f(void) {\n  u = v;\n}\n",
     "operand of = .*has a const member"),
    ("struct I { const int m; };\nstruct O { struct I i; int n; } o, q;\nvoid f(void) { o = q; }\n",
     "operand of = .*has a const member"),
    ("struct A { struct { const int m; } in[2]; } a, b;\nvoid f(void) {\n  a = b;\n}\n",
     "operand of = .*has a const member"),
    # C99 6.7.3p8: qualifying an array type qualifies its elements.
    ("typedef int A[2];\nconst A ca = { 1, 2 };\nvoid f(void) { ca[0] = 1; }\n",
     "operand of = .*const-qualified"),
    ("typedef int A[2];\nstruct S { const A m; } s, t;\nvoid f(void) { s = t; }\n",
     "operand of = .*has a const member"),
]

MODIFIABLE_ACCEPTED = [
    "void f(int *const p) { *p = 1; (*p)++; }\n",
    "const int *p; int x;\nvoid f(void) { p = &x; p++; }\n",
    "struct S { const int *m; int n; } s, t;\nvoid f(void) { s = t; s.n += 1; }\n",
    "struct S { int m; } s, t;\nvoid f(void) { s = t; s.m++; }\n",
    "int a[2][2];\nvoid f(void) { a[0][1] = 1; a[1][0] |= 2; }\n",
    "volatile int v;\nvoid f(void) { v = 1; v--; }\n",
]


class TestModifiableLvalue:
    """`=`, `op=`, `++` and `--` store only to a modifiable lvalue."""

    @pytest.mark.parametrize("shape", UNMODIFIABLE_SHAPES, ids=_shape_id)
    def test_rejected(self, tmp_path, shape):
        text, message = shape
        check_rejected(tmp_path, CONSTRAINT_PRELUDE + text, message, 5)

    @pytest.mark.parametrize("text", MODIFIABLE_ACCEPTED, ids=_shape_id)
    def test_accepted(self, tmp_path, text):
        check_accepted(tmp_path, CONSTRAINT_PRELUDE + text)
