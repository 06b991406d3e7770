"""Per-rule unit tests over the operation examples."""
import weakref

import pytest

from ccomply.errors import UnsupportedConstructError
from ccomply.parsing.parser import BLOCK_NESTING_LIMIT, PAREN_NESTING_LIMIT
from ccomply.rules import IMPLEMENTED, BehaviorClass, Certainty, context, engine, run_rules
from rule_helpers import PRELUDE, kinds_of, run_rule, run_rule_full


def single(findings):
    assert len(findings) == 1, [f.message for f in findings]
    return findings[0]

# Two temporaries in one expression: x is in [400, 601], so x > 500 can go
# either way.
TWO_TEMPS = (
    "void f(int c, int a, int b) { int x = (c ? 600 : 400) + (a && b); "
    "if (x > 500) { use(1); } use(x); }"
)


class TestShiftRange:
    def test_uint32_shift_by_32_is_definite_undefined(self):
        f = single(run_rule(
            "void f(void) { uint32_t i = 1; i = i << 32; useu(i); }", "R12.2"
        ))
        assert f.certainty is Certainty.DEFINITE
        assert f.behavior_class is BehaviorClass.UNDEFINED
        assert f.evidence

    def test_masked_shift_count_is_clean(self):
        assert run_rule(
            "void f(void) { uint32_t i = 1; i = i << (32 & 0x1F); useu(i); }", "R12.2"
        ) == []

    def test_partial_range_is_caution(self):
        # Independent check: n in [0, 40] really contains both legal (0..31)
        # and illegal (32..40) shift amounts.
        legal = set(range(32))
        assert any(n in legal for n in range(41)) and any(n not in legal for n in range(41))
        f = single(run_rule(
            "void f(uint32_t i, uint32_t n) { if (n <= 40u) { useu(i << n); } }",
            "R12.2",
        ))
        assert f.certainty is Certainty.CAUTION

    def test_in_range_variable_shift_is_clean(self):
        assert run_rule(
            "void f(uint32_t i, uint32_t n) { if (n < 32u) { useu(i << n); } }",
            "R12.2",
        ) == []

    def test_negative_constant_shift(self):
        f = single(run_rule("void f(int x) { use(x << -1); }", "R12.2"))
        assert f.certainty is Certainty.DEFINITE

    def test_narrow_type_promotes_before_width_check(self):
        # uint8_t promotes to 32-bit int, so shifting by 20 is legal.
        assert run_rule(
            "void f(uint8_t b) { use(b << 20); }", "R12.2"
        ) == []

    def test_compound_shift_assign_checked(self):
        f = single(run_rule(
            "void f(void) { uint32_t i = 1; i <<= 32; useu(i); }", "R12.2"
        ))
        assert f.certainty is Certainty.DEFINITE


class TestShiftSkip:
    """R12.2 reads the CFG and intervals only of a function whose body holds
    a shift sema could not show to be in range (`FunctionDef.unproven_shifts`):
    a shift whose count is a constant in [0, the promoted width of the left
    operand) gives no finding (C99 6.5.7p3)."""

    @staticmethod
    def _flag_and_findings(body):
        findings, facts = run_rule_full(f"void f(unsigned x, unsigned n, int c) {{ {body} }}",
                                        "R12.2")
        return facts.tu.decls[-1].unproven_shifts, findings

    @pytest.mark.parametrize("body", [
        "useu(x << 3); useu(x >> 31u); x <<= 0; x >>= (2 + 3); useu(1u << sizeof(int));",
        "uint8_t b = 1; use(b << 20);",
        "useu(x + n);",
    ])
    def test_in_range_constant_shifts_skip_the_function(self, flow_calls, body):
        flagged, findings = self._flag_and_findings(body)
        assert not flagged and findings == []
        assert ("build_cfg", "f") not in flow_calls

    @pytest.mark.parametrize("body, certainty", [
        ("useu(x << 40);", "definite"),
        ("useu(x << -1);", "definite"),
        ("useu(x << n);", "caution"),
        ("x <<= n; useu(x);", "caution"),
        ("useu(1u << (c ? 1 : 40));", "caution"),
    ])
    def test_other_shifts_are_still_checked(self, flow_calls, body, certainty):
        flagged, findings = self._flag_and_findings(body)
        assert flagged and ("build_cfg", "f") in flow_calls
        assert [f.certainty.value for f in findings] == [certainty]

    def test_a_shift_under_sizeof_only_sets_the_flag(self, flow_calls):
        flagged, findings = self._flag_and_findings("use((int)sizeof(x << 40));")
        assert flagged and findings == []

    def test_an_unresolved_function_is_checked(self):
        from ccomply.parsing import FunctionDef
        assert FunctionDef("f", None, [], None).unproven_shifts


class TestOperandOrderAroundCalls:
    """C99 6.5p3 leaves the order of a full expression's operands open, so a
    call may set an address-taken local before or after it is read: gcc
    calls `set` first in both programs below, so neither condition is
    invariant. Without the call the read is ordered, and the finding stays;
    so is a read in the operands of every call, which precedes each of them
    (6.5.2.2p10)."""

    SET = "extern int set(int *);\n"

    @pytest.mark.parametrize("body", [
        "int x = 0; int *p = &x; if (x + set(p) * 0 == 0) { use(1); }",
        "int x = 0; int *p = &x; int y = x + set(p) * 0; if (y == 0) { use(1); }",
        "int x = 0; int *p = &x; if (set(p) * 0 + x == 0) { use(1); }",
    ])
    def test_a_read_beside_a_call_is_not_invariant(self, body):
        assert run_rule(f"{self.SET}void f(void) {{ {body} }}", "R14.3") == []

    def test_without_the_call_the_finding_stays(self):
        f = single(run_rule(
            "void f(void) { int x = 0; int *p = &x; if (x + *p * 0 == 0) { use(1); } }",
            "R14.3"))
        assert f.certainty is Certainty.DEFINITE

    def test_a_local_whose_address_is_not_taken_keeps_its_value(self):
        f = single(run_rule(
            f"{self.SET}void f(int *q) {{ int x = 0; if (x + set(q) * 0 == 0) {{ use(1); }} }}",
            "R14.3"))
        assert f.certainty is Certainty.DEFINITE

    def test_a_read_in_the_operands_of_every_call_keeps_its_value(self):
        body = "int n = 3; int *p = &n; usep(p); n = 3; useu(u << n << 40);"
        f = single(run_rule(f"void f(unsigned u) {{ {body} }}", "R12.2"))
        assert f.certainty is Certainty.DEFINITE and "is 40" in f.message

    def test_a_shift_count_beside_a_call_is_only_a_caution(self):
        f = single(run_rule(
            f"{self.SET}void f(unsigned u) {{ int n = 40; int *p = &n; "
            "useu(set(p) + (u << n)); }", "R12.2"))
        assert f.certainty is Certainty.CAUTION


class TestUninitializedRead:
    def test_plain_uninit_read_definite(self):
        f = single(run_rule("void f(void) { int x; use(x); }", "R9.1"))
        assert f.certainty is Certainty.DEFINITE
        assert f.behavior_class is BehaviorClass.UNDEFINED
        assert f.evidence  # cites the declaration

    def test_one_branch_assignment_still_definite(self):
        f = single(run_rule(
            "void f(int a) { int x; if (a) { x = 1; } if (a) { use(x); } }", "R9.1"
        ))
        assert f.certainty is Certainty.DEFINITE

    def test_escaped_then_read_is_caution(self):
        f = single(run_rule(
            "extern void fill(int *);\n"
            "void f(void) { int x; int *p = &x; fill(p); use(x); }",
            "R9.1",
        ))
        assert f.certainty is Certainty.CAUTION

    def test_both_branches_assigned_clean(self):
        assert run_rule(
            "void f(int a) { int x; if (a) { x = 1; } else { x = 2; } use(x); }",
            "R9.1",
        ) == []

    def test_initializer_clean(self):
        assert run_rule("void f(void) { int x = 0; use(x); }", "R9.1") == []


class TestUnreachable:
    def test_statement_after_return(self):
        f = single(run_rule("void f(void) { return; use(1); }", "R2.1"))
        assert f.certainty is Certainty.DEFINITE

    def test_if_zero_body(self):
        f = single(run_rule("void f(void) { if (0) { use(1); } use(2); }", "R2.1"))
        assert f.certainty is Certainty.DEFINITE
        assert any("always" in ev.note for ev in f.evidence)

    def test_interval_dead_else_branch(self):
        # Oracle: x*0 == 0 holds for every int x, so the else never runs.
        assert all((x * 0) == 0 for x in range(-300, 300))
        f = single(run_rule(
            "void f(int x) { if (x * 0 == 0) { use(1); } else { use(2); } }", "R2.1"
        ))
        assert f.certainty is Certainty.DEFINITE
        assert any("condition" in ev.note for ev in f.evidence)

    def test_while_true_following_code(self):
        f = single(run_rule("void f(void) { while (1) { get(); } use(1); }", "R2.1"))
        assert f.certainty is Certainty.DEFINITE

    def test_reachable_code_clean(self):
        assert run_rule(
            "void f(int a) { if (a) { use(1); } else { use(2); } use(3); }", "R2.1"
        ) == []

    def test_temporaries_keep_their_own_ranges(self):
        assert run_rule(TWO_TEMPS, "R2.1") == []


class TestDeadCode:
    def test_overwritten_store_flagged(self):
        f = single(run_rule("void f(void) { int x; x = 1; x = 2; use(x); }", "R2.2"))
        assert f.span.start.line == PRELUDE.count("\n") + 1
        assert "x" in f.message

    def test_void_call_not_flagged(self):
        assert run_rule("void f(void) { (void)get(); }", "R2.2") == []

    def test_unused_pure_computation_flagged(self):
        f = single(run_rule(
            "void f(int x) { int y; y = x + 1; use(x); }", "R2.2"
        ))
        assert "y" in f.message

    def test_pure_expression_statement_flagged(self):
        f = single(run_rule("void f(int a, int b) { a * b; use(a); }", "R2.2"))
        assert f.certainty is Certainty.DEFINITE

    def test_volatile_store_never_flagged(self):
        assert run_rule(
            "void f(void) { volatile int v; v = 1; v = 2; }", "R2.2"
        ) == []

    def test_global_store_never_flagged(self):
        assert run_rule("int g;\nvoid f(void) { g = 1; g = 2; }", "R2.2") == []

    @pytest.mark.parametrize("text", [
        "volatile struct S { int m; } s;\nvoid f(void) { s.m; }",
        "struct S { int m; };\nvolatile struct S s;\nvoid f(void) { s.m; }",
        "struct S { int m; };\nvolatile struct S *p;\nvoid f(void) { p->m; }",
        "struct S { int a[2]; };\nvolatile struct S s;\nvoid f(void) { s.a[1]; }",
        "typedef volatile struct S { int m; } VS;\nVS s;\nvoid f(void) { s.m; }",
        "volatile enum E { A, B } e;\nvoid f(void) { e; }",
        "volatile int v;\nvoid f(void) { v; }",
    ])
    def test_volatile_object_read_never_flagged(self, text):
        # Reading a volatile object is a side effect (C99 5.1.2.3p2),
        # also through a member of a volatile struct (6.5.2.3p3).
        assert run_rule(text, "R2.2") == []

    def test_member_read_of_plain_struct_flagged(self):
        f = single(run_rule(
            "struct S { int m; };\nstruct S s;\nvoid f(void) { s.m; }", "R2.2"
        ))
        assert f.certainty is Certainty.DEFINITE

    def test_live_store_clean(self):
        assert run_rule("void f(void) { int x; x = 1; use(x); }", "R2.2") == []


class TestConstPointer:
    def test_read_only_param_flagged(self):
        f = single(run_rule("void f(int *p) { use(*p); }", "R8.13"))
        assert "p" in f.message and f.certainty is Certainty.DEFINITE

    def test_pointer_to_const_struct_not_flagged(self):
        assert run_rule(
            "struct S { int m; };\nvoid f(const struct S *p) { use(p->m); }", "R8.13"
        ) == []

    def test_read_only_struct_pointer_flagged(self):
        f = single(run_rule(
            "struct S { int m; };\nvoid f(struct S *p) { use(p->m); }", "R8.13"
        ))
        assert f.certainty is Certainty.DEFINITE

    def test_written_through_param_clean(self):
        assert run_rule("void f(int *p) { *p = 1; }", "R8.13") == []

    def test_passing_to_const_taking_callee_flagged(self):
        f = single(run_rule("void f(int *p) { usecp(p); }", "R8.13"))
        assert "p" in f.message

    def test_passing_to_nonconst_taking_callee_clean(self):
        assert run_rule("void f(int *p) { usep(p); }", "R8.13") == []

    def test_unknown_callee_is_havoc(self):
        assert run_rule(
            "extern void mystery();\nvoid f(int *p) { mystery(p); }", "R8.13"
        ) == []

    def test_index_write_clean_index_read_flagged(self):
        assert run_rule("void f(int *p) { p[2] = 5; }", "R8.13") == []
        f = single(run_rule("void f(int *p) { use(p[2]); }", "R8.13"))
        assert "p" in f.message

    def test_address_escape_is_havoc(self):
        assert run_rule(
            "extern void grab(int **);\nvoid f(int *p) { grab(&p); use(*p); }",
            "R8.13",
        ) == []

    def test_const_pointee_not_a_candidate(self):
        assert run_rule("void f(const int *p) { use(*p); }", "R8.13") == []

    def test_assigning_into_nonconst_pointer_clean(self):
        assert run_rule(
            "void f(int *p) { int *q; q = p; *q = 1; }", "R8.13"
        ) == []

    # Stores through a pointer computed from `p`, and values of `p` that flow
    # into a pointer to non-const, modify or may modify `p`'s pointee.
    @pytest.mark.parametrize("body", [
        "0[p] = 1;",
        "*p++ = 1;",
        "*(p + 1) = 1;",
        "*(p += 1) = 0;",
        "usep(p + 1);",
        "int *q; q = p++; *q = 1;",
        "int *q = p + 1; *q = 2;",
        "int *q = c ? p : 0; *q = 1;",
        "int *q = (0, p); *q = 1;",
    ])
    def test_writes_through_a_derived_pointer_clean(self, body):
        assert run_rule(f"void f(int *p, int c) {{ {body} }}", "R8.13") == []

    def test_decayed_array_member_passed_to_nonconst_clean(self):
        assert run_rule(
            "struct S { int v[2]; };\nvoid f(struct S *p) { usep(p->v); }", "R8.13"
        ) == []

    # An initializer-list value flows into the element or member it
    # initializes; with elided braces every value is spoiled.
    @pytest.mark.parametrize("text", [
        "void f(int *p) { const int *a[1] = { p }; use(*a[0]); }",
        "struct S { const int *m; };\nvoid f(int *p) { struct S s = { p }; use(*s.m); }",
        "struct S { int n; const int *m; };\n"
        "void f(int *p) { struct S s[1] = { { 1, p } }; use(*s[0].m); }",
    ])
    def test_value_initializing_a_pointer_to_const_flagged(self, text):
        f = single(run_rule(text, "R8.13"))
        assert f.certainty is Certainty.DEFINITE and "'p'" in f.message

    @pytest.mark.parametrize("text", [
        "void f(int *p) { int *a[1] = { p }; *a[0] = 1; }",
        "struct S { int *m; };\nvoid f(int *p) { struct S s = { p }; *s.m = 1; }",
        "struct S { const int *m[2]; };\nvoid f(int *p) { struct S s = { p, p }; use(*s.m[0]); }",
        "union U { int *w; const int *r; };\nvoid f(int *p) { union U u = { p }; *u.w = 1; }",
    ])
    def test_value_initializing_a_pointer_to_non_const_clean(self, text):
        assert run_rule(text, "R8.13") == []

    @pytest.mark.parametrize("text, name", [
        ("void f(int *p) { if (p) { use(*p); } }", "p"),
        ("void f(int *p) { for (; p; p = 0) { use(*p); } }", "p"),
        ("void f(int **pp) { (*pp)[0] = 1; }", "pp"),
        ("void f(int *p) { p = p + 1; use(*p); }", "p"),
        ("void f(int *p) { usecp((const int *)p); }", "p"),
    ])
    def test_pointer_only_tested_or_read_through_flagged(self, text, name):
        f = single(run_rule(text, "R8.13"))
        assert f.certainty is Certainty.DEFINITE and f"'{name}'" in f.message


class TestIntPointerConversion:
    def test_cast_int_to_pointer(self):
        f = single(run_rule("void f(void) { int *p = (int *)0x4000; usep(p); }", "R11.4"))
        assert f.behavior_class is BehaviorClass.IMPLEMENTATION_DEFINED

    def test_cast_pointer_to_int(self):
        f = single(run_rule("void f(int *p) { uintptr_t u = (uintptr_t)p; (void)u; }", "R11.4"))
        assert "pointer to integer" in f.message

    def test_pointer_to_pointer_clean(self):
        assert run_rule("void f(int *p) { int *q = (int *)(void *)p; usep(q); }", "R11.4") == []

    def test_null_pointer_constant_exempt(self):
        assert run_rule("void f(void) { int *p = 0; usep(p); }", "R11.4") == []

    def test_implicit_conversion_in_assignment(self):
        f = single(run_rule("void f(int x) { int *p; p = x; usep(p); }", "R11.4"))
        assert "integer to object pointer" in f.message

    def test_implicit_conversion_in_argument(self):
        f = single(run_rule("void f(int x) { usep(x); }", "R11.4"))
        assert f.certainty is Certainty.DEFINITE

    def test_function_pointer_conversion_not_this_rule(self):
        assert run_rule(
            "typedef void (*fp_t)(void);\n"
            "void f(void) { fp_t fp = (fp_t)0x100; (void)fp; }",
            "R11.4",
        ) == []


class TestSideEffects:
    def test_increment_in_initializer(self):
        f = single(run_rule("void f(int i) { int x = i++; use(x); use(i); }", "R13.1"))
        assert f.certainty is Certainty.DEFINITE

    def test_call_in_initializer_conservative(self):
        f = single(run_rule("void f(void) { int x = get(); use(x); }", "R13.1"))
        assert f.certainty is Certainty.DEFINITE

    def test_plain_initializer_clean(self):
        assert run_rule("void f(int a, int b) { int x = a + b; use(x); }", "R13.1") == []

    def test_volatile_read_in_initializer(self):
        f = single(run_rule(
            "volatile int v;\nvoid f(void) { int x = v; use(x); }", "R13.1"
        ))
        assert f.certainty is Certainty.DEFINITE

    def test_call_in_logical_rhs(self):
        f = single(run_rule("void f(int a) { if (a && get()) { use(a); } }", "R13.5"))
        assert f.certainty is Certainty.DEFINITE

    def test_assignment_in_logical_rhs(self):
        f = single(run_rule("void f(int a, int b) { if (a || (b = 1)) { use(b); } }", "R13.5"))
        assert f.certainty is Certainty.DEFINITE

    def test_pure_logical_rhs_clean(self):
        assert run_rule("void f(int a, int b) { if (a && b) { use(a); } }", "R13.5") == []

    def test_side_effect_in_lhs_not_r13_5(self):
        assert run_rule("void f(int a, int b) { if (a++ && b) { use(a); } }", "R13.5") == []


class TestEvaluationOrder:
    def test_classic_unsequenced_increment(self):
        f = single(run_rule("void f(int i) { i = i++ + 1; use(i); }", "R13.2"))
        assert f.certainty is Certainty.DEFINITE

    def test_two_calls_in_arguments(self):
        f = single(run_rule(
            "extern int g1(void);\nextern int g2(void);\n"
            "extern void take(int, int);\n"
            "void f(void) { take(g1(), g2()); }",
            "R13.2",
        ))
        assert f.certainty is Certainty.DEFINITE
        assert "calls" in f.message

    def test_aliasing_derefs_are_caution(self):
        f = single(run_rule(
            "void f(int *p, int *q) { *p = *q + 1; }", "R13.2"
        ))
        assert f.certainty is Certainty.CAUTION

    def test_plain_expression_clean(self):
        assert run_rule("void f(int i) { i = i + 1; use(i); }", "R13.2") == []

    def test_write_and_read_across_operator(self):
        f = single(run_rule("void f(int i) { use((i = 1) + i); }", "R13.2"))
        assert f.certainty is Certainty.DEFINITE

    def test_sequenced_by_logical_and_clean(self):
        assert run_rule("void f(int i) { use((i = 1) && i); }", "R13.2") == []

    def test_deref_vs_nonescaped_local_clean(self):
        assert run_rule(
            "void f(int *p, int x) { use((*p = 1) + x); }", "R13.2"
        ) == []

    # One store and the reads that compute its own address, or an address
    # taken beside a store to the object, are not unsequenced accesses.
    @pytest.mark.parametrize("text", [
        "struct S { int v[2]; };\nvoid f(struct S *p) { p->v[0] = 1; }",
        "int g[2][2];\nvoid f(void) { g[1][1] = 3; }",
        "void f(void) { int a[2][2]; a[0][1] = 1; use(a[0][1]); }",
        "extern void take(int *, int);\nvoid f(void) { int x; take(&x, x = 1); use(x); }",
        "struct S { int m; };\nextern void take(int *, int);\n"
        "void f(void) { struct S s; take(&s.m, s.m = 1); use(s.m); }",
    ])
    def test_store_and_its_own_address_clean(self, text):
        assert run_rule(text, "R13.2") == []

    @pytest.mark.parametrize("text", [
        "void f(int *p) { int a[2]; a[0] = 0; p = a; a[1] = *p; use(a[1]); }",
        "struct S { int v[2]; };\nvoid f(struct S *p, struct S *q) { p->v[0] = q->v[1]; }",
        "void f(void) { int a[2], b[2]; b[1] = 0; a[0] = b[1]; use(a[0]); }",
        "struct S { int v[2]; };\n"
        "void f(void) { struct S s, t; t.v[1] = 0; s.v[0] = t.v[1]; use(s.v[0]); }",
    ])
    def test_element_stores_against_other_reads_are_caution(self, text):
        assert single(run_rule(text, "R13.2")).certainty is Certainty.CAUTION

    def test_evidence_is_the_first_conflict_in_post_order(self):
        # Two conflicts on 'i', at the inner and at the outer `+`: the
        # finding names the inner one, whose evaluation ends first.
        text = "void f(int i, int k) { use(i + (k + (i + i++))); }"
        f = single(run_rule(text, "R13.2"))
        assert f.certainty is Certainty.DEFINITE and "'i'" in f.message
        assert f.evidence[0].span.start.column == text.index("i + i++") + 1

    def test_store_address_operands_are_unsequenced(self):
        f = single(run_rule(
            "void f(int i) { int a[4][4]; a[i][i++] = 0; use(a[0][0]); }", "R13.2"
        ))
        assert f.certainty is Certainty.DEFINITE and "'i'" in f.message

    # MISRA C:2012 Rule 13.2 allows, between sequence points, at most one
    # volatile read and at most one volatile modification, and a read that
    # only feeds the value stored.
    VOLATILES = ("volatile unsigned int R, v, v1, v2, a[2];\nunsigned int t, x;\n"
                 "volatile unsigned int *volatile q;\nvolatile struct W { unsigned int r[2]; } w;\n"
                 "extern void two(unsigned int, unsigned int);\n"
                 "extern unsigned int id(unsigned int);\n")

    @pytest.mark.parametrize("stmt", [
        "R = R | 1u;", "v = v + 1u;", "v += 1u;", "v1 = v2;", "t = v1 && v2;",
        "t = v1 ? v2 : 0u;", "v++;", "t = (v1, v2);",
    ])
    def test_one_volatile_read_and_one_modification_clean(self, stmt):
        assert run_rule(self.VOLATILES + f"void f(void) {{ {stmt} }}", "R13.2") == []

    @pytest.mark.parametrize("stmt, param, message", [
        ("x = v + v;", "void", "two unsequenced volatile reads"),
        ("t = v1 + v2;", "void", "two unsequenced volatile reads"),
        ("two(v1, v2);", "void", "two unsequenced volatile reads"),
        ("t = *r + *r;", "volatile unsigned int *r", "two unsequenced volatile reads"),
        ("t = r[0] + v;", "volatile unsigned int *r", "two unsequenced volatile reads"),
        ("v1 = v2 = 0u;", "void", "two unsequenced volatile modifications"),
        ("*r = v1 = 0u;", "volatile unsigned int *r", "two unsequenced volatile modifications"),
        # The index or the pointer is read before the access it feeds, but
        # with no sequence point between them.
        ("t = a[v];", "void", "two volatile reads between adjacent sequence points"),
        ("t = *q;", "void", "two volatile reads between adjacent sequence points"),
    ])
    def test_two_volatile_reads_or_modifications_definite(self, stmt, param, message):
        f = single(run_rule(self.VOLATILES + f"void f({param}) {{ {stmt} }}", "R13.2"))
        assert (f.certainty, f.message) == (Certainty.DEFINITE, message)

    def test_a_volatile_member_read_is_a_volatile_read(self):
        # `s.m` reads the volatile member though `s` itself is not volatile.
        f = single(run_rule(self.VOLATILES + "struct S { volatile unsigned int m; };\n"
                            "struct S s;\nvoid f(void) { t = s.m + v; }", "R13.2"))
        assert (f.certainty, f.message) == (Certainty.DEFINITE, "two unsequenced volatile reads")

    @pytest.mark.parametrize("stmt, param", [
        ("t = a[i];", "unsigned int i"),
        ("t = *r;", "volatile unsigned int *r"),
        ("t = w.r[i];", "unsigned int i"),
        ("t = a[v ? 0u : 1u];", "void"),
        ("t = a[id(v)];", "void"),
    ])
    def test_one_volatile_read_between_sequence_points_clean(self, stmt, param):
        assert run_rule(self.VOLATILES + f"void f({param}) {{ {stmt} }}", "R13.2") == []

    @pytest.mark.parametrize("stmt", ["use((int)v + *p);", "*p = (int)v;"])
    def test_volatile_read_beside_a_plain_dereference_clean(self, stmt):
        # Reaching a volatile object through a non-volatile lvalue is
        # undefined (C99 6.7.3p5), so a plain `*p` cannot alias `v`.
        assert run_rule(self.VOLATILES + f"void f(int *p) {{ {stmt} }}", "R13.2") == []


class TestLoopRules:
    def test_float_counter(self):
        f = single(run_rule(
            "void f(void) { int s = 0; for (float x = 0; x < 1; x += 0.1f) { s++; } use(s); }",
            "R14.1",
        ))
        assert "x" in f.message

    def test_int_counter_clean(self):
        assert run_rule(
            "void f(int n) { for (int i = 0; i < n; ++i) { use(i); } }", "R14.1"
        ) == []

    def test_body_writes_counter(self):
        f = single(run_rule(
            "void f(int n) { int i; for (i = 0; i < n; ++i) { i++; } }", "R14.2"
        ))
        assert "body" in f.message

    @pytest.mark.parametrize("body", [
        "usep(&i);",
        "if (n > 0) { int *p = &i; usep(p); }",
        "while (n > 0) { use(n); i += 2; }",
    ])
    def test_body_takes_or_writes_counter_in_nested_statements(self, body):
        f = single(run_rule(
            f"void f(int n) {{ int i; for (i = 0; i < n; ++i) {{ {body} }} }}", "R14.2"
        ))
        assert "body modifies the counter 'i'" in f.message

    def test_comma_init_flagged(self):
        f = single(run_rule(
            "void f(int n) { int i; int j; for (i = 0, j = 0; i < n; ++i) { use(j); } }",
            "R14.2",
        ))
        assert "init" in f.message

    def test_missing_clause_flagged(self):
        f = single(run_rule("void f(void) { for (;;) { break; } }", "R14.2"))
        assert "present" in f.message

    def test_well_formed_loop_clean(self):
        assert run_rule(
            "void f(int n) { int i; for (i = 0; i < n; i++) { use(i); } }", "R14.2"
        ) == []

    def test_type_range_invariant_condition(self):
        # Oracle: all 256 uint8_t values are below 256.
        assert all(u < 256 for u in range(256))
        f = single(run_rule(
            "void f(void) { uint8_t u = get(); if (u < 256) { use(1); } }", "R14.3"
        ))
        assert "always true" in f.message

    def test_while_one_exempt(self):
        assert run_rule(
            "void f(void) { while (1) { if (get()) { break; } } }", "R14.3"
        ) == []

    def test_do_while_zero_exempt(self):
        assert run_rule("void f(void) { do { get(); } while (0); }", "R14.3") == []

    def test_if_zero_not_exempt(self):
        f = single(run_rule("void f(void) { if (0) { use(1); } }", "R14.3"))
        assert "always false" in f.message

    def test_variable_condition_clean(self):
        assert run_rule(
            "void f(uint8_t u) { if (u < 10) { use(1); } }", "R14.3"
        ) == []

    def test_temporaries_keep_their_own_ranges(self):
        assert run_rule(TWO_TEMPS, "R14.3") == []


class TestBranchDecisions:
    """R2.1 and R14.3 read one decision per branch edge: the interval
    analysis's edge function on the state before the branch, which reads a
    condition before its own stores."""

    @pytest.mark.parametrize("cond", ["x > 0 && (y = 1, y > 0)", "x > 0 && y++ == 0 && y == 1"])
    def test_store_inside_a_short_circuit_is_applied(self, cond):
        # Oracle: with y starting at 0, the right side holds whenever x > 0.
        for x in (-1, 0, 1):
            y = 0
            if x > 0:
                y += 1
                assert y > 0 and y == 1
        assert run_rule(f"void f(int x) {{ int y = 0; if ({cond}) {{ use(y); }} }}", "R14.3") == []

    def test_condition_is_read_before_its_store(self):
        # Oracle (as compiled C runs it): x++ == 0 compares 0, so y is 5
        # and y == 0 is always false.
        x = y = 0
        old, x = x, x + 1
        if old == 0:
            y = 5
        assert y != 0
        text = "void f(void) { int x = 0, y = 0; if (x++ == 0) { y = 5; } if (y == 0) { use(1); } }"
        found = sorted((f.span.start.column, f.message) for f in run_rule(text, "R14.3"))
        assert found == [
            (text.index("x++") + 1, "controlling expression is invariant: always true"),
            (text.index("y == 0") + 1, "controlling expression is invariant: always false"),
        ]
        f = single(run_rule(text, "R2.1"))
        assert f.certainty is Certainty.DEFINITE
        assert f.span.start.column == text.index("{ use(1)") + 1

    def test_value_changing_cast_does_not_narrow(self):
        # Oracle: (unsigned char)256 is 0, so y stays 0 and use(2) runs.
        assert 256 % 256 == 0
        text = ("void f(void) { int x = 256, y = 0; if ((unsigned char)x) { y = 1; } "
                "if (y == 0) { use(2); } }")
        assert run_rule(text, "R2.1") == []
        assert run_rule(text, "R14.3") == []

    def test_for_init_short_circuit_is_not_the_loop_condition(self):
        # Oracle: i < 3 is true for i = 0, 1, 2 and false at 3.
        assert [i < 3 for i in range(4)] == [True, True, True, False]
        assert run_rule(
            "void f(int c) { int i = 0; for (c && get(); i < 3; i++) { use(i); } }", "R14.3"
        ) == []

    def test_condition_refuted_on_every_path(self):
        # Oracle: no int is both above and below 0.
        assert not any(x > 0 and x < 0 for x in range(-300, 300))
        text = "void f(int x) { if (x > 0 && x < 0) { use(x); } }"
        f = single(run_rule(text, "R14.3"))
        assert f.message == "controlling expression is invariant: always false"
        assert f.span.start.column == text.index("x > 0") + 1
        assert single(run_rule(text, "R2.1")).certainty is Certainty.DEFINITE

    def test_branch_taken_after_a_storing_condition_gets_its_state(self):
        # Oracle: x++ == 0 compares 0, so the shift by 40 runs.
        assert 40 > 31
        text = "void f(void) { int x = 0; unsigned s = 40u; if (x++ == 0) { useu(1u << s); } }"
        f = single(run_rule(text, "R12.2"))
        assert f.certainty is Certainty.DEFINITE
        assert "is 40" in f.message


class TestLiteralWrite:
    def test_direct_literal_write(self):
        f = single(run_rule(
            'void f(void) { char *p = "String"; p[0] = \'X\'; }', "R1.3"
        ))
        assert f.certainty is Certainty.DEFINITE
        assert f.behavior_class is BehaviorClass.UNDEFINED

    def test_array_write_clean(self):
        assert run_rule(
            "void f(void) { char a[8]; char *p = a; p[0] = 'X'; usec(a[0]); }", "R1.3"
        ) == []

    def test_mixed_targets_caution(self):
        f = single(run_rule(
            "void f(int c) { char a[8]; char *p; "
            'if (c) { p = "lit"; } else { p = a; } p[0] = \'X\'; usec(a[0]); }',
            "R1.3",
        ))
        assert f.certainty is Certainty.CAUTION

    def test_deref_store_to_literal(self):
        f = single(run_rule('void f(void) { char *p = "abc"; *p = \'x\'; }', "R1.3"))
        assert f.certainty is Certainty.DEFINITE

    def test_each_pointer_temporary_keeps_its_targets(self):
        f = single(run_rule(
            "void f(int c, int d) { char buf[4]; char buf2[4]; "
            '*(c ? "lit" : buf) = *(d ? buf : buf2); usec(buf[0]); }',
            "R1.3",
        ))
        assert f.certainty is Certainty.CAUTION

    def test_assignment_inside_store_target_applies(self):
        found = run_rule(
            "void f(void) { char buf[4]; char *p = buf; "
            "*(p = \"lit\") = 'x'; *p = 'y'; usec(buf[0]); }",
            "R1.3",
        )
        assert [f.certainty for f in found] == [Certainty.DEFINITE] * 2

    def test_increment_through_pointer_keeps_targets(self):
        f = single(run_rule(
            "void f(char **pp, int *n) { char *p = \"lit\"; char **q = &p; "
            "(*pp)++; (*n)++; *p = 'x'; usep(n); usec(**q); }",
            "R1.3",
        ))
        assert f.certainty is Certainty.DEFINITE

    def test_local_array_element_store_keeps_targets(self):
        f = single(run_rule(
            "void f(int i) { int a[4]; char *p; char **q = &p; p = \"lit\"; "
            "a[i] = 1; *p = 'x'; use(a[0]); usec(**q); }",
            "R1.3",
        ))
        assert f.certainty is Certainty.DEFINITE

    def test_call_inside_increment_operand_havocs(self):
        # get() may write through the escaped address of p.
        assert run_rule(
            "void f(void) { int a[4]; char *p; char **q = &p; p = \"lit\"; "
            "a[get()]++; *p = 'x'; use(a[0]); usec(**q); }",
            "R1.3",
        ) == []


class TestRecursion:
    def test_self_recursion(self):
        f = single(run_rule("void r(int n) { if (n) { r(n - 1); } }", "R17.2"))
        assert f.certainty is Certainty.DEFINITE
        assert "r" in f.message

    def test_mutual_recursion_two_findings_with_cycle_evidence(self):
        findings = run_rule(
            "void b(int);\n"
            "void a(int n) { if (n) { b(n - 1); } }\n"
            "void b(int n) { if (n) { a(n - 1); } }\n",
            "R17.2",
        )
        assert len(findings) == 2
        assert all(f.certainty is Certainty.DEFINITE for f in findings)
        for f in findings:
            assert any("a" in ev.note and "b" in ev.note for ev in f.evidence)

    def test_indirect_call_site_caution(self):
        findings = run_rule(
            "extern void h(void);\n"
            "void f(void) { void (*fp)(void) = h; fp(); }\n",
            "R17.2",
        )
        assert len(findings) == 1
        assert findings[0].certainty is Certainty.CAUTION

    def test_acyclic_program_clean(self):
        assert run_rule(
            "void leaf(void) { }\nvoid top(void) { leaf(); }\n", "R17.2"
        ) == []


@pytest.fixture
def flow_calls(monkeypatch):
    """Every call `run_rules` makes to a flow entry point, as (entry point, function).

    The facts of a call are dropped when it returns, so what a call
    computed is seen by counting calls to the names `ccomply.rules.context`
    binds.
    """
    calls = []
    for name in ("build_cfg", "definite_assignment", "interval_analysis",
                 "liveness", "local_points_to"):
        def counted(target, *args, _name=name, _real=getattr(context, name)):
            fn = target if _name == "build_cfg" else target.fn
            calls.append((_name, fn.name))
            return _real(target, *args)

        monkeypatch.setattr(context, name, counted)
    return calls


class TestFactsOnDemand:
    AST_RULES = {"R8.13", "R11.4", "R13.1", "R13.2", "R13.5", "R14.1", "R14.2"}
    TEXT = (
        "int g;\n"
        "void f(int *p, int x) { int i; for (i = 0; i < x; i++) { use((*p = 1) + x); } }\n"
        "void h(int *q) { use((*q = 2) + g); }\n"
    )

    def test_ast_rules_run_no_flow_analysis(self, flow_calls):
        _, facts = run_rule_full(self.TEXT, "R13.2")
        flow_calls.clear()
        run_rules([facts], self.AST_RULES)
        # R13.2 weighed a dereference against a local, which needs the CFG.
        assert flow_calls
        assert {name for name, _ in flow_calls} == {"build_cfg"}
        assert len(set(flow_calls)) == len(flow_calls)

    def test_flow_rule_computes_only_what_it_reads(self, flow_calls):
        run_rule_full(self.TEXT, "R9.1")
        assert sorted(flow_calls) == [
            ("build_cfg", "f"), ("build_cfg", "h"),
            ("definite_assignment", "f"), ("definite_assignment", "h"),
        ]

    def test_each_fact_is_computed_once_per_call(self, flow_calls):
        _, facts = run_rule_full(self.TEXT, "R13.2")
        for _ in range(2):
            flow_calls.clear()
            run_rules([facts], set(engine.PER_TU_CHECKERS))
            assert ("build_cfg", "f") in flow_calls and ("interval_analysis", "f") in flow_calls
            assert len(set(flow_calls)) == len(flow_calls)

    @pytest.mark.parametrize("body", [
        "use(x + 1);",
        "if (0) { use(1); } use(2);",
        "return; use(1);",
        "while (1) { get(); } use(1);",
    ])
    def test_function_without_an_open_branch_runs_no_interval_analysis(
            self, flow_calls, body):
        run_rule_full(f"void f(int x) {{ {body} }}", "R2.1")
        assert ("build_cfg", "f") in flow_calls
        assert ("interval_analysis", "f") not in flow_calls

    def test_an_open_branch_runs_interval_analysis_once(self, flow_calls):
        run_rule_full("void f(int x) { if (x) { use(1); } use(2); }", "R2.1")
        assert flow_calls.count(("interval_analysis", "f")) == 1


def _nest(depth, inner, wrap):
    for _ in range(depth):
        inner = wrap.format(inner)
    return inner


class TestParenNestingLimit:
    """C99 5.2.4.1 requires 63 levels of parenthesized expressions."""

    @staticmethod
    def program(depth):
        return (
            "#define P(x) (x)\n"
            "int g(int v) { return v; }\n"
            "int f(int a, int *p) {\n"
            f"  int x = {_nest(depth, 'a', '({})')};\n"
            f"  int y = {_nest(depth, 'a', '(1 + {})')};\n"
            f"  int z = {_nest(depth, 'a', '({} << 1)')};\n"
            f"  int i = {_nest(depth, 'a', 'P({})')};\n"
            f"  while ({_nest(depth, 'i < x', '({})')}) {{ i = {_nest(depth - 1, 'i', 'g({})')}; }}\n"
            f"  *p = {_nest(depth - 1, '*p', 'g({} + y)')};\n"
            f"  return {_nest(depth, 'z', '({})')};\n"
            "}\n"
        )

    def test_limit_depth_passes_every_stage_and_guideline(self):
        text = self.program(PAREN_NESTING_LIMIT)
        for rule in sorted(IMPLEMENTED - {"D4.1"}):
            run_rule(text, rule)  # any escape but findings fails the test

    @pytest.mark.parametrize("depth", [PAREN_NESTING_LIMIT + 1, 600])
    def test_deeper_nesting_is_a_tagged_error(self, depth):
        for text in (
            f"int f(int a) {{ return {_nest(depth, 'a', '({})')}; }}\n",
            f"int f(int a) {{ return {_nest(depth, 'a', 'f({})')}; }}\n",
        ):
            with pytest.raises(UnsupportedConstructError) as info:
                run_rule(text, "R12.2", prelude="")
            assert info.value.stage == "unsupported"
            assert info.value.loc is not None and info.value.loc.line == 1


class TestBlockNestingLimit:
    """C99 5.2.4.1 requires 127 nesting levels of blocks."""

    @staticmethod
    def program(depth):
        # A switch with a braced body opens two levels.
        switch_leaf = "{ use(n); }" if depth % 2 else "use(n);"
        return (
            "int f(int a) {\n"
            f"  {_nest(depth, 'a = a + 1;', '{{ {} }}')}\n"
            f"  {_nest(depth, 'a = a - 1;', 'if (a) {}')}\n"
            f"  {_nest(depth, 'a = 0;', 'if (a > 1) a = 2; else {}')}\n"
            f"  {_nest(depth, 'a = a - 1;', 'while (a) {}')}\n"
            f"  {_nest(depth, 'a = a - 1;', 'do {} while (a);')}\n"
            "  return a;\n"
            "}\n"
            "void g(int n, int *p) {\n"
            "  int i;\n"
            f"  {_nest(depth, '*p = i;', 'for (i = 0; i < n; i++) {}')}\n"
            f"  {_nest(depth // 2, switch_leaf, 'switch (n) {{ case 1: {} break; }}')}\n"
            "}\n"
        )

    def test_limit_depth_passes_every_stage_and_guideline(self):
        text = self.program(BLOCK_NESTING_LIMIT)
        for rule in sorted(IMPLEMENTED - {"D4.1"}):
            run_rule(text, rule)  # any escape but findings fails the test

    @pytest.mark.parametrize("depth", [BLOCK_NESTING_LIMIT + 1, 600])
    def test_deeper_nesting_is_a_tagged_error(self, depth):
        for wrap in ("{{ {} }}", "if (a) {}", "if (a) a = 2; else {}", "while (a) {}",
                     "do {} while (a);", "for (;;) {}", "switch (a) {}"):
            text = f"int f(int a) {{ {_nest(depth, 'a = 1;', wrap)} return a; }}\n"
            with pytest.raises(UnsupportedConstructError) as info:
                run_rule(text, "R12.2", prelude="")
            assert info.value.stage == "unsupported"
            assert info.value.loc is not None and info.value.loc.line == 1


class TestConditionalInclusionParenLimit:
    """The #if expression evaluator keeps the 63-level parenthesis limit."""

    def test_limit_depth_passes_every_stage_and_guideline(self):
        text = (
            f"#if {_nest(PAREN_NESTING_LIMIT, '1', '(1 + {})')} > 1\n"
            "int f(int a) { int b = a++; return b; }\n"
            "#endif\n"
        )
        for rule in sorted(IMPLEMENTED - {"D4.1"}):
            findings = run_rule(text, rule)
            if rule == "R13.1":
                assert len(findings) == 1  # the #if held, so f was analysed

    @pytest.mark.parametrize("depth", [PAREN_NESTING_LIMIT + 1, 600])
    def test_deeper_nesting_is_a_tagged_error(self, depth):
        text = f"#if {_nest(depth, '1', '({})')}\nint x;\n#endif\n"
        with pytest.raises(UnsupportedConstructError) as info:
            run_rule(text, "R13.1", prelude="")
        assert info.value.stage == "unsupported"
        assert info.value.loc is not None and info.value.loc.line == 1


class TestNodeIndexLifetime:
    def test_one_index_per_unit_and_none_outlives_the_call(self, monkeypatch):
        units = [run_rule_full(TestFactsOnDemand.TEXT, "R13.2", path=f"u{i}.c")[1]
                 for i in range(3)]
        built = []

        class CountingIndex(engine.NodeIndex):
            __slots__ = ()

            def __init__(self, decls):
                super().__init__(decls)
                built.append(weakref.ref(self))

        monkeypatch.setattr(engine, "NodeIndex", CountingIndex)
        enabled = set(engine.PER_TU_CHECKERS)
        assert len(enabled) == 13
        assert run_rules(units, enabled)
        assert len(built) == len(units)
        assert all(ref() is None for ref in built)


class TestSizeofOperandIsNotEvaluated:
    """C99 6.5.3.4p2: the operand of sizeof is not evaluated.

    A side effect or call written under sizeof never happens, so R13.1,
    R13.5 and R17.2 have nothing to report. MISRA's R13.6, which forbids
    side effects in sizeof operands, is not checked by this tool.
    """

    @pytest.mark.parametrize("init", ["sizeof(x++)", "sizeof(get())"])
    def test_initializer_side_effect_under_sizeof_clean(self, init):
        assert run_rule(f"void f(int x) {{ int n = {init}; use(n); use(x); }}", "R13.1") == []

    def test_initializer_side_effect_outside_sizeof_still_definite(self):
        f = single(run_rule("void f(int x) { int n = x++; use(n); use(x); }", "R13.1"))
        assert f.certainty is Certainty.DEFINITE

    def test_logical_rhs_side_effect_under_sizeof_clean(self):
        assert run_rule(
            "void f(int a, int b) { if (a && sizeof(b++)) { use(a); } use(b); }", "R13.5"
        ) == []

    def test_logical_operator_under_sizeof_clean(self):
        assert run_rule(
            "void f(int a, int b) { int n = sizeof(a && b++); use(n); }", "R13.5"
        ) == []

    def test_logical_operator_beside_sizeof_still_definite(self):
        f = single(run_rule(
            "void f(int a, int b) { int n = sizeof(a) + (a && b++); use(n); }", "R13.5"
        ))
        assert f.certainty is Certainty.DEFINITE

    def test_shift_under_sizeof_clean(self):
        assert run_rule(
            "void f(int x) { int n = (int)sizeof(x << 40); use(n); }", "R12.2"
        ) == []

    def test_shift_beside_sizeof_still_definite(self):
        f = single(run_rule(
            "void f(int x) { int n = (int)sizeof(x) + (x << 40); use(n); }", "R12.2"
        ))
        assert f.certainty is Certainty.DEFINITE

    def test_call_under_sizeof_is_not_recursion(self):
        assert run_rule("int f(void) { return (int)sizeof(f()); }", "R17.2") == []

    def test_pointer_call_under_sizeof_is_not_a_call_site(self):
        assert run_rule(
            "extern int h(void);\n"
            "int f(void) { int (*fp)(void) = h; return (int)sizeof(fp()); }\n",
            "R17.2",
        ) == []

    def test_call_beside_sizeof_still_counts(self):
        f = single(run_rule("int f(void) { return (int)sizeof(int) + f(); }", "R17.2"))
        assert f.certainty is Certainty.DEFINITE


class TestEscapeQueryReadsOneFunction:
    def test_deref_pair_builds_only_its_own_functions_cfg(self, flow_calls):
        run_rule_full(
            "void f(int *p) { *p = 1; }\n"
            "void h(int *q, int x) { use((*q = 2) + x); }\n",
            "R13.2",
        )
        assert flow_calls == [("build_cfg", "h")]

    def test_escaped_local_still_caution(self):
        f = single(run_rule(
            "void f(int *p, int x) { usep(&x); use((*p = 1) + x); }", "R13.2"
        ))
        assert f.certainty is Certainty.CAUTION


# One evaluation model: the interval analysis tracks the objects, forgets on
# the stores and evaluates the operands that `flow/effects` says. Each row is
# (rule, source, [(certainty, message)]).
STATIC_CALLS = "void k(void) { static int calls = 0; if (calls > 0) { use(calls); } calls = 1; }"
B_K_INCREMENT = (
    "void f(void) { int k = 0; int b[2] = { 0, 0 }; b[k++]++; use(b[0]); "
    "if (k == 1) { use(1); } }"
)
MEMBER_AND_ELEMENT_STORES = (
    "struct S { int m; };\n"
    "void f(void) { struct S s; int t[2]; int x; int *p = &x; x = 1; s.m = 2; t[0] = 2; "
    "if (x == 1) { use(1); } usep(p); use(s.m + t[0]); }"
)
ALWAYS_TRUE = [("definite", "controlling expression is invariant: always true")]
ALWAYS_FALSE = [("definite", "controlling expression is invariant: always false")]
EVALUATION_SHAPES = [
    # A static local is initialised once, before startup (C99 6.2.4p3), so
    # its declaration does not set it on each call: it is not tracked.
    ("R14.3", "void f(void) { static int n = 0; if (n == 0) { use(1); } n = 5; }", []),
    ("R14.3", STATIC_CALLS, []),
    ("R2.1", STATIC_CALLS, []),
    ("R12.2", "void h(void) { static unsigned k = 40u; useu(1u << k); k = 3u; }", [(
        "caution",
        "right-hand operand of << may reach in [0, 4294967295], escaping the legal range [0, 31]",
    )]),
    # The elements of an initializer list (C99 6.7.8p23) and the operand of
    # `&` (6.5.3.2p3) are evaluated.
    ("R14.3", "void f(void) { int x = 0; int a[1] = { x++ }; use(a[0]); "
              "if (x == 0) { use(1); } }", ALWAYS_FALSE),
    ("R14.3", "struct P { int m; };\nvoid f(void) { int z = 0; struct P s = { z = 3 }; "
              "use(s.m); if (z == 0) { use(1); } }", ALWAYS_FALSE),
    ("R14.3", "void f(void) { int i = 0; int a[2]; int *p = &a[i++]; usep(p); "
              "if (i == 0) { use(1); } }", ALWAYS_FALSE),
    # `op=` and `++` compute their target's address once (C99 6.5.16.2p3,
    # 6.5.2.4p2).
    ("R14.3", "void f(void) { int i = 0; int a[2] = { 0, 0 }; a[i++] += 1; use(a[0]); "
              "if (i == 2) { use(1); } }", ALWAYS_FALSE),
    ("R14.3", B_K_INCREMENT, ALWAYS_TRUE),
    ("R2.1", B_K_INCREMENT, []),
    ("R9.1", "void f(void) { int k; int b[2] = { 0, 0 }; b[k]++; use(b[0]); }",
     [("definite", "'k' is read before it is set on some path")]),
    # A store into a member or element of a named object reaches no other
    # object; one through a pointer, and a call, may reach `x`.
    ("R14.3", MEMBER_AND_ELEMENT_STORES, ALWAYS_TRUE),
    ("R14.3", MEMBER_AND_ELEMENT_STORES.replace("s.m = 2; t[0] = 2;", "*q = 2;")
              .replace("f(void)", "f(int *q)"), []),
    ("R14.3", MEMBER_AND_ELEMENT_STORES.replace("s.m = 2; t[0] = 2;", "get();"), []),
]


@pytest.mark.parametrize("rule, text, expected", EVALUATION_SHAPES)
def test_intervals_read_the_evaluation_rules_of_effects(rule, text, expected):
    assert [(f.certainty.value, f.message) for f in run_rule(text, rule)] == expected
