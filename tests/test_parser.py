import pytest

from ccomply.errors import ParseError, UnsupportedConstructError
from ccomply.parsing import (
    Assign, Binary, Comma, CompoundStmt, Conditional, Constant, Declaration,
    DoWhile, ExprStmt, For, FunctionDef, Identifier, If, IncDec, Label,
    Return, StringLiteral, SynArr, SynFunc, SynPtr, While,
    for_clauses, parse,
)
from structural import structural_equal
from support import pp_text
from test_sema import gcc_errors
from unparse import unparse


def parse_text(text: str, path: str = "t.c"):
    toks, _, _, _ = pp_text(text, path=path)
    return parse(toks, path)


def parse_fn_body(body: str):
    tu = parse_text("void f(void) {\n" + body + "\n}\n")
    return tu.decls[0].body


def first_stmt(body: str):
    return parse_fn_body(body).items[0]


class TestExpressions:
    def test_shift_assignment_precedence(self):
        stmt = first_stmt("a = b << c;")
        assert isinstance(stmt, ExprStmt)
        e = stmt.expr
        assert isinstance(e, Assign)
        assert isinstance(e.target, Identifier) and e.target.name == "a"
        assert isinstance(e.value, Binary) and e.value.op == "<<"
        assert e.value.left.name == "b" and e.value.right.name == "c"

    def test_multiplication_binds_tighter_than_addition(self):
        e = first_stmt("x = a + b * c;").expr.value
        assert isinstance(e, Binary) and e.op == "+"
        assert isinstance(e.left, Identifier) and e.left.name == "a"
        assert isinstance(e.right, Binary) and e.right.op == "*"

    def test_dangling_else_binds_to_inner_if(self):
        stmt = first_stmt("if (p) if (q) f(); else g();")
        assert isinstance(stmt, If)
        assert stmt.els is None
        inner = stmt.then
        assert isinstance(inner, If)
        assert inner.els is not None

    def test_conditional_and_comma(self):
        e = first_stmt("x = a ? b : c, y = 1;").expr
        assert isinstance(e, Comma)
        assert isinstance(e.left, Assign)
        assert isinstance(e.left.value, Conditional)

    def test_unary_chains(self):
        e = first_stmt("x = - - a;").expr.value
        assert e.op == "-" and e.operand.op == "-"

    def test_postfix_and_prefix_incdec(self):
        post = first_stmt("a++;").expr
        pre = first_stmt("++a;").expr
        assert isinstance(post, IncDec) and not post.prefix
        assert isinstance(pre, IncDec) and pre.prefix

    def test_adjacent_string_literals_concatenate(self):
        e = first_stmt('s = "ab" "cd";').expr.value
        assert isinstance(e, StringLiteral) and e.value == "abcd"

    def test_string_escapes_decoded(self):
        e = first_stmt(r's = "a\n\x41\101";').expr.value
        assert e.value == "a\nAA"

    def test_char_constant_value(self):
        e = first_stmt("c = 'A';").expr.value
        assert isinstance(e, Constant) and e.value == 65

    def test_octal_and_hex_constants(self):
        assert first_stmt("x = 077;").expr.value.value == 63
        assert first_stmt("x = 0x1F;").expr.value.value == 31
        assert first_stmt("x = 10UL;").expr.value.value == 10

    def test_float_constants(self):
        e = first_stmt("d = 0.5f;").expr.value
        assert e.is_float and e.value == 0.5

    def test_sizeof_forms(self):
        s1 = first_stmt("n = sizeof x;").expr.value
        s2 = first_stmt("n = sizeof(int);").expr.value
        assert s1.operand is not None and s1.type_name is None
        assert s2.type_name is not None and s2.operand is None

    def test_sizeof_paren_expr_then_multiply(self):
        e = first_stmt("n = sizeof(x) * 2;").expr.value
        assert isinstance(e, Binary) and e.op == "*"

    def test_cast_vs_parenthesized_expression(self):
        cast = first_stmt("p = (int *) q;").expr.value
        grouped = first_stmt("p = (q) + 1;").expr.value
        from ccomply.parsing import Cast
        assert isinstance(cast, Cast)
        assert isinstance(grouped, Binary)

    def test_member_access_chain(self):
        e = first_stmt("v = s.a->b;").expr.value
        assert e.name == "b" and e.arrow
        assert e.base.name == "a" and not e.base.arrow


class TestStatements:
    def test_for_clause_decomposition(self):
        stmt = first_stmt("for (i = 0; i < n; ++i) { }")
        init, cond, step = for_clauses(stmt)
        assert isinstance(init, Assign)
        assert isinstance(cond, Binary) and cond.op == "<"
        assert isinstance(step, IncDec)

    def test_for_with_all_clauses_absent(self):
        stmt = first_stmt("for (;;) { }")
        assert for_clauses(stmt) == (None, None, None)

    def test_for_with_comma_init(self):
        stmt = first_stmt("for (i = 0, j = 0; i < n; ++i) { }")
        init, _, _ = for_clauses(stmt)
        assert isinstance(init, Comma)

    def test_for_with_declaration_init(self):
        stmt = first_stmt("for (int i = 0; i < 3; ++i) { }")
        init, _, _ = for_clauses(stmt)
        assert isinstance(init, Declaration)

    def test_while_do_and_labels(self):
        body = parse_fn_body("top: while (a) { do { g(); } while (b); } goto top;")
        label = body.items[0]
        assert isinstance(label, Label) and label.kind == "named" and label.name == "top"
        assert isinstance(label.stmt, While)
        assert isinstance(label.stmt.body.items[0], DoWhile)

    def test_switch_cases(self):
        stmt = first_stmt("switch (x) { case 1: f(); break; default: g(); }")
        cases = [i for i in stmt.body.items if isinstance(i, Label)]
        assert [c.kind for c in cases] == ["case", "default"]

    def test_empty_statement(self):
        stmt = first_stmt(";")
        assert isinstance(stmt, ExprStmt) and stmt.expr is None


class TestDeclarations:
    def test_declarator_shapes(self):
        tu = parse_text(
            "int x;\nint *p;\nint a[3];\nint (*fp)(int);\nint *f(void);\n"
        )
        shapes = []
        for d in tu.decls:
            entry = d.entries[0]
            shapes.append(tuple(type(v).__name__ for v in entry.syntype.derivs))
        assert shapes == [
            (),
            ("SynPtr",),
            ("SynArr",),
            ("SynPtr", "SynFunc"),
            ("SynFunc", "SynPtr"),
        ]

    def test_typedef_enables_declaration_parse(self):
        tu = parse_text("typedef int T;\nvoid f(void) { T * x; use(x); }\n")
        fn = tu.decls[1]
        first = fn.body.items[0]
        assert isinstance(first, Declaration)
        assert first.entries[0].name == "x"

    def test_object_shadows_typedef(self):
        tu = parse_text(
            "typedef int T;\nvoid f(void) { int T; T * x; }\n"
        )
        fn = tu.decls[1]
        second = fn.body.items[1]
        # With T shadowed by an object, `T * x;` is a multiplication.
        assert isinstance(second, ExprStmt)
        assert isinstance(second.expr, Binary) and second.expr.op == "*"

    def test_struct_union_enum(self):
        tu = parse_text(
            "struct S { int a; struct S *next; };\n"
            "union U { int i; float f; };\n"
            "enum E { RED, GREEN = 3 };\n"
            "struct S box;\n"
        )
        assert len(tu.decls) == 4
        s = tu.decls[0].base
        assert s.record_kind == "struct" and s.tag == "S" and len(s.members) == 2

    def test_multi_declarator_line(self):
        tu = parse_text("int x = 1, *p, a[2];\n")
        entries = tu.decls[0].entries
        assert [e.name for e in entries] == ["x", "p", "a"]
        assert entries[0].init is not None and entries[1].init is None

    def test_function_definition_with_params(self):
        tu = parse_text("int add(int a, int b) { return a + b; }\n")
        fn = tu.decls[0]
        assert isinstance(fn, FunctionDef)
        assert [p.name for p in fn.params] == ["a", "b"]
        assert isinstance(fn.body.items[0], Return)


class TestErrors:
    def test_syntax_error_has_location_and_hint(self):
        with pytest.raises(ParseError) as exc:
            parse_text("void f(void) { int x = ; }\n")
        assert exc.value.loc is not None

    def test_missing_semicolon(self):
        with pytest.raises(ParseError) as exc:
            parse_text("void f(void) { g() }\n")
        assert "expected" in str(exc.value)

    @pytest.mark.parametrize(
        "text",
        [
            "struct S { int a : 3; };\n",                    # bit-field
            "void f(void) { int *p = (int[]){1, 2}; }\n",    # compound literal
            "struct P { int x; int tail[]; };\n",            # flexible array member
            "int f(a, b) int a; int b; { return a; }\n",     # K&R definition
            "_Complex double z;\n",                          # complex type
            "void f(void) { asm(\"nop\"); }\n",              # inline assembly
            "int a[] = { [1] = 2 };\n",                      # designated initializer
        ],
    )
    def test_unsupported_constructs(self, text):
        with pytest.raises(UnsupportedConstructError):
            parse_text(text)

    def test_unsupported_is_distinct_from_syntax_error(self):
        assert issubclass(UnsupportedConstructError, ParseError)


CORPUS_SAMPLES = [
    "int x = 1, *p, a[4];\nstruct S { int a; char b[3]; };\n",
    "typedef unsigned int u32;\nu32 mask(u32 v) { return v & 0x0Fu; }\n",
    "void f(int n) { int i; for (i = 0; i < n; ++i) { if (i % 2 == 0) continue; g(i); } }\n",
    "int pick(int a, int b) { return a > b ? a : b; }\n",
    "void s(int x) { switch (x) { case 1: f(); break; default: break; } }\n",
    "void loops(void) { int i = 0; while (i < 8) { i++; } do { i--; } while (i > 0); }\n",
    "void m(struct Q *q) { q->next = 0; (*q).prev = 0; }\n",
    "void c(void) { char *s = \"ab\" \"cd\"; use(s[1]); }\n",
    "int g(void);\nint (*dispatch(void))(void) { return g; }\n",
    "void p(void) { if (a) if (b) f(); else g(); }\n",
    "enum Color { R, G = 2, B };\nenum Color pick2(void) { return B; }\n",
    "void vols(void) { volatile int v; int *const cp = 0; v = 1; }\n",
]


def _normalize(node):
    """Unwrap single-statement blocks that carry no declarations.

    Unparse braces a dangling-if then-branch to preserve else binding;
    comparison treats such a block as its single statement.
    """
    from ccomply.parsing import CompoundStmt, Declaration, children

    def unwrap(n):
        if isinstance(n, CompoundStmt) and len(n.items) == 1:
            inner = n.items[0]
            if not isinstance(inner, Declaration) and not isinstance(inner, CompoundStmt):
                return unwrap(inner)
        return n

    for ch in children(node):
        _normalize(ch)
    for name in ("then", "els", "body", "stmt"):
        if hasattr(node, name):
            value = getattr(node, name)
            if value is not None:
                setattr(node, name, unwrap(value))
    return node


@pytest.mark.parametrize("idx", range(len(CORPUS_SAMPLES)))
def test_unparse_reparse_round_trip(idx):
    text = CORPUS_SAMPLES[idx]
    tu1 = parse_text(text)
    emitted = unparse(tu1)
    tu2 = parse_text(emitted, path="t2.c")
    assert structural_equal(_normalize(tu1), _normalize(tu2)), emitted


def _reference_children(node):
    """`children` as spelled by reflection on every visit."""
    from dataclasses import fields

    from ccomply.parsing import DeclEntry, Node, SynArr, SynBase, SynFunc, SynType

    out = []

    def collect(value):
        if isinstance(value, Node):
            out.append(value)
        elif isinstance(value, list):
            for v in value:
                collect(v)
        elif isinstance(value, DeclEntry):
            if value.init is not None:
                out.append(value.init)
        elif isinstance(value, SynType):
            collect(value.base)
            for d in value.derivs:
                if isinstance(d, SynArr) and d.size is not None:
                    out.append(d.size)
                elif isinstance(d, SynFunc) and d.params:
                    for p in d.params:
                        collect(p.syntype)
        elif isinstance(value, SynBase):
            for m in value.members or ():
                collect(m.syntype)
            for _, e in value.enumerators or ():
                if e is not None:
                    out.append(e)

    skip = {"span", "ctype", "symbol", "behavior"}
    for f in fields(node):
        if f.name not in skip:
            collect(getattr(node, f.name))
    return out


def test_children_match_reflection_on_every_corpus_node():
    from ccomply.parsing import children, walk

    visited = 0
    for text in CORPUS_SAMPLES:
        for node in walk(parse_text(text)):
            got, want = children(node), _reference_children(node)
            assert len(got) == len(want) and all(a is b for a, b in zip(got, want)), node
            visited += 1
    assert visited > 100


class TestChildTable:
    """`children` reads one row per node class: the fields that can hold a node."""

    # Every node class, with its fields filled in every shape a row reads.
    TEXT = (
        "enum E { A = 1, B };\n"
        "struct S { int m[2 + 1]; enum { C = 3 } e; };\n"
        "typedef int T[4];\n"
        "int g(int v[sizeof(struct S)], int (*h)(int w[5]));\n"
        "void f(int n, int *p, int r[9]) {\n"
        "  int a[3] = { 1, n, 3 }, b = 2;\n"
        "  for (int i = 0; i < n; i++) { if (i) continue; else break; }\n"
        "  for (;;) { }\n"
        "  while (n) { n -= 1; }\n"
        "  do { p[0]++; } while (!n);\n"
        "  switch (n) { case 1: n = -n; break; default: ; }\n"
        "  n = (int)(long)sizeof(int[6]) + sizeof n + sizeof(n, b);\n"
        "  n = n ? *p : ((struct S *)p)->m[0] + (*(struct S *)p).e;\n"
        "  p = &a[0]; use(\"s\", (void (*)(int [7]))0);\n"
        "  goto out;\n"
        "out:\n"
        "  return;\n"
        "}\n"
    )

    @staticmethod
    def node_classes():
        from ccomply.parsing import Expr, Node, Stmt, astnodes

        abstract = {Node, Expr, Stmt, astnodes._Unit}
        return {c for c in vars(astnodes).values()
                if isinstance(c, type) and issubclass(c, Node) and c not in abstract}

    def test_every_node_class_has_a_row(self):
        from ccomply.parsing import astnodes

        assert set(astnodes._CHILD_FIELDS) == self.node_classes()

    def test_children_match_reflection_on_every_node_class(self):
        from ccomply.parsing import children, walk

        seen = set()
        for node in walk(parse_text(self.TEXT)):
            got, want = children(node), _reference_children(node)
            assert len(got) == len(want) and all(a is b for a, b in zip(got, want)), node
            seen.add(type(node))
        assert seen == self.node_classes()

    def test_rows_read_sizes_values_and_initializers(self):
        from ccomply.parsing import children

        enum, record, typedef, proto, fn = parse_text(self.TEXT).decls
        assert [c.value for c in children(enum)] == [1]
        assert [type(c).__name__ for c in children(record)] == ["Binary", "Constant"]
        # A declarator's own derivations are no children; its initializer is.
        assert children(typedef) == children(proto) == []
        assert len(children(fn)) == 2 and children(fn)[0].value == 9
        assert children(fn)[1] is fn.body
        decl = fn.body.items[0]
        assert [type(c).__name__ for c in children(decl)] == ["InitList", "Constant"]


# The expression classes `NodeIndex` keeps; `Binary` only for `&&` and `||`.
INDEX_KEEPS = {"Assign", "CompoundAssign", "IncDec", "Call", "AddrOf", "Cast", "Sizeof"}


def index_keeps(node) -> bool:
    """Does `NodeIndex` keep `node`? Every statement and declaration, and the
    expressions checkers look up."""
    from ccomply.parsing import Expr

    name = type(node).__name__
    return (not isinstance(node, Expr) or name in INDEX_KEEPS
            or (name == "Binary" and node.op in ("&&", "||")))


def node_index_diffs(tu) -> list[str]:
    """Where `NodeIndex(tu.decls)` differs from `walk` filtered to the kept nodes.

    Each top-level declaration's and each function body's kept nodes, all of
    them together and each class's must be the walk's, by identity and in
    pre-order; `unevaluated` must be the kept nodes under a `sizeof`; and
    `of` must raise for every expression class the index does not keep.
    """
    from ccomply.parsing import Expr, FunctionDef, NodeIndex, Sizeof, astnodes, walk

    def same(got, want):
        return len(got) == len(want) and all(a is b for a, b in zip(got, want))

    index = NodeIndex(tu.decls)
    diffs = [] if index.decls is tu.decls else ["decls"]
    want, unevaluated = [], set()
    for decl in tu.decls:
        nodes = [n for n in walk(decl) if index_keeps(n)]
        if not same(index.subtree(decl), nodes):
            diffs.append(f"{type(decl).__name__} at {decl.start}: subtree")
        if isinstance(decl, FunctionDef):
            body = [n for n in walk(decl.body) if index_keeps(n)]
            if not same(index.subtree(decl.body), body):
                diffs.append(f"{decl.name}: body")
        want += nodes
        for n in walk(decl):
            if type(n) is Sizeof:
                unevaluated.update(m for m in list(walk(n))[1:] if index_keeps(m))
    if not same(index.nodes, want):
        diffs.append("nodes")
    for cls in {type(n) for n in want}:
        if not same(index.of(cls), [n for n in want if type(n) is cls]):
            diffs.append(f"of({cls.__name__})")
    if index.unevaluated != unevaluated:
        diffs.append("unevaluated")
    for cls in astnodes._CHILD_FIELDS:
        if issubclass(cls, Expr) and cls.__name__ not in INDEX_KEEPS | {"Binary"}:
            try:
                index.of(cls)
                diffs.append(f"of({cls.__name__}) does not raise")
            except TypeError:
                pass
    return diffs


def test_node_index_matches_walk_on_every_corpus_tu():
    """The index keeps exactly the walk's statements, declarations and
    looked-up expressions; a parsed tree that sema never typed has no
    `kinds`, so nothing in it is skipped."""
    for text in CORPUS_SAMPLES:
        assert node_index_diffs(parse_text(text)) == []


def test_parse_is_deterministic():
    text = CORPUS_SAMPLES[2]
    a, b = parse_text(text), parse_text(text)
    assert structural_equal(a, b)


def test_trailing_garbage_is_error():
    with pytest.raises(ParseError):
        parse_text("int x; }\n")


def test_macro_expanded_node_span_points_to_invocation():
    text = "#define ONE 1\nint x = ONE;\n"
    toks, _, _, _ = pp_text(text)
    tu = parse(toks, "t.c")
    init = tu.decls[0].entries[0].init
    assert init.span.start.line == 2  # invocation site, not the #define line
    assert init.span.via and init.span.via[0].macro == "ONE"


class TestIntegerConstants:
    """C99 6.4.4.1 integer constants; anything else is a floating constant or an error."""

    def value(self, text):
        return first_stmt(f"x = {text};").expr.value

    @pytest.mark.parametrize("text, value", [
        ("0", 0), ("010", 8), ("0x10", 16), ("0XfF", 255), ("7u", 7), ("7UL", 7),
        ("7lu", 7), ("7ull", 7), ("7LLU", 7), ("7uLL", 7), ("017L", 15),
    ])
    def test_valid_forms(self, text, value):
        e = self.value(text)
        assert not e.is_float and e.value == value

    @pytest.mark.parametrize("text", [
        "08", "1uu", "1lul", "1lL", "1Ll", "0x", "0b1", "0o7", "1_000", "1.0fl",
    ])
    def test_invalid_forms_are_errors(self, text):
        with pytest.raises(ParseError, match="invalid numeric constant"):
            self.value(text)

    @pytest.mark.parametrize("text, value", [
        ("08.5", 8.5), ("1e5", 1e5), ("1.", 1.0), (".5", 0.5), ("2.5e-1f", 0.25),
    ])
    def test_floating_constants_still_parse(self, text, value):
        e = self.value(text)
        assert e.is_float and e.value == value

    # Each spelling with gcc 12's verdict under -std=c99 -pedantic-errors:
    # hexadecimal floating constants (C99 6.4.4.2) are valid C99 outside the
    # subset; the malformed ones are errors there too.
    @pytest.mark.parametrize("text, valid_c99", [
        ("0x1p3", True), ("0x1.8p1", True), ("0X.8P-2f", True), ("0x1P+3L", True),
        ("0x1.p1", True), ("0x", False), ("1.0e", False), ("0x1p", False),
        ("0x1.8", False), ("0x.p1", False),
    ])
    def test_hexadecimal_floating_constants_are_unsupported(self, tmp_path, text, valid_c99):
        with pytest.raises(ParseError) as info:
            self.value(text)
        if valid_c99:
            assert type(info.value) is UnsupportedConstructError
            assert info.value.message == f"hexadecimal floating constant {text} is not supported"
        else:
            assert type(info.value) is ParseError
            assert info.value.message == f"invalid numeric constant {text!r}"
        assert (info.value.loc.line, info.value.loc.column) == (2, 5)
        errors = gcc_errors(tmp_path, f"double x = {text};\n")
        assert errors is None or (errors == []) is valid_c99, errors


class TestCharacterConstants:
    """C99 6.4.4.4 escape sequences, decoded by `lexer.literal_units`."""

    def value(self, text):
        return first_stmt(f"x = {text};").expr.value.value

    @pytest.mark.parametrize("text, value", [
        ("'A'", 65), (r"'\n'", 10), (r"'\0'", 0), (r"'\''", 39), (r"'\"'", 34),
        ("'\"'", 34), (r"'\?'", 63), (r"'\\'", 92), (r"'\a'", 7), (r"'\v'", 11),
        (r"'\101'", 65), (r"'\x41'", 65), (r"'\x7f'", 127),
        # Plain char is signed in the model.
        (r"'\377'", -1), (r"'\xFF'", -1), (r"'\200'", -128),
    ])
    def test_well_formed_values(self, text, value):
        assert self.value(text) == value

    @pytest.mark.parametrize("text", [r"'\x'", r"'\q'", r"'\xG'", r"'\x100'", r"'\400'"])
    def test_malformed_escape_is_parse_error_at_the_literal(self, text):
        with pytest.raises(ParseError) as info:
            first_stmt(f"x = {text};")
        assert type(info.value) is ParseError
        assert text in info.value.message
        assert (info.value.loc.line, info.value.loc.column) == (2, 5)

    def test_malformed_escape_in_string_is_parse_error(self):
        with pytest.raises(ParseError) as info:
            parse_text('char *s = "\\x";\n')
        assert type(info.value) is ParseError
        assert '"\\x"' in info.value.message
        assert (info.value.loc.line, info.value.loc.column) == (1, 11)

    @pytest.mark.parametrize("text", [r"'\1234'", r"'\0x'", "'ab'"])
    def test_multi_character_constant_is_unsupported(self, text):
        with pytest.raises(UnsupportedConstructError, match="multi-character constant"):
            first_stmt(f"x = {text};")

    def test_octal_escape_takes_at_most_three_digits(self):
        assert first_stmt(r's = "\1234\0123";').expr.value.value == "S4\n3"

    def test_hex_escape_takes_every_hex_digit(self):
        assert first_stmt(r's = "\x4g\x041";').expr.value.value == "\x04gA"


class TestOperandTable:
    """`operands` is `children` minus cast type names and sizeof operands."""

    SAMPLES = CORPUS_SAMPLES + [
        "void z(int a, int *p) { int n = sizeof(a++) + sizeof(int[4]); "
        "p = (int *)(long)p; use((char)sizeof(*p) + n, (unsigned)a); }\n",
        "struct T { int v[2]; };\n"
        "void w(struct T *t, int i) { int b[3] = { i, (int)t->v[i], sizeof t->v }; "
        "t->v[i ? 0 : 1] += (i, b[2]); i = -~!i; use(&b[0] - &b[1]); }\n",
    ]

    @staticmethod
    def expected(node):
        from ccomply.parsing import Cast, Sizeof, children

        if isinstance(node, Sizeof):
            return []
        if isinstance(node, Cast):
            return [node.operand]
        return children(node)

    def test_operands_match_children_on_every_corpus_expression(self):
        from ccomply.parsing import Cast, Expr, Sizeof, operand_fields, operands, walk

        seen: set[type] = set()
        for text in self.SAMPLES:
            for node in walk(parse_text(text)):
                if not isinstance(node, Expr):
                    continue
                got, want = operands(node), self.expected(node)
                assert len(got) == len(want) and all(a is b for a, b in zip(got, want)), node
                flat = []
                for name in operand_fields(node):
                    value = getattr(node, name)
                    flat.extend(value if isinstance(value, list) else [value])
                assert len(flat) == len(got) and all(a is b for a, b in zip(flat, got))
                seen.add(type(node))
        assert {Cast, Sizeof} <= seen
        assert len(seen) == 18, seen

    def test_every_expression_class_has_an_entry(self):
        from ccomply.parsing import Expr, astnodes

        classes = {c for c in vars(astnodes).values()
                   if isinstance(c, type) and issubclass(c, Expr) and c is not Expr}
        assert set(astnodes._OPERAND_FIELDS) == classes


class TestStructSpecifierCombinations:
    """C99 6.7.2p2: a struct, union or enum specifier is the only type specifier."""

    @pytest.mark.parametrize("text", [
        "struct S { int m; } int x;\n",
        "long struct S { int m; } x;\n",
        "unsigned enum E { A } e;\n",
    ])
    def test_second_type_specifier_is_rejected(self, text):
        with pytest.raises(ParseError, match="struct, union or enum"):
            parse_text(text)

    @pytest.mark.parametrize("text", [
        "struct S { int m; };\nconst volatile struct S s;\n",
        "struct S { int m; };\nstatic struct S s;\n",
        "typedef struct S T;\n",
    ])
    def test_qualifiers_and_storage_classes_still_combine(self, text):
        tu = parse_text(text)
        assert tu.decls[-1].base.record_kind == "struct"
