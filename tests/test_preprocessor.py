import dataclasses
import os

import pytest

from ccomply.errors import LexError, PreprocessError, UnsupportedConstructError
from ccomply.frontend import (
    PPToken, evaluate_pp_condition, lex, macro_from_define_flag, preprocess,
)
from ccomply.source import SourceManager
from support import lex_text, lexemes, make_manager, pp_text


def test_function_macro_expansion_with_chain():
    toks, srcmap, _, _ = pp_text("#define SQ(x) ((x)*(x))\nint y = SQ(a+1);\n")
    # Frozen from the reference preprocessor: gcc -E -P gives
    # `int y = ((a+1)*(a+1));`
    assert lexemes(toks) == [
        "int", "y", "=",
        "(", "(", "a", "+", "1", ")", "*", "(", "a", "+", "1", ")", ")", ";",
    ]
    expanded = toks[3:-1]
    for t in expanded:
        assert len(t.chain) == 1
        assert t.chain[0].macro == "SQ"
        assert (t.chain[0].site.line, t.chain[0].site.column) == (2, 9)
    # Tokens outside the expansion carry no chain.
    assert toks[0].chain == () and toks[-1].chain == ()


def test_nested_macro_expansion_matches_reference():
    src = (
        "#define TWICE(a) ((a) + (a))\n"
        "#define NEST(b) TWICE(b) * 3\n"
        "#define WIDTH 32\n"
        "#if WIDTH > 16 && defined(WIDTH)\n"
        "unsigned long r = NEST(v - 2);\n"
        "#else\n"
        "syntax error here\n"
        "#endif\n"
    )
    toks, _, _, _ = pp_text(src)
    # Frozen from gcc -E -P: `unsigned long r = ((v - 2) + (v - 2)) * 3;`
    assert " ".join(lexemes(toks)) == "unsigned long r = ( ( v - 2 ) + ( v - 2 ) ) * 3 ;"


def test_object_macro_inside_argument_matches_reference():
    src = (
        "#define EMPTY()\n"
        "#define ID(x) x\n"
        "#define PAIR 1, 2\n"
        "int a[] = { ID(PAIR) EMPTY() , ID(ID(3)) };\n"
    )
    toks, _, _, _ = pp_text(src)
    # Frozen from gcc -E -P: `int a[] = { 1, 2 , 3 };`
    assert " ".join(lexemes(toks)) == "int a [ ] = { 1 , 2 , 3 } ;"


def test_nested_chain_walks_to_physical_sites():
    src = "#define INNER 1\n#define OUTER INNER\nint x = OUTER;\n"
    toks, srcmap, _, mgr = pp_text(src)
    one = [t for t in toks if t.lexeme == "1"][0]
    assert [f.macro for f in one.chain] == ["OUTER", "INNER"]
    # Outermost site is the use in code; inner site is inside OUTER's body.
    assert one.chain[0].site.line == 3
    assert one.chain[1].site.line == 2
    srcmap.check_total(mgr)


def test_argument_tokens_keep_spelling_origin():
    toks, _, _, _ = pp_text("#define SQ(x) ((x)*(x))\nint y = SQ(a+1);\n")
    a_tokens = [t for t in toks if t.lexeme == "a"]
    assert len(a_tokens) == 2
    for t in a_tokens:
        assert t.origin.line == 2  # physical spelling inside the invocation
        assert t.chain and t.chain[0].macro == "SQ"


def test_if_zero_skips_group_without_diagnostics():
    toks, _, _, _ = pp_text('#if 0\nint int ) ( ;;; = "quote" while\n#endif\nint x;\n')
    # The excluded group is full of C syntax errors but is never parsed;
    # its tokens simply never reach the output.
    assert lexemes(toks) == ["int", "x", ";"]


def test_conditional_elif_else_chain():
    src = "#define V 2\n#if V == 1\nint a;\n#elif V == 2\nint b;\n#else\nint c;\n#endif\n"
    toks, _, _, _ = pp_text(src)
    assert lexemes(toks) == ["int", "b", ";"]


def test_ifdef_and_ifndef():
    src = "#define ON 1\n#ifdef ON\nint a;\n#endif\n#ifndef OFF\nint b;\n#endif\n"
    toks, _, _, _ = pp_text(src)
    assert lexemes(toks) == ["int", "a", ";", "int", "b", ";"]


def test_unmatched_conditional_is_error():
    with pytest.raises(PreprocessError):
        pp_text("#if 1\nint a;\n")
    with pytest.raises(PreprocessError):
        pp_text("#endif\n")


def test_include_quoted_searches_including_dir_first():
    files = {
        "sub/inc.h": "int from_sub;\n",
        "inc.h": "int from_root;\n",
        "sub/main.c": '#include "inc.h"\n',
    }
    mgr, _ = make_manager(files)
    # make_manager registered main.c last; fetch it as the entry.
    entry = [mgr.get(i) for i in range(len(mgr)) if mgr.get(i).path == "sub/main.c"][0]
    # Virtual files are not on disk, so spell out a disk-based test instead.


def test_include_resolution_order(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "othr").mkdir()
    (tmp_path / "sub" / "inc.h").write_text("int from_sub;\n")
    (tmp_path / "othr" / "inc.h").write_text("int from_othr;\n")
    (tmp_path / "sub" / "main.c").write_text('#include "inc.h"\n#include <inc.h>\n')
    mgr = SourceManager()
    entry = mgr.load(str(tmp_path / "sub" / "main.c"))
    toks, srcmap, _ = preprocess(entry, [str(tmp_path / "othr")], [], mgr)
    assert lexemes(toks) == ["int", "from_sub", ";", "int", "from_othr", ";"]
    srcmap.check_total(mgr)


def test_an_included_header_has_one_normalized_path(tmp_path, monkeypatch):
    """A header found through `.` is reported as `h.h`, not `./h.h`, and
    every spelling of it loads the same file."""
    (tmp_path / "sub").mkdir()
    (tmp_path / "h.h").write_text("int x;\n")
    (tmp_path / "main.c").write_text('#include "h.h"\n#include "./h.h"\n#include "sub/../h.h"\n')
    monkeypatch.chdir(tmp_path)
    mgr = SourceManager()
    toks, srcmap, _ = preprocess(mgr.load("main.c"), [], [], mgr)
    assert lexemes(toks) == ["int", "x", ";"] * 3
    assert {mgr.path_of(t.origin.file) for t in toks} == {"h.h"}
    assert len(mgr) == 2  # main.c and h.h
    srcmap.check_total(mgr)


class TestHeaderTokenCache:
    """A header reached through #include is lexed once per SourceManager."""

    HEADER = (
        "#ifndef REG_H\n#define REG_H\n"
        "#define BASE 0x40u\n#define FIELD(v, s) (((v) >> (s)) & BASE)\n"
        "extern volatile unsigned int reg;\n#endif\n"
    )
    UNITS = {
        "a.c": '#include "reg.h"\nunsigned int fa(void) { return FIELD(reg, 2); }\n',
        "b.c": '#include "reg.h"\n#include "reg.h"\nunsigned int fb(void) { return BASE; }\n',
    }

    @staticmethod
    def view(mgr, tokens):
        def place(loc):
            return (os.path.basename(mgr.path_of(loc.file)), loc.line, loc.column)

        return [
            (t.kind, t.lexeme, place(t.origin),
             tuple((f.macro, place(f.site)) for f in t.chain), t.at_bol, t.ws_before)
            for t in tokens
        ]

    def write(self, tmp_path):
        (tmp_path / "reg.h").write_text(self.HEADER)
        for name, text in self.UNITS.items():
            (tmp_path / name).write_text(text)
        return [str(tmp_path / name) for name in self.UNITS]

    def test_two_units_lex_the_header_once(self, tmp_path, monkeypatch):
        from ccomply.frontend import preprocessor

        paths = self.write(tmp_path)
        lexed = []
        real_lex = preprocessor.lex

        def counting_lex(source):
            lexed.append(os.path.basename(source.path))
            return real_lex(source)

        monkeypatch.setattr(preprocessor, "lex", counting_lex)
        mgr = SourceManager()
        for path in paths:
            preprocess(mgr.load(path), [], [], mgr)
        assert sorted(lexed) == ["a.c", "b.c", "reg.h"]

    def test_shared_header_tokens_match_a_fresh_manager(self, tmp_path):
        paths = self.write(tmp_path)
        mgr = SourceManager()
        for path in paths:
            toks, srcmap, _ = preprocess(mgr.load(path), [], [], mgr)
            srcmap.check_total(mgr)
            fresh = SourceManager()
            fresh_toks, _, _ = preprocess(fresh.load(path), [], [], fresh)
            assert self.view(mgr, toks) == self.view(fresh, fresh_toks)
            assert any(t.chain for t in toks)
        (header_id,) = mgr.lexed
        assert mgr.path_of(header_id).endswith("reg.h")
        assert mgr.lexed[header_id] == lex(mgr.get(header_id))


def test_angle_include_ignores_including_dir(tmp_path):
    (tmp_path / "inc.h").write_text("int x;\n")
    (tmp_path / "main.c").write_text("#include <inc.h>\n")
    mgr = SourceManager()
    entry = mgr.load(str(tmp_path / "main.c"))
    with pytest.raises(PreprocessError) as exc:
        preprocess(entry, [], [], mgr)
    assert "not found" in str(exc.value)


def test_self_include_hits_depth_cap(tmp_path):
    (tmp_path / "loop.c").write_text('#include "loop.c"\nint x;\n')
    mgr = SourceManager()
    entry = mgr.load(str(tmp_path / "loop.c"))
    with pytest.raises(PreprocessError) as exc:
        preprocess(entry, [], [], mgr)
    assert "depth" in str(exc.value) and "64" in str(exc.value)


def test_missing_include_is_error():
    with pytest.raises(PreprocessError) as exc:
        pp_text('#include "nope.h"\n')
    assert "not found" in str(exc.value)


def test_macro_redefinition_same_body_ok_different_body_error():
    toks, _, _, _ = pp_text("#define A 1\n#define A 1\nint x = A;\n")
    assert lexemes(toks) == ["int", "x", "=", "1", ";"]
    with pytest.raises(PreprocessError):
        pp_text("#define A 1\n#define A 2\n")


def test_undef_allows_redefinition():
    toks, _, _, _ = pp_text("#define A 1\n#undef A\n#define A 2\nint x = A;\n")
    assert lexemes(toks) == ["int", "x", "=", "2", ";"]


def test_error_directive_reached():
    with pytest.raises(PreprocessError) as exc:
        pp_text('#error custom message here\n')
    assert "custom message here" in str(exc.value)


def test_error_directive_in_dead_branch_ignored():
    toks, _, _, _ = pp_text("#if 0\n#error never\n#endif\nint x;\n")
    assert lexemes(toks) == ["int", "x", ";"]


def test_pragma_consumed_and_recorded():
    toks, _, pragmas, _ = pp_text('#pragma pack(1)\n_Pragma("once")\nint x;\n')
    assert lexemes(toks) == ["int", "x", ";"]
    assert len(pragmas) == 2
    assert "pack" in pragmas[0].text and pragmas[1].text == "once"


def test_variadic_macro_rejected():
    with pytest.raises(UnsupportedConstructError):
        pp_text("#define V(...) x\n")


def test_stringize_and_paste_rejected():
    with pytest.raises(UnsupportedConstructError):
        pp_text("#define S(x) #x\n")
    with pytest.raises(UnsupportedConstructError):
        pp_text("#define P(a,b) a##b\n")


def test_self_referential_macro_terminates():
    toks, _, _, _ = pp_text("#define X X + 1\nint y = X;\n")
    assert lexemes(toks) == ["int", "y", "=", "X", "+", "1", ";"]


def test_mutually_recursive_macros_terminate():
    toks, _, _, _ = pp_text("#define A B\n#define B A\nint x = A;\n")
    assert lexemes(toks) == ["int", "x", "=", "A", ";"]


def test_function_macro_without_parens_not_expanded():
    toks, _, _, _ = pp_text("#define F(x) x\nint (*p)(int) = F;\n")
    assert "F" in lexemes(toks)


def test_macro_arguments_may_span_lines():
    toks, _, _, _ = pp_text("#define ADD(a,b) (a + b)\nint x = ADD(1,\n2);\n")
    assert lexemes(toks) == ["int", "x", "=", "(", "1", "+", "2", ")", ";"]


def test_wrong_argument_count_is_error():
    with pytest.raises(PreprocessError):
        pp_text("#define ADD(a,b) (a + b)\nint x = ADD(1);\n")


def test_round_trip_without_directives_equals_lex():
    text = "int main(void) { return (2 + 3) * x; }\n"
    toks, _, _, _ = pp_text(text)
    mgr, f = make_manager({"t.c": text})
    assert lexemes(toks) == lexemes(lex(f))
    assert [t.origin for t in toks] == [t.origin for t in lex(f)]


def test_preprocessing_deterministic():
    src = "#define SQ(x) ((x)*(x))\n#if SQ(2) > 3\nint y = SQ(a+1);\n#endif\n"
    a = pp_text(src)[0]
    b = pp_text(src)[0]
    assert lexemes(a) == lexemes(b)
    assert [(t.origin, t.chain) for t in a] == [(t.origin, t.chain) for t in b]


def test_predefined_macros_via_define_flag():
    mgr = SourceManager()
    m = macro_from_define_flag("WIDTH=32", mgr)
    entry = mgr.add_virtual("t.c", "#if WIDTH == 32\nint ok;\n#endif\nint w = WIDTH;\n")
    toks, srcmap, _ = preprocess(entry, [], [m], mgr)
    assert lexemes(toks) == ["int", "ok", ";", "int", "w", "=", "32", ";"]
    srcmap.check_total(mgr)


def test_define_flag_without_body_defines_empty():
    mgr = SourceManager()
    m = macro_from_define_flag("FLAG", mgr)
    entry = mgr.add_virtual("t.c", "#ifdef FLAG\nint ok;\n#endif\n")
    toks, _, _ = preprocess(entry, [], [m], mgr)
    assert lexemes(toks) == ["int", "ok", ";"]


def test_source_map_is_total_over_fixture():
    src = "#define SQ(x) ((x)*(x))\n#define K 3\nint y = SQ(K + 1);\nint z = K;\n"
    toks, srcmap, _, mgr = pp_text(src)
    srcmap.check_total(mgr)
    assert len(srcmap) == len(toks)


class TestCondition:
    def evaluate(self, text):
        mgr, f = make_manager({"c.h": text})
        return evaluate_pp_condition(lex(f))

    def test_masked_shift_count(self):
        assert self.evaluate("32 & 0x1F") == 0

    def test_hand_evaluated_expression(self):
        # Independent oracle: (1<<4) + 3*2 = 16 + 6 = 22 by hand; the
        # reference preprocessor accepts `#if ((1<<4) + 3*2) == 22`.
        assert self.evaluate("(1<<4) + 3*2") == 22

    def test_undefined_identifier_is_zero(self):
        assert self.evaluate("FOO + 1") == 1

    def test_defined_undefined_macro_via_pipeline(self):
        toks, _, _, _ = pp_text("#if defined(X)\nint a;\n#else\nint b;\n#endif\n")
        assert lexemes(toks) == ["int", "b", ";"]

    def test_division_by_zero_is_error(self):
        with pytest.raises(PreprocessError):
            self.evaluate("1 / 0")

    def test_short_circuit_guards_division(self):
        assert self.evaluate("0 && 1 / 0") == 0
        assert self.evaluate("1 || 1 / 0") == 1

    def test_conditional_operator(self):
        assert self.evaluate("1 ? 5 : 1/0") == 5

    def test_char_constant(self):
        assert self.evaluate("'A'") == 65

    def test_signed_64_bit_wraparound(self):
        assert self.evaluate("9223372036854775807 + 1") == -(1 << 63)

    def test_non_constant_residue_is_error(self):
        mgr, f = make_manager({"c.h": '1 + "s"'})
        with pytest.raises(PreprocessError):
            evaluate_pp_condition(lex(f))

    def test_comparison_and_logic(self):
        assert self.evaluate("2 < 3 && 3 <= 3 && 4 > 3 && 3 >= 3") == 1
        assert self.evaluate("(1 == 2) | (3 != 3)") == 0
        assert self.evaluate("!5") == 0
        assert self.evaluate("~0 == -1") == 1

    def test_long_sum_evaluates_without_recursion(self):
        # A chain of 3,000 terms parses to a left-deep tree 3,000 levels deep.
        assert self.evaluate("+".join(["1"] * 3000)) == 3000
        toks, _, _, _ = pp_text("#if " + "+".join(["1"] * 3000) + " == 3000\nint a;\n#endif\n")
        assert lexemes(toks) == ["int", "a", ";"]

    def test_long_logical_and_chain_short_circuits(self):
        assert self.evaluate(" && ".join(["1"] * 3000)) == 1
        assert self.evaluate(" && ".join(["1"] * 2999 + ["0"])) == 0
        assert self.evaluate(" && ".join(["0"] + ["1 / 0"] * 2999)) == 0

    def test_long_chain_keeps_division_by_zero_error(self):
        with pytest.raises(PreprocessError, match="division by zero"):
            self.evaluate("+".join(["1"] * 2999) + " / 0")


class TestIncludedFileCache:
    """What a SourceManager keeps of an included file (directive lines and
    parsed definitions) never carries one unit's macros into another."""

    @staticmethod
    def run_units(tmp_path, files, units):
        """Preprocess `units` in order through one manager; each unit's
        lexemes, or the PreprocessError it raised."""
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        mgr = SourceManager()
        results = []
        for name in units:
            try:
                toks, _, _ = preprocess(mgr.load(str(tmp_path / name)), [], [], mgr)
            except PreprocessError as exc:
                results.append(exc)
            else:
                results.append(lexemes(toks))
        return mgr, results

    def test_conditional_definition_follows_each_unit(self, tmp_path):
        files = {
            "cfg.h": "#ifdef CFG\n#define W 1\n#else\n#define W 2\n#endif\n",
            "on.c": '#define CFG\n#include "cfg.h"\nint a = W;\n',
            "off.c": '#include "cfg.h"\nint b = W;\n',
        }
        _, results = self.run_units(tmp_path, files, ["on.c", "off.c", "on.c", "off.c"])
        assert results == [
            ["int", "a", "=", "1", ";"], ["int", "b", "=", "2", ";"],
        ] * 2

    def test_conflicting_definition_before_include_is_reported(self, tmp_path):
        files = {
            "lim.h": "#define LIMIT 10\nint h;\n",
            "a.c": '#include "lim.h"\nint a = LIMIT;\n',
            "b.c": '#define LIMIT 20\n#include "lim.h"\nint b = LIMIT;\n',
        }
        mgr, (first, second) = self.run_units(tmp_path, files, ["a.c", "b.c"])
        assert first == ["int", "h", ";", "int", "a", "=", "10", ";"]
        assert isinstance(second, PreprocessError)
        assert second.message == "macro 'LIMIT' redefined with a different body"
        loc = second.loc
        assert (os.path.basename(mgr.path_of(loc.file)), loc.line, loc.column) == ("lim.h", 1, 9)

    def test_malformed_definition_raises_only_where_reached(self, tmp_path):
        files = {
            "bad.h": "#ifdef STRICT\n#define BAD(x,\n#endif\nint h;\n",
            "lax.c": '#include "bad.h"\nint a;\n',
            "strict.c": '#define STRICT\n#include "bad.h"\nint b;\n',
        }
        _, results = self.run_units(tmp_path, files, ["lax.c", "strict.c", "strict.c", "lax.c"])
        assert results[0] == results[3] == ["int", "h", ";", "int", "a", ";"]
        for exc in results[1:3]:
            assert isinstance(exc, PreprocessError)
            assert exc.message == "unterminated macro parameter list"
            assert (exc.loc.line, exc.loc.column) == (2, 9)

    def test_text_after_nested_skipped_groups(self, tmp_path):
        nest = (
            "#if 0\n#if 1\nint a;\n#else\nint b;\n#endif\nint z;\n"
            "#ifdef X\nint c;\n#endif\n"
            "#elif 1\nint d;\n#if 0\nint e;\n#elif 1\n#ifndef X\nint f;\n#endif\n#endif\nint g;\n"
            "#else\nint h;\n#endif\nint i;\n"
        )
        files = {"nest.h": nest, "one.c": '#include "nest.h"\n', "two.c": nest + '#include "nest.h"\n'}
        _, results = self.run_units(tmp_path, files, ["one.c", "two.c"])
        once = ["int", "d", ";", "int", "f", ";", "int", "g", ";", "int", "i", ";"]
        assert results == [once, once * 2]


    def test_include_paths_decide_what_a_replayed_header_includes(self, tmp_path):
        for name, text in {"h.h": "#include <x.h>\n", "u.c": '#include "h.h"\n',
                           "a/x.h": "int a;\n", "b/x.h": "int b;\n"}.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        mgr = SourceManager()
        unit = mgr.load(str(tmp_path / "u.c"))
        results = [lexemes(preprocess(unit, [str(tmp_path / d)], [], mgr)[0]) for d in "aba"]
        assert results == [["int", "a", ";"], ["int", "b", ";"], ["int", "a", ";"]]
        assert mgr.memo_hits == 1  # h.h in the third unit


    def test_a_replayed_header_loads_the_files_it_included(self, tmp_path):
        class Recording(SourceManager):
            def __init__(self):
                super().__init__()
                self.loads = []

            def load(self, path):
                self.loads.append(os.path.basename(path))
                return super().load(path)

        files = {"h.h": '#include "g.h"\n', "g.h": "int g;\n",
                 "u.c": '#include "h.h"\n#include "g.h"\n'}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        mgr = Recording()
        for _ in range(3):
            preprocess(mgr.load(str(tmp_path / "u.c")), [], [], mgr)
        assert mgr.loads == ["u.c", "h.h", "g.h", "g.h"] * 3
        assert mgr.memo_hits == 5  # the second g.h of each unit, and h.h from the second on


class TestIfIntegerConstants:
    """`#if` decodes integer constants as the parser does (C99 6.4.4.1)."""

    def test_octal_hex_and_suffixed_constants(self):
        toks, _, _, _ = pp_text("#if 010 == 8 && 0x10 == 16 && 7lu == 7 && 3LLu == 3\nint a;\n#endif\n")
        assert lexemes(toks) == ["int", "a", ";"]

    @pytest.mark.parametrize("text", ["08", "1uu", "1lul", "0b1", "0o7", "1_000", "1.5"])
    def test_invalid_constant_is_error(self, text):
        with pytest.raises(PreprocessError, match="invalid integer constant") as exc:
            pp_text(f"#if {text}\nint a;\n#endif\n")
        assert (exc.value.loc.line, exc.value.loc.column) == (1, 5)


def test_operator_pragma_is_destringized():
    _, _, pragmas, _ = pp_text('_Pragma("message(\\"hi\\")")\n#pragma message("hi")\n')
    assert len(pragmas) == 2
    assert pragmas[0].text == pragmas[1].text == 'message ( "hi" )'
    _, _, pragmas, _ = pp_text(r'_Pragma("dir(\"a\\\\b\")")' + "\n")
    assert pragmas[0].text == r'dir ( "a\\b" )'


def test_operator_pragma_lex_error_is_reported_at_the_operator():
    with pytest.raises(LexError, match="unterminated string literal") as exc:
        pp_text('int a;\n  _Pragma("\\"")\n')
    assert (exc.value.loc.line, exc.value.loc.column) == (2, 3)


def test_angle_include_keeps_blanks_in_the_header_name(tmp_path):
    (tmp_path / "ab.h").write_text("int x;\n")
    (tmp_path / "main.c").write_text("#include <a b.h>\n")
    mgr = SourceManager()
    entry = mgr.load(str(tmp_path / "main.c"))
    with pytest.raises(PreprocessError, match="not found: <a b.h>"):
        preprocess(entry, [str(tmp_path)], [], mgr)
    (tmp_path / "main.c").write_text("#include <ab.h>\n")
    mgr = SourceManager()
    toks, _, _ = preprocess(mgr.load(str(tmp_path / "main.c")), [str(tmp_path)], [], mgr)
    assert lexemes(toks) == ["int", "x", ";"]


class TestCharConstantsInIf:
    """`#if` decodes character constants with the parser's escape decoder."""

    def evaluate(self, text):
        mgr, f = make_manager({"c.h": text})
        return evaluate_pp_condition(lex(f))

    @pytest.mark.parametrize("text, value", [
        ("'A'", 65), (r"'\n'", 10), (r"'\0'", 0), (r"'\?'", 63), (r"'\a'", 7),
        (r"'\101'", 65), (r"'\x41'", 65),
        # C99 6.10.1p4: the value need not match the one in code; it stays
        # non-negative here.
        (r"'\377'", 255), (r"'\xFF'", 255),
    ])
    def test_well_formed_values(self, text, value):
        assert self.evaluate(text) == value

    @pytest.mark.parametrize("text", [r"'\x'", r"'\xZZ'", r"'\q'", r"'\x100'"])
    def test_malformed_escape_is_preprocess_error_at_the_literal(self, text):
        with pytest.raises(PreprocessError) as info:
            self.evaluate("1 + " + text)
        assert text in info.value.message
        assert (info.value.loc.line, info.value.loc.column) == (1, 5)

    @pytest.mark.parametrize("text", [r"'\1234'", r"'\0x'", "'ab'"])
    def test_multi_character_constant_is_unsupported(self, text):
        with pytest.raises(UnsupportedConstructError, match="multi-character constant"):
            self.evaluate(text)

    def test_octal_escape_takes_at_most_three_digits(self):
        toks, _, _, _ = pp_text("#if '\\123' == 83\nint a;\n#endif\n")
        assert lexemes(toks) == ["int", "a", ";"]
        with pytest.raises(UnsupportedConstructError):
            pp_text("#if '\\1234' == 668\nint a;\n#endif\n")


def _assert_complete(tok):
    """Every field of `tok` is set, and `PPToken.__init__` given the same
    values builds an equal token: `lex` and macro expansion build tokens
    without `__init__`, so a field they leave unset shows here."""
    values = {f.name: getattr(tok, f.name) for f in dataclasses.fields(PPToken)}
    assert PPToken(**values) == tok


def test_fast_path_tokens_are_complete():
    lexed = lex_text("int x = 'c' + 1;\n")
    assert len(lexed) == 7
    for tok in lexed:
        _assert_complete(tok)
    toks, _, _, _ = pp_text("#define N 3\n#define F(x) (x + N)\nint a = N;\nint b = F(N);\n")
    assert lexemes(toks) == ["int", "a", "=", "3", ";",
                             "int", "b", "=", "(", "3", "+", "3", ")", ";"]
    object_like, body, argument = toks[3], toks[8], toks[9]
    assert [f.macro for f in object_like.chain] == ["N"] and object_like.no_expand == {"N"}
    assert [f.macro for f in body.chain] == ["F"] and body.no_expand == {"F"}
    assert [f.macro for f in argument.chain] == ["F", "N"]
    assert argument.no_expand == {"F", "N"}
    for tok in toks:
        _assert_complete(tok)
