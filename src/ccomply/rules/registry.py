"""The guideline registry: every MISRA C:2012 guideline plus Amendment 1.

173 entries: 17 directives and 156 rules. Categories follow the
published classification (as amended); decidability and scope follow
the appendix analysis columns. Which guidelines this tool checks is the
key set of the checker tables in `rules.engine`; `run_rules` reads this
registry only to tell an unchecked guideline from an id that names none.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Kind(Enum):
    DIRECTIVE = "directive"
    RULE = "rule"


class Category(Enum):
    MANDATORY = "mandatory"
    REQUIRED = "required"
    ADVISORY = "advisory"


class Decidability(Enum):
    DECIDABLE = "decidable"
    UNDECIDABLE = "undecidable"


class Scope(Enum):
    SINGLE = "single-translation-unit"
    SYSTEM = "system"


@dataclass(frozen=True)
class GuidelineMeta:
    id: str
    kind: Kind
    category: Category
    decidability: Decidability | None  # directives carry no decidability
    scope: Scope
    summary: str

    def __post_init__(self):
        if self.kind is Kind.DIRECTIVE:
            assert self.decidability is None, "directives carry no decidability"
        else:
            assert self.decidability is not None


# (id, category, summary) for directives; scope is single-TU except D4.x
# process-wide entries, which still report per project.
_DIRECTIVES = [
    ("D1.1", "R", "implementation-defined behavior usage is documented and understood"),
    ("D2.1", "R", "all source files compile without compilation errors"),
    ("D3.1", "R", "all code is traceable to documented requirements"),
    ("D4.1", "R", "run-time failures are minimized"),
    ("D4.2", "A", "all usage of assembly language is documented"),
    ("D4.3", "R", "assembly language is encapsulated and isolated"),
    ("D4.4", "A", "sections of code are not commented out"),
    ("D4.5", "A", "identifiers in the same name space have visually distinct names"),
    ("D4.6", "A", "typedefs indicating size and signedness are used for numeric types"),
    ("D4.7", "R", "error information returned by a function is tested"),
    ("D4.8", "A", "pointer implementation details are hidden where possible"),
    ("D4.9", "A", "a function is preferred over a function-like macro"),
    ("D4.10", "R", "headers are protected against repeated inclusion"),
    ("D4.11", "R", "validity of values passed to library functions is checked"),
    ("D4.12", "R", "dynamic memory allocation is not used"),
    ("D4.13", "A", "resource-handling functions are called in the right sequence"),
    ("D4.14", "R", "validity of values received from external sources is checked"),
]

# (id, category, decidable?, system?, summary)
_RULES = [
    ("R1.1", "R", True, False, "no violations of the standard C syntax and constraints"),
    ("R1.2", "A", True, False, "language extensions are not used"),
    ("R1.3", "R", False, True, "no undefined or critical unspecified behavior occurs"),
    ("R2.1", "R", False, True, "a project contains no unreachable code"),
    ("R2.2", "R", False, True, "a project contains no dead code"),
    ("R2.3", "A", True, True, "a project does not contain unused type declarations"),
    ("R2.4", "A", True, True, "a project does not contain unused tag declarations"),
    ("R2.5", "A", True, True, "a project does not contain unused macro declarations"),
    ("R2.6", "A", True, False, "a function does not contain unused label declarations"),
    ("R2.7", "A", True, False, "a function does not contain unused parameters"),
    ("R3.1", "R", True, False, "comment markers do not appear within comments"),
    ("R3.2", "R", True, False, "line splicing is not used within line comments"),
    ("R4.1", "R", True, False, "octal and hex escape sequences are terminated"),
    ("R4.2", "A", True, False, "trigraphs are not used"),
    ("R5.1", "R", True, True, "external identifiers are distinct"),
    ("R5.2", "R", True, False, "identifiers in the same scope and name space are distinct"),
    ("R5.3", "R", True, False, "an inner-scope identifier does not hide an outer one"),
    ("R5.4", "R", True, False, "macro identifiers are distinct"),
    ("R5.5", "R", True, True, "identifiers are distinct from macro names"),
    ("R5.6", "R", True, True, "a typedef name is a unique identifier"),
    ("R5.7", "R", True, True, "a tag name is a unique identifier"),
    ("R5.8", "R", True, True, "external-linkage identifiers are unique"),
    ("R5.9", "A", True, True, "internal-linkage identifiers are unique"),
    ("R6.1", "R", True, False, "bit-fields use only appropriate types"),
    ("R6.2", "R", True, False, "single-bit bit-fields are not signed"),
    ("R7.1", "R", True, False, "octal constants are not used"),
    ("R7.2", "R", True, False, "unsigned constants carry a 'u' suffix"),
    ("R7.3", "R", True, False, "the lowercase 'l' literal suffix is not used"),
    ("R7.4", "R", True, False, "string literals are only assigned to const-qualified pointers"),
    ("R8.1", "R", True, False, "types are explicitly specified"),
    ("R8.2", "R", True, False, "function types are in prototype form with named parameters"),
    ("R8.3", "R", True, True, "all declarations of an object or function use the same names and types"),
    ("R8.4", "R", True, False, "a compatible declaration is visible at external definitions"),
    ("R8.5", "R", True, True, "an external object or function is declared once in one file"),
    ("R8.6", "R", True, True, "an external identifier has exactly one definition"),
    ("R8.7", "A", True, True, "objects referenced in one translation unit have internal linkage"),
    ("R8.8", "R", True, False, "the static specifier is used consistently for internal linkage"),
    ("R8.9", "A", True, True, "an object used by one function is defined at block scope"),
    ("R8.10", "R", True, False, "inline functions are declared static"),
    ("R8.11", "A", True, True, "external arrays carry an explicit size"),
    ("R8.12", "R", True, False, "implicit enumeration constants are unique"),
    ("R8.13", "A", True, False, "a pointer points to a const-qualified type where possible"),
    ("R8.14", "R", True, False, "the restrict qualifier is not used"),
    ("R9.1", "R", False, True, "automatic storage is not read before it is set"),
    ("R9.2", "R", True, False, "aggregate initializers are enclosed in braces"),
    ("R9.3", "R", True, False, "arrays are not partially initialized"),
    ("R9.4", "R", True, False, "an array element is not initialized more than once"),
    ("R9.5", "R", True, False, "designated array initializers specify the array size"),
    ("R10.1", "R", True, False, "operands have appropriate essential types"),
    ("R10.2", "R", True, False, "char operands are used only for additive character handling"),
    ("R10.3", "R", True, False, "no assignment to a narrower or different essential type"),
    ("R10.4", "R", True, False, "arithmetic operands share an essential type category"),
    ("R10.5", "A", True, False, "casts between inappropriate essential types are avoided"),
    ("R10.6", "R", True, False, "composite-expression values are not assigned to wider types"),
    ("R10.7", "R", True, False, "composite operands are not widened in arithmetic context"),
    ("R10.8", "R", True, False, "composite-expression values are not cast to wider types"),
    ("R11.1", "R", True, False, "no conversion between function pointers and other types"),
    ("R11.2", "R", True, False, "no conversion involving pointers to incomplete types"),
    ("R11.3", "R", True, False, "no cast between pointers to different object types"),
    ("R11.4", "A", True, False, "no conversion between object pointers and integers"),
    ("R11.5", "A", True, False, "no conversion from pointer-to-void to object pointer"),
    ("R11.6", "R", True, False, "no cast between pointer-to-void and arithmetic types"),
    ("R11.7", "R", True, False, "no cast between object pointers and non-integer arithmetic types"),
    ("R11.8", "R", True, False, "casts do not remove const or volatile qualification"),
    ("R11.9", "R", True, False, "NULL is the only permitted integer null pointer constant"),
    ("R12.1", "A", True, False, "operator precedence is made explicit"),
    ("R12.2", "R", False, False, "shift amounts stay inside the width of the promoted left operand"),
    ("R12.3", "A", True, False, "the comma operator is not used"),
    ("R12.4", "A", True, False, "constant expressions do not wrap around"),
    ("R12.5", "M", True, False, "sizeof is not applied to array-typed function parameters"),
    ("R13.1", "R", False, True, "initializer lists are free of persistent side effects"),
    ("R13.2", "R", False, True, "expression value and side effects do not depend on evaluation order"),
    ("R13.3", "A", True, False, "++/-- are not mixed with other side effects in one expression"),
    ("R13.4", "A", True, False, "the result of an assignment operator is not used"),
    ("R13.5", "R", False, True, "right operands of && and || are free of persistent side effects"),
    ("R13.6", "M", True, False, "sizeof operands are free of side effects"),
    ("R14.1", "R", False, True, "loop counters do not have floating type"),
    ("R14.2", "R", False, False, "for loops keep the well-formed counter shape"),
    ("R14.3", "R", False, True, "controlling expressions are not invariant"),
    ("R14.4", "R", True, False, "controlling expressions have essentially boolean type"),
    ("R15.1", "A", True, False, "goto is not used"),
    ("R15.2", "R", True, False, "goto only jumps to labels declared later in the same function"),
    ("R15.3", "R", True, False, "goto targets stay within enclosing blocks"),
    ("R15.4", "A", True, False, "loops have at most one break or goto used for termination"),
    ("R15.5", "A", True, False, "a function has a single point of exit at the end"),
    ("R15.6", "R", True, False, "loop and selection bodies are compound statements"),
    ("R15.7", "R", True, False, "every if-else-if chain ends with an else"),
    ("R16.1", "R", True, False, "switch statements are well-formed"),
    ("R16.2", "R", True, False, "case labels appear only at the top level of a switch"),
    ("R16.3", "R", True, False, "every switch clause ends with an unconditional break"),
    ("R16.4", "R", True, False, "every switch has a default label"),
    ("R16.5", "R", True, False, "the default label is the first or last switch label"),
    ("R16.6", "R", True, False, "every switch has at least two switch clauses"),
    ("R16.7", "R", True, False, "switch expressions do not have essentially boolean type"),
    ("R17.1", "R", True, False, "the stdarg.h facilities are not used"),
    ("R17.2", "R", False, True, "functions do not call themselves directly or indirectly"),
    ("R17.3", "M", True, False, "functions are not declared implicitly"),
    ("R17.4", "M", True, False, "all non-void exit paths return an explicit value"),
    ("R17.5", "A", False, True, "array-typed parameters receive appropriately sized arguments"),
    ("R17.6", "M", True, False, "array parameter declarators do not use the static keyword"),
    ("R17.7", "R", True, False, "values returned by non-void functions are used"),
    ("R17.8", "A", False, False, "function parameters are not modified"),
    ("R18.1", "R", False, True, "pointer arithmetic stays within the addressed array"),
    ("R18.2", "R", False, True, "pointers are subtracted only within one array"),
    ("R18.3", "R", False, True, "relational operators compare pointers into one object only"),
    ("R18.4", "A", True, False, "+= and -= are not applied to pointers"),
    ("R18.5", "A", True, False, "declarations contain at most two levels of pointer nesting"),
    ("R18.6", "R", False, True, "pointers do not outlive the objects they address"),
    ("R18.7", "R", True, False, "flexible array members are not declared"),
    ("R18.8", "R", True, False, "variable-length array types are not used"),
    ("R19.1", "M", False, True, "objects are not assigned or copied to overlapping objects"),
    ("R19.2", "A", True, False, "the union keyword is not used"),
    ("R20.1", "A", True, False, "#include directives precede other code"),
    ("R20.2", "R", True, False, "header names do not contain forbidden characters"),
    ("R20.3", "R", True, False, "#include is followed by a proper header name form"),
    ("R20.4", "R", True, False, "macros do not have the name of a keyword"),
    ("R20.5", "A", True, False, "#undef is not used"),
    ("R20.6", "R", True, False, "preprocessing-operator parameter names are not reused"),
    ("R20.7", "R", True, False, "macro parameter expansions are parenthesized"),
    ("R20.8", "R", True, False, "conditional-inclusion controlling expressions evaluate to 0 or 1"),
    ("R20.9", "R", True, False, "identifiers in #if expressions are defined first"),
    ("R20.10", "A", True, False, "the # and ## preprocessor operators are not used"),
    ("R20.11", "R", True, False, "macro parameters are not subject to both # and ##"),
    ("R20.12", "R", True, False, "macro arguments are not used both expanded and unexpanded"),
    ("R20.13", "R", True, False, "all # lines are valid preprocessing directives"),
    ("R20.14", "R", True, False, "#else/#elif/#endif reside in the same file as their #if"),
    ("R21.1", "R", True, False, "#define/#undef are not applied to reserved identifiers"),
    ("R21.2", "R", True, False, "reserved identifiers and macro names are not declared"),
    ("R21.3", "R", True, False, "stdlib.h memory allocation functions are not used"),
    ("R21.4", "R", True, False, "setjmp.h is not used"),
    ("R21.5", "R", True, False, "signal.h is not used"),
    ("R21.6", "R", True, False, "the standard input/output functions are not used"),
    ("R21.7", "R", True, False, "atof/atoi/atol/atoll are not used"),
    ("R21.8", "R", True, False, "abort/exit/getenv/system are not used"),
    ("R21.9", "R", True, False, "bsearch and qsort are not used"),
    ("R21.10", "R", True, False, "time.h facilities are not used"),
    ("R21.11", "R", True, False, "tgmath.h is not used"),
    ("R21.12", "A", True, False, "fenv.h exception handling is not used"),
    ("R21.13", "M", False, False, "ctype.h functions receive representable values"),
    ("R21.14", "R", False, True, "memcmp is not used on null-terminated strings"),
    ("R21.15", "R", True, False, "memcpy/memmove/memcmp arguments have compatible pointee types"),
    ("R21.16", "R", True, False, "memcmp compares only appropriate pointee types"),
    ("R21.17", "M", False, True, "string.h calls do not overflow their buffers"),
    ("R21.18", "M", False, True, "string.h size arguments stay within valid bounds"),
    ("R21.19", "M", False, True, "localeconv/getenv/setlocale/strerror results are treated as const"),
    ("R21.20", "M", False, True, "asctime/ctime/... results are not reused after a later call"),
    ("R22.1", "R", False, True, "dynamically obtained resources are explicitly released"),
    ("R22.2", "M", False, True, "memory is freed only if it was dynamically allocated"),
    ("R22.3", "R", False, True, "one file is not open for read and write on separate streams"),
    ("R22.4", "M", False, True, "read-only streams are never written"),
    ("R22.5", "M", False, True, "FILE objects are not dereferenced"),
    ("R22.6", "M", False, True, "stream pointers are not used after the stream is closed"),
    ("R22.7", "R", False, True, "EOF is compared only against values that may hold it"),
    ("R22.8", "R", False, True, "errno is reset before calling errno-setting functions"),
    ("R22.9", "R", False, True, "errno is tested after calling errno-setting functions"),
    ("R22.10", "R", False, True, "errno is tested only after errno-setting functions"),
]

_CATEGORY = {"M": Category.MANDATORY, "R": Category.REQUIRED, "A": Category.ADVISORY}


def _build() -> dict[str, GuidelineMeta]:
    registry: dict[str, GuidelineMeta] = {}
    for gid, cat, summary in _DIRECTIVES:
        registry[gid] = GuidelineMeta(
            gid, Kind.DIRECTIVE, _CATEGORY[cat], None, Scope.SYSTEM, summary
        )
    for gid, cat, decidable, system, summary in _RULES:
        registry[gid] = GuidelineMeta(
            gid, Kind.RULE, _CATEGORY[cat],
            Decidability.DECIDABLE if decidable else Decidability.UNDECIDABLE,
            Scope.SYSTEM if system else Scope.SINGLE, summary,
        )
    return registry


REGISTRY: dict[str, GuidelineMeta] = _build()
