"""Semantic analysis: types, symbols, name resolution, constant evaluation.

`resolve` walks the AST and records each expression's constant value in
its `const_value`. It lives in `resolver`, which loads on first use: the
preprocessor imports `intarith`, and the parser imports the preprocessor.
No submodule import can rebind `resolve`.
"""
import importlib

from ccomply.sema.symbols import Linkage, Scope, Storage, SymKind, Symbol, SymbolTable, link_units
from ccomply.sema.typesys import (
    TK, IntegerModel, TypeDesc, integer_promote, is_arithmetic, is_integer,
    is_object_pointer, is_pointer, promoted_width, rvalue_type, same_type,
    sizeof_type, type_range, usual_arith_conversion,
)

_LAZY = {"Resolver": "resolver", "resolve": "resolver"}

__all__ = [
    "Resolver", "resolve",
    "Linkage", "Scope", "Storage", "SymKind", "Symbol", "SymbolTable", "link_units",
    "TK", "IntegerModel", "TypeDesc", "integer_promote", "is_arithmetic",
    "is_integer", "is_object_pointer", "is_pointer", "promoted_width",
    "rvalue_type", "same_type", "sizeof_type", "type_range",
    "usual_arith_conversion",
]


def __getattr__(name: str):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    return value
