"""Parsing: AST definitions and the C99-subset parser."""
from ccomply.parsing.astnodes import *  # noqa: F401,F403
from ccomply.parsing.astnodes import __all__ as _ast_all
from ccomply.parsing.parser import parse

__all__ = list(_ast_all) + ["parse"]
