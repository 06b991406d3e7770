"""Error types shared across the analysis pipeline."""
from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ccomply.source import Location


class CcomplyError(Exception):
    """Base class for all tool errors."""


class AnalysisError(CcomplyError):
    """An error that aborts analysis of one translation unit.

    Carries an optional source location so drivers can report
    `path:line:col: message` without re-deriving positions.
    """

    stage = "analysis"

    def __init__(self, message: str, loc: Location | None = None):
        super().__init__(message)
        self.message = message
        self.loc = loc


class LexError(AnalysisError):
    stage = "lex"


class PreprocessError(AnalysisError):
    stage = "preprocess"


class ParseError(AnalysisError):
    stage = "parse"


class UnsupportedConstructError(ParseError):
    """Grammar or preprocessor feature outside the supported subset.

    A distinct class so corpora can be triaged: these are not syntax
    errors in the input, they are deliberate subset exclusions.
    """

    stage = "unsupported"


class SemaError(AnalysisError):
    stage = "sema"


class FlowError(AnalysisError):
    """A data-flow analysis did not reach its fixpoint within its budget."""

    stage = "flow"


class ConfigError(CcomplyError):
    """Invalid run configuration (flags, config file, rule selection)."""
