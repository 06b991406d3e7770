"""ccomply: MISRA C:2012 compliance checker for a C99 subset.

The entry point is `ccomply.pipeline.analyze`: translation units in, sorted
findings and per-unit errors out. It is not imported here, so importing a
single layer loads only that layer.
"""

__version__ = "0.1.0"
