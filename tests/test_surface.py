"""The package's public names, and what `src/` may import."""
import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ccomply"
PACKAGES = ["ccomply.rules", "ccomply.flow", "ccomply.sema", "ccomply.frontend", "ccomply.parsing"]
# Reference implementations and helpers kept only for tests.
ORACLES = {
    "lexer_oracle", "interval_oracle", "preprocessor_oracle", "parser_oracle", "unparse",
    "structural", "flow_helpers",
}


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_exists(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_source_module_imports_a_test_oracle():
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _imported_modules(ast.parse(path.read_text()))
        if ORACLES & set(name.split("."))
    ]
    assert offenders == []


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)


def test_frontend_imports_without_a_cycle():
    # The preprocessor imports the integer kernel from `sema`, and the parser
    # imports the preprocessor.
    done = _fresh_python("import ccomply.frontend")
    assert done.returncode == 0, done.stderr


def test_integer_kernel_loads_no_parser_or_flow_module():
    done = _fresh_python(
        "import sys, ccomply.sema.intarith\n"
        "print(sorted(m for m in sys.modules if m.startswith(('ccomply.parsing', 'ccomply.flow'))))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_no_checker_decides_an_lvalue_shape_or_climbs_the_tree():
    # `effects.designate` decides what an lvalue names, and checkers read
    # the tree top-down.
    offenders = [
        f"{path.relative_to(SRC)}:{n}"
        for path in sorted((SRC / "rules").rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if ".arrow" in line or ".parents" in line
    ]
    assert offenders == []
