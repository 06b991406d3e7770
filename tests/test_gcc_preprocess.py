"""`preprocess` against gcc's preprocessor, an oracle written by others.

Each translation unit of the generated workloads must give the same
lexemes from `preprocess` as from

    gcc -E -P -std=c99 -undef -nostdinc -D<spec> ...

with one `-D` for each `BUILTIN_MACRO_SPECS` entry, whose output the
original character-at-a-time scanner (`lexer_oracle`) splits into
lexemes. gcc's output carries no positions, expansion chains or hide
sets, so only the lexemes are compared; the other oracles compare those.
Where gcc is not installed the tests report themselves skipped.

Tier-1 compares the first 10 units of each workload at seed 1. Run as a
script to compare every unit of all three workloads:

    PYTHONPATH=src:tests:perfbench python3 tests/test_gcc_preprocess.py --seeds 1 2 3
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import lexer_oracle
from ccomply.builtins import BUILTIN_MACRO_SPECS
from ccomply.frontend import macro_from_define_flag, preprocess
from ccomply.source import SourceFile, SourceManager

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
from gen import WORKLOADS, generate  # noqa: E402  (the generator imports nothing from ccomply)

GCC = shutil.which("gcc")
GCC_FLAGS = ["-E", "-P", "-std=c99", "-undef", "-nostdinc"]


def gcc_lexemes(path: str) -> list[str]:
    """The lexemes of gcc's preprocessed output for the unit at `path`."""
    run = subprocess.run(
        [GCC, *GCC_FLAGS, *(f"-D{spec}" for spec in BUILTIN_MACRO_SPECS), path],
        capture_output=True, text=True, check=True,
    )
    return [t.lexeme for t in lexer_oracle.lex(SourceFile(0, path, run.stdout))]


def workload_diffs(workload: str, seed: int, workdir: str, tus: int | None = None):
    """(units, output lexemes, units whose lexemes differ) over the first
    `tus` units, and the first unit that differs, or None."""
    project = generate(workload, seed)
    for path, text in project.files.items():
        full = os.path.join(workdir, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="ascii") as fh:
            fh.write(text)
    manager = SourceManager()
    builtins = [macro_from_define_flag(spec, manager) for spec in BUILTIN_MACRO_SPECS]
    units = lexemes = diffs = 0
    first = None
    for path in project.tus[:tus]:
        full = os.path.join(workdir, path)
        tokens, _, _ = preprocess(manager.load(full), [], builtins, manager)
        got = [t.lexeme for t in tokens]
        units += 1
        lexemes += len(got)
        if got != gcc_lexemes(full):
            diffs += 1
            first = first or path
    return units, lexemes, diffs, first


@pytest.mark.skipif(GCC is None, reason="gcc is not installed, so there is no oracle to run")
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_units_match_gcc(tmp_path, workload):
    units, lexemes, diffs, first = workload_diffs(workload, 1, str(tmp_path), 10)
    assert units == 10 and lexemes > 0
    assert diffs == 0, first


def main(argv: list[str]) -> int:
    """Compare every translation unit of all three workloads with gcc at the given seeds."""
    import argparse
    import json

    ap = argparse.ArgumentParser(description=main.__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    if GCC is None:
        print("gcc is not installed, so there is no oracle to run", file=sys.stderr)
        return 2
    report = {}
    for workload in WORKLOADS:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                units, lexemes, diffs, first = workload_diffs(workload, seed, workdir)
            report[f"{workload}:{seed}"] = {
                "tus": units, "lexemes": lexemes, "diffs": diffs, "first_diff": first}
    print(json.dumps(report))
    return 0 if all(r["diffs"] == 0 for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
