"""Findings do not depend on the order the units of a run are analysed in.

Each run is one `analyze` call over 20 units of a generated workload, with
one `SourceManager` as in the benchmark, so header prefixes, the include
memo and interned types are shared in another order each time. The sorted
findings, rendered as the benchmark digests them (`one_pass.render`), must
be byte-identical in sorted, reversed and shuffled unit order.
"""
from __future__ import annotations

import os
import random
import sys

import pytest

from ccomply.pipeline import analyze

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
from gen import WORKLOADS, generate  # noqa: E402  (the generator imports nothing from ccomply)
from one_pass import render  # noqa: E402

UNITS = 20


def findings_text(workdir: str, paths: list[str], rules) -> str:
    """The rendered, sorted findings of one run over `paths`, in that order."""
    run = analyze([os.path.join(workdir, path) for path in paths], rules)
    assert run.errors == []
    return render(run.findings)


@pytest.mark.parametrize("workload", ["project_all_rules", "header_heavy"])
def test_findings_do_not_depend_on_unit_order(workload, tmp_path):
    project = generate(workload, 1)
    for path, text in project.files.items():
        (tmp_path / path).write_text(text, encoding="ascii")
    paths = sorted(project.tus)[:UNITS]
    shuffled = list(paths)
    random.Random(1).shuffle(shuffled)
    rules = WORKLOADS[workload].rules
    expected = findings_text(str(tmp_path), paths, rules)
    assert expected.count("\n") > UNITS  # every order has findings to agree on
    assert findings_text(str(tmp_path), paths[::-1], rules) == expected
    assert findings_text(str(tmp_path), shuffled, rules) == expected
