"""Helpers for driving the flow analyses in tests."""
from __future__ import annotations

import os
import sys

from ccomply.builtins import BUILTIN_MACRO_SPECS
from ccomply.flow import build_cfg
from ccomply.flow.cfg import Cfg, EvalItem
from ccomply.flow.intervals import Interval
from ccomply.frontend import macro_from_define_flag, preprocess
from ccomply.parsing import Call, Expr, FunctionDef, Identifier, Node, children, operands, parse
from ccomply.sema import SymKind, is_integer, resolve, type_range
from ccomply.source import SourceManager
from support import pp_text

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
from gen import generate  # noqa: E402  (the generator imports nothing from ccomply)

PRELUDE = (
    "extern void probe(int);\n"
    "extern void use(int);\n"
    "extern void g(void);\n"
    "extern int get(void);\n"
)


def analyze_fn(text: str, name: str = "f", prelude: str = PRELUDE, path: str = "t.c"):
    toks, _, _, _ = pp_text(prelude + text, path=path)
    tu = parse(toks, path)
    table = resolve(tu)
    fn = [d for d in tu.decls if isinstance(d, FunctionDef) and d.name == name][0]
    cfg = build_cfg(fn)
    return cfg, fn, table, tu


def probe_points(cfg: Cfg, callee: str = "probe"):
    """(block id, item index, call node) for each probe(...) call item."""
    out = []
    for b, i, item in cfg.points():
        if isinstance(item, EvalItem) and isinstance(item.expr, Call):
            target = item.expr.callee
            if isinstance(target, Identifier) and target.name == callee:
                out.append((b.id, i, item.expr))
    return out


def _evaluated_calls(body: Node) -> list[Call]:
    """The calls in a function body that can be evaluated, in pre-order: the
    oracle for the call sites sema records in `FunctionDef.calls`.

    Statements are entered through `children` and expressions through
    `operands`, so a call under `sizeof` is not one.
    """
    out: list[Call] = []
    stack: list[Node] = [body]
    while stack:
        node = stack.pop()
        if isinstance(node, Call):
            out.append(node)
        kids = operands(node) if isinstance(node, Expr) else children(node)
        kids.reverse()
        stack.extend(kids)
    return out


def sym_named(table, name: str):
    matches = [s for s in table.symbols if s.name == name]
    assert matches, f"no symbol {name!r}"
    return matches[-1]


def var_interval(res, env, sym):
    """`sym`'s interval in `env`, a state of interval result `res`: its type
    range where the state does not bound it; None for a variable the analysis
    does not track."""
    if sym.kind is not SymKind.OBJECT or not is_integer(sym.type):
        return None
    iv = env.get(sym.uid)
    return iv if iv is not None else Interval(*type_range(sym.type, res.model))


def workload_units(workload: str, seed: int, workdir: str, tus: int | None = None):
    """The resolved tree of each of a generated workload's first `tus` TUs.

    The project is written under `workdir` and preprocessed with the
    builtin macros, as the benchmark does.
    """
    for tu, _ in workload_tables(workload, seed, workdir, tus):
        yield tu


def workload_tables(workload: str, seed: int, workdir: str, tus: int | None = None):
    """(resolved tree, symbol table) of each unit `workload_units` gives."""
    project = generate(workload, seed)
    for path, text in project.files.items():
        full = os.path.join(workdir, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as fh:
            fh.write(text)
    manager = SourceManager()
    builtins = [macro_from_define_flag(spec, manager) for spec in BUILTIN_MACRO_SPECS]
    for path in project.tus[:tus]:
        full = os.path.join(workdir, path)
        tokens, _, _ = preprocess(manager.load(full), [], builtins, manager)
        tu = parse(tokens, full)
        yield tu, resolve(tu)
