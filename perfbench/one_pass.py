"""One pass of the analyser over a generated project, in a fresh process.

    python3 one_pass.py --src DIR --workload NAME [--mode timed|check|traced|setup]

Run from the project directory; reads the TU list from `tus.txt` there.
It chains the public stage functions the way a CLI invocation would:
`preprocess` -> `parse` -> `resolve` -> `compute_tu_facts` -> `run_rules`
per TU, then `build_call_graph` -> system `run_rules`, and prints one JSON
object on stdout.

Times are CPU time of this process (`time.process_time`): the analyser is
single-threaded, so on an idle machine that equals wall time, and it leaves
out the time the hypervisor gives this vCPU to another tenant. The pass's
wall time is reported too, and so is the part of each TU's time spent in
cyclic collections. Before every `PROBE_EVERY`-th TU, and once at the end,
the pass runs the speed probe of `probe.py`, outside every TU's timing
window; it reports the probe times, and `run.py` scales the pass's times
by them.

Modes:
- `timed`: the untraced pass; reports each TU's time, the whole-program
  stage's time, the pass's time and its peak RSS.
- `check`: a timed pass that afterwards also lists every finding and
  compares the chained findings with one `run_rules` call over all units.
- `traced`: records a span around each call into a layer's public function
  and writes the spans to `--spans`; it also runs `lex`, the flow analyses
  and each guideline standalone so that their cost can be attributed.
- `setup`: only the set-up (import and builtin macros), then `SETUP_PROBES`
  probes, then exits.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext

from gen import ALL_RULES, SYSTEM_RULES, WORKLOADS
from probe import probe
from spans import SpanRecorder

PROBE_EVERY = 5  # TUs between two speed probes
SETUP_PROBES = 5  # probes after the set-up of a set-up-only process


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True, help="directory that holds the ccomply package")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=("timed", "check", "traced", "setup"), default="timed")
    ap.add_argument("--spans", help="where the traced pass writes its spans")
    args = ap.parse_args()
    rules = WORKLOADS[args.workload].rules
    sys.path.insert(0, args.src)

    # Set-up: import every layer the pass uses, then build the builtin macros.
    t0 = time.process_time()
    import ccomply.flow
    import ccomply.parsing
    import ccomply.rules
    import ccomply.sema
    from ccomply.builtins import BUILTIN_MACRO_SPECS
    from ccomply.frontend import macro_from_define_flag
    from ccomply.source import SourceManager

    manager = _recording_manager(SourceManager)() if args.mode == "traced" else SourceManager()
    builtins = [macro_from_define_flag(spec, manager) for spec in BUILTIN_MACRO_SPECS]
    setup_s = time.process_time() - t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "probe_s": [probe() for _ in range(SETUP_PROBES)]}))
        return 0

    with open("tus.txt", encoding="utf-8") as fh:
        tus = fh.read().split()
    if args.mode == "traced":
        with SpanRecorder() as rec:
            out = _run_pass(manager, builtins, tus, rules, rec, _TraceHooks(manager))
        rec.write(args.spans)
    else:
        out = _run_pass(manager, builtins, tus, rules, _NoSpans(), None, check=args.mode == "check")
    out["setup_s"] = setup_s
    print(json.dumps(out))
    return 0


def _recording_manager(base):
    class RecordingManager(base):
        """A SourceManager that remembers every file load, repeats included."""

        def __init__(self) -> None:
            super().__init__()
            self.loads = []

        def load(self, path):
            f = super().load(path)
            self.loads.append(f)
            return f

    return RecordingManager


class _NoSpans:
    """Stands in for the span recorder in an untraced pass."""

    trace = 0
    _null = nullcontext()

    def span(self, name: str):
        return self._null


class _TraceHooks:
    """The traced pass's extras: layer counts, and the calls that are made
    standalone so that their cost can be attributed (`lex` of every file a TU
    reads, each flow analysis on each `FunctionDef`)."""

    def __init__(self, manager) -> None:
        self.manager = manager
        self.counts: dict[str, int] = {}
        self._first_load = 0

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def before_tu(self) -> None:
        self._first_load = len(self.manager.loads)

    def after_preprocess(self, tokens, rec) -> None:
        from ccomply.frontend import lex

        read = self.manager.loads[self._first_load:]
        self.count("frontend.preprocess.tokens_out", len(tokens))
        self.count("frontend.preprocess.expanded_tokens", sum(1 for t in tokens if t.chain))
        self.count("frontend.preprocess.includes", len(read) - 1)
        for f in read:
            with rec.span("frontend.lex"):
                lexed = lex(f)
            self.count("frontend.lex.tokens", len(lexed))

    def after_resolve(self, tu, table) -> None:
        from ccomply.parsing import walk

        self.count("parsing.ast_nodes", sum(1 for _ in walk(tu)))
        self.count("sema.symbols", len(table.symbols))

    def flow(self, tu, rec, at) -> None:
        """Each flow analysis standalone on each function; `at` names the stage."""
        from ccomply.flow import (
            build_cfg, definite_assignment, interval_analysis, liveness, local_points_to,
        )
        from ccomply.flow.effects import addr_taken_syms
        from ccomply.parsing import FunctionDef
        from ccomply.sema.typesys import DEFAULT_MODEL

        analyses = (
            ("definite_assignment", "flow.assign", definite_assignment),
            ("interval_analysis", "flow.intervals", lambda cfg: interval_analysis(cfg, DEFAULT_MODEL)),
            ("liveness", "flow.liveness", liveness),
            ("local_points_to", "flow.pointsto", local_points_to),
        )
        for fn in tu.decls:
            if not isinstance(fn, FunctionDef):
                continue
            at("build_cfg")
            with rec.span("flow.cfg"):
                cfg = build_cfg(fn, DEFAULT_MODEL)
            self.count("flow.cfg.blocks", len(cfg.blocks))
            self.count("flow.cfg.items", sum(len(b.items) for b in cfg.blocks))
            for stage, name, analysis in analyses:
                at(stage)
                with rec.span(name):
                    r = analysis(cfg)
                self.count(f"{name}.iterations", r.iterations)
            at("addr_taken_syms")
            with rec.span("flow.effects.addr_taken"):
                addr_taken_syms(cfg)

    def after_call_graph(self, graph) -> None:
        self.count("flow.callgraph.edges", len(graph.direct_edges))
        self.count("flow.callgraph.indirect_sites", len(graph.indirect_call_sites))


class _GcClock:
    """CPU seconds spent in cyclic collections so far, through `gc.callbacks`."""

    def __init__(self) -> None:
        self.total = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.process_time()
        else:
            self.total += time.process_time() - self._start


def _failure(path: str, exc: Exception, stage: str) -> dict:
    """Tag a TU failure with its AnalysisError stage, else the function it escaped."""
    from ccomply.errors import AnalysisError

    tag = exc.stage if isinstance(exc, AnalysisError) else stage
    return {"tu": path, "stage": tag, "error": f"{type(exc).__name__}: {exc}"[:300]}


def _rule_calls(rules, traced: bool):
    """(per-TU calls, system calls): each call is (span name, guidelines, keep findings).

    An untraced pass makes one call with every enabled guideline. A traced
    pass times every guideline, enabled or not, one call each, so that each
    checker's cost shows on every workload; it keeps only enabled findings.
    """
    def calls(gids):
        if not traced:
            enabled = set(gids) & set(rules)
            return [("rules.engine", enabled, True)] if enabled else []
        return [(f"rules.engine.{gid}", {gid}, gid in rules) for gid in sorted(gids)]

    per_tu = [g for g in ALL_RULES if g not in SYSTEM_RULES]
    return calls(per_tu), calls(SYSTEM_RULES)


def _run_pass(manager, builtins, tus, rules, rec, hooks, check: bool = False) -> dict:
    """The stage chain over every TU, then the whole-program stage.

    `rec` records spans (a `_NoSpans` in an untraced pass); `hooks` are the
    traced pass's extras, or None.
    """
    from ccomply.flow import build_call_graph
    from ccomply.frontend import preprocess
    from ccomply.parsing import parse
    from ccomply.rules import compute_tu_facts, run_rules
    from ccomply.sema import resolve

    per_tu_calls, system_calls = _rule_calls(rules, traced=hooks is not None)
    findings = []
    units = []
    all_facts = []
    tu_ms = []
    tu_gc_ms = []
    failures = []
    probe_s = []
    stage = ""
    gc_clock = _GcClock()
    gc.callbacks.append(gc_clock)

    def at(name: str) -> None:
        nonlocal stage
        stage = name

    wall_start = time.perf_counter()
    t_start = time.process_time()
    for i, path in enumerate(tus):
        if i % PROBE_EVERY == 0:
            probe_s.append(probe())
        rec.trace = i
        t = time.process_time()
        gc_t = gc_clock.total
        at("load")
        try:
            with rec.span("tu"):
                if hooks:
                    hooks.before_tu()
                source = manager.load(path)
                at("preprocess")
                with rec.span("frontend.preprocess"):
                    tokens, _, _ = preprocess(source, [], builtins, manager)
                if hooks:
                    at("lex")
                    hooks.after_preprocess(tokens, rec)
                at("parse")
                with rec.span("parsing.parse"):
                    tu = parse(tokens, path)
                at("resolve")
                with rec.span("sema.resolve"):
                    table = resolve(tu)
                if hooks:
                    hooks.after_resolve(tu, table)
                at("compute_tu_facts")
                with rec.span("rules.context.compute_tu_facts"):
                    facts = compute_tu_facts(tu, table, manager)
                at("run_rules")
                for name, gids, keep in per_tu_calls:
                    with rec.span(name):
                        found = run_rules([facts], gids, manager=manager)
                    if keep:
                        findings.extend(found)
                if hooks:
                    hooks.flow(tu, rec, at)
        except Exception as exc:  # a crash in one TU must not abort the pass
            failures.append(_failure(path, exc, stage))
            tu_ms.append(None)
            tu_gc_ms.append(None)
            continue
        tu_ms.append((time.process_time() - t) * 1000.0)
        tu_gc_ms.append((gc_clock.total - gc_t) * 1000.0)
        units.append((tu, table))
        all_facts.append(facts)
    rec.trace = len(tus)
    t = time.process_time()
    gc_t = gc_clock.total
    at("build_call_graph")
    graph = None
    system_failure = None
    try:
        with rec.span("system"):
            with rec.span("flow.callgraph"):
                graph = build_call_graph(units)
            if hooks:
                hooks.after_call_graph(graph)
            at("run_rules")
            for name, gids, keep in system_calls:
                with rec.span(name):
                    found = run_rules([], gids, call_graph=graph, manager=manager)
                if keep:
                    findings.extend(found)
    except Exception as exc:
        system_failure = _failure("<system>", exc, stage)
    findings.sort(key=lambda f: f.sort_key())
    end = time.process_time()
    wall_s = time.perf_counter() - wall_start
    gc.callbacks.remove(gc_clock)
    probe_s.append(probe())
    text = render(findings)
    out = {
        # The probes ran inside the pass's window but outside every TU's.
        "cpu_s": end - t_start - sum(probe_s[:-1]),
        "wall_s": wall_s,
        "tu_ms": tu_ms,
        "tu_gc_ms": tu_gc_ms,
        "system_ms": (end - t) * 1000.0,
        "system_gc_ms": (gc_clock.total - gc_t) * 1000.0,
        "probe_s": probe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(tus),
        "failures": failures,
        "system_failure": system_failure,
        "findings_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "findings_count": len(findings),
    }
    if hooks:
        counts = hooks.counts
        for gid in ALL_RULES:
            for certainty in ("definite", "caution"):
                counts.setdefault(f"rules.findings.{gid}.{certainty}", 0)
        for f in findings:
            hooks.count(f"rules.findings.{f.guideline}.{f.certainty.value}", 1)
        counts["gc.collections"] = rec.gc_collections
        counts["gc.gen2_collections"] = rec.gc_gen2_collections
        out["counts"] = counts
    if check:
        out["findings"] = [
            [f.path, f.span.start.line, f.guideline, f.certainty.value] for f in findings
        ]
        single = run_rules(all_facts, set(rules), call_graph=graph, manager=manager)
        out["chain_equals_single_call"] = render(single) == text
    return out


def render(findings) -> str:
    """Canonical text of a sorted findings list; its sha256 is the digest."""
    lines = []
    for f in findings:
        evidence = " | ".join(
            (f"{e.span.start.line}:{e.span.start.column} " if e.span else "") + e.note
            for e in f.evidence
        )
        behavior = f.behavior_class.value if f.behavior_class else "-"
        lines.append(
            f"{f.path}:{f.span.start.line}:{f.span.start.column}: {f.guideline} "
            f"{f.certainty.value} {behavior}: {f.message} [{evidence}]"
        )
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
