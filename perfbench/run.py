"""The ccomply benchmark: generated multi-TU C projects, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It generates the workload from the seed into
a temporary directory under `.bench_build/`, then runs analyser passes,
each one a fresh process (`one_pass.py`) that makes one pass over the
project, until `--seconds` are used up. It checks the findings, prints
every metric by name and unit, and prints as its last line one JSON object
`{"correct", "attempted", "failed", "metrics"}`; `attempted` and `failed`
count translation units over all passes.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
from the first `TIMING_PASSES` untraced passes (see `end_to_end_metrics`).
With `--trace 1` untraced and traced passes alternate, and the metrics are
the per-layer ones: self times from the spans of the traced passes, counts
they made, and the tracing overhead. Every time is scaled by the speed
probe of the process that measured it (see `probe.py`).

The run exits non-zero unless every planted violation is found, the
findings digest is the same on every pass, the per-TU chain gives the same
findings as one `run_rules` call over all units, and the generator is
deterministic.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from gen import WORKLOADS, generate
from one_pass import PROBE_EVERY
from probe import REFERENCE_S
from spans import read_spans, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
TIMING_PASSES = 3  # untraced passes whose times the end-to-end metrics use
SETUPS_PER_PASS = 3  # set-up-only processes after each untraced pass
RUN_LIMIT_S = 150.0  # no pass starts that would end later than this
HARD_LIMIT_S = 170.0  # a pass still running then is stopped and the run fails


class BenchError(Exception):
    """The harness could not complete a pass."""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM unwind normally: subprocess.run kills and reaps the running
    # pass, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ccomply", "__init__.py")):
        print("perfbench: no ccomply sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    started = time.perf_counter()
    project = generate(args.workload, args.seed)
    errors = check_generator(args.workload, args.seed, project)
    os.makedirs(os.path.join(root, ".bench_build"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, ".bench_build"))
    try:
        for path, text in project.files.items():
            with open(os.path.join(workdir, path), "wb") as fh:
                fh.write(text.encode("ascii"))
        with open(os.path.join(workdir, "tus.txt"), "w", encoding="ascii") as fh:
            fh.write("\n".join(project.tus) + "\n")
        runner = _Runner(src, workdir, args.workload, started)
        passes = runner.run_passes(args.seconds, args.trace == 1)
        traced = [p for p in passes if p["mode"] == "traced"]
        for p in traced:
            p["self_times"] = self_times(read_spans(p["spans_path"]))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p for p in passes if p["mode"] != "traced"]
    check = next(p for p in passes if p["mode"] == "check")
    errors += check_findings(project, check, passes)
    end_to_end = end_to_end_metrics(project, untraced)
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    errors += [f"whole-program stage failed at {p['system_failure']['stage']}: "
               f"{p['system_failure']['error']}" for p in passes if p["system_failure"]]

    print(f"workload {args.workload} seed {args.seed}: {len(project.tus)} TUs, "
          f"{project.lines} input lines, {len(project.plants)} planted violations")
    setups = sum(len(p["setups"]) for p in untraced)
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced, "
          f"{setups} set-up-only; {time.perf_counter() - started:.1f} s in all")
    print(f"findings_sha256 {check['findings_sha256']} ({check['findings_count']} findings)")
    for clock in ("cpu_s", "wall_s"):
        rates = ", ".join(f"{project.lines / p[clock]:.1f}" for p in untraced)
        print(f"unscaled lines/s of each untraced pass by {clock[:-2]} time: {rates}")
    scales = ", ".join(f"{speed_scale(p):.3f}" for p in passes)
    print(f"speed scale of each pass (reference probe time / measured): {scales}")
    print(f"tu_failed_frac {len(failures) / attempted} ratio ({len(failures)} of {attempted} TUs)")
    for f in failures[:10]:
        print(f"  failed {f['tu']} at {f['stage']}: {f['error']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    _print_metrics(end_to_end, units)
    if args.trace:
        metrics = per_layer_metrics(traced, untraced, project)
        _print_metrics(metrics, units)
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end
        wanted = spec["end_to_end"]
    missing = sorted({m["name"] for m in wanted} - set(metrics))
    if missing:
        errors.append(f"metrics not measured: {', '.join(missing)}")
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": statistics.median(metrics[m["name"]]), "unit": m["unit"]}
            for m in wanted if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0 if not errors else 1


class _Runner:
    """Starts pass processes one after another and waits for each."""

    def __init__(self, src: str, workdir: str, workload: str, started: float) -> None:
        self.src = src
        self.workdir = workdir
        self.workload = workload
        self.started = started

    def _child(self, mode: str, spans_path: str | None = None) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), "--src", self.src,
               "--workload", self.workload, "--mode", mode]
        if spans_path:
            cmd += ["--spans", spans_path]
        budget = HARD_LIMIT_S - (time.perf_counter() - self.started)
        try:
            proc = subprocess.run(cmd, cwd=self.workdir, capture_output=True, text=True,
                                  timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} pass did not finish within the run's time limit")
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass exited {proc.returncode}: {proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["mode"] = mode
        return out

    def run_passes(self, seconds: float, traced: bool) -> list[dict]:
        """Passes until `seconds` are used: untraced, or traced and untraced in turn.

        An untraced run makes at least `TIMING_PASSES` untraced passes, a
        traced run at least one traced pass. Each untraced pass carries the
        set-up-only processes that follow it, under `"setups"`, so that the
        set-up times sample the whole run rather than one moment of it.
        """
        t0 = time.perf_counter()
        passes: list[dict] = []
        took: dict[bool, float] = {}  # seconds of the last traced / untraced pass
        mode = "check"
        while True:
            t = time.perf_counter()
            spans = os.path.join(self.workdir, f"spans_{len(passes)}.jsonl") if mode == "traced" else None
            rec = self._child(mode, spans)
            rec["spans_path"] = spans
            if mode != "traced":
                rec["setups"] = [self._child("setup") for _ in range(SETUPS_PER_PASS)]
            passes.append(rec)
            took[mode == "traced"] = time.perf_counter() - t

            mode = "traced" if traced and mode != "traced" else "timed"
            untraced = sum(p["mode"] != "traced" for p in passes)
            has_traced = any(p["mode"] == "traced" for p in passes)
            # A traced run needs one pass of each kind; its end-to-end figures
            # are only printed.
            needed = not has_traced if traced else untraced < TIMING_PASSES
            # Before the first traced pass, guess it costs twice an untraced one.
            estimate = took.get(mode == "traced", 2.0 * took[False])
            now = time.perf_counter()
            if now - self.started + estimate > RUN_LIMIT_S:
                if needed:
                    raise BenchError("no time left for the passes a run needs")
                break
            if not needed and now - t0 + estimate > seconds:
                break
        return passes


def check_generator(workload: str, seed: int, project) -> list[str]:
    """Same seed, byte-identical files; another seed, different files."""
    def as_bytes(p):
        return {path: text.encode("ascii") for path, text in p.files.items()}

    errors = []
    if as_bytes(generate(workload, seed)) != as_bytes(project):
        errors.append("generator: the same seed gave different files")
    if as_bytes(generate(workload, seed + 1)) == as_bytes(project):
        errors.append("generator: another seed gave the same files")
    return errors


def check_findings(project, check: dict, passes: list[dict]) -> list[str]:
    errors = []
    found = {(path, line, gid, cert) for path, line, gid, cert in check["findings"]}
    at = {(path, line, gid) for path, line, gid, _ in found}
    missed = [
        p for p in project.plants
        if ((p.path, p.line, p.guideline, p.certainty) not in found if p.certainty
            else (p.path, p.line, p.guideline) not in at)
    ]
    if missed:
        errors.append(f"{len(missed)} planted violation(s) not found, e.g. {missed[:5]}")
    digests = {p["findings_sha256"] for p in passes}
    if len(digests) != 1:
        errors.append(f"findings differ between passes: {len(digests)} distinct digests")
    if not check["chain_equals_single_call"]:
        errors.append("per-TU chain and one run_rules call over all units disagree")
    return errors


def speed_scale(rec: dict) -> float:
    """REFERENCE_S over the mean probe time of one process; its times are
    multiplied by this, to read as if the machine ran at reference speed."""
    return REFERENCE_S / statistics.fmean(rec["probe_s"])


def scaled_times(p: dict) -> tuple[list[float | None], float]:
    """A pass's TU times (None for a failed TU) and whole-program stage time,
    in ms, scaled by the two probes around each.

    The probes run before every `PROBE_EVERY`-th TU and once at the end, so
    the TUs between two probes, and the whole-program stage after the last
    TU, get the speed the machine had while they ran, even when it changes
    within the pass. Time inside cyclic collections is left as measured: the
    collector walks the heap, which slows less than the interpreter when the
    machine is contended, so scaling it too made the figures spread more.
    """
    probes = p["probe_s"]

    def scaled(ms: float | None, gc_ms: float | None, window: int) -> float | None:
        if ms is None:
            return None
        return (ms - gc_ms) * 2.0 * REFERENCE_S / (probes[window] + probes[window + 1]) + gc_ms

    tu_ms = [scaled(ms, gc_ms, i // PROBE_EVERY)
             for i, (ms, gc_ms) in enumerate(zip(p["tu_ms"], p["tu_gc_ms"]))]
    return tu_ms, scaled(p["system_ms"], p["system_gc_ms"], len(probes) - 2)


def lines_per_s(project, p: dict) -> float:
    """Input lines over a pass's scaled time from first file read to sorted findings."""
    tu_ms, system_ms = scaled_times(p)
    return project.lines / ((sum(ms for ms in tu_ms if ms is not None) + system_ms) / 1000.0)


def end_to_end_metrics(project, untraced: list[dict]) -> dict[str, list[float]]:
    """End-to-end metrics of one run: one value per pass, or per set-up.

    Only the first `TIMING_PASSES` untraced passes and their set-ups count,
    so every commit gets the same number of samples however fast it is, and
    each value is one a pass or a process actually measured. Times are CPU
    time, scaled by the probes (see `scaled_times`).
    """
    out: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        out.setdefault(name, []).append(value)

    for p in untraced[:TIMING_PASSES]:
        add("lines_per_s", lines_per_s(project, p))
        tu_ms = [ms for ms in scaled_times(p)[0] if ms is not None]
        if len(tu_ms) >= 10:
            add("tu_ms_p50", statistics.median(tu_ms))
            add("tu_ms_p90", statistics.quantiles(tu_ms, n=10)[-1])
        add("peak_rss_mb", p["peak_rss_mb"])
        for s in [p] + p["setups"]:
            add("setup_s", s["setup_s"] * speed_scale(s))
    return out


def per_layer_metrics(traced: list[dict], untraced: list[dict], project) -> dict[str, list[float]]:
    """One value per traced pass for each metric. Layer self times are
    scaled by the pass's probes; collector time is not (see `scaled_times`)."""
    out: dict[str, list[float]] = {}
    for p in traced:
        scale = speed_scale(p)
        for name, t in p["self_times"].items():
            if name not in ("tu", "system"):  # the harness's own spans
                out.setdefault(f"{name}.s", []).append(t if name == "gc" else t * scale)
        for name, n in p["counts"].items():
            out.setdefault(name, []).append(n)
    traced_lps = statistics.median(lines_per_s(project, p) for p in traced)
    untraced_lps = statistics.median(lines_per_s(project, p) for p in untraced)
    out["bench.tracing_overhead_frac"] = [1.0 - traced_lps / untraced_lps]
    return out


def _print_metrics(metrics: dict[str, list[float]], units: dict[str, str]) -> None:
    for name in sorted(metrics):
        values = metrics[name]
        line = f"{name:44s} {statistics.median(values):14.6g} {units.get(name, '')}"
        if len(values) >= 2:
            line += f"   ({len(values)} values, {min(values):.6g} .. {max(values):.6g})"
        print(line)


if __name__ == "__main__":
    sys.exit(main())
