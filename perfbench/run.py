#!/usr/bin/env python3
"""linkgraph benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  Set-up
(import plus input generation) is repeated and its median reported.  Then
whole passes over the workload's operations run, one operation after the
other, until S seconds have gone by (at least MIN_PASSES passes); every
output is checked against a reference outside the timed code.  With
--trace 1 one more pass runs with per-layer spans recorded (see
layertrace.py) and the per-layer metrics are reported instead of the
end-to-end ones.

Times are each operation's fastest run in the run: wall_s and cpu_s sum
them over one pass, op_p50_ms and op_p90_ms are percentiles over the
operations.  On small shared virtual machines the same work was measured
taking from 1.0x to 1.45x its fastest time, in phases lasting seconds to
tens of seconds, so a median of runs inside one run still moved by 15-20 %
between runs while the fastest run of each short operation moved by about
5 %.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import workloads  # noqa: E402

LIBRARY_MODULES = (
    "multigraph", "families", "links", "construct", "partition",
    "incidence", "canon", "search", "formats", "cli",
)
SETUP_REPEATS = 5
MIN_PASSES = 3
EXIT_UNUSABLE = 2


def load_library():
    """Fresh import of linkgraph from ./src, as a CLI process would pay it."""
    for name in [n for n in sys.modules if n == "linkgraph" or n.startswith("linkgraph.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"linkgraph.{name}") for name in LIBRARY_MODULES}
    package = sys.modules["linkgraph"]
    if Path(package.__file__).resolve().parent != SRC / "linkgraph":
        raise ImportError(f"linkgraph imported from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(**modules)


def set_up(build, seed, workdir):
    """Import plus input generation, repeated; returns the last operations
    and every set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        started = time.perf_counter()
        lg = load_library()
        ops = build(lg, seed, str(workdir))
        times.append(time.perf_counter() - started)
    return ops, times


def cpu_seconds():
    """CPU time of this process and of any children it waited for."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


class Measurement:
    """Per-operation timings, failures and search counters of a series of
    passes over the same operations."""

    def __init__(self, ops):
        self.ops = ops
        self.wall = [[] for _ in ops]  # seconds per run of each operation
        self.cpu = [[] for _ in ops]
        self.pass_wall = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.counters = {}

    def run_pass(self, tracer=None):
        total = 0.0
        for k, op in enumerate(self.ops):
            if tracer is not None:
                tracer.enabled = True
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # an erroring operation is counted, not fatal
                result, error = None, exc
            t1 = time.perf_counter()
            c1 = cpu_seconds()
            if tracer is not None:
                tracer.enabled = False
            total += t1 - t0
            self.wall[k].append(t1 - t0)
            self.cpu[k].append(c1 - c0)
            self.attempted += 1
            if error is not None:
                problems = [f"raised {type(error).__name__}: {error}"]
            else:
                try:
                    problems = op.check(result)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                if hasattr(op, "counters") and not problems:
                    self.counters.update(op.counters(result))
            if problems:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"{getattr(op, 'name', type(op).__name__)}: {problems[0]}")
        self.pass_wall.append(total)

    def run_for(self, seconds):
        """Whole passes until ``seconds`` have gone by, at least MIN_PASSES."""
        started = time.perf_counter()
        while (
            len(self.pass_wall) < MIN_PASSES
            or time.perf_counter() - started < seconds
        ):
            self.run_pass()

    def best(self):
        """Each operation's fastest wall and CPU time over the passes."""
        return [min(w) for w in self.wall], [min(c) for c in self.cpu]


def percentiles(latencies):
    """p50 and p90 of the latencies, and how many lie above p90."""
    if len(latencies) == 1:
        return latencies[0], latencies[0], 0
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    p50, p90 = cuts[49], cuts[89]
    return p50, p90, sum(1 for x in latencies if x > p90)


def peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def git_sha():
    """HEAD of the enclosing git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "linkgraph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def metadata(args, params, ops, measured, setup_times):
    counters = {}
    for name, values in sorted(measured.counters.items()):
        expected = workloads.SEED_COMMIT_COUNTERS.get(name)
        counters[name] = dict(zip(workloads.COUNTER_FIELDS, values))
        counters[name]["equals_seed_commit"] = tuple(values) == expected
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "ops_per_pass": len(ops),
        "passes": len(measured.pass_wall),
        "setup_runs": len(setup_times),
        "op_runs": measured.attempted,
        "fail_ratio": measured.failed / measured.attempted,
        "problems": measured.problems,
        "search_counters": counters,
    }


def end_to_end(measured, setup_times):
    wall, cpu = measured.best()
    p50, p90, above = percentiles(wall)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(wall), "s"),
        "cpu_s": (sum(cpu), "s"),
        "op_p50_ms": (p50 * 1000.0, "ms"),
        "op_p90_ms": (p90 * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_ratio": (1.0 - measured.failed / measured.attempted, "ratio"),
    }, above


def per_layer(summary, traced, untraced_wall, counters):
    metrics = {}
    attributed = 0.0
    for layer, entry in summary["layers"].items():
        metrics[f"{layer}.calls"] = (entry["calls"], "count")
        metrics[f"{layer}.s"] = (entry["s"], "s")
        metrics[f"{layer}.self_s"] = (entry["self_s"], "s")
        attributed += entry["self_s"]
    totals = [0] * len(workloads.COUNTER_FIELDS)
    for values in counters.values():
        totals = [a + b for a, b in zip(totals, values)]
    for field, value in zip(workloads.COUNTER_FIELDS, totals):
        metrics[f"search.{field}"] = (value, "count")
    explored, candidates = totals[0], totals[1]
    metrics["search.yield_ratio"] = (explored / candidates if candidates else 0.0, "ratio")
    groups = summary["groups"]
    for prefix in ("links.count", "links.enum"):
        metrics[f"{prefix}_s"] = (groups[prefix]["s"], "s")
        metrics[f"{prefix}_calls"] = (groups[prefix]["calls"], "count")
    metrics["links.walks"] = (groups["links.enum"]["items"], "count")
    metrics["construct.project_calls"] = (groups["construct.project"]["calls"], "count")
    metrics["construct.project_s"] = (groups["construct.project"]["s"], "s")
    metrics["canon.max_ms"] = (summary["canon_max_s"] * 1000.0, "ms")
    metrics["multigraph.build_s"] = (groups["multigraph.build"]["s"], "s")
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.unattributed_s"] = (traced - attributed, "s")
    metrics["trace.overhead_ratio"] = (traced / untraced_wall, "ratio")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "linkgraph" / "__init__.py").is_file():
        print(f"error: no linkgraph sources under {SRC}", file=sys.stderr)
        return EXIT_UNUSABLE
    sys.path.insert(0, str(SRC))
    build, params = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        ops, setup_times = set_up(build, args.seed, workdir)
        measured = Measurement(ops)
        measured.run_for(args.seconds)
        untraced_wall = sum(measured.best()[0])
        if args.trace:
            tracer = layertrace.Tracer()
            tracer.install()
            try:
                measured.run_pass(tracer)
            finally:
                tracer.uninstall()
            summary = tracer.summary()
            metrics = per_layer(summary, measured.pass_wall[-1], untraced_wall, measured.counters)
            above = None
        else:
            metrics, above = end_to_end(measured, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = metadata(args, params, ops, measured, setup_times)
    if above is not None:
        meta["p90_samples_above"] = above
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6f} {unit}" if isinstance(value, float)
              else f"{name:28s} {value:>16d} {unit}")
    print(f"{'fail_ratio':28s} {meta['fail_ratio']:>16.6f} ratio "
          f"({measured.failed} of {measured.attempted} operations)")
    if above is not None:
        print(f"op latency: fastest of {len(measured.pass_wall)} runs of each of "
              f"{len(ops)} operations; {above} operations lie above op_p90_ms"
              + ("" if above >= 10 else " (fewer than 10: p90 is indicative only)"))
    for line in measured.problems:
        print(f"problem: {line}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"trace-{args.workload}-seed{args.seed}"
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "metrics": metrics, "summary": summary}, fh, indent=1)
        spans = OUT / f"trace-{args.workload}.spans.tsv"
        tracer.write_spans(spans)
        print(f"trace written to {stem}.json and {spans}")
    print("meta " + json.dumps(meta, sort_keys=True, default=str))
    print(json.dumps({
        "correct": measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
