#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics of one checkout.

Runs the benchmark command of BENCHMARK.json (``perfbench/run.py``,
unchanged, untraced) RUNS times on each of its workloads inside CHECKOUT,
with seeds 1..RUNS and the benchmark's own run length, one process after
the other, and writes ``BENCH_<commit>.json`` at the root of this
repository: per workload and end-to-end metric the median, the quartiles
and every run's value.

With --trace, each of those runs is followed by one ``--trace 1`` run of
the same workload and seed, and the per-layer metrics it prints (such as
``canon.s``, ``canon.self_s`` and ``canon.max_ms``) are summarised the
same way, next to the end-to-end ones.  End-to-end metrics come only from
the untraced runs.

Every run starts with an empty bytecode cache of its own
(``PYTHONPYCACHEPREFIX`` set to a fresh temporary directory), so no run
reads bytecode that an earlier run or the checkout's ``__pycache__`` left
behind, and ``setup_s``, the import plus the input generation, includes
compiling the library (and the standard-library modules it imports) from
source on every checkout alike.  A checkout with a warm ``__pycache__``
would otherwise read a set-up several times shorter than a fresh copy of
the same code.

<commit> is the short hash of CHECKOUT's HEAD, followed by ``-dirty`` when
its ``src/`` or ``perfbench/`` differ from that commit.  ``src_sha256`` in
the file is perfbench's digest of the measured ``src/linkgraph``.

Usage:
    python3 scripts/bench_record.py [--checkout DIR] [--runs N] [--trace]

Stops with an error when a run fails, and exits 1 when a run reports a
failed operation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(checkout, *args):
    return subprocess.run(
        ["git", "-C", str(checkout), *args],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def commit_label(checkout):
    label = git(checkout, "rev-parse", "--short=7", "HEAD")
    if git(checkout, "status", "--porcelain", "--", "src", "perfbench"):
        label += "-dirty"
    return label


def run_once(checkout, command, workload, seed, seconds, trace):
    """One benchmark process, under an empty bytecode cache of its own;
    its meta line and result line."""
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        proc = subprocess.run(
            [*command, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=checkout, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPYCACHEPREFIX=cache),
        )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("meta "):
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}"
        )
    return json.loads(lines[-2][len("meta "):]), json.loads(lines[-1])


def benchmark_command(spec):
    """BENCHMARK.json's command, run by this interpreter."""
    return [sys.executable if word in ("python", "python3") else word
            for word in spec["command"]]


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="git checkout to measure (default: this one)")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--trace", action="store_true",
                        help="add one traced run per workload and seed, "
                             "for the per-layer metrics")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checkout = args.checkout.resolve()
    label = commit_label(checkout)
    command = benchmark_command(spec)

    metrics = {w["name"]: {} for w in spec["workloads"]}
    failed = 0
    for seed in range(1, args.runs + 1):
        for name in metrics:
            for trace in range(1 + args.trace):
                meta, result = run_once(
                    checkout, command, name, seed, spec["run_seconds"], trace
                )
                if not trace:
                    print(f"{name} seed {seed}: wall_s "
                          f"{result['metrics']['wall_s']['value']:.4f}", flush=True)
                failed += result["failed"]
                for metric, entry in result["metrics"].items():
                    metrics[name].setdefault(metric, {"unit": entry["unit"], "runs": []})
                    metrics[name][metric]["runs"].append(entry["value"])

    record = {
        "commit": label,
        "src_sha256": meta["src_sha256"],
        "python": meta["python"],
        "platform": meta["platform"],
        "nproc": meta["nproc"],
        "runs": args.runs,
        "traced": args.trace,
        "seconds": spec["run_seconds"],
        "workloads": {
            name: {
                metric: {"unit": entry["unit"], **summary(entry["runs"])}
                for metric, entry in metrics[name].items()
            }
            for name in metrics
        },
    }
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"written to {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
