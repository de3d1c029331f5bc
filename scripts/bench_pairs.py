#!/usr/bin/env python3
"""Compare two checkouts on the benchmark by alternating pairs of runs.

Runs the benchmark command of BENCHMARK.json (``perfbench/run.py``,
unchanged, untraced) in PARENT and in CHANGE as ten pairs on each of its
workloads, at the benchmark's own run length.  Pair k uses seed
FIRST_SEED + k on both sides; the parent runs first in even pairs and the
change in odd ones, so host drift falls on both sides alike.  Every run's
end-to-end metrics are printed as it finishes, then for each workload the
failed operations of each side and, per end-to-end metric, each side's
median and quartiles, the change of the medians, and in how many pairs
the change read better (ties count for neither side).  ``gain`` marks a
metric where the change won at least nine of the ten pairs, the medians
differ by more than the quartile distance of the parent's runs, and the
change failed no more operations than the parent: the rule a claimed
speed-up must meet (README, "Scale" and ``bench_record.py``).

Usage:
    python3 scripts/bench_pairs.py PARENT CHANGE [--first-seed S]

Stops with an error when a run fails, and exits 1 when a run reports a
failed operation.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_record  # noqa: E402  (the sibling script)

ROOT = bench_record.ROOT
SIDES = ("parent", "change")
PAIRS = 10


def compare(metric, parent, change, failed):
    """One summary line of a metric over its paired runs.

    ``failed`` maps each side to the operations its runs failed."""
    p = bench_record.summary(parent)
    c = bench_record.summary(change)
    sign = -1 if metric["better"] == "lower" else 1
    wins = sum(1 for pv, cv in zip(parent, change) if sign * (cv - pv) > 0)
    gain = (wins * 10 >= 9 * len(parent)
            and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"]
            and failed["change"] <= failed["parent"])
    shift = (f"{100 * (c['median'] - p['median']) / p['median']:+.1f} %"
             if p["median"] else "n/a")
    return (
        f"{metric['name']} ({metric['unit']}, {metric['better']} is better): "
        f"parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}], "
        f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}], {shift}, "
        f"change better in {wins}/{len(parent)}" + (", gain" if gain else "")
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = bench_record.benchmark_command(spec)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    any_failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        values = {side: {m["name"]: [] for m in spec["end_to_end"]} for side in SIDES}
        failed = dict.fromkeys(SIDES, 0)
        for k in range(PAIRS):
            seed = args.first_seed + k
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                _, result = bench_record.run_once(
                    checkouts[side], command, workload, seed,
                    spec["run_seconds"], 0,
                )
                failed[side] += result["failed"]
                for metric, runs in values[side].items():
                    runs.append(result["metrics"][metric]["value"])
                print(f"{workload} pair {k + 1} seed {seed} {side}: " + " ".join(
                    f"{metric} {runs[-1]:.4g}" for metric, runs in values[side].items()
                ), flush=True)
        print(f"{workload} failed operations: parent {failed['parent']}, "
              f"change {failed['change']}")
        any_failed = any_failed or any(failed.values())
        for metric in spec["end_to_end"]:
            name = metric["name"]
            print(f"{workload} " + compare(
                metric, values["parent"][name], values["change"][name], failed))
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
