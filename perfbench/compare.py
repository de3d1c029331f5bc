#!/usr/bin/env python3
"""Compare two traced runs layer by layer.

    python3 perfbench/compare.py OLD.json NEW.json

Both files are written by ``run.py --trace 1`` (perfbench/out/trace-*.json).
Prints, per layer, the self time of each run and its change, then the
unattributed remainder and the traced wall time; layers are ordered by the
size of the change.
"""

from __future__ import annotations

import json
import sys


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def rows(old, new):
    """(name, old seconds, new seconds) for every layer and the remainders."""
    out = []
    layers = old["summary"]["layers"]
    for layer in layers:
        out.append((
            f"{layer}.self_s",
            layers[layer]["self_s"],
            new["summary"]["layers"].get(layer, {}).get("self_s", 0.0),
        ))
    out.sort(key=lambda row: -abs(row[2] - row[1]))
    for name in ("trace.unattributed_s", "trace.wall_s"):
        out.append((name, old["metrics"][name][0], new["metrics"][name][0]))
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (load(path) for path in argv)
    for side, data in (("old", old), ("new", new)):
        meta = data["meta"]
        print(f"{side}: {meta['workload']} seed {meta['seed']} "
              f"src {meta['src_sha256']} git {meta['git_sha']}")
    if old["meta"]["workload"] != new["meta"]["workload"]:
        print("warning: the two runs are of different workloads")
    print(f"{'metric':24s} {'old s':>10s} {'new s':>10s} {'change s':>10s} {'change':>8s}")
    for name, a, b in rows(old, new):
        share = f"{(b - a) / a:+8.1%}" if a else f"{'n/a':>8s}"
        print(f"{name:24s} {a:10.4f} {b:10.4f} {b - a:+10.4f} {share}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
