import importlib.util
import json
import os
import subprocess
import sys

import pytest

from linkgraph import families
from linkgraph.search import minimal_link_roots

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=REPO, capture_output=True, text=True,
        timeout=300,
    )


def run_script_elsewhere(cwd, name, *args, flags=()):
    """Run scripts/NAME from ``cwd`` with no PYTHONPATH, so the script
    must find the library itself."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, *flags, os.path.join(REPO, "scripts", name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_root_tables_agree_with_closed_forms(tmp_path):
    proc = run_script_elsewhere(tmp_path, "root_tables.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "closed form agrees: False" not in proc.stdout


@pytest.mark.parametrize("n", [20, 30])
def test_two_roots_of_isolated_vertices_match_the_star_unions(n):
    # R_2(nK1) at the default cap against the closed form root_tables.py
    # checks: 25 roots for n = 20, 81 for n = 30
    closed_form = load_script("root_tables").star_union_roots(n)
    assert minimal_link_roots(families.empty_graph(n), 2).canonical_set() == closed_form
    assert len(closed_form) == {20: 25, 30: 81}[n]


@pytest.mark.parametrize(
    "workload", ["roots-link", "roots-path", "calculus", "canon-sym"])
def test_benchmark_pass_checks_clean(workload):
    # --seconds 0 runs the minimum number of checked passes; --trace 0
    # leaves no file behind
    proc = run_script("perfbench/run.py", "--workload", workload,
                      "--seed", "1", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(REPO, "scripts", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_alternates_and_counts_wins(monkeypatch, capsys):
    pairs = load_script("bench_pairs")
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    calls = []

    def run_once(checkout, command, workload, seed, seconds, trace):
        side = checkout.name
        calls.append((side, workload, seed, seconds, trace))
        # the change is four times faster on every seed but the fifth, and
        # fails one canon-sym operation on the fourth
        wall = float(seed) if side == "parent" or seed == 5 else seed / 4
        failed = int(side == "change" and workload == "canon-sym" and seed == 4)
        metrics = {m["name"]: {"unit": m["unit"], "value": 1.0}
                   for m in spec["end_to_end"]}
        metrics["wall_s"]["value"] = wall
        return {}, {"failed": failed, "metrics": metrics}

    monkeypatch.setattr(pairs.bench_record, "run_once", run_once)
    assert pairs.main(["/x/parent", "/x/change", "--first-seed", "3"]) == 1
    assert calls == [
        (side, name, seed, spec["run_seconds"], 0)
        for name in names
        for k, seed in enumerate(range(3, 13))
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent"))
    ]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(names) * (20 + 1 + len(spec["end_to_end"]))
    for name in names:
        [failed] = [line for line in lines
                    if line.startswith(f"{name} failed operations")]
        [wall] = [line for line in lines if line.startswith(f"{name} wall_s")]
        [ok] = [line for line in lines if line.startswith(f"{name} ok_ratio")]
        expected = ("wall_s (s, lower is better): parent 7.5 [5.25, 9.75], "
                    "change 2.125 [1.562, 2.688], -71.7 %, change better in 9/10")
        if name == "canon-sym":  # a gain that fails more operations is none
            assert failed.endswith("parent 0, change 1")
            assert wall == f"{name} {expected}"
        else:
            assert failed.endswith("parent 0, change 0")
            assert wall == f"{name} {expected}, gain"
        assert ok.endswith("+0.0 %, change better in 0/10")
    # every pair won by more than the parent's quartile distance is a gain,
    # by less is none, and so is one that fails more operations
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    metric = {"name": "wall_s", "unit": "s", "better": "lower"}
    clean = {"parent": 0, "change": 0}
    assert pairs.compare(metric, parent, [v - 0.5 for v in parent], clean).endswith(
        "change better in 10/10, gain")
    assert not pairs.compare(metric, parent, [v - 0.1 for v in parent],
                             clean).endswith("gain")
    assert pairs.compare(metric, parent, [v - 0.5 for v in parent],
                         {"parent": 2, "change": 2}).endswith("gain")
    assert not pairs.compare(metric, parent, [v - 0.5 for v in parent],
                             {"parent": 2, "change": 3}).endswith("gain")


def test_bench_record_summarises_runs(tmp_path, monkeypatch):
    record = load_script("bench_record")
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def run_once(checkout, command, workload, seed, seconds, trace):
        calls.append((workload, seed, seconds, trace))
        meta = {"src_sha256": "abc", "python": "3", "platform": "p", "nproc": 2}
        if trace:  # a traced run prints per-layer metrics only
            metrics = {"canon.self_s": {"unit": "s", "value": seed / 10},
                       "canon.max_ms": {"unit": "ms", "value": 5.0}}
        else:
            metrics = {"wall_s": {"unit": "s", "value": float(seed)},
                       "ok_ratio": {"unit": "ratio", "value": 1.0}}
        return meta, {"failed": 0, "metrics": metrics}

    monkeypatch.setattr(record, "ROOT", tmp_path)
    monkeypatch.setattr(record, "commit_label", lambda checkout: "abc1234")
    monkeypatch.setattr(record, "run_once", run_once)
    names = [w["name"] for w in spec["workloads"]]
    for traced in (False, True):
        calls.clear()
        assert record.main(["--runs", "4"] + ["--trace"] * traced) == 0
        assert calls == [(name, seed, spec["run_seconds"], trace)
                         for seed in (1, 2, 3, 4) for name in names
                         for trace in range(1 + traced)]
        out = json.loads((tmp_path / "BENCH_abc1234.json").read_text())
        assert out["commit"] == "abc1234" and out["runs"] == 4
        assert out["traced"] is traced
        assert out["seconds"] == spec["run_seconds"]
        assert sorted(out["workloads"]) == sorted(names)
        for workload in out["workloads"].values():
            assert workload["wall_s"] == {"unit": "s", "median": 2.5, "q1": 1.75,
                                          "q3": 3.25, "values": [1.0, 2.0, 3.0, 4.0]}
            assert workload["ok_ratio"]["median"] == 1.0
            if traced:
                assert workload["canon.self_s"]["values"] == [0.1, 0.2, 0.3, 0.4]
                assert workload["canon.max_ms"]["median"] == 5.0
            else:
                assert "canon.self_s" not in workload


def test_bench_runs_start_with_an_empty_bytecode_cache(monkeypatch):
    # each run gets its own empty PYTHONPYCACHEPREFIX, removed after it, so
    # a warm __pycache__ in one checkout cannot shorten its setup_s
    record = load_script("bench_record")
    caches = []

    def run(args, cwd, capture_output, text, env):
        cache = env["PYTHONPYCACHEPREFIX"]
        assert os.path.isdir(cache) and not os.listdir(cache)
        caches.append(cache)
        stdout = 'meta {"nproc": 2}\n{"failed": 0, "metrics": {}}\n'
        return subprocess.CompletedProcess(args, 0, stdout, "")

    monkeypatch.setattr(record.subprocess, "run", run)
    for seed in (1, 2):
        meta, result = record.run_once(REPO, ["python3", "perfbench/run.py"],
                                       "roots-path", seed, 0, 0)
        assert meta == {"nproc": 2} and result["failed"] == 0
    assert len(set(caches)) == 2
    assert not any(os.path.exists(cache) for cache in caches)


def test_benchmark_oracle_catches_wrong_results():
    proc = run_script("perfbench/test_oracle.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_invariance_sweep_holds_under_optimize(tmp_path):
    proc = run_script_elsewhere(tmp_path, "invariance_sweep.py", "--count", "20",
                                flags=["-O"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("20 graphs: ")
    assert proc.stdout.rstrip().endswith("all held")


def test_invariance_sweep_exits_1_on_a_broken_invariant(monkeypatch, capsys):
    # the sweep checks without assert statements, so a failure is an exit
    # code and a printed graph whatever the interpreter's -O setting
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script adds src
    sweep = load_script("invariance_sweep")
    census = sweep.count_cyclic_components

    def off_by_one(pg):
        out = census(pg)
        return out._replace(cyclic_count=out.cyclic_count + 1)

    monkeypatch.setattr(sweep, "count_cyclic_components", off_by_one)
    monkeypatch.setattr(sys, "argv", ["invariance_sweep.py", "--count", "3"])
    with pytest.raises(SystemExit) as exit_:
        sweep.main()
    assert exit_.value.code == 1
    assert "cyclic-component invariance failed: n=" in capsys.readouterr().out
