import dataclasses
import importlib.util
import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=REPO, capture_output=True, text=True,
        timeout=300,
    )


def test_root_tables_agree_with_closed_forms():
    proc = run_script("scripts/root_tables.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "closed form agrees: False" not in proc.stdout


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


def test_benchmark_oracle_catches_wrong_results():
    proc = run_script("perfbench/test_oracle.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_invariance_sweep_holds_under_optimize():
    proc = run_script("-O", "scripts/invariance_sweep.py", "--count", "20")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("20 graphs: ")
    assert proc.stdout.rstrip().endswith("all held")


def test_invariance_sweep_exits_1_on_a_broken_invariant(monkeypatch, capsys):
    # the sweep checks without assert statements, so a failure is an exit
    # code and a printed graph whatever the interpreter's -O setting
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script adds src
    sweep = load_script("invariance_sweep")
    census = sweep.count_cyclic_components

    def off_by_one(pg):
        out = census(pg)
        return dataclasses.replace(out, cyclic_count=out.cyclic_count + 1)

    monkeypatch.setattr(sweep, "count_cyclic_components", off_by_one)
    monkeypatch.setattr(sys, "argv", ["invariance_sweep.py", "--count", "3"])
    with pytest.raises(SystemExit) as exit_:
        sweep.main()
    assert exit_.value.code == 1
    assert "cyclic-component invariance failed: n=" in capsys.readouterr().out
