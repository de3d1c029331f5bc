import dataclasses
import importlib.util
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
    spec = importlib.util.spec_from_file_location(
        "invariance_sweep", os.path.join(REPO, "scripts", "invariance_sweep.py"))
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
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
