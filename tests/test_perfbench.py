"""perfbench/run.py drives refstream through its own calls; a smoke run keeps them working.

The benchmark builds corpora, manifests and detectors with refstream's
functions and patches names in ``refstream.grid``, so a change to those can
break it without any other test noticing. Each workload runs for about a
second in a copy of the tree, so its outputs stay out of the checkout.
Only correctness is checked, never timing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["grid", "frozen"])
def test_workload_runs_correctly(tmp_path, workload):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "perfbench").mkdir()
    for script in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(script, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), done.stdout
