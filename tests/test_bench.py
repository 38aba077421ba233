"""The benchmark still runs against the current package.

A one-second traced run wraps every layer of pmvr from outside (including
the ``Level`` oracle fields by name), so a library change that breaks the
tracer or the recipe path fails here rather than in the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["matrix-20", "matrix-200", "md-portfolio"])
def test_traced_bench_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
