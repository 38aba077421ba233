"""The benchmark still runs against the current package.

A one-second traced run wraps every layer of pmvr from outside (including
the ``Level`` oracle fields by name), so a library change that breaks the
tracer or the recipe path fails here rather than in the benchmark. A
one-second untraced run (``--trace 0``, the mode the benchmark's bounds
read) must report exactly the end-to-end metrics of ``BENCHMARK.json``.
"""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from pmvr import cli
from pmvr.data_io import validate_config

ROOT = Path(__file__).resolve().parents[1]


def bench_run(workload, trace):
    """The last line of one one-second bench run, a JSON object."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    return last


@pytest.mark.parametrize("workload", ["matrix-20", "matrix-200", "md-portfolio"])
def test_traced_bench_run_is_correct(workload):
    bench_run(workload, 1)


def test_timed_bench_run_reports_every_end_to_end_metric():
    last = bench_run("matrix-20", 0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert sorted(last["metrics"]) == sorted(m["name"] for m in declared)
    for name, entry in last["metrics"].items():
        assert math.isfinite(entry["value"]), name


def test_timed_md_portfolio_run_is_correct():
    """The untimed checks of the path the md-portfolio bounds read: every
    repetition of a one-second ``--trace 0`` run is checked and correct."""
    last = bench_run("md-portfolio", 0)
    assert last["attempted"] > 0


def test_bench_recipes_are_the_shipped_desk_recipes_but_for_t(monkeypatch):
    """Each benchmark workload runs its experiment's ``pmvr reproduce
    --scale desk`` recipe: every solver resolves to the same eta, alpha, b0,
    b1, subsolver and beta; only the iteration count may differ."""
    spec = importlib.util.spec_from_file_location("recipes", ROOT / "bench" / "recipes.py")
    recipes = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "recipes", recipes)  # its dataclasses look it up
    spec.loader.exec_module(recipes)

    def resolved(raw):
        cfg = validate_config(raw)
        p = cfg.resolved
        return p.eta, p.alpha, p.b0, p.b1, p.subsolver, cfg.beta

    for workload, experiment in (("md-portfolio", "md-portfolio"),
                                 ("matrix-20", "matrix"), ("matrix-200", "matrix")):
        bench = recipes.recipe_configs(recipes.WORKLOADS[workload], 1, "returns.txt", "out")
        shipped = cli._reproduce_configs(experiment, "desk", None)
        assert list(bench) == list(shipped)
        for algo in shipped:
            assert resolved(bench[algo]) == resolved(shipped[algo]), (workload, algo)
