import inspect
import json
import os
import runpy
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from pmvr import cli, data_io, solvers
from pmvr.benchmarks import SQRT_SHIFT
from pmvr.data_io import PROBLEMS, ConfigError, read_trace_csv, validate_config
from pmvr.metrics import expected_lmo, expected_sfo
from pmvr.solvers import (
    QuadraticSubsolver,
    ScheduleConstants,
    SolverParams,
    StageSchedule,
    schedule_for,
)


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def strip_seconds(path):
    """Trace file bytes with the wall-clock column zeroed out."""
    lines = open(path).read().splitlines()
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        parts[2] = "-"
        out.append(",".join(parts))
    return [lines[0]] + out


BASE = {
    "problem": {
        "name": "mean_variance",
        "source": {"kind": "synthetic", "d": 4, "periods": 40},
    },
    "algorithm": "pmvr",
    "schedule": {"theorem": "thm1", "eps": 0.1, "overrides": {"t": 30}},
    "seed": 7,
    "reps": 1,
}


class TestRun:
    def test_rerun_is_byte_identical_modulo_seconds(self, tmp_path):
        cfg = dict(BASE, out=str(tmp_path / "a"))
        path = write_config(tmp_path, cfg)
        assert cli.main(["run", "--config", path]) == 0
        first = strip_seconds(tmp_path / "a" / "cfg_rep00.csv")
        cfg2 = dict(BASE, out=str(tmp_path / "b"))
        path2 = write_config(tmp_path, cfg2, name="cfg.json")
        assert cli.main(["run", "--config", path2]) == 0
        second = strip_seconds(tmp_path / "b" / "cfg_rep00.csv")
        assert first == second

    def test_reps_produce_expected_files_and_aggregate(self, tmp_path):
        out = str(tmp_path / "runs")
        cfg = dict(BASE, reps=3, out=out)
        path = write_config(tmp_path, cfg)
        assert cli.main(["run", "--config", path]) == 0
        files = sorted(os.listdir(out))
        assert files == [
            "cfg_agg.csv", "cfg_meta.json",
            "cfg_rep00.csv", "cfg_rep01.csv", "cfg_rep02.csv",
        ]
        traces = [read_trace_csv(os.path.join(out, f"cfg_rep{i:02d}.csv")) for i in range(3)]
        agg_lines = open(os.path.join(out, "cfg_agg.csv")).read().splitlines()
        first = agg_lines[1].split(",")
        objs = [t[0].objective for t in traces]
        assert float(first[5]) == pytest.approx(np.mean(objs), abs=1e-15)
        assert float(first[6]) == pytest.approx(np.std(objs), abs=1e-15)

    def test_seed_and_reps_overrides(self, tmp_path):
        out = str(tmp_path / "runs")
        path = write_config(tmp_path, dict(BASE, out=out))
        assert cli.main(["run", "--config", path, "--seed", "9", "--reps", "2"]) == 0
        meta = json.load(open(os.path.join(out, "cfg_meta.json")))
        assert meta["resolved"]["seeds"] == [9, 10]

    @pytest.mark.parametrize("seed", [None, -1, 1.5, "7"])
    def test_seed_flag_stands_in_for_the_files_seed(self, tmp_path, seed):
        out = str(tmp_path / "runs")
        cfg = {k: v for k, v in BASE.items() if k != "seed"}
        if seed is not None:
            cfg["seed"] = seed
        path = write_config(tmp_path, dict(cfg, out=out))
        assert cli.main(["run", "--config", path, "--seed", "4"]) == 0
        meta = json.load(open(os.path.join(out, "cfg_meta.json")))
        assert meta["resolved"]["seeds"] == [4]
        assert meta["config"]["seed"] == 4

    @pytest.mark.parametrize("keys, flags, locator", [
        ({"seed": 2**64}, [], "seed"),
        ({"seed": 2**64 - 1, "reps": 2}, [], "reps"),
        ({}, ["--seed", str(2**64)], "seed"),
        ({"reps": 2}, ["--seed", str(2**64 - 1)], "reps"),
        ({"seed": 2**64 - 1}, ["--reps", "2"], "reps"),
    ])
    def test_a_seed_of_2_64_or_more_exits_one_before_any_output(
        self, tmp_path, capsys, keys, flags, locator
    ):
        path = write_config(tmp_path, dict(BASE, out=str(tmp_path / "o"), **keys))
        assert cli.main(["run", "--config", path, *flags]) == 1
        assert f"error: {locator}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("keys, locator", [
        ({"beta": 10**400}, "beta"),
        ({"schedule": {"theorem": "thm1", "eps": 10**400}}, "schedule.eps"),
        ({"problem": {"name": "quadratic_distance", "noise": 10**400}}, "problem.noise"),
    ])
    def test_an_integer_beyond_float_range_exits_one_with_its_locator(
        self, tmp_path, capsys, keys, locator
    ):
        path = write_config(tmp_path, dict(BASE, out=str(tmp_path / "o"), **keys))
        assert cli.main(["run", "--config", path]) == 1
        assert f"error: {locator}: expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("reps, jobs, workers", [(2, 4, 2), (3, 2, 2), (2, 2, 2)])
    def test_a_pool_starts_no_more_workers_than_repetitions(
        self, tmp_path, monkeypatch, reps, jobs, workers
    ):
        import concurrent.futures

        started = []

        class InProcessPool:
            """Records its worker count and maps in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        path = write_config(tmp_path, dict(BASE, reps=reps, jobs=jobs, out=str(tmp_path / "o")))
        assert cli.main(["run", "--config", path]) == 0
        assert started == [workers]
        assert len(os.listdir(tmp_path / "o")) == reps + 2  # the traces, aggregate and sidecar

    def test_a_run_validates_once(self, tmp_path, monkeypatch):
        validations, resolutions = [], []
        validate, resolve = data_io.validate_config, solvers.schedule_for
        for module in (data_io, cli):
            monkeypatch.setattr(module, "validate_config",
                                lambda *a, **k: validations.append(a) or validate(*a, **k))
        monkeypatch.setattr(data_io, "schedule_for",
                            lambda *a, **k: resolutions.append(a[:2]) or resolve(*a, **k))
        path = write_config(tmp_path, dict(BASE, out=str(tmp_path / "runs")))
        assert cli.main(["run", "--config", path, "--seed", "2"]) == 0
        assert len(validations) == 1
        assert resolutions == [("fw_gap", "constant")]

    def test_counter_trace_consistency(self, tmp_path):
        out = str(tmp_path / "runs")
        cfg = {
            "problem": {
                "name": "mean_variance",
                "source": {"kind": "synthetic", "d": 4, "periods": 40},
            },
            "algorithm": "pmvr-v2",
            "schedule": {
                "explicit": {"eta": 0.1, "alpha": 0.3, "b0": 5, "b1": 2, "t": 12,
                             "n": 6, "coeff": 1.0}
            },
            "seed": 3,
            "out": out,
        }
        path = write_config(tmp_path, cfg)
        assert cli.main(["run", "--config", path]) == 0
        trace = read_trace_csv(os.path.join(out, "cfg_rep00.csv"))
        assert trace[-1].sfo == expected_sfo(12, 2, 5, 2)
        assert trace[-1].lmo == expected_lmo(12, 6)

    def test_parallel_reps_match_sequential(self, tmp_path):
        seq_out = str(tmp_path / "seq")
        par_out = str(tmp_path / "par")
        path_seq = write_config(
            tmp_path, dict(BASE, name="s", reps=2, out=seq_out), "seq.json"
        )
        path_par = write_config(
            tmp_path, dict(BASE, name="s", reps=2, jobs=2, out=par_out), "par.json"
        )
        assert cli.main(["run", "--config", path_seq]) == 0
        assert cli.main(["run", "--config", path_par]) == 0
        for i in range(2):
            a = strip_seconds(os.path.join(seq_out, f"s_rep{i:02d}.csv"))
            b = strip_seconds(os.path.join(par_out, f"s_rep{i:02d}.csv"))
            assert a == b

    def test_invalid_config_exit_code(self, tmp_path):
        path = write_config(tmp_path, dict(BASE, schedule={"theorem": "thm1", "eps": 0}))
        assert cli.main(["run", "--config", path]) == 1

    def test_missing_config_exit_code(self):
        assert cli.main(["run", "--config", "/nonexistent.json"]) == 1

    def test_unreadable_config_exits_one(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path)]) == 1
        assert "error: : cannot read the config file" in capsys.readouterr().err
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(dict(BASE, name="caf\u00e9"), ensure_ascii=False).encode("latin-1"))
        assert cli.main(["run", "--config", str(path)]) == 1
        assert "error: : not UTF-8 text at byte offset" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\0b"])
    def test_a_name_that_would_leave_out_exits_one_before_any_run(
        self, tmp_path, capsys, monkeypatch, name
    ):
        monkeypatch.setattr(cli, "execute_rep", lambda cfg, seed: pytest.fail("a repetition ran"))
        out = tmp_path / "sub" / "out"
        path = write_config(tmp_path, dict(BASE, name=name, reps=2, out=str(out)))
        assert cli.main(["run", "--config", path]) == 1
        assert "error: name:" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    @pytest.mark.parametrize("out, flag, message", [
        ("", False, "expected a non-empty path without a NUL, got ''"),
        ("a\0b", False, "expected a non-empty path without a NUL, got '{tmp}/a\\x00b'"),
        ("taken", False, "'{tmp}/taken' exists and is not a directory"),
        ("taken/sub/deeper", False, "'{tmp}/taken' exists and is not a directory"),
        ("taken", True, "'{tmp}/taken' exists and is not a directory"),
    ])
    def test_an_out_that_cannot_be_a_directory_exits_one_before_any_run(
        self, tmp_path, capsys, monkeypatch, out, flag, message
    ):
        monkeypatch.setattr(cli, "execute_rep", lambda cfg, seed: pytest.fail("a repetition ran"))
        (tmp_path / "taken").write_text("a file\n")
        if out:
            out = os.path.join(str(tmp_path), out)
        raw = dict(BASE, reps=2) if flag else dict(BASE, reps=2, out=out)
        path = write_config(tmp_path, raw)
        argv = ["run", "--config", path] + (["--out", out] if flag else [])
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: out: {message.format(tmp=tmp_path)}\n"
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "taken"]

    def test_a_rate_that_rounds_to_zero_at_the_problems_modulus_exits_one(self, tmp_path, capsys):
        # thm7 without schedule.modulus is resolved per repetition, at the
        # quadratic problem's modulus 2: alpha = 1e-320 * 2 * 2**-17 is 0.0
        cfg = {
            "problem": {"name": "quadratic_distance"},
            "algorithm": "stagewise-v2",
            "schedule": {"theorem": "thm7", "eps": 1e-5, "constants": {"alpha": 1e-320}},
            "seed": 1,
            "out": str(tmp_path / "o"),
        }
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: schedule.eps: a rate rounds to zero: alpha must lie in (0, 1], got 0.0\n")
        assert not (tmp_path / "o").exists()

    def test_a_mean_deviation_sidecar_records_the_square_roots_shift(self, tmp_path):
        problem = dict(BASE["problem"], name="mean_deviation")
        cfg = dict(BASE, problem=problem, out=str(tmp_path / "o"))
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 0
        meta = json.loads((tmp_path / "o" / "cfg_meta.json").read_text())
        assert meta["resolved"]["sqrt_shift"] == SQRT_SHIFT

    @pytest.mark.parametrize("problem, locator", [
        ({"name": "single_index", "m": 10**20}, "problem.m"),
        ({"name": "mean_variance", "source": {"kind": "synthetic", "d": 10**20}},
         "problem.source.d"),
    ])
    def test_a_dimension_past_numpys_largest_array_exits_one(
        self, tmp_path, capsys, problem, locator
    ):
        # one field past the bound, which numpy would refuse without allocating
        path = write_config(tmp_path, dict(BASE, problem=problem, out=str(tmp_path / "o")))
        assert cli.main(["run", "--config", path]) == 1
        assert f"error: {locator}: value {10**20} out of range" in capsys.readouterr().err

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch):
        def boom(cfg, seed):
            raise RuntimeError("solver blew up")

        monkeypatch.setattr(cli, "execute_rep", boom)
        path = write_config(tmp_path, dict(BASE, out=str(tmp_path / "out")))
        assert cli.main(["run", "--config", path]) == 2


    @pytest.mark.parametrize(
        "schedule, locator",
        [
            ({"theorem": "thm1", "eps": 0.1, "overrides": {"eta": 5.0}},
             "schedule.overrides.eta"),
            ({"theorem": "thm1", "eps": 0.1, "constants": {"eta": "abc"}},
             "schedule.constants.eta"),
            ({"theorem": "thm1", "eps": 0.1, "overrides": {"b1": 2.7}},
             "schedule.overrides.b1"),
            ({"theorem": "thm1", "eps": 0.1, "constants": {"eta": float("nan")}},
             "schedule.constants.eta"),
            ({"theorem": [1], "eps": 0.1}, "schedule.theorem"),
            ({"theorem": {"thm1": 1}, "eps": 0.1}, "schedule.theorem"),
        ],
    )
    def test_bad_schedule_entry_exits_one_with_locator(self, tmp_path, capsys, schedule, locator):
        path = write_config(tmp_path, dict(BASE, schedule=schedule, out=str(tmp_path / "o")))
        assert cli.main(["run", "--config", path]) == 1
        assert f"error: {locator}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "algorithm, schedule, locator",
        [
            ("pmvr", {"theorem": "thm1", "eps": 1e-200}, "schedule.eps"),
            ("pmvr-v2", {"theorem": "thm1", "eps": 0.1}, "schedule.theorem"),
            # rates that round to zero
            ("pmvr", {"theorem": "thm1", "eps": 1e-5, "constants": {"alpha": 1e-320}},
             "schedule.eps"),
            ("stagewise-v2", {"theorem": "thm7", "eps": 0.5, "modulus": 5e-324},
             "schedule.modulus"),
        ],
    )
    def test_schedule_refused_before_the_run_exits_one(
        self, tmp_path, capsys, algorithm, schedule, locator
    ):
        cfg = dict(BASE, algorithm=algorithm, schedule=schedule, out=str(tmp_path / "o"))
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 1
        assert f"error: {locator}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "problem, set_spec, jobs",
        [
            ({"name": "single_index", "m": 4, "n": 4}, {"kind": "simplex"}, 1),
            (BASE["problem"], {"kind": "box", "lower": [0, 0, 0], "upper": [1, 1, 1]}, 1),
            (BASE["problem"], {"kind": "box", "lower": [0, 0, 0], "upper": [1, 1, 1]}, 2),
        ],
    )
    def test_set_that_does_not_fit_the_problem_exits_one(
        self, tmp_path, capsys, problem, set_spec, jobs
    ):
        cfg = dict(BASE, problem=problem, set=set_spec, reps=2, jobs=jobs,
                   out=str(tmp_path / "o"))
        path = write_config(tmp_path, cfg)
        assert cli.main(["run", "--config", path]) == 1
        assert "error: set:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "set_spec, locator",
        [
            ({"kind": "nuclear_ball", "m": 4, "n": 4}, "set.radius"),
            ({"kind": "nuclear_ball", "m": 4, "n": 4, "radius": 0}, "set.radius"),
            ({"kind": "nuclear_ball", "m": 4, "n": 4, "radius": -1.5}, "set.radius"),
            ({"kind": "nuclear_ball", "m": 0, "n": 4, "radius": 1.0}, "set.m"),
            ({"kind": "nuclear_ball", "m": 4, "n": 2.5, "radius": 1.0}, "set.n"),
            ({"kind": "nuclear_ball", "n": 4, "radius": 1.0}, "set.m"),
            ({"kind": "box", "lower": [0, 2, 0, 0], "upper": [1, 1, 1, 1]}, "set.lower"),
            ({"kind": "box", "lower": [0, 0, 0], "upper": [1, 1, 1, 1]}, "set.lower"),
            ({"kind": "box", "lower": "low", "upper": [1, 1, 1, 1]}, "set.lower"),
            ({"kind": "box", "lower": [0, 0, 0, 0]}, "set.upper"),
        ],
    )
    def test_bad_set_value_exits_one_with_locator(self, tmp_path, capsys, set_spec, locator):
        cfg = dict(BASE, set=set_spec, out=str(tmp_path / "o"))
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 1
        assert f"error: {locator}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "eps, message",
        [
            (1e-320, "the iteration count overflows"),
        ],
    )
    def test_modulus_from_the_problem_is_checked_for_length_before_the_run(
        self, tmp_path, capsys, eps, message
    ):
        # without schedule.modulus the schedule's length is known only once
        # the problem is built, but still before the solver starts
        cfg = {
            "problem": {"name": "quadratic_distance"},
            "algorithm": "stagewise-v2",
            "schedule": {"theorem": "thm7", "eps": eps},
            "seed": 1,
            "out": str(tmp_path / "o"),
        }
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 1
        assert f"error: schedule.eps: {message}" in capsys.readouterr().err
        assert not list((tmp_path / "o").glob("*.csv"))

    @pytest.mark.parametrize(
        "problem, locator",
        [
            ({"name": "quadratic_distance", "c": ["a", 1]}, "problem.c"),
            ({"name": "quadratic_distance", "c": [[1], 2]}, "problem.c"),
            ({"name": "quadratic_distance", "c": [[1, 2], [3, 4]]}, "problem.c"),
            ({"name": "quadratic_distance", "c": [float("nan"), 1]}, "problem.c"),
            ({"name": "quadratic_distance", "c": [1e400, 1]}, "problem.c"),
            ({"name": "quadratic_distance", "c": [None, 1]}, "problem.c"),
            ({"name": "quadratic_distance", "data_seed": 3}, "problem.data_seed"),
            ({"name": "mean_variance", "source": {"kind": "french_csv", "path": None}},
             "problem.source.path"),
            ({"name": "mean_deviation", "source": {"kind": "french_csv", "path": 5}},
             "problem.source.path"),
        ],
    )
    def test_bad_problem_value_exits_one_with_locator(self, tmp_path, capsys, problem, locator):
        cfg = dict(BASE, problem=problem, out=str(tmp_path / "o"))
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 1
        assert f"error: {locator}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_box_set_of_the_right_shape_runs(self, tmp_path):
        cfg = dict(BASE, set={"kind": "box", "lower": [0] * 4, "upper": [0.5] * 4},
                   out=str(tmp_path / "o"))
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 0

    @pytest.mark.parametrize("half_width", [5.0, 0.5])
    def test_a_set_override_on_quadratic_distance_sets_its_optimum(self, half_width):
        """||x - c||^2 is built over the box the run uses: F* = 0 for a box
        that contains c, else ||clip(c) - c||^2, so no gap falls below 0."""
        c = np.array([2.0, -1.0])
        cfg = validate_config({
            "problem": {"name": "quadratic_distance", "c": c.tolist(), "noise": 0.0},
            "set": {"kind": "box", "lower": [-half_width] * 2, "upper": [half_width] * 2},
            "algorithm": "pmvr",
            "schedule": {"explicit": {"eta": 0.5, "alpha": 1.0, "b0": 1, "b1": 1, "t": 20}},
            "seed": 1,
        })
        trace, _ = cli.execute_rep(cfg, 1)
        gap = np.clip(c, -half_width, half_width) - c
        f_star = float(gap @ gap)
        assert f_star == (0.0 if half_width == 5.0 else 2.5)
        assert len(trace) == 21
        for row in trace:
            assert row.objective - row.opt_gap == pytest.approx(f_star, abs=1e-12)
            assert row.opt_gap >= -1e-9

    def test_problem_built_once_per_repetition(self, tmp_path, monkeypatch):
        calls = []
        build = cli.build_problem

        def counted(spec):
            calls.append(spec["name"])
            return build(spec)

        monkeypatch.setattr(cli, "build_problem", counted)
        out = str(tmp_path / "runs")
        assert cli.main(["run", "--config", write_config(tmp_path, dict(BASE, reps=2, out=out))]) == 0
        assert len(calls) == 2
        meta = json.load(open(os.path.join(out, "cfg_meta.json")))
        assert meta["resolved"]["schedule"]["t"] == 30


FRENCH_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "industry10_fixture.txt")


@pytest.mark.parametrize(
    "problem",
    [{"name": name} for name in PROBLEMS]
    + [{"name": name, "source": {"kind": "french_csv", "path": FRENCH_FIXTURE}}
       for name in ("mean_variance", "mean_deviation")],
    ids=lambda p: p["name"] + ("-french_csv" if "source" in p else ""),
)
def test_every_problem_builds_and_sizes_its_simplex(problem):
    cfg = validate_config(dict(BASE, problem=problem, set={"kind": "simplex"}))
    built, fset, x1 = cli.build_problem(cfg.problem)
    assert x1.shape == built.x_shape == fset.shape
    assert fset.contains(x1)
    if cfg.problem["name"] == "single_index":
        # a matrix point does not fit the simplex over its entries
        with pytest.raises(ConfigError, match=rf"set shape \({x1.size},\) does not match"):
            cli.build_feasible_set(cfg.set_spec, built)
    else:
        assert cli.build_feasible_set(cfg.set_spec, built).shape == x1.shape


def test_no_set_builds_nothing_and_reads_no_problem():
    assert cli.build_feasible_set(None, None) is None


class TestFrenchSource:
    @staticmethod
    def _config(tmp_path, path, jobs=1, **extra):
        problem = {"name": "mean_variance", "source": {"kind": "french_csv", "path": path}}
        cfg = dict(BASE, problem=problem, reps=2, jobs=jobs, out=str(tmp_path / "o"), **extra)
        return write_config(tmp_path, cfg)

    @pytest.mark.filterwarnings("ignore:batch size B0 = .* exceeds dataset size:UserWarning")
    def test_file_read_once_per_repetition_with_a_simplex_set(self, tmp_path, monkeypatch):
        calls = []
        load = data_io.load_french_csv

        def counted(path, **kwargs):
            calls.append(path)
            return load(path, **kwargs)

        monkeypatch.setattr(data_io, "load_french_csv", counted)
        path = self._config(tmp_path, FRENCH_FIXTURE, set={"kind": "simplex"})
        assert cli.main(["run", "--config", path]) == 0
        assert calls == [FRENCH_FIXTURE] * 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_missing_file_exits_one_with_locator_and_writes_nothing(
        self, tmp_path, capsys, jobs
    ):
        path = self._config(tmp_path, str(tmp_path / "absent.txt"), jobs)
        assert cli.main(["run", "--config", path]) == 1
        assert "error: problem.source.path: cannot read" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_file_that_is_not_utf8_exits_two_naming_it(self, tmp_path, capsys, jobs):
        data = tmp_path / "latin1.txt"
        data.write_bytes(b"       Food  Beer\n192607  0.5  \xff1.0\n")
        assert cli.main(["run", "--config", self._config(tmp_path, str(data), jobs)]) == 2
        err = capsys.readouterr().err
        assert f"error: {data}: not UTF-8 text at byte offset 31" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_malformed_file_exits_two_and_writes_nothing(self, tmp_path, capsys, jobs):
        data = tmp_path / "bad.txt"
        data.write_text("       Food  Beer\n192607  0.5  oops\n")
        assert cli.main(["run", "--config", self._config(tmp_path, str(data), jobs)]) == 2
        assert "malformed numeric field" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestStagewiseConfig:
    def test_stagewise_runs_from_theorem(self, tmp_path):
        out = str(tmp_path / "runs")
        cfg = {
            "problem": {"name": "quadratic_distance", "c": [2.0, -1.0], "noise": 0.02},
            "algorithm": "stagewise-v2",
            "schedule": {"theorem": "thm7", "eps": 0.25},
            "seed": 5,
            "out": out,
        }
        path = write_config(tmp_path, cfg)
        assert cli.main(["run", "--config", path]) == 0
        trace = read_trace_csv(os.path.join(out, "cfg_rep00.csv"))
        assert max(row.stage for row in trace) >= 2
        assert trace[-1].opt_gap is not None


def reference_schedule(cfg, problem):
    """The schedule of a validated config, resolved as the command line
    resolved it per repetition before validation kept one."""
    sched = cfg.schedule
    if sched["mode"] == "theorem":
        criterion, batch_mode = cli.THEOREMS[sched["theorem"]]
        lam = sched.get("modulus", problem.metadata.strong_convexity)
        out = schedule_for(
            criterion, batch_mode, sched["eps"], constants=ScheduleConstants(**sched["constants"]),
            strong_convexity=lam, beta=cfg.beta,
        )
        overrides = dict(sched["overrides"])
        n = overrides.pop("n", None)
        if "t" in overrides:
            overrides["iters"] = overrides.pop("t")
        out = replace(out, **overrides)
        if n is not None:
            out = replace(out, subsolver=replace(out.subsolver, inner_iters=n))
        return out

    def params(block):
        sub = None
        if "n" in block:
            sub = QuadraticSubsolver(coeff=block["coeff"], inner_iters=block["n"])
        return SolverParams(eta=block["eta"], alpha=block["alpha"], b0=block["b0"],
                            b1=block["b1"], iters=block["t"], subsolver=sub)

    if sched["mode"] == "explicit":
        return params(sched["explicit"])
    stages = [params({**sched, **st}) for st in sched["stages"]]
    return StageSchedule(stages=stages)


STAGE = {"eta": 0.2, "alpha": 0.5, "b1": 2, "t": 4}
LATER = {"eta": 0.1, "alpha": 0.25, "b1": 3, "t": 6}
EXPLICIT = {"eta": 0.05, "alpha": 0.5, "b0": 3, "b1": 2, "t": 7}


class TestScheduleResolution:
    @pytest.mark.parametrize("algorithm, schedule", [
        ("pmvr", {"theorem": "thm1", "eps": 0.3}),
        ("pmvr", {"theorem": "thm2", "eps": 0.3, "constants": {"t": 2.0, "b0": 3.0}}),
        ("pmvr-v2", {"theorem": "thm3", "eps": 0.3, "constants": {"n": 0.5}}),
        ("pmvr-v2", {"theorem": "thm4", "eps": 0.3}),
        ("stagewise", {"theorem": "thm5", "eps": 0.2}),
        ("stagewise", {"theorem": "thm6", "eps": 0.2, "constants": {"eps1": 0.5}}),
        ("stagewise-v2", {"theorem": "thm7", "eps": 0.2}),
        ("stagewise-v2", {"theorem": "thm7", "eps": 0.2, "modulus": 3.0}),
        ("stagewise-v2", {"theorem": "thm8", "eps": 0.2}),
        ("stagewise-v2", {"theorem": "thm8", "eps": 0.2, "modulus": 0.5}),
        ("pmvr", {"explicit": EXPLICIT}),
        ("pmvr-v2", {"explicit": dict(EXPLICIT, n=4, coeff=0.75)}),
        ("baseline", {"explicit": {"eta": 0.05, "alpha": 1, "b1": 2, "t": 9}}),
        ("stagewise", {"stages": [STAGE, LATER], "b0": 5}),
        ("stagewise-v2", {"stages": [STAGE, LATER], "n": 3, "coeff": 0.5}),
        *[("pmvr-v2", {"theorem": "thm3", "eps": 0.3, "overrides": {key: value}})
          for key, value in (("eta", 1), ("alpha", 0.5), ("b0", 4), ("b1", 5), ("t", 11),
                             ("n", 6))],
        ("pmvr", {"theorem": "thm1", "eps": 0.3,
                  "overrides": {"eta": 0.2, "alpha": 0.4, "b0": 2, "b1": 3, "t": 12}}),
    ])
    def test_resolved_schedule_is_the_per_repetition_one(self, algorithm, schedule):
        raw = dict(BASE, problem={"name": "quadratic_distance"}, algorithm=algorithm,
                   schedule=schedule, beta=0.25)
        cfg = validate_config(raw)
        problem, _, _ = cli.build_problem(cfg.problem)
        want = reference_schedule(cfg, problem)
        assert cli.build_schedule(cfg, problem) == want
        takes_problem_modulus = schedule.get("theorem") in ("thm7", "thm8") and (
            "modulus" not in schedule)
        assert (cfg.resolved is None) == takes_problem_modulus
        if not takes_problem_modulus:
            assert cfg.resolved == want

    @pytest.mark.parametrize("overrides", [{}, {"overrides": {"t": 30}}])
    def test_schedule_resolved_once_per_config(self, tmp_path, monkeypatch, overrides):
        calls = []
        resolve = solvers.schedule_for

        def counted(*args, **kwargs):
            calls.append(args[:2])
            return resolve(*args, **kwargs)

        for module in (solvers, data_io, cli):
            if hasattr(module, "schedule_for"):
                monkeypatch.setattr(module, "schedule_for", counted)
        raw = dict(BASE, reps=3, out=str(tmp_path / "o"),
                   schedule={"theorem": "thm1", "eps": 0.2, **overrides})
        cli.run_config(validate_config(raw))
        assert calls == [("fw_gap", "constant")]

    @pytest.mark.parametrize("stages, message", [
        ([LATER, STAGE], "stage iteration counts must be non-decreasing"),
        ([STAGE, dict(STAGE, alpha=0.75)], "eta and alpha must be non-increasing across stages"),
    ])
    def test_a_stage_list_out_of_order_fails_at_run_time(self, tmp_path, capsys, stages, message):
        # `pmvr run` refuses it at validation, before any problem or output is built
        cfg = dict(BASE, algorithm="stagewise", schedule={"stages": stages},
                   out=str(tmp_path / "o"))
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 1
        assert f"error: schedule.stages: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_a_stage_list_out_of_order_builds_no_problem(self, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_problem", lambda spec: built.append(spec))
        cfg = dict(BASE, algorithm="stagewise", schedule={"stages": [STAGE, LATER, STAGE]},
                   out=str(tmp_path / "o"))
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: schedule.stages: ")
        assert built == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("stages, message", [
        ([LATER, STAGE], "stage iteration counts must be non-decreasing"),
        ([STAGE, dict(STAGE, eta=0.25)], "eta and alpha must be non-increasing across stages"),
        ([STAGE, dict(STAGE, alpha=0.75)], "eta and alpha must be non-increasing across stages"),
        ([], "a stage schedule needs at least one stage"),
    ])
    def test_stage_schedule_refuses_stages_out_of_order(self, stages, message):
        params = [SolverParams(eta=st["eta"], alpha=st["alpha"], b0=1, b1=st["b1"],
                               iters=st["t"]) for st in stages]
        with pytest.raises(ValueError, match=message):
            StageSchedule(stages=params)

    @pytest.mark.parametrize("schedule, eps1", [
        ({"stages": [STAGE, LATER], "b0": 5}, 1.0),
        ({"theorem": "thm6", "eps": 0.2, "constants": {"eps1": 0.5}}, 0.5),
    ])
    def test_the_sidecar_records_eps1_halved_per_stage(self, schedule, eps1):
        cfg = validate_config(dict(BASE, problem={"name": "quadratic_distance"},
                                   algorithm="stagewise", schedule=schedule, beta=0.25))
        problem, _, _ = cli.build_problem(cfg.problem)
        described = data_io.describe_schedule(cli.build_schedule(cfg, problem))
        assert len(described["stages"]) == 2 and described["eps1"] == eps1
        assert described["targets"] == [eps1 / 2, eps1 / 4]

    def test_a_modulus_from_the_problem_is_required(self):
        cfg = validate_config(dict(BASE, algorithm="stagewise-v2",
                                   schedule={"theorem": "thm8", "eps": 0.2}))
        problem, _, _ = cli.build_problem(cfg.problem)
        with pytest.raises(ConfigError, match="positive modulus") as err:
            cli.build_schedule(cfg, problem)
        assert err.value.path == "schedule.modulus"


def test_every_algorithm_entry_point_takes_one_signature():
    """``execute_rep`` calls each entry point as (problem, fset, schedule,
    x1, rng, trace=...); the schedule slot is ``params`` or ``schedule``."""
    shapes = set()
    for entry in data_io.ALGORITHMS.values():
        parameters = list(inspect.signature(getattr(solvers, entry.run)).parameters.values())
        assert parameters[2].name in ("params", "schedule")
        shapes.add(tuple(
            ("schedule" if i == 2 else p.name, p.kind, p.default)
            for i, p in enumerate(parameters)
        ))
    (shape,) = shapes
    assert [name for name, _, _ in shape] == ["problem", "fset", "schedule", "x1", "rng", "trace"]
    assert shape[-1][2] is None


# one small config per algorithm; pmvr-v2 runs on a 20 x 20 nuclear ball, so
# the workers take the shifted-solve LMO and the metric rows' projection
# from the Gram matrix
POOL_CONFIGS = {
    "pmvr": ({"name": "quadratic_distance"}, {"explicit": EXPLICIT}),
    "pmvr-v2": ({"name": "single_index", "m": 20, "n": 20},
                {"explicit": dict(EXPLICIT, eta=0.126, b0=4, n=3, coeff=1.0)}),
    "stagewise": ({"name": "quadratic_distance"}, {"stages": [STAGE, LATER], "b0": 5}),
    "stagewise-v2": ({"name": "quadratic_distance"},
                     {"stages": [STAGE, LATER], "n": 3, "coeff": 0.5}),
    "baseline": (BASE["problem"], {"explicit": {"eta": 0.05, "alpha": 1, "b1": 2, "t": 9}}),
}


def run_files(out):
    """Every file a run wrote, by name: traces and aggregate with their
    ``seconds`` columns blanked, the sidecar without the config's ``jobs``
    and ``out``."""
    files = {}
    for name in sorted(os.listdir(out)):
        text = open(os.path.join(out, name)).read()
        if name.endswith(".json"):
            meta = json.loads(text)
            del meta["config"]["jobs"], meta["config"]["out"]
            files[name] = meta
            continue
        rows = [line.split(",") for line in text.splitlines()]
        wall = [i for i, column in enumerate(rows[0]) if column.startswith("seconds")]
        files[name] = [[("-" if i in wall and r else cell) for i, cell in enumerate(row)]
                       for r, row in enumerate(rows)]
    return files


@pytest.mark.parametrize("algorithm", sorted(data_io.ALGORITHMS))
def test_a_pool_of_two_writes_the_files_of_a_sequential_run(tmp_path, algorithm):
    """Three repetitions at jobs 1 and at jobs 2 write the same traces,
    aggregate and sidecar, apart from the wall-clock columns."""
    problem, schedule = POOL_CONFIGS[algorithm]
    outs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        cfg = dict(BASE, problem=problem, algorithm=algorithm, schedule=schedule,
                   reps=3, jobs=jobs, out=str(out))
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 0
        outs.append(run_files(out))
    assert len(outs[0]) == 5  # three traces, the aggregate and the sidecar
    assert outs[0] == outs[1]


class TestReproduce:
    def test_paper_scale_requires_data_path(self, capsys):
        rc = cli.main(["reproduce", "--experiment", "mv-portfolio", "--scale", "paper"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "French" in err and "--data" in err

    @pytest.mark.parametrize("scale", ["desk", "paper"])
    @pytest.mark.parametrize("experiment", ["matrix", "mv-portfolio", "md-portfolio"])
    def test_data_path_is_refused_where_it_would_be_ignored(
            self, experiment, scale, tmp_path, monkeypatch, capsys):
        """``--data`` is read only by a portfolio experiment at paper scale;
        anywhere else the command exits 1 naming ``data`` before any run."""
        data = tmp_path / "returns.csv"
        data.write_text("")
        out = tmp_path / "out"
        monkeypatch.setenv("PMVR_OUT_DIR", str(out))
        if experiment != "matrix" and scale == "paper":
            configs = cli._reproduce_configs(experiment, scale, str(data))
            assert all(raw["problem"]["source"] == {"kind": "french_csv", "path": str(data)}
                       for raw in configs.values())
            return
        rc = cli.main(["reproduce", "--experiment", experiment, "--scale", scale,
                       "--data", str(data)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: data: --data is read only by")
        assert not out.exists()

    @pytest.mark.parametrize("env, out", [("elsewhere", "elsewhere"), (None, "runs")])
    def test_every_recipe_writes_to_validations_default_out(self, env, out, monkeypatch):
        outs = []
        monkeypatch.setattr(cli, "run_config", lambda cfg: outs.append(cfg.out) or ([], "", ""))
        if env is None:
            monkeypatch.delenv("PMVR_OUT_DIR", raising=False)
        else:
            monkeypatch.setenv("PMVR_OUT_DIR", env)
        assert cli.main(["reproduce", "--experiment", "mv-portfolio", "--scale", "desk"]) == 0
        assert outs == [out] * 3

    @staticmethod
    def _agg_column(path, column):
        import csv

        rows = list(csv.DictReader(open(path)))
        return float(rows[0][column]), float(rows[-1][column])

    def test_mv_portfolio_desk_recipe(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PMVR_OUT_DIR", str(tmp_path))
        rc = cli.main(["reproduce", "--experiment", "mv-portfolio", "--scale", "desk"])
        assert rc == 0
        files = os.listdir(tmp_path)
        assert len([f for f in files if f.endswith("_agg.csv")]) == 3
        assert len([f for f in files if "_rep" in f]) == 3 * cli.DESK_REPS
        # regression threshold pinned from the first verified run of this recipe
        for algo in ("pmvr", "pmvr-v2"):
            first, last = self._agg_column(
                os.path.join(tmp_path, f"mv-portfolio_desk_{algo}_agg.csv"),
                "grad_map_mean",
            )
            assert last < first / 10.0, algo

    def test_matrix_desk_recipe(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PMVR_OUT_DIR", str(tmp_path))
        rc = cli.main(["reproduce", "--experiment", "matrix", "--scale", "desk"])
        assert rc == 0
        # regression threshold pinned from the first verified run of this recipe
        first, last = self._agg_column(
            os.path.join(tmp_path, "matrix_desk_pmvr-v2_agg.csv"), "fw_gap_mean"
        )
        assert last < first / 5.0


def test_the_cli_module_runs_as_a_script(monkeypatch, capsys):
    """``python -m pmvr.cli --help`` prints the usage and exits 0. The same
    run in this process, through runpy as ``python -m`` does it, is the one
    a line tracer of the test process sees."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, "-m", "pmvr.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")
    # a fresh module, as runpy expects: no warning that pmvr.cli is loaded already
    monkeypatch.delitem(sys.modules, "pmvr.cli", raising=False)
    monkeypatch.setattr(sys, "argv", ["pmvr", "--help"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("pmvr.cli", run_name="__main__", alter_sys=True)
    assert exit_.value.code == 0
    assert capsys.readouterr().out == done.stdout


def test_importing_the_cli_loads_no_process_pool_modules():
    """``import pmvr.cli`` leaves concurrent.futures and multiprocessing
    unloaded (a run imports them only when it starts a pool), so a run with
    jobs = 1 does not carry their memory."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    code = ("import sys, pmvr.cli; print(sorted(m for m in "
            "('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
