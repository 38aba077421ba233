import json
import os

import numpy as np
import pytest

from pmvr import cli
from pmvr.checks import run_suites, subsolver_suite
from pmvr.data_io import PROBLEMS, read_trace_csv, validate_config
from pmvr.metrics import expected_lmo, expected_sfo


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
            ("pmvr", {"theorem": "thm1", "eps": 0.1, "overrides": {"t": 1048576}},
             "schedule.overrides.t"),
            ("pmvr-v2", {"theorem": "thm1", "eps": 0.1}, "schedule.theorem"),
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
            # thm7 at this eps resolves to 2**21 - 1 iterations
            (4.76837158203125e-07, "2097151 iterations reach the stream stride 1048576"),
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
    spec = validate_config(dict(BASE, problem=problem)).problem
    built, fset, x1 = cli.build_problem(spec)
    assert x1.shape == built.x_shape == fset.shape
    assert fset.contains(x1)
    simplex = cli.build_feasible_set({"kind": "simplex"}, spec)
    assert simplex.shape == (x1.size,)
    # a matrix point does not fit the simplex over its entries
    assert (simplex.shape == built.x_shape) == (spec["name"] != "single_index")


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


class TestCheck:
    def test_all_suites_green(self):
        results = run_suites("all")
        assert all(r.passed for r in results)

    def test_cli_exit_zero(self, capsys):
        assert cli.main(["check", "--suite", "oracles"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out

    def test_corrupted_gamma_rule_fails_subsolver_suite(self):
        # negative control: a wrong inner step size must break the certificate
        results = subsolver_suite(gamma=lambda n: 0.9)
        assert any(not r.passed for r in results)


class TestReproduce:
    def test_paper_scale_requires_data_path(self, capsys):
        rc = cli.main(["reproduce", "--experiment", "mv-portfolio", "--scale", "paper"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "French" in err and "--data" in err

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
