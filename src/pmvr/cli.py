"""Command-line harness: configured runs and experiment recipes.

Exit codes: 0 success, 1 validation error, 2 runtime/solver error. The
default output directory comes from the PMVR_OUT_DIR environment variable;
everything else arrives via flags or the configuration file. A run builds
its problem and any configured set from the entries of
``data_io.PROBLEMS`` and ``data_io.SETS``, once per repetition, runs the
schedule that validation resolved with the entry point its
``data_io.ALGORITHMS`` entry names, and creates its output directory only
once every repetition has returned; an ``out`` that names a file, or lies
under one, is refused before the first repetition. The oracle, gradient
and subsolver self-checks are tests (C1, C2 and C5 in
``tests/test_acceptance.py``), not a command.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .benchmarks import SQRT_SHIFT
from .data_io import (
    ALGORITHMS,
    ConfigError,
    PROBLEMS,
    SETS,
    THEOREMS,
    describe_schedule,
    load_run_config,
    resolve_schedule,
    validate_config,
    write_aggregate_csv,
    write_metadata,
    write_trace_csv,
)
from .rng import RandomSource
from .solvers import TraceConfig, pmvr_run, projected_baseline_run, stagewise_run


def build_problem(spec):
    """Instantiate (problem, feasible set, default start point) from config."""
    return PROBLEMS[spec["name"]].build(spec)


def build_feasible_set(set_spec, problem):
    """The set a config's resolved ``set`` section names for the built
    ``problem``, or None when it names none; a set that does not fit the
    problem's point is a ``set`` ConfigError."""
    if set_spec is None:
        return None
    fset = SETS[set_spec["kind"]].build(set_spec, problem)
    if fset.shape != problem.x_shape:
        raise ConfigError(
            "set",
            f"set shape {fset.shape} does not match the problem's "
            f"point shape {problem.x_shape}",
        )
    return fset


def build_schedule(cfg, problem):
    """The config's SolverParams or StageSchedule, as validation resolved it
    or, if it takes the problem's modulus, as resolved for ``problem``."""
    if cfg.resolved is not None:
        return cfg.resolved
    return resolve_schedule(cfg.schedule, cfg.beta, problem)


def execute_rep(cfg, seed):
    """One full solver run for one repetition seed; returns (trace, schedule)."""
    problem, fset, x1 = build_problem(cfg.problem)
    override = build_feasible_set(cfg.set_spec, problem)
    if override is not None:
        fset = override
        x1 = fset.project(x1)
    schedule = build_schedule(cfg, problem)
    rng = RandomSource(seed)
    trace_cfg = TraceConfig(
        metric_every=cfg.metric_every, beta=cfg.beta, keep_iterates=False
    )
    # the entry point is looked up now, so a wrapper installed on this
    # module is the one that runs
    result = globals()[ALGORITHMS[cfg.algorithm].run](
        problem, fset, schedule, x1, rng, trace=trace_cfg
    )
    return result.trace, schedule


def _check_out(out):
    """Refuse an ``out`` that names a file or lies under one: its nearest
    existing ancestor, the working directory for a relative path, must be a
    directory. Nothing is created."""
    path = out
    while path and not os.path.lexists(path):
        path = os.path.dirname(path)
    if path and not os.path.isdir(path):
        raise ConfigError("out", f"{path!r} exists and is not a directory")


def run_config(cfg):
    """Execute all repetitions of a validated config and write the files;
    ``out`` is checked before the first repetition runs."""
    _check_out(cfg.out)
    seeds = [cfg.seed + i for i in range(cfg.reps)]
    if cfg.jobs > 1 and cfg.reps > 1:
        # imported here: concurrent.futures pulls in multiprocessing, and
        # most runs never start a pool
        from concurrent.futures import ProcessPoolExecutor

        # a pool forks all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(seeds))) as pool:
            results = list(pool.map(execute_rep, [cfg] * len(seeds), seeds))
    else:
        results = [execute_rep(cfg, seed) for seed in seeds]
    traces = [trace for trace, _ in results]
    schedule = results[0][1]  # built from the config and problem alone
    os.makedirs(cfg.out, exist_ok=True)
    paths = []
    for idx, trace in enumerate(traces):
        path = os.path.join(cfg.out, f"{cfg.name}_rep{idx:02d}.csv")
        write_trace_csv(trace, path)
        paths.append(path)
    agg_path = os.path.join(cfg.out, f"{cfg.name}_agg.csv")
    write_aggregate_csv(traces, agg_path)
    meta_path = os.path.join(cfg.out, f"{cfg.name}_meta.json")
    problem_notes = {}
    if cfg.problem["name"] == "mean_deviation":
        problem_notes["sqrt_shift"] = SQRT_SHIFT
    write_metadata(
        meta_path,
        {
            "version": __version__,
            "config": cfg.raw,
            "resolved": {
                "problem": cfg.problem,
                "algorithm": cfg.algorithm,
                "schedule": describe_schedule(schedule),
                "beta": cfg.beta,
                "seeds": seeds,
                "metric_every": cfg.metric_every,
                **problem_notes,
            },
            "traces": [os.path.basename(p) for p in paths],
            "aggregate": os.path.basename(agg_path),
        },
    )
    return paths, agg_path, meta_path


def cmd_run(args):
    cfg = load_run_config(args.config, seed=args.seed, reps=args.reps, out=args.out)
    paths, agg_path, meta_path = run_config(cfg)
    for p in paths:
        print(f"trace: {p}")
    print(f"aggregate: {agg_path}")
    print(f"metadata: {meta_path}")
    return 0


DESK_REPS = 5


def _reproduce_configs(experiment, scale, data_path):
    """Configs for the three solvers on one experiment, at desk or paper scale:
    each experiment states its problem, T and schedules, and one block
    builds the pmvr, pmvr-v2 and baseline configs from them. Only the
    portfolio experiments at paper scale read a returns file; a
    ``data_path`` given anywhere else is a ``data`` ConfigError, not
    ignored."""
    if data_path and (experiment == "matrix" or scale == "desk"):
        raise ConfigError(
            "data",
            f"--data is read only by the portfolio experiments at paper scale, "
            f"not by {experiment} at {scale} scale",
        )
    v2_extra = {}
    if experiment == "matrix":
        problem = {"name": "single_index", "m": 20, "n": 20, "s": 1.0, "sigma": 0.1}
        t_run = 2000
        eps_v2 = 2000.0 ** (-2.0 / 3.0)  # thm3 iteration count comes out at 2000
        schedules = (
            {"theorem": "thm1", "eps": 0.1, "overrides": {"t": t_run}},
            {"theorem": "thm3", "eps": eps_v2,
             "constants": {"eta": 0.126, "alpha": 8.0, "b1": 8.0, "b0": 16.0,
                           "n": 10.0 * eps_v2}},
            {"explicit": {"eta": 0.05, "alpha": 1.0, "b0": 10, "b1": 1, "t": t_run}},
        )
    else:
        if scale == "desk":
            source = {"kind": "synthetic", "d": 10, "periods": 500}
        elif data_path:
            source = {"kind": "french_csv", "path": data_path}
        else:
            raise ConfigError(
                "data",
                "paper scale needs the industry returns file; download it from "
                "the Kenneth R. French data library (see README, 'Full-scale "
                "data') and pass --data PATH",
            )
        name = "mean_variance" if experiment == "mv-portfolio" else "mean_deviation"
        problem = {"name": name, "lambda": 1.0, "source": source}
        t_run = 1000 if scale == "desk" else 10000
        # the three-level deviation objective carries a steep smoothed square
        # root, so its recipes average harder per step than the two-level one
        if name == "mean_deviation":
            pmvr_constants = {"alpha": 3.0, "b1": 8.0, "b0": 10.0}
            v2_constants = {"eta": 0.45, "alpha": 1.0, "b1": 8.0, "b0": 22.4, "n": 0.5}
        else:
            pmvr_constants, v2_constants = {}, {"n": 0.5}
        schedules = (
            {"theorem": "thm1", "eps": 0.1, "constants": pmvr_constants,
             "overrides": {"t": t_run}},
            {"theorem": "thm3", "eps": 0.05, "constants": v2_constants,
             "overrides": {"t": t_run}},
            {"explicit": {"eta": 0.05, "alpha": 0.5, "b0": 10, "b1": 1, "t": t_run}},
        )
        # the quadratic subsolver's curvature must sit at the problem's
        # scale (fractional returns), not the unit default
        v2_extra = {"beta": 0.01}
    common = {"problem": problem, "seed": 1, "reps": DESK_REPS if scale == "desk" else 50}
    return {
        algo: dict(common, algorithm=algo, schedule=schedule,
                   **(v2_extra if algo == "pmvr-v2" else {}))
        for algo, schedule in zip(("pmvr", "pmvr-v2", "baseline"), schedules)
    }


def cmd_reproduce(args):
    out_dir = os.environ.get("PMVR_OUT_DIR", "runs")
    configs = _reproduce_configs(args.experiment, args.scale, args.data)
    for algo, raw in configs.items():
        raw = dict(raw)
        raw["out"] = out_dir
        cfg = validate_config(raw, name=f"{args.experiment}_{args.scale}_{algo}")
        paths, agg_path, _ = run_config(cfg)
        print(f"{algo}: {len(paths)} traces, aggregate {agg_path}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pmvr",
        description="Projection-free variance-reduced multi-level optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--reps", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("reproduce", help="run a benchmark experiment recipe")
    p_rep.add_argument(
        "--experiment", required=True,
        choices=["matrix", "mv-portfolio", "md-portfolio"],
    )
    p_rep.add_argument("--scale", required=True, choices=["desk", "paper"])
    p_rep.add_argument("--data", default=None)
    p_rep.set_defaults(func=cmd_reproduce)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver / IO failures
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
