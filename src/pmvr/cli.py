"""Command-line harness: configured runs, self checks, experiment recipes.

Exit codes: 0 success, 1 validation error, 2 runtime/solver error,
3 self-check failure. The default output directory comes from the
PMVR_OUT_DIR environment variable; everything else arrives via flags or
the configuration file.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import __version__
from .benchmarks import SQRT_SHIFT
from .checks import run_suites
from .data_io import (
    ConfigError,
    PROBLEMS,
    THEOREMS,
    _check_total,
    load_run_config,
    validate_config,
    write_metadata,
    write_trace_csv,
)
from .rng import RandomSource
from .sets import Box, NuclearNormBall, Simplex
from .solvers import (
    QuadraticSubsolver,
    ScheduleConstants,
    SolverParams,
    StageSchedule,
    TraceConfig,
    pmvr_run,
    projected_baseline_run,
    schedule_for,
    stagewise_run,
)


def build_problem(spec):
    """Instantiate (problem, feasible set, default start point) from config."""
    return PROBLEMS[spec["name"]].build(spec)


def build_feasible_set(set_spec, problem_spec):
    """The set a config's ``set`` section names, or None when it names none.

    A simplex spans the problem's flattened point, whose length the problem
    section gives; for a data file it is the file's asset count, so the
    file is read here as well.
    """
    if set_spec is None:
        return None
    kind = set_spec["kind"]
    if kind == "box":
        return Box(np.asarray(set_spec["lower"]), np.asarray(set_spec["upper"]))
    if kind == "nuclear_ball":
        return NuclearNormBall(set_spec["m"], set_spec["n"], set_spec["radius"])
    return Simplex(PROBLEMS[problem_spec["name"]].size(problem_spec))


def build_schedule(cfg, problem):
    """Resolve the schedule section into SolverParams or a StageSchedule."""
    sched = cfg.schedule
    if sched["mode"] == "theorem":
        criterion, batch_mode = THEOREMS[sched["theorem"]]
        constants = ScheduleConstants(**sched["constants"])
        lam = sched.get("modulus", problem.metadata.strong_convexity)
        if criterion == "strongly_convex_gap" and (lam is None or lam <= 0):
            raise ConfigError(
                "schedule.modulus",
                "strongly convex schedules need a positive modulus "
                "(set schedule.modulus or use a problem that declares one)",
            )
        try:
            out = schedule_for(
                criterion, batch_mode, sched["eps"], constants=constants,
                strong_convexity=lam, beta=cfg.beta,
            )
        except ArithmeticError:  # so small an eps that the count overflows
            raise ConfigError("schedule.eps", "the iteration count overflows") from None
        overrides = dict(sched["overrides"])
        if overrides:
            n = overrides.pop("n", None)
            if "t" in overrides:
                overrides["iters"] = overrides.pop("t")
            out = replace(out, **overrides)
            if n is not None and out.subsolver is not None:
                out = replace(out, subsolver=replace(out.subsolver, inner_iters=n))
        # validation resolved every length but that of a modulus taken from
        # the problem, which is known only now
        _check_total("schedule.eps", sum(p.iters for p in getattr(out, "stages", [out])))
        return out

    def params(block):  # validation puts n and coeff together, for -v2 only
        sub = None
        if "n" in block:
            sub = QuadraticSubsolver(coeff=block["coeff"], inner_iters=block["n"])
        return SolverParams(
            eta=block["eta"], alpha=block["alpha"], b0=block["b0"],
            b1=block["b1"], iters=block["t"], subsolver=sub,
        )

    if sched["mode"] == "explicit":
        return params(sched["explicit"])
    # explicit stages share the schedule's b0, n and coeff
    stages = [params({**sched, **st}) for st in sched["stages"]]
    targets = [1.0 / 2**s for s in range(1, len(stages) + 1)]
    return StageSchedule(stages=stages, targets=targets)


def execute_rep(cfg, seed):
    """One full solver run for one repetition seed; returns (trace, schedule)."""
    problem, fset, x1 = build_problem(cfg.problem)
    override = build_feasible_set(cfg.set_spec, cfg.problem)
    if override is not None:
        if override.shape != problem.x_shape:
            raise ConfigError(
                "set",
                f"set shape {override.shape} does not match the problem's "
                f"point shape {problem.x_shape}",
            )
        fset = override
        x1 = fset.project(x1)
    schedule = build_schedule(cfg, problem)
    rng = RandomSource(seed)
    trace_cfg = TraceConfig(
        metric_every=cfg.metric_every, beta=cfg.beta, keep_iterates=False
    )
    if cfg.algorithm == "baseline":
        block = cfg.schedule["explicit"]
        result = projected_baseline_run(
            problem, fset, block["eta"], block["alpha"], block["b1"],
            block["t"], x1, rng, trace=trace_cfg,
        )
    elif cfg.algorithm in ("stagewise", "stagewise-v2"):
        result = stagewise_run(problem, fset, schedule, x1, rng, trace=trace_cfg)
    else:
        result = pmvr_run(problem, fset, schedule, x1, rng, trace=trace_cfg)
    return result.trace, schedule


def aggregate_rows(traces):
    """Mean/std per metric across repetitions, aligned on the iteration grid."""
    grids = [[(r.iteration, r.stage) for r in t] for t in traces]
    if any(g != grids[0] for g in grids[1:]):
        raise RuntimeError("repetitions produced different iteration grids")
    out = []
    for idx, (iteration, stage) in enumerate(grids[0]):
        rows = [t[idx] for t in traces]

        def stats(attr):
            vals = [getattr(r, attr) for r in rows]
            if any(v is None for v in vals):
                return None, None
            arr = np.asarray(vals, dtype=np.float64)
            return float(arr.mean()), float(arr.std())

        record = {
            "iter": iteration,
            "stage": stage,
            "sfo": rows[0].sfo,
            "lmo": rows[0].lmo,
            "seconds_mean": float(np.mean([r.seconds for r in rows])),
        }
        for attr in ("objective", "fw_gap", "grad_map", "opt_gap"):
            mean, std = stats(attr)
            record[f"{attr}_mean"] = mean
            record[f"{attr}_std"] = std
        out.append(record)
    return out


AGG_HEADER = (
    "iter,stage,sfo,lmo,seconds_mean,objective_mean,objective_std,"
    "fw_gap_mean,fw_gap_std,grad_map_mean,grad_map_std,opt_gap_mean,opt_gap_std"
)


def write_aggregate_csv(records, path):
    def fmt(v):
        return "" if v is None else f"{v:.17g}"

    lines = [AGG_HEADER]
    for r in records:
        lines.append(
            ",".join(
                [
                    str(r["iter"]), str(r["stage"]), str(r["sfo"]), str(r["lmo"]),
                    fmt(r["seconds_mean"]),
                    fmt(r["objective_mean"]), fmt(r["objective_std"]),
                    fmt(r["fw_gap_mean"]), fmt(r["fw_gap_std"]),
                    fmt(r["grad_map_mean"]), fmt(r["grad_map_std"]),
                    fmt(r["opt_gap_mean"]), fmt(r["opt_gap_std"]),
                ]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def run_config(cfg):
    """Execute all repetitions of a validated config and write the files."""
    os.makedirs(cfg.out, exist_ok=True)
    seeds = [cfg.seed + i for i in range(cfg.reps)]
    if cfg.jobs > 1 and cfg.reps > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(execute_rep, [cfg] * len(seeds), seeds))
    else:
        results = [execute_rep(cfg, seed) for seed in seeds]
    traces = [trace for trace, _ in results]
    schedule = results[0][1]  # built from the config and problem alone
    paths = []
    for idx, trace in enumerate(traces):
        path = os.path.join(cfg.out, f"{cfg.name}_rep{idx:02d}.csv")
        write_trace_csv(trace, path)
        paths.append(path)
    agg_path = os.path.join(cfg.out, f"{cfg.name}_agg.csv")
    write_aggregate_csv(aggregate_rows(traces), agg_path)
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
                "schedule": _describe_schedule(schedule),
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


def _describe_schedule(schedule):
    if isinstance(schedule, SolverParams):
        return _params_dict(schedule)
    return {
        "stages": [_params_dict(p) for p in schedule.stages],
        "targets": schedule.targets,
        "eps1": schedule.eps1,
    }


def _params_dict(p):
    out = {"eta": p.eta, "alpha": p.alpha, "b0": p.b0, "b1": p.b1, "t": p.iters}
    if p.subsolver is not None:
        out["n"] = p.subsolver.inner_iters
        out["coeff"] = p.subsolver.coeff
    return out


def cmd_run(args):
    cfg = load_run_config(args.config)
    data = dict(cfg.raw)
    if args.seed is not None:
        data["seed"] = args.seed
    if args.reps is not None:
        data["reps"] = args.reps
    if args.out is not None:
        data["out"] = args.out
    cfg = validate_config(data, name=cfg.name)
    paths, agg_path, meta_path = run_config(cfg)
    for p in paths:
        print(f"trace: {p}")
    print(f"aggregate: {agg_path}")
    print(f"metadata: {meta_path}")
    return 0


def cmd_check(args):
    results = run_suites(args.suite)
    failed = 0
    for res in results:
        print(res.line())
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 3


DESK_REPS = 5


def _reproduce_configs(experiment, scale, data_path):
    """Configs for the three solvers on one experiment, at desk or paper scale."""
    if experiment == "matrix":
        problem = {"name": "single_index", "m": 20, "n": 20, "s": 1.0, "sigma": 0.1}
        reps = DESK_REPS if scale == "desk" else 50
        eps_v2 = 2000.0 ** (-2.0 / 3.0)  # thm3 iteration count comes out at 2000
        return {
            "pmvr": {
                "problem": problem, "algorithm": "pmvr",
                "schedule": {"theorem": "thm1", "eps": 0.1, "overrides": {"t": 2000}},
                "seed": 1, "reps": reps,
            },
            "pmvr-v2": {
                "problem": problem, "algorithm": "pmvr-v2",
                "schedule": {
                    "theorem": "thm3", "eps": eps_v2,
                    "constants": {"eta": 0.126, "alpha": 8.0, "b1": 8.0,
                                  "b0": 16.0, "n": 10.0 * eps_v2},
                },
                "seed": 1, "reps": reps,
            },
            "baseline": {
                "problem": problem, "algorithm": "baseline",
                "schedule": {
                    "explicit": {"eta": 0.05, "alpha": 1.0, "b0": 10, "b1": 1, "t": 2000}
                },
                "seed": 1, "reps": reps,
            },
        }
    name = "mean_variance" if experiment == "mv-portfolio" else "mean_deviation"
    if scale == "desk":
        source = {"kind": "synthetic", "d": 10, "periods": 500}
        reps = DESK_REPS
        t_run = 1000
    else:
        if not data_path:
            raise ConfigError(
                "data",
                "paper scale needs the industry returns file; download it from "
                "the Kenneth R. French data library (see README, 'Full-scale "
                "data') and pass --data PATH",
            )
        source = {"kind": "french_csv", "path": data_path}
        reps = 50
        t_run = 10000
    problem = {"name": name, "lambda": 1.0, "source": source}
    # the three-level deviation objective carries a steep smoothed square
    # root, so its recipes average harder per step than the two-level one
    if name == "mean_deviation":
        pmvr_constants = {"alpha": 3.0, "b1": 8.0, "b0": 10.0}
        v2_constants = {"eta": 0.45, "alpha": 1.0, "b1": 8.0, "b0": 22.4, "n": 0.5}
    else:
        pmvr_constants = {}
        v2_constants = {"n": 0.5}
    return {
        "pmvr": {
            "problem": problem, "algorithm": "pmvr",
            "schedule": {"theorem": "thm1", "eps": 0.1,
                         "constants": pmvr_constants, "overrides": {"t": t_run}},
            "seed": 1, "reps": reps,
        },
        "pmvr-v2": {
            "problem": problem, "algorithm": "pmvr-v2",
            "schedule": {
                "theorem": "thm3", "eps": 0.05,
                "constants": v2_constants, "overrides": {"t": t_run},
            },
            # the quadratic subsolver's curvature must sit at the problem's
            # scale (fractional returns), not the unit default
            "beta": 0.01,
            "seed": 1, "reps": reps,
        },
        "baseline": {
            "problem": problem, "algorithm": "baseline",
            "schedule": {
                "explicit": {"eta": 0.05, "alpha": 0.5, "b0": 10, "b1": 1, "t": t_run}
            },
            "seed": 1, "reps": reps,
        },
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

    p_check = sub.add_parser("check", help="run the self-check suites")
    p_check.add_argument(
        "--suite", default="all",
        choices=["oracles", "gradients", "subsolver", "all"],
    )
    p_check.set_defaults(func=cmd_check)

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
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver / IO failures
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
