"""Timed and traced runs of one workload through the ``pmvr reproduce`` path.

A run sets the workload up, warms the process up with a shortened recipe,
then repeats recipe rounds until the time budget is spent, taking the
run's inputs in turn. Each round is preceded by a few timed set-ups, so
that ``setup_s`` samples the machine over the whole run, as the other
timings do. One round is ``cli.run_config`` for the three configs that
``validate_config`` accepted, writing traces, aggregate and metadata
exactly as ``pmvr reproduce`` does. A pass of the reference kernel
(``reference.py``) runs before each ``run_config`` call and after the
last; run times are reported in units of the passes on either side.
Every repetition's outputs are checked. A traced run (``trace=True``)
alternates untraced rounds with rounds in which every layer is wrapped by
``spans.SpanRecorder``; the checks run outside the recorded window.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np

from pmvr import cli, solvers
from pmvr.data_io import load_french_csv, read_trace_csv, validate_config
from pmvr.metrics import expected_baseline_sfo, expected_lmo, expected_sfo

from recipes import INDUSTRIES, INPUTS, SOLVERS, input_seeds, recipe_configs, write_french_file
from reference import Reference
from spans import SpanRecorder, SpanTable

WARMUP_ITERS = 20

# name -> unit; end-to-end metrics are reported with tracing off. A "ref"
# is the time of one pass of the reference kernel, measured on either side
# of the run (reference.py); the wall-clock seconds are printed beside them.
END_TO_END = {
    "setup_s": "s",
    "recipe_ref": "ref",
    "pmvr_run_ref": "ref",
    "pmvr_v2_run_ref": "ref",
    "baseline_run_ref": "ref",
    "sfo_per_ref": "1/ref",
    "lmo_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}
# printed and recorded, but not bounded: their seed-to-seed spread is far
# wider than any bound the benchmark may set (see README)
QUALITY = {"final_fw_gap": "gap", "final_grad_map": "gap"}
CRITERION = {"pmvr": "fw_gap", "pmvr-v2": "grad_map"}
PER_LAYER = {
    "rng.generators": "count",
    "rng.generator_us": "us",
    "rng.share": "ratio",
    "problems.oracle_calls": "count",
    "problems.oracle_calls_per_sfo": "ratio",
    "problems.value_us": "us",
    "problems.jacobian_us": "us",
    "problems.sample_batch_us": "us",
    "core.matmul_chain_calls": "count",
    "core.matmul_chain_us": "us",
    "estimators.value_update_us": "us",
    "estimators.gradient_update_us": "us",
    "estimators.init_s": "s",
    "estimators.share": "ratio",
    "estimators.dispatch_share": "ratio",
    "sets.lmo_calls": "count",
    "sets.lmo_us": "us",
    "sets.top_singular_pair_us": "us",
    "sets.share": "ratio",
    "sets.share_pmvr_v2": "ratio",
    "sets.power_errors": "count",
    "sets.contains_us": "us",
    "sets.project_us": "us",
    "solvers.subsolve_us": "us",
    "solvers.step_us": "us",
    "solvers.baseline_step_us": "us",
    "solvers.feasibility_errors": "count",
    "metrics.rows": "count",
    "metrics.row_us": "us",
    "metrics.exact_gradients_per_row": "ratio",
    "metrics.share": "ratio",
    "benchmarks.problem_build_s": "s",
    "data_io.load_s": "s",
    "data_io.loads_per_recipe": "count",
    "data_io.rows_parsed": "count",
    "data_io.write_trace_s": "s",
    "data_io.bytes_written": "bytes",
    "cli.build_problem_calls": "count",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class SolverRun:
    seconds: float
    fset: object
    x_final: np.ndarray
    sfo: int
    lmo: int


class Capture:
    """Times each solver run inside ``run_config`` and keeps its final state.

    The solver entry points are looked up on ``pmvr.solvers`` at call time,
    so that a span wrapper installed there later is the one that runs.
    """

    ENTRIES = ("pmvr_run", "projected_baseline_run")

    def __init__(self):
        self.runs = []
        self._saved = {}

    def install(self):
        for attr in self.ENTRIES:
            self._saved[attr] = getattr(cli, attr)
            setattr(cli, attr, self._timed(attr))

    def restore(self):
        for attr, fn in self._saved.items():
            setattr(cli, attr, fn)

    def _timed(self, attr):
        def run(problem, fset, *args, **kwargs):
            fn = getattr(solvers, attr)
            t0 = time.perf_counter()
            result = fn(problem, fset, *args, **kwargs)
            seconds = time.perf_counter() - t0
            counters = result.state.counters
            self.runs.append(SolverRun(seconds, fset, result.x_final, counters.sfo, counters.lmo))
            return result
        return run


@dataclass
class Setup:
    configs: dict  # solver -> RunConfig
    expected: dict  # solver -> (T, sfo, lmo) of a full run
    f_star: object
    descends: bool  # every solver must lower the objective (see Workload)
    data_path: object  # the generated returns file, or None
    data: dict  # input provenance


def set_up(workload, seed, work_dir, out_dir):
    """Generate or read the inputs; build problem, set and schedules."""
    data = {}
    data_path = None
    if workload.problem == "mean_deviation":
        data_path = os.path.join(work_dir, "industry_returns.txt")
        rows, sha256 = write_french_file(data_path, seed)
        loaded = load_french_csv(data_path)
        data = {
            "file": os.path.basename(data_path), "sha256": sha256, "rows_written": rows,
            "parsed": loaded.report.parsed, "skipped": loaded.report.skipped,
            "rejected": loaded.report.rejected,
            "names_match": list(loaded.names) == list(INDUSTRIES),
        }
    raw = recipe_configs(workload, seed, data_path, out_dir)
    configs = {algo: validate_config(r, name=r["name"]) for algo, r in raw.items()}
    problem, fset, _ = cli.build_problem(configs["pmvr"].problem)
    cli.build_feasible_set(configs["pmvr"].set_spec, configs["pmvr"].problem)
    expected = {}
    for algo, cfg in configs.items():
        params = cli.build_schedule(cfg, problem)
        if algo == "baseline":
            block = cfg.schedule["explicit"]
            expected[algo] = (
                block["t"], expected_baseline_sfo(block["t"], problem.k, block["b1"]), 0)
        else:
            n_inner = None if params.subsolver is None else params.subsolver.inner_iters
            expected[algo] = (
                params.iters,
                expected_sfo(params.iters, problem.k, params.b0, params.b1),
                expected_lmo(params.iters, n_inner),
            )
    return Setup(configs, expected, problem.metadata.f_star, workload.descends, data_path, data)


def strip_seconds(text):
    """Trace CSV text with the wall-clock column blanked."""
    lines = text.splitlines()
    out = [lines[0]]
    for ln in lines[1:]:
        parts = ln.split(",")
        parts[2] = ""
        out.append(",".join(parts))
    return "\n".join(out)


def run_round(configs, capture, reference):
    """One recipe: run_config for the three solvers, with a pass of
    ``reference`` before each and after the last; returns (wall, runs, refs).

    ``wall`` sums the run_config times; ``refs`` maps solver to the mean of
    the reference times measured just before and just after its run_config.
    """
    out_dir = next(iter(configs.values())).out
    shutil.rmtree(out_dir, ignore_errors=True)
    runs, refs, wall = {}, {}, 0.0
    before = reference()
    for algo, cfg in configs.items():
        first = len(capture.runs)
        t0 = time.perf_counter()
        cli.run_config(cfg)
        wall += time.perf_counter() - t0
        runs[algo] = capture.runs[first:]
        after = reference()
        refs[algo] = (before + after) / 2
        before = after
    return wall, runs, refs


def check_round(setup, runs, first_traces):
    """Check every repetition of a round; returns (failures, traces).

    ``failures`` holds ((solver, rep), message) pairs. ``traces`` maps
    (solver, rep) to the trace text without ``seconds`` and the parsed
    rows; ``first_traces`` is the first round's ``traces`` (or None).
    """
    failures, traces = [], {}
    for algo, cfg in setup.configs.items():
        t_run, *want = setup.expected[algo]
        want = tuple(want)
        for idx in range(cfg.reps):
            try:
                path = os.path.join(cfg.out, f"{cfg.name}_rep{idx:02d}.csv")
                with open(path, encoding="utf-8") as fh:
                    text = strip_seconds(fh.read())
                rows = read_trace_csv(path)
                run = runs[algo][idx]
            except (OSError, ValueError, IndexError) as exc:
                failures.append(((algo, idx), str(exc)))
                continue
            traces[(algo, idx)] = (text, rows)
            problems = []
            last = rows[-1]
            if last.iteration != t_run:
                problems.append(f"last row at iteration {last.iteration}, expected {t_run}")
            if (last.sfo, last.lmo) != want or (run.sfo, run.lmo) != want:
                problems.append(
                    f"counters trace={last.sfo, last.lmo} run={run.sfo, run.lmo}, "
                    f"expected {want}"
                )
            for row in rows:
                filled = [row.iteration, row.stage, row.seconds, row.sfo, row.lmo,
                          row.objective, row.fw_gap, row.grad_map, row.beta]
                if row.opt_gap is not None or setup.f_star is not None:
                    filled.append(row.opt_gap)
                if not all(v is not None and np.isfinite(v) for v in filled):
                    problems.append(f"non-finite field in row at iteration {row.iteration}")
                    break
            if not run.fset.contains(run.x_final):
                problems.append("final iterate fails the set's contains")
            if setup.descends:
                tail = float(np.mean([r.objective for r in rows[len(rows) // 2:]]))
                if not tail < rows[0].objective:
                    problems.append(
                        f"no descent: mean objective over the second half {tail:.6g} "
                        f"is not below the initial {rows[0].objective:.6g}"
                    )
            if first_traces is not None and first_traces[(algo, idx)][0] != text:
                problems.append("trace differs from the first round apart from seconds")
            failures += [((algo, idx), p) for p in problems]
    return failures, traces


def environment(blas_threads):
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ.get(var) for var in blas_threads},
        "jobs": 1,
    }


def median(values):
    return statistics.median(values) if values else float("nan")


class Run:
    """State of one benchmark invocation.

    ``inputs`` inputs are derived from the seed, and rounds take them in
    turn, so that one run's figures average over several inputs rather
    than hang on one input's cost.
    """

    def __init__(self, workload, seed, seconds, out_root, inputs):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.seeds = input_seeds(seed, inputs)
        self.work_dir = os.path.join(out_root, workload.name)
        self.round_dir = os.path.join(self.work_dir, "round")
        self.capture = Capture()
        self.reference = Reference()
        self.attempted = 0
        self.failures = []  # messages, for the report
        self.failed_units = set()  # failing (round, solver, rep), or ("setup", input)
        self.setups = {}  # input -> Setup of its latest set-up
        self.first_traces = {}  # input -> traces of its first round without failures
        self.round_no = 0
        self.setup_times = []  # (input, seconds)

    def fail(self, unit, message):
        self.failed_units.add(unit)
        self.failures.append(f"{unit}: {message}")

    def set_up(self, k):
        self.setups[k] = set_up(self.workload, self.seeds[k], self.work_dir, self.round_dir)
        return self.setups[k]

    def timed_set_ups(self, k):
        """Timed set-ups of input ``k``; the last one is used by the next round."""
        for _ in range(self.workload.setups):
            t0 = time.perf_counter()
            self.set_up(k)
            self.setup_times.append((k, time.perf_counter() - t0))

    def prepare(self):
        """A set-up and input check of every input, then one warm-up recipe."""
        shutil.rmtree(self.work_dir, ignore_errors=True)
        os.makedirs(self.work_dir)
        for k in range(len(self.seeds)):
            data = self.set_up(k).data
            if data:
                self.attempted += 1
                if data["parsed"] != data["rows_written"] or not data["names_match"]:
                    self.fail(("setup", k), f"loader parsed {data['parsed']} of "
                              f"{data['rows_written']} rows, names match: {data['names_match']}")
        self.capture.install()
        warm_raw = recipe_configs(
            self.workload, self.seeds[-1], self.setups[len(self.seeds) - 1].data_path,
            os.path.join(self.work_dir, "warmup"), iters=WARMUP_ITERS,
        )
        run_round({a: validate_config(r, name=r["name"]) for a, r in warm_raw.items()},
                  self.capture, self.reference)
        self.capture.runs.clear()

    def rounds(self, budget, recorder=None):
        """Recipe rounds until ``budget`` seconds have passed (at least one).

        ``recorder``, if given, is installed around each round's solver runs
        only, not around its set-ups and checks.
        """
        walls, per_round = [], []
        deadline = time.perf_counter() + budget
        while not walls or time.perf_counter() < deadline:
            k = self.round_no % len(self.seeds)
            self.timed_set_ups(k)
            setup = self.setups[k]
            self.round_no += 1
            units = [(self.round_no, algo, idx)
                     for algo, cfg in setup.configs.items() for idx in range(cfg.reps)]
            self.attempted += len(units)
            if recorder is not None:
                recorder.install()
            try:
                wall, runs, refs = run_round(setup.configs, self.capture, self.reference)
            except Exception:  # a failed solver run fails every repetition of the round
                message = traceback.format_exc()
                for unit in units:
                    self.fail(unit, message)
                walls.append(float("nan"))
                per_round.append(None)
                continue
            finally:
                if recorder is not None:
                    recorder.restore()
            failures, traces = check_round(setup, runs, self.first_traces.get(k))
            if k not in self.first_traces and not failures:
                self.first_traces[k] = traces  # the only traces kept: memory stays flat
            for (algo, idx), message in failures:
                self.fail((self.round_no, algo, idx), message)
            for x in (x for solver_runs in runs.values() for x in solver_runs):
                x.fset = x.x_final = None  # checked; keep them out of peak_rss_mb
            walls.append(wall)
            per_round.append((k, runs, refs, self._bytes_written()))
        return walls, per_round

    def _bytes_written(self):
        d = self.round_dir
        return sum(os.path.getsize(os.path.join(d, f)) for f in os.listdir(d))

    def result(self, metrics, units):
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failed_units),
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        }


def per_input_mean(samples):
    """Mean over inputs of each input's median, from (input, value) pairs:
    every input weighs the same, however many rounds it got."""
    groups = {}
    for k, value in samples:
        groups.setdefault(k, []).append(value)
    return statistics.fmean(map(median, groups.values())) if groups else float("nan")


def end_to_end(setup_times, walls, per_round):
    """End-to-end metrics and a summary of the (input, value) samples behind
    them, which also holds the wall-clock seconds behind each ``_ref``."""
    done = [(wall, *r) for wall, r in zip(walls, per_round) if r is not None]
    # (input, run, reference time around it) for every repetition of a solver
    by = {algo: [(k, x, refs[algo]) for _, k, runs, refs, _ in done for x in runs[algo]]
          for algo in SOLVERS}
    samples = {
        "setup_s": setup_times,
        "reference_s": [(k, ref) for _, k, _, refs, _ in done for ref in refs.values()],
        "recipe_s": [(k, wall) for wall, k, *_ in done],
        "pmvr_run_s": [(k, x.seconds) for k, x, _ in by["pmvr"]],
        "pmvr_v2_run_s": [(k, x.seconds) for k, x, _ in by["pmvr-v2"]],
        "baseline_run_s": [(k, x.seconds) for k, x, _ in by["baseline"]],
        "recipe_ref": [(k, wall / statistics.fmean(refs.values()))
                       for wall, k, _, refs, _ in done],
        "pmvr_run_ref": [(k, x.seconds / ref) for k, x, ref in by["pmvr"]],
        "pmvr_v2_run_ref": [(k, x.seconds / ref) for k, x, ref in by["pmvr-v2"]],
        "baseline_run_ref": [(k, x.seconds / ref) for k, x, ref in by["baseline"]],
        "sfo_per_ref": [(k, x.sfo * ref / x.seconds) for k, x, ref in by["pmvr"]],
        "lmo_per_ref": [(k, x.lmo * ref / x.seconds) for k, x, ref in by["pmvr-v2"]],
    }
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {name: per_input_mean(pairs) for name, pairs in samples.items()}
    metrics = {k: values[k] for k in END_TO_END if k in values}
    metrics["peak_rss_mb"] = rss_kb / 1024.0
    summary = {name: {"n": len(pairs), "value": values[name],
                      "min": min(v for _, v in pairs), "max": max(v for _, v in pairs),
                      "samples": pairs}
               for name, pairs in samples.items() if pairs}
    return metrics, summary


def quality(first_traces):
    """Mean over inputs and repetitions of each solver's criterion at its last row."""
    traces = {(k, *key): v for k, t in first_traces.items() for key, v in t.items()}

    def final(algo):
        vals = [getattr(rows[-1], CRITERION[algo]) for (_, a, _), (_, rows) in traces.items()
                if a == algo]
        return float(np.mean(vals)) if vals else float("nan")

    return {"final_fw_gap": final("pmvr"), "final_grad_map": final("pmvr-v2")}


def layer_metrics(tab, rec_rows, wall, workload, runs, bytes_written):
    """Per-layer numbers of one traced round (times include tracing cost)."""
    sfo_total = sum(x.sfo for algo in SOLVERS for x in runs[algo])
    oracle_calls = tab.count("problems.value") + tab.count("problems.jacobian")
    lmo = tab.suffix_mask(".lmo")
    contains = tab.suffix_mask(".contains")
    project = tab.suffix_mask(".project")
    rows = tab.count("solvers._metric_row")
    row_mask = tab.mask("solvers._metric_row")
    exact_in_rows = int((tab.mask("problems.exact_gradient") & tab.in_row).sum())
    v2_time = tab.total("solvers.pmvr_run", "pmvr-v2")
    pmvr_time = tab.total("solvers.pmvr_run", "pmvr")
    base_rows = float(tab.dur[row_mask & (tab.solver == "baseline")].sum())
    steps = tab.count("solvers.pmvr_step")
    builds = [n for n in tab.names if n.startswith("benchmarks.") and n.endswith("_problem")]
    build_calls = sum(tab.count(n) for n in builds)
    loads = tab.count("data_io.load_french_csv")

    def per_call(mask):
        n = int(mask.sum())
        return float(tab.dur[mask].sum()) / n * 1e6 if n else 0.0

    dispatch = tab.layer_time("estimators", "pmvr") + tab.total_outside(
        "problems.sample_batch", "estimators", "pmvr")
    return {
        "rng.generators": tab.count("rng.generator"),
        "rng.generator_us": tab.mean("rng.generator") * 1e6,
        "rng.share": tab.layer_time("rng") / wall,
        "problems.oracle_calls": oracle_calls,
        "problems.oracle_calls_per_sfo": oracle_calls / sfo_total if sfo_total else 0.0,
        "problems.value_us": tab.mean("problems.value") * 1e6,
        "problems.jacobian_us": tab.mean("problems.jacobian") * 1e6,
        "problems.sample_batch_us": tab.mean("problems.sample_batch") * 1e6,
        "core.matmul_chain_calls": tab.count("core.matmul_chain"),
        "core.matmul_chain_us": tab.mean("core.matmul_chain") * 1e6,
        "estimators.value_update_us": tab.mean("estimators.storm_value_update") * 1e6,
        "estimators.gradient_update_us": tab.mean("estimators.storm_gradient_update") * 1e6,
        "estimators.init_s": tab.mean("estimators.init_trackers"),
        "estimators.share": tab.layer_time("estimators") / wall,
        "estimators.dispatch_share": dispatch / pmvr_time if pmvr_time else 0.0,
        "sets.lmo_calls": int(lmo.sum()),
        "sets.lmo_us": per_call(lmo),
        "sets.top_singular_pair_us": tab.mean("sets.top_singular_pair") * 1e6,
        "sets.share": tab.layer_time("sets") / wall,
        "sets.share_pmvr_v2": tab.layer_time("sets", "pmvr-v2") / v2_time if v2_time else 0.0,
        "sets.power_errors": 0,  # filled from the recorder's error tally
        "sets.contains_us": per_call(contains),
        "sets.project_us": per_call(project),
        "solvers.subsolve_us": tab.mean("solvers.quadratic_fw_subsolve") * 1e6,
        "solvers.step_us": tab.self_total("solvers.pmvr_step") / steps * 1e6 if steps else 0.0,
        "solvers.baseline_step_us":
            (tab.total("solvers.projected_baseline_run") - base_rows) / workload.iters * 1e6,
        "solvers.feasibility_errors": 0,  # filled from the recorder's error tally
        "metrics.rows": rows,
        "metrics.row_us": tab.mean("solvers._metric_row") * 1e6,
        "metrics.exact_gradients_per_row": exact_in_rows / rows if rows else 0.0,
        "metrics.share": float(tab.dur[row_mask].sum()) / wall,
        "benchmarks.problem_build_s":
            sum(tab.total(n) for n in builds) / build_calls if build_calls else 0.0,
        "data_io.load_s": tab.mean("data_io.load_french_csv"),
        "data_io.loads_per_recipe": loads,
        "data_io.rows_parsed": rec_rows,
        "data_io.write_trace_s": tab.total("data_io.write_trace_csv"),
        "data_io.bytes_written": bytes_written,
        "cli.build_problem_calls": tab.count("cli.build_problem"),
        "cli.overhead_s": tab.layer_self("cli"),
    }


def run_workload(workload, seed, seconds, trace, out_root, blas_threads):
    """Run one workload; returns (result line dict, report dict).

    A timed run takes ``INPUTS`` inputs in turn; a traced run takes one, so
    that its untraced and traced rounds run the same input.
    """
    run = Run(workload, seed, seconds, out_root, 1 if trace else INPUTS)
    try:
        run.prepare()
        if not trace:
            walls, per_round = run.rounds(seconds)
            metrics, summary = end_to_end(run.setup_times, walls, per_round)
            report = {"rounds": len(walls), "timings": summary,
                      "quality": quality(run.first_traces)}
            return run.result(metrics, END_TO_END), finish(run, report, blas_threads, metrics)
        return traced(run, seconds, blas_threads)
    finally:
        run.capture.restore()


def traced(run, seconds, blas_threads):
    """Alternate untraced and traced rounds, so that drift in the machine's
    speed cancels out of ``trace.overhead_s``."""
    rec = SpanRecorder()
    plain_walls, plain_rounds, traced_walls, traced_rounds = [], [], [], []
    bounds, rows_parsed = [], []
    deadline = time.perf_counter() + seconds
    while not traced_walls or time.perf_counter() < deadline:
        walls, per_round = run.rounds(0.0)  # a zero budget runs one round
        plain_walls += walls
        plain_rounds += per_round
        lo, rows0 = len(rec), rec.loaded_rows
        walls, per_round = run.rounds(0.0, rec)
        bounds.append((lo, len(rec)))
        rows_parsed.append(rec.loaded_rows - rows0)
        traced_walls += walls
        traced_rounds += per_round
    arrays = rec.arrays()
    samples = []
    for (lo, hi), wall, done, rows in zip(bounds, traced_walls, traced_rounds, rows_parsed):
        if done is None:
            continue
        _, runs, _, nbytes = done
        tab = SpanTable(rec, arrays, lo, hi, SOLVERS)
        samples.append(layer_metrics(tab, rows, wall, run.workload, runs, nbytes))
    metrics = {k: median([s[k] for s in samples]) for k in samples[0]} if samples else {}
    errors = rec.errors
    metrics["sets.power_errors"] = errors.get(("sets.top_singular_pair", "PowerIterationError"), 0)
    metrics["solvers.feasibility_errors"] = sum(
        n for (name, kind), n in errors.items()
        if kind == "FeasibilityError" and name in (
            "solvers.pmvr_run", "solvers.projected_baseline_run")
    )
    metrics["trace.overhead_s"] = median(traced_walls) - median(plain_walls)
    # non-perturbation: traced counters and traces equal the untraced ones
    plain = [r for r in plain_rounds if r is not None]
    for done in traced_rounds:
        if done is None or not plain:
            continue
        for algo in SOLVERS:
            a = [(x.sfo, x.lmo) for x in plain[0][1][algo]]
            b = [(x.sfo, x.lmo) for x in done[1][algo]]
            if a != b:
                run.fail(("traced", algo), f"counters {b} differ from untraced {a}")
    rec.save(os.path.join(run.work_dir, "spans.npz"), *bounds[0])
    report = {
        "untraced_walls": plain_walls, "traced_walls": traced_walls,
        "spans": len(rec), "span_names": len(rec.names),
    }
    return run.result(metrics, PER_LAYER), finish(run, report, blas_threads, metrics)


def finish(run, report, blas_threads, metrics):
    report.update(
        workload=run.workload.name, seed=run.seed, seconds=run.seconds,
        environment=environment(blas_threads), input_seeds=run.seeds,
        inputs={run.seeds[k]: s.data for k, s in sorted(run.setups.items()) if s.data},
        expected_counters=run.setups[0].expected,
        failures=run.failures, metrics=metrics,
    )
    path = os.path.join(run.work_dir, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, default=str)
    return report
