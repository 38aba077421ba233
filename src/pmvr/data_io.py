"""Dataset ingestion, run configuration, and trace serialization.

The industry-returns loader accepts the whitespace- and comma-delimited
variants of the Kenneth French library format (auto-detected per file from
its data rows), reads the file's first data block, converts percent values
to fractional returns, and accounts for every input line as parsed,
skipped, or rejected. Run configurations are strict JSON: unknown keys
fail with a path-like locator. Each problem is one entry of ``PROBLEMS``,
which both validates its config section and builds it. Traces round-trip
field-exactly through CSV with 17-significant-digit floats.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import benchmarks
from .rng import STREAM_LEVEL_STRIDE
from .sets import Simplex

TRACE_HEADER = "iter,stage,seconds,sfo,lmo,objective,fw_gap,grad_map,beta,opt_gap"
SENTINELS = (-99.99, -999.0)

ALGORITHMS = ("pmvr", "pmvr-v2", "stagewise", "stagewise-v2", "baseline")
THEOREMS = {
    "thm1": ("fw_gap", "constant"),
    "thm2": ("fw_gap", "large"),
    "thm3": ("grad_map", "constant"),
    "thm4": ("grad_map", "large"),
    "thm5": ("convex_gap", "constant"),
    "thm6": ("convex_gap", "large"),
    "thm7": ("strongly_convex_gap", "constant"),
    "thm8": ("strongly_convex_gap", "large"),
}
# the theorems each algorithm runs: the -v2 variants are the ones with the
# quadratic subsolver, the stage-wise ones those with a stage list
ALGORITHM_THEOREMS = {"pmvr": ("thm1", "thm2"), "pmvr-v2": ("thm3", "thm4"),
                      "stagewise": ("thm5", "thm6"), "stagewise-v2": ("thm7", "thm8")}


class ConfigError(ValueError):
    """Configuration problem, carrying the offending field's path."""

    def __init__(self, path, message):
        # both arguments stay in args, so the error survives a process pool
        super().__init__(path, message)
        self.path = path

    def __str__(self):
        return f"{self.args[0]}: {self.args[1]}"


class ParseError(ValueError):
    pass


# --- trace rows -----------------------------------------------------------

@dataclass
class TraceRow:
    iteration: int
    stage: int
    seconds: float
    sfo: int
    lmo: int
    objective: float
    fw_gap: float
    grad_map: float
    beta: float
    opt_gap: Optional[float] = None


def _fmt(x):
    return f"{x:.17g}"


def write_trace_csv(trace, path):
    """UTF-8 comma-separated trace with the fixed header; 17-digit floats."""
    lines = [TRACE_HEADER]
    for row in trace:
        opt = "" if row.opt_gap is None else _fmt(row.opt_gap)
        lines.append(
            ",".join(
                [
                    str(row.iteration),
                    str(row.stage),
                    _fmt(row.seconds),
                    str(row.sfo),
                    str(row.lmo),
                    _fmt(row.objective),
                    _fmt(row.fw_gap),
                    _fmt(row.grad_map),
                    _fmt(row.beta),
                    opt,
                ]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != TRACE_HEADER:
        raise ParseError(f"{path}: header mismatch, expected {TRACE_HEADER!r}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 10:
            raise ParseError(f"{path}: expected 10 fields, got {len(parts)}: {ln!r}")
        rows.append(
            TraceRow(
                iteration=int(parts[0]),
                stage=int(parts[1]),
                seconds=float(parts[2]),
                sfo=int(parts[3]),
                lmo=int(parts[4]),
                objective=float(parts[5]),
                fw_gap=float(parts[6]),
                grad_map=float(parts[7]),
                beta=float(parts[8]),
                opt_gap=None if parts[9] == "" else float(parts[9]),
            )
        )
    return rows


# --- Kenneth French industry files ----------------------------------------

@dataclass
class LoadReport:
    parsed: int = 0
    skipped: int = 0
    rejected: int = 0

    @property
    def total(self):
        return self.parsed + self.skipped + self.rejected


def _is_date_token(tok):
    return tok.isdigit() and 4 <= len(tok) <= 8


def _split_line(line, comma):
    """A stripped line's tokens; a comma line's leading empty field (the
    header's corner cell) is dropped."""
    if not comma:
        return line.split()
    tokens = [t.strip() for t in line.split(",")]
    return tokens[1:] if tokens[0] == "" else tokens


def _is_data_row(tokens):
    return len(tokens) > 1 and _is_date_token(tokens[0])


def load_french_csv(path, sentinel_policy="error"):
    """Load an industry-portfolio returns file into PortfolioData.

    Only the first data block is read: the library's files follow the
    value-weighted monthly returns with more blocks of the same width
    (equal-weighted, annual, firm counts, firm sizes), so the first blank,
    text or different-width line after the first data row ends the block
    and every later line is skipped. The file is comma-delimited when a
    line's first comma-separated field is a date, whitespace-delimited
    otherwise. Percent values are divided by 100. A row holds a sentinel
    when one of its values v has ``|v - s| <= 1e-9`` for s = -99.99 or
    -999; such rows are rejected per policy: "error" fails loudly (the
    default; silently shrinking a return series distorts means), "drop"
    excludes them and reports the count. When the block has several faults,
    the first offending line in file order is the one reported, whether it
    holds a sentinel or a malformed field. Every input line ends up in
    exactly one of the parsed / skipped / rejected tallies.
    """
    if sentinel_policy not in ("error", "drop"):
        raise ValueError(f"unknown sentinel policy {sentinel_policy!r}")
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()

    comma = any("," in ln and _is_data_row(_split_line(ln.strip(), True)) for ln in raw_lines)
    strict = sentinel_policy == "error"
    report = LoadReport()
    names = None
    width = None
    ended = False  # the first data block is over
    rows = []
    row_lines = []  # each row's line number
    pending_header = None
    for lineno, line in enumerate(raw_lines, start=1):
        tokens = _split_line(line.strip(), comma)
        if not ended and _is_data_row(tokens):
            try:
                values = list(map(float, tokens[1:]))
            except ValueError:
                if strict and rows:  # an earlier sentinel row is reported first
                    _find_sentinels(path, rows, row_lines, raw_lines, comma, strict)
                bad = next(col for col, tok in enumerate(tokens[1:], start=1)
                           if not _looks_numeric(tok))
                raise ParseError(
                    f"{path}:{lineno}: malformed numeric field in column {bad}: "
                    f"{tokens[bad]!r}"
                ) from None
            if width is None:
                width = len(values)
                if pending_header is not None and len(pending_header) == width:
                    names = pending_header
            elif len(values) != width:
                # a section with a different column count ends the data block
                ended = True
                report.skipped += 1
                continue
            rows.append(values)
            row_lines.append(lineno)
        else:
            # preamble / header text; after the first data row, a blank or
            # text line ends the data block, and every later line is skipped
            if width is None and tokens and not any(
                _looks_numeric(t) for t in tokens
            ):
                pending_header = tokens
            ended = width is not None
            report.skipped += 1

    if rows:
        block, hit = _find_sentinels(path, rows, row_lines, raw_lines, comma, strict)
        report.rejected = int(hit.sum())
        report.parsed = len(rows) - report.rejected
    if not report.parsed:
        raise ParseError(f"{path}: no usable data rows")
    returns = block[~hit] / 100.0
    if names is None:
        names = [f"asset_{j + 1}" for j in range(returns.shape[1])]
    return benchmarks.PortfolioData(returns=returns, names=list(names), report=report)


def _find_sentinels(path, rows, row_lines, raw_lines, comma, strict):
    """The parsed rows as one array and the mask of those holding a sentinel;
    when ``strict``, the first such row raises instead. ``|v - s| <= 1e-9``
    is ``math.isclose(v, s, rel_tol=0.0, abs_tol=1e-9)``, NaN and inf
    included."""
    block = np.array(rows, dtype=np.float64)
    hit = np.zeros(len(rows), dtype=bool)
    for s in SENTINELS:
        hit |= (np.abs(block - s) <= 1e-9).any(axis=1)
    if strict and hit.any():
        lineno = row_lines[int(hit.argmax())]
        date = _split_line(raw_lines[lineno - 1].strip(), comma)[0]
        raise ParseError(f"{path}:{lineno}: sentinel value in row dated {date}")
    return block, hit


def _looks_numeric(tok):
    try:
        float(tok)
        return True
    except ValueError:
        return False


# --- run configuration ----------------------------------------------------

@dataclass
class RunConfig:
    problem: dict
    set_spec: Optional[dict]
    algorithm: str
    schedule: dict
    beta: float
    seed: int
    reps: int
    metric_every: Optional[int]
    jobs: int
    out: str
    name: str
    raw: dict = field(repr=False, default_factory=dict)


def _require(section, key, path):
    if key not in section:
        raise ConfigError(f"{path}.{key}" if path else key, "required key is missing")
    return section[key]


def _no_unknown(section, allowed, path):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")


def _check_range(value, path, kind, lo=None, hi=None, lo_open=False):
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if kind is float and not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    v = kind(value)
    if not math.isfinite(v):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    if lo is not None and (v <= lo if lo_open else v < lo):
        raise ConfigError(path, f"value {v} out of range")
    if hi is not None and v > hi:
        raise ConfigError(path, f"value {v} out of range")
    return v


# --- the problem table ----------------------------------------------------

class Kind(NamedTuple):
    """A problem or a portfolio data source: its config keys in the order
    they are checked, each with (type, default, bound), a REQUIRED default
    marking a required key; the builder of a resolved section; and the
    length of its flattened point, which a ``{"kind": "simplex"}`` set spans."""

    fields: dict
    build: Callable
    size: Callable


REQUIRED = object()


def _french(source):
    return load_french_csv(source["path"], sentinel_policy=source["sentinel_policy"])


PORTFOLIO_SOURCES = {
    "synthetic": Kind(
        {"d": (int, 10, 2), "periods": (int, 500, 1), "data_seed": (int, 0, 0)},
        lambda src: benchmarks.synthetic_portfolio_data(
            src["d"], src["periods"], src["data_seed"]),
        lambda src: src["d"],
    ),
    "french_csv": Kind(
        {"sentinel_policy": (("error", "drop"), "error", None), "path": (str, REQUIRED, None)},
        _french,
        lambda src: _french(src).d,  # the file's asset count: it is read again
    ),
}


def _portfolio(objective, spec):
    """(problem, simplex, equal weights) over the source's assets."""
    source = spec["source"]
    data = PORTFOLIO_SOURCES[source["kind"]].build(source)
    return objective(data, spec["lambda"]), Simplex(data.d), np.full(data.d, 1.0 / data.d)


PORTFOLIO_FIELDS = {
    "lambda": (float, 1.0, 0.0),
    "source": (PORTFOLIO_SOURCES, {"kind": "synthetic"}, None),
}


def _portfolio_size(spec):
    return PORTFOLIO_SOURCES[spec["source"]["kind"]].size(spec["source"])


def _single_index(spec):
    problem, ball = benchmarks.single_index_problem(benchmarks.SingleIndexConfig(
        m=spec["m"], n=spec["n"], s=spec["s"], sigma=spec["sigma"], data_seed=spec["data_seed"],
    ))
    return problem, ball, problem.x_start


def _quadratic_distance(spec):
    d = len(spec["c"])
    fset = Simplex(d)
    problem = benchmarks.quadratic_distance_problem(np.asarray(spec["c"]), fset, spec["noise"])
    return problem, fset, np.full(d, 1.0 / d)


# the builders look the constructors up when they run, so a tracer that
# wraps module attributes sees every build
PROBLEMS = {
    "mean_variance": Kind(
        PORTFOLIO_FIELDS, lambda spec: _portfolio(benchmarks.mean_variance_problem, spec),
        _portfolio_size,
    ),
    "mean_deviation": Kind(
        PORTFOLIO_FIELDS, lambda spec: _portfolio(benchmarks.mean_deviation_problem, spec),
        _portfolio_size,
    ),
    "single_index": Kind(
        {"m": (int, 20, 2), "n": (int, 20, 2), "s": (float, 1.0, 1.0),
         "sigma": (float, 0.1, 0.0), "data_seed": (int, 0, 0)},
        _single_index,
        lambda spec: spec["m"] * spec["n"],
    ),
    "quadratic_distance": Kind(
        {"c": (list, [2.0, -1.0], 2), "noise": (float, 0.05, 0.0)},
        _quadratic_distance,
        lambda spec: len(spec["c"]),
    ),
}


def _check_kind(section, path, key, kinds, noun, default=REQUIRED):
    """A section whose ``key`` picks one of ``kinds``, resolved: unknown keys
    are refused first, then the kind's fields are checked in order."""
    if not isinstance(section, dict):
        raise ConfigError(path, "expected an object")
    tag = _require(section, key, path) if default is REQUIRED else section.get(key, default)
    if not isinstance(tag, str) or tag not in kinds:
        raise ConfigError(f"{path}.{key}", f"unknown {noun} {tag!r}")
    fields = kinds[tag].fields
    _no_unknown(section, {key, *fields}, path)
    out = {key: tag}
    for name, (kind, fallback, bound) in fields.items():
        value = (_require(section, name, path) if fallback is REQUIRED
                 else section.get(name, fallback))
        out[name] = _check_field(value, f"{path}.{name}", kind, fallback, bound)
    return out


def _check_field(value, path, kind, default, bound):
    """One field of a ``Kind``. Its type is int or float (at least
    ``bound``), list (at least ``bound`` finite numbers, one level deep),
    str (a path), a tuple (one of its values) or a dict of source kinds (a
    section whose ``kind``, by default the default's, picks its fields)."""
    if kind is int or kind is float:
        return _check_range(value, path, kind, lo=bound)
    if kind is list:
        if not isinstance(value, list) or len(value) < bound:
            raise ConfigError(path, f"expected a list of at least {bound} numbers")
        if _numbers(value, path).ndim != 1:
            raise ConfigError(path, f"expected a list of numbers, got {value!r}")
        return [float(v) for v in value]
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(path, "expected a string path")
        return value
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(path, f"unknown policy {value!r}")
        return value
    return _check_kind(value, path, "kind", kind, "source kind", default["kind"])


# schedule parameters: name -> (type, lower bound, upper bound, lower bound open)
PARAM_FIELDS = {
    "eta": (float, 0.0, 1.0, False),
    "alpha": (float, 0.0, 1.0, True),
    "b0": (int, 1, None, False),
    "b1": (int, 1, None, False),
    "t": (int, 1, None, False),
    "n": (int, 1, None, False),
    "coeff": (float, 0.0, None, True),
}


def _validate_params(block, path, required=(), allowed=tuple(PARAM_FIELDS)):
    """Check a block of schedule parameters against PARAM_FIELDS."""
    if not isinstance(block, dict):
        raise ConfigError(path, "expected an object")
    _no_unknown(block, allowed, path)
    for key in required:
        _require(block, key, path)
    out = {}
    for key, value in block.items():
        kind, lo, hi, lo_open = PARAM_FIELDS[key]
        out[key] = _check_range(value, f"{path}.{key}", kind, lo=lo, hi=hi, lo_open=lo_open)
    return out


def _validate_schedule(section, algorithm):
    if not isinstance(section, dict):
        raise ConfigError("schedule", "expected an object")
    modes = [k for k in ("theorem", "explicit", "stages") if k in section]
    if len(modes) != 1:
        raise ConfigError(
            "schedule", "exactly one of theorem | explicit | stages is required"
        )
    mode = modes[0]
    if mode == "explicit" and algorithm in ("stagewise", "stagewise-v2"):
        raise ConfigError(
            "schedule.explicit", "stage-wise algorithms take a theorem or stages"
        )
    if mode == "stages" and algorithm not in ("stagewise", "stagewise-v2"):
        raise ConfigError("schedule.stages", f"{algorithm} is not stage-wise")
    out = {"mode": mode}
    if mode == "theorem":
        _no_unknown(
            section, {"theorem", "eps", "constants", "overrides", "modulus"}, "schedule"
        )
        thm = section["theorem"]
        if not isinstance(thm, str) or thm not in THEOREMS:
            raise ConfigError("schedule.theorem", f"unknown theorem {thm!r}")
        allowed = ALGORITHM_THEOREMS.get(algorithm)  # the baseline fails below
        if allowed is not None and thm not in allowed:
            raise ConfigError(
                "schedule.theorem", f"{algorithm} runs {' or '.join(allowed)}, not {thm}"
            )
        out["theorem"] = thm
        out["eps"] = _check_range(
            _require(section, "eps", "schedule"), "schedule.eps",
            float, lo=0.0, hi=1.0, lo_open=True,
        )
        constants = section.get("constants", {})
        if not isinstance(constants, dict):
            raise ConfigError("schedule.constants", "expected an object")
        # order constants scale the schedule's terms, so any positive value fits
        _no_unknown(
            constants, {"eta", "alpha", "b0", "b1", "t", "n", "eps1"},
            "schedule.constants",
        )
        out["constants"] = {
            k: _check_range(v, f"schedule.constants.{k}", float, lo=0.0, lo_open=True)
            for k, v in constants.items()
        }
        overrides = _validate_params(
            section.get("overrides", {}), "schedule.overrides",
            allowed=("eta", "alpha", "b0", "b1", "t", "n"),
        )
        if overrides and algorithm.startswith("stagewise"):
            raise ConfigError(
                "schedule.overrides", "overrides apply to single-run schedules only"
            )
        out["overrides"] = overrides
        if "modulus" in section:
            out["modulus"] = _check_range(
                section["modulus"], "schedule.modulus", float, lo=0.0, lo_open=True
            )
    elif mode == "explicit":
        _no_unknown(section, {"explicit"}, "schedule")
        explicit = _validate_params(
            section["explicit"], "schedule.explicit", required=("eta", "alpha", "b1", "t")
        )
        explicit.setdefault("b0", 1)
        out["explicit"] = explicit
    else:
        _no_unknown(section, {"stages", "b0", "n", "coeff"}, "schedule")
        stages = section["stages"]
        if not isinstance(stages, list) or not stages:
            raise ConfigError("schedule.stages", "expected a non-empty list")
        out.update(_validate_params(
            {k: v for k, v in section.items() if k != "stages"}, "schedule",
            allowed=("b0", "n", "coeff"),
        ))
        out.setdefault("b0", 1)
        out["stages"] = [
            _validate_params(
                st, f"schedule.stages[{idx}]", required=("eta", "alpha", "b1", "t"),
                allowed=("eta", "alpha", "b1", "t"),
            )
            for idx, st in enumerate(stages)
        ]
    if mode != "theorem":  # the -v2 algorithms, and only they, run the subsolver
        block = out["explicit"] if mode == "explicit" else out
        where = "schedule.explicit" if mode == "explicit" else "schedule"
        for key in ("n", "coeff"):
            if (key in block) != algorithm.endswith("-v2"):
                what = "needs" if key not in block else "runs no subsolver for"
                raise ConfigError(f"{where}.{key}", f"{algorithm} {what} {key}")
    _check_length(out)
    return out


def _check_length(sched):
    """Refuse 2**20 or more iterations in total: level i's late batches would
    repeat level i+1's sample streams. A thm7/thm8 schedule without
    ``modulus`` takes the problem's, so ``cli.build_schedule`` checks it once
    the problem is built."""
    if sched["mode"] == "explicit":
        path, total = "schedule.explicit.t", sched["explicit"]["t"]
    elif sched["mode"] == "stages":
        path, total = "schedule.stages", sum(st["t"] for st in sched["stages"])
    elif "t" in sched["overrides"]:
        path, total = "schedule.overrides.t", sched["overrides"]["t"]
    elif sched["theorem"] in ("thm7", "thm8") and "modulus" not in sched:
        return
    else:
        from .solvers import ScheduleConstants, schedule_for  # late: solvers imports us

        path = "schedule.eps"
        try:
            out = schedule_for(*THEOREMS[sched["theorem"]], sched["eps"],
                               ScheduleConstants(**sched["constants"]), sched.get("modulus"))
            total = sum(p.iters for p in getattr(out, "stages", [out]))
        except ArithmeticError:  # so small an eps that the count overflows
            total = math.inf
    _check_total(path, total)


def _check_total(path, total):
    if total >= STREAM_LEVEL_STRIDE:
        raise ConfigError(path, f"{total} iterations reach the stream stride {STREAM_LEVEL_STRIDE}")


def _numbers(value, path):
    """``value``, a (nested) list of finite numbers, as an array."""
    try:
        array = np.asarray(value)
    except ValueError:  # ragged nesting
        array = np.asarray(None)
    if array.ndim == 0 or array.size == 0 or array.dtype.kind not in "iuf":
        raise ConfigError(path, f"expected a list of numbers, got {value!r}")
    if not np.all(np.isfinite(array)):
        raise ConfigError(path, "expected finite numbers")
    return array


def _validate_set(set_spec):
    """Check a ``set`` section's keys and values; the section stays as given."""
    if not isinstance(set_spec, dict):
        raise ConfigError("set", "expected an object")
    kind = set_spec.get("kind")
    if kind not in ("simplex", "box", "nuclear_ball"):
        raise ConfigError("set.kind", f"unknown set kind {kind!r}")
    allowed = {
        "simplex": {"kind"},
        "box": {"kind", "lower", "upper"},
        "nuclear_ball": {"kind", "m", "n", "radius"},
    }[kind]
    _no_unknown(set_spec, allowed, "set")
    if kind == "box":
        lower, upper = (_numbers(_require(set_spec, key, "set"), f"set.{key}")
                        for key in ("lower", "upper"))
        if lower.shape != upper.shape:
            raise ConfigError(
                "set.lower", f"shape {lower.shape} differs from upper's {upper.shape}"
            )
        if np.any(lower > upper):
            raise ConfigError("set.lower", "lower must not exceed upper coordinatewise")
    elif kind == "nuclear_ball":
        for key in ("m", "n"):
            _check_range(_require(set_spec, key, "set"), f"set.{key}", int, lo=1)
        _check_range(
            _require(set_spec, "radius", "set"), "set.radius", float, lo=0.0, lo_open=True
        )


def validate_config(data, name="run"):
    """Validate a parsed configuration dict into a RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError("", "configuration root must be an object")
    top_allowed = {
        "problem", "set", "algorithm", "schedule", "beta", "seed", "reps",
        "metric_every", "jobs", "out", "name",
    }
    _no_unknown(data, top_allowed, "")
    problem = _check_kind(_require(data, "problem", ""), "problem", "name", PROBLEMS, "problem")
    algorithm = _require(data, "algorithm", "")
    if algorithm not in ALGORITHMS:
        raise ConfigError("algorithm", f"unknown algorithm {algorithm!r}")
    schedule = _validate_schedule(_require(data, "schedule", ""), algorithm)
    if algorithm == "baseline" and schedule["mode"] != "explicit":
        raise ConfigError("schedule", "the baseline takes explicit parameters only")
    set_spec = data.get("set")
    if set_spec is not None:
        _validate_set(set_spec)
    seed = _check_range(_require(data, "seed", ""), "seed", int, lo=0)
    beta = _check_range(data.get("beta", 1.0), "beta", float, lo=0.0, lo_open=True)
    reps = _check_range(data.get("reps", 1), "reps", int, lo=1)
    jobs = _check_range(data.get("jobs", 1), "jobs", int, lo=1)
    metric_every = data.get("metric_every")
    if metric_every is not None:
        metric_every = _check_range(metric_every, "metric_every", int, lo=1)
    out_dir = data.get("out", os.environ.get("PMVR_OUT_DIR", "runs"))
    if not isinstance(out_dir, str):
        raise ConfigError("out", "expected a string path")
    run_name = data.get("name", name)
    if not isinstance(run_name, str):
        raise ConfigError("name", "expected a string")
    return RunConfig(
        problem=problem,
        set_spec=set_spec,
        algorithm=algorithm,
        schedule=schedule,
        beta=beta,
        seed=seed,
        reps=reps,
        metric_every=metric_every,
        jobs=jobs,
        out=out_dir,
        name=run_name,
        raw=data,
    )


def load_run_config(path):
    """Parse and validate a JSON run configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("", f"invalid JSON: {exc}") from exc
    stem = os.path.splitext(os.path.basename(path))[0]
    return validate_config(data, name=stem)


def write_metadata(path, payload):
    """Sidecar with every resolved parameter, in the same format as configs."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
