"""Dataset ingestion, run configuration, and trace serialization.

The industry-returns loader accepts the whitespace- and comma-delimited
variants of the Kenneth French library format (auto-detected per file),
converts percent values to fractional returns, and accounts for every
input line as parsed, skipped, or rejected. Run configurations are strict
JSON: unknown keys fail with a path-like locator. Traces round-trip
field-exactly through CSV with 17-significant-digit floats.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

TRACE_HEADER = "iter,stage,seconds,sfo,lmo,objective,fw_gap,grad_map,beta,opt_gap"
SENTINELS = (-99.99, -999.0)

PROBLEM_NAMES = ("mean_variance", "mean_deviation", "single_index", "quadratic_distance")
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
SINGLE_RUN_THEOREMS = ("thm1", "thm2", "thm3", "thm4")
STAGE_THEOREMS = ("thm5", "thm6", "thm7", "thm8")


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
    if comma:
        return [t.strip() for t in line.split(",")]
    return line.split()


def load_french_csv(path, sentinel_policy="error"):
    """Load an industry-portfolio returns file into PortfolioData.

    Percent values are divided by 100. Rows containing the sentinel values
    -99.99 or -999 are rejected per policy: "error" fails loudly (the
    default; silently shrinking a return series distorts means), "drop"
    excludes them and reports the count. Every input line ends up in
    exactly one of the parsed / skipped / rejected tallies.
    """
    from .benchmarks import PortfolioData

    if sentinel_policy not in ("error", "drop"):
        raise ValueError(f"unknown sentinel policy {sentinel_policy!r}")
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()

    comma = any("," in ln for ln in raw_lines)
    report = LoadReport()
    names = None
    width = None
    rows = []
    pending_header = None
    for lineno, line in enumerate(raw_lines, start=1):
        stripped = line.strip()
        if not stripped:
            report.skipped += 1
            continue
        tokens = _split_line(stripped, comma)
        if comma and tokens and tokens[0] == "":
            tokens = tokens[1:]
        if tokens and _is_date_token(tokens[0]) and len(tokens) > 1:
            values = []
            bad = None
            for col, tok in enumerate(tokens[1:], start=1):
                try:
                    values.append(float(tok))
                except ValueError:
                    bad = col
                    break
            if bad is not None:
                raise ParseError(
                    f"{path}:{lineno}: malformed numeric field in column {bad}: "
                    f"{tokens[bad]!r}"
                )
            if width is None:
                width = len(values)
                if pending_header is not None and len(pending_header) == width:
                    names = pending_header
            elif len(values) != width:
                # a section with a different column count ends the data block
                report.skipped += 1
                continue
            if any(
                math.isclose(v, s, rel_tol=0.0, abs_tol=1e-9)
                for v in values
                for s in SENTINELS
            ):
                if sentinel_policy == "error":
                    raise ParseError(
                        f"{path}:{lineno}: sentinel value in row dated {tokens[0]}"
                    )
                report.rejected += 1
                continue
            rows.append(values)
            report.parsed += 1
        else:
            # preamble / footer / header text
            if width is None and tokens and not any(
                _looks_numeric(t) for t in tokens
            ):
                pending_header = tokens
            report.skipped += 1

    if not rows:
        raise ParseError(f"{path}: no usable data rows")
    returns = np.asarray(rows, dtype=np.float64) / 100.0
    if names is None:
        names = [f"asset_{j + 1}" for j in range(returns.shape[1])]
    return PortfolioData(returns=returns, names=list(names), report=report)


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


def _validate_problem(section):
    if not isinstance(section, dict):
        raise ConfigError("problem", "expected an object")
    name = _require(section, "name", "problem")
    if name not in PROBLEM_NAMES:
        raise ConfigError("problem.name", f"unknown problem {name!r}")
    out = {"name": name}
    if name in ("mean_variance", "mean_deviation"):
        _no_unknown(section, {"name", "lambda", "source"}, "problem")
        out["lambda"] = _check_range(
            section.get("lambda", 1.0), "problem.lambda", float, lo=0.0
        )
        source = section.get("source", {"kind": "synthetic"})
        if not isinstance(source, dict):
            raise ConfigError("problem.source", "expected an object")
        kind = source.get("kind", "synthetic")
        if kind == "synthetic":
            _no_unknown(source, {"kind", "d", "periods", "data_seed"}, "problem.source")
            out["source"] = {
                "kind": "synthetic",
                "d": _check_range(source.get("d", 10), "problem.source.d", int, lo=2),
                "periods": _check_range(
                    source.get("periods", 500), "problem.source.periods", int, lo=1
                ),
                "data_seed": _check_range(
                    source.get("data_seed", 0), "problem.source.data_seed", int, lo=0
                ),
            }
        elif kind == "french_csv":
            _no_unknown(source, {"kind", "path", "sentinel_policy"}, "problem.source")
            policy = source.get("sentinel_policy", "error")
            if policy not in ("error", "drop"):
                raise ConfigError(
                    "problem.source.sentinel_policy", f"unknown policy {policy!r}"
                )
            out["source"] = {
                "kind": "french_csv",
                "path": str(_require(source, "path", "problem.source")),
                "sentinel_policy": policy,
            }
        else:
            raise ConfigError("problem.source.kind", f"unknown source kind {kind!r}")
    elif name == "single_index":
        _no_unknown(section, {"name", "m", "n", "s", "sigma", "data_seed"}, "problem")
        out.update(
            m=_check_range(section.get("m", 20), "problem.m", int, lo=2),
            n=_check_range(section.get("n", 20), "problem.n", int, lo=2),
            s=_check_range(section.get("s", 1.0), "problem.s", float, lo=1.0),
            sigma=_check_range(section.get("sigma", 0.1), "problem.sigma", float, lo=0.0),
            data_seed=_check_range(
                section.get("data_seed", 0), "problem.data_seed", int, lo=0
            ),
        )
    else:  # quadratic_distance
        _no_unknown(section, {"name", "c", "noise", "data_seed"}, "problem")
        c = section.get("c", [2.0, -1.0])
        if not isinstance(c, list) or len(c) < 2:
            raise ConfigError("problem.c", "expected a list of at least 2 numbers")
        out["c"] = [float(v) for v in c]
        out["noise"] = _check_range(
            section.get("noise", 0.05), "problem.noise", float, lo=0.0
        )
        out["data_seed"] = _check_range(
            section.get("data_seed", 0), "problem.data_seed", int, lo=0
        )
    return out


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
    if algorithm in ("stagewise", "stagewise-v2"):
        if not modes:
            raise ConfigError(
                "schedule",
                "stage-wise algorithms need either a theorem (thm5-thm8) or a "
                "stages section",
            )
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
        if thm not in THEOREMS:
            raise ConfigError("schedule.theorem", f"unknown theorem {thm!r}")
        is_stage_thm = thm in STAGE_THEOREMS
        if algorithm in ("stagewise", "stagewise-v2") and not is_stage_thm:
            raise ConfigError(
                "schedule.theorem",
                f"{thm} is a single-run schedule; stage-wise algorithms need thm5-thm8",
            )
        if algorithm in ("pmvr", "pmvr-v2") and is_stage_thm:
            raise ConfigError(
                "schedule.theorem",
                f"{thm} is a stage-wise schedule; pmvr variants need thm1-thm4",
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
        if overrides and is_stage_thm:
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
        if algorithm == "pmvr-v2" and "n" not in explicit:
            raise ConfigError("schedule.explicit.n", "this algorithm needs inner iterations n")
        if algorithm == "pmvr-v2" and "coeff" not in explicit:
            raise ConfigError("schedule.explicit.coeff", "pmvr-v2 needs a coefficient")
        if algorithm != "pmvr-v2" and (
            "n" in out["explicit"] or "coeff" in out["explicit"]
        ):
            raise ConfigError(
                "schedule.explicit", f"subsolver parameters require pmvr-v2, not {algorithm}"
            )
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
        if algorithm == "stagewise-v2" and ("n" not in out or "coeff" not in out):
            raise ConfigError(
                "schedule", "stagewise-v2 stages need n and coeff for the subsolver"
            )
    return out


def validate_config(data, name="run"):
    """Validate a parsed configuration dict into a RunConfig."""
    if not isinstance(data, dict):
        raise ConfigError("", "configuration root must be an object")
    top_allowed = {
        "problem", "set", "algorithm", "schedule", "beta", "seed", "reps",
        "metric_every", "jobs", "out", "name",
    }
    _no_unknown(data, top_allowed, "")
    problem = _validate_problem(_require(data, "problem", ""))
    algorithm = _require(data, "algorithm", "")
    if algorithm not in ALGORITHMS:
        raise ConfigError("algorithm", f"unknown algorithm {algorithm!r}")
    schedule = _validate_schedule(_require(data, "schedule", ""), algorithm)
    if algorithm == "baseline" and schedule["mode"] != "explicit":
        raise ConfigError("schedule", "the baseline takes explicit parameters only")
    set_spec = data.get("set")
    if set_spec is not None:
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
