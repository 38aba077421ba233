"""Dataset ingestion, run configuration, and trace serialization.

The industry-returns loader accepts the whitespace- and comma-delimited
variants of the Kenneth French library format (comma-delimited when any
line is a comma-separated data row) and reads the file's first data block
in one forward pass. It skips the preamble, keeping its last all-text line
as the header, then takes rows until the first blank, text or
different-width line, or the first row with a malformed field, whose
fields are parsed before its width is compared. One sentinel scan runs
over the block. Under "error" the block's first sentinel row is reported;
failing that, under either policy, the malformed row is. It follows every
row of the block, so the first fault in file order is the one reported.
The block's rows are parsed or rejected and every other line is skipped.
Every load reads the file's bytes, but parses them only when they or the
sentinel policy differ from those of the process's last successful load:
one slot per process (a pool's workers each keep their own) holds those
bytes, the policy and their returns, names and LoadReport, and each load
returns fresh copies of these, which the caller may change.

Run configurations are strict JSON: unknown keys fail with a path-like
locator. Each problem is one entry of ``PROBLEMS`` and each feasible set
one entry of ``SETS``; an entry both validates its config section and
builds it, a set for the problem built before it. Each algorithm is one
entry of ``ALGORITHMS``, and ``resolve_schedule`` alone turns a
``schedule`` section into solver parameters, once per config, when it is
validated. Traces and the aggregate round-trip field-exactly through CSV
with 17-significant-digit floats, their columns written out once, in
``TRACE_COLUMNS`` and ``AGGREGATE_CRITERIA``.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from . import benchmarks
from .rng import SEED_LIMIT
from .sets import Box, NuclearNormBall, Simplex
from .solvers import (
    THEOREMS, QuadraticSubsolver, ScheduleConstants, SolverParams, StageSchedule, TraceRow,
    schedule_for,
)

SENTINELS = (-99.99, -999.0)


class Algorithm(NamedTuple):
    """An algorithm's theorems (none: explicit parameters only), whether it
    runs a stage list and the quadratic subsolver, and the name of its
    solver entry point, which ``cli`` looks up when a repetition runs."""

    theorems: tuple
    stagewise: bool
    subsolver: bool
    run: str


ALGORITHMS = {
    "pmvr": Algorithm(("thm1", "thm2"), False, False, "pmvr_run"),
    "pmvr-v2": Algorithm(("thm3", "thm4"), False, True, "pmvr_run"),
    "stagewise": Algorithm(("thm5", "thm6"), True, False, "stagewise_run"),
    "stagewise-v2": Algorithm(("thm7", "thm8"), True, True, "stagewise_run"),
    "baseline": Algorithm((), False, False, "projected_baseline_run"),
}


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

def _optional_float(cell):
    return None if cell == "" else float(cell)


# each trace CSV column and the parser of its cells, in TraceRow field order
TRACE_COLUMNS = {
    "iter": int, "stage": int, "seconds": float, "sfo": int, "lmo": int,
    "objective": float, "fw_gap": float, "grad_map": float, "beta": float,
    "opt_gap": _optional_float,
}
TRACE_HEADER = ",".join(TRACE_COLUMNS)
# the criteria the aggregate averages across repetitions
AGGREGATE_CRITERIA = ("objective", "fw_gap", "grad_map", "opt_gap")
AGGREGATE_HEADER = ",".join(
    ["iter", "stage", "sfo", "lmo", "seconds_mean"]
    + [f"{c}_{stat}" for c in AGGREGATE_CRITERIA for stat in ("mean", "std")]
)


def _cell(value):
    """One CSV cell: empty for None, 17 significant digits for a float."""
    if value is None:
        return ""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def write_csv(path, header, rows):
    """UTF-8 comma-separated ``header`` and one line per row of values,
    given in header order."""
    lines = [header, *(",".join(map(_cell, row)) for row in rows)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trace_csv(trace, path):
    """The trace under the fixed header; a row's fields are in header order."""
    write_csv(path, TRACE_HEADER, (vars(row).values() for row in trace))


def read_trace_csv(path):
    """The TraceRows of a trace file. A wrong header, field count or cell
    raises ParseError naming the path and line, and a cell's column."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.rstrip("\n")) for n, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines or lines[0][1] != TRACE_HEADER:
        where = f"{path}:{lines[0][0]}" if lines else str(path)
        raise ParseError(f"{where}: header mismatch, expected {TRACE_HEADER!r}")
    rows = []
    for lineno, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(TRACE_COLUMNS):
            raise ParseError(f"{path}:{lineno}: expected {len(TRACE_COLUMNS)} fields, "
                             f"got {len(cells)}: {ln!r}")
        values = []
        for col, ((name, parse), cell) in enumerate(zip(TRACE_COLUMNS.items(), cells), 1):
            try:
                values.append(parse(cell))
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: malformed {name} in column {col}: {cell!r}"
                ) from None
        rows.append(TraceRow(*values))
    return rows


def write_aggregate_csv(traces, path):
    """Per row of the repetitions' ``traces`` (one iteration grid), each
    criterion's mean and population std, empty if any repetition's is.

    Each column is one C-ordered (rows, repetitions) array, reduced along
    its rows in one pass: the same reduction, element order included, as
    a row's own mean and std. Only the (rows, columns, 2) table of the
    results is kept, and a row's cells are made as it is written.
    """
    grids = [[(r.iteration, r.stage) for r in t] for t in traces]
    if any(g != grids[0] for g in grids[1:]):
        raise RuntimeError("repetitions produced different iteration grids")
    names = ("seconds", *AGGREGATE_CRITERIA)

    def stats(name):
        values = [[getattr(r, name) for r in reps] for reps in zip(*traces)]
        arr = np.array(values, dtype=np.float64).reshape(len(values), len(traces))
        return np.stack((arr.mean(axis=1), arr.std(axis=1)), axis=1), [None in v for v in values]

    table = np.empty((len(traces[0]), len(names), 2))
    missing = np.empty((len(traces[0]), len(names)), dtype=bool)
    for k, name in enumerate(names):
        table[:, k], missing[:, k] = stats(name)

    def cells(first, row, gaps):
        (seconds, _), *pairs = row.tolist()
        out = [first.iteration, first.stage, first.sfo, first.lmo, seconds]
        for pair, gap in zip(pairs, gaps.tolist()[1:]):
            out += (None, None) if gap else pair
        return out

    write_csv(path, AGGREGATE_HEADER, (cells(*row) for row in zip(traces[0], table, missing)))


# --- Kenneth French industry files ----------------------------------------

@dataclass
class LoadReport:
    parsed: int = 0
    skipped: int = 0
    rejected: int = 0

    @property
    def total(self):
        return self.parsed + self.skipped + self.rejected


def _split_line(line, comma):
    """A stripped line's tokens; a comma line's leading empty field (the
    header's corner cell) is dropped."""
    if not comma:
        return line.split()
    tokens = [t.strip() for t in line.split(",")]
    return tokens[1:] if tokens[0] == "" else tokens


def _is_data_row(tokens):
    """More than one token, the first a 4- to 8-digit date."""
    return len(tokens) > 1 and tokens[0].isdigit() and 4 <= len(tokens[0]) <= 8


# (bytes, sentinel policy, PortfolioData) of this process's last successful
# load; a load hands out copies, so no caller can change the slot
_last_load = None


def load_french_csv(path, sentinel_policy="error"):
    """Load an industry-portfolio returns file into PortfolioData.

    Only the first data block is read: the library's files follow the
    value-weighted monthly returns with more blocks of the same width
    (equal-weighted, annual, firm counts, firm sizes). The file is
    comma-delimited when a line's first comma-separated field is a date,
    whitespace-delimited otherwise. Percent values are divided by 100. A
    row holds a sentinel when one of its values v has ``|v - s| <= 1e-9``
    for s = -99.99 or -999 (``math.isclose(v, s, rel_tol=0.0,
    abs_tol=1e-9)``, NaN and inf included); such rows are rejected per
    policy: "error" fails loudly (the default; silently shrinking a return
    series distorts means), "drop" excludes them and reports the count. The
    module docstring gives the pass that reads the block and the order in
    which its faults are reported, and the slot that spares a repeated
    load of the same bytes its parse. Bytes that are not UTF-8 raise
    ParseError naming the byte offset.
    """
    global _last_load
    if sentinel_policy not in ("error", "drop"):
        raise ValueError(f"unknown sentinel policy {sentinel_policy!r}")
    with open(path, "rb") as fh:
        raw = fh.read()
    last = _last_load
    if last is None or last[:2] != (raw, sentinel_policy):
        last = _last_load = (raw, sentinel_policy, _parse_french(raw, path, sentinel_policy))
    data = last[2]
    return benchmarks.PortfolioData(
        returns=data.returns.copy(), names=list(data.names), report=replace(data.report))


def _parse_french(raw, path, sentinel_policy):
    """The PortfolioData of a file's bytes, in the module docstring's one
    forward pass. The lines are those of reading the file as UTF-8 text."""
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text at byte offset {exc.start}: {exc.reason}") from None

    comma = any("," in ln and _is_data_row(_split_line(ln.strip(), True)) for ln in lines)
    header = None
    rows = []
    fault = None  # the malformed row that ends the block
    for lineno, line in enumerate(lines, start=1):
        tokens = _split_line(line.strip(), comma)
        if not _is_data_row(tokens):
            if rows:
                break
            if tokens and not any(map(_looks_numeric, tokens)):
                header = tokens
            continue
        try:
            values = list(map(float, tokens[1:]))
        except ValueError:
            bad = next(col for col, tok in enumerate(tokens[1:], 1) if not _looks_numeric(tok))
            fault = ParseError(
                f"{path}:{lineno}: malformed numeric field in column {bad}: {tokens[bad]!r}")
            break
        if rows and len(values) != len(rows[0]):
            break
        if not rows:
            first = lineno - 1  # the block's first line, 0-based
        rows.append(values)

    if not rows:
        raise fault or ParseError(f"{path}: no usable data rows")
    block = np.array(rows, dtype=np.float64)
    hit = np.zeros(len(rows), dtype=bool)
    for s in SENTINELS:
        hit |= (np.abs(block - s) <= 1e-9).any(axis=1)
    if sentinel_policy == "error" and hit.any():
        i = first + int(hit.argmax())
        date = _split_line(lines[i].strip(), comma)[0]
        raise ParseError(f"{path}:{i + 1}: sentinel value in row dated {date}")
    if fault:
        raise fault
    if hit.all():
        raise ParseError(f"{path}: no usable data rows")
    rejected = int(hit.sum())
    report = LoadReport(parsed=len(rows) - rejected, skipped=len(lines) - len(rows),
                        rejected=rejected)
    if header is None or len(header) != block.shape[1]:
        header = [f"asset_{j + 1}" for j in range(block.shape[1])]
    return benchmarks.PortfolioData(returns=block[~hit] / 100.0, names=header, report=report)


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
    # the schedule resolved once, at validation; None only for a thm7/thm8
    # schedule that takes its modulus from the problem
    resolved: Union[SolverParams, StageSchedule, None] = None


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
    if kind is float and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise ConfigError(path, f"expected a number, got {value!r}")
    # a NaN fails every comparison; an int is compared exactly, never converted
    if kind is float and not abs(value) <= sys.float_info.max:
        got = "an integer beyond float range" if isinstance(value, int) else repr(value)
        raise ConfigError(path, f"expected a finite number, got {got}")
    v = kind(value)
    if lo is not None and (v <= lo if lo_open else v < lo):
        raise ConfigError(path, f"value {v} out of range")
    if hi is not None and v > hi:
        raise ConfigError(path, f"value {v} out of range")
    return v


# --- the problem and set tables --------------------------------------------

class Kind(NamedTuple):
    """A problem, a portfolio data source or a feasible set: its config keys
    in the order they are checked, each with (type, default, *range), a
    REQUIRED default marking a required key and a number's range being
    ``_check_range``'s (lo, hi, lo_open); the builder of a resolved section;
    and an optional check of the resolved section's fields against each
    other, given the section and its locator."""

    fields: dict
    build: Callable
    check: Optional[Callable] = None


REQUIRED = object()


def _french(source):
    try:
        return load_french_csv(source["path"], sentinel_policy=source["sentinel_policy"])
    except OSError as exc:
        raise ConfigError("problem.source.path", f"cannot read the file: {exc}") from None


PORTFOLIO_SOURCES = {
    "synthetic": Kind(
        {"d": (int, 10, 2), "periods": (int, 500, 1),
         "data_seed": (int, 0, 0, SEED_LIMIT - 1)},
        lambda src: benchmarks.synthetic_portfolio_data(
            src["d"], src["periods"], src["data_seed"]),
    ),
    "french_csv": Kind(
        {"sentinel_policy": (("error", "drop"), "error"), "path": (str, REQUIRED)},
        _french,
    ),
}


def _portfolio(objective, spec):
    """(problem, simplex, equal weights) over the source's assets."""
    source = spec["source"]
    data = PORTFOLIO_SOURCES[source["kind"]].build(source)
    return objective(data, spec["lambda"]), Simplex(data.d), np.full(data.d, 1.0 / data.d)


PORTFOLIO_FIELDS = {
    "lambda": (float, 1.0, 0.0),
    "source": (PORTFOLIO_SOURCES, {"kind": "synthetic"}),
}


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
    ),
    "mean_deviation": Kind(
        PORTFOLIO_FIELDS, lambda spec: _portfolio(benchmarks.mean_deviation_problem, spec),
    ),
    "single_index": Kind(
        {"m": (int, 20, 2), "n": (int, 20, 2), "s": (float, 1.0, 1.0),
         "sigma": (float, 0.1, 0.0), "data_seed": (int, 0, 0, SEED_LIMIT - 1)},
        _single_index,
    ),
    "quadratic_distance": Kind(
        {"c": (list, [2.0, -1.0], 2), "noise": (float, 0.05, 0.0)},
        _quadratic_distance,
    ),
}


def _box_bounds(box, path):
    lower, upper = np.asarray(box["lower"]), np.asarray(box["upper"])
    if lower.shape != upper.shape:
        raise ConfigError(
            f"{path}.lower", f"shape {lower.shape} differs from upper's {upper.shape}"
        )
    if np.any(lower > upper):
        raise ConfigError(f"{path}.lower", "lower must not exceed upper coordinatewise")


# a set's builder takes its resolved section and the problem built before it;
# a simplex spans the problem's flattened point
SETS = {
    "simplex": Kind({}, lambda spec, problem: Simplex(problem.levels[0].in_dim)),
    "box": Kind(
        {"lower": (np.ndarray, REQUIRED), "upper": (np.ndarray, REQUIRED)},
        lambda spec, problem: Box(spec["lower"], spec["upper"]),
        _box_bounds,
    ),
    "nuclear_ball": Kind(
        {"m": (int, REQUIRED, 1), "n": (int, REQUIRED, 1),
         "radius": (float, REQUIRED, 0.0, None, True)},
        lambda spec, problem: NuclearNormBall(spec["m"], spec["n"], spec["radius"]),
    ),
}


def _check_kind(section, path, key, kinds, noun, default=REQUIRED):
    """A section whose ``key`` picks one of ``kinds``, resolved: unknown keys
    are refused first, then the kind's fields are checked in order, then the
    kind's own check runs."""
    if not isinstance(section, dict):
        raise ConfigError(path, "expected an object")
    tag = _require(section, key, path) if default is REQUIRED else section.get(key, default)
    if not isinstance(tag, str) or tag not in kinds:
        raise ConfigError(f"{path}.{key}", f"unknown {noun} {tag!r}")
    entry = kinds[tag]
    _no_unknown(section, {key, *entry.fields}, path)
    out = {key: tag}
    for name, spec in entry.fields.items():
        value = _require(section, name, path) if spec[1] is REQUIRED else section.get(name, spec[1])
        out[name] = _check_field(value, f"{path}.{name}", *spec)
    if entry.check is not None:
        entry.check(out, path)
    return out


def _check_field(value, path, kind, default, *bound):
    """One field of a ``Kind``. Its type is int or float (in the range
    ``bound``), list (at least ``bound`` finite numbers, one level deep),
    np.ndarray (finite numbers nested to any depth, kept as given), str (a
    path), a tuple (one of its values) or a dict of source kinds (a section
    whose ``kind``, by default the default's, picks its fields)."""
    if kind is int or kind is float:
        return _check_range(value, path, kind, *bound)
    if kind is list:
        least, = bound
        if not isinstance(value, list) or len(value) < least:
            raise ConfigError(path, f"expected a list of at least {least} numbers")
        if _numbers(value, path).ndim != 1:
            raise ConfigError(path, f"expected a list of numbers, got {value!r}")
        return [float(v) for v in value]
    if kind is np.ndarray:
        _numbers(value, path)
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(path, "expected a string path")
        return value
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(path, f"unknown policy {value!r}")
        return value
    return _check_kind(value, path, "kind", kind, "source kind", default["kind"])


# schedule parameters: name -> (type, *range), the range as in a Kind's fields
PARAM_FIELDS = {
    "eta": (float, 0.0, 1.0),
    "alpha": (float, 0.0, 1.0, True),
    "b0": (int, 1),
    "b1": (int, 1),
    "t": (int, 1),
    "n": (int, 1),
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
        out[key] = _check_range(value, f"{path}.{key}", *PARAM_FIELDS[key])
    return out


def _validate_schedule(section, algorithm):
    entry = ALGORITHMS[algorithm]
    if not isinstance(section, dict):
        raise ConfigError("schedule", "expected an object")
    modes = [k for k in ("theorem", "explicit", "stages") if k in section]
    if len(modes) != 1:
        raise ConfigError(
            "schedule", "exactly one of theorem | explicit | stages is required"
        )
    mode = modes[0]
    if mode == "explicit" and entry.stagewise:
        raise ConfigError(
            "schedule.explicit", "stage-wise algorithms take a theorem or stages"
        )
    if mode == "stages" and not entry.stagewise:
        raise ConfigError("schedule.stages", f"{algorithm} is not stage-wise")
    out = {"mode": mode}
    if mode == "theorem":
        _no_unknown(
            section, {"theorem", "eps", "constants", "overrides", "modulus"}, "schedule"
        )
        thm = section["theorem"]
        if not isinstance(thm, str) or thm not in THEOREMS:
            raise ConfigError("schedule.theorem", f"unknown theorem {thm!r}")
        if entry.theorems and thm not in entry.theorems:  # the baseline fails later
            raise ConfigError(
                "schedule.theorem",
                f"{algorithm} runs {' or '.join(entry.theorems)}, not {thm}",
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
        _no_unknown(constants, vars(ScheduleConstants()), "schedule.constants")
        out["constants"] = {
            k: _check_range(v, f"schedule.constants.{k}", float, lo=0.0, lo_open=True)
            for k, v in constants.items()
        }
        overrides = _validate_params(
            section.get("overrides", {}), "schedule.overrides",
            allowed=("eta", "alpha", "b0", "b1", "t", "n"),
        )
        if overrides and entry.stagewise:
            raise ConfigError(
                "schedule.overrides", "overrides apply to single-run schedules only"
            )
        if "n" in overrides and not entry.subsolver:
            raise ConfigError("schedule.overrides.n", f"{algorithm} runs no subsolver for n")
        out["overrides"] = overrides
        if "modulus" in section:
            if THEOREMS[thm][0] != "strongly_convex_gap":
                raise ConfigError("schedule.modulus", f"{thm} takes no modulus")
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
    if mode != "theorem":
        block = out["explicit"] if mode == "explicit" else out
        where = "schedule.explicit" if mode == "explicit" else "schedule"
        for key in ("n", "coeff"):
            if (key in block) != entry.subsolver:
                what = "needs" if key not in block else "runs no subsolver for"
                raise ConfigError(f"{where}.{key}", f"{algorithm} {what} {key}")
    return out


# --- the schedule resolver ---------------------------------------------------

# the config key of each SolverParams field but the subsolver, whose are n and coeff
KEY_TO_FIELD = {"eta": "eta", "alpha": "alpha", "b0": "b0", "b1": "b1", "t": "iters"}
# a level draws B0 + sum(T * B1) samples in a run; from 2**63 on, no int64
# index counts them, and no machine could draw them
MAX_SAMPLES = 2**63
SAMPLES_OVERFLOW = "a level would draw 2**63 samples or more"


def resolve_schedule(sched, beta, problem=None):
    """A checked ``schedule`` section as SolverParams or a StageSchedule.

    A theorem's rates come from ``schedule_for``, ``beta`` being the
    subsolver's curvature, and its ``overrides`` replace them; explicit
    stages share the section's ``b0``, ``n`` and ``coeff``. A list out of
    StageSchedule's order is refused under ``schedule.stages``, and an
    ``eps`` so small that a count overflows under ``schedule.eps``. A
    schedule whose level draws MAX_SAMPLES samples or more is refused under
    ``schedule.explicit``, ``schedule.stages``, ``schedule.eps`` (before the
    overrides) or ``schedule.overrides`` (after them). A thm7/thm8 schedule
    without ``modulus`` takes ``problem``'s, and is None if no problem is
    given.
    """
    mode = sched["mode"]
    if mode == "explicit":
        return _check_samples("schedule.explicit", _params(sched["explicit"]))
    if mode == "stages":
        stages = [_params({**sched, **st}) for st in sched["stages"]]
        targets = [1.0 / 2**s for s in range(1, len(stages) + 1)]
        try:
            out = StageSchedule(stages=stages, targets=targets)
        except ValueError as exc:  # stages out of order
            raise ConfigError("schedule.stages", str(exc)) from None
        return _check_samples("schedule.stages", out)
    criterion, batch_mode = THEOREMS[sched["theorem"]]
    lam = sched.get("modulus")
    if criterion == "strongly_convex_gap" and lam is None:
        if problem is None:
            return None
        lam = problem.metadata.strong_convexity
        if lam is None or lam <= 0:
            raise ConfigError(
                "schedule.modulus",
                "strongly convex schedules need a positive modulus "
                "(set schedule.modulus or use a problem that declares one)",
            )
    overrides = {KEY_TO_FIELD.get(k, k): v for k, v in sched["overrides"].items()}
    try:
        out = schedule_for(
            criterion, batch_mode, sched["eps"], ScheduleConstants(**sched["constants"]),
            strong_convexity=lam, beta=beta,
        )
    except ArithmeticError:  # so small an eps that the count overflows
        raise ConfigError("schedule.eps", "the iteration count overflows") from None
    _check_samples("schedule.eps", out)
    if "n" in overrides:  # validation admits n only where the subsolver runs
        overrides["subsolver"] = replace(out.subsolver, inner_iters=overrides.pop("n"))
    return _check_samples("schedule.overrides", replace(out, **overrides))


def _check_samples(path, schedule):
    """``schedule``, unless its level draws MAX_SAMPLES samples or more: the
    first stage's B0, then T * B1 in every stage."""
    stages = getattr(schedule, "stages", [schedule])
    total = stages[0].b0 + sum(p.iters * p.b1 for p in stages)
    if total >= MAX_SAMPLES:
        raise ConfigError(path, SAMPLES_OVERFLOW)
    return schedule


def _params(block):
    """SolverParams from config keys, ``n`` and ``coeff`` coming together."""
    sub = None
    if "n" in block:
        sub = QuadraticSubsolver(coeff=block["coeff"], inner_iters=block["n"])
    return SolverParams(**{f: block[k] for k, f in KEY_TO_FIELD.items()}, subsolver=sub)


def describe_schedule(schedule):
    """A resolved schedule in config keys, as the metadata sidecar records it."""
    if isinstance(schedule, SolverParams):
        return _params_dict(schedule)
    return {
        "stages": [_params_dict(p) for p in schedule.stages],
        "targets": schedule.targets,
        "eps1": schedule.eps1,
    }


def _params_dict(p):
    out = {k: getattr(p, f) for k, f in KEY_TO_FIELD.items()}
    if p.subsolver is not None:
        out["n"] = p.subsolver.inner_iters
        out["coeff"] = p.subsolver.coeff
    return out


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
    if not isinstance(algorithm, str) or algorithm not in ALGORITHMS:
        raise ConfigError("algorithm", f"unknown algorithm {algorithm!r}")
    schedule = _validate_schedule(_require(data, "schedule", ""), algorithm)
    # beta is the subsolver's curvature in the resolved schedule, but its own
    # fault is reported after the schedule's, the set's and the seed's
    beta, beta_fault = data.get("beta", 1.0), None
    try:
        beta = _check_range(beta, "beta", float, lo=0.0, lo_open=True)
    except ConfigError as exc:
        beta, beta_fault = 1.0, exc
    resolved = resolve_schedule(schedule, beta)
    if not ALGORITHMS[algorithm].theorems and schedule["mode"] != "explicit":
        raise ConfigError("schedule", "the baseline takes explicit parameters only")
    set_spec = data.get("set")
    if set_spec is not None:  # a missing kind is an unknown one
        set_spec = _check_kind(set_spec, "set", "kind", SETS, "set kind", default=None)
    seed = _check_range(_require(data, "seed", ""), "seed", int, lo=0, hi=SEED_LIMIT - 1)
    if beta_fault is not None:
        raise beta_fault
    reps = _check_range(data.get("reps", 1), "reps", int, lo=1)
    if seed + reps > SEED_LIMIT:
        raise ConfigError("reps", "the last seed, seed + reps - 1, must be below 2**64")
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
        resolved=resolved,
    )


def load_run_config(path, seed=None, reps=None, out=None):
    """Parse a JSON run configuration file and validate it, once, with each
    of ``seed``, ``reps`` and ``out`` that is given replacing the file's
    key of that name."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int of over 4300 digits
        raise ConfigError("", f"invalid JSON: {exc}") from exc
    flags = {"seed": seed, "reps": reps, "out": out}
    if isinstance(data, dict):  # any other root is refused by validation
        data.update((k, v) for k, v in flags.items() if v is not None)
    stem = os.path.splitext(os.path.basename(path))[0]
    return validate_config(data, name=stem)


def write_metadata(path, payload):
    """Sidecar with every resolved parameter, in the same format as configs."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
