"""Workload definitions: seeded inputs and the three recipe configs per workload.

Each workload is one ``pmvr reproduce``-style recipe (the same problem and
set for the solvers ``pmvr``, ``pmvr-v2`` and ``baseline``) whose inputs are
generated from the benchmark seed. The per-step shape of each recipe (sizes,
batch sizes, inner iterations N, metric cadence) matches the shipped recipe;
only the iteration count T is shortened, and each solver runs one
repetition, so that several recipe rounds fit in one measured run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

INDUSTRIES = (
    "NoDur", "Durbl", "Manuf", "Enrgy", "Chems", "BusEq",
    "Telcm", "Utils", "Shops", "Hlth", "Money", "Other",
)
FRENCH_ROWS = 1100
SOLVERS = ("pmvr", "pmvr-v2", "baseline")
# inputs a timed run takes in turn: on the matrix workloads the solvers'
# cost depends on the input by up to a third, and one run averages it out
INPUTS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str  # "mean_deviation" or "single_index"
    size: int  # assets for the portfolio, m = n for the matrix problem
    iters: int  # T of every solver run
    metric_every: int  # the shipped recipe's metric cadence
    setups: int  # timed set-ups before each recipe round, the samples of setup_s
    # T is long enough that every solver's objective must fall; at 200x200
    # twenty steps of the recipe's step sizes do not move it measurably
    descends: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "md-portfolio", "mean_deviation", len(INDUSTRIES), iters=1000,
            metric_every=5, setups=3, descends=True,
        ),
        Workload(
            "matrix-20", "single_index", 20, iters=150,
            metric_every=10, setups=5, descends=True,
        ),
        Workload(
            "matrix-200", "single_index", 200, iters=20,
            metric_every=10, setups=5, descends=False,
        ),
    )
}


def write_french_file(path, seed):
    """Write a Kenneth-French-layout monthly returns file; return (rows, sha256).

    Whitespace layout with a text preamble, a header of 12 industry names,
    ``FRENCH_ROWS`` monthly data rows in percent, then a footer holding a
    different-width annual row and a text line, so the loader's skip paths
    all run. One-factor returns keep the series realistic and far from the
    -99.99 / -999 sentinels.
    """
    gen = np.random.default_rng([seed, 0x6672656E6368])
    rows, d = FRENCH_ROWS, len(INDUSTRIES)
    # fixed market structure; the seed draws the monthly sample path
    beta = np.linspace(0.6, 1.4, d)
    alpha = np.linspace(-0.2, 0.2, d)[::-1]
    market = gen.normal(0.9, 4.5, size=rows)
    returns = alpha + market[:, None] * beta + gen.normal(0.0, 2.5, size=(rows, d))
    returns = np.clip(returns, -60.0, 80.0)
    lines = [
        "  This file was created by the pmvr benchmark input generator.",
        "  It contains synthetic value weighted returns for 12 industry portfolios.",
        "  Missing data are indicated by -99.99 or -999.",
        "",
        "",
        "  Average Value Weighted Returns -- Monthly",
        "       " + "".join(f"{n:>7}" for n in INDUSTRIES),
    ]
    for r in range(rows):
        year, month = 1926 + (6 + r) // 12, (6 + r) % 12 + 1
        lines.append(f"{year}{month:02d}" + "".join(f"{v:7.2f}" for v in returns[r]))
    lines += [
        "",
        "  Annual summary (a different width ends the monthly block)",
        f"  {1926 + (6 + rows) // 12}   10.52    3.31",
        "",
        "  Synthetic data; not for investment research.",
    ]
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(payload)
    return rows, hashlib.sha256(payload).hexdigest()


def input_seeds(seed, inputs):
    """Seeds of the ``inputs`` inputs of one run; distinct runs' seeds differ."""
    return [inputs * seed + k for k in range(inputs)]


def problem_spec(workload, seed, data_path):
    if workload.problem == "mean_deviation":
        return {
            "name": "mean_deviation", "lambda": 1.0,
            "source": {"kind": "french_csv", "path": data_path},
        }
    n = workload.size
    return {"name": "single_index", "m": n, "n": n, "s": 1.0, "sigma": 0.1,
            "data_seed": seed}


def recipe_configs(workload, seed, data_path, out_dir, iters=None):
    """Raw config dicts for the three solvers, keyed by solver name.

    The constants are those of ``pmvr reproduce`` for the same experiment
    (md-portfolio, or matrix); ``overrides.t`` and the baseline's explicit
    ``t`` shorten the run without changing any per-step quantity.
    """
    t = workload.iters if iters is None else iters
    common = {
        "problem": problem_spec(workload, seed, data_path),
        "seed": seed,
        "reps": 1,
        "metric_every": workload.metric_every,
        "jobs": 1,
        "out": out_dir,
    }
    if workload.problem == "mean_deviation":
        schedules = {
            "pmvr": {"theorem": "thm1", "eps": 0.1,
                     "constants": {"alpha": 3.0, "b1": 8.0, "b0": 10.0},
                     "overrides": {"t": t}},
            "pmvr-v2": {"theorem": "thm3", "eps": 0.05,
                        "constants": {"eta": 0.45, "alpha": 1.0, "b1": 8.0,
                                      "b0": 22.4, "n": 0.5},
                        "overrides": {"t": t}},
            "baseline": {"explicit": {"eta": 0.05, "alpha": 0.5, "b0": 10, "b1": 1,
                                      "t": t}},
        }
        extra = {"pmvr-v2": {"beta": 0.01}}
    else:
        eps_v2 = 2000.0 ** (-2.0 / 3.0)  # the matrix recipe's thm3 target
        schedules = {
            "pmvr": {"theorem": "thm1", "eps": 0.1, "overrides": {"t": t}},
            "pmvr-v2": {"theorem": "thm3", "eps": eps_v2,
                        "constants": {"eta": 0.126, "alpha": 8.0, "b1": 8.0,
                                      "b0": 16.0, "n": 10.0 * eps_v2},
                        "overrides": {"t": t}},
            "baseline": {"explicit": {"eta": 0.05, "alpha": 1.0, "b0": 10, "b1": 1,
                                      "t": t}},
        }
        extra = {}
    return {
        algo: dict(common, algorithm=algo, schedule=schedules[algo],
                   name=f"{workload.name}_{algo}", **extra.get(algo, {}))
        for algo in SOLVERS
    }
