"""Golden traces: small runs must keep their trace files bit for bit.

Each case runs one config through the CLI's repetition path and hashes its
trace file with the wall-clock ``seconds`` column blanked. The digests were
last recorded when each level came to draw all its batches in order from
one stream. They pin the sample streams, the oracle counters and every LMO
decision. The LMO-driven solvers move only when a direction changes, so a
last-bit change of their trackers rarely shows; the baseline's projected
step carries the last bits of its gradient into the trace, so its cases
also pin the reduction order of the batch means. The digests hold for one
numpy build and CPU family: another BLAS or SIMD path may round the last
bits differently, and then many cases change at once.

The nuclear-ball cases run the single-index problem at 5 x 7, where the
LMO takes its transposed branch. Before the streams changed, their digests
had held since before the solvers stopped checking each nuclear-ball
iterate with a full SVD. Their baseline step size keeps some iterates
inside the ball and puts others on its boundary, so both branches of the
projection are pinned.
"""

import hashlib

import pytest

from pmvr import cli
from pmvr.data_io import validate_config, write_trace_csv

D = 6
SCHEDULES = {
    "pmvr": {"theorem": "thm1", "eps": 0.1,
             "constants": {"alpha": 3.0, "b1": 8.0, "b0": 10.0},
             "overrides": {"t": 50}},
    "pmvr-v2": {"theorem": "thm3", "eps": 0.05,
                "constants": {"eta": 0.45, "alpha": 1.0, "b1": 8.0, "b0": 22.4, "n": 0.5},
                "overrides": {"t": 50}},
    "stagewise-v2": {"b0": 8, "n": 3, "coeff": 0.5,
                     "stages": [{"eta": 0.2, "alpha": 0.5, "b1": 4, "t": 20},
                                {"eta": 0.1, "alpha": 0.25, "b1": 8, "t": 30}]},
    "baseline": {"explicit": {"eta": 0.05, "alpha": 0.3, "b0": 10, "b1": 4, "t": 50}},
}
SETS = {
    "simplex": None,
    "box": {"kind": "box", "lower": [0.0] * D, "upper": [0.5] * D},
}
GOLDEN = {
    ("mean_deviation", "box", "pmvr"):
        "707572f2638709759f08869c57fc1b1713c4e3c4ef4831ca6860a696e03a02dc",
    ("mean_deviation", "box", "pmvr-v2"):
        "50798b80190844c19a9d86246ebfb4421ee9a14f8160751ae005783b2823e836",
    ("mean_deviation", "box", "stagewise-v2"):
        "782d64479cfdd1d4720882c017fa82e7f6503cc8ff27a283eac8686bcb0115c5",
    ("mean_deviation", "box", "baseline"):
        "0b76f6eb96b584f918bd7dcdeaeabe37df8b10cfed4657940543daa46dde0a46",
    ("mean_deviation", "simplex", "pmvr"):
        "7494dc857df97ba010eadfd5b649c15b44242bfb42d5c79ad62708fc59ba0655",
    ("mean_deviation", "simplex", "pmvr-v2"):
        "ca46747a46d8755fe985d5c762b4abe2c89cd0e5f24702a8a482682a1867fdf5",
    ("mean_deviation", "simplex", "stagewise-v2"):
        "a3a20c24c6436b0fb0176cb5ad9acd1856f4b9b8cb6a033f4c4eb15233843136",
    ("mean_deviation", "simplex", "baseline"):
        "2a200399d1f7f640312872aca827d8d19344d6be5273272c7cef4ee462cc5f80",
    ("mean_variance", "box", "pmvr"):
        "34b3be0487d012c8569d2dcc47221e8514602ba511b9730052e125a8f8548f9d",
    ("mean_variance", "box", "pmvr-v2"):
        "cc4a52758bd1fd81c7cd8bc383c785dbc1d320f895cd48dad036757ee96e746e",
    ("mean_variance", "box", "stagewise-v2"):
        "c8caff2d884023015ca47ad8df70483e13423c838795d4bad2c8850dc76fdb7c",
    ("mean_variance", "box", "baseline"):
        "45ed5cd932b03cdedce3df4189908d72871b9c552f7af44daa56827caa94ce5a",
    ("mean_variance", "simplex", "pmvr"):
        "40c5cb2d26172b033e25f2123f4d21dd2354c29be42c46e1018072335a67f4ad",
    ("mean_variance", "simplex", "pmvr-v2"):
        "a8c34e8f0a7aec33c2684678629cc7ce347247dce985d3d0af38467672d3ddb6",
    ("mean_variance", "simplex", "stagewise-v2"):
        "8a5ceefe7b5bc506ea91299a4dbce055bdd26cd462adfe55a33c7f97f9d0dc6a",
    ("mean_variance", "simplex", "baseline"):
        "98e832908c53c883bd60411668f48552d9ceba98ce4b723c20b937f28bc090a1",
}


def trace_digest(tmp_path, problem, set_name, algorithm):
    raw = {
        "problem": {"name": problem, "lambda": 1.0,
                    "source": {"kind": "synthetic", "d": D, "periods": 60, "data_seed": 4}},
        "algorithm": algorithm,
        "schedule": SCHEDULES[algorithm],
        "beta": 0.5,
        "seed": 11,
        "metric_every": 5,
    }
    if SETS[set_name] is not None:
        raw["set"] = SETS[set_name]
    return config_digest(tmp_path, raw)


def config_digest(tmp_path, raw):
    trace, _ = cli.execute_rep(validate_config(raw), 11)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    blanked = [lines[0]] + [
        ",".join(f if j != 2 else "" for j, f in enumerate(line.split(",")))
        for line in lines[1:]
    ]
    return hashlib.sha256("\n".join(blanked).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
def test_trace_matches_golden_digest(tmp_path, case):
    assert trace_digest(tmp_path, *case) == GOLDEN[case]


NUCLEAR_SCHEDULES = {
    "pmvr": {"theorem": "thm1", "eps": 0.1, "overrides": {"t": 30}},
    "pmvr-v2": {"theorem": "thm3", "eps": 0.05,
                "constants": {"eta": 0.126, "alpha": 8.0, "b1": 4.0, "b0": 8.0, "n": 0.5},
                "overrides": {"t": 30}},
    "stagewise-v2": {"b0": 8, "n": 3, "coeff": 0.5,
                     "stages": [{"eta": 0.2, "alpha": 0.5, "b1": 2, "t": 10},
                                {"eta": 0.1, "alpha": 0.25, "b1": 4, "t": 20}]},
    "baseline": {"explicit": {"eta": 0.05, "alpha": 0.5, "b0": 4, "b1": 2, "t": 30}},
}
NUCLEAR_GOLDEN = {
    "pmvr": "db33a1a06d0aa9703e64506c7adfdbdd83723cd002b1eda5dbb72dd57d50227b",
    "pmvr-v2": "1c522fa55f5d07e8e6d3704135b5bf044817e400559eb645be699bc753fa0445",
    "stagewise-v2": "709e2b78ff35bdf035bf7267049373752b94df82670ea7afc8458d4a559e1a8d",
    "baseline": "27260de86def4c3b5d341baed9c6c393379562dd6cc01ddcd88d80e9294bc0ea",
}


@pytest.mark.parametrize("algorithm", sorted(NUCLEAR_GOLDEN))
def test_nuclear_ball_trace_matches_golden_digest(tmp_path, algorithm):
    raw = {
        "problem": {"name": "single_index", "m": 5, "n": 7, "s": 1.0, "sigma": 0.1,
                    "data_seed": 3},
        "algorithm": algorithm,
        "schedule": NUCLEAR_SCHEDULES[algorithm],
        "beta": 0.5,
        "seed": 11,
        "metric_every": 5,
    }
    assert config_digest(tmp_path, raw) == NUCLEAR_GOLDEN[algorithm]
