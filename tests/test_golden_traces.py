"""Golden traces: small runs must keep their trace files bit for bit.

Each case runs one config through the CLI's repetition path and hashes its
trace file with the wall-clock ``seconds`` column blanked. The digests were
recorded before the tracker updates became one chain walk per step. They
pin the sample streams, the oracle counters and every LMO decision. The
LMO-driven solvers move only when a direction changes, so a last-bit change
of their trackers rarely shows; the baseline's projected step carries the
last bits of its gradient into the trace, so its cases also pin the
reduction order of the batch means. The digests hold for one numpy build
and CPU family: another BLAS or SIMD path may round the last bits
differently, and then many cases change at once.

The nuclear-ball cases run the single-index problem at 5 x 7, where the
LMO takes its transposed branch, and were recorded before the solvers
stopped checking each nuclear-ball iterate with a full SVD. Their baseline
step size keeps some iterates inside the ball and puts others on its
boundary, so both branches of the projection are pinned.
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
        "cefe459445f649d8b7933c1477d034d6d6f05b92d3ddc09518a5936bdda93415",
    ("mean_deviation", "box", "pmvr-v2"):
        "1249ebcc48fe4fcf0f02e8b8102bda0beeb77ea4cfca06b06e67cd5c2a03885f",
    ("mean_deviation", "box", "stagewise-v2"):
        "21edc30c1a365802a34d7ab45ee0d4700ec5d0cd6645235b8c3ceff8e20dfa9a",
    ("mean_deviation", "box", "baseline"):
        "ffb3024417a0f9a044b4a12f14ba113e8b438d5dc3890aecd3d841bf83f32b65",
    ("mean_deviation", "simplex", "pmvr"):
        "0f6760a1b5db53c1dff67775fa63f4aab35e491fce50bd9781c45203477e8e0f",
    ("mean_deviation", "simplex", "pmvr-v2"):
        "0c9ac9b475a2979d4056c258ed78ee7badc3fac79adb734feafbb136201ca933",
    ("mean_deviation", "simplex", "stagewise-v2"):
        "4e7fef2084a9ccbc481c670dea7dcdeaa9910039b78ff3b92411188ec05e4c4c",
    ("mean_deviation", "simplex", "baseline"):
        "c3debd76e59d28330e22da50c03f378ba669ba8adcd7d484504318050df83b15",
    ("mean_variance", "box", "pmvr"):
        "031256d96a90067b61bb637f5a34114442ce27609523e21c61d506e123b89ef9",
    ("mean_variance", "box", "pmvr-v2"):
        "bc3b5360ea4ec5ea9792fe5bb346d676372cd386d7cf0d6f4385109d511af24b",
    ("mean_variance", "box", "stagewise-v2"):
        "537c2bf8de5ec326a32ba48e86818503c8a577f2afbb5b08163bceb222dffcdd",
    ("mean_variance", "box", "baseline"):
        "a18709987c4eefaef5bf954cb2962e75da2bf974c9e7332c01d8c858c36cbfde",
    ("mean_variance", "simplex", "pmvr"):
        "682bf6e9ea1c1221b74506c7ac742f2bf6ba1757946c234c58138cf17a9bc0a9",
    ("mean_variance", "simplex", "pmvr-v2"):
        "ad6b649a57e87a3678620612377335f4ea6c5fb1e79f83999d6c3ab92123524f",
    ("mean_variance", "simplex", "stagewise-v2"):
        "66ff828049d65f6500ffe2b545770e0b5b52a45169b36d9eed2441abb8be3eb1",
    ("mean_variance", "simplex", "baseline"):
        "ad93872901f83a2bc2b2ecd646b3ec643dfe0c88892f6b17ad1489f364222959",
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
    "pmvr": "e571c7c646115eec087aefa966711d09bd666067b0248c07f660bd8b7ba81bde",
    "pmvr-v2": "528f3647c31bc9a20499c8df36100bd622f9facca13e4a4f090f60193a6b35f3",
    "stagewise-v2": "af3feff46f0d94e41979a47fd8cc03dc7045bc97cf23b63c99ab0f02f9f64a28",
    "baseline": "62cd7e75b8592647c4a83fdd6449f448000f1f0a08800ee1707a1a040983b752",
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
