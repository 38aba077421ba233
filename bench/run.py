"""Benchmark entry point for the pmvr recipe path.

Usage, from the repository root:

    python3 bench/run.py --workload md-portfolio --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a full report is written to ``bench/out/<workload>/``. The
process pins the BLAS thread count before numpy is imported and imports
pmvr from the ``src`` directory next to ``bench``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def main(argv=None):
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(bench_dir), "src")
    parser = argparse.ArgumentParser(description="pmvr recipe benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(src, "pmvr", "__init__.py")):
        print(f"error: the pmvr sources are missing ({src}/pmvr)", file=sys.stderr)
        return 2

    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    # one thread on one CPU: identical work then varies a few percent
    # instead of up to 2x when the scheduler moves it (README, "Noise")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, src)
    from harness import END_TO_END, PER_LAYER, run_workload
    from recipes import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result, report = run_workload(
        workload, args.seed, args.seconds, bool(args.trace),
        os.path.join(bench_dir, "out"), THREAD_VARS,
    )
    env = report["environment"]
    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} threads={BLAS_THREADS} cpu={env['pinned_cpus']} jobs=1")
    print(f"# input seeds {report['input_seeds']}")
    for data_seed, data in report["inputs"].items():
        print(f"# input {data_seed}: {data['file']} sha256={data['sha256']} "
              f"rows={data['rows_written']} parsed={data['parsed']}")
    units = PER_LAYER if args.trace else END_TO_END
    for name, entry in result["metrics"].items():
        print(f"{name:34s} {entry['value']:.6g} {units[name]}")
    for name, entry in report.get("timings", {}).items():
        if name.endswith("_s") and name not in result["metrics"]:
            print(f"{name:34s} {entry['value']:.6g} s (wall clock, not bounded)")
    for name, value in report.get("quality", {}).items():
        print(f"{name:34s} {value:.6g} gap (not bounded)")
    if not args.trace:
        rate = result["failed"] / result["attempted"]
        print(f"{'error_rate':34s} {rate:.6g} ratio "
              f"({result['failed']} of {result['attempted']} failed)")
    for failure in report["failures"][:10]:
        print(f"# failure: {failure}".rstrip())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
