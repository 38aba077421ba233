"""Time the nuclear ball's LMO and projection along their two paths, on the
arguments a run hands them.

Run from the repository root::

    PYTHONPATH=src python tools/lmo_crossover.py            # sides 12 to 32
    PYTHONPATH=src python tools/lmo_crossover.py 16 20 24   # chosen sides

For each side k it runs a short pmvr-v2 (quadratic subsolver) and a short
projected baseline on a k x k ``single_index`` problem, and keeps a copy of
every direction the solver hands to the nuclear ball's ``_lmo`` and of every
point it hands to ``_nearest``: the ball is an instance of a subclass whose
``_lmo`` and ``_nearest`` record their argument, so the package itself is
not patched. It then times each operation on its own arguments along both
paths, by moving ``sets._SHIFTED_SOLVE_SIDE`` above or below k for the
measurement: ``_lmo`` along the dense ``eigh`` path and the shifted solve,
``_nearest`` along the full SVD and the Gram matrix's eigensolve. The
projection table also counts the points the Gram path hands back to the SVD
(inside points, and thresholds below its accuracy guard). Each timing is the
best of 7 alternated passes over all the arguments, in us per call. The BLAS
thread count is whatever the environment sets (OPENBLAS_NUM_THREADS=1 for
one).
"""

import sys
import time

import numpy as np

from pmvr import sets
from pmvr.benchmarks import SingleIndexConfig, single_index_problem
from pmvr.rng import RandomSource
from pmvr.solvers import (
    QuadraticSubsolver,
    SolverParams,
    TraceConfig,
    pmvr_run,
    projected_baseline_run,
)

SIDES = (12, 16, 20, 24, 28, 32)
STEPS = 30  # solver steps: pmvr-v2 makes one LMO per subsolver iteration, the baseline one projection
REPEATS = 7


class CapturingBall(sets.NuclearNormBall):
    """A nuclear ball that keeps a copy of every argument of its LMO and of
    its projection."""

    def __init__(self, ball):
        super().__init__(ball.m, ball.n, ball.radius)
        self.directions = []
        self.points = []

    def _lmo(self, direction):
        self.directions.append(np.array(direction, dtype=np.float64))
        return super()._lmo(direction)

    def _nearest(self, p):
        self.points.append(np.array(p, dtype=np.float64))
        return super()._nearest(p)


def captured(side):
    """``(ball, LMO directions, projected points)`` of a pmvr-v2 run and a
    baseline run on one k x k problem."""
    problem, ball = single_index_problem(SingleIndexConfig(m=side, n=side))
    ball = CapturingBall(ball)
    trace = TraceConfig(keep_iterates=False)
    params = SolverParams(eta=0.126, alpha=0.5, b0=16, b1=8, iters=STEPS,
                          subsolver=QuadraticSubsolver(coeff=1.0, inner_iters=10))
    pmvr_run(problem, ball, params, problem.x_start, RandomSource(side), trace)
    directions = ball.directions
    ball.points = []  # drop the pmvr-v2 metric rows' projections
    params = SolverParams(eta=0.05, alpha=1.0, b0=10, b1=1, iters=STEPS)
    projected_baseline_run(problem, ball, params, problem.x_start, RandomSource(side), trace)
    return sets.NuclearNormBall(side, side, ball.radius), directions, ball.points


def per_call_us(operation, arguments, gate):
    """Microseconds per call of one pass of ``operation`` over
    ``arguments``, with the gate of both Gram paths at ``gate``."""
    saved = sets._SHIFTED_SOLVE_SIDE
    sets._SHIFTED_SOLVE_SIDE = gate
    try:
        start = time.perf_counter()
        for argument in arguments:
            operation(argument)
        return (time.perf_counter() - start) / len(arguments) * 1e6
    finally:
        sets._SHIFTED_SOLVE_SIDE = saved


def best_of(operation, arguments, side):
    """Best us per call below the gate (side + 1) and at it (side)."""
    below = at = float("inf")
    for _ in range(REPEATS):
        below = min(below, per_call_us(operation, arguments, side + 1))
        at = min(at, per_call_us(operation, arguments, side))
    return below, at


def main(argv):
    sides = [int(a) for a in argv[1:]] or SIDES
    lmo_rows, projection_rows = [], []
    for side in sides:
        ball, directions, points = captured(side)
        eigh, shifted = best_of(ball._lmo, directions, side)
        lmo_rows.append(f"{side:4d} {len(directions):5d} {eigh:8.1f} {shifted:10.1f} "
                        f"{eigh / shifted:6.2f}")
        fallbacks = sum(ball._gram_nearest(p) is None for p in points)
        svd, gram = best_of(ball._nearest, points, side)
        projection_rows.append(f"{side:4d} {len(points):6d} {fallbacks:9d} {svd:7.1f} "
                               f"{gram:7.1f} {svd / gram:6.2f}")
    print(f"{'side':>4} {'LMOs':>5} {'eigh us':>8} {'shifted us':>10} {'ratio':>6}")
    print("\n".join(lmo_rows))
    print()
    print(f"{'side':>4} {'points':>6} {'fallbacks':>9} {'SVD us':>7} {'Gram us':>7} {'ratio':>6}")
    print("\n".join(projection_rows))


if __name__ == "__main__":
    main(sys.argv)
