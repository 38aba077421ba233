"""Time the nuclear-ball LMO's two paths on the directions a run hands it.

Run from the repository root::

    PYTHONPATH=src python tools/lmo_crossover.py            # sides 12 to 32
    PYTHONPATH=src python tools/lmo_crossover.py 16 20 24   # chosen sides

For each side k it runs a short pmvr-v2 (quadratic subsolver) on a k x k
``single_index`` problem and keeps a copy of every direction the solver
hands to the nuclear ball's ``_lmo``: the ball is an instance of a subclass
whose ``_lmo`` records its argument, so the package itself is not patched.
It then times ``_lmo`` on those directions along the dense ``eigh`` path
and along the shifted-solve path, by moving ``sets._SHIFTED_SOLVE_SIDE``
above or below k for the measurement. Each timing is the best of 7
alternated passes over all the directions, in us per call. The BLAS thread
count is whatever the environment sets (OPENBLAS_NUM_THREADS=1 for one).
"""

import sys
import time

import numpy as np

from pmvr import sets
from pmvr.benchmarks import SingleIndexConfig, single_index_problem
from pmvr.rng import RandomSource
from pmvr.solvers import QuadraticSubsolver, SolverParams, TraceConfig, pmvr_run

SIDES = (12, 16, 20, 24, 28, 32)
STEPS = 30  # pmvr-v2 steps; each makes one LMO per subsolver iteration
REPEATS = 7


class CapturingBall(sets.NuclearNormBall):
    """A nuclear ball that keeps a copy of every direction its LMO sees."""

    def __init__(self, ball):
        super().__init__(ball.m, ball.n, ball.radius)
        self.directions = []

    def _lmo(self, direction):
        self.directions.append(np.array(direction, dtype=np.float64))
        return super()._lmo(direction)


def captured_directions(side):
    problem, ball = single_index_problem(SingleIndexConfig(m=side, n=side))
    ball = CapturingBall(ball)
    params = SolverParams(eta=0.126, alpha=0.5, b0=16, b1=8, iters=STEPS,
                          subsolver=QuadraticSubsolver(coeff=1.0, inner_iters=10))
    pmvr_run(problem, ball, params, problem.x_start, RandomSource(side),
             TraceConfig(keep_iterates=False))
    return ball.directions


def per_call_us(ball, directions, gate):
    """Microseconds per call of one pass of ``ball._lmo`` over
    ``directions``, with the shifted solve's gate at ``gate``."""
    saved = sets._SHIFTED_SOLVE_SIDE
    sets._SHIFTED_SOLVE_SIDE = gate
    try:
        start = time.perf_counter()
        for d in directions:
            ball._lmo(d)
        return (time.perf_counter() - start) / len(directions) * 1e6
    finally:
        sets._SHIFTED_SOLVE_SIDE = saved


def main(argv):
    sides = [int(a) for a in argv[1:]] or SIDES
    print(f"{'side':>4} {'LMOs':>5} {'eigh us':>8} {'shifted us':>10} {'ratio':>6}")
    for side in sides:
        directions = captured_directions(side)
        ball = sets.NuclearNormBall(side, side, 1.0)
        best = {"eigh": float("inf"), "shifted": float("inf")}
        for _ in range(REPEATS):
            best["eigh"] = min(best["eigh"], per_call_us(ball, directions, side + 1))
            best["shifted"] = min(best["shifted"], per_call_us(ball, directions, side))
        print(f"{side:4d} {len(directions):5d} {best['eigh']:8.1f} "
              f"{best['shifted']:10.1f} {best['eigh'] / best['shifted']:6.2f}")


if __name__ == "__main__":
    main(sys.argv)
