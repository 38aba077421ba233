"""A fixed reference computation, timed on either side of every solver run.

On a shared virtual machine the speed at which identical work runs drifts
by tens of percent over minutes, so seconds measured in one run cannot be
compared with seconds measured in another. The drift slows this kernel
and the solver beside it alike. Dividing each solver run's wall time by
the mean of the kernel's times just before and just after it gives the
run's cost in reference units (``ref``), which stays put while the
machine's speed moves.

The kernel uses numpy only, never pmvr, so no change to the program can
change it. It mixes the two regimes the workloads are bound by: many
small numpy calls driven from Python with a Philox generator made per
step, as in per-sample oracle dispatch, and dense 200x200 linear algebra,
as in the nuclear-ball LMO, projection and ``contains``.
"""

from __future__ import annotations

import time

import numpy as np

SMALL_STEPS = 1000
DENSE_SIZE = 200
DENSE_REPS = 4


class Reference:
    """Callable returning the wall time of one pass of the kernel."""

    def __init__(self):
        gen = np.random.default_rng(0)
        self.small = gen.standard_normal((12, 12))
        self.v0 = gen.standard_normal(12)
        self.dense = gen.standard_normal((DENSE_SIZE, DENSE_SIZE))

    def __call__(self):
        t0 = time.perf_counter()
        v = self.v0
        for i in range(SMALL_STEPS):
            noise = np.random.Generator(np.random.Philox(i)).standard_normal(12)
            v = self.small @ (v + 1e-3 * noise) + np.eye(3)[0, 0]
            v = v / np.linalg.norm(v)
        for _ in range(DENSE_REPS):
            np.linalg.svd(self.dense)
            self.dense @ self.dense
        return time.perf_counter() - t0
