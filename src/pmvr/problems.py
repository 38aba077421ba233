"""K-level compositional objectives with stochastic and exact oracles.

A problem is an ordered stack of levels, each mapping R^{in_dim} to
R^{out_dim} through four callables: stochastic value, stochastic Jacobian,
exact value, exact Jacobian. Jacobians are stored transposed, with shape
(in_dim, out_dim), so the overall gradient is the plain left-to-right chain
product of the per-level factors. Level values travel as 1-D arrays; the
decision variable may be matrix-shaped, in which case it is flattened at
the problem boundary (row-major) and the gradient is reshaped back.

The stochastic oracles take a batch of B samples, an array with a leading
batch axis (a finite dataset's record indices) or a tuple of such arrays,
and return values (B, out_dim) and transposed Jacobians (B, in_dim,
out_dim). The exact oracles take one point and stay hand-written closed
forms: they are the independent references the batch means are tested
against, and a mean over every record would cost a metric row many times
as much.

Exact oracles are mandatory for the shipped benchmarks so the convergence
metrics are computed exactly instead of by Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .core import ShapeMismatchError, _count, matmul_chain


class FiniteSamples:
    """Uniform distribution over dataset record indices 0..size-1.

    Expectation means the plain average over records; sampling is with
    replacement, and a batch is the (B,) array of drawn indices. The size
    must be an integer >= 1, else ValueError.
    """

    def __init__(self, size):
        self.size = _count(size, "finite sample space size")

    def draw(self, gen, count):
        return gen.integers(0, self.size, size=count)


class GenerativeSamples:
    """Sample space backed by ``draw_fn(gen, count)``, which returns one
    batch of ``count`` fresh samples.

    ``draw_fn`` draws from ``gen`` in sample order whatever ``count`` is,
    all of sample j's draws before sample j + 1's, as one block draw with
    sample j in row j does. So a batch drawn in consecutive parts from one
    generator equals the batch drawn whole. The estimators rely on this:
    they draw a generative batch one slice at a time as they evaluate it,
    and never hold it whole.
    """

    def __init__(self, draw_fn):
        self.draw_fn = draw_fn

    def draw(self, gen, count):
        return self.draw_fn(gen, count)


@dataclass(frozen=True)
class Level:
    """One level of the composition: oracles plus its sample space.

    ``value(point, batch)`` (B, out_dim) and ``jacobian(point, batch)``
    (B, in_dim, out_dim) stack one result per sample of a batch drawn by
    ``samples``; ``exact_value(point)`` (out_dim,) and
    ``exact_jacobian(point)`` (in_dim, out_dim) are their expectations.
    """

    in_dim: int
    out_dim: int
    value: Callable[[np.ndarray, Any], np.ndarray]
    jacobian: Callable[[np.ndarray, Any], np.ndarray]
    exact_value: Callable[[np.ndarray], np.ndarray]
    exact_jacobian: Callable[[np.ndarray], np.ndarray]
    samples: Any = None


@dataclass
class ProblemMetadata:
    """Optional known constants; schedules fall back to user-supplied scales."""

    f_star: Optional[float] = None
    strong_convexity: Optional[float] = None


class CompositionalProblem:
    """F = f_K o ... o f_1 with per-level noisy and exact oracles."""

    def __init__(self, levels, x_shape=None, metadata=None, name=""):
        if len(levels) < 1:
            raise ValueError("a compositional problem needs at least one level")
        for i, (a, b) in enumerate(zip(levels, levels[1:]), start=1):
            if a.out_dim != b.in_dim:
                raise ShapeMismatchError(
                    f"level {i} output dim {a.out_dim} does not match "
                    f"level {i + 1} input dim {b.in_dim}"
                )
        if levels[-1].out_dim != 1:
            raise ShapeMismatchError("the final level must produce a scalar")
        self.levels = list(levels)
        self.x_shape = (levels[0].in_dim,) if x_shape is None else tuple(x_shape)
        if int(np.prod(self.x_shape)) != levels[0].in_dim:
            raise ShapeMismatchError(
                f"x_shape {self.x_shape} is incompatible with level-1 "
                f"input dim {levels[0].in_dim}"
            )
        self.metadata = metadata if metadata is not None else ProblemMetadata()
        self.name = name

    @property
    def k(self):
        return len(self.levels)

    def flatten(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.x_shape:
            raise ShapeMismatchError(
                f"point shape {x.shape} does not match problem shape {self.x_shape}"
            )
        return x.reshape(-1)

    def unflatten(self, vec):
        return np.asarray(vec, dtype=np.float64).reshape(self.x_shape)


def _checked(out, want, i, oracle):
    """``out`` as float64; ShapeMismatchError naming level i + 1 and its
    ``oracle`` unless its shape is ``want``."""
    out = np.asarray(out, dtype=np.float64)
    if out.shape != want:
        raise ShapeMismatchError(f"level {i + 1} {oracle} oracle returned shape "
                                 f"{out.shape}, expected {want}")
    return out


def exact_inner_values(problem, x):
    """[y^1 .. y^K] with y^i = f_i(y^{i-1}) and y^0 = x; y^K holds F(x).
    Each y^i must have shape (out_dim,), which a scalar counts as."""
    y = problem.flatten(x)
    out = []
    for i, level in enumerate(problem.levels):
        y = _checked(np.atleast_1d(level.exact_value(y)), (level.out_dim,), i, "exact_value")
        out.append(y)
    final = out[-1]
    f_star = problem.metadata.f_star
    if f_star is not None and float(final[0]) < f_star - 1e-9:
        raise ValueError(
            f"objective {float(final[0])} fell below the declared lower "
            f"bound {f_star}"
        )
    return out


def objective(problem, x):
    """F(x) as a float."""
    return float(exact_inner_values(problem, x)[-1][0])


def exact_gradient(problem, x):
    """Gradient of F at x via the chain product at exact inner values."""
    return _chain_gradient(problem, x, exact_inner_values(problem, x))


def _chain_gradient(problem, x, values):
    """Chain product of the (in_dim, out_dim) exact Jacobians at x and its
    inner values [y^1 .. y^K]."""
    chain_inputs = [problem.flatten(x)] + values[:-1]
    grad = matmul_chain([
        _checked(level.exact_jacobian(u), (level.in_dim, level.out_dim), i, "exact_jacobian")
        for i, (level, u) in enumerate(zip(problem.levels, chain_inputs))
    ])
    return problem.unflatten(grad.reshape(-1))


def sample_batch(level, gen, batch_size):
    """Draw batch_size i.i.d. samples from the level's sample space with
    the numpy Generator ``gen``; a batch size that is not an integer >= 1
    raises ValueError."""
    batch_size = _count(batch_size, "batch size")
    if level.samples is None:
        raise ValueError("level has no sample space")
    return level.samples.draw(gen, batch_size)
