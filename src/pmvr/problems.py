"""K-level compositional objectives with stochastic and exact oracles.

A problem is an ordered stack of levels, each mapping R^{in_dim} to
R^{out_dim} through four callables: stochastic value, stochastic Jacobian,
exact value, exact Jacobian. Jacobians are stored transposed, with shape
(in_dim, out_dim), so the overall gradient is the plain left-to-right chain
product of the per-level factors. Level values travel as 1-D arrays; the
decision variable may be matrix-shaped, in which case it is flattened at
the problem boundary (row-major) and the gradient is reshaped back.

Exact oracles are mandatory for the shipped benchmarks so the convergence
metrics are computed exactly instead of by Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from .core import ShapeMismatchError, matmul_chain
from .rng import generator_for


class FiniteSamples:
    """Uniform distribution over dataset record indices 0..size-1.

    Expectation means the plain average over records; sampling is with
    replacement.
    """

    def __init__(self, size):
        if size < 1:
            raise ValueError("finite sample space needs at least one record")
        self.size = int(size)

    def draw(self, gen, count):
        return list(gen.integers(0, self.size, size=count))

    def all_samples(self):
        return list(range(self.size))


class GenerativeSamples:
    """Sample space backed by a draw function (fresh samples per call)."""

    def __init__(self, draw_fn):
        self.draw_fn = draw_fn

    def draw(self, gen, count):
        return self.draw_fn(gen, count)


@dataclass(frozen=True)
class Level:
    """One level of the composition: oracles plus its sample space."""

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
    notes: dict = field(default_factory=dict)


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


def exact_inner_values(problem, x):
    """[y^1 .. y^K] with y^i = f_i(y^{i-1}) and y^0 = x; y^K holds F(x)."""
    y = problem.flatten(x)
    out = []
    for level in problem.levels:
        y = np.atleast_1d(np.asarray(level.exact_value(y), dtype=np.float64))
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
    """Exact-Jacobian chain product at x and its inner values [y^1 .. y^K]."""
    chain_inputs = [problem.flatten(x)] + values[:-1]
    factors = [
        np.asarray(level.exact_jacobian(u), dtype=np.float64)
        for level, u in zip(problem.levels, chain_inputs)
    ]
    grad = matmul_chain(factors)
    return problem.unflatten(grad.reshape(-1))


def sample_batch(level, rng, batch_size):
    """Draw batch_size i.i.d. samples from the level's sample space."""
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    if level.samples is None:
        raise ValueError("level has no sample space")
    return level.samples.draw(generator_for(rng), int(batch_size))


def stochastic_chain_jacobian(problem, chain_inputs, samples):
    """Product of noisy Jacobians at the given chain points, one sample each.

    Each factor is an unbiased estimate of the exact Jacobian at its point;
    the product itself is not unbiased for the exact chain.
    """
    if len(chain_inputs) != problem.k or len(samples) != problem.k:
        raise ValueError(
            f"expected {problem.k} chain inputs and samples, got "
            f"{len(chain_inputs)} and {len(samples)}"
        )
    factors = [
        np.asarray(level.jacobian(u, s), dtype=np.float64)
        for level, u, s in zip(problem.levels, chain_inputs, samples)
    ]
    grad = matmul_chain(factors)
    return problem.unflatten(grad.reshape(-1))
