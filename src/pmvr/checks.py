"""Independent numerical references for the tests.

The finite-difference gradient here never calls the chain-product path it
is checked against, so the tests compare ``problems.exact_gradient`` with
it rather than with another use of that path.
"""

from __future__ import annotations

import numpy as np


def finite_difference_gradient(fun, x, h=1e-6):
    """Central differences of a scalar function, coordinate by coordinate."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xf = x.copy().reshape(-1)
    for j in range(xf.size):
        orig = xf[j]
        xf[j] = orig + h
        fp = fun(xf.reshape(x.shape))
        xf[j] = orig - h
        fm = fun(xf.reshape(x.shape))
        xf[j] = orig
        flat[j] = (fp - fm) / (2.0 * h)
    return grad


def relative_error(approx, reference):
    scale = max(np.linalg.norm(approx), np.linalg.norm(reference), 1e-12)
    return float(np.linalg.norm(np.asarray(approx) - np.asarray(reference)) / scale)
