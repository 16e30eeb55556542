"""Central finite-difference oracle used by the gradient suites.

Kept deliberately independent of the autograd engine: it only ever calls a
scalar-valued forward function and perturbs raw numpy arrays.
"""

import numpy as np

H = 1e-5


def numeric_gradient(f, x, h=H):
    """Elementwise central differences of the scalar function ``f`` at ``x``."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_error(analytic, numeric):
    """Max elementwise |a - n| / max(1, |n|)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))

