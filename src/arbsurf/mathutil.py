"""Small numeric helpers shared across modules."""

from __future__ import annotations

import numpy as np


def softplus(x):
    """log(1 + exp(x)) with the overflow-safe branch for large x."""
    return np.logaddexp(0.0, x)


def sigmoid(x):
    """Derivative of softplus.

    Both branches share e = exp(-|x|), which never overflows: 1 / (1 + e)
    for x >= 0 and e / (1 + e) below.
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def inv_softplus(y):
    """Inverse of softplus on (0, inf); y = softplus(x) -> x."""
    y = np.asarray(y, dtype=float)
    # log(expm1(y)) but stable for large y where expm1 overflows
    return np.where(y > 30.0, y, np.log(np.expm1(np.minimum(y, 30.0))))

