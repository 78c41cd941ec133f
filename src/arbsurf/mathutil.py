"""Small numeric helpers shared across modules.

The training kernels take an optional leading point axis on the
parameters: parameters (P, ...) broadcast against data (P, W, ...), a
window axis W after the point axis, and every window sum or mean runs over
the window axis, none over points. Each point's products are the same
per-slice BLAS calls, and its sums the same reductions, as a call without
the point axis, so each point's results are bit-equal to that call's.
"""

from __future__ import annotations

import numpy as np


def softplus_exp(x):
    """(softplus(x), e) with e = exp(-|x|), the one exponential both softplus
    and its derivative need; pass e to `sigmoid` to skip recomputing it.

    softplus(x) = max(x, 0) + log1p(e), which never overflows. The same
    formula in the C library's exp and log1p equals np.logaddexp(0, x); numpy's
    vector loops round a few percent of values an ulp or two away from it.
    """
    x = np.asarray(x, dtype=float)
    e = np.abs(x, out=np.empty_like(x))  # an array even for 0-d x, so the steps below stay in place
    np.negative(e, out=e)
    np.exp(e, out=e)
    sp = np.maximum(x, 0.0)
    sp += np.log1p(e)
    return sp, e


def window_axis(param, core: int):
    """A parameter ready to meet data with a window axis. A parameter with a
    leading point axis, (P, *core) for `core` axes of its own, gains a unit
    window axis, (P, 1, *core), so it broadcasts against data (P, W, ...);
    one without it broadcasts against (W, ...) as it is and is returned
    unchanged."""
    return param[:, None] if param.ndim > core else param


def softplus(x):
    """log(1 + exp(x)), overflow-safe; see `softplus_exp`."""
    return softplus_exp(x)[0]


def sigmoid(x, e=None):
    """Derivative of softplus.

    Both branches share e = exp(-|x|), which never overflows: 1 / (1 + e)
    for x >= 0 and e / (1 + e) below. A caller that holds e from
    `softplus_exp(x)` passes it in; the result is the same to the bit.
    """
    x = np.asarray(x, dtype=float)
    if e is None:
        e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)
