"""Finite-difference oracle for the extension's second derivatives.

Plain central second differences of the extension chart's positions over
all n + r coordinates (x, lam), read from one evaluation of the chart at
every stencil point; second-order accurate in h.  Each base point of the
stencil costs one ``SplittingSpec.at``.
"""

import numpy as np


def extension_second_fd(ext, x, lam, h: float) -> np.ndarray:
    """(n + r, n + r, N) second partials of the extension at (x, lam)."""
    point = np.concatenate([np.asarray(x, float), np.asarray(lam, float)])
    total = point.size
    step = h * np.eye(total)
    # the stencil points by their offsets, each an index into one batch
    offsets = {(): point}
    for i in range(total):
        for si in (1.0, -1.0):
            offsets[(i, si)] = point + si * step[i]
            for j in range(i + 1, total):
                for sj in (1.0, -1.0):
                    offsets[(i, si, j, sj)] = (point + si * step[i]
                                               + sj * step[j])
    keys = list(offsets)
    values = ext.chart.tables(np.array([offsets[k] for k in keys]), 0)[:, 0]
    f = dict(zip(keys, values))

    center = f[()]
    out = np.zeros((total, total, center.size))
    for i in range(total):
        out[i, i] = (f[(i, 1.0)] - 2.0 * center + f[(i, -1.0)]) / h ** 2
        for j in range(i + 1, total):
            out[i, j] = out[j, i] = (
                f[(i, 1.0, j, 1.0)] - f[(i, 1.0, j, -1.0)]
                - f[(i, -1.0, j, 1.0)]
                + f[(i, -1.0, j, -1.0)]) / (4.0 * h ** 2)
    return out
