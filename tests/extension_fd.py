"""Finite-difference oracle for the extension's second derivatives.

Plain central second differences of ``RuledExtension.eval`` over all n + r
coordinates (x, lam); second-order accurate in h.  Each base point of the
stencil costs one ``SplittingSpec.at``.
"""

import numpy as np


def extension_second_fd(ext, x, lam, h: float) -> np.ndarray:
    """(n + r, n + r, N) second partials of the extension at (x, lam)."""
    point = np.concatenate([np.asarray(x, float), np.asarray(lam, float)])
    n = ext.spec.chart.intrinsic_dim
    total = point.size

    def f(p):
        return ext.eval(p[:n], p[n:])

    center = f(point)
    step = h * np.eye(total)
    out = np.zeros((total, total, center.size))
    for i in range(total):
        out[i, i] = (f(point + step[i]) - 2.0 * center
                     + f(point - step[i])) / h ** 2
        for j in range(i + 1, total):
            out[i, j] = out[j, i] = (
                f(point + step[i] + step[j]) - f(point + step[i] - step[j])
                - f(point - step[i] + step[j])
                + f(point - step[i] - step[j])) / (4.0 * h ** 2)
    return out
