"""Per-point oracle for ``ruled_extension.jacobian_feasible``.

Sweeps each probe's rays to the signed corners of the translation box one
Jacobian at a time, with one SVD per point of the 33-point sweep, and fails
at the first point at or below its floor.
"""

import numpy as np

from oscflag.ruled_extension import (JACOBIAN_FLOOR_SHARE, JACOBIAN_RANK_TOL,
                                     _signed_corners)


def feasible_loop(ext, probes, radius: float) -> bool:
    for x, jac0 in probes:
        floor = np.linalg.svd(jac0, compute_uv=False)[-1]
        for corner in _signed_corners(ext.r):
            jac1 = ext.jacobian(x, radius * corner) - jac0
            for t in np.linspace(0.0, 1.0, 33):
                svals = np.linalg.svd(jac0 + t * jac1, compute_uv=False)
                if svals[-1] <= max(JACOBIAN_RANK_TOL * svals[0],
                                    JACOBIAN_FLOOR_SHARE * floor):
                    return False
    return True
