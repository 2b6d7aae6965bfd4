"""Finite-difference oracle for the integrability of D.

Central differences of a D-frame whose pivot order is frozen at the
stencil centre, in chart coordinates; the part of each bracket outside D
is second-order accurate in h.  Each stencil point costs one
``point_geometry`` and one ``SplittingSpec.at`` at order 0.
"""

import numpy as np

from oscflag import subspaces as sub
from oscflag.geometry import (frame_derivative, point_geometry,
                              projection_frame)


def commutator_residual_fd(spec, split, h: float) -> float:
    """Largest part outside D of [W_i, W_j] over a pivot-stable D-frame."""
    geom = split.geom
    n = geom.n
    _, pivots = projection_frame(split.D)

    def d_frame_chart(y) -> np.ndarray:
        split_y = spec.at(point_geometry(spec.chart, y, 2, spec.tol), 0)
        frame_y, _ = projection_frame(split_y.D, pivots=pivots)
        return frame_y @ split_y.geom.frame_in_chart

    def d_frames_chart(points) -> np.ndarray:
        return np.array([d_frame_chart(y) for y in points])

    center = d_frame_chart(geom.x)
    jacobians = np.ascontiguousarray(  # field, component, d/dx
        frame_derivative(d_frames_chart, geom.x, np.eye(n), h)
        .transpose(1, 2, 0))
    d_chart_span = sub.span_of(center, 1e-8, ambient_dim=n)
    worst = 0.0
    for i in range(split.D.dim):
        for j in range(i + 1, split.D.dim):
            bracket = jacobians[j] @ center[i] - jacobians[i] @ center[j]
            worst = max(worst, float(np.linalg.norm(
                d_chart_span.reject(bracket))))
    return worst
