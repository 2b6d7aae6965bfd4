"""Finite-difference oracle for the integrability of D.

The part outside D of the bracket of two D-fields depends only on their
values at the centre, so the fields differenced are the centre's D basis
projected onto D at each stencil point, in chart coordinates; that part of
each bracket is second-order accurate in h.  Each stencil point costs one
``point_geometry`` and one ``SplittingSpec.at`` at order 0.
"""

import numpy as np

from oscflag import subspaces as sub
from oscflag.geometry import frame_derivative, point_geometry


def commutator_residual_fd(spec, split, h: float) -> float:
    """Largest part outside D of [W_i, W_j] over the D basis at the
    centre, extended by projection."""
    geom = split.geom
    n = geom.n

    def d_frames_chart(points) -> np.ndarray:
        frames = []
        for y in points:
            split_y = spec.at(point_geometry(spec.chart, y, 2, spec.tol), 0)
            frames.append(split_y.D.project(split.D.basis)
                          @ split_y.geom.frame_in_chart)
        return np.array(frames)

    center = split.D.basis @ geom.frame_in_chart
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
