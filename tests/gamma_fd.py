"""Finite-difference oracle for Gamma: central differences of a P-frame.

The L-component of the derivative of a P-section depends only on its value
at the centre, L (d_w Pi_P) mu, so the field differenced is the centre's
P basis projected onto P at each stencil point; it is second-order
accurate in h.  The stencil's geometries come from one
``point_geometries`` call and its splits, at order 0, from one
``SplittingSpec.at`` call.
"""

import numpy as np

from batch_rows import splits_at
from oscflag.geometry import frame_derivative


def gamma_values_fd(spec, split, h: float, directions=None) -> np.ndarray:
    """E + L components of D_w mu for w in ``directions`` (tangent-frame
    coordinates, by default ``split.E.basis``) and mu in ``split.P.basis``,
    one row per pair, direction-major."""
    geom = split.geom
    if directions is None:
        directions = split.E.basis

    def frames_at(points):
        return np.array([split_y.P.project(split.P.basis)
                         for split_y in splits_at(spec, points, 0)])

    d_frames = frame_derivative(
        frames_at, geom.x, [v @ geom.frame_in_chart for v in directions], h)
    e_amb = split.e_ambient()
    values = []
    for y_coords, d_frame in zip(directions, d_frames):
        normal_l = split.L.project(d_frame)
        for mu, l_part in zip(split.P.basis, normal_l):
            shape_term = geom.shape_operator(mu) @ y_coords
            values.append(-e_amb.project(shape_term @ geom.frame) + l_part)
    return np.array(values) if values else np.zeros((0, geom.ambient_dim))
