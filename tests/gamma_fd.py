"""Finite-difference oracle for Gamma: central differences of a P-frame.

The L-component of the derivative of each P-frame field is a central
difference of a projection frame whose pivot order is frozen at the stencil
centre, so the differentiated field is a smooth section; it is
second-order accurate in h.  Each stencil point costs one
``point_geometry`` and one ``SplittingSpec.at`` at order 0; the field over
the stencil takes its points one at a time.
"""

import numpy as np

from oscflag.geometry import (frame_derivative, point_geometry,
                              projection_frame)


def gamma_values_fd(spec, split, h: float, directions=None) -> np.ndarray:
    """E + L components of D_w mu for w in ``directions`` (tangent-frame
    coordinates, by default ``split.E.basis``) and mu in ``split.P.basis``,
    one row per pair, direction-major.

    The stencil differentiates the pivot-stable frame; the L-components are
    linear in the P-section, so they are rotated onto the P basis at the
    centre.
    """
    geom = split.geom
    p_frame, pivots = projection_frame(split.P)
    if directions is None:
        directions = split.E.basis

    def frames_at(points):
        return np.array([projection_frame(
            spec.at(point_geometry(spec.chart, y, 2, spec.tol), 0).P,
            pivots=pivots)[0] for y in points])

    d_frames = frame_derivative(
        frames_at, geom.x, [v @ geom.frame_in_chart for v in directions], h)
    rotation = split.P.basis @ p_frame.T
    e_amb = split.e_ambient()
    values = []
    for y_coords, d_frame in zip(directions, d_frames):
        normal_l = split.L.project(rotation @ d_frame)
        for mu, l_part in zip(split.P.basis, normal_l):
            shape_term = geom.shape_operator(mu) @ y_coords
            values.append(-e_amb.project(shape_term @ geom.frame) + l_part)
    return np.array(values) if values else np.zeros((0, geom.ambient_dim))
