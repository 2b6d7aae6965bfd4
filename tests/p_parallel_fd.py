"""Finite-difference oracle for P being parallel along D.

P is the sum of S and the complement of the first normal space (the
default splitting), L its complement in the normal space.  The L-part of
the derivative of a P-section depends only on its value at the centre,
L (d_w Pi_P) mu, so central differences of the centre's P-frame projected
onto P at each stencil point give it, second-order accurate in h;
``geometry.drift`` of the exact Pi_P jet is their limit.
"""

import numpy as np

from oscflag import subspaces as sub
from oscflag.geometry import frame_derivative, point_geometry, projection_frame
from oscflag.nonparallel import nonparallel_data


def p_l_components(chart, geom, nd, h: float, directions,
                   tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """L-components of D_w mu for w in ``directions`` (tangent-frame
    coordinates) and mu the rows of the P-frame at the centre, on an
    orthonormal basis of L: shape (#directions, dim P, dim L), with that
    P-frame."""
    tol = geom.tol if tol is None else tol

    def p_space_at(x) -> sub.Subspace:
        g_y = point_geometry(chart, x, max_normal_order=2, tol=tol)
        nd_y = nonparallel_data(g_y)
        return sub.direct_sum(nd_y.S, g_y.first_normal_complement(), tol)

    p_frame, _ = projection_frame(
        sub.direct_sum(nd.S, geom.first_normal_complement(), tol))
    l_basis = sub.complement_within(nd.S, geom.first_normal)

    def frames_at(points):
        return np.array([p_space_at(y).project(p_frame) for y in points])

    d_mu = frame_derivative(frames_at, geom.x,
                            [v @ geom.frame_in_chart for v in directions], h)
    return np.einsum("wpN,lN->wpl", d_mu, l_basis.basis), p_frame


def p_parallel_drift(chart, geom, nd, h: float = 1e-3,
                     tol: float | None = None) -> float:
    """Largest L-component of D_Y mu over Y in ``nd.D.basis`` and the
    P-frame mu; 0 when there is no D or no L."""
    if nd.D.dim == 0 or nd.s == nd.p:
        return 0.0
    return float(np.max(np.abs(p_l_components(chart, geom, nd, h, nd.D.basis,
                                              tol)[0])))
