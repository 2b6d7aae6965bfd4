"""Fixed-step RK4 oracle for the leaves of a ruling distribution.

A walk of unit ambient speed along a distribution R, started in the
direction u, ends at a chord whose rejection from R, over the chord length,
is first order in the arc: residual / arc -> 1/2 |(I - Pi_R)(d_u Pi_R) u|.
So the walk tests constancy of R along its leaves only through a
discretisation, where ``geometry.drift`` reads d_u Pi_R at the point.
"""

import numpy as np

from oscflag import subspaces as sub


def integrate_leaf(ruling_at, ref: np.ndarray, x0, arc: float,
                   steps: int = 10) -> np.ndarray:
    """Follow the leaf of a ruling distribution through x0 by fixed-step RK4.

    ``ruling_at(y)`` returns the geometry at y and the ruling space there in
    tangent-frame coordinates.  The leaf direction projects the fixed ambient
    vector ``ref`` onto the current ruling space, which orients it
    deterministically, at unit ambient speed; ``arc`` is thus close to the
    ambient length travelled.  Returns the end point in chart coordinates.
    """
    def direction_field(y):
        geom_y, space = ruling_at(y)
        amb = sub.Subspace(geom_y.ambient_dim, space.basis @ geom_y.frame)
        proj = amb.project(ref)
        return (geom_y.frame @ proj @ geom_y.frame_in_chart
                / np.linalg.norm(proj))

    x = np.asarray(x0, dtype=float).copy()
    dt = arc / steps
    for _ in range(steps):
        k1 = direction_field(x)
        k2 = direction_field(x + 0.5 * dt * k1)
        k3 = direction_field(x + 0.5 * dt * k2)
        k4 = direction_field(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def leaf_residual(chart, ruling_at, x0, ref: np.ndarray, arc: float) -> float:
    """Rejection of the walk's chord from the ambient ruling space at x0,
    over the chord length."""
    geom, space = ruling_at(x0)
    ruling = sub.Subspace(geom.ambient_dim, space.basis @ geom.frame)
    chord = (chart.position(integrate_leaf(ruling_at, ref, x0, arc))
             - chart.position(x0))
    return float(np.linalg.norm(ruling.reject(chord))
                 / np.linalg.norm(chord))
