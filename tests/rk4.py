"""Fixed-step RK4 oracle for the parallel transport equation of a curve."""

import numpy as np


def rk4_transport(system, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Fields at the grid nodes of classical RK4 with fixed steps 2h and h,
    for all curves of the stack at once.

    h = (t1 - t0) / steps over the system's window, ``steps`` even.
    Integrates xi' = -<xi, c''> c' / |c'|^2 from fields_at(t0), with c' and
    c'' taken from the exact ``curve_derivative`` at the half-step nodes of
    the run at h; the run at 2h reads every other one, the same parameters
    bit for bit.  Returns the runs at 2h and at h, of shapes
    (steps // 2 + 1, curves, num_fields, N) and (steps + 1, ...).
    """
    t0, t1 = system.WINDOW
    h = (t1 - t0) / steps
    half = t0 + 0.5 * h * np.arange(2 * steps + 1)
    curves = range(len(system.node_counts))
    d1 = np.array([[system.curve_derivative(c, t, 1) for c in curves]
                   for t in half])
    d2 = np.array([[system.curve_derivative(c, t, 2) for c in curves]
                   for t in half])
    speed2 = np.sum(d1 * d1, axis=-1)[..., None, None]
    start = np.stack([system.fields_at(c, [t0])[0] for c in curves])

    def run(stride: int) -> np.ndarray:
        step = stride * h

        def rhs(j, fields):  # at the half-step node half[stride * j]
            j *= stride
            return -(fields @ d2[j][:, :, None]) * d1[j][:, None] / speed2[j]

        fields = start
        out = [fields]
        for i in range(steps // stride):
            k1 = rhs(2 * i, fields)
            k2 = rhs(2 * i + 1, fields + 0.5 * step * k1)
            k3 = rhs(2 * i + 1, fields + 0.5 * step * k2)
            k4 = rhs(2 * i + 2, fields + step * k3)
            fields = fields + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out.append(fields)
        return np.array(out)

    return run(2), run(1)
