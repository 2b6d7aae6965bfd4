"""Fixed-step RK4 oracle for the parallel transport equation of a curve."""

import numpy as np


def rk4_transport(system, steps: int) -> np.ndarray:
    """Fields at t0 + i h, i = 0..steps, from classical RK4 with a fixed h.

    h = (t1 - t0) / steps over the system's window.  Integrates
    xi' = -<xi, c''> c' / |c'|^2 from fields_at(t0), with c' and c'' taken
    from the exact ``curve_derivative``; shape (steps + 1, num_fields, N).
    """
    t0, t1 = system.WINDOW
    h = (t1 - t0) / steps
    half = t0 + 0.5 * h * np.arange(2 * steps + 1)
    d1 = [system.curve_derivative(t, 1) for t in half]
    d2 = [system.curve_derivative(t, 2) for t in half]

    def rhs(j, fields):  # at the half-step node half[j]
        return -np.outer(fields @ d2[j], d1[j]) / float(d1[j] @ d1[j])

    fields = system.fields_at([t0])[0]
    out = [fields]
    for i in range(steps):
        k1 = rhs(2 * i, fields)
        k2 = rhs(2 * i + 1, fields + 0.5 * h * k1)
        k3 = rhs(2 * i + 1, fields + 0.5 * h * k2)
        k4 = rhs(2 * i + 2, fields + h * k3)
        fields = fields + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(fields)
    return np.array(out)
