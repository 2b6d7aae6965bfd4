"""Seeded trigonometric curves with parallel-transported normal fields.

A ``CurveSystem`` holds a stack of curves and integrates the transport of
their fields by Taylor steps; ``curve_tables`` turns the series into chart
tables.  The catalog's curve entries (``curve-parallel`` and
``curve-product``) are built on them.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DataError
from .jets import JetSignature, affine_lift


class CurveSystem:
    """A stack of seeded trigonometric curves with parallel-transported
    normal fields.

    The parallel transport equation xi' = -<xi, c''> c' / |c'|^2 keeps only
    the tangential part of the ambient derivative.  It is integrated by
    Taylor steps (Jorba & Zou 2005): at each grid node the order-``ORDER``
    series of all fields follows from the Taylor-coefficient recurrence of
    the linear equation, and the next step is chosen from the last two
    coefficients so that their terms stay below ``STEP_TOL`` relative to the
    node value.  ``fields_at`` evaluates the series of the nearest node;
    ``field_taylor`` reruns the same recurrence seeded with that value.

    The curves of a stack share the ambient dimension and the number of
    fields, and every evaluation takes a curve index per row (or one index
    for all rows).  Each row runs the arithmetic of a stack of one, so a
    curve's grid and series do not depend on the stack it is built in.
    """

    FREQS = (1, 2, 3)
    ORDER = 16
    STEP_TOL = 1e-16
    WINDOW = (0.0, 1.0)
    _FREQ_COLUMN = np.array(FREQS, dtype=float)[:, None]
    _DEGREES = np.arange(ORDER + 1)[:, None]

    def __init__(self, ambient_dim: int, num_fields: int, seeds):
        self.ambient_dim = ambient_dim
        self.num_fields = num_fields
        count = len(seeds)
        self.cos_coef = np.empty((count, ambient_dim, len(self.FREQS)))
        self.sin_coef = np.empty_like(self.cos_coef)
        self._fields0 = np.empty((count, num_fields, ambient_dim))
        for curve, seed in enumerate(seeds):
            self._seed_curve(curve, seed)
        self._integrate_grid()

    def _seed_curve(self, curve: int, seed: int):
        scale = 1.0 / math.sqrt(self.ambient_dim)
        for attempt in range(16):
            rng = np.random.default_rng(seed + 1000 * attempt)
            cos_coef = rng.normal(size=(self.ambient_dim, len(self.FREQS)))
            sin_coef = rng.normal(size=(self.ambient_dim, len(self.FREQS)))
            for i, k in enumerate(self.FREQS):
                cos_coef[:, i] *= scale / k
                sin_coef[:, i] *= scale / k
            self.cos_coef[curve], self.sin_coef[curve] = cos_coef, sin_coef
            if self._generic_enough(curve):
                break
        else:
            raise DataError("could not seed a curve with nonvanishing "
                            "curvature on the window")
        self._init_fields(curve, rng)

    # -- curve evaluation -------------------------------------------------

    def curve_derivative(self, curve: int, t: float,
                         order: int) -> np.ndarray:
        """Exact derivative of the curve ``curve``: d^order c / dt^order."""
        out = np.zeros(self.ambient_dim)
        for i, k in enumerate(self.FREQS):
            phase = order * math.pi / 2.0
            kn = float(k) ** order
            out += self.cos_coef[curve, :, i] * kn * math.cos(k * t + phase)
            out += self.sin_coef[curve, :, i] * kn * math.sin(k * t + phase)
        return out

    def curve_taylor(self, curve, t0: np.ndarray, order: int,
                     shift: int = 0) -> np.ndarray:
        """Taylor coefficients at each parameter of ``t0`` ``(B,)`` of the
        shift-th derivative of the curve ``curve`` (an index, or one per
        row).

        Column m holds d^(m+shift) c / dt^(m+shift) / m!, shape
        (B, N, order+1).
        """
        return self._shifted_taylor(curve, t0, order, shift, 1)[0]

    def _shifted_taylor(self, curve, t0: np.ndarray, order: int, shift: int,
                        count: int) -> list[np.ndarray]:
        """``curve_taylor`` at the shifts shift..shift+count-1, from one
        evaluation of the trigonometric terms."""
        phase, scales = _trig_scales(shift, order, count)
        arg = self._FREQ_COLUMN * np.asarray(t0, dtype=float)[:, None, None] \
            + phase
        cos, sin = np.cos(arg), np.sin(arg)
        # (N, 3) for one index, (B, N, 3) for one per row: matmul gives each
        # row the same bits either way
        cos_coef = self.cos_coef.take(curve, axis=0)
        sin_coef = self.sin_coef.take(curve, axis=0)
        out = []
        for i, scale in enumerate(scales):
            out.append(cos_coef @ (scale * cos[..., i:i + order + 1])
                       + sin_coef @ (scale * sin[..., i:i + order + 1]))
        return out

    def _generic_enough(self, curve: int) -> bool:
        # c' and c'' at the grid, the columns of the order-1 series of c'
        taylor = self.curve_taylor(curve, np.linspace(*self.WINDOW, 101), 1, 1)
        d1, d2 = taylor[..., 0], taylor[..., 1]
        speed = np.linalg.norm(d1, axis=1)
        if np.any(speed < 0.25):
            return False
        normal_part = d2 - (np.sum(d2 * d1, axis=1) / speed ** 2)[:, None] * d1
        return not np.any(np.linalg.norm(normal_part, axis=1) / speed ** 2
                          < 0.05)

    # -- parallel transport ------------------------------------------------

    def _init_fields(self, curve: int, rng: np.random.Generator):
        t0 = self.WINDOW[0]
        d1 = self.curve_derivative(curve, t0, 1)
        unit = d1 / np.linalg.norm(d1)
        raw = rng.standard_normal((self.num_fields, self.ambient_dim))
        raw -= np.outer(raw @ unit, unit)
        q, _ = np.linalg.qr(raw.T)
        self._fields0[curve] = q.T[:self.num_fields]

    def _transport_series(self, curve, t0: np.ndarray, seed: np.ndarray,
                          order: int) -> np.ndarray:
        """Taylor coefficients at each t0 ``(B,)`` of the fields of the
        curve ``curve`` (an index, or one per row) with value ``seed``
        ``(B, num_fields, N)`` there.

        Writing a, b and w for the Taylor coefficients of c', c'' and
        1/|c'|^2 at t0, the transport equation gives, for k = 0..order-1,

            p_k = sum_i <xi_i, b_(k-i)>,   q_k = sum_i p_i w_(k-i),
            xi_(k+1) = -(1/(k+1)) sum_i q_i a_(k-i),

        with xi_0 = seed; all fields at all points advance together.
        Shape (B, num_fields, N, order+1).
        """
        a, b = self._shifted_taylor(curve, t0, order, 1, 2)
        count = len(a)
        speed2 = np.empty((count, order + 1))
        for k in range(order + 1):
            speed2[:, k] = (a[:, :, :k + 1] * a[:, :, k::-1]).reshape(
                count, -1).sum(axis=1)
        # reversed views: column order - k of each is coefficient k, so
        # [..., order - k:] runs from coefficient k down to 0
        w = np.empty((count, order + 1))
        w_rev = w[:, ::-1, None]
        w[:, 0] = 1.0 / speed2[:, 0]
        minus_w0, speed2 = -w[:, 0], speed2[:, None]
        for k in range(1, order + 1):
            w[:, k] = minus_w0 * (speed2[:, :, 1:k + 1]
                                  @ w_rev[:, order - k + 1:])[:, 0, 0]
        a_rev, b_rev = a[:, :, ::-1].swapaxes(1, 2), b[:, None, :, ::-1]
        xi = np.empty((count, self.num_fields, self.ambient_dim, order + 1))
        xi[..., 0] = seed
        p = np.empty((count, self.num_fields, order))
        q = np.empty((count, self.num_fields, order))
        for k in range(order):
            # sequential sums over i, then over n: a point's series does not
            # depend on the batch it is computed in
            inner = np.add.accumulate(xi[..., :k + 1] * b_rev[..., order - k:],
                                      axis=-1)[..., -1]
            p[:, :, k] = np.add.accumulate(inner, axis=-1)[..., -1]
            q[:, :, k] = (p[:, :, :k + 1] @ w_rev[:, order - k:])[..., 0]
            xi[..., k + 1] = (q[:, :, :k + 1]
                              @ a_rev[:, order - k:]) / -(k + 1)
        return xi

    def _integrate_grid(self):
        """Taylor steps over the window; the last node lies at or past its end.

        The step h keeps ||xi_j|| h^j <= STEP_TOL ||xi_0|| for the last two
        orders j = ORDER - 1 and ORDER (Jorba & Zou 2005, section 3.2).  The
        curves step in lockstep, one ``_transport_series`` call per node over
        those not yet past the window's end, each with its own t and h.
        Node times and series are padded to the longest grid: times with
        +inf, so that ``fields_at`` never picks a padding node.
        """
        powers = np.arange(self.ORDER + 1)
        t_end = self.WINDOW[1]
        curve = np.arange(len(self._fields0))
        t = np.full(len(curve), self.WINDOW[0])
        fields = self._fields0
        times, series = [[] for _ in curve], [[] for _ in curve]
        while len(curve):
            xi = self._transport_series(curve, t, fields, self.ORDER)
            for row, c in enumerate(curve):
                times[c].append(t[row])
                series[c].append(xi[row])
            going = t < t_end
            curve, t, xi = curve[going], t[going], xi[going]
            tol = self.STEP_TOL * np.max(np.abs(xi[..., 0]), axis=(1, 2))
            ratios = [tol / np.max(np.abs(xi[..., j]), axis=(1, 2))
                      for j in (self.ORDER - 1, self.ORDER)]
            # a scalar power per row, as a stack of one takes it: numpy's
            # vectorized power may round differently
            h = np.array([min(r ** (1.0 / j) for r, j in
                              zip(row, (self.ORDER - 1, self.ORDER)))
                          for row in zip(*ratios)])
            # each row's series summed at its own step: sum_j xi_j h^j
            fields = (xi @ (h[:, None] ** powers)[:, None, :, None])[..., 0]
            t = t + h
        self.node_counts = np.array([len(ts) for ts in times])
        shape = (len(times), max(self.node_counts))
        self.node_times = np.full(shape, np.inf)
        self.node_series = np.zeros(shape + series[0][0].shape)
        for c, count in enumerate(self.node_counts):
            self.node_times[c, :count] = times[c]
            self.node_series[c, :count] = series[c]
        self._midpoints = 0.5 * (self.node_times[:, 1:]
                                 + self.node_times[:, :-1])

    def fields_at(self, curve, t: np.ndarray) -> np.ndarray:
        """Transported frames of the curve ``curve`` (an index, or one per
        row) at the parameters ``t`` ``(B,)``, shape (B, num_fields, N).

        Evaluates the series of the grid node nearest to each t.
        """
        t = np.asarray(t, dtype=float)
        # the node np.searchsorted picks on the curve's own midpoints, as an
        # index into the flattened (curve, node) axes
        node = np.add.reduce(self._midpoints.take(curve, axis=0) < t[:, None],
                             axis=-1)
        node += curve * self.node_times.shape[1]
        powers = (t - self.node_times.take(node))[:, None, None, None] \
            ** self._DEGREES
        series = self.node_series.reshape((-1,) + self.node_series.shape[2:])
        return (series.take(node, axis=0) @ powers)[..., 0]

    def orthonormality_drift(self) -> float:
        eye = np.eye(self.num_fields)
        nodes = np.arange(self.node_times.shape[1]) < self.node_counts[:, None]
        fields = self.node_series[nodes][..., 0]
        gram = np.einsum("mfn,mgn->mfg", fields, fields)
        return float(np.max(np.abs(gram - eye)))

    def field_taylor(self, curve, t0: np.ndarray, order: int) -> np.ndarray:
        """Exact Taylor coefficients of the transported fields of the curve
        ``curve`` (an index, or one per row) at each t0 ``(B,)``.

        The recurrence of ``_transport_series`` seeded with fields_at(t0).
        Shape (B, num_fields, N, order+1).
        """
        return self._transport_series(curve, t0, self.fields_at(curve, t0),
                                      order)


@lru_cache(maxsize=None)
def _trig_scales(shift: int, order: int,
                 count: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The phases m pi / 2 of the m-th derivatives of cos and sin, m =
    shift..shift+order+count-1, and for each i < count the factors
    k^m / j! of the Taylor columns j = 0..order at the shift shift + i,
    m = shift + i + j, one row per frequency k of ``CurveSystem.FREQS``."""
    m = np.arange(shift, shift + order + count)
    fact = np.array([math.factorial(j) for j in range(order + 1)], dtype=float)
    phase = m * math.pi / 2.0
    scales = tuple(CurveSystem._FREQ_COLUMN ** m[i:i + order + 1] / fact
                   for i in range(count))
    for table in (phase,) + scales:
        table.flags.writeable = False
    return phase, scales


def curve_tables(system: CurveSystem, sig: JetSignature, x: np.ndarray,
                 slots: list[tuple[int, range]]) -> list[np.ndarray]:
    """Tables ``(B, size, N)`` in ``sig`` at the points x ``(B, n)`` of the
    maps c_i(t) + sum_j s_j xi_ij(t), c_i the i-th curve of the stack and
    xi_ij its transported fields, one per curve.

    Curve i reads t at the position ``slots[i][0]`` and its s_j at the
    positions ``slots[i][1]``.  All curves' series come from one
    ``curve_taylor`` and one ``field_taylor`` call over the (curve, point)
    rows, curve-major.
    """
    count, order = len(x), sig.order
    curve = np.repeat(np.arange(len(slots)), count)
    t = x.T.take([t_var for t_var, _ in slots], axis=0).reshape(-1)
    position = system.curve_taylor(curve, t, order).swapaxes(1, 2)
    fields = system.field_taylor(curve, t, order).swapaxes(2, 3)
    return [affine_lift(sig, position[i * count:(i + 1) * count],
                        fields[i * count:(i + 1) * count, :len(s_vars)],
                        x[:, s_vars], (t_var,), s_vars)
            for i, (t_var, s_vars) in enumerate(slots)]
