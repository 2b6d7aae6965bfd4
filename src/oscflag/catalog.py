"""The catalog of exactly constructed example submanifolds.

Each entry packages an analytic chart (evaluated through jets), the declared
invariants it is expected to satisfy, a point sampler, and any auxiliary
structure needed by the verification checks (base surfaces, transported
frames, splitting exercises).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import DataError, DegenerateExtensionError, ParameterError
from .geometry import ImmersionChart, box
from .jets import (Jet, JetSignature, jet_constant, jet_cos, jet_reciprocal,
                   jet_rsqrt, jet_sin, product, series_powers, signature)

# ---------------------------------------------------------------------------
# Catalog data structures


@dataclass(frozen=True)
class Expectation:
    """A declared invariant: a check id, its parameters, and a label."""

    check: str
    params: dict
    description: str


@dataclass(frozen=True)
class SplitExercise:
    """A normal-splitting rule to push through the ruled-extension pipeline."""

    name: str
    rule: Callable  # (geom, order) -> rows spanning L, see SplittingSpec
    expected: dict  # k, r, and optional n1f_rank / nu_ext / delta_in_nullity
    lambda_radius: float = 0.1


@dataclass
class CatalogEntry:
    name: str
    params: dict
    description: str
    chart: ImmersionChart
    max_normal_order: int
    substantial: bool
    expected: list[Expectation]
    sampler: Callable[[np.random.Generator], np.ndarray]
    ruled: bool = False
    ruling_from: str = "none"  # "D" or "nullity"
    split_exercises: list[SplitExercise] = dc_field(default_factory=list)
    aux: dict = dc_field(default_factory=dict)
    notes: str = ""


# ---------------------------------------------------------------------------
# Calibration charts


def _sphere_chart(n: int) -> ImmersionChart:
    lo, hi = 0.6, math.pi - 0.6

    def fn(vars_: list[Jet]) -> list[Jet]:
        comps = []
        running = None
        for theta in vars_:
            c, s = jet_cos(theta), jet_sin(theta)
            comps.append(c if running is None else running * c)
            running = s if running is None else running * s
        comps.append(running)
        return comps

    return ImmersionChart(f"sphere-{n}", n, n + 1,
                          box([lo] * n, [hi] * n), fn, max_order=8)


def make_calibration(kind: str, n: int = 2, seed: int = 0) -> CatalogEntry:
    """Null-hypothesis charts: unit sphere, affine plane, flat product torus."""
    if n < 1:
        raise ParameterError("n must be at least 1")
    if seed < 0:
        raise ParameterError("seed must be non-negative")
    if kind == "sphere":
        chart = _sphere_chart(n)
        expected = [
            Expectation("first_normal_rank", {"expected": 1},
                        "totally umbilic: rank-one first normal space"),
            Expectation("flag_dims", {"stages": [1], "total": None},
                        "flag stops after the first normal space"),
            Expectation("phi_absent", {},
                        "no complement: not locally substantial beyond the "
                        "first normal space"),
            Expectation("umbilic_sphere", {"tol": 1e-10},
                        "alpha(X, Y) = -<X, Y> times the position normal"),
            Expectation("ricci_constant", {"expected": float(n - 1),
                                           "tol": 1e-9, "count": 50},
                        "constant Ricci curvature n - 1"),
            Expectation("case_label", {"expected": "parallel"},
                        "no nonparallelism data"),
        ]
        return CatalogEntry(
            name="sphere", params={"n": n},
            description="unit sphere, totally umbilic calibration",
            chart=chart, max_normal_order=2, substantial=True,
            expected=expected,
            sampler=lambda rng: chart.domain.sample(rng, margin=0.05))

    if kind == "flat":
        rng = np.random.default_rng(seed)
        big_n = 5
        basis, _ = np.linalg.qr(rng.standard_normal((big_n, 2)))
        shift = rng.standard_normal(big_n)

        def fn(vars_: list[Jet]) -> list[Jet]:
            return [vars_[0] * basis[j, 0] + vars_[1] * basis[j, 1] + shift[j]
                    for j in range(big_n)]

        chart = ImmersionChart("flat-plane", 2, big_n,
                               box([-1.0, -1.0], [1.0, 1.0]), fn, max_order=8)
        expected = [
            Expectation("alpha_zero", {"tol": 1e-12},
                        "totally geodesic: vanishing second fundamental form"),
            Expectation("flag_dims", {"stages": [], "total": None},
                        "empty normal flag"),
            Expectation("nu", {"expected": 2}, "full relative nullity"),
            Expectation("case_label", {"expected": "parallel"},
                        "nothing to be nonparallel"),
        ]
        return CatalogEntry(
            name="flat", params={},
            description="affine plane, totally geodesic calibration",
            chart=chart, max_normal_order=2, substantial=False,
            expected=expected,
            sampler=lambda rng: chart.domain.sample(rng, margin=0.05),
            ruled=True, ruling_from="nullity")

    if kind == "product-torus":
        consts = (0.3, -0.2)

        def fn(vars_: list[Jet]) -> list[Jet]:
            u, v = vars_
            return [jet_cos(u), jet_sin(u), jet_cos(v), jet_sin(v),
                    jet_constant(u.num_vars, u.order, consts[0]),
                    jet_constant(u.num_vars, u.order, consts[1])]

        chart = ImmersionChart("flat-torus-r4-in-r6", 2, 6,
                               box([0.3, 0.3], [5.9, 5.9]), fn, max_order=8)
        expected = [
            Expectation("first_normal_rank", {"expected": 2},
                        "product of two circles"),
            Expectation("phi_zero", {"tol": 1e-9},
                        "parallel first normal bundle: phi vanishes"),
            Expectation("case_label", {"expected": "parallel"},
                        "parallel case"),
            Expectation("sectional_flat", {"tol": 1e-10, "count": 10},
                        "intrinsically flat"),
            Expectation("flag_dims", {"stages": [2], "total": None},
                        "flag stops inside the four-dimensional factor"),
        ]
        return CatalogEntry(
            name="product-torus", params={},
            description="flat torus in a four-space, included in six-space: "
                        "parallel first normal bundle",
            chart=chart, max_normal_order=2, substantial=False,
            expected=expected,
            sampler=lambda rng: chart.domain.sample(rng, margin=0.05))

    raise ParameterError(f"unknown calibration kind {kind!r}")


# ---------------------------------------------------------------------------
# Curve with a parallel normal subbundle


class CurveSystem:
    """A seeded trigonometric curve with parallel-transported normal fields.

    The parallel transport equation xi' = -<xi, c''> c' / |c'|^2 keeps only
    the tangential part of the ambient derivative.  It is integrated by
    Taylor steps (Jorba & Zou 2005): at each grid node the order-``ORDER``
    series of all fields follows from the Taylor-coefficient recurrence of
    the linear equation, and the next step is chosen from the last two
    coefficients so that their terms stay below ``STEP_TOL`` relative to the
    node value.  ``fields_at`` evaluates the series of the nearest node;
    ``field_taylor`` reruns the same recurrence seeded with that value.
    """

    FREQS = (1, 2, 3)
    ORDER = 16
    STEP_TOL = 1e-16

    def __init__(self, ambient_dim: int, num_fields: int, seed: int,
                 window: tuple[float, float] = (0.0, 1.0)):
        self.ambient_dim = ambient_dim
        self.num_fields = num_fields
        self.seed = seed
        self.window = window
        for attempt in range(16):
            rng = np.random.default_rng(seed + 1000 * attempt)
            scale = 1.0 / math.sqrt(ambient_dim)
            self.cos_coef = rng.normal(size=(ambient_dim, len(self.FREQS)))
            self.sin_coef = rng.normal(size=(ambient_dim, len(self.FREQS)))
            for i, k in enumerate(self.FREQS):
                self.cos_coef[:, i] *= scale / k
                self.sin_coef[:, i] *= scale / k
            if self._generic_enough():
                break
        else:
            raise DataError("could not seed a curve with nonvanishing "
                            "curvature on the window")
        self._init_fields(rng)
        self._integrate_grid()

    # -- curve evaluation -------------------------------------------------

    def curve_derivative(self, t: float, order: int) -> np.ndarray:
        """Exact derivative of the curve: d^order c / dt^order."""
        out = np.zeros(self.ambient_dim)
        for i, k in enumerate(self.FREQS):
            phase = order * math.pi / 2.0
            kn = float(k) ** order
            out += self.cos_coef[:, i] * kn * math.cos(k * t + phase)
            out += self.sin_coef[:, i] * kn * math.sin(k * t + phase)
        return out

    def curve_taylor(self, t0: float, order: int,
                     shift: int = 0) -> np.ndarray:
        """Taylor coefficients at t0 of the shift-th derivative of the curve.

        Column m holds d^(m+shift) c / dt^(m+shift) / m!, shape (N, order+1).
        """
        m = np.arange(shift, shift + order + 1)
        freqs = np.array(self.FREQS, dtype=float)[:, None]
        arg = freqs * t0 + m * math.pi / 2.0
        scale = freqs ** m / np.array([math.factorial(j)
                                       for j in range(order + 1)])
        return (self.cos_coef @ (scale * np.cos(arg))
                + self.sin_coef @ (scale * np.sin(arg)))

    def _generic_enough(self) -> bool:
        ts = np.linspace(*self.window, 101)
        for t in ts:
            d1 = self.curve_derivative(t, 1)
            d2 = self.curve_derivative(t, 2)
            speed = np.linalg.norm(d1)
            if speed < 0.25:
                return False
            normal_part = d2 - (d2 @ d1) / (speed ** 2) * d1
            if np.linalg.norm(normal_part) / speed ** 2 < 0.05:
                return False
        return True

    # -- parallel transport ------------------------------------------------

    def _init_fields(self, rng: np.random.Generator):
        t0 = self.window[0]
        d1 = self.curve_derivative(t0, 1)
        unit = d1 / np.linalg.norm(d1)
        raw = rng.standard_normal((self.num_fields, self.ambient_dim))
        raw -= np.outer(raw @ unit, unit)
        q, _ = np.linalg.qr(raw.T)
        self._fields0 = q.T[:self.num_fields].copy()

    def _transport_series(self, t0: float, seed: np.ndarray,
                          order: int) -> np.ndarray:
        """Taylor coefficients at t0 of the fields with value ``seed`` there.

        Writing a, b and w for the Taylor coefficients of c', c'' and
        1/|c'|^2 at t0, the transport equation gives, for k = 0..order-1,

            p_k = sum_i <xi_i, b_(k-i)>,   q_k = sum_i p_i w_(k-i),
            xi_(k+1) = -(1/(k+1)) sum_i q_i a_(k-i),

        with xi_0 = seed; all fields advance together.
        Shape (num_fields, N, order+1).
        """
        a = self.curve_taylor(t0, order, 1)
        b = self.curve_taylor(t0, order, 2)
        speed2 = np.array([float(np.sum(a[:, :k + 1] * a[:, k::-1]))
                           for k in range(order + 1)])
        w = np.empty(order + 1)
        w[0] = 1.0 / speed2[0]
        for k in range(1, order + 1):
            w[k] = -w[0] * float(speed2[1:k + 1] @ w[k - 1::-1])
        xi = np.empty((self.num_fields, self.ambient_dim, order + 1))
        xi[:, :, 0] = seed
        p = np.empty((self.num_fields, order))
        q = np.empty((self.num_fields, order))
        for k in range(order):
            p[:, k] = np.einsum("fni,ni->f", xi[:, :, :k + 1], b[:, k::-1])
            q[:, k] = p[:, :k + 1] @ w[k::-1]
            xi[:, :, k + 1] = -(q[:, :k + 1] @ a[:, k::-1].T) / (k + 1)
        return xi

    def _integrate_grid(self):
        """Taylor steps over the window; the last node lies at or past its end.

        The step h keeps ||xi_j|| h^j <= STEP_TOL ||xi_0|| for the last two
        orders j = ORDER - 1 and ORDER (Jorba & Zou 2005, section 3.2).
        """
        powers = np.arange(self.ORDER + 1)
        t, t_end = self.window
        fields = self._fields0
        times, series = [], []
        while True:
            xi = self._transport_series(t, fields, self.ORDER)
            times.append(t)
            series.append(xi)
            if t >= t_end:
                break
            tol = self.STEP_TOL * np.max(np.abs(xi[:, :, 0]))
            h = min((tol / np.max(np.abs(xi[:, :, j]))) ** (1.0 / j)
                    for j in (self.ORDER - 1, self.ORDER))
            fields = xi @ h ** powers
            t += h
        self.node_times = np.array(times)
        self.node_series = np.array(series)
        self._midpoints = 0.5 * (self.node_times[1:] + self.node_times[:-1])

    def fields_at(self, t: float) -> np.ndarray:
        """Transported frame at parameter t, shape (num_fields, N).

        Evaluates the series of the grid node nearest to t.
        """
        i = int(np.searchsorted(self._midpoints, t))
        dt = t - self.node_times[i]
        return self.node_series[i] @ dt ** np.arange(self.ORDER + 1)

    def orthonormality_drift(self) -> float:
        eye = np.eye(self.num_fields)
        fields = self.node_series[:, :, :, 0]
        gram = np.einsum("mfn,mgn->mfg", fields, fields)
        return float(np.max(np.abs(gram - eye)))

    def field_taylor(self, t0: float, order: int) -> np.ndarray:
        """Exact Taylor coefficients of the transported fields at t0.

        The recurrence of ``_transport_series`` seeded with fields_at(t0).
        Shape (num_fields, N, order+1).
        """
        return self._transport_series(t0, self.fields_at(t0), order)


def _curve_chart_fn(system: CurveSystem, n: int):
    def fn(vars_: list[Jet]) -> list[Jet]:
        t_jet = vars_[0]
        order = t_jet.order
        powers = series_powers(t_jet)
        comps = system.curve_taylor(t_jet.value, order) @ powers
        fields = system.field_taylor(t_jet.value, order) @ powers
        for i, s_jet in enumerate(vars_[1:n]):
            for j in range(system.ambient_dim):
                comps[j] += product(t_jet.sig, s_jet.coeffs, fields[i, j])
        return [Jet(t_jet.num_vars, order, row) for row in comps]
    return fn


def make_curve_parallel_subbundle(n: int = 3, big_n: int = 8,
                                  seed: int = 11) -> CatalogEntry:
    """Normal-exponential image of a parallel rank-(n-1) normal subbundle
    along a seeded curve with nonvanishing curvature.

    Three extra parallel witness fields are transported alongside the chart
    fields; they stay normal to the image and feed the splitting exercises.
    """
    if not 2 <= n <= big_n - 1:
        raise ParameterError("need 2 <= n <= N - 1")
    if seed < 0:
        raise ParameterError("seed must be non-negative")
    witnesses = 3 if big_n - 1 >= (n - 1) + 3 else 0
    system = CurveSystem(big_n, n - 1 + witnesses, seed)

    s_radius = 0.08
    lo = [system.window[0] + 0.05] + [-s_radius] * (n - 1)
    hi = [system.window[1] - 0.05] + [s_radius] * (n - 1)
    chart = ImmersionChart(f"curve-parallel-{n}-{big_n}", n, big_n,
                           box(lo, hi), _curve_chart_fn(system, n),
                           max_order=big_n - 1)

    max_normal_order = big_n - n  # flag exhausts the ambient space
    expected = [
        Expectation("first_normal_rank", {"expected": 1},
                    "curvature spans a single normal direction"),
        Expectation("s_rank", {"expected": 1},
                    "rank-one nonparallel first normal bundle"),
        Expectation("case_label", {"expected": "case-i"},
                    "full nonparallelism rank: nullity case"),
        Expectation("nu", {"expected": n - 1},
                    "relative nullity index n - 1"),
        Expectation("sectional_flat", {"tol": 1e-8, "count": 20},
                    "flat induced metric"),
        Expectation("transport_orthonormality", {"tol": 1e-9},
                    "parallel transport preserves inner products"),
        Expectation("flag_dims", {"stages": None, "total": big_n},
                    "osculating flag exhausts the ambient space"),
    ]

    def sampler(rng: np.random.Generator) -> np.ndarray:
        return chart.domain.sample(rng, margin=0.01)

    def witness_rule(indices: tuple[int, ...], rotate: bool = False):
        def rule(geom, order: int) -> np.ndarray:
            # Taylor series in t of each field; the s-partials vanish
            t = float(geom.x[0])
            series = system.field_taylor(t, order)[list(indices)]
            if rotate:
                # cos 3t and sin 3t as series at t, times the first two fields
                k = np.arange(order + 1)
                scale = 3.0 ** k / np.array([math.factorial(j) for j in k])
                cos3 = scale * np.cos(3.0 * t + k * math.pi / 2.0)
                sin3 = scale * np.sin(3.0 * t + k * math.pi / 2.0)
                first = np.stack([series[0, :, :j + 1] @ cos3[j::-1]
                                  + series[1, :, :j + 1] @ sin3[j::-1]
                                  for j in k], axis=-1)
                series = np.concatenate([first[None], series[2:]])
            sig = signature(geom.n, order)
            table = np.zeros((sig.size,) + series.shape[:2])
            table[[sig.index[(j,) + (0,) * (geom.n - 1)]
                   for j in range(order + 1)]] = series.transpose(2, 0, 1)
            return table
        return rule

    exercises = []
    if witnesses == 3:
        w = n - 1  # first witness index
        exercises = [
            SplitExercise(
                name="parallel-line",
                rule=witness_rule((w,)),
                expected={"k": 1, "r": 1, "n1f_rank": 1, "nu_ext": n,
                          "delta_in_nullity": True},
                lambda_radius=0.08),
            SplitExercise(
                name="rotating-line",
                rule=witness_rule((w, w + 1), rotate=True),
                expected={"k": 2, "r": 0},
                lambda_radius=0.08)]
        if big_n >= n + 4:
            # mixed-pair's L has rank 2, so P has rank N - n - 2; Gamma is
            # the image of P under derivatives along E, the curve direction
            # alone, so k <= N - n - 2 and k = 2 needs N >= n + 4
            exercises.append(SplitExercise(
                name="mixed-pair",
                rule=witness_rule((w, w + 1, w + 2), rotate=True),
                expected={"k": 2, "r": 1, "n1f_rank": 1, "nu_ext": n,
                          "script_l_rank": 1},
                lambda_radius=0.08))

    return CatalogEntry(
        name="curve-parallel", params={"n": n, "N": big_n},
        description="image of a parallel normal subbundle over a curve with "
                    "nonvanishing curvature (rank-one nonparallel case)",
        chart=chart, max_normal_order=max_normal_order, substantial=True,
        expected=expected, sampler=sampler, ruled=True, ruling_from="nullity",
        split_exercises=exercises, aux={"system": system})


# ---------------------------------------------------------------------------
# Holomorphic curve surfaces and their ruled thickenings


def _z_powers(u: Jet, v: Jet, top: int) -> np.ndarray:
    """Complex coefficient tables of z^e/e! for e = 0..top, z = u + iv.

    With z0 the value of z and dz = z - z0,
    z^e/e! = sum_k z0^(e-k)/(e-k)! * dz^k/k!, so one table of dz powers
    serves every exponent.  Shape (top + 1, size).
    """
    sig = u.sig
    dz = u.coeffs + 1j * v.coeffs
    z0, dz[0] = dz[0], 0.0
    top_k = min(top, sig.order)  # dz^k vanishes beyond the jet order
    dz_powers = np.zeros((top_k + 1, sig.size), dtype=complex)
    dz_powers[0, 0] = 1.0
    for k in range(1, top_k + 1):
        dz_powers[k] = product(sig, dz_powers[k - 1], dz) / k
    shift = np.arange(top + 1)[:, None] - np.arange(top_k + 1)
    e = np.maximum(shift, 0)
    inv_fact = np.array([1.0 / math.factorial(j) for j in range(top + 1)])
    return np.where(shift >= 0, z0 ** e * inv_fact[e], 0.0) @ dz_powers


def _holo_frame_vectors(sig: JetSignature, powers: np.ndarray,
                        m: int) -> np.ndarray:
    """Unit complex frame vectors spanning the flag stages 1..m-1.

    Gram-Schmidt over the complex derivative vectors of the coordinate map,
    whose k-th one has components z^(j-k)/(j-k)! for j >= k and 0 below
    (``powers`` from ``_z_powers``); row k - 1 of the result spans the k-th
    normal stage of the base surface.  Shape (m - 1, m + 3, size).
    """
    comps = m + 3

    def herm(a, b):
        """Hermitian inner product sum_j a_j * conj(b_j)."""
        return product(sig, a, np.conj(b)).sum(axis=0)

    basis, norms2 = [], []
    for k in range(1, m + 1):
        w = np.zeros((comps, sig.size), dtype=complex)
        w[k - 1:] = powers[:comps - k + 1]
        for prev, norm2 in zip(basis, norms2):
            coeff = product(sig, herm(w, prev), jet_reciprocal(norm2).coeffs)
            w = w - product(sig, coeff, prev)
        basis.append(w)
        norms2.append(Jet(sig.num_vars, sig.order, herm(w, w).real))
    return np.array([product(sig, w, jet_rsqrt(norm2).coeffs)
                     for w, norm2 in zip(basis[1:], norms2[1:])])


def _real_components(sig: JetSignature, table: np.ndarray) -> list[Jet]:
    """Real jets Re c_1, Im c_1, Re c_2, ... of complex component tables."""
    rows = np.stack([table.real, table.imag], axis=1).reshape(-1, sig.size)
    return [Jet(sig.num_vars, sig.order, row) for row in rows]


def make_holomorphic_curve_surface(m: int = 2) -> CatalogEntry:
    """Substantial elliptic surface: the holomorphic monomial curve.

    Minimal by construction (holomorphic), hence elliptic with the rotation
    by a quarter turn as almost complex structure; all normal stages are
    plane bundles and the flag exhausts the ambient space.
    """
    if m < 2:
        raise ParameterError("m must be at least 2")
    comps = m + 3
    big_n = 2 * comps

    def fn(vars_: list[Jet]) -> list[Jet]:
        u, v = vars_[0], vars_[1]
        return _real_components(u.sig, _z_powers(u, v, comps)[1:])

    chart = ImmersionChart(f"holomorphic-curve-{m}", 2, big_n,
                           box([-0.45, -0.45], [0.45, 0.45]), fn,
                           max_order=m + 5)
    expected = [
        Expectation("flag_dims", {"stages": [2] * (m + 2), "total": big_n},
                    "every normal stage is a plane bundle and the flag "
                    "exhausts the ambient space"),
        Expectation("ellipticity", {"tol": 1e-10, "count": 20},
                    "alpha(Z, Z) + alpha(JZ, JZ) = 0"),
        Expectation("minimality", {"tol": 1e-10},
                    "holomorphic curves are minimal"),
        Expectation("flag_coordinate_planes_at_origin", {"tol": 1e-9},
                    "at the center the stages align with coordinate planes"),
        Expectation("s_rank", {"expected": 2},
                    "fully nonparallel first normal space"),
        Expectation("case_label", {"expected": "out-of-theorem-scope"},
                    "surface dimension equals the nonparallelism rank"),
    ]
    return CatalogEntry(
        name="holomorphic-curve", params={"m": m},
        description="holomorphic monomial curve surface (minimal, elliptic); "
                    "base for the ruled construction",
        chart=chart, max_normal_order=m + 2, substantial=True,
        expected=expected,
        sampler=lambda rng: chart.domain.sample(rng, margin=0.05))


def make_section4_example(m: int = 2, t_radius: float = 0.25,
                          seed: int = 0) -> CatalogEntry:
    """Ruled thickening of the holomorphic curve surface over its lower
    normal stages.

    The chart translates the base surface along an exact orthonormal frame of
    the first m-1 normal stages; sampling stays off the zero section, where
    the first normal rank drops.  Expected invariants: first normal rank 4,
    nonparallelism rank 2 matching stage m+1 of the base, rulings of
    dimension n - 2 that carry nonzero second fundamental form.
    """
    if m < 2:
        raise ParameterError("m must be at least 2")
    if not 0.0 < t_radius < math.inf:
        raise ParameterError("t_radius must be positive and finite")
    n = 2 * m
    comps = m + 3
    big_n = 2 * comps
    verticals = 2 * (m - 1)

    def fn(vars_: list[Jet]) -> list[Jet]:
        u, v = vars_[0], vars_[1]
        ts = vars_[2:2 + verticals]
        sig = u.sig
        powers = _z_powers(u, v, comps)
        units = _holo_frame_vectors(sig, powers, m)
        # translation by sum_a tau_a * unit_a with tau_a = t_re + i t_im
        taus = np.array([t_re.coeffs + 1j * t_im.coeffs
                         for t_re, t_im in zip(ts[0::2], ts[1::2])])
        moved = powers[1:] + product(sig, taus[:, None], units).sum(axis=0)
        return _real_components(sig, moved)

    radius = _shrink_radius_for_immersion(fn, m, t_radius)
    lo = [-0.4, -0.4] + [-radius] * verticals
    hi = [0.4, 0.4] + [radius] * verticals
    chart = ImmersionChart(f"section4-ruled-{m}", n, big_n, box(lo, hi), fn,
                           max_order=6)
    t_min = 0.3 * radius

    def sampler(rng: np.random.Generator) -> np.ndarray:
        for _ in range(256):
            x = chart.domain.sample(rng, margin=0.02)
            t_norm = float(np.linalg.norm(x[2:]))
            if t_min <= t_norm:
                return x
        raise DataError("could not sample off the zero section")

    base_entry = make_holomorphic_curve_surface(m)
    expected = [
        Expectation("first_normal_rank", {"expected": 4},
                    "four dimensional first normal bundle"),
        Expectation("s_rank", {"expected": 2}, "nonparallelism rank two"),
        Expectation("d_dim", {"expected": n - 2},
                    "rulings of the minimum dimension n - s"),
        Expectation("case_label", {"expected": "case-iii-a"},
                    "ruled case with full gamma rank"),
        Expectation("s_matches_base_stage", {"stage": m + 1, "tol": 1e-6},
                    "nonparallelism span equals stage m+1 of the base "
                    "surface"),
        Expectation("osculating_identity", {"tol": 1e-6},
                    "tangent plus first normal space matches the base flag "
                    "through stage m+1"),
        Expectation("vertical_alpha_span", {"tol": 1e-6},
                    "mixed second fundamental form spans the expected slice "
                    "of the first normal space"),
        Expectation("rulings_alpha_nonzero", {"tol": 1e-6},
                    "rulings are not in the relative nullity distribution"),
        Expectation("nu_s_violation", {"s": 2},
                    "pointwise nullity bound fails at the nonparallelism "
                    "rank"),
        Expectation("flag_dims", {"stages": [4, 2], "total": big_n},
                    "flag exhausts the ambient space"),
        Expectation("s_constancy", {"ratio": True},
                    "nonparallelism span constant along rulings, with "
                    "second-order shrinking of the discretized drift"),
    ]

    # With this splitting the derivative span factors through the
    # two-dimensional stage m of the base flag, so k = 2 = s exactly and the
    # extension realizes the extreme branch: its rulings lie in the
    # extension's relative nullity and its first normal rank equals k.
    exercises = [SplitExercise(
        name="default",
        rule=None,  # default splitting
        expected={"k": 2, "r": 2, "n1f_rank": 2, "nu_ext": n - 2 + 2,
                  "delta_in_nullity": True},
        lambda_radius=0.08)]

    return CatalogEntry(
        name="section4-ruled", params={"m": m, "t_radius": round(radius, 6)},
        description="ruled thickening of a holomorphic curve surface over "
                    "its lower normal stages: sharp ruled case",
        chart=chart, max_normal_order=3, substantial=True,
        expected=expected, sampler=sampler, ruled=True, ruling_from="D",
        split_exercises=exercises,
        aux={"base_entry": base_entry, "m": m, "t_min": t_min})


def _shrink_radius_for_immersion(fn, m: int, t_radius: float) -> float:
    """Probe the Jacobian at box corners and shrink until it keeps rank."""
    from .jets import DerivativeTensor, VectorJet, variables
    verticals = 2 * (m - 1)
    radius = t_radius
    probes_uv = [(-0.35, 0.2), (0.3, -0.3), (0.0, 0.35), (0.1, 0.1)]
    while radius >= 1e-6:
        ok = True
        for (u0, v0) in probes_uv:
            for corner in (np.ones(verticals), -np.ones(verticals)):
                x = np.array([u0, v0, *(radius / math.sqrt(verticals)
                                        * corner)])
                jac = DerivativeTensor(VectorJet(fn(variables(x, 1)))).tensor(1)
                svals = np.linalg.svd(jac, compute_uv=False)
                if svals[-1] < 1e-3 * svals[0]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return radius
        radius *= 0.7
    raise DegenerateExtensionError(
        "no admissible thickening radius above 1e-6")


# ---------------------------------------------------------------------------
# Product of rank-one nonparallel factors: the s = p block-diagonal case


def make_curve_product(factors: int = 4, seed: int = 23) -> CatalogEntry:
    """Cartesian product of rank-one nonparallel curve charts.

    The nonparallelism data of a product is block diagonal, so the span
    ranks add: with four factors this realizes s = p = 4 with relative
    nullity exactly n - 4, the full-rank case of the trichotomy.
    """
    if not 2 <= factors <= 4:
        raise ParameterError("factors must be between 2 and 4")
    if seed < 0:
        raise ParameterError("seed must be non-negative")
    systems = [CurveSystem(4, 1, seed + 17 * i) for i in range(factors)]
    n = 2 * factors
    big_n = 4 * factors

    fns = [_curve_chart_fn(sys_i, 2) for sys_i in systems]

    def fn(vars_: list[Jet]) -> list[Jet]:
        comps: list[Jet] = []
        for i, factor_fn in enumerate(fns):
            comps.extend(factor_fn(vars_[2 * i:2 * i + 2]))
        return comps

    s_radius = 0.08
    lo = ([0.05, -s_radius] * factors)
    hi = ([0.95, s_radius] * factors)
    chart = ImmersionChart(f"curve-product-{factors}", n, big_n,
                           box(lo, hi), fn, max_order=6)
    expected = [
        Expectation("first_normal_rank", {"expected": factors},
                    "one first normal direction per factor"),
        Expectation("s_rank", {"expected": factors},
                    "block-diagonal nonparallelism: ranks add"),
        Expectation("case_label", {"expected": "case-i"},
                    "full nonparallelism rank"),
        Expectation("nu", {"expected": n - factors},
                    "relative nullity n - p"),
        Expectation("d_dim", {"expected": n - factors},
                    "kernel of the restricted form equals the nullity"),
        Expectation("flag_dims", {"stages": [factors, factors],
                                  "total": big_n},
                    "flag exhausts the ambient space"),
    ]
    return CatalogEntry(
        name="curve-product", params={"factors": factors},
        description="product of rank-one nonparallel curve charts: "
                    "realizes the full-rank nullity case",
        chart=chart, max_normal_order=2, substantial=True,
        expected=expected,
        sampler=lambda rng: chart.domain.sample(rng, margin=0.01),
        ruled=True, ruling_from="nullity")


# ---------------------------------------------------------------------------
# Registry


def _build_sphere(params: dict) -> CatalogEntry:
    return make_calibration("sphere", n=params["n"])


def _build_flat(params: dict) -> CatalogEntry:
    return make_calibration("flat", seed=params["seed"])


def _build_torus(params: dict) -> CatalogEntry:
    return make_calibration("product-torus")


def _build_curve(params: dict) -> CatalogEntry:
    return make_curve_parallel_subbundle(n=params["n"], big_n=params["N"],
                                         seed=params["seed"])


def _build_holo(params: dict) -> CatalogEntry:
    return make_holomorphic_curve_surface(m=params["m"])


def _build_section4(params: dict) -> CatalogEntry:
    return make_section4_example(m=params["m"], t_radius=params["t_radius"])


def _build_product(params: dict) -> CatalogEntry:
    return make_curve_product(factors=params["factors"], seed=params["seed"])


# Each builder receives every key of its schema string "k=default, ...",
# cast to the type of the default.
BUILDERS: dict[str, tuple[Callable[[dict], CatalogEntry], str, str]] = {
    "sphere": (_build_sphere, "n=2",
               "unit sphere calibration (umbilic, no complement)"),
    "flat": (_build_flat, "seed=0",
             "affine plane calibration (totally geodesic)"),
    "product-torus": (_build_torus, "",
                      "flat torus with parallel first normal bundle"),
    "curve-parallel": (_build_curve, "n=3, N=8, seed=11",
                       "parallel normal subbundle over a curve "
                       "(rank-one nonparallel, flat)"),
    "holomorphic-curve": (_build_holo, "m=2",
                          "minimal elliptic surface with plane normal "
                          "stages"),
    "section4-ruled": (_build_section4, "m=2, t_radius=0.25",
                       "sharp ruled example: rank-four first normal bundle, "
                       "rank-two nonparallelism constant along rulings"),
    "curve-product": (_build_product, "factors=4, seed=23",
                      "product of rank-one factors: full-rank nullity case"),
}


def entry_names() -> list[str]:
    return sorted(BUILDERS)


def _typed_params(name: str, params: dict) -> dict:
    """The schema defaults of an entry overridden by ``params``, each cast to
    its default's type; unknown keys and values that do not cast exactly are
    rejected."""
    schema = BUILDERS[name][1]
    defaults = dict(item.strip().split("=") for item in schema.split(",")
                    if item.strip())
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ParameterError(
            f"entry {name!r} has no parameter {', '.join(unknown)}; "
            f"accepted: ({schema})")
    typed = {}
    for key, default in defaults.items():
        cast = float if "." in default else int
        value = params.get(key, default)
        try:
            typed[key] = cast(value)
            exact = typed[key] == float(value)  # no truncation, no NaN
        except (TypeError, ValueError, OverflowError):
            exact = False
        if not exact:
            raise ParameterError(
                f"entry {name!r}: parameter {key}={value!r} is not "
                f"{'a number' if cast is float else 'an integer'}")
    return typed


def get_entry(name: str, params: dict | None = None) -> CatalogEntry:
    if name not in BUILDERS:
        raise ParameterError(f"unknown catalog entry {name!r}; "
                             f"known: {', '.join(entry_names())}")
    return BUILDERS[name][0](_typed_params(name, params or {}))
