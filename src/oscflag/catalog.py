"""The catalog of exactly constructed example submanifolds.

Each entry packages an analytic chart (evaluated through jets), the declared
invariants it is expected to satisfy, a point sampler, and any auxiliary
structure needed by the verification checks (base surfaces, transported
frames, splitting exercises).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .curves import CurveSystem, curve_tables
from .errors import DataError, ParameterError
from .geometry import ImmersionChart, box
from .jets import (Jet, JetSignature, affine_lift, jet_constant,
                   jet_reciprocal, jet_rsqrt, jet_sincos, product, signature,
                   variables)

# ---------------------------------------------------------------------------
# Catalog data structures


@dataclass(frozen=True)
class Expectation:
    """A declared invariant: a check id, its parameters, and a label.  The
    parameters state the claim; ``checks.GATES`` holds the gate."""

    check: str
    params: dict
    description: str


@dataclass(frozen=True)
class SplitExercise:
    """A normal-splitting rule to push through the ruled-extension pipeline."""

    name: str
    rule: Callable  # (geom, order) -> rows spanning L, see SplittingSpec
    expected: dict  # k, r, and optional n1f_rank / nu_ext / delta_in_nullity


@dataclass
class CatalogEntry:
    name: str
    params: dict
    description: str
    chart: ImmersionChart
    max_normal_order: int
    expected: list[Expectation]
    sampler: Callable[[np.random.Generator], np.ndarray]
    ruling_from: str = "none"  # "D" or "nullity"
    split_exercises: list[SplitExercise] = dc_field(default_factory=list)
    aux: dict = dc_field(default_factory=dict)


def _columns(jets: list[Jet]) -> np.ndarray:
    """The tables ``(B, size)`` of component jets as one table
    ``(B, size, #jets)``; a constant jet's table serves every point."""
    shape = max((j.coeffs.shape for j in jets), key=len)
    out = np.empty(shape + (len(jets),))
    for k, jet in enumerate(jets):
        out[..., k] = jet.coeffs
    return out


# ---------------------------------------------------------------------------
# Calibration charts


def make_sphere(n: int = 2) -> CatalogEntry:
    """Null-hypothesis chart: the unit sphere, totally umbilic."""
    if n < 1:
        raise ParameterError("n must be at least 1")
    lo, hi = 0.6, math.pi - 0.6

    def fn(x: np.ndarray, order: int) -> np.ndarray:
        comps = []
        running = None
        for theta in variables(x, order):
            s, c = jet_sincos(theta)
            comps.append(c if running is None else running * c)
            running = s if running is None else running * s
        comps.append(running)
        return _columns(comps)

    chart = ImmersionChart(f"sphere-{n}", n, n + 1,
                           box([lo] * n, [hi] * n), fn, max_order=8)
    expected = [
        Expectation("first_normal_rank", {"expected": 1},
                    "totally umbilic: rank-one first normal space"),
        Expectation("flag_dims", {"stages": [1], "total": None},
                    "flag stops after the first normal space"),
        Expectation("phi_absent", {},
                    "no complement: not locally substantial beyond the "
                    "first normal space"),
        Expectation("umbilic_sphere", {},
                    "alpha(X, Y) = -<X, Y> times the position normal"),
        Expectation("ricci_constant", {"expected": float(n - 1)},
                    "constant Ricci curvature n - 1"),
        Expectation("case_label", {"expected": "parallel"},
                    "no nonparallelism data"),
    ]
    return CatalogEntry(
        name="sphere", params={"n": n},
        description="unit sphere, totally umbilic calibration",
        chart=chart, max_normal_order=2, expected=expected,
        sampler=lambda rng: chart.domain.sample(rng, margin=0.05))


def make_flat(seed: int = 0) -> CatalogEntry:
    """Null-hypothesis chart: a seeded affine plane, totally geodesic."""
    if seed < 0:
        raise ParameterError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    big_n = 5
    basis, _ = np.linalg.qr(rng.standard_normal((big_n, 2)))
    shift = rng.standard_normal(big_n)

    def fn(x: np.ndarray, order: int) -> np.ndarray:
        u, v = variables(x, order)
        table = (u.coeffs[..., None] * basis[:, 0]
                 + v.coeffs[..., None] * basis[:, 1])
        table[..., 0, :] += shift
        return table

    chart = ImmersionChart("flat-plane", 2, big_n,
                           box([-1.0, -1.0], [1.0, 1.0]), fn, max_order=8)
    expected = [
        Expectation("alpha_zero", {},
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
        chart=chart, max_normal_order=2, expected=expected,
        sampler=lambda rng: chart.domain.sample(rng, margin=0.05),
        ruling_from="nullity")


def make_product_torus() -> CatalogEntry:
    """Null-hypothesis chart: a flat torus with parallel first normal
    bundle."""
    consts = (0.3, -0.2)

    def fn(x: np.ndarray, order: int) -> np.ndarray:
        (sin_u, cos_u), (sin_v, cos_v) = map(jet_sincos,
                                             variables(x, order))
        return _columns([cos_u, sin_u, cos_v, sin_v,
                         jet_constant(2, order, consts[0]),
                         jet_constant(2, order, consts[1])])

    chart = ImmersionChart("flat-torus-r4-in-r6", 2, 6,
                           box([0.3, 0.3], [5.9, 5.9]), fn, max_order=8)
    expected = [
        Expectation("first_normal_rank", {"expected": 2},
                    "product of two circles"),
        Expectation("phi_zero", {},
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
        chart=chart, max_normal_order=2, expected=expected,
        sampler=lambda rng: chart.domain.sample(rng, margin=0.05))


# ---------------------------------------------------------------------------
# Curve with a parallel normal subbundle


def make_curve_parallel_subbundle(n: int = 3, N: int = 8,
                                  seed: int = 11) -> CatalogEntry:
    """Normal-exponential image of a parallel rank-(n-1) normal subbundle
    along a seeded curve with nonvanishing curvature.

    Three extra parallel witness fields are transported alongside the chart
    fields; they stay normal to the image and feed the splitting exercises.
    """
    # the entry declares s = 1, which needs a complement of the first
    # normal space: at N = n + 1 the second osculating space fills R^N
    if not 2 <= n <= N - 2:
        raise ParameterError(
            f"need 2 <= n <= N - 2 (n={n}, N={N}): at N = n + 1 the "
            f"first normal space has no complement")
    # the curve's derivatives span at most two directions per frequency
    # (FREQS = 1, 2, 3) and the fields' t-derivatives lie in that span, so
    # the flag stops at n - 1 + 6 = n + 5
    if N > n + 5:
        raise ParameterError(
            f"need N <= n + 5 (n={n}, N={N}): the curve's derivatives span "
            f"at most six directions, so the flag cannot fill R^N")
    if seed < 0:
        raise ParameterError("seed must be non-negative")
    witnesses = 3 if N - 1 >= (n - 1) + 3 else 0
    system = CurveSystem(N, n - 1 + witnesses, [seed])

    s_radius = 0.08
    lo = [system.WINDOW[0] + 0.05] + [-s_radius] * (n - 1)
    hi = [system.WINDOW[1] - 0.05] + [s_radius] * (n - 1)
    chart = ImmersionChart(f"curve-parallel-{n}-{N}", n, N, box(lo, hi),
                           lambda x, order: curve_tables(
                               system, signature(n, order), x,
                               [(0, range(1, n))])[0],
                           max_order=N - 1)

    max_normal_order = N - n  # flag exhausts the ambient space
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
        Expectation("transport_orthonormality", {},
                    "parallel transport preserves inner products"),
        Expectation("flag_dims", {"stages": None, "total": N},
                    "osculating flag exhausts the ambient space"),
    ]

    def sampler(rng: np.random.Generator) -> np.ndarray:
        return chart.domain.sample(rng, margin=0.01)

    def witness_rule(indices: tuple[int, ...], rotate: bool = False):
        def rule(geom, order: int) -> np.ndarray:
            # Taylor series in t of each field; the s-partials vanish
            t = float(geom.x[0])
            series = system.field_taylor(0, geom.x[:1], order)[0]
            series = series[list(indices)]
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
            # series in t alone: the lift with no ruling variables
            table = series.transpose(2, 0, 1)[None]
            return affine_lift(signature(geom.n, order), table,
                               table[:, None][:, :0], np.zeros((1, 0)),
                               (0,), ())[0]
        return rule

    exercises = []
    if witnesses == 3:
        w = n - 1  # first witness index
        exercises = [
            SplitExercise(
                name="parallel-line",
                rule=witness_rule((w,)),
                expected={"k": 1, "r": 1, "n1f_rank": 1, "nu_ext": n,
                          "delta_in_nullity": True}),
            SplitExercise(
                name="rotating-line",
                rule=witness_rule((w, w + 1), rotate=True),
                expected={"k": 2, "r": 0})]
        if N >= n + 4:
            # mixed-pair's L has rank 2, so P has rank N - n - 2; Gamma is
            # the image of P under derivatives along E, the curve direction
            # alone, so k <= N - n - 2 and k = 2 needs N >= n + 4
            exercises.append(SplitExercise(
                name="mixed-pair",
                rule=witness_rule((w, w + 1, w + 2), rotate=True),
                expected={"k": 2, "r": 1, "n1f_rank": 1, "nu_ext": n,
                          "script_l_rank": 1}))

    return CatalogEntry(
        name="curve-parallel", params={"n": n, "N": N},
        description="image of a parallel normal subbundle over a curve with "
                    "nonvanishing curvature (rank-one nonparallel case)",
        chart=chart, max_normal_order=max_normal_order, expected=expected,
        sampler=sampler, ruling_from="nullity",
        split_exercises=exercises, aux={"system": system})


# ---------------------------------------------------------------------------
# Holomorphic curve surfaces and their ruled thickenings


def _z_powers(x: np.ndarray, order: int, top: int) -> np.ndarray:
    """Complex tables in ``signature(2, order)`` of z^e/e! for e = 0..top,
    z = u + iv at the points (u, v) = x[:, :2].

    With z0 the value of z and dz = z - z0,
    z^e/e! = sum_k z0^(e-k)/(e-k)! * dz^k/k!, so one table of dz powers
    serves every exponent.  Shape (B, top + 1, size).
    """
    sig = signature(2, order)
    z0 = x[:, 0] + 1j * x[:, 1]
    dz = np.zeros((len(x), sig.size), dtype=complex)
    if order >= 1:  # du + i dv on the degree-1 monomials, v's first
        dz[:, 1:3] = [1j, 1.0]
    top_k = min(top, sig.order)  # dz^k vanishes beyond the jet order
    dz_powers = np.zeros((len(x), top_k + 1, sig.size), dtype=complex)
    dz_powers[:, 0, 0] = 1.0
    for k in range(1, top_k + 1):
        dz_powers[:, k] = product(sig, dz_powers[:, k - 1], dz) / k
    shift = np.arange(top + 1)[:, None] - np.arange(top_k + 1)
    e = np.maximum(shift, 0)
    inv_fact = np.array([1.0 / math.factorial(j) for j in range(top + 1)])
    return np.where(shift >= 0, z0[:, None, None] ** e * inv_fact[e],
                    0.0) @ dz_powers


def _holo_frame_vectors(sig: JetSignature, powers: np.ndarray,
                        m: int) -> np.ndarray:
    """Unit complex frame vectors spanning the flag stages 1..m-1.

    Gram-Schmidt over the complex derivative vectors of the coordinate map,
    whose k-th one has components z^(j-k)/(j-k)! for j >= k and 0 below
    (``powers`` from ``_z_powers``); row k - 1 of each point's block spans
    the k-th normal stage of the base surface.  Shape
    (B, m - 1, m + 3, size).
    """
    comps = m + 3

    def herm(a, b):
        """Hermitian inner product sum_j a_j * conj(b_j)."""
        return product(sig, a, np.conj(b)).sum(axis=-2)

    basis, norms2 = [], []
    for k in range(1, m + 1):
        w = np.zeros((len(powers), comps, sig.size), dtype=complex)
        w[:, k - 1:] = powers[:, :comps - k + 1]
        for prev, norm2 in zip(basis, norms2):
            coeff = product(sig, herm(w, prev), jet_reciprocal(norm2).coeffs)
            w = w - product(sig, coeff[:, None], prev)
        basis.append(w)
        norms2.append(Jet(sig.num_vars, sig.order, herm(w, w).real))
    return np.stack([product(sig, w, jet_rsqrt(norm2).coeffs[:, None])
                     for w, norm2 in zip(basis[1:], norms2[1:])], axis=1)


def _real_columns(table: np.ndarray) -> np.ndarray:
    """Complex component tables ``(..., comps, size)`` as one real table
    ``(..., size, 2 comps)`` with columns Re c_1, Im c_1, Re c_2, ..."""
    pairs = np.stack([table.real, table.imag], axis=-1)
    return pairs.swapaxes(-2, -3).reshape(table.shape[:-2]
                                          + (table.shape[-1], -1))


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

    def fn(x: np.ndarray, order: int) -> np.ndarray:
        return _real_columns(_z_powers(x, order, comps)[:, 1:])

    chart = ImmersionChart(f"holomorphic-curve-{m}", 2, big_n,
                           box([-0.45, -0.45], [0.45, 0.45]), fn,
                           max_order=m + 5)
    expected = [
        Expectation("flag_dims", {"stages": [2] * (m + 2), "total": big_n},
                    "every normal stage is a plane bundle and the flag "
                    "exhausts the ambient space"),
        Expectation("ellipticity", {},
                    "alpha(Z, Z) + alpha(JZ, JZ) = 0"),
        Expectation("minimality", {},
                    "holomorphic curves are minimal"),
        Expectation("flag_coordinate_planes_at_origin", {},
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
        chart=chart, max_normal_order=m + 2, expected=expected,
        sampler=lambda rng: chart.domain.sample(rng, margin=0.05))


# Half-width of the section4-ruled box in each vertical coordinate; sampling
# rejects any point of it where the chart is not an immersion.
SECTION4_RADIUS = 0.25


def make_section4_example(m: int = 2) -> CatalogEntry:
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
    n = 2 * m
    comps = m + 3
    big_n = 2 * comps
    verticals = 2 * (m - 1)

    def fn(x: np.ndarray, order: int) -> np.ndarray:
        # the surface and its frame depend on (u, v) alone; the translation
        # by sum_a tau_a * unit_a, tau_a = t_re + i t_im, is affine in t
        powers = _z_powers(x, order, comps)
        units = _holo_frame_vectors(signature(2, order), powers, m)
        linear = np.stack([units, 1j * units], axis=2)
        return affine_lift(signature(n, order), _real_columns(powers[:, 1:]),
                           _real_columns(linear.reshape(
                               len(x), verticals, comps, -1)),
                           x[:, 2:], (0, 1), range(2, n))

    lo = [-0.4, -0.4] + [-SECTION4_RADIUS] * verticals
    hi = [0.4, 0.4] + [SECTION4_RADIUS] * verticals
    chart = ImmersionChart(f"section4-ruled-{m}", n, big_n, box(lo, hi), fn,
                           max_order=6)
    t_min = 0.3 * SECTION4_RADIUS

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
        Expectation("s_matches_base_stage", {},
                    "nonparallelism span equals stage m+1 of the base "
                    "surface"),
        Expectation("osculating_identity", {},
                    "tangent plus first normal space matches the base flag "
                    "through stage m+1"),
        Expectation("vertical_alpha_span", {},
                    "mixed second fundamental form spans the expected slice "
                    "of the first normal space"),
        Expectation("rulings_alpha_nonzero", {},
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
                  "delta_in_nullity": True})]

    return CatalogEntry(
        name="section4-ruled", params={"m": m},
        description="ruled thickening of a holomorphic curve surface over "
                    "its lower normal stages: sharp ruled case",
        chart=chart, max_normal_order=3, expected=expected, sampler=sampler,
        ruling_from="D",
        split_exercises=exercises,
        aux={"base_entry": base_entry, "t_min": t_min})


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
    system = CurveSystem(4, 1, [seed + 17 * i for i in range(factors)])
    n = 2 * factors
    big_n = 4 * factors
    # factor i reads its t and s at the positions 2i and 2i + 1
    slots = [(2 * i, range(2 * i + 1, 2 * i + 2)) for i in range(factors)]

    def fn(x: np.ndarray, order: int) -> np.ndarray:
        return np.concatenate(
            curve_tables(system, signature(n, order), x, slots), axis=2)

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
        chart=chart, max_normal_order=2, expected=expected,
        sampler=lambda rng: chart.domain.sample(rng, margin=0.01),
        ruling_from="nullity")


# ---------------------------------------------------------------------------
# Registry


# Each maker takes its parameters as integer keywords; their defaults are
# the entry's defaults.
BUILDERS: dict[str, tuple[Callable[..., CatalogEntry], str]] = {
    "sphere": (make_sphere,
               "unit sphere calibration (umbilic, no complement)"),
    "flat": (make_flat, "affine plane calibration (totally geodesic)"),
    "product-torus": (make_product_torus,
                      "flat torus with parallel first normal bundle"),
    "curve-parallel": (make_curve_parallel_subbundle,
                       "parallel normal subbundle over a curve "
                       "(rank-one nonparallel, flat)"),
    "holomorphic-curve": (make_holomorphic_curve_surface,
                          "minimal elliptic surface with plane normal "
                          "stages"),
    "section4-ruled": (make_section4_example,
                       "sharp ruled example: rank-four first normal bundle, "
                       "rank-two nonparallelism constant along rulings"),
    "curve-product": (make_curve_product,
                      "product of rank-one factors: full-rank nullity case"),
}


def entry_names() -> list[str]:
    return sorted(BUILDERS)


def _defaults(name: str) -> dict:
    """Each parameter of an entry and its default, off the maker's signature."""
    return {key: p.default for key, p in
            inspect.signature(BUILDERS[name][0]).parameters.items()}


def entry_schema(name: str) -> str:
    """The parameters of an entry with their defaults, "k=default, ..."."""
    return ", ".join(f"{k}={v}" for k, v in _defaults(name).items())


def _typed_params(name: str, params: dict) -> dict:
    """The maker defaults of an entry overridden by ``params``, as integers;
    unknown keys and values that are not integers are rejected."""
    defaults = _defaults(name)
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ParameterError(
            f"entry {name!r} has no parameter {', '.join(unknown)}; "
            f"accepted: ({entry_schema(name)})")
    typed = {}
    for key, default in defaults.items():
        value = params.get(key, default)
        try:
            typed[key] = int(value)
            exact = typed[key] == float(value)  # no truncation, no NaN
        except (TypeError, ValueError, OverflowError):
            exact = False
        if not exact:
            raise ParameterError(
                f"entry {name!r}: parameter {key}={value!r} is not an integer")
    return typed


def get_entry(name: str, params: dict | None = None) -> CatalogEntry:
    if name not in BUILDERS:
        raise ParameterError(f"unknown catalog entry {name!r}; "
                             f"known: {', '.join(entry_names())}")
    return BUILDERS[name][0](**_typed_params(name, params or {}))
