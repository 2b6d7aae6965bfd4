"""Ruled extensions from a normal splitting.

Given an orthogonal splitting of the normal bundle into L and P with P
parallel along the kernel distribution D of alpha_P, the derivative span
Gamma of P-sections along E singles out an affine bundle Lambda inside
E + L; translating the base immersion along Lambda yields a ruled extension
whose rulings are D + Lambda and whose normal bundle keeps P constant along
the rulings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import subspaces as sub
from .errors import (DegenerateExtensionError, NumericalRankError,
                     ParameterError, ShapeError)
from .geometry import (ImmersionChart, PointGeometry, frame_derivative,
                       point_geometry, projection_frame, span_projector,
                       flattened_alpha_restricted)
from .jets import first_partials, matrix_product, partial_jets, signature


def default_splitting_rule(geom: PointGeometry) -> np.ndarray:
    """L = orthogonal complement of the nonparallelism span S inside the first
    normal space (the splitting used by the trichotomy analysis).

    Returns the rows of Pi_L = Pi_N1 - Pi_S at order 1, Pi_N1 being
    Pi_osc2 - Pi_T.  For mu in the complement C of the second osculating
    space, phi(mu, X) = -Pi_N1 (d_X Pi_osc2) mu, so S is the row span of
    Pi_C (d_i Pi_osc2) Pi_N1 over the chart partials i; as
    Pi_osc2 (d_i Pi_osc2) Pi_osc2 = 0, that is (d_i Pi_osc2) Pi_N1.
    """
    n, tol = geom.n, geom.tol
    sig1, sig2 = signature(n, 1), signature(n, 2)
    rows = partial_jets(geom.chart.eval(geom.x, 4).coeffs, n, 2, 2)
    _, osc = span_projector(sig2, rows, tol)
    n1 = osc[:sig1.size] - span_projector(sig1, rows[:sig1.size, :n], tol)[1]
    d_osc = partial_jets(osc, n, 1, 1).reshape(sig1.size, -1, geom.ambient_dim)
    return n1 - span_projector(sig1, matrix_product(sig1, d_osc, n1), tol)[1]


@dataclass(frozen=True)
class PointSplit:
    """The splitting and its derived distributions at one point."""

    geom: PointGeometry = field(repr=False)
    L: sub.Subspace     # ambient
    P: sub.Subspace     # ambient
    D: sub.Subspace     # tangent-frame coordinates
    E: sub.Subspace     # tangent-frame coordinates
    l_partials: np.ndarray = field(repr=False)  # (n, N, N) d_i Pi_L

    @property
    def ell(self) -> int:
        return self.L.dim

    @property
    def d(self) -> int:
        return self.D.dim

    def d_ambient(self) -> sub.Subspace:
        return sub.Subspace(self.geom.ambient_dim,
                            self.D.basis @ self.geom.frame, self.D.tol_used)

    def e_ambient(self) -> sub.Subspace:
        return sub.Subspace(self.geom.ambient_dim,
                            self.E.basis @ self.geom.frame, self.E.tol_used)


class SplittingSpec:
    """A rule assigning the normal subbundle L at every point of a chart.

    A rule maps a ``PointGeometry`` to rows spanning L together with their
    first chart partials: an order-1 table ``(n + 1, m, N)`` in the layout
    of ``signature(n, 1)`` (``jets.first_order_jet`` builds one).
    """

    def __init__(self, chart: ImmersionChart,
                 rule: Callable[[PointGeometry], np.ndarray] | None = None,
                 max_normal_order: int = 2,
                 tol: float = sub.DEFAULT_RANK_TOL):
        self.chart = chart
        self.rule = rule or default_splitting_rule
        self.max_normal_order = max_normal_order
        self.tol = tol

    def at(self, x, geom: PointGeometry | None = None) -> PointSplit:
        if geom is None:
            geom = point_geometry(self.chart, x, self.max_normal_order,
                                  self.tol)
        n, big_n = geom.n, geom.ambient_dim
        rows = np.asarray(self.rule(geom), dtype=float)
        if rows.ndim != 3 or rows.shape[0] != n + 1 or rows.shape[2] != big_n:
            raise ShapeError(
                f"splitting rule returned shape {rows.shape}, expected "
                f"({n + 1}, m, {big_n})")
        l_space, l_proj = span_projector(signature(n, 1), rows, self.tol)
        codim = big_n - n
        if not 0 < l_space.dim < codim:
            raise ParameterError(
                f"splitting needs 0 < rank L < {codim}, got {l_space.dim}")
        residual = sub.containment_residual(l_space, geom.normal_space)
        if residual > 1e-8:
            raise ParameterError(
                f"L is not a normal subspace (residual {residual:.3e})")
        p_space = sub.complement_within(l_space, geom.normal_space)
        d_space = sub.kernel_of(
            flattened_alpha_restricted(geom, p_space), self.tol)
        if d_space.dim == 0:
            raise NumericalRankError(
                "alpha restricted to P has trivial kernel (d = 0)")
        e_space = sub.complement_within(d_space, sub.full(n, self.tol))
        return PointSplit(geom=geom, L=l_space, P=p_space, D=d_space,
                          E=e_space,
                          l_partials=first_partials(l_proj))


@dataclass(frozen=True)
class GammaData:
    split: PointSplit = field(repr=False)
    values: np.ndarray          # (#E basis * #P basis, N) ambient gamma values
    Gamma: sub.Subspace         # ambient
    k: int


def gamma_tensor(spec: SplittingSpec, x,
                 split: PointSplit | None = None) -> GammaData:
    """Span of the E+L components of ambient derivatives of P-sections.

    The tangential part is a shape-operator contraction; for mu in P,
    Pi_L mu = 0 gives the L-component of D_w mu as -(d_w Pi_L) mu.  Both
    are exact and need no frame.  The dimension k is checked against the
    band n - d <= k <= n - d + ell.
    """
    if split is None:
        split = spec.at(x)
    geom = split.geom
    mu = split.P.basis
    e_amb = split.e_ambient()
    values = np.zeros((0, geom.ambient_dim))
    for w in split.E.basis:
        d_l = np.tensordot(w @ geom.frame_in_chart, split.l_partials, axes=1)
        shape_terms = np.einsum("abN,qN,b->qa", geom.alpha, mu, w)
        values = np.vstack([values, -e_amb.project(shape_terms @ geom.frame)
                            - mu @ d_l.T])
    gamma = sub.span_of(values, spec.tol, ambient_dim=geom.ambient_dim)
    k = gamma.dim
    n, d, ell = geom.n, split.d, split.ell
    if not n - d <= k <= n - d + ell:
        raise NumericalRankError(
            f"dim Gamma = {k} outside the band [{n - d}, {n - d + ell}]")
    return GammaData(split=split, values=values, Gamma=gamma, k=k)


@dataclass(frozen=True)
class LambdaData:
    Lambda: sub.Subspace        # ambient
    Delta: sub.Subspace         # ambient
    r: int
    lemma_par_angle: float      # smallest angle between Lambda and the tangent


def lambda_delta(spec: SplittingSpec, x, gamma: GammaData) -> LambdaData:
    """Complement Lambda of Gamma inside E + L, and the ruling bundle Delta.

    The smallest principal angle between Lambda and the tangent space is
    returned as a diagnostic: the splitting lemma predicts it is bounded away
    from zero, and a violation falsifies the implementation rather than the
    construction.
    """
    split = gamma.split
    geom = split.geom
    e_plus_l = sub.direct_sum(split.e_ambient(), split.L, spec.tol)
    lam = sub.complement_within(gamma.Gamma, e_plus_l)
    r = lam.dim
    delta = sub.direct_sum(split.d_ambient(), lam, spec.tol)
    angle = sub.smallest_angle_between(lam, geom.tangent) if r else np.pi / 2
    return LambdaData(Lambda=lam, Delta=delta, r=r, lemma_par_angle=angle)


class RuledExtension:
    """The evaluatable extension on base x admissible translation box.

    eval(x, lam) translates the base immersion by the Lambda-frame combination
    at x; it is affine in lam by construction, and the zero section reproduces
    the base chart exactly.
    """

    def __init__(self, spec: SplittingSpec,
                 pivots: tuple[int, ...], r: int, lambda_radius: float,
                 fd_step: float = 1e-3):
        self.spec = spec
        self.chart = spec.chart
        self.pivots = pivots
        self.r = r
        self.lambda_radius = lambda_radius
        self.fd_step = fd_step
        self._frames: dict[bytes, tuple[PointSplit, GammaData, LambdaData,
                                        np.ndarray]] = {}

    @property
    def trivial(self) -> bool:
        return self.r == 0

    @property
    def total_dim(self) -> int:
        return self.chart.intrinsic_dim + self.r

    def data_at(self, x):
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        hit = self._frames.get(key)
        if hit is not None:
            return hit
        split = self.spec.at(x)
        gamma = gamma_tensor(self.spec, x, split=split)
        lam = lambda_delta(self.spec, x, gamma)
        if lam.r != self.r:
            raise NumericalRankError(
                f"rank of Lambda changed from {self.r} to {lam.r} at {x}")
        if self.r:
            frame, _ = projection_frame(lam.Lambda, pivots=self.pivots)
        else:
            frame = np.zeros((0, self.chart.ambient_dim))
        record = (split, gamma, lam, frame)
        self._frames[key] = record
        return record

    def lambda_frame(self, x) -> np.ndarray:
        return self.data_at(x)[3]

    def eval(self, x, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (self.r,):
            raise ParameterError(f"lambda coordinates must have length {self.r}")
        base = self.chart.position(x)
        if self.r == 0:
            return base
        return base + lam @ self.lambda_frame(x)

    def jacobian(self, x, lam, h: float | None = None) -> np.ndarray:
        """Rows: d eval / d(base coords) by central differences, then the
        exact Lambda-frame rows."""
        h = self.fd_step if h is None else h
        base_rows = frame_derivative(lambda y: self.eval(y, lam), x,
                                     np.eye(self.chart.intrinsic_dim), h)
        return np.vstack([base_rows, self.lambda_frame(x)])


def build_extension(spec: SplittingSpec, lambda_radius: float,
                    probe_points: list[np.ndarray],
                    fd_step: float = 1e-3,
                    rank_tol: float = 1e-6,
                    min_radius: float = 1e-6) -> RuledExtension:
    """Assemble the extension and shrink the translation box by bisection
    until the Jacobian keeps full rank at every probe point.

    With r = 0 the extension is the base immersion itself, returned as the
    trivial extension.
    """
    if not probe_points:
        raise ParameterError("build_extension needs at least one probe point")
    base = np.asarray(probe_points[0], dtype=float)
    split = spec.at(base)
    gamma = gamma_tensor(spec, base, split=split)
    lam = lambda_delta(spec, base, gamma)
    if lam.r == 0:
        return RuledExtension(spec, (), 0, 0.0, fd_step)
    _, pivots = projection_frame(lam.Lambda)
    ext = RuledExtension(spec, pivots, lam.r, lambda_radius, fd_step)

    def feasible(radius: float) -> bool:
        # eval is affine in the translation coordinates, so the Jacobian
        # along each ray is a linear pencil; a dense sweep of its smallest
        # singular value costs two Jacobian builds per ray and catches rank
        # loss anywhere inside the box, not just at probe shells
        for x in probe_points:
            jac0 = ext.jacobian(x, np.zeros(ext.r))
            floor = np.linalg.svd(jac0, compute_uv=False)[-1]
            for corner in _signed_corners(ext.r):
                jac1 = ext.jacobian(x, radius * corner) - jac0
                for t in np.linspace(0.0, 1.0, 33):
                    svals = np.linalg.svd(jac0 + t * jac1, compute_uv=False)
                    if svals[-1] <= max(rank_tol * svals[0], 0.2 * floor):
                        return False
        return True

    if feasible(lambda_radius):
        return ext
    lo, hi = 0.0, lambda_radius
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if mid < min_radius:
            break
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    if lo < min_radius:
        raise DegenerateExtensionError(
            f"no admissible translation radius above {min_radius}")
    ext.lambda_radius = 0.5 * lo  # stay clear of the rank boundary
    return ext


def _signed_corners(r: int) -> np.ndarray:
    if r == 0:
        return np.zeros((1, 0))
    corners = np.array(np.meshgrid(*([[-1.0, 1.0]] * r))).reshape(r, -1).T
    return corners / np.sqrt(r)


def extension_second_form(ext: RuledExtension, x, lam,
                          h: float = 1e-3) -> dict[str, np.ndarray]:
    """Finite-difference second fundamental form of the extension at (x, lam).

    Richardson-extrapolated central second differences over the base
    coordinates; derivatives involving the translation coordinates reduce to
    first derivatives of the Lambda frame (eval is affine in lam).  Returns
    the tangent rows, the normal-projected form and the raw second
    derivatives, all on coordinate (not orthonormalized) fields.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    n = ext.chart.intrinsic_dim
    r = ext.r
    total = n + r
    big_n = ext.chart.ambient_dim

    def second_base(step: float) -> np.ndarray:
        out = np.zeros((n, n, big_n))
        center = ext.eval(x, lam)
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = step
            out[i, i] = (ext.eval(x + ei, lam) - 2.0 * center
                         + ext.eval(x - ei, lam)) / step ** 2
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = step
                out[i, j] = (ext.eval(x + ei + ej, lam)
                             - ext.eval(x + ei - ej, lam)
                             - ext.eval(x - ei + ej, lam)
                             + ext.eval(x - ei - ej, lam)) / (4.0 * step ** 2)
                out[j, i] = out[i, j]
        return out

    base_h, base_h2 = second_base(h), second_base(h / 2.0)
    second = np.zeros((total, total, big_n))
    second[:n, :n] = (4.0 * base_h2 - base_h) / 3.0
    if r:
        mixed = frame_derivative(ext.lambda_frame, x, np.eye(n), h,
                                 richardson=True)
        second[:n, n:] = mixed
        second[n:, :n] = mixed.transpose(1, 0, 2)
        # second derivatives in the translation coordinates vanish exactly

    jac = ext.jacobian(x, lam, h)
    tangent = sub.span_of(jac, 1e-6, ambient_dim=big_n)
    normal_part = second - np.einsum("ijN,kN,kM->ijM", second,
                                     tangent.basis, tangent.basis)
    return {"jacobian": jac, "tangent": tangent.basis, "alpha": normal_part,
            "raw_second": second}


def integrate_leaf(ruling_at: Callable[[np.ndarray],
                                       tuple[PointGeometry, sub.Subspace]],
                   ref: np.ndarray, x0, arc: float,
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
        coords = geom_y.tangent_coords(proj)
        return (coords @ geom_y.frame_in_chart) / np.linalg.norm(proj)

    x = np.asarray(x0, dtype=float).copy()
    dt = arc / steps
    for _ in range(steps):
        k1 = direction_field(x)
        k2 = direction_field(x + 0.5 * dt * k1)
        k3 = direction_field(x + 0.5 * dt * k2)
        k4 = direction_field(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


@dataclass
class ExtensionCheck:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


@dataclass
class ExtensionDiagnostics:
    checks: list[ExtensionCheck]
    details: dict[str, float]

    @property
    def failures(self) -> list[ExtensionCheck]:
        return [c for c in self.checks if not c.passed]


def verify_extension(ext: RuledExtension, samples: list[np.ndarray],
                     tol: float = 1e-5, h: float = 1e-3,
                     seed: int = 0,
                     leaf_arc: float = 0.02) -> ExtensionDiagnostics:
    """Numerical audit of the advertised extension properties.

    At each sampled base point (with a seeded translation coordinate):
    straightness of the translation directions and of the D-leaves, the
    containment of P in the extension's normal spaces, the kernel identity
    for alpha restricted to P, integrability of D, and constancy of P along
    the rulings.
    """
    rng = np.random.default_rng(seed)
    checks: list[ExtensionCheck] = []
    details: dict[str, float] = {}

    roundtrip = 0.0
    affine = 0.0
    leaf_straightness = 0.0
    delta_parallel = 0.0
    p_in_normal = 0.0
    kernel_angle = 0.0
    commutator = 0.0
    p_constancy = 0.0

    def d_space_at(y):
        split_y = ext.spec.at(y)
        return split_y.geom, split_y.D

    for sample_idx, x in enumerate(samples):
        x = np.asarray(x, dtype=float)
        split, _, lam_data, frame = ext.data_at(x)
        geom = split.geom
        lam = rng.uniform(-1.0, 1.0, ext.r) * ext.lambda_radius \
            if ext.r else np.zeros(0)

        fx = ext.chart.position(x)
        roundtrip = max(roundtrip, float(np.linalg.norm(
            ext.eval(x, np.zeros(ext.r)) - fx)))
        if ext.r:
            affine = max(affine, float(np.linalg.norm(
                ext.eval(x, lam) - fx - lam @ frame)))

        delta = lam_data.Delta

        # D-leaf: integrate the kernel distribution and test that the image
        # stays inside the affine subspace spanned by Delta, that Delta and P
        # are parallel along the leaf, and that Lambda stays inside Delta.
        d_dim = split.D.dim
        if d_dim:
            y_end = integrate_leaf(d_space_at, split.D.basis[0] @ geom.frame,
                                   x, leaf_arc)
            reach = ext.chart.position(y_end) - fx
            leaf_straightness = max(leaf_straightness, float(
                np.linalg.norm(delta.reject(reach)) / max(np.linalg.norm(reach),
                                                          1e-12)))
            split_end = ext.spec.at(y_end)
            gamma_end = gamma_tensor(ext.spec, y_end, split=split_end)
            lam_end = lambda_delta(ext.spec, y_end, gamma_end)
            delta_parallel = max(delta_parallel,
                                 sub.subspace_gap(lam_end.Delta, delta))
            p_constancy = max(p_constancy,
                              sub.subspace_gap(split_end.P, split.P))

        # P inside the normal space of the extension at (x, lam).
        jac = ext.jacobian(x, lam, h)
        t_span = sub.span_of(jac, 1e-6, ambient_dim=ext.chart.ambient_dim)
        p_in_normal = max(p_in_normal, float(np.max(np.linalg.norm(
            t_span.project(split.P.basis), axis=1), initial=0.0)))

        # Delta equals the kernel of alpha restricted to P.
        forms = extension_second_form(ext, x, lam, h)
        alpha_p = np.einsum("ijN,kN->ijk", forms["alpha"], split.P.basis)
        total = ext.total_dim
        mat = alpha_p.transpose(1, 2, 0).reshape(-1, total)
        kern = sub.kernel_of(mat, 1e-4)
        kern_ambient = sub.span_of(kern.basis @ forms["jacobian"], 1e-8,
                                   ambient_dim=ext.chart.ambient_dim)
        kernel_angle = max(kernel_angle,
                           sub.subspace_gap(kern_ambient, delta))
        details[f"nu_ext_{sample_idx}"] = float(
            sub.kernel_of(forms["alpha"].transpose(1, 2, 0)
                          .reshape(-1, total), 1e-4).dim)

        # Integrability of D: commutators of D-frame fields stay inside D.
        if d_dim >= 2:
            commutator = max(commutator,
                             _commutator_residual(ext.spec, split, h))

    checks.append(ExtensionCheck("roundtrip-zero-section", roundtrip, 1e-12))
    if ext.r:
        checks.append(ExtensionCheck("affine-in-translation", affine, 1e-12))
    checks.append(ExtensionCheck("leaf-straightness", leaf_straightness,
                                 max(tol, 50.0 * leaf_arc ** 2)))
    checks.append(ExtensionCheck("delta-parallel-along-leaf", delta_parallel,
                                 max(tol, 50.0 * leaf_arc ** 2)))
    checks.append(ExtensionCheck("p-inside-extension-normal", p_in_normal,
                                 max(tol, 100.0 * h ** 2)))
    checks.append(ExtensionCheck("delta-is-kernel-of-alpha-p", kernel_angle,
                                 tol))
    checks.append(ExtensionCheck("d-integrability", commutator,
                                 max(tol, 100.0 * h)))
    checks.append(ExtensionCheck("p-constant-along-rulings", p_constancy,
                                 max(tol, 50.0 * leaf_arc ** 2)))
    return ExtensionDiagnostics(checks, details)


def _commutator_residual(spec: SplittingSpec, split: PointSplit,
                         h: float) -> float:
    """Residual of [W_i, W_j] staying inside D, for a pivot-stable D-frame."""
    geom = split.geom
    n = geom.n
    x = geom.x
    _, pivots = projection_frame(split.D)

    def d_frame_chart(y) -> np.ndarray:
        split_y = spec.at(y)
        frame_y, _ = projection_frame(split_y.D, pivots=pivots)
        return frame_y @ split_y.geom.frame_in_chart

    center = d_frame_chart(x)
    jacobians = np.ascontiguousarray(  # field, component, d/dx
        frame_derivative(d_frame_chart, x, np.eye(n), h).transpose(1, 2, 0))

    worst = 0.0
    d_chart_span = sub.span_of(center, 1e-8, ambient_dim=n)
    for i in range(split.D.dim):
        for j in range(i + 1, split.D.dim):
            bracket = jacobians[j] @ center[i] - jacobians[i] @ center[j]
            worst = max(worst, float(np.linalg.norm(
                d_chart_span.reject(bracket))))
    return worst
