"""Ruled extensions from a normal splitting.

Given an orthogonal splitting of the normal bundle into L and P with P
parallel along the kernel distribution D of alpha_P, the derivative span
Gamma of P-sections along E singles out an affine bundle Lambda inside
E + L; translating the base immersion along Lambda yields a ruled extension
whose rulings are D + Lambda and whose normal bundle keeps P constant along
the rulings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import combinations
from typing import Callable, Iterable

import numpy as np

from . import subspaces as sub
from .errors import (DegenerateExtensionError, GammaBandError,
                     NumericalRankError, ParameterError, ShapeError)
from .geometry import (ImmersionChart, PointGeometry, box, chart_table, drift,
                       eval_jet, flattened_alpha_restricted, kernel_projector,
                       point_geometry, projection_frame, span_projector,
                       tangent_jets)
from .jets import (Jet, first_partials, matrix_inverse, matrix_product,
                   partial_jets, signature)
from .nonparallel import nonparallel_data, phi_pairing, s_projector


def default_splitting_rule(geom: PointGeometry, order: int) -> np.ndarray:
    """L = orthogonal complement of the nonparallelism span S inside the first
    normal space (the splitting used by the trichotomy analysis).

    Returns the rows of Pi_L = Pi_N1 - Pi_S at ``order``, from the chart jet
    at order + 3 (``nonparallel.s_projector``), with Pi_S of rank s as
    ``nonparallel_data`` decides it.
    """
    s = nonparallel_data(geom, phi_pairing(geom)).s
    n1, pi_s = s_projector(geom, order, rank=s)
    return n1 - pi_s


@dataclass(frozen=True)
class PointSplit:
    """The splitting and its derived distributions at one point.

    The subspaces are read at the point.  The jets are coefficient-major
    tables (see ``jets.matrix_product``): Pi_P in ``signature(n, order)``,
    Pi_D, Pi_E and ``q_d`` (the projector onto D in chart coordinates) one
    order lower or at the point, Pi_Lambda one order lower or, with Gamma,
    None.
    """

    geom: PointGeometry = field(repr=False)
    L: sub.Subspace     # ambient
    P: sub.Subspace     # ambient
    D: sub.Subspace     # tangent-frame coordinates
    E: sub.Subspace     # tangent-frame coordinates
    order: int
    pi_p: np.ndarray = field(repr=False)
    q_d: np.ndarray = field(repr=False)
    pi_d: np.ndarray = field(repr=False)
    pi_e: np.ndarray = field(repr=False)
    Gamma: sub.Subspace | None = None    # ambient
    Lambda: sub.Subspace | None = None   # ambient
    pi_lambda: np.ndarray | None = field(default=None, repr=False)

    @property
    def ell(self) -> int:
        return self.L.dim

    @property
    def d(self) -> int:
        return self.D.dim

    def e_ambient(self) -> sub.Subspace:
        return sub.Subspace(self.geom.ambient_dim,
                            self.E.basis @ self.geom.frame, self.E.tol_used)

    @property
    def Delta(self) -> sub.Subspace:
        """The ruling bundle D + Lambda in ambient coordinates, at the
        split's tolerance; needs Lambda, so a split of order 1 or more."""
        d_ambient = sub.Subspace(self.geom.ambient_dim,
                                 self.D.basis @ self.geom.frame)
        return sub.direct_sum(d_ambient, self.Lambda, self.geom.tol)


def split_jets(geom: PointGeometry, l_rows: np.ndarray, order: int,
               tol: float) -> PointSplit:
    """Projector jets of the splitting at ``geom`` from rows spanning L.

    Pi_L comes from ``l_rows`` (an order-``order`` table) and Pi_T from the
    chart jet at q + 1, q = max(order, 1).  Then Pi_P = I - Pi_T - Pi_L to
    ``order``, and one order below Pi_T:

    - Q_D and Pi_D, D being the kernel of alpha_P (``kernel_projector``);
    - Pi_E = Pi_T - Pi_D;

    and, when ``order`` >= 1, one order below Pi_P:

    - Gamma, the column span of (Pi_E + Pi_L)(d_w Pi_P) Pi_P over w in E;
    - Pi_Lambda = Pi_E + Pi_L - Pi_Gamma.

    So the extension's second derivatives, which need Pi_Lambda to order 2,
    need the chart to order 4 here.  Ranks are read at the point, d off
    alpha_P on the tangent frame as ``nonparallel_data`` reads it; k must
    lie in the band n - d <= k <= n - d + ell.
    """
    n, big_n = geom.n, geom.ambient_dim
    top = max(order, 1)
    sig, lo = signature(n, order), signature(n, top - 1)
    tangent, pi_t = tangent_jets(geom, top)
    l_space, pi_l = span_projector(sig, l_rows, tol)
    if not 0 < l_space.dim < big_n - n:
        raise ParameterError(
            f"splitting needs 0 < rank L < {big_n - n}, got {l_space.dim}")
    residual = sub.containment_residual(l_space, geom.normal_space)
    if residual > 1e-8:
        raise ParameterError(
            f"L is not a normal subspace (residual {residual:.3e})")
    p_space = sub.complement_within(l_space, geom.normal_space)
    pi_p = -pi_t[:sig.size] - pi_l
    pi_p[0] += np.eye(big_n)
    d_space = sub.kernel_of(flattened_alpha_restricted(geom, p_space), tol)
    d = d_space.dim
    if d == 0:
        raise NumericalRankError(
            "alpha restricted to P has trivial kernel (d = 0)")
    e_space = sub.complement_within(d_space, sub.full(n, tol))
    q_d, pi_d = kernel_projector(lo, pi_p, pi_t, tangent, d, tol)
    pi_e = pi_t[:lo.size] - pi_d
    split = PointSplit(geom=geom, L=l_space, P=p_space, D=d_space,
                       E=e_space, order=order, pi_p=pi_p, q_d=q_d, pi_d=pi_d,
                       pi_e=pi_e)
    if order == 0:
        return split

    jac = tangent[:lo.size]
    gram_inv = matrix_inverse(lo, matrix_product(lo, jac,
                                                 jac.swapaxes(-1, -2)))
    # the columns of G^-1 (I - Q_D) span E in chart coordinates, G being the
    # metric; row i of d_w holds d_(w_i) Pi_P for column w_i
    q_off = -q_d
    q_off[0] += np.eye(n)
    w_t = matrix_product(lo, q_off, gram_inv)
    d_p = partial_jets(pi_p, n, 1, order - 1).reshape(lo.size, n, -1)
    d_w = np.moveaxis(matrix_product(lo, w_t, d_p)
                      .reshape(lo.size, n, big_n, big_n), 1, 0)
    e_l = pi_e + pi_l[:lo.size]
    # Gamma is the row span of the transposes Pi_P (d_w Pi_P) (Pi_E + Pi_L)
    rows = matrix_product(lo, pi_p[:lo.size], matrix_product(lo, d_w, e_l))
    gamma, pi_gamma = span_projector(
        lo, np.moveaxis(rows, 0, 1).reshape(lo.size, n * big_n, big_n), tol)
    k, ell = gamma.dim, l_space.dim
    if not n - d <= k <= n - d + ell:
        raise GammaBandError(
            f"dim Gamma = {k} outside the band [{n - d}, {n - d + ell}]")
    lam = sub.complement_within(
        gamma, sub.direct_sum(split.e_ambient(), l_space, tol))
    return replace(split, Gamma=gamma, Lambda=lam, pi_lambda=e_l - pi_gamma)


class SplittingSpec:
    """A rule assigning the normal subbundle L at every point of a chart.

    ``rule(geom, order)`` returns rows spanning L as an order-``order`` jet:
    a table ``(signature(n, order).size, m, N)`` in the layout of
    ``signature(n, order)``.  ``at(geom, order)``, for a geometry of
    ``chart`` with its jet to order 3 or more, asks the rule for that order
    and returns P to it, D, E, Gamma and Lambda to one order less; order 0
    serves readers of D alone, order 1 the values of Gamma and Lambda.
    """

    def __init__(self, chart: ImmersionChart,
                 rule: Callable[[PointGeometry, int], np.ndarray] | None = None,
                 tol: float = sub.DEFAULT_RANK_TOL):
        self.chart = chart
        self.rule = rule or default_splitting_rule
        self.tol = tol

    def at(self, geom: PointGeometry, order: int = 1) -> PointSplit:
        size, big_n = signature(geom.n, order).size, geom.ambient_dim
        rows = np.asarray(self.rule(geom, order), dtype=float)
        if rows.ndim != 3 or rows.shape[0] != size or rows.shape[2] != big_n:
            raise ShapeError(
                f"splitting rule returned shape {rows.shape}, expected "
                f"({size}, m, {big_n})")
        return split_jets(geom, rows, order, self.tol)


@lru_cache(maxsize=None)
def _ruled_index(n: int, r: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``signature(n + r, order)`` holding the monomials x^a (one per
    monomial of ``signature(n, order)``) and x^a lam_j (``(r, #a)`` with
    deg a < order)."""
    index = signature(n + r, order).index
    lower = signature(n, order - 1).monomials if order else []
    return (np.array([index[m + (0,) * r]
                      for m in signature(n, order).monomials]),
            np.array([[index[m + tuple(int(i == j) for i in range(r))]
                       for m in lower] for j in range(r)],
                     dtype=np.intp).reshape(r, len(lower)))


def _lambda_split(spec: SplittingSpec, r: int, splits: dict, x,
                  order: int) -> PointSplit:
    """The split at x with Pi_Lambda to at least ``order``, memoised per x
    (a lower-order split there lends its geometry)."""
    x = np.asarray(x, dtype=float)
    key = x.tobytes()
    hit = splits.get(key)
    if hit is not None and hit.order > order:
        return hit
    geom = hit.geom if hit else point_geometry(spec.chart, x, 2, spec.tol)
    split = spec.at(geom, order + 1)
    if split.Lambda.dim != r:
        raise NumericalRankError(
            f"rank of Lambda changed from {r} to {split.Lambda.dim} at {x}")
    splits[key] = split
    return split


def _ruled_components(spec: SplittingSpec, pivots: list[int], r: int,
                      splits: dict, vars_: list[Jet]) -> list[Jet]:
    """Components of F(x, lam) = f(x) + lam . Pi_Lambda(x)[pivots] as jets
    at the point of ``vars_``."""
    base = spec.chart
    n, order = base.intrinsic_dim, vars_[0].order
    point = np.array([v.value for v in vars_])
    x, lam = point[:n], point[n:]
    size = signature(n, order).size
    split = _lambda_split(spec, r, splits, x, order)
    rows = split.pi_lambda[:size][:, pivots]
    pure, linear = _ruled_index(n, r, order)
    table = np.zeros((signature(n + r, order).size, base.ambient_dim))
    table[pure] = chart_table(split.geom, order) + lam @ rows
    table[linear] = rows[:linear.shape[1]].swapaxes(0, 1)
    return [Jet(n + r, order, column) for column in table.T]


class RuledExtension:
    """The ruled extension F(x, lam) = f(x) + lam . Lambda(x), as a chart.

    The Lambda rows are the rows of Pi_Lambda(x) at the pivots picked at the
    base point, not re-orthonormalised, so F is analytic in (x, lam), affine
    in lam, and F(x, 0) = f(x).  ``chart`` is an ``ImmersionChart`` in
    n + r variables with ``max_order`` 2 (the base chart when r = 0) whose
    jets come from one memo per x of the split, seeded with ``splits``, and
    its Pi_Lambda jet.
    """

    def __init__(self, spec: SplittingSpec, pivots: tuple[int, ...], r: int,
                 lambda_radius: float, splits: Iterable[PointSplit] = ()):
        self.spec = spec
        self.pivots = list(pivots)
        self.r = r
        self.lambda_radius = lambda_radius
        self._splits = {split.geom.x.tobytes(): split for split in splits}
        base = spec.chart
        if r == 0:
            self.chart = base
            return
        # F is affine in lam, so it is defined for every translation; the
        # chart's fn holds no reference to self, whose memo a reference
        # cycle would keep alive until a full garbage collection
        unbounded = np.full(r, np.inf)
        self.chart = ImmersionChart(
            f"{base.name}+ruled", base.intrinsic_dim + r, base.ambient_dim,
            box(np.concatenate([base.domain.lo, -unbounded]),
                np.concatenate([base.domain.hi, unbounded])),
            partial(_ruled_components, spec, self.pivots, r, self._splits),
            max_order=2)

    @property
    def trivial(self) -> bool:
        return self.r == 0

    def eval(self, x, lam) -> np.ndarray:
        if np.shape(lam) != (self.r,):
            raise ParameterError(f"lambda coordinates must have length {self.r}")
        return self.chart.position(np.concatenate([x, lam]))

    def jacobian(self, x, lam) -> np.ndarray:
        """Exact first partials of F at (x, lam), one row per coordinate."""
        return eval_jet(self.chart, np.concatenate([x, lam]), 1).tensor(1)


def build_extension(spec: SplittingSpec, lambda_radius: float,
                    probe_splits: list[PointSplit],
                    rank_tol: float = 1e-6,
                    min_radius: float = 1e-6) -> RuledExtension:
    """Assemble the extension from the splits of order 1 or more at the
    probe points, and shrink the translation box by bisection until the
    Jacobian keeps full rank at every probe point.

    With r = 0 the extension is the base immersion itself, returned as the
    trivial extension.
    """
    if not probe_splits:
        raise ParameterError("build_extension needs at least one probe point")
    lam = probe_splits[0].Lambda
    if lam.dim == 0:
        return RuledExtension(spec, (), 0, 0.0, probe_splits)
    _, pivots = projection_frame(lam)
    ext = RuledExtension(spec, pivots, lam.dim, lambda_radius, probe_splits)
    probes = [(split.geom.x, ext.jacobian(split.geom.x, np.zeros(ext.r)))
              for split in probe_splits]

    def feasible(radius: float) -> bool:
        # eval is affine in the translation coordinates, so the Jacobian
        # along each ray is a linear pencil; a dense sweep of its smallest
        # singular value costs two Jacobian builds per ray and catches rank
        # loss anywhere inside the box, not just at probe shells
        for x, jac0 in probes:
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
    corners = np.array(np.meshgrid(*([[-1.0, 1.0]] * r))).reshape(r, -1).T
    return corners / np.sqrt(r)


@dataclass
class ExtensionCheck:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


def verify_extension(ext: RuledExtension, samples: list[np.ndarray],
                     tol: float = 1e-5, seed: int = 0) -> list[ExtensionCheck]:
    """Numerical audit of the advertised extension properties.

    At each sampled base point (with a seeded translation coordinate): the
    zero section and the translation directions; the constancy along D of
    D, of Delta = D + Lambda and of P, each the largest derivative of its
    projector along a unit D vector (``geometry.drift``), which vanishes
    exactly when the space is constant along the D-leaves, so D constant
    along itself puts each leaf into an affine subspace; the containment of
    P in the extension's normal spaces, the kernel identity for alpha
    restricted to P, and the integrability of D.  The extension's own
    tangent space and second fundamental form come from ``point_geometry``
    on its chart, with ranks read at the splitting's tolerance.
    """
    rng = np.random.default_rng(seed)
    spec = ext.spec
    names = (["roundtrip-zero-section"]
             + ["affine-in-translation"] * bool(ext.r)
             + ["leaf-straightness", "delta-parallel-along-leaf",
                "p-inside-extension-normal", "delta-is-kernel-of-alpha-p",
                "d-integrability", "p-constant-along-rulings"])
    residuals: dict[str, list[float]] = {name: [] for name in names}

    for x in samples:
        x = np.asarray(x, dtype=float)
        lam = rng.uniform(-1.0, 1.0, ext.r) * ext.lambda_radius
        # when r > 0 the extension's order-2 jet memoises the split at x,
        # whose order-1 jets of Pi_D, Pi_Lambda and Pi_P serve the drifts and
        # q_d the bracket of D fields
        geom_ext = point_geometry(ext.chart, np.concatenate([x, lam]), 1,
                                  spec.tol)
        split = _lambda_split(spec, ext.r, ext._splits, x, 1)
        geom = split.geom
        delta = split.Delta

        fx = chart_table(geom, 0)[0]
        residuals["roundtrip-zero-section"].append(
            np.linalg.norm(ext.eval(x, np.zeros(ext.r)) - fx))
        if ext.r:
            residuals["affine-in-translation"].append(np.linalg.norm(
                ext.eval(x, lam) - fx - lam @ split.pi_lambda[0][ext.pivots]))

        along_d = split.D.basis @ geom.frame_in_chart
        residuals["leaf-straightness"].append(drift(split.pi_d, along_d))
        residuals["delta-parallel-along-leaf"].append(
            drift(split.pi_d + split.pi_lambda, along_d))

        # P inside the normal space of the extension at (x, lam), and Delta
        # equal to the kernel of the extension's alpha restricted to P.
        residuals["p-inside-extension-normal"].append(np.max(np.linalg.norm(
            geom_ext.tangent.project(split.P.basis), axis=1), initial=0.0))
        kern = sub.kernel_of(flattened_alpha_restricted(geom_ext, split.P),
                             spec.tol)
        residuals["delta-is-kernel-of-alpha-p"].append(sub.subspace_gap(
            sub.Subspace(geom.ambient_dim, kern.basis @ geom_ext.frame),
            delta))

        # Integrability of D: commutators of D fields stay inside D.
        residuals["d-integrability"].append(_commutator_residual(split))
        residuals["p-constant-along-rulings"].append(drift(split.pi_p,
                                                           along_d))

    gates = {"roundtrip-zero-section": 1e-12, "affine-in-translation": 1e-12}
    return [ExtensionCheck(name, sub.worst(values), gates.get(name, tol))
            for name, values in residuals.items()]


def _commutator_residual(split: PointSplit) -> float:
    """Largest part outside D of [X, Y] over pairs of an orthonormal D basis
    (0 when d < 2), from a split of order 2 or more.

    In chart coordinates, for the fields X = Q_D a and Y = Q_D b with a, b
    constant, the bracket at the point is (d_X Q_D) Y - (d_Y Q_D) X, so
    (I - Q_D)[X, Y] needs only the order-1 jet of the projector Q_D onto D.
    """
    geom = split.geom
    n = geom.n
    d_q = first_partials(split.q_d[:n + 1])
    off_d = np.eye(n) - split.q_d[0]
    fields = split.D.basis @ geom.frame_in_chart
    return sub.worst(np.linalg.norm(off_d @ (np.tensordot(u, d_q, 1) @ v
                                             - np.tensordot(v, d_q, 1) @ u))
                     for u, v in combinations(fields, 2))
