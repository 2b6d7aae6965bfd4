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
from functools import partial
from itertools import combinations
from typing import Callable, Iterable

import numpy as np

from . import subspaces as sub
from .errors import (DegenerateExtensionError, GammaBandError, LRankError,
                     NumericalRankError, ParameterError, ShapeError)
from .geometry import (ImmersionChart, PointGeometry, box, chart_table, drift,
                       flattened_alpha_restricted, kernel_projector,
                       point_geometries, projection_frame, span_projector,
                       tangent_jets)
from .jets import (affine_lift, first_partials, matrix_inverse,
                   matrix_product, partial_jets, signature)
from .nonparallel import s_projector

# Working floors: split_jets rejects rows of L farther than L_NORMAL_TOL
# from the normal space; build_extension shrinks the translation radius to
# no less than MIN_LAMBDA_RADIUS, and a radius is feasible while the
# Jacobian's smallest singular value stays above JACOBIAN_RANK_TOL of its
# largest and JACOBIAN_FLOOR_SHARE of its smallest on the zero section.
L_NORMAL_TOL = 1e-8
MIN_LAMBDA_RADIUS = 1e-6
JACOBIAN_RANK_TOL = 1e-6
JACOBIAN_FLOOR_SHARE = 0.2


def default_splitting_rule(geoms: list[PointGeometry],
                           order: int) -> np.ndarray:
    """L = orthogonal complement of the nonparallelism span S inside the first
    normal space (the splitting used by the trichotomy analysis).

    Returns the rows ``(B, size, N, N)`` of Pi_L = Pi_N1 - Pi_S at
    ``order`` at each geometry's point, from the chart jet at order + 3
    (``nonparallel.s_projector``), with Pi_S of rank s read from the
    geometry's one nonparallel data (``geom.nd``).
    """
    n1, pi_s = s_projector(geoms, order, [geom.nd.s for geom in geoms])
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
                            self.E.basis @ self.geom.frame)

    @property
    def Delta(self) -> sub.Subspace:
        """The ruling bundle D + Lambda in ambient coordinates, at the
        split's tolerance; needs Lambda, so a split of order 1 or more."""
        d_ambient = sub.Subspace(self.geom.ambient_dim,
                                 self.D.basis @ self.geom.frame)
        return sub.direct_sum(d_ambient, self.Lambda, self.geom.tol)


def split_jets(geoms: list[PointGeometry], l_rows: np.ndarray, order: int,
               tol: float) -> list[PointSplit]:
    """Projector jets of the splitting at the points of geometries of one
    chart and tolerance, from rows ``l_rows`` ``(B, size, m, N)`` spanning L.

    Pi_L comes from each point's rows (an order-``order`` table) and Pi_T
    from the chart jet at q + 1, q = max(order, 1).  Then Pi_P = I - Pi_T -
    Pi_L to ``order``, and one order below Pi_T:

    - Q_D and Pi_D, D being the kernel of alpha_P (``kernel_projector``);
    - Pi_E = Pi_T - Pi_D;

    and, when ``order`` >= 1, one order below Pi_P:

    - Gamma, the column span of (Pi_E + Pi_L)(d_w Pi_P) Pi_P over w in E;
    - Pi_Lambda = Pi_E + Pi_L - Pi_Gamma.

    So the extension's second derivatives, which need Pi_Lambda to order 2,
    need the chart to order 4 here.  Ranks are read per point, at the point,
    d off alpha_P on the tangent frame as ``nonparallel_data`` reads it; k
    must lie in the band n - d <= k <= n - d + ell.  The points of equal
    ranks share each product chain, and each split equals its batch of one.
    Raises the error of the first point that fails: LRankError where rank L
    leaves 0 < ell < N - n or L leaves the normal space, NumericalRankError
    where d = 0 and GammaBandError where k leaves its band.
    """
    n, big_n = geoms[0].n, geoms[0].ambient_dim
    top = max(order, 1)
    sig, lo = signature(n, order), signature(n, top - 1)
    tangent, pi_t = tangent_jets(geoms, top)
    l_spaces, pi_l = span_projector(sig, l_rows, tol)
    spaces, error = [], None
    for geom, l_space in zip(geoms, l_spaces):
        try:
            spaces.append(_p_and_d(geom, l_space, tol))
        except NumericalRankError as exc:
            error = exc
            break
    count = len(spaces)
    if not count:
        raise error
    tangent, pi_t, pi_l = tangent[:count], pi_t[:count], pi_l[:count]
    pi_p = -pi_t[:, :sig.size] - pi_l
    pi_p[:, 0] += np.eye(big_n)
    q_d, pi_d = kernel_projector(lo, pi_p, pi_t, tangent,
                                 [d_space.dim for _, d_space in spaces], tol)
    pi_e = pi_t[:, :lo.size] - pi_d
    splits = [PointSplit(geom=geom, L=l_space, P=p_space, D=d_space,
                         E=sub.complement_within(d_space, sub.full(n)),
                         order=order, pi_p=pi_p[i], q_d=q_d[i], pi_d=pi_d[i],
                         pi_e=pi_e[i])
              for i, (geom, l_space, (p_space, d_space))
              in enumerate(zip(geoms, l_spaces, spaces))]
    if order == 0:
        if error is not None:
            raise error
        return splits

    jac = tangent[:, :lo.size]
    gram_inv = matrix_inverse(lo, matrix_product(lo, jac,
                                                 jac.swapaxes(-1, -2)))
    # the columns of G^-1 (I - Q_D) span E in chart coordinates, G being the
    # metric; row i of d_w holds d_(w_i) Pi_P for column w_i
    q_off = -q_d
    q_off[:, 0] += np.eye(n)
    w_t = matrix_product(lo, q_off, gram_inv)
    d_p = partial_jets(pi_p, n, 1, order - 1).reshape(
        count, lo.size, n, -1)
    d_w = np.moveaxis(matrix_product(lo, w_t, d_p)
                      .reshape(count, lo.size, n, big_n, big_n), 2, 1)
    e_l = pi_e + pi_l[:, :lo.size]
    # Gamma is the row span of the transposes Pi_P (d_w Pi_P) (Pi_E + Pi_L)
    rows = matrix_product(lo, pi_p[:, None, :lo.size],
                          matrix_product(lo, d_w, e_l[:, None]))
    gammas, pi_gamma = span_projector(
        lo, np.moveaxis(rows, 1, 2).reshape(count, lo.size, n * big_n, big_n),
        tol)
    out = []
    for split, gamma, pi_lambda in zip(splits, gammas, e_l - pi_gamma):
        k, ell, d = gamma.dim, split.ell, split.d
        if not n - d <= k <= n - d + ell:
            raise GammaBandError(
                f"dim Gamma = {k} outside the band [{n - d}, {n - d + ell}]")
        lam = sub.complement_within(
            gamma, sub.direct_sum(split.e_ambient(), split.L, tol))
        out.append(replace(split, Gamma=gamma, Lambda=lam,
                           pi_lambda=pi_lambda))
    if error is not None:
        raise error
    return out


def _p_and_d(geom: PointGeometry, l_space: sub.Subspace,
             tol: float) -> tuple[sub.Subspace, sub.Subspace]:
    """P, the complement of L in the normal space, and D, the kernel of
    alpha_P, at one point; raises LRankError where rank L leaves 0 < ell <
    N - n or L leaves the normal space, NumericalRankError where d = 0."""
    n, big_n = geom.n, geom.ambient_dim
    if not 0 < l_space.dim < big_n - n:
        raise LRankError(
            f"splitting needs 0 < rank L < {big_n - n}, got {l_space.dim}")
    residual = sub.containment_residual(l_space, geom.normal_space)
    if residual > L_NORMAL_TOL:
        raise LRankError(
            f"L is not a normal subspace (residual {residual:.3e})")
    p_space = sub.complement_within(l_space, geom.normal_space)
    d_space = sub.kernel_of(flattened_alpha_restricted(geom, p_space), tol)
    if d_space.dim == 0:
        raise NumericalRankError(
            "alpha restricted to P has trivial kernel (d = 0)")
    return p_space, d_space


class SplittingSpec:
    """A rule assigning the normal subbundle L at every point of a chart.

    ``rule(geoms, order)`` takes a list of B geometries of ``chart`` and
    returns rows spanning L at each point as an order-``order`` jet: a
    table ``(B, signature(n, order).size, m, N)``, each point's rows in the
    layout of ``signature(n, order)``.  ``at(geoms, order)``, for
    geometries of ``chart`` at one tolerance with jets to order 3 or more,
    asks the rule once for the batch and returns one split per geometry:
    P to that order, D, E, Gamma and Lambda to one order less; order 0
    serves readers of D alone, order 1 the values of Gamma and Lambda and
    ``SPLIT_ORDER`` the extension.  Each split equals its batch of one, and
    a batch raises the error of its first failing point (``split_jets``).
    """

    def __init__(self, chart: ImmersionChart,
                 rule: Callable[[list[PointGeometry], int],
                                np.ndarray] | None = None,
                 tol: float = sub.DEFAULT_RANK_TOL):
        self.chart = chart
        self.rule = rule or default_splitting_rule
        self.tol = tol

    def at(self, geoms: list[PointGeometry],
           order: int = 1) -> list[PointSplit]:
        if not geoms:
            return []
        if any(geom.chart is not self.chart or geom.tol != geoms[0].tol
               for geom in geoms):
            raise ParameterError(
                "a batch of splits needs geometries of the spec's chart at "
                "one tolerance")
        size = signature(geoms[0].n, order).size
        big_n = geoms[0].ambient_dim
        rows = np.asarray(self.rule(geoms, order), dtype=float)
        if rows.ndim != 4 or rows.shape[:2] != (len(geoms), size) \
                or rows.shape[3] != big_n:
            raise ShapeError(
                f"splitting rule returned shape {rows.shape}, expected "
                f"({len(geoms)}, {size}, m, {big_n})")
        return split_jets(geoms, rows, order, self.tol)


def _lambda_splits(spec: SplittingSpec, r: int, splits: dict,
                   points) -> list[PointSplit]:
    """The splits at the points x ``(B, n)``, whose Lambda must have rank
    r, memoised per x.  The points outside the memo (stencil points of an
    oracle) get fresh geometries from one ``point_geometries`` call and
    splits at ``SPLIT_ORDER`` from one ``SplittingSpec.at`` call, which
    raises the error of its first failing point; then the first point
    whose geometry fails, or whose Lambda has another rank, raises."""
    points = np.asarray(points, dtype=float)
    keys = [x.tobytes() for x in points]
    missing = {key: x for key, x in zip(keys, points) if key not in splits}
    error = None
    if missing:
        geoms, error = point_geometries(spec.chart, list(missing.values()),
                                        2, spec.tol)
        splits.update(zip(missing, spec.at(geoms, SPLIT_ORDER)))
    out = []
    for x, key in zip(points, keys):
        if key not in splits:
            raise error
        split = splits[key]
        if split.Lambda.dim != r:
            raise NumericalRankError(
                f"rank of Lambda changed from {r} to {split.Lambda.dim} at "
                f"{x}")
        out.append(split)
    return out


def _ruled_table(spec: SplittingSpec, pivots: list[int], r: int,
                 splits: dict, points: np.ndarray, order: int) -> np.ndarray:
    """Tables of F(x, lam) = f(x) + lam . Pi_Lambda(x)[pivots] at the
    points (x, lam) ``(B, n + r)``, from one split lookup for the batch."""
    n = spec.chart.intrinsic_dim
    size = signature(n, order).size
    found = _lambda_splits(spec, r, splits, points[:, :n])
    base = chart_table([split.geom for split in found], order)
    rows = np.array([split.pi_lambda[:size][:, pivots] for split in found])
    return affine_lift(signature(n + r, order), base, rows.swapaxes(1, 2),
                       points[:, n:], range(n), range(n, n + r))


# The order of every split the extension reads: its chart's order-q jet reads
# Pi_Lambda to order q, one below the split, and its second form needs q = 2.
SPLIT_ORDER = 3


class RuledExtension:
    """The ruled extension F(x, lam) = f(x) + lam . Lambda(x), as a chart.

    The Lambda rows are the rows of Pi_Lambda(x) at the pivots picked at the
    base point, not re-orthonormalised, so F is analytic in (x, lam), affine
    in lam, and F(x, 0) = f(x).  ``chart`` is an ``ImmersionChart`` in
    n + r variables with ``max_order`` SPLIT_ORDER - 1 (the base chart when
    r = 0) whose tables ``jets.affine_lift`` builds from one memo per x of
    the split, seeded with ``splits`` (whose Lambda must have rank r).
    """

    def __init__(self, spec: SplittingSpec, pivots: tuple[int, ...], r: int,
                 lambda_radius: float, splits: Iterable[PointSplit] = ()):
        self.spec = spec
        self.pivots = list(pivots)
        self.r = r
        self.lambda_radius = lambda_radius
        self._splits = {split.geom.x.tobytes(): split for split in splits}
        _lambda_splits(spec, r, self._splits,
                       [split.geom.x for split in splits])
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
            partial(_ruled_table, spec, self.pivots, r, self._splits),
            max_order=SPLIT_ORDER - 1)

    @property
    def trivial(self) -> bool:
        return self.r == 0

    def eval(self, x, lam) -> np.ndarray:
        if np.shape(lam) != (self.r,):
            raise ParameterError(f"lambda coordinates must have length {self.r}")
        return self.chart.position(np.concatenate([x, lam]))

    def jacobian(self, x, lam) -> np.ndarray:
        """Exact first partials of F at (x, lam), one row per coordinate."""
        return self.chart.eval(np.concatenate([x, lam]), 1).tensor(1)


def build_extension(spec: SplittingSpec, lambda_radius: float,
                    probe_splits: list[PointSplit]) -> RuledExtension:
    """Assemble the extension from the splits at ``SPLIT_ORDER`` at the
    probe points, and shrink the translation box by bisection (to no less
    than ``MIN_LAMBDA_RADIUS``) until the Jacobian keeps full rank at every
    probe point.

    With r = 0 the extension is the base immersion itself, returned as the
    trivial extension.
    """
    orders = sorted({split.order for split in probe_splits})
    if orders != [SPLIT_ORDER]:
        raise ParameterError(f"probe splits of orders {orders}, the extension "
                             f"reads order {SPLIT_ORDER}")
    lam = probe_splits[0].Lambda
    if lam.dim == 0:
        return RuledExtension(spec, (), 0, 0.0, probe_splits)
    _, pivots = projection_frame(lam)
    ext = RuledExtension(spec, pivots, lam.dim, lambda_radius, probe_splits)
    probes = [(split.geom.x, ext.jacobian(split.geom.x, np.zeros(ext.r)))
              for split in probe_splits]
    if jacobian_feasible(ext, probes, lambda_radius):
        return ext
    lo, hi = 0.0, lambda_radius
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if mid < MIN_LAMBDA_RADIUS:
            break
        if jacobian_feasible(ext, probes, mid):
            lo = mid
        else:
            hi = mid
    if lo < MIN_LAMBDA_RADIUS:
        raise DegenerateExtensionError(
            f"no admissible translation radius above {MIN_LAMBDA_RADIUS:g}")
    ext.lambda_radius = 0.5 * lo  # stay clear of the rank boundary
    return ext


def jacobian_feasible(ext: RuledExtension, probes: list[tuple],
                      radius: float) -> bool:
    """Whether the extension's Jacobian keeps full rank on the rays from
    each probe ``(x, Jacobian at (x, 0))`` to the signed corners of the
    translation box of ``radius``.

    eval is affine in the translation coordinates, so the Jacobian along
    each ray is a linear pencil; a dense sweep of its smallest singular
    value costs one Jacobian build per ray and catches rank loss anywhere
    inside the box, not just at probe shells.  A point fails at or below
    JACOBIAN_RANK_TOL of its largest singular value or JACOBIAN_FLOOR_SHARE
    of the probe's smallest; each probe sweeps all its rays in one SVD.
    """
    sweep = np.linspace(0.0, 1.0, 33)[:, None, None]
    for x, jac0 in probes:
        floor = np.linalg.svd(jac0, compute_uv=False)[-1]
        rays = np.array([ext.jacobian(x, radius * corner) - jac0
                         for corner in _signed_corners(ext.r)])
        svals = np.linalg.svd(jac0 + sweep * rays[:, None],
                              compute_uv=False)
        if np.any(svals[..., -1] <= np.maximum(JACOBIAN_RANK_TOL
                                               * svals[..., 0],
                                               JACOBIAN_FLOOR_SHARE * floor)):
            return False
    return True


def _signed_corners(r: int) -> np.ndarray:
    corners = np.array(np.meshgrid(*([[-1.0, 1.0]] * r))).reshape(r, -1).T
    return corners / np.sqrt(r)


# The gate of each extension audit, in report order: the zero section and
# the translation are exact identities, the rest come from projector jets.
EXTENSION_GATES = {
    "roundtrip-zero-section": 1e-12,
    "affine-in-translation": 1e-12,
    "leaf-straightness": 1e-5,
    "delta-parallel-along-leaf": 1e-5,
    "p-inside-extension-normal": 1e-5,
    "delta-is-kernel-of-alpha-p": 1e-5,
    "d-integrability": 1e-5,
    "p-constant-along-rulings": 1e-5,
}


@dataclass
class ExtensionCheck:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


def verify_extension(ext: RuledExtension, samples: list[np.ndarray],
                     seed: int = 0) -> list[ExtensionCheck]:
    """Numerical audit of the advertised extension properties.

    At each sampled base point (with a seeded translation coordinate): the
    zero section and the translation directions; the constancy along D of
    D, of Delta = D + Lambda and of P, each the largest derivative of its
    projector along a unit D vector (``geometry.drift``), which vanishes
    exactly when the space is constant along the D-leaves, so D constant
    along itself puts each leaf into an affine subspace; the containment of
    P in the extension's normal spaces, the kernel identity for alpha
    restricted to P, and the integrability of D.  The extension's own
    tangent space and second fundamental form come from one
    ``point_geometries`` call on its chart at every translated point, with
    ranks read at the splitting's tolerance; the first translated point
    that fails its audit raises its error.
    """
    rng = np.random.default_rng(seed)
    spec = ext.spec
    residuals: dict[str, list[float]] = {
        name: [] for name in EXTENSION_GATES
        if ext.r or name != "affine-in-translation"}

    samples = [np.asarray(x, dtype=float) for x in samples]
    lams = [rng.uniform(-1.0, 1.0, ext.r) * ext.lambda_radius
            for _ in samples]
    geoms_ext, error = point_geometries(
        ext.chart, np.reshape([np.concatenate([x, lam])
                               for x, lam in zip(samples, lams)],
                              (len(samples), ext.chart.intrinsic_dim)),
        1, spec.tol)
    # the extension's split at x, whose jets of Pi_D, Pi_Lambda and Pi_P
    # serve the drifts and q_d the bracket of D fields
    found = _lambda_splits(spec, ext.r, ext._splits,
                           samples[:len(geoms_ext)])
    for x, lam, geom_ext, split in zip(samples, lams, geoms_ext, found):
        geom = split.geom
        fx = geom.derivs.coeffs[0]
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
            split.Delta))

        # Integrability of D: commutators of D fields stay inside D.
        residuals["d-integrability"].append(_commutator_residual(split))
        residuals["p-constant-along-rulings"].append(drift(split.pi_p,
                                                           along_d))

    if error is not None:
        raise error
    return [ExtensionCheck(name, sub.worst(values), EXTENSION_GATES[name])
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
