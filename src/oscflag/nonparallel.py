"""The nonparallelism tensor of the first normal bundle and its invariants.

For a section mu of the orthogonal complement of the first normal space,
phi(mu, X) is the first-normal component of its derivative along X.  Two
independent computations are provided: a pointwise pairing against the third
fundamental form (primary, stencil-free) and a direct finite-difference
derivative of a smooth complement frame (the cross-validation oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import subspaces as sub
from .errors import FrameError, ParameterError, RegularityError
from .geometry import (ImmersionChart, PointGeometry, audited_jet,
                       central_differences, chart_table,
                       flattened_alpha_restricted, groups, point_geometry,
                       projection_frame, relative_nullity, span_projector,
                       stencil, to_frame)
from .jets import matrix_product, partial_jets, signature


@dataclass(frozen=True)
class PhiTensor:
    """phi on chosen bases: values[m, a, i] pairs complement vector m, frame
    vector a and first-normal basis vector i."""

    values: np.ndarray           # (q, n, p)
    mu_frame: np.ndarray         # (q, N) orthonormal sections of the complement
    n1_basis: np.ndarray         # (p, N)
    residual: float = 0.0

    def __post_init__(self):
        self.values.flags.writeable = False

    @property
    def is_empty(self) -> bool:
        return self.values.size == 0

    def norm(self) -> float:
        if self.is_empty:
            return 0.0
        return float(np.linalg.norm(self.values))

    def ambient_values(self) -> np.ndarray:
        """phi values as ambient vectors, flattened over (mu, frame) slots."""
        q, n, p = self.values.shape
        if self.is_empty:
            return np.zeros((0, self.n1_basis.shape[1] if p else
                             self.mu_frame.shape[1]))
        return (self.values @ self.n1_basis).reshape(q * n, -1)


def phi_difference(a: PhiTensor, b: PhiTensor) -> float:
    """Frobenius distance between two phi computations on identical bases."""
    if a.values.shape != b.values.shape:
        raise ParameterError("phi tensors have different shapes")
    if a.values.size and (np.max(np.abs(a.mu_frame - b.mu_frame)) > 1e-9
                          or np.max(np.abs(a.n1_basis - b.n1_basis)) > 1e-9):
        raise ParameterError("phi tensors expressed on different bases")
    return float(np.linalg.norm(a.values - b.values))


def _empty_phi(geom: PointGeometry, mu_frame) -> PhiTensor:
    p = geom.first_normal.dim
    q = mu_frame.shape[0]
    return PhiTensor(np.zeros((q, geom.n, p)), mu_frame,
                     geom.first_normal.basis)


def phi_pairing(geom: PointGeometry) -> PhiTensor:
    """phi from the pointwise pairing with the third fundamental form.

    The defining property: the inner product of phi(mu, X) with any value
    alpha(Y, Z) equals minus the pairing of mu with the third-order form at
    (X, Y, Z).  Each phi value is recovered by least squares against the
    alpha values, which span the first normal space for 1-regular points.
    """
    n1 = geom.first_normal
    p = n1.dim
    mu_frame, _ = projection_frame(geom.first_normal_complement())
    q = mu_frame.shape[0]
    if p == 0 or q == 0:
        return _empty_phi(geom, mu_frame)
    if geom.derivs.order < 3:
        raise ParameterError(
            "phi_pairing needs third derivatives (max_normal_order >= 2)")

    n = geom.n
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    a_mat = np.array([geom.alpha[a, b] @ n1.basis.T for a, b in pairs])
    svals = np.linalg.svd(a_mat, compute_uv=False)
    if svals.size < p or svals[p - 1] <= geom.tol * svals[0]:
        raise RegularityError(
            "alpha values do not span the first normal space", level=1)

    t3_frame = to_frame(geom.derivs.tensor(3), geom.frame_in_chart)
    # rhs[(ab), m, c] = -<mu_m, alpha3(X_c, F_a, F_b)>
    rhs = -np.einsum("qN,cabN->abqc", mu_frame, t3_frame)
    rhs = np.array([rhs[a, b] for a, b in pairs]).reshape(len(pairs), q * geom.n)
    solution, _, _, _ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    fit_residual = float(np.max(np.abs(a_mat @ solution - rhs)))
    values = solution.reshape(p, q, n).transpose(1, 2, 0)
    return PhiTensor(values, mu_frame, n1.basis, fit_residual)


def phi_frame_fd(chart: ImmersionChart, x, h: float,
                 tol: float = sub.DEFAULT_RANK_TOL,
                 geom: PointGeometry | None = None) -> PhiTensor:
    """phi from central differences of a smooth complement frame at x: the
    batch of one of ``phi_frame_fds``, centred on ``geom`` or, without
    one, on the geometry ``point_geometry`` builds at x (order 1, ``tol``).
    """
    if geom is None:
        geom = point_geometry(chart, x, max_normal_order=1, tol=tol)
    return phi_frame_fds(chart, [geom], h, tol)[0]


def phi_frame_fds(chart: ImmersionChart, geoms: list[PointGeometry],
                  h: float, tol: float = sub.DEFAULT_RANK_TOL
                  ) -> list[PhiTensor]:
    """phi from central differences of a complement frame field, at the
    point of each geometry.

    phi(mu, X) = -Pi_N1 (d_X Pi_osc2) mu depends only on mu at the point,
    so the field differenced is the centre's complement frame mu0 projected
    onto the complement of the second osculating space at each stencil
    point, mu0 - (mu0 V^T) V for the orthonormal rows V of that space.  One
    ``audited_jet`` over the stacked stencils of every centre (each point
    passes the immersion check and the rank audit) gives V; each frame
    field is differenced along its centre's tangent frame directions and
    projected onto that centre's first normal space.  Second-order accurate
    in h; retained as the independent oracle for phi_pairing.  The first
    centre whose stencil fails raises the error of its first failing point:
    a FrameError where the order-2 rank differs from the centre's n + p,
    before an audit error at a later point.
    """
    size = 2 * chart.intrinsic_dim
    phis: list[PhiTensor | None] = []
    live = []
    for geom in geoms:
        mu_frame, _ = projection_frame(geom.first_normal_complement())
        if geom.first_normal.dim == 0 or mu_frame.shape[0] == 0:
            phis.append(_empty_phi(geom, mu_frame))
        else:
            live.append((len(phis), geom, mu_frame))
            phis.append(None)
    if not live:
        return phis

    points = np.concatenate([stencil(geom.x, geom.frame_in_chart, h)
                             for _, geom, _ in live])
    _, svds, error = audited_jet(chart, points, 1, tol)
    svals, vt = svds[1]
    for k, (i, geom, mu_frame) in enumerate(live):
        rows = slice(k * size, (k + 1) * size)
        rank = geom.n + geom.first_normal.dim
        ranks = sub.numerical_ranks(svals[rows], tol)
        if (ranks != rank).any():
            j = int(np.argmax(ranks != rank))
            raise FrameError(
                f"order-2 rank {ranks[j]} at stencil point {points[rows][j]}"
                f", {rank} at its centre: the complement frame field is "
                f"not smooth across the stencil")
        if len(vt) < rows.stop:
            raise error
        osc2 = vt[rows, :rank]
        frames = mu_frame - (mu_frame @ osc2.swapaxes(1, 2)) @ osc2
        n1 = geom.first_normal.basis
        phis[i] = PhiTensor(np.einsum("aqN,iN->qai", central_differences(
            frames, h), n1), mu_frame, n1)
    return phis


def s_projector(geoms: list[PointGeometry], order: int,
                ranks) -> tuple[np.ndarray, np.ndarray]:
    """Jets ``(B, size, N, N)`` of Pi_N1 and Pi_S at ``order`` at the points
    of geometries of one chart and tolerance, from the chart jet at
    order + 3.

    Pi_N1 is Pi_osc2 - Pi_T.  For mu in the complement C of the second
    osculating space, phi(mu, X) = -Pi_N1 (d_X Pi_osc2) mu, so S is the row
    span of Pi_C (d_i Pi_osc2) Pi_N1 over the chart partials i; as
    Pi_osc2 (d_i Pi_osc2) Pi_osc2 = 0, that is (d_i Pi_osc2) Pi_N1.  S has
    rank ``ranks``, one per point, s as ``nonparallel_data`` decides it: a
    rank read off these rows sees rounding noise as rank.  A rank equal to
    that of N1 makes Pi_S = Pi_N1, from the chart jet at order + 2; the
    points of each kind form one batch.
    """
    n, tol, big_n = geoms[0].n, geoms[0].tol, geoms[0].ambient_dim
    sig = signature(n, order)
    n1 = np.empty((len(geoms), sig.size, big_n, big_n))
    pi_s = np.empty_like(n1)
    whole = [rank == geom.first_normal.dim for geom, rank in zip(geoms, ranks)]
    for kind, group in groups(whole).items():
        up = order + (not kind)
        sig_up = signature(n, up)
        rows = partial_jets(chart_table([geoms[i] for i in group], up + 2),
                            n, 2, up)
        _, osc = span_projector(sig_up, rows, tol)
        n1[group] = (osc[:, :sig.size]
                     - span_projector(sig, rows[:, :sig.size, :n], tol)[1])
        if kind:
            pi_s[group] = n1[group]
            continue
        d_osc = partial_jets(osc, n, 1, order).reshape(
            len(group), sig.size, -1, big_n)
        pi_s[group] = span_projector(
            sig, matrix_product(sig, d_osc, n1[group]), tol,
            [ranks[i] for i in group])[1]
    return n1, pi_s


@dataclass(frozen=True)
class NonparallelData:
    """phi together with everything it spans and annihilates at one point."""

    phi: PhiTensor = field(repr=False)
    S: sub.Subspace              # span of phi values, ambient coordinates
    s: int
    D: sub.Subspace              # kernel of alpha restricted to S, frame coords
    p: int
    nullity: sub.Subspace        # relative nullity, frame coords
    nu: int
    phi_kernel: sub.Subspace     # common kernel of phi(mu, .), frame coords
    diagnostics: dict[str, float]


def nonparallel_data(geom: PointGeometry) -> NonparallelData:
    """S, s, D and the preliminary trichotomy label from the pairing phi, at
    the geometry's tolerance; ``geom.nd`` computes it once per geometry."""
    phi = phi_pairing(geom)
    tol = geom.tol
    n = geom.n
    big_n = geom.ambient_dim
    p = geom.first_normal.dim

    ambient_vals = phi.ambient_values()
    s_space = sub.span_of(ambient_vals, tol, ambient_dim=big_n) \
        if ambient_vals.size else sub.trivial(big_n)
    s = s_space.dim

    d_space = sub.kernel_of(flattened_alpha_restricted(geom, s_space), tol)
    nullity, nu = relative_nullity(geom)

    if phi.is_empty:
        phi_kernel = sub.full(n)
    else:
        q = phi.values.shape[0]
        mat = phi.values.transpose(0, 2, 1).reshape(q * p, n)
        phi_kernel = sub.kernel_of(mat, tol)

    diagnostics = {
        "s_containment_in_n1": sub.containment_residual(s_space,
                                                        geom.first_normal),
        "phi_kernel_vs_d_angle": sub.subspace_gap(phi_kernel, d_space),
        "phi_kernel_dim": float(phi_kernel.dim),
        "d_dim": float(d_space.dim),
        "phi_fit_residual": phi.residual,
    }
    return NonparallelData(phi=phi, S=s_space, s=s, D=d_space, p=p,
                           nullity=nullity, nu=nu, phi_kernel=phi_kernel,
                           diagnostics=diagnostics)


@dataclass(frozen=True)
class CaseCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CaseClassification:
    label: str
    checks: tuple[CaseCheck, ...]


def classify_case(nd: NonparallelData, n: int,
                  k: int | None = None,
                  d_ruled: bool | None = None) -> CaseClassification:
    """Trichotomy label plus its checked numerical consequences.

    Points with s = 0, s >= n or s > 6 fall outside the trichotomy and are
    labeled accordingly.  For 1 < s < p the sub-label (a) records that the
    immersion itself was verified to be ruled along D with the
    nonparallelism span constant along the leaves (``d_ruled``); otherwise
    the point belongs to the extension branch (b).  When no ruledness
    verdict is supplied the full-rank derivative span (k equal to the first
    normal rank) is used as the fallback criterion.  Failed consequence
    checks are returned, never raised: they would falsify the
    implementation, and the verification layer records them as findings.
    """
    checks: list[CaseCheck] = []
    if nd.s == 0:
        return CaseClassification("parallel", ())
    if nd.s >= n or nd.s > 6:
        checks.append(CaseCheck(
            "ruling-bound-informational", nd.D.dim >= n - nd.s,
            f"dim D = {nd.D.dim} vs n - s = {n - nd.s} (outside scope)"))
        return CaseClassification("out-of-theorem-scope", tuple(checks))

    if nd.s == nd.p:
        ok = nd.nu >= n - nd.p
        checks.append(CaseCheck(
            "nullity-at-least-n-minus-p", ok,
            f"nu = {nd.nu}, n - p = {n - nd.p}"))
        return CaseClassification("case-i", tuple(checks))

    if nd.s == 1:
        checks.append(CaseCheck(
            "extension-delegated", True,
            "rank-one nonparallel extension exhibited by the ruled-extension "
            "pipeline"))
        return CaseClassification("case-ii", tuple(checks))

    # 1 < s < p
    if nd.s == 2 and k is not None:
        checks.append(CaseCheck(
            "gamma-rank-at-most-four", k <= 4, f"k = {k}"))
    checks.append(CaseCheck(
        "ruling-dimension-bound", nd.D.dim >= n - nd.s,
        f"dim D = {nd.D.dim}, n - s = {n - nd.s}"))
    if d_ruled is None and k is None:
        return CaseClassification("case-iii", tuple(checks))
    if d_ruled is None:
        d_ruled = (k == nd.p)
    label = "case-iii-a" if d_ruled else "case-iii-b"
    return CaseClassification(label, tuple(checks))


def codazzi_residual(geom: PointGeometry, phi: PhiTensor,
                     rng: np.random.Generator) -> float:
    """Spot-check of the Codazzi symmetry for complement sections.

    For delta in the complement frame of ``phi`` and three random pairs of
    unit tangent vectors X, Y, the shape operators of the swapped connection
    derivatives must agree: A_{(D_X delta)} Y = A_{(D_Y delta)} X.  A shape
    operator sees only the first-normal part of D_X delta, which is
    phi(delta, X) = sum_a X_a phi(delta, e_a), so the values of ``phi`` on
    the tangent frame serve every pair.
    """
    if phi.is_empty:
        return 0.0
    ambient = phi.values @ phi.n1_basis          # (q, n, N)
    residuals = []
    for _ in range(3):
        xv = rng.standard_normal(geom.n)
        xv /= np.linalg.norm(xv)
        yv = rng.standard_normal(geom.n)
        yv /= np.linalg.norm(yv)
        for dx, dy in zip(xv @ ambient, yv @ ambient):
            residuals.append(np.linalg.norm(geom.shape_operator(dx) @ yv
                                            - geom.shape_operator(dy) @ xv))
    return sub.worst(residuals)
