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
from .errors import ParameterError, RegularityError
from .geometry import (ImmersionChart, PointGeometry, chart_table,
                       flattened_alpha_restricted, frame_derivative,
                       point_geometry, projection_frame, relative_nullity,
                       span_projector, to_frame)
from .jets import matrix_product, partial_jets, signature


@dataclass(frozen=True)
class PhiTensor:
    """phi on chosen bases: values[m, a, i] pairs complement vector m, frame
    vector a and first-normal basis vector i."""

    values: np.ndarray           # (q, n, p)
    mu_frame: np.ndarray         # (q, N) orthonormal sections of the complement
    mu_pivots: tuple[int, ...]
    n1_basis: np.ndarray         # (p, N)
    method: str
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


def complement_frame(geom: PointGeometry,
                     pivots: tuple[int, ...] | None = None):
    """Deterministic orthonormal frame of the first-normal complement."""
    comp = geom.first_normal_complement()
    return projection_frame(comp, pivots)


def _complement_frame_field(chart: ImmersionChart, pivots: tuple[int, ...],
                            tol: float):
    """y -> the complement frame at y with the pivot order frozen, from an
    order-1 ``point_geometry``: the smooth field the stencils differentiate."""
    def frame_at(y) -> np.ndarray:
        g_y = point_geometry(chart, y, max_normal_order=1, tol=tol)
        return projection_frame(g_y.first_normal_complement(),
                                pivots=pivots)[0]
    return frame_at


def _empty_phi(geom: PointGeometry, mu_frame, pivots, method: str) -> PhiTensor:
    p = geom.first_normal.dim
    q = mu_frame.shape[0]
    return PhiTensor(np.zeros((q, geom.n, p)), mu_frame, pivots,
                     geom.first_normal.basis, method)


def phi_pairing(geom: PointGeometry, tol: float | None = None) -> PhiTensor:
    """phi from the pointwise pairing with the third fundamental form.

    The defining property: the inner product of phi(mu, X) with any value
    alpha(Y, Z) equals minus the pairing of mu with the third-order form at
    (X, Y, Z).  Each phi value is recovered by least squares against the
    alpha values, which span the first normal space for 1-regular points.
    """
    tol = geom.tol if tol is None else tol
    n1 = geom.first_normal
    p = n1.dim
    mu_frame, pivots = complement_frame(geom)
    q = mu_frame.shape[0]
    if p == 0 or q == 0:
        return _empty_phi(geom, mu_frame, pivots, "pairing")
    if geom.derivs.order < 3:
        raise ParameterError(
            "phi_pairing needs third derivatives (max_normal_order >= 2)")

    n = geom.n
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    a_mat = np.array([geom.alpha[a, b] @ n1.basis.T for a, b in pairs])
    svals = np.linalg.svd(a_mat, compute_uv=False)
    if svals.size < p or svals[min(p, len(svals)) - 1] <= tol * svals[0]:
        raise RegularityError(
            "alpha values do not span the first normal space", level=1)

    t3_frame = to_frame(geom.derivs.tensor(3), geom.frame_in_chart)
    # rhs[(ab), m, c] = -<mu_m, alpha3(X_c, F_a, F_b)>
    rhs = -np.einsum("qN,cabN->abqc", mu_frame, t3_frame)
    rhs = np.array([rhs[a, b] for a, b in pairs]).reshape(len(pairs), q * geom.n)
    solution, _, _, _ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    fit_residual = float(np.max(np.abs(a_mat @ solution - rhs)))
    values = solution.reshape(p, q, n).transpose(1, 2, 0)
    return PhiTensor(values, mu_frame, pivots, n1.basis, "pairing",
                     fit_residual)


def phi_frame_fd(chart: ImmersionChart, x, h: float = 1e-3,
                 tol: float = sub.DEFAULT_RANK_TOL,
                 geom: PointGeometry | None = None) -> PhiTensor:
    """phi from central differences of a smooth complement frame.

    Builds the complement frame at the stencil points by projecting the
    standard basis with the pivot order fixed at the center, differentiates
    each frame field along the tangent frame directions, and projects the
    ambient derivative onto the center first normal space.  Second-order
    accurate in h; retained as the independent oracle for phi_pairing.
    """
    if geom is None:
        geom = point_geometry(chart, x, max_normal_order=1, tol=tol)
    n1 = geom.first_normal
    mu_frame, pivots = complement_frame(geom)
    if n1.dim == 0 or mu_frame.shape[0] == 0:
        return _empty_phi(geom, mu_frame, pivots, "frame-fd")

    derivs = frame_derivative(_complement_frame_field(chart, pivots, tol),
                              geom.x, geom.frame_in_chart, h)
    values = np.einsum("aqN,iN->qai", derivs, n1.basis)
    return PhiTensor(values, mu_frame, pivots, n1.basis, "frame-fd")


def s_projector(geom: PointGeometry, order: int,
                rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Jets of Pi_N1 and Pi_S at ``order``, from the chart jet at order + 3.

    Pi_N1 is Pi_osc2 - Pi_T.  For mu in the complement C of the second
    osculating space, phi(mu, X) = -Pi_N1 (d_X Pi_osc2) mu, so S is the row
    span of Pi_C (d_i Pi_osc2) Pi_N1 over the chart partials i; as
    Pi_osc2 (d_i Pi_osc2) Pi_osc2 = 0, that is (d_i Pi_osc2) Pi_N1.  S has
    rank ``rank``, s as ``nonparallel_data`` decides it: a rank read off
    these rows sees rounding noise as rank.  A rank equal to that of N1
    makes Pi_S = Pi_N1, from the chart jet at order + 2.
    """
    n, tol = geom.n, geom.tol
    whole = rank == geom.first_normal.dim
    up = order + (not whole)
    sig, sig_up = signature(n, order), signature(n, up)
    rows = partial_jets(chart_table(geom, up + 2), n, 2, up)
    _, osc = span_projector(sig_up, rows, tol)
    n1 = osc[:sig.size] - span_projector(sig, rows[:sig.size, :n], tol)[1]
    if whole:
        return n1, n1
    d_osc = partial_jets(osc, n, 1, order).reshape(sig.size, -1,
                                                   geom.ambient_dim)
    return n1, span_projector(sig, matrix_product(sig, d_osc, n1), tol,
                              rank=rank)[1]


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
    case_label: str
    diagnostics: dict[str, float]


def nonparallel_data(geom: PointGeometry, phi: PhiTensor,
                     tol: float | None = None) -> NonparallelData:
    """Assemble S, s, D and the preliminary trichotomy label from phi."""
    tol = geom.tol if tol is None else tol
    n = geom.n
    big_n = geom.ambient_dim
    p = geom.first_normal.dim

    ambient_vals = phi.ambient_values()
    s_space = sub.span_of(ambient_vals, tol, ambient_dim=big_n) \
        if ambient_vals.size else sub.trivial(big_n, tol)
    s = s_space.dim

    d_space = sub.kernel_of(flattened_alpha_restricted(geom, s_space), tol)
    nullity, nu = relative_nullity(geom, tol)

    if phi.is_empty:
        phi_kernel = sub.full(n, tol)
    else:
        q = phi.values.shape[0]
        mat = phi.values.transpose(0, 2, 1).reshape(q * p, n)
        phi_kernel = sub.kernel_of(mat, tol)

    if s == 0:
        label = "parallel"
    elif s == p:
        label = "case-i"
    elif s == 1:
        label = "case-ii"
    else:
        label = "case-iii"

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
                           case_label=label, diagnostics=diagnostics)


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


def codazzi_residual(chart: ImmersionChart, geom: PointGeometry,
                     h: float = 1e-3,
                     rng: np.random.Generator | None = None,
                     pairs: int = 3) -> float:
    """Spot-check of the Codazzi symmetry for complement sections.

    For delta in the complement frame and random tangent vectors X, Y, the
    shape operators applied to the swapped finite-difference connection
    derivatives must agree: A_{(D_X delta)} Y = A_{(D_Y delta)} X.
    """
    rng = rng or np.random.default_rng(0)
    mu_frame, pivots = complement_frame(geom)
    if mu_frame.shape[0] == 0:
        return 0.0
    n = geom.n

    frame_at = _complement_frame_field(chart, pivots, geom.tol)
    residuals = []
    for _ in range(pairs):
        xv = rng.standard_normal(n)
        xv /= np.linalg.norm(xv)
        yv = rng.standard_normal(n)
        yv /= np.linalg.norm(yv)
        d_mu = frame_derivative(frame_at, geom.x,
                                [xv @ geom.frame_in_chart,
                                 yv @ geom.frame_in_chart], h,
                                richardson=True)
        dx = geom.normal_space.project(d_mu[0])
        dy = geom.normal_space.project(d_mu[1])
        for m in range(mu_frame.shape[0]):
            lhs = geom.shape_operator(dx[m]) @ yv
            rhs = geom.shape_operator(dy[m]) @ xv
            residuals.append(np.linalg.norm(lhs - rhs))
    return sub.worst(residuals)

