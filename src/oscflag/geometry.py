"""Pointwise invariants of an immersion: frames, fundamental forms, normal flag.

The osculating flag is built from exact jet derivatives: the order-k
osculating space is the span of all partials of order <= k, and the k-th
normal space is the complement of consecutive flag stages.  Higher
fundamental forms are normal-flag projections of raw partials, which agrees
with the iterated normal-connection definition for 1-regular immersions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import subspaces as sub
from .errors import (CapabilityError, DataError, DomainError, FrameError,
                     NotImmersionError, ParameterError, RegularityError)
from .jets import (DerivativeTensor, Jet, JetSignature, VectorJet,
                   first_partials, matrix_inverse, matrix_product,
                   partial_jets, signature, variables)


@dataclass(frozen=True)
class Box:
    """Axis-aligned chart-coordinate domain."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo.flags.writeable = False
        self.hi.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains(self, x, margin: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo + margin) and np.all(x <= self.hi - margin))

    def sample(self, rng: np.random.Generator, margin: float = 0.0) -> np.ndarray:
        return rng.uniform(self.lo + margin, self.hi - margin)


def box(lo, hi) -> Box:
    return Box(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))


class ImmersionChart:
    """An analytic chart map evaluated through jet arithmetic.

    ``fn`` receives one variable jet per chart coordinate and must return the
    list of ambient component jets; it is composed of jet primitives only, so
    every evaluation yields exact partial derivatives up to ``max_order``.
    """

    def __init__(self, name: str, intrinsic_dim: int, ambient_dim: int,
                 domain: Box, fn: Callable[[list[Jet]], list[Jet]],
                 max_order: int):
        self.name = name
        self.intrinsic_dim = intrinsic_dim
        self.ambient_dim = ambient_dim
        self.domain = domain
        self.fn = fn
        self.max_order = max_order

    def eval(self, x, order: int) -> VectorJet:
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise DataError(f"chart {self.name}: non-finite evaluation point")
        if order > self.max_order:
            raise CapabilityError(
                f"chart {self.name} declares analytic order {self.max_order}, "
                f"order {order} requested")
        if not self.domain.contains(x):
            raise DomainError(f"chart {self.name}: point {x} outside domain")
        vjet = VectorJet(self.fn(variables(x, order)))
        if vjet.ambient_dim != self.ambient_dim:
            raise DataError(f"chart {self.name} returned wrong ambient dim")
        return vjet

    def position(self, x) -> np.ndarray:
        return np.array([c.value for c in self.eval(x, 0).components])


def eval_jet(chart: ImmersionChart, x, order: int) -> DerivativeTensor:
    """All ambient partial derivatives of the chart at x, to the given order."""
    return DerivativeTensor(chart.eval(x, order))


def _gram_schmidt_rows(rows: np.ndarray, rel_tol: float = 1e-10):
    """Orthonormalize rows in index order; returns (Q, C) with Q = C @ rows."""
    m, _ = rows.shape
    scale = float(np.max(np.linalg.norm(rows, axis=1)))
    q = np.zeros_like(rows)
    coeff = np.eye(m)
    for i in range(m):
        v = rows[i].copy()
        c = np.zeros(m)
        c[i] = 1.0
        for j in range(i):
            r = float(v @ q[j])
            v -= r * q[j]
            c -= r * coeff[j]
        nrm = float(np.linalg.norm(v))
        if nrm <= rel_tol * scale:
            raise NotImmersionError(
                f"row {i} numerically dependent during orthonormalization")
        q[i] = v / nrm
        coeff[i] = c / nrm
    return q, coeff


def projection_frame(space: sub.Subspace,
                     pivots: tuple[int, ...] | None = None,
                     min_residual: float = 0.1):
    """Orthonormal frame of a subspace by pivoted projection of e_1..e_N.

    Projects the standard basis vectors onto the subspace and orthonormalizes.
    When ``pivots`` is None the pivot order is chosen greedily by largest
    residual (deterministic); passing a pivot order back in reuses the same
    selection at nearby points, which keeps frames varying smoothly across a
    finite-difference stencil.
    """
    k = space.dim
    if pivots is not None and len(pivots) != k:
        raise FrameError(
            f"{len(pivots)} pivots for a {k}-dimensional space: rank changed "
            f"across the stencil")
    projected = space.project(np.eye(space.ambient_dim))
    frame = np.zeros((k, space.ambient_dim))
    if k == 0:
        return frame, ()
    if pivots is None:
        return _greedy_pivots(projected, k, min_residual)
    for i, pick in enumerate(pivots):
        v = projected[pick].copy()
        for j in range(i):
            v -= (v @ frame[j]) * frame[j]
        nrm = float(np.linalg.norm(v))
        if nrm < min_residual:
            raise FrameError(
                f"pivot {pick} lost rank across stencil (residual {nrm:.3e})")
        frame[i] = v / nrm
    return frame, tuple(pivots)


def _greedy_pivots(rows: np.ndarray, count: int, min_residual: float):
    """Orthonormal frame of ``count`` rows picked greedily by largest
    residual, and the picks; a residual below ``min_residual`` raises."""
    work = rows.copy()
    frame = np.zeros((count, rows.shape[1]))
    chosen: list[int] = []
    for i in range(count):
        norms = np.linalg.norm(work, axis=1)
        pick = int(np.argmax(norms))
        if norms[pick] < min_residual:
            raise FrameError(
                f"rows degenerate at pivot {i} (residual {norms[pick]:.3e})")
        frame[i] = work[pick] / norms[pick]
        work -= np.outer(work @ frame[i], frame[i])
        chosen.append(pick)
    return frame, tuple(chosen)


def span_projector(sig: JetSignature, rows: np.ndarray, tol: float,
                   rank: int | None = None
                   ) -> tuple[sub.Subspace, np.ndarray]:
    """Span at the centre of a row family jet ``(sig.size, m, N)``, and the
    ``(sig.size, N, N)`` jet of its projector Pi = F^T (F F^T)^-1 F.

    The rank is read off the centre rows at ``tol`` unless the caller
    already knows it; F holds the rows picked there by largest residual, as
    ``projection_frame`` picks pivots, so for a span of constant rank Pi is
    the analytic projector nearby.
    """
    svals, vt = sub.row_svd(rows[0])
    if rank is None:
        rank = sub.numerical_rank(svals, tol)
    space = sub.Subspace(vt.shape[1], vt[:rank].copy(), tol)
    f = rows[:, list(_greedy_pivots(rows[0], space.dim, 0.0)[1])]
    f_t = f.swapaxes(-1, -2)
    gram_inv = matrix_inverse(sig, matrix_product(sig, f, f_t))
    return space, matrix_product(sig, f_t, matrix_product(sig, gram_inv, f))


def kernel_projector(sig: JetSignature, pi_u: np.ndarray, pi_t: np.ndarray,
                     tangent: np.ndarray, rank: int,
                     tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Jets in ``sig``, one order below ``pi_t``, of the projectors onto the
    kernel K of c -> sum_i c_i Pi_U (d_i Pi_T) Pi_T: Q_K in chart
    coordinates and Pi_K in ambient ones.

    For tangent Y, Pi_U (d_X Pi_T) Y = alpha_U(X, Y) when U is normal, so K
    is the kernel of alpha restricted to U; U = I - Pi_T gives the relative
    nullity.  ``tangent`` holds the first partials (the rows of Q_K's image
    in R^N) and ``rank`` = dim K is read elsewhere, at the point.
    """
    n, big_n = tangent.shape[1], tangent.shape[2]
    # rows over (a, b) of the matrices sum_i c_i [Pi_U (d_i Pi_T) Pi_T]_ab
    # span the complement of K in chart coordinates
    d_t = np.moveaxis(partial_jets(pi_t, n, 1, sig.order), 1, 0)
    rows = np.moveaxis(matrix_product(
        sig, pi_u[:sig.size], matrix_product(sig, d_t, pi_t[:sig.size])),
        0, -1)
    q_k = -span_projector(sig, rows.reshape(sig.size, big_n * big_n, n), tol,
                          rank=n - rank)[1]
    q_k[0] += np.eye(n)
    _, pi_k = span_projector(sig, matrix_product(sig, q_k, tangent[:sig.size]),
                             tol, rank=rank)
    return q_k, pi_k


def drift(pi_jet: np.ndarray, directions: np.ndarray) -> float:
    """Largest Frobenius norm of sum_j c_j d_(w_j) Pi over unit c, for the
    rows w_j of ``directions``: chart directions of orthonormal ambient
    vectors, so the largest derivative of the projector field Pi along a
    unit vector of their span.  ``pi_jet`` is a jet of order 1 or more; a
    subspace field of constant rank is constant along a curve exactly when
    this derivative vanishes along it."""
    if len(directions) == 0:
        return 0.0
    n = directions.shape[1]
    stacked = np.tensordot(directions, first_partials(pi_jet[:n + 1]), 1)
    return float(np.linalg.norm(stacked.reshape(len(directions), -1), 2))


def frame_derivative(frame_at: Callable[[np.ndarray], np.ndarray], x,
                     directions, h: float,
                     richardson: bool = False) -> np.ndarray:
    """Central differences of an array field along chart-coordinate directions.

    out[i] = (frame_at(x + h*w_i) - frame_at(x - h*w_i)) / (2h) for each row
    w_i of ``directions``, so the result has shape
    ``(len(directions),) + frame_at(x).shape``; second-order accurate in h.
    With ``richardson`` the steps h and h/2 are combined as
    (4 D(h/2) - D(h)) / 3, which is fourth-order accurate.  ``frame_at`` must
    be a smooth field: a projection frame keeps the pivot order of the
    stencil center.
    """
    if richardson:
        return (4.0 * frame_derivative(frame_at, x, directions, h / 2.0)
                - frame_derivative(frame_at, x, directions, h)) / 3.0
    x = np.asarray(x, dtype=float)
    return np.array([(frame_at(x + h * w) - frame_at(x - h * w)) / (2.0 * h)
                     for w in directions])


@dataclass(frozen=True)
class PointGeometry:
    """Every pointwise invariant of an immersion at one chart point."""

    chart: ImmersionChart = field(repr=False)
    x: np.ndarray
    tangent: sub.Subspace
    frame: np.ndarray            # (n, N) distinguished orthonormal tangent frame
    frame_in_chart: np.ndarray   # C with frame = C @ (first derivatives)
    metric: np.ndarray           # Gram matrix of coordinate fields
    normal_space: sub.Subspace
    alpha: np.ndarray            # (n, n, N) second fundamental form on the frame
    higher_forms: list[np.ndarray] = field(repr=False)
    normal_flag: list[sub.Subspace]
    osculating_dims: list[int]
    derivs: DerivativeTensor = field(repr=False)
    tol: float = sub.DEFAULT_RANK_TOL

    @property
    def n(self) -> int:
        return self.frame.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[1]

    @property
    def first_normal(self) -> sub.Subspace:
        if not self.normal_flag:
            return sub.trivial(self.ambient_dim, self.tol)
        return self.normal_flag[0]

    def first_normal_complement(self) -> sub.Subspace:
        """Orthogonal complement of the first normal space inside the normal space."""
        return sub.complement_within(self.first_normal, self.normal_space)

    def alpha_of(self, xv, yv) -> np.ndarray:
        """alpha evaluated on two tangent vectors in frame coordinates."""
        return np.einsum("a,b,abN->N", np.asarray(xv, float),
                         np.asarray(yv, float), self.alpha)

    def shape_operator(self, normal_vec) -> np.ndarray:
        """Matrix of A_nu on the orthonormal frame, from the pairing with alpha."""
        return self.alpha @ np.asarray(normal_vec, dtype=float)


def to_frame(t: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Express every chart slot of a tensor (n,)*k + (N,) on the frame.

    out[a, b, ..., :] = sum coeff[a, i] coeff[b, j] ... t[i, j, ..., :], as
    k successive matrix contractions, innermost chart slot first.
    """
    for _ in range(t.ndim - 1):
        t = np.tensordot(coeff, t, axes=(1, t.ndim - 2))
    return t


def point_geometry(chart: ImmersionChart, x, max_normal_order: int = 1,
                   tol: float = sub.DEFAULT_RANK_TOL) -> PointGeometry:
    """Tangent frame, metric, fundamental forms and normal flag at one point.

    Raises NotImmersionError when the Jacobian drops rank, and
    RegularityError when any flag rank is ambiguous across the tolerance
    band (tol/10, tol*10): such points must be rejected and resampled.
    """
    if chart.max_order < max_normal_order + 1:
        raise CapabilityError(
            f"chart order {chart.max_order} cannot supply normal order "
            f"{max_normal_order}")
    derivs = eval_jet(chart, x, max_normal_order + 1)
    n, big_n = chart.intrinsic_dim, chart.ambient_dim

    # One SVD per osculating prefix (partials of order <= k) serves the
    # immersion check, the rank audit at all three thresholds and the
    # osculating spaces.
    d1 = derivs.tensor(1)
    svds = [sub.row_svd(d1)]
    if sub.numerical_rank(svds[0][0], tol) < n:
        raise NotImmersionError(
            f"chart {chart.name}: Jacobian rank < {n} at {np.asarray(x)}")
    frame, coeff = _gram_schmidt_rows(d1)
    metric = d1 @ d1.T
    tangent = sub.Subspace(big_n, frame, tol)
    normal_space = sub.kernel_of(frame, tol)

    stacked = d1
    for k in range(2, max_normal_order + 2):
        stacked = np.vstack([stacked, derivs.partials_of_order(k)[1]])
        svds.append(sub.row_svd(stacked))

    # Rank-stability audit across the tolerance band.
    dims = [sub.numerical_rank(svals, tol) for svals, _ in svds]
    for band_tol in (tol / 10.0, tol * 10.0):
        band_dims = [sub.numerical_rank(svals, band_tol) for svals, _ in svds]
        if band_dims != dims:
            level = next(i for i, (a, b) in enumerate(zip(dims, band_dims))
                         if a != b)
            raise RegularityError(
                f"ambiguous rank of normal stage {level} across tolerance band "
                f"({band_dims[level]} vs {dims[level]})", level=level)

    osculating = [tangent]
    normal_flag: list[sub.Subspace] = []
    for svd in svds[1:]:
        nxt = sub.span_from_svd(svd, tol)
        stage = sub.complement_within(osculating[-1], nxt)
        if stage.dim == 0:
            break
        osculating.append(nxt)
        normal_flag.append(stage)

    # Second fundamental form: normal projection of second derivatives,
    # expressed on the orthonormal tangent frame.
    t2 = derivs.tensor(2)
    alpha_chart = t2 - np.einsum("ijN,nN,nM->ijM", t2, frame, frame)
    # alpha keeps the einsum summation order: to_frame would move every
    # residual built on alpha by rounding
    alpha = np.einsum("ai,bj,ijN->abN", coeff, coeff, alpha_chart)

    higher: list[np.ndarray] = []
    for ell in range(3, len(normal_flag) + 2):
        stage = normal_flag[ell - 2]
        t_ell = derivs.tensor(ell)
        proj = np.einsum("...N,kN,kM->...M", t_ell, stage.basis, stage.basis)
        higher.append(to_frame(proj, coeff))

    return PointGeometry(
        chart=chart, x=np.asarray(x, dtype=float), tangent=tangent,
        frame=frame, frame_in_chart=coeff, metric=metric,
        normal_space=normal_space, alpha=alpha, higher_forms=higher,
        normal_flag=normal_flag,
        osculating_dims=[s.dim for s in osculating], derivs=derivs, tol=tol)


def chart_table(geom: PointGeometry, order: int) -> np.ndarray:
    """The chart's coefficient table at ``order``: a prefix of the jet behind
    ``geom`` when that reaches far enough, else a chart evaluation."""
    if order <= geom.derivs.order:
        return geom.derivs.coeffs[:signature(geom.n, order).size]
    return geom.chart.eval(geom.x, order).coeffs


def tangent_jets(geom: PointGeometry,
                 order: int) -> tuple[np.ndarray, np.ndarray]:
    """The first partials and Pi_T as order-``order`` jets, from the chart
    jet at order + 1."""
    tangent = partial_jets(chart_table(geom, order + 1), geom.n, 1, order)
    return tangent, span_projector(signature(geom.n, order), tangent,
                                   geom.tol, rank=geom.n)[1]


def flattened_alpha_restricted(geom: PointGeometry,
                               normal_sub: sub.Subspace) -> np.ndarray:
    """Matrix of X -> alpha_U(X, .) on the frame, for U a normal subspace."""
    if normal_sub.dim == 0:
        return np.zeros((1, geom.n))
    restricted = np.einsum("abN,jN->abj", geom.alpha, normal_sub.basis)
    return restricted.transpose(1, 2, 0).reshape(-1, geom.n)


def relative_nullity(geom: PointGeometry,
                     tol: float | None = None) -> tuple[sub.Subspace, int]:
    """Common kernel of all shape operators, in tangent-frame coordinates."""
    tol = geom.tol if tol is None else tol
    mat = geom.alpha.transpose(1, 2, 0).reshape(-1, geom.n)
    kernel = sub.kernel_of(mat, tol)
    return kernel, kernel.dim


def _nullity_for(a_n1: np.ndarray, u_rows: np.ndarray, tol: float) -> int:
    restricted = np.einsum("ji,abi->abj", u_rows, a_n1)
    mat = restricted.transpose(1, 2, 0).reshape(-1, restricted.shape[0])
    return sub.kernel_of(mat, tol).dim


def s_nullity(geom: PointGeometry, s: int, restarts: int = 32,
              seed: int | np.random.Generator = 0,
              tol: float | None = None,
              hints: list[sub.Subspace] | None = None) -> int:
    """Certified lower bound for the s-nullity.

    Maximizes the kernel dimension of alpha projected to an s-plane inside
    the first normal space, over seeded random starts plus an alternating
    refinement that grows a candidate kernel and re-fits the plane.  Any
    plane found witnesses its kernel dimension, so the result is a lower
    bound; for s equal to the first normal rank it is the relative nullity
    exactly.
    """
    tol = geom.tol if tol is None else tol
    p = geom.first_normal.dim
    if not 1 <= s <= p:
        raise ParameterError(f"s={s} outside 1..{p}")
    if s == p:
        return relative_nullity(geom, tol)[1]
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    n1 = geom.first_normal
    a_n1 = np.einsum("abN,iN->abi", geom.alpha, n1.basis)
    n = geom.n

    def refined(u_rows: np.ndarray) -> int:
        best = _nullity_for(a_n1, u_rows, tol)
        current = u_rows
        for _ in range(4):
            restricted = np.einsum("ji,abi->abj", current, a_n1)
            mat = restricted.transpose(1, 2, 0).reshape(-1, n)
            _, _, vt = np.linalg.svd(mat)
            target = min(best + 1, n)
            cand_kernel = vt[n - target:]
            vals = np.einsum("ka,abi->kbi", cand_kernel, a_n1).reshape(-1, p)
            gram = vals.T @ vals
            evals, evecs = np.linalg.eigh(gram)
            u_new = evecs[:, :s].T
            got = _nullity_for(a_n1, u_new, tol)
            if got > best:
                best, current = got, u_new
            else:
                break
        return best

    candidates: list[np.ndarray] = []
    for hint in hints or []:
        rows = hint.basis @ n1.basis.T
        q = sub.span_of(rows, tol, ambient_dim=p)
        if q.dim == s:
            candidates.append(q.basis)
    eye = np.eye(p)
    candidates.append(eye[:s])
    candidates.append(eye[p - s:])
    for _ in range(max(restarts, 1)):
        q, _ = np.linalg.qr(rng.standard_normal((p, s)))
        candidates.append(q.T)

    return max(refined(u) for u in candidates)


def ricci(geom: PointGeometry, xv) -> float:
    """Ricci curvature Ric(X, X) of the induced metric via the Gauss equation.

    X is given in frame coordinates and must be a unit vector; non-unit input
    is normalized with a warning.
    """
    xv = np.asarray(xv, dtype=float)
    nrm = float(np.linalg.norm(xv))
    if nrm == 0.0:
        raise ParameterError("ricci of the zero vector")
    if abs(nrm - 1.0) > 1e-8:
        warnings.warn("ricci: non-unit tangent vector was normalized",
                      stacklevel=2)
        xv = xv / nrm
    a_xx = np.einsum("a,b,abN->N", xv, xv, geom.alpha)
    a_xi = np.einsum("a,aiN->iN", xv, geom.alpha)
    trace_term = float(np.einsum("N,iiN->", a_xx, geom.alpha))
    return trace_term - float(np.sum(a_xi * a_xi))


def sectional_curvature(geom: PointGeometry, xv, yv) -> float:
    """Sectional curvature of the plane spanned by two frame-coordinate vectors."""
    xv = np.asarray(xv, dtype=float)
    yv = np.asarray(yv, dtype=float)
    a_xx = geom.alpha_of(xv, xv)
    a_yy = geom.alpha_of(yv, yv)
    a_xy = geom.alpha_of(xv, yv)
    numer = float(a_xx @ a_yy - a_xy @ a_xy)
    denom = float((xv @ xv) * (yv @ yv) - (xv @ yv) ** 2)
    if denom <= 1e-12:
        raise ParameterError("sectional curvature of a degenerate plane")
    return numer / denom
