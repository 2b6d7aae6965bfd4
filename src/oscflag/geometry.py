"""Pointwise invariants of an immersion: frame, second fundamental form,
normal flag.

The osculating flag is built from exact jet derivatives: the order-k
osculating space is the span of all partials of order <= k, and the k-th
normal space is the complement of consecutive flag stages.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import subspaces as sub
from .errors import (CapabilityError, ContainmentError, DataError,
                     DomainError, NotImmersionError, OscflagError,
                     ParameterError, RegularityError, ShapeError)
from .jets import (DerivativeTensor, JetSignature, first_partials,
                   matrix_inverse, matrix_product, partial_jets, signature)


@dataclass(frozen=True)
class Box:
    """Axis-aligned chart-coordinate domain."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo.flags.writeable = False
        self.hi.flags.writeable = False

    def sample(self, rng: np.random.Generator, margin: float = 0.0) -> np.ndarray:
        return rng.uniform(self.lo + margin, self.hi - margin)


def box(lo, hi) -> Box:
    return Box(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))


class ImmersionChart:
    """An analytic chart map given by its Taylor coefficients: ``fn(points,
    order)`` maps points ``(B, n)`` to their ``(B, signature(n, order).size,
    N)`` tables, one column per ambient component, built by jet arithmetic
    on ``jets.variables`` or by ``jets.affine_lift`` along the leading point
    axis, so every evaluation yields exact partial derivatives up to
    ``max_order``."""

    def __init__(self, name: str, intrinsic_dim: int, ambient_dim: int,
                 domain: Box, fn: Callable[[np.ndarray, int], np.ndarray],
                 max_order: int):
        self.name = name
        self.intrinsic_dim = intrinsic_dim
        self.ambient_dim = ambient_dim
        self.domain = domain
        self.fn = fn
        self.max_order = max_order

    def first_rejected(self, points: np.ndarray,
                       order: int) -> tuple[int, OscflagError | None]:
        """The index of the first of ``points`` an evaluation to ``order``
        rejects before building a table, and its error; (B, None) when
        there is none."""
        finite = np.isfinite(points).all(axis=1)
        accepted = (finite & (order <= self.max_order)
                    & ((points >= self.domain.lo)
                       & (points <= self.domain.hi)).all(axis=1))
        if accepted.all():
            return len(points), None
        i = int(np.argmin(accepted))
        if not finite[i]:
            return i, DataError(
                f"chart {self.name}: non-finite evaluation point")
        if order > self.max_order:
            return i, CapabilityError(
                f"chart {self.name} declares analytic order "
                f"{self.max_order}, order {order} requested")
        return i, DomainError(
            f"chart {self.name}: point {points[i]} outside domain")

    def tables(self, points, order: int) -> np.ndarray:
        """The coefficient tables ``(B, size, N)`` at points ``(B, n)``, to
        ``order``; raises the error of the first point it rejects."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.intrinsic_dim:
            raise ShapeError(f"chart {self.name}: points of shape "
                             f"{points.shape}, not (B, {self.intrinsic_dim})")
        _, error = self.first_rejected(points, order)
        if error is not None:
            raise error
        return self._checked_tables(points, order)

    def _checked_tables(self, points: np.ndarray, order: int) -> np.ndarray:
        """``fn``'s tables at points that passed ``first_rejected``, with
        their shape checked."""
        size = signature(self.intrinsic_dim, order).size
        if not len(points):
            return np.zeros((0, size, self.ambient_dim))
        table = self.fn(points, order)
        if table.shape != (len(points), size, self.ambient_dim):
            raise ShapeError(f"chart {self.name}: tables {table.shape}, not "
                             f"({len(points)}, {size}, {self.ambient_dim})")
        return table

    def eval(self, x, order: int) -> DerivativeTensor:
        """All ambient partial derivatives of the chart at x, to ``order``."""
        table = self.tables(np.asarray(x, dtype=float)[None], order)[0]
        return DerivativeTensor(table, signature(self.intrinsic_dim, order))

    def position(self, x) -> np.ndarray:
        return self.eval(x, 0).coeffs[0]


# Working floor of _gram_schmidt_rows, a share of the largest row.
GRAM_SCHMIDT_REL_TOL = 1e-10


def _gram_schmidt_rows(rows: np.ndarray):
    """Orthonormalize the rows of each matrix of ``rows`` ``(B, m, N)`` in
    index order; returns (Q, C, dependent) with Q = C @ rows per matrix and
    ``dependent`` the index of each matrix's first row that is numerically
    dependent on those before it, m where there is none (its Q and C are
    then not orthonormalized)."""
    count, m, _ = rows.shape
    scale = np.max(np.linalg.norm(rows, axis=2), axis=1)
    q = np.zeros_like(rows)
    coeff = np.zeros((count, m, m))
    dependent = np.full(count, m)
    for i in range(m):
        v = rows[:, i].copy()
        c = np.zeros((count, m))
        c[:, i] = 1.0
        for j in range(i):
            r = _row_dots(v, q[:, j])[:, None]
            v -= r * q[:, j]
            c -= r * coeff[:, j]
        nrm = np.sqrt(_row_dots(v, v))
        low = nrm <= GRAM_SCHMIDT_REL_TOL * scale
        dependent[low & (dependent == m)] = i
        nrm = np.where(low, 1.0, nrm)[:, None]
        q[:, i] = v / nrm
        coeff[:, i] = c / nrm
    return q, coeff, dependent


def projection_frame(space: sub.Subspace):
    """Orthonormal frame of a subspace by pivoted projection of e_1..e_N,
    and the pivots.

    Projects the standard basis vectors onto the subspace and orthonormalizes
    them, picking the pivot order greedily by largest residual: the frame
    depends on the space, not on its basis, and is deterministic.
    """
    frame, picks = _greedy_pivots(
        space.project(np.eye(space.ambient_dim))[None], space.dim)
    return frame[0], tuple(int(pick) for pick in picks[0])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``a`` ``(B, N)`` with that of ``b``,
    one BLAS dot per row, as a single point's ``a @ b`` takes it."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _greedy_pivots(rows: np.ndarray, count: int):
    """Orthonormal frames ``(B, count, N)`` of ``count`` rows of each
    family of ``rows`` ``(B, m, N)``, picked greedily by largest residual,
    and the picks ``(B, count)``: one argmax per step over the batch."""
    work = rows.copy()
    frame = np.zeros((len(rows), count, rows.shape[2]))
    picks = np.zeros((len(rows), count), dtype=np.intp)
    at = np.arange(len(rows))
    for i in range(count):
        # the row norms as np.linalg.norm takes them
        norms = np.sqrt(np.add.reduce(work * work, axis=2))
        picks[:, i] = np.argmax(norms, axis=1)
        frame[:, i] = work[at, picks[:, i]] / norms[at, picks[:, i], None]
        work -= (work @ frame[:, i, :, None]) * frame[:, i, None, :]
    return frame, picks


def groups(keys) -> dict:
    """The positions of each distinct key of ``keys``, in order of first
    appearance: the points of a batch that share ranks, and so shapes."""
    out: dict = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return out


def span_projector(sig: JetSignature, rows: np.ndarray, tol: float,
                   ranks: list[int] | None = None
                   ) -> tuple[list[sub.Subspace], np.ndarray]:
    """Span at the centre of each row family jet of ``rows`` ``(B,
    sig.size, m, N)``, and the ``(B, sig.size, N, N)`` jets of their
    projectors Pi = F^T (F F^T)^-1 F.

    Each rank is read off the point's centre rows at ``tol`` unless the
    caller already knows them (``ranks``, one per point); F holds the rows
    picked there by largest residual, as ``projection_frame`` picks
    pivots, so for a span of constant rank Pi is the analytic projector
    nearby.  The points of equal rank share one product chain.
    """
    svals, vt = sub.row_svd(rows[:, 0])
    if ranks is None:
        ranks = sub.numerical_ranks(svals, tol).tolist()
    spaces = [sub.Subspace(vt.shape[2], v[:r].copy())
              for v, r in zip(vt, ranks)]
    by_rank = groups(ranks)
    if len(by_rank) == 1:  # no gathered copy of the rows, no scatter
        return spaces, _pivot_projector(sig, rows, ranks[0])
    out = np.empty(rows.shape[:2] + (vt.shape[2],) * 2)
    for rank, group in by_rank.items():
        out[group] = _pivot_projector(sig, rows[group], rank)
    return spaces, out


def _pivot_projector(sig: JetSignature, rows: np.ndarray,
                     rank: int) -> np.ndarray:
    """``span_projector``'s jets for row families of one rank."""
    picks = _greedy_pivots(rows[:, 0], rank)[1]
    f = rows[np.arange(len(rows))[:, None, None],
             np.arange(rows.shape[1])[:, None], picks[:, None]]
    f_t = f.swapaxes(-1, -2)
    gram_inv = matrix_inverse(sig, matrix_product(sig, f, f_t))
    return matrix_product(sig, f_t, matrix_product(sig, gram_inv, f))


def kernel_projector(sig: JetSignature, pi_u: np.ndarray, pi_t: np.ndarray,
                     tangent: np.ndarray, ranks: list[int],
                     tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Jets in ``sig``, one order below ``pi_t``, of the projectors onto the
    kernel K of c -> sum_i c_i Pi_U (d_i Pi_T) Pi_T at each point of a
    batch: Q_K in chart coordinates and Pi_K in ambient ones.

    For tangent Y, Pi_U (d_X Pi_T) Y = alpha_U(X, Y) when U is normal, so K
    is the kernel of alpha restricted to U; U = I - Pi_T gives the relative
    nullity.  ``tangent`` holds the first partials (the rows of Q_K's image
    in R^N) and ``ranks``, dim K at each point, are read elsewhere, at the
    point.
    """
    count, n, big_n = len(tangent), tangent.shape[2], tangent.shape[3]
    # rows over (a, b) of the matrices sum_i c_i [Pi_U (d_i Pi_T) Pi_T]_ab
    # span the complement of K in chart coordinates
    d_t = np.moveaxis(partial_jets(pi_t, n, 1, sig.order), 2, 1)
    rows = np.moveaxis(matrix_product(
        sig, pi_u[:, None, :sig.size],
        matrix_product(sig, d_t, pi_t[:, None, :sig.size])), 1, -1)
    q_k = -span_projector(sig, rows.reshape(count, sig.size, big_n * big_n, n),
                          tol, [n - rank for rank in ranks])[1]
    q_k[:, 0] += np.eye(n)
    _, pi_k = span_projector(
        sig, matrix_product(sig, q_k, tangent[:, :sig.size]), tol, ranks)
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


def frame_derivative(field: Callable[[np.ndarray], np.ndarray], x,
                     directions, h: float) -> np.ndarray:
    """Central differences of an array field along chart-coordinate directions.

    ``field`` maps points ``(B, n)`` to values ``(B, ...)`` and is called
    once, on the stencil x + h*w_1, x - h*w_1, x + h*w_2, ... for the rows
    w_i of ``directions``; out[i] = (field(x + h*w_i) - field(x - h*w_i)) /
    (2h), so the result has shape ``(len(directions),)`` + the value shape;
    second-order accurate in h.  ``field`` must be smooth, such as a
    frame fixed at x and projected onto each stencil point's subspace.
    """
    return central_differences(field(stencil(x, directions, h)), h)


def stencil(x, directions, h: float) -> np.ndarray:
    """The points x + h*w_1, x - h*w_1, x + h*w_2, ... ``(2d, n)`` of a
    central-difference stencil along the rows w_i of ``directions``."""
    x = np.asarray(x, dtype=float)
    steps = h * np.asarray(directions, dtype=float)
    return (x + np.stack([steps, -steps], axis=1)).reshape(-1, x.size)


def central_differences(values: np.ndarray, h: float) -> np.ndarray:
    """(f(x + h*w_i) - f(x - h*w_i)) / (2h) from a field's values on a
    ``stencil``, one row per direction."""
    return (values[0::2] - values[1::2]) / (2.0 * h)


@dataclass(frozen=True)
class PointGeometry:
    """Every pointwise invariant of an immersion at one chart point."""

    chart: ImmersionChart = field(repr=False)
    x: np.ndarray
    tangent: sub.Subspace
    frame: np.ndarray            # (n, N) distinguished orthonormal tangent frame
    frame_in_chart: np.ndarray   # C with frame = C @ (first derivatives)
    normal_space: sub.Subspace
    alpha: np.ndarray            # (n, n, N) second fundamental form on the frame
    normal_flag: list[sub.Subspace]
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
            return sub.trivial(self.ambient_dim)
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

    @cached_property
    def nd(self):
        """``nonparallel_data`` at this point, computed once per geometry."""
        from . import nonparallel  # which imports this module
        return nonparallel.nonparallel_data(self)


def to_frame(t: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Express every chart slot of a tensor (n,)*k + (N,) on the frame.

    out[a, b, ..., :] = sum coeff[a, i] coeff[b, j] ... t[i, j, ..., :], as
    k successive matrix contractions, innermost chart slot first.
    """
    for _ in range(t.ndim - 1):
        t = np.tensordot(coeff, t, axes=(1, t.ndim - 2))
    return t


def audited_jet(chart: ImmersionChart, points, max_normal_order: int,
                tol: float) -> tuple[np.ndarray, list[tuple],
                                     OscflagError | None]:
    """The chart tables at order ``max_normal_order + 1`` at points
    ``(B, n)``, and per osculating prefix (the partials of order <= k, for
    k = 1, 2, ...) one stacked row SVD: singular values ``(b, r)`` and
    right singular vectors ``(b, r, N)``.

    The same SVDs serve the immersion check, the rank audit at all three
    thresholds and the osculating spaces.  The points are audited in order:
    tables and SVDs cover the b points before the first one rejected, and
    the third result is that point's error, None when every point passes.
    It is the chart's input error (``ImmersionChart.first_rejected``),
    NotImmersionError when the Jacobian drops rank, or RegularityError when
    any flag rank is ambiguous across the tolerance band (tol/10, tol*10):
    such points must be rejected and resampled.  A caller with more work
    per point raises it after the errors that work finds at points before.
    """
    if chart.max_order < max_normal_order + 1:
        raise CapabilityError(
            f"chart order {chart.max_order} cannot supply normal order "
            f"{max_normal_order}")
    points = np.asarray(points, dtype=float)
    n, order = chart.intrinsic_dim, max_normal_order + 1
    valid, error = chart.first_rejected(points, order)
    tables = chart._checked_tables(points[:valid], order)
    values = tables * signature(n, order).factorials[:, None]
    # the partials by degree, the first ones in chart-variable order: the
    # prefix of order k is the leading signature(n, k).size - 1 rows
    rows = np.concatenate([first_partials(values[:, :n + 1], axis=1),
                           values[:, n + 1:]], axis=1)
    ends = [signature(n, k).size - 1 for k in range(1, order + 1)]
    finite_rows = np.isfinite(rows).all(axis=2)
    finite = np.array([finite_rows[:, :end].all(axis=1) for end in ends])
    # a point's non-finite stack is zeroed so that the batch decomposes;
    # the point fails on its finiteness
    svds = [tuple(np.linalg.svd(
        rows[:, :end] if ok.all()
        else np.where(ok[:, None, None], rows[:, :end], 0.0),
        full_matrices=False)[1:]) for end, ok in zip(ends, finite)]

    # ranks as sub.numerical_rank at tol/10, tol and tol*10, from the
    # singular values of every prefix padded with zeros
    svals = np.zeros((len(ends), len(rows), chart.ambient_dim))
    for k, (prefix_svals, _) in enumerate(svds):
        svals[k, :, :prefix_svals.shape[1]] = prefix_svals
    tols = np.array([tol / 10.0, tol, tol * 10.0])[:, None, None, None]
    ranks = np.sum(svals > tols * svals[..., :1], axis=-1)
    dims, bands = ranks[1], ranks[[0, 2]]
    passed = (finite.all(axis=0) & (dims[0] >= n)
              & (bands == dims).all(axis=(0, 1)))
    if not passed.all():
        i = int(np.argmin(passed))
        error = _audit_error(chart, points[i], finite[:, i], dims[:, i],
                             bands[:, :, i])
        tables = tables[:i]
        svds = [(prefix_svals[:i], vt[:i]) for prefix_svals, vt in svds]
    return tables, svds, error


def _audit_error(chart: ImmersionChart, x: np.ndarray, finite: np.ndarray,
                 dims: np.ndarray, bands: np.ndarray) -> OscflagError:
    """The error of a point ``audited_jet`` rejects, from its finiteness,
    ranks and band ranks per prefix, in the order the checks run."""
    if not finite[0]:
        return DataError("rank decision on non-finite input")
    if dims[0] < chart.intrinsic_dim:
        return NotImmersionError(
            f"chart {chart.name}: Jacobian rank < {chart.intrinsic_dim} "
            f"at {x}")
    if not finite.all():
        return DataError("rank decision on non-finite input")
    for band_dims in bands:
        differ = np.flatnonzero(band_dims != dims)
        if differ.size:
            level = int(differ[0])
            return RegularityError(
                f"ambiguous rank of normal stage {level} across tolerance "
                f"band ({band_dims[level]} vs {dims[level]}) at {x}",
                level=level)
    raise AssertionError("no failed audit at this point")


def point_geometry(chart: ImmersionChart, x, max_normal_order: int = 1,
                   tol: float = sub.DEFAULT_RANK_TOL) -> PointGeometry:
    """Tangent frame, second fundamental form and normal flag at one point:
    the batch of one of ``point_geometries``, raising the error it finds."""
    geoms, error = point_geometries(chart, np.asarray(x, dtype=float)[None],
                                    max_normal_order, tol)
    if error is not None:
        raise error
    return geoms[0]


def point_geometries(chart: ImmersionChart, points, max_normal_order: int = 1,
                     tol: float = sub.DEFAULT_RANK_TOL
                     ) -> tuple[list[PointGeometry], OscflagError | None]:
    """The geometries at points ``(B, n)``, in order, from one
    ``audited_jet`` call, whose jet and SVDs they read: those before the
    first point that fails, and that point's error (``audited_jet``'s, the
    NotImmersionError of a dependent frame row or the ContainmentError of
    a flag stage), None when none fails.  Frames, normal spaces, flag
    stages and alpha are built for the whole batch at once; each geometry
    equals its batch of one, array for array."""
    points = np.asarray(points, dtype=float)
    tables, svds, error = audited_jet(chart, points, max_normal_order, tol)
    sig = signature(chart.intrinsic_dim, max_normal_order + 1)
    derivs = [DerivativeTensor(table, sig) for table in tables]
    big_n = chart.ambient_dim
    frames, coeffs, dependent = _gram_schmidt_rows(
        np.array([d.tensor(1) for d in derivs]).reshape(
            len(derivs), chart.intrinsic_dim, big_n))
    failed = np.flatnonzero(dependent < chart.intrinsic_dim)
    if failed.size:
        i = int(failed[0])
        error = NotImmersionError(f"row {dependent[i]} numerically dependent "
                                  f"during orthonormalization")
        derivs, frames, coeffs = derivs[:i], frames[:i], coeffs[:i]
        svds = [(svals[:i], vt[:i]) for svals, vt in svds]
    flags, failure = _normal_flags(frames, svds, tol)
    if failure is not None:
        i, error = failure
        derivs, frames, coeffs = derivs[:i], frames[:i], coeffs[:i]
    if not derivs:
        return [], error

    # the normal space is the kernel of the frame, as sub.kernel_of
    svals, vt = np.linalg.svd(frames)[1:]
    ranks = sub.numerical_ranks(svals, tol)
    # Second fundamental form: normal projection of second derivatives,
    # expressed on the orthonormal tangent frame.  alpha keeps the einsum
    # summation order: to_frame would move every residual built on alpha
    # by rounding
    t2 = np.array([d.tensor(2) for d in derivs])
    alpha_chart = t2 - np.einsum("pijN,pnN,pnM->pijM", t2, frames, frames)
    alphas = np.einsum("pai,pbj,pijN->pabN", coeffs, coeffs, alpha_chart)
    return [PointGeometry(
        chart=chart, x=points[i], tangent=sub.Subspace(big_n, frames[i]),
        frame=frames[i], frame_in_chart=coeffs[i],
        normal_space=sub.Subspace(big_n, vt[i, ranks[i]:].copy()),
        alpha=alphas[i], normal_flag=flags[i], derivs=derivs[i], tol=tol)
        for i in range(len(derivs))], error


def _normal_flags(frames: np.ndarray, svds: list[tuple], tol: float
                  ) -> tuple[list[list[sub.Subspace]],
                             tuple[int, OscflagError] | None]:
    """The normal flag at each point of a batch: stage k is the complement
    of the osculating space of order k in that of order k + 1, read off the
    prefix SVDs at ``tol``, as ``sub.complement_within`` builds it, one
    batch per step for the points whose spaces have equal dimensions; a
    point's flag ends at its first empty stage.  Also returns the first
    point whose osculating space leaves the next one, and its
    ContainmentError, or None; the flags are those of the points before."""
    flags: list[list[sub.Subspace]] = [[] for _ in frames]
    osculating = list(frames)
    live = range(len(frames))
    failure = None
    for svals, vt in svds[1:]:
        ranks = sub.numerical_ranks(svals, tol)
        points, live = live, []
        for (low, high), at in groups([(len(osculating[p]), ranks[p])
                                       for p in points]).items():
            group = [points[i] for i in at]
            inner, outer = np.array([osculating[p] for p in group]), \
                vt[group, :high]
            outside = inner - (inner @ outer.swapaxes(1, 2)) @ outer
            residuals = np.max(np.linalg.norm(outside, axis=2), axis=1)
            stages = np.linalg.svd(
                outer - (outer @ inner.swapaxes(1, 2)) @ inner,
                full_matrices=False)[2][:, :high - low]
            for p, residual, stage, nxt in zip(group, residuals, stages,
                                               outer):
                if residual >= sub.CONTAINMENT_TOL:
                    if failure is None or p < failure[0]:
                        failure = (p, ContainmentError(
                            f"subspace not contained (worst residual "
                            f"{residual:.3e})", residual))
                elif len(stage):
                    flags[p].append(sub.Subspace(nxt.shape[1], stage.copy()))
                    osculating[p] = nxt
                    live.append(p)
    if failure is not None:
        flags = flags[:failure[0]]
    return flags, failure


def chart_table(geoms: list[PointGeometry], order: int) -> np.ndarray:
    """The chart's coefficient tables ``(B, size, N)`` at ``order`` at the
    points of geometries of one chart: a prefix of the jet behind a
    geometry when that reaches far enough, else from one chart evaluation
    of the points whose jets fall short."""
    size = signature(geoms[0].n, order).size
    out = np.empty((len(geoms), size, geoms[0].ambient_dim))
    short = []
    for i, geom in enumerate(geoms):
        if geom.derivs.order >= order:
            out[i] = geom.derivs.coeffs[:size]
        else:
            short.append(i)
    if short:
        out[short] = geoms[0].chart.tables([geoms[i].x for i in short], order)
    return out


def tangent_jets(geoms: list[PointGeometry],
                 order: int) -> tuple[np.ndarray, np.ndarray]:
    """The first partials ``(B, size, n, N)`` and Pi_T ``(B, size, N, N)``
    as order-``order`` jets at the points of geometries of one chart and
    tolerance, from the chart jet at order + 1."""
    n = geoms[0].n
    tangent = partial_jets(chart_table(geoms, order + 1), n, 1, order)
    return tangent, span_projector(signature(n, order), tangent,
                                   geoms[0].tol, [n] * len(geoms))[1]


def flattened_alpha_restricted(geom: PointGeometry,
                               normal_sub: sub.Subspace) -> np.ndarray:
    """Matrix of X -> alpha_U(X, .) on the frame, for U a normal subspace."""
    if normal_sub.dim == 0:
        return np.zeros((1, geom.n))
    restricted = np.einsum("abN,jN->abj", geom.alpha, normal_sub.basis)
    return restricted.transpose(1, 2, 0).reshape(-1, geom.n)


def relative_nullity(geom: PointGeometry) -> tuple[sub.Subspace, int]:
    """Common kernel of all shape operators, in tangent-frame coordinates,
    at the geometry's tolerance."""
    mat = geom.alpha.transpose(1, 2, 0).reshape(-1, geom.n)
    kernel = sub.kernel_of(mat, geom.tol)
    return kernel, kernel.dim


def _plane_kernels(a_n1: np.ndarray, planes: np.ndarray,
                   tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Kernel dimension of alpha projected to each s-plane of ``planes``
    ``(c, s, p)``, and the right singular vectors, whose last rows span
    that kernel: one batched SVD of the ``(c, n*s, n)`` matrices."""
    n = a_n1.shape[0]
    restricted = np.einsum("cji,abi->cabj", planes, a_n1)
    mats = restricted.transpose(0, 2, 3, 1).reshape(len(planes), -1, n)
    _, svals, vt = np.linalg.svd(mats, full_matrices=False)
    return n - sub.numerical_ranks(svals, tol), vt


def s_nullity(geom: PointGeometry, s: int, restarts: int = 32,
              seed: int | np.random.Generator = 0,
              hints: list[sub.Subspace] | None = None) -> int:
    """Certified lower bound for the s-nullity.

    Maximizes the kernel dimension of alpha projected to an s-plane inside
    the first normal space, over the hints, two coordinate planes and
    seeded random starts, plus an alternating refinement that grows a
    candidate kernel and re-fits the plane.  All candidates are scored in
    one batched SVD, and each refinement round runs on the candidates that
    still improve.  Any plane found witnesses its kernel dimension, so the
    result is a lower bound; for s equal to the first normal rank it is the
    relative nullity exactly.  Ranks are read at the geometry's tolerance.
    """
    tol = geom.tol
    p = geom.first_normal.dim
    if not 1 <= s <= p:
        raise ParameterError(f"s={s} outside 1..{p}")
    if s == p:
        return relative_nullity(geom)[1]
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    n1 = geom.first_normal
    a_n1 = np.einsum("abN,iN->abi", geom.alpha, n1.basis)
    n = geom.n

    planes = [q.basis for q in (sub.span_of(hint.basis @ n1.basis.T, tol,
                                            ambient_dim=p)
                                for hint in hints or []) if q.dim == s]
    eye = np.eye(p)
    restart, _ = np.linalg.qr(rng.standard_normal((max(restarts, 1), p, s)))
    planes = np.concatenate([np.reshape(planes, (-1, s, p)),
                             [eye[:s], eye[p - s:]],
                             restart.transpose(0, 2, 1)])

    best, vt = _plane_kernels(a_n1, planes, tol)
    live = np.arange(len(planes))
    for _ in range(4):
        # the last min(best + 1, n) singular vectors of each live plane
        # span its candidate kernel; rows above are masked out
        target = np.minimum(best[live] + 1, n)
        kernel = vt[live] * (np.arange(n) >= n - target[:, None])[..., None]
        vals = np.einsum("cka,abi->ckbi", kernel, a_n1).reshape(
            len(live), -1, p)
        _, evecs = np.linalg.eigh(vals.transpose(0, 2, 1) @ vals)
        got, vt_new = _plane_kernels(
            a_n1, evecs[:, :, :s].transpose(0, 2, 1), tol)
        grew = got > best[live]
        live = live[grew]
        if not live.size:
            break
        best[live], vt[live] = got[grew], vt_new[grew]
    return int(best.max())


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
