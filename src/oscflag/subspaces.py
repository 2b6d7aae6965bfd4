"""Rank-revealing subspace numerics: spans, complements, angles, kernels.

Every subspace is stored as an orthonormal row basis together with the
relative singular-value threshold that determined its dimension, so every
rank decision made downstream is auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContainmentError, DataError, ParameterError, ShapeError

DEFAULT_RANK_TOL = 1e-8


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^ambient_dim with an orthonormal row basis."""

    ambient_dim: int
    basis: np.ndarray  # shape (dim, ambient_dim), orthonormal rows
    tol_used: float = DEFAULT_RANK_TOL

    def __post_init__(self):
        if self.basis.size and self.basis.shape[1] != self.ambient_dim:
            raise ShapeError("basis width differs from ambient dimension")
        self.basis.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def projector(self) -> np.ndarray:
        return self.basis.T @ self.basis

    def project(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != self.ambient_dim:
            raise ShapeError(
                f"vector of length {v.shape[-1]} in R^{self.ambient_dim}")
        if self.dim == 0:
            return np.zeros_like(v)
        return (v @ self.basis.T) @ self.basis

    def reject(self, v: np.ndarray) -> np.ndarray:
        """Component of v orthogonal to the subspace."""
        return np.asarray(v, dtype=float) - self.project(v)


def worst(values, initial: float = 0.0) -> float:
    """Largest of the residuals ``values`` (``initial`` when there are none),
    NaN when any is NaN, so a non-finite residual fails the gate
    ``residual < tol`` it is judged by."""
    return float(np.max(np.fromiter(values, float), initial=initial))


def trivial(ambient_dim: int, tol: float = DEFAULT_RANK_TOL) -> Subspace:
    return Subspace(ambient_dim, np.zeros((0, ambient_dim)), tol)


def full(ambient_dim: int, tol: float = DEFAULT_RANK_TOL) -> Subspace:
    return Subspace(ambient_dim, np.eye(ambient_dim), tol)


def span_of(vectors, tol: float = DEFAULT_RANK_TOL,
            ambient_dim: int | None = None) -> Subspace:
    """Numerically detected span of a family of ambient vectors.

    Singular values below ``tol`` times the largest are treated as zero.
    An empty family yields the zero subspace (ambient_dim must then be given).
    """
    if not 0.0 < tol < 1.0:
        raise ParameterError("rank tolerance must lie in (0, 1)")
    rows = np.atleast_2d(np.asarray(vectors, dtype=float))
    if rows.size == 0:
        if ambient_dim is None:
            raise ShapeError("empty input needs an explicit ambient_dim")
        return trivial(ambient_dim, tol)
    return span_from_svd(row_svd(rows), tol)


def row_svd(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors of a nonempty row family.

    The one decomposition behind ``span_of``: a caller that needs ranks at
    several thresholds and the span itself decomposes once and passes the
    result to ``numerical_rank`` and ``span_from_svd``.
    """
    if not np.all(np.isfinite(rows)):
        raise DataError("rank decision on non-finite input")
    _, svals, vt = np.linalg.svd(rows, full_matrices=False)
    return svals, vt


def numerical_rank(svals: np.ndarray, tol: float) -> int:
    """Count of singular values above ``tol`` times the largest (0 if none)."""
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > tol * svals[0]))


def span_from_svd(svd: tuple[np.ndarray, np.ndarray], tol: float) -> Subspace:
    """The span at relative threshold ``tol`` from a ``row_svd`` result."""
    svals, vt = svd
    return Subspace(vt.shape[1], vt[:numerical_rank(svals, tol)].copy(), tol)


def containment_residual(inner: Subspace, outer: Subspace) -> float:
    """Worst norm of an inner basis vector's component outside ``outer``."""
    if inner.ambient_dim != outer.ambient_dim:
        raise ShapeError("containment check across different ambient spaces")
    if inner.dim == 0:
        return 0.0
    rejected = inner.basis - outer.project(inner.basis)
    return float(np.max(np.linalg.norm(rejected, axis=1)))


def complement_within(inner: Subspace, outer: Subspace,
                      tol: float = 1e-8) -> Subspace:
    """Orthogonal complement of ``inner`` inside ``outer``.

    Requires inner to be contained in outer up to the containment tolerance;
    the result has dimension dim(outer) - dim(inner) by construction.
    """
    residual = containment_residual(inner, outer)
    if residual >= tol:
        raise ContainmentError(
            f"subspace not contained (worst residual {residual:.3e})", residual)
    k = outer.dim - inner.dim
    if k == 0:
        return trivial(outer.ambient_dim, outer.tol_used)
    rejected = outer.basis - inner.project(outer.basis)
    _, svals, vt = np.linalg.svd(rejected, full_matrices=False)
    return Subspace(outer.ambient_dim, vt[:k].copy(), outer.tol_used)


def direct_sum(a: Subspace, b: Subspace,
               tol: float = DEFAULT_RANK_TOL) -> Subspace:
    if a.dim == 0:
        return b
    if b.dim == 0:
        return a
    return span_of(np.vstack([a.basis, b.basis]), tol)


def principal_angles(a: Subspace, b: Subspace) -> np.ndarray:
    """Canonical angles between two subspaces, nondecreasing, in [0, pi/2].

    Cosine/sine hybrid: large angles come from the SVD of the basis overlap,
    small ones from the SVD of the projection residual, which resolves them
    at rounding level instead of the square-root-of-eps limit of arccos.
    All angles below ~1e-6 together with equal dimensions certifies equality
    at the accuracy of the underlying data.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ShapeError("principal angles across different ambient spaces")
    if a.dim > b.dim:
        a, b = b, a
    k = a.dim
    if k == 0:
        return np.zeros(0)
    cosines = np.clip(np.linalg.svd(a.basis @ b.basis.T,
                                    compute_uv=False), 0.0, 1.0)
    # singular values of the rejected basis are the sines of the same angles
    rejected = a.basis - (a.basis @ b.basis.T) @ b.basis
    sines = np.clip(np.sort(np.linalg.svd(rejected, compute_uv=False)),
                    0.0, 1.0)
    angles = np.where(cosines ** 2 >= 0.5, np.arcsin(sines),
                      np.arccos(cosines))
    return np.sort(angles)[:k]


def subspace_gap(a: Subspace, b: Subspace) -> float:
    """Largest principal angle; pi/2 when the dimensions differ."""
    if a.dim != b.dim:
        return np.pi / 2
    return float(np.max(principal_angles(a, b), initial=0.0))


def smallest_angle_between(a: Subspace, b: Subspace) -> float:
    """Smallest principal angle; pi/2 when either space is trivial."""
    if min(a.dim, b.dim) == 0:
        return np.pi / 2
    return float(principal_angles(a, b)[0])


def intersection(a: Subspace, b: Subspace,
                 angle_tol: float = 1e-8) -> Subspace:
    """Numerical intersection: principal directions at angle below tol.

    Implemented through the principal-angle decomposition rather than a
    stacked-projector nullspace, which stays well conditioned for
    near-degenerate pairs.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ShapeError("intersection across different ambient spaces")
    if min(a.dim, b.dim) == 0:
        return trivial(a.ambient_dim, a.tol_used)
    # sine-accurate angles decide the count; the cosine SVD (ordered by
    # decreasing cosine = increasing angle) supplies the directions
    count = int(np.sum(principal_angles(a, b) < angle_tol))
    if count == 0:
        return trivial(a.ambient_dim, a.tol_used)
    u, _, _ = np.linalg.svd(a.basis @ b.basis.T)
    return Subspace(a.ambient_dim, u[:, :count].T @ a.basis, a.tol_used)


def kernel_of(matrix, tol: float = DEFAULT_RANK_TOL) -> Subspace:
    """Right null space of a matrix on orthonormal bases, at relative tol."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    n = matrix.shape[1]
    if matrix.shape[0] == 0 or not np.any(matrix):
        return full(n, tol)
    _, svals, vt = np.linalg.svd(matrix)
    return Subspace(n, vt[numerical_rank(svals, tol):].copy(), tol)
