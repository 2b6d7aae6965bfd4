"""Regular elements of bilinear forms and Moore's image property.

A test oracle: the run pipeline never needs a regular element, so these
live beside the tests that check the property on random forms.
"""

from dataclasses import dataclass

import numpy as np

from oscflag.errors import ParameterError, ShapeError
from oscflag.subspaces import (DEFAULT_RANK_TOL, kernel_of, numerical_rank,
                               span_of)


@dataclass(frozen=True)
class BilinearForm:
    """A bilinear form V x U -> W stored as a value table on chosen bases."""

    values: np.ndarray  # shape (dim V, dim U, dim W)

    def __post_init__(self):
        if self.values.ndim != 3:
            raise ShapeError("bilinear form table must be a 3-tensor")
        self.values.flags.writeable = False

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape

    def left_contract(self, z: np.ndarray) -> np.ndarray:
        """The map beta_Z = beta(Z, .) as a (dim U, dim W) matrix."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.values.shape[0],):
            raise ShapeError("left vector length differs from dim V")
        return np.tensordot(z, self.values, axes=(0, 0))

    def rank_of(self, z: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
        return numerical_rank(
            np.linalg.svd(self.left_contract(z), compute_uv=False), tol)


@dataclass(frozen=True)
class RegularElement:
    """A left vector attaining the sampled maximal rank of beta_Z."""

    z: np.ndarray
    rank: int
    trials_used: int


def regular_element(form: BilinearForm, trials: int = 64,
                    seed: int | np.random.Generator = 0,
                    tol: float = DEFAULT_RANK_TOL) -> RegularElement:
    """Search for a regular element by seeded sampling plus local refinement.

    Regular elements form an open dense subset of V, so unit-sphere sampling
    attains the maximal rank with overwhelming probability; a few shrinking
    perturbation rounds around the best sample guard against unlucky draws.
    The best vector found is always returned together with its rank.
    """
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    dim_v = form.dims[0]
    max_possible = min(form.dims[1], form.dims[2])

    best_z = np.zeros(dim_v)
    best_z[0] = 1.0
    best_rank = form.rank_of(best_z, tol)
    used = 1
    for _ in range(trials):
        z = rng.standard_normal(dim_v)
        z /= np.linalg.norm(z)
        used += 1
        r = form.rank_of(z, tol)
        if r > best_rank:
            best_rank, best_z = r, z
        if best_rank == max_possible:
            break
    if best_rank < max_possible:
        for scale in (0.3, 0.1, 0.03):
            for _ in range(8):
                z = best_z + scale * rng.standard_normal(dim_v)
                z /= np.linalg.norm(z)
                used += 1
                r = form.rank_of(z, tol)
                if r > best_rank:
                    best_rank, best_z = r, z
    return RegularElement(best_z, best_rank, used)


def moore_check(form: BilinearForm, z: np.ndarray,
                tol: float = DEFAULT_RANK_TOL) -> float:
    """Residual of the regular-element image property at Z.

    Returns the largest norm, over basis vectors v of V and u of ker beta_Z,
    of the component of beta(v, u) outside the image beta_Z(U).  For a
    regular Z this must vanish.
    """
    bz = form.left_contract(np.asarray(z, dtype=float))
    image = span_of(bz, tol, ambient_dim=form.dims[2])
    kernel = kernel_of(bz.T, tol)  # right kernel: vectors u with beta_Z u = 0
    if kernel.dim == 0:
        return 0.0
    worst = 0.0
    for v in np.eye(form.dims[0]):
        bv = form.left_contract(v)  # (dim U, dim W)
        vals = kernel.basis @ bv    # beta(v, u) for u in kernel basis
        worst = max(worst, float(np.max(np.linalg.norm(
            image.reject(vals), axis=1), initial=0.0)))
    return worst
