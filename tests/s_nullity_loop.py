"""Per-candidate oracle for ``geometry.s_nullity``.

Scores each candidate s-plane of the first normal space on its own: one
kernel per plane, then up to four alternating refinements that grow the
kernel by one and re-fit the plane to the smallest eigenvectors of the
Gram matrix of alpha on that kernel.  The batched search must return the
same integer and leave the generator in the same state.
"""

import numpy as np

from oscflag import subspaces as sub
from oscflag.errors import ParameterError
from oscflag.geometry import relative_nullity


def _nullity_for(a_n1: np.ndarray, u_rows: np.ndarray, tol: float) -> int:
    restricted = np.einsum("ji,abi->abj", u_rows, a_n1)
    mat = restricted.transpose(1, 2, 0).reshape(-1, restricted.shape[0])
    return sub.kernel_of(mat, tol).dim


def s_nullity_loop(geom, s: int, restarts: int = 32,
                   seed: int | np.random.Generator = 0,
                   hints: list[sub.Subspace] | None = None) -> int:
    """Certified lower bound for the s-nullity, one candidate at a time."""
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
