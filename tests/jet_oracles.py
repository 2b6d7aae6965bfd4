"""Jet oracles shared by the jet and acceptance tests: the exponential
primitive, the chain-rule substitution, loop builds of the signature
tables and the matrix-jet product over gathered pairs."""

import math

import numpy as np

from oscflag.errors import ShapeError
from oscflag.jets import (Jet, _pair_sum, compose_series, jet_constant,
                          jet_variable, signature)


def jet_exp(a: Jet) -> Jet:
    e = math.exp(a.value)
    c = np.array([e / math.factorial(j) for j in range(a.order + 1)])
    return compose_series(a, c)


def substitute_affine(a: Jet, matrix, new_point) -> Jet:
    """Push a jet through the reparametrization u = u0 + A (w - w0).

    Returns the jet of the composed function in the w variables at w0, with
    the same truncation order.  Used as the chain-rule oracle: evaluating a
    chart composed with the affine map must match this substitution.
    """
    matrix = np.asarray(matrix, dtype=float)
    new_point = np.asarray(new_point, dtype=float)
    n_w = matrix.shape[1]
    if matrix.shape[0] != a.num_vars:
        raise ShapeError("affine matrix rows must match the jet's variables")
    sig = a.sig
    # Displacement jets: delta_u_i = sum_j A_ij * delta_w_j (zero constant part).
    deltas = []
    for i in range(a.num_vars):
        acc = jet_constant(n_w, a.order, 0.0)
        for j in range(n_w):
            if matrix[i, j] != 0.0:
                acc = acc + matrix[i, j] * (
                    jet_variable(n_w, a.order, j, 0.0))
        deltas.append(acc)
    # Monomial jets built incrementally along the graded order.
    mono_jets: list[Jet | None] = [None] * sig.size
    mono_jets[0] = jet_constant(n_w, a.order, 1.0)
    out = jet_constant(n_w, a.order, 0.0)
    for i, m in enumerate(sig.monomials):
        if i > 0:
            v = next(k for k, e in enumerate(m) if e > 0)
            parent = list(m)
            parent[v] -= 1
            mono_jets[i] = mono_jets[sig.index[tuple(parent)]] * deltas[v]
        if a.coeffs[i] != 0.0:
            out = out + a.coeffs[i] * mono_jets[i]
    return out


def mul_table_loop(num_vars: int, order: int):
    """The degree-filtered product table of ``signature(num_vars, order)``,
    pair by pair: for each monomial i, every monomial j of degree at most
    order - deg(i), and the monomial of their product."""
    sig = signature(num_vars, order)
    starts = np.searchsorted(sig.degrees, np.arange(order + 2))
    ii, jj, kk = [], [], []
    for i, mi in enumerate(sig.monomials):
        for j in range(starts[order - sig.degrees[i] + 1]):
            ii.append(i)
            jj.append(j)
            kk.append(sig.index[tuple(a + b for a, b in
                                      zip(mi, sig.monomials[j]))])
    return tuple(np.array(col, dtype=np.intp) for col in (ii, jj, kk))


def partial_index_loop(num_vars: int, top: int, order: int):
    """``jets._partial_index`` entry by entry: row beta, column alpha holds
    the monomial alpha + beta of ``signature(num_vars, top + order)`` and
    its scale (alpha + beta)! / beta!, the partials alpha by degree, then
    by descending exponents."""
    full = signature(num_vars, top + order)
    small = signature(num_vars, order)
    partials = sorted((m for m in full.monomials if 1 <= sum(m) <= top),
                      key=lambda m: (sum(m), tuple(-e for e in m)))
    index = np.array([[full.index[tuple(a + b for a, b in zip(alpha, beta))]
                       for alpha in partials] for beta in small.monomials],
                     dtype=np.intp)
    return index, full.factorials[index] / small.factorials[:, None]


def matrix_product_gathered(sig, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``jets.matrix_product`` with both operands gathered along the pairs
    of ``sig.mul_table``: one matmul of the pair tables, then the one-hot
    contraction onto the monomials."""
    ii, jj, _ = sig.mul_table
    terms = np.matmul(a[..., ii, :, :], b[..., jj, :, :])
    out = _pair_sum(sig.num_vars, sig.order) @ terms.reshape(
        terms.shape[:-2] + (-1,))
    return out.reshape(out.shape[:-1] + terms.shape[-2:])
