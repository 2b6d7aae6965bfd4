"""Jet oracles shared by the jet and acceptance tests: the exponential
primitive and the chain-rule substitution."""

import math

import numpy as np

from oscflag.errors import ShapeError
from oscflag.jets import Jet, compose_series, jet_constant, jet_variable


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
