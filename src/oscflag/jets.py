"""Truncated multivariate Taylor arithmetic (forward jets).

A jet stores the Taylor coefficients (derivative / multi-index factorial) of
a real-analytic function at a point, for every multi-index of total degree
<= K, in a dense graded-lexicographic table.  Sums, products and analytic
primitives (sin, cos, exp, 1/x, sqrt) propagate coefficients exactly, so the
partial derivatives recovered from a jet carry rounding error only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CapabilityError, ShapeError, SingularityError


def _monomials(num_vars: int, order: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree <= order, graded-lex ordered."""
    out: list[tuple[int, ...]] = []

    def fill(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            fill(prefix + (e,), remaining - e, slots - 1)

    for degree in range(order + 1):
        fill((), degree, num_vars)
    return out


@dataclass(frozen=True)
class JetSignature:
    """Shared coefficient layout for all jets with given (num_vars, order)."""

    num_vars: int
    order: int
    monomials: list[tuple[int, ...]] = field(repr=False)
    index: dict[tuple[int, ...], int] = field(repr=False)
    degrees: np.ndarray = field(repr=False)
    factorials: np.ndarray = field(repr=False)  # prod of exponent factorials
    mul_table: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.monomials)


@lru_cache(maxsize=None)
def signature(num_vars: int, order: int) -> JetSignature:
    if num_vars < 1 or order < 0:
        raise ShapeError(f"invalid jet signature ({num_vars}, {order})")
    monos = _monomials(num_vars, order)
    index = {m: i for i, m in enumerate(monos)}
    degrees = np.array([sum(m) for m in monos], dtype=np.intp)
    facts = np.array([math.prod(math.factorial(e) for e in m) for m in monos],
                     dtype=np.float64)

    # Degree-filtered product table: only pairs with deg(i)+deg(j) <= order
    # contribute, which keeps the table at C(2n+K, 2n) entries.
    starts = np.searchsorted(degrees, np.arange(order + 2))
    ii: list[int] = []
    jj: list[int] = []
    kk: list[int] = []
    for i, mi in enumerate(monos):
        di = degrees[i]
        for j in range(starts[order - di + 1]):
            mj = monos[j]
            ii.append(i)
            jj.append(j)
            kk.append(index[tuple(a + b for a, b in zip(mi, mj))])
    table = (np.array(ii, dtype=np.intp), np.array(jj, dtype=np.intp),
             np.array(kk, dtype=np.intp))
    return JetSignature(num_vars, order, monos, index, degrees, facts, table)


class Jet:
    """Truncated Taylor expansion of a scalar function of ``num_vars`` variables.

    ``coeffs`` is read-only, of shape ``(..., size)``: leading axes carry a
    batch of expansion points, and every operation acts on each point
    alone.  The jet holds its ``JetSignature``; since ``signature`` is
    cached, operands built in one cache lifetime share it and the operand
    check is an identity test.
    """

    __slots__ = ("sig", "coeffs")

    def __init__(self, num_vars: int, order: int, coeffs: np.ndarray):
        sig = signature(num_vars, order)
        if coeffs.shape[-1:] != (sig.size,):
            raise ShapeError(
                f"coefficient table has shape {coeffs.shape}, "
                f"expected (..., {sig.size})")
        coeffs.flags.writeable = False
        self.sig = sig
        self.coeffs = coeffs

    def __repr__(self) -> str:
        return f"Jet({self.num_vars}, {self.order}, {self.coeffs!r})"

    @property
    def num_vars(self) -> int:
        return self.sig.num_vars

    @property
    def order(self) -> int:
        return self.sig.order

    def coefficient(self, multi_index: tuple[int, ...]):
        return self.coeffs[..., self.sig.index[tuple(multi_index)]][()]

    @property
    def value(self):
        return self.coeffs[..., 0][()]

    def derivative(self, multi_index: tuple[int, ...]):
        """Partial derivative d^|I| f / du^I at the expansion point."""
        sig = self.sig
        i = sig.index[tuple(multi_index)]
        return (self.coeffs[..., i] * sig.factorials[i])[()]

    def _check_same(self, other: Jet):
        # a signature rebuilt after a cache clear is equal but not identical
        if other.sig is not self.sig and (
                (self.num_vars, self.order) != (other.num_vars, other.order)):
            raise ShapeError(
                f"jet signatures differ: ({self.num_vars},{self.order}) vs "
                f"({other.num_vars},{other.order})")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check_same(other)
            return _jet(self.sig, self.coeffs + other.coeffs)
        c = self.coeffs.copy()
        c[..., 0] += other
        return _jet(self.sig, c)

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.sig, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check_same(other)
            return _jet(self.sig, self.coeffs - other.coeffs)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check_same(other)
            return _jet(self.sig, product(self.sig, self.coeffs, other.coeffs))
        return _jet(self.sig, self.coeffs * float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * jet_reciprocal(other)
        return self * (1.0 / float(other))

    def __rtruediv__(self, other):
        return jet_reciprocal(self) * float(other)


def _jet(sig: JetSignature, coeffs: np.ndarray) -> Jet:
    """A jet on a table already known to have ``sig``'s shape."""
    jet = object.__new__(Jet)
    coeffs.flags.writeable = False
    jet.sig = sig
    jet.coeffs = coeffs
    return jet


def jet_constant(num_vars: int, order: int, value: float) -> Jet:
    sig = signature(num_vars, order)
    c = np.zeros(sig.size)
    c[0] = value
    return _jet(sig, c)


def jet_variable(num_vars: int, order: int, var: int, value: float) -> Jet:
    """Jet of the coordinate function u_var at a point where u_var = value."""
    sig = signature(num_vars, order)
    c = np.zeros(sig.size)
    c[0] = value
    if order >= 1:
        unit = tuple(1 if i == var else 0 for i in range(num_vars))
        c[sig.index[unit]] = 1.0
    return _jet(sig, c)


def variables(x, order: int) -> list[Jet]:
    """Variable jets for expansion points x ``(..., n)``, one per
    coordinate."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    sig = signature(n, order)
    c = np.zeros(x.shape[:-1] + (n, sig.size))
    if order >= 1:  # the degree-1 monomials come last variable first
        c[..., 1:n + 1] = np.eye(n)[::-1]
    c[..., 0] = x
    return [_jet(sig, c[..., i, :]) for i in range(n)]


def affine_lift(sig: JetSignature, base: np.ndarray, linear: np.ndarray, t,
                base_vars, ruling_vars) -> np.ndarray:
    """Tables in ``sig`` of F = g + sum_j t_j xi_j at a batch of B points.
    ``base`` ``(B, size, ...)`` and ``linear`` ``(B, r, size, ...)`` are the
    tables of g and of the xi_j in the variables at the positions
    ``base_vars`` alone, in ``signature(len(base_vars), sig.order)``; t_j is
    the variable at ``ruling_vars[j]``, of value ``t[:, j]`` at the points."""
    pure, lin = _lift_rows(sig.num_vars, sig.order, tuple(base_vars),
                           tuple(ruling_vars))
    out = np.zeros(base.shape[:1] + (sig.size,) + base.shape[2:])
    t = np.reshape(t, np.shape(t) + (1,) * (base.ndim - 1))
    for j in range(len(ruling_vars)):
        base = base + t[:, j] * linear[:, j]
    out[:, pure] = base
    out[:, lin] = linear[:, :, :lin.shape[1]]
    return out


@lru_cache(maxsize=None)
def _lift_rows(num_vars: int, order: int, base_vars: tuple[int, ...],
               ruling_vars: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``signature(num_vars, order)`` holding x^a, one per monomial
    a of the base signature, and x^a t_j, ``(r, #a)`` with deg a < order."""
    index, small = (signature(num_vars, order).index,
                    signature(len(base_vars), order))
    exponents = np.zeros((len(ruling_vars) + 1, small.size, num_vars), int)
    exponents[:, :, list(base_vars)] = small.monomials
    exponents[range(1, len(ruling_vars) + 1), :, list(ruling_vars)] = 1
    rows = np.array([[index.get(tuple(e), -1) for e in block]
                     for block in exponents], dtype=np.intp)
    pure, lin = rows[0], rows[1:, small.degrees < order]
    pure.flags.writeable = lin.flags.writeable = False
    return pure, lin


def product(sig: JetSignature, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient table of the truncated product of two tables of ``sig``.

    The tables may be complex and may carry leading axes, which broadcast;
    the product acts along the last axis.  ``np.bincount`` takes only real
    1-D weights, so the tables of several points go to offset bins
    (``_point_bins``) and the real and imaginary parts take one bincount
    each.
    """
    ii, jj, kk = sig.mul_table
    size = sig.size
    if a.ndim == b.ndim == 1:
        shape, terms = (size,), a[ii] * b[jj]
    elif a.size == b.size == size:  # the tables of one point
        shape = a.shape if a.ndim >= b.ndim else b.shape
        terms = a.reshape(-1)[ii] * b.reshape(-1)[jj]
    else:
        terms = a.take(ii, axis=-1) * b.take(jj, axis=-1)
        shape = terms.shape[:-1] + (size,)
        count = terms.size // ii.size
        kk = _point_bins(sig.num_vars, sig.order, count)
        terms = terms.reshape(-1)
        size *= count
    out = np.bincount(kk, weights=terms.real, minlength=size)
    if terms.dtype.kind == "c":
        out = out + 1j * np.bincount(kk, weights=terms.imag, minlength=size)
    return out.reshape(shape)


@lru_cache(maxsize=None)
def _point_bins(num_vars: int, order: int, count: int) -> np.ndarray:
    """The product table's target monomials for ``count`` points, the
    point's index times the signature size added to each."""
    sig = signature(num_vars, order)
    bins = (np.arange(0, count * sig.size, sig.size)[:, None]
            + sig.mul_table[2]).ravel()
    bins.flags.writeable = False
    return bins


def compose_series(a: Jet, outer_coeffs: np.ndarray) -> Jet:
    """Evaluate sum_j outer_coeffs[..., j] * (a - a0)^j over the power table.

    With outer_coeffs the Taylor coefficients of g at a's value, one row per
    point of a batched jet, this is the jet of the composition g(a); every
    analytic primitive routes through it.
    """
    return _jet(a.sig, (outer_coeffs[..., None, :] @ _powers(a))[..., 0, :])


def _powers(a: Jet) -> np.ndarray:
    """The tables of (a - a0)^j, j = 0..order, shape (..., order + 1, size)."""
    sig = a.sig
    powers = np.zeros(a.coeffs.shape[:-1] + (a.order + 1, sig.size))
    powers[..., 0, 0] = 1.0
    if a.order >= 1:
        powers[..., 1, 1:] = a.coeffs[..., 1:]
    for j in range(2, a.order + 1):
        powers[..., j, :] = product(sig, powers[..., 1, :],
                                    powers[..., j - 1, :])
    return powers


def _outer(a: Jet, values: list[float], coeffs) -> np.ndarray:
    """The outer coefficients ``coeffs(a0)``, Python floats, at each point's
    value a0 of ``a`` (``values``, from ``_values``), as an array of
    leading shape that of ``a``."""
    rows = np.array([coeffs(a0) for a0 in values])
    return rows.reshape(a.coeffs.shape[:-1] + rows.shape[1:])


def _values(a: Jet) -> list[float]:
    return a.coeffs[..., 0].ravel().tolist()


def jet_sincos(a: Jet) -> tuple[Jet, Jet]:
    """sin a and cos a, from one power table."""
    def coeffs(a0):
        cyc = [math.sin(a0), math.cos(a0), -math.sin(a0), -math.cos(a0)]
        return [[cyc[(j + shift) % 4] / math.factorial(j)
                 for j in range(a.order + 1)] for shift in (0, 1)]
    outer = _outer(a, _values(a), coeffs)
    both = (outer[..., None, :] @ _powers(a)[..., None, :, :])[..., 0, :]
    return _jet(a.sig, both[..., 0, :]), _jet(a.sig, both[..., 1, :])


def jet_sin(a: Jet) -> Jet:
    return jet_sincos(a)[0]


def jet_cos(a: Jet) -> Jet:
    return jet_sincos(a)[1]


def jet_reciprocal(a: Jet) -> Jet:
    values = _values(a)
    if 0.0 in values:
        raise SingularityError("reciprocal of a jet with zero constant term")
    return compose_series(a, _outer(a, values, lambda a0: [
        (-1.0) ** j / a0 ** (j + 1) for j in range(a.order + 1)]))


def jet_sqrt(a: Jet) -> Jet:
    values = _values(a)
    if any(a0 <= 0.0 for a0 in values):
        raise SingularityError("sqrt of a jet with non-positive constant term")

    def coeffs(a0):
        # binom(1/2, j) * a0^(1/2 - j)
        return [math.sqrt(a0)] + [
            math.prod(0.5 - i for i in range(j)) / math.factorial(j)
            * a0 ** (0.5 - j) for j in range(1, a.order + 1)]
    return compose_series(a, _outer(a, values, coeffs))


def jet_rsqrt(a: Jet) -> Jet:
    return jet_reciprocal(jet_sqrt(a))


# Matrix jets are coefficient-major tables (..., size, r, c): entry k holds
# the matrix of Taylor coefficients of monomial k of the signature.


def matrix_product(sig: JetSignature, a: np.ndarray,
                   b: np.ndarray) -> np.ndarray:
    """Truncated product of matrix jets (..., size, r, k), (..., size, k, c):
    one batched matmul over the pairs of ``sig.mul_table``, then one one-hot
    contraction of the pairs onto their monomials."""
    ii, jj, _ = sig.mul_table
    terms = np.matmul(a[..., ii, :, :], b[..., jj, :, :])
    out = _pair_sum(sig.num_vars, sig.order) @ terms.reshape(
        terms.shape[:-2] + (-1,))
    return out.reshape(out.shape[:-1] + terms.shape[-2:])


@lru_cache(maxsize=None)
def _pair_sum(num_vars: int, order: int) -> np.ndarray:
    sig = signature(num_vars, order)
    out = np.zeros((sig.size, sig.mul_table[2].size))
    out[sig.mul_table[2], np.arange(out.shape[1])] = 1.0
    out.flags.writeable = False
    return out


def matrix_inverse(sig: JetSignature, g: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix jet (size, r, r) by the truncated Neumann
    series G^-1 = sum_k (-G0^-1 dG)^k G0^-1, dG = G - G0."""
    out = np.zeros_like(g)
    out[0] = np.linalg.inv(g[0])
    step = -out[0] @ g
    step[0] = 0.0
    term = out
    for _ in range(sig.order):  # (dG)^k vanishes past the order
        term = matrix_product(sig, step, term)
        out = out + term
    return out


def partial_jets(table: np.ndarray, num_vars: int, top: int,
                 order: int) -> np.ndarray:
    """Order-``order`` jets of every partial of degree 1..``top`` of the
    function whose coefficients, in the layout of
    ``signature(num_vars, top + order)``, lie along ``table``'s leading axis.

    Returns ``(signature(num_vars, order).size, #partials) + trailing axes``,
    the partials by degree and, within a degree, in descending
    lexicographic order of their exponents, so the first partials come in
    chart-variable order.
    """
    index, scale = _partial_index(num_vars, top, order)
    picked = table[index]
    return picked * scale.reshape(scale.shape + (1,) * (picked.ndim - 2))


@lru_cache(maxsize=None)
def _partial_index(num_vars: int, top: int,
                   order: int) -> tuple[np.ndarray, np.ndarray]:
    # coefficient beta of d^alpha f's jet: c[alpha+beta] (alpha+beta)!/beta!
    full = signature(num_vars, top + order)
    small = signature(num_vars, order)
    partials = sorted((m for m in full.monomials if 1 <= sum(m) <= top),
                      key=lambda m: (sum(m), tuple(-e for e in m)))
    index = np.array([[full.index[tuple(a + b for a, b in zip(alpha, beta))]
                       for alpha in partials] for beta in small.monomials],
                     dtype=np.intp)
    scale = full.factorials[index] / small.factorials[:, None]
    index.flags.writeable = False
    scale.flags.writeable = False
    return index, scale


def first_partials(table: np.ndarray, axis: int = 0) -> np.ndarray:
    """The first partials of order-1 tables along ``axis``, in
    chart-variable order."""
    return np.take(table, _tensor_index(table.shape[axis] - 1, 1, 1), axis)


class DerivativeTensor:
    """All ambient-valued partial derivatives of a chart map at one point.

    ``coeffs`` is the ``(sig.size, N)`` coefficient table, one column per
    ambient component; ``values`` scales its rows to derivatives.
    """

    def __init__(self, coeffs: np.ndarray, sig: JetSignature):
        self._sig = sig
        self.num_vars = sig.num_vars
        self.order = sig.order
        self.ambient_dim = coeffs.shape[1]
        self.coeffs = coeffs
        self.values = coeffs * sig.factorials[:, None]

    def partial(self, multi_index) -> np.ndarray:
        """d^|I| f / du^I as an ambient vector."""
        key = tuple(int(e) for e in multi_index)
        if sum(key) > self.order:
            raise CapabilityError(
                f"derivative {key} exceeds available order {self.order}")
        return self.values[self._sig.index[key]]

    def tensor(self, degree: int) -> np.ndarray:
        """Symmetric derivative tensor of shape (n,)*degree + (N,)."""
        if degree > self.order:
            raise CapabilityError(
                f"derivative degree {degree} exceeds available order "
                f"{self.order}")
        return self.values[_tensor_index(self.num_vars, self.order, degree)]


@lru_cache(maxsize=None)
def _tensor_index(num_vars: int, order: int, degree: int) -> np.ndarray:
    """Signature row behind each entry of the degree-``degree`` tensor."""
    index = signature(num_vars, order).index
    table = np.empty((num_vars,) * degree, dtype=np.intp)
    for idx in np.ndindex(table.shape):
        exponents = [0] * num_vars
        for i in idx:
            exponents[i] += 1
        table[idx] = index[tuple(exponents)]
    table.flags.writeable = False
    return table
