"""Jet arithmetic against independent oracles: analytic series, direct
coefficient convolution, finite differences, and affine substitution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscflag.errors import CapabilityError, DomainError, ShapeError, \
    SingularityError
from oscflag.geometry import ImmersionChart, box
from oscflag.jets import (DerivativeTensor, Jet, _partial_index, affine_lift,
                          compose_series, jet_constant, jet_cos,
                          jet_reciprocal, jet_sin, jet_sqrt, jet_variable,
                          matrix_inverse, matrix_product, product, signature,
                          variables)
from batch_rows import columns
from jet_oracles import (jet_exp, matrix_product_gathered, mul_table_loop,
                         partial_index_loop, substitute_affine)
from picard import antiderivative


def poly_jet(coeffs, order):
    """1-variable jet with prescribed Taylor coefficients."""
    c = np.zeros(signature(1, order).size)
    c[:len(coeffs)] = coeffs
    return Jet(1, order, c)


def test_monomial_product():
    u2 = poly_jet([0, 0, 1], 5)
    u3 = poly_jet([0, 0, 0, 1], 5)
    prod = u2 * u3
    expect = np.zeros(6)
    expect[5] = 1.0
    np.testing.assert_array_equal(prod.coeffs, expect)


def test_add_zero_identity():
    x = jet_variable(2, 3, 0, 1.7)
    zero = jet_constant(2, 3, 0.0)
    np.testing.assert_array_equal((x + zero).coeffs, x.coeffs)


def test_sin_maclaurin():
    u = jet_variable(1, 3, 0, 0.0)
    s = jet_sin(u)
    np.testing.assert_allclose(s.coeffs, [0.0, 1.0, 0.0, -1.0 / 6.0],
                               atol=1e-16)


@pytest.mark.parametrize("fn,phase_cycle", [
    (jet_sin, lambda y, m: math.sin(y + m * math.pi / 2.0)),
    (jet_cos, lambda y, m: math.cos(y + m * math.pi / 2.0)),
    (jet_exp, lambda y, m: math.exp(y)),
])
def test_analytic_ops_match_derivatives(fn, phase_cycle):
    # closed-form oracle: d^m/dx^m f(2x + 0.1) = 2^m f^(m)(2x + 0.1)
    u = jet_variable(1, 6, 0, 0.37)
    out = fn(u * 2.0 + 0.1)
    y = 2.0 * 0.37 + 0.1
    for m in range(7):
        expect = (2.0 ** m) * phase_cycle(y, m)
        assert abs(out.derivative((m,)) - expect) < 1e-12 * max(1, abs(expect))


def test_reciprocal_and_sqrt():
    u = jet_variable(1, 5, 0, 2.0)
    r = jet_reciprocal(u)
    prod = u * r
    expect = np.zeros(6)
    expect[0] = 1.0
    np.testing.assert_allclose(prod.coeffs, expect, atol=1e-14)
    s = jet_sqrt(u)
    np.testing.assert_allclose((s * s).coeffs, u.coeffs, atol=1e-14)


def test_reciprocal_of_zero_raises():
    with pytest.raises(SingularityError):
        jet_reciprocal(jet_variable(1, 3, 0, 0.0))


def test_shape_mismatch_raises():
    a = jet_constant(1, 3, 1.0)
    b = jet_constant(2, 3, 1.0)
    with pytest.raises(ShapeError):
        a + b


def test_operation_results_are_read_only():
    with pytest.raises(ShapeError):
        Jet(2, 3, np.zeros(5))
    u = jet_variable(2, 3, 0, 0.4)
    v = jet_variable(2, 3, 1, -0.7)
    for jet in (u, v, u + v, u + 1.0, -u, u - v, 2.0 - u, u * v, u * 3.0,
                u / (v - 2.0), jet_sin(u), compose_series(v, np.ones(4))):
        assert not jet.coeffs.flags.writeable
        with pytest.raises(ValueError):
            jet.coeffs[0] = 1.0
    # a signature rebuilt after a cache clear is equal, not identical
    signature.cache_clear()
    w = jet_variable(2, 3, 0, 0.4)
    assert w.sig is not u.sig
    np.testing.assert_array_equal((w * v).coeffs, (u * v).coeffs)


def test_leibniz_sin_cos_identity():
    # sin(u)cos(u) through mul must equal the sin(2u)/2 series path
    u = jet_variable(1, 7, 0, 0.4)
    lhs = jet_sin(u) * jet_cos(u)
    rhs = jet_sin(u * 2.0) * 0.5
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-13)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=1, max_size=4),
       st.lists(st.floats(-2, 2), min_size=1, max_size=4))
def test_leibniz_polynomial_convolution(a, b):
    order = 6
    ja, jb = poly_jet(a, order), poly_jet(b, order)
    prod = ja * jb
    direct = np.zeros(order + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= order:
                direct[i + j] += ai * bj
    np.testing.assert_allclose(prod.coeffs, direct, atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=3, max_size=10))
def test_ring_axioms(vals):
    sig = signature(2, 3)
    rng = np.random.default_rng(int(abs(sum(vals)) * 1e6) % 2 ** 31)
    a = Jet(2, 3, rng.normal(size=sig.size))
    b = Jet(2, 3, rng.normal(size=sig.size))
    c = Jet(2, 3, rng.normal(size=sig.size))
    np.testing.assert_allclose((a * b).coeffs, (b * a).coeffs, atol=1e-13)
    np.testing.assert_allclose((a * (b + c)).coeffs, (a * b + a * c).coeffs,
                               atol=1e-12)
    np.testing.assert_allclose(((a * b) * c).coeffs, (a * (b * c)).coeffs,
                               atol=1e-12)


def test_degree_zero_is_value():
    u = jet_variable(3, 4, 1, 2.5)
    assert u.value == 2.5
    out = jet_sin(u * u)
    assert abs(out.value - math.sin(2.5 ** 2)) < 1e-15


def test_antiderivative_picard_exponential():
    # solve y' = -y, y(0) = 1 by Picard sweeps; compare with exp(-t)
    order = 8
    y = jet_constant(1, order, 1.0)
    for _ in range(order + 1):
        y = antiderivative(y * (-1.0), 1.0)
    expect = [(-1.0) ** m / math.factorial(m) for m in range(order + 1)]
    np.testing.assert_allclose(y.coeffs, expect, atol=1e-14)


def horner_compose(a, outer):
    """Reference: sum_j outer[j] (a - a0)^j by Horner in jet arithmetic."""
    tilde = a - a.value
    result = jet_constant(a.num_vars, a.order, float(outer[a.order]))
    for j in range(a.order - 1, -1, -1):
        result = result * tilde + float(outer[j])
    return result


def test_compose_series_matches_analytic():
    u = jet_variable(2, 4, 0, 0.3) * jet_variable(2, 4, 1, -0.2)
    cyc = [math.sin(u.value), math.cos(u.value), -math.sin(u.value),
           -math.cos(u.value)]
    coeffs = np.array([cyc[m % 4] / math.factorial(m) for m in range(5)])
    # d^2 sin(xy) / dx dy = cos(xy) - xy sin(xy)
    got = compose_series(u, coeffs)
    assert abs(got.coefficient((1, 1)) - (math.cos(u.value)
               - u.value * math.sin(u.value))) < 1e-15
    np.testing.assert_allclose(got.coeffs, jet_sin(u).coeffs, atol=1e-15)
    # the power table against Horner at the benchmark's signatures; the
    # summation order differs, so agreement is to float64 rounding
    rng = np.random.default_rng(5)
    for num_vars, order in ((1, 7), (2, 7), (3, 7), (4, 6), (8, 3)):
        sig = signature(num_vars, order)
        a = Jet(num_vars, order, rng.uniform(-1.0, 1.0, sig.size))
        outer = rng.uniform(-1.0, 1.0, order + 1)
        want = horner_compose(a, outer).coeffs
        got = compose_series(a, outer).coeffs
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), \
            (num_vars, order)


def test_lift_places_variables():
    # a function of the last of three variables carries the one-variable
    # series on the pure powers of that variable and nothing elsewhere
    single = jet_sin(jet_variable(1, 3, 0, 0.5))
    direct = jet_sin(jet_variable(3, 3, 2, 0.5))
    want = np.zeros(signature(3, 3).size)
    for m in range(4):
        want[signature(3, 3).index[(0, 0, m)]] = single.coeffs[m]
    np.testing.assert_allclose(direct.coeffs, want, atol=1e-16)


def lift_parts(u, r):
    """Components of g and of xi_1..xi_r, jets of the base variables u."""
    w = u[0] * u[-1] + 0.2
    g = [jet_sin(u[0]) + w, jet_cos(w) * 0.5, jet_reciprocal(w + 1.0)]
    xi = [[jet_sin(w * (j + 1.0)), u[-1] * (j + 2.0), jet_sqrt(w * w + 1.0)]
          for j in range(r)]
    return g, xi


@pytest.mark.parametrize("num_vars,base_vars,ruling_vars,order", [
    (4, (0, 1), (2, 3), 4),   # contiguous: the extension and section4 layout
    (6, (2,), (3,), 5),       # interleaved: factor 1 of curve-product
    (4, (0, 1), (2, 3), 0),
])
def test_affine_lift_matches_jet_arithmetic(num_vars, base_vars,
                                            ruling_vars, order):
    # the same F = g + sum_j t_j xi_j built by jet operations over the full
    # signature, the ruling variables multiplying their fields, at a batch
    # of three points
    x = np.linspace(0.1, 0.6, num_vars) + np.array([[0.0], [0.05], [-0.1]])
    full = variables(x, order)
    g, xi = lift_parts([full[i] for i in base_vars], len(ruling_vars))
    want = columns([gk + sum((full[v] * xj[k]
                              for v, xj in zip(ruling_vars, xi)), 0.0)
                    for k, gk in enumerate(g)])
    g_b, xi_b = lift_parts(variables(x[:, list(base_vars)], order),
                           len(ruling_vars))
    got = affine_lift(signature(num_vars, order), columns(g_b),
                      np.stack([columns(xj) for xj in xi_b], axis=1),
                      x[:, list(ruling_vars)], base_vars, ruling_vars)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# Charts and their evaluation


def circle_chart():
    def fn(x, order):
        (t,) = variables(x, order)
        return columns([jet_cos(t), jet_sin(t)])

    return ImmersionChart("circle", 1, 2, box([-4.0], [4.0]), fn, 8)


def test_circle_derivatives():
    dt = circle_chart().eval([0.0], 2)
    np.testing.assert_allclose(dt.partial((0,)), [1.0, 0.0], atol=1e-16)
    np.testing.assert_allclose(dt.partial((1,)), [0.0, 1.0], atol=1e-16)
    np.testing.assert_allclose(dt.partial((2,)), [-1.0, 0.0], atol=1e-16)


def test_affine_chart_derivatives():
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(5, 2))
    shift = rng.normal(size=5)

    def fn(x, order):
        u, v = variables(x, order)
        return columns([u * mat[j, 0] + v * mat[j, 1] + shift[j]
                        for j in range(5)])

    chart = ImmersionChart("affine", 2, 5, box([-1, -1], [1, 1]), fn, 6)
    dt = chart.eval([0.2, -0.3], 2)
    np.testing.assert_allclose(dt.tensor(1), mat.T, atol=1e-15)
    assert np.max(np.abs(dt.tensor(2))) < 1e-15


def test_holomorphic_chart_coordinate_planes_at_zero():
    # hand differentiation: d_u^a d_v^b (z^j / j!) = i^b z^(j-a-b) / (j-a-b)!,
    # so at the center the k-th derivative vector is the k-th complex
    # coordinate vector, and off the center every partial has this form
    from oscflag.catalog import make_holomorphic_curve_surface
    for m in (2, 3):
        chart = make_holomorphic_curve_surface(m).chart
        comps = m + 3
        for z in (0j, 0.3 - 0.2j, -0.41 + 0.37j):
            dt = chart.eval([z.real, z.imag], chart.max_order)
            for a in range(chart.max_order + 1):
                for b in range(chart.max_order + 1 - a):
                    expect = np.zeros(comps, dtype=complex)
                    for j in range(max(a + b, 1), comps + 1):
                        e = j - a - b
                        expect[j - 1] = 1j ** b * z ** e / math.factorial(e)
                    np.testing.assert_allclose(
                        dt.partial((a, b)),
                        np.column_stack([expect.real, expect.imag]).ravel(),
                        rtol=0.0, atol=1e-12,
                        err_msg=f"m={m} z={z} partial={(a, b)}")
    # the chart rests on complex coefficient tables: a complex product,
    # also along broadcast leading axes, equals its real-pair expansion
    rng = np.random.default_rng(3)
    for num_vars, order in ((1, 7), (2, 7), (3, 7), (4, 6), (8, 3)):
        sig = signature(num_vars, order)
        re_a, im_a = rng.normal(size=(2, 3, sig.size))
        re_b, im_b = rng.normal(size=(2, sig.size))
        got = product(sig, re_a + 1j * im_a, re_b + 1j * im_b)
        assert got.shape == (3, sig.size)
        for row, ra, ia in zip(got, re_a, im_a):
            np.testing.assert_allclose(
                row.real, product(sig, ra, re_b) - product(sig, ia, im_b),
                rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(
                row.imag, product(sig, ra, im_b) + product(sig, ia, re_b),
                rtol=0.0, atol=1e-12)


def test_chain_rule_affine_substitution():
    # composing a chart with an affine reparametrization and evaluating
    # matches pushing the jet through the substitution
    rng = np.random.default_rng(1)
    mat = rng.normal(size=(2, 2))
    shift = rng.normal(size=2)

    def fn(v):
        return [jet_sin(v[0]) * jet_cos(v[1]), jet_exp(v[0] * 0.3 + v[1])]

    def fn_composed(w):
        v = [w[0] * mat[0, 0] + w[1] * mat[0, 1] + shift[0],
             w[0] * mat[1, 0] + w[1] * mat[1, 1] + shift[1]]
        return fn(v)

    w0 = np.array([0.15, -0.2])
    u0 = mat @ w0 + shift
    order = 4
    direct = [substitute_affine(j, mat, w0)
              for j in fn(variables(u0, order))]
    composed = fn_composed(variables(w0, order))
    for a, b in zip(direct, composed):
        np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-12)


def test_chart_capability_and_domain_errors():
    chart = circle_chart()
    with pytest.raises(CapabilityError):
        chart.eval([0.0], 9)
    with pytest.raises(DomainError):
        chart.eval([5.0], 2)


def test_derivative_tensor_symmetry():
    def fn(x, order):
        u, v = variables(x, order)
        return columns([jet_sin(u * v), u * u * v])

    chart = ImmersionChart("mix", 2, 2, box([-1, -1], [1, 1]), fn, 5)
    dt = chart.eval([0.3, 0.4], 3)
    t3 = dt.tensor(3)
    np.testing.assert_allclose(t3, np.transpose(t3, (1, 0, 2, 3)), atol=1e-15)
    np.testing.assert_allclose(t3, np.transpose(t3, (2, 1, 0, 3)), atol=1e-15)


def loop_tensor(dt, degree):
    """Reference: the symmetric tensor filled one ``partial`` at a time."""
    n = dt.num_vars
    out = np.zeros((n,) * degree + (dt.ambient_dim,))
    for idx in np.ndindex(*(n,) * degree):
        mi = [0] * n
        for i in idx:
            mi[i] += 1
        out[idx] = dt.partial(tuple(mi))
    return out


def test_tensor_matches_partial_loop():
    rng = np.random.default_rng(13)
    for num_vars, order in ((1, 7), (2, 7), (3, 7), (4, 6), (8, 3)):
        sig = signature(num_vars, order)
        dt = DerivativeTensor(rng.standard_normal((3, sig.size)).T, sig)
        for degree in range(order + 1):
            assert np.array_equal(dt.tensor(degree), loop_tensor(dt, degree))
        with pytest.raises(CapabilityError):
            dt.tensor(order + 1)


def test_chart_eval_requires_matching_signatures():
    # a table one order longer than asked for, or one column too wide
    for rows, width in ((1, 2), (0, 3)):
        chart = ImmersionChart(
            "wrong-shape", 1, 2, box([-1.0], [1.0]),
            lambda x, order: np.zeros((signature(1, order + rows).size,
                                       width)), 4)
        with pytest.raises(ShapeError):
            chart.eval([0.0], 2)


def test_richardson_fd_agreement_on_circle():
    # one-step central differences of jet data, Richardson extrapolated
    chart = circle_chart()
    x = np.array([0.7])
    h = 1e-4
    jet_here = chart.eval(x, 4)
    for order in range(1, 5):
        target = jet_here.partial((order,))
        lower = order - 1

        def partial_at(pt):
            return chart.eval(pt, lower).partial((lower,))

        estimates = []
        for step in (h, h / 2):
            estimates.append((partial_at(x + step) - partial_at(x - step))
                             / (2 * step))
        fd = (4.0 * estimates[1] - estimates[0]) / 3.0
        rel = np.linalg.norm(fd - target) / max(1.0, np.linalg.norm(target))
        assert rel < 1e-6


@pytest.mark.parametrize("num_vars,order", [(4, 6), (6, 3), (8, 3)])
def test_signature_tables_match_loop_oracles(num_vars, order):
    sig = signature(num_vars, order)
    for got, want in zip(sig.mul_table, mul_table_loop(num_vars, order)):
        assert np.array_equal(got, want) and got.dtype == want.dtype
    for top in (1, 2):
        for lower in (0, 1, order - top):
            for got, want in zip(_partial_index(num_vars, top, lower),
                                 partial_index_loop(num_vars, top, lower)):
                assert np.array_equal(got, want)


def test_matrix_inverse_over_leading_axes():
    # each point of a (B, size, r, r) batch inverts its own coefficient
    # matrices, exactly as its batch of one does
    rng = np.random.default_rng(17)
    sig = signature(3, 3)
    g = rng.standard_normal((4, sig.size, 3, 3))
    g[:, 0] += 3.0 * np.eye(3)
    inverse = matrix_inverse(sig, g)
    identity = np.zeros((sig.size, 3, 3))
    identity[0] = np.eye(3)
    for point, row in zip(g, inverse):
        assert np.array_equal(row, matrix_inverse(sig, point[None])[0])
        assert np.max(np.abs(matrix_product(sig, point, row)
                             - identity)) < 1e-12


@pytest.mark.parametrize("num_vars,order", [(4, 2), (3, 3), (2, 0), (1, 4)])
def test_matrix_product_matches_gathered_pairs(num_vars, order):
    # array for array, over contiguous, transposed, sliced and broadcast
    # operands, an operand times its own transpose and row and column
    # vectors, whose products take other BLAS paths
    rng = np.random.default_rng(19)
    size = signature(num_vars, order).size
    f = rng.standard_normal((2, size, 3, 6))
    wide = rng.standard_normal((size, 4, 9))
    cases = [
        (rng.standard_normal((size, 4, 5)), rng.standard_normal((size, 5, 4))),
        (f, f.swapaxes(-1, -2)), (f.swapaxes(-1, -2), f),
        (rng.standard_normal((size, 1, 5)), rng.standard_normal((size, 5, 3))),
        (rng.standard_normal((size, 3, 5)), rng.standard_normal((size, 5, 1))),
        (rng.standard_normal((2, 1, size, 3, 3)),
         rng.standard_normal((4, size, 3, 3))),
        (wide[..., :5], rng.standard_normal((size, 5, 2))),
        (rng.standard_normal((size, 6, 6)),
         rng.standard_normal((3, size, 6, 6)).swapaxes(-1, -2))]
    sig = signature(num_vars, order)
    for a, b in cases:
        got = matrix_product(sig, a, b)
        want = matrix_product_gathered(sig, a, b)
        assert got.shape == want.shape and np.array_equal(got, want)
