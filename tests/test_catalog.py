"""Catalog entries: construction, determinism, declared structure."""

import dataclasses
import math

import numpy as np
import pytest

from batch_rows import assert_rows_match_single_points
from oscflag import subspaces as sub
from oscflag.catalog import (BUILDERS, entry_names, get_entry,
                             make_curve_parallel_subbundle, make_flat,
                             make_holomorphic_curve_surface,
                             make_section4_example, make_sphere)
from oscflag.curves import CurveSystem
from oscflag.checks import CHECKS, GATES, VerifyContext
from oscflag.errors import ParameterError
from oscflag.geometry import point_geometry
from oscflag.jets import (Jet, affine_lift, jet_constant, jet_reciprocal,
                          signature)
from oscflag.nonparallel import nonparallel_data
from oscflag.verify import RunConfig, _sample_points
from picard import antiderivative
from rk4 import rk4_transport


def test_registry_names():
    names = entry_names()
    assert "section4-ruled" in names
    assert "curve-parallel" in names
    with pytest.raises(ParameterError):
        get_entry("no-such-entry")


def test_parameter_validation():
    with pytest.raises(ParameterError):
        make_holomorphic_curve_surface(1)
    with pytest.raises(ParameterError):
        make_section4_example(1)
    with pytest.raises(ParameterError):
        make_curve_parallel_subbundle(1, 8)
    with pytest.raises(ParameterError):
        make_curve_parallel_subbundle(2, 8)  # N > n + 5
    with pytest.raises(ParameterError):
        make_sphere(0)
    with pytest.raises(ParameterError):
        make_flat(-1)


def test_entry_regeneration_is_bitwise_deterministic():
    for name in ("curve-parallel", "section4-ruled", "curve-product"):
        e1 = get_entry(name)
        e2 = get_entry(name)
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        for _ in range(3):
            x1, x2 = e1.sampler(rng1), e2.sampler(rng2)
            np.testing.assert_array_equal(x1, x2)
            np.testing.assert_array_equal(e1.chart.position(x1),
                                          e2.chart.position(x2))
            j1 = e1.chart.eval(x1, 3).coeffs
            j2 = e2.chart.eval(x2, 3).coeffs
            np.testing.assert_array_equal(j1, j2)


@pytest.mark.parametrize("name", entry_names())
def test_chart_tables_over_points_match_single_points(name):
    entry = get_entry(name)
    rng = np.random.default_rng(5)
    points = np.array([entry.sampler(rng) for _ in range(5)])
    for order in (1, entry.max_normal_order + 1):
        assert_rows_match_single_points(entry.chart, points, order)


def test_curve_transport_inner_products_constant():
    system = CurveSystem(8, 5, [11])
    eye = np.eye(5)
    ts = np.linspace(0.0, 1.0, 11)
    for t, fields in zip(ts, system.fields_at(0, ts)):
        np.testing.assert_allclose(fields @ fields.T, eye, atol=1e-9)
        d1 = system.curve_derivative(0, t, 1)
        assert np.max(np.abs(fields @ d1)) < 1e-9


def loop_curve_taylor(system, curve, t0, order, shift):
    """Reference: column m is d^(m+shift) c / dt^(m+shift) at t0, over m!."""
    return np.column_stack([system.curve_derivative(curve, t0, m + shift)
                            / math.factorial(m) for m in range(order + 1)])


def picard_field_taylor(system, curve, t0, order):
    """Reference: Picard sweeps xi <- xi(t0) + int -<xi, c''> c' / |c'|^2
    in one-variable jets; each sweep fixes one more coefficient."""
    c1 = [Jet(1, order, r)
          for r in loop_curve_taylor(system, curve, t0, order, 1)]
    c2 = [Jet(1, order, r)
          for r in loop_curve_taylor(system, curve, t0, order, 2)]
    inv_speed2 = jet_reciprocal(sum(c * c for c in c1))
    out = np.empty((system.num_fields, system.ambient_dim, order + 1))
    for f, start in enumerate(system.fields_at(curve, [t0])[0]):
        xi = [jet_constant(1, order, v) for v in start]
        for _ in range(order + 1):
            factor = sum(x * c for x, c in zip(xi, c2)) * inv_speed2 * -1.0
            xi = [antiderivative(factor * c, v) for c, v in zip(c1, start)]
        out[f] = [x.coeffs for x in xi]
    return out


def test_curve_taylor_matches_derivative_loop():
    system = CurveSystem(8, 5, [11])
    ts = np.linspace(0.0, 1.0, 5)
    for shift in (0, 1, 2):
        for t, got in zip(ts, system.curve_taylor(0, ts, 7, shift)):
            want = loop_curve_taylor(system, 0, t, 7, shift)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_field_taylor_matches_picard_oracle():
    # the recurrence and Picard sum in different orders: float64 rounding
    for ambient, fields, seed, order in ((8, 5, 11, 7), (4, 1, 23, 6)):
        system = CurveSystem(ambient, fields, [seed])
        ts = np.linspace(0.05, 0.95, 5)
        for t, got in zip(ts, system.field_taylor(0, ts, order)):
            want = picard_field_taylor(system, 0, t, order)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_fields_at_matches_rk4_oracle():
    # RK4's global error is C h^4 to leading order, so the runs at h and
    # h/2 differ by (15/16) C h^4 and the error of the finer run is
    # |y_h - y_(h/2)| / 15; the tolerance is twice that estimate plus a
    # random-walk rounding allowance sqrt(steps) * eps on unit fields.
    # One RK4 run per ambient dimension integrates all its curves together.
    steps = 2000
    stride = steps // 25
    ts = np.linspace(0.0, 1.0, 26)
    stacks = [(8, 5, [11]), (4, 1, [24] + [23 + 17 * i for i in range(4)])]
    for ambient, fields, seeds in stacks:
        system = CurveSystem(ambient, fields, seeds)
        coarse, fine = rk4_transport(system, steps)
        coarse, fine = coarse[::stride // 2], fine[::stride]
        for curve, seed in enumerate(seeds):
            error = np.abs(coarse[:, curve] - fine[:, curve])
            tol = (2.0 * np.max(error) / 15.0
                   + math.sqrt(steps) * np.finfo(float).eps)
            got = system.fields_at(curve, ts)
            assert np.max(np.abs(got - fine[:, curve])) <= tol, \
                (ambient, fields, seed)


def test_curve_fields_smooth_across_grid_nodes():
    # fields_at switches from one node's series to the next at the midpoints
    system = CurveSystem(8, 3, [11])
    times = system.node_times[0, :system.node_counts[0]]
    eps = 1e-9
    for t0 in 0.5 * (times[1:] + times[:-1]):
        below, above = system.fields_at(0, [t0 - eps, t0 + eps])
        assert np.max(np.abs(above - below)) < 1e-7


def test_curve_stack_rows_match_stacks_of_one():
    # each row of a stack runs the arithmetic of a stack of one: node grids,
    # series and chart tables are bit-identical, not merely close
    product = get_entry("curve-product")
    stacks = [(4, 1, [23 + 17 * i for i in range(4)]), (8, 5, [11, 12, 13])]
    ts = np.linspace(0.05, 0.95, 4)
    for ambient, fields, seeds in stacks:
        stack = CurveSystem(ambient, fields, seeds)
        rows = np.repeat(np.arange(len(seeds)), len(ts))
        t_rows = np.tile(ts, len(seeds))
        stacked = (stack.field_taylor(rows, t_rows, 6),
                   stack.curve_taylor(rows, t_rows, 6))
        for curve, seed in enumerate(seeds):
            alone = CurveSystem(ambient, fields, [seed])
            count = stack.node_counts[curve]
            assert count == alone.node_counts[0]
            assert (stack.node_times[curve, :count].tobytes()
                    == alone.node_times[0].tobytes())
            assert (stack.node_series[curve, :count].tobytes()
                    == alone.node_series[0].tobytes())
            block = slice(curve * len(ts), (curve + 1) * len(ts))
            assert (stacked[0][block].tobytes()
                    == alone.field_taylor(0, ts, 6).tobytes())
            assert (stacked[1][block].tobytes()
                    == alone.curve_taylor(0, ts, 6).tobytes())
    factors = [CurveSystem(4, 1, [23 + 17 * i]) for i in range(4)]
    rng = np.random.default_rng(3)
    points = np.array([product.sampler(rng) for _ in range(3)])
    for order in range(7):
        sig = signature(8, order)
        blocks = []
        for i, factor in enumerate(factors):
            t = points[:, 2 * i]
            blocks.append(affine_lift(
                sig, factor.curve_taylor(0, t, order).swapaxes(1, 2),
                factor.field_taylor(0, t, order).swapaxes(2, 3),
                points[:, [2 * i + 1]], (2 * i,), (2 * i + 1,)))
        want = np.concatenate(blocks, axis=2)
        assert product.chart.tables(points, order).tobytes() == want.tobytes()


def test_transport_orthonormality_fails_on_coarse_steps():
    # a step tolerance of 1e-6 lets the Taylor steps' truncation error
    # reach the Gram matrix of the transported frames
    class CoarseCurveSystem(CurveSystem):
        STEP_TOL = 1e-6

    entry = get_entry("curve-parallel")
    check = CHECKS["transport_orthonormality"]
    fine = entry.aux["system"]
    coarse = CoarseCurveSystem(fine.ambient_dim, fine.num_fields, [11])
    assert check(VerifyContext(entry, [], 0, 1e-8)).passed
    assert coarse.orthonormality_drift() > GATES["transport_orthonormality"]
    coarse_entry = dataclasses.replace(entry, aux={"system": coarse})
    result = check(VerifyContext(coarse_entry, [], 0, 1e-8))
    assert not result.passed
    assert result.residual == coarse.orthonormality_drift()


@pytest.mark.parametrize("check,name,params", [
    ("alpha_zero", "sphere", {}),
    ("minimality", "sphere", {}),
    ("ellipticity", "sphere", {}),
    ("sectional_flat", "sphere", {"tol": 1e-10, "count": 10}),
    ("umbilic_sphere", "product-torus", {}),
    ("ricci_constant", "product-torus", {"expected": 1.0}),
    ("phi_zero", "curve-parallel", {}),
])
def test_gated_check_fails_where_its_claim_is_false(check, name, params):
    # each claim is false on this entry: the round sphere is curved and not
    # minimal nor a holomorphic curve (sectional_flat with the torus's
    # params), the torus is not umbilic and has Ricci 0, and curve-parallel
    # has nonzero phi
    entry = get_entry(name)
    records, _ = _sample_points(entry, RunConfig(name, samples=3, seed=3))
    result = CHECKS[check](VerifyContext(entry, records, 3, 1e-8), **params)
    assert not result.passed
    assert result.residual > result.tolerance


def test_section4_sampler_avoids_zero_section():
    entry = get_entry("section4-ruled", {"m": 2})
    rng = np.random.default_rng(0)
    t_min = entry.aux["t_min"]
    for _ in range(50):
        x = entry.sampler(rng)
        assert np.linalg.norm(x[2:]) >= t_min


def test_section4_frame_is_orthonormal_basis_of_lower_stages():
    # the translation frame of the thickened chart spans the lower normal
    # stages of the base surface, orthonormally
    uv = np.array([0.17, -0.23])
    order = 4
    for m in (2, 3):
        entry = get_entry("section4-ruled", {"m": m})
        base = entry.aux["base_entry"]
        verticals = 2 * (m - 1)
        base_geom = point_geometry(base.chart, uv, base.max_normal_order)
        lower = sub.span_of(np.vstack(
            [s.basis for s in base_geom.normal_flag[:m - 1]]), 1e-10)
        # move one unit along each translation coordinate: the displacement
        # is the frame vector itself and must lie in the lower stages, with
        # unit norm
        h = 1e-1
        f0 = entry.chart.position(np.array([*uv, *np.zeros(verticals)]))
        for a in range(verticals):
            t = np.zeros(verticals)
            t[a] = h
            disp = (entry.chart.position(np.array([*uv, *t])) - f0) / h
            assert abs(np.linalg.norm(disp) - 1.0) < 1e-12
            assert np.linalg.norm(lower.reject(disp)) < 1e-10
        # the chart is affine in t, so its t_a-partial is the frame vector as
        # a jet in (u, v); the Gram matrix of those jets is constant
        derivs = entry.chart.eval(np.array([*uv, *np.zeros(verticals)]),
                                  order)
        sig = signature(2 + verticals, order)
        uv_monos = signature(2, order - 1).monomials
        frame = []
        for a in range(verticals):
            t_exp = tuple(int(i == a) for i in range(verticals))
            rows = [sig.index[mono + t_exp] for mono in uv_monos]
            frame.append([Jet(2, order - 1, derivs.coeffs[rows, c].copy())
                          for c in range(derivs.ambient_dim)])
        for a in range(verticals):
            for b in range(verticals):
                gram = sum(fa * fb for fa, fb in zip(frame[a], frame[b]))
                assert abs(gram.value - float(a == b)) < 1e-12
                assert np.max(np.abs(gram.coeffs[1:])) < 1e-12, (m, a, b)


def test_every_entry_produces_consistent_geometry():
    rng = np.random.default_rng(13)
    expect_ps = {"sphere": 1, "flat": 0, "product-torus": 2,
                 "curve-parallel": 1, "holomorphic-curve": 2,
                 "section4-ruled": 4, "curve-product": 4}
    for name in entry_names():
        entry = get_entry(name)
        x = entry.sampler(rng)
        geom = point_geometry(entry.chart, x, entry.max_normal_order)
        assert geom.first_normal.dim == expect_ps[name], name
        # alpha is normal-valued
        proj = geom.alpha.reshape(-1, geom.ambient_dim) @ geom.frame.T
        assert np.max(np.abs(proj)) < 1e-10, name
        # flag stages are mutually orthogonal and orthogonal to the tangent
        stages = [geom.tangent] + geom.normal_flag
        for i in range(len(stages)):
            for j in range(i + 1, len(stages)):
                if stages[i].dim and stages[j].dim:
                    prods = stages[i].basis @ stages[j].basis.T
                    assert np.max(np.abs(prods)) < 1e-8, name
        # the flag fills R^N on these entries
        if name in ("sphere", "curve-parallel", "holomorphic-curve",
                    "section4-ruled", "curve-product"):
            total = geom.n + sum(s.dim for s in geom.normal_flag)
            assert total == geom.ambient_dim, name


def test_catalog_listing_metadata():
    for name, (_, summary) in BUILDERS.items():
        assert summary
        entry = get_entry(name)
        assert entry.description
        for exp in entry.expected:
            assert exp.description


def test_holomorphic_surface_conformal():
    entry = get_entry("holomorphic-curve", {"m": 3})
    rng = np.random.default_rng(1)
    geom = point_geometry(entry.chart, entry.sampler(rng), 1)
    d1 = geom.derivs.tensor(1)
    g = d1 @ d1.T
    assert abs(g[0, 0] - g[1, 1]) < 1e-12
    assert abs(g[0, 1]) < 1e-12


def test_section4_vertical_rulings_match_d():
    entry = get_entry("section4-ruled", {"m": 2})
    rng = np.random.default_rng(2)
    x = entry.sampler(rng)
    geom = point_geometry(entry.chart, x, entry.max_normal_order)
    nd = nonparallel_data(geom)
    # D in ambient terms equals the span of the translation frame, i.e. the
    # first normal stage of the base surface
    base_geom = point_geometry(entry.aux["base_entry"].chart, x[:2],
                               entry.aux["base_entry"].max_normal_order)
    d_amb = sub.Subspace(10, nd.D.basis @ geom.frame)
    assert nd.D.dim == 2
    assert np.max(sub.principal_angles(d_amb, base_geom.normal_flag[0])) \
        < 1e-8
