"""Splitting pipeline: gamma span, lambda complement, extension building."""

import numpy as np
import pytest

from gamma_fd import gamma_values_fd
from oscflag import ruled_extension
from oscflag import subspaces as sub
from oscflag.catalog import get_entry
from oscflag.errors import ParameterError, ShapeError
from oscflag.geometry import projection_frame
from oscflag.jets import first_order_jet
from oscflag.ruled_extension import (RuledExtension, SplittingSpec,
                                     build_extension, extension_second_form,
                                     gamma_tensor, lambda_delta,
                                     verify_extension)

EXT_STEP = 1e-4


def torus_rows(geom, partials):
    """Order-1 rows spanned by the given second partials of the product
    torus chart; their own partials are third partials of the chart."""
    value = np.array([geom.derivs.partial(p) for p in partials])
    grads = [[geom.derivs.partial(np.add(p, e)) for p in partials]
             for e in np.eye(2, dtype=int)]
    return first_order_jet(value, grads)


def constant_rule(rows_of):
    """A rule whose rows are frozen: only its value at the point matters to
    the rank and normality checks it is meant to trip."""
    def rule(geom):
        rows = np.atleast_2d(rows_of(geom))
        return first_order_jet(rows, np.zeros((geom.n,) + rows.shape))
    return rule


@pytest.fixture(scope="module")
def curve_entry():
    return get_entry("curve-parallel")


def torus_split_rule(geom):
    """L spans the curvature direction of the first circle factor, so the
    complementary kernel contains that factor's coordinate direction.  That
    direction is f_uu, which is normal on the flat torus."""
    return torus_rows(geom, [(2, 0)])


def test_whole_normal_bundle_is_forbidden():
    entry = get_entry("product-torus")
    spec = SplittingSpec(entry.chart,
                         rule=constant_rule(lambda geom:
                                            geom.normal_space.basis))
    with pytest.raises(ParameterError):
        spec.at(np.array([1.0, 1.5]))


def test_l_must_be_normal():
    entry = get_entry("product-torus")
    spec = SplittingSpec(entry.chart,
                         rule=constant_rule(lambda geom: geom.frame[0]))
    with pytest.raises(ParameterError):
        spec.at(np.array([1.0, 1.5]))


def test_rule_must_return_order_one_rows():
    # rows without their chart partials do not follow the rule contract
    entry = get_entry("product-torus")
    spec = SplittingSpec(entry.chart,
                         rule=lambda geom: torus_rows(geom, [(2, 0)])[0])
    with pytest.raises(ShapeError):
        spec.at(np.array([1.0, 1.5]))


def test_torus_split_dimension_arithmetic():
    # d + r = n + ell - k exactly, whatever k the span detection finds
    entry = get_entry("product-torus")
    spec = SplittingSpec(entry.chart, rule=torus_split_rule)
    for x in ([1.0, 1.5], [2.0, 0.7], [0.8, 3.1]):
        x = np.array(x)
        split = spec.at(x)
        assert split.d == 1 and split.ell == 1
        gamma = gamma_tensor(spec, x, split=split)
        lam = lambda_delta(spec, x, gamma)
        n = split.geom.n
        assert split.d + lam.r == n + split.ell - gamma.k
        assert lam.Delta.dim == split.d + lam.r
        assert n - split.d <= gamma.k <= n - split.d + split.ell


@pytest.mark.parametrize("exercise_index,expected_k,expected_r",
                         [(0, 1, 1), (1, 2, 0), (2, 2, 1)])
def test_curve_exercises_hit_expected_ranks(curve_entry, exercise_index,
                                            expected_k, expected_r):
    exercise = curve_entry.split_exercises[exercise_index]
    spec = SplittingSpec(curve_entry.chart, rule=exercise.rule)
    rng = np.random.default_rng(3)
    x = curve_entry.sampler(rng)
    split = spec.at(x)
    gamma = gamma_tensor(spec, x, split=split)
    lam = lambda_delta(spec, x, gamma)
    assert gamma.k == expected_k
    assert lam.r == expected_r
    if lam.r:
        assert lam.lemma_par_angle > 1e-6  # Lambda meets the tangent trivially


def test_trivial_extension_is_base_chart(curve_entry):
    exercise = curve_entry.split_exercises[1]  # rotating line: r = 0
    spec = SplittingSpec(curve_entry.chart, rule=exercise.rule)
    rng = np.random.default_rng(4)
    pts = [curve_entry.sampler(rng) for _ in range(2)]
    ext = build_extension(spec, 0.1, pts, fd_step=EXT_STEP)
    assert ext.trivial and ext.r == 0
    x = pts[0]
    np.testing.assert_array_equal(ext.eval(x, np.zeros(0)),
                                  curve_entry.chart.position(x))


def test_extension_radius_bisection(curve_entry):
    # an absurd initial radius must shrink to an admissible one
    exercise = curve_entry.split_exercises[0]  # parallel line: r = 1
    spec = SplittingSpec(curve_entry.chart, rule=exercise.rule)
    rng = np.random.default_rng(5)
    pts = [curve_entry.sampler(rng) for _ in range(2)]
    ext = build_extension(spec, 50.0, pts, fd_step=EXT_STEP)
    assert 1e-6 < ext.lambda_radius < 50.0
    for corner in (np.array([1.0]), np.array([-1.0])):
        jac = ext.jacobian(pts[0], ext.lambda_radius * corner)
        svals = np.linalg.svd(jac, compute_uv=False)
        assert svals[-1] > 1e-6 * svals[0]


def test_extension_verify_parallel_line(curve_entry):
    exercise = curve_entry.split_exercises[0]
    spec = SplittingSpec(curve_entry.chart, rule=exercise.rule)
    rng = np.random.default_rng(6)
    pts = [curve_entry.sampler(rng) for _ in range(3)]
    ext = build_extension(spec, exercise.lambda_radius, pts,
                          fd_step=EXT_STEP)
    assert ext.r == 1
    diag = verify_extension(ext, pts[:2], tol=1e-5, h=1e-3, seed=0)
    failures = {c.name: (c.residual, c.tolerance) for c in diag.failures}
    assert not failures, failures
    # the extension adds back a parallel direction: a curve chart one
    # dimension up, whose nullity exceeds the ruling bundle by construction
    forms = extension_second_form(ext, pts[0], np.array([0.03]))
    flat = forms["alpha"].transpose(1, 2, 0).reshape(-1, ext.total_dim)
    assert sub.kernel_of(flat, 1e-4).dim == curve_entry.chart.intrinsic_dim
    n1f = sub.span_of(forms["alpha"].reshape(-1, 8), 1e-4, ambient_dim=8)
    assert n1f.dim == 1


def test_gamma_rank_band_guard():
    # feeding a bogus kernel situation must trip the band check, not pass
    entry = get_entry("product-torus")

    def bad_rule(geom):
        # L contains both curvature directions: alpha_P vanishes and the
        # kernel is everything, leaving E empty and the band degenerate
        return torus_rows(geom, [(2, 0), (0, 2)])

    spec = SplittingSpec(entry.chart, rule=bad_rule)
    split = spec.at(np.array([1.0, 1.5]))
    assert split.d == 2  # kernel is the whole tangent space
    gamma = gamma_tensor(spec, np.array([1.0, 1.5]), split=split)
    assert gamma.k == 0  # no E directions at all: empty span, band [0, 2]


@pytest.mark.parametrize("name,params,index",
                         [("section4-ruled", {"m": 2}, 0),
                          ("curve-parallel", {}, 0),
                          ("curve-parallel", {}, 1),
                          ("curve-parallel", {}, 2)])
def test_exact_gamma_against_fd_oracle(name, params, index):
    # the stencil oracle converges to the exact values at second order, and
    # the exact span has the declared dimension
    entry = get_entry(name, params)
    exercise = entry.split_exercises[index]
    spec = SplittingSpec(entry.chart, rule=exercise.rule)
    x = entry.sampler(np.random.default_rng(7))
    split = spec.at(x)
    gamma = gamma_tensor(spec, x, split=split)
    assert gamma.k == exercise.expected["k"]
    d_h, d_h2 = (np.linalg.norm(gamma_values_fd(spec, split, h)
                                - gamma.values) for h in (1e-3, 5e-4))
    assert 3.2 <= d_h / d_h2 <= 4.8, (d_h, d_h2)


def test_one_point_geometry_per_extension_point(monkeypatch):
    # Gamma reads the chart partials of Pi_L from the split, so a fresh
    # extension point costs one splitting evaluation and no stencil
    entry = get_entry("section4-ruled", {"m": 2})
    spec = SplittingSpec(entry.chart)
    rng = np.random.default_rng(7)
    base = entry.sampler(rng)
    lam = lambda_delta(spec, base, gamma_tensor(spec, base))
    ext = RuledExtension(spec, projection_frame(lam.Lambda)[1], lam.r, 0.08)
    calls = []
    real = ruled_extension.point_geometry

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(ruled_extension, "point_geometry", counting)
    ext.data_at(entry.sampler(rng))
    assert len(calls) == 1
