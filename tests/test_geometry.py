"""Pointwise geometry: frames, fundamental forms, flags, nullities, Ricci."""

import numpy as np
import pytest

from types import SimpleNamespace

from batch_rows import assert_same_geometry, columns
from oscflag import subspaces as sub
from oscflag.catalog import entry_names, get_entry
from oscflag.errors import (CapabilityError, DegeneracyError, FrameError,
                            NotImmersionError, ParameterError,
                            RegularityError)
from oscflag import geometry
from oscflag.geometry import (ImmersionChart, audited_jet, box,
                              frame_derivative, point_geometries,
                              point_geometry, projection_frame,
                              relative_nullity, ricci, s_nullity,
                              sectional_curvature, to_frame)
from oscflag.jets import jet_constant, jet_cos, jet_sin, signature, variables
from oscflag.verify import RunConfig, _sample_points
from s_nullity_loop import s_nullity_loop
from sample_points_loop import sample_points_loop


@pytest.fixture(scope="module")
def sphere_geom():
    entry = get_entry("sphere", {"n": 2})
    rng = np.random.default_rng(2)
    x = entry.sampler(rng)
    return entry, point_geometry(entry.chart, x, 2)


def test_sphere_invariants(sphere_geom):
    entry, geom = sphere_geom
    assert [s.dim for s in geom.normal_flag] == [1]
    # alpha(X, X) = -|X|^2 times the outward normal (= position)
    pos = entry.chart.position(geom.x)
    for xv in np.eye(2):
        np.testing.assert_allclose(geom.alpha_of(xv, xv), -pos, atol=1e-12)
    # orthogonality invariants
    assert np.max(np.abs(geom.frame @ geom.first_normal.basis.T)) < 1e-12
    sym = geom.alpha - geom.alpha.transpose(1, 0, 2)
    assert np.max(np.abs(sym)) < 1e-12


def test_sphere_alpha_spans_first_normal():
    # span of alpha values has rank one at several random points
    entry = get_entry("sphere", {"n": 2})
    rng = np.random.default_rng(3)
    for _ in range(5):
        geom = point_geometry(entry.chart, entry.sampler(rng), 2)
        vals = geom.alpha.reshape(-1, 3)
        assert sub.span_of(vals, 1e-8).dim == 1
        assert np.max(sub.principal_angles(
            sub.span_of(vals, 1e-8), geom.first_normal)) < 1e-8


def test_sphere_ricci_gauss_consistency(sphere_geom):
    _, geom = sphere_geom
    rng = np.random.default_rng(1)
    for _ in range(50):
        xv = rng.standard_normal(2)
        xv /= np.linalg.norm(xv)
        assert abs(ricci(geom, xv) - 1.0) < 1e-9


def test_flat_chart_trivial_forms():
    entry = get_entry("flat")
    rng = np.random.default_rng(0)
    geom = point_geometry(entry.chart, entry.sampler(rng), 2)
    assert np.max(np.abs(geom.alpha)) < 1e-13
    assert geom.normal_flag == []
    _, nu = relative_nullity(geom)
    assert nu == 2


def test_cylinder_nullity_is_ruling():
    def fn(x, order):
        u, v = variables(x, order)
        return columns([jet_cos(u), jet_sin(u), v])

    chart = ImmersionChart("cylinder", 2, 3, box([-3, -3], [3, 3]), fn, 6)
    geom = point_geometry(chart, [0.4, 0.1], 1)
    kernel, nu = relative_nullity(geom)
    assert nu == 1
    ambient = kernel.basis @ geom.frame
    np.testing.assert_allclose(np.abs(ambient), [[0, 0, 1]], atol=1e-12)


def _degenerate_chart() -> ImmersionChart:
    def fn(x, order):
        u, _ = variables(x, order)
        return columns([u, u * 1.0, jet_constant(2, order, 0.0)])

    return ImmersionChart("degenerate", 2, 3, box([-1, -1], [1, 1]), fn, 4)


def _ambiguous_chart() -> ImmersionChart:
    # (u, v, u^2, eps v^2): the second-order prefix has a singular value of
    # about 2 eps against O(1), which the band (tol/10, tol*10) straddles
    def fn(x, order):
        u, w = variables(x, order)
        return columns([u, w, u * u, w * w * 1e-8])

    return ImmersionChart("ambiguous", 2, 4, box([-1, -1], [1, 1]), fn, 4)


def test_not_immersion_raises():
    with pytest.raises(NotImmersionError):
        point_geometry(_degenerate_chart(), [0.1, 0.1], 1)


def test_audited_jet_raises_as_point_geometry():
    # the stencil frames read audited_jet alone, so it must reject exactly
    # the points point_geometry rejects, with the same error and level
    for chart, error in ((_degenerate_chart(), NotImmersionError),
                         (_ambiguous_chart(), RegularityError)):
        tables, svds, helper = audited_jet(chart, [[0.1, 0.2]], 1, 1e-8)
        assert isinstance(helper, error)
        assert len(tables) == 0 and all(len(svals) == 0 for svals, _ in svds)
        with pytest.raises(error) as whole:
            point_geometry(chart, [0.1, 0.2], 1, 1e-8)
        assert str(helper) == str(whole.value)
        assert getattr(helper, "level", None) == \
            getattr(whole.value, "level", None)
    assert whole.value.level == 1


@pytest.mark.parametrize("name", entry_names())
def test_point_geometries_rows_equal_batch_of_one(name):
    # one audited_jet for the batch, and each geometry array for array the
    # one point_geometry builds at its point
    entry = get_entry(name)
    rng = np.random.default_rng(11)
    points = np.array([entry.sampler(rng) for _ in range(4)])
    geoms, error = point_geometries(entry.chart, points,
                                    entry.max_normal_order, 1e-8)
    assert error is None and len(geoms) == len(points)
    for x, geom in zip(points, geoms):
        assert_same_geometry(geom, point_geometry(
            entry.chart, x, entry.max_normal_order, 1e-8))


def _cubic_chart() -> ImmersionChart:
    # (u, w^3, u^2, u w^3): the Jacobian's small singular value is about
    # 3 w^2, so w = 1e-5 is no immersion, w = 1e-4 ambiguous across the
    # band (tol/10, tol*10) and |w| >= 0.3 regular
    def fn(x, order):
        u, w = variables(x, order)
        return columns([u, w * w * w, u * u, u * w * w * w])

    return ImmersionChart("cubic", 2, 4, box([-1, -1], [1, 1]), fn, 4)


def test_point_geometries_return_a_dependent_frame_row():
    # at tol 1e-12 the audit admits w = 4e-6 (Jacobian singular value
    # 4.8e-11, above tol*10 of the largest), but its second frame row keeps
    # less than GRAM_SCHMIDT_REL_TOL of the largest row's length
    chart = _cubic_chart()
    points = [[0.2, 0.5], [0.2, 4e-6], [0.2, 1e-4]]
    geoms, error = point_geometries(chart, points, 1, 1e-12)
    assert len(geoms) == 1 and isinstance(error, NotImmersionError)
    assert str(error) == "row 1 numerically dependent during orthonormalization"
    assert_same_geometry(geoms[0], point_geometry(chart, points[0], 1, 1e-12))
    with pytest.raises(NotImmersionError) as single:
        point_geometry(chart, points[1], 1, 1e-12)
    assert str(single.value) == str(error)


def _rejecting_entry(weights) -> SimpleNamespace:
    """An entry on ``_cubic_chart`` whose sampler draws w = 0.5, -0.3, 1e-4
    and 1e-5 with the given weights."""
    def sampler(rng):
        w = rng.choice([0.5, -0.3, 1e-4, 1e-5], p=weights)
        return np.array([rng.uniform(-0.5, 0.5), w])

    return SimpleNamespace(chart=_cubic_chart(), sampler=sampler,
                           max_normal_order=2)


@pytest.mark.parametrize("weights,samples,seed", [
    ([0.3, 0.2, 0.25, 0.25], 6, 1),
    ([0.3, 0.2, 0.25, 0.25], 20, 4),
    ([0.005, 0.005, 0.5, 0.49], 3, 0),    # 2 of 3 usable points
    ([0.005, 0.005, 0.5, 0.49], 3, 3),    # 3 of 3 after 91 rejections
    ([0.0, 0.0, 0.0, 1.0], 2, 0),         # none
])
def test_batched_sampling_matches_loop_oracle(weights, samples, seed):
    # the same draws, accepted points, notes and attempt numbers as the
    # per-draw loop, or its DegeneracyError message
    entry = _rejecting_entry(weights)
    config = RunConfig("cubic", samples=samples, seed=seed)
    try:
        want = sample_points_loop(entry, config)
    except DegeneracyError as exc:
        with pytest.raises(DegeneracyError) as raised:
            _sample_points(entry, config)
        assert str(raised.value) == str(exc)
        return
    records, notes = _sample_points(entry, config)
    assert notes == want[1]
    assert any("ambiguous rank" in note for note in notes)
    assert any("Jacobian rank" in note for note in notes)
    assert [rec.index for rec in records] == list(range(samples))
    for rec, expected in zip(records, want[0], strict=True):
        assert np.array_equal(rec.x, expected.x)
        assert_same_geometry(rec.geom, expected.geom)


def test_capability_precondition():
    entry = get_entry("sphere", {"n": 2})
    with pytest.raises(CapabilityError):
        point_geometry(entry.chart, [1.0, 1.0], entry.chart.max_order)


def test_rank_stability_across_tolerances():
    names = ["sphere", "product-torus", "curve-parallel", "section4-ruled"]
    rng = np.random.default_rng(11)
    for name in names:
        entry = get_entry(name)
        x = entry.sampler(rng)
        dims = {}
        for tol in (1e-7, 1e-9):
            geom = point_geometry(entry.chart, x, entry.max_normal_order,
                                  tol)
            dims[tol] = [s.dim for s in geom.normal_flag]
        assert dims[1e-7] == dims[1e-9], name


def test_regularity_error_at_rank_drop():
    # on the ruled example the first normal rank drops at the zero section;
    # just off it at tiny t the rank decision becomes tolerance-dependent
    entry = get_entry("section4-ruled", {"m": 2})
    x = np.array([0.1, 0.2, 1e-7, 1e-7])
    with pytest.raises(RegularityError):
        point_geometry(entry.chart, x, 2, 1e-8)


def test_one_svd_per_flag_prefix(monkeypatch):
    # the immersion check, the rank audit at tol/10, tol, tol*10 and the
    # osculating spaces all read one decomposition of each prefix stack
    entry = get_entry("section4-ruled", {"m": 2})
    x = entry.sampler(np.random.default_rng(4))
    order = 3
    derivs = entry.chart.eval(x, order + 1)
    prefixes = [derivs.tensor(1)]
    degrees = signature(derivs.num_vars, order + 1).degrees
    for k in range(2, order + 2):
        prefixes.append(np.vstack([prefixes[-1],
                                   derivs.values[degrees == k]]))
    seen = []
    real_svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        seen.append(np.array(a, copy=True))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(geometry.np.linalg, "svd", counting_svd)
    point_geometry(entry.chart, x, order)
    monkeypatch.undo()
    # each prefix stack of the one point, as a batch of one
    for rows in prefixes:
        hits = sum(1 for a in seen if a.shape == (1,) + rows.shape
                   and np.array_equal(a[0], rows))
        assert hits == 1, rows.shape


def test_to_frame_matches_einsum():
    rng = np.random.default_rng(8)
    for n in (2, 4):
        coeff = rng.standard_normal((n, n))
        for degree in range(1, 5):
            t = rng.standard_normal((n,) * degree + (5,))
            chart, frame = "ijkl"[:degree], "abcd"[:degree]
            spec = ",".join(a + i for a, i in zip(frame, chart)) \
                + f",{chart}N->{frame}N"
            want = np.einsum(spec, *([coeff] * degree), t)
            got = to_frame(t, coeff)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_normal_space_decomposition_on_ruled_example():
    # projections onto the first normal space and its complement within the
    # normal space reassemble the normal part of any ambient vector
    entry = get_entry("section4-ruled", {"m": 2})
    rng = np.random.default_rng(7)
    geom = point_geometry(entry.chart, entry.sampler(rng), 2)
    comp = geom.first_normal_complement()
    for _ in range(5):
        v = rng.standard_normal(10)
        normal_part = geom.normal_space.project(v)
        resid = normal_part - geom.first_normal.project(v) - comp.project(v)
        assert np.linalg.norm(resid) < 1e-12


def _checked_s_nullity(geom, s, seed, **kwargs) -> int:
    """``s_nullity``, asserted equal to the per-candidate loop oracle on a
    twin generator, which it must leave in the same state."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    got = s_nullity(geom, s, seed=rng, **kwargs)
    assert got == s_nullity_loop(geom, s, seed=twin, **kwargs)
    assert rng.bit_generator.state == twin.bit_generator.state
    return got


def test_s_nullity_examples():
    entry = get_entry("sphere", {"n": 2})
    rng = np.random.default_rng(2)
    geom = point_geometry(entry.chart, entry.sampler(rng), 2)
    assert _checked_s_nullity(geom, 1, 0, restarts=4) == \
        relative_nullity(geom)[1] == 0
    with pytest.raises(ParameterError):
        s_nullity(geom, 2)

    # s = p equals the relative nullity exactly on any chart
    entry = get_entry("product-torus")
    geom = point_geometry(entry.chart, entry.sampler(rng), 2)
    assert _checked_s_nullity(geom, 2, 0, restarts=4) == \
        relative_nullity(geom)[1]


def test_s_nullity_monotone_on_product():
    entry = get_entry("curve-product", {"factors": 3})
    rng = np.random.default_rng(3)
    geom = point_geometry(entry.chart, entry.sampler(rng), 2)
    p = geom.first_normal.dim
    table = [_checked_s_nullity(geom, s, s, restarts=12) for s in
             range(1, p + 1)]
    assert table[-1] == relative_nullity(geom)[1]
    for s in range(1, p):
        # lower bounds may interleave, but the cascaded table is monotone
        assert max(table[s - 1:]) >= table[s]


@pytest.mark.parametrize("config", [
    RunConfig("section4-ruled", {"m": 2}, samples=20, seed=7),
    RunConfig("section4-ruled", {"m": 3}, samples=3, seed=7),
    RunConfig("holomorphic-curve", {"m": 2}, samples=5, seed=3),
    RunConfig("product-torus", samples=4, seed=3),
    RunConfig("curve-product", samples=4, seed=3),
], ids=["section4-ruled-m2", "section4-ruled-m3", "holomorphic-curve",
        "product-torus", "curve-product"])
def test_batched_s_nullity_matches_loop_oracle(config):
    # every record of the acceptance config, every s, with the restarts,
    # seeds and hints of verify._nu_s_table
    entry = get_entry(config.entry, config.params)
    records, _ = _sample_points(entry, config)
    for rec in records:
        hints = [rec.nd.S] if rec.nd.s else []
        for s in range(1, rec.nd.p + 1):
            _checked_s_nullity(rec.geom, s, [config.seed, 7000 + rec.index, s],
                               restarts=16, hints=hints)


def test_ricci_normalizes_with_warning(sphere_geom):
    _, geom = sphere_geom
    with pytest.warns(UserWarning):
        val = ricci(geom, np.array([2.0, 0.0]))
    assert abs(val - 1.0) < 1e-9


def test_sectional_curvature_sphere(sphere_geom):
    _, geom = sphere_geom
    assert abs(sectional_curvature(geom, [1.0, 0.0], [0.0, 1.0]) - 1.0) < 1e-9


def test_projection_frame_deterministic_and_pivot_stable():
    rng = np.random.default_rng(9)
    space = sub.span_of(rng.standard_normal((3, 7)), 1e-8)
    f1, piv = projection_frame(space)
    f2, piv2 = projection_frame(space)
    assert piv == piv2
    np.testing.assert_array_equal(f1, f2)
    f3, _ = projection_frame(space, pivots=piv)
    np.testing.assert_allclose(f1, f3, atol=1e-14)
    gram = f1 @ f1.T
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)


def test_projection_frame_rejects_pivot_count_mismatch():
    # a stencil point where the rank grew or dropped must not be differenced
    # against a zero row or an out-of-range pivot
    plane = sub.span_of(np.eye(4)[:2], 1e-8)
    with pytest.raises(FrameError):
        projection_frame(plane, pivots=(0,))
    with pytest.raises(FrameError):
        projection_frame(plane, pivots=(0, 1, 2))
    frame, piv = projection_frame(plane, pivots=(1, 0))
    assert piv == (1, 0)
    np.testing.assert_allclose(frame, np.eye(4)[[1, 0]], atol=1e-15)


def _rotation(t, i, j, derivative=False):
    """Rotation by t in the (i, j) plane of R^3, or its derivative in t."""
    c, s = (-np.sin(t), np.cos(t)) if derivative else (np.cos(t), np.sin(t))
    out = np.zeros((3, 3)) if derivative else np.eye(3)
    out[i, i] = out[j, j] = c
    out[i, j], out[j, i] = -s, s
    return out


def _rotating_frame(x):
    """First two rows of a rotation about e3 by x0 after one about e1 by x1:
    an orthonormal 2-frame in R^3."""
    return (_rotation(x[0], 0, 1) @ _rotation(x[1], 1, 2))[:2]


def _rotating_frames(points):
    """``_rotating_frame`` at each of the points ``(B, 2)``."""
    return np.array([_rotating_frame(x) for x in points])


def _rotating_frame_derivative(x, w):
    return (w[0] * _rotation(x[0], 0, 1, True) @ _rotation(x[1], 1, 2)
            + w[1] * _rotation(x[0], 0, 1) @ _rotation(x[1], 1, 2, True))[:2]


def test_frame_derivative_orders_and_layout():
    x = np.array([0.4, -0.7])
    directions = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    exact = np.array([_rotating_frame_derivative(x, w) for w in directions])

    def error(h):
        got = frame_derivative(_rotating_frames, x, directions, h)
        assert got.shape == (len(directions),) + _rotating_frame(x).shape
        return float(np.max(np.abs(got - exact)))

    h = 0.05
    assert 3.8 < error(h) / error(h / 2.0) < 4.2
    # one direction, one row of the output
    single = frame_derivative(_rotating_frames, x, directions[2:], h)
    np.testing.assert_array_equal(
        single[0], frame_derivative(_rotating_frames, x, directions, h)[2])
    # one call of the field, on the stencil points in the order +w_1, -w_1,
    # +w_2, ...
    calls = []

    def recording(points):
        calls.append(points)
        return _rotating_frames(points)

    frame_derivative(recording, x, directions, h)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], [
        x + sign * h * w for w in directions for sign in (1.0, -1.0)])
