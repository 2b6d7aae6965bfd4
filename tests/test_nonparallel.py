"""Nonparallelism tensor: two-method agreement, spans, classification."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from batch_rows import assert_same_geometry, columns
from oscflag import geometry, nonparallel, ruled_extension, verify
from oscflag import subspaces as sub
from oscflag.catalog import get_entry
from oscflag.checks import (PointRecord, VerifyContext, check_codazzi,
                            check_phi_convergence, check_ricci_rulings,
                            check_rulings_alpha_nonzero, check_s_constancy)
from oscflag.errors import DomainError, ParameterError, RegularityError
from oscflag.geometry import (ImmersionChart, box, drift, point_geometries,
                              point_geometry)
from oscflag.jets import first_partials, jet_constant, variables
from oscflag.nonparallel import (NonparallelData, PhiTensor, classify_case,
                                 codazzi_residual, nonparallel_data,
                                 phi_difference, phi_frame_fd, phi_frame_fds,
                                 phi_pairing)
from oscflag.ruled_extension import SplittingSpec
from p_parallel_fd import p_l_components, p_parallel_drift


@pytest.fixture(scope="module")
def curve_point():
    entry = get_entry("curve-parallel")
    rng = np.random.default_rng(4)
    x = entry.sampler(rng)
    geom = point_geometry(entry.chart, x, entry.max_normal_order)
    return entry, x, geom


def test_sphere_phi_empty():
    entry = get_entry("sphere", {"n": 2})
    rng = np.random.default_rng(1)
    geom = point_geometry(entry.chart, entry.sampler(rng), 2)
    phi = phi_pairing(geom)
    assert phi.is_empty
    nd = nonparallel_data(geom)
    assert nd.s == 0 and classify_case(nd, geom.n).label == "parallel"
    assert nd.phi_kernel.dim == geom.n


def test_torus_phi_vanishes_both_methods():
    entry = get_entry("product-torus")
    rng = np.random.default_rng(2)
    x = entry.sampler(rng)
    geom = point_geometry(entry.chart, x, 2)
    phi = phi_pairing(geom)
    assert phi.norm() < 1e-9
    fd = phi_frame_fd(entry.chart, x, 1e-3, geom=geom)
    assert fd.norm() < 1e-9
    nd = nonparallel_data(geom)
    assert nd.s == 0
    assert nd.D.dim == geom.n


def test_curve_phi_rank_one(curve_point):
    entry, x, geom = curve_point
    nd = nonparallel_data(geom)
    assert nd.p == 1 and nd.s == 1
    assert classify_case(nd, geom.n).label == "case-i"
    assert nd.diagnostics["s_containment_in_n1"] < 1e-8


def test_method_agreement_second_order(curve_point):
    entry, x, geom = curve_point
    phi = phi_pairing(geom)
    d1 = phi_difference(phi, phi_frame_fd(entry.chart, x, 1e-3, geom=geom))
    d2 = phi_difference(phi, phi_frame_fd(entry.chart, x, 5e-4, geom=geom))
    assert d1 > 1e-9  # a real discretization error, not noise
    assert 3.2 <= d1 / d2 <= 4.8


def test_methods_share_bases(curve_point):
    entry, x, geom = curve_point
    phi = phi_pairing(geom)
    fd = phi_frame_fd(entry.chart, x, 1e-3, geom=geom)
    np.testing.assert_array_equal(phi.mu_frame, fd.mu_frame)
    np.testing.assert_array_equal(phi.n1_basis, fd.n1_basis)
    with pytest.raises(ParameterError):
        phi_difference(phi, phi_frame_fd(entry.chart, x + 1e-3, 1e-3))


def test_phi_pairing_needs_third_derivatives():
    entry = get_entry("product-torus")
    rng = np.random.default_rng(2)
    geom = point_geometry(entry.chart, entry.sampler(rng), 1)
    with pytest.raises(ParameterError):
        phi_pairing(geom)


def test_product_phi_is_block_diagonal():
    # phi of a product splits over the factors: its span is the direct sum
    entry = get_entry("curve-product", {"factors": 2})
    rng = np.random.default_rng(6)
    x = entry.sampler(rng)
    geom = point_geometry(entry.chart, x, 2)
    nd = nonparallel_data(geom)
    assert nd.p == 2 and nd.s == 2
    assert nd.nu == geom.n - 2
    # each span vector lives in a single factor's ambient block
    for row in nd.S.basis:
        block_mass = [np.linalg.norm(row[:4]), np.linalg.norm(row[4:])]
        assert min(block_mass) < 1e-8 or max(block_mass) > 1 - 1e-8


def test_codazzi_residual_small(curve_point):
    entry, x, geom = curve_point
    fd_h, fd_h2 = (phi_frame_fd(entry.chart, x, h, geom=geom)
                   for h in (1e-3, 5e-4))
    values = (4.0 * fd_h2.values - fd_h.values) / 3.0
    richardson = dataclasses.replace(fd_h2, values=values)
    assert codazzi_residual(geom, richardson, np.random.default_rng(0)) < 1e-6
    # one phi(delta, e_a) entry moved by 1e-3 breaks the symmetry
    shifted = values.copy()
    shifted[0, 1, 0] += 1e-3
    shifted = dataclasses.replace(fd_h2, values=shifted)
    assert codazzi_residual(geom, shifted, np.random.default_rng(0)) > 1e-6


def test_frame_difference_checks_share_one_stencil_pair(curve_point,
                                                         monkeypatch):
    # phi_convergence and codazzi difference the complement frame at the
    # same 2n stencil points for each of the two steps: one chart call per
    # stencil, on its 2n points, and no PointGeometry built at any
    entry, x, geom = curve_point
    phi = phi_pairing(geom)
    assert not phi.is_empty
    rec = PointRecord(0, x, geom, nonparallel_data(geom), [])
    ctx = VerifyContext(entry, [rec], 0, 1e-8)
    evaluated, built = [], []

    def recording(real, calls):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(entry.chart, "fn",
                        recording(entry.chart.fn, evaluated))
    monkeypatch.setattr(geometry, "PointGeometry",
                        recording(geometry.PointGeometry, built))
    monkeypatch.setattr(nonparallel, "point_geometry",
                        recording(nonparallel.point_geometry, built))
    assert check_phi_convergence(ctx).passed and check_codazzi(ctx).passed
    assert [len(points) for points, _ in evaluated] == [2 * geom.n] * 2
    assert not built


def _stencil_chart(k: float) -> ImmersionChart:
    """(u, v, u^2, uv, k u v^2 / 2, 0) on a box whose v-range ends at
    5e-4: at the origin the second osculating space has rank 4, at (u, 0)
    the fifth direction has singular value about |k u|, and a stencil of
    step 1e-3 leaves the box at its third point, (0, 1e-3)."""
    def fn(x, order):
        u, v = variables(x, order)
        return columns([u, v, u * u, u * v, u * v * v * (k / 2.0),
                        jet_constant(2, order, 0.0)])

    return ImmersionChart(f"stencil-{k}", 2, 6, box([-1.0, -1.0],
                                                    [1.0, 5e-4]), fn, 4)


@pytest.mark.parametrize("k,error,point", [
    # (1e-3, 0) is rank-ambiguous: its singular value 5e-8 lies inside the
    # band (tol/10, tol*10) times the largest; it comes before the point
    # that leaves the box
    (5e-5, RegularityError, [1e-3, 0.0]),
    # no point is ambiguous: the one outside the box decides
    (0.0, DomainError, [0.0, 1e-3]),
])
def test_stencil_raises_at_its_first_failing_point(k, error, point):
    chart = _stencil_chart(k)
    geom = point_geometry(chart, [0.0, 0.0], 1)
    assert geom.first_normal.dim == 2
    with pytest.raises(error) as raised:
        phi_frame_fd(chart, geom.x, 1e-3, geom=geom)
    assert str(np.array(point)) in str(raised.value)


@pytest.mark.parametrize("points,error,bad", [
    # the ambiguous point comes first, then the one outside the box
    ([[0.5, -0.5], [1e-3, 0.0], [0.0, 1e-3]], RegularityError, [1e-3, 0.0]),
    ([[0.5, -0.5], [0.0, 1e-3], [1e-3, 0.0]], DomainError, [0.0, 1e-3]),
])
def test_point_geometries_stop_at_first_failing_point(points, error, bad):
    # the geometries before it, and the error its batch of one raises
    chart = _stencil_chart(5e-5)
    geoms, got = point_geometries(chart, points, 1)
    assert len(geoms) == 1
    assert_same_geometry(geoms[0], point_geometry(chart, points[0], 1))
    assert isinstance(got, error) and str(np.array(bad)) in str(got)
    with pytest.raises(error) as single:
        point_geometry(chart, bad, 1)
    assert str(single.value) == str(got)


def test_point_geometries_group_points_by_flag_dimensions():
    # the first normal space has dimension 2 at the origin and 3 at the
    # other points: the flag stages of each dimension take their own batch,
    # and every geometry equals its batch of one
    chart = _stencil_chart(5e-5)
    points = [[0.5, -0.5], [0.0, 0.0], [0.2, -0.3]]
    geoms, error = point_geometries(chart, points, 2)
    assert error is None
    assert [g.first_normal.dim for g in geoms] == [3, 2, 3]
    for x, geom in zip(points, geoms):
        assert_same_geometry(geom, point_geometry(chart, x, 2))


@pytest.mark.parametrize("name,params", [("section4-ruled", {"m": 2}),
                                         ("curve-parallel", {})])
def test_phi_frame_fds_equal_per_centre(name, params):
    # the stencils of all centres in one audit, each centre differenced
    # with its own pivots (section4-ruled picks (8, 9) at some and (9, 8) at
    # others): each phi equals that centre's batch of one
    entry = get_entry(name, params)
    records, _ = verify._sample_points(
        entry, verify.RunConfig(name, params, samples=4, seed=3))
    geoms = [rec.geom for rec in records]
    for h in (1e-3, 5e-4):
        for geom, phi in zip(geoms, phi_frame_fds(entry.chart, geoms, h),
                             strict=True):
            single = phi_frame_fd(entry.chart, geom.x, h, geom=geom)
            assert not phi.is_empty
            for got, want in ((phi.values, single.values),
                              (phi.mu_frame, single.mu_frame),
                              (phi.n1_basis, single.n1_basis)):
                assert np.array_equal(got, want)


def test_phi_frame_fds_raise_the_first_failing_centre():
    # centre (0, 0) fails at its ambiguous stencil point (1e-3, 0), centre
    # (0.3, 4e-4) where its stencil leaves the box; a batch raises the
    # error of whichever comes first, as its batch of one does
    chart = _stencil_chart(5e-5)
    good, ambiguous, edge = (point_geometry(chart, x, 1) for x in
                             ([0.5, -0.5], [0.0, 0.0], [0.3, 4e-4]))
    singles = {}
    for geom, error in ((ambiguous, RegularityError), (edge, DomainError)):
        with pytest.raises(error) as raised:
            phi_frame_fd(chart, geom.x, 1e-3, geom=geom)
        singles[id(geom)] = raised.value
    for geoms in ([good, ambiguous, edge], [good, edge, ambiguous],
                  [edge, good, ambiguous]):
        want = singles[id(next(g for g in geoms if g is not good))]
        with pytest.raises(type(want)) as raised:
            phi_frame_fds(chart, geoms, 1e-3)
        assert str(raised.value) == str(want)


def test_one_phi_per_geometry(monkeypatch):
    # each record's geometry computes phi once, during sampling; the default
    # split exercise, p_parallel_drift and the extension read it from there
    real, calls, after_sampling = nonparallel.phi_pairing, [], []

    def counting(geom):
        calls.append(geom)
        return real(geom)

    def sampling(entry, config):
        out = real_sampling(entry, config)
        after_sampling.append(len(calls))
        return out

    for module in (nonparallel, ruled_extension, verify):
        # every module binding the name, so no direct import escapes
        if getattr(module, "phi_pairing", None) is real:
            monkeypatch.setattr(module, "phi_pairing", counting)
    real_sampling = verify._sample_points
    monkeypatch.setattr(verify, "_sample_points", sampling)
    report = verify.run_verification(verify.RunConfig(
        "section4-ruled", {"m": 2}, samples=4, seed=11))
    assert report.passed, report.findings
    assert after_sampling[0] >= 4
    assert after_sampling == [len(calls)]


def test_p_parallel_drift_second_order():
    # the stencil oracle's L-components of P-frame derivatives converge at
    # second order to L (d_w Pi_P) mu from the exact Pi_P jet; along E they
    # are Gamma's L-part, along D both methods sit at the rounding floor
    entry = get_entry("section4-ruled", {"m": 2})
    rng = np.random.default_rng(8)
    x = entry.sampler(rng)
    geom = point_geometry(entry.chart, x, entry.max_normal_order)
    nd = nonparallel_data(geom)
    pi_p = SplittingSpec(entry.chart).at(geom, 1).pi_p
    d_p = first_partials(pi_p[:geom.n + 1])
    l_basis = sub.complement_within(nd.S, geom.first_normal).basis
    e_basis = sub.complement_within(nd.D, sub.full(geom.n)).basis
    fd = [p_l_components(entry.chart, geom, nd, h, e_basis)
          for h in (1e-3, 5e-4)]
    mu = fd[0][1]
    exact = np.array([mu @ np.tensordot(w @ geom.frame_in_chart, d_p, 1).T
                      @ l_basis.T for w in e_basis])
    assert np.linalg.norm(exact) > 0.1
    d_h, d_h2 = (np.linalg.norm(values - exact) for values, _ in fd)
    assert 3.2 <= d_h / d_h2 <= 4.8, (d_h, d_h2)
    along_d = nd.D.basis @ geom.frame_in_chart
    identity = drift(pi_p, along_d)
    r1 = p_parallel_drift(entry.chart, geom, nd, 1e-3)
    r2 = p_parallel_drift(entry.chart, geom, nd, 5e-4)
    assert identity < 1e-10
    assert max(r1, r2) < 1e-9


# ---------------------------------------------------------------------------
# Synthetic classification cases


def synthetic_nd(s, p, n, d_dim, nu):
    phi = PhiTensor(np.zeros((1, n, max(p, 1))), np.zeros((1, 8)),
                    np.zeros((max(p, 1), 8)))
    basis = np.eye(n)
    return NonparallelData(
        phi=phi, S=sub.Subspace(8, np.eye(8)[:s].copy()), s=s,
        D=sub.Subspace(n, basis[:d_dim].copy()), p=p,
        nullity=sub.Subspace(n, basis[:nu].copy()), nu=nu,
        phi_kernel=sub.Subspace(n, basis[:d_dim].copy()), diagnostics={})


def rulings_context(alpha, d_dim=2):
    nd = synthetic_nd(s=1, p=2, n=2, d_dim=d_dim, nu=0)
    rec = PointRecord(index=0, x=np.zeros(2),
                      geom=SimpleNamespace(alpha=alpha), nd=nd,
                      nu_s=[])
    return VerifyContext(entry=None, records=[rec], seed=0, rank_tol=1e-8)


def test_rulings_alpha_nonzero_is_basis_independent():
    u = np.array([1.0, 0.0, 2.0])
    # alpha(e1, .) = -alpha(e2, .) != 0: each basis vector of D sees a
    # nonzero alpha, yet the ruling e1 + e2 lies in the relative nullity
    alpha = np.array([[u, -u], [-u, u]])
    result = check_rulings_alpha_nonzero(rulings_context(alpha))
    assert not result.passed
    assert result.residual < 1e-12
    # independent alpha(e1, .) and alpha(e2, .): every ruling is detected
    v = np.array([0.0, 1.0, 0.0])
    alpha = np.array([[u, v], [v, np.zeros(3)]])
    result = check_rulings_alpha_nonzero(rulings_context(alpha))
    assert result.passed and result.residual > 0.1
    # no ruling directions at any point: nothing was checked, which fails
    result = check_rulings_alpha_nonzero(rulings_context(alpha, d_dim=0))
    assert not result.passed
    assert result.details == {"reason": "no ruling directions"}


def test_ruling_checks_are_basis_independent():
    # a rotated orthonormal basis of the same ruling space must give the
    # same residuals: the checks sample the space, not its basis vectors
    entry = get_entry("section4-ruled", {"m": 2})
    c, s = np.cos(0.7), np.sin(0.7)
    rotation = np.array([[c, s], [-s, c]])

    def context(rotation, space=lambda nd: nd.D):
        records = []
        for i in range(2):
            x = entry.sampler(np.random.default_rng(10 + i))
            geom = point_geometry(entry.chart, x, 3)
            nd = nonparallel_data(geom)
            nd = dataclasses.replace(nd, D=sub.Subspace(
                geom.n, rotation @ space(nd).basis))
            records.append(PointRecord(i, x, geom, nd, []))
        return VerifyContext(entry, records, 0, 1e-8)

    plain, rotated = context(np.eye(2)), context(rotation)
    a, b = check_ricci_rulings(plain), check_ricci_rulings(rotated)
    assert a.passed and b.passed
    np.testing.assert_allclose(b.residual, a.residual, rtol=1e-12)
    a, b = (check_s_constancy(ctx, ratio=True) for ctx in (plain, rotated))
    assert a.passed and b.passed and a.details["fd_ratios"]
    np.testing.assert_allclose(b.details["fd_ratios"],
                               a.details["fd_ratios"], rtol=1e-12)

    # along D the exact S drift sits at the rounding floor (~1e-13), where
    # the last digits of the direction frame move it; along E, the
    # complement of D (2-dimensional here too), it is O(1), and a rotated
    # basis of E must give it to 1e-12
    def along_e(nd):
        return sub.complement_within(nd.D, sub.full(nd.D.ambient_dim))

    a, b = (check_s_constancy(context(r, along_e), ratio=False)
            for r in (np.eye(2), rotation))
    assert a.residual > 1e-2 and not a.passed
    np.testing.assert_allclose(b.residual, a.residual, rtol=1e-12)


def test_classify_parallel():
    nd = synthetic_nd(s=0, p=2, n=5, d_dim=5, nu=5)
    assert classify_case(nd, 5).label == "parallel"


def test_classify_case_i_checks_nullity():
    nd = synthetic_nd(s=3, p=3, n=5, d_dim=2, nu=2)
    result = classify_case(nd, 5)
    assert result.label == "case-i"
    assert all(c.passed for c in result.checks)
    bad = synthetic_nd(s=3, p=3, n=5, d_dim=2, nu=1)
    result = classify_case(bad, 5)
    assert result.label == "case-i"
    assert any(not c.passed for c in result.checks)


def test_classify_case_ii():
    nd = synthetic_nd(s=1, p=3, n=5, d_dim=4, nu=2)
    assert classify_case(nd, 5).label == "case-ii"


def test_classify_case_iii_sublabels():
    nd = synthetic_nd(s=2, p=4, n=5, d_dim=3, nu=0)
    assert classify_case(nd, 5, k=2, d_ruled=True).label == "case-iii-a"
    assert classify_case(nd, 5, k=2, d_ruled=False).label == "case-iii-b"
    # fallback on the derivative-span rank when no ruledness verdict exists
    assert classify_case(nd, 5, k=4).label == "case-iii-a"
    assert classify_case(nd, 5, k=3).label == "case-iii-b"
    assert classify_case(nd, 5).label == "case-iii"


def test_classify_rank_band_check_for_s2():
    nd = synthetic_nd(s=2, p=4, n=6, d_dim=4, nu=0)
    result = classify_case(nd, 6, k=5, d_ruled=False)
    band = [c for c in result.checks if c.name == "gamma-rank-at-most-four"]
    assert band and not band[0].passed
    result = classify_case(nd, 6, k=4, d_ruled=False)
    band = [c for c in result.checks if c.name == "gamma-rank-at-most-four"]
    assert band and band[0].passed


def test_classify_out_of_scope():
    assert classify_case(synthetic_nd(s=7, p=9, n=12, d_dim=5, nu=0),
                         12).label == "out-of-theorem-scope"
    assert classify_case(synthetic_nd(s=3, p=4, n=3, d_dim=0, nu=0),
                         3).label == "out-of-theorem-scope"


def test_classify_ruling_bound_reported():
    nd = synthetic_nd(s=2, p=4, n=5, d_dim=2, nu=0)  # dim D < n - s
    result = classify_case(nd, 5, k=2, d_ruled=True)
    bound = [c for c in result.checks if c.name == "ruling-dimension-bound"]
    assert bound and not bound[0].passed
