"""Nonparallelism tensor: two-method agreement, spans, classification."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from oscflag import subspaces as sub
from oscflag.catalog import get_entry
from oscflag.checks import (PointRecord, VerifyContext, check_ricci_rulings,
                            check_rulings_alpha_nonzero, check_s_constancy)
from oscflag.errors import ParameterError
from oscflag.geometry import drift, point_geometry
from oscflag.jets import first_partials
from oscflag.nonparallel import (NonparallelData, PhiTensor, classify_case,
                                 codazzi_residual, nonparallel_data,
                                 phi_difference, phi_frame_fd, phi_pairing)
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
    nd = nonparallel_data(geom, phi)
    assert nd.s == 0 and nd.case_label == "parallel"
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
    nd = nonparallel_data(geom, phi)
    assert nd.s == 0
    assert nd.D.dim == geom.n


def test_curve_phi_rank_one(curve_point):
    entry, x, geom = curve_point
    phi = phi_pairing(geom)
    nd = nonparallel_data(geom, phi)
    assert nd.p == 1 and nd.s == 1
    assert nd.case_label == "case-i"
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
    nd = nonparallel_data(geom, phi_pairing(geom))
    assert nd.p == 2 and nd.s == 2
    assert nd.nu == geom.n - 2
    # each span vector lives in a single factor's ambient block
    for row in nd.S.basis:
        block_mass = [np.linalg.norm(row[:4]), np.linalg.norm(row[4:])]
        assert min(block_mass) < 1e-8 or max(block_mass) > 1 - 1e-8


def test_codazzi_residual_small(curve_point):
    entry, x, geom = curve_point
    res = codazzi_residual(entry.chart, geom, 1e-3,
                           np.random.default_rng(0))
    assert res < 1e-6


def test_p_parallel_drift_second_order():
    # the stencil oracle's L-components of P-frame derivatives converge at
    # second order to L (d_w Pi_P) mu from the exact Pi_P jet; along E they
    # are Gamma's L-part, along D both methods sit at the rounding floor
    entry = get_entry("section4-ruled", {"m": 2})
    rng = np.random.default_rng(8)
    x = entry.sampler(rng)
    geom = point_geometry(entry.chart, x, entry.max_normal_order)
    nd = nonparallel_data(geom, phi_pairing(geom))
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
    phi = PhiTensor(np.zeros((1, n, max(p, 1))), np.zeros((1, 8)), (0,),
                    np.zeros((max(p, 1), 8)), "pairing")
    basis = np.eye(n)
    return NonparallelData(
        phi=phi, S=sub.Subspace(8, np.eye(8)[:s].copy()), s=s,
        D=sub.Subspace(n, basis[:d_dim].copy()), p=p,
        nullity=sub.Subspace(n, basis[:nu].copy()), nu=nu,
        phi_kernel=sub.Subspace(n, basis[:d_dim].copy()),
        case_label="?", diagnostics={})


def rulings_context(alpha):
    nd = synthetic_nd(s=1, p=2, n=2, d_dim=2, nu=0)
    rec = PointRecord(index=0, x=np.zeros(2),
                      geom=SimpleNamespace(alpha=alpha), phi=nd.phi, nd=nd,
                      nu_s=[])
    return VerifyContext(entry=None, config=None, records=[rec], seed=0,
                         fd_step=1e-3, rank_tol=1e-8)


def test_rulings_alpha_nonzero_is_basis_independent():
    u = np.array([1.0, 0.0, 2.0])
    # alpha(e1, .) = -alpha(e2, .) != 0: each basis vector of D sees a
    # nonzero alpha, yet the ruling e1 + e2 lies in the relative nullity
    alpha = np.array([[u, -u], [-u, u]])
    result = check_rulings_alpha_nonzero(rulings_context(alpha), 1e-6)
    assert not result.passed
    assert result.residual < 1e-12
    # independent alpha(e1, .) and alpha(e2, .): every ruling is detected
    v = np.array([0.0, 1.0, 0.0])
    alpha = np.array([[u, v], [v, np.zeros(3)]])
    result = check_rulings_alpha_nonzero(rulings_context(alpha), 1e-6)
    assert result.passed and result.residual > 0.1


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
            phi = phi_pairing(geom)
            nd = nonparallel_data(geom, phi)
            nd = dataclasses.replace(nd, D=sub.Subspace(
                geom.n, rotation @ space(nd).basis))
            records.append(PointRecord(i, x, geom, phi, nd, []))
        return VerifyContext(entry, None, records, 0, 1e-3, 1e-8)

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
