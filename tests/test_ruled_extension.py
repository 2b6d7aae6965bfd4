"""Splitting pipeline: gamma span, lambda complement, extension building."""

import numpy as np
import pytest

from commutator_fd import commutator_residual_fd
from extension_fd import extension_second_fd
from gamma_fd import gamma_values_fd
from oscflag import checks, ruled_extension, verify
from oscflag import subspaces as sub
from oscflag.catalog import get_entry
from oscflag.errors import ParameterError, ShapeError
from oscflag.geometry import (ImmersionChart, eval_jet, frame_derivative,
                              point_geometry, projection_frame,
                              relative_nullity, span_projector)
from oscflag.jets import (first_partials, jet_variable, matrix_product,
                          partial_jets, signature)
from oscflag.nonparallel import nonparallel_data, phi_pairing
from oscflag.ruled_extension import (RuledExtension, SplittingSpec,
                                     _commutator_residual, build_extension,
                                     verify_extension)


def split_at(spec, x, order=1):
    """The split at a bare point x, from its order-3 geometry."""
    return spec.at(point_geometry(spec.chart, x, 2, spec.tol), order)


def splits_at(spec, points):
    return [split_at(spec, x) for x in points]


def torus_rows(geom, partials, order):
    """Order-``order`` rows spanned by the given second partials of the
    product torus chart, from its jet at order + 2."""
    # partial_jets order: by degree, then descending lexicographic
    graded = sorted((m for m in signature(geom.n, 2).monomials if sum(m)),
                    key=lambda m: (sum(m), tuple(-e for e in m)))
    table = geom.chart.eval(geom.x, order + 2).coeffs
    return partial_jets(table, geom.n, 2, order)[
        :, [graded.index(p) for p in partials]]


def constant_rule(rows_of):
    """A rule whose rows are frozen: only its value at the point matters to
    the rank and normality checks it is meant to trip."""
    def rule(geom, order):
        rows = np.atleast_2d(rows_of(geom))
        table = np.zeros((signature(geom.n, order).size,) + rows.shape)
        table[0] = rows
        return table
    return rule


@pytest.fixture(scope="module")
def curve_entry():
    return get_entry("curve-parallel")


def torus_split_rule(geom, order):
    """L spans the curvature direction of the first circle factor, so the
    complementary kernel contains that factor's coordinate direction.  That
    direction is f_uu, which is normal on the flat torus."""
    return torus_rows(geom, [(2, 0)], order)


def test_whole_normal_bundle_is_forbidden():
    entry = get_entry("product-torus")
    spec = SplittingSpec(entry.chart,
                         rule=constant_rule(lambda geom:
                                            geom.normal_space.basis))
    with pytest.raises(ParameterError):
        split_at(spec, np.array([1.0, 1.5]))


def test_l_must_be_normal():
    entry = get_entry("product-torus")
    spec = SplittingSpec(entry.chart,
                         rule=constant_rule(lambda geom: geom.frame[0]))
    with pytest.raises(ParameterError):
        split_at(spec, np.array([1.0, 1.5]))


def test_rule_must_return_order_one_rows():
    # rows without their jet axis do not follow the rule contract
    entry = get_entry("product-torus")
    spec = SplittingSpec(entry.chart,
                         rule=lambda geom, order:
                         torus_rows(geom, [(2, 0)], order)[0])
    with pytest.raises(ShapeError):
        split_at(spec, np.array([1.0, 1.5]))


def test_torus_split_dimension_arithmetic():
    # d + r = n + ell - k exactly, whatever k the span detection finds
    entry = get_entry("product-torus")
    spec = SplittingSpec(entry.chart, rule=torus_split_rule)
    for x in ([1.0, 1.5], [2.0, 0.7], [0.8, 3.1]):
        x = np.array(x)
        split = split_at(spec, x)
        assert split.d == 1 and split.ell == 1
        n, k, r = split.geom.n, split.Gamma.dim, split.Lambda.dim
        assert split.d + r == n + split.ell - k
        assert split.Delta.dim == split.d + r
        assert n - split.d <= k <= n - split.d + split.ell


@pytest.mark.parametrize("exercise_index,expected_k,expected_r",
                         [(0, 1, 1), (1, 2, 0), (2, 2, 1)])
def test_curve_exercises_hit_expected_ranks(curve_entry, exercise_index,
                                            expected_k, expected_r):
    exercise = curve_entry.split_exercises[exercise_index]
    spec = SplittingSpec(curve_entry.chart, rule=exercise.rule)
    rng = np.random.default_rng(3)
    x = curve_entry.sampler(rng)
    split = split_at(spec, x)
    assert split.Gamma.dim == expected_k
    assert split.Lambda.dim == expected_r
    if expected_r:  # Lambda meets the tangent trivially
        assert sub.smallest_angle_between(split.Lambda,
                                          split.geom.tangent) > 1e-6


def test_trivial_extension_is_base_chart(curve_entry):
    exercise = curve_entry.split_exercises[1]  # rotating line: r = 0
    spec = SplittingSpec(curve_entry.chart, rule=exercise.rule)
    rng = np.random.default_rng(4)
    pts = [curve_entry.sampler(rng) for _ in range(2)]
    ext = build_extension(spec, 0.1, splits_at(spec, pts))
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
    ext = build_extension(spec, 50.0, splits_at(spec, pts))
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
    ext = build_extension(spec, exercise.lambda_radius,
                          splits_at(spec, pts))
    assert ext.r == 1
    checks = verify_extension(ext, pts[:2], tol=1e-5, seed=0)
    failures = {c.name: (c.residual, c.tolerance)
                for c in checks if not c.passed}
    assert not failures, failures
    # the extension adds back a parallel direction: a curve chart one
    # dimension up, whose nullity exceeds the ruling bundle by construction
    geom = point_geometry(ext.chart, np.append(pts[0], 0.03), 1, 1e-8)
    assert relative_nullity(geom)[1] == curve_entry.chart.intrinsic_dim
    assert geom.first_normal.dim == 1


def test_extension_needs_chart_order_four():
    # the extension's second form needs Pi_Lambda to order 2, hence Pi_T to
    # order 3: the smallest curve chart with witnesses declares order 4
    entry = get_entry("curve-parallel", {"n": 2, "N": 5})
    assert entry.chart.max_order == 4
    exercise = entry.split_exercises[0]
    spec = SplittingSpec(entry.chart, rule=exercise.rule)
    rng = np.random.default_rng(6)
    pts = [entry.sampler(rng) for _ in range(2)]
    ext = build_extension(spec, exercise.lambda_radius,
                          splits_at(spec, pts))
    checks = verify_extension(ext, pts, tol=1e-5, seed=0)
    failures = [c for c in checks if not c.passed]
    assert not failures, failures
    geom = point_geometry(ext.chart, np.append(pts[0], 0.03), 1, 1e-8)
    assert relative_nullity(geom)[1] == 2 and geom.first_normal.dim == 1


def test_chart_order_shortfall_fails_the_exercise(monkeypatch):
    # the default rule needs the chart to order 6 for the extension's second
    # form; a chart declaring 5 fails the exercise instead of the run
    def lowered(name, params=None):
        entry = get_entry(name, params)
        entry.chart.max_order = 5
        return entry

    monkeypatch.setattr(verify, "get_entry", lowered)
    report = verify.run_verification(verify.RunConfig(
        entry="section4-ruled", params={"m": 2}, samples=2))
    failed = {v["name"]: v["details"] for v in report.verdicts
              if not v["passed"]}
    assert list(failed) == ["split_exercise:default"]
    assert "order 6 requested" in failed["split_exercise:default"]["error"]


def test_gamma_rank_band_guard():
    # feeding a bogus kernel situation must trip the band check, not pass
    entry = get_entry("product-torus")

    def bad_rule(geom, order):
        # L contains both curvature directions: alpha_P vanishes and the
        # kernel is everything, leaving E empty and the band degenerate
        return torus_rows(geom, [(2, 0), (0, 2)], order)

    spec = SplittingSpec(entry.chart, rule=bad_rule)
    split = split_at(spec, np.array([1.0, 1.5]))
    assert split.d == 2  # kernel is the whole tangent space
    assert split.Gamma.dim == 0  # no E directions: empty span, band [0, 2]


def sheared(chart, amount):
    """The same immersion in the coordinates x_i + amount * x_(i+1)^2, in
    which D is no longer spanned by coordinate directions."""
    n = chart.intrinsic_dim

    def fn(v):
        return chart.fn([v[i] + amount * (v[(i + 1) % n] * v[(i + 1) % n])
                         for i in range(n)])
    return ImmersionChart(chart.name + "-sheared", n, chart.ambient_dim,
                          chart.domain, fn, chart.max_order)


def gamma_gap_fd(spec, split, rows):
    """Largest angle between ``split.Gamma`` and the span of the leading
    dim-Gamma singular directions of the oracle's rows."""
    top = np.linalg.svd(rows)[2][:split.Gamma.dim]
    return sub.subspace_gap(sub.Subspace(rows.shape[1], top), split.Gamma)


@pytest.mark.parametrize("name,params,index",
                         [("section4-ruled", {"m": 2}, 0),
                          ("curve-parallel", {}, 0),
                          ("curve-parallel", {}, 1),
                          ("curve-parallel", {}, 2)])
def test_exact_gamma_against_fd_oracle(name, params, index):
    # the stencil oracle converges at second order to the exact values and,
    # in span, to the Gamma of split_jets, which has the declared dimension;
    # where Gamma fills E + L (r = 0) the span gap sits at rounding level
    entry = get_entry(name, params)
    exercise = entry.split_exercises[index]
    spec = SplittingSpec(entry.chart, rule=exercise.rule)
    x = entry.sampler(np.random.default_rng(7))
    split = split_at(spec, x)
    assert split.Gamma.dim == exercise.expected["k"]
    geom = split.geom
    # (Pi_E + Pi_L)(d_w Pi_P) mu at the point, from the order-1 jets
    d_p = first_partials(split.pi_p[:geom.n + 1])
    e_l = split.pi_e[0] + split.L.projector()
    exact = np.array([e_l @ np.tensordot(w @ geom.frame_in_chart, d_p, 1)
                      @ mu for w in split.E.basis for mu in split.P.basis])
    rows = [gamma_values_fd(spec, split, h) for h in (1e-3, 5e-4)]
    d_h, d_h2 = (np.linalg.norm(fd - exact) for fd in rows)
    assert 3.2 <= d_h / d_h2 <= 4.8, (d_h, d_h2)
    g_h, g_h2 = (gamma_gap_fd(spec, split, fd) for fd in rows)
    if exercise.expected["r"]:
        assert 3.2 <= g_h / g_h2 <= 4.8, (g_h, g_h2)
    else:
        assert max(g_h, g_h2) < 1e-12, (g_h, g_h2)


def turning_rule(amount, a, b):
    """L spanned by the normal part of a + s b, s the first ruling
    coordinate of the curve chart before ``sheared(chart, amount)``."""
    def rule(geom, order):
        n, sig = geom.n, signature(geom.n, order)
        u = [jet_variable(n, order, i, geom.x[i]) for i in range(n)]
        s = u[1] + amount * (u[2] * u[2])
        table = geom.chart.eval(geom.x, order + 1).coeffs
        pi_n = -span_projector(sig, partial_jets(table, n, 1, order), 1e-8)[1]
        pi_n[0] += np.eye(geom.ambient_dim)
        v = np.outer(s.coeffs, b)[:, :, None]
        v[0, :, 0] += a
        return matrix_product(sig, pi_n, v).swapaxes(1, 2)
    return rule


def test_gamma_differentiates_along_e_only():
    # L turns along the rulings, so P is not parallel along D and the
    # D-derivatives of P leave Gamma; in sheared coordinates E is not the
    # Euclidean complement of D, so Gamma must reach E through the metric
    entry = get_entry("curve-parallel")
    a, b = np.random.default_rng(1).normal(size=(2, entry.chart.ambient_dim))
    spec = SplittingSpec(sheared(entry.chart, 0.3),
                         rule=turning_rule(0.3, a, b))
    split = split_at(spec, entry.sampler(np.random.default_rng(7)))
    assert (split.d, split.Gamma.dim) == (2, 1)
    along_d = gamma_values_fd(spec, split, 1e-3, split.D.basis)
    assert np.linalg.norm(split.Gamma.reject(along_d)) > 1e-2
    g_h, g_h2 = (gamma_gap_fd(spec, split, gamma_values_fd(spec, split, h))
                 for h in (1e-3, 5e-4))
    assert 3.2 <= g_h / g_h2 <= 4.8, (g_h, g_h2)


def test_one_point_geometry_per_extension_point(monkeypatch):
    # Gamma and Lambda come from the split's projector jets, so a fresh
    # extension point costs one splitting evaluation and no stencil
    entry = get_entry("section4-ruled", {"m": 2})
    spec = SplittingSpec(entry.chart)
    rng = np.random.default_rng(7)
    lam = split_at(spec, entry.sampler(rng)).Lambda
    ext = RuledExtension(spec, projection_frame(lam)[1], lam.dim, 0.08)
    calls = []
    real = ruled_extension.point_geometry

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(ruled_extension, "point_geometry", counting)
    ext.eval(entry.sampler(rng), np.zeros(ext.r))
    assert len(calls) == 1


def test_record_split_evaluates_no_chart(monkeypatch):
    # the default rule at order 1 needs the chart jet to order 4, which a
    # section4 record's geometry (max_normal_order 3) already holds
    entry = get_entry("section4-ruled", {"m": 2})
    x = entry.sampler(np.random.default_rng(7))
    geom = point_geometry(entry.chart, x, entry.max_normal_order)
    orders = []
    real = ImmersionChart.eval

    def counting(self, y, order):
        orders.append(order)
        return real(self, y, order)

    monkeypatch.setattr(ImmersionChart, "eval", counting)
    split = SplittingSpec(entry.chart).at(geom, 1)
    assert orders == []
    assert split.d == 2 and split.Lambda.dim == 2


@pytest.mark.parametrize("name,params", [("section4-ruled", {"m": 2}),
                                         ("curve-parallel", {})])
def test_run_evaluates_no_chart_twice_at_a_point(name, params, monkeypatch):
    # each record's geometry is the one source of its chart jet, so no
    # chart is evaluated twice at the same point and order
    seen = []
    real = ImmersionChart.eval

    def counting(self, y, order):
        seen.append((self, np.asarray(y, dtype=float).tobytes(), order))
        return real(self, y, order)

    monkeypatch.setattr(ImmersionChart, "eval", counting)
    report = verify.run_verification(verify.RunConfig(name, params,
                                                      samples=3))
    assert report.passed, report.findings
    assert len(set(seen)) == len(seen)


def test_default_rule_takes_s_from_phi():
    # at this section4 m=3 point the rows of Pi_S's jet carry two spurious
    # singular values near 5e-8, so a rank read off them exceeds s = 2 and
    # L shrinks to rank 1; with s from phi the split has the sharp ranks
    entry = get_entry("section4-ruled", {"m": 3})
    x = np.array([0.110, 0.018, -0.097, 0.032, 0.010, 0.0])
    geom = point_geometry(entry.chart, x, entry.max_normal_order)
    assert nonparallel_data(geom, phi_pairing(geom)).s == 2
    split = SplittingSpec(entry.chart).at(geom, 1)
    assert (split.ell, split.Gamma.dim, split.Lambda.dim) == (2, 2, 2)
    assert split.d == 4 == geom.n - 2


EXTENSION_CASES = [("section4-ruled", {"m": 2}, 0),
                   ("curve-parallel", {}, 0),
                   ("curve-parallel", {}, 2)]


@pytest.mark.parametrize("name,params,index", EXTENSION_CASES)
def test_extension_second_form_against_fd_oracle(name, params, index):
    # central differences of eval converge at second order to the extension
    # chart's exact first partials and, in the normal directions, to its
    # exact second partials
    entry = get_entry(name, params)
    exercise = entry.split_exercises[index]
    spec = SplittingSpec(entry.chart, rule=exercise.rule)
    rng = np.random.default_rng(7)
    pts = [entry.sampler(rng) for _ in range(2)]
    ext = build_extension(spec, exercise.lambda_radius,
                          splits_at(spec, pts))
    lam = 0.5 * ext.lambda_radius * np.ones(ext.r) / np.sqrt(ext.r)
    point = np.concatenate([pts[0], lam])
    normal = point_geometry(ext.chart, point, 1, 1e-8).normal_space
    exact = normal.project(eval_jet(ext.chart, point, 2).tensor(2))
    d_h, d_h2 = (np.linalg.norm(normal.project(
        extension_second_fd(ext, pts[0], lam, h)) - exact)
        for h in (1e-3, 5e-4))
    assert 3.2 <= d_h / d_h2 <= 4.8, (d_h, d_h2)
    n = entry.chart.intrinsic_dim
    j_h, j_h2 = (np.linalg.norm(frame_derivative(
        lambda p: ext.eval(p[:n], p[n:]), point, np.eye(point.size), h)
        - ext.jacobian(pts[0], lam)) for h in (1e-3, 5e-4))
    assert 3.2 <= j_h / j_h2 <= 4.8, (j_h, j_h2)


def test_exact_commutator_against_fd_oracle():
    # the chart partials of Q_D converge under central differences of the
    # order-0 projector, and with them the projector identity and the frame
    # stencil agree that D is integrable (the stencil at its rounding floor)
    entry = get_entry("section4-ruled", {"m": 2})
    spec = SplittingSpec(sheared(entry.chart, 0.2))
    split = split_at(spec, entry.sampler(np.random.default_rng(7)), 2)
    n = split.geom.n
    assert split.d == 2
    exact = first_partials(split.q_d[:n + 1])
    d_h, d_h2 = (np.linalg.norm(frame_derivative(
        lambda y: split_at(spec, y, 0).q_d[0], split.geom.x, np.eye(n), h)
        - exact) for h in (1e-3, 5e-4))
    assert 3.2 <= d_h / d_h2 <= 4.8, (d_h, d_h2)
    residual = _commutator_residual(split)
    stencil = commutator_residual_fd(spec, split, 1e-3)
    assert residual < 1e-10 and stencil < 1e-8, (residual, stencil)


def test_extension_evaluated_only_at_vetted_points(monkeypatch):
    # every point at which the extension chart reads a split is a sampled
    # point, and k and r are read off an order-1 split at every one of them
    vetted, lambda_points, order_one = [], set(), set()
    real_exercise = checks.check_split_exercise
    real_lambda_split = ruled_extension._lambda_split
    real_at = SplittingSpec.at

    def exercise(ctx, index):
        vetted.extend(rec.x.tobytes() for rec in ctx.records)
        return real_exercise(ctx, index)

    def lambda_split(spec, r, splits, x, order):
        lambda_points.add(np.asarray(x, dtype=float).tobytes())
        return real_lambda_split(spec, r, splits, x, order)

    def at(self, geom, order=1):
        if order == 1:
            order_one.add(geom.x.tobytes())
        return real_at(self, geom, order)

    monkeypatch.setattr(checks, "check_split_exercise", exercise)
    monkeypatch.setattr(ruled_extension, "_lambda_split", lambda_split)
    monkeypatch.setattr(SplittingSpec, "at", at)
    report = verify.run_verification(verify.RunConfig(
        "curve-parallel", {}, samples=5, seed=7))
    assert report.passed, report.findings
    assert len(vetted) == 3 * 5  # three exercises, five records each
    assert lambda_points and lambda_points <= set(vetted)
    assert set(vetted) <= order_one


def test_section4_m3_run_has_no_findings():
    # the exercise splits at the sampled points only, where the default
    # rule's rank of L holds
    report = verify.run_verification(verify.RunConfig(
        "section4-ruled", {"m": 3}, samples=3, seed=7))
    assert not report.findings, report.findings
