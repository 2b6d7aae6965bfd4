"""Splitting pipeline: gamma span, lambda complement, extension building."""

import numpy as np
import pytest

from batch_rows import (assert_rows_match_single_points, assert_same_split,
                        per_point, splits_at)
from commutator_fd import commutator_residual_fd
from extension_fd import extension_second_fd
from feasible_loop import feasible_loop
from gamma_fd import gamma_values_fd
from oscflag import checks, ruled_extension, verify
from oscflag import subspaces as sub
from oscflag.catalog import get_entry
from oscflag.checks import LAMBDA_RADIUS
from oscflag.errors import (GammaBandError, LRankError, NumericalRankError,
                            ParameterError, ShapeError)
from oscflag.geometry import (ImmersionChart, frame_derivative,
                              point_geometry, projection_frame,
                              relative_nullity, span_projector)
from oscflag.jets import (first_partials, jet_variable, matrix_product,
                          partial_jets, product, signature, variables)
from oscflag.nonparallel import nonparallel_data
from oscflag.ruled_extension import (SPLIT_ORDER, RuledExtension,
                                     SplittingSpec, _commutator_residual,
                                     build_extension, verify_extension)


def split_at(spec, x, order=1):
    """The split at a bare point x, from its order-3 geometry."""
    return splits_at(spec, [x], order)[0]


def torus_rows(geom, partials, order):
    """Order-``order`` rows spanned by the given second partials of the
    product torus chart, from its jet at order + 2."""
    # partial_jets order: by degree, then descending lexicographic
    graded = sorted((m for m in signature(geom.n, 2).monomials if sum(m)),
                    key=lambda m: (sum(m), tuple(-e for e in m)))
    table = geom.chart.eval(geom.x, order + 2).coeffs
    return partial_jets(table[None], geom.n, 2, order)[0][
        :, [graded.index(p) for p in partials]]


def constant_rule(rows_of):
    """A rule whose rows are frozen: only its value at the point matters to
    the rank and normality checks it is meant to trip."""
    @per_point
    def rule(geom, order):
        rows = np.atleast_2d(rows_of(geom))
        table = np.zeros((signature(geom.n, order).size,) + rows.shape)
        table[0] = rows
        return table
    return rule


@pytest.fixture(scope="module")
def curve_entry():
    return get_entry("curve-parallel")


@per_point
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
    with pytest.raises(LRankError):
        split_at(spec, np.array([1.0, 1.5]))


def test_l_must_be_normal():
    entry = get_entry("product-torus")
    spec = SplittingSpec(entry.chart,
                         rule=constant_rule(lambda geom: geom.frame[0]))
    with pytest.raises(LRankError):
        split_at(spec, np.array([1.0, 1.5]))


def test_rule_must_return_order_one_rows():
    # rows without their jet axis do not follow the rule contract
    entry = get_entry("product-torus")
    spec = SplittingSpec(entry.chart, rule=per_point(
        lambda geom, order: torus_rows(geom, [(2, 0)], order)[0]))
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


@pytest.mark.parametrize("name,params,exercise,start", [
    ("curve-parallel", {}, 0, 50.0),      # parallel line: r = 1
    ("section4-ruled", {"m": 2}, 0, 10.0),  # default split: r = 2
])
def test_batched_feasibility_matches_loop_oracle(name, params, exercise,
                                                 start, monkeypatch):
    # an initial radius the Jacobian does not admit, so that the bisection
    # runs: the batched sweep and the per-point loop agree at every radius
    # it visits, at the accepted one and at larger ones
    entry = get_entry(name, params)
    spec = SplittingSpec(entry.chart,
                         rule=entry.split_exercises[exercise].rule)
    rng = np.random.default_rng(5)
    splits = splits_at(spec, [entry.sampler(rng) for _ in range(3)])
    real, visited = ruled_extension.jacobian_feasible, []

    def recording(ext, probes, radius):
        got = real(ext, probes, radius)
        visited.append((probes, radius, got))
        return got

    monkeypatch.setattr(ruled_extension, "jacobian_feasible", recording)
    ext = build_extension(spec, start, splits)
    assert {got for _, _, got in visited} == {True, False}
    for probes, radius, got in visited:
        assert feasible_loop(ext, probes, radius) == got, radius
    probes = visited[0][0]
    accepted = ext.lambda_radius
    for radius in (accepted, 2.0 * accepted, 4.0 * accepted, start,
                   2.0 * start):
        assert (feasible_loop(ext, probes, radius)
                == real(ext, probes, radius)), radius


def test_extension_tables_over_points_match_single_points(curve_entry):
    # five points (x, lam) over two probe points: one split lookup per
    # point, one affine lift for the batch
    exercise = curve_entry.split_exercises[0]
    spec = SplittingSpec(curve_entry.chart, rule=exercise.rule)
    rng = np.random.default_rng(5)
    pts = [curve_entry.sampler(rng) for _ in range(2)]
    ext = build_extension(spec, LAMBDA_RADIUS, splits_at(spec, pts))
    lams = ext.lambda_radius * np.linspace(-1.0, 1.0, 5)
    points = np.array([np.append(pts[i % 2], lam)
                       for i, lam in enumerate(lams)])
    for order in range(ext.chart.max_order + 1):
        assert_rows_match_single_points(ext.chart, points, order)


def test_extension_verify_parallel_line(curve_entry):
    exercise = curve_entry.split_exercises[0]
    spec = SplittingSpec(curve_entry.chart, rule=exercise.rule)
    rng = np.random.default_rng(6)
    pts = [curve_entry.sampler(rng) for _ in range(3)]
    ext = build_extension(spec, LAMBDA_RADIUS,
                          splits_at(spec, pts))
    assert ext.r == 1
    checks = verify_extension(ext, pts[:2], seed=0)
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
    ext = build_extension(spec, LAMBDA_RADIUS,
                          splits_at(spec, pts))
    checks = verify_extension(ext, pts, seed=0)
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


def test_probe_split_of_another_order_is_rejected(curve_entry):
    # the extension chart reads Pi_Lambda one order below the split, so an
    # order-1 probe would hand its second derivatives truncated tables
    spec = SplittingSpec(curve_entry.chart,
                         rule=curve_entry.split_exercises[0].rule)
    rng = np.random.default_rng(5)
    x, y = (curve_entry.sampler(rng) for _ in range(2))
    probes = [split_at(spec, x, SPLIT_ORDER), split_at(spec, y, 1)]
    with pytest.raises(ParameterError,
                       match=r"probe splits of orders \[1, 3\]"):
        build_extension(spec, LAMBDA_RADIUS, probes)


def test_probes_of_different_lambda_rank_are_rejected(curve_entry):
    # the parallel line has r = 1 and the rotating line r = 0
    parallel, rotating = (SplittingSpec(curve_entry.chart, rule=ex.rule)
                          for ex in curve_entry.split_exercises[:2])
    rng = np.random.default_rng(5)
    x, y = (curve_entry.sampler(rng) for _ in range(2))
    probes = [split_at(parallel, x, SPLIT_ORDER),
              split_at(rotating, y, SPLIT_ORDER)]
    with pytest.raises(NumericalRankError,
                       match="rank of Lambda changed from 1 to 0"):
        build_extension(parallel, LAMBDA_RADIUS, probes)


def test_gamma_rank_band_guard():
    # feeding a bogus kernel situation must trip the band check, not pass
    entry = get_entry("product-torus")

    @per_point
    def bad_rule(geom, order):
        # L contains both curvature directions: alpha_P vanishes and the
        # kernel is everything, leaving E empty and the band degenerate
        return torus_rows(geom, [(2, 0), (0, 2)], order)

    spec = SplittingSpec(entry.chart, rule=bad_rule)
    split = split_at(spec, np.array([1.0, 1.5]))
    assert split.d == 2  # kernel is the whole tangent space
    assert split.Gamma.dim == 0  # no E directions: empty span, band [0, 2]


@pytest.mark.parametrize("name,params,index,order", [
    ("section4-ruled", {"m": 2}, 0, 0),
    ("section4-ruled", {"m": 2}, 0, 1),
    ("section4-ruled", {"m": 2}, 0, SPLIT_ORDER),
    ("curve-parallel", {}, 0, 1),
    ("curve-parallel", {}, 1, 1),
    ("curve-parallel", {}, 2, 1),
    ("curve-parallel", {}, 2, SPLIT_ORDER)])
def test_split_batch_rows_match_batches_of_one(name, params, index, order):
    # the default rule and each curve-parallel witness rule: every split of
    # a batch equals its batch of one, array for array
    entry = get_entry(name, params)
    spec = SplittingSpec(entry.chart,
                         rule=entry.split_exercises[index].rule)
    rng = np.random.default_rng(11)
    points = [entry.sampler(rng) for _ in range(3)]
    batch = splits_at(spec, points, order)
    assert len(batch) == len(points)
    for x, split in zip(points, batch):
        assert_same_split(split, split_at(spec, x, order))
    assert spec.at([], order) == []


def test_split_batch_of_mixed_ranks():
    # L has rank 2 at the middle point and rank 1 elsewhere (a zero row),
    # so the points differ in ell, d and k and fall in different groups
    entry = get_entry("product-torus")
    middle = np.array([2.0, 0.7])

    @per_point
    def rule(geom, order):
        rows = torus_rows(geom, [(2, 0), (0, 2)], order)
        if not np.array_equal(geom.x, middle):
            rows[:, 1] = 0.0
        return rows

    spec = SplittingSpec(entry.chart, rule=rule)
    points = [np.array([1.0, 1.5]), middle, np.array([0.8, 3.1])]
    batch = splits_at(spec, points, 1)
    assert [(s.ell, s.d, s.Gamma.dim) for s in batch] == [
        (1, 1, 1), (2, 2, 0), (1, 1, 1)]
    for x, split in zip(points, batch):
        assert_same_split(split, split_at(spec, x))


def test_split_batch_raises_its_first_failing_point_error():
    # L fills the normal space at the second point (LRankError) and turns
    # toward P so fast along a chart variable at the third that Gamma's
    # L-part swamps its E-part below the rank tolerance (GammaBandError)
    entry = get_entry("section4-ruled", {"m": 2})
    rng = np.random.default_rng(7)
    good, full_l, turning = (entry.sampler(rng) for _ in range(3))

    def rule(geoms, order):
        rows = ruled_extension.default_splitting_rule(geoms, order)
        for geom, table in zip(geoms, rows):
            if np.array_equal(geom.x, full_l):
                table[...] = 0.0
                table[0] = geom.normal_space.projector()
            elif np.array_equal(geom.x, turning):
                l_space = sub.span_of(table[0])
                p_space = sub.complement_within(l_space, geom.normal_space)
                table[geom.n] += 1e12 * np.outer(
                    table[0] @ l_space.basis[0], p_space.basis[0])
        return rows

    spec = SplittingSpec(entry.chart, rule=rule)
    with pytest.raises(LRankError, match="rank L"):
        splits_at(spec, [good, full_l, turning], 1)
    with pytest.raises(GammaBandError, match="outside the band"):
        splits_at(spec, [good, turning, full_l], 1)
    assert split_at(spec, good).Gamma.dim == 2


def test_split_batch_needs_one_chart_and_tolerance():
    # a batch reads one chart and one rank tolerance for all its points
    entry = get_entry("section4-ruled", {"m": 2})
    x = entry.sampler(np.random.default_rng(7))
    spec = SplittingSpec(entry.chart)
    geoms = [point_geometry(entry.chart, x, 2, tol) for tol in (1e-8, 1e-9)]
    other = point_geometry(get_entry("section4-ruled", {"m": 2}).chart, x, 2)
    for batch in (geoms, [geoms[0], other]):
        with pytest.raises(ParameterError, match="one tolerance"):
            spec.at(batch, 1)


def sheared(chart, amount):
    """The same immersion in the coordinates x_i + amount * x_(i+1)^2, in
    which D is no longer spanned by coordinate directions.

    A composition oracle: the chart's table c at the sheared point y(x),
    composed as sum_alpha c_alpha (y - y(x))^alpha, each monomial one
    product of a lower monomial and one y_i - y_i(x).  The sheared point
    may leave the chart's box, so its table comes from ``chart.fn``, whose
    analytic formula holds past the box.
    """
    n = chart.intrinsic_dim

    def fn(x, order):
        v = variables(x, order)
        y = [v[i] + amount * (v[(i + 1) % n] * v[(i + 1) % n])
             for i in range(n)]
        sig = y[0].sig
        dy = [(yi - yi.value).coeffs for yi in y]
        powers = np.zeros((len(x), sig.size, sig.size))
        powers[:, 0, 0] = 1.0
        for k, alpha in enumerate(sig.monomials[1:], 1):
            i = next(j for j, e in enumerate(alpha) if e)
            lower = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            powers[:, k] = product(sig, powers[:, sig.index[lower]], dy[i])
        return powers.swapaxes(1, 2) @ chart.fn(
            np.stack([yi.value for yi in y], axis=-1), order)
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
    @per_point
    def rule(geom, order):
        n, sig = geom.n, signature(geom.n, order)
        u = [jet_variable(n, order, i, geom.x[i]) for i in range(n)]
        s = u[1] + amount * (u[2] * u[2])
        table = geom.chart.eval(geom.x, order + 1).coeffs
        pi_n = -span_projector(sig, partial_jets(table[None], n, 1, order),
                               1e-8)[1][0]
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
    # Gamma and Lambda come from the split's projector jets, so fresh
    # extension points cost one batch of geometries and splits and no
    # stencil, and a point seen before costs nothing
    entry = get_entry("section4-ruled", {"m": 2})
    spec = SplittingSpec(entry.chart)
    rng = np.random.default_rng(7)
    lam = split_at(spec, entry.sampler(rng)).Lambda
    ext = RuledExtension(spec, projection_frame(lam)[1], lam.dim, 0.08)
    calls, batches = [], []
    real, real_at = ruled_extension.point_geometries, SplittingSpec.at

    def counting(chart, points, *args):
        calls.append(len(points))
        return real(chart, points, *args)

    def at(self, geoms, order=1):
        batches.append(len(geoms))
        return real_at(self, geoms, order)

    monkeypatch.setattr(ruled_extension, "point_geometries", counting)
    monkeypatch.setattr(SplittingSpec, "at", at)
    x, y = entry.sampler(rng), entry.sampler(rng)
    near, far = np.zeros(ext.r), np.full(ext.r, 0.01)
    ext.chart.tables([np.concatenate(point) for point in
                      [(x, near), (y, near), (x, far)]], 0)
    assert calls == [2] and batches == [2]
    ext.eval(y, far)
    assert calls == [2] and batches == [2]


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

    monkeypatch.setattr(ImmersionChart, "tables", counting)
    split = SplittingSpec(entry.chart).at([geom], 1)[0]
    assert orders == []
    assert split.d == 2 and split.Lambda.dim == 2


@pytest.mark.parametrize("name,params", [("section4-ruled", {"m": 2}),
                                         ("curve-parallel", {})])
def test_run_evaluates_no_chart_twice_at_a_point(name, params, monkeypatch):
    # each record's geometry is the one source of its chart jet, so no
    # chart is evaluated twice at the same point and order, one point at a
    # time or in a batch
    seen = []
    real = ImmersionChart._checked_tables

    def counting(self, points, order):
        seen.extend((self, y.tobytes(), order) for y in points)
        return real(self, points, order)

    monkeypatch.setattr(ImmersionChart, "_checked_tables", counting)
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
    assert nonparallel_data(geom).s == 2
    split = SplittingSpec(entry.chart).at([geom], 1)[0]
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
    ext = build_extension(spec, LAMBDA_RADIUS,
                          splits_at(spec, pts))
    lam = 0.5 * ext.lambda_radius * np.ones(ext.r) / np.sqrt(ext.r)
    point = np.concatenate([pts[0], lam])
    normal = point_geometry(ext.chart, point, 1, 1e-8).normal_space
    exact = normal.project(ext.chart.eval(point, 2).tensor(2))
    d_h, d_h2 = (np.linalg.norm(normal.project(
        extension_second_fd(ext, pts[0], lam, h)) - exact)
        for h in (1e-3, 5e-4))
    assert 3.2 <= d_h / d_h2 <= 4.8, (d_h, d_h2)
    j_h, j_h2 = (np.linalg.norm(frame_derivative(
        lambda points: ext.chart.tables(points, 0)[:, 0], point,
        np.eye(point.size), h)
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
        lambda points: np.array([split_y.q_d[0]
                                 for split_y in splits_at(spec, points, 0)]),
        split.geom.x, np.eye(n), h)
        - exact) for h in (1e-3, 5e-4))
    assert 3.2 <= d_h / d_h2 <= 4.8, (d_h, d_h2)
    residual = _commutator_residual(split)
    stencil = commutator_residual_fd(spec, split, 1e-3)
    assert residual < 1e-10 and stencil < 1e-8, (residual, stencil)


def test_extension_evaluated_only_at_vetted_points(monkeypatch):
    # each exercise splits every sampled point once, at SPLIT_ORDER at the
    # probe points and at order 1 elsewhere, and its extension chart reads
    # splits at probe points only
    expected, seen, current = [], [], []
    lambda_points = set()
    real_exercise = checks.check_split_exercise
    real_lambda_splits = ruled_extension._lambda_splits
    real_at = SplittingSpec.at

    def exercise(ctx, index):
        expected.append([(rec.x.tobytes(),
                          SPLIT_ORDER if i < checks.PROBES else 1)
                         for i, rec in enumerate(ctx.records)])
        seen.append([])
        current.append(seen[-1])
        try:
            return real_exercise(ctx, index)
        finally:
            current.pop()

    def lambda_splits(spec, r, splits, points):
        lambda_points.update(x.tobytes()
                             for x in np.asarray(points, dtype=float))
        return real_lambda_splits(spec, r, splits, points)

    def at(self, geoms, order=1):
        if current:
            current[-1].extend((geom.x.tobytes(), order) for geom in geoms)
        return real_at(self, geoms, order)

    monkeypatch.setattr(checks, "check_split_exercise", exercise)
    monkeypatch.setattr(ruled_extension, "_lambda_splits", lambda_splits)
    monkeypatch.setattr(SplittingSpec, "at", at)
    report = verify.run_verification(verify.RunConfig(
        "curve-parallel", {}, samples=5, seed=7))
    assert report.passed, report.findings
    assert len(expected) == 3  # three exercises
    assert seen == expected
    probes = {x for calls in expected for x, _ in calls[:checks.PROBES]}
    assert lambda_points and lambda_points <= probes


def test_section4_m3_run_has_no_findings():
    # the exercise splits at the sampled points only, where the default
    # rule's rank of L holds
    report = verify.run_verification(verify.RunConfig(
        "section4-ruled", {"m": 3}, samples=3, seed=7))
    assert not report.findings, report.findings
