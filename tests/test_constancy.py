"""Constancy along the rulings as projector-jet identities, against the
leaf-walk oracle, with negative and non-finite cases."""

import numpy as np
import pytest

from batch_rows import splits_at
from leaf_rk4 import leaf_residual
from oscflag import checks, ruled_extension
from oscflag import subspaces as sub
from oscflag.catalog import get_entry
from oscflag.checks import (LAMBDA_RADIUS, PointRecord, VerifyContext,
                            check_d_ruled_leaves)
from oscflag.geometry import drift, point_geometry, tangent_jets
from oscflag.jets import first_partials
from oscflag.nonparallel import nonparallel_data
from oscflag.ruled_extension import (SplittingSpec, build_extension,
                                     verify_extension)
from oscflag.verify import RunConfig, run_verification


def context(name, params, seeds):
    entry = get_entry(name, params)
    records = []
    for i, seed in enumerate(seeds):
        x = entry.sampler(np.random.default_rng(seed))
        geom = point_geometry(entry.chart, x, entry.max_normal_order)
        nd = nonparallel_data(geom)
        records.append(PointRecord(i, x, geom, nd, []))
    return VerifyContext(entry, records, 0, 1e-8)


def test_walk_residual_is_first_order_with_the_identity_as_slope():
    # a unit-speed walk along the sphere's tangent distribution leaves the
    # tangent plane at its start by a chord angle of arc/2 |alpha(u, u)|:
    # the walk measures (I - Pi_T)(d_u Pi_T) u to first order in the arc
    entry = get_entry("sphere", {"n": 2})
    x = entry.sampler(np.random.default_rng(1))
    geom = point_geometry(entry.chart, x, 1)
    u = np.array([0.6, 0.8])
    pi_t = tangent_jets([geom], 1)[1][0]
    d_u = np.tensordot(u @ geom.frame_in_chart, first_partials(pi_t), 1)
    slope = 0.5 * np.linalg.norm(
        (np.eye(geom.ambient_dim) - pi_t[0]) @ d_u @ (u @ geom.frame))
    np.testing.assert_allclose(slope, 0.5 * np.linalg.norm(
        geom.alpha_of(u, u)), rtol=1e-12)

    def tangent_at(y):
        g_y = point_geometry(entry.chart, y, 1)
        return g_y, sub.full(g_y.n)

    arcs = (0.04, 0.02, 0.01)
    residuals = [leaf_residual(entry.chart, tangent_at, x, u @ geom.frame, a)
                 for a in arcs]
    for big, small in zip(residuals, residuals[1:]):
        assert 1.6 <= big / small <= 2.4, residuals
    assert abs(residuals[-1] / arcs[-1] - slope) < 1e-3 * slope


def test_walk_and_identity_agree_on_d_leaves():
    ctx = context("section4-ruled", {"m": 2}, [8])
    rec = ctx.records[0]
    chart = ctx.chart

    def d_at(y):
        g_y = point_geometry(chart, y, 2)
        return g_y, nonparallel_data(g_y).D

    ref = rec.nd.D.basis[0] @ rec.geom.frame
    assert leaf_residual(chart, d_at, rec.x, ref, 0.02) < 1e-10
    assert drift(ctx.ruling_jet(rec), checks._chart_directions(
        rec.geom, ctx.ruling_space(rec))) < 1e-10


def complement(space):
    return sub.complement_within(space, sub.full(space.ambient_dim))


@pytest.mark.parametrize("name,params", [("section4-ruled", {"m": 2}),
                                         ("curve-parallel", {})])
def test_drift_along_e_is_large(name, params):
    # D and S are constant along the rulings only: along their complement
    # E the same contraction reads O(1)
    ctx = context(name, params, [8, 9])
    for rec in ctx.records:
        along_e = (complement(ctx.ruling_space(rec)).basis
                   @ rec.geom.frame_in_chart)
        assert drift(ctx.ruling_jet(rec), along_e) > 1e-2
        assert drift(rec.pi_s, along_e) > 1e-2


class ERulings(VerifyContext):
    """A context that hands E, the complement of D, to the checks as the
    ruling space."""

    def ruling_space(self, rec):
        return complement(rec.nd.D)

    def ruling_jet(self, rec):
        return tangent_jets([rec.geom], 1)[1][0] - super().ruling_jet(rec)


def test_check_fed_e_as_ruling_fails():
    plain = context("section4-ruled", {"m": 2}, [8, 9])
    assert check_d_ruled_leaves(plain).passed
    fed_e = ERulings(plain.entry, plain.records, 0, 1e-8)
    result = check_d_ruled_leaves(fed_e)
    assert not result.passed
    assert result.details["leaf_residual"] > 1e-2
    assert result.details["s_drift"] > 1e-2


def nan_drift(*args):
    return float("nan")


def test_nan_residual_fails_d_ruled_leaves(monkeypatch):
    ctx = context("section4-ruled", {"m": 2}, [8, 9])
    monkeypatch.setattr(checks, "drift", nan_drift)
    result = check_d_ruled_leaves(ctx)
    assert not result.passed and np.isnan(result.residual)


def test_nan_residual_fails_leaf_straightness(monkeypatch):
    entry = get_entry("curve-parallel")
    exercise = entry.split_exercises[0]
    spec = SplittingSpec(entry.chart, rule=exercise.rule)
    rng = np.random.default_rng(6)
    pts = [entry.sampler(rng) for _ in range(2)]
    ext = build_extension(spec, LAMBDA_RADIUS, splits_at(spec, pts))
    monkeypatch.setattr(ruled_extension, "drift", nan_drift)
    leaf = {c.name: c for c in verify_extension(ext, pts)}["leaf-straightness"]
    assert not leaf.passed and np.isnan(leaf.residual)


def test_s_equal_to_first_normal_needs_no_extra_chart_order():
    # with s = p, Pi_S is Pi_N1, read off the chart one order lower: the
    # order-3 chart of curve-parallel n=2 N=4 serves every ruling check
    entry = get_entry("curve-parallel", {"n": 2, "N": 4})
    assert entry.chart.max_order == 3
    report = run_verification(RunConfig("curve-parallel", {"n": 2, "N": 4},
                                        samples=3))
    assert report.passed, report.findings
    assert "d_ruled_leaves" in {v["name"] for v in report.verdicts}


def test_worst_propagates_nan():
    assert sub.worst([]) == 0.0
    assert sub.worst([], -np.inf) == -np.inf
    assert sub.worst([1e-3, 2e-3]) == 2e-3
    assert np.isnan(sub.worst([float("nan"), 1.0]))
    assert np.isnan(sub.worst([1.0, float("nan")]))
