"""Test charts, checks and splitting rules on the contracts over a point
axis."""

import numpy as np

from oscflag.geometry import point_geometries
from oscflag.ruled_extension import SPLIT_ORDER


def columns(jets):
    """The tables ``(..., size)`` of component jets as one table with a
    column per jet; a constant jet's table serves every point."""
    return np.stack(np.broadcast_arrays(*(j.coeffs for j in jets)), axis=-1)


def assert_rows_match_single_points(chart, points, order):
    """Each row of the chart's tables at ``points`` ``(B, n)`` equals that
    point's batch of one, to 1e-14 relative."""
    tables = chart.tables(points, order)
    assert tables.shape[0] == len(points)
    for x, row in zip(points, tables):
        single = chart.tables(x[None], order)[0]
        assert np.max(np.abs(row - single)) <= 1e-14 * np.max(np.abs(single))


def assert_same_geometry(got, want):
    """Two ``PointGeometry`` agree array for array: point, jet, frame,
    alpha and the bases of the tangent, normal and flag spaces."""
    pairs = [(got.x, want.x), (got.derivs.coeffs, want.derivs.coeffs),
             (got.frame, want.frame),
             (got.frame_in_chart, want.frame_in_chart),
             (got.alpha, want.alpha),
             (got.tangent.basis, want.tangent.basis),
             (got.normal_space.basis, want.normal_space.basis)]
    assert len(got.normal_flag) == len(want.normal_flag)
    pairs.extend((a.basis, b.basis)
                 for a, b in zip(got.normal_flag, want.normal_flag))
    assert got.tol == want.tol
    for a, b in pairs:
        assert np.array_equal(a, b)


def per_point(rule):
    """A splitting rule of the batch contract, ``rule(geoms, order)``, from
    one that takes one geometry at a time."""
    def batched(geoms, order):
        return np.array([rule(geom, order) for geom in geoms])
    return batched


def splits_at(spec, points, order=SPLIT_ORDER):
    """The splits at bare points, from one batch of their order-3
    geometries and one ``SplittingSpec.at`` call."""
    geoms, error = point_geometries(spec.chart, np.asarray(points, float), 2,
                                    spec.tol)
    if error is not None:
        raise error
    return spec.at(geoms, order)


def assert_same_split(got, want):
    """Two ``PointSplit`` agree array for array: geometry, order, jets and
    the bases of L, P, D, E, Gamma and Lambda."""
    assert_same_geometry(got.geom, want.geom)
    assert got.order == want.order
    for name in ("pi_p", "q_d", "pi_d", "pi_e", "pi_lambda"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        assert a is None or np.array_equal(a, b), name
    for name in ("L", "P", "D", "E", "Gamma", "Lambda"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        assert a is None or np.array_equal(a.basis, b.basis), name
