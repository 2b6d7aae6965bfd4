"""Test charts and checks on the chart contract over a point axis."""

import numpy as np


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
