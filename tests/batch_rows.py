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
