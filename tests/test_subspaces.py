"""Subspace numerics: spans, complements, angles, kernels, regular elements."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moore import BilinearForm, moore_check, regular_element
from oscflag import subspaces as sub
from oscflag.errors import ContainmentError, DataError, ParameterError, \
    ShapeError


def random_subspace(rng, ambient, dim):
    q, _ = np.linalg.qr(rng.standard_normal((ambient, dim)))
    return sub.Subspace(ambient, q.T[:dim].copy())


def test_span_collinear():
    s = sub.span_of([[1, 0, 0], [2, 0, 0]], 1e-8)
    assert s.dim == 1
    np.testing.assert_allclose(np.abs(s.basis), [[1, 0, 0]], atol=1e-15)


def test_span_threshold_swallows_noise():
    s = sub.span_of([[1, 0, 0], [1, 1e-12, 0]], 1e-8)
    assert s.dim == 1


def test_span_empty_and_nan():
    assert sub.span_of([], 1e-8, ambient_dim=4).dim == 0
    with pytest.raises(DataError):
        sub.span_of([[np.nan, 0.0]], 1e-8)
    with pytest.raises(ParameterError):
        sub.span_of([[1.0, 0.0]], 2.0)


def test_project_examples():
    e1 = sub.span_of([[1, 0, 0]], 1e-8)
    np.testing.assert_allclose(e1.project([3, 4, 0]), [3, 0, 0])
    with pytest.raises(ShapeError):
        e1.project([1, 2])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_project_idempotent_and_contractive(seed):
    rng = np.random.default_rng(seed)
    s = random_subspace(rng, 7, 3)
    v = rng.standard_normal(7)
    once = s.project(v)
    np.testing.assert_allclose(s.project(once), once, atol=1e-13)
    assert np.linalg.norm(once) <= np.linalg.norm(v) + 1e-13


def test_complement_within_examples():
    e12 = sub.span_of([[1, 0, 0], [0, 1, 0]], 1e-8)
    e1 = sub.span_of([[1, 0, 0]], 1e-8)
    comp = sub.complement_within(e1, e12)
    assert comp.dim == 1
    np.testing.assert_allclose(np.abs(comp.basis), [[0, 1, 0]], atol=1e-14)
    assert sub.complement_within(e12, e12).dim == 0


def test_complement_requires_containment():
    a = sub.span_of([[1, 0, 0]], 1e-8)
    b = sub.span_of([[0, 1, 0], [0, 0, 1]], 1e-8)
    with pytest.raises(ContainmentError) as err:
        sub.complement_within(a, b)
    assert err.value.residual > 0.9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_complement_dimension_exact(seed):
    rng = np.random.default_rng(seed)
    outer = random_subspace(rng, 9, 6)
    inner_rows = rng.standard_normal((2, 6)) @ outer.basis
    inner = sub.span_of(inner_rows, 1e-8)
    comp = sub.complement_within(inner, outer)
    assert comp.dim + inner.dim == outer.dim
    assert sub.containment_residual(comp, outer) < 1e-12
    assert np.max(np.abs(comp.basis @ inner.basis.T)) < 1e-12


def test_principal_angles_basic():
    a = sub.span_of([[1, 0, 0], [0, 1, 0]], 1e-8)
    assert np.max(sub.principal_angles(a, a)) < 1e-10
    e1 = sub.span_of([[1, 0, 0]], 1e-8)
    e2 = sub.span_of([[0, 1, 0]], 1e-8)
    np.testing.assert_allclose(sub.principal_angles(e1, e2), [np.pi / 2])
    # the gap is the largest angle, and pi/2 once the dimensions differ
    tilted = sub.span_of([[1, 0, 0], [0, 1, 1]], 1e-8)
    assert abs(sub.subspace_gap(a, tilted) - np.pi / 4) < 1e-12
    assert sub.subspace_gap(a, e1) == np.pi / 2
    assert sub.subspace_gap(sub.trivial(3), sub.trivial(3)) == 0.0


def test_span_of_is_idempotent():
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((5, 8))
    s1 = sub.span_of(rows, 1e-8)
    s2 = sub.span_of(s1.basis, 1e-8)
    assert s1.dim == s2.dim
    assert np.max(sub.principal_angles(s1, s2)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3))
def test_dimension_formula_on_structured_pairs(seed, da, db, shared):
    # dim(A+B) + dim(A cap B) = dim A + dim B, with a controlled intersection
    rng = np.random.default_rng(seed)
    total = da + db + shared
    if total == 0 or total > 10:
        return
    q, _ = np.linalg.qr(rng.standard_normal((10, total)))
    q = q.T
    a_rows = np.vstack([q[:da], q[da + db:]]) if da + shared else q[:0]
    b_rows = q[da:] if db + shared else q[:0]
    a = sub.span_of(a_rows, 1e-8, ambient_dim=10) if a_rows.size else \
        sub.trivial(10)
    b = sub.span_of(b_rows, 1e-8, ambient_dim=10) if b_rows.size else \
        sub.trivial(10)
    plus = sub.direct_sum(a, b)
    angles = sub.principal_angles(a, b)
    cap_dim = int(np.sum(angles < 1e-8))
    assert plus.dim + cap_dim == a.dim + b.dim
    assert sub.intersection(a, b, 1e-8).dim == shared == cap_dim


def test_kernel_examples():
    assert sub.kernel_of(np.zeros((3, 3)), 1e-8).dim == 3
    assert sub.kernel_of(np.eye(3), 1e-8).dim == 0
    k = sub.kernel_of(np.array([[1.0, 1.0, 0.0]]), 1e-8)
    assert k.dim == 2
    np.testing.assert_allclose(k.basis @ np.array([1.0, 1.0, 0.0]),
                               [0, 0], atol=1e-14)


# ---------------------------------------------------------------------------
# Bilinear forms: regular elements and the image property


def test_regular_element_scalar_form():
    # beta(x, y) = <x, y>: any generic Z gives rank one
    values = np.eye(2)[:, :, None]
    form = BilinearForm(values)
    reg = regular_element(form, trials=8, seed=1)
    assert reg.rank == 1


def test_regular_element_zero_form():
    form = BilinearForm(np.zeros((3, 3, 2)))
    reg = regular_element(form, trials=4, seed=0)
    assert reg.rank == 0
    assert moore_check(form, reg.z) == 0.0
    with pytest.raises(ParameterError):
        regular_element(form, trials=0)


def test_regular_element_matches_grid_brute_force():
    # sampled maximum must match a dense random grid on >= 99/100 seeds
    hits = 0
    for case in range(100):
        rng = np.random.default_rng(1000 + case)
        form = BilinearForm(rng.standard_normal((4, 4, 4)))
        reg = regular_element(form, trials=32, seed=rng)
        grid = rng.standard_normal((10_000, 4))
        grid /= np.linalg.norm(grid, axis=1, keepdims=True)
        maps = np.einsum("gv,vuw->guw", grid, form.values)
        svals = np.linalg.svd(maps, compute_uv=False)
        ranks = (svals > 1e-8 * svals[:, :1]).sum(axis=1)
        if reg.rank == int(ranks.max()):
            hits += 1
    assert hits >= 99


def test_moore_image_property_randomized():
    worst = 0.0
    for case in range(100):
        rng = np.random.default_rng(2000 + case)
        dims = rng.integers(1, 7, size=3)
        form = BilinearForm(rng.standard_normal(tuple(dims)))
        reg = regular_element(form, trials=48, seed=rng)
        worst = max(worst, moore_check(form, reg.z))
    assert worst < 1e-10


def test_moore_surjective_left_map():
    # beta_Z surjective onto W leaves nothing outside the image
    rng = np.random.default_rng(5)
    form = BilinearForm(rng.standard_normal((3, 5, 2)))
    z = rng.standard_normal(3)
    bz = form.left_contract(z)
    assert np.linalg.matrix_rank(bz) == 2
    assert moore_check(form, z) < 1e-12
