import math

import numpy as np
import pytest

from curvrec.curvature import (CurvatureField, _segmented_variation, curvature_field,
                               percentile)
from curvrec.errors import EmptyInput
from curvrec.model import PointCloud
from curvrec.spatial import build_index
from oracles import covariance3, surface_variation as variation_oracle


def surface_variation(points):
    """The batched variation curvature_field uses, over one segment."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    return float(_segmented_variation(pts, np.array([pts.shape[0]]))[0])


def trig_eigenvalues(a):
    """Independent oracle: closed-form roots of the characteristic polynomial
    of a symmetric 3x3 matrix via the trigonometric method."""
    a = np.asarray(a, dtype=float)
    p1 = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
    q = np.trace(a) / 3.0
    if p1 == 0.0:
        return np.sort(np.diag(a))
    p2 = ((a[0, 0] - q) ** 2 + (a[1, 1] - q) ** 2 + (a[2, 2] - q) ** 2) + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    r = np.linalg.det(b) / 2.0
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    hi = q + 2.0 * p * math.cos(phi)
    lo = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    return np.array([lo, 3.0 * q - hi - lo, hi])


def brute_covariance(points):
    pts = np.asarray(points, dtype=float)
    mean = pts.sum(axis=0) / len(pts)
    acc = np.zeros((3, 3))
    for p in pts:
        d = p - mean
        acc += np.outer(d, d)
    return acc / len(pts)


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_covariance_examples():
    assert np.array_equal(covariance3([[1.0, 2.0, 3.0]]), np.zeros((3, 3)))
    two = covariance3([[0.5, 0, 0], [-0.5, 0, 0]])
    assert np.allclose(two, np.diag([0.25, 0, 0]), atol=1e-15)
    corners = np.array([[x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5)
                        for z in (-0.5, 0.5)])
    assert np.allclose(covariance3(corners), np.diag([0.25, 0.25, 0.25]), atol=1e-15)
    with pytest.raises(EmptyInput):
        covariance3(np.empty((0, 3)))


def test_covariance_matches_brute_force():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(73, 3))
    assert np.abs(covariance3(pts) - brute_covariance(pts)).max() < 1e-12


def test_surface_variation_planar_and_isotropic():
    rng = np.random.default_rng(2)
    planar = np.column_stack([rng.random(50), rng.random(50), np.zeros(50)])
    assert surface_variation(planar) == pytest.approx(0.0, abs=1e-12)
    corners = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
                       dtype=float)
    assert surface_variation(corners) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_surface_variation_hemisphere_vs_independent_pipeline():
    rng = np.random.default_rng(3)
    v = rng.normal(size=(200, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    v[:, 2] = np.abs(v[:, 2])
    cap = v[v[:, 2] > 0.8] * 0.3
    w = np.maximum(trig_eigenvalues(brute_covariance(cap)), 0.0)
    expected = w[0] / w.sum()
    assert surface_variation(cap) == pytest.approx(expected, abs=1e-9)


def test_surface_variation_range_and_degenerate():
    rng = np.random.default_rng(4)
    for _ in range(100):
        sig = surface_variation(rng.normal(size=(rng.integers(3, 40), 3)))
        assert 0.0 <= sig <= 1.0 / 3.0 + 1e-15
    # coincident and collinear inputs are treated as flat
    assert surface_variation(np.tile([1.0, 1, 1], (5, 1))) == 0.0
    line = np.outer(np.linspace(0, 1, 9), [1.0, 2.0, -1.0])
    assert surface_variation(line) == pytest.approx(0.0, abs=1e-12)


def test_surface_variation_rigid_and_scale_invariance():
    rng = np.random.default_rng(5)
    base = rng.normal(size=(60, 3)) * [1.0, 0.5, 0.05]
    ref = surface_variation(base)
    for _ in range(200):
        rot = random_rotation(rng)
        shift = rng.normal(size=3) * 10
        scale = rng.uniform(0.1, 10.0)
        moved = base @ rot.T * scale + shift
        assert surface_variation(moved) == pytest.approx(ref, abs=1e-9)


def test_percentile_examples():
    assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5, abs=1e-15)
    vals = [5.0, -2.0, 7.5, 0.0]
    assert percentile(vals, 0) == min(vals)
    assert percentile(vals, 100) == max(vals)
    with pytest.raises(EmptyInput):
        percentile([], 50)


def test_percentile_against_numpy_oracle():
    rng = np.random.default_rng(6)
    vals = rng.normal(size=1000)
    for p in (10, 40, 60, 90):
        assert percentile(vals, p) == pytest.approx(
            float(np.percentile(vals, p)), abs=1e-12)
    # monotone in p
    ranks = np.sort(rng.uniform(0, 100, size=30))
    got = [percentile(vals, p) for p in ranks]
    assert np.all(np.diff(got) >= 0)


def _grid_queries(n, span=0.6):
    ax = np.linspace(-span, span, n)
    g = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    return g


def _field(cloud, index, queries, r0, ids=None):
    """curvature_field over every query, labelled by ids or by row."""
    ids = np.arange(len(queries)) if ids is None else ids
    return curvature_field(cloud, index, queries, r0, ids,
                           index.nearest_distance_many(queries))


def test_curvature_field_far_queries_carry_no_entry():
    # the stage that calls it raises NoCurvatureSamples on an empty band
    cloud = PointCloud(np.array([[0.0, 0, 0], [0.01, 0, 0], [0, 0.01, 0]]))
    index = build_index(cloud)
    far = np.array([[5.0, 5, 5], [6.0, 6, 6]])
    cf = _field(cloud, index, far, r0=0.018)
    assert len(cf) == 0 and cf.sigma.size == 0
    with pytest.raises(EmptyInput):
        cf.percentiles


def test_curvature_field_planar_cloud():
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.random(5000) - 0.5, rng.random(5000) - 0.5,
                           np.zeros(5000)])
    cloud = PointCloud(pts)
    index = build_index(cloud)
    queries = np.column_stack([np.linspace(-0.4, 0.4, 30), np.zeros(30), np.zeros(30)])
    cf = _field(cloud, index, queries, r0=0.05)
    assert len(cf) == 30
    assert np.abs(cf.sigma).max() < 1e-12
    assert list(cf.percentiles.values()) == pytest.approx([0.0] * 4, abs=1e-12)


def test_curvature_field_matches_standalone():
    rng = np.random.default_rng(8)
    v = rng.normal(size=(20000, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    cloud = PointCloud(v * 0.5)
    index = build_index(cloud)
    queries = _grid_queries(9)
    for r0 in (0.03, 0.06):
        cf = _field(cloud, index, queries, r0=r0)
        assert len(cf) > 0
        def members(qid):
            return np.flatnonzero(np.linalg.norm(cloud.points - queries[qid], axis=1) <= r0)

        for qid, sig in zip(cf.ids.tolist(), cf.sigma.tolist()):
            ball = members(qid)
            assert len(ball) >= 3
            assert sig == pytest.approx(variation_oracle(cloud.points[ball]), abs=1e-12)
        # skipped queries really had fewer than 3 points
        for qid in set(range(len(queries))) - set(cf.ids.tolist()):
            assert len(members(qid)) < 3


def test_curvature_field_custom_ids():
    rng = np.random.default_rng(9)
    cloud = PointCloud(rng.random((2000, 3)) - 0.5)
    index = build_index(cloud)
    queries = _grid_queries(5, span=0.4)
    ids = np.arange(len(queries)) * 10 + 3
    cf = _field(cloud, index, queries, r0=0.1, ids=ids)
    assert set(cf.ids.tolist()) <= set(ids.tolist())
    assert np.all(np.diff(cf.ids) > 0)
    # entries come in query order: reversed queries give reversed entries
    back = _field(cloud, index, queries[::-1], r0=0.1, ids=ids[::-1])
    assert np.array_equal(back.ids, cf.ids[::-1])
    assert np.array_equal(back.sigma, cf.sigma[::-1])


def test_percentile_summary_ordering():
    cf = CurvatureField(ids=[0, 1, 2], sigma=[0.0, 0.1, 0.3])
    assert list(cf.percentiles) == ["p10", "p40", "p60", "p90"]
    assert list(cf.percentiles.values()) == pytest.approx([0.02, 0.08, 0.14, 0.26])
    assert cf.percentile_value("p60") == cf.percentiles["p60"] == percentile(cf.sigma, 60)
    assert cf.percentile_value(0.25) == 0.25
