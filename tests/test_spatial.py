import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from curvrec.errors import EmptyCloud
from curvrec.model import PointCloud
from curvrec.spatial import build_index, nearest_distance, radius_query


def brute_ball(points, center, r):
    d = np.linalg.norm(points - np.asarray(center), axis=1)
    return set(np.flatnonzero(d <= r).tolist())


def test_single_point_and_duplicates():
    idx = build_index(PointCloud(np.array([[1.0, 2.0, 3.0]])))
    assert len(idx) == 1
    dup = build_index(PointCloud(np.tile([0.5, 0.5, 0.5], (7, 1))))
    assert len(dup) == 7
    assert radius_query(dup, [0.5, 0.5, 0.5], 1e-9).tolist() == list(range(7))


def test_empty_cloud_rejected():
    with pytest.raises(EmptyCloud):
        build_index(PointCloud(np.empty((0, 3))))


def test_radius_query_examples():
    idx = build_index(PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]])))
    assert radius_query(idx, [0, 0, 0], 0.5).tolist() == [0]
    assert 0 in radius_query(idx, [0, 0, 0], 1e-12).tolist()
    # closed ball: boundary point included
    assert radius_query(idx, [0, 0, 0], 1.0).tolist() == [0, 1]


def test_radius_query_matches_brute_force():
    rng = np.random.default_rng(0)
    pts = rng.random((10000, 3))
    idx = build_index(PointCloud(pts))
    for _ in range(100):
        center = rng.random(3)
        r = rng.uniform(0.01, 0.3)
        got = radius_query(idx, center, r)
        assert set(got.tolist()) == brute_ball(pts, center, r)
        assert np.all(np.diff(got) > 0)  # ascending, no duplicates


def test_nearest_distance_examples():
    pts = np.array([[1.0, 0, 0]])
    idx = build_index(PointCloud(pts))
    assert nearest_distance(idx, [0, 0, 0]) == pytest.approx(1.0, abs=1e-15)
    assert nearest_distance(idx, [1.0, 0, 0]) == 0.0


def test_nearest_distance_matches_brute_force():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(2000, 3))
    idx = build_index(PointCloud(pts))
    queries = rng.normal(size=(1000, 3)) * 1.5
    got = idx.nearest_distance_many(queries)
    expect = np.array([np.linalg.norm(pts - q, axis=1).min() for q in queries])
    assert np.abs(got - expect).max() < 1e-12


def test_queries_are_pure():
    rng = np.random.default_rng(2)
    pts = rng.random((500, 3))
    idx = build_index(PointCloud(pts))
    q = rng.random(3)
    first = radius_query(idx, q, 0.2)
    for _ in range(3):
        assert np.array_equal(radius_query(idx, q, 0.2), first)
    assert nearest_distance(idx, q) == nearest_distance(idx, q)


def test_batched_queries_match_scalar():
    rng = np.random.default_rng(3)
    pts = rng.random((800, 3))
    idx = build_index(PointCloud(pts))
    centers = rng.random((50, 3))
    radii = rng.uniform(0.05, 0.2, size=50)
    batched = idx.radius_query_many(centers, radii, workers=2)
    for c, r, got in zip(centers, radii, batched):
        assert np.array_equal(got, radius_query(idx, c, r))
    nn = idx.nearest_distance_many(centers, workers=2)
    for c, d in zip(centers, nn):
        assert d == pytest.approx(idx.nearest_distance(c), abs=1e-15)


def test_batched_flat_matches_many():
    rng = np.random.default_rng(4)
    idx = build_index(PointCloud(rng.random((800, 3))))
    centers = rng.random((60, 3))
    radii = rng.uniform(0.0, 0.15, size=60)
    flat, offsets = idx.radius_query_flat(centers, radii)
    assert offsets[0] == 0 and offsets[-1] == flat.size
    for i, got in enumerate(idx.radius_query_many(centers, radii)):
        assert np.array_equal(flat[offsets[i]:offsets[i + 1]], got)
    flat, offsets = idx.radius_query_flat(np.empty((0, 3)), 0.1)
    assert flat.size == 0 and offsets.tolist() == [0]
    assert idx.radius_query_many(np.empty((0, 3)), 0.1) == []


def test_bounded_nearest_closed_ball():
    # 0.25 and 0.0625 are exact: the point sits exactly on the bound
    idx = build_index(PointCloud(np.array([[0.25, 0.0, 0.0]])))
    q = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    assert idx.nearest_distance_many(q, bound=0.25)[0] == 0.25
    assert idx.nearest_distance_many(q, bound=0.25)[1] == np.inf
    assert idx.nearest_distance_many(q[:1], bound=np.nextafter(0.25, 0)).tolist() == [np.inf]
    with pytest.raises(ValueError):
        idx.nearest_distance_many(q, bound=0.0)


_coords = arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3)),
                 elements=st.floats(-1, 1, allow_subnormal=False))


@settings(max_examples=200, deadline=None)
@given(points=_coords, queries=_coords, bound=st.floats(1e-6, 2.0))
def test_bounded_nearest_equals_trimmed_unbounded(points, queries, bound):
    idx = build_index(PointCloud(points))
    unbounded = idx.nearest_distance_many(queries)
    got = idx.nearest_distance_many(queries, bound=bound)
    assert np.array_equal(got, np.where(unbounded <= bound, unbounded, np.inf))
    # a bound set to a distance the tree returned keeps that distance
    b = unbounded[0]
    if b > 0:
        assert idx.nearest_distance_many(queries[:1], bound=b)[0] == b
