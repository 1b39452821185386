import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from curvrec import spatial
from curvrec.errors import EmptyCloud
from curvrec.model import PointCloud
from curvrec.spatial import ball_blocks, build_index


def brute_ball(points, center, r):
    d = np.linalg.norm(points - np.asarray(center), axis=1)
    return set(np.flatnonzero(d <= r).tolist())


def brute_nearest(points, q):
    return float(np.linalg.norm(points - np.asarray(q), axis=1).min())


def radius_query(idx, center, r):
    """Ball of one center through the batched query."""
    flat, offsets = idx.radius_query_flat(np.reshape(center, (1, 3)), r)
    assert offsets.tolist() == [0, flat.size]
    return flat


def nearest_distance(idx, q):
    return float(idx.nearest_distance_many(np.reshape(q, (1, 3)))[0])


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
    batched = idx.radius_query_many(centers, radii)
    for c, r, got in zip(centers, radii, batched):
        assert np.array_equal(got, sorted(brute_ball(pts, c, r)))
    nn = idx.nearest_distance_many(centers, workers=2)
    for c, d in zip(centers, nn):
        assert d == pytest.approx(brute_nearest(pts, c), abs=1e-15)


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


_coords = arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3)),
                 elements=st.floats(-1, 1, allow_subnormal=False))


@settings(max_examples=200, deadline=None)
@given(points=_coords, queries=_coords)
# a nearest distance whose square is subnormal
@example(points=np.zeros((1, 3)), queries=np.full((1, 3), 1.28058713e-158))
def test_nearest_equals_brute_force(points, queries):
    d = points[None, :, :] - queries[:, None, :]
    d2 = (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2]
    got = build_index(PointCloud(points)).nearest_distance_many(queries)
    assert np.array_equal(got, np.sqrt(d2.min(axis=1)))


def test_index_counts_the_work_it_answers():
    rng = np.random.default_rng(5)
    idx = build_index(PointCloud(rng.random((500, 3))))
    assert (idx.nn_rows, idx.ball_calls, idx.ball_pairs) == (0, 0, 0)
    assert (idx.nn_s, idx.ball_s) == (0.0, 0.0)
    clocks = [(0.0, 0.0)]
    idx.nearest_distance_many(rng.random((7, 3)))
    clocks.append((idx.nn_s, idx.ball_s))
    idx.nearest_distance_many(rng.random((5, 3)), workers=2)
    clocks.append((idx.nn_s, idx.ball_s))
    kept = []
    for centers, radius in ((rng.random((9, 3)), 0.2), (np.empty((0, 3)), 0.1)):
        kept.append(idx.radius_query_flat(centers, radius)[1][-1])
        clocks.append((idx.nn_s, idx.ball_s))
    kept.append(sum(map(len, idx.radius_query_many(rng.random((4, 3)), 0.3))))
    clocks.append((idx.nn_s, idx.ball_s))
    assert (idx.nn_rows, idx.ball_calls, idx.ball_pairs) == (12, 3, sum(kept))
    assert kept[0] > 0 and kept[2] > 0
    # each query adds to its own clock and leaves the other as it was
    nn_s, ball_s = np.array(clocks).T
    assert np.all(np.diff(nn_s[:3]) > 0) and np.all(np.diff(nn_s[2:]) == 0)
    assert np.all(np.diff(ball_s[:3]) == 0) and np.all(np.diff(ball_s[2:]) > 0)


def brute_flat(points, centers, radii):
    """Closed balls by the kd-tree's own test, (dx*dx + dy*dy) + dz*dz <= r*r."""
    d = points[None, :, :] - centers[:, None, :]
    d2 = (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2]
    inside = d2 <= radii[:, None] * radii[:, None]
    offsets = np.concatenate([[0], np.cumsum(inside.sum(axis=1))])
    return np.nonzero(inside)[1], offsets


_ball_coords = st.one_of(st.floats(-1, 1, allow_subnormal=False),
                         st.sampled_from([0.0, 0.25, -0.5]))


@st.composite
def _ball_case(draw):
    points = draw(arrays(np.float64, (draw(st.integers(1, 40)), 3), elements=_ball_coords))
    centers = draw(arrays(np.float64, (draw(st.integers(0, 20)), 3), elements=_ball_coords))
    radii = np.empty(len(centers))
    for i, c in enumerate(centers):
        # a free radius, or one point's distance from the center and the
        # floats one ulp either side: where sqrt(d2) <= r and d2 <= r*r
        # can disagree
        kind = draw(st.sampled_from(["free", "at", "below", "above"]))
        if kind == "free":
            radii[i] = draw(st.floats(0, 2))
            continue
        d = points[draw(st.integers(0, len(points) - 1))] - c
        radii[i] = np.sqrt((d[0] * d[0] + d[1] * d[1]) + d[2] * d[2])
        if kind != "at":
            radii[i] = np.nextafter(radii[i], 0.0 if kind == "below" else 3.0)
    return points, centers, radii


@settings(max_examples=300, deadline=None)
@given(case=_ball_case())
# squares are subnormal: d2 <= r*r holds although sqrt(d2) > r by far more than an ulp
@example(case=(np.zeros((1, 3)), np.array([[1.1219638162832103e-161, 0.0, 0.0]]),
               np.array([1.1042791565325132e-161])))
def test_ball_query_equals_brute_force_closed_ball(case):
    points, centers, radii = case
    idx = build_index(PointCloud(points))
    want_flat, want_offsets = brute_flat(points, centers, radii)
    flat, offsets = idx.radius_query_flat(centers, radii)
    assert np.array_equal(flat, want_flat)
    assert np.array_equal(offsets, want_offsets)


def joined_blocks(idx, centers, radii):
    """ball_blocks' results joined into one (flat, offsets), the block
    sizes and each block's kept pairs, read from its own offsets; each
    block must cover the centers right after the last."""
    flats, offsets, sizes, kept = [], [np.zeros(1, dtype=np.int64)], [], []
    for start, stop, flat, block_offsets in ball_blocks(idx, centers, radii):
        assert start == sum(sizes) and stop > start
        assert block_offsets.shape == (stop - start + 1,) and block_offsets[-1] == flat.size
        flats.append(flat)
        offsets.append(offsets[-1][-1] + block_offsets[1:])
        sizes.append(stop - start)
        kept.append(int(block_offsets[-1]))
    assert sum(sizes) == len(centers)
    flat = np.concatenate([np.zeros(0, dtype=np.int64)] + flats)
    return flat, np.concatenate(offsets), sizes, kept


@settings(max_examples=200, deadline=None)
@given(case=_ball_case(), scalar=st.booleans(), budget=st.integers(1, 64),
       first=st.integers(1, 8), least=st.integers(1, 4))
def test_ball_blocks_join_to_one_query(case, scalar, budget, first, least):
    # per-center radii (some equal to a point's distance) or one scalar
    # radius, no centers at all, and blocks from one center up
    points, centers, radii = case
    radii = radii[0] if scalar and len(radii) else radii
    idx = build_index(PointCloud(points))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spatial, "PAIR_BUDGET", budget)
        mp.setattr(spatial, "FIRST_BLOCK", first)
        mp.setattr(spatial, "MIN_BLOCK", least)
        flat, offsets = joined_blocks(idx, centers, radii)[:2]
    want_flat, want_offsets = idx.radius_query_flat(centers, radii)
    assert np.array_equal(flat, want_flat)
    assert np.array_equal(offsets, want_offsets)


def test_ball_blocks_follow_the_density():
    # a sparse cloud with a dense cluster: blocks double over the sparse
    # centers, shrink to the pair budget in the cluster and grow back
    rng = np.random.default_rng(4)
    points = np.vstack([rng.random((5000, 3)), 0.4 + 0.2 * rng.random((10000, 3))])
    centers = np.vstack([rng.random((3000, 3)), 0.45 + 0.1 * rng.random((1500, 3)),
                         rng.random((3000, 3))])
    idx = build_index(PointCloud(points))
    flat, offsets, sizes, kept = joined_blocks(idx, centers, 0.05)
    want_flat, want_offsets = idx.radius_query_flat(centers, 0.05)
    assert np.array_equal(flat, want_flat)
    assert np.array_equal(offsets, want_offsets)
    assert sizes[0] == spatial.FIRST_BLOCK
    for a, b, pairs in zip(sizes, sizes[1:-1], kept):
        assert b == min(2 * a, max(spatial.MIN_BLOCK, spatial.PAIR_BUDGET * a // max(pairs, 1)))
    assert max(sizes) >= 4 * spatial.FIRST_BLOCK and min(sizes[:-1]) < spatial.FIRST_BLOCK / 2
