import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvrec.model import PointCloud
from curvrec.patch import (GAP_RATIO, SYM3, ResamplePolicy, _order_in_segments, csr_subset,
                           pad_weights, resample, segmented_moments, splitmix64, symmetric_eigen)
from curvrec.spatial import build_index
from oracles import resample as resample_oracle
from oracles import splitmix64 as splitmix64_oracle


@pytest.fixture
def indexed_cloud():
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.random((3000, 3)) - 0.5)
    return cloud, build_index(cloud)


def extract(index, cloud, queries, radii):
    """Raw patch per query, gathered from the ball query as the pipeline does."""
    flat, offsets = index.radius_query_flat(np.reshape(queries, (-1, 3)), radii)
    return [cloud.points[flat[a:b]] for a, b in zip(offsets[:-1], offsets[1:])]


def test_extract_far_and_tiny(indexed_cloud):
    cloud, index = indexed_cloud
    assert extract(index, cloud, [10.0, 10, 10], 0.05)[0].shape == (0, 3)
    q = cloud.points[42]
    got = extract(index, cloud, q, 1e-9)[0]
    assert got.shape[0] >= 1
    assert np.any(np.all(got == q, axis=1))


def test_extract_matches_brute_force(indexed_cloud):
    cloud, index = indexed_cloud
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = rng.random(3) - 0.5
        r = rng.uniform(0.02, 0.2)
        got = extract(index, cloud, q, r)[0]
        d = np.linalg.norm(cloud.points - q, axis=1)
        expect = cloud.points[d <= r]
        assert np.array_equal(got, expect)  # ascending source order both sides


def padded(points, offsets, sigma, policy):
    """The target_count samples pad_weights makes of each patch: its entries
    repeated by weight, then its centroid copies."""
    weights, copies = pad_weights(offsets, sigma, policy)
    _, mean, _ = segmented_moments(points, offsets, np.ones(len(points)))
    rows = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    return [np.concatenate([np.repeat(points[rows == i], weights[rows == i], axis=0),
                            np.repeat(mean[i:i + 1], copies[i], axis=0)])
            for i in range(offsets.size - 1)]


def sorted_rows(pts):
    return pts[np.lexsort(pts.T[::-1])]


def same_rows(got, expect):
    """The same multiset of rows, centroid copies equal to rounding (the
    oracle's pts.mean and the segmented sum add in different orders)."""
    return np.abs(sorted_rows(got) - sorted_rows(expect)).max() <= 1e-12


def pad_one(pts, sigma, policy):
    """A patch of at most target_count points, padded as the scalar oracle pads it."""
    pts = np.asarray(pts, dtype=float)
    one = padded(pts, np.array([0, len(pts)]), np.array([sigma]), policy)[0]
    assert same_rows(one, resample_oracle(pts, sigma, policy))
    return one


def test_resample_centroid_fill():
    policy = ResamplePolicy(target_count=4, curvature_threshold=0.5, rng_seed=0)
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    out = pad_one(pts, sigma=0.1, policy=policy)
    assert np.array_equal(out, [[0, 0, 0], [1, 0, 0], [0.5, 0, 0], [0.5, 0, 0]])


def test_resample_duplication_fill():
    policy = ResamplePolicy(target_count=4, curvature_threshold=0.5, rng_seed=0)
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    out = pad_one(pts, sigma=0.5, policy=policy)
    assert np.array_equal(out, [[0, 0, 0], [0, 0, 0], [1, 0, 0], [1, 0, 0]])
    # round-robin wraps in ascending index order: the first entry gets the extra copy
    weights, copies = pad_weights(np.array([0, 2]), np.array([0.9]),
                                  ResamplePolicy(target_count=5, curvature_threshold=0.5))
    assert weights.tolist() == [3, 2] and copies.tolist() == [0]


def test_resample_identity_and_empty():
    policy = ResamplePolicy(target_count=3, curvature_threshold=0.5)
    pts = np.arange(9, dtype=float).reshape(3, 3)
    for sigma in (0.0, 0.9):
        assert np.array_equal(pad_one(pts, sigma, policy), pts)
    with pytest.raises(ValueError):
        ResamplePolicy(target_count=0)


def test_splitmix64_matches_reference():
    # the first output of splitmix64 seeded with 0 (Vigna's reference code)
    assert splitmix64(np.zeros(1, dtype=np.uint64)).tolist() == [0xE220A8397B1DCDAF]
    x = np.random.default_rng(2).integers(0, 2 ** 64, size=200, dtype=np.uint64)
    assert splitmix64(x).tolist() == [splitmix64_oracle(int(v)) for v in x]


def test_resample_subsample():
    rng = np.random.default_rng(2)
    pts = rng.random((40, 3))
    policy = ResamplePolicy(target_count=16, curvature_threshold=0.5, rng_seed=7)
    flat, offsets = np.arange(40), np.array([0, 40])
    pick = resample(flat, offsets, policy, np.array([11]))
    out = pts[pick]
    assert out.shape == (16, 3)
    # without replacement, drawn from the input set
    assert len(set(pick.tolist())) == 16 and set(pick.tolist()) <= set(range(40))
    # deterministic given (seed, query_id); different query ids decorrelate
    assert np.array_equal(pick, resample(flat, offsets, policy, np.array([11])))
    assert same_rows(out, resample_oracle(pts, 0.0, policy, query_id=11))
    other = resample(flat, offsets, policy, np.array([12]))
    assert set(pick.tolist()) != set(other.tolist())


def test_resample_picks_each_patch_as_the_scalar_oracle_in_any_block():
    rng = np.random.default_rng(8)
    policy = ResamplePolicy(target_count=5, rng_seed=2 ** 64 - 3)
    counts = rng.integers(6, 40, size=300)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    # ascending point indices per patch, as the ball query returns them
    flat = np.concatenate([np.sort(rng.choice(10 ** 6, size=n, replace=False)) for n in counts])
    query_ids = rng.choice(10 ** 7, size=counts.size, replace=False)
    picked = np.zeros(flat.size, dtype=bool)
    picked[resample(flat, offsets, policy, query_ids)] = True
    for i, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
        ids = flat[a:b].astype(float)
        expect = resample_oracle(np.repeat(ids[:, None], 3, axis=1), 0.0, policy,
                                 query_id=query_ids[i], point_ids=flat[a:b])[:, 0]
        assert sorted(flat[a:b][picked[a:b]]) == sorted(expect)
    # a patch picks the same entries in any block, in any position within it
    for segments in (np.arange(7, 300, 13), np.arange(299, -1, -1)):
        entries, sub = csr_subset(offsets, segments)
        again = np.zeros(flat.size, dtype=bool)
        again[entries[resample(flat[entries], sub, policy, query_ids[segments])]] = True
        assert np.array_equal(again[entries], picked[entries])


def test_order_in_segments_is_exact_when_top_bits_tie():
    rng = np.random.default_rng(3)
    segments = np.repeat(np.arange(4, dtype=np.uint64), 50)
    keys = rng.integers(0, 2 ** 64, size=200, dtype=np.uint64)
    exact = np.lexsort((keys, segments))
    assert np.array_equal(_order_in_segments(segments, keys), exact)
    # distinct keys that differ only below the packed top bits tie in the fast sort
    low = rng.permutation(200).astype(np.uint64)
    assert np.array_equal(_order_in_segments(segments, low), np.lexsort((low, segments)))


def test_centroid_fill_preserves_mean():
    rng = np.random.default_rng(3)
    pts = rng.random((5, 3))
    policy = ResamplePolicy(target_count=12, curvature_threshold=1.0)
    out = pad_one(pts, 0.0, policy)
    assert np.abs(out.mean(axis=0) - pts.mean(axis=0)).max() < 1e-12


def test_duplication_introduces_no_new_coordinates():
    rng = np.random.default_rng(4)
    pts = rng.random((5, 3))
    policy = ResamplePolicy(target_count=13, curvature_threshold=0.0)
    out = pad_one(pts, 0.3, policy)
    rows = {tuple(r) for r in pts}
    assert all(tuple(r) in rows for r in out)


def test_output_size_exact(indexed_cloud):
    cloud, index = indexed_cloud
    rng = np.random.default_rng(5)
    policy = ResamplePolicy(target_count=64, curvature_threshold=0.05, rng_seed=1)
    queries = rng.random((30, 3)) - 0.5
    radii = rng.uniform(0.03, 0.3, size=30)
    sigma = rng.uniform(0, 0.3, size=30)
    flat, offsets = index.radius_query_flat(queries, radii)
    counts = np.diff(offsets)
    brute = [np.count_nonzero(np.linalg.norm(cloud.points - q, axis=1) <= r)
             for q, r in zip(queries, radii)]
    assert counts.tolist() == brute
    # empty patches are dropped first, as in the pipeline
    hit = counts > 0
    rows, offsets = np.flatnonzero(hit), offsets[np.r_[True, hit]]
    weights, copies = pad_weights(offsets, sigma[rows], policy)
    big = np.flatnonzero(np.diff(offsets) > policy.target_count)
    entries, big_offsets = csr_subset(offsets, big)
    assert big.size and not weights[entries].any()
    weights[entries[resample(flat[entries], big_offsets, policy, rows[big])]] = 1
    # every patch counts exactly target_count samples
    assert (np.add.reduceat(weights, offsets[:-1]) + copies == 64).all()
    assert weights.min() >= 0
    # everything with weight stays inside the closed ball
    d = np.linalg.norm(cloud.points[flat] - np.repeat(queries[rows], np.diff(offsets), axis=0),
                       axis=1)
    assert (d[weights > 0] <= np.repeat(radii[rows], np.diff(offsets))[weights > 0] + 1e-12).all()


def test_pad_weights_match_scalar_resample():
    rng = np.random.default_rng(6)
    policy = ResamplePolicy(target_count=64, curvature_threshold=0.1, rng_seed=3)
    m = 2000
    counts = rng.integers(1, policy.target_count + 1, size=m)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    points = rng.normal(size=(5000, 3)) * rng.uniform(1e-3, 10, size=(5000, 1)) + 0.3
    flat = rng.integers(0, points.shape[0], size=offsets[-1])
    sigma = rng.uniform(0.0, 0.2, size=m)
    assert (sigma < policy.curvature_threshold).any() and (sigma >= 0.1).any()
    got = padded(points[flat], offsets, sigma, policy)
    for i in range(m):
        expect = resample_oracle(points[flat[offsets[i]:offsets[i + 1]]], sigma[i], policy)
        assert same_rows(got[i], expect)


def test_pad_weights_leave_oversized_rows_to_resample():
    policy = ResamplePolicy(target_count=4, curvature_threshold=0.5)
    points = np.arange(30, dtype=float).reshape(10, 3)
    offsets = np.array([0, 7, 9])
    weights, copies = pad_weights(offsets, np.array([0.0, 0.0]), policy)
    assert weights[:7].tolist() == [0] * 7 and copies[0] == 0
    got = padded(points[:9], offsets, np.array([0.0, 0.0]), policy)[1]
    assert np.array_equal(got, resample_oracle(points[7:9], 0.0, policy))


EPS = np.finfo(np.float64).eps


def _sym3_entries(m):
    """The (6, S) SYM3 entries of the (S, 3, 3) matrices m."""
    i, j = np.array(SYM3).T
    return m[:, i, j].T


def _point_sets(rng):
    """Centred point sets of every spectrum symmetric_eigen must handle."""
    rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    corners = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float)
    n = int(rng.integers(3, 40))
    sets = [rng.normal(size=(n, 3)) * rng.uniform(0.01, 1.0, size=3) @ rot,  # random PSD
            np.zeros((n, 3)),                                              # rank 0
            np.outer(rng.normal(size=n), rng.normal(size=3)),              # rank 1
            rng.normal(size=(n, 2)) @ rng.normal(size=(2, 3)),             # rank 2
            np.column_stack([rng.normal(size=(n, 2)), np.zeros(n)]),       # exactly planar
            corners, corners @ rot,                                        # triple root
            corners * [1, 1, 2] @ rot, corners * [1, 2, 2] @ rot]          # double roots
    return [p - p.mean(axis=0) for p in sets]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.integers(-4, 4))
def test_symmetric_eigen_matches_lapack(seed, exponent):
    # covariances from 1e-8 to 1e8, every kind in one batch so that the rows
    # sent to eigh are interleaved with the closed-form ones
    rng = np.random.default_rng(seed)
    sets = [p * 10.0 ** exponent for p in _point_sets(rng)]
    cov = np.array([p.T @ p / len(p) for p in sets])
    w, v = symmetric_eigen(_sym3_entries(cov))
    ref_w, ref_v = np.linalg.eigh(cov)
    trace = np.trace(cov, axis1=1, axis2=2)
    assert (np.abs(w - ref_w) <= 64 * EPS * trace[:, None]).all()
    gaps = np.diff(ref_w, axis=1)
    lapack = gaps.min(axis=1) <= GAP_RATIO / 2 * trace  # the zero matrix included
    assert np.array_equal(w[lapack], ref_w[lapack])
    assert np.array_equal(v[lapack], ref_v[lapack, :, 0])
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, rtol=0, atol=4 * EPS)
    # where the smallest eigenvalue is well apart, the normal agrees with the
    # SVD of the points to rounding over that gap
    gap = gaps[:, 0] / np.maximum(trace, np.finfo(float).tiny)
    for p, normal, g in zip(sets, v, gap):
        if g >= 0.1:
            svd_normal = np.linalg.svd(p)[2][-1]
            assert np.linalg.norm(np.cross(normal, svd_normal)) <= 64 * EPS / g
    # an exactly planar set reads exactly 0 and the exact normal
    assert w[4, 0] == 0.0 and abs(v[4, 2]) == 1.0


def test_segmented_moments_match_the_centred_scatter():
    # spread 0.01 far from the origin, with weights, in segments of 1 to 30 entries
    rng = np.random.default_rng(7)
    counts = rng.integers(1, 30, size=50)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    points = rng.normal(size=(offsets[-1], 3)) * 0.01 + 1e3
    weights = rng.integers(1, 5, size=offsets[-1])
    total, mean, scatter = segmented_moments(points, offsets, weights)
    for s, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
        p, w = points[a:b], weights[a:b]
        m = (p * w[:, None]).sum(axis=0) / w.sum()
        c = ((p - m) * w[:, None]).T @ (p - m)
        assert total[s] == w.sum()
        assert np.abs(mean[s] - m).max() <= 1e3 * 4 * EPS
        assert np.abs(_sym3_entries(c[None])[:, 0] - scatter[:, s]).max() <= 64 * EPS * 1e-4 * w.sum()
