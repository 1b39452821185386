import numpy as np
import pytest

from curvrec.model import PointCloud
from curvrec.patch import (Patch, ResamplePolicy, build_patch, extract_patch, pad_block,
                           resample)
from curvrec.spatial import build_index


@pytest.fixture
def indexed_cloud():
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.random((3000, 3)) - 0.5)
    return cloud, build_index(cloud)


def test_extract_far_and_tiny(indexed_cloud):
    cloud, index = indexed_cloud
    assert extract_patch(index, cloud, np.array([10.0, 10, 10]), 0.05).shape == (0, 3)
    q = cloud.points[42]
    got = extract_patch(index, cloud, q, 1e-9)
    assert got.shape[0] >= 1
    assert np.any(np.all(got == q, axis=1))
    with pytest.raises(ValueError):
        extract_patch(index, cloud, q, 0.0)


def test_extract_matches_brute_force(indexed_cloud):
    cloud, index = indexed_cloud
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = rng.random(3) - 0.5
        r = rng.uniform(0.02, 0.2)
        got = extract_patch(index, cloud, q, r)
        d = np.linalg.norm(cloud.points - q, axis=1)
        expect = cloud.points[d <= r]
        assert np.array_equal(got, expect)  # ascending source order both sides


def test_resample_centroid_fill():
    policy = ResamplePolicy(target_count=4, curvature_threshold=0.5, rng_seed=0)
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    out = resample(pts, sigma=0.1, policy=policy)
    assert np.array_equal(out, [[0, 0, 0], [1, 0, 0], [0.5, 0, 0], [0.5, 0, 0]])


def test_resample_duplication_fill():
    policy = ResamplePolicy(target_count=4, curvature_threshold=0.5, rng_seed=0)
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    out = resample(pts, sigma=0.5, policy=policy)
    assert np.array_equal(out, [[0, 0, 0], [1, 0, 0], [0, 0, 0], [1, 0, 0]])
    # round-robin wraps in ascending index order
    out5 = resample(pts, sigma=0.9, policy=ResamplePolicy(target_count=5,
                                                          curvature_threshold=0.5))
    assert np.array_equal(out5[2:], [[0, 0, 0], [1, 0, 0], [0, 0, 0]])


def test_resample_identity_and_empty():
    policy = ResamplePolicy(target_count=3, curvature_threshold=0.5)
    pts = np.arange(9, dtype=float).reshape(3, 3)
    assert np.array_equal(resample(pts, 0.0, policy), pts)
    assert resample(np.empty((0, 3)), 0.0, policy).shape == (0, 3)


def test_resample_subsample():
    rng = np.random.default_rng(2)
    pts = rng.random((40, 3))
    policy = ResamplePolicy(target_count=16, curvature_threshold=0.5, rng_seed=7)
    out = resample(pts, 0.0, policy, query_id=11)
    assert out.shape == (16, 3)
    # without replacement, drawn from the input set
    as_rows = {tuple(r) for r in pts}
    got_rows = [tuple(r) for r in out]
    assert set(got_rows) <= as_rows
    assert len(set(got_rows)) == 16
    # deterministic given (seed, query_id); different query ids decorrelate
    again = resample(pts, 0.0, policy, query_id=11)
    assert np.array_equal(out, again)
    other = resample(pts, 0.0, policy, query_id=12)
    assert not np.array_equal(out, other)


def test_centroid_fill_preserves_mean():
    rng = np.random.default_rng(3)
    pts = rng.random((5, 3))
    policy = ResamplePolicy(target_count=12, curvature_threshold=1.0)
    out = resample(pts, 0.0, policy)
    assert np.abs(out.mean(axis=0) - pts.mean(axis=0)).max() < 1e-12


def test_duplication_introduces_no_new_coordinates():
    rng = np.random.default_rng(4)
    pts = rng.random((5, 3))
    policy = ResamplePolicy(target_count=13, curvature_threshold=0.0)
    out = resample(pts, 0.3, policy)
    rows = {tuple(r) for r in pts}
    assert all(tuple(r) in rows for r in out)


def test_output_size_exact(indexed_cloud):
    cloud, index = indexed_cloud
    rng = np.random.default_rng(5)
    policy = ResamplePolicy(target_count=64, curvature_threshold=0.05, rng_seed=1)
    for qid in range(30):
        q = rng.random(3) - 0.5
        r = rng.uniform(0.03, 0.3)
        p = build_patch(index, cloud, q, r, sigma=rng.uniform(0, 0.3),
                        policy=policy, query_id=qid)
        raw = extract_patch(index, cloud, q, r)
        assert p.source_count == raw.shape[0]
        if raw.shape[0] == 0:
            assert p.is_empty
        else:
            assert len(p) == 64
            # everything stays inside the closed ball
            d = np.linalg.norm(p.points - q, axis=1)
            assert d.max() <= r + 1e-12


def test_pad_block_matches_scalar_resample():
    # Bit equality, not closeness: a centroid summed in another order than
    # pts.mean(axis=0) drifts in the last ulp and moves the mesh.
    rng = np.random.default_rng(6)
    policy = ResamplePolicy(target_count=64, curvature_threshold=0.1, rng_seed=3)
    m = 2000
    counts = rng.integers(1, policy.target_count + 1, size=m)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    points = rng.normal(size=(5000, 3)) * rng.uniform(1e-3, 10, size=(5000, 1)) + 0.3
    flat = rng.integers(0, points.shape[0], size=offsets[-1])
    sigma = rng.uniform(0.0, 0.2, size=m)
    assert (sigma < policy.curvature_threshold).any() and (sigma >= 0.1).any()
    block = pad_block(points, flat, offsets, sigma, policy)
    expect = np.stack([resample(points[flat[offsets[i]:offsets[i + 1]]], sigma[i], policy)
                       for i in range(m)])
    assert np.array_equal(block, expect)


def test_pad_block_leaves_oversized_rows_to_resample():
    policy = ResamplePolicy(target_count=4, curvature_threshold=0.5)
    points = np.arange(30, dtype=float).reshape(10, 3)
    offsets = np.array([0, 7, 9])
    block = pad_block(points, np.arange(9), offsets, np.array([0.0, 0.0]), policy)
    assert np.array_equal(block[0], points[:4])
    assert np.array_equal(block[1], resample(points[7:9], 0.0, policy))


def test_patch_fields():
    p = Patch(query=[0, 0, 0], radius_used=0.1,
              points=np.zeros((4, 3)), source_count=2, sigma=0.2)
    assert len(p) == 4 and not p.is_empty
    with pytest.raises(ValueError):
        ResamplePolicy(target_count=0)
