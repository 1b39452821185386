import numpy as np
import pytest

from curvrec import model
from curvrec.errors import DegenerateExtent, EmptyCloud
from curvrec.model import (NormalizationTransform, PointCloud, TriangleMesh,
                           denormalize_mesh, normalize_cloud)


def cube_corners(lo, hi):
    return np.array([[x, y, z] for x in (lo, hi) for y in (lo, hi) for z in (lo, hi)],
                    dtype=float)


def test_normalize_unit_cube_mapping():
    cloud = PointCloud(cube_corners(0.0, 2.0))
    out, t = normalize_cloud(cloud)
    assert np.allclose(sorted(out.points[:, 0]), [-0.5] * 4 + [0.5] * 4)
    assert out.points.min() == -0.5 and out.points.max() == 0.5
    assert t.scale == 0.5
    assert np.allclose(t.translation, [-1.0, -1.0, -1.0])


def test_normalize_degenerate_and_empty():
    with pytest.raises(DegenerateExtent):
        normalize_cloud(PointCloud(np.tile([1.0, 2.0, 3.0], (5, 1))))
    with pytest.raises(EmptyCloud):
        normalize_cloud(PointCloud(np.empty((0, 3))))


def test_normalize_random_cloud_bounds():
    rng = np.random.default_rng(7)
    cloud = PointCloud(rng.normal(scale=5.0, size=(1000, 3)) + [10, -3, 0.5])
    out, _ = normalize_cloud(cloud)
    assert np.abs(out.points).max() <= 0.5 + 1e-12


def test_normalize_preserves_aspect_ratio():
    rng = np.random.default_rng(3)
    pts = rng.random((200, 3)) * [4.0, 2.0, 1.0]
    out, _ = normalize_cloud(PointCloud(pts))
    extent_in = pts.max(axis=0) - pts.min(axis=0)
    extent_out = out.points.max(axis=0) - out.points.min(axis=0)
    assert np.allclose(extent_out / extent_in, extent_out[0] / extent_in[0], rtol=1e-12)


def test_normalize_idempotent():
    rng = np.random.default_rng(11)
    cloud = PointCloud(rng.normal(size=(500, 3)) * 3.0)
    once, _ = normalize_cloud(cloud)
    twice, t2 = normalize_cloud(once)
    assert abs(t2.scale - 1.0) < 1e-12
    assert np.abs(t2.translation).max() < 1e-12
    assert np.abs(twice.points - once.points).max() < 1e-12


def test_denormalize_identity_and_roundtrip():
    tri = TriangleMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
                       np.array([[0, 1, 2]]))
    ident = NormalizationTransform(scale=1.0, translation=np.zeros(3))
    out = denormalize_mesh(tri, ident)
    assert np.array_equal(out.vertices, tri.vertices)
    assert out.faces is tri.faces  # shared, not copied

    rng = np.random.default_rng(2)
    pts = rng.normal(size=(50, 3)) * 7.0 + [3, -1, 4]
    cloud = PointCloud(pts)
    norm, t = normalize_cloud(cloud)
    mesh = TriangleMesh(norm.points, np.array([[0, 1, 2], [3, 4, 5]]))
    back = denormalize_mesh(mesh, t)
    rel = np.abs(back.vertices - pts[:50]) / np.maximum(np.abs(pts[:50]), 1.0)
    assert rel.max() < 1e-9


def test_denormalize_empty_mesh():
    t = NormalizationTransform(scale=2.0, translation=np.array([1.0, 0.0, 0.0]))
    out = denormalize_mesh(TriangleMesh(), t)
    assert out.num_vertices == 0 and out.num_faces == 0


def test_transform_roundtrip_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pts = rng.normal(size=(100, 3)) * rng.uniform(0.1, 100)
        _, t = normalize_cloud(PointCloud(pts))
        back = t.invert(t.apply(pts))
        rel = np.abs(back - pts) / np.maximum(np.abs(pts), 1.0)
        assert rel.max() < 1e-9


def test_pointcloud_normal_validation(monkeypatch):
    pts = np.zeros((2, 3))
    good = np.array([[0, 0, 1.0], [1.0, 0, 0]])
    PointCloud(pts, good)
    with pytest.raises(ValueError):
        PointCloud(pts, good * 2.0)
    with pytest.raises(ValueError):
        PointCloud(pts, good[:1])
    # lengths are checked a block of rows at a time, up to the last row
    monkeypatch.setattr(model, "_CHECK_ROWS", 3)
    normals = np.tile([0.0, 0.6, 0.8], (7, 1))
    PointCloud(np.zeros((7, 3)), normals)
    for row in (0, 2, 3, 6):
        bad = normals.copy()
        bad[row] *= 1.00001
        with pytest.raises(ValueError, match="unit length"):
            PointCloud(np.zeros((7, 3)), bad)


def test_normalize_cloud_gives_the_transforms_bits():
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.normal(size=(1000, 3)) * 1e3 + 7.0)
    norm, t = normalize_cloud(cloud)
    assert norm.points.tobytes() == t.apply(cloud.points).tobytes()
    assert norm.normals is None


def test_mesh_validation():
    v = np.zeros((3, 3))
    with pytest.raises(ValueError):
        TriangleMesh(v, np.array([[0, 1, 3]]))
    with pytest.raises(ValueError):
        TriangleMesh(v, np.array([[1, 1, 1]]))
    with pytest.raises(ValueError):
        TriangleMesh(np.array([[np.inf, 0, 0]]), np.empty((0, 3), dtype=int))
