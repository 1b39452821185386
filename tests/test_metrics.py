import numpy as np
import pytest

from curvrec.errors import EmptyInput, MissingNormals, NoArea
from curvrec.metrics import (MetricReport, chamfer, evaluate, f1_score,
                             normal_consistency, sample_mesh)
from curvrec.model import PointCloud, TriangleMesh


def brute_chamfer(a, b):
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return 1e3 * (d.min(axis=1).mean() + d.min(axis=0).mean())


def brute_f1(a, b, tau):
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    precision = (d.min(axis=1) <= tau).mean()
    recall = (d.min(axis=0) <= tau).mean()
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def brute_nc(a, na, b, nb):
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    fwd = np.abs(np.sum(na * nb[d.argmin(axis=1)], axis=1)).mean()
    bwd = np.abs(np.sum(nb * na[d.argmin(axis=0)], axis=1)).mean()
    return 0.5 * (fwd + bwd)


def random_cloud(rng, n, with_normals=True):
    pts = rng.normal(size=(n, 3))
    nrm = None
    if with_normals:
        nrm = rng.normal(size=(n, 3))
        nrm /= np.linalg.norm(nrm, axis=1)[:, None]
    return PointCloud(pts, nrm)


def test_sample_mesh_single_triangle():
    mesh = TriangleMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
                        np.array([[0, 1, 2]]))
    cloud = sample_mesh(mesh, 500, seed=0)
    assert len(cloud) == 500
    p = cloud.points
    assert np.all(p[:, 2] == 0)
    # inside the triangle: barycentric coordinates nonnegative, sum <= 1
    assert np.all(p[:, 0] >= 0) and np.all(p[:, 1] >= 0)
    assert np.all(p[:, 0] + p[:, 1] <= 1 + 1e-12)
    assert np.allclose(cloud.normals, [0, 0, 1])


def test_sample_mesh_area_proportional():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],      # area 0.5
                      [10, 0, 0], [13, 0, 0], [10, 1, 0]],  # area 1.5
                     dtype=float)
    mesh = TriangleMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
    cloud = sample_mesh(mesh, 10000, seed=1)
    frac_small = (cloud.points[:, 0] < 5).mean()
    # binomial 3-sigma band around 25%
    assert abs(frac_small - 0.25) < 3 * np.sqrt(0.25 * 0.75 / 10000) + 1e-9


def test_sample_mesh_deterministic():
    mesh = TriangleMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
                        np.array([[0, 1, 2]]))
    a = sample_mesh(mesh, 100, seed=3)
    b = sample_mesh(mesh, 100, seed=3)
    assert np.array_equal(a.points, b.points)


def test_sample_mesh_no_area():
    degenerate = TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(NoArea):
        sample_mesh(degenerate, 10, seed=0)
    with pytest.raises(NoArea):
        sample_mesh(TriangleMesh(), 10, seed=0)


def test_chamfer_examples():
    rng = np.random.default_rng(0)
    a = random_cloud(rng, 40)
    assert chamfer(a, a) == 0.0
    one = PointCloud(np.array([[0.0, 0, 0]]))
    two = PointCloud(np.array([[1.0, 0, 0]]))
    assert chamfer(one, two) == pytest.approx(2000.0, abs=1e-9)
    with pytest.raises(EmptyInput):
        chamfer(PointCloud(np.empty((0, 3))), one)


def test_chamfer_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = random_cloud(rng, int(rng.integers(5, 500)))
        b = random_cloud(rng, int(rng.integers(5, 500)))
        got = chamfer(a, b)
        expect = brute_chamfer(a.points, b.points)
        assert got == pytest.approx(expect, rel=1e-9)
        assert chamfer(b, a) == pytest.approx(got, rel=1e-12)  # symmetric


def test_f1_examples_and_brute_force():
    rng = np.random.default_rng(2)
    a = random_cloud(rng, 60)
    assert f1_score(a, a, 0.001) == 1.0
    far = PointCloud(a.points + 100.0)
    assert f1_score(a, far, 0.01) == 0.0
    for _ in range(10):
        x = random_cloud(rng, int(rng.integers(5, 300)))
        y = random_cloud(rng, int(rng.integers(5, 300)))
        tau = float(rng.uniform(0.05, 2.0))
        assert f1_score(x, y, tau) == pytest.approx(brute_f1(x.points, y.points, tau),
                                                    abs=1e-12)
        assert f1_score(y, x, tau) == f1_score(x, y, tau)


def test_f1_monotone_in_threshold():
    rng = np.random.default_rng(3)
    a = random_cloud(rng, 200)
    b = random_cloud(rng, 150)
    taus = np.sort(rng.uniform(0.01, 3.0, size=12))
    scores = [f1_score(a, b, t) for t in taus]
    assert np.all(np.diff(scores) >= 0)


def test_normal_consistency_examples():
    rng = np.random.default_rng(4)
    a = random_cloud(rng, 80)
    assert normal_consistency(a, a) == pytest.approx(1.0, abs=1e-12)
    flipped = PointCloud(a.points, -a.normals)
    assert normal_consistency(a, flipped) == pytest.approx(1.0, abs=1e-12)
    # planar positions with normals rotated 90 degrees everywhere
    pts = np.column_stack([rng.random(50), rng.random(50), np.zeros(50)])
    up = np.tile([0.0, 0, 1], (50, 1))
    side = np.tile([1.0, 0, 0], (50, 1))
    assert normal_consistency(PointCloud(pts, up), PointCloud(pts, side)) == \
        pytest.approx(0.0, abs=1e-12)


def test_normal_consistency_brute_force_and_errors():
    rng = np.random.default_rng(5)
    a = random_cloud(rng, 120)
    b = random_cloud(rng, 90)
    got = normal_consistency(a, b)
    assert got == pytest.approx(brute_nc(a.points, a.normals, b.points, b.normals),
                                abs=1e-12)
    assert normal_consistency(b, a) == pytest.approx(got, abs=1e-15)
    with pytest.raises(MissingNormals):
        normal_consistency(a, PointCloud(b.points))


def test_evaluate_equals_standalone_metrics():
    rng = np.random.default_rng(7)
    a, b = random_cloud(rng, 400), random_cloud(rng, 300)
    a, b = PointCloud(a.points * 0.01, a.normals), PointCloud(b.points * 0.01, b.normals)
    rep = evaluate(a, b, sample_count=400, seed=0)
    assert rep.cd == chamfer(a, b)
    assert rep.f1_0005 == f1_score(a, b, 0.005)
    assert rep.f1_001 == f1_score(a, b, 0.01)
    assert rep.nc == normal_consistency(a, b)
    assert 0 < rep.f1_0005 < rep.f1_001 < 1  # both thresholds split the matches


def test_evaluate_report():
    rng = np.random.default_rng(6)
    a = random_cloud(rng, 100)
    rep = evaluate(a, a, sample_count=100, seed=9)
    assert rep.cd == 0.0 and rep.f1_0005 == 1.0 and rep.f1_001 == 1.0
    assert rep.nc == pytest.approx(1.0, abs=1e-12)
    assert rep.seed == 9
    lines = rep.lines()
    assert lines[0].startswith("cd_x1000=")
    with pytest.raises(ValueError):
        MetricReport(cd=-1.0, f1_0005=0.5, f1_001=0.5, nc=0.5, sample_count=1, seed=0)
    with pytest.raises(ValueError):
        MetricReport(cd=1.0, f1_0005=1.5, f1_001=0.5, nc=0.5, sample_count=1, seed=0)
