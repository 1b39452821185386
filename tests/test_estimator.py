import numpy as np
import pytest

from curvrec import pipeline
from curvrec.estimator import NearestPointEstimator, PlaneFitEstimator, make_estimator
from curvrec.model import PointCloud
from curvrec.patch import ResamplePolicy
from curvrec.pipeline import PipelineConfig, run_pipeline
from curvrec.spatial import build_index
from oracles import estimate_nearest_point as nearest_oracle
from oracles import estimate_plane_fit as plane_oracle


def _one_row(estimator):
    """The estimator applied to a single (query, patch) row."""
    def estimate(q, patch):
        q = np.asarray(q, dtype=float).reshape(1, 3)
        return float(estimator.estimate_batch(q, np.asarray(patch, dtype=float)[None])[0])
    return estimate


estimate_nearest_point = _one_row(NearestPointEstimator())
estimate_plane_fit = _one_row(PlaneFitEstimator())


def mkpatch(points):
    return np.asarray(points, dtype=float).reshape(-1, 3)


def test_nearest_examples():
    assert estimate_nearest_point([1.0, 0, 0], mkpatch([[1.0, 0, 0], [5, 5, 5]])) == 0.0
    assert estimate_nearest_point([0.0, 0, 0],
                                  mkpatch([[1.0, 0, 0], [0, 2.0, 0]])) == 1.0


def test_nearest_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(100):
        pts = rng.normal(size=(rng.integers(1, 50), 3))
        q = rng.normal(size=3)
        expect = min(np.linalg.norm(p - q) for p in pts)
        assert estimate_nearest_point(q, mkpatch(pts)) == pytest.approx(expect, abs=1e-12)


def test_plane_examples():
    rng = np.random.default_rng(1)
    planar = np.column_stack([rng.random(30) - 0.5, rng.random(30) - 0.5, np.zeros(30)])
    assert estimate_plane_fit([0.1, 0.2, 0.5], mkpatch(planar)) == pytest.approx(0.5, abs=1e-12)
    assert estimate_plane_fit([0.1, 0.2, 0.0], mkpatch(planar)) == pytest.approx(0.0, abs=1e-12)


def test_plane_on_sphere_cap_bounded():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(400, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    cap = v[v[:, 2] > 0.9] * 0.3           # cap of a radius-0.3 sphere
    q = np.array([0.0, 0.0, 0.3])          # on the sphere, above the cap
    patch = mkpatch(cap)
    plane_d = estimate_plane_fit(q, patch)
    near_d = estimate_nearest_point(q, patch)
    assert plane_d <= near_d + 1e-15
    # sagitta bound: the cap deviates from its base plane by at most r*(1-cos)
    zmax, zmin = cap[:, 2].max(), cap[:, 2].min()
    sagitta = zmax - zmin
    assert plane_d <= sagitta + 1e-12


def test_plane_degenerate_falls_back_to_nearest():
    line = np.outer(np.linspace(-1, 1, 8), [1.0, 0, 0])
    q = [0.0, 3.0, 0.0]
    assert estimate_plane_fit(q, mkpatch(line)) == estimate_nearest_point(q, mkpatch(line))
    dup = np.tile([0.5, 0, 0], (6, 1))
    assert estimate_plane_fit(q, mkpatch(dup)) == estimate_nearest_point(q, mkpatch(dup))


def test_planar_patch_exactness():
    # lattice-sampled plane: foot points are samples, all three distances agree
    ax = np.linspace(-0.5, 0.5, 21)
    gx, gy = np.meshgrid(ax, ax)
    plane = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    patch = mkpatch(plane)
    rng = np.random.default_rng(3)
    for _ in range(25):
        i = rng.integers(0, 21)
        j = rng.integers(0, 21)
        z = rng.uniform(-0.4, 0.4)
        q = np.array([ax[i], ax[j], z])
        truth = abs(z)
        assert estimate_nearest_point(q, patch) == pytest.approx(truth, abs=1e-9)
        assert estimate_plane_fit(q, patch) == pytest.approx(truth, abs=1e-9)
    # off-node queries can only overestimate with the nearest-point rule
    for _ in range(50):
        q = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4),
                      rng.uniform(-0.4, 0.4)])
        assert estimate_nearest_point(q, patch) >= abs(q[2]) - 1e-12


def test_far_examples():
    # Queries with no point inside their radius read the capped global
    # nearest distance, which the pipeline computes without an estimator.
    cloud = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
    index = build_index(cloud)
    policy = ResamplePolicy(target_count=4)

    def estimate_far(queries, far_cap):
        positions = np.asarray(queries, dtype=float).reshape(-1, 3)
        m = positions.shape[0]
        radii = np.full(m, 1e-9)
        nn = pipeline._nearest(index, positions, radii, far_cap, workers=1)
        return pipeline._evaluate_queries(
            index, positions, radii, np.zeros(m), np.arange(m), policy,
            make_estimator("nearest"), far_cap, nn, [], [], 1)

    assert estimate_far([0.0, 0, 0], far_cap=0.1).tolist() == [0.0]
    assert estimate_far([10.0, 0, 0], far_cap=0.1)[0] == pytest.approx(0.1)
    rng = np.random.default_rng(4)
    queries = rng.normal(size=(50, 3)) * 2
    brute = np.array([min(np.linalg.norm(cloud.points - q, axis=1)) for q in queries])
    assert np.abs(estimate_far(queries, 0.7) - np.minimum(brute, 0.7)).max() < 1e-12
    for far_cap in (0.0, -1.0):
        with pytest.raises(ValueError):
            run_pipeline(PipelineConfig(far_cap=far_cap), cloud)


def test_estimates_nonnegative_finite():
    rng = np.random.default_rng(5)
    for _ in range(100):
        pts = rng.normal(size=(16, 3))
        q = rng.normal(size=3) * 3
        for fn in (estimate_nearest_point, estimate_plane_fit):
            val = fn(q, mkpatch(pts))
            assert np.isfinite(val) and val >= 0.0


def test_batch_matches_scalar():
    rng = np.random.default_rng(6)
    queries = rng.normal(size=(64, 3))
    patches = rng.normal(size=(64, 16, 3))
    for name in ("nearest", "plane"):
        est = make_estimator(name)
        batch = est.estimate_batch(queries, patches)
        oracle = nearest_oracle if name == "nearest" else plane_oracle
        scalar = np.array([oracle(q, p) for q, p in zip(queries, patches)])
        assert np.abs(batch - scalar).max() < 1e-12


def test_batch_handles_degenerate_rows():
    est = PlaneFitEstimator()
    queries = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    line = np.outer(np.linspace(0, 1, 8), [1.0, 0, 0])
    planar = np.column_stack([np.linspace(0, 1, 8), np.linspace(1, 0, 8) ** 2,
                              np.zeros(8)])
    batch = est.estimate_batch(queries, np.stack([line, planar]))
    assert batch[0] == pytest.approx(plane_oracle(queries[0], line), abs=1e-15)
    assert batch[1] == pytest.approx(1.0, abs=1e-12)


def test_make_estimator():
    assert isinstance(make_estimator("nearest"), NearestPointEstimator)
    assert isinstance(make_estimator("plane"), PlaneFitEstimator)
    with pytest.raises(ValueError):
        make_estimator("neural")
