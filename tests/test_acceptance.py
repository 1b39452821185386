"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines;
each test also enforces its stated runtime budget.
"""

import time

import numpy as np
import pytest

from curvrec import fixtures
from curvrec.curvature import _segmented_variation, curvature_field
from curvrec.grid import (AdaptiveGrid, LatticeSpec, coarse_queries, hierarchical_fill,
                          refine_with_parents)
from curvrec.metrics import chamfer, f1_score, normal_consistency, sample_mesh
from curvrec.model import PointCloud, normalize_cloud
from curvrec.pipeline import PipelineConfig, bench, run_pipeline
from curvrec.schedule import RadiusSchedule, radius as sched_radius, scale_factor
from curvrec.spatial import build_index


def _verdict(num, label, checks, elapsed, budget):
    failures = [name for name, ok in checks if not ok]
    ok = not failures and elapsed < budget
    status = "PASS" if ok else "FAIL"
    extra = f"; failed: {', '.join(failures)}" if failures else ""
    print(f"[{status}] criterion {num}: {label} "
          f"({elapsed:.2f}s of {budget:.0f}s budget{extra})")
    assert ok, f"criterion {num} failed: {failures or 'runtime budget exceeded'}"


def test_criterion_1_radius_schedule():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    checks = []
    schedules = [RadiusSchedule(p10=0.01, p40=0.04, p60=0.09, p90=0.20)]
    while len(schedules) < 6:
        b = np.sort(rng.uniform(0, 1 / 3, size=4))
        if np.diff(b).min() >= 0.01:  # realistic percentile spacing
            schedules.append(RadiusSchedule(p10=b[0], p40=b[1], p60=b[2], p90=b[3]))

    # continuity within 1e-6; the sqrt ramp's modulus at p10 is
    # (s_max-1)*(eps/width)**0.5 (see decisions ledger), so a 1e-14 probe
    # keeps the jump near 3.5e-7 for widths down to 0.01
    eps = 1e-14
    cont = all(abs(scale_factor(s, b - eps) - scale_factor(s, b + eps)) < 1e-6
               for s in schedules for b in (s.p10, s.p40, s.p60, s.p90)
               if b - eps > 0)
    checks.append(("continuity@1e-6", cont))

    s = schedules[0]
    pairs = np.sort(rng.uniform(0, 1 / 3, size=(10000, 2)), axis=1)
    mono = bool(np.all(scale_factor(s, pairs[:, 0]) >= scale_factor(s, pairs[:, 1])))
    checks.append(("monotone-10k-pairs", mono))

    vals = np.concatenate([scale_factor(s, rng.uniform(0, 1.0, size=10000))
                           for s in schedules])
    checks.append(("range-[2/3,1.35]", bool(vals.min() >= 2 / 3 and vals.max() <= 1.35)))

    plateau = np.linspace(s.p40, s.p60, 64, endpoint=False)
    checks.append(("plateau-exactly-1", bool(np.all(scale_factor(s, plateau) == 1.0))))
    _verdict(1, "radius schedule", checks, time.perf_counter() - t0, 1.0)


def surface_variation(points):
    """The batched variation curvature_field uses, over one segment."""
    return float(_segmented_variation(points, np.array([len(points)]))[0])


def refine(grid, hot_ids):
    return refine_with_parents(grid, hot_ids)[0]


def test_criterion_2_curvature():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    checks = []

    planar_ok = True
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        pts2d = rng.random((50, 2)) - 0.5
        patch = np.column_stack([pts2d, np.zeros(50)]) @ q.T + rng.normal(size=3)
        planar_ok &= abs(surface_variation(patch)) <= 1e-12
    checks.append(("planar-sigma-0", planar_ok))

    corners = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
                       dtype=float)
    cube_ok = True
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        moved = corners @ q.T * rng.uniform(0.2, 5.0) + rng.normal(size=3)
        cube_ok &= abs(surface_variation(moved) - 1 / 3) <= 1e-12
    checks.append(("cube-corners-1/3", cube_ok))

    base = rng.normal(size=(80, 3)) * [1.0, 0.4, 0.03]
    ref = surface_variation(base)
    inv_ok = True
    for _ in range(1000):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        moved = base @ q.T * rng.uniform(0.1, 10.0) + rng.normal(size=3) * 5
        inv_ok &= abs(surface_variation(moved) - ref) <= 1e-9
    checks.append(("rigid+scale-invariance-1e-9", inv_ok))
    _verdict(2, "surface-variation curvature", checks, time.perf_counter() - t0, 5.0)


def test_criterion_3_fill_affine_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    spec = LatticeSpec(coarse_cells=16, margin_cells=3)
    n = spec.fine_n
    all_ijk = np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"),
                       axis=-1).reshape(-1, 3)
    all_pos = spec.fine_position(all_ijk)
    worst = 0.0
    for _ in range(100):
        grid = AdaptiveGrid(spec)
        ids, pos = coarse_queries(spec)
        a, b, c, d = rng.normal(size=4)
        grid.set_values(ids, pos @ np.array([a, b, c]) + d)
        hierarchical_fill(grid)
        expect = all_pos @ np.array([a, b, c]) + d
        worst = max(worst, float(np.abs(grid.values - expect).max()))
    _verdict(3, "hierarchical fill affine-exact",
             [(f"max-err-{worst:.2e}<1e-12", worst < 1e-12)],
             time.perf_counter() - t0, 10.0)


def test_criterion_4_refinement_combinatorics():
    t0 = time.perf_counter()
    checks = []
    spec = LatticeSpec(coarse_cells=8, margin_cells=2)

    g = AdaptiveGrid(spec)
    interior = spec.flat_id(np.array([8, 8, 8]))
    checks.append(("isolated-interior-26", refine(g, [interior]).size == 26))
    checks.append(("idempotent", refine(g, [interior]).size == 0))

    g = AdaptiveGrid(spec)
    pair = [spec.flat_id(np.array([8, 8, 8])), spec.flat_id(np.array([10, 8, 8]))]
    checks.append(("adjacent-pair-43", refine(g, pair).size == 43))

    g = AdaptiveGrid(spec)
    corner = spec.flat_id(np.array([0, 0, 0]))
    checks.append(("corner-7", refine(g, [corner]).size == 7))
    _verdict(4, "refinement combinatorics", checks, time.perf_counter() - t0, 1.0)


def test_criterion_5_metrics_vs_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    ok = True
    nonzero_f1 = 0
    for _ in range(50):
        scale = rng.uniform(0.02, 1.0)
        na, nb = rng.integers(5, 500, size=2)
        a = PointCloud(rng.random((na, 3)) * scale,
                       _unit(rng.normal(size=(na, 3))))
        b = PointCloud(rng.random((nb, 3)) * scale,
                       _unit(rng.normal(size=(nb, 3))))
        d = np.linalg.norm(a.points[:, None, :] - b.points[None, :, :], axis=2)
        cd_oracle = 1e3 * (d.min(axis=1).mean() + d.min(axis=0).mean())
        ok &= _releq(chamfer(a, b), cd_oracle)
        for tau in (0.005, 0.01):
            p = (d.min(axis=1) <= tau).mean()
            r = (d.min(axis=0) <= tau).mean()
            f1_oracle = 0.0 if p + r == 0 else 2 * p * r / (p + r)
            got = f1_score(a, b, tau)
            ok &= _releq(got, f1_oracle)
            nonzero_f1 += got > 0
        fwd = np.abs(np.sum(a.normals * b.normals[d.argmin(axis=1)], axis=1)).mean()
        bwd = np.abs(np.sum(b.normals * a.normals[d.argmin(axis=0)], axis=1)).mean()
        ok &= _releq(normal_consistency(a, b), 0.5 * (fwd + bwd))
    checks = [("oracle-equality-1e-9", ok),
              ("f1-exercised-nontrivially", nonzero_f1 > 10)]
    _verdict(5, "metrics equal brute-force oracles", checks,
             time.perf_counter() - t0, 30.0)


def _unit(v):
    return v / np.linalg.norm(v, axis=1)[:, None]


def _releq(got, expect, tol=1e-9):
    return abs(got - expect) <= tol * max(abs(expect), 1.0)


@pytest.fixture(scope="module")
def sphere50k():
    return fixtures.sphere_cloud(50000, radius=0.3, seed=0)


def test_criterion_6_sphere_end_to_end(sphere50k):
    t0 = time.perf_counter()
    cfg = PipelineConfig(coarse_cells=64, workers=1, seed=0)
    result = run_pipeline(cfg, sphere50k)
    gt = PointCloud(result.transform.apply(sphere50k.points), sphere50k.normals)
    samples = sample_mesh(result.norm_mesh, 100000, seed=0)
    cd = chamfer(samples, gt) / 1e3
    f1 = f1_score(samples, gt, result.spec.fine_spacing)
    h = result.spec.fine_spacing
    checks = [(f"cd-{cd:.4f}<2h-{2 * h:.4f}", cd < 2 * h),
              (f"f1@h-{f1:.3f}>0.95", f1 > 0.95),
              ("closed-shell-nonempty", result.norm_mesh.num_faces > 0)]
    _verdict(6, "sphere end-to-end quality", checks, time.perf_counter() - t0, 180.0)


def test_criterion_7_query_reduction(sphere50k):
    t0 = time.perf_counter()
    cfg = PipelineConfig(coarse_cells=64, workers=1, seed=0)
    result = bench(cfg, sphere50k)
    ratio = result.query_ratio
    cd_a = result.adaptive_metrics.cd
    cd_b = result.baseline_metrics.cd
    checks = [(f"ratio-{ratio:.3f}<0.5", ratio < 0.5),
              (f"cd-degradation-{cd_a / cd_b:.3f}<1.15", cd_a < 1.15 * cd_b)]
    _verdict(7, "adaptive query reduction without CD loss", checks,
             time.perf_counter() - t0, 300.0)


def test_criterion_8_layer_separation():
    t0 = time.perf_counter()
    r0 = 0.018
    cloud = fixtures.sheets_cloud(count=60000, gap=2.5 * r0, noise=0.002, seed=0)
    norm, transform = normalize_cloud(cloud)
    gap_norm = 2.5 * r0 * transform.scale
    index = build_index(norm)
    spec = LatticeSpec(coarse_cells=64, margin_cells=3)
    ids, pos = coarse_queries(spec)
    cf = curvature_field(norm, index, pos, r0, query_ids=ids, workers=2)
    sched = RadiusSchedule.from_field(cf)

    hot_mask = cf.sigma >= cf.p90
    hot_ids = cf.ids[hot_mask]
    radii = sched_radius(sched, cf.sigma[hot_mask])
    half = len(cloud) // 2
    flat, offsets = index.radius_query_flat(spec.position_of_id(hot_ids), radii)
    mixed = 0
    for a, b in zip(offsets[:-1], offsets[1:]):
        members = flat[a:b]
        if members.size and members.min() < half <= members.max():
            mixed += 1
    checks = [
        ("nondegenerate-percentiles", cf.p90 > cf.p60),
        (f"hot-queries-exist-{hot_ids.size}", hot_ids.size > 0),
        ("shrunken-radius-0.012", bool(np.allclose(radii, r0 * 2 / 3, atol=1e-12))),
        (f"premise-0.012<gap/2-{gap_norm / 2:.4f}", r0 * 2 / 3 < gap_norm / 2),
        (f"no-cross-sheet-patches-{mixed}", mixed == 0),
    ]
    _verdict(8, "layer separation under shrunken radius", checks,
             time.perf_counter() - t0, 60.0)


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    cloud = fixtures.sphere_cloud(20000, radius=0.3, seed=0)
    blobs, reports = [], []
    for tag, workers in (("w1", 1), ("w1b", 1), ("w4", 4)):
        path = tmp_path / f"{tag}.obj"
        cfg = PipelineConfig(coarse_cells=32, workers=workers, seed=0,
                             output_path=str(path))
        result = run_pipeline(cfg, cloud)
        blobs.append(path.read_bytes())
        gt = PointCloud(result.transform.apply(cloud.points), cloud.normals)
        samples = sample_mesh(result.norm_mesh, 20000, seed=0)
        reports.append((chamfer(samples, gt),
                        f1_score(samples, gt, 0.01),
                        normal_consistency(samples, gt)))
    checks = [("obj-bytes-identical", blobs[0] == blobs[1] == blobs[2]),
              ("metric-reports-identical", reports[0] == reports[1] == reports[2])]
    _verdict(9, "byte-identical reruns across worker counts", checks,
             time.perf_counter() - t0, 120.0)
