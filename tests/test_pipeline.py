import copy
import functools
import hashlib
import re
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from curvrec import cli, fixtures, io, pipeline, spatial
from curvrec.metrics import sample_mesh
from curvrec.errors import (DegenerateExtent, EmptyMesh, FarOutlier, NoCurvatureSamples,
                            ReconstructionError)
from curvrec.estimator import make_estimator
from curvrec.grid import AdaptiveGrid, LatticeSpec, far_field
from curvrec.model import PointCloud
from curvrec.patch import ResamplePolicy
from curvrec.pipeline import PipelineConfig, bench, curvature_summary, run_pipeline
from curvrec.spatial import build_index
import oracles
from oracles import chamfer, sheet_membership


@pytest.fixture(scope="module")
def sphere_cloud():
    return fixtures.sphere_cloud(12000, radius=0.3, seed=0)


@pytest.fixture(scope="module")
def planar_cloud():
    rng = np.random.default_rng(1)
    pts = np.column_stack([rng.random(20000) - 0.5, rng.random(20000) - 0.5,
                           np.zeros(20000)])
    nrm = np.tile([0.0, 0.0, 1.0], (20000, 1))
    return PointCloud(pts, nrm)


def small_config(**kw):
    base = dict(coarse_cells=20, margin_cells=2, workers=1, seed=0)
    base.update(kw)
    return PipelineConfig(**base)


def test_reconstruct_sphere_closed_shell(sphere_cloud):
    result = run_pipeline(small_config(coarse_cells=24), sphere_cloud)
    mesh, timing = result.mesh, result.timing
    assert mesh.num_faces > 0
    # input units: shells straddle the radius-0.3 sphere
    r = np.linalg.norm(mesh.vertices, axis=1)
    assert 0.25 < r.min() and r.max() < 0.35
    assert timing.evaluated_queries + timing.filled_queries == timing.total_fine_vertices
    assert list(timing.stage_s) == ["normalize", "index", "curvature", "refine", "evaluate",
                                    "fill", "extract", "denormalize"]
    assert min(timing.stage_s.values()) >= 0
    # every query row is a band or refined site
    assert 0 < timing.near_queries <= timing.nn_queries < timing.evaluated_queries
    assert timing.ball_pairs >= timing.ball_blocks > 0 and timing.peak_rss_mb > 0


@pytest.mark.parametrize("baseline", [False, True])
def test_stage_times_cover_the_run_in_order(sphere_cloud, tmp_path, baseline):
    # stages do not nest, so their times sum to nearly the measured wall
    # time; the index's query time is spent inside them
    path = tmp_path / "cloud.xyz"
    io.write_point_cloud(sphere_cloud, path)
    config = small_config(coarse_cells=40, input_path=str(path),
                          output_path=str(tmp_path / "mesh.obj"), baseline_mode=baseline)
    t0 = time.perf_counter()
    timing = run_pipeline(config).timing
    wall = time.perf_counter() - t0
    assert wall >= 0.1
    middle = ["evaluate"] if baseline else ["curvature", "refine", "evaluate"]
    assert list(timing.stage_s) == ["read", "normalize", "index", *middle, "fill",
                                    "extract", "denormalize", "write"]
    total = sum(timing.stage_s.values())
    assert 0.95 * wall <= total <= wall
    assert 0 < timing.nn_s <= total and 0 < timing.ball_s <= total
    keys = [line.split("=")[0] for line in timing.lines()]
    assert keys[:len(timing.stage_s) + 2] == [f"{name}_s" for name in timing.stage_s] + [
        "nn_s", "ball_s"]
    assert "patch_time" not in keys and "udf_time" not in keys


@pytest.mark.parametrize("baseline", [False, True])
def test_stage_peaks_rise_in_run_order(sphere_cloud, baseline):
    # the peak RSS at each stage's end is the peak so far, so it never falls
    # from one stage to the next and ends at most at the run's peak
    timing = run_pipeline(small_config(coarse_cells=24, baseline_mode=baseline),
                          sphere_cloud).timing
    assert list(timing.stage_peak_mb) == list(timing.stage_s)
    peaks = list(timing.stage_peak_mb.values())
    assert 0 < peaks[0] and peaks == sorted(peaks) and peaks[-1] <= timing.peak_rss_mb
    lines = timing.lines()
    at = lines.index(f"peak_rss_mb={timing.peak_rss_mb:.1f}")
    assert lines[at + 1:] == [f"{name}_peak_mb={mb:.1f}"
                              for name, mb in timing.stage_peak_mb.items()]


def test_peak_rss_falls_back_to_ru_maxrss(monkeypatch):
    # off Linux there is no /proc/self/status; ru_maxrss covers this
    # process's peak too, and on Linux any larger peak from before exec
    status = pipeline._peak_rss_mb()

    def no_proc(path, *args, **kwargs):
        raise FileNotFoundError(path)
    monkeypatch.setattr(pipeline, "open", no_proc, raising=False)
    assert 0 < status <= pipeline._peak_rss_mb() + 1.0


def test_baseline_counts(sphere_cloud):
    cfg = small_config(coarse_cells=12, baseline_mode=True)
    result = run_pipeline(cfg, sphere_cloud)
    assert result.timing.evaluated_queries == result.spec.total_fine_vertices
    assert result.timing.filled_queries == 0
    assert 0 < result.timing.near_queries <= result.timing.nn_queries < result.spec.total_fine_vertices


def test_adaptive_planar_no_hot_region(planar_cloud):
    # sigma is identically 0 on a plane; a positive threshold leaves the
    # coarse lattice unrefined
    cfg = small_config(refine_threshold=1e-6)
    result = run_pipeline(cfg, planar_cloud)
    coarse_total = (cfg.coarse_cells + 1) ** 3
    assert result.timing.evaluated_queries == coarse_total
    assert result.timing.evaluated_queries < 1.05 * coarse_total
    assert np.abs(result.curvature.sigma).max() < 1e-12


def test_planar_baseline_vs_adaptive_agree(planar_cloud):
    adaptive = run_pipeline(small_config(refine_threshold=1e-6), planar_cloud)
    baseline = run_pipeline(small_config(baseline_mode=True), planar_cloud)
    sa = sample_mesh(adaptive.norm_mesh, 20000, seed=0)
    sb = sample_mesh(baseline.norm_mesh, 20000, seed=0)
    cd = chamfer(sa, sb) / 1e3
    assert cd < adaptive.spec.fine_spacing


def test_determinism_across_runs_and_workers(sphere_cloud, tmp_path):
    blobs = []
    for run, workers in ((0, 1), (1, 1), (2, 4)):
        path = tmp_path / f"mesh{run}.obj"
        cfg = small_config(coarse_cells=16, workers=workers,
                           output_path=str(path))
        run_pipeline(cfg, sphere_cloud)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_subsampled_mesh_bytes_independent_of_workers(sphere_cloud, tmp_path):
    # r0 0.04 and target_count 16 send ~1000 patches through the subsample
    blobs = []
    for workers in (1, 2):
        path = tmp_path / f"mesh{workers}.obj"
        run_pipeline(small_config(r0=0.04, target_count=16, workers=workers,
                                  output_path=str(path)), sphere_cloud)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


# First 12 hex digits of the sha256 of vertices.tobytes() + faces.tobytes(),
# per fixture (12k points, seed 0), mode and estimator, at coarse 32, margin 2
# ("nearest" also sets target_count 8, so its patches get subsampled).
MESH_PINS = {
    ("sphere", "baseline", "plane"): "6090f88100b1",
    ("sphere", "baseline", "nearest"): "89b4353a6d5f",
    ("sphere", "adaptive", "plane"): "9280a11f6922",
    ("sphere", "adaptive", "nearest"): "005d41c74796",
    ("cube", "baseline", "plane"): "b7ad11481092",
    ("cube", "baseline", "nearest"): "0639a1975442",
    ("cube", "adaptive", "plane"): "542cc07b727e",
    ("cube", "adaptive", "nearest"): "075d1ed4ec17",
    ("sheets", "baseline", "plane"): "936ed4562d3a",
    ("sheets", "baseline", "nearest"): "dba736d4f2f0",
    ("sheets", "adaptive", "plane"): "65985e54a0d6",
    ("sheets", "adaptive", "nearest"): "bf6d6e32906d",
}


@pytest.mark.parametrize("shape, mode, estimator", sorted(MESH_PINS))
def test_fixture_mesh_bytes_are_pinned(shape, mode, estimator):
    extra = {"gap": 0.045, "noise": 0.002} if shape == "sheets" else {}
    cloud = fixtures.make_fixture(shape, count=12000, seed=0, **extra)
    kw = {"estimator": "nearest", "target_count": 8} if estimator == "nearest" else {}
    mesh = run_pipeline(small_config(coarse_cells=32, baseline_mode=mode == "baseline", **kw),
                        cloud).mesh
    digest = hashlib.sha256(mesh.vertices.tobytes() + mesh.faces.tobytes()).hexdigest()
    assert digest[:12] == MESH_PINS[shape, mode, estimator]


def _edge_uses(faces):
    edges = np.sort(np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]),
                    axis=1)
    return np.unique(edges, axis=0, return_counts=True)[1]


@pytest.mark.parametrize("shape, coarse, extra", [
    ("sphere", 20, {}), ("cube", 20, {}), ("sheets", 32, {"gap": 0.045, "noise": 0.002})])
def test_output_is_closed_edge_manifold(shape, coarse, extra):
    cloud = fixtures.make_fixture(shape, count=12000, seed=0, **extra)
    mesh = run_pipeline(small_config(coarse_cells=coarse), cloud).mesh
    assert mesh.num_faces > 0
    assert np.all(_edge_uses(mesh.faces) == 2)


@pytest.mark.parametrize("baseline", [False, True])
def test_ball_past_the_margin_keeps_the_shell_closed(baseline):
    # r0 * s_max = 0.108 passes the margin, 0.0714: balls of the lattice's
    # boundary sites hold points, but those sites must read their capped
    # nn distance, not a plane fit extrapolated below the level
    cloud = fixtures.make_fixture("cube", count=12000, seed=0)
    config = small_config(coarse_cells=16, margin_cells=1, r0=0.08, baseline_mode=baseline)
    mesh = run_pipeline(config, cloud).mesh
    assert mesh.num_faces > 0
    assert np.all(_edge_uses(mesh.faces) == 2)


def test_no_site_below_the_level_raises_empty_mesh():
    # every point lies farther than the level (0.0208) from every fine site
    # (nearest 0.0220), so baseline mode crosses no cell
    cloud = PointCloud(np.array([
        [0.25612091107964696, 0.08469178083875384, -0.5],
        [-0.07447946947954287, 0.5, -0.16234215327569568],
        [-0.3586291022430652, -0.5, 0.38576741614792376]]))
    config = small_config(coarse_cells=14, margin_cells=1, baseline_mode=True)
    with pytest.raises(EmptyMesh, match="no site reads below the level 0.0208") as info:
        run_pipeline(config, cloud)
    assert info.value.stage == "extract"


def _links_are_single_cycles(faces):
    """Every vertex's link (the far edges of its faces) is one cycle: with
    every edge used twice each link is a union of cycles, so one connected
    component per vertex."""
    nv = int(faces.max()) + 1
    # node v * nv + u: vertex u in v's link; each face corner links its two others
    corner = faces.ravel()
    ends = faces[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2)
    nodes, pair = np.unique(corner[:, None] * nv + ends, return_inverse=True)
    pair = pair.reshape(-1, 2)
    graph = coo_matrix((np.ones(len(pair)), (pair[:, 0], pair[:, 1])), shape=(nodes.size,) * 2)
    return connected_components(graph, directed=False)[0] == np.unique(corner).size


@st.composite
def _hostile_cloud(draw):
    """A fixture shape with noise, duplicate points, a collinear run and far
    outliers, from 3 to a few thousand points."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(["sphere", "cube", "sheets"]))
    points = fixtures.make_fixture(shape, count=draw(st.integers(3, 5000)),
                                   seed=int(rng.integers(2 ** 31))).points
    points = points + rng.normal(scale=draw(st.sampled_from([0.0, 0.002, 0.02])),
                                 size=points.shape)
    extra = [points[rng.integers(len(points), size=draw(st.integers(0, 50)))]]
    a, b = points[rng.integers(len(points), size=2)]
    extra.append(a + np.linspace(0, 1, draw(st.integers(0, 40)))[:, None] * (b - a))
    far = rng.normal(size=(draw(st.integers(0, 3)), 3))  # 1 to 10 away from the origin
    extra.append(far * rng.uniform(1, 10, (len(far), 1)) / np.linalg.norm(far, axis=1)[:, None])
    return PointCloud(np.vstack([points] + extra))


@settings(max_examples=150, deadline=None)
@given(cloud=_hostile_cloud(), coarse=st.integers(8, 24), margin=st.integers(0, 3),
       baseline=st.booleans(), estimator=st.sampled_from(["plane", "nearest"]))
def test_hostile_clouds_give_a_closed_shell_or_a_staged_error(cloud, coarse, margin, baseline,
                                                             estimator):
    # ROADMAP item 6: every run either raises a ReconstructionError naming
    # its stage or returns a closed edge-manifold shell whose bytes do not
    # depend on the worker count or on the ball-query block size
    try:
        config = small_config(coarse_cells=coarse, margin_cells=margin,
                              baseline_mode=baseline, estimator=estimator)
    except ValueError:
        assume(False)
    try:
        mesh = run_pipeline(config, cloud).mesh
    except ReconstructionError as exc:
        assert exc.stage
        return
    assert mesh.num_faces > 0
    assert np.all(_edge_uses(mesh.faces) == 2)
    assert _links_are_single_cycles(mesh.faces)
    blobs = [mesh.vertices.tobytes() + mesh.faces.tobytes()]
    blobs.append(_mesh_bytes(replace(config, workers=2), cloud))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spatial, "PAIR_BUDGET", 97)
        blobs.append(_mesh_bytes(config, cloud))
    assert blobs[0] == blobs[1] == blobs[2]


def _mesh_bytes(config, cloud):
    mesh = run_pipeline(config, cloud).mesh
    return mesh.vertices.tobytes() + mesh.faces.tobytes()


def test_mesh_bytes_independent_of_chunk_size(sphere_cloud, monkeypatch):
    # a wide r0 and target_count 16 send ~1000 patches through the seeded
    # subsample, so block edges cut between padded and subsampled rows; the
    # curvature stage streams its candidates through the same blocks. A
    # budget of 97 pairs gives blocks of MIN_BLOCK rows; 2**40 grows each
    # block to twice the last.
    cfg = small_config(coarse_cells=20, r0=0.04, target_count=16)
    meshes, fields, blocks = [], [], []
    for budget in (2 ** 40, 97):
        monkeypatch.setattr(spatial, "PAIR_BUDGET", budget)
        result = run_pipeline(cfg, sphere_cloud)
        blocks.append(result.timing.ball_blocks)
        meshes.append(result.mesh.vertices.tobytes() + result.mesh.faces.tobytes())
        cf = result.curvature
        fields.append((cf.ids, cf.sigma, np.array(list(cf.percentiles.values()))))
    assert meshes[0] == meshes[1]
    assert all(np.array_equal(a, b) for a, b in zip(*fields))
    assert blocks[0] < blocks[1]


_COUNTS = ("evaluated_queries", "filled_queries", "total_fine_vertices", "nn_queries",
           "near_queries", "ball_pairs")


@pytest.mark.parametrize("baseline", [False, True])
def test_evaluate_results_do_not_depend_on_its_chunk(sphere_cloud, tmp_path, monkeypatch,
                                                     baseline):
    # each row's value and curvature entry depend on that row alone, and a
    # band mark on its point alone, so 7-row chunks, which cut every ball
    # block, the band's binning and the coarse/refined streams at odd
    # places, give the default's mesh, dumped field, counts and curvature
    # field; only the ball query's block count grows
    cfg = small_config(coarse_cells=16, baseline_mode=baseline)
    runs = []
    for chunk in (pipeline.EVAL_CHUNK, 7):
        monkeypatch.setattr(pipeline, "EVAL_CHUNK", chunk)
        path = tmp_path / f"field{chunk}.bin"
        result = run_pipeline(replace(cfg, dump_field=str(path)), sphere_cloud)
        cf = result.curvature
        runs.append((result.mesh.vertices.tobytes() + result.mesh.faces.tobytes(),
                     path.read_bytes(), [getattr(result.timing, c) for c in _COUNTS],
                     result.timing.ball_blocks,
                     None if cf is None else (cf.ids.tobytes(), cf.sigma.tobytes(),
                                              cf.percentiles)))
    (mesh, field, counts, blocks, cf), (mesh7, field7, counts7, blocks7, cf7) = runs
    assert mesh == mesh7 and field == field7 and counts == counts7
    assert result.timing.nn_queries > 50 * 7 and blocks < blocks7
    assert cf == cf7 and (cf is None) == baseline


@pytest.mark.parametrize("baseline", [False, True])
def test_evaluate_allocates_its_values_and_one_chunk(monkeypatch, baseline):
    # each stream of rows holds its values (8 bytes a row) for the whole
    # run, and everything else for one chunk at a time: measured at most 300
    # bytes per chunk row here; whole streams at once took 103-231 bytes
    # per row, 1.99 and 11.6 MB against bounds of 0.55 and 0.96 MB
    cloud = fixtures.make_fixture("sphere", count=12000, seed=0)
    chunk = 1 << 10
    monkeypatch.setattr(pipeline, "EVAL_CHUNK", chunk)
    peaks, evaluate_rows = [], pipeline._evaluate_rows

    def traced(config, index, spec, ids, *args):
        tracemalloc.start()
        try:
            return evaluate_rows(config, index, spec, ids, *args)
        finally:
            peaks.append((ids.size, tracemalloc.get_traced_memory()[1]))
            tracemalloc.stop()

    monkeypatch.setattr(pipeline, "_evaluate_rows", traced)
    run_pipeline(small_config(coarse_cells=32, baseline_mode=baseline), cloud)
    assert len(peaks) == (1 if baseline else 2)
    for rows, peak in peaks:
        assert rows >= 4 * chunk
        assert peak < 8 * rows + 400 * chunk


def test_curvature_allocates_its_nn_entries_and_one_chunk(monkeypatch):
    # after the band's ids, the curvature stage holds every row's nn (8
    # bytes a row) and the field's entries (16 bytes each, twice while the
    # chunks' entries are joined), and everything else for one chunk at a
    # time; the whole band's positions (24 bytes a row, 48 while built)
    # would not fit
    cloud = fixtures.make_fixture("sphere", count=12000, seed=0)
    chunk = 1 << 10
    monkeypatch.setattr(pipeline, "EVAL_CHUNK", chunk)
    config = small_config(coarse_cells=32)
    norm_cloud, _, index, spec = pipeline._prepare(config, cloud)
    ids = pipeline._coarse_band(config, index, spec)
    tracemalloc.start()
    try:
        nn, cf = pipeline._curvature(config, norm_cloud, index, spec, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows, entries = ids.size, len(cf)
    assert nn.size == rows >= 8 * chunk and entries > chunk
    assert peak < 8 * rows + 32 * entries + 400 * chunk


def test_prepare_holds_the_cloud_once(tmp_path):
    # from a file with normals, the run prefix peaks below 120 bytes a point
    # (the bulk parse's table, then its points and normals; the read kept
    # the file's bytes, the table and its copies at once, 148 bytes a point)
    # and afterwards holds the normalized points and the kd-tree's indices
    # (32 bytes a point): the read cloud and its normals are gone
    n = 100_000
    path = tmp_path / "sheets.xyz"
    io.write_point_cloud(fixtures.sheets_cloud(count=n, noise=0.002, seed=0), path)
    config = small_config(coarse_cells=64, input_path=str(path))
    tracemalloc.start()
    try:
        norm_cloud, _, index, _ = pipeline._prepare(config, None)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index) == n and norm_cloud.normals is None
    assert peak < 120 * n and live < 40 * n


def test_curvature_summary_is_the_runs_field(sphere_cloud):
    # the curvature command runs the run's own curvature stage
    config = small_config(coarse_cells=20)
    cf, spec = curvature_summary(config, sphere_cloud)
    result = run_pipeline(config, sphere_cloud)
    assert spec == result.spec and len(cf) > 0
    assert np.array_equal(cf.ids, result.curvature.ids)
    assert np.array_equal(cf.sigma, result.curvature.sigma)
    assert cf.percentiles == result.curvature.percentiles


@functools.cache
def _band_cloud(shape):
    extra = {"gap": 0.045, "noise": 0.002} if shape == "sheets" else {}
    return fixtures.make_fixture(shape, count=6000, seed=0, **extra)


def _mesh_or_error(config, cloud):
    try:
        mesh = run_pipeline(config, cloud).mesh
    except (NoCurvatureSamples, EmptyMesh) as exc:
        return str(exc)
    return mesh.vertices.tobytes() + mesh.faces.tobytes()


def _whole_lattice_band(spec, points, stride, near_bound):
    n = spec.fine_n
    every = np.zeros((n, n, n), dtype=bool)
    every[::stride, ::stride, ::stride] = True
    return np.flatnonzero(every)


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(["sphere", "cube", "sheets"]), coarse=st.integers(10, 24),
       margin=st.integers(1, 3), r0=st.sampled_from([0.018, 0.03]),
       far_cap=st.floats(0.01, 0.3),
       iso_eps=st.one_of(st.none(), st.floats(0.001, 0.3)), baseline=st.booleans())
# an offset level above r0 * s_max (0.0243), then one just below far_cap as well
@example(shape="sphere", coarse=24, margin=2, r0=0.018, far_cap=0.3, iso_eps=0.05,
         baseline=False)
@example(shape="cube", coarse=24, margin=3, r0=0.018, far_cap=0.05, iso_eps=0.0499,
         baseline=False)
@example(shape="sheets", coarse=16, margin=2, r0=0.03, far_cap=0.3, iso_eps=None,
         baseline=True)
def test_far_band_leaves_mesh_bytes_unchanged(shape, coarse, margin, r0, far_cap, iso_eps,
                                              baseline):
    # Lattice sites outside the band read far_cap without an nn query; the
    # mesh must equal a run that queries every site. PipelineConfig refuses
    # a level at or above far_cap's far field, or the lattice margin.
    spec = LatticeSpec(coarse, margin)
    level = iso_eps if iso_eps is not None else spec.fine_spacing / 2
    assume(level < far_field(2, far_cap).min())
    assume(level < spec.margin)
    config = small_config(coarse_cells=coarse, margin_cells=margin, r0=r0,
                          far_cap=far_cap, iso_eps=iso_eps, baseline_mode=baseline)
    banded = _mesh_or_error(config, _band_cloud(shape))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_band_sites", _whole_lattice_band)
        assert _mesh_or_error(config, _band_cloud(shape)) == banded


def _brute_band(spec, points, stride, near_bound):
    """Stride sites within near_bound of a point, dilated one step."""
    n = spec.fine_n
    ijk = np.argwhere(np.ones((n, n, n), dtype=bool))
    ijk = ijk[np.all(ijk % stride == 0, axis=1)]
    d = np.linalg.norm(spec.fine_position(ijk)[:, None, :] - points[None], axis=2)
    near = ijk[(d <= near_bound).any(axis=1)]
    ring = np.argwhere(np.ones((3, 3, 3), dtype=bool)) - 1
    band = (near[:, None, :] + stride * ring[None]).reshape(-1, 3)
    band = band[np.all((band >= 0) & (band < n), axis=1)]
    return np.unique(spec.flat_id(band))


@settings(max_examples=200, deadline=None)
@given(coarse=st.integers(1, 8), margin=st.integers(0, 2), stride=st.sampled_from([1, 2]),
       data=st.data())
# margin 0, a point on the boundary, near_bound / step + 1/2 = 2 exactly
@example(coarse=4, margin=0, stride=2, data=([[0.5, 0.125, 0.0]], 0.375))
# margin 0, a point 0.6 steps outside the cube on either side: it rounds
# to index -1 (which would wrap to the far face) or m (past the lattice)
@example(coarse=4, margin=0, stride=2, data=([[-0.65, 0.0, 0.0]], 0.2))
@example(coarse=4, margin=0, stride=2, data=([[0.0, 0.65, 0.0]], 0.2))
# near_bound one ulp below 1.5 steps, and the point at its site's distance
# rounds to a half step: the bin needs its slack
@example(coarse=1, margin=1, stride=1, data=([[0.2499999999999999, 0.0, 0.0]],
                                             0.7499999999999999))
def test_band_sites_cover_every_site_near_a_point(coarse, margin, stride, data):
    spec = LatticeSpec(coarse_cells=coarse + 2 * margin, margin_cells=margin)
    step = stride * spec.fine_spacing
    if isinstance(data, tuple):
        points, near_bound = np.array(data[0]), data[1]
    else:
        # coordinates on the unit cube's faces, on lattice sites, at
        # near_bound from a site, or anywhere in the cloud's range
        k = data.draw(st.integers(1, 4))
        near_bound = data.draw(
            st.sampled_from([(k - 0.5) * step, np.nextafter((k - 0.5) * step, 0), k * step])
            | st.floats(1e-6 * step, 3 * step))
        sites = spec.domain_min + step * np.arange((spec.fine_n - 1) // stride + 1)
        sites = sites[np.abs(sites) <= 0.5]
        coord = (st.sampled_from([-0.5, 0.5]) | st.sampled_from(sites.tolist())
                 | st.sampled_from((sites + near_bound).tolist())
                 | st.floats(-0.5, 0.5))
        points = np.clip(np.array(data.draw(st.lists(st.tuples(coord, coord, coord),
                                                     min_size=1, max_size=12))), -0.5, 0.5)
    band = pipeline._band_sites(spec, points, stride, near_bound)
    assert np.all(np.diff(band) > 0)
    assert not np.any(spec.unflatten(band) % stride)
    assert np.isin(_brute_band(spec, points, stride, near_bound), band).all()


def test_band_sites_cap_a_huge_bound_at_the_lattice():
    spec = LatticeSpec(coarse_cells=6, margin_cells=1)
    one = np.zeros((1, 3))
    for stride in (1, 2):
        assert np.array_equal(pipeline._band_sites(spec, one, stride, np.inf),
                              _whole_lattice_band(spec, one, stride, np.inf))


@pytest.mark.parametrize("baseline", [False, True])
def test_dump_field_reads_far_cap_outside_band(sphere_cloud, tmp_path, monkeypatch, baseline):
    cfg = small_config(coarse_cells=16, far_cap=0.3, baseline_mode=baseline)
    banded = run_pipeline(replace(cfg, dump_field=str(tmp_path / "band.bin")), sphere_cloud)
    monkeypatch.setattr(pipeline, "_band_sites", _whole_lattice_band)
    whole = run_pipeline(replace(cfg, dump_field=str(tmp_path / "whole.bin")), sphere_cloud)
    assert banded.mesh.vertices.tobytes() == whole.mesh.vertices.tobytes()
    assert banded.mesh.faces.tobytes() == whole.mesh.faces.tobytes()
    stride = 1 if baseline else 2
    sites = (slice(None, None, stride),) * 3
    band_sites = oracles.load_field(tmp_path / "band.bin")[0][sites]
    whole_sites = oracles.load_field(tmp_path / "whole.bin")[0][sites]
    moved = band_sites != whole_sites
    assert moved.any()  # the sphere's inside is out of band
    assert np.all(band_sites[moved] == np.float32(0.3))
    assert np.all(whole_sites[moved] < np.float32(0.3))


def test_point_exactly_at_query_radius_is_near():
    # 0.25 and 0.0625 are exact; far_cap lies below the radius
    cloud = PointCloud(np.array([[0.25, 0.0, 0.0]]))
    index = build_index(cloud)
    positions, radii = np.zeros((1, 3)), np.array([0.25])
    nn = index.nearest_distance_many(positions)
    assert nn.tolist() == [0.25]
    policy = ResamplePolicy(target_count=4, curvature_threshold=0.5)
    values, near = pipeline._evaluate_queries(
        index, positions, radii, np.zeros(1), np.zeros(1, dtype=np.int64), policy,
        make_estimator("nearest"), 0.1, nn)
    assert values.tolist() == [0.25]  # a far query would read far_cap = 0.1
    assert near == 1


def test_empty_ball_at_nn_radius_keeps_far_value():
    # At r == nn the kd-tree's ball test (d2 <= r*r) often excludes the
    # point that sqrt(d2) <= r counted as near.
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.random((2000, 3)))
    index = build_index(cloud)
    positions = rng.random((2000, 3))
    nn = index.nearest_distance_many(positions)
    empty = np.diff(index.radius_query_flat(positions, nn)[1]) == 0
    assert empty.any()
    policy = ResamplePolicy(target_count=4, curvature_threshold=0.5)
    m = positions.shape[0]
    values, near = pipeline._evaluate_queries(
        index, positions, nn, np.zeros(m), np.arange(m), policy,
        make_estimator("nearest"), 1.0, nn)
    assert near == m  # empty balls are sent to the ball query too
    assert np.array_equal(values[empty], nn[empty])
    assert np.allclose(values, nn, rtol=0, atol=1e-15)


def test_refinement_increases_near_surface_resolution(sphere_cloud):
    cfg = small_config(coarse_cells=24)
    result = run_pipeline(cfg, sphere_cloud)
    coarse_total = (cfg.coarse_cells + 1) ** 3
    assert result.timing.evaluated_queries > coarse_total  # hot regions refined
    assert result.timing.evaluated_queries < result.spec.total_fine_vertices


def test_close_layers_stay_separated():
    # two clean sheets 2.5*r0 apart: no patch may straddle the gap, so the
    # reconstruction must contain no geometry near the midplane
    cloud = fixtures.sheets_cloud(count=30000, gap=0.045, noise=0.0, seed=0)
    result = run_pipeline(small_config(coarse_cells=48, margin_cells=3), cloud)
    z = result.norm_mesh.vertices[:, 2]
    assert result.norm_mesh.num_faces > 0
    assert np.abs(z).min() > 0.01  # shells live at |z| ~ gap/2 +/- eps
    assert (z > 0).any() and (z < 0).any()


def test_curvature_summary(sphere_cloud):
    cf, spec = curvature_summary(small_config(coarse_cells=16), sphere_cloud)
    assert len(cf) > 0
    assert 0.0 <= cf.percentiles["p10"] <= cf.percentiles["p90"] <= 1.0 / 3.0
    # entries sit near the sphere surface
    pos = spec.position_of_id(cf.ids)
    r = np.linalg.norm(pos, axis=1)
    assert np.all(np.abs(r - 0.5) < 0.018 + spec.fine_spacing)


def test_bench_reports(sphere_cloud):
    cfg = small_config(coarse_cells=12, sample_count=5000)
    result = bench(cfg, sphere_cloud)
    assert result.query_ratio < 1.0
    assert result.baseline_timing.evaluated_queries == (2 * 12 + 1) ** 3
    assert result.adaptive_metrics.cd > 0
    text = "\n".join(result.lines())
    assert "adaptive.evaluate_s=" in text and "query_ratio=" in text
    a, b = result.adaptive_timing, result.baseline_timing
    expected = {"query_ratio": result.query_ratio,
                "nn_ratio": a.nn_queries / b.nn_queries,
                "ball_pair_ratio": a.ball_pairs / b.ball_pairs,
                "wall_ratio": sum(a.stage_s.values()) / sum(b.stage_s.values())}
    assert result.ratios() == expected
    assert result.lines()[-4:] == [f"{name}={ratio:.6f}" for name, ratio in expected.items()]
    assert 0 < expected["nn_ratio"] < 1 and 0 < expected["ball_pair_ratio"] < 1


def test_bench_dumps_the_adaptive_field(sphere_cloud, tmp_path):
    cfg = small_config(coarse_cells=10, sample_count=2000)
    run_pipeline(replace(cfg, dump_field=str(tmp_path / "adaptive.bin")), sphere_cloud)
    run_pipeline(replace(cfg, baseline_mode=True, dump_field=str(tmp_path / "baseline.bin")),
                 sphere_cloud)
    bench(replace(cfg, dump_field=str(tmp_path / "bench.bin")), sphere_cloud)
    dumped = (tmp_path / "bench.bin").read_bytes()
    assert dumped == (tmp_path / "adaptive.bin").read_bytes()
    assert dumped != (tmp_path / "baseline.bin").read_bytes()


def test_fill_and_extract_allocate_less_than_a_dense_field(tmp_path, monkeypatch):
    # The fill, extract and dump stages each allocate less than a dense
    # float64 lattice would take (the dump stage's count includes building
    # save_field's argument), and the dump holds the whole-lattice kernels'
    # field over the values the grid was given: a site is evaluated when it
    # is a stride site or was written.
    cloud = fixtures.make_fixture("sheets", count=12000, seed=0, gap=0.045, noise=0.002)
    config = small_config(coarse_cells=64, margin_cells=3)
    n = LatticeSpec(coarse_cells=64, margin_cells=3).fine_n
    peaks, writes = {}, []
    stage = pipeline.stage

    @contextmanager
    def traced(name, times=None):
        with stage(name, times):
            if name not in ("fill", "extract", "dump"):
                yield
                return
            tracemalloc.start()
            try:
                yield
            finally:
                peaks[name] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

    def recorded(calls, fn):
        def run(grid, ids, *args):
            calls.append((np.array(ids), *map(np.array, args)))
            return fn(grid, ids, *args)
        return run

    monkeypatch.setattr(pipeline, "stage", traced)
    result = run_pipeline(config, cloud)
    assert set(peaks) == {"fill", "extract"}
    assert max(peaks.values()) < n ** 3 * 8

    monkeypatch.setattr(AdaptiveGrid, "set_values", recorded(writes, AdaptiveGrid.set_values))
    path = tmp_path / "field.bin"
    dumped = run_pipeline(replace(config, dump_field=str(path)), cloud)
    assert dumped.mesh.faces.tobytes() == result.mesh.faces.tobytes()
    assert peaks["dump"] < n ** 3 * 8
    # the grid's writes, in order, over far_cap at the other stride sites
    values = np.full((n, n, n), np.nan)
    values[::2, ::2, ::2] = config.far_cap
    evaluated = ~np.isnan(values)
    for ids, v in writes:
        values.reshape(-1)[ids] = v
        evaluated.reshape(-1)[ids] = True
    oracles.dense_hierarchical_fill(values, evaluated)
    assert path.read_bytes() == values.astype("<f4").tobytes()


def test_grid_holds_its_evaluated_values_not_its_blocks(sphere_cloud, monkeypatch):
    # from evaluate to extract the grid keeps the ids and values it was
    # given, under 24 bytes per evaluated site; on this sphere the dense
    # lattice would take more, 9 bytes (a float64 and a flag) per site
    held = []

    def fill(grid):
        tracemalloc.start()
        try:
            clone = copy.deepcopy(grid)  # allocates what the grid holds
            held.append((tracemalloc.get_traced_memory()[0], grid.evaluated_count,
                         grid.spec.total_fine_vertices))
        finally:
            tracemalloc.stop()
        del clone
        return hierarchical_fill(grid)

    hierarchical_fill = pipeline.hierarchical_fill
    monkeypatch.setattr(pipeline, "hierarchical_fill", fill)
    run_pipeline(small_config(coarse_cells=64, margin_cells=3), sphere_cloud)
    [(nbytes, evaluated, sites)] = held
    assert nbytes < 24 * evaluated < 9 * sites


def test_dump_field(sphere_cloud, tmp_path):
    path = tmp_path / "field.bin"
    cfg = small_config(coarse_cells=12, dump_field=str(path))
    result = run_pipeline(cfg, sphere_cloud)
    values, spec = oracles.load_field(path)
    assert spec == result.spec
    assert np.isfinite(values).all()


def test_one_far_outlier_is_refused_at_normalize():
    # normalization fits the bounding box, so one point at (50, 50, 50)
    # squashed this sphere under one coarse cell: the run returned a 16-face
    # fragment, against 3852 faces without the outlier
    cloud = fixtures.sphere_cloud(5000, seed=0)
    config = PipelineConfig(coarse_cells=24, workers=1)
    assert run_pipeline(config, cloud).mesh.num_faces == 3852
    squashed = PointCloud(np.vstack([cloud.points, [[50.0, 50.0, 50.0]]]))
    with pytest.raises(FarOutlier, match=r"extent is \(0\.0117, 0\.0117, 0\.0117\), under "
                                         r"the coarse spacing 0\.0556 on every axis: its farthest "
                                         r"point lies 86\.6049 from the median") as info:
        run_pipeline(config, squashed)
    assert info.value.stage == "normalize"


# Each bounding box overflowed float64 in the normalization: its extent
# (+-1e308), its reciprocal extent (coordinates near 1e-320) or its center
# (1e308 to 1.7e308). They escaped as "scale must be positive" and "point
# coordinates must be finite" ValueErrors after an overflow RuntimeWarning.
@pytest.mark.parametrize("case", ["extent", "reciprocal", "center"])
def test_bounding_box_past_float64_is_refused_at_normalize(case):
    points = fixtures.sphere_cloud(2000, seed=0).points
    if case == "extent":
        points = np.vstack([points, [[1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]]])
    elif case == "reciprocal":
        points = points * 1e-320
    else:
        points = points.copy()
        points[:, 0] = np.linspace(1e308, 1.7e308, len(points))
    with pytest.raises(DegenerateExtent, match="overflows float64") as info:
        run_pipeline(PipelineConfig(coarse_cells=16), PointCloud(points))
    assert info.value.stage == "normalize"


def test_far_outlier_at_float64s_limit_is_named():
    # the farthest point's distance squared would overflow float64
    points = np.vstack([fixtures.sphere_cloud(2000, seed=0).points, [[1e308, 1e308, 1e308]]])
    with pytest.raises(FarOutlier, match=r"farthest point lies 1\.73205e\+308 from the median"):
        run_pipeline(PipelineConfig(coarse_cells=16), PointCloud(points))


def test_stage_tagged_errors(tmp_path):
    sparse = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1.0, 0]]))
    with pytest.raises(Exception) as exc_info:
        run_pipeline(PipelineConfig(coarse_cells=10, margin_cells=1), sparse)
    assert getattr(exc_info.value, "stage", None) == "curvature"


# a level above far_cap (the mesh came out empty); far_cap at the level, its
# far field's cell centers just below it (every far cell added a shell:
# 53,328 faces against 9,512 at the default level); half a fine cell above it
@pytest.mark.parametrize("coarse, far_cap, iso_eps, message", [
    (24, 0.05, 0.08, "offset level 0.08 must lie below far_cap's far field, "
                    "0.049999999999999996 for far_cap 0.05"),
    (20, 0.1, 0.1, "offset level 0.1 must lie below far_cap's far field, "
                   "0.09999999999999999 for far_cap 0.1"),
    (6, 0.1, None, "offset level 0.125 must lie below far_cap's far field, "
                   "0.09999999999999999 for far_cap 0.1"),
])
def test_level_the_far_field_can_cross_is_refused(sphere_cloud, coarse, far_cap, iso_eps,
                                                  message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run_pipeline(small_config(coarse_cells=coarse, far_cap=far_cap, iso_eps=iso_eps),
                     sphere_cloud)


# The lattice boundary lies the margin away from the cloud, so a level at
# or beyond it cuts the shell open there: on the 12k cube at coarse 16,
# margin 1 and r0 0.05, level 0.08 left 708 edges used once (level 0.07:
# none), and margin 0 at coarse 20 left 5,421.
@pytest.mark.parametrize("coarse, margin, iso_eps, message", [
    (16, 1, 0.08, "offset level 0.08 must lie below the lattice margin, "
                  "0.07142857142857142 for margin_cells 1"),
    (16, 1, 1 / 14, "offset level 0.07142857142857142 must lie below the lattice margin, "
                    "0.07142857142857142 for margin_cells 1"),
    (20, 0, None, "offset level 0.0125 must lie below the lattice margin, "
                  "0.0 for margin_cells 0"),
])
def test_level_at_or_beyond_the_margin_is_refused(coarse, margin, iso_eps, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        small_config(coarse_cells=coarse, margin_cells=margin, r0=0.05, iso_eps=iso_eps)


@pytest.mark.parametrize("eps", [0.0, -0.01])
def test_iso_eps_must_be_positive(sphere_cloud, eps):
    with pytest.raises(ValueError, match="offset level must be positive"):
        run_pipeline(small_config(coarse_cells=12, iso_eps=eps), sphere_cloud)


@pytest.mark.parametrize("coarse", [20, 24])
def test_no_curvature_samples_names_r0(coarse):
    # The sheets (z = +-0.022 once normalized) lie farther than r0 = 0.018
    # from every coarse layer: at 20 cells no site has a point within r0,
    # at 24 (noise reaches a few sites) none has 3.
    cloud = fixtures.make_fixture("sheets", count=12000, gap=0.045, noise=0.002)
    with pytest.raises(NoCurvatureSamples) as exc_info:
        run_pipeline(small_config(coarse_cells=coarse), cloud)
    assert exc_info.value.stage == "curvature"
    message = str(exc_info.value)
    assert "r0=0.018" in message
    spacing = 1.0 / (coarse - 2 * 2)
    assert f"coarse spacing is {spacing:g}" in message
    # the error names the fix: an r0 that reaches every point from the lattice
    reach = float(re.search(r"r0 >= ([0-9.]+)", message).group(1))
    assert reach == pytest.approx(np.sqrt(3.0) / 2.0 * spacing, rel=1e-3)
    cf, _ = curvature_summary(small_config(coarse_cells=coarse, r0=reach), cloud)
    assert len(cf) > 0


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_uint64_raises(sphere_cloud, seed):
    # resample reads the seed as a uint64; the config rejects it up front.
    with pytest.raises(ValueError, match="seed"):
        run_pipeline(small_config(coarse_cells=12, seed=seed), sphere_cloud)


@pytest.mark.parametrize("setting", ["refine_threshold", "resample_threshold"])
def test_unknown_percentile_selector_raises(setting):
    # only the four percentiles of the field can be named; checked up front
    with pytest.raises(ValueError, match="unknown percentile selector 'p50'"):
        PipelineConfig(**{setting: "p50"})
    PipelineConfig(**{setting: "p90"})
    PipelineConfig(**{setting: 0.3})
    PipelineConfig(**{setting: -np.inf})  # the ablations turn a stage off with +-inf
    with pytest.raises(ValueError, match="threshold nan is not a number"):
        PipelineConfig(**{setting: np.nan})


@pytest.mark.parametrize("setting", ["refine_threshold", "resample_threshold"])
def test_cli_unknown_percentile_selector_names_the_choices(tmp_path, capsys, setting):
    message = "unknown percentile selector 'p50' (expected one of p10, p40, p60, p90"
    paths = ["reconstruct", "--input", str(tmp_path / "missing.xyz"),
             "--output", str(tmp_path / "m.obj")]
    with pytest.raises(SystemExit) as exit_info:  # argparse rejects the flag
        cli.main(paths + ["--" + setting.replace("_", "-"), "p50"])
    assert exit_info.value.code == 2
    assert f"argument --{setting.replace('_', '-')}: {message}" in capsys.readouterr().err
    config_file = tmp_path / "run.cfg"
    config_file.write_text(f"{setting} = p50\n")
    assert cli.main(paths + ["--config", str(config_file)]) == 2
    assert capsys.readouterr().err.startswith("error: " + message)


# --- CLI surface ---------------------------------------------------------


def test_cli_end_to_end(tmp_path, capsys):
    cloud_path = tmp_path / "cloud.xyz"
    mesh_path = tmp_path / "mesh.obj"
    assert cli.main(["make-fixture", "--shape", "sphere", "--count", "6000",
                     "--output", str(cloud_path)]) == 0
    assert cli.main(["reconstruct", "--input", str(cloud_path),
                     "--output", str(mesh_path), "--coarse-cells", "16",
                     "--margin-cells", "2"]) == 0
    out = capsys.readouterr().out
    assert "evaluate_s=" in out and "evaluated_queries=" in out
    assert "nn_queries=" in out and "near_queries=" in out
    assert "ball_pairs=" in out and "ball_blocks=" in out and "peak_rss_mb=" in out
    assert mesh_path.exists()

    assert cli.main(["metrics", "--mesh", str(mesh_path),
                     "--reference", str(cloud_path),
                     "--sample-count", "5000", "--oneline"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert "cd_x1000=" in out and "nc=" in out


def test_cli_curvature_dump(tmp_path, capsys):
    cloud_path = tmp_path / "cloud.xyz"
    cli.main(["make-fixture", "--shape", "sphere", "--count", "4000",
              "--output", str(cloud_path)])
    capsys.readouterr()
    assert cli.main(["curvature", "--input", str(cloud_path),
                     "--coarse-cells", "12", "--margin-cells", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# id ix iy iz")
    assert out[-1].startswith("# p10=")
    assert len(out) > 2


def test_cli_bench(tmp_path, capsys):
    cloud_path = tmp_path / "cloud.xyz"
    cli.main(["make-fixture", "--shape", "sphere", "--count", "4000",
              "--output", str(cloud_path)])
    capsys.readouterr()
    assert cli.main(["bench", "--input", str(cloud_path), "--coarse-cells", "10",
                     "--margin-cells", "2", "--sample-count", "2000"]) == 0
    out = capsys.readouterr().out
    assert "baseline.evaluated_queries=" in out and "query_ratio=" in out


def test_cli_config_file_precedence(tmp_path, capsys):
    cloud_path = tmp_path / "cloud.xyz"
    cli.main(["make-fixture", "--shape", "sphere", "--count", "4000",
              "--output", str(cloud_path)])
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("coarse_cells = 10\nseed = 5  # comment\nestimator = nearest\n")
    mesh_path = tmp_path / "m.obj"
    capsys.readouterr()
    # flag overrides the file value for coarse_cells; file provides the rest
    assert cli.main(["reconstruct", "--input", str(cloud_path), "--output",
                     str(mesh_path), "--config", str(cfg_file),
                     "--coarse-cells", "12", "--margin-cells", "2"]) == 0
    out = capsys.readouterr().out
    assert f"total_fine_vertices={(2 * 12 + 1) ** 3}" in out


def test_cli_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.xyz"
    code = cli.main(["reconstruct", "--input", str(missing),
                     "--output", str(tmp_path / "m.obj")])
    assert code != 0
    assert "error" in capsys.readouterr().err


def test_cli_bad_config_key(tmp_path, capsys):
    cloud_path = tmp_path / "cloud.xyz"
    cli.main(["make-fixture", "--shape", "sphere", "--count", "1000",
              "--output", str(cloud_path)])
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("definitely_not_a_key = 1\n")
    code = cli.main(["reconstruct", "--input", str(cloud_path),
                     "--output", str(tmp_path / "m.obj"), "--config", str(cfg_file)])
    assert code != 0


def test_cli_seed_outside_uint64_exits_2(tmp_path, capsys):
    cloud_path = tmp_path / "cloud.xyz"
    cli.main(["make-fixture", "--shape", "sphere", "--count", "4000",
              "--output", str(cloud_path)])
    capsys.readouterr()
    code = cli.main(["reconstruct", "--input", str(cloud_path), "--output",
                     str(tmp_path / "m.obj"), "--coarse-cells", "12",
                     "--margin-cells", "2", "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: seed must be in [0, 2**64)")


# A value other than the default for every setting, as flag or config text.
_SETTING_TEXT = {
    "coarse_cells": "12", "margin_cells": "1", "r0": "0.02", "s_max": "1.25",
    "s_min": "0.5", "alpha": "0.25", "beta": "1.75", "refine_threshold": "p40",
    "resample_threshold": "0.01", "target_count": "32", "estimator": "nearest",
    "far_cap": "0.2", "iso_eps": "0.01", "sample_count": "500", "seed": "3",
    "workers": "2", "baseline_mode": "true", "dump_field": "field.bin",
}


def test_cli_every_setting_by_flag_and_by_config_key(tmp_path):
    settable = {f.name for f in fields(PipelineConfig)} - {"input_path", "output_path"}
    assert set(cli.SETTINGS) == settable
    assert set(_SETTING_TEXT) == settable
    parser = cli.make_parser()
    paths = ["reconstruct", "--input", "in.xyz", "--output", "out.obj"]
    default = cli.build_config(parser.parse_args(paths))
    assert default == PipelineConfig(input_path="in.xyz", output_path="out.obj")
    for name, text in _SETTING_TEXT.items():
        flag = (["--baseline"] if name == "baseline_mode"
                else ["--" + name.replace("_", "-"), text])
        config_file = tmp_path / f"{name}.cfg"
        config_file.write_text(f"{name} = {text}\n")
        by_flag = cli.build_config(parser.parse_args(paths + flag))
        by_key = cli.build_config(parser.parse_args(paths + ["--config", str(config_file)]))
        assert by_flag == by_key
        assert getattr(by_flag, name) != getattr(default, name)
        assert by_flag == replace(default, **{name: getattr(by_flag, name)})


def test_cli_unknown_estimator_fails_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "missing.xyz")
    config_file = tmp_path / "run.cfg"
    config_file.write_text("estimator = bogus\n")
    for extra in (["--estimator", "bogus"], ["--config", str(config_file)]):
        code = cli.main(["reconstruct", "--input", missing,
                         "--output", str(tmp_path / "m.obj")] + extra)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: unknown estimator 'bogus'")


_BAD_SETTINGS = [
    (["--estimator", "bogus"], "unknown estimator 'bogus'"),
    (["--seed", "-5"], "seed must be in [0, 2**64)"),
    (["--far-cap", "-1"], "far_cap must be positive"),
    (["--target-count", "0"], "target_count must be positive"),
    (["--iso-eps", "0"], "offset level must be positive"),
    (["--iso-eps", "0.1"], "offset level 0.1 must lie below far_cap's far field, "
                           "0.09999999999999999 for far_cap 0.1"),
    (["--workers", "0"], "workers must be -1 (every CPU) or at least 1, not 0"),
    (["--coarse-cells", "4", "--margin-cells", "3"], "coarse_cells must exceed twice the margin"),
    (["--margin-cells", "-1"], "margin_cells must be nonnegative"),
    (["--margin-cells", "0"], "offset level 0.001953125 must lie below the lattice margin, "
                              "0.0 for margin_cells 0"),
    (["--iso-eps", "0.02459016393442623"], "offset level 0.02459016393442623 must lie below "
                                           "the lattice margin, 0.02459016393442623 for "
                                           "margin_cells 3"),
    (["--s-min", "1.5"], "need s_min < 1 < s_max"),
    (["--s-max", "0.9"], "need s_min < 1 < s_max"),
    (["--s-max", "inf"], "s_max must be finite, not inf"),
    (["--s-max", "1e6"], "r0 * s_max must be at most 1, the longest side of the "
                         "normalized cloud, not 18000"),
    (["--r0", "0.8"], "r0 * s_max must be at most 1, the longest side of the "
                      "normalized cloud, not 1.08"),
    (["--alpha", "0"], "alpha, beta, r0 must be positive"),
    (["--r0", "-1"], "alpha, beta, r0 must be positive"),
    (["--sample-count", "0"], "sample_count must be positive"),
    # a NaN threshold compares false with every sigma: it turned refinement off
    (["--refine-threshold", "nan"], "threshold nan is not a number"),
    (["--resample-threshold", "NaN"], "threshold nan is not a number"),
    (["--dump-field", "{nodir}/f.bin"], "dump_field directory '{nodir}' does not exist"),
]


@pytest.mark.parametrize("command", [
    ["reconstruct", "--input", "{missing}", "--output", "{out}"],
    ["curvature", "--input", "{missing}"],
    ["metrics", "--mesh", "{missing}", "--reference", "{missing}"],
    ["bench", "--input", "{missing}", "--reference", "{missing}"],
])
@pytest.mark.parametrize("flag, message", _BAD_SETTINGS)
def test_cli_bad_setting_exits_2_before_reading(tmp_path, capsys, command, flag, message):
    # the input files do not exist: the setting must fail first
    paths = {"missing": str(tmp_path / "missing.xyz"), "out": str(tmp_path / "m.obj"),
             "nodir": str(tmp_path / "nodir")}
    argv = [arg.format(**paths) for arg in command + flag]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: " + message.format(**paths))


def test_cli_missing_output_directory_exits_2_before_reading(tmp_path, capsys):
    nodir = tmp_path / "nodir"
    argv = ["reconstruct", "--input", str(tmp_path / "missing.xyz"),
            "--output", f"{nodir}/m.obj"]
    assert cli.main(argv) == 2
    message = f"error: output_path directory '{nodir}' does not exist"
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("setting, value, message", [
    ("count", 0, "count must be positive, not 0"),
    ("count", -3, "count must be positive, not -3"),
    ("noise", -0.5, "noise must be nonnegative, not -0.5"),
    ("noise", float("nan"), "noise must be nonnegative, not nan"),
    ("radius", -0.3, "radius must be positive, not -0.3"),
    ("radius", 0, "radius must be positive, not 0"),
    ("radius", float("nan"), "radius must be positive, not nan"),
    ("side", 0, "side must be positive, not 0"),
    ("side", -1, "side must be positive, not -1"),
    ("side", float("nan"), "side must be positive, not nan"),
    ("gap", -0.045, "gap must be nonnegative, not -0.045"),
    ("gap", float("nan"), "gap must be nonnegative, not nan"),
])
def test_make_fixture_bad_count_or_noise_exits_2(tmp_path, capsys, setting, value, message):
    with pytest.raises(ValueError, match=message):
        fixtures.make_fixture("sheets", **{setting: value})
    out = tmp_path / "cloud.xyz"
    argv = ["make-fixture", "--shape", "sheets", "--output", str(out), f"--{setting}", str(value)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: " + message)
    assert not out.exists()


def test_fixture_shapes(tmp_path):
    for shape, extra in (("sphere", {}), ("cube", {}),
                         ("sheets", {"gap": 0.05, "noise": 0.002})):
        cloud = fixtures.make_fixture(shape, count=2000, seed=1, **extra)
        assert len(cloud) == 2000
        assert cloud.has_normals
    up, lo = sheet_membership(2000)
    sheets = fixtures.make_fixture("sheets", count=2000, gap=0.05, seed=1)
    assert np.all(sheets.points[up, 2] > 0)
    assert np.all(sheets.points[lo, 2] < 0)
    touching = fixtures.make_fixture("sheets", count=2000, gap=0.0, seed=1)
    assert np.all(touching.points[:, 2] == 0)
    with pytest.raises(ValueError):
        fixtures.make_fixture("torus")
