from dataclasses import fields, replace

import numpy as np
import pytest

from curvrec import cli, fixtures, io, pipeline
from curvrec.metrics import chamfer, sample_mesh
from curvrec.errors import NoCurvatureSamples
from curvrec.estimator import make_estimator
from curvrec.model import PointCloud
from curvrec.patch import ResamplePolicy
from curvrec.pipeline import (PipelineConfig, bench, curvature_summary, reconstruct,
                              run_pipeline)
from curvrec.spatial import build_index


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
    mesh, timing = reconstruct(small_config(coarse_cells=24), sphere_cloud)
    assert mesh.num_faces > 0
    # input units: shells straddle the radius-0.3 sphere
    r = np.linalg.norm(mesh.vertices, axis=1)
    assert 0.25 < r.min() and r.max() < 0.35
    assert timing.evaluated_queries + timing.filled_queries == timing.total_fine_vertices
    assert timing.patch_time >= 0 and timing.udf_time >= 0


def test_baseline_counts(sphere_cloud):
    cfg = small_config(coarse_cells=12, baseline_mode=True)
    result = run_pipeline(cfg, sphere_cloud)
    assert result.timing.evaluated_queries == result.spec.total_fine_vertices
    assert result.timing.filled_queries == 0


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
        reconstruct(cfg, sphere_cloud)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


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


def test_mesh_bytes_independent_of_chunk_size(sphere_cloud, monkeypatch):
    # a wide r0 and target_count 16 send ~1000 patches through the seeded
    # subsample, so chunk edges cut between padded and subsampled rows
    cfg = small_config(coarse_cells=20, r0=0.04, target_count=16)
    meshes = []
    for chunk in (8192, 97):
        monkeypatch.setattr(pipeline, "_CHUNK", chunk)
        mesh = run_pipeline(cfg, sphere_cloud).mesh
        meshes.append(mesh.vertices.tobytes() + mesh.faces.tobytes())
    assert meshes[0] == meshes[1]


def test_point_exactly_at_query_radius_is_near():
    # 0.25 and 0.0625 are exact; far_cap < radius makes the nn bound the radius
    cloud = PointCloud(np.array([[0.25, 0.0, 0.0]]))
    index = build_index(cloud)
    positions, radii = np.zeros((1, 3)), np.array([0.25])
    nn = pipeline._nearest(index, positions, radii, 0.1, workers=1)
    assert nn.tolist() == [0.25]
    policy = ResamplePolicy(target_count=4, curvature_threshold=0.5)
    values = pipeline._evaluate_queries(
        index, positions, radii, np.zeros(1), np.zeros(1, dtype=np.int64), policy,
        make_estimator("nearest"), 0.1, nn, [], [], 1)
    assert values.tolist() == [0.25]  # a far query would read far_cap = 0.1


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
    values = pipeline._evaluate_queries(
        index, positions, nn, np.zeros(m), np.arange(m), policy,
        make_estimator("nearest"), 1.0, nn, [], [], 1)
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
    assert 0.0 <= cf.p10 <= cf.p90 <= 1.0 / 3.0
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
    assert "adaptive.patch_time=" in text and "query_ratio=" in text


def test_dump_field(sphere_cloud, tmp_path):
    from curvrec.grid import load_field
    path = tmp_path / "field.bin"
    cfg = small_config(coarse_cells=12, dump_field=str(path))
    result = run_pipeline(cfg, sphere_cloud)
    values, spec = load_field(path)
    assert spec == result.spec
    assert np.isfinite(values).all()


def test_stage_tagged_errors(tmp_path):
    sparse = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1.0, 0]]))
    with pytest.raises(Exception) as exc_info:
        run_pipeline(PipelineConfig(coarse_cells=10, margin_cells=1), sparse)
    assert getattr(exc_info.value, "stage", None) == "curvature"


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
    assert "r0=" in str(exc_info.value)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_uint64_raises(sphere_cloud, seed):
    # No patch exceeds target_count at this size, so resample, which reads
    # the seed as a uint64, is never called: the policy rejects it first.
    with pytest.raises(ValueError, match="seed"):
        run_pipeline(small_config(coarse_cells=12, seed=seed), sphere_cloud)


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
    assert "patch_time=" in out and "evaluated_queries=" in out
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


def test_fixture_shapes(tmp_path):
    for shape, extra in (("sphere", {}), ("cube", {}),
                         ("sheets", {"gap": 0.05, "noise": 0.002})):
        cloud = fixtures.make_fixture(shape, count=2000, seed=1, **extra)
        assert len(cloud) == 2000
        assert cloud.has_normals
    up, lo = fixtures.sheet_membership(2000)
    sheets = fixtures.make_fixture("sheets", count=2000, gap=0.05, seed=1)
    assert np.all(sheets.points[up, 2] > 0)
    assert np.all(sheets.points[lo, 2] < 0)
    with pytest.raises(ValueError):
        fixtures.make_fixture("torus")
