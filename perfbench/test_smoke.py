"""Smoke test of the benchmark itself on a tiny configuration.

    python3 -m pytest perfbench
"""

import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from curvrec import io, pipeline  # noqa: E402
from curvrec.model import TriangleMesh  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = run.Workload("smoke-sphere", "sphere", 2000, 16)
LINE = re.compile(r"^(\S+)=(\S+) (\S+)")


@pytest.fixture(autouse=True)
def isolated_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, section):
    lines = []
    result = run.run(TINY, seed=0, seconds=0.1, trace=trace, out=lines.append)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {m[1]: m[3] for m in map(LINE.match, lines) if m}
    assert {k: printed.get(k) for k in expected} == expected
    assert any(re.fullmatch(r"mesh_sha256=[0-9a-f]{64}", line) for line in lines)


def test_self_time_excludes_children_and_patches_are_restored():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))
    outer = tracer.wrap("outer", lambda: (inner(), time.sleep(0.01)))
    outer()
    names, dur, self_time = tracer.durations()
    assert names.tolist() == ["outer", "inner"]
    assert self_time[1] == dur[1] >= 0.02
    assert 0.01 <= self_time[0] <= dur[0] - dur[1]

    original = pipeline.resample
    with spans.traced_pipeline(spans.Tracer()):
        assert pipeline.resample is not original
    assert pipeline.resample is original


def _tetra(z0, z1):
    v = np.array([[0, 0, z0], [1, 0, z0], [0, 1, z0], [0, 0, z1]], dtype=float)
    f = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [2, 0, 3]])
    return v, f


def _union(*parts):
    verts, faces, base = [], [], 0
    for v, f in parts:
        verts.append(v)
        faces.append(f + base)
        base += len(v)
    return np.vstack(verts), np.vstack(faces)


def test_face_removed_trips_manifold_check(tmp_path):
    v, f = _tetra(0.0, 1.0)
    assert run.edge_manifold(f)
    assert not run.edge_manifold(f[1:])

    checker = run.Checker(TINY, seed=0)
    path = tmp_path / "mesh.obj"
    io.write_mesh(TriangleMesh(v, f), path)
    checker.check(path)
    assert (checker.attempted, checker.failed) == (1, 0)
    io.write_mesh(TriangleMesh(v, f[1:]), path)
    checker.check(path)
    assert (checker.attempted, checker.failed) == (2, 1)


def test_sheet_bridges_counts_bridging_component():
    upper, lower = _tetra(0.1, 0.2), _tetra(-0.1, -0.2)
    assert run.sheet_bridges(*_union(upper, lower)) == 0
    assert run.sheet_bridges(*_union(upper, lower, _tetra(-0.05, 0.05))) == 1


def test_quality_equals_scoring_the_written_file(tmp_path):
    from curvrec.metrics import evaluate, sample_mesh
    cloud = TINY.cloud(seed=0)
    path = tmp_path / "input.xyz"
    io.write_point_cloud(cloud, path)
    mesh = TriangleMesh(*_tetra(-0.3, 0.3))
    samples = sample_mesh(mesh, run.QUALITY_SAMPLES, run.QUALITY_SEED)
    report = evaluate(samples, io.read_point_cloud(path), run.QUALITY_SAMPLES,
                      run.QUALITY_SEED, workers=1)
    assert run.quality(mesh, cloud) == {"cd_x1000": report.cd, "f1_0005": report.f1_0005,
                                        "f1_001": report.f1_001, "nc": report.nc}


def test_fails_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "sphere-c64", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
