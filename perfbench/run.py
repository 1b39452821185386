"""curvrec reconstruction benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's cloud from --seed, writes it as .xyz, and runs the
file-to-file reconstruction that `curvrec reconstruct` runs, each in a
fresh process (worker.py) so that peak RSS is the reconstruction's own.

--trace 0 measures the end-to-end metrics: set-up (median of several
fresh-process imports of curvrec.cli), reconstruction wall time (median
over at least one reconstruction, and as many more as should end within
--seconds),
peak RSS, and mesh quality against the input cloud as `curvrec metrics`
computes it. --trace 1 runs one untraced and one traced reconstruction
and reports per-layer metrics from the traced one (spans.py), the
tracing overhead, and sheet_bridges.

Every reconstruction is checked: it must not raise, its OBJ must be a
closed edge-manifold shell, and its bytes must equal the first mesh this
code produced for the same workload and seed. Failures are counted
against the reconstructions attempted. Human-readable lines come first;
the last line of stdout is the JSON result.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPS = 5
RUN_LIMIT_S = 160        # children are killed here; a run must end inside 180 s
QUALITY_SAMPLES = 100000  # `curvrec metrics` defaults: sample_count and seed
QUALITY_SEED = 0

END_TO_END = {
    "setup_s": "s", "reconstruct_s": "s", "peak_rss_mb": "MB",
    "cd_x1000": "x1000", "f1_0005": "fraction", "f1_001": "fraction", "nc": "fraction",
}

PER_LAYER = {
    "spatial.nn_s": "s", "spatial.nn_queries": "count",
    "spatial.nn_useful_fraction": "fraction",
    "spatial.ball_s": "s", "spatial.ball_queries": "count", "spatial.ball_points": "count",
    "spatial.build_s": "s",
    "patch.resample_s": "s", "patch.resample_calls": "count", "patch.points_in": "count",
    "patch.subsample_calls": "count", "patch.centroid_calls": "count",
    "patch.duplicate_calls": "count",
    "estimator.s": "s", "estimator.queries": "count",
    "grid.fill_s": "s", "grid.filled_sites": "count", "grid.refine_s": "s",
    "grid.refined_sites": "count", "grid.evaluated_fraction": "fraction",
    "extract.s": "s", "extract.sites": "count", "extract.faces": "count",
    "pipeline.self_s": "s", "pipeline.far_queries": "count",
    "io.read_s": "s", "io.read_mb": "MB", "io.write_s": "s", "io.write_mb": "MB",
    "curvature.self_s": "s", "curvature.queries": "count",
    "curvature.sigma_entries": "count", "curvature.hot_fraction": "fraction",
    "schedule.radius_s": "s", "model.normalize_s": "s",
    "trace.overhead_fraction": "fraction", "sheet_bridges": "count",
}


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str          # "sphere" or "sheets"
    count: int
    coarse_cells: int

    def cloud(self, seed):
        from curvrec import fixtures
        if self.shape == "sphere":
            return fixtures.sphere_cloud(count=self.count, seed=seed)
        return fixtures.sheets_cloud(count=self.count, gap=0.045, noise=0.002, seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload("sphere-c64", "sphere", 50_000, 64),
    Workload("sheets-c128", "sheets", 50_000, 128),
    Workload("dense-sheets-c64", "sheets", 400_000, 64),
)}


class WorkerFailed(Exception):
    pass


def worker(*args, deadline):
    """Run worker.py in a fresh process and return its JSON result."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise WorkerFailed("no time left in this run")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *map(str, args)],
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {args[0]} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {args[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def code_id():
    """Hash of the curvrec sources: identifies 'the same code'."""
    h = hashlib.sha256()
    for path in sorted((SRC / "curvrec").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in (SRC / "curvrec").rglob("*.py"))


def edge_manifold(faces):
    """True when the mesh has faces and every undirected edge is used by
    exactly two of them (closed and edge-manifold)."""
    import numpy as np
    if len(faces) == 0:
        return False
    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    edges.sort(axis=1)
    keys = edges[:, 0] * (int(faces.max()) + 1) + edges[:, 1]
    _, uses = np.unique(keys, return_counts=True)
    return bool(np.all(uses == 2))


def sheet_bridges(vertices, faces):
    """Connected components with vertices on both sides of the plane z = 0,
    the mid-plane between the two sheets."""
    import numpy as np
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    n = len(vertices)
    graph = coo_matrix((np.ones(faces.size), (faces.ravel(), np.roll(faces, 1, axis=1).ravel())),
                       shape=(n, n))
    k, label = connected_components(graph, directed=False)
    above = np.bincount(label, weights=vertices[:, 2] > 0, minlength=k) > 0
    below = np.bincount(label, weights=vertices[:, 2] < 0, minlength=k) > 0
    return int(np.count_nonzero(above & below))


def quality(mesh, cloud):
    """cd/f1/nc of the mesh against the cloud as it reads back from .xyz."""
    import numpy as np
    from curvrec.metrics import evaluate, sample_mesh
    from curvrec.model import PointCloud
    # read_point_cloud renormalizes normals; repeat it so the reference is
    # bit-identical to what `curvrec metrics --reference input.xyz` scores.
    normals = cloud.normals / np.linalg.norm(cloud.normals, axis=1)[:, None]
    reference = PointCloud(cloud.points, normals)
    samples = sample_mesh(mesh, QUALITY_SAMPLES, QUALITY_SEED)
    # Exact kd-tree queries: the worker count changes speed, not results.
    report = evaluate(samples, reference, QUALITY_SAMPLES, QUALITY_SEED, workers=2)
    return {"cd_x1000": report.cd, "f1_0005": report.f1_0005,
            "f1_001": report.f1_001, "nc": report.nc}


class Checker:
    """Counts failed reconstructions: raised, non-manifold output, or bytes
    that differ from the first mesh of the same code and seed."""

    def __init__(self, workload, seed):
        self.ref_path = OUT / "sha" / f"{code_id()}-{workload.name}-{seed}"
        self.ref = self.ref_path.read_text() if self.ref_path.exists() else None
        self.manifold = {}
        self.mesh = None
        self.attempted = self.failed = 0
        self.notes = []

    def check(self, obj_path):
        """Account one reconstruction's output; returns its sha256."""
        from curvrec import io
        self.attempted += 1
        digest = hashlib.sha256(obj_path.read_bytes()).hexdigest()
        if digest not in self.manifold:
            mesh = io.read_mesh(obj_path)
            self.manifold[digest] = edge_manifold(mesh.faces)
            if self.mesh is None:
                self.mesh = mesh
        ok = self.manifold[digest]
        if not ok:
            self.notes.append(f"mesh {digest[:12]} is not closed and edge-manifold")
        if self.ref is None:
            self.ref_path.parent.mkdir(parents=True, exist_ok=True)
            self.ref_path.write_text(digest)
            self.ref = digest
        elif digest != self.ref:
            self.notes.append(f"mesh {digest[:12]} differs from first mesh {self.ref[:12]}")
            ok = False
        self.failed += not ok
        return digest

    def raised(self, exc):
        self.attempted += 1
        self.failed += 1
        self.notes.append(str(exc))


def run(workload, seed, seconds, trace, out=print):
    """Measure one run; prints report lines through out and returns the
    JSON result."""
    from curvrec import io
    import numpy as np
    import scipy

    deadline = perf_counter() + RUN_LIMIT_S
    work = OUT / workload.name  # reused by every seed: keeps only the latest files
    work.mkdir(parents=True, exist_ok=True)
    xyz, obj = work / "input.xyz", work / "mesh.obj"
    cloud = workload.cloud(seed)
    io.write_point_cloud(cloud, xyz)
    checker = Checker(workload, seed)
    args = (xyz, obj, workload.coarse_cells)

    out(f"workload={workload.name} seed={seed} trace={trace} shape={workload.shape} "
        f"points={workload.count} coarse_cells={workload.coarse_cells} workers=1")
    out(f"env nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} scipy={scipy.__version__} src_lines={src_lines()}")

    metrics, samples = {}, {}
    digest = None
    if trace:
        try:
            plain = worker("reconstruct", *args, deadline=deadline)
            digest = checker.check(obj)
            traced = worker("traced", *args, work / "spans.npz", deadline=deadline)
            traced_digest = checker.check(obj)
        except WorkerFailed as exc:
            checker.raised(exc)
        else:
            if traced_digest != digest:
                checker.notes.append("traced mesh_sha256 differs from the untraced one")
            metrics.update(traced["layers"])
            metrics["trace.overhead_fraction"] = (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"]
    else:
        samples["setup_s"] = [worker("import", deadline=deadline)["import_s"]
                              for _ in range(SETUP_REPS)]
        walls, rss = [], []
        measure_start = perf_counter()
        while True:
            try:
                r = worker("reconstruct", *args, deadline=deadline)
            except WorkerFailed as exc:
                checker.raised(exc)
                break
            digest = checker.check(obj)
            walls.append(r["wall_s"])
            rss.append(r["peak_rss_mb"])
            # start another only if it should end within --seconds
            if perf_counter() - measure_start + r["wall_s"] > seconds:
                break
        if walls:
            samples["reconstruct_s"], samples["peak_rss_mb"] = walls, rss
        metrics.update((name, statistics.median(values)) for name, values in samples.items())
        if checker.mesh is not None and checker.mesh.num_faces:
            metrics.update(quality(checker.mesh, cloud))

    bridges = None
    if checker.mesh is not None:
        # The sphere has no sheets, so no component can bridge them.
        bridges = sheet_bridges(checker.mesh.vertices, checker.mesh.faces) \
            if workload.shape == "sheets" else 0
        if trace:
            metrics["sheet_bridges"] = bridges

    units = PER_LAYER if trace else END_TO_END
    out(f"mesh_sha256={digest}")
    for name in (name for name in units if name in metrics):
        detail = ""
        if name in samples:
            detail = f" (median of {len(samples[name])}: " \
                     f"{', '.join(f'{v:.4g}' for v in samples[name])})"
        out(f"{name}={metrics[name]:.6g} {units[name]}{detail}")
    if not trace and bridges is not None:
        out(f"sheet_bridges={bridges} count")
    for note in checker.notes:
        out(f"FAILED: {note}")
    correct = not checker.notes and checker.attempted > 0 and set(metrics) == set(units)
    return {"correct": correct, "attempted": checker.attempted, "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "curvrec" / "__init__.py").is_file():
        print(f"error: no curvrec sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
