"""End-to-end reconstruction: cloud -> adaptive UDF lattice -> mesh.

Stages: read, normalize, index, curvature field over the coarse lattice,
percentile-driven radius schedule, hot-region refinement, patch building,
UDF estimation with far-field capping, hierarchical fill, offset-level
marching cubes, denormalize. Timing splits into patch_time (curvature,
radius modulation, query addition, extraction, resampling) and udf_time
(estimation plus fill interpolation).

baseline_mode changes only the query set: every fine vertex at the fixed
radius r0, without curvature (the uniform-grid setup the adaptive
strategy is measured against). Both modes run the same evaluate, fill
and extract.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import io
from .curvature import CurvatureField, curvature_field
from .errors import ReconstructionError
from .estimator import make_estimator
from .extract import IsoSpec, marching_cubes
from .grid import (AdaptiveGrid, LatticeSpec, MARGIN_CELLS_DEFAULT, coarse_queries,
                   hierarchical_fill, refine_with_parents, save_field, select_hot)
from .metrics import MetricReport, evaluate, sample_mesh
from .model import PointCloud, TriangleMesh, denormalize_mesh, normalize_cloud
from .patch import ResamplePolicy, pad_block, resample
from .schedule import (ALPHA_DEFAULT, BETA_DEFAULT, R0_DEFAULT, S_MAX_DEFAULT,
                       S_MIN_DEFAULT, RadiusSchedule, radius as schedule_radius)
from .spatial import build_index

# Queries are streamed through fixed-size blocks; constant so that results
# never depend on the worker count.
_CHUNK = 8192

# Queries farther than this from every point read this UDF value.
FAR_CAP_DEFAULT = 0.10


@dataclass
class PipelineConfig:
    input_path: str | None = None
    output_path: str | None = None
    coarse_cells: int = 128
    margin_cells: int = MARGIN_CELLS_DEFAULT
    r0: float = R0_DEFAULT
    s_max: float = S_MAX_DEFAULT
    s_min: float = S_MIN_DEFAULT
    alpha: float = ALPHA_DEFAULT
    beta: float = BETA_DEFAULT
    refine_threshold: str | float = "p60"
    resample_threshold: str | float = "p60"
    target_count: int = 64
    estimator: str = "plane"
    far_cap: float = FAR_CAP_DEFAULT
    iso_eps: float | None = None      # default: half a fine cell edge
    sample_count: int = 100000
    seed: int = 0
    baseline_mode: bool = False
    workers: int = 1
    dump_field: str | None = None


@dataclass
class TimingReport:
    patch_time: float
    udf_time: float
    evaluated_queries: int
    filled_queries: int
    total_fine_vertices: int

    def lines(self):
        return [f"patch_time={self.patch_time:.3f}",
                f"udf_time={self.udf_time:.3f}",
                f"evaluated_queries={self.evaluated_queries}",
                f"filled_queries={self.filled_queries}",
                f"total_fine_vertices={self.total_fine_vertices}"]


@dataclass
class PipelineResult:
    mesh: TriangleMesh            # in input coordinates
    norm_mesh: TriangleMesh       # in normalized coordinates
    timing: TimingReport
    transform: object
    spec: LatticeSpec
    curvature: CurvatureField | None = None


@contextmanager
def stage(name, bucket=None):
    """Tag a ReconstructionError raised inside with the stage name, and
    append the elapsed wall time to bucket (a list) when one is given."""
    t0 = time.perf_counter()
    try:
        yield
    except ReconstructionError as exc:
        if not hasattr(exc, "stage"):
            exc.stage = name
        raise
    finally:
        if bucket is not None:
            bucket.append(time.perf_counter() - t0)


def _load_cloud(config, cloud):
    if cloud is not None:
        return cloud
    if config.input_path is None:
        raise ValueError("config.input_path is required when no cloud is passed")
    with stage("read"):
        return io.read_point_cloud(config.input_path)


def _prepare(config, cloud):
    """The run prefix every command shares: read, normalize, index, lattice."""
    cloud = _load_cloud(config, cloud)
    with stage("normalize"):
        norm_cloud, transform = normalize_cloud(cloud)
    with stage("index"):
        index = build_index(norm_cloud)
    spec = LatticeSpec(coarse_cells=config.coarse_cells, margin_cells=config.margin_cells)
    return norm_cloud, transform, index, spec


def _sigma_lookup(cf: CurvatureField, query_ids, default=0.0):
    """(sigma, found) per query id; queries without an entry get the default."""
    ids = np.asarray(query_ids, dtype=np.int64)
    pos = np.searchsorted(cf.ids, ids)
    pos = np.minimum(pos, cf.ids.size - 1)
    hit = cf.ids[pos] == ids
    out = np.full(ids.shape, default)
    out[hit] = cf.sigma[pos[hit]]
    return out, hit


def _evaluate_queries(index, positions, radii, sigmas, query_ids,
                      policy, estimator, far_cap, nn, patch, udf, workers):
    """UDF value per query: patch pipeline inside the radius, capped
    nearest distance outside. nn must be exact up to max(far_cap, radii).
    Wall time is appended to the patch and udf lists."""
    radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), nn.shape)
    with stage("evaluate", udf):
        values = np.minimum(nn, far_cap)  # near rows are overwritten below
    near_rows = np.flatnonzero(nn <= radii)

    target = policy.target_count
    for start in range(0, near_rows.size, _CHUNK):
        rows = near_rows[start:start + _CHUNK]
        with stage("evaluate", patch):
            flat, offsets = index.radius_query_flat(positions[rows], radii[rows],
                                                    workers=workers)
            # sqrt(d2) <= r and the ball's d2 <= r*r can round apart at d == r;
            # a query whose ball came back empty keeps its far value.
            hit = np.diff(offsets) > 0
            rows, offsets = rows[hit], offsets[np.r_[True, hit]]
            block = pad_block(index.points, flat, offsets, sigmas[rows], policy)
            for j in np.flatnonzero(np.diff(offsets) > target):
                raw = index.points[flat[offsets[j]:offsets[j + 1]]]
                block[j] = resample(raw, sigmas[rows[j]], policy,
                                    query_id=int(query_ids[rows[j]]))
        with stage("evaluate", udf):
            values[rows] = estimator.estimate_batch(positions[rows], block)
    return values


def _nearest(index, positions, radii, far_cap, workers):
    """Nearest distance, exact up to max(far_cap, radii): what
    _evaluate_queries reads of it."""
    return index.nearest_distance_many(positions, workers=workers,
                                       bound=np.max(radii, initial=far_cap))


def run_pipeline(config: PipelineConfig, cloud: PointCloud | None = None) -> PipelineResult:
    if config.far_cap <= 0:
        raise ValueError("far_cap must be positive")
    estimator = make_estimator(config.estimator)
    norm_cloud, transform, index, spec = _prepare(config, cloud)
    grid = AdaptiveGrid(spec)
    patch, udf = [], []  # wall time per section, summed into TimingReport
    cf = None

    # The mode picks the query set; evaluate, fill and extract are shared.
    if config.baseline_mode:
        with stage("evaluate", patch):
            # every fine vertex at the fixed radius, no curvature
            # conditioning: always centroid-pad
            ids = np.arange(spec.total_fine_vertices)
            grid.evaluated[:] = True
            positions = spec.position_of_id(ids)
            radii = np.full(ids.size, config.r0)
            sigmas = np.zeros(ids.size)
            threshold = np.inf
            nn = _nearest(index, positions, radii, config.far_cap, config.workers)
    else:
        with stage("curvature", patch):
            ids, positions = coarse_queries(spec)
            # One prefilter serves both the curvature candidates (nn <= r0)
            # and the coarse rows of evaluate (radius <= r0 * s_max).
            coarse_nn = _nearest(index, positions, config.r0 * max(config.s_max, 1.0),
                                 config.far_cap, config.workers)
            cf = curvature_field(norm_cloud, index, positions, config.r0,
                                 query_ids=ids, workers=config.workers, nn=coarse_nn)
            sched = RadiusSchedule.from_field(
                cf, s_max=config.s_max, s_min=config.s_min,
                alpha=config.alpha, beta=config.beta, r0=config.r0)
        with stage("refine", patch):
            hot = select_hot(cf, cf.percentile_value(config.refine_threshold))
            new_ids, parents = refine_with_parents(grid, hot)
        with stage("evaluate", patch):
            # hot parents always have entries, so only coarse rows can miss
            sigmas, has_sigma = _sigma_lookup(cf, np.concatenate([ids, parents]))
            radii = schedule_radius(sched, sigmas)
            # Queries whose initial region was empty carry no curvature
            # evidence; extracting wider than r0 there can only reach
            # geometry the curvature stage never saw (and can straddle
            # close layers), so they keep the nominal radius.
            radii[~has_sigma] = np.minimum(radii[~has_sigma], config.r0)
            new_pos = spec.position_of_id(new_ids)
            nn = np.concatenate([coarse_nn, _nearest(
                index, new_pos, radii[ids.size:], config.far_cap, config.workers)])
            ids = np.concatenate([ids, new_ids])
            positions = np.vstack([positions, new_pos])
            threshold = cf.percentile_value(config.resample_threshold)

    policy = ResamplePolicy(target_count=config.target_count,
                            curvature_threshold=threshold, rng_seed=config.seed)
    with stage("evaluate"):
        values = _evaluate_queries(index, positions, radii, sigmas, ids, policy,
                                   estimator, config.far_cap, nn, patch, udf, config.workers)
        grid.set_values(ids, values)
    with stage("fill", udf):
        hierarchical_fill(grid)
        dense = grid.dense_values()

    if config.dump_field:
        with stage("dump"):
            save_field(dense, spec, config.dump_field)

    with stage("extract"):
        iso = IsoSpec(config.iso_eps) if config.iso_eps is not None else IsoSpec.half_cell(spec)
        norm_mesh = marching_cubes(dense, spec, iso)
    with stage("denormalize"):
        mesh = denormalize_mesh(norm_mesh, transform)
    if config.output_path:
        with stage("write"):
            io.write_mesh(mesh, config.output_path)

    timing = TimingReport(
        patch_time=sum(patch), udf_time=sum(udf),
        evaluated_queries=grid.evaluated_count, filled_queries=grid.filled_count,
        total_fine_vertices=spec.total_fine_vertices)
    return PipelineResult(mesh=mesh, norm_mesh=norm_mesh, timing=timing,
                          transform=transform, spec=spec, curvature=cf)


def reconstruct(config: PipelineConfig, cloud: PointCloud | None = None):
    """Run the full pipeline; returns (mesh in input coordinates, timing)."""
    result = run_pipeline(config, cloud)
    return result.mesh, result.timing


@dataclass
class BenchResult:
    adaptive_timing: TimingReport
    baseline_timing: TimingReport
    adaptive_metrics: MetricReport
    baseline_metrics: MetricReport
    query_ratio: float

    def lines(self):
        out = []
        for tag, timing, report in (("adaptive", self.adaptive_timing, self.adaptive_metrics),
                                    ("baseline", self.baseline_timing, self.baseline_metrics)):
            out += [f"{tag}.{line}" for line in timing.lines()]
            out += [f"{tag}.{line}" for line in report.lines()]
        out.append(f"query_ratio={self.query_ratio:.6f}")
        return out


def bench(config: PipelineConfig, cloud: PointCloud | None = None,
          reference: PointCloud | None = None) -> BenchResult:
    """Adaptive vs uniform-fine baseline on identical input.

    Metrics are computed in normalized coordinates (where the distance
    thresholds are meaningful fractions of object extent) against the
    reference cloud, which defaults to the input cloud itself.
    """
    cloud = _load_cloud(config, cloud)
    adaptive = run_pipeline(replace(config, baseline_mode=False), cloud)
    baseline = run_pipeline(replace(config, baseline_mode=True), cloud)

    ref = reference if reference is not None else cloud
    with stage("metrics"):
        ref_norm = PointCloud(adaptive.transform.apply(ref.points), ref.normals)
        reports = []
        for result in (adaptive, baseline):
            samples = sample_mesh(result.norm_mesh, config.sample_count, config.seed)
            reports.append(evaluate(samples, ref_norm, config.sample_count,
                                    config.seed, workers=config.workers))
    ratio = adaptive.timing.evaluated_queries / baseline.timing.evaluated_queries
    return BenchResult(adaptive_timing=adaptive.timing, baseline_timing=baseline.timing,
                       adaptive_metrics=reports[0], baseline_metrics=reports[1],
                       query_ratio=ratio)


def curvature_summary(config: PipelineConfig, cloud: PointCloud | None = None):
    """Curvature field over the coarse lattice, for the text dump."""
    norm_cloud, _, index, spec = _prepare(config, cloud)
    ids, positions = coarse_queries(spec)
    with stage("curvature"):
        cf = curvature_field(norm_cloud, index, positions, config.r0,
                             query_ids=ids, workers=config.workers)
    return cf, spec

