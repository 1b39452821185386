"""End-to-end reconstruction: cloud -> adaptive UDF lattice -> mesh.

Stages: read, normalize, index, curvature field over the coarse lattice,
percentile-driven radius schedule, hot-region refinement, CSR patches
weighted to target_count, UDF estimation with far-field capping,
hierarchical fill, offset-level marching cubes, denormalize. Each stage
adds its wall time to the run's TimingReport, and the index its nn and
ball query time.

baseline_mode changes only the query set: every fine vertex that can
reach the mesh, at the fixed radius r0, without curvature (the
uniform-grid setup the adaptive strategy is measured against). Both
modes run the same evaluate, fill and extract.
"""

import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import io, spatial
from .curvature import CurvatureField, check_threshold, curvature_field
from .errors import EmptyMesh, FarOutlier, NoCurvatureSamples, ReconstructionError
from .estimator import make_estimator
from .extract import IsoSpec, marching_cubes
from .grid import (AdaptiveGrid, LatticeSpec, MARGIN_CELLS_DEFAULT, far_field,
                   hierarchical_fill, refine_with_parents, save_field, select_hot)
from .metrics import MetricReport, evaluate, sample_mesh
from .model import PointCloud, TriangleMesh, denormalize_mesh, normalize_cloud
from .patch import Patches, ResamplePolicy, csr_subset, pad_weights, resample
from .schedule import (ALPHA_DEFAULT, BETA_DEFAULT, R0_DEFAULT, S_MAX_DEFAULT,
                       S_MIN_DEFAULT, RadiusSchedule, radius as schedule_radius)
from .spatial import build_index

# Queries farther than this from every point read this UDF value.
FAR_CAP_DEFAULT = 0.10
# Rows per curvature and evaluate chunk. Results never depend on it: a
# row's entry and value depend on that row alone. The chunk bounds the per-row
# temporaries (positions, nn, radii, sigmas, the boundary test) and the ball
# blocks, which restart at spatial.FIRST_BLOCK centers each chunk.
# File-to-file runs (seed 0, 2-core x86-64) peaked at 101.8-102.0 MB on
# sphere-c64 and 110.3-110.9 MB on dense-sheets-c64 at 2**15, set in
# extract and in the read; evaluate ended at 91.6-91.8 MB on the sphere,
# at 86.8-87.0 at 2**13 and 99.4-99.7 at 2**17. All rows at once took
# 102.3-104.0 and 116.1 MB. Wall time did not differ beyond noise.
EVAL_CHUNK = 1 << 15


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

    def __post_init__(self):  # a bad setting fails before any file is read
        spec = LatticeSpec(coarse_cells=self.coarse_cells, margin_cells=self.margin_cells)
        RadiusSchedule(0.0, 0.0, 0.0, 0.0, s_max=self.s_max, s_min=self.s_min,
                       alpha=self.alpha, beta=self.beta, r0=self.r0)
        check_threshold(self.refine_threshold)
        check_threshold(self.resample_threshold)
        make_estimator(self.estimator)
        if not self.far_cap > 0:
            raise ValueError("far_cap must be positive")
        ResamplePolicy(target_count=self.target_count, rng_seed=self.seed)
        level, far = self.iso(spec).eps, float(far_field(2, self.far_cap).min())
        if not level < far:  # the far field outside the band would cross it
            raise ValueError(f"offset level {level!r} must lie below far_cap's far field, "
                             f"{far!r} for far_cap {self.far_cap!r}")
        if not level < spec.margin:  # else the shell is cut open at the lattice boundary
            raise ValueError(f"offset level {level!r} must lie below the lattice margin, "
                             f"{spec.margin!r} for margin_cells {self.margin_cells}")
        if not self.sample_count > 0:
            raise ValueError("sample_count must be positive")
        if not (self.workers == -1 or self.workers >= 1):
            raise ValueError(f"workers must be -1 (every CPU) or at least 1, not {self.workers}")
        for name in ("output_path", "dump_field"):
            folder = os.path.dirname(getattr(self, name) or "")
            if folder and not os.path.isdir(folder):
                raise ValueError(f"{name} directory {folder!r} does not exist")

    def iso(self, spec):
        """The offset level: iso_eps, or else half a fine cell edge."""
        return IsoSpec(self.iso_eps) if self.iso_eps is not None else IsoSpec.half_cell(spec)


@dataclass
class TimingReport:
    """stage_s holds each stage's wall time in run order; stages never nest,
    so they sum to nearly the run's. nn_s and ball_s are the index's query
    times, within them. evaluated_queries counts the lattice sites
    evaluated, not kd-tree queries: sites outside the band read far_cap
    without one.
    nn_queries counts the rows the run's index gave the nearest-point
    query, and near_queries those of them sent on to the ball query.
    ball_pairs counts the (center, point) pairs the index's ball queries
    kept, over ball_blocks calls. peak_rss_mb is the process's peak
    resident memory so far, and stage_peak_mb that peak at each stage's
    end, in run order."""

    stage_s: dict
    stage_peak_mb: dict
    nn_s: float
    ball_s: float
    evaluated_queries: int
    filled_queries: int
    total_fine_vertices: int
    nn_queries: int
    near_queries: int
    ball_pairs: int
    ball_blocks: int
    peak_rss_mb: float

    def lines(self):
        return [f"{name}_s={t:.3f}" for name, t in self.stage_s.items()] + [
                f"nn_s={self.nn_s:.3f}",
                f"ball_s={self.ball_s:.3f}",
                f"evaluated_queries={self.evaluated_queries}",
                f"filled_queries={self.filled_queries}",
                f"total_fine_vertices={self.total_fine_vertices}",
                f"nn_queries={self.nn_queries}",
                f"near_queries={self.near_queries}",
                f"ball_pairs={self.ball_pairs}",
                f"ball_blocks={self.ball_blocks}",
                f"peak_rss_mb={self.peak_rss_mb:.1f}"] + [
                f"{name}_peak_mb={mb:.1f}" for name, mb in self.stage_peak_mb.items()]


@dataclass
class PipelineResult:
    mesh: TriangleMesh            # in input coordinates
    norm_mesh: TriangleMesh       # in normalized coordinates
    timing: TimingReport
    transform: object
    spec: LatticeSpec
    curvature: CurvatureField | None = None


@dataclass
class StageLog:
    """Per stage, in the order stages first run: s, its wall time summed
    over its runs, and peak_mb, the process's peak RSS at its last end.

    The kernel's RSS counters are approximate (per-CPU batches of pages),
    so a VmHWM reading can fall a fraction of a MB below an earlier one;
    each peak is the largest reading so far."""

    s: dict = field(default_factory=dict)
    peak_mb: dict = field(default_factory=dict)

    def peak_so_far(self):
        return max([_peak_rss_mb(), *self.peak_mb.values()])


@contextmanager
def stage(name, times=None):
    """Tag a ReconstructionError raised inside with the stage name and, when
    a StageLog is given, add the elapsed wall time to times.s[name] and
    record the peak RSS so far in times.peak_mb[name]."""
    t0 = time.perf_counter()
    try:
        yield
    except ReconstructionError as exc:
        if not hasattr(exc, "stage"):
            exc.stage = name
        raise
    finally:
        if times is not None:
            times.s[name] = times.s.get(name, 0.0) + time.perf_counter() - t0
            times.peak_mb[name] = times.peak_so_far()


def _peak_rss_mb():
    """This process's peak resident set in MB: VmHWM from /proc/self/status,
    else ru_maxrss, which on Linux can hold a parent's peak from before exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    import resource
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS, else kB
    return peak / 1e6 if sys.platform == "darwin" else peak * 1024 / 1e6


def _load_cloud(config, cloud, times=None):
    if cloud is not None:
        return cloud
    if config.input_path is None:
        raise ValueError("config.input_path is required when no cloud is passed")
    with stage("read", times):
        return io.read_point_cloud(config.input_path)


def _prepare(config, cloud, times=None):
    """The run prefix every command shares: read, normalize, index, lattice.
    No stage reads the input's normals, so the normalized cloud has none,
    and a cloud read from a file is gone before the index is built."""
    cloud = _load_cloud(config, cloud, times)
    spec = LatticeSpec(coarse_cells=config.coarse_cells, margin_cells=config.margin_cells)
    with stage("normalize", times):
        norm_cloud, transform = normalize_cloud(PointCloud(cloud.points))
        _check_spread(cloud, norm_cloud, spec)
    del cloud
    with stage("index", times):
        index = build_index(norm_cloud)
    return norm_cloud, transform, index, spec


def _check_spread(cloud, norm_cloud, spec):
    """FarOutlier when the normalized points' 1st-99th percentile extent is
    under one coarse cell on every axis: normalization fits the bounding
    box, so a few far points squash the rest below what the lattice
    resolves, and the mesh would come out a silent fragment."""
    h, extent = spec.coarse_spacing, []
    for column in norm_cloud.points.T:  # an axis at a time: one column's copy at most
        low, high = np.percentile(column, [1, 99])
        if high - low >= h:
            return
        extent.append(high - low)
    offset = cloud.points - np.median(cloud.points, axis=0)
    unit = np.abs(offset).max()  # so that no square overflows near float64's limit
    farthest = unit * np.linalg.norm(offset / unit, axis=1).max()
    raise FarOutlier(
        f"the normalized cloud's 1st-99th percentile extent is "
        f"({', '.join(f'{e:.3g}' for e in extent)}), under the coarse spacing {h:.3g} "
        f"on every axis: its farthest point lies {farthest:.6g} from the median point")


def _sigma_lookup(cf: CurvatureField, query_ids):
    """(sigma, found) per query id; queries without an entry get 0."""
    ids = np.asarray(query_ids, dtype=np.int64)
    pos = np.searchsorted(cf.ids, ids)
    pos = np.minimum(pos, cf.ids.size - 1)
    hit = cf.ids[pos] == ids
    return np.where(hit, cf.sigma[pos], 0.0), hit


def _evaluate_queries(index, positions, radii, sigmas, query_ids,
                      policy, estimator, far_cap, nn):
    """(UDF value per query, rows sent to the ball query): patch pipeline
    inside the radius, capped nearest distance outside."""
    radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), nn.shape)
    values = np.minimum(nn, far_cap)  # near rows are overwritten below
    near_rows = np.flatnonzero(nn <= radii)
    for start, stop, flat, offsets in spatial.ball_blocks(index, positions[near_rows],
                                                          radii[near_rows]):
        rows = near_rows[start:stop]
        # sqrt(d2) <= r and the ball's d2 <= r*r can round apart at d == r;
        # a query whose ball came back empty keeps its far value.
        hit = np.diff(offsets) > 0
        rows, offsets = rows[hit], offsets[np.r_[True, hit]]
        weights, copies = pad_weights(offsets, sigmas[rows], policy)
        big = np.flatnonzero(np.diff(offsets) > policy.target_count)
        if big.size:  # one subsample over the block's oversized patches
            entries, big_offsets = csr_subset(offsets, big)
            weights[entries[resample(flat[entries], big_offsets, policy,
                                     query_ids[rows[big]])]] = 1
        keep = weights > 0
        kept = np.concatenate([[0], np.cumsum(keep)])[offsets]
        patches = Patches(index.points[flat[keep]], kept, weights[keep], copies)
        values[rows] = estimator.estimate_batch(positions[rows], patches)
    return values, near_rows.size


def _band_sites(spec, points, stride, near_bound):
    """Ascending flat ids of the stride-`stride` lattice sites (2: coarse,
    1: fine) within one step (Chebyshev) of a site that can lie within
    near_bound of a point. Such a site is within near_bound / step + 1/2
    steps, per axis, of the point's nearest site clipped into the lattice
    (clipping moves it toward every site), so dilating those marks by
    floor(near_bound / step + 1/2) + 1 steps, plus slack for rounding,
    covers it and its ring.

    The mesh cannot tell that sites outside read far_cap: with near_bound
    at least every radius and the offset level, a cell with a corner
    within near_bound has all its corners in the band. So a cell with an
    out-of-band corner has no corner within near_bound, no hot corner and
    no refined site; its corners read at least min(near_bound, far_cap),
    as do the sites filled from them, and no inside flag or crossed edge
    changes. Only field values outside the band do (--dump-field).
    """
    m = (spec.fine_n - 1) // stride + 1
    step = stride * spec.fine_spacing
    band = np.zeros((m, m, m), dtype=bool)
    for start in range(0, len(points), EVAL_CHUNK):  # a chunk's temporaries at a time
        site = np.clip(np.rint((points[start:start + EVAL_CHUNK] - spec.domain_min) / step),
                       0, m - 1).astype(np.intp)
        band[site[:, 0], site[:, 1], site[:, 2]] = True
    for _ in range(int(min(near_bound / step + 0.5 + 1e-9, m)) + 1):
        for axis in range(3):  # a cube dilation is an interval dilation per axis
            view = np.moveaxis(band, axis, 0)
            view[1:] |= view[:-1]
            view[:-1] |= view[1:]
    return spec.flat_id(stride * np.argwhere(band))


def _rows(config, index, spec, ids, nn=None):
    """(rows, positions, nn) per EVAL_CHUNK rows of ids, the nearest distances
    taken from nn or else queried; each chunk's arrays exist while it runs."""
    for start in range(0, ids.size, EVAL_CHUNK):
        rows = slice(start, start + EVAL_CHUNK)
        positions = spec.position_of_id(ids[rows])
        yield rows, positions, (nn[rows] if nn is not None else
                                index.nearest_distance_many(positions, workers=config.workers))


def _coarse_band(config, index, spec):
    """The coarse band at the run's bound: it serves the curvature candidates
    (nn <= r0) and the coarse rows of evaluate (radius <= r0 * s_max)."""
    return _band_sites(spec, index.points, 2, max(config.r0 * config.s_max, config.iso(spec).eps))


def _curvature(config, norm_cloud, index, spec, ids):
    """(nn, field) over the band sites ids, a chunk of rows at a time. Only
    sites with nn <= r0, which any band at r0 or more holds, carry entries."""
    nn, fields = np.empty(ids.size), []
    for rows, positions, row_nn in _rows(config, index, spec, ids):
        nn[rows] = row_nn
        fields.append(curvature_field(norm_cloud, index, positions, config.r0, ids[rows], row_nn))
    cf = CurvatureField(ids=np.concatenate([f.ids for f in fields]),
                        sigma=np.concatenate([f.sigma for f in fields]))
    if not len(cf):
        h = spec.coarse_spacing  # every point is within half a cell diagonal of a site
        raise NoCurvatureSamples(f"no query position has 3 or more points within "
                                 f"r0={config.r0:g}; the coarse spacing is {h:g}, and r0 >= "
                                 f"{h * 3 ** 0.5 / 2:.4g} reaches every point")
    return nn, cf


def _near_boundary_rows(spec, ids, nn, radii):
    """Rows within their radius of a point whose site lies on a lattice face."""
    face = np.zeros(ids.size, dtype=bool)
    for index in np.unravel_index(ids, (spec.fine_n,) * 3):
        face |= (index == 0) | (index == spec.fine_n - 1)
    return np.flatnonzero(face & (nn <= radii))


def _evaluate_rows(config, index, spec, ids, keys, nn, radius_of, policy, estimator):
    """(UDF value per site of ids, rows sent to the ball query), EVAL_CHUNK
    rows at a time: each chunk's positions, radii and sigmas exist only
    while it runs. radius_of(keys) gives the rows' (radii, sigmas); nn holds
    every row's nearest distance, or is None to query it per chunk."""
    values = np.empty(ids.size)
    near_queries = 0
    for rows, positions, row_nn in _rows(config, index, spec, ids, nn):
        radii, sigmas = radius_of(keys[rows])
        # A site on the lattice's outer faces lies at least the margin from
        # every point, and reads min(nn, far_cap): a ball past the margin
        # would let the plane fit extrapolate below the level there.
        radii[_near_boundary_rows(spec, ids[rows], row_nn, radii)] = 0.0
        values[rows], near = _evaluate_queries(index, positions, radii, sigmas, ids[rows],
                                               policy, estimator, config.far_cap, row_nn)
        near_queries += near
    return values, near_queries


def _evaluated_grid(config, norm_cloud, index, spec, iso, estimator, times):
    """(grid, curvature field, near rows): the band's grid with every
    evaluated site set. The mode picks the query set; evaluate is shared.

    Each query set is a stream of (site ids, sigma keys, nn) that
    _evaluate_rows runs a chunk at a time: the coarse band sites, keyed by
    their own ids, with the nn the curvature stage took for them; then the
    refined sites, keyed by their parents, whose nn it queries itself.
    """
    cf = None
    grid = AdaptiveGrid(spec, 1 if config.baseline_mode else 2, config.far_cap)
    if config.baseline_mode:
        with stage("evaluate", times):
            # every fine vertex that can reach the mesh, at the fixed
            # radius, no curvature conditioning: always centroid-pad
            ids = _band_sites(spec, index.points, 1, max(config.r0, iso.eps))
        streams = [(ids, ids, None)]
        threshold = np.inf

        def radius_of(keys):
            return np.full(keys.size, config.r0), np.zeros(keys.size)
    else:
        with stage("curvature", times):
            ids = _coarse_band(config, index, spec)
            nn, cf = _curvature(config, norm_cloud, index, spec, ids)
            sched = RadiusSchedule.from_field(
                cf, s_max=config.s_max, s_min=config.s_min,
                alpha=config.alpha, beta=config.beta, r0=config.r0)
        with stage("refine", times):
            hot = select_hot(cf, cf.percentile_value(config.refine_threshold))
            new_ids, parents = refine_with_parents(spec, hot)
        # hot parents always have entries, so only coarse rows can miss
        streams = [(ids, ids, nn), (new_ids, parents, None)]
        threshold = cf.percentile_value(config.resample_threshold)

        def radius_of(keys):
            sigmas, has_sigma = _sigma_lookup(cf, keys)
            radii = schedule_radius(sched, sigmas)
            # Queries whose initial region was empty carry no curvature
            # evidence; extracting wider than r0 there can only reach
            # geometry the curvature stage never saw (and can straddle
            # close layers), so they keep the nominal radius.
            radii[~has_sigma] = config.r0
            return radii, sigmas

    with stage("evaluate", times):
        policy = ResamplePolicy(target_count=config.target_count,
                                curvature_threshold=threshold, rng_seed=config.seed)
        near_queries = 0
        for ids, keys, nn in streams:
            values, near = _evaluate_rows(config, index, spec, ids, keys, nn, radius_of,
                                          policy, estimator)
            grid.set_values(ids, values)
            near_queries += near
    return grid, cf, near_queries


def run_pipeline(config: PipelineConfig, cloud: PointCloud | None = None) -> PipelineResult:
    estimator = make_estimator(config.estimator)
    times = StageLog()
    norm_cloud, transform, index, spec = _prepare(config, cloud, times)
    iso = config.iso(spec)
    grid, cf, near_queries = _evaluated_grid(config, norm_cloud, index, spec, iso, estimator,
                                             times)
    with stage("fill", times):
        field = hierarchical_fill(grid)

    if config.dump_field:
        with stage("dump", times):
            save_field(grid.slabs(), spec, config.dump_field)

    with stage("extract", times):
        norm_mesh = marching_cubes(field, spec, iso)
        if not norm_mesh.num_faces:
            raise EmptyMesh(f"marching cubes crossed no cell: no site reads below the "
                            f"level {iso.eps:g} at fine spacing {spec.fine_spacing:g}")
    with stage("denormalize", times):
        mesh = denormalize_mesh(norm_mesh, transform)
    if config.output_path:
        with stage("write", times):
            io.write_mesh(mesh, config.output_path)

    timing = TimingReport(
        stage_s=times.s, stage_peak_mb=times.peak_mb, nn_s=index.nn_s, ball_s=index.ball_s,
        evaluated_queries=grid.evaluated_count, filled_queries=grid.filled_count,
        total_fine_vertices=spec.total_fine_vertices, nn_queries=index.nn_rows,
        near_queries=near_queries,
        ball_pairs=index.ball_pairs, ball_blocks=index.ball_calls,
        peak_rss_mb=times.peak_so_far())
    return PipelineResult(mesh=mesh, norm_mesh=norm_mesh, timing=timing,
                          transform=transform, spec=spec, curvature=cf)


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
        return out + [f"{name}={ratio:.6f}" for name, ratio in self.ratios().items()]

    def ratios(self):
        """Adaptive over baseline: lattice sites evaluated (query_ratio), rows
        given the nn query, ball pairs kept and wall time (stage_s summed)."""
        a, b = self.adaptive_timing, self.baseline_timing
        return {"query_ratio": self.query_ratio,
                "nn_ratio": a.nn_queries / b.nn_queries,
                "ball_pair_ratio": a.ball_pairs / b.ball_pairs,
                "wall_ratio": sum(a.stage_s.values()) / sum(b.stage_s.values())}


def bench(config: PipelineConfig, cloud: PointCloud | None = None,
          reference: PointCloud | None = None) -> BenchResult:
    """Adaptive vs uniform-fine baseline on identical input.

    Metrics are computed in normalized coordinates (where the distance
    thresholds are meaningful fractions of object extent) against the
    reference cloud, which defaults to the input cloud itself. A
    config.dump_field receives the adaptive field.
    """
    cloud = _load_cloud(config, cloud)
    adaptive = run_pipeline(replace(config, baseline_mode=False), cloud)
    baseline = run_pipeline(replace(config, baseline_mode=True, dump_field=None), cloud)

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
    """The run's curvature field over the coarse band, for the text dump."""
    norm_cloud, _, index, spec = _prepare(config, cloud)
    with stage("curvature"):
        cf = _curvature(config, norm_cloud, index, spec, _coarse_band(config, index, spec))[1]
    return cf, spec

