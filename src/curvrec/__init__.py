"""Curvature-adaptive unsigned-distance-field surface reconstruction."""

from .curvature import CurvatureField, curvature_field, percentile
from .estimator import (NearestPointEstimator, PlaneFitEstimator, UdfEstimator,
                        make_estimator)
from .extract import IsoSpec, marching_cubes
from .grid import (AdaptiveGrid, LatticeSpec, SiteStatus, coarse_queries,
                   hierarchical_fill, load_field, refine_with_parents, save_field,
                   select_hot)
from .io import (CloudFileFormat, read_mesh, read_point_cloud, write_mesh,
                 write_point_cloud)
from .metrics import (MetricReport, chamfer, evaluate, f1_score, normal_consistency,
                      sample_mesh)
from .model import (NormalizationTransform, PointCloud, TriangleMesh, denormalize_mesh,
                    normalize_cloud)
from .patch import ResamplePolicy, pad_block, resample
from .pipeline import (BenchResult, PipelineConfig, PipelineResult, TimingReport,
                       bench, reconstruct, run_pipeline)
from .schedule import RadiusSchedule, radius, scale_factor
from .spatial import SpatialIndex, build_index

__version__ = "0.1.0"
