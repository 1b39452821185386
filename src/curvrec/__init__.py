"""Curvature-adaptive unsigned-distance-field surface reconstruction."""

from .curvature import (CurvatureField, SymmetricEigen3, covariance3, curvature_field,
                        eigen_sym3, percentile, surface_variation)
from .estimator import (NearestPointEstimator, PlaneFitEstimator, UdfEstimator,
                        estimate_far, estimate_nearest_point, estimate_plane_fit,
                        make_estimator)
from .extract import IsoSpec, marching_cubes
from .grid import (AdaptiveGrid, FineClass, LatticeSpec, SiteStatus, classify_fine,
                   coarse_queries, hierarchical_fill, load_field, refine, save_field,
                   select_hot)
from .io import (CloudFileFormat, read_mesh, read_point_cloud, write_mesh,
                 write_point_cloud)
from .metrics import (MetricReport, chamfer, evaluate, f1_score, normal_consistency,
                      sample_mesh)
from .model import (NormalizationTransform, PointCloud, TriangleMesh, denormalize_mesh,
                    normalize_cloud)
from .patch import Patch, ResamplePolicy, build_patch, extract_patch, pad_block, resample
from .pipeline import (BenchResult, PipelineConfig, PipelineResult, TimingReport,
                       bench, reconstruct, run_pipeline)
from .schedule import RadiusSchedule, radius, scale_factor
from .spatial import SpatialIndex, build_index, nearest_distance, radius_query

__version__ = "0.1.0"
