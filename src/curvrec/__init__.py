"""Curvature-adaptive unsigned-distance-field surface reconstruction."""

from .curvature import CurvatureField, curvature_field, percentile
from .estimator import NearestPointEstimator, PlaneFitEstimator, make_estimator
from .extract import IsoSpec, marching_cubes
from .grid import (AdaptiveGrid, LatticeSpec, hierarchical_fill, load_field,
                   refine_with_parents, save_field, select_hot)
from .io import read_mesh, read_point_cloud, write_mesh, write_point_cloud
from .metrics import MetricReport, evaluate, sample_mesh
from .model import (NormalizationTransform, PointCloud, TriangleMesh, denormalize_mesh,
                    normalize_cloud)
from .patch import Patches, ResamplePolicy, pad_weights, resample, segmented_moments
from .pipeline import (BenchResult, PipelineConfig, PipelineResult, TimingReport,
                       bench, reconstruct, run_pipeline)
from .schedule import RadiusSchedule, radius, scale_factor
from .spatial import SpatialIndex, build_index

__version__ = "0.1.0"
