"""Curvature-adaptive unsigned-distance-field surface reconstruction.

The exports below load on first use (PEP 562), so that importing one
module, say curvrec.io, loads only what that module imports: the I/O and
fixture modules need numpy alone, the index and pipeline scipy as well.
"""

import importlib

_MODULES = {
    "curvature": ("CurvatureField", "curvature_field", "percentile"),
    "estimator": ("NearestPointEstimator", "PlaneFitEstimator", "make_estimator"),
    "extract": ("IsoSpec", "marching_cubes"),
    "grid": ("AdaptiveGrid", "LatticeSpec", "hierarchical_fill", "refine_with_parents",
             "select_hot"),
    "io": ("read_mesh", "read_point_cloud", "write_mesh", "write_point_cloud"),
    "metrics": ("MetricReport", "evaluate", "sample_mesh"),
    "model": ("NormalizationTransform", "PointCloud", "TriangleMesh", "denormalize_mesh",
              "normalize_cloud"),
    "patch": ("Patches", "ResamplePolicy", "pad_weights", "resample", "segmented_moments"),
    "pipeline": ("BenchResult", "PipelineConfig", "PipelineResult", "TimingReport", "bench",
                 "run_pipeline"),
    "schedule": ("RadiusSchedule", "radius", "scale_factor"),
    "spatial": ("SpatialIndex", "build_index"),
}
# exported name -> the module that defines it
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
