import json
import os
import subprocess
import sys
from pathlib import Path

import curvrec

# What `from curvrec import *` gave before the exports loaded lazily
_EXPORTED = """
AdaptiveGrid BenchResult CurvatureField IsoSpec LatticeSpec MetricReport NearestPointEstimator
NormalizationTransform Patches PipelineConfig PipelineResult PlaneFitEstimator PointCloud
RadiusSchedule ResamplePolicy SpatialIndex TimingReport TriangleMesh bench build_index
curvature_field denormalize_mesh evaluate hierarchical_fill make_estimator
marching_cubes normalize_cloud pad_weights percentile radius read_mesh read_point_cloud
refine_with_parents resample run_pipeline sample_mesh save_field scale_factor
segmented_moments select_hot write_mesh write_point_cloud
""".split()


def test_io_fixtures_and_model_load_without_scipy():
    # the package's exports load lazily, so these modules bring numpy alone
    code = ("import json, sys; import curvrec.io, curvrec.fixtures, curvrec.model; "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    src = str(Path(curvrec.__file__).resolve().parent.parent)  # this curvrec, not another
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert json.loads(out) == []


def test_every_export_resolves_and_star_gives_the_same_names():
    names = {}
    exec("from curvrec import *", names)
    assert sorted(n for n in names if n != "__builtins__") == sorted(_EXPORTED)
    for name in _EXPORTED:
        value = getattr(curvrec, name)
        assert value is names[name]
        assert value.__module__.startswith("curvrec.")
    assert curvrec.__version__ == "0.1.0"


def test_unknown_attribute_is_an_attribute_error():
    assert not hasattr(curvrec, "no_such_name")
