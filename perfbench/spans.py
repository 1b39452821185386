"""Span recorder that wraps curvrec's module entry points from outside.

Each wrapped call records one span (name, parent span, start, end) in
flat in-memory arrays, plus counters taken from the call's arguments and
result. Counting runs after the span's end is taken, so a layer's time
never includes it; its cost is charged to no layer and shows only in the
traced-minus-untraced overhead. A span's self time is its duration minus
the intervals its child spans cover (including their counting).

Nothing under src/ is changed: `traced_pipeline` patches the names that
curvrec.pipeline calls through and restores every one on exit.
"""

import os
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ROOT = "pipeline"


class Tracer:
    def __init__(self):
        self.names = []
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.covered_end = array("d")
        self.counters = defaultdict(float)
        self._stack = [-1]
        self._patched = []

    def parent_name(self):
        top = self._stack[-1]
        return self.names[top] if top >= 0 else None

    def wrap(self, name, fn, count=None):
        """fn recording a span per call; count(tracer, args, kwargs, result)
        updates counters after the span has ended."""
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1])
            for column in (self.start, self.end, self.covered_end):
                column.append(0.0)  # children append their spans while fn runs
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.start[idx] = t0
                self._stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            self.covered_end[idx] = perf_counter()
            return result
        return traced

    def replace(self, owner, attr, new):
        """Set owner.attr to new until restore()."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, owner, attr, name, count=None):
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), count))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def durations(self):
        """(names, duration, self time) per span."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        covered = np.frombuffer(self.covered_end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        child = parent >= 0
        children = np.bincount(parent[child], weights=covered[child], minlength=dur.size)
        return np.array(self.names), dur, dur - children

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names),
                            parent=np.frombuffer(self.parent, dtype=np.int64),
                            start=np.frombuffer(self.start, dtype=np.float64),
                            end=np.frombuffer(self.end, dtype=np.float64))


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_read(tr, args, kwargs, result):
    tr.counters["io.read_mb"] += os.path.getsize(_arg(args, kwargs, 0, "path")) / 1e6


def _count_write(tr, args, kwargs, result):
    tr.counters["io.write_mb"] += os.path.getsize(_arg(args, kwargs, 1, "path")) / 1e6


def _count_nn(tr, args, kwargs, result):
    n = len(_arg(args, kwargs, 1, "queries"))
    tr.counters["spatial.nn_queries"] += n
    if tr.parent_name() == ROOT:
        tr.counters["evaluate_nn"] += n


def _count_ball(tr, args, kwargs, result):
    n = len(result)
    tr.counters["spatial.ball_queries"] += n
    tr.counters["spatial.ball_points"] += sum(map(len, result))
    if tr.parent_name() == ROOT:
        tr.counters["evaluate_ball"] += n


def _count_curvature(tr, args, kwargs, result):
    tr.counters["curvature.queries"] += len(_arg(args, kwargs, 2, "query_positions"))
    tr.counters["curvature.sigma_entries"] += len(result)


def _count_refine(tr, args, kwargs, result):
    tr.counters["hot"] += len(_arg(args, kwargs, 1, "hot_ids"))
    tr.counters["grid.refined_sites"] += len(result[0])


def _count_resample(tr, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "points"))
    policy = _arg(args, kwargs, 2, "policy")
    c = tr.counters
    c["patch.resample_calls"] += 1
    c["patch.points_in"] += n
    if n > policy.target_count:
        c["patch.subsample_calls"] += 1
    elif 0 < n < policy.target_count:
        if _arg(args, kwargs, 1, "sigma") < policy.curvature_threshold:
            c["patch.centroid_calls"] += 1
        else:
            c["patch.duplicate_calls"] += 1


def _count_estimate(tr, args, kwargs, result):
    tr.counters["estimator.queries"] += len(_arg(args, kwargs, 0, "queries"))


def _count_fill(tr, args, kwargs, result):
    grid = _arg(args, kwargs, 0, "grid")
    tr.counters["grid.filled_sites"] += grid.filled_count
    tr.counters["evaluated_sites"] += grid.evaluated_count
    tr.counters["lattice_sites"] += grid.spec.total_fine_vertices


def _count_extract(tr, args, kwargs, result):
    tr.counters["extract.sites"] += np.asarray(_arg(args, kwargs, 0, "field")).size
    tr.counters["extract.faces"] += result.num_faces


@contextmanager
def traced_pipeline(tracer):
    """Wrap every entry point curvrec.pipeline calls; restore on exit."""
    from curvrec import io, pipeline, spatial

    make_estimator = pipeline.make_estimator

    def traced_make_estimator(*args, **kwargs):
        est = make_estimator(*args, **kwargs)
        est.estimate_batch = tracer.wrap("estimator", est.estimate_batch, _count_estimate)
        return est

    try:
        tracer.patch(io, "read_point_cloud", "io.read", _count_read)
        tracer.patch(io, "write_mesh", "io.write", _count_write)
        tracer.patch(pipeline, "normalize_cloud", "model.normalize")
        tracer.patch(pipeline, "build_index", "spatial.build")
        tracer.patch(spatial.SpatialIndex, "nearest_distance_many", "spatial.nn", _count_nn)
        tracer.patch(spatial.SpatialIndex, "radius_query_many", "spatial.ball", _count_ball)
        tracer.patch(pipeline, "curvature_field", "curvature", _count_curvature)
        tracer.patch(pipeline, "schedule_radius", "schedule.radius")
        tracer.patch(pipeline, "refine_with_parents", "grid.refine", _count_refine)
        tracer.patch(pipeline, "resample", "patch.resample", _count_resample)
        tracer.patch(pipeline, "hierarchical_fill", "grid.fill", _count_fill)
        tracer.patch(pipeline, "marching_cubes", "extract", _count_extract)
        tracer.replace(pipeline, "make_estimator", traced_make_estimator)
        yield tracer
    finally:
        tracer.restore()


# per-layer metric -> (span name, "total" or "self") for time metrics
_TIMES = {
    "spatial.nn_s": ("spatial.nn", "total"),
    "spatial.ball_s": ("spatial.ball", "total"),
    "spatial.build_s": ("spatial.build", "total"),
    "patch.resample_s": ("patch.resample", "total"),
    "estimator.s": ("estimator", "total"),
    "grid.fill_s": ("grid.fill", "total"),
    "grid.refine_s": ("grid.refine", "total"),
    "extract.s": ("extract", "total"),
    "io.read_s": ("io.read", "total"),
    "io.write_s": ("io.write", "total"),
    "schedule.radius_s": ("schedule.radius", "total"),
    "model.normalize_s": ("model.normalize", "total"),
    "curvature.self_s": ("curvature", "self"),
    "pipeline.self_s": (ROOT, "self"),
}

_COUNTS = ("spatial.nn_queries", "spatial.ball_queries", "spatial.ball_points",
           "patch.resample_calls", "patch.points_in", "patch.subsample_calls",
           "patch.centroid_calls", "patch.duplicate_calls", "estimator.queries",
           "grid.filled_sites", "grid.refined_sites", "extract.sites", "extract.faces",
           "io.read_mb", "io.write_mb", "curvature.queries", "curvature.sigma_entries")


def layer_metrics(tracer):
    """Per-layer metric values (times in s, the rest counts or fractions)."""
    names, dur, self_time = tracer.durations()
    out = {}
    for metric, (span, kind) in _TIMES.items():
        pick = names == span
        out[metric] = float((dur if kind == "total" else self_time)[pick].sum())
    c = tracer.counters
    for metric in _COUNTS:
        out[metric] = c[metric] if metric.endswith("_mb") else int(c[metric])
    out["spatial.nn_useful_fraction"] = c["spatial.ball_queries"] / c["spatial.nn_queries"]
    out["pipeline.far_queries"] = int(c["evaluate_nn"] - c["evaluate_ball"])
    out["curvature.hot_fraction"] = c["hot"] / c["curvature.sigma_entries"]
    out["grid.evaluated_fraction"] = c["evaluated_sites"] / c["lattice_sites"]
    return out
