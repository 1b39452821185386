"""Per-patch unsigned distance estimation.

An estimator's estimate_batch(queries, patches) takes stacked (m, 3)
queries and their m weighted CSR patches (patch.Patches) and returns a
nonnegative distance per query; make_estimator picks one by name. Two
analytic estimators are provided: nearest patch point, and
point-to-fitted-plane clamped by the nearest-point value.
"""

import numpy as np

from .patch import segmented_moments, symmetric_eigen

# Plane fitting needs a genuinely 2D neighborhood; below this ratio of the
# covariance trace the two smallest eigenvalues are treated as collapsed.
_PLANE_DEGENERACY = 1e-12


class NearestPointEstimator:
    """Minimum Euclidean distance from the query to its patch points."""

    def estimate_batch(self, queries, patches):
        mean = segmented_moments(patches.points, patches.offsets, patches.weights)[1]
        return _nearest(np.asarray(queries, dtype=np.float64), patches, mean)


class PlaneFitEstimator:
    """Distance to the best-fit patch plane, clamped by the nearest point.

    The plane passes through the patch centroid with the smallest
    covariance eigenvector as normal. Collinear or coincident patches
    (no unique plane) fall back to the nearest-point value.
    """

    def estimate_batch(self, queries, patches):
        queries = np.asarray(queries, dtype=np.float64)
        total, mean, scatter = segmented_moments(patches.points, patches.offsets, patches.weights)
        nearest = _nearest(queries, patches, mean)
        # covariance over the padded cardinality: centroid copies add no scatter
        cardinality = total + patches.centroid_copies
        w, normal = symmetric_eigen(scatter / cardinality)
        plane = np.abs(((queries - mean) * normal).sum(axis=1))
        traces = w.sum(axis=1)
        degenerate = (traces < _PLANE_DEGENERACY) | (w[:, 1] < _PLANE_DEGENERACY * traces)
        return np.where(degenerate, nearest, np.minimum(plane, nearest))


def _nearest(queries, patches, mean):
    """Distance to the closest entry, or to the centroid where the patch holds copies."""
    d = patches.points - np.repeat(queries, np.diff(patches.offsets), axis=0)
    d2 = np.minimum.reduceat((d * d).sum(axis=1), patches.offsets[:-1])
    c = mean - queries
    return np.sqrt(np.where(patches.centroid_copies > 0, np.minimum(d2, (c * c).sum(axis=1)), d2))


def make_estimator(name):
    if name == "nearest":
        return NearestPointEstimator()
    if name == "plane":
        return PlaneFitEstimator()
    raise ValueError(f"unknown estimator {name!r} (expected 'nearest' or 'plane')")
