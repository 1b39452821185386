"""Per-patch unsigned distance estimation.

Estimators consume stacked queries and fixed-size patches and return a
nonnegative distance per query, so a learned model can be swapped in
behind the same interface. Two analytic estimators are provided: nearest
patch point, and point-to-fitted-plane clamped by the nearest-point value.
"""

import numpy as np

# Plane fitting needs a genuinely 2D neighborhood; below this ratio of the
# covariance trace the two smallest eigenvalues are treated as collapsed.
_PLANE_DEGENERACY = 1e-12


class UdfEstimator:
    """Deterministic distance per (query, patch) row."""

    name = "abstract"

    def estimate_batch(self, queries, patches):
        """Estimates for stacked (n,3) queries and (n,k,3) patches."""
        raise NotImplementedError


class NearestPointEstimator(UdfEstimator):
    """Minimum Euclidean distance from the query to its patch points."""

    name = "nearest"

    def estimate_batch(self, queries, patches):
        return _batch_nearest(np.asarray(queries, dtype=np.float64),
                              np.asarray(patches, dtype=np.float64))


class PlaneFitEstimator(UdfEstimator):
    """Distance to the best-fit patch plane, clamped by the nearest point.

    The plane passes through the patch centroid with the smallest
    covariance eigenvector as normal. Collinear or coincident patches
    (no unique plane) fall back to the nearest-point value.
    """

    name = "plane"

    def estimate_batch(self, queries, patches):
        queries = np.asarray(queries, dtype=np.float64)
        patches = np.asarray(patches, dtype=np.float64)
        nearest = _batch_nearest(queries, patches)
        if patches.shape[1] < 3:
            return nearest
        centroids = patches.mean(axis=1)
        centered = patches - centroids[:, None, :]
        cov = np.einsum("nki,nkj->nij", centered, centered) / patches.shape[1]
        w, v = np.linalg.eigh(cov)
        plane = np.abs(np.einsum("ni,ni->n", queries - centroids, v[:, :, 0]))
        traces = w.sum(axis=1)
        degenerate = (traces < _PLANE_DEGENERACY) | (w[:, 1] < _PLANE_DEGENERACY * traces)
        return np.where(degenerate, nearest, np.minimum(plane, nearest))


def _batch_nearest(queries, patches):
    d = patches - queries[:, None, :]
    return np.sqrt((d * d).sum(axis=2).min(axis=1))


def make_estimator(name) -> UdfEstimator:
    if name == "nearest":
        return NearestPointEstimator()
    if name == "plane":
        return PlaneFitEstimator()
    raise ValueError(f"unknown estimator {name!r} (expected 'nearest' or 'plane')")
