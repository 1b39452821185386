"""Scalar reference implementations the batched pipeline code is checked against.

Each function handles one point set (or one query and its patch) with
plain numpy, in the most direct form of the formula.
"""

import numpy as np

from curvrec.curvature import DEGENERATE_TRACE
from curvrec.errors import EmptyInput
from curvrec.estimator import _PLANE_DEGENERACY


def covariance3(points):
    """Population covariance (1/m) * sum (p - mean)(p - mean)^T."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise EmptyInput("covariance of zero points")
    centered = pts - pts.mean(axis=0)
    return centered.T @ centered / pts.shape[0]


def _variation_from_eigenvalues(w):
    # Round-off can push tiny eigenvalues below zero; clamp before the ratio.
    w = np.maximum(w, 0.0)
    total = w.sum()
    if total < DEGENERATE_TRACE:
        return 0.0
    return float(w[0] / total)


def surface_variation(points) -> float:
    """Variation ratio l0/(l0+l1+l2) of the covariance; in [0, 1/3]."""
    w = np.linalg.eigvalsh(covariance3(points))
    return _variation_from_eigenvalues(w)


def estimate_nearest_point(q, patch) -> float:
    """Minimum Euclidean distance from the query to the patch points."""
    pts = np.asarray(patch, dtype=np.float64).reshape(-1, 3)
    d = pts - np.asarray(q, dtype=np.float64)
    return float(np.sqrt((d * d).sum(axis=1).min()))


def estimate_plane_fit(q, patch) -> float:
    """Distance to the best-fit patch plane, clamped by the nearest point.

    The plane passes through the patch centroid with the smallest
    covariance eigenvector as normal. Collinear or coincident patches
    (no unique plane) fall back to the nearest-point value.
    """
    pts = np.asarray(patch, dtype=np.float64).reshape(-1, 3)
    nearest = estimate_nearest_point(q, patch)
    if pts.shape[0] < 3:
        return nearest
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    cov = centered.T @ centered / pts.shape[0]
    w, v = np.linalg.eigh(cov)
    trace = w.sum()
    if trace < _PLANE_DEGENERACY or w[1] < _PLANE_DEGENERACY * trace:
        return nearest
    plane = abs(float((np.asarray(q, dtype=np.float64) - centroid) @ v[:, 0]))
    return min(plane, nearest)
