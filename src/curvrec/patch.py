"""Local patch extraction and count normalization.

Each query gets the cloud points inside its (curvature-modulated) radius,
then the patch is brought to a fixed sample count: oversized patches are
subsampled, undersized ones padded with centroid copies in smooth regions
or round-robin duplicates in curved ones, so downstream estimators always
see the same cardinality.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class ResamplePolicy:
    target_count: int = 64
    curvature_threshold: float = 0.0  # variation at/above which duplication is used
    rng_seed: int = 0

    def __post_init__(self):
        if self.target_count <= 0:
            raise ValueError("target_count must be positive")


@dataclass
class Patch:
    """Resampled local neighborhood assigned to one query point."""

    query: np.ndarray
    radius_used: float
    points: np.ndarray          # (target, 3) after resampling, or (0, 3)
    source_count: int           # points inside the ball before resampling
    sigma: float = 0.0          # variation used for the resampling branch

    def __post_init__(self):
        self.query = np.asarray(self.query, dtype=np.float64).reshape(3)
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)

    def __len__(self):
        return self.points.shape[0]

    @property
    def is_empty(self):
        return self.points.shape[0] == 0


def extract_patch(index, cloud, q, r):
    """Points of cloud within distance r of q, ascending source index."""
    if r <= 0:
        raise ValueError("extraction radius must be positive")
    idx = index.radius_query(q, r)
    return cloud.points[idx]


def resample(points, sigma, policy: ResamplePolicy, query_id=0):
    """Bring a raw neighborhood to exactly policy.target_count points.

    count > target: seeded uniform subsample without replacement.
    count < target, sigma below threshold: append centroid copies.
    count < target, sigma at/above threshold: duplicate existing points
    round-robin in ascending index order. Empty input stays empty.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = pts.shape[0]
    target = policy.target_count
    if n == 0 or n == target:
        return pts
    if n > target:
        rng = np.random.default_rng(np.uint64(policy.rng_seed) ^ np.uint64(query_id))
        pick = rng.choice(n, size=target, replace=False)
        return pts[pick]
    if sigma < policy.curvature_threshold:
        fill = np.broadcast_to(pts.mean(axis=0), (target - n, 3))
    else:
        fill = pts[np.arange(target - n) % n]
    return np.concatenate([pts, fill], axis=0)


def pad_block(points, flat, offsets, sigma, policy: ResamplePolicy):
    """resample over many non-empty patches at once: (m, target, 3).

    Patch i is points[flat[offsets[i]:offsets[i + 1]]] with variation
    sigma[i]. Rows of at most target points equal resample's bit for bit;
    larger rows hold their first target points and are left to resample's
    seeded subsample.
    """
    n = np.diff(offsets)[:, None]
    slot = np.arange(policy.target_count)
    block = points[flat[offsets[:-1, None] + np.where(slot < n, slot, (slot - n) % n)]]
    short = (n[:, 0] < policy.target_count) & (sigma < policy.curvature_threshold)
    if short.any():
        rows, counts = block[short], n[short]
        # Row-by-row sum, the order pts.mean(axis=0) adds in, so the
        # centroid matches resample's to the last bit.
        total = rows[:, 0]
        for j in range(1, counts.max()):
            total = np.where(j < counts, total + rows[:, j], total)
        rows[slot >= counts] = np.repeat(total / counts, policy.target_count - counts[:, 0],
                                         axis=0)
        block[short] = rows
    return block


def build_patch(index, cloud, q, r, sigma, policy: ResamplePolicy, query_id=0) -> Patch:
    raw = extract_patch(index, cloud, q, r)
    return Patch(query=q, radius_used=float(r),
                 points=resample(raw, sigma, policy, query_id=query_id),
                 source_count=raw.shape[0], sigma=float(sigma))
