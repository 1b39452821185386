"""Patch count normalization.

A query's patch (the cloud points inside its curvature-modulated radius)
is brought to a fixed sample count: oversized patches are
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
        if not 0 <= self.rng_seed < 2 ** 64:  # resample seeds with a uint64
            raise ValueError(f"seed must be in [0, 2**64), got {self.rng_seed}")


def resample(points, sigma, policy: ResamplePolicy, query_id=0):
    """Seeded uniform subsample, without replacement, of a patch holding
    more than policy.target_count points.

    The seed is rng_seed ^ query_id, so a query draws the same sample in
    any block. Smaller patches go to pad_block; sigma is not read here.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    rng = np.random.default_rng(np.uint64(policy.rng_seed) ^ np.uint64(query_id))
    return pts[rng.choice(pts.shape[0], size=policy.target_count, replace=False)]


def pad_block(points, flat, offsets, sigma, policy: ResamplePolicy):
    """Pad many non-empty patches at once to policy.target_count: (m, target, 3).

    Patch i is points[flat[offsets[i]:offsets[i + 1]]] with variation
    sigma[i]. A patch under the target keeps its points in order and is
    padded with copies of its centroid when sigma is below the curvature
    threshold, else with its own points repeated round-robin. Larger rows
    hold their first target points and are left to resample's seeded
    subsample.
    """
    n = np.diff(offsets)[:, None]
    slot = np.arange(policy.target_count)
    block = points[flat[offsets[:-1, None] + np.where(slot < n, slot, (slot - n) % n)]]
    short = (n[:, 0] < policy.target_count) & (sigma < policy.curvature_threshold)
    if short.any():
        rows, counts = block[short], n[short]
        # Row-by-row sum, the order pts.mean(axis=0) adds in, so the
        # centroid equals each patch's own mean to the last bit; a sum in
        # another order moves the mesh bytes.
        total = rows[:, 0]
        for j in range(1, counts.max()):
            total = np.where(j < counts, total + rows[:, j], total)
        rows[slot >= counts] = np.repeat(total / counts, policy.target_count - counts[:, 0],
                                         axis=0)
        block[short] = rows
    return block
