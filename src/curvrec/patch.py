"""Patch count normalization, as weights on the ball query's CSR patches.

A query's patch (the cloud points inside its curvature-modulated radius)
counts as a fixed number of samples without being copied: oversized
patches keep a seeded subsample, undersized ones add centroid copies in
smooth regions or round-robin duplicates in curved ones.
"""

from collections import namedtuple
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


# Patch i is points[offsets[i]:offsets[i + 1]], with entry e counted weights[e] > 0
# times, plus centroid_copies[i] copies of the patch's weighted mean.
Patches = namedtuple("Patches", "points offsets weights centroid_copies")


def pad_weights(offsets, sigma, policy: ResamplePolicy):
    """(weight per CSR entry, centroid copies per patch) that bring each
    non-empty patch of n < target entries to policy.target_count: smooth
    ones (sigma below the threshold) add target - n centroid copies, and
    curved ones count entry rank r target // n + (r < target % n) times.
    Larger patches weigh 0 until resample picks."""
    target, n = policy.target_count, np.diff(offsets)
    size, rank = np.repeat(n, n), np.arange(offsets[-1]) - np.repeat(offsets[:-1], n)
    smooth = sigma < policy.curvature_threshold
    weights = np.where(np.repeat(smooth, n), 1, target // size + (rank < target % size))
    return np.where(size > target, 0, weights), np.where(smooth & (n < target), target - n, 0)


def resample(points, sigma, policy: ResamplePolicy, query_id=0):
    """Positions of a seeded uniform subsample, without replacement, of
    policy.target_count of a patch's points (or CSR entries: only their
    number is read). The seed is rng_seed ^ query_id, so a query draws the
    same sample in any block; sigma is not read here."""
    rng = np.random.default_rng(np.uint64(policy.rng_seed) ^ np.uint64(query_id))
    return rng.choice(len(points), size=policy.target_count, replace=False)


def segmented_moments(points, offsets, weights):
    """(total weight, weighted mean, weighted scatter sum of w (p - mean)(p - mean)^T)
    of each non-empty CSR segment; every sum is an np.add.reduceat over one
    segment, so it does not depend on the other segments in the call."""
    starts, counts = offsets[:-1], np.diff(offsets)
    total = np.add.reduceat(weights, starts).astype(np.float64)
    mean = np.add.reduceat(points * weights[:, None], starts, axis=0) / total[:, None]
    centered = points - np.repeat(mean, counts, axis=0)
    outer = centered[:, :, None] * (centered * weights[:, None])[:, None, :]
    return total, mean, np.add.reduceat(outer, starts, axis=0)
