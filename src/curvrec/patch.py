"""Patch count normalization, as weights on the ball query's CSR patches.

A query's patch (the cloud points inside its curvature-modulated radius)
counts as a fixed number of samples without being copied: oversized
patches keep a seeded subsample, undersized ones add centroid copies in
smooth regions or round-robin duplicates in curved ones.

The subsample is counter-keyed: entry (query q, point p) of an oversized
patch gets the key splitmix64(splitmix64(seed ^ q) ^ p), and the patch
keeps its target_count entries with the smallest keys. splitmix64 is a
bijection of uint64, so the keys of one patch are distinct: there are no
ties, and the pick depends on neither the block nor the order the patch
comes in.
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


def splitmix64(x):
    """The splitmix64 output for each state in the uint64 array x (Steele,
    Lea and Flood 2014): a bijection, so distinct states get distinct keys."""
    z = np.asarray(x, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def csr_subset(offsets, segments):
    """(positions of the listed segments' entries in the CSR, their offsets)."""
    counts = np.diff(offsets)[segments]
    sub = np.concatenate([[0], np.cumsum(counts)])
    return np.repeat(offsets[segments] - sub[:-1], counts) + np.arange(sub[-1]), sub


def _order_in_segments(segments, keys):
    """Entry positions sorted by segment, then by key. One argsort packs the
    segment into the high bits over the key's top bits; only if two packed
    values of a segment tie does an exact lexsort redo it."""
    shift = np.uint64(max(int(segments[-1]).bit_length(), 1))
    packed = (segments << (np.uint64(64) - shift)) | (keys >> shift)
    order = np.argsort(packed)
    packed = packed[order]
    if (packed[1:] == packed[:-1]).any():
        order = np.lexsort((keys, segments))
    return order


def resample(flat, offsets, policy: ResamplePolicy, query_ids):
    """Positions in flat of the entries each CSR patch keeps: the
    policy.target_count of smallest key (see the module docstring). Patch i
    is flat[offsets[i]:offsets[i + 1]], its point indices, queried by
    query_ids[i]; every patch holds more than target_count entries."""
    counts = np.diff(offsets)
    seeds = splitmix64(np.uint64(policy.rng_seed) ^ np.asarray(query_ids, dtype=np.uint64))
    keys = splitmix64(np.repeat(seeds, counts) ^ flat.astype(np.uint64))
    order = _order_in_segments(np.repeat(np.arange(counts.size, dtype=np.uint64), counts), keys)
    rank = np.arange(flat.size) - np.repeat(offsets[:-1], counts)
    return order[rank < policy.target_count]


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
