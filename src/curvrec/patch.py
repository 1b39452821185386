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

Curvature and the plane fit share one symmetric-3x3 kernel over the CSR
patches: segmented_moments gives each patch's weighted mean and scatter,
and symmetric_eigen its eigenvalues and smallest eigenvector, in closed
form except for the rows near a double root.
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

# The six distinct entries of a symmetric 3x3 matrix, in the order (6, S) arrays of
# them are laid out: xx, yy, zz, xy, xz, yz.
SYM3 = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_ROW, _COL = np.array(SYM3).T

# symmetric_eigen sends a row to LAPACK's eigh when its smaller eigen-gap is below
# this ratio of the trace. Measured on the curvature and plane-fit covariances of
# sphere-c64 and dense-sheets-c64 (seed 0, 223k rows), binned by that gap:
# - eigenvalues, against 40-digit mpmath eigenpairs of the same matrices: the
#   closed form's error stayed within 13 eps * trace for gaps of 1e-2 to 1e-1 of
#   the trace, 134 eps from 1e-3 to 1e-2 and 1642 eps from 1e-4 to 1e-3;
#   eigh's within 5 eps throughout;
# - normals, against the SVD of 11k dense-sheets patches' weighted centred points
#   (sine of the angle), binned by l1 - l0: closed form 412 eps, eigh 148 eps from
#   1e-2 to 1e-1 of the trace; closed form 4456 eps, eigh 601 eps from 1e-3 to 1e-2.
# Below 1e-2 eigh is the more accurate. The share sent to it barely moves with the
# ratio (8.4% of sphere rows and 9.4% of dense ones at 1e-2, 7.4% and 8.7% at
# 1e-4): most are one- and two-point patches, whose double root at 0 no ratio admits.
GAP_RATIO = 1e-2


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
    of each non-empty CSR segment, the scatter as its six distinct entries, (6, S)
    in SYM3 order. One pass sums w, w d and w d d^T over d = p - (the segment's
    first entry), and the scatter is sum w d d^T - (sum w d)(sum w d)^T / total:
    shifting by a point of the patch keeps that cancellation at the patch's own
    scale. (Shifting by the query instead, up to a radius away, flipped the plane
    fit's degeneracy test on 4 two-entry patches of sphere-c64.) Every sum is an
    np.add.reduceat over one segment, so it does not depend on the other
    segments in the call."""
    starts, counts = offsets[:-1], np.diff(offsets)
    first = points[starts]
    d = (points - np.repeat(first, counts, axis=0)).T
    terms = np.empty((10, d.shape[1]))
    terms[0] = weights
    np.multiply(d, weights, out=terms[1:4])
    for k, (i, j) in enumerate(SYM3):
        np.multiply(terms[1 + i], d[j], out=terms[4 + k])
    sums = np.add.reduceat(terms, starts, axis=1)
    total = sums[0]
    shift = sums[1:4] / total
    return total, first + shift.T, sums[4:] - shift[_ROW] * sums[1 + _COL]


def symmetric_eigen(c):
    """(eigenvalues ascending (S, 3), unit eigenvector of the smallest (S, 3)) of
    the symmetric 3x3 matrices whose six distinct entries, in SYM3 order, are the
    columns of c (6, S).

    The largest and smallest roots of the characteristic polynomial come from
    Smith's trigonometric form (Smith, CACM 1961; Kopp, arXiv:physics/0610206),
    and the middle one from the trace. The smallest is then det(C) / (l1 l2),
    read from the unshifted entries, so a row that is exactly singular (a planar
    patch) gets exactly 0. Its eigenvector is the largest cross product of two
    rows of C - l0 I. Rows whose smaller eigen-gap is below GAP_RATIO of the
    trace (near double roots, where the arccos loses digits, and a zero trace)
    go to np.linalg.eigh instead."""
    xx, yy, zz, xy, xz, yz = c
    trace = xx + yy + zz
    q = trace / 3
    a, b, e = xx - q, yy - q, zz - q
    p = np.sqrt((a * a + b * b + e * e + 2 * (xy * xy + xz * xz + yz * yz)) / 6)
    with np.errstate(divide="ignore", invalid="ignore"):
        half_det = (a * (b * e - yz * yz) - xy * (xy * e - yz * xz)
                    + xz * (xy * yz - b * xz)) / (2 * p ** 3)
        phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3
        hi = q + 2 * p * np.cos(phi)
        lo = q + 2 * p * np.cos(phi + 2 * np.pi / 3)
        mid = trace - hi - lo
        fallback = ~(np.minimum(mid - lo, hi - mid) >= GAP_RATIO * trace)
        low = (xx * (yy * zz - yz * yz) - xy * (xy * zz - yz * xz)
               + xz * (xy * yz - yy * xz)) / (mid * hi)
    m0, m1, m2 = xx - low, yy - low, zz - low  # rows (m0, xy, xz), (xy, m1, yz), (xz, yz, m2)
    crosses = np.array([[xy * yz - xz * m1, xz * xy - m0 * yz, m0 * m1 - xy * xy],
                        [xy * m2 - xz * yz, xz * xz - m0 * m2, m0 * yz - xy * xz],
                        [m1 * m2 - yz * yz, yz * xz - xy * m2, xy * yz - m1 * xz]])
    norms = (crosses * crosses).sum(axis=1)
    pick = norms.argmax(axis=0)
    rows = np.arange(c.shape[1])
    w = np.stack([low, mid, hi], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = crosses[pick, :, rows] / np.sqrt(norms[pick, rows])[:, None]
    if fallback.any():
        m = np.empty((3, 3, np.count_nonzero(fallback)))
        m[_ROW, _COL] = m[_COL, _ROW] = c[:, fallback]
        w[fallback], vectors = np.linalg.eigh(m.transpose(2, 0, 1))
        v[fallback] = vectors[:, :, 0]
    return w, v
