"""Static spatial index over a point cloud (radius and nearest queries).

Backed by scipy's kd-tree, which is exact: radius queries return the
closed ball (distance <= r) and nearest queries the true minimum, so
results are interchangeable with brute force. Queries leave the tree as
it is; they only add to the index's counters and clocks.
workers reaches only scipy's native threads in the nearest query.

The kd-tree is built with compact_nodes=False. On the band's nn and ball
queries (seed 0, in-process, 10 alternating pairs, 2-core x86-64) the
index work took 0.71 s without compact nodes and 0.75 s with on
sphere-c64 (7 pairs won without), and 2.38 against 2.27 s on
dense-sheets-c64 (5 won each way); whole runs did not tell them apart.

Ball queries run as one dual-tree traversal per block of centers
(ball_blocks): a small kd-tree over the block's centers, matched against
the point tree by sparse_distance_matrix, whose pairs come back as flat
arrays.
query_ball_point returns one Python list per center, and flattening
those lists into CSR arrays cost as much as the search; on sphere-c64's
evaluate blocks the lists took 0.69 s and the dual tree 0.44 s for the
same indices (2-core x86-64).

A block is searched at its largest radius and each pair then checked
against its center's own, so some found pairs are dropped: replaying
dense-sheets-c64's 275 ball calls (seed 0, 2-core x86-64), the blocks
found 13,240,761 pairs and kept 8,836,890, in 0.98-1.06 s. Fewer found
pairs did not make the search cheaper: splitting each block at its
median radius found 10.8M in 1.06-1.13 s, at its radius quartiles 9.9M
in 1.36-2.01 s, and blocks cut from every center sorted by radius found
8.9M in 6.0 s. count_neighbors over the same blocks, which emits no
pairs, took 0.93-1.42 s. The traversal's cost follows how far a block's
centers spread, not the pairs it emits.

Each block is one search on the calling thread: splitting its centers
over two threads made no difference to a whole run at workers=2 (2.94 s
with the split, 2.91 s without, median of 10 alternating pairs on
sphere-c64, 2-core x86-64).
"""

from time import perf_counter

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyCloud
from .model import PointCloud

# Below about 1e-154 a squared radius is subnormal, too coarse to hold the
# ball test, so a ball smaller than this has every pair rechecked.
_MIN_SEARCH = 1e-150

# Ball-query blocks hold about PAIR_BUDGET kept pairs (see ball_blocks).
# Results never depend on a block's size; its memory does, and grows with
# its pairs, not its centers: the pairs found at the block's largest radius
# (24 bytes each) and the patch moments' (10, E) terms (80 bytes an entry).
# On dense-sheets-c64 (400k points, seed 0, 2-core x86-64), blocks of 2048
# centers found ~676k pairs each and the run peaked at 173.8 MB in
# curvature and evaluate, when this budget replaced them; its 272 blocks
# cost ~0.17 s more there (median of 10 in-process pairs, ~5%). File to
# file, with the lattice's blocks built a slab at a time, the run peaks at
# 110.4 MB in the read, and evaluate stays below it; 2**16 takes evaluate
# to 113.0-113.5 MB and the run to 114.0-114.5. sphere-c64 (~15 pairs a
# center) peaks at 99.8-102.3 MB, and at 104.1-104.4 at 2**16. Without the
# cap at twice the last block, a block after a sparse one (the band's edge)
# can find many budgets' worth of pairs: dense-sheets-c64 peaked at 150 MB.
PAIR_BUDGET = 1 << 15
FIRST_BLOCK = 256
MIN_BLOCK = 16


class SpatialIndex:
    """kd-partition over the points of one PointCloud.

    It counts the work it answers: nn_rows, the rows given the nearest
    query; ball_calls, the ball queries; and ball_pairs, the (center,
    point) pairs they kept. nn_s and ball_s are the wall time those
    queries took.
    """

    def __init__(self, points):
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        if self.points.shape[0] == 0:
            raise EmptyCloud("cannot index an empty cloud")
        self._tree = cKDTree(self.points, leafsize=16, compact_nodes=False)
        self.nn_rows = self.ball_calls = self.ball_pairs = 0
        self.nn_s = self.ball_s = 0.0

    def __len__(self):
        return self.points.shape[0]

    def radius_query_flat(self, centers, radii):
        """Batched closed-ball query; radii may be scalar or per-center.

        Returns (flat, offsets): the ascending indices of center i are
        flat[offsets[i]:offsets[i + 1]]. Point j is in ball i when
        (dx*dx + dy*dy) + dz*dz <= r_i*r_i, the kd-tree's own test.
        """
        t0 = perf_counter()
        centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
        radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), centers.shape[:1])
        # One search at the largest radius, then each pair against its own.
        pairs = cKDTree(centers).sparse_distance_matrix(
            self._tree, radii.max(initial=0.0), output_type="ndarray")
        i, j, v = pairs["i"], pairs["j"], pairs["v"]
        r = radii[i]
        keep = v <= r
        # v is sqrt(d2) rounded, so near r (and anywhere once r*r is
        # subnormal) it can disagree with d2 <= r*r: recompute d2 there in
        # the tree's summation order. Both tests depend on the center alone.
        slack, tiny = 4 * np.spacing(radii), radii < _MIN_SEARCH
        tie = np.flatnonzero((np.abs(v - r) <= slack[i]) | tiny[i])
        d = self.points[j[tie]] - centers[i[tie]]
        keep[tie] = (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2] <= r[tie] * r[tie]
        n = len(self)
        key = np.sort(i[keep] * n + j[keep])
        offsets = np.zeros(len(centers) + 1, dtype=np.int64)
        np.cumsum(np.bincount(key // n, minlength=len(centers)), out=offsets[1:])
        self.ball_calls += 1
        self.ball_pairs += key.size
        self.ball_s += perf_counter() - t0
        return key % n, offsets

    def radius_query_many(self, centers, radii):
        """radius_query_flat as a list of ascending index arrays, one per center."""
        flat, offsets = self.radius_query_flat(centers, radii)
        return [flat[a:b] for a, b in zip(offsets[:-1], offsets[1:])]

    def nearest_distance_many(self, queries, workers=1):
        """Exact nearest-point distance per query."""
        t0 = perf_counter()
        queries = np.asarray(queries, dtype=np.float64)
        self.nn_rows += len(queries)
        distances = self._tree.query(queries, workers=workers)[0]
        self.nn_s += perf_counter() - t0
        return distances


def ball_blocks(index, centers, radii):
    """index.radius_query_flat over consecutive blocks of centers, yielding
    (start, stop, flat, offsets) for centers[start:stop]; radii may be
    scalar or per-center.

    The first block holds FIRST_BLOCK centers. Each next block holds
    PAIR_BUDGET times the centers per kept pair of the block just done,
    at least MIN_BLOCK and at most twice as many centers as that block.
    """
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), centers.shape[:1])
    start, size = 0, FIRST_BLOCK
    while start < len(centers):
        stop = min(start + size, len(centers))
        flat, offsets = index.radius_query_flat(centers[start:stop], radii[start:stop])
        yield start, stop, flat, offsets
        rows = stop - start
        size = min(2 * rows, max(MIN_BLOCK, PAIR_BUDGET * rows // max(int(offsets[-1]), 1)))
        start = stop


def build_index(cloud: PointCloud) -> SpatialIndex:
    """Index all points of the cloud; duplicates are retained."""
    return SpatialIndex(cloud.points)
