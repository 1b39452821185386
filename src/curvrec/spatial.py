"""Static spatial index over a point cloud (radius and nearest queries).

Backed by scipy's kd-tree, which is exact: radius queries return the
closed ball (distance <= r) and nearest queries the true minimum, so
results are interchangeable with brute force. All query methods are
read-only and safe to call from concurrent workers.

The kd-tree is built with compact_nodes=False: shrinking each node's box
to its points' range makes far queries slower here, not faster. On
sphere-c64's coarse sites the bounded tree query took 2.03 s with compact
nodes and 0.93 s without, with identical distances; building the index
over the 400k-point dense-sheets cloud took 0.29 s against 0.23 s, and
its coarse ball queries took the same time either way (2-core x86-64).
"""

import itertools

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyCloud
from .model import PointCloud

# cKDTree drops a neighbour unless its squared distance is strictly below
# the squared upper bound, so bounded queries search a slightly larger
# ball and trim it back to the closed one.
_BOUND_PAD = 1.0 + 1e-9
# Below about 1e-154 the squared bound is subnormal, too coarse to hold the
# relative pad, so the searched radius never drops below this floor.
_MIN_SEARCH = 1e-150

# Centers per block of ball-query and patch work. Results never depend on
# it (nor on workers); it bounds the memory a block holds, which grows with
# it: the ball query's lists of Python ints and curvature's (E, 3, 3) outer
# products. On dense-sheets-c64 (400k points, 2-core x86-64) peak RSS was
# 301 MB at 8192, 232 at 4096, 216 at 2048 and 215 at 1024, so 2048 is the
# largest block at that floor.
CHUNK = 2048


class SpatialIndex:
    """Immutable kd-partition over the points of one PointCloud."""

    def __init__(self, points):
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        if self.points.shape[0] == 0:
            raise EmptyCloud("cannot index an empty cloud")
        self._tree = cKDTree(self.points, leafsize=16, compact_nodes=False)

    def __len__(self):
        return self.points.shape[0]

    def radius_query_flat(self, centers, radii, workers=1):
        """Batched radius query; radii may be scalar or per-center.

        Returns (flat, offsets): the ascending indices of center i are
        flat[offsets[i]:offsets[i + 1]].
        """
        lists = self._tree.query_ball_point(np.asarray(centers, dtype=np.float64),
                                            radii, return_sorted=True, workers=workers)
        offsets = np.zeros(len(lists) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, lists), dtype=np.int64, count=len(lists)),
                  out=offsets[1:])
        flat = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int64,
                           count=offsets[-1])
        return flat, offsets

    def radius_query_many(self, centers, radii, workers=1):
        """radius_query_flat as a list of ascending index arrays, one per center."""
        flat, offsets = self.radius_query_flat(centers, radii, workers=workers)
        return [flat[a:b] for a, b in zip(offsets[:-1], offsets[1:])]

    def nearest_distance_many(self, queries, workers=1, bound=np.inf):
        """Nearest-point distance per query, inf where it exceeds bound.

        Equal to the unbounded distance wherever that is <= bound (closed
        ball); a finite bound prunes the kd-tree search.
        """
        if not bound > 0:
            raise ValueError("bound must be positive")
        d, _ = self._tree.query(np.asarray(queries, dtype=np.float64), workers=workers,
                                distance_upper_bound=max(bound * _BOUND_PAD, _MIN_SEARCH))
        d = np.asarray(d, dtype=np.float64)
        d[d > bound] = np.inf
        return d


def build_index(cloud: PointCloud) -> SpatialIndex:
    """Index all points of the cloud; duplicates are retained."""
    return SpatialIndex(cloud.points)
