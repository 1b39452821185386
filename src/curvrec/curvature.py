"""Surface-variation curvature from local covariance spectra.

For a point set with covariance eigenvalues l0 <= l1 <= l2, the surface
variation is l0 / (l0 + l1 + l2): 0 for coplanar sets, up to 1/3 for
isotropic ones. The field over a lattice of query regions is summarized
by its 10/40/60/90 percentiles, which later drive radius scheduling.
"""

from dataclasses import dataclass

import numpy as np

from . import patch, spatial
from .errors import EmptyInput, NoCurvatureSamples

# Regions whose covariance trace falls below this are treated as flat
# (coincident/collinear samples): the variation ratio would be 0/0.
DEGENERATE_TRACE = 1e-15

MAX_VARIATION = 1.0 / 3.0

# The percentiles a threshold setting may name instead of a number.
PERCENTILES = ("p10", "p40", "p60", "p90")


def check_threshold(selector):
    """The selector unchanged if it names one of PERCENTILES or is not a
    string (a numeric threshold); ValueError otherwise."""
    if isinstance(selector, str) and selector not in PERCENTILES:
        raise ValueError(f"unknown percentile selector {selector!r} "
                         f"(expected one of {', '.join(PERCENTILES)} or a number)")
    return selector


def percentile(values, p) -> float:
    """Linear-interpolation percentile of a non-empty list, p in [0, 100]."""
    # Not np.percentile: for fractions t >= 0.5 numpy's lerp computes
    # b - (b - a) * (1 - t), which can differ from a + t * (b - a) in the last
    # bit and would move the radius schedule's breakpoints.
    vals = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if vals.size == 0:
        raise EmptyInput("percentile of empty list")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile rank {p} outside [0, 100]")
    h = (vals.size - 1) * (p / 100.0)
    lo = int(np.floor(h))
    hi = min(lo + 1, vals.size - 1)
    return float(vals[lo] + (h - lo) * (vals[hi] - vals[lo]))


@dataclass
class CurvatureField:
    """Per-query surface variation plus its global percentile summary.

    ids/sigma are parallel arrays (ids ascending); queries whose region
    had fewer than 3 points carry no entry and do not affect percentiles.
    """

    ids: np.ndarray
    sigma: np.ndarray
    p10: float
    p40: float
    p60: float
    p90: float

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if self.ids.shape != self.sigma.shape:
            raise ValueError("ids and sigma must be parallel arrays")
        if self.sigma.size and (self.sigma.min() < 0 or self.sigma.max() > MAX_VARIATION + 1e-12):
            raise ValueError("surface variation outside [0, 1/3]")
        if not (self.p10 <= self.p40 <= self.p60 <= self.p90):
            raise ValueError("percentiles must be non-decreasing")

    def __len__(self):
        return self.ids.size

    def percentile_value(self, selector):
        """Resolve one of PERCENTILES or a numeric threshold."""
        if isinstance(selector, str):
            return getattr(self, check_threshold(selector))
        return float(selector)


def curvature_field(cloud, index, query_positions, r0, query_ids=None,
                    workers=1, nn=None) -> CurvatureField:
    """Surface variation of the r0-ball around each query position.

    query_ids, when given, labels the sigma entries (defaults to the
    positional index). nn, when given, is each position's nearest-point
    distance. Regions with fewer than 3 points are skipped; raises
    NoCurvatureSamples when that leaves nothing.
    """
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    positions = np.asarray(query_positions, dtype=np.float64).reshape(-1, 3)
    if query_ids is None:
        query_ids = np.arange(len(positions))
    query_ids = np.asarray(query_ids, dtype=np.int64)

    # Cheap prefilter: only positions with any point inside r0 need a ball query.
    if nn is None:
        nn = index.nearest_distance_many(positions, workers=workers)
    candidates = np.flatnonzero(nn <= r0)

    # Ball query and moments per block of candidates, which bounds memory.
    ids, sigma = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for start, stop, flat, offsets in spatial.ball_blocks(index, positions[candidates], r0):
        rows = candidates[start:stop]
        counts = np.diff(offsets)
        keep = counts >= 3
        ids.append(query_ids[rows[keep]])
        sigma.append(_segmented_variation(cloud.points[flat[np.repeat(keep, counts)]],
                                          counts[keep]))
    ids, sigma = np.concatenate(ids), np.concatenate(sigma)
    if ids.size == 0:
        raise NoCurvatureSamples(f"no query position has 3 or more points within r0={r0:g}")

    order = np.argsort(ids, kind="stable")
    ids, sigma = ids[order], sigma[order]
    return CurvatureField(
        ids=ids, sigma=sigma,
        p10=percentile(sigma, 10), p40=percentile(sigma, 40),
        p60=percentile(sigma, 60), p90=percentile(sigma, 90))


def _segmented_variation(points, counts):
    """Surface variation per segment of a concatenated point array."""
    offsets = np.concatenate([[0], np.cumsum(counts)])
    total, _, scatter = patch.segmented_moments(points, offsets, np.ones(len(points)))
    w = np.maximum(patch.symmetric_eigen(scatter / total)[0], 0.0)
    totals = w.sum(axis=1)
    return np.where(totals < DEGENERATE_TRACE, 0.0, w[:, 0] / np.maximum(totals, DEGENERATE_TRACE))
