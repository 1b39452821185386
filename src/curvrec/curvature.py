"""Surface-variation curvature from local covariance spectra.

For a point set with covariance eigenvalues l0 <= l1 <= l2, the surface
variation is l0 / (l0 + l1 + l2): 0 for coplanar sets, up to 1/3 for
isotropic ones. The field over a lattice of query regions is summarized
by its 10/40/60/90 percentiles, which later drive radius scheduling.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import patch, spatial
from .errors import EmptyInput

# Regions whose covariance trace falls below this are treated as flat
# (coincident/collinear samples): the variation ratio would be 0/0.
DEGENERATE_TRACE = 1e-15

MAX_VARIATION = 1.0 / 3.0

# The percentiles a threshold setting may name instead of a number.
PERCENTILES = ("p10", "p40", "p60", "p90")


def check_threshold(selector):
    """The selector unchanged if it names one of PERCENTILES or is not a
    string (a numeric threshold) other than NaN; ValueError otherwise."""
    if isinstance(selector, str) and selector not in PERCENTILES:
        raise ValueError(f"unknown percentile selector {selector!r} "
                         f"(expected one of {', '.join(PERCENTILES)} or a number)")
    if selector != selector:  # every comparison with NaN is false: no site would be hot
        raise ValueError(f"threshold {selector!r} is not a number "
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
    had fewer than 3 points carry no entry and do not affect percentiles,
    which derive from sigma on first use.
    """

    ids: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if self.ids.shape != self.sigma.shape:
            raise ValueError("ids and sigma must be parallel arrays")
        if self.sigma.size and (self.sigma.min() < 0 or self.sigma.max() > MAX_VARIATION + 1e-12):
            raise ValueError("surface variation outside [0, 1/3]")

    def __len__(self):
        return self.ids.size

    @cached_property
    def percentiles(self):
        """{selector: value} for each of PERCENTILES, in their order."""
        return {name: percentile(self.sigma, int(name[1:])) for name in PERCENTILES}

    def percentile_value(self, selector):
        """Resolve one of PERCENTILES or a numeric threshold."""
        if isinstance(selector, str):
            return self.percentiles[check_threshold(selector)]
        return float(selector)


def curvature_field(cloud, index, query_positions, r0, query_ids, nn) -> CurvatureField:
    """Surface variation of the r0-ball around each query position, as
    entries labelled by query_ids in query order. nn is each position's
    nearest-point distance: only positions with nn <= r0 get a ball query.
    Regions with fewer than 3 points carry no entry.
    """
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    candidates = np.flatnonzero(nn <= r0)
    # Ball query and moments per block of candidates, which bounds memory.
    ids, sigma = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for start, stop, flat, offsets in spatial.ball_blocks(index, query_positions[candidates], r0):
        rows = candidates[start:stop]
        counts = np.diff(offsets)
        keep = counts >= 3
        ids.append(query_ids[rows[keep]])
        sigma.append(_segmented_variation(cloud.points[flat[np.repeat(keep, counts)]],
                                          counts[keep]))
    return CurvatureField(ids=np.concatenate(ids), sigma=np.concatenate(sigma))


def _segmented_variation(points, counts):
    """Surface variation per segment of a concatenated point array."""
    offsets = np.concatenate([[0], np.cumsum(counts)])
    total, _, scatter = patch.segmented_moments(points, offsets, np.ones(len(points)))
    w = np.maximum(patch.symmetric_eigen(scatter / total)[0], 0.0)
    totals = w.sum(axis=1)
    return np.where(totals < DEGENERATE_TRACE, 0.0, w[:, 0] / np.maximum(totals, DEGENERATE_TRACE))
