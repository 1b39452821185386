"""Surface-variation curvature from local covariance spectra.

For a point set with covariance eigenvalues l0 <= l1 <= l2, the surface
variation is l0 / (l0 + l1 + l2): 0 for coplanar sets, up to 1/3 for
isotropic ones. The field over a lattice of query regions is summarized
by its 10/40/60/90 percentiles, which later drive radius scheduling.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, NoCurvatureSamples, NotSymmetric

# Regions whose covariance trace falls below this are treated as flat
# (coincident/collinear samples): the variation ratio would be 0/0.
DEGENERATE_TRACE = 1e-15

MAX_VARIATION = 1.0 / 3.0


def covariance3(points):
    """Population covariance (1/m) * sum (p - mean)(p - mean)^T."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise EmptyInput("covariance of zero points")
    centered = pts - pts.mean(axis=0)
    return centered.T @ centered / pts.shape[0]


@dataclass
class SymmetricEigen3:
    """Sorted spectrum of a symmetric 3x3 matrix (eigenvectors in columns)."""

    eigenvalues: np.ndarray   # ascending, shape (3,)
    eigenvectors: np.ndarray  # shape (3, 3), column k pairs with eigenvalue k


def eigen_sym3(m) -> SymmetricEigen3:
    """Eigendecomposition with ascending eigenvalues and orthonormal vectors."""
    mat = np.asarray(m, dtype=np.float64).reshape(3, 3)
    if np.abs(mat - mat.T).max() > 1e-12:
        raise NotSymmetric(f"asymmetry {np.abs(mat - mat.T).max():g} exceeds 1e-12")
    w, v = np.linalg.eigh(mat)
    return SymmetricEigen3(eigenvalues=w, eigenvectors=v)


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


def percentile(values, p) -> float:
    """Linear-interpolation percentile of a non-empty list, p in [0, 100]."""
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

    def as_dict(self):
        return dict(zip(self.ids.tolist(), self.sigma.tolist()))

    def percentile_value(self, selector):
        """Resolve 'p10'/'p40'/'p60'/'p90' or a numeric threshold."""
        if isinstance(selector, str):
            try:
                return {"p10": self.p10, "p40": self.p40,
                        "p60": self.p60, "p90": self.p90}[selector]
            except KeyError:
                raise ValueError(f"unknown percentile selector {selector!r}") from None
        return float(selector)


def curvature_field(cloud, index, query_positions, r0, query_ids=None,
                    workers=1, nn=None) -> CurvatureField:
    """Surface variation of the r0-ball around each query position.

    query_ids, when given, labels the sigma entries (defaults to the
    positional index). nn, when given, is each position's nearest-point
    distance, exact at least up to r0 (see nearest_distance_many's bound).
    Regions with fewer than 3 points are skipped; raises
    NoCurvatureSamples when that leaves nothing.
    """
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    positions = np.asarray(query_positions, dtype=np.float64).reshape(-1, 3)
    if query_ids is None:
        query_ids = np.arange(positions.shape[0], dtype=np.int64)
    else:
        query_ids = np.asarray(query_ids, dtype=np.int64)

    # Cheap prefilter: only positions with any point inside r0 need a ball query.
    if nn is None:
        nn = index.nearest_distance_many(positions, workers=workers, bound=r0)
    candidates = np.flatnonzero(nn <= r0)
    if candidates.size == 0:
        raise NoCurvatureSamples("no query region contains any points")

    flat, offsets = index.radius_query_flat(positions[candidates], r0, workers=workers)
    counts = np.diff(offsets)
    keep = counts >= 3
    if not keep.any():
        raise NoCurvatureSamples("every query region has fewer than 3 points")

    kept_rows = np.flatnonzero(keep)
    sigma = _segmented_variation(cloud.points[flat[np.repeat(keep, counts)]],
                                 counts[kept_rows])

    ids = query_ids[candidates[kept_rows]]
    order = np.argsort(ids, kind="stable")
    ids, sigma = ids[order], sigma[order]
    return CurvatureField(
        ids=ids, sigma=sigma,
        p10=percentile(sigma, 10), p40=percentile(sigma, 40),
        p60=percentile(sigma, 60), p90=percentile(sigma, 90))


def _segmented_variation(points, counts):
    """Surface variation per segment of a concatenated point array."""
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    sums = np.add.reduceat(points, starts, axis=0)
    means = sums / counts[:, None]
    centered = points - np.repeat(means, counts, axis=0)
    outer = centered[:, :, None] * centered[:, None, :]
    cov = np.add.reduceat(outer, starts, axis=0) / counts[:, None, None]
    w = np.maximum(np.linalg.eigvalsh(cov), 0.0)
    totals = w.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        sigma = np.where(totals < DEGENERATE_TRACE, 0.0, w[:, 0] / np.where(totals > 0, totals, 1.0))
    return sigma
