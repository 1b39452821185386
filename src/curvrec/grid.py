"""Two-resolution query lattice: coarse everywhere, fine where curvature is high.

The fine lattice doubles the coarse one, so coarse vertex (i,j,k) sits at
fine index (2i,2j,2k) and every fine site is classified by the parity of
its index: 0 odd components = lattice vertex, 1 = edge midpoint, 2 = face
center, 3 = cell center. Sites never evaluated directly are filled by one
rule, applied for k = 1, 2, 3 in turn: a site with k odd indices gets the
mean of its 2k neighbors along its odd axes. The rule is exact for affine
fields.

Fine vertices are addressed by a flat id in lexicographic order with z
fastest; all public operations speak flat ids.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EmptyField, MissingCoarseValue, NotCoarseVertex

MARGIN_CELLS_DEFAULT = 3


@dataclass(frozen=True)
class LatticeSpec:
    """Cube lattice over [-0.5 - m, 0.5 + m]^3 with margin m of whole coarse cells.

    coarse_cells counts cells per axis across the full padded domain, so the
    normalized unit cube occupies coarse_cells - 2*margin_cells cells and the
    coarse spacing is 1 / (coarse_cells - 2*margin_cells).
    """

    coarse_cells: int = 128
    margin_cells: int = MARGIN_CELLS_DEFAULT

    def __post_init__(self):
        if self.coarse_cells <= 2 * self.margin_cells:
            raise ValueError("coarse_cells must exceed twice the margin")
        if self.margin_cells < 0:
            raise ValueError("margin_cells must be nonnegative")

    @property
    def fine_cells(self):
        return 2 * self.coarse_cells

    @property
    def fine_n(self):
        """Fine vertices per axis."""
        return self.fine_cells + 1

    @property
    def coarse_spacing(self):
        return 1.0 / (self.coarse_cells - 2 * self.margin_cells)

    @property
    def fine_spacing(self):
        return self.coarse_spacing / 2.0

    @property
    def margin(self):
        return self.margin_cells * self.coarse_spacing

    @property
    def domain_min(self):
        return -0.5 - self.margin

    @property
    def total_fine_vertices(self):
        return self.fine_n ** 3

    def flat_id(self, ijk):
        """Fine index triple(s) -> flat id(s), z fastest."""
        ijk = np.asarray(ijk, dtype=np.int64)
        n = self.fine_n
        return (ijk[..., 0] * n + ijk[..., 1]) * n + ijk[..., 2]

    def unflatten(self, ids):
        n = self.fine_n
        return np.stack(np.unravel_index(ids, (n, n, n)), axis=-1)

    def fine_position(self, ijk):
        return self.domain_min + np.asarray(ijk, dtype=np.float64) * self.fine_spacing

    def position_of_id(self, ids):
        return self.fine_position(self.unflatten(ids))


class AdaptiveGrid:
    """Field values over the fine lattice, and which sites were evaluated
    directly (coarse from the start, refined later) rather than filled."""

    def __init__(self, spec: LatticeSpec):
        self.spec = spec
        n = spec.fine_n
        self.evaluated = np.zeros(spec.total_fine_vertices, dtype=bool)
        self.evaluated.reshape(n, n, n)[::2, ::2, ::2] = True
        self.values = np.full(spec.total_fine_vertices, np.nan)

    def set_values(self, ids, values):
        self.values[np.asarray(ids, dtype=np.int64)] = values

    @property
    def evaluated_count(self):
        return int(np.count_nonzero(self.evaluated))

    @property
    def filled_count(self):
        """Sites holding a value without being evaluated: those
        hierarchical_fill wrote."""
        return int(np.count_nonzero(~self.evaluated & ~np.isnan(self.values)))

    def dense_values(self):
        """Field as an (n, n, n) array; EmptyField if any site lacks a value."""
        if np.isnan(self.values).any():
            raise EmptyField("field has unpopulated sites; run hierarchical_fill first")
        n = self.spec.fine_n
        return self.values.reshape(n, n, n)


# the 3x3x3 stencil around a site: (di, dj, dk) columns, lexicographic
_STENCIL = np.indices((3, 3, 3)).reshape(3, 27) - 1


def refine_with_parents(grid: AdaptiveGrid, hot_ids):
    """Mark the 3x3x3 fine neighborhoods of hot coarse vertices for evaluation.

    Every hot id must be an evaluated coarse vertex (evaluated, all fine
    indices even). Returns the newly added fine ids (ascending,
    deduplicated across overlapping blocks) and, for each, the first hot
    vertex that claimed it. Sites already evaluated are left untouched, so
    a repeat call with the same hot set adds nothing.
    """
    spec = grid.spec
    hot_ids = np.asarray(hot_ids, dtype=np.int64)
    outside = (hot_ids < 0) | (hot_ids >= spec.total_fine_vertices)
    if outside.any():
        raise NotCoarseVertex(f"id {hot_ids[outside][0]} is outside the lattice of "
                              f"{spec.total_fine_vertices} fine vertices")
    hot_ijk = spec.unflatten(hot_ids)
    coarse = grid.evaluated[hot_ids] & ~np.any(hot_ijk % 2, axis=-1)
    if not coarse.all():
        raise NotCoarseVertex(f"id {hot_ids[~coarse][0]} is not an evaluated coarse vertex")
    # candidates: each hot id plus the stencil's 27 flat offsets, (H, 27),
    # clipped where the stencil leaves the lattice on some axis
    inside = np.ones((hot_ids.size, 27), dtype=bool)
    for axis in range(3):
        index = hot_ijk[:, axis, None] + _STENCIL[axis]
        inside &= (index >= 0) & (index < spec.fine_n)
    kept = np.flatnonzero(inside)
    # rows run in hot_ids order, so each id's first occurrence is its
    # first claiming hot vertex
    cand, first = np.unique((hot_ids[:, None] + spec.flat_id(_STENCIL.T)).ravel()[kept],
                            return_index=True)
    fresh = ~grid.evaluated[cand]
    new, parents = cand[fresh], hot_ids[kept[first[fresh]] // 27]
    grid.evaluated[new] = True
    return new, parents


def select_hot(field, threshold):
    """Query ids whose surface variation is at or above the threshold."""
    return field.ids[field.sigma >= threshold]


def hierarchical_fill(grid: AdaptiveGrid):
    """Fill every unevaluated fine site with the mean of its neighbors.

    A site with k odd indices gets the mean of its 2k neighbors along its
    odd axes, for k = 1, 2, 3 in turn: edge midpoints from coarse vertices,
    then face centers from edge midpoints, then cell centers from face
    centers. Evaluated sites are never overwritten.
    """
    n = grid.spec.fine_n
    evaluated = grid.evaluated.reshape(n, n, n)
    values = grid.values.reshape(n, n, n)

    if np.isnan(grid.values[grid.evaluated]).any():  # coarse vertices included
        raise MissingCoarseValue("an evaluated (coarse or refined) vertex has no value")

    for k in (1, 2, 3):
        for odd in itertools.combinations(range(3), k):
            site = tuple(slice(1, n - 1, 2) if a in odd else slice(0, n, 2) for a in range(3))
            # the site moved to its even neighbor below, then above, per odd axis
            neighbors = [site[:a] + (side,) + site[a + 1:] for a in odd
                         for side in (slice(0, n - 2, 2), slice(2, n, 2))]
            acc = values[neighbors[0]].copy()
            for nb in neighbors[1:]:
                acc += values[nb]
            acc /= 2 * k
            target = values[site]   # a view: writes land in the grid
            open_sites = ~evaluated[site]
            target[open_sites] = acc[open_sites]


def save_field(values, spec: LatticeSpec, path):
    """Dump the dense (n, n, n) field as little-endian float32, z fastest,
    plus a text sidecar `<path>.hdr` of 4 integers: fine vertices per axis,
    coarse cells, fine cells, margin cells."""
    values = np.asarray(values)
    n = spec.fine_n
    if values.shape != (n, n, n):
        raise ValueError(f"field shape {values.shape} does not match lattice {n}^3")
    values.astype("<f4").tofile(path)
    with open(f"{path}.hdr", "w") as fh:
        fh.write(f"{n} {spec.coarse_cells} {spec.fine_cells} {spec.margin_cells}\n")


def load_field(path):
    """Inverse of save_field: returns (values (n,n,n) float64, LatticeSpec)."""
    with open(f"{path}.hdr") as fh:
        n, coarse_cells, fine_cells, margin_cells = map(int, fh.read().split())
    spec = LatticeSpec(coarse_cells=coarse_cells, margin_cells=margin_cells)
    if spec.fine_n != n or spec.fine_cells != fine_cells:
        raise EmptyField(f"{path}.hdr is inconsistent: {n} vertices vs "
                         f"{coarse_cells} coarse cells")
    raw = np.fromfile(path, dtype="<f4")
    if raw.size != n ** 3:
        raise EmptyField(f"{path}: expected {n ** 3} float32 values, found {raw.size}")
    return raw.astype(np.float64).reshape(n, n, n), spec
