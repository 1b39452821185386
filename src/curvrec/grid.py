"""Two-resolution query lattice: coarse everywhere, fine where curvature is high.

The fine lattice doubles the coarse one, so coarse vertex (i,j,k) sits at
fine index (2i,2j,2k) and every fine site is classified by the parity of
its index: 0 odd components = lattice vertex, 1 = edge midpoint, 2 = face
center, 3 = cell center. Sites never evaluated directly are filled by
three averaging passes (edge -> face -> cell), which is exact for affine
fields.

Fine vertices are addressed by a flat id in lexicographic order with z
fastest; all public operations speak flat ids.
"""

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
        ids = np.asarray(ids, dtype=np.int64)
        n = self.fine_n
        k = ids % n
        j = (ids // n) % n
        i = ids // (n * n)
        return np.stack([i, j, k], axis=-1)

    def fine_position(self, ijk):
        return self.domain_min + np.asarray(ijk, dtype=np.float64) * self.fine_spacing

    def position_of_id(self, ids):
        return self.fine_position(self.unflatten(ids))


def coarse_queries(spec: LatticeSpec):
    """All coarse vertices as (flat fine ids, positions), lexicographic order."""
    axis = np.arange(0, spec.fine_n, 2, dtype=np.int64)
    i, j, k = np.meshgrid(axis, axis, axis, indexing="ij")
    ijk = np.stack([i.ravel(), j.ravel(), k.ravel()], axis=1)
    return spec.flat_id(ijk), spec.fine_position(ijk)


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


def _refine_candidates(spec: LatticeSpec, hot_ids):
    """27-block neighbors of each hot coarse vertex, deduplicated.

    Returns (candidate flat ids, position of the first claiming hot vertex
    in hot_ids), candidates sorted ascending; includes block centers.
    """
    hot_ids = np.asarray(hot_ids, dtype=np.int64)
    if hot_ids.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    base = spec.unflatten(hot_ids)
    off = np.stack(np.meshgrid([-1, 0, 1], [-1, 0, 1], [-1, 0, 1],
                               indexing="ij"), axis=-1).reshape(27, 3)
    cand = base[:, None, :] + off[None, :, :]
    parent = np.repeat(np.arange(hot_ids.size, dtype=np.int64), 27)
    cand = cand.reshape(-1, 3)
    inside = np.all((cand >= 0) & (cand < spec.fine_n), axis=1)
    cand, parent = cand[inside], parent[inside]
    flat = spec.flat_id(cand)
    # stable first-parent-wins dedup: order by (id, parent position)
    order = np.lexsort((parent, flat))
    flat, parent = flat[order], parent[order]
    first = np.ones(flat.size, dtype=bool)
    first[1:] = flat[1:] != flat[:-1]
    return flat[first], parent[first]


def refine_with_parents(grid: AdaptiveGrid, hot_ids):
    """Mark the 3x3x3 fine neighborhoods of hot coarse vertices for evaluation.

    Every hot id must be an evaluated coarse vertex (evaluated, all fine
    indices even). Returns the newly added fine ids (ascending,
    deduplicated across overlapping blocks) and, for each, the first hot
    vertex that claimed it. Sites already evaluated are left untouched, so
    a repeat call with the same hot set adds nothing.
    """
    hot_ids = np.asarray(hot_ids, dtype=np.int64)
    coarse = grid.evaluated[hot_ids] & ~np.any(grid.spec.unflatten(hot_ids) % 2, axis=-1)
    if not coarse.all():
        raise NotCoarseVertex(f"id {hot_ids[~coarse][0]} is not an evaluated coarse vertex")
    cand, parent_pos = _refine_candidates(grid.spec, hot_ids)
    fresh = ~grid.evaluated[cand]
    new, parents = cand[fresh], hot_ids[parent_pos[fresh]]
    grid.evaluated[new] = True
    return new, parents


def select_hot(field, threshold):
    """Query ids whose surface variation is at or above the threshold."""
    return field.ids[field.sigma >= threshold]


def hierarchical_fill(grid: AdaptiveGrid):
    """Fill every unevaluated fine site by successive neighbor averaging.

    Pass 1 gives each open edge midpoint the mean of its two (even-index)
    edge endpoints; pass 2 gives each open face center the mean of the 4
    midpoints of its face's edges; pass 3 gives each open cell center the
    mean of its 6 face centers. Evaluated sites are never overwritten.
    """
    n = grid.spec.fine_n
    evaluated = grid.evaluated.reshape(n, n, n)
    values = grid.values.reshape(n, n, n)

    if np.isnan(grid.values[grid.evaluated]).any():  # coarse vertices included
        raise MissingCoarseValue("an evaluated (coarse or refined) vertex has no value")

    ev = slice(0, n, 2)        # even indices
    od = slice(1, n - 1, 2)    # odd indices
    lo = slice(0, n - 2, 2)    # even neighbor below an odd index
    hi = slice(2, n, 2)        # even neighbor above an odd index

    def fill(target_idx, neighbor_slices):
        acc = values[neighbor_slices[0]].copy()
        for sl in neighbor_slices[1:]:
            acc += values[sl]
        acc /= len(neighbor_slices)
        tgt_vals = values[target_idx]   # a view: writes land in the grid
        open_sites = ~evaluated[target_idx]
        tgt_vals[open_sites] = acc[open_sites]

    # pass 1: edge midpoints (one odd axis)
    fill((od, ev, ev), [(lo, ev, ev), (hi, ev, ev)])
    fill((ev, od, ev), [(ev, lo, ev), (ev, hi, ev)])
    fill((ev, ev, od), [(ev, ev, lo), (ev, ev, hi)])
    # pass 2: face centers (two odd axes), from the surrounding edge midpoints
    fill((od, od, ev), [(lo, od, ev), (hi, od, ev), (od, lo, ev), (od, hi, ev)])
    fill((od, ev, od), [(lo, ev, od), (hi, ev, od), (od, ev, lo), (od, ev, hi)])
    fill((ev, od, od), [(ev, lo, od), (ev, hi, od), (ev, od, lo), (ev, od, hi)])
    # pass 3: cell centers (all axes odd), from the six face centers
    fill((od, od, od),
         [(lo, od, od), (hi, od, od), (od, lo, od), (od, hi, od), (od, od, lo), (od, od, hi)])


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
