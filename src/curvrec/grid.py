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

The lattice lives only in active blocks, cubes of BLOCK fine cells
aligned to coarse cells, as OpenVDB stores a sparse volume (Museth, ACM
TOG 2013): the blocks that hold a band site (band_grid). A block has
(BLOCK + 1)^3 sites, sharing its face sites with its neighbors. Until the
fill, the grid holds only what was written to it, the evaluated sites'
ids and values; the blocks exist one x slab at a time, built when fill,
extract or the dump asks for them (AdaptiveGrid.slabs) and dropped once
used. No halo is needed: a filled site reads only its own coarse cell,
and a marching cube its 8 corners, so each block fills and extracts on
its own, the same in every copy. Sites outside the active blocks read
the far field, the same in every such block; only --dump-field builds
the dense (n, n, n) array.
"""

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    def blocks_per_axis(self):
        return -(-self.fine_cells // BLOCK)

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


# Fine cells per block edge, even so that blocks hold whole coarse cells.
# File-to-file runs on sphere-c64 and dense-sheets-c64 (seed 0, 2-core
# x86-64, blocks built a slab at a time) peaked at 102.5-103.9 and 110.5 MB
# at 8, 102.2-102.7 and 110.5-110.6 MB at 16, and 108.4-111.4 and 110.5 MB
# at 32, where a slab is larger and more of each block lies off the band;
# extract took 0.15, 0.14-0.17 and 0.14 s on the sphere. 16 keeps an
# eighth as many blocks as 8, and its blocks hold (17/16)^3 = 1.2 sites
# per site they cover, against (9/8)^3 = 1.4.
BLOCK = 16
# a block's sites per axis; a slab of blocks is one (A, SIDE, SIDE, SIDE)
# array, which site_index and SITE_STRIDES address flat
SIDE = BLOCK + 1
SITE_STRIDES = np.array([SIDE * SIDE, SIDE, 1])
# Sites per pass when locating sites in blocks; bounds the pass's temporaries
# (about 90 bytes a site) to a few MB.
_SITE_CHUNK = 1 << 15
# the 8 corners of a cube, (0, 0, 0) first: block offsets, index parities
_CORNERS = np.array(list(itertools.product((0, 1), repeat=3)))


class AdaptiveGrid:
    """Field values over the fine lattice, and which sites were evaluated
    directly (stride sites from the start, refined later) rather than
    filled, over the stored blocks of BLOCK fine cells per axis.

    Block (bx, by, bz) holds the (BLOCK + 1)^3 sites from fine index
    BLOCK * (bx, by, bz) on, so neighbors both hold the sites of the face
    they share; coords lists the stored blocks in ascending block flat id.
    When BLOCK does not divide the fine cells, the last block on an axis
    overhangs the lattice; its sites past the last plane are never
    evaluated, and no count, dump or mesh reads them. Sites outside the
    stored blocks read the far field (far_field): far at the stride sites,
    their fill elsewhere.

    The grid keeps what was written, not the blocks: the ascending ids
    marked evaluated beyond the stride sites, and each set_values call's
    (ids, values) as one run, sorted by id, a later run winning for a
    repeated id. It keeps the arrays it is given when their ids ascend, so
    they must not change afterwards. slabs() builds the blocks of one x
    slab at a time from them, filled.

    A site's owner is the block it lies in, min(i // BLOCK, nb - 1) per
    axis. Writing, marking or reading the flag of a site whose owner is not
    stored raises ValueError.

    evaluated_count counts the evaluated lattice sites as they are marked:
    every stride site, stored or not, plus each site mark_evaluated flags.
    """

    def __init__(self, spec: LatticeSpec, stride=2, blocks=None, far=np.nan):
        self.spec, self.stride, self.far = spec, stride, far
        nb = spec.blocks_per_axis
        blocks = np.arange(nb ** 3) if blocks is None else np.asarray(blocks, dtype=np.int64)
        self.coords = np.stack(np.unravel_index(blocks, (nb, nb, nb)), axis=-1)
        self._slot = np.full((nb, nb, nb), -1, dtype=np.int64)  # row per block, -1: not stored
        self._slot[tuple(self.coords.T)] = np.arange(blocks.size)
        self._marked = np.empty(0, dtype=np.int64)
        self._runs = []
        self.evaluated_count = ((spec.fine_n - 1) // stride + 1) ** 3

    def _flags(self, ids):
        """Evaluated flag per site of ids, _SITE_CHUNK sites at a time;
        ValueError for a site whose owner is not stored."""
        n, nb = self.spec.fine_n, self.spec.blocks_per_axis
        flags = np.empty(ids.size, dtype=bool)
        for start in range(0, ids.size, _SITE_CHUNK):
            chunk = ids[start:start + _SITE_CHUNK]
            ijk = np.unravel_index(chunk, (n, n, n))
            unstored = self._slot[tuple(np.minimum(x // BLOCK, nb - 1) for x in ijk)] < 0
            if unstored.any():
                raise ValueError(f"site {chunk[unstored][0]} lies outside the stored blocks")
            flag = flags[start:start + _SITE_CHUNK]
            np.equal(ijk[0] % self.stride, 0, out=flag)
            for x in ijk[1:]:
                flag &= x % self.stride == 0
            if self._marked.size:
                at = np.minimum(np.searchsorted(self._marked, chunk), self._marked.size - 1)
                flag |= self._marked[at] == chunk
        return flags

    def set_values(self, ids, values):
        ids = np.asarray(ids, dtype=np.int64).ravel()
        values = np.broadcast_to(np.asarray(values, dtype=np.float64), ids.shape)
        self._flags(ids)  # ValueError for a site whose owner is not stored
        if (ids[1:] < ids[:-1]).any():
            order = np.argsort(ids, kind="stable")  # keeps a repeated id's write order
            ids, values = ids[order], values[order]
        self._runs.append((ids, values))

    def mark_evaluated(self, ids):
        ids = np.asarray(ids, dtype=np.int64).ravel()
        flags = self._flags(ids)
        fresh = ids[~flags] if flags.any() else ids
        if (fresh[1:] <= fresh[:-1]).any():
            fresh = np.sort(fresh)  # deduplicated by sorting: a bare np.unique hashes
            fresh = fresh[np.r_[True, fresh[1:] != fresh[:-1]]]
        self.evaluated_count += fresh.size
        self._marked = np.union1d(self._marked, fresh) if self._marked.size else fresh

    def evaluated_at(self, ids):
        """Evaluated flag per site."""
        return self._flags(np.asarray(ids, dtype=np.int64).ravel())

    @property
    def stored_sites(self):
        """Lattice sites the stored blocks own: per axis, a block's lower
        BLOCK planes (the last block: every plane it holds in the lattice)."""
        nb = self.spec.blocks_per_axis
        owned = np.where(self.coords == nb - 1, self.spec.fine_n - BLOCK * (nb - 1), BLOCK)
        return int(np.prod(owned, axis=1).sum())

    @property
    def filled_count(self):
        """Sites that are not evaluated: the fill gives them their value, or
        the far field does outside the stored blocks."""
        return self.spec.total_fine_vertices - self.evaluated_count

    def slabs(self):
        """The filled x slabs of stored blocks (FilledSlabs), each built
        when an iteration reaches it."""
        return FilledSlabs(self)

    def _slab(self, start, stop):
        """The filled blocks of stored rows start through stop - 1, one x slab.
        Flat ids are x-major, so the slab's sites, planes BLOCK * bx through
        BLOCK * bx + BLOCK, are one id range of every run and of the marks."""
        n = self.spec.fine_n
        coords = self.coords[start:stop]
        x0 = BLOCK * int(coords[0, 0])
        span = np.array([x0, min(x0 + SIDE, n)]) * n * n
        shape = (stop - start,) + (SIDE,) * 3
        on_stride = (slice(None),) + (slice(None, None, self.stride),) * 3
        values = np.full(shape, np.nan)
        values[on_stride] = self.far
        flags = np.zeros(shape, dtype=bool)
        flags[on_stride] = True
        clear_past(flags, coords, self.spec, False)
        rows = self._slot[coords[0, 0]] - start  # (by, bz) -> row in the slab, < 0: not stored
        lo, hi = np.searchsorted(self._marked, span)
        for _, at in self._holders(self._marked[lo:hi], x0, rows):
            flags.reshape(-1)[at] = True
        for ids, v in self._runs:
            lo, hi = np.searchsorted(ids, span)
            v = v[lo:hi]
            for entry, at in self._holders(ids[lo:hi], x0, rows):
                values.reshape(-1)[at] = v[entry]
        if (np.isnan(values) & flags).any():  # stride sites included
            raise MissingCoarseValue("an evaluated (coarse or refined) vertex has no value")
        _fill(values, flags)
        return values

    def _holders(self, ids, x0, rows):
        """(entries, indices) per holding block in the slab from plane x0:
        the entries of ids that block holds and their sites' indices in the
        slab's flat block stack, _SITE_CHUNK ids at a time. Within the slab
        a site is held by up to four blocks: the one it lies in and, on a
        block face in y or in z, the one below."""
        n, nb = self.spec.fine_n, self.spec.blocks_per_axis
        for start in range(0, ids.size, _SITE_CHUNK):
            i, j, k = np.unravel_index(ids[start:start + _SITE_CHUNK], (n, n, n))
            i -= x0
            by, bz = np.minimum(j // BLOCK, nb - 1), np.minimum(k // BLOCK, nb - 1)
            j -= BLOCK * by
            k -= BLOCK * bz
            y_face, z_face = (j == 0) & (by > 0), (k == 0) & (bz > 0)
            for dy, dz, pick in ((0, 0, None), (1, 0, y_face), (0, 1, z_face),
                                 (1, 1, y_face & z_face)):
                entry = np.arange(i.size) if pick is None else np.flatnonzero(pick)
                row = rows[by[entry] - dy, bz[entry] - dz]
                stored = row >= 0
                entry, row = entry[stored], row[stored]
                yield start + entry, site_index(row, i[entry], j[entry] + BLOCK * dy,
                                                k[entry] + BLOCK * dz)

    def dense_values(self):
        """Field as an (n, n, n) array; EmptyField if any site lacks a value.
        --dump-field is its one caller: the pipeline never builds it otherwise."""
        n, nb = self.spec.fine_n, self.spec.blocks_per_axis
        dense = np.empty((BLOCK * nb + 1,) * 3)
        far = far_field(self.stride, self.far)
        for parity in _CORNERS:
            dense[tuple(slice(p, None, 2) for p in parity)] = far[tuple(parity)]
        windows = sliding_window_view(dense, (SIDE,) * 3, writeable=True)
        for values, coords in self.slabs():
            windows[::BLOCK, ::BLOCK, ::BLOCK][tuple(coords.T)] = values
        dense = dense[:n, :n, :n]
        if np.isnan(dense).any():
            raise EmptyField("field has unpopulated sites: an evaluated site has no value")
        return dense


class FilledSlabs:
    """(values, coords) per x slab of a grid's stored blocks, in ascending
    x: the slab's blocks, (A_s, SIDE, SIDE, SIDE), with every written value
    in place and the other sites filled by hierarchical_fill's rule, and
    their block coordinates. Each iteration builds a slab when it reaches
    it; the slab is gone once its consumer drops it. Building a slab raises
    MissingCoarseValue if an evaluated site in it has no value.

    As an array it is a placeholder of the whole stack's shape, (A, SIDE,
    SIDE, SIDE), NaN with zero strides, so np.asarray(slabs).size counts
    the block sites the slabs hold without building them.
    """

    def __init__(self, grid):
        self.grid = grid

    def __iter__(self):
        grid = self.grid
        for start, stop in block_slabs(grid.coords):
            yield grid._slab(start, stop), grid.coords[start:stop]

    def __array__(self, dtype=None, copy=None):
        stack = np.broadcast_to(np.array(np.nan, dtype=dtype),
                                (len(self.grid.coords),) + (SIDE,) * 3)
        return stack.copy() if copy else stack


def site_index(slot, i, j, k):
    """Index in a flattened block stack of site (i, j, k) of the block in row slot."""
    return ((slot * SIDE + i) * SIDE + j) * SIDE + k


def clear_past(arr, coords, spec, value):
    """Set to value what arr, a stack of per-block site or cube arrays for the
    blocks at coords, holds past the lattice's last plane."""
    nb = spec.blocks_per_axis
    kept = arr.shape[-1] - (BLOCK * nb + 1 - spec.fine_n)
    for axis in range(3):
        np.moveaxis(arr, axis + 1, 1)[coords[:, axis] == nb - 1, kept:] = value


def block_slabs(coords):
    """(start, stop) of each run of blocks that share their x block index."""
    edges = np.concatenate([[0], np.flatnonzero(np.diff(coords[:, 0])) + 1, [len(coords)]])
    return zip(edges[:-1].tolist(), edges[1:].tolist())


def far_field(stride, far):
    """The sites outside the stored blocks by index parity, (2, 2, 2): far at
    the stride sites, and the fill of those elsewhere."""
    cell = np.full((3, 3, 3), np.nan)
    evaluated = np.zeros((3, 3, 3), dtype=bool)
    evaluated[::stride, ::stride, ::stride] = True
    cell[evaluated] = far
    _fill(cell, evaluated)
    return cell[:2, :2, :2]


def band_grid(spec, stride, band, far):
    """The grid that stores every block holding a band site, each other site
    reading the far field. Per axis, a site at fine index i is held by
    blocks max((i - 1) // BLOCK, 0) through min(i // BLOCK, nb - 1): the one
    it lies in and, on a block face, the one below."""
    n, nb = spec.fine_n, spec.blocks_per_axis
    held = np.zeros((nb, nb, nb), dtype=bool)
    for start in range(0, band.size, _SITE_CHUNK):
        ijk = np.unravel_index(band[start:start + _SITE_CHUNK], (n, n, n))
        lo = [np.maximum((x - 1) // BLOCK, 0) for x in ijk]
        hi = [np.minimum(x // BLOCK, nb - 1) for x in ijk]
        for corner in _CORNERS:
            held[tuple(hi[a] if corner[a] else lo[a] for a in range(3))] = True
    return AdaptiveGrid(spec, stride, np.flatnonzero(held), far)


# the 3x3x3 stencil around a site: (di, dj, dk) columns, lexicographic
_STENCIL = np.indices((3, 3, 3)).reshape(3, 27) - 1
# Hot vertices per refine pass, which bounds the pass's (chunk, 27)
# candidates and their sort to a few MB. On sphere-c128 (73,900 hot ids,
# 906k new sites, seed 0, 2-core x86-64) refine took 0.27-0.44 s at 2**10,
# 2**12 and 2**14 alike, and its traced peak was 41.8, 38.5 and 41.5 MB,
# 14.5 MB of it the result; all hot ids in one pass, with mark_evaluated
# counting by a hashed np.unique, took 1.24-1.35 s and 117 MB.
_HOT_CHUNK = 1 << 12


def refine_with_parents(grid: AdaptiveGrid, hot_ids):
    """Mark the 3x3x3 fine neighborhoods of hot coarse vertices for evaluation.

    Every hot id must be an evaluated coarse vertex (evaluated, all fine
    indices even). Returns the newly added fine ids (ascending,
    deduplicated across overlapping blocks) and, for each, the first hot
    vertex that claimed it. Sites already evaluated are left untouched, so
    a repeat call with the same hot set adds nothing.

    The hot ids are taken _HOT_CHUNK at a time, in order; a site that
    several chunks claim keeps the earliest chunk's claim.
    """
    spec = grid.spec
    n = spec.fine_n
    hot_ids = np.asarray(hot_ids, dtype=np.int64)
    outside = (hot_ids < 0) | (hot_ids >= spec.total_fine_vertices)
    if outside.any():
        raise NotCoarseVertex(f"id {hot_ids[outside][0]} is outside the lattice of "
                              f"{spec.total_fine_vertices} fine vertices")
    coarse = grid.evaluated_at(hot_ids)
    for index in np.unravel_index(hot_ids, (n, n, n)):
        coarse &= index % 2 == 0
    if not coarse.all():
        raise NotCoarseVertex(f"id {hot_ids[~coarse][0]} is not an evaluated coarse vertex")
    cands, claims = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for start in range(0, hot_ids.size, _HOT_CHUNK):
        hot = hot_ids[start:start + _HOT_CHUNK]
        # candidates: each hot id plus the stencil's 27 flat offsets, (C, 27),
        # clipped where the stencil leaves the lattice on some axis
        inside = np.ones((hot.size, 27), dtype=bool)
        for axis, index in enumerate(np.unravel_index(hot, (n, n, n))):
            index = index[:, None] + _STENCIL[axis]
            inside &= (index >= 0) & (index < n)
        kept = np.flatnonzero(inside)
        # rows run in hot_ids order, so each id's first occurrence is its
        # first claiming hot vertex in the chunk
        cand, first = np.unique((hot[:, None] + spec.flat_id(_STENCIL.T)).ravel()[kept],
                                return_index=True)
        fresh = ~grid.evaluated_at(cand)
        cands.append(cand[fresh])
        claims.append(hot[kept[first[fresh]] // 27])
    # chunks run in hot_ids order too, so a stable sort puts each site's
    # first claim first; this merge sets refine's peak, so each temporary
    # goes once used
    cand = np.concatenate(cands)
    del cands
    order = np.argsort(cand, kind="stable")
    cand = cand[order]
    first = np.ones(cand.size, dtype=bool)
    first[1:] = cand[1:] != cand[:-1]
    new, order = cand[first], order[first]
    del cand, first
    parents = np.concatenate(claims)[order]
    del claims, order
    grid.mark_evaluated(new)
    return new, parents


def select_hot(field, threshold):
    """Query ids whose surface variation is at or above the threshold."""
    return field.ids[field.sigma >= threshold]


def hierarchical_fill(grid: AdaptiveGrid):
    """The grid's field with every unevaluated fine site filled with the
    mean of its neighbors, as grid.slabs(): each x slab of blocks is filled
    as it is built.

    A site with k odd indices gets the mean of its 2k neighbors along its
    odd axes, for k = 1, 2, 3 in turn: edge midpoints from coarse vertices,
    then face centers from edge midpoints, then cell centers from face
    centers. Evaluated sites are never overwritten. Those neighbors lie in
    the site's coarse cell, so each block fills on its own, and a site two
    blocks share reads the same values in both. Building a slab raises
    MissingCoarseValue if an evaluated site in it has no value.
    """
    return grid.slabs()


def _fill(values, evaluated):
    """hierarchical_fill's rule over the last three axes, of m sites each."""
    m = values.shape[-1]
    for k in (1, 2, 3):
        for odd in itertools.combinations(range(3), k):
            site = (...,) + tuple(slice(1, m - 1, 2) if a in odd else slice(0, m, 2)
                                  for a in range(3))
            # the site moved to its even neighbor below, then above, per odd axis
            neighbors = [site[:a + 1] + (side,) + site[a + 2:] for a in odd
                         for side in (slice(0, m - 2, 2), slice(2, m, 2))]
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
