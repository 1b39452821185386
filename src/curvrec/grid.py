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

The grid holds only what was written to it: a site is evaluated when it
is a stride site or was given a value. The lattice exists one dense x
slab at a time, SLAB fine cells thick over the whole y-z plane, built
when an iteration of AdaptiveGrid.slabs reaches it and dropped once
used. No halo is needed: a filled site reads only its own coarse cell,
and a marching cube its 8 corners, so each slab fills and extracts on
its own, and two slabs fill the plane they share alike. A stride site
never written reads far, so a coarse cell outside the band reads the far
field (far_field). No stage builds the dense (n, n, n) array: the dump,
too, writes one slab at a time, and a run dumps and extracts each slab
in one pass, after which nothing holds the grid's writes.
"""

import itertools
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import MissingCoarseValue, NotCoarseVertex

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


# Fine cells per slab along x, even so that a slab holds whole coarse
# cells. File-to-file runs (seed 0, 2-core x86-64, three each) peaked at
# 100.0-102.9 MB on sphere-c64 and 197.1-207.1 MB on sphere-c128 at 8, and
# at 101.6-102.6 and 197.1-201.8 MB at 16, with wall times alike; glibc's
# heap layout moves the coarse-128 peak by up to 10 MB from run to run.
SLAB = 16
# Sites per pass when counting a write's new sites; bounds the pass's
# temporaries to a few MB.
_SITE_CHUNK = 1 << 15


class AdaptiveGrid:
    """Field values over the fine lattice, and which sites were evaluated
    directly rather than filled: the stride sites, and every site given a
    value.

    The grid keeps what was written, not the lattice: each set_values
    call's (ids, values) as one run, sorted by id, a later run winning for
    a repeated id. It keeps the arrays it is given when their ids ascend,
    so they must not change afterwards. slabs() builds the lattice from
    them one dense x slab at a time, filled. A stride site never written
    reads far, and the fill gives every other site its value.

    Writing an id outside the lattice raises ValueError.

    evaluated_count counts the evaluated lattice sites as they are
    written: every stride site plus each off-stride site that no earlier
    write gave a value.
    """

    def __init__(self, spec: LatticeSpec, stride=2, far=np.nan):
        self.spec, self.stride, self.far = spec, stride, far
        self._runs = []
        self.evaluated_count = ((spec.fine_n - 1) // stride + 1) ** 3

    def set_values(self, ids, values):
        ids = np.asarray(ids, dtype=np.int64).ravel()
        values = np.broadcast_to(np.asarray(values, dtype=np.float64), ids.shape)
        n3 = self.spec.fine_n ** 3
        if ids.size and (ids.min() < 0 or ids.max() >= n3):
            raise ValueError(f"id {ids[(ids < 0) | (ids >= n3)][0]} is outside the lattice "
                             f"of {n3} fine vertices")
        if (ids[1:] < ids[:-1]).any():
            order = np.argsort(ids, kind="stable")  # keeps a repeated id's write order
            ids, values = ids[order], values[order]
        self.evaluated_count += self._new_sites(ids)
        self._runs.append((ids, values))

    def _new_sites(self, ids):
        """Off-stride sites of the ascending ids that no earlier run wrote,
        each counted once, _SITE_CHUNK ids at a time."""
        n = self.spec.fine_n
        count = 0
        for start in range(0, ids.size, _SITE_CHUNK):
            chunk = ids[start:start + _SITE_CHUNK]
            new = np.diff(chunk, prepend=ids[start - 1] if start else -1) != 0
            off = np.zeros(chunk.size, dtype=bool)
            for index in np.unravel_index(chunk, (n, n, n)):
                off |= index % self.stride != 0
            new &= off
            for run, _ in self._runs:
                if run.size:
                    new &= run[np.minimum(np.searchsorted(run, chunk), run.size - 1)] != chunk
            count += int(np.count_nonzero(new))
        return count

    @property
    def filled_count(self):
        """Sites that are not evaluated: the fill gives them their value."""
        return self.spec.total_fine_vertices - self.evaluated_count

    def slabs(self, each=None):
        """The filled x slabs of the lattice (FilledSlabs), each built when an
        iteration reaches it. each(values, x0), when given, sees every slab
        as it is built."""
        return FilledSlabs(self, each)

    def _slab(self, x0):
        """The filled slab of planes x0 through x0 + SLAB (or the last plane),
        (planes, n, n). Flat ids are x-major, so the slab's sites are one id
        range of every run, at id - x0 n^2 in the slab."""
        n, s = self.spec.fine_n, self.stride
        planes = min(SLAB, n - 1 - x0) + 1
        base, span = x0 * n * n, np.array([x0, x0 + planes]) * n * n
        values = np.full((planes, n, n), np.nan)
        values[::s, ::s, ::s] = self.far  # x0 is even, so on the stride
        flags = np.zeros((planes, n, n), dtype=bool)
        flags[::s, ::s, ::s] = True
        for ids, v in self._runs:
            lo, hi = np.searchsorted(ids, span)
            at = ids[lo:hi] - base
            values.reshape(-1)[at] = v[lo:hi]
            flags.reshape(-1)[at] = True
        if (np.isnan(values) & flags).any():
            raise MissingCoarseValue("an evaluated (stride or written) site has no value")
        _fill(values, flags)
        return values


class FilledSlabs:
    """(values, x0) per x slab of a grid's lattice, in ascending x: the
    planes x0 through x0 + SLAB (or the last plane), (planes, n, n), with
    every written value in place and the other sites filled by
    hierarchical_fill's rule. Consecutive slabs share a plane. Each
    iteration builds a slab when it reaches it and hands it to each, if
    given, before its consumer; the slab is gone once they drop it. It is
    iterated once: building the last slab drops its grid, so a caller that
    drops its own has the grid's writes freed there. Building a slab raises
    MissingCoarseValue if an evaluated site in it has no value.

    As an array it is a placeholder of the lattice's shape, (n, n, n), NaN
    with zero strides, so np.asarray(slabs).size counts the sites the slabs
    cover without building them.
    """

    def __init__(self, grid, each=None):
        self.grid, self.each = grid, each
        self.shape = (grid.spec.fine_n,) * 3

    def __iter__(self):
        starts = range(0, self.shape[0] - 1, SLAB)
        for x0 in starts:
            values = self.grid._slab(x0)
            if x0 == starts[-1]:
                self.grid = None
            if self.each is not None:
                self.each(values, x0)
            yield values, x0

    def __array__(self, dtype=None, copy=None):
        lattice = np.broadcast_to(np.array(np.nan, dtype=dtype), self.shape)
        return lattice.copy() if copy else lattice


def far_field(stride, far):
    """The sites of a coarse cell whose corners read far, by index parity,
    (2, 2, 2): far at the stride sites, and the fill of those elsewhere.
    Every coarse cell outside the band reads it."""
    cell = np.full((3, 3, 3), np.nan)
    evaluated = np.zeros((3, 3, 3), dtype=bool)
    evaluated[::stride, ::stride, ::stride] = True
    cell[evaluated] = far
    _fill(cell, evaluated)
    return cell[:2, :2, :2]


# the 3x3x3 stencil around a site but its centre: (di, dj, dk) columns,
# lexicographic
_STENCIL = np.delete(np.indices((3, 3, 3)).reshape(3, 27) - 1, 13, axis=1)
# Hot vertices per refine pass, which bounds the pass's (chunk, 26)
# candidates and their sort to a few MB. On sphere-c128 (73,900 hot ids,
# 906k new sites, seed 0, 2-core x86-64) refine took 0.27-0.44 s at 2**10,
# 2**12 and 2**14 alike, and its traced peak was 41.8, 38.5 and 41.5 MB,
# 14.5 MB of it the result; all hot ids in one pass, with the new sites
# counted by a hashed np.unique, took 1.24-1.35 s and 117 MB.
_HOT_CHUNK = 1 << 12


def refine_with_parents(spec: LatticeSpec, hot_ids):
    """The fine sites to evaluate around hot coarse vertices: their 3x3x3
    fine neighborhoods but the centres.

    Every hot id must be a coarse vertex (all fine indices even). Every
    other site of its neighborhood has an odd index, so it is neither a
    coarse vertex nor a stride site of the adaptive grid. Returns those
    sites' ids (ascending, deduplicated across overlapping neighborhoods)
    and, for each, the first hot vertex that claimed it. The result
    depends on the lattice and the hot ids alone.

    The hot ids are taken _HOT_CHUNK at a time, in order; a site that
    several chunks claim keeps the earliest chunk's claim.
    """
    n = spec.fine_n
    hot_ids = np.asarray(hot_ids, dtype=np.int64)
    outside = (hot_ids < 0) | (hot_ids >= spec.total_fine_vertices)
    if outside.any():
        raise NotCoarseVertex(f"id {hot_ids[outside][0]} is outside the lattice of "
                              f"{spec.total_fine_vertices} fine vertices")
    odd = np.zeros(hot_ids.size, dtype=bool)
    for index in np.unravel_index(hot_ids, (n, n, n)):
        odd |= index % 2 == 1
    if odd.any():
        raise NotCoarseVertex(f"id {hot_ids[odd][0]} is not a coarse vertex")
    cands, claims = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for start in range(0, hot_ids.size, _HOT_CHUNK):
        hot = hot_ids[start:start + _HOT_CHUNK]
        # candidates: each hot id plus the stencil's 26 flat offsets, (C, 26),
        # clipped where the stencil leaves the lattice on some axis
        inside = np.ones((hot.size, 26), dtype=bool)
        for axis, index in enumerate(np.unravel_index(hot, (n, n, n))):
            index = index[:, None] + _STENCIL[axis]
            inside &= (index >= 0) & (index < n)
        kept = np.flatnonzero(inside)
        # rows run in hot_ids order, so each id's first occurrence is its
        # first claiming hot vertex in the chunk
        cand, first = np.unique((hot[:, None] + spec.flat_id(_STENCIL.T)).ravel()[kept],
                                return_index=True)
        cands.append(cand)
        claims.append(hot[kept[first] // 26])
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
    return new, parents


def select_hot(field, threshold):
    """Query ids whose surface variation is at or above the threshold."""
    return field.ids[field.sigma >= threshold]


def hierarchical_fill(grid: AdaptiveGrid, each=None):
    """The grid's field with every unevaluated fine site filled with the
    mean of its neighbors, as grid.slabs(each): each x slab is
    filled as it is built.

    A site with k odd indices gets the mean of its 2k neighbors along its
    odd axes, for k = 1, 2, 3 in turn: edge midpoints from coarse vertices,
    then face centers from edge midpoints, then cell centers from face
    centers. Evaluated sites are never overwritten. Those neighbors lie in
    the site's coarse cell, so each slab fills on its own, and the plane
    two slabs share reads the same values in both. Building a slab raises
    MissingCoarseValue if an evaluated site in it has no value.
    """
    return grid.slabs(each)


def _fill(values, evaluated):
    """hierarchical_fill's rule over the last three axes, each of an odd
    number of sites."""
    sizes = values.shape[-3:]
    for k in (1, 2, 3):
        for odd in itertools.combinations(range(3), k):
            site = (...,) + tuple(slice(1, m - 1, 2) if a in odd else slice(0, m, 2)
                                  for a, m in enumerate(sizes))
            # the site moved to its even neighbor below, then above, per odd axis
            neighbors = [site[:a + 1] + (side,) + site[a + 2:] for a in odd
                         for side in (slice(0, sizes[a] - 2, 2), slice(2, sizes[a], 2))]
            acc = values[neighbors[0]].copy()
            for nb in neighbors[1:]:
                acc += values[nb]
            acc /= 2 * k
            target = values[site]   # a view: writes land in the grid
            open_sites = ~evaluated[site]
            target[open_sites] = acc[open_sites]


@contextmanager
def field_writer(spec: LatticeSpec, path):
    """write(values, x0), which appends an x slab of the field to the dump
    at path, the slabs given in ascending x: little-endian float32, z
    fastest, each slab without the plane it shares with the slab before.
    A text sidecar `<path>.hdr` of 4 integers comes first: fine vertices
    per axis, coarse cells, fine cells, margin cells."""
    with open(f"{path}.hdr", "w") as fh:
        fh.write(f"{spec.fine_n} {spec.coarse_cells} {spec.fine_cells} {spec.margin_cells}\n")
    with open(path, "wb") as fh:
        yield lambda values, x0: values[min(x0, 1):].astype("<f4").tofile(fh)
