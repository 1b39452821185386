"""Triangle mesh extraction from the distance field's active blocks.

The unsigned field has no zero crossing to contour, so we march on the
offset level set {x : UDF(x) = eps}, a thin two-sided shell around the
surface. Vertices are cached per global lattice edge, keyed
axis * n^3 + flat id of the edge's lower end, which makes adjacent cubes
agree exactly along shared faces, also across blocks; vertices are sorted
by that key, the (axis, i, j, k) order, so output is reproducible.

Blocks are extracted one x slab (blocks sharing their x block index) at a
time, as AdaptiveGrid.slabs builds and fills them, so the blocks and the
temporaries stay bounded by a slab. Faces run in the lattice's
cube order (cube flat id, then table order): a slab's blocks interleave in
that order, so its crossed cubes are sorted by flat id, and every cube of
one slab precedes every cube of the next.

Each crossing is clamped to lie at least _T_CLAMP of its edge from either
end, so crossings on edges that share a lattice site never coincide. A
crossing that near a site still gives sliver faces, of area down to
~1e-15 in normalized units (6 under 1e-12 on a 50k-point sphere at coarse
64); they stay, because welding them would merge the vertices of distinct
edges.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyField
from .grid import BLOCK, SIDE, SITE_STRIDES, LatticeSpec, clear_past, site_index
from .mc_tables import CORNER_OFFSETS, EDGE_AXIS, EDGE_BASE, TRI_TABLE
from .model import TriangleMesh

_T_CLAMP = 1e-6


@dataclass(frozen=True)
class IsoSpec:
    """Offset level for shell extraction."""

    eps: float

    def __post_init__(self):
        if not (self.eps > 0):
            raise ValueError("offset level must be positive")

    @classmethod
    def half_cell(cls, spec: LatticeSpec):
        return cls(eps=spec.fine_spacing / 2.0)


def marching_cubes(slabs, spec: LatticeSpec, iso: IsoSpec) -> TriangleMesh:
    """Contour field == iso.eps over the lattice with the 256-case tables.

    slabs gives (values, coords) per x slab of lattice blocks, in ascending
    x, as AdaptiveGrid.slabs builds them: values (A_s, BLOCK + 1, BLOCK + 1,
    BLOCK + 1), fully populated inside the lattice, and coords (A_s, 3) the
    blocks' coordinates in ascending flat id. Each slab is dropped once its
    vertices are found. A cube is extracted by the block that holds it at
    its lowest corner; the cubes of blocks not given must not cross the
    level. Returns an empty mesh when the level set is not crossed.
    """
    slabs = [_slab_vertices(values, coords, spec, iso.eps) for values, coords in slabs]
    if not slabs:
        raise EmptyField("empty field")

    # merge the slabs' vertices, which share the edges on the planes between
    # slabs, into one list ordered by key; both slabs give a shared edge the
    # same crossing, since every stored copy of a site holds the same value
    unique_keys = np.concatenate([slab_keys for slab_keys, _, _ in slabs])
    if unique_keys.size == 0:
        return TriangleMesh()
    unique_keys.sort()
    unique_keys = unique_keys[np.r_[True, unique_keys[1:] != unique_keys[:-1]]]
    t = np.empty(unique_keys.size)
    faces = np.empty(sum(corner_vertex.size for _, _, corner_vertex in slabs), dtype=np.int64)
    done = faces.size
    while slabs:  # from the last slab back, freeing each slab's arrays once merged
        slab_keys, crossings, corner_vertex = slabs.pop()
        vertex = np.searchsorted(unique_keys, slab_keys)
        t[vertex] = crossings
        done -= corner_vertex.size
        faces[done:done + corner_vertex.size] = vertex[corner_vertex]

    n = spec.fine_n
    # a vertex's position per axis, as fine_position gives its edge's ends,
    # one axis at a time from the last
    axis, lower = np.divmod(unique_keys, n ** 3)
    del unique_keys
    vertices = np.empty((axis.size, 3))
    for a in (2, 1, 0):
        lower, index = np.divmod(lower, n)
        p0 = spec.fine_position(index)
        index += axis == a
        step = spec.fine_position(index)
        step -= p0
        step *= t
        step += p0  # p0 + t * (p1 - p0)
        vertices[:, a] = step
    return TriangleMesh(vertices, faces.reshape(-1, 3))


def _slab_vertices(slab, at, spec, level):
    """(edge keys, crossings, corners) of one slab of blocks, slab its
    values and at its block coordinates: the ascending keys of the edges
    its crossed cubes' triangles use, each edge's crossing as a fraction of
    the edge from its lower end, and per triangle corner, in face order,
    its edge's index in those keys."""
    slab = np.asarray(slab, dtype=np.float64)
    at = np.asarray(at, dtype=np.int64).reshape(-1, 3)
    if slab.shape != (len(at),) + (SIDE,) * 3:
        raise ValueError(f"slab shape {slab.shape} is not {len(at)} blocks of {SIDE}^3")
    n = spec.fine_n
    # a triangle corner's edge: its global key from the cube's flat id, and
    # its lower end's index in the slab from the cube's lowest corner
    edge_key = EDGE_AXIS.astype(np.int64) * n ** 3 + spec.flat_id(EDGE_BASE)
    edge_site = EDGE_BASE @ SITE_STRIDES
    if np.isnan(slab).any():  # allowed past the lattice's last plane
        unset = np.isnan(slab)
        clear_past(unset, at, spec, False)
        if unset.any():
            raise EmptyField("field has unpopulated (NaN) sites")

    # case[s, i, j, k]: case of the cube whose lowest corner is (i, j, k)
    # in block s, bit c set when corner c is inside
    inside = slab < level
    case = np.zeros((len(at),) + (BLOCK,) * 3, dtype=np.uint8)
    for c, (dx, dy, dz) in enumerate(CORNER_OFFSETS):
        case |= inside[:, dx:dx + BLOCK, dy:dy + BLOCK, dz:dz + BLOCK].view(np.uint8) << c
    clear_past(case, at, spec, 0)

    # a cube is crossed unless all its corners lie on one side; blocks
    # interleave in the lattice's cube order, so sort the slab's cubes by
    # flat id, and the slabs follow each other in that order
    crossed = np.flatnonzero((case != 0) & (case != 255))
    s, i, j, k = np.unravel_index(crossed, case.shape)
    origin = spec.flat_id(BLOCK * at[s] + np.stack([i, j, k], axis=-1))
    order = np.argsort(origin)
    origin, crossed = origin[order], crossed[order]
    # the cube's lowest corner, as an index into the slab's sites
    lowest = site_index(s, i, j, k)[order]

    tri_rows = TRI_TABLE[case.reshape(-1)[crossed]]    # (a, 16)
    tri_valid = tri_rows >= 0
    per_cube = tri_valid.sum(axis=1)
    edges = tri_rows[tri_valid]
    keys, first, corner_vertex = np.unique(
        np.repeat(origin, per_cube) + edge_key[edges], return_index=True, return_inverse=True)

    # interpolate one vertex per edge; a table edge always joins an
    # inside and an outside end, so v0 != v1
    cube = np.searchsorted(np.cumsum(per_cube), first, side="right")
    lower = lowest[cube] + edge_site[edges[first]]
    flat = slab.reshape(-1)
    v0, v1 = flat[lower], flat[lower + SITE_STRIDES[EDGE_AXIS[edges[first]]]]
    return (keys, np.clip((level - v0) / (v1 - v0), _T_CLAMP, 1.0 - _T_CLAMP),
            corner_vertex.astype(np.int32))
