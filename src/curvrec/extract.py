"""Triangle mesh extraction from the distance field's x slabs.

The unsigned field has no zero crossing to contour, so we march on the
offset level set {x : UDF(x) = eps}, a thin two-sided shell around the
surface. Vertices are cached per global lattice edge, keyed
axis * n^3 + flat id of the edge's lower end, which makes adjacent cubes
agree exactly along shared faces, also across slabs; vertices are sorted
by that key, the (axis, i, j, k) order, so output is reproducible.

The lattice is extracted one dense x slab at a time, as AdaptiveGrid.slabs
builds and fills them, so the temporaries stay bounded by a slab. Faces
run in the lattice's cube order (cube flat id, then table order): flat ids
are x-major, so a slab's crossed cubes come out of np.flatnonzero in flat
id order, and every cube of one slab precedes every cube of the next.

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
from .grid import LatticeSpec
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

    slabs gives (values, x0) per x slab of the lattice, in ascending x, as
    AdaptiveGrid.slabs builds them: values (planes, n, n), fully populated,
    holds planes x0 through x0 + planes - 1, and each slab starts at the
    last plane of the one before. Each slab is dropped once its vertices
    are found. Returns an empty mesh when the level set is not crossed.
    """
    slabs = [_slab_vertices(values, x0, spec, iso.eps) for values, x0 in slabs]
    if not slabs:
        raise EmptyField("empty field")

    # merge the slabs' vertices, which share the edges on the planes between
    # slabs, into one list ordered by key; both slabs give a shared edge the
    # same crossing, since both slabs hold the same values on that plane
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


def _slab_vertices(slab, x0, spec, level):
    """(edge keys, crossings, corners) of one slab, slab its values from
    plane x0 on: the ascending keys of the edges its crossed cubes'
    triangles use, each edge's crossing as a fraction of the edge from its
    lower end, and per triangle corner, in face order, its edge's index in
    those keys."""
    slab = np.asarray(slab, dtype=np.float64)
    n = spec.fine_n
    if slab.ndim != 3 or slab.shape[1:] != (n, n) or not 2 <= len(slab) <= n - x0:
        raise ValueError(f"slab shape {slab.shape} from plane {x0} is not a slab of "
                         f"the {n}^3 lattice")
    if np.isnan(slab).any():
        raise EmptyField("field has unpopulated (NaN) sites")
    # a triangle corner's edge: its global key from the cube's flat id, and
    # its lower end's index in the slab from the cube's lowest corner
    strides = np.array([n * n, n, 1])
    edge_key = EDGE_AXIS.astype(np.int64) * n ** 3 + spec.flat_id(EDGE_BASE)
    edge_site = EDGE_BASE @ strides

    # case[i, j, k]: case of the cube whose lowest corner is (i, j, k) in
    # the slab, bit c set when corner c is inside
    inside = slab < level
    p = len(slab) - 1
    case = np.zeros((p, n - 1, n - 1), dtype=np.uint8)
    for c, (dx, dy, dz) in enumerate(CORNER_OFFSETS):
        case |= inside[dx:dx + p, dy:dy + n - 1, dz:dz + n - 1].view(np.uint8) << c

    # a cube is crossed unless all its corners lie on one side; flat ids
    # are x-major, so the crossed cubes come in the lattice's cube order
    crossed = np.flatnonzero((case != 0) & (case != 255))
    i, j, k = np.unravel_index(crossed, case.shape)
    # the cube's lowest corner, as an index into the slab's sites, and its flat id
    lowest = (i * n + j) * n + k
    origin = lowest + x0 * n * n

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
    v0, v1 = flat[lower], flat[lower + strides[EDGE_AXIS[edges[first]]]]
    return (keys, np.clip((level - v0) / (v1 - v0), _T_CLAMP, 1.0 - _T_CLAMP),
            corner_vertex.astype(np.int32))
