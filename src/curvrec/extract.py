"""Triangle mesh extraction from the dense distance field.

The unsigned field has no zero crossing to contour, so we march on the
offset level set {x : UDF(x) = eps}, a thin two-sided shell around the
surface. Vertices are cached per global cube edge, which makes adjacent
cubes agree exactly along shared faces; the final vertex order is
canonical (sorted by edge key) so output is reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyField
from .grid import LatticeSpec
from .mc_tables import CORNER_OFFSETS, EDGE_AXIS, EDGE_BASE, TRI_TABLE
from .model import TriangleMesh

# Crossing parameter kept strictly inside the edge so crossings on edges
# that share a lattice corner can never coincide (vertex-dedup guarantee).
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


def marching_cubes(field, spec: LatticeSpec, iso: IsoSpec) -> TriangleMesh:
    """Contour field == iso.eps over the lattice with the 256-case tables.

    field must be a fully populated (n, n, n) array on the fine lattice.
    Returns an empty mesh when the level set is not crossed.
    """
    values = np.asarray(field, dtype=np.float64)
    n = spec.fine_n
    if values.size == 0:
        raise EmptyField("empty field")
    if values.shape != (n, n, n):
        raise ValueError(f"field shape {values.shape} does not match lattice {n}^3")
    if np.isnan(values).any():
        raise EmptyField("field has unpopulated (NaN) sites")
    level = iso.eps

    inside = values < level
    # cube index: bit c set when corner c is inside
    cube_idx = np.zeros((n - 1, n - 1, n - 1), dtype=np.uint8)
    for c, (dx, dy, dz) in enumerate(CORNER_OFFSETS):
        cube_idx |= inside[dx:dx + n - 1, dy:dy + n - 1, dz:dz + n - 1].view(np.uint8) << c

    # a cube is crossed unless all its corners lie on one side
    active = np.flatnonzero((cube_idx != 0) & (cube_idx != 255))
    if active.size == 0:
        return TriangleMesh()

    m = n - 1
    ci = active // (m * m)
    cj = (active // m) % m
    ck = active % m
    cases = cube_idx.ravel()[active]

    # collect (cube, local edge) pairs needed by the triangle table
    tri_rows = TRI_TABLE[cases]                      # (a, 16)
    tri_valid = tri_rows >= 0
    counts = tri_valid.sum(axis=1)
    cube_of_corner = np.repeat(np.arange(active.size), counts)
    local_edges = tri_rows[tri_valid]                # flattened corner stream

    # canonical global edge key for every referenced crossing
    base = np.stack([ci, cj, ck], axis=1)[cube_of_corner] + EDGE_BASE[local_edges]
    axis = EDGE_AXIS[local_edges]
    edge_key = ((axis.astype(np.int64) * n + base[:, 0]) * n + base[:, 1]) * n + base[:, 2]

    unique_keys, corner_vertex = np.unique(edge_key, return_inverse=True)

    # interpolate one vertex per unique edge
    u_axis = unique_keys // (n ** 3)
    rem = unique_keys % (n ** 3)
    u_ijk = np.stack([rem // (n * n), (rem // n) % n, rem % n], axis=1)
    v0 = values[u_ijk[:, 0], u_ijk[:, 1], u_ijk[:, 2]]
    step = np.zeros_like(u_ijk)
    step[np.arange(u_axis.size), u_axis] = 1
    u2 = u_ijk + step
    v1 = values[u2[:, 0], u2[:, 1], u2[:, 2]]
    denom = v1 - v0
    t = np.where(denom != 0, (level - v0) / np.where(denom != 0, denom, 1.0), 0.5)
    t = np.clip(t, _T_CLAMP, 1.0 - _T_CLAMP)
    p0 = spec.fine_position(u_ijk)
    p1 = spec.fine_position(u2)
    vertices = p0 + t[:, None] * (p1 - p0)

    faces = corner_vertex.reshape(-1, 3)
    return TriangleMesh(vertices, faces)
