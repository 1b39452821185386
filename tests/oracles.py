"""Reference implementations the batched pipeline code is checked against,
and helpers only tests use.

Each scalar function handles one point set (or one query and its patch)
with plain numpy, in the most direct form of the formula.
"""

import itertools

import numpy as np

from curvrec.curvature import DEGENERATE_TRACE
from curvrec.errors import EmptyField, EmptyInput
from curvrec.estimator import _PLANE_DEGENERACY
from curvrec.extract import _T_CLAMP
from curvrec.grid import LatticeSpec, field_writer
from curvrec.mc_tables import CORNER_OFFSETS, EDGE_AXIS, EDGE_BASE, TRI_TABLE
from curvrec.metrics import _chamfer, _f1, _matches, _nc


def covariance3(points):
    """Population covariance (1/m) * sum (p - mean)(p - mean)^T."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise EmptyInput("covariance of zero points")
    centered = pts - pts.mean(axis=0)
    return centered.T @ centered / pts.shape[0]


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


def estimate_nearest_point(q, patch) -> float:
    """Minimum Euclidean distance from the query to the patch points."""
    pts = np.asarray(patch, dtype=np.float64).reshape(-1, 3)
    d = pts - np.asarray(q, dtype=np.float64)
    return float(np.sqrt((d * d).sum(axis=1).min()))


def estimate_plane_fit(q, patch) -> float:
    """Distance to the best-fit patch plane, clamped by the nearest point.

    The plane passes through the patch centroid with the smallest
    covariance eigenvector as normal. Collinear or coincident patches
    (no unique plane) fall back to the nearest-point value. The normal is
    the last right singular vector of the centred points: its rounding
    grows with the patch's aspect ratio, where the covariance's grows with
    its square.
    """
    pts = np.asarray(patch, dtype=np.float64).reshape(-1, 3)
    nearest = estimate_nearest_point(q, patch)
    if pts.shape[0] < 3:
        return nearest
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    w = np.linalg.eigvalsh(centered.T @ centered / pts.shape[0])
    trace = w.sum()
    if trace < _PLANE_DEGENERACY or w[1] < _PLANE_DEGENERACY * trace:
        return nearest
    normal = np.linalg.svd(centered)[2][-1]
    plane = abs(float((np.asarray(q, dtype=np.float64) - centroid) @ normal))
    return min(plane, nearest)


_MASK64 = 2 ** 64 - 1


def splitmix64(x: int) -> int:
    """splitmix64's output for the state x, in Python integers."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def resample(points, sigma, policy, query_id=0, point_ids=None):
    """Bring a raw neighborhood to exactly policy.target_count points.

    count > target: keep the target points of smallest key
    splitmix64(splitmix64(seed ^ query_id) ^ point id), where point_ids
    (default 0..count-1) are the points' indices in the cloud.
    count < target, sigma below threshold: append centroid copies.
    count < target, sigma at/above threshold: duplicate existing points
    round-robin in ascending index order. Empty input stays empty.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = pts.shape[0]
    target = policy.target_count
    if n == 0 or n == target:
        return pts
    if n > target:
        ids = range(n) if point_ids is None else [int(i) for i in point_ids]
        seed = splitmix64(policy.rng_seed ^ int(query_id))
        keys = [splitmix64(seed ^ i) for i in ids]
        return pts[sorted(range(n), key=keys.__getitem__)[:target]]
    if sigma < policy.curvature_threshold:
        fill = np.broadcast_to(pts.mean(axis=0), (target - n, 3))
    else:
        fill = pts[np.arange(target - n) % n]
    return np.concatenate([pts, fill], axis=0)


def obj_text(vertices, faces):
    """OBJ text of a mesh as `v`/`f` lines, each coordinate formatted on
    its own as its shortest round-trip text (%r)."""
    return "".join(["v %r %r %r\n" % tuple(v) for v in np.asarray(vertices).tolist()]
                   + ["f %d %d %d\n" % tuple(f) for f in (np.asarray(faces) + 1).tolist()])


def xyz_text(points, normals=None):
    """XYZ text of a cloud, one `%r` line per row of points and normals
    joined side by side (3 or 6 values a line)."""
    rows = points if normals is None else np.hstack([points, normals])
    line = " ".join(["%r"] * rows.shape[1]) + "\n"
    return "".join(line % tuple(row) for row in rows.tolist())


def marching_cubes(field, spec, level):
    """(vertices, faces) of field == level, one cube at a time.

    Each cube's triangles come from TRI_TABLE; a dict keyed by the global
    edge (axis, i, j, k) of a corner's crossing, (i, j, k) the edge's lower
    end, gives each edge one vertex, and vertices are ordered by that key.
    """
    f = np.asarray(field, dtype=np.float64)
    n = spec.fine_n
    corners = []
    for i in range(n - 1):
        for j in range(n - 1):
            for k in range(n - 1):
                case = sum(1 << c for c, (dx, dy, dz) in enumerate(CORNER_OFFSETS)
                           if f[i + dx, j + dy, k + dz] < level)
                for e in TRI_TABLE[case]:
                    if e < 0:
                        break
                    di, dj, dk = EDGE_BASE[e]
                    corners.append((int(EDGE_AXIS[e]), i + di, j + dj, k + dk))
    vertex_of = {key: v for v, key in enumerate(sorted(set(corners)))}
    vertices = np.empty((len(vertex_of), 3))
    for key, v in vertex_of.items():
        lower = np.array(key[1:])
        upper = lower.copy()
        upper[key[0]] += 1
        v0, v1 = f[tuple(lower)], f[tuple(upper)]
        t = min(max((level - v0) / (v1 - v0), _T_CLAMP), 1.0 - _T_CLAMP)
        p0, p1 = spec.fine_position(lower), spec.fine_position(upper)
        vertices[v] = p0 + t * (p1 - p0)
    faces = np.array([vertex_of[key] for key in corners], dtype=np.int64).reshape(-1, 3)
    return vertices, faces


def dense_marching_cubes(field, spec, level):
    """(vertices, faces) of field == level over the whole (n, n, n) lattice
    at once: the uint8 case of every cube, one key per triangle corner
    (axis * n^3 + flat id of the edge's lower end) and one np.unique."""
    values = np.asarray(field, dtype=np.float64)
    n = spec.fine_n
    inside = values < level
    cube_idx = np.zeros((n, n, n), dtype=np.uint8)
    for c, (dx, dy, dz) in enumerate(CORNER_OFFSETS):
        cube_idx[:-1, :-1, :-1] |= inside[dx:dx + n - 1, dy:dy + n - 1,
                                          dz:dz + n - 1].view(np.uint8) << c
    origin = np.flatnonzero((cube_idx != 0) & (cube_idx != 255))
    tri_rows = TRI_TABLE[cube_idx.ravel()[origin]]
    tri_valid = tri_rows >= 0
    edge_offset = EDGE_AXIS.astype(np.int64) * n ** 3 + spec.flat_id(EDGE_BASE)
    edge_key = np.repeat(origin, tri_valid.sum(axis=1)) + edge_offset[tri_rows[tri_valid]]
    unique_keys, corner_vertex = np.unique(edge_key, return_inverse=True)
    axis, lower = np.divmod(unique_keys, n ** 3)
    upper = lower + np.array([n * n, n, 1])[axis]
    v0, v1 = values.ravel()[lower], values.ravel()[upper]
    t = np.clip((level - v0) / (v1 - v0), _T_CLAMP, 1.0 - _T_CLAMP)
    p0, p1 = spec.position_of_id(lower), spec.position_of_id(upper)
    return p0 + t[:, None] * (p1 - p0), corner_vertex.reshape(-1, 3)


def dense_hierarchical_fill(values, evaluated):
    """The fill over the whole (n, n, n) lattice at once, in place: one
    strided slice per parity class, its 2k neighbor slices summed in order."""
    n = values.shape[0]
    for k in (1, 2, 3):
        for odd in itertools.combinations(range(3), k):
            site = tuple(slice(1, n - 1, 2) if a in odd else slice(0, n, 2) for a in range(3))
            neighbors = [site[:a] + (side,) + site[a + 1:] for a in odd
                         for side in (slice(0, n - 2, 2), slice(2, n, 2))]
            acc = values[neighbors[0]].copy()
            for nb in neighbors[1:]:
                acc += values[nb]
            acc /= 2 * k
            target = values[site]
            open_sites = ~evaluated[site]
            target[open_sites] = acc[open_sites]
    return values


def dense_values(grid):
    """The grid's filled field as one (n, n, n) array: its slabs stacked,
    each but the first without the plane it shares with the slab before."""
    return np.concatenate([values[min(x0, 1):] for values, x0 in grid.slabs()])


def save_field(slabs, spec, path):
    """Dump the field, given as its x slabs (values, x0) in ascending x, as
    grid.field_writer writes them."""
    with field_writer(spec, path) as write:
        for values, x0 in slabs:
            write(values, x0)


def load_field(path):
    """Read a grid.field_writer dump back: (values (n, n, n) float64, LatticeSpec)."""
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


def refine_with_parents(spec, evaluated, hot_ids):
    """(new ids, parents) by enumeration: each hot id in turn claims every
    site of its 3x3x3 block that lies in the lattice, is not evaluated and
    is not claimed yet."""
    n = spec.fine_n
    claimed = {}
    for h in hot_ids:
        i, rest = divmod(int(h), n * n)
        j, k = divmod(rest, n)
        for a in (i - 1, i, i + 1):
            for b in (j - 1, j, j + 1):
                for c in (k - 1, k, k + 1):
                    if 0 <= a < n and 0 <= b < n and 0 <= c < n:
                        site = (a * n + b) * n + c
                        if not evaluated[site]:
                            claimed.setdefault(site, int(h))
    new = sorted(claimed)
    return (np.array(new, dtype=np.int64),
            np.array([claimed[s] for s in new], dtype=np.int64))


def hierarchical_fill(spec, values_by_id):
    """Fill by the three passes written out case by case: a dict from flat id
    to value, one site at a time. Sites already in values_by_id keep their
    value."""
    n = spec.fine_n
    vals = dict(values_by_id)

    def get(i, j, k):
        return vals[spec.flat_id(np.array([i, j, k]))]

    def put(i, j, k, v):
        vals.setdefault(int(spec.flat_id(np.array([i, j, k]))), v)

    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (i % 2) + (j % 2) + (k % 2) == 1:
                    if i % 2:
                        put(i, j, k, (get(i - 1, j, k) + get(i + 1, j, k)) / 2)
                    elif j % 2:
                        put(i, j, k, (get(i, j - 1, k) + get(i, j + 1, k)) / 2)
                    else:
                        put(i, j, k, (get(i, j, k - 1) + get(i, j, k + 1)) / 2)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (i % 2) + (j % 2) + (k % 2) == 2:
                    if i % 2 and j % 2:
                        nb = [(i - 1, j, k), (i + 1, j, k), (i, j - 1, k), (i, j + 1, k)]
                    elif i % 2 and k % 2:
                        nb = [(i - 1, j, k), (i + 1, j, k), (i, j, k - 1), (i, j, k + 1)]
                    else:
                        nb = [(i, j - 1, k), (i, j + 1, k), (i, j, k - 1), (i, j, k + 1)]
                    put(i, j, k, sum(get(*t) for t in nb) / 4)
    for i in range(1, n, 2):
        for j in range(1, n, 2):
            for k in range(1, n, 2):
                nb = [(i - 1, j, k), (i + 1, j, k), (i, j - 1, k), (i, j + 1, k),
                      (i, j, k - 1), (i, j, k + 1)]
                put(i, j, k, sum(get(*t) for t in nb) / 6)
    return vals


def coarse_queries(spec):
    """All coarse vertices as (flat fine ids, positions), lexicographic order."""
    axis = np.arange(0, spec.fine_n, 2, dtype=np.int64)
    i, j, k = np.meshgrid(axis, axis, axis, indexing="ij")
    ijk = np.stack([i.ravel(), j.ravel(), k.ravel()], axis=1)
    return spec.flat_id(ijk), spec.fine_position(ijk)


def sheets_cloud(count, gap=0.045, side=1.0, noise=0.0, seed=0):
    """(points, normals) of fixtures.sheets_cloud, each sheet built whole
    and jittered by rng.normal, then the sheets stacked."""
    rng = np.random.default_rng(seed)
    half = count // 2
    pieces, normals = [], []
    for m, z in zip((half, count - half), (gap / 2.0, -gap / 2.0)):
        xy = (rng.random(size=(m, 2)) - 0.5) * side
        pts = np.column_stack([xy, np.full(m, z)])
        if noise > 0:
            pts = pts + rng.normal(scale=noise, size=pts.shape)
        pieces.append(pts)
        nrm = np.zeros((m, 3))
        nrm[:, 2] = np.sign(z) if z != 0 else 1.0
        normals.append(nrm)
    return np.vstack(pieces), np.vstack(normals)


def sheet_membership(cloud_size):
    """Index split of fixtures.sheets_cloud: (upper sheet indices, lower sheet indices)."""
    half = cloud_size // 2
    return np.arange(half), np.arange(half, cloud_size)


def chamfer(a, b, workers=1) -> float:
    """x1000 * (mean_a min-dist-to-b + mean_b min-dist-to-a)."""
    return _chamfer(*_matches(a, b, "chamfer distance", workers))


def f1_score(a, b, tau, workers=1) -> float:
    """Harmonic precision/recall mean at closed distance threshold tau."""
    if tau <= 0:
        raise ValueError("threshold must be positive")
    return _f1(*_matches(a, b, "f1", workers), tau)


def normal_consistency(a, b, workers=1) -> float:
    """Symmetric mean |cos| between nearest-neighbor-matched normals."""
    return _nc(a, b, *_matches(a, b, "normal consistency", workers))
