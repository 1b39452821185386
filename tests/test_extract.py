import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvrec.errors import EmptyField
from curvrec.extract import IsoSpec, marching_cubes
from curvrec.grid import LatticeSpec
from curvrec.mc_tables import CORNER_OFFSETS, EDGE_AXIS, EDGE_BASE, TRI_TABLE
import oracles


def extract(field, spec, iso):
    """marching_cubes over a dense field given as one slab."""
    return marching_cubes([(field, 0)], spec, iso)


def lattice_positions(spec):
    n = spec.fine_n
    ax = spec.domain_min + np.arange(n) * spec.fine_spacing
    gx, gy, gz = np.meshgrid(ax, ax, ax, indexing="ij")
    return np.stack([gx, gy, gz], axis=-1)


def test_iso_spec():
    spec = LatticeSpec(coarse_cells=8, margin_cells=1)
    assert IsoSpec.half_cell(spec).eps == pytest.approx(spec.fine_spacing / 2)
    with pytest.raises(ValueError):
        IsoSpec(eps=0.0)


def test_only_all_in_and_all_out_cases_have_no_triangles():
    # marching_cubes picks the crossed cubes by case value alone
    assert [c for c in range(256) if TRI_TABLE[c, 0] < 0] == [0, 255]


def test_edge_table_derived_from_corner_pairs():
    # the values the 12 edges were typed with before they were derived
    assert EDGE_AXIS.dtype == EDGE_BASE.dtype == np.int32
    assert EDGE_AXIS.tolist() == [0, 1, 0, 1, 0, 1, 0, 1, 2, 2, 2, 2]
    assert EDGE_BASE.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 0],
                                  [0, 0, 1], [1, 0, 1], [0, 1, 1], [0, 0, 1],
                                  [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]


def test_triangle_edges_join_an_inside_and_an_outside_corner():
    # so the two ends of an interpolated edge never hold equal values
    bit = {tuple(c): b for b, c in enumerate(CORNER_OFFSETS.tolist())}
    for case in range(256):
        for e in TRI_TABLE[case][TRI_TABLE[case] >= 0]:
            ends = [EDGE_BASE[e], EDGE_BASE[e] + np.eye(3, dtype=int)[EDGE_AXIS[e]]]
            inside = [(case >> bit[tuple(end.tolist())]) & 1 for end in ends]
            assert inside[0] != inside[1]


def test_field_above_level_gives_empty_mesh():
    spec = LatticeSpec(coarse_cells=4, margin_cells=1)
    n = spec.fine_n
    mesh = extract(np.ones((n, n, n)), spec, IsoSpec(eps=0.5))
    assert mesh.num_vertices == 0 and mesh.num_faces == 0


def test_nan_field_rejected():
    spec = LatticeSpec(coarse_cells=4, margin_cells=1)
    n = spec.fine_n
    bad = np.ones((n, n, n))
    bad[1, 1, 1] = np.nan
    with pytest.raises(EmptyField):
        extract(bad, spec, IsoSpec(eps=0.5))
    with pytest.raises(ValueError):
        marching_cubes([(np.ones((3, 3, 3)), 0)], spec, IsoSpec(eps=0.5))
    with pytest.raises(ValueError):  # past the lattice's last plane
        marching_cubes([(np.ones((3, n, n)), n - 2)], spec, IsoSpec(eps=0.5))


def test_single_interior_vertex_octahedron():
    spec = LatticeSpec(coarse_cells=4, margin_cells=1)
    n = spec.fine_n
    field = np.ones((n, n, n))
    field[4, 4, 4] = 0.0
    mesh = extract(field, spec, IsoSpec(eps=0.5))
    # 8 cubes share the low vertex; each contributes one corner triangle
    assert mesh.num_faces == 8
    assert mesh.num_vertices == 6  # octahedron corners, shared through the cache
    center = spec.fine_position(np.array([4, 4, 4]))
    d = np.linalg.norm(mesh.vertices - center, axis=1)
    assert np.allclose(d, 0.5 * spec.fine_spacing, rtol=1e-5)


def sphere_field(spec, radius):
    pos = lattice_positions(spec)
    return np.abs(np.linalg.norm(pos, axis=-1) - radius)


def test_sphere_two_shells_radii():
    spec = LatticeSpec(coarse_cells=24, margin_cells=2)
    eps = spec.fine_spacing / 2
    mesh = extract(sphere_field(spec, 0.3), spec, IsoSpec(eps))
    r = np.linalg.norm(mesh.vertices, axis=1)
    cell = spec.fine_spacing
    assert r.min() > 0.3 - eps - cell and r.max() < 0.3 + eps + cell
    # two shells: radii cluster on both sides of 0.3
    assert (r < 0.3).any() and (r > 0.3).any()
    inner = r[r < 0.3]
    outer = r[r >= 0.3]
    assert abs(np.median(inner) - (0.3 - eps)) < cell
    assert abs(np.median(outer) - (0.3 + eps)) < cell


def _vertex_edge_values(mesh, spec, field):
    """For each vertex, locate its lattice edge and linearly interpolate."""
    rel = (mesh.vertices - spec.domain_min) / spec.fine_spacing
    snapped = np.rint(rel)
    off = np.abs(rel - snapped)
    axis = off.argmax(axis=1)
    out = np.empty(mesh.num_vertices)
    for v in range(mesh.num_vertices):
        a = axis[v]
        base = snapped[v].astype(int)
        base[a] = int(np.floor(rel[v, a]))
        t = rel[v, a] - base[a]
        upper = base.copy()
        upper[a] += 1
        out[v] = (1 - t) * field[tuple(base)] + t * field[tuple(upper)]
    return out


def test_vertices_sit_on_level_set():
    spec = LatticeSpec(coarse_cells=12, margin_cells=1)
    eps = spec.fine_spacing / 2
    field = sphere_field(spec, 0.3)
    mesh = extract(field, spec, IsoSpec(eps))
    interp = _vertex_edge_values(mesh, spec, field)
    assert np.abs(interp - eps).max() < 1e-6


def test_no_duplicate_vertices():
    spec = LatticeSpec(coarse_cells=16, margin_cells=1)
    field = sphere_field(spec, 0.3)
    mesh = extract(field, spec, IsoSpec(spec.fine_spacing / 2))
    order = np.lexsort(mesh.vertices.T)
    diffs = np.linalg.norm(np.diff(mesh.vertices[order], axis=0), axis=1)
    assert diffs.min() > 1e-12


def test_faces_reference_distinct_cached_vertices():
    spec = LatticeSpec(coarse_cells=10, margin_cells=1)
    field = sphere_field(spec, 0.25)
    mesh = extract(field, spec, IsoSpec(spec.fine_spacing / 2))
    f = mesh.faces
    assert np.all(f[:, 0] != f[:, 1])
    assert np.all(f[:, 1] != f[:, 2])
    assert np.all(f[:, 0] != f[:, 2])
    # interior faces shared: every vertex referenced at least twice on a closed shell
    counts = np.bincount(f.ravel(), minlength=mesh.num_vertices)
    assert counts.min() >= 2


def test_deterministic():
    spec = LatticeSpec(coarse_cells=8, margin_cells=1)
    field = sphere_field(spec, 0.3)
    a = extract(field, spec, IsoSpec(spec.fine_spacing / 2))
    b = extract(field, spec, IsoSpec(spec.fine_spacing / 2))
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.faces, b.faces)


def _assert_matches_oracle(field, spec, level):
    mesh = extract(field, spec, IsoSpec(level))
    for vertices, faces in (oracles.marching_cubes(field, spec, level),
                            oracles.dense_marching_cubes(field, spec, level)):
        assert np.array_equal(mesh.vertices, vertices)
        assert np.array_equal(mesh.faces, faces)
    return mesh


@settings(max_examples=60, deadline=None)
@given(coarse=st.integers(1, 4), data=st.data())
def test_matches_per_cube_oracle(coarse, data):
    # same vertices in the same (axis, i, j, k) edge order, same faces;
    # random fields cross the level on the lattice's outer faces too, and
    # sites exactly at the level reach the crossing clamp
    margin = data.draw(st.integers(0, min(1, (coarse - 1) // 2)), label="margin")
    spec = LatticeSpec(coarse_cells=coarse, margin_cells=margin)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    n = spec.fine_n
    field = rng.random((n, n, n))
    level = 0.5
    field[rng.random((n, n, n)) < data.draw(st.sampled_from([0.0, 0.2]))] = level
    _assert_matches_oracle(field, spec, level)


def test_matches_oracle_on_outer_faces():
    # only the outer shell of sites lies below the level: every crossing
    # is on an edge that touches a face of the lattice
    spec = LatticeSpec(coarse_cells=3, margin_cells=1)
    n = spec.fine_n
    field = np.zeros((n, n, n))
    field[1:-1, 1:-1, 1:-1] = 1.0
    mesh = _assert_matches_oracle(field, spec, 0.5)
    half = spec.fine_spacing / 2
    lo, hi = spec.domain_min + half, spec.fine_position(n - 1) - half
    assert mesh.num_faces > 0
    assert (np.isclose(mesh.vertices, lo) | np.isclose(mesh.vertices, hi)).any(axis=1).all()


def test_affine_field_plane():
    # UDF of the plane z = 0 restricted near it: extract z = +/- eps planes
    spec = LatticeSpec(coarse_cells=8, margin_cells=1)
    pos = lattice_positions(spec)
    field = np.abs(pos[..., 2])
    eps = 0.75 * spec.fine_spacing
    mesh = extract(field, spec, IsoSpec(eps))
    z = mesh.vertices[:, 2]
    assert np.allclose(np.abs(z), eps, atol=1e-9 + eps * 2e-6)


@settings(max_examples=60, deadline=None)
@given(coarse=st.integers(1, 6), data=st.data())
def test_slabs_cut_anywhere_match_the_dense_oracle(coarse, data):
    # the slabs of a dense field cut at any planes, each of 2 planes or
    # more and sharing its first plane with the slab before, give the dense
    # extraction's bits: a crossed edge on a cut is found by both slabs
    spec = LatticeSpec(coarse_cells=coarse, margin_cells=0)
    n = spec.fine_n
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    field = rng.random((n, n, n))
    field[rng.random((n, n, n)) < data.draw(st.sampled_from([0.0, 0.2]))] = 0.5
    cuts = data.draw(st.lists(st.integers(1, n - 2), unique=True), label="cuts")
    planes = [0, *sorted(cuts), n - 1]
    slabs = [(field[a:b + 1], a) for a, b in zip(planes, planes[1:])]
    mesh = marching_cubes(slabs, spec, IsoSpec(0.5))
    vertices, faces = oracles.dense_marching_cubes(field, spec, 0.5)
    assert np.array_equal(mesh.vertices, vertices)
    assert np.array_equal(mesh.faces, faces)
