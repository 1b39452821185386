import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvrec.curvature import CurvatureField
from curvrec.errors import EmptyField, MissingCoarseValue, NotCoarseVertex
from curvrec.grid import (AdaptiveGrid, LatticeSpec, coarse_queries, hierarchical_fill,
                          load_field, refine_with_parents, save_field, select_hot)


def fresh_grid(coarse_cells=8, margin_cells=2):
    spec = LatticeSpec(coarse_cells=coarse_cells, margin_cells=margin_cells)
    grid = AdaptiveGrid(spec)
    ids, pos = coarse_queries(spec)
    return spec, grid, ids, pos


def slow_fill(spec, values_by_id):
    """Independent straightforward fill: dict-based, one site at a time."""
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


def test_lattice_spec_geometry():
    spec = LatticeSpec(coarse_cells=128, margin_cells=3)
    assert spec.fine_cells == 256
    assert (spec.coarse_cells + 1) ** 3 == 2146689
    assert spec.coarse_spacing == pytest.approx(1.0 / 122.0)
    assert spec.domain_min == pytest.approx(-0.5 - 3.0 / 122.0)
    # the margin leaves the unit cube fully inside the lattice
    assert spec.domain_min < -0.5
    assert spec.domain_min + spec.coarse_cells * spec.coarse_spacing > 0.5
    with pytest.raises(ValueError):
        LatticeSpec(coarse_cells=6, margin_cells=3)


def test_coarse_queries_minimal():
    spec = LatticeSpec(coarse_cells=1, margin_cells=0)
    ids, pos = coarse_queries(spec)
    assert ids.shape == (8,)
    assert pos.min() == -0.5 and pos.max() == 0.5
    assert np.array_equal(pos[0], [-0.5, -0.5, -0.5])  # id order is lexicographic
    assert np.array_equal(spec.unflatten(ids[0]), [0, 0, 0])


def test_coarse_queries_alignment():
    spec, grid, ids, pos = fresh_grid(coarse_cells=8)
    ijk = spec.unflatten(ids)
    assert not np.any(ijk % 2)
    assert ids.size == (spec.coarse_cells + 1) ** 3
    # lexicographic order of (i, j, k)
    assert np.all(np.diff(ids) > 0)
    # coarse vertex (i,j,k) coincides with fine vertex (2i,2j,2k)
    assert np.allclose(pos, spec.fine_position(ijk))


def test_refine_isolated_interior():
    spec, grid, ids, _ = fresh_grid()
    center = spec.flat_id(np.array([8, 8, 8]))
    new = refine_with_parents(grid, [center])[0]
    assert new.size == 26
    assert np.all(grid.evaluated[new])
    # idempotent
    assert refine_with_parents(grid, [center])[0].size == 0


def test_refine_adjacent_pair():
    spec, grid, ids, _ = fresh_grid()
    a = spec.flat_id(np.array([8, 8, 8]))
    b = spec.flat_id(np.array([10, 8, 8]))
    new = refine_with_parents(grid, [a, b])[0]
    # enumeration oracle: union of both 27-blocks minus evaluated centers
    blocks = set()
    for base in ([8, 8, 8], [10, 8, 8]):
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    blocks.add((base[0] + dx, base[1] + dy, base[2] + dz))
    blocks -= {(8, 8, 8), (10, 8, 8)}
    assert new.size == len(blocks) == 43
    assert set(new.tolist()) == {int(spec.flat_id(np.array(t))) for t in blocks}


def test_new_grid_has_exactly_the_coarse_vertices_evaluated():
    spec, grid, ids, _ = fresh_grid(coarse_cells=5, margin_cells=1)
    assert np.array_equal(np.flatnonzero(grid.evaluated), ids)


def test_refine_corner_clipped():
    spec, grid, ids, _ = fresh_grid()
    corner = spec.flat_id(np.array([0, 0, 0]))
    new = refine_with_parents(grid, [corner])[0]
    assert new.size == 7


def test_refine_rejects_non_coarse():
    spec, grid, ids, _ = fresh_grid()
    odd = spec.flat_id(np.array([1, 0, 0]))
    with pytest.raises(NotCoarseVertex):
        refine_with_parents(grid, [odd])


def test_refine_with_parents_first_wins():
    spec, grid, ids, _ = fresh_grid()
    a = spec.flat_id(np.array([8, 8, 8]))
    b = spec.flat_id(np.array([10, 8, 8]))
    new, parents = refine_with_parents(grid, [a, b])
    assert new.size == 43
    shared = spec.flat_id(np.array([9, 8, 8]))
    assert parents[new == shared][0] == a  # claimed by the earlier hot vertex


def test_select_hot():
    cf = CurvatureField(ids=[3, 7, 9], sigma=[0.05, 0.2, 0.34 - 0.01],
                        p10=0.05, p40=0.1, p60=0.2, p90=0.3)
    assert select_hot(cf, 0.4).size == 0
    assert np.array_equal(select_hot(cf, 0.0), [3, 7, 9])
    assert np.array_equal(select_hot(cf, 0.2), [7, 9])


def test_fill_affine_exact():
    spec, grid, ids, pos = fresh_grid(coarse_cells=6, margin_cells=1)
    rng = np.random.default_rng(0)
    a, b, c, d = rng.normal(size=4)
    grid.set_values(ids, pos @ np.array([a, b, c]) + d)
    hierarchical_fill(grid)
    n = spec.fine_n
    all_ijk = np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    expect = spec.fine_position(all_ijk) @ np.array([a, b, c]) + d
    assert np.abs(grid.values - expect).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(coarse=st.integers(2, 8), data=st.data())
def test_fill_exact_for_affine_fields_after_refinement(coarse, data):
    margin = data.draw(st.integers(0, min(2, (coarse - 1) // 2)), label="margin")
    spec, grid, ids, pos = fresh_grid(coarse_cells=coarse, margin_cells=margin)
    hot = data.draw(st.lists(st.sampled_from(ids.tolist()), max_size=12, unique=True),
                    label="hot")
    new = refine_with_parents(grid, hot)[0]
    coef = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=4, max_size=4),
                              label="coef"))

    def affine(p):
        return p @ coef[:3] + coef[3]

    grid.set_values(ids, affine(pos))
    grid.set_values(new, affine(spec.position_of_id(new)))
    hierarchical_fill(grid)
    expect = affine(spec.position_of_id(np.arange(spec.total_fine_vertices)))
    assert np.abs(grid.values - expect).max() < 1e-12
    assert grid.evaluated_count == ids.size + new.size
    assert grid.evaluated_count + grid.filled_count == spec.total_fine_vertices


def test_fill_constant():
    spec, grid, ids, _ = fresh_grid(coarse_cells=4, margin_cells=1)
    grid.set_values(ids, np.full(ids.size, 3.25))
    hierarchical_fill(grid)
    assert np.all(grid.values == 3.25)
    assert grid.evaluated_count + grid.filled_count == spec.total_fine_vertices


def test_fill_matches_slow_oracle_with_refined_sites():
    spec = LatticeSpec(coarse_cells=2, margin_cells=0)
    grid = AdaptiveGrid(spec)
    ids, pos = coarse_queries(spec)
    rng = np.random.default_rng(1)
    vals = rng.normal(size=ids.size)
    grid.set_values(ids, vals)
    # refine one corner so some odd sites carry evaluated values
    new = refine_with_parents(grid, [spec.flat_id(np.array([2, 2, 2]))])[0]
    new_vals = rng.normal(size=new.size)
    grid.set_values(new, new_vals)

    seed = {int(i): float(v) for i, v in zip(ids, vals)}
    seed.update({int(i): float(v) for i, v in zip(new, new_vals)})
    expect = slow_fill(spec, seed)

    hierarchical_fill(grid)
    for fid, v in expect.items():
        assert grid.values[fid] == pytest.approx(v, abs=1e-12)


def test_fill_never_overwrites_evaluated():
    spec, grid, ids, _ = fresh_grid(coarse_cells=4, margin_cells=0)
    grid.set_values(ids, np.zeros(ids.size))
    new = refine_with_parents(grid, [spec.flat_id(np.array([4, 4, 4]))])[0]
    grid.set_values(new, np.full(new.size, 7.0))
    hierarchical_fill(grid)
    assert np.all(grid.values[new] == 7.0)
    assert grid.evaluated_count == ids.size + new.size
    # evaluated-count bound
    assert grid.evaluated_count <= ids.size + 26 * 1


def test_fill_requires_values():
    spec, grid, ids, _ = fresh_grid(coarse_cells=4, margin_cells=0)
    with pytest.raises(MissingCoarseValue):
        hierarchical_fill(grid)
    grid.set_values(ids, np.zeros(ids.size))
    refine_with_parents(grid, [spec.flat_id(np.array([4, 4, 4]))])  # refined sites left NaN
    with pytest.raises(MissingCoarseValue):
        hierarchical_fill(grid)


def test_dense_values_requires_coverage():
    spec, grid, ids, _ = fresh_grid(coarse_cells=4, margin_cells=0)
    grid.set_values(ids, np.zeros(ids.size))
    with pytest.raises(EmptyField):
        grid.dense_values()


def test_field_dump_roundtrip(tmp_path):
    spec, grid, ids, pos = fresh_grid(coarse_cells=4, margin_cells=1)
    grid.set_values(ids, np.linspace(0, 1, ids.size))
    hierarchical_fill(grid)
    path = tmp_path / "field.bin"
    save_field(grid.dense_values(), spec, path)
    header = (tmp_path / "field.bin.hdr").read_text().split()
    assert [int(t) for t in header] == [spec.fine_n, 4, 8, 1]
    values, spec2 = load_field(path)
    assert spec2 == spec
    assert np.abs(values - grid.dense_values()).max() < 1e-6  # float32 dump
