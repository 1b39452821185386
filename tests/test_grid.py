import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from curvrec import grid as grid_module
from curvrec.curvature import CurvatureField
from curvrec.errors import MissingCoarseValue, NotCoarseVertex
from curvrec.extract import IsoSpec, marching_cubes
from curvrec.grid import (SLAB, AdaptiveGrid, LatticeSpec, hierarchical_fill, load_field,
                          refine_with_parents, save_field, select_hot)
import oracles
from oracles import coarse_queries


def every_site(grid):
    return np.arange(grid.spec.total_fine_vertices)


def fresh_grid(coarse_cells=8, margin_cells=2):
    spec = LatticeSpec(coarse_cells=coarse_cells, margin_cells=margin_cells)
    grid = AdaptiveGrid(spec)
    ids, pos = coarse_queries(spec)
    return spec, grid, ids, pos


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
    assert np.all(grid.evaluated_at(new))
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
    assert np.array_equal(np.flatnonzero(grid.evaluated_at(every_site(grid))), ids)


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


def test_refine_rejects_ids_outside_the_lattice():
    spec, grid, ids, _ = fresh_grid()
    for bad in (-1, spec.total_fine_vertices):
        with pytest.raises(NotCoarseVertex, match=f"id {bad} is outside the lattice"):
            refine_with_parents(grid, [ids[0], bad])
    assert grid.evaluated_count == ids.size


def test_refine_with_parents_first_wins():
    spec, grid, ids, _ = fresh_grid()
    a = spec.flat_id(np.array([8, 8, 8]))
    b = spec.flat_id(np.array([10, 8, 8]))
    new, parents = refine_with_parents(grid, [a, b])
    assert new.size == 43
    shared = spec.flat_id(np.array([9, 8, 8]))
    assert parents[new == shared][0] == a  # claimed by the earlier hot vertex


@settings(max_examples=60, deadline=None)
@given(coarse=st.integers(1, 5), data=st.data())
def test_refine_matches_enumeration_on_faces_and_corners(coarse, data):
    # hot sets hold both extreme corners and a vertex on each of the six
    # faces, so a flat offset that wraps at a face would claim a wrong site
    margin = data.draw(st.integers(0, (coarse - 1) // 2), label="margin")
    spec, grid, ids, _ = fresh_grid(coarse_cells=coarse, margin_cells=margin)
    index = st.integers(0, coarse)

    def draw_vertex(axis=None, side=None):
        ijk = [data.draw(index) for _ in range(3)]
        if axis is not None:
            ijk[axis] = side
        return int(spec.flat_id(2 * np.array(ijk)))

    for _ in range(2):  # the second call meets sites the first refined
        hot = [0, spec.total_fine_vertices - 1]  # the two extreme corners
        hot += [draw_vertex(axis, side) for axis in range(3) for side in (0, coarse)]
        hot += [draw_vertex() for _ in range(data.draw(st.integers(0, 4)))]
        hot = data.draw(st.permutations(list(dict.fromkeys(hot))), label="hot")
        before = grid.evaluated_at(every_site(grid))
        expect_new, expect_parents = oracles.refine_with_parents(spec, before, hot)
        with pytest.MonkeyPatch.context() as mp:  # chunks that split the hot set
            mp.setattr(grid_module, "_HOT_CHUNK", data.draw(st.integers(1, 13), label="chunk"))
            new, parents = refine_with_parents(grid, hot)
        assert np.array_equal(new, expect_new)
        assert np.array_equal(parents, expect_parents)
        after = before.copy()
        after[new] = True
        assert np.array_equal(grid.evaluated_at(every_site(grid)), after)


def test_select_hot():
    cf = CurvatureField(ids=[3, 7, 9], sigma=[0.05, 0.2, 0.34 - 0.01])
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
    assert np.abs(grid.dense_values().ravel() - expect).max() < 1e-12


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
    assert np.abs(grid.dense_values().ravel() - expect).max() < 1e-12
    assert grid.evaluated_count == ids.size + new.size
    assert grid.evaluated_count + grid.filled_count == spec.total_fine_vertices


def test_fill_constant():
    spec, grid, ids, _ = fresh_grid(coarse_cells=4, margin_cells=1)
    grid.set_values(ids, np.full(ids.size, 3.25))
    hierarchical_fill(grid)
    assert np.all(grid.dense_values() == 3.25)
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
    expect = oracles.hierarchical_fill(spec, seed)

    hierarchical_fill(grid)
    values = grid.dense_values().ravel()
    for fid, v in expect.items():
        assert values[fid] == pytest.approx(v, abs=1e-12)


def _refined_grid(coarse, data):
    """A grid with up to 6 hot vertices refined and every evaluated site set
    to a value of magnitude 1e-3 to 1e3, either sign; returns it with the
    refined ids, the rng that drew the values, and the evaluated ids and
    their values."""
    margin = data.draw(st.integers(0, min(1, (coarse - 1) // 2)), label="margin")
    spec, grid, ids, _ = fresh_grid(coarse_cells=coarse, margin_cells=margin)
    hot = data.draw(st.lists(st.sampled_from(ids.tolist()), max_size=6, unique=True),
                    label="hot")
    new = refine_with_parents(grid, hot)[0]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    evaluated = np.flatnonzero(grid.evaluated_at(every_site(grid)))
    values = _signed_magnitudes(rng, evaluated.size)
    grid.set_values(evaluated, values)
    return grid, new, rng, evaluated, values


def _signed_magnitudes(rng, size):
    return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-3, 3, size)


@settings(max_examples=40, deadline=None)
@given(coarse=st.integers(1, 4), data=st.data())
def test_fill_matches_oracle_bitwise(coarse, data):
    grid, _, _, evaluated, values = _refined_grid(coarse, data)
    expect = oracles.hierarchical_fill(grid.spec, zip(evaluated.tolist(), values.tolist()))
    hierarchical_fill(grid)
    assert len(expect) == grid.spec.total_fine_vertices
    assert np.array_equal(grid.dense_values().ravel(), [expect[i] for i in range(len(expect))])


@settings(max_examples=200, deadline=None)
@given(coarse=st.integers(1, 4), data=st.data())
def test_filled_sites_never_read_refined_sites(coarse, data):
    # a site whose fill reads a refined site lies in the same hot vertex's
    # 3x3x3 neighborhood, so it is refined itself: a later write to the
    # refined sites changes no filled site
    grid, new, rng, _, _ = _refined_grid(coarse, data)
    evaluated = grid.evaluated_at(every_site(grid)).reshape((grid.spec.fine_n,) * 3)
    before = grid.dense_values()
    latest = _signed_magnitudes(rng, new.size)
    grid.set_values(new, latest)  # the later write wins
    after = grid.dense_values()
    assert np.array_equal(after[~evaluated], before[~evaluated])
    assert np.array_equal(after.ravel()[new], latest)
    # with every site evaluated the fill writes nothing
    full = _signed_magnitudes(rng, after.size).reshape(after.shape)
    filled = full.copy()
    grid_module._fill(filled, np.ones(full.shape, dtype=bool))
    assert np.array_equal(filled, full)


@settings(max_examples=30, deadline=None)
@given(coarse=st.integers(1, 20), margin=st.integers(0, 2), baseline=st.booleans(),
       far=st.sampled_from([0.1, 0.3, 0.7]), level=st.sampled_from([0.05, 0.1, 0.5]),
       share=st.sampled_from([0.0, 0.01, 0.2, 1.0]),
       hot=st.lists(st.tuples(*[st.integers(0, 20)] * 3), max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
# margin 0 and 24 fine cells, which SLAB does not divide; hot vertices on a
# slab's shared plane, and on the lattice's corners
@example(coarse=12, margin=0, baseline=False, far=0.7, level=0.5, share=0.01,
         hot=[(8, 3, 5), (8, 8, 3), (8, 8, 8), (0, 0, 0), (12, 12, 12)], seed=0)
# 32 fine cells, which SLAB divides: the last plane is the last slab's
# upper plane; the only band sites are hot, with refined sites on slab planes
@example(coarse=16, margin=1, baseline=False, far=0.3, level=0.1, share=0.0,
         hot=[(8, 8, 8), (16, 8, 4), (8, 16, 16)], seed=1)
@example(coarse=17, margin=2, baseline=True, far=0.7, level=0.5, share=0.01,
         hot=[(8, 8, 8)], seed=2)
def test_slabs_match_dense_oracles(coarse, margin, baseline, far, level, share, hot, seed):
    # the grid given the band's values fills, dumps and extracts the same
    # bits as the whole-lattice kernels with those values and far
    # everywhere else, at a level below far (PipelineConfig refuses others)
    assume(level < far)
    spec = LatticeSpec(coarse_cells=coarse, margin_cells=min(margin, (coarse - 1) // 2))
    n = spec.fine_n
    stride = 1 if baseline else 2
    rng = np.random.default_rng(seed)
    on_stride = np.zeros((n, n, n), dtype=bool)
    on_stride[::stride, ::stride, ::stride] = True
    hot_ids = np.unique(spec.flat_id(2 * (np.array(hot, dtype=np.int64).reshape(-1, 3)
                                          % (coarse + 1))))
    band = np.union1d(np.flatnonzero(on_stride.ravel() & (rng.random(n ** 3) < share)), hot_ids)
    grid = AdaptiveGrid(spec, stride, far)
    values = np.where(on_stride, far, np.nan).ravel()
    evaluated = on_stride.ravel().copy()

    def evaluate(ids):
        v = rng.random(ids.size)
        v[rng.random(ids.size) < 0.2] = level
        grid.set_values(ids, v)
        values[ids] = v

    evaluate(band)
    if not baseline:
        new = refine_with_parents(grid, hot_ids)[0]
        evaluated[new] = True
        evaluate(new)
    seeded = np.flatnonzero(evaluated)
    seed_values = values[seeded]
    hierarchical_fill(grid)
    oracles.dense_hierarchical_fill(values.reshape(n, n, n), evaluated.reshape(n, n, n))
    assert np.array_equal(grid.dense_values().ravel(), values)
    assert grid.evaluated_count == seeded.size
    assert grid.filled_count == n ** 3 - seeded.size

    mesh = marching_cubes(grid.slabs(), spec, IsoSpec(level))
    expect = [oracles.dense_marching_cubes(values.reshape(n, n, n), spec, level)]
    if n <= 25:  # the per-site oracles, where they finish quickly
        fill = oracles.hierarchical_fill(spec, zip(seeded.tolist(), seed_values.tolist()))
        assert np.array_equal([fill[i] for i in range(n ** 3)], values)
        expect.append(oracles.marching_cubes(values.reshape(n, n, n), spec, level))
    for vertices, faces in expect:
        assert np.array_equal(mesh.vertices, vertices)
        assert np.array_equal(mesh.faces, faces)


@settings(max_examples=40, deadline=None)
@given(coarse=st.integers(1, 20), margin=st.integers(0, 2), baseline=st.booleans(),
       far=st.sampled_from([np.nan, 0.3]), share=st.sampled_from([0.0, 0.01, 0.2, 1.0]),
       hot=st.lists(st.tuples(*[st.integers(0, 20)] * 3), max_size=6),
       repeats=st.integers(0, 30), seed=st.integers(0, 2 ** 32 - 1))
# 24 fine cells, which SLAB does not divide: the last slab is thinner;
# refined sites on the plane two slabs share
@example(coarse=12, margin=0, baseline=False, far=np.nan, share=0.01,
         hot=[(8, 3, 5), (8, 8, 3), (8, 8, 8), (0, 0, 0), (12, 12, 12)], repeats=10, seed=0)
@example(coarse=16, margin=1, baseline=True, far=0.3, share=0.2, hot=[(8, 8, 8)], repeats=5,
         seed=1)
def test_each_built_slab_is_the_dense_oracles_planes(coarse, margin, baseline, far, share, hot,
                                                      repeats, seed):
    # every slab slabs() builds holds its planes of the whole-lattice fill
    # over the written values, far at the other stride sites; a site
    # written twice keeps its later value, and building a slab refuses an
    # evaluated site without one
    spec = LatticeSpec(coarse_cells=coarse, margin_cells=min(margin, (coarse - 1) // 2))
    n = spec.fine_n
    stride = 1 if baseline else 2
    rng = np.random.default_rng(seed)
    on_stride = np.zeros((n, n, n), dtype=bool)
    on_stride[::stride, ::stride, ::stride] = True
    hot_ids = np.unique(spec.flat_id(2 * (np.array(hot, dtype=np.int64).reshape(-1, 3)
                                          % (coarse + 1))))
    band = np.union1d(np.flatnonzero(on_stride.ravel() & (rng.random(n ** 3) < share)), hot_ids)
    grid = AdaptiveGrid(spec, stride, far)
    values = np.where(on_stride, far, np.nan).ravel()
    evaluated = on_stride.ravel().copy()

    def evaluate(ids):
        v = rng.random(ids.size)
        grid.set_values(ids, v)
        values[ids] = v

    evaluate(band)
    if not baseline:
        new = refine_with_parents(grid, hot_ids)[0]
        evaluated[new] = True
        evaluate(new)
    evaluate(rng.permutation(band)[:repeats])  # again, in no order
    missing = np.flatnonzero(evaluated & np.isnan(values))
    if missing.size:  # far is NaN: stride sites off the band have no value yet
        with pytest.raises(MissingCoarseValue):
            list(grid.slabs())
        evaluate(missing)
    oracles.dense_hierarchical_fill(values.reshape(n, n, n), evaluated.reshape(n, n, n))
    values = values.reshape(n, n, n)
    starts = []
    for slab, x0 in grid.slabs():
        assert slab.shape == (min(SLAB, n - 1 - x0) + 1, n, n)
        assert np.array_equal(slab, values[x0:x0 + len(slab)])
        starts.append(x0)
    assert starts == list(range(0, n - 1, SLAB))


def test_evaluated_count_counts_each_newly_marked_site_once():
    # the count is kept as sites are marked: overlapping marks, repeats and
    # stride sites, already evaluated, add nothing
    spec = LatticeSpec(coarse_cells=8, margin_cells=1)
    grid = AdaptiveGrid(spec)
    n = spec.fine_n
    ids = np.random.default_rng(3).integers(0, n ** 3, 400)
    grid.mark_evaluated(ids[:250])
    grid.mark_evaluated(ids[150:])
    fresh = np.count_nonzero(np.any(spec.unflatten(np.unique(ids)) % 2, axis=1))
    assert grid.evaluated_count == ((n + 1) // 2) ** 3 + fresh
    assert grid.filled_count == n ** 3 - grid.evaluated_count


def test_unwritten_sites_read_the_far_field():
    spec = LatticeSpec(coarse_cells=16, margin_cells=1)
    grid = AdaptiveGrid(spec, far=0.3)
    n = spec.fine_n
    hierarchical_fill(grid)
    far = np.full((n, n, n), np.nan)
    far[::2, ::2, ::2] = 0.3
    on_stride = ~np.isnan(far)
    oracles.dense_hierarchical_fill(far, on_stride)
    assert np.array_equal(grid.dense_values(), far)
    assert grid.evaluated_count == np.count_nonzero(on_stride)
    assert grid.filled_count == n ** 3 - np.count_nonzero(on_stride)


def test_ids_outside_the_lattice_are_refused():
    # a slab reads its sites by id range, so an id outside the lattice
    # would be dropped silently: every call refuses it, naming the first
    spec = LatticeSpec(coarse_cells=4, margin_cells=1)
    grid = AdaptiveGrid(spec, far=0.3)
    total = spec.total_fine_vertices
    for ids, bad in (([-1], -1), ([total], total), ([3, total + 5, -2, 7], total + 5)):
        for call in (grid.evaluated_at, grid.mark_evaluated, lambda s: grid.set_values(s, 1.0)):
            with pytest.raises(ValueError, match=f"id {bad} is outside the lattice of {total} "):
                call(ids)
    assert grid.evaluated_count == ((spec.fine_n + 1) // 2) ** 3
    assert np.all(grid.dense_values() == 0.3)  # nothing was written or marked


@settings(max_examples=40, deadline=None)
@given(coarse=st.integers(9, 20), baseline=st.booleans(),
       share=st.sampled_from([0.0, 0.01, 0.1]),
       hot=st.lists(st.tuples(*[st.one_of(st.sampled_from([8, 16]), st.integers(0, 20))] * 3),
                    min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
# hot vertices on the planes slabs share; the last plane at 32 fine cells
# is the last slab's upper plane
@example(coarse=16, baseline=False, share=0.0, hot=[(8, 3, 5), (8, 8, 3), (8, 8, 8), (16, 16, 16)],
         seed=0)
@example(coarse=12, baseline=True, share=0.0, hot=[(8, 3, 5), (8, 8, 3), (8, 8, 8)], seed=1)
def test_consecutive_slabs_agree_on_their_shared_plane(coarse, baseline, share, hot, seed):
    # at least 2 slabs; a write reaches both slabs that hold its plane, and
    # those fill it alike
    spec = LatticeSpec(coarse_cells=coarse, margin_cells=1)
    n, stride = spec.fine_n, 1 if baseline else 2
    rng = np.random.default_rng(seed)
    on_stride = np.zeros((n, n, n), dtype=bool)
    on_stride[::stride, ::stride, ::stride] = True
    hot_ids = np.unique(spec.flat_id(2 * (np.array(hot, dtype=np.int64) % (coarse + 1))))
    band = np.union1d(np.flatnonzero(on_stride.ravel() & (rng.random(n ** 3) < share)), hot_ids)
    grid = AdaptiveGrid(spec, stride, 0.3)
    grid.set_values(band, rng.random(band.size))

    def assert_planes_agree():
        slabs = list(grid.slabs())
        assert len(slabs) >= 2
        for (lower, x0), (upper, x1) in zip(slabs, slabs[1:]):
            assert x1 == x0 + len(lower) - 1
            assert np.array_equal(lower[-1], upper[0])

    assert_planes_agree()
    if not baseline:
        new = refine_with_parents(grid, hot_ids)[0]
        if new.size:  # marked, not yet written
            with pytest.raises(MissingCoarseValue):
                list(grid.slabs())
        grid.set_values(new, rng.random(new.size))
        assert_planes_agree()
        assert grid.evaluated_at(new).all()


def test_site_lookups_stay_within_a_few_bytes_per_site():
    # every fine site of 13 fine planes of a coarse-128 lattice, 859k ids.
    # Measured 3.2 bytes per id for each: the flags and one chunk's
    # temporaries.
    spec = LatticeSpec(coarse_cells=128, margin_cells=3)
    n = spec.fine_n
    grid = AdaptiveGrid(spec, 2, 0.1)
    ids = (np.arange(n * n)[:, None] * n + np.arange(120, 133)).ravel()
    values = np.random.default_rng(0).random(ids.size)
    for call, bound in ((lambda: grid.set_values(ids, values), 16),
                        (lambda: grid.evaluated_at(ids), 24)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * ids.size


def test_fill_never_overwrites_evaluated():
    spec, grid, ids, _ = fresh_grid(coarse_cells=4, margin_cells=0)
    grid.set_values(ids, np.zeros(ids.size))
    new = refine_with_parents(grid, [spec.flat_id(np.array([4, 4, 4]))])[0]
    grid.set_values(new, np.full(new.size, 7.0))
    hierarchical_fill(grid)
    assert np.all(grid.dense_values().ravel()[new] == 7.0)
    assert grid.evaluated_count == ids.size + new.size
    # evaluated-count bound
    assert grid.evaluated_count <= ids.size + 26 * 1


def test_slabs_as_an_array_count_their_sites_without_values():
    # np.asarray(slabs).size is the lattice's sites, which the slabs cover,
    # as a tracer sizing marching_cubes' first argument reads it, and takes
    # no memory
    spec = LatticeSpec(coarse_cells=20, margin_cells=1)
    grid = AdaptiveGrid(spec, 2, 0.3)
    slabs = hierarchical_fill(grid)
    placeholder = np.asarray(slabs)
    planes = [len(values) for values, _ in slabs]
    assert placeholder.size == spec.total_fine_vertices == (sum(planes) - len(planes) + 1) * 41 ** 2
    assert placeholder.strides == (0,) * 3 and np.isnan(placeholder).all()


def test_fill_requires_values():
    # the fill runs as each slab is built, so building one raises
    spec, grid, ids, _ = fresh_grid(coarse_cells=4, margin_cells=0)
    with pytest.raises(MissingCoarseValue):
        list(hierarchical_fill(grid))
    grid.set_values(ids, np.zeros(ids.size))
    refine_with_parents(grid, [spec.flat_id(np.array([4, 4, 4]))])  # refined sites left NaN
    with pytest.raises(MissingCoarseValue):
        list(hierarchical_fill(grid))


def test_dense_values_requires_coverage():
    # the dump and the extraction build the slabs, so both refuse an
    # evaluated site without a value before writing anything
    spec, grid, ids, _ = fresh_grid(coarse_cells=4, margin_cells=0)
    grid.set_values(ids[1:], np.zeros(ids.size - 1))
    with pytest.raises(MissingCoarseValue):
        grid.dense_values()
    grid.set_values(ids[:1], [0.0])
    assert np.all(grid.dense_values() == 0.0)
    refine_with_parents(grid, [spec.flat_id(np.array([4, 4, 4]))])  # refined sites left NaN
    with pytest.raises(MissingCoarseValue):
        grid.dense_values()
    with pytest.raises(MissingCoarseValue):
        marching_cubes(grid.slabs(), spec, IsoSpec(0.5))


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
