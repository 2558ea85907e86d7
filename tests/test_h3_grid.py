"""Tests: H3 grid algebra — grid_distance, grid_path_cells, cell measures.

Anchors are structural invariants of the published H3 system: BFS ring
sizes 6k around hexagons, sphere partition (sum of all cell areas at a
resolution == authalic sphere area, exact to machine precision), 12
pentagons per resolution, and the published res-7 mean edge scale.
"""

import numpy as np
import pyarrow as pa
import pytest

from geopolars_ray.geom import h3


def _res0():
    return h3._pack(0, np.arange(122, dtype=np.int64), np.zeros((122, 0), np.int64))


def test_grid_distance_rings_and_symmetry():
    ids = h3.latlng_to_cell(np.array([37.7749]), np.array([-122.4194]), 7)
    disk = h3.grid_disk(ids, 3)
    center = np.full(len(disk), ids[0], np.uint64)
    d = h3.grid_distance(center, disk)
    counts = np.bincount(d)
    assert counts.tolist() == [1, 6, 12, 18]          # hexagon rings 6k
    assert (h3.grid_distance(disk, center) == d).all()  # symmetric
    # triangle inequality through an adjacent ring-1 hop
    ring1 = disk[d == 1]
    ring3 = disk[d == 3]
    via = h3.grid_distance(np.full(len(ring3), ring1[0], np.uint64), ring3)
    assert (via + 1 >= 3).all()


def test_grid_distance_pentagon_neighborhood():
    # a pentagon has only 5 distinct neighbors; its k=2 disk is 1+5+10
    pent = _res0()[h3.is_pentagon(_res0())][0]
    p2 = h3.cell_to_children(np.array([pent], np.uint64), 2)
    p2 = p2[h3.is_pentagon(p2)][0]                     # res-2 pentagon
    disk = h3.grid_disk(np.array([p2], np.uint64), 2)
    d = h3.grid_distance(np.full(len(disk), p2, np.uint64), disk)
    assert np.bincount(d).tolist() == [1, 5, 10]


def grid_distance_pairs(a, b, max_k: int = 256):
    """The per-pair BFS oracle: one breadth-first search per (a, b) pair,
    visited cells in a Python set."""
    out = np.empty(len(a), dtype=np.int64)
    for n in range(len(a)):
        src, dst = int(a[n]), int(b[n])
        if src == dst:
            out[n] = 0
            continue
        seen = {src}
        frontier = np.array([src], dtype=np.uint64)
        d = 0
        while True:
            d += 1
            if d > max_k:
                raise ValueError(f"grid_distance exceeded max_k={max_k} between {src:x} and {dst:x}; "
                                 "raise max_k if this is intended")
            fresh = {int(x) for x in h3.cell_to_neighbors(frontier).ravel()} - seen
            if dst in fresh:
                out[n] = d
                break
            if not fresh:
                raise ValueError(f"no grid path between {src:x} and {dst:x}")
            seen |= fresh
            frontier = np.fromiter(fresh, dtype=np.uint64)
    return out


@pytest.mark.parametrize("pentagon", [False, True])
def test_grid_distance_equals_per_pair_bfs(pentagon):
    """All pairs of a k=2 disk around a hexagon and a pentagon, shuffled so
    sources repeat out of order, and the max_k error names the same pair."""
    if pentagon:
        c = h3.cell_to_children(_res0()[h3.is_pentagon(_res0())][:1], 3)
        c = c[h3.is_pentagon(c)]
    else:
        c = h3.latlng_to_cell(np.array([37.7749]), np.array([-122.4194]), 7)
    disk = h3.grid_disk(c, 2)
    rng = np.random.default_rng(11)
    a, b = np.meshgrid(disk, disk)
    order = rng.permutation(a.size)
    a, b = a.ravel()[order], b.ravel()[order]
    np.testing.assert_array_equal(h3.grid_distance(a, b), grid_distance_pairs(a, b))
    with pytest.raises(ValueError) as want:
        grid_distance_pairs(a, b, max_k=2)
    with pytest.raises(ValueError) as got:
        h3.grid_distance(a, b, max_k=2)
    assert str(got.value) == str(want.value)


def test_grid_distance_errors():
    a = h3.latlng_to_cell(np.array([10.0]), np.array([10.0]), 7)
    b = h3.latlng_to_cell(np.array([10.0]), np.array([10.0]), 8)
    with pytest.raises(ValueError, match="same resolution"):
        h3.grid_distance(a, b)
    far = h3.latlng_to_cell(np.array([-40.0]), np.array([150.0]), 7)
    with pytest.raises(ValueError, match="max_k"):
        h3.grid_distance(a, far, max_k=3)


def test_grid_path_minimal_and_adjacent():
    a = h3.latlng_to_cell(np.array([48.8566]), np.array([2.3522]), 8)[0]
    b = h3.latlng_to_cell(np.array([48.90]), np.array([2.43]), 8)[0]
    d = int(h3.grid_distance(np.array([a], np.uint64), np.array([b], np.uint64))[0])
    p = h3.grid_path_cells(a, b)
    assert len(p) == d + 1 and p[0] == a and p[-1] == b
    assert (h3.grid_distance(p[:-1], p[1:]) == 1).all()
    assert len(np.unique(p)) == len(p)                 # simple path
    # degenerate
    assert h3.grid_path_cells(a, a).tolist() == [a]


def test_cell_area_partitions_sphere():
    sphere = 4.0 * np.pi * h3.EARTH_RADIUS_KM ** 2
    r1 = h3.cell_to_children(_res0(), 1)
    assert len(r1) == 2 + 120 * 7
    np.testing.assert_allclose(h3.cell_area(r1).sum(), sphere, rtol=1e-12)
    r2 = h3.cell_to_children(r1, 2)
    assert len(r2) == 2 + 120 * 49
    np.testing.assert_allclose(h3.cell_area(r2).sum(), sphere, rtol=1e-12)
    # m^2 and rads^2 units are consistent scalings
    np.testing.assert_allclose(h3.cell_area(r1, unit="m^2").sum(), sphere * 1e6, rtol=1e-12)
    np.testing.assert_allclose(h3.cell_area(r1, unit="rads^2").sum(), 4.0 * np.pi, rtol=1e-12)


def test_cell_measures_scale():
    # published res-7 hexagon scale: avg area 5.161 km^2, avg edge ~1.406 km.
    # An area-weighted sample biases high, so assert a generous band.
    rng = np.random.default_rng(3)
    lat = np.degrees(np.arcsin(rng.uniform(-1, 1, 5000)))
    lng = rng.uniform(-180, 180, 5000)
    cells = np.unique(h3.latlng_to_cell(lat, lng, 7))
    area = h3.cell_area(cells)
    assert 4.6 < area.mean() < 5.8
    assert area.min() > 2.5 and area.max() < 7.0
    per = h3.cell_perimeter(cells[~h3.is_pentagon(cells)])
    assert 1.2 < (per.mean() / 6.0) < 1.6
    # area/perimeter consistent across units
    np.testing.assert_allclose(h3.cell_perimeter(cells, unit="m"),
                               h3.cell_perimeter(cells, unit="km") * 1000.0, rtol=1e-12)
    # children cover their parent's area (boundary wiggle < 1%)
    one = cells[:10]
    kids = np.concatenate([h3.cell_to_children(np.array([c], np.uint64)) for c in one])
    np.testing.assert_allclose(h3.cell_area(kids).sum(), h3.cell_area(one).sum(), rtol=1e-2)


def test_cell_to_children_array_contract():
    r0 = _res0()
    with pytest.raises(ValueError, match="one resolution"):
        h3.cell_to_children(np.array([r0[0], h3.cell_to_children(r0[:1])[0]], np.uint64))
    kids = h3.cell_to_children(r0[:3])
    assert (np.unique(h3.cell_to_parent(kids, 0)) == np.sort(r0[:3])).all()


def test_grid_disk_batch_matches_grid_disk():
    rng = np.random.default_rng(7)
    lat = rng.uniform(-60, 60, 30)
    lng = rng.uniform(-170, 170, 30)
    ids = h3.latlng_to_cell(lat, lng, 6)
    o, c = h3.grid_disk_batch(ids, 2)
    for i in range(len(ids)):
        assert (np.sort(c[o == i]) == h3.grid_disk(ids[i:i + 1], 2)).all()
    # k=0 is the identity
    o0, c0 = h3.grid_disk_batch(ids, 0)
    assert (c0 == ids).all() and (o0 == np.arange(len(ids))).all()


def test_h3_neighborhood_aggregate_oracle(ray_session):
    import ray
    from geopolars_ray.stages.hexfocal import h3_neighborhood_aggregate

    rng = np.random.default_rng(5)
    center = h3.latlng_to_cell(np.array([48.0]), np.array([2.0]), 6)
    cells = h3.grid_disk(center, 4)
    vals = rng.uniform(0, 10, len(cells))
    t = pa.table({"h3": pa.array(cells.view(np.int64)), "value": pa.array(vals)})
    out = h3_neighborhood_aggregate(
        ray.data.from_arrow(t).repartition(3), k=2,
        stats=("count", "sum", "mean", "min", "max")).to_pandas()
    assert len(out) == len(cells)
    got = {int(r): (n, s, mn, mx) for r, n, s, mn, mx in zip(
        out["h3"], out["n"], out["sum_value"], out["min_value"], out["max_value"])}
    for c in cells:
        d = h3.grid_distance(np.full(len(cells), c, np.uint64), cells)
        m = d <= 2
        gn, gs, gmn, gmx = got[int(np.int64(c))]
        assert gn == int(m.sum())
        np.testing.assert_allclose(gs, vals[m].sum(), rtol=1e-12)
        assert gmn == vals[m].min() and gmx == vals[m].max()
    # open variant: the k-halo appears as extra targets
    open_out = h3_neighborhood_aggregate(ray.data.from_arrow(t), k=1,
                                         restrict_to_input=False).to_pandas()
    assert len(open_out) == len(h3.grid_disk(center, 5))

    import pytest as _pt
    with _pt.raises(ValueError, match="unknown stats"):
        h3_neighborhood_aggregate(ray.data.from_arrow(t), stats=("median",))


def test_h3_neighborhood_aggregate_dedupes_cells_across_blocks(ray_session):
    """restrict_to_input keeps ONE row per input cell even when that
    cell's rows span several blocks."""
    import ray
    from geopolars_ray.stages.hexfocal import h3_neighborhood_aggregate

    cell = h3.latlng_to_cell(np.array([48.0]), np.array([2.0]), 6).view(np.int64)[0]
    blocks = [pa.table({"h3": pa.array([cell, cell]), "value": pa.array([1.0, 2.0])})
              for _ in range(2)]
    ds = ray.data.from_arrow(blocks)
    assert ds.materialize().num_blocks() == 2
    out = h3_neighborhood_aggregate(ds, k=1, stats=("count", "sum"),
                                    num_partitions=4).to_pandas()
    assert len(out) == 1
    assert int(out["h3"][0]) == int(cell)
    assert out["n"][0] == 4 and out["sum_value"][0] == 6.0


def test_directed_edges_round_trip():
    rng = np.random.default_rng(1)
    ids = h3.latlng_to_cell(rng.uniform(-60, 60, 100), rng.uniform(-170, 170, 100), 7)
    edges = h3.origin_to_directed_edges(ids)
    live = edges[edges != 0]
    assert h3.is_valid_directed_edge(live).all()
    assert not h3.is_valid_directed_edge(ids).any()      # cells aren't edges
    o, dst = h3.directed_edge_to_cells(live)
    assert (h3.grid_distance(o, dst) == 1).all()         # edges connect neighbors
    assert (h3.cells_to_directed_edge(o, dst) == live).all()
    rev = h3.cells_to_directed_edge(dst, o)              # reverse edge exists
    ro, rd = h3.directed_edge_to_cells(rev)
    assert (ro == dst).all() and (rd == o).all()
    with pytest.raises(ValueError, match="not neighbors"):
        far = h3.latlng_to_cell(np.array([-40.0]), np.array([150.0]), 7)
        h3.cells_to_directed_edge(ids[:1], far)


def test_directed_edges_pentagon_has_five():
    r0 = _res0()
    p = h3.cell_to_children(r0[h3.is_pentagon(r0)][:1], 3)
    p = p[h3.is_pentagon(p)][:1]
    pe = h3.origin_to_directed_edges(p)
    live = pe[0][pe[0] != 0]
    assert len(live) == 5                               # exactly one sparse slot
    dsts = h3.get_directed_edge_destination(live)
    assert len(np.unique(dsts)) == 5                    # all distinct neighbors
    assert h3.is_valid_directed_edge(live).all()
    dead = pe[0][pe[0] == 0]
    assert len(dead) == 1
    # the zeroed (duplicate) slot is NOT a valid edge id even if forged
    d_live = (live & (np.uint64(0x7) << np.uint64(56))) >> np.uint64(56)
    missing = (set(range(1, 7)) - {int(x) for x in d_live}).pop()
    forged = (live[0] & ~(np.uint64(0x7) << np.uint64(56))) | (np.uint64(missing) << np.uint64(56))
    assert not h3.is_valid_directed_edge(np.array([forged], np.uint64))[0]
