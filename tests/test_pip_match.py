"""The pair-vectorised point-in-polygon kernel (``PreparedPolygons``:
``parity_on``, ``hits``, ``match``) against the per-polygon oracle loops in
``pip_oracle``, and the box-to-cells expansion shared by the grid index and
the grid exchanges."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from geopolars_ray.geom import GeometryArray, decode_wkb
from geopolars_ray.geom import kernels as K
from geopolars_ray.geom.array import _expand_cell_rects
from geopolars_ray.geom.strtree import GridIndex, PreparedPolygons, points_in_polygon_single
from geopolars_ray.sources.pages import admin_polygons_table
from pip_oracle import parity_and_boundary, points_dwithin_rings, rings_of
from pip_oracle import points_in_polygon_single as oracle_contains

SQUARE_WITH_HOLE = ("polygon", [
    [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0), (0.0, 0.0)],
    [(4.0, 4.0), (6.0, 4.0), (6.0, 6.0), (4.0, 6.0), (4.0, 4.0)],
])
TWO_PARTS = ("multipolygon", [
    [[(20.0, 0.0), (24.0, 0.0), (24.0, 4.0), (20.0, 4.0), (20.0, 0.0)]],
    [[(30.0, 0.0), (34.0, 0.0), (32.0, 3.0), (30.0, 0.0)]],
])
DIAMOND = ("polygon", [[(5.0, 12.0), (8.0, 15.0), (5.0, 18.0), (2.0, 15.0), (5.0, 12.0)]])


def _prep():
    return PreparedPolygons.from_geometry_array(
        GeometryArray.from_pylist([SQUARE_WITH_HOLE, TWO_PARTS, DIAMOND]))


def _points():
    fixed = [
        (1.0, 1.0), (5.0, 5.0),      # inside; inside the hole
        (0.0, 5.0), (4.0, 5.0),      # on the shell; on the hole
        (22.0, 2.0), (32.0, 1.0),    # inside each part
        (27.0, 2.0), (32.0, 3.0),    # between the parts; on a vertex
        (5.0, 15.0), (8.0, 15.0),    # inside the diamond; on its vertex
        (10.5, 5.0), (-0.5, 5.0),    # just outside the square
    ]
    rng = np.random.default_rng(4)
    rand = np.column_stack([rng.uniform(-2, 36, 200), rng.uniform(-2, 20, 200)])
    xy = np.vstack([np.array(fixed), rand])
    return xy[:, 0], xy[:, 1]


def _per_pair(prep, point_idx, poly_idx, px, py, distance):
    """The reference: one kernel call per candidate pair, polygon-major."""
    got_pts, got_polys = [], []
    for k in np.argsort(poly_idx, kind="stable"):
        p, j = int(point_idx[k]), int(poly_idx[k])
        rings = rings_of(prep, j)
        if distance is None:
            hit = oracle_contains(px[p:p + 1], py[p:p + 1], rings)[0]
        else:
            hit = points_dwithin_rings(px[p:p + 1], py[p:p + 1], rings, distance)[0]
        if hit:
            got_pts.append(p)
            got_polys.append(j)
    return np.array(got_pts, np.int64), np.array(got_polys, np.int64)


@pytest.mark.parametrize("distance", [None, 0.0, 0.75])
def test_match_equals_the_per_pair_loop_in_order(distance):
    prep = _prep()
    px, py = _points()
    rng = np.random.default_rng(9)
    # every point against every polygon, shuffled, plus repeated pairs
    pi, qi = np.meshgrid(np.arange(len(px)), np.arange(prep.n), indexing="ij")
    pairs = np.column_stack([pi.ravel(), qi.ravel()])
    pairs = np.vstack([pairs, pairs[rng.choice(len(pairs), 50)]])
    pairs = pairs[rng.permutation(len(pairs))]
    got = prep.match(pairs[:, 0], pairs[:, 1], px, py, distance)
    want = _per_pair(prep, pairs[:, 0], pairs[:, 1], px, py, distance)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert len(got[0]) > 0
    assert (np.diff(got[1]) >= 0).all()


def _per_polygon(prep, point_idx, poly_idx, px, py, distance):
    """The reference: pairs grouped by polygon, one kernel call per polygon
    over its candidate points in candidate order."""
    order = np.argsort(poly_idx, kind="stable")
    pts, polys = point_idx[order], poly_idx[order]
    keep = np.zeros(len(pts), dtype=bool)
    for j in np.unique(polys):
        grp = np.flatnonzero(polys == j)
        rings = rings_of(prep, int(j))
        gx, gy = px[pts[grp]], py[pts[grp]]
        if distance is None:
            keep[grp] = oracle_contains(gx, gy, rings)
        else:
            keep[grp] = points_dwithin_rings(gx, gy, rings, distance)
    return pts[keep], polys[keep]


# coordinates on a half-unit lattice, so points land on edges and vertices
_lattice = st.integers(-6, 6).map(lambda v: v / 2.0)
# rings of 1..7 coords, closed or left open
_ring = st.tuples(st.lists(st.tuples(_lattice, _lattice), min_size=1, max_size=7), st.booleans()).map(
    lambda t: t[0] + [t[0][0]] if t[1] else t[0])
_polygon = st.lists(_ring, min_size=0, max_size=3)  # shell + holes, or empty
_geometry = st.one_of(
    _polygon.map(lambda rings: ("polygon", rings)),
    st.lists(_polygon.filter(len), min_size=1, max_size=3).map(lambda ps: ("multipolygon", ps)),
    st.none(),
)


@settings(max_examples=150, deadline=None)
@given(geoms=st.lists(_geometry, min_size=1, max_size=5),
       lattice_pts=st.lists(st.tuples(_lattice, _lattice), max_size=40),
       float_pts=st.lists(st.tuples(st.floats(-4, 4), st.floats(-4, 4)), max_size=20),
       distance=st.sampled_from([None, 0.0, 0.3, 0.5, 1.25]),
       seed=st.integers(0, 2**16))
def test_match_equals_the_per_polygon_loop(geoms, lattice_pts, float_pts, distance, seed):
    """The pair kernel gives the per-polygon loop's pairs, in its order:
    holes, multipolygons, open rings, rings under 3 coords, empty and
    missing rows, points on edges and vertices, and (dwithin) points
    exactly ``distance`` beyond each bbox-extreme vertex."""
    prep = PreparedPolygons.from_geometry_array(GeometryArray.from_pylist(geoms))
    xy = list(lattice_pts) + list(float_pts)
    d = 0.0 if distance is None else distance
    c = prep.ring_coords
    if len(c):
        for k in (np.argmin(c[:, 0]), np.argmax(c[:, 0]), np.argmin(c[:, 1]), np.argmax(c[:, 1])):
            vx, vy = c[k]
            xy += [(vx - d, vy), (vx + d, vy), (vx, vy - d), (vx, vy + d)]
    if not xy:
        xy = [(0.0, 0.0)]
    px = np.array([p[0] for p in xy])
    py = np.array([p[1] for p in xy])
    rng = np.random.default_rng(seed)
    pi, qi = np.meshgrid(np.arange(len(px)), np.arange(prep.n), indexing="ij")
    pairs = np.column_stack([pi.ravel(), qi.ravel()])
    pairs = np.vstack([pairs, pairs[rng.choice(len(pairs), 10)]])
    pairs = pairs[rng.permutation(len(pairs))]
    got = prep.match(pairs[:, 0], pairs[:, 1], px, py, distance)
    want = _per_polygon(prep, pairs[:, 0], pairs[:, 1], px, py, distance)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


def _rings(geom) -> list[np.ndarray]:
    """Every ring of one ``_geometry`` draw, as (m, 2) float arrays."""
    if geom is None:
        return []
    parts = [geom[1]] if geom[0] == "polygon" else geom[1]
    return [np.array(r, dtype=np.float64).reshape(-1, 2) for p in parts for r in p]


@settings(max_examples=200, deadline=None)
@given(geom=_geometry,
       lattice_pts=st.lists(st.tuples(_lattice, _lattice), max_size=40),
       float_pts=st.lists(st.tuples(st.floats(-4, 4) | st.just(np.nan),
                                    st.floats(-4, 4) | st.just(np.nan)), max_size=10),
       nan_vertex=st.integers(-1, 20))
def test_kernel_equals_the_per_polygon_oracle(geom, lattice_pts, float_pts, nan_vertex):
    """``points_in_polygon_single`` and the kernel's ``(parity, on)`` equal
    the per-ring oracle bit for bit: holes, multipolygons, open rings, rings
    under 3 coords, every ring vertex and edge midpoint as a point, NaN
    points and (``nan_vertex >= 0``) a NaN ring vertex."""
    rings = _rings(geom)
    vertices = [(r, k) for r in range(len(rings)) for k in range(len(rings[r]))]
    if 0 <= nan_vertex < len(vertices):
        r, k = vertices[nan_vertex]
        rings[r][k] = np.nan
    xy = np.array(list(lattice_pts) + list(float_pts) + [(0.0, 0.0)], dtype=np.float64)
    xy = np.vstack([xy] + rings + [(r[:-1] + r[1:]) / 2 for r in rings])
    px, py = xy[:, 0], xy[:, 1]
    want_parity, want_on = parity_and_boundary(px, py, rings)
    np.testing.assert_array_equal(points_in_polygon_single(px, py, rings), want_parity & ~want_on)
    parity, on = PreparedPolygons.from_polygons([rings]).parity_on(px, py, np.zeros(len(px), np.int64))
    np.testing.assert_array_equal(parity, want_parity)
    np.testing.assert_array_equal(on, want_on)


def test_one_polygon_callers_split_into_blocks(monkeypatch):
    """The ``read_file(mask=...)`` filter and an H3 cover give the one-block
    answer when each kernel block holds 64 pair x edge elements, fewer than
    the mask's 200 edges."""
    from geopolars_ray.geom import encode_wkb, h3 as H, strtree
    from geopolars_ray.sources.io import mask_filter

    t = np.linspace(0, 2 * np.pi, 201)
    circle = [(float(np.cos(a) * 10), float(np.sin(a) * 10)) for a in t[:-1]]
    circle.append(circle[0])
    rng = np.random.default_rng(3)
    pts = [("point", (float(x), float(y))) for x, y in rng.uniform(-12, 12, (3000, 2))]
    batch = pa.table({"geometry": encode_wkb(GeometryArray.from_pylist(pts))})
    sq = np.array([(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.5), (0.0, 0.0)])
    hole = np.array([(0.2, 0.2), (0.2, 0.3), (0.3, 0.3), (0.3, 0.2), (0.2, 0.2)])

    def run():
        kept = mask_filter(("polygon", [circle]))(batch)
        return kept["geometry"].to_pylist(), H.polygon_to_cells([sq, hole], 8).tolist()

    want = run()
    monkeypatch.setattr(strtree, "_PAIR_EDGE_BLOCK", 64)
    got = run()
    assert got == want
    assert 0 < len(want[0]) < len(pts) and len(want[1]) > 0


def test_match_keeps_points_exactly_distance_beyond_the_bbox():
    """A point exactly ``distance`` beyond a bbox-extreme vertex is within
    ``distance``: the bbox prefilter must not drop it."""
    prep = _prep()
    d = 0.75
    # the diamond's extreme vertices, pushed out by d along each axis
    px = np.array([8.0 + d, 2.0 - d, 5.0, 5.0, 8.0 + d + 1e-9])
    py = np.array([15.0, 15.0, 18.0 + d, 12.0 - d, 15.0])
    pts = np.arange(5)
    got, _ = prep.match(pts, np.full(5, 2), px, py, d)
    assert got.tolist() == [0, 1, 2, 3]


def test_match_splits_large_inputs_into_blocks(monkeypatch):
    """Blocks of a few pair x edge elements give the one-block answer."""
    from geopolars_ray.geom import strtree

    prep = _prep()
    px, py = _points()
    pi, qi = np.meshgrid(np.arange(len(px)), np.arange(prep.n), indexing="ij")
    for distance in (None, 0.75):
        want = prep.match(pi.ravel(), qi.ravel(), px, py, distance)
        monkeypatch.setattr(strtree, "_PAIR_EDGE_BLOCK", 7)
        got = prep.match(pi.ravel(), qi.ravel(), px, py, distance)
        monkeypatch.undo()
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_match_boundary_contains_vs_dwithin_zero():
    """None is the boundary-exclusive contains; 0 is dwithin, whose
    boundary points match."""
    prep = _prep()
    px = np.array([1.0, 0.0, 4.0, 5.0, 32.0])
    py = np.array([1.0, 5.0, 5.0, 5.0, 3.0])
    pts = np.array([0, 1, 2, 3, 4])
    polys = np.array([0, 0, 0, 0, 1])
    inside, _ = prep.match(pts, polys, px, py)
    assert inside.tolist() == [0]
    within0, _ = prep.match(pts, polys, px, py, 0.0)
    assert within0.tolist() == [0, 1, 2, 4]


def test_match_empty_candidates():
    prep = _prep()
    px, py = _points()
    for distance in (None, 0.0):
        pts, polys = prep.match(np.empty(0, np.int64), np.empty(0, np.int64), px, py, distance)
        assert pts.dtype == np.int64 and polys.dtype == np.int64
        assert len(pts) == len(polys) == 0


def _grid_by_loop(boxes):
    """The reference: one Python loop iteration per box over its cell
    rectangle, giving (cell_offsets, cell_items)."""
    g = GridIndex(boxes)  # for its extent and cell size
    vb = boxes[~np.isnan(boxes).any(axis=1)]
    ids = np.nonzero(~np.isnan(boxes).any(axis=1))[0]
    cx0 = np.clip(((vb[:, 0] - g.x0) / g.dx).astype(np.int64), 0, g.nx - 1)
    cx1 = np.clip(((vb[:, 2] - g.x0) / g.dx).astype(np.int64), 0, g.nx - 1)
    cy0 = np.clip(((vb[:, 1] - g.y0) / g.dy).astype(np.int64), 0, g.ny - 1)
    cy1 = np.clip(((vb[:, 3] - g.y0) / g.dy).astype(np.int64), 0, g.ny - 1)
    cells, items = [], []
    for i in range(len(vb)):
        xs = np.arange(cx0[i], cx1[i] + 1)
        ys = np.arange(cy0[i], cy1[i] + 1)
        c = (xs[:, None] * g.ny + ys[None, :]).ravel()
        cells.append(c)
        items.append(np.full(len(c), ids[i], dtype=np.int64))
    cell, item = np.concatenate(cells), np.concatenate(items)
    order = np.argsort(cell, kind="stable")
    offsets = np.zeros(g.nx * g.ny + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell, minlength=g.nx * g.ny), out=offsets[1:])
    return g, offsets, item[order]


def _admin_boxes():
    ga = decode_wkb(admin_polygons_table()["geometry"])
    return np.column_stack(K.bounds(ga))


def _random_boxes():
    rng = np.random.default_rng(31)
    x0 = rng.uniform(-180, 170, 400)
    y0 = rng.uniform(-90, 80, 400)
    w = rng.exponential(4.0, 400)
    h = rng.exponential(4.0, 400)
    boxes = np.column_stack([x0, y0, x0 + w, y0 + h])
    boxes[::37] = np.nan  # missing geometries
    boxes[5] = [10.0, 10.0, 10.0, 10.0]  # a point-sized box
    return boxes


@pytest.mark.parametrize("boxes", [_admin_boxes(), _random_boxes()], ids=["admin", "random"])
def test_grid_index_cells_equal_the_per_item_loop(boxes):
    g, offsets, items = _grid_by_loop(boxes)
    np.testing.assert_array_equal(g.cell_offsets, offsets)
    np.testing.assert_array_equal(g.cell_items, items)


def test_expand_cell_rects_order_and_empty_ranges():
    item, cell = _expand_cell_rects(np.array([0, 3, 5]), np.array([1, 2, 5]),
                                    np.array([0, 0, 7]), np.array([1, 0, 6]), 10)
    # item 0: columns 0..1 x rows 0..1, column-major; item 1 has no
    # columns; item 2 has no rows
    assert item.tolist() == [0, 0, 0, 0]
    assert cell.tolist() == [0, 1, 10, 11]
