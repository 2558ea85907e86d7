"""Unit tests for the vectorized geometry core (no Ray involved).

Golden values transcribed from the reference's unit tests where they exist
(FIXTURES.md F5/F6 <- /root/reference/geopolars/src/spatial_index.rs:352-625);
otherwise hand-computed.
"""

import numpy as np
import pyarrow as pa
import pytest

from geopolars_ray.geom import GeometryArray, decode_wkb, encode_wkb
from geopolars_ray.geom import kernels as K
from geopolars_ray.geom.array import _expand_ranges, MISSING, POINT, LINESTRING, POLYGON
from geopolars_ray.geom.strtree import (
    STRTree,
    GridIndex,
    PreparedPolygons,
    points_in_polygon_single,
)
from pip_oracle import geom_pair_distance, rings_of
from pip_oracle import points_in_polygon_single as oracle_contains


def test_expand_ranges():
    out = _expand_ranges(np.array([2, 7, 5]), np.array([4, 9, 5]))
    assert out.tolist() == [2, 3, 7, 8]
    assert _expand_ranges(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).tolist() == []
    assert _expand_ranges(np.array([0]), np.array([3])).tolist() == [0, 1, 2]


SAMPLE = [
    ("point", (1.0, 2.0)),
    ("linestring", [(0.0, 0.0), (3.0, 4.0), (3.0, 8.0)]),
    ("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)]]),
    ("multipoint", [(0.0, 0.0), (1.0, 1.0)]),
    None,
    (
        "multipolygon",
        [
            [[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (0.0, 0.0)]],
            [[(10.0, 10.0), (12.0, 10.0), (12.0, 12.0), (10.0, 12.0), (10.0, 10.0)]],
        ],
    ),
    ("multilinestring", [[(0.0, 0.0), (1.0, 0.0)], [(5.0, 5.0), (5.0, 7.0)]]),
]


def test_pylist_round_trip():
    ga = GeometryArray.from_pylist(SAMPLE)
    assert ga.to_pylist() == SAMPLE


def test_wkb_round_trip_mixed():
    ga = GeometryArray.from_pylist(SAMPLE)
    arr = encode_wkb(ga)
    back = decode_wkb(arr)
    assert back.to_pylist() == SAMPLE


def test_wkb_point_fast_path():
    x = np.arange(5, dtype=np.float64)
    y = x * 2 - 1
    ga = GeometryArray.from_points(x, y)
    arr = encode_wkb(ga)
    assert arr.type == pa.binary()
    back = decode_wkb(arr)
    np.testing.assert_array_equal(back.coords[:, 0], x)
    np.testing.assert_array_equal(back.coords[:, 1], y)
    assert (back.types == POINT).all()


def test_wkb_big_endian_points():
    import struct

    blobs = [struct.pack(">BI2d", 0, 1, 3.5, -7.25)]
    back = decode_wkb(pa.array(blobs, type=pa.binary()))
    assert back.to_pylist() == [("point", (3.5, -7.25))]


def test_wkb_nulls():
    ga = GeometryArray.from_pylist([("point", (1.0, 2.0)), None])
    arr = encode_wkb(ga)
    assert arr.null_count == 1
    back = decode_wkb(arr)
    assert back.to_pylist() == [("point", (1.0, 2.0)), None]


def test_wkb_truncated_row_raises_naming_the_row():
    """A count that runs past its row's end must not read the next row."""
    import struct

    line = struct.pack("<BII", 1, 2, 3) + struct.pack("<4d", 0.0, 0.0, 1.0, 1.0)  # 2 of 3 points
    point = struct.pack("<BI2d", 1, 1, 5.0, 6.0)
    with pytest.raises(ValueError, match="row 0"):
        decode_wkb(pa.array([line, point], type=pa.binary()))
    with pytest.raises(ValueError, match="row 1"):
        decode_wkb(pa.array([point, line], type=pa.binary()))
    ring = struct.pack("<BII", 1, 3, 2) + struct.pack("<I", 1) + struct.pack("<2d", 0.0, 0.0)
    with pytest.raises(ValueError, match="row 0"):  # polygon missing its second ring count
        decode_wkb(pa.array([ring, point], type=pa.binary()))


def test_area():
    ga = GeometryArray.from_pylist(SAMPLE)
    a = K.area(ga)
    np.testing.assert_allclose(a[:4], [0.0, 0.0, 16.0, 0.0])
    assert np.isnan(a[4])
    np.testing.assert_allclose(a[5], 8.0)  # 4 + 4


def test_area_with_hole():
    ga = GeometryArray.from_pylist(
        [
            (
                "polygon",
                [
                    [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0), (0.0, 0.0)],
                    [(2.0, 2.0), (2.0, 4.0), (4.0, 4.0), (4.0, 2.0), (2.0, 2.0)],  # CW hole
                ],
            )
        ]
    )
    np.testing.assert_allclose(K.area(ga), [96.0])


def test_length():
    ga = GeometryArray.from_pylist(SAMPLE)
    ln = K.euclidean_length(ga)
    np.testing.assert_allclose(ln[0], 0.0)
    np.testing.assert_allclose(ln[1], 9.0)  # 5 + 4
    np.testing.assert_allclose(ln[2], 16.0)  # exterior perimeter
    np.testing.assert_allclose(ln[6], 3.0)  # 1 + 2


def test_bounds_envelope():
    ga = GeometryArray.from_pylist(SAMPLE)
    xmin, ymin, xmax, ymax = K.bounds(ga)
    assert xmin[2] == 0.0 and xmax[2] == 4.0 and ymax[2] == 4.0
    assert xmin[5] == 0.0 and xmax[5] == 12.0
    env = K.envelope(ga)
    lst = env.to_pylist()
    assert lst[0] == ("point", (1.0, 2.0))
    assert lst[1] == (
        "polygon",
        [[(0.0, 0.0), (3.0, 0.0), (3.0, 8.0), (0.0, 8.0), (0.0, 0.0)]],
    )
    assert lst[4] is None


def test_centroid():
    ga = GeometryArray.from_pylist(
        [
            ("point", (3.0, 4.0)),
            ("multipoint", [(0.0, 0.0), (2.0, 2.0)]),
            ("linestring", [(0.0, 0.0), (2.0, 0.0)]),
            ("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)]]),
        ]
    )
    c = K.centroid(ga)
    np.testing.assert_allclose(c.coords, [[3, 4], [1, 1], [1, 0], [2, 2]])


def test_centroid_polygon_with_hole():
    # 10x10 square with off-center 2x2 hole: centroid shifts away from hole
    ga = GeometryArray.from_pylist(
        [
            (
                "polygon",
                [
                    [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0), (0.0, 0.0)],
                    [(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0), (1.0, 1.0)],  # same winding as exterior
                ],
            )
        ]
    )
    c = K.centroid(ga)
    # exact: (100*5 - 4*2) / 96
    np.testing.assert_allclose(c.coords[0], [(500 - 8) / 96.0, (500 - 8) / 96.0])


def test_xy_type_flags():
    ga = GeometryArray.from_pylist(SAMPLE)
    assert K.geom_type(ga).tolist() == [0, 1, 3, 4, -1, 6, 5]
    x = K.get_x(ga)
    assert x[0] == 1.0 and np.isnan(x[1])
    closed = GeometryArray.from_pylist(
        [
            ("linestring", [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)]),
            ("linestring", [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]),
        ]
    )
    assert K.is_ring(closed).tolist() == [True, False]
    assert K.is_empty(ga).tolist() == [False] * 4 + [True] + [False] * 2


def test_affine_family():
    ga = GeometryArray.from_pylist([("point", (1.0, 2.0))])
    t = K.translate(ga, 10, -1)
    np.testing.assert_allclose(t.coords, [[11, 1]])
    s = K.scale(ga, 2, 3, origin=(0, 0))
    np.testing.assert_allclose(s.coords, [[2, 6]])
    r = K.rotate(ga, 90, origin=(0, 0))
    np.testing.assert_allclose(r.coords, [[-2, 1]], atol=1e-12)
    a = K.affine_transform(ga, [2, 0, 0, 2, 5, 5])
    np.testing.assert_allclose(a.coords, [[7, 9]])
    sq = GeometryArray.from_pylist(
        [("polygon", [[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (0.0, 0.0)]])]
    )
    # scale about bbox center keeps the center fixed
    s2 = K.scale(sq, 2, 2, origin="center")
    xmin, ymin, xmax, ymax = K.bounds(s2)
    assert (xmin[0], ymin[0], xmax[0], ymax[0]) == (-1.0, -1.0, 3.0, 3.0)
    sk = K.skew(ga, xs=45.0, origin=(0, 0))
    np.testing.assert_allclose(sk.coords, [[3.0, 2.0]])


def test_exterior():
    ga = GeometryArray.from_pylist(SAMPLE)
    ext = K.exterior(ga)
    lst = ext.to_pylist()
    assert lst[0] is None
    assert lst[2] == ("linestring", [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)])


def test_explode():
    ga = GeometryArray.from_pylist(SAMPLE)
    out, parent = K.explode(ga)
    assert parent.tolist() == [0, 1, 2, 3, 3, 4, 5, 5, 6, 6]
    lst = out.to_pylist()
    assert lst[3] == ("point", (0.0, 0.0)) and lst[4] == ("point", (1.0, 1.0))
    assert lst[6][0] == "polygon" and lst[7][0] == "polygon"
    assert lst[8][0] == "linestring"


def test_convex_hull():
    ga = GeometryArray.from_pylist(
        [
            ("multipoint", [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (2.0, 2.0)]),
            ("point", (1.0, 1.0)),
            ("multipoint", [(0.0, 0.0), (1.0, 1.0)]),
            ("multipoint", [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]),  # collinear
        ]
    )
    h = K.convex_hull(ga)
    assert np.isclose(K.area(h)[0], 16.0)
    lst = h.to_pylist()
    assert lst[1] == ("point", (1.0, 1.0))
    assert lst[2][0] == "linestring"
    assert lst[3][0] == "linestring"  # collinear collapses


def test_simplify():
    ga = GeometryArray.from_pylist(
        [("linestring", [(0.0, 0.0), (1.0, 0.05), (2.0, 0.0), (3.0, 5.0), (4.0, 0.0)])]
    )
    s = K.simplify(ga, tolerance=0.5)
    # (3,5) kept (dist 5 from chord), then (2,0) kept (dist ~1.71 from (0,0)-(3,5)),
    # (1,0.05) dropped (dist 0.05 from (0,0)-(2,0))
    assert s.to_pylist() == [("linestring", [(0.0, 0.0), (2.0, 0.0), (3.0, 5.0), (4.0, 0.0)])]


def test_distance():
    a = GeometryArray.from_pylist([("point", (0.0, 0.0)), ("point", (0.0, 0.0)), ("point", (5.0, 5.0))])
    b = GeometryArray.from_pylist(
        [
            ("point", (3.0, 4.0)),
            ("polygon", [[(1.0, -1.0), (2.0, -1.0), (2.0, 1.0), (1.0, 1.0), (1.0, -1.0)]]),
            ("polygon", [[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0), (0.0, 0.0)]]),
        ]
    )
    d = K.distance(a, b)
    np.testing.assert_allclose(d, [5.0, 1.0, 0.0])


def test_geodesic_length():
    # 1 degree of longitude at the equator
    ga = GeometryArray.from_pylist([("linestring", [(0.0, 0.0), (1.0, 0.0)])])
    hav = K.geodesic_length(ga, "haversine")[0]
    vin = K.geodesic_length(ga, "vincenty")[0]
    geo = K.geodesic_length(ga, "geodesic")[0]
    assert abs(hav - 111195) < 50  # mean-radius great circle
    assert abs(vin - 111319.49) < 1  # WGS84 equatorial arc
    assert abs(geo - 111319.4907932736) < 1e-6  # Karney series, exact arc
    with pytest.raises(ValueError):
        K.geodesic_length(ga, "nope")


# ----------------------------------------------------------- spatial index

F6_POINTS = [(0.0, 10.0), (1.0, 1.0), (10.0, 0.0), (1.0, -1.0), (0.0, -10.0),
             (-1.0, -1.0), (-10.0, 0.0), (-1.0, 1.0), (0.0, 10.0)]


def test_strtree_envelope_query_f6():
    ga = GeometryArray.from_points(
        np.array([p[0] for p in F6_POINTS]), np.array([p[1] for p in F6_POINTS])
    )
    xmin, ymin, xmax, ymax = K.bounds(ga)
    tree = STRTree(np.column_stack([xmin, ymin, xmax, ymax]))
    hits = tree.query_box(0.0, 0.0, 20.0, 20.0)
    assert set(hits.tolist()) == {0, 1, 2, 8}


def test_strtree_polygon_variant_f6():
    polys = GeometryArray.from_pylist(
        [
            ("polygon", [[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0), (0.0, 0.0)]]),
            ("polygon", [[(-10.0, -10.0), (0.0, -10.0), (0.0, 0.0), (-10.0, 0.0), (-10.0, -10.0)]]),
        ]
    )
    xmin, ymin, xmax, ymax = K.bounds(polys)
    tree = STRTree(np.column_stack([xmin, ymin, xmax, ymax]))
    hits = tree.query_box(0.5, 0.5, 20.0, 20.0)
    assert set(hits.tolist()) == {0}


def test_strtree_large_random():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 100, size=(5000, 2))
    boxes = np.column_stack([pts[:, 0], pts[:, 1], pts[:, 0], pts[:, 1]])
    tree = STRTree(boxes)
    q = (25.0, 25.0, 75.0, 75.0)
    expected = np.nonzero(
        (pts[:, 0] >= q[0]) & (pts[:, 0] <= q[2]) & (pts[:, 1] >= q[1]) & (pts[:, 1] <= q[3])
    )[0]
    got = tree.query_box(*q)
    assert set(got.tolist()) == set(expected.tolist())


def test_pip_boundary_exclusive_f5():
    """The reference's golden join semantics: boundary points do NOT match."""
    ring = np.array([(0.0, 0.0), (20.0, 0.0), (20.0, 20.0), (0.0, 20.0), (0.0, 0.0)])
    px = np.array([p[0] for p in F6_POINTS[:9]])
    py = np.array([p[1] for p in F6_POINTS[:9]])
    px[2], py[2] = 10.0, 1.0  # F5 uses (10, 1) instead of (10, 0)
    inside = points_in_polygon_single(px, py, [ring])
    # only (1,1) and (10,1) are strictly inside; (0,10) twice is on the boundary
    assert inside.tolist() == [False, True, True, False, False, False, False, False, False]


def test_pip_hole():
    rings = [
        np.array([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0), (0.0, 0.0)]),
        np.array([(4.0, 4.0), (6.0, 4.0), (6.0, 6.0), (4.0, 6.0), (4.0, 4.0)]),
    ]
    px = np.array([5.0, 2.0, 11.0])
    py = np.array([5.0, 2.0, 5.0])
    assert points_in_polygon_single(px, py, rings).tolist() == [False, True, False]


def test_grid_index_matches_brute_force():
    rng = np.random.default_rng(1)
    polys = []
    for i in range(30):
        x0, y0 = rng.uniform(0, 90, 2)
        w, h = rng.uniform(2, 10, 2)
        polys.append(
            ("polygon", [[(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h), (x0, y0)]])
        )
    ga = GeometryArray.from_pylist(polys)
    prep = PreparedPolygons.from_geometry_array(ga)
    grid = GridIndex(prep.bounds)
    px = rng.uniform(-5, 105, 2000)
    py = rng.uniform(-5, 105, 2000)
    pidx, items = grid.candidates_for_points(px, py)
    got = set()
    for i in range(len(pidx)):
        p, it = int(pidx[i]), int(items[i])
        if oracle_contains(px[p : p + 1], py[p : p + 1], rings_of(prep, it))[0]:
            got.add((p, it))
    expect = set()
    for it in range(len(ga)):
        ins = oracle_contains(px, py, rings_of(prep, it))
        for p in np.nonzero(ins)[0]:
            expect.add((int(p), it))
    assert got == expect


def test_area_centroid_trailing_empty_ring():
    """Valid WKB with a trailing empty ring (LINESTRING EMPTY / empty-ring
    polygon) must not crash the shoelace gathers (ADVICE r1)."""
    from geopolars_ray.geom import kernels as K
    from geopolars_ray.geom.array import GeometryArray

    ga = GeometryArray.from_pylist(
        [
            ("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)]]),
            ("linestring", []),
        ]
    )
    a = K.area(ga)
    assert a[0] == 16.0 and a[1] == 0.0
    c = K.centroid(ga)
    assert c.coords[0, 0] == 2.0 and c.coords[0, 1] == 2.0
    # empty linestring centroid is missing
    assert c.types[1] == -1

    # ONLY an empty geometry in the batch
    ga2 = GeometryArray.from_pylist([("linestring", [])])
    assert K.area(ga2)[0] == 0.0
    K.centroid(ga2)  # must not raise


def test_distance_crossing_segments_is_zero():
    """Two linestrings crossing between vertices -> distance 0 (ADVICE r1)."""
    from geopolars_ray.geom import kernels as K
    from geopolars_ray.geom.array import GeometryArray

    a = GeometryArray.from_pylist([("linestring", [(0.0, 0.0), (2.0, 2.0)])])
    b = GeometryArray.from_pylist([("linestring", [(0.0, 2.0), (2.0, 0.0)])])
    assert K.distance(a, b)[0] == 0.0
    # overlapping polygons with no vertices inside each other
    p1 = GeometryArray.from_pylist(
        [("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 1.0), (0.0, 1.0), (0.0, 0.0)]])]
    )
    p2 = GeometryArray.from_pylist(
        [("polygon", [[(1.0, -1.0), (2.0, -1.0), (2.0, 2.0), (1.0, 2.0), (1.0, -1.0)]])]
    )
    assert K.distance(p1, p2)[0] == 0.0
    # disjoint stays positive and exact: (2,2) -> (10,0) = sqrt(68)
    c = GeometryArray.from_pylist([("linestring", [(10.0, 0.0), (12.0, 0.0)])])
    assert K.distance(a, c)[0] == np.sqrt(68.0)


def test_segmentize_planar():
    ga = GeometryArray.from_pylist(
        [
            ("linestring", [(0.0, 0.0), (10.0, 0.0), (10.0, 1.0)]),
            ("point", (3.0, 3.0)),
            None,
            ("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 0.0)]]),
        ]
    )
    out = K.segmentize(ga, 3.0)
    lst = out.to_pylist()
    # 10-unit segment -> 4 pieces of 2.5; 1-unit segment unchanged
    assert lst[0] == ("linestring", [(0.0, 0.0), (2.5, 0.0), (5.0, 0.0), (7.5, 0.0), (10.0, 0.0), (10.0, 1.0)])
    assert lst[1] == ("point", (3.0, 3.0))
    assert lst[2] is None
    typ, rings = lst[3]
    assert typ == "polygon"
    ring = rings[0]
    assert ring[0] == ring[-1] == (0.0, 0.0)  # stays closed
    d = np.hypot(*(np.diff(np.array(ring), axis=0).T))
    assert d.max() <= 3.0 + 1e-12
    # original vertices all retained bit-exactly
    for v in [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0)]:
        assert v in ring
    # area unchanged by densification
    assert np.isclose(K.area(out)[3], K.area(ga)[3], rtol=1e-15)


def test_segmentize_geodesic():
    # quarter of the equator: 10,018 km; cap at ~500 km -> >= 21 pieces on
    # the great circle, every intermediate point stays on the equator
    ga = GeometryArray.from_pylist([("linestring", [(0.0, 0.0), (90.0, 0.0)])])
    out = K.segmentize(ga, 500_000.0, method="geodesic")
    _, pts = out.to_pylist()[0]
    assert len(pts) >= 21
    lats = np.array([p[1] for p in pts])
    lons = np.array([p[0] for p in pts])
    assert np.abs(lats).max() < 1e-12
    assert lons[0] == 0.0 and lons[-1] == 90.0
    assert (np.diff(lons) > 0).all()
    # same-latitude pair: great-circle midpoint is POLEWARD of the parallel
    ga2 = GeometryArray.from_pylist([("linestring", [(0.0, 45.0), (90.0, 45.0)])])
    _, pts2 = K.segmentize(ga2, 200_000.0, method="geodesic").to_pylist()[0]
    mid_lat = max(p[1] for p in pts2)
    assert mid_lat > 50.0  # true great-circle apex ~54.7
    assert pts2[0] == (0.0, 45.0) and pts2[-1] == (90.0, 45.0)  # endpoints exact
    # every sub-segment under the cap (haversine)
    a = np.array(pts2)
    from geopolars_ray.geom.kernels import _haversine_m
    seg = _haversine_m(a[:-1, 0], a[:-1, 1], a[1:, 0], a[1:, 1])
    assert seg.max() <= 200_000.0 * 1.001


def test_segmentize_guards():
    ga = GeometryArray.from_pylist([("linestring", [(0.0, 0.0), (1000.0, 0.0)])])
    with pytest.raises(ValueError, match="max_out_coords"):
        K.segmentize(ga, 1e-5, max_out_coords=1000)
    with pytest.raises(ValueError, match="method"):
        K.segmentize(ga, 1.0, method="spheroid")
    with pytest.raises(ValueError, match="> 0"):
        K.segmentize(ga, 0.0)


def test_line_interpolate_point():
    ga = GeometryArray.from_pylist(
        [
            ("linestring", [(0.0, 0.0), (10.0, 0.0), (10.0, 5.0)]),
            ("linestring", [(0.0, 0.0), (3.0, 4.0)]),  # length 5
            ("point", (1.0, 1.0)),
            None,
            ("polygon", [[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)]]),
        ]
    )
    out = K.line_interpolate_point(ga, 12.0)
    lst = out.to_pylist()
    assert lst[0] == ("point", (10.0, 2.0))  # 10 along x then 2 up
    assert lst[1] == ("point", (3.0, 4.0))  # clamps to the end
    assert lst[2] is None and lst[3] is None and lst[4] is None
    # scalar at a vertex, negative from the end, normalized, per-row array
    assert K.line_interpolate_point(ga, 10.0).to_pylist()[0] == ("point", (10.0, 0.0))
    assert K.line_interpolate_point(ga, -5.0).to_pylist()[0] == ("point", (10.0, 0.0))
    assert K.line_interpolate_point(ga, 0.5, normalized=True).to_pylist()[1] == ("point", (1.5, 2.0))
    per_row = K.line_interpolate_point(ga, np.array([2.5, 2.5, 0.0, 0.0, 0.0]))
    assert per_row.to_pylist()[0] == ("point", (2.5, 0.0))
    assert per_row.to_pylist()[1] == ("point", (1.5, 2.0))
    # distance 0 / beyond-length endpoints exact
    assert K.line_interpolate_point(ga, 0.0).to_pylist()[0] == ("point", (0.0, 0.0))
    assert K.line_interpolate_point(ga, 99.0).to_pylist()[0] == ("point", (10.0, 5.0))


def test_line_locate_point():
    lines = GeometryArray.from_pylist(
        [
            ("linestring", [(0.0, 0.0), (10.0, 0.0), (10.0, 5.0)]),
            ("linestring", [(0.0, 0.0), (10.0, 0.0), (10.0, 5.0)]),
            ("linestring", [(0.0, 0.0), (10.0, 0.0)]),
            ("point", (0.0, 0.0)),
        ]
    )
    pts = GeometryArray.from_pylist(
        [
            ("point", (4.0, 3.0)),   # nearest on first segment at x=4
            ("point", (12.0, 3.0)),  # nearest on second segment at y=3
            ("point", (-5.0, 2.0)),  # before the start -> measure 0
            ("point", (1.0, 1.0)),
        ]
    )
    m = K.line_locate_point(lines, pts)
    assert m[0] == 4.0
    assert np.isclose(m[1], 13.0, rtol=1e-12)  # 10 + 3
    assert m[2] == 0.0
    assert np.isnan(m[3])
    mn = K.line_locate_point(lines, pts, normalized=True)
    assert np.isclose(mn[0], 4.0 / 15.0) and np.isclose(mn[1], 13.0 / 15.0)


def test_interpolate_project_roundtrip_random():
    """project(interpolate(d)) == d for points ON the line (random zigzags)."""
    rng = np.random.default_rng(44)
    lines = []
    for _ in range(200):
        k = rng.integers(2, 8)
        lines.append(("linestring", [tuple(p) for p in rng.uniform(0, 100, (k, 2))]))
    ga = GeometryArray.from_pylist(lines)
    # lengths via the euclidean kernel
    tot = K.euclidean_length(ga)
    d = rng.uniform(0, 1, 200) * tot
    pts = K.line_interpolate_point(ga, d)
    m = K.line_locate_point(ga, pts)
    assert np.allclose(m, d, rtol=1e-9, atol=1e-7)


def test_reverse():
    ga = GeometryArray.from_pylist(SAMPLE)
    out = K.reverse(ga)
    lst = out.to_pylist()
    assert lst[0] == ("point", (1.0, 2.0))
    assert lst[1] == ("linestring", [(3.0, 8.0), (3.0, 4.0), (0.0, 0.0)])
    # ring winding flips: signed shoelace negates, |area| invariant
    assert np.isclose(K.area(out)[2], K.area(ga)[2])
    assert lst[2][1][0] == list(reversed(SAMPLE[2][1][0]))
    assert lst[4] is None
    # involution
    assert K.reverse(out).to_pylist() == SAMPLE


def test_remove_repeated_points():
    ga = GeometryArray.from_pylist(
        [
            ("linestring", [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 0.0)]),
            ("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 0.0)]]),
            ("point", (1.0, 1.0)),
            None,
        ]
    )
    out = K.remove_repeated_points(ga)
    lst = out.to_pylist()
    assert lst[0] == ("linestring", [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    # closing coord survives (repeats the FIRST coord, not its neighbor)
    assert lst[1] == ("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 0.0)]])
    assert lst[2] == ("point", (1.0, 1.0)) and lst[3] is None
    # tolerance: near-duplicates collapse, distinct points survive
    ga2 = GeometryArray.from_pylist(
        [("linestring", [(0.0, 0.0), (0.001, 0.0), (1.0, 0.0)])]
    )
    assert K.remove_repeated_points(ga2, 0.01).to_pylist()[0][1] == [(0.0, 0.0), (1.0, 0.0)]
    assert K.remove_repeated_points(ga2, 1e-6).to_pylist()[0][1] == [(0.0, 0.0), (0.001, 0.0), (1.0, 0.0)]


def _brute_hausdorff(ga, gb):
    """max over vertices of each side of min distance to other side's
    segments (degenerate per-coord 'segments' included), symmetric."""
    def segs(g):
        typ, data = g
        if typ == "point":
            return [(data, data)]
        rings = [data] if typ == "linestring" else [r for r in data] if typ == "polygon" else None
        if rings is None:
            raise AssertionError("unsupported in brute oracle")
        out = []
        for r in rings:
            out += [(r[i], r[i + 1]) for i in range(len(r) - 1)]
            out += [(p, p) for p in r]
        return out

    def verts(g):
        typ, data = g
        if typ == "point":
            return [data]
        if typ == "linestring":
            return list(data)
        return [p for r in data for p in r]

    def pt_seg(p, a, b):
        p, a, b = map(np.asarray, (p, a, b))
        ab = b - a
        dd = ab @ ab
        t = 0.0 if dd == 0 else float(np.clip((p - a) @ ab / dd, 0, 1))
        return float(np.linalg.norm(p - (a + t * ab)))

    def directed(g1, g2):
        s2 = segs(g2)
        return max(min(pt_seg(v, a, b) for a, b in s2) for v in verts(g1))

    return max(directed(ga, gb), directed(gb, ga))


def test_hausdorff_distance():
    lhs_list = [
        ("linestring", [(0.0, 0.0), (10.0, 0.0)]),
        ("point", (0.0, 0.0)),
        ("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)]]),
        None,
    ]
    rhs_list = [
        ("linestring", [(0.0, 1.0), (10.0, 3.0)]),
        ("point", (3.0, 4.0)),
        ("linestring", [(1.0, 1.0), (3.0, 3.0)]),
        ("point", (0.0, 0.0)),
    ]
    lhs = GeometryArray.from_pylist(lhs_list)
    rhs = GeometryArray.from_pylist(rhs_list)
    h = K.hausdorff_distance(lhs, rhs)
    assert np.isclose(h[0], 3.0)  # far vertex (10,3) is 3 above the line
    assert np.isclose(h[1], 5.0)
    assert np.isnan(h[3])
    for i in range(3):
        assert np.isclose(h[i], _brute_hausdorff(lhs_list[i], rhs_list[i]), rtol=1e-12)
    # random fuzz vs the brute oracle
    rng = np.random.default_rng(45)
    L, R = [], []
    for _ in range(120):
        k1, k2 = rng.integers(2, 6), rng.integers(2, 6)
        L.append(("linestring", [tuple(p) for p in rng.uniform(0, 50, (k1, 2))]))
        R.append(("linestring", [tuple(p) for p in rng.uniform(0, 50, (k2, 2))]))
    hv = K.hausdorff_distance(GeometryArray.from_pylist(L), GeometryArray.from_pylist(R))
    for i in range(120):
        assert np.isclose(hv[i], _brute_hausdorff(L[i], R[i]), rtol=1e-12), i


def test_oriented_envelope():
    ga = GeometryArray.from_pylist(
        [
            # axis-aligned rectangle of points -> itself
            ("multipoint", [(0.0, 0.0), (4.0, 0.0), (4.0, 2.0), (0.0, 2.0), (2.0, 1.0)]),
            # 4x2 rectangle rotated 30 deg + interior noise
            ("multipoint", []),
            ("point", (1.0, 1.0)),
            ("multipoint", [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]),  # collinear
            None,
        ]
    )
    th = np.radians(30.0)
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    base = np.array([[0, 0], [4, 0], [4, 2], [0, 2], [1.0, 0.5], [3.0, 1.7]])
    rot = base @ R.T
    lst = ga.to_pylist()
    lst[1] = ("multipoint", [tuple(p) for p in rot])
    ga = GeometryArray.from_pylist(lst)
    out = K.oriented_envelope(ga)
    res = out.to_pylist()
    assert res[0][0] == "polygon" and np.isclose(K.area(out)[0], 8.0)
    assert np.isclose(K.area(out)[1], 8.0)  # rotation-invariant min area
    assert res[2] == ("point", (1.0, 1.0))
    assert res[3][0] == "linestring"  # collinear hull passes through
    assert res[4] is None
    # every input point inside the rectangle (cross-product containment)
    ring = np.array(res[1][1][0])
    for p in rot:
        e = np.diff(ring, axis=0)
        w = p[None, :] - ring[:-1]
        cr = e[:, 0] * w[:, 1] - e[:, 1] * w[:, 0]
        assert (cr >= -1e-9).all()  # CCW ring

    # fuzz: min rotated rect area <= axis bbox area, >= hull area; all
    # points contained
    rng = np.random.default_rng(46)
    geoms = [("multipoint", [tuple(p) for p in rng.uniform(0, 50, (rng.integers(3, 12), 2))])
             for _ in range(150)]
    g = GeometryArray.from_pylist(geoms)
    rect = K.oriented_envelope(g)
    a_rect = K.area(rect)
    a_env = K.area(K.envelope(g))
    a_hull = K.area(K.convex_hull(g))
    ok_rows = rect.types == 3
    assert (a_rect[ok_rows] <= a_env[ok_rows] + 1e-9).all()
    assert (a_rect[ok_rows] >= a_hull[ok_rows] - 1e-9).all()


def test_minimum_bounding_radius_and_circle():
    ga = GeometryArray.from_pylist(
        [
            # equilateral-ish: circle through all three vertices
            ("multipoint", [(0.0, 0.0), (4.0, 0.0), (2.0, 2.0 * np.sqrt(3.0))]),
            # obtuse: diameter circle of the widest pair, third point inside
            ("multipoint", [(0.0, 0.0), (10.0, 0.0), (5.0, 1.0)]),
            ("point", (3.0, 3.0)),
            ("linestring", [(0.0, 0.0), (6.0, 8.0)]),
            None,
        ]
    )
    r = K.minimum_bounding_radius(ga)
    assert np.isclose(r[0], 4.0 / np.sqrt(3.0))  # circumradius = s/sqrt(3)
    assert np.isclose(r[1], 5.0)
    assert r[2] == 0.0
    assert np.isclose(r[3], 5.0)  # half the segment length
    assert np.isnan(r[4])
    circ = K.minimum_bounding_circle(ga)
    lst = circ.to_pylist()
    assert lst[2] == ("point", (3.0, 3.0)) and lst[4] is None
    assert np.isclose(K.area(circ)[1], np.pi * 25.0, rtol=1e-2)  # 64-gon
    # fuzz: every input point within r of the circle center; r is minimal
    # (<= half the rotated-rect diagonal; >= half the max pairwise distance)
    rng = np.random.default_rng(47)
    geoms = [("multipoint", [tuple(p) for p in rng.uniform(0, 50, (rng.integers(3, 15), 2))])
             for _ in range(150)]
    g = GeometryArray.from_pylist(geoms)
    rr = K.minimum_bounding_radius(g)
    for i, (_, pts) in enumerate(geoms):
        P = np.array(pts)
        dmax = max(np.hypot(*(a - b)) for a in P for b in P)
        assert rr[i] >= dmax / 2.0 - 1e-9
        assert rr[i] <= dmax / np.sqrt(3.0) + 1e-9  # Jung's theorem bound


def test_shortest_line():
    lhs = GeometryArray.from_pylist(
        [
            ("point", (0.0, 3.0)),
            ("linestring", [(0.0, 0.0), (10.0, 0.0)]),
            ("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)]]),
            ("linestring", [(0.0, 0.0), (10.0, 10.0)]),  # crosses rhs
            None,
        ]
    )
    rhs = GeometryArray.from_pylist(
        [
            ("linestring", [(2.0, 0.0), (8.0, 0.0)]),
            ("point", (5.0, 2.0)),
            ("point", (2.0, 2.0)),  # inside the polygon
            ("linestring", [(0.0, 10.0), (10.0, 0.0)]),
            ("point", (0.0, 0.0)),
        ]
    )
    sl = K.shortest_line(lhs, rhs)
    lst = sl.to_pylist()
    assert lst[0] == ("linestring", [(0.0, 3.0), (2.0, 0.0)])  # to segment start
    assert lst[1] == ("linestring", [(5.0, 0.0), (5.0, 2.0)])  # lhs endpoint first
    p, q = lst[2][1]
    assert p == q == (2.0, 2.0)  # containment -> zero-length at witness
    p, q = lst[3][1]
    assert p == q and np.allclose(p, (5.0, 5.0))  # crossing point witness
    assert lst[4] is None
    # an open-ring polygon: its implicit closing edge (0,10)->(0,0) is the
    # nearest, so the length equals distance
    open_poly = GeometryArray.from_pylist([("polygon", [[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]])])
    west = GeometryArray.from_pylist([("point", (-1.0, 5.0))])
    sl_open = K.shortest_line(open_poly, west)
    assert sl_open.to_pylist() == [("linestring", [(0.0, 5.0), (-1.0, 5.0)])]
    assert K.euclidean_length(sl_open)[0] == K.distance(open_poly, west)[0] == 1.0
    # invariant: length of the shortest line == distance kernel, fuzzed
    rng = np.random.default_rng(48)
    A, B = [], []
    for _ in range(150):
        A.append(("linestring", [tuple(p) for p in rng.uniform(0, 50, (rng.integers(2, 6), 2))]))
        B.append(("linestring", [tuple(p) for p in rng.uniform(0, 50, (rng.integers(2, 6), 2))]))
    ga, gb = GeometryArray.from_pylist(A), GeometryArray.from_pylist(B)
    sl = K.shortest_line(ga, gb)
    assert np.allclose(K.euclidean_length(sl), K.distance(ga, gb), rtol=1e-12, atol=1e-12)


def test_is_closed_is_ccw():
    ccw_ring = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 0.0)]
    cw_ring = ccw_ring[::-1]
    ga = GeometryArray.from_pylist(
        [
            ("linestring", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)]),  # closed ccw
            ("linestring", [(0.0, 0.0), (1.0, 0.0)]),  # open
            ("linestring", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0)]),  # closed cw
            ("polygon", [ccw_ring]),
            ("polygon", [cw_ring]),
            ("point", (1.0, 1.0)),
            None,
        ]
    )
    closed = K.is_closed(ga)
    # shapely semantics: is_closed is a LINE predicate — False for polygons
    assert closed.tolist() == [True, False, True, False, False, False, False]
    ccw = K.is_ccw(ga)
    assert ccw.tolist() == [True, False, False, True, False, False, False]
    # reverse flips winding
    assert K.is_ccw(K.reverse(ga)).tolist()[3:5] == [False, True]


def test_review_fixes_r4_final():
    """Regression pins for the r4-final review findings."""
    from geopolars_ray.geom.crs import _R_AUTH, _authalic_lat
    import geopolars_ray.geom.crs as C

    # 1: pole-encircling ring gets the 2pi closure term (both orientations
    # report the CAP, not the band/complement)
    def cap_ring(lat, k, east=True):
        lons = np.linspace(-180, 180, k, endpoint=False)
        if not east:
            lons = lons[::-1]
        return [(float(l), lat) for l in lons] + [(float(lons[0]), lat)]

    b80 = float(_authalic_lat(np.radians(np.array([80.0])))[0])
    cap = _R_AUTH**2 * 2 * np.pi * (1 - np.sin(b80))
    for east in (True, False):
        for lat in (80.0, -80.0):
            a = K.geodesic_area(GeometryArray.from_pylist(
                [("polygon", [cap_ring(lat, 256, east)])]))[0]
            assert abs(a - cap) / cap < 1e-3, (lat, east, a)

    # 2: NaN point coords yield NaN measure, not a crash
    lines = GeometryArray.from_pylist([("linestring", [(0.0, 0.0), (10.0, 0.0)])] * 2)
    pts = GeometryArray.from_pylist([("point", (np.nan, np.nan)), ("point", (5.0, 1.0))])
    m = K.line_locate_point(lines, pts)
    assert np.isnan(m[0]) and m[1] == 5.0

    # 3: chained tolerance semantics — sub-tolerance steps do NOT collapse
    # the whole line; endpoints always survive
    steps = [(0.9 * i, 0.0) for i in range(10)]
    out = K.remove_repeated_points(
        GeometryArray.from_pylist([("linestring", steps)]), 1.0)
    kept = out.to_pylist()[0][1]
    assert kept[0] == (0.0, 0.0) and kept[-1] == (8.1, 0.0)
    d = np.diff(np.array(kept)[:, 0])
    assert (d[:-1] > 1.0).all()  # every retained step exceeds the tolerance
    assert len(kept) >= 5

    # 4: polar sterea refuses loudly instead of silent NaN
    with pytest.raises(ValueError, match="OBLIQUE"):
        C.parse_crs("+proj=sterea +lat_0=90 +lon_0=0")

    # 5: is_ccw is False for OPEN linestrings (shapely parity)
    open_ccw = GeometryArray.from_pylist(
        [("linestring", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])])
    assert not K.is_ccw(open_ccw)[0]

    # 10: MULTILINESTRING is_closed = all members closed
    ml = GeometryArray.from_pylist([
        ("multilinestring", [[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)],
                             [(5.0, 5.0), (6.0, 5.0), (5.0, 6.0), (5.0, 5.0)]]),
        ("multilinestring", [[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)],
                             [(5.0, 5.0), (6.0, 5.0)]]),
    ])
    assert K.is_closed(ml).tolist() == [True, False]

    # 6/7: huge-geometry rows stay bounded and correct
    ang = np.linspace(0, 2 * np.pi, 5000, endpoint=False)
    big = [("linestring", [(float(np.cos(a) * 10), float(np.sin(a) * 10)) for a in ang])]
    sl = K.shortest_line(GeometryArray.from_pylist(big),
                         GeometryArray.from_pylist([("point", (20.0, 0.0))]))
    p, q = sl.to_pylist()[0][1]
    assert (p, q) == ((10.0, 0.0), (20.0, 0.0))  # order lhs->rhs
    assert np.isclose(K.euclidean_length(sl)[0], 10.0, rtol=1e-4)
    r = K.minimum_bounding_radius(GeometryArray.from_pylist(
        [("multipoint", [(float(np.cos(a) * 10), float(np.sin(a) * 10)) for a in ang])]))
    assert np.isclose(r[0], 10.0, rtol=1e-9)


def test_snap_to_grid():
    ga = GeometryArray.from_pylist(
        [("linestring", [(0.12, 0.87), (1.04, 2.49), (1.04, 2.51)]),
         ("point", (7.77, -3.33)), None]
    )
    out = K.snap_to_grid(ga, 0.5)
    lst = out.to_pylist()
    assert lst[0] == ("linestring", [(0.0, 1.0), (1.0, 2.5), (1.0, 2.5)])
    assert lst[1] == ("point", (8.0, -3.5)) and lst[2] is None
    # anchored origin shifts the lattice
    assert K.snap_to_grid(ga, 0.5, origin_x=0.25).to_pylist()[1][1] == (7.75, -3.5)
    # the PostGIS-style cleaning chain: snap then drop collapsed duplicates
    cleaned = K.remove_repeated_points(out)
    assert cleaned.to_pylist()[0] == ("linestring", [(0.0, 1.0), (1.0, 2.5)])
    with pytest.raises(ValueError, match="> 0"):
        K.snap_to_grid(ga, 0.0)


def test_segmentize_length_preservation_property():
    """Planar segmentize inserts only collinear points: per-row euclidean
    length is invariant for any random polyline and cap."""
    rng = np.random.default_rng(49)
    for _ in range(20):
        k = rng.integers(2, 12)
        line = [("linestring", [tuple(p) for p in rng.uniform(-100, 100, (k, 2))])]
        ga = GeometryArray.from_pylist(line)
        cap = float(rng.uniform(0.5, 50.0))
        out = K.segmentize(ga, cap)
        assert np.isclose(K.euclidean_length(out)[0], K.euclidean_length(ga)[0], rtol=1e-12)
        d = np.diff(out.coords, axis=0)
        assert np.hypot(d[:, 0], d[:, 1]).max() <= cap + 1e-9


def test_distance_generic_vectorized_vs_reference():
    """The batched generic distance == the per-row reference across all
    type pairs, including crossing / containment / disjoint-multipart
    zero-distance cases."""
    rng = np.random.default_rng(53)

    def rand_geom(kind):
        if kind == 0:
            return ("point", tuple(rng.uniform(0, 30, 2)))
        if kind == 1:
            return ("linestring", [tuple(p) for p in rng.uniform(0, 30, (rng.integers(2, 6), 2))])
        if kind == 2:
            cx, cy, r = rng.uniform(5, 25), rng.uniform(5, 25), rng.uniform(1, 6)
            a = np.linspace(0, 2 * np.pi, 8)[:-1]
            ring = [(float(cx + r * np.cos(t)), float(cy + r * np.sin(t))) for t in a]
            ring.append(ring[0])
            return ("polygon", [ring])
        if kind == 3:
            return ("multipoint", [tuple(p) for p in rng.uniform(0, 30, (rng.integers(1, 5), 2))])
        if kind == 4:
            return ("multilinestring",
                    [[tuple(p) for p in rng.uniform(0, 30, (rng.integers(2, 4), 2))]
                     for _ in range(rng.integers(1, 3))])
        out = []
        for _ in range(2):
            cx, cy = rng.uniform(3, 27, 2)
            s = rng.uniform(0.5, 3)
            out.append([[(cx, cy), (cx + s, cy), (cx + s, cy + s), (cx, cy + s), (cx, cy)]])
        return ("multipolygon", out)

    A = [rand_geom(rng.integers(0, 6)) for _ in range(2000)] + [None]
    B = [rand_geom(rng.integers(0, 6)) for _ in range(2000)] + [("point", (0.0, 0.0))]
    ga, gb = GeometryArray.from_pylist(A), GeometryArray.from_pylist(B)
    d = K.distance(ga, gb)
    assert np.isnan(d[-1])
    n_zero = 0
    for i in range(2000):
        if ga.types[i] == POINT and gb.types[i] == POINT:
            continue
        ref = geom_pair_distance(ga, gb, i)
        assert np.isclose(d[i], ref, rtol=1e-12, atol=1e-12), (i, d[i], ref)
        n_zero += ref == 0.0
    assert n_zero > 50  # the fuzz actually exercised the zero short-circuits


def test_representative_point():
    from geopolars_ray.geom.strtree import points_in_polygon_single

    ga = GeometryArray.from_pylist(
        [
            # C-shape: the bbox center is OUTSIDE — centroid would fail here
            ("polygon", [[(0.0, 0.0), (10.0, 0.0), (10.0, 2.0), (2.0, 2.0),
                          (2.0, 8.0), (10.0, 8.0), (10.0, 10.0), (0.0, 10.0), (0.0, 0.0)]]),
            # square with a center hole: point must avoid the hole
            ("polygon", [[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0), (0.0, 0.0)],
                         [(4.0, 4.0), (6.0, 4.0), (6.0, 6.0), (4.0, 6.0), (4.0, 4.0)]]),
            ("linestring", [(0.0, 0.0), (5.0, 5.0), (10.0, 0.0)]),
            ("point", (3.0, 4.0)),
            ("multipoint", [(0.0, 0.0), (9.0, 9.0)]),
            None,
        ]
    )
    rp = representative_point_lst = K.representative_point(ga).to_pylist()
    for i in (0, 1):
        typ, (px, py) = rp[i]
        assert typ == "point"
        rings = [np.array(r) for r in ga.to_pylist()[i][1]]
        assert points_in_polygon_single(np.array([px]), np.array([py]), rings)[0], i
    assert rp[2][1] in [(0.0, 0.0), (5.0, 5.0), (10.0, 0.0)]  # a line vertex
    assert rp[3] == ("point", (3.0, 4.0))
    assert rp[4][1] in [(0.0, 0.0), (9.0, 9.0)]
    assert rp[5] is None

    # fuzz: strictly interior for random convex-ish polygons
    rng = np.random.default_rng(55)
    geoms = []
    for _ in range(300):
        cx, cy, r = rng.uniform(5, 95), rng.uniform(5, 95), rng.uniform(1, 5)
        a = np.sort(rng.uniform(0, 2 * np.pi, rng.integers(5, 12)))
        ring = [(float(cx + r * np.cos(t)), float(cy + r * np.sin(t))) for t in a]
        ring.append(ring[0])
        geoms.append(("polygon", [ring]))
    g = GeometryArray.from_pylist(geoms)
    pts = K.representative_point(g)
    for i, (_, rings) in enumerate(geoms):
        px, py = pts.to_pylist()[i][1]
        assert points_in_polygon_single(np.array([px]), np.array([py]),
                                        [np.array(rings[0])])[0], i


def test_extract_unique_points():
    ga = GeometryArray.from_pylist(
        [
            ("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 0.0)]]),  # closing dup
            ("linestring", [(1.0, 1.0), (2.0, 2.0), (1.0, 1.0), (2.0, 2.0)]),
            ("point", (5.0, 5.0)),
            None,
        ]
    )
    out = K.extract_unique_points(ga)
    lst = out.to_pylist()
    assert lst[0] == ("multipoint", [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0)])
    assert lst[1] == ("multipoint", [(1.0, 1.0), (2.0, 2.0)])
    assert lst[2] == ("multipoint", [(5.0, 5.0)])
    assert lst[3] is None


def test_line_merge():
    ga = GeometryArray.from_pylist(
        [
            # chain of three parts, middle one reversed -> one line
            ("multilinestring", [[(0.0, 0.0), (1.0, 0.0)],
                                 [(2.0, 0.0), (1.0, 0.0)],
                                 [(2.0, 0.0), (3.0, 0.0)]]),
            # T-junction: degree-3 node keeps all three split
            ("multilinestring", [[(0.0, 0.0), (1.0, 0.0)],
                                 [(1.0, 0.0), (2.0, 0.0)],
                                 [(1.0, 0.0), (1.0, 1.0)]]),
            # closed square from four edges -> one closed line
            ("multilinestring", [[(0.0, 0.0), (1.0, 0.0)], [(1.0, 0.0), (1.0, 1.0)],
                                 [(1.0, 1.0), (0.0, 1.0)], [(0.0, 1.0), (0.0, 0.0)]]),
            ("linestring", [(5.0, 5.0), (6.0, 6.0)]),  # passthrough
            None,
        ]
    )
    out = K.line_merge(ga).to_pylist()
    assert out[0] == ("linestring", [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
    assert out[1][0] == "multilinestring" and len(out[1][1]) == 3
    typ, coords = out[2]
    assert typ == "linestring" and len(coords) == 5 and coords[0] == coords[-1]
    # length invariant
    assert np.isclose(K.euclidean_length(K.line_merge(ga))[2], 4.0)
    assert out[3] == ("linestring", [(5.0, 5.0), (6.0, 6.0)])
    assert out[4] is None
    # fuzz: merging preserves total length and never increases part count
    rng = np.random.default_rng(58)
    for _ in range(50):
        pts = [tuple(p) for p in rng.uniform(0, 10, (8, 2))]
        # random chain cut into segments, some reversed, plus a stray part
        segs = [[pts[i], pts[i + 1]] for i in range(7)]
        for s in segs:
            if rng.random() < 0.5:
                s.reverse()
        rng.shuffle(segs)
        segs.append([tuple(rng.uniform(20, 30, 2)), tuple(rng.uniform(20, 30, 2))])
        g = GeometryArray.from_pylist([("multilinestring", segs)])
        m = K.line_merge(g)
        assert np.isclose(K.euclidean_length(m)[0], K.euclidean_length(g)[0], rtol=1e-12)
        typ, data = m.to_pylist()[0]
        n_parts = 1 if typ == "linestring" else len(data)
        assert n_parts <= 8


def test_representative_point_gapped_multipolygon():
    # the union-bbox center scanline (y=5) misses BOTH parts; per-part
    # scanlines must still find an interior point (third-review regression)
    mp = ("multipolygon", [[[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]],
                           [[(0.0, 9.0), (1.0, 9.0), (1.0, 10.0), (0.0, 10.0), (0.0, 9.0)]]])
    rp = K.representative_point(GeometryArray.from_pylist([mp])).to_pylist()[0]
    assert rp is not None and rp[0] == "point"
    x, y = rp[1]
    assert 0.0 < x < 1.0 and (0.0 < y < 1.0 or 9.0 < y < 10.0)
    # widest part wins: a 10-wide part beats a 1-wide part
    mp2 = ("multipolygon", [[[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]],
                            [[(0.0, 9.0), (10.0, 9.0), (10.0, 10.0), (0.0, 10.0), (0.0, 9.0)]]])
    rp2 = K.representative_point(GeometryArray.from_pylist([mp2])).to_pylist()[0]
    assert 9.0 < rp2[1][1] < 10.0


def test_representative_point_degenerate_only_batch():
    # a batch whose only polygon rows have zero scanline crossings used to
    # raise IndexError on rows_grp[0] over an empty split; now it falls back
    # to a boundary coordinate
    deg = ("polygon", [[(0.0, 0.0), (5.0, 0.0), (10.0, 0.0), (0.0, 0.0)]])  # zero height
    out = K.representative_point(GeometryArray.from_pylist([deg])).to_pylist()
    assert out[0] == ("point", (0.0, 0.0))


def test_representative_point_open_ring():
    # open rings carry an implicit closing edge; parity must see it
    op = ("polygon", [[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]])
    rp = K.representative_point(GeometryArray.from_pylist([op])).to_pylist()[0]
    assert rp is not None
    x, y = rp[1]
    assert 0.0 < x < 10.0 and 0.0 < y < 10.0


def test_distance_open_ring_polygon():
    # area() treats open rings as closed (implicit last->first edge); the
    # batched distance kernel must agree on both containment and the edge
    op = ("polygon", [[(10.0, 10.0), (0.0, 10.0), (0.0, 0.0), (10.0, 0.0)]])
    ga = GeometryArray.from_pylist([op, op])
    pts = GeometryArray.from_pylist([("point", (5.0, 5.0)), ("point", (12.0, 5.0))])
    d = K.distance(ga, pts)
    assert d[0] == 0.0          # strictly inside
    assert np.isclose(d[1], 2.0)  # nearest edge is the IMPLICIT closing edge x=10
    # hausdorff also sees the closing edge: a multipoint covering every
    # corner (poly->pts direction = 0) plus (11,5), whose nearest feature
    # is the implicit x=10 edge (1.0 closed vs ~5.1 treating the ring open)
    mp = ("multipoint", [(10.0, 10.0), (0.0, 10.0), (0.0, 0.0), (10.0, 0.0), (11.0, 5.0)])
    h = K.hausdorff_distance(GeometryArray.from_pylist([mp]), GeometryArray.from_pylist([op]))
    assert np.isclose(h[0], 1.0)


def test_distance_isolated_points_both_sides():
    # nearest pair is isolated-coord <-> isolated-coord: neither the
    # vertex-to-segment passes nor a no-segment-gated point pass covers it
    A = ("multilinestring", [[(100.0, 100.0), (101.0, 100.0)], [(0.0, 0.0)]])
    B = ("multilinestring", [[(-100.0, -100.0), (-101.0, -100.0)], [(0.0, 1.0)]])
    d = K.distance(GeometryArray.from_pylist([A]), GeometryArray.from_pylist([B]))
    assert np.isclose(d[0], 1.0)


def test_line_merge_passthrough_zero_copy():
    # a column with no multilinestring returns the SAME array object
    ga = GeometryArray.from_pylist([
        ("linestring", [(0.0, 0.0), (1.0, 1.0)]),
        ("polygon", [[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)]]),
        None,
    ])
    assert K.line_merge(ga) is ga


# ---------------------------------------------------------------- frechet
def _ref_frechet(a, b):
    """Textbook O(n*m) discrete Fréchet DP (Eiter & Mannila 1994)."""
    n, m = len(a), len(b)
    d = np.hypot(a[:, 0, None] - b[None, :, 0], a[:, 1, None] - b[None, :, 1])
    c = np.full((n, m), np.inf)
    c[0, 0] = d[0, 0]
    for i in range(n):
        for j in range(m):
            if i == 0 and j == 0:
                continue
            prev = min(c[i - 1, j] if i > 0 else np.inf,
                       c[i, j - 1] if j > 0 else np.inf,
                       c[i - 1, j - 1] if i > 0 and j > 0 else np.inf)
            c[i, j] = max(d[i, j], prev)
    return c[-1, -1]


def test_frechet_distance_vs_reference_dp():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n, m = rng.integers(2, 18, 2)
        a = rng.uniform(-5, 5, (int(n), 2))
        b = rng.uniform(-5, 5, (int(m), 2))
        lhs = GeometryArray.from_pylist([("linestring", [tuple(p) for p in a])])
        rhs = GeometryArray.from_pylist([("linestring", [tuple(p) for p in b])])
        assert np.isclose(K.frechet_distance(lhs, rhs)[0], _ref_frechet(a, b),
                          rtol=0, atol=1e-12)


def test_frechet_semantics_and_types():
    lhs = GeometryArray.from_pylist([
        ("linestring", [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]),  # vs parallel
        ("point", (0.0, 0.0)),                                 # degenerate
        None,                                                  # missing
        ("polygon", [[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]]),   # unsupported
    ])
    rhs = GeometryArray.from_pylist([
        ("linestring", [(0.0, 1.0), (1.0, 1.0)]),
        ("point", (3.0, 4.0)),
        ("linestring", [(0.0, 0.0), (1.0, 1.0)]),
        ("linestring", [(0.0, 0.0), (1.0, 1.0)]),
    ])
    f = K.frechet_distance(lhs, rhs)
    assert f[0] == 1.0          # frechet >= hausdorff; ordering forces 1.0
    assert f[1] == 5.0          # point-point degenerates to distance
    assert np.isnan(f[2]) and np.isnan(f[3])
    # frechet dominates hausdorff (the coupling respects vertex order)
    assert f[0] >= K.hausdorff_distance(lhs, rhs)[0] - 1e-12


# ------------------------------------------------- maximum inscribed circle
def test_maximum_inscribed_circle_anchors():
    sq = ("polygon", [[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]])
    thin = ("polygon", [[(0.0, 0.0), (10.0, 0.0), (10.0, 1.0), (0.0, 1.0), (0.0, 0.0)]])
    # 4x4 with centered 2x2 hole: the optimum wedges into a corner pocket,
    # touching both outer walls and the hole corner: r = 2 - sqrt(2)
    ann = ("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)],
                       [(1.0, 1.0), (1.0, 3.0), (3.0, 3.0), (3.0, 1.0), (1.0, 1.0)]])
    ga = GeometryArray.from_pylist([sq, thin, ann, None, ("point", (1.0, 2.0))])
    # NOTE: ridge-degenerate shapes (thin's whole centerline is optimal)
    # make tiny tolerances explode the search frontier — 1e-4 is already
    # far past any practical need (GEOS defaults to diagonal/1000)
    r = K.maximum_inscribed_radius(ga, tolerance=1e-4)
    assert abs(r[0] - 0.5) < 1e-3
    assert abs(r[1] - 0.5) < 1e-3
    assert abs(r[2] - (2.0 - np.sqrt(2.0))) < 1e-3
    assert np.isnan(r[3]) and np.isnan(r[4])
    pts = K.maximum_inscribed_circle(ga, tolerance=1e-4).to_pylist()
    assert pts[0][0] == "point" and np.hypot(pts[0][1][0] - 0.5, pts[0][1][1] - 0.5) < 1e-3
    assert abs(pts[1][1][1] - 0.5) < 1e-3  # centered in the thin axis
    assert pts[3] is None and pts[4] is None


def test_maximum_inscribed_center_radius_consistency():
    """The returned radius equals the min distance from the returned
    center to the boundary (self-consistency), and the center is inside."""
    rng = np.random.default_rng(6)
    geoms = []
    for _ in range(8):
        k = 14
        ang = np.sort(rng.uniform(0, 2 * np.pi, k))
        rr = rng.uniform(1, 6, k)
        pts = [(float(ri * np.cos(a)), float(ri * np.sin(a)))
               for ri, a in zip(rr, ang)]
        geoms.append(("polygon", [pts + [pts[0]]]))
    ga = GeometryArray.from_pylist(geoms)
    centers = K.maximum_inscribed_circle(ga, tolerance=1e-4).to_pylist()
    radii = K.maximum_inscribed_radius(ga, tolerance=1e-4)
    from geopolars_ray.geom.kernels import _areal_segments
    from pip_oracle import min_point_to_segments

    for i, (c, r) in enumerate(zip(centers, radii)):
        segs = _areal_segments(ga, i).reshape(-1, 2, 2)
        d = min_point_to_segments(np.array([c[1]]), segs)
        assert abs(d - r) < 1e-9  # radius IS the boundary distance
        assert r > 0


# ---------------------------------------------------------------------- snap
def test_snap_semantics():
    lhs = GeometryArray.from_pylist([
        ("linestring", [(0.05, 0.05), (5.0, 0.0)]),   # vertex snap to (0,0)
        ("linestring", [(0.0, 1.0), (10.0, 1.0)]),    # target inserted mid-segment
        ("linestring", [(0.0, 5.0), (1.0, 5.0)]),     # beyond tolerance: unchanged
        ("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)]]),
        None,
    ])
    rhs = GeometryArray.from_pylist([
        ("point", (0.0, 0.0)),
        ("point", (5.0, 1.05)),
        ("point", (0.0, 0.0)),
        ("multipoint", [(4.05, 2.0)]),
        ("point", (0.0, 0.0)),
    ])
    out = K.snap_geoms(lhs, rhs, 0.1).to_pylist()
    assert out[0] == ("linestring", [(0.0, 0.0), (5.0, 0.0)])
    assert out[1] == ("linestring", [(0.0, 1.0), (5.0, 1.05), (10.0, 1.0)])
    assert out[2] == ("linestring", [(0.0, 5.0), (1.0, 5.0)])
    # polygon edge insertion, explicit closing point preserved
    ring = out[3][1][0]
    assert (4.05, 2.0) in ring and ring[0] == ring[-1]
    assert out[4] is None
    # idempotence
    again = K.snap_geoms(K.snap_geoms(lhs, rhs, 0.1), rhs, 0.1).to_pylist()
    assert again == out


def test_snap_api(ray_session):
    import ray

    from geopolars_ray.api import GeoDataset

    t = pa.table({
        "geometry": encode_wkb(GeometryArray.from_pylist(
            [("linestring", [(0.02, 0.0), (3.0, 0.0)])])),
        "other": encode_wkb(GeometryArray.from_pylist(
            [("point", (0.0, 0.0))])),
    })
    out = pa.concat_tables(ray.get(
        GeoDataset(ray.data.from_arrow(t)).snap("other", 0.1)
        .dataset.to_arrow_refs()))
    g = decode_wkb(out["geometry"]).to_pylist()[0]
    assert g == ("linestring", [(0.0, 0.0), (3.0, 0.0)])


# -------------------------------------------------------- minimum clearance
def test_minimum_clearance_and_line():
    ga = GeometryArray.from_pylist([
        ("polygon", [[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0), (0.0, 0.0)]]),
        ("polygon", [[(0.0, 0.0), (10.0, 0.0), (5.0, 1.0), (0.0, 0.0)]]),  # apex near base
        ("multipoint", [(0.0, 0.0), (3.0, 0.0), (3.5, 0.0)]),
        ("linestring", [(0.0, 0.0), (10.0, 0.0), (10.0, 1.0), (0.0, 1.0)]),
        ("point", (2.0, 2.0)),
        None,
    ])
    c = K.minimum_clearance(ga)
    assert np.allclose(c[:4], [10.0, 1.0, 0.5, 1.0])
    assert np.isinf(c[4]) and np.isnan(c[5])
    lines = K.minimum_clearance_line(ga).to_pylist()
    # the apex-to-base witness: (5,1) projected onto y=0
    assert lines[1] == ("linestring", [(5.0, 1.0), (5.0, 0.0)])
    assert lines[2] == ("linestring", [(3.0, 0.0), (3.5, 0.0)])
    assert lines[4] is None and lines[5] is None
    # witness length == clearance on every finite row
    for i in range(4):
        (x1, y1), (x2, y2) = lines[i][1]
        assert abs(np.hypot(x2 - x1, y2 - y1) - c[i]) < 1e-12


# --------------------------------------------------------- line_substring
def test_line_substring():
    ga = GeometryArray.from_pylist([
        ("linestring", [(0.0, 0.0), (10.0, 0.0)]),
        ("linestring", [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (8.0, 4.0)]),  # len 12
        ("point", (1.0, 1.0)),
        None,
    ])
    out = K.line_substring(ga, 0.25, 0.75).to_pylist()
    assert out[0] == ("linestring", [(2.5, 0.0), (7.5, 0.0)])
    assert out[1] == ("linestring", [(3.0, 0.0), (4.0, 0.0), (4.0, 4.0), (5.0, 4.0)])
    assert out[2] is None and out[3] is None
    # absolute distances
    assert K.line_substring(ga, 2.0, 10.0, normalized=False).to_pylist()[1] == \
        ("linestring", [(2.0, 0.0), (4.0, 0.0), (4.0, 4.0), (6.0, 4.0)])
    # reversed pair -> reversed substring (shapely parity)
    assert K.line_substring(ga, 0.75, 0.25).to_pylist()[0] == \
        ("linestring", [(7.5, 0.0), (2.5, 0.0)])
    # degenerate window -> POINT; out-of-range clamps
    assert K.line_substring(ga, 0.5, 0.5).to_pylist()[0] == ("point", (5.0, 0.0))
    assert K.line_substring(ga, -1.0, 2.0).to_pylist()[0] == \
        ("linestring", [(0.0, 0.0), (10.0, 0.0)])
    # per-row arrays
    import numpy as _np
    out = K.line_substring(ga, _np.array([0.1, 0.5, 0.0, 0.0]),
                           _np.array([0.2, 1.0, 1.0, 1.0])).to_pylist()
    assert out[0] == ("linestring", [(1.0, 0.0), (2.0, 0.0)])
    # fraction 0.5 of length 12 = distance 6 = (4, 2), up and across
    assert out[1] == ("linestring", [(4.0, 2.0), (4.0, 4.0), (8.0, 4.0)])


def test_maximum_inscribed_coarse_tolerance_stays_inside():
    """Regression: when the default tolerance exceeds the initial cell
    half-diagonal the refinement loop used to be skipped entirely and
    the seeds (bbox center / vertex centroid) came back even when both
    lie in a void OUTSIDE the polygon. GEOS always returns an interior
    point."""
    u = ("polygon", [[(0.0, 0.0), (100000.0, 0.0), (100000.0, 60.0),
                      (99990.0, 60.0), (99990.0, 10.0), (10.0, 10.0),
                      (10.0, 60.0), (0.0, 60.0), (0.0, 0.0)]])
    ga = GeometryArray.from_pylist([u])
    r = K.maximum_inscribed_radius(ga)  # default tolerance = diag/1000
    assert r[0] > 0.0
    (px, py) = K.maximum_inscribed_circle(ga).to_pylist()[0][1]
    # interior = inside one of the three bars of the U
    inside = (py < 10.0) or (px < 10.0) or (px > 99990.0)
    assert inside and 0.0 < px < 100000.0 and 0.0 < py < 60.0


def test_polylabel_high_aspect_bounded():
    """A river-like polygon with bbox aspect ~1e5 must not materialize
    an aspect-sized initial grid (memory guard) and still localize the
    pole correctly."""
    # thin horizontal ribbon 1e5 long, height 1, with one 3x1-widened pocket
    ring = [(0.0, 0.0), (100000.0, 0.0), (100000.0, 1.0), (50003.0, 1.0),
            (50003.0, 3.0), (50000.0, 3.0), (50000.0, 1.0), (0.0, 1.0),
            (0.0, 0.0)]
    ga = GeometryArray.from_pylist([("polygon", [ring])])
    r = K.maximum_inscribed_radius(ga, tolerance=0.05)
    assert abs(r[0] - 1.5) < 0.1  # the 3x3 pocket fits a 1.5-circle


def test_minimum_clearance_hoisted_offsets_match():
    """clearance over a multi-row batch equals per-row singleton calls
    (guards the hoisted coord_offsets indexing)."""
    rows = [
        ("polygon", [[(0.0, 0.0), (5.0, 0.0), (5.0, 5.0), (0.0, 5.0), (0.0, 0.0)]]),
        ("linestring", [(0.0, 0.0), (10.0, 0.0), (10.0, 0.5)]),
        ("multipoint", [(0.0, 0.0), (3.0, 4.0)]),
    ]
    ga = GeometryArray.from_pylist(rows)
    batch = K.minimum_clearance(ga)
    for i, g in enumerate(rows):
        single = K.minimum_clearance(GeometryArray.from_pylist([g]))
        assert batch[i] == single[0]


# ------------------------------------------------------------------ boundary
def test_boundary_semantics():
    rows = [
        # polygon, shell only -> closed LINESTRING
        ("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)]]),
        # polygon with hole -> MULTILINESTRING of both rings
        ("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)],
                     [(1.0, 1.0), (1.0, 3.0), (3.0, 3.0), (3.0, 1.0), (1.0, 1.0)]]),
        # open line -> endpoints
        ("linestring", [(0.0, 0.0), (5.0, 0.0), (5.0, 5.0)]),
        # closed line -> empty MULTIPOINT
        ("linestring", [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)]),
        # multilinestring sharing one endpoint: mod-2 keeps only odd ones
        ("multilinestring", [[(0.0, 0.0), (1.0, 0.0)],
                             [(1.0, 0.0), (2.0, 0.0)]]),
        ("point", (1.0, 2.0)),
        ("multipoint", [(0.0, 0.0), (1.0, 1.0)]),
        None,
        # unclosed polygon ring gets closed in the boundary line
        ("polygon", [[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0)]]),
        # multipolygon -> all rings
        ("multipolygon", [[[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)]],
                          [[(5.0, 5.0), (6.0, 5.0), (6.0, 6.0), (5.0, 5.0)]]]),
    ]
    out = K.boundary(GeometryArray.from_pylist(rows)).to_pylist()
    assert out[0] == ("linestring", [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0),
                                     (0.0, 4.0), (0.0, 0.0)])
    assert out[1][0] == "multilinestring" and len(out[1][1]) == 2
    assert out[1][1][1][0] == (1.0, 1.0)  # hole ring present, closed
    assert out[1][1][1][-1] == (1.0, 1.0)
    assert out[2] == ("multipoint", [(0.0, 0.0), (5.0, 5.0)])
    assert out[3] == ("multipoint", [])  # closed -> empty boundary
    # shared interior endpoint (1,0) occurs twice -> dropped by mod-2
    assert out[4] == ("multipoint", [(0.0, 0.0), (2.0, 0.0)])
    assert out[5] is None and out[6] is None and out[7] is None
    assert out[8] == ("linestring", [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 0.0)])
    assert out[9][0] == "multilinestring" and len(out[9][1]) == 2


def test_boundary_matches_length_identity():
    """boundary length of a polygon == exterior length + hole perimeters
    (cross-kernel identity over random concave polygons)."""
    rng = np.random.default_rng(11)
    geoms = []
    for _ in range(40):
        k = 12
        ang = np.sort(rng.uniform(0, 2 * np.pi, k))
        rr = rng.uniform(1, 5, k)
        pts = [(float(ri * np.cos(a)), float(ri * np.sin(a)))
               for ri, a in zip(rr, ang)]
        geoms.append(("polygon", [pts + [pts[0]]]))
    ga = GeometryArray.from_pylist(geoms)
    blen = K.euclidean_length(K.boundary(ga))
    elen = K.euclidean_length(K.exterior(ga))
    np.testing.assert_allclose(blen, elen, rtol=1e-12)


def test_boundary_api(ray_session):
    import ray

    from geopolars_ray.api import GeoDataset
    from geopolars_ray.geom import decode_wkb, encode_wkb

    sq = ("polygon", [[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (0.0, 0.0)]])
    t = pa.table({"geometry": encode_wkb(GeometryArray.from_pylist([sq]))})
    out = GeoDataset(ray.data.from_arrow(t)).boundary().dataset
    got = decode_wkb(pa.concat_tables(ray.get(out.to_arrow_refs()))["geometry"]).to_pylist()
    assert got[0][0] == "linestring" and got[0][1][0] == got[0][1][-1]


# ------------------------------------------------- azimuth / project / orient
def test_azimuth_anchors():
    a = GeometryArray.from_pylist([("point", (0., 0.))] * 5)
    b = GeometryArray.from_pylist([("point", (0., 1.)), ("point", (1., 0.)),
                                   ("point", (0., -1.)), ("point", (-1., 0.)),
                                   ("point", (0., 0.))])
    az = K.azimuth(a, b)
    np.testing.assert_allclose(az[:4], [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
    assert np.isnan(az[4])  # coincident -> NaN (PostGIS NULL)


def test_geodesic_azimuth_and_project_roundtrip():
    from geopolars_ray.geom.geodesic import vincenty_inverse

    a = GeometryArray.from_pylist([("point", (0., 0.)), ("point", (10., 45.))])
    # due-east from the equator is azimuth pi/2; due north is 0
    b = GeometryArray.from_pylist([("point", (1., 0.)), ("point", (10., 46.))])
    az = K.geodesic_azimuth(a, b)
    np.testing.assert_allclose(az, [np.pi / 2, 0.0], atol=1e-12)
    # project then invert: distance and azimuth round-trip
    dest = K.geodesic_project(a, 50_000.0, np.pi / 4)
    out = dest.to_pylist()
    lon1 = np.array([0., 10.]); lat1 = np.array([0., 45.])
    lon2 = np.array([p[1][0] for p in out]); lat2 = np.array([p[1][1] for p in out])
    s, az_deg = vincenty_inverse(lon1, lat1, lon2, lat2)
    np.testing.assert_allclose(s, 50_000.0, rtol=1e-9)
    np.testing.assert_allclose(az_deg, 45.0, rtol=1e-9)


def test_orient_winding():
    cw_shell_ccw_hole = ("polygon", [
        [(0., 0.), (0., 4.), (4., 4.), (4., 0.), (0., 0.)],      # CW shell
        [(1., 1.), (3., 1.), (3., 3.), (1., 3.), (1., 1.)],      # CCW hole
    ])
    line = ("linestring", [(0., 0.), (1., 1.)])
    ga = GeometryArray.from_pylist([cw_shell_ccw_hole, line, None])
    out = K.orient(ga)
    got = out.to_pylist()
    shell, hole = got[0][1]
    # shoelace signs: shell CCW (+), hole CW (-)
    def signed(r):
        s = 0.0
        for (x1, y1), (x2, y2) in zip(r, r[1:]):
            s += x1 * y2 - x2 * y1
        return s
    assert signed(shell) > 0 and signed(hole) < 0
    assert got[1] == line and got[2] is None
    assert K.area(out)[0] == K.area(ga)[0] == 12.0
    # sign=-1 flips both conventions
    out2 = K.orient(ga, sign=-1.0)
    shell2, hole2 = out2.to_pylist()[0][1]
    assert signed(shell2) < 0 and signed(hole2) > 0
    # already-correct input passes through zero-copy (same object)
    assert K.orient(out) is out
