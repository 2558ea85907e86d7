"""Spatial-join tests: reference golden fixture F5 + broadcast/partitioned joins."""

import numpy as np
import pyarrow as pa
import pytest

from geopolars_ray.geom import GeometryArray, encode_wkb
from geopolars_ray.stages.join import spatial_join_table

F5_POINTS = [(0.0, 10.0), (1.0, 1.0), (10.0, 1.0), (1.0, -1.0), (0.0, -10.0),
             (-1.0, -1.0), (-10.0, 0.0), (-1.0, 1.0), (0.0, 10.0)]


def _f5_tables():
    pts = GeometryArray.from_points(
        np.array([p[0] for p in F5_POINTS]), np.array([p[1] for p in F5_POINTS])
    )
    lhs = pa.table(
        {"geometry": encode_wkb(pts), "point_values": pa.array([float(i + 1) for i in range(9)])}
    )
    poly = GeometryArray.from_pylist(
        [("polygon", [[(0.0, 0.0), (20.0, 0.0), (20.0, 20.0), (0.0, 20.0), (0.0, 0.0)]])]
    )
    rhs = pa.table({"geometry": encode_wkb(poly), "string_col": pa.array(["test"])})
    return lhs, rhs


def test_f5_inner_shape():
    """Golden: inner join is exactly (2, 4); matches are (1,1) and (10,1)
    (`spatial_index.rs:479`)."""
    lhs, rhs = _f5_tables()
    out = spatial_join_table(lhs, rhs, how="inner")
    assert out.shape == (2, 4)
    assert sorted(out["point_values_left"].to_pylist()) == [2.0, 3.0]
    assert out["string_col_right"].to_pylist() == ["test", "test"]


def test_f5_left_shape():
    """Golden: left join keeps all 9 rows (`spatial_index.rs:480`)."""
    lhs, rhs = _f5_tables()
    out = spatial_join_table(lhs, rhs, how="left")
    assert out.shape == (9, 4)
    vals = out["point_values_left"].to_pylist()
    assert sorted(vals) == [float(i + 1) for i in range(9)]
    matched = [s for s in out["string_col_right"].to_pylist() if s is not None]
    assert matched == ["test", "test"]


def test_f5_suffixes():
    """Golden column order/names with custom suffixes (`spatial_index.rs:544-552`)."""
    lhs, rhs = _f5_tables()
    out = spatial_join_table(lhs, rhs, how="inner", l_suffix="_left!", r_suffix="_right!")
    assert out.column_names == [
        "geometry_left!",
        "point_values_left!",
        "geometry_right!",
        "string_col_right!",
    ]


def test_predicate_dispatch_quirks():
    """point⊗polygon ignores the predicate; polygon⊗multipolygon contains=false."""
    lhs, rhs = _f5_tables()
    # contains behaves identically to intersects for point⊗polygon (`:90-96`)
    inner_c = spatial_join_table(lhs, rhs, how="inner", predicate="contains")
    assert inner_c.shape == (2, 4)

    poly = GeometryArray.from_pylist(
        [("polygon", [[(0.0, 0.0), (30.0, 0.0), (30.0, 30.0), (0.0, 30.0), (0.0, 0.0)]])]
    )
    mpoly = GeometryArray.from_pylist(
        [("multipolygon", [[[(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0), (1.0, 1.0)]]])]
    )
    lt = pa.table({"geometry": encode_wkb(poly), "a": pa.array([1])})
    rt = pa.table({"geometry": encode_wkb(mpoly), "b": pa.array([2])})
    # polygon⊗multipolygon supports only Intersects (`:118-123`)
    assert spatial_join_table(lt, rt, predicate="intersects").num_rows == 1
    assert spatial_join_table(lt, rt, predicate="contains").num_rows == 0


def test_polygon_polygon_contains():
    big = GeometryArray.from_pylist(
        [("polygon", [[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0), (0.0, 0.0)]])]
    )
    small = GeometryArray.from_pylist(
        [("polygon", [[(2.0, 2.0), (4.0, 2.0), (4.0, 4.0), (2.0, 4.0), (2.0, 2.0)]])]
    )
    disjoint = GeometryArray.from_pylist(
        [("polygon", [[(20.0, 20.0), (21.0, 20.0), (21.0, 21.0), (20.0, 21.0), (20.0, 20.0)]])]
    )
    lt = pa.table({"geometry": encode_wkb(big), "a": pa.array([1])})
    assert spatial_join_table(lt, pa.table({"geometry": encode_wkb(small), "b": pa.array([2])}),
                              predicate="contains").num_rows == 1
    assert spatial_join_table(lt, pa.table({"geometry": encode_wkb(disjoint), "b": pa.array([2])}),
                              predicate="contains").num_rows == 0
    # overlapping-but-not-contained intersects
    overlap = GeometryArray.from_pylist(
        [("polygon", [[(5.0, 5.0), (15.0, 5.0), (15.0, 15.0), (5.0, 15.0), (5.0, 5.0)]])]
    )
    rt = pa.table({"geometry": encode_wkb(overlap), "b": pa.array([2])})
    assert spatial_join_table(lt, rt, predicate="intersects").num_rows == 1
    assert spatial_join_table(lt, rt, predicate="contains").num_rows == 0


def test_line_contains_point():
    line = GeometryArray.from_pylist([("linestring", [(0.0, 0.0), (10.0, 0.0)])])
    pts = GeometryArray.from_points(np.array([5.0, 5.0]), np.array([0.0, 1.0]))
    lt = pa.table({"geometry": encode_wkb(line), "a": pa.array([1])})
    rt = pa.table({"geometry": encode_wkb(pts), "b": pa.array([1, 2])})
    out = spatial_join_table(lt, rt)
    assert out.num_rows == 1
    assert out["b_right"].to_pylist() == [1]


def test_unsupported_join_type():
    lhs, rhs = _f5_tables()
    with pytest.raises(ValueError):
        spatial_join_table(lhs, rhs, how="outer")  # `:200-203`


def test_broadcast_join_dataset(ray_session):
    import ray
    from geopolars_ray.stages.join import broadcast_spatial_join

    rng = np.random.default_rng(11)
    n = 20000
    lon = rng.uniform(-50, 50, n)
    lat = rng.uniform(-50, 50, n)
    pts = pa.table({"pid": pa.array(np.arange(n)), "lon": pa.array(lon), "lat": pa.array(lat)})
    # two diamond polygons
    polys = GeometryArray.from_pylist(
        [
            ("polygon", [[(-10.0, 0.0), (0.0, -10.0), (10.0, 0.0), (0.0, 10.0), (-10.0, 0.0)]]),
            ("polygon", [[(20.0, 30.0), (30.0, 20.0), (40.0, 30.0), (30.0, 40.0), (20.0, 30.0)]]),
        ]
    )
    admin = pa.table({"admin_id": pa.array(["a", "b"]), "geometry": encode_wkb(polys)})
    ds = ray.data.from_arrow(pts)
    out = broadcast_spatial_join(ds, admin, how="inner", concurrency=2).to_pandas()
    # brute-force expectation
    in_a = (np.abs(lon) + np.abs(lat)) < 10.0
    in_b = (np.abs(lon - 30.0) + np.abs(lat - 30.0)) < 10.0
    expect = {(int(i), "a") for i in np.nonzero(in_a)[0]} | {(int(i), "b") for i in np.nonzero(in_b)[0]}
    got = set(zip(out["pid"].astype(int), out["admin_id"]))
    assert got == expect
    # left join keeps all points
    left = broadcast_spatial_join(ray.data.from_arrow(pts), admin, how="left", concurrency=2)
    assert left.count() == n


def _diamond_join_inputs(seed, n, lon_span, lat_span, k, c_lon, c_lat, r_span):
    rng = np.random.default_rng(seed)
    lon = rng.uniform(-lon_span, lon_span, n)
    lat = rng.uniform(-lat_span, lat_span, n)
    pts = pa.table({"pid": pa.array(np.arange(n)), "lon": pa.array(lon), "lat": pa.array(lat)})
    polys, ids = [], []
    for j in range(k):
        cx, cy = rng.uniform(-c_lon, c_lon), rng.uniform(-c_lat, c_lat)
        r = rng.uniform(*r_span)
        polys.append(("polygon", [[(cx - r, cy), (cx, cy - r), (cx + r, cy), (cx, cy + r), (cx - r, cy)]]))
        ids.append(f"p{j}")
    admin = pa.table(
        {"admin_id": pa.array(ids), "geometry": encode_wkb(GeometryArray.from_pylist(polys))}
    )
    return pts, admin


def test_partitioned_join_matches_broadcast(ray_session):
    """The grid exchange gives the broadcast join's match set, at mid
    latitudes and with diamonds up to lat +-75, where lat/lon cells are
    most distorted."""
    import ray
    from geopolars_ray.stages.join import broadcast_spatial_join, partitioned_spatial_join

    inputs = [
        (_diamond_join_inputs(12, 5000, 40, 40, 25, 35, 35, (1, 4)), dict(cell_deg=10.0)),
        (_diamond_join_inputs(21, 4000, 60, 75, 20, 55, 70, (1, 5)), dict()),
    ]
    for (pts, admin), kw in inputs:
        b = broadcast_spatial_join(ray.data.from_arrow(pts), admin, how="inner", concurrency=2).to_pandas()
        p = partitioned_spatial_join(
            ray.data.from_arrow(pts), ray.data.from_arrow(admin), num_partitions=8, **kw
        ).to_pandas()
        got_b = set(zip(b["pid"].astype(int), b["admin_id"]))
        assert got_b == set(zip(p["pid"].astype(int), p["admin_id"])) and len(got_b) > 0


def test_identical_polygons_with_different_ids_both_match(ray_session):
    """Two polygon rows with the same WKB and different ids each match
    every point inside: the partitioned join refines per polygon replica
    row, never by geometry value."""
    import ray
    from geopolars_ray.stages.join import broadcast_spatial_join, partitioned_spatial_join

    sq = ("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)]])
    other = ("polygon", [[(5.0, 5.0), (8.0, 5.0), (8.0, 8.0), (5.0, 8.0), (5.0, 5.0)]])
    admin = pa.table({"admin_id": pa.array(["a", "b", "c"]),
                      "geometry": encode_wkb(GeometryArray.from_pylist([sq, other, sq]))})
    lon = np.array([1.0, 2.0, 6.0, 9.0, 4.0])
    lat = np.array([1.0, 3.0, 6.0, 9.0, 2.0])  # (4, 2) is on the square's edge
    pts = pa.table({"pid": pa.array(np.arange(5)), "lon": pa.array(lon), "lat": pa.array(lat)})
    want = [(0, "a"), (0, "c"), (1, "a"), (1, "c"), (2, "b")]
    b = broadcast_spatial_join(ray.data.from_arrow(pts), admin, how="inner", concurrency=1).to_pandas()
    p = partitioned_spatial_join(ray.data.from_arrow(pts), ray.data.from_arrow(admin),
                                 cell_deg=2.0, num_partitions=4).to_pandas()
    assert sorted(zip(b["pid"].astype(int), b["admin_id"])) == want
    assert sorted(zip(p["pid"].astype(int), p["admin_id"])) == want


def test_contains_rejects_proper_crossing():
    """Vertices inside but edges crossing out -> NOT contained (plus-sign vs square)."""
    outer = GeometryArray.from_pylist(
        [("polygon", [[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0), (0.0, 0.0)]])]
    )
    # thin cross whose 4 arms poke out of the square but whose VERTICES near
    # the center are inside... use a bowtie-ish quad with vertices inside but
    # an edge passing outside: concave "C" shape exceeding the boundary
    spike = GeometryArray.from_pylist(
        [("polygon", [[(2.0, 2.0), (15.0, 5.0), (2.0, 8.0), (2.0, 2.0)]])]
    )
    lt = pa.table({"geometry": encode_wkb(outer), "a": pa.array([1])})
    rt = pa.table({"geometry": encode_wkb(spike), "b": pa.array([2])})
    assert spatial_join_table(lt, rt, predicate="contains").num_rows == 0
    assert spatial_join_table(lt, rt, predicate="intersects").num_rows == 1


def test_reversed_operand_orders():
    """Reference matches both operand orders (`spatial_index.rs:90-96,125-135`):
    polygon-left x point-right -> contains; point-left x line-right -> contains."""
    poly = GeometryArray.from_pylist(
        [("polygon", [[(0.0, 0.0), (20.0, 0.0), (20.0, 20.0), (0.0, 20.0), (0.0, 0.0)]])]
    )
    pts = GeometryArray.from_points(np.array([1.0, 30.0]), np.array([1.0, 1.0]))
    lt = pa.table({"geometry": encode_wkb(poly), "a": pa.array([1])})
    rt = pa.table({"geometry": encode_wkb(pts), "b": pa.array([1, 2])})
    out = spatial_join_table(lt, rt)
    assert out.num_rows == 1
    assert out["b_right"].to_pylist() == [1]
    # predicate is ignored for point/polygon pairs, either order
    assert spatial_join_table(lt, rt, predicate="contains").num_rows == 1

    # point-left x linestring-right
    line = GeometryArray.from_pylist([("linestring", [(0.0, 0.0), (10.0, 0.0)])])
    pl = GeometryArray.from_points(np.array([5.0, 5.0]), np.array([0.0, 1.0]))
    lt2 = pa.table({"geometry": encode_wkb(pl), "a": pa.array([1, 2])})
    rt2 = pa.table({"geometry": encode_wkb(line), "b": pa.array([9])})
    out2 = spatial_join_table(lt2, rt2)
    assert out2.num_rows == 1
    assert out2["a_left"].to_pylist() == [1]


def test_multipolygon_left_point_right():
    mpoly = GeometryArray.from_pylist(
        [("multipolygon", [[[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (0.0, 0.0)]]])]
    )
    pts = GeometryArray.from_points(np.array([1.0]), np.array([1.0]))
    lt = pa.table({"geometry": encode_wkb(mpoly), "a": pa.array([1])})
    rt = pa.table({"geometry": encode_wkb(pts), "b": pa.array([5])})
    assert spatial_join_table(lt, rt).num_rows == 1


def test_strtree_slices_are_compact():
    """STR packing tiles items into ~sqrt slices in x THEN y: leaf groups of
    consecutive items must stay spatially compact, not full-width y-bands."""
    from geopolars_ray.geom.strtree import STRTree, _NODE_CAP

    # 1024 unit boxes on a 32x32 grid
    g = np.arange(1024)
    x = (g % 32).astype(np.float64)
    y = (g // 32).astype(np.float64)
    boxes = np.column_stack([x, y, x + 1.0, y + 1.0])
    tree = STRTree(boxes)
    level1 = tree.levels[1]  # parents of leaf entries (groups of 16)
    widths = level1[:, 2] - level1[:, 0]
    # proper STR: each slice spans ~4 grid columns -> node width <= ~6;
    # the degenerate single-slice packing would give full-width (32) bands
    assert widths.max() <= 8.0


def test_within_predicate_flipped_contains():
    """within(l, r) == contains(r, l): a small left polygon inside a big
    right polygon matches under 'within' but NOT under 'contains' (the small
    one does not contain the big one); point-left within polygon-right
    matches (PIP either-order quirk keeps that working for all predicates)."""
    big = GeometryArray.from_pylist(
        [("polygon", [[(0.0, 0.0), (20.0, 0.0), (20.0, 20.0), (0.0, 20.0), (0.0, 0.0)]])]
    )
    small = GeometryArray.from_pylist(
        [("polygon", [[(5.0, 5.0), (8.0, 5.0), (8.0, 8.0), (5.0, 8.0), (5.0, 5.0)]])]
    )
    lt_small = pa.table({"geometry": encode_wkb(small), "a": pa.array([1])})
    rt_big = pa.table({"geometry": encode_wkb(big), "b": pa.array([2])})
    assert spatial_join_table(lt_small, rt_big, predicate="within").num_rows == 1
    assert spatial_join_table(lt_small, rt_big, predicate="contains").num_rows == 0
    # and the mirror: big within small is false
    lt_big = pa.table({"geometry": encode_wkb(big), "a": pa.array([1])})
    rt_small = pa.table({"geometry": encode_wkb(small), "b": pa.array([2])})
    assert spatial_join_table(lt_big, rt_small, predicate="within").num_rows == 0
    # point within polygon
    pt = GeometryArray.from_points(np.array([6.0]), np.array([6.0]))
    lt_pt = pa.table({"geometry": encode_wkb(pt), "a": pa.array([1])})
    assert spatial_join_table(lt_pt, rt_big, predicate="within").num_rows == 1
    with pytest.raises(ValueError, match="unsupported predicate"):
        spatial_join_table(lt_pt, rt_big, predicate="touches")


def test_broadcast_join_dwithin(ray_session):
    """dwithin predicate: inside OR within d of the boundary, vs brute force
    (diamond polygons have a closed-form L2 distance via per-edge projection
    — the brute oracle just reuses a point-to-segment scan)."""
    import ray
    from geopolars_ray.stages.join import broadcast_spatial_join

    rng = np.random.default_rng(12)
    n = 20000
    lon = rng.uniform(-30, 30, n)
    lat = rng.uniform(-30, 30, n)
    pts = pa.table({"pid": pa.array(np.arange(n)), "lon": pa.array(lon), "lat": pa.array(lat)})
    ring = [(-10.0, 0.0), (0.0, -10.0), (10.0, 0.0), (0.0, 10.0), (-10.0, 0.0)]
    polys = GeometryArray.from_pylist([("polygon", [ring])])
    admin = pa.table({"admin_id": pa.array(["a"]), "geometry": encode_wkb(polys)})
    d = 3.0
    out = broadcast_spatial_join(ray.data.from_arrow(pts), admin, how="inner",
                                 concurrency=2, predicate="dwithin", distance=d).to_pandas()
    got = set(out["pid"].astype(int))

    # brute: inside (L1 diamond) or min point-to-edge distance <= d
    inside = (np.abs(lon) + np.abs(lat)) < 10.0
    R = np.array(ring)
    a, b = R[:-1], R[1:]
    ab = b - a
    L2 = (ab**2).sum(axis=1)
    P = np.column_stack([lon, lat])
    ap = P[:, None, :] - a[None, :, :]
    t = np.clip((ap * ab[None, :, :]).sum(axis=2) / L2[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    dmin = np.sqrt(((P[:, None, :] - proj) ** 2).sum(axis=2)).min(axis=1)
    expect = set(np.nonzero(inside | (dmin <= d))[0].astype(int))
    assert got == expect
    # sanity: strictly more matches than plain intersects, none farther than d
    plain = broadcast_spatial_join(ray.data.from_arrow(pts), admin, how="inner",
                                   concurrency=2).to_pandas()
    assert len(got) > len(plain)

    import pytest as _pytest
    with _pytest.raises(Exception, match="distance"):
        broadcast_spatial_join(ray.data.from_arrow(pts), admin,
                               predicate="dwithin").take_all()


def test_partitioned_join_dwithin_matches_broadcast(ray_session):
    import ray
    from geopolars_ray.stages.join import broadcast_spatial_join, partitioned_spatial_join

    rng = np.random.default_rng(13)
    n = 8000
    lon = rng.uniform(-40, 40, n)
    lat = rng.uniform(-40, 40, n)
    pts = pa.table({"pid": pa.array(np.arange(n)), "lon": pa.array(lon), "lat": pa.array(lat)})
    polys = GeometryArray.from_pylist(
        [
            ("polygon", [[(-10.0, 0.0), (0.0, -10.0), (10.0, 0.0), (0.0, 10.0), (-10.0, 0.0)]]),
            ("polygon", [[(20.0, 20.0), (30.0, 20.0), (30.0, 30.0), (20.0, 30.0), (20.0, 20.0)]]),
        ]
    )
    admin = pa.table({"admin_id": pa.array(["a", "b"]), "geometry": encode_wkb(polys)})
    d = 4.0
    b = broadcast_spatial_join(ray.data.from_arrow(pts), admin, how="inner", concurrency=2,
                               predicate="dwithin", distance=d).to_pandas()
    p = partitioned_spatial_join(ray.data.from_arrow(pts), ray.data.from_arrow(admin),
                                 cell_deg=8.0, num_partitions=16,
                                 predicate="dwithin", distance=d).to_pandas()
    got_b = set(zip(b["pid"].astype(int), b["admin_id"]))
    got_p = set(zip(p["pid"].astype(int), p["admin_id"]))
    assert got_b == got_p and len(got_b) > 0


def test_partitioned_join_point_side_geometry_collision(ray_session):
    """A point side that carries its own 'geometry' column (e.g. built by
    from_xy) must not poison the refine: the local join must test the
    polygon side's geometry, not the point WKBs."""
    import ray
    from geopolars_ray.stages.join import partitioned_spatial_join

    rng = np.random.default_rng(3)
    n = 1500
    lon = rng.uniform(-20, 20, n)
    lat = rng.uniform(-20, 20, n)
    pt_geom = encode_wkb(GeometryArray.from_points(lon, lat))
    pts = pa.table({"pid": pa.array(np.arange(n)), "lon": pa.array(lon),
                    "lat": pa.array(lat), "geometry": pt_geom})
    sq = [("polygon", [[(-5.0, -5.0), (5.0, -5.0), (5.0, 5.0), (-5.0, 5.0), (-5.0, -5.0)]])]
    admin = pa.table({"admin_id": pa.array(["center"]),
                      "geometry": encode_wkb(GeometryArray.from_pylist(sq))})
    got = partitioned_spatial_join(
        ray.data.from_arrow(pts), ray.data.from_arrow(admin), num_partitions=4
    ).to_pandas()
    want = set(np.nonzero((np.abs(lon) <= 5.0) & (np.abs(lat) <= 5.0))[0].tolist())
    assert set(got["pid"].astype(int)) == want and len(want) > 0
    # the point side's own geometry column survives untouched
    assert "geometry" in got.columns


def test_partitioned_join_polygon_over_many_cells_in_one_partition(ray_session):
    """A polygon whose bbox covers many grid cells replicates to each of
    them; with one hash partition every replica lands in the same local
    join, and each point still matches once (it has one cell)."""
    import ray
    from geopolars_ray.stages.join import partitioned_spatial_join

    rng = np.random.default_rng(8)
    n = 2000
    lon = rng.uniform(-4, 4, n)
    lat = rng.uniform(-4, 4, n)
    pts = pa.table({"pid": pa.array(np.arange(n)), "lon": pa.array(lon), "lat": pa.array(lat)})
    sq = ("polygon", [[(-3.0, -3.0), (3.0, -3.0), (3.0, 3.0), (-3.0, 3.0), (-3.0, -3.0)]])
    admin = pa.table({"admin_id": pa.array(["sq"]), "geometry": encode_wkb(GeometryArray.from_pylist([sq]))})
    got = partitioned_spatial_join(ray.data.from_arrow(pts), ray.data.from_arrow(admin),
                                   cell_deg=1.0, num_partitions=1).to_pandas()
    want = np.nonzero((np.abs(lon) < 3.0) & (np.abs(lat) < 3.0))[0]
    assert sorted(got["pid"].astype(int)) == want.tolist() and len(want) > 0


def test_partitioned_join_keeps_suffixed_payload_names(ray_session):
    """A point side with its own 'geometry' and a payload-named column:
    the point columns keep their names, the colliding polygon payload comes
    out as '<name>_r', and neither '_cell' nor the polygon geometry is
    emitted."""
    import ray
    from geopolars_ray.stages.join import partitioned_spatial_join

    lon = np.array([1.0, 2.0, 9.0])
    lat = np.array([1.0, 3.0, 9.0])
    pts = pa.table({"pid": pa.array([0, 1, 2]), "lon": pa.array(lon), "lat": pa.array(lat),
                    "admin_id": pa.array(["x", "y", "z"]),
                    "geometry": encode_wkb(GeometryArray.from_points(lon, lat))})
    sq = ("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)]])
    admin = pa.table({"admin_id": pa.array(["a"]), "name": pa.array(["square"]),
                      "geometry": encode_wkb(GeometryArray.from_pylist([sq]))})
    got = pa.concat_tables(ray.get(partitioned_spatial_join(
        ray.data.from_arrow(pts), ray.data.from_arrow(admin), cell_deg=2.0, num_partitions=4,
    ).to_arrow_refs()))
    assert got.column_names == ["pid", "lon", "lat", "admin_id", "geometry", "admin_id_r", "name"]
    got = got.sort_by("pid")
    assert got["pid"].to_pylist() == [0, 1]
    assert got["admin_id"].to_pylist() == ["x", "y"]
    assert got["admin_id_r"].to_pylist() == ["a", "a"]
    assert got["geometry"].to_pylist() == pts["geometry"].to_pylist()[:2]


def _partition_inputs():
    sq = ("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)]])
    polys = pa.table({"admin_id": pa.array(["a", "b"]), "_cell": pa.array([7, 8], pa.int64()),
                      "geometry": encode_wkb(GeometryArray.from_pylist([sq, sq]))})
    pts = pa.table({"pid": pa.array([0, 1, 2]), "lon": pa.array([1.0, 9.0, 2.0]),
                    "lat": pa.array([1.0, 9.0, 2.0]), "_cell": pa.array([7, 7, 8], pa.int64())})
    return pts, polys


def test_pip_join_partition_matches_by_cell():
    """Pairs are the equi-join on _cell refined by PIP: point 1 shares cell
    7 with polygon a but lies outside it; point 2 meets only b's replica."""
    from geopolars_ray.stages.join import pip_join_partition

    pts, polys = _partition_inputs()
    got = pip_join_partition(pts, polys)
    assert got.column_names == ["pid", "lon", "lat", "admin_id"]
    assert sorted(zip(got["pid"].to_pylist(), got["admin_id"].to_pylist())) == [(0, "a"), (2, "b")]


@pytest.mark.parametrize("case", ["no_polygons", "no_points", "both_empty"])
def test_pip_join_partition_empty_sides_keep_the_schema(case):
    """A partition empty on one side, or on both, gives zero rows in the
    schema of the non-empty output."""
    from geopolars_ray.stages.join import pip_join_partition

    pts, polys = _partition_inputs()
    full = pip_join_partition(pts, polys)
    if case in ("no_points", "both_empty"):
        pts = pts.slice(0, 0)
    if case in ("no_polygons", "both_empty"):
        polys = pa.Table.from_batches([], schema=polys.schema)
    got = pip_join_partition(pts, polys)
    assert got.num_rows == 0
    assert got.schema == full.schema
