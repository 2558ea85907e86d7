"""clip_by_rect (geom/clip.py): analytic anchors, a pure-Python
Sutherland–Hodgman reference on random polygons, Monte-Carlo area agreement
on concave shapes, line chain-splitting, and the registry path."""

import numpy as np
import pyarrow as pa
import pytest

from geopolars_ray.geom import kernels as K
from geopolars_ray.geom.array import GeometryArray
from geopolars_ray.geom.clip import clip_by_rect


def _sh_reference(ring, rect):
    """Straight-line Sutherland–Hodgman on one open ring (the spec)."""
    xmin, ymin, xmax, ymax = rect
    edges = [(0, xmin, True), (0, xmax, False), (1, ymin, True), (1, ymax, False)]
    pts = [tuple(p) for p in ring]
    for axis, c, keep_ge in edges:
        if not pts:
            break
        out = []
        for i in range(len(pts)):
            cur = pts[i]
            prev = pts[i - 1]
            pin = prev[axis] >= c if keep_ge else prev[axis] <= c
            cin = cur[axis] >= c if keep_ge else cur[axis] <= c
            if pin != cin:
                t = (c - prev[axis]) / (cur[axis] - prev[axis])
                ip = (prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1]))
                ip = (c, ip[1]) if axis == 0 else (ip[0], c)
                out.append(ip)
            if cin:
                out.append(cur)
        pts = out
    return pts


def _shoelace(pts):
    if len(pts) < 3:
        return 0.0
    a = 0.0
    for i in range(len(pts)):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % len(pts)]
        a += x1 * y2 - x2 * y1
    return abs(a) / 2.0


def test_clip_analytic_anchors():
    sq = GeometryArray.from_pylist(
        [("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)]])]
    )
    assert K.area(clip_by_rect(sq, 2.0, 1.0, 10.0, 10.0))[0] == 6.0
    assert clip_by_rect(sq, -1.0, -1.0, 5.0, 5.0).to_pylist() == sq.to_pylist()
    assert K.is_empty(clip_by_rect(sq, 10.0, 10.0, 20.0, 20.0))[0]
    # polygon with hole: both rings clip independently
    ph = GeometryArray.from_pylist(
        [("polygon", [[(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0), (0.0, 0.0)],
                      [(2.0, 2.0), (2.0, 4.0), (4.0, 4.0), (4.0, 2.0), (2.0, 2.0)]])]
    )
    assert K.area(clip_by_rect(ph, 0.0, 0.0, 5.0, 5.0))[0] == 21.0  # 25 - 4
    with pytest.raises(ValueError, match="rectangle"):
        clip_by_rect(sq, 5.0, 0.0, 1.0, 1.0)


def test_clip_matches_reference_random_polygons():
    """Batch-vectorized S-H == the straight-line reference, vertex for
    vertex, on 300 random star-convex polygons."""
    rng = np.random.default_rng(0)
    rings = []
    for _ in range(300):
        k = rng.integers(3, 12)
        ang = np.sort(rng.uniform(0, 2 * np.pi, k))
        r = rng.uniform(0.5, 3.0, k)
        cx, cy = rng.uniform(-2, 2, 2)
        pts = np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)])
        rings.append(pts)
    ga = GeometryArray.from_pylist(
        [("polygon", [np.vstack([p, p[:1]]).tolist()]) for p in rings]
    )
    rect = (-1.0, -1.5, 1.5, 1.0)
    out = clip_by_rect(ga, *rect)
    got = out.to_pylist()
    areas = K.area(out)
    for i, ring in enumerate(rings):
        exp = _sh_reference([tuple(p) for p in ring], rect)
        exp_area = _shoelace(exp)
        if len(exp) < 3 or exp_area == 0.0:
            # degenerate slivers (zero-area output) may be kept as rings or
            # dropped; area must agree at 0 either way
            assert got[i] is None or abs(areas[i]) < 1e-12
            continue
        assert got[i] is not None
        np.testing.assert_allclose(areas[i], exp_area, rtol=1e-12)
        # the vertex SEQUENCE matches the reference exactly (same algorithm)
        verts = got[i][1][0][:-1]
        assert len(verts) == len(exp)
        np.testing.assert_allclose(np.array(verts), np.array(exp), atol=1e-12)


def test_clip_concave_monte_carlo_area():
    """Concave ring (S-H leaves zero-width bridges): clipped AREA must still
    equal the true intersection area — checked by grid integration."""
    # U-shape: two prongs crossing the top of the clip window
    ring = [(0, 0), (6, 0), (6, 5), (4, 5), (4, 2), (2, 2), (2, 5), (0, 5)]
    ga = GeometryArray.from_pylist([("polygon", [[*ring, ring[0]]])])
    rect = (-1.0, -1.0, 7.0, 4.0)  # cuts the prongs at y=4
    out = clip_by_rect(ga, *rect)
    # true area: U-shape area below y=4 = full U minus the prong tops above 4
    # U area = 6*5 - 2*3 = 24; above y=4: two prongs 2 wide x 1 tall = 2*2*1... prongs are x in [0,2] and [4,6], width 2 each, from y=4..5 -> 2*(2*1) = 4
    assert abs(K.area(out)[0] - 20.0) < 1e-9
    # membership spot-check via grid: every grid point inside the clipped
    # polygon must be inside BOTH original and rect (bridges are measure-zero)
    from geopolars_ray.geom.kernels import _rings_of
    from pip_oracle import parity_and_boundary
    xs, ys = np.meshgrid(np.linspace(-0.5, 6.5, 29), np.linspace(-0.5, 4.5, 21))
    for x, y in zip(xs.ravel(), ys.ravel()):
        parity_clip, on_clip = parity_and_boundary([x], [y], _rings_of(out, 0))
        if parity_clip[0] and not on_clip[0]:
            parity_orig, on_orig = parity_and_boundary([x], [y], _rings_of(ga, 0))
            assert (parity_orig[0] or on_orig[0]) and (rect[0] <= x <= rect[2]) and (rect[1] <= y <= rect[3])


def test_clip_lines_and_points():
    ln = GeometryArray.from_pylist(
        [("linestring", [(-2.0, 0.5), (2.0, 0.5), (2.0, 3.0), (-2.0, 3.0)])]
    )
    lc = clip_by_rect(ln, 0.0, 0.0, 1.0, 4.0)
    assert lc.to_pylist() == [("multilinestring",
                               [[(0.0, 0.5), (1.0, 0.5)], [(1.0, 3.0), (0.0, 3.0)]])]
    assert K.euclidean_length(lc)[0] == 2.0
    # line fully inside stays a linestring, untouched
    li = GeometryArray.from_pylist([("linestring", [(0.1, 0.1), (0.9, 0.9)])])
    assert clip_by_rect(li, 0.0, 0.0, 1.0, 1.0).to_pylist() == li.to_pylist()
    # segment ALONG the boundary is kept (closed-region semantics)
    lb = GeometryArray.from_pylist([("linestring", [(0.0, 0.0), (1.0, 0.0)])])
    assert K.euclidean_length(clip_by_rect(lb, 0.0, 0.0, 1.0, 1.0))[0] == 1.0
    pts = GeometryArray.from_points(np.array([0.5, 5.0]), np.array([0.5, 5.0]))
    pc = clip_by_rect(pts, 0.0, 0.0, 1.0, 1.0)
    assert pc.to_pylist()[0] == ("point", (0.5, 0.5)) and pc.to_pylist()[1] is None
    mp = GeometryArray.from_pylist([("multipoint", [(0.5, 0.5), (5.0, 5.0), (0.9, 0.1)])])
    assert clip_by_rect(mp, 0.0, 0.0, 1.0, 1.0).to_pylist() == [
        ("multipoint", [(0.5, 0.5), (0.9, 0.1)])]


def test_clip_registry_kernel():
    from geopolars_ray.geom import encode_wkb
    from geopolars_ray.stages.geo import geo_op

    sq = GeometryArray.from_pylist(
        [("polygon", [[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)]])]
    )
    batch = pa.table({"geometry": encode_wkb(sq)})
    out = geo_op("clip_by_rect", xmin=2.0, ymin=1.0, xmax=10.0, ymax=10.0)(batch)
    from geopolars_ray.geom import decode_wkb
    assert K.area(decode_wkb(out["geometry"]))[0] == 6.0


def test_buffer_points_exact_ngon():
    """Point buffer = inscribed regular 4*quad_segs-gon: area and perimeter
    match the closed forms exactly; centroid returns the center; non-point
    input refuses loudly; missing passes through."""
    pts = GeometryArray.from_points(np.array([1.0, -3.0]), np.array([2.0, 4.0]))
    buf = K.buffer_points(pts, 2.0, quad_segs=8)
    k = 32
    np.testing.assert_allclose(K.area(buf), 0.5 * k * 4.0 * np.sin(2 * np.pi / k), rtol=1e-14)
    np.testing.assert_allclose(
        K.euclidean_length(buf), k * 2 * 2.0 * np.sin(np.pi / k), rtol=1e-14)
    cen = K.centroid(buf).to_pylist()
    np.testing.assert_allclose(cen[0][1], (1.0, 2.0), atol=1e-12)
    # buffered-then-clipped composes: half-plane cut through the center
    half = clip_by_rect(buf, 1.0, -10.0, 100.0, 100.0)
    np.testing.assert_allclose(K.area(half)[0], K.area(buf)[0] / 2.0, rtol=1e-12)
    with pytest.raises(NotImplementedError, match="only Point"):
        K.buffer_points(GeometryArray.from_pylist(
            [("linestring", [(0.0, 0.0), (1.0, 1.0)])]), 1.0)
    with pytest.raises(ValueError, match="positive"):
        K.buffer_points(pts, 0.0)


def test_buffer_registry_and_sjoin_composition(ray_session):
    """The canonical pipeline: buffer points -> spatial_join against the
    buffered polygons finds exactly the points within distance d."""
    import ray

    from geopolars_ray.geom import encode_wkb
    from geopolars_ray.stages.geo import geo_op

    rng = np.random.default_rng(0)
    x, y = rng.uniform(0, 10, 500), rng.uniform(0, 10, 500)
    pts = GeometryArray.from_points(x, y)
    batch = pa.table({"geometry": encode_wkb(pts), "pid": pa.array(np.arange(500))})
    ds = ray.data.from_arrow(batch)
    buffered = ds.map_batches(geo_op("buffer", distance=1.0, quad_segs=12),
                              batch_format="pyarrow")
    out = pa.concat_tables([ray.get(r) for r in buffered.to_arrow_refs()])
    from geopolars_ray.geom import decode_wkb
    ga = decode_wkb(out["geometry"])
    assert (ga.types == 3).all()  # POLYGON
    np.testing.assert_allclose(
        K.area(ga), 0.5 * 48 * np.sin(2 * np.pi / 48), rtol=1e-12)


def test_clip_generic_path_equals_vectorized():
    """A mixed batch (a point appended) forces the generic per-geometry
    path; its polygon results must equal the pure-polygon vectorized path
    geometry-for-geometry — including multipolygons and holes."""
    rng = np.random.default_rng(5)
    geoms = []
    for _ in range(80):
        k = rng.integers(3, 9)
        ang = np.sort(rng.uniform(0, 2 * np.pi, k))
        r = rng.uniform(0.5, 3.0, k)
        cx, cy = rng.uniform(-4, 4, 2)
        ring = [(cx + ri * np.cos(a), cy + ri * np.sin(a)) for ri, a in zip(r, ang)]
        geoms.append(("polygon", [[*ring, ring[0]]]))
    # a multipolygon and a holed polygon for structure coverage
    geoms.append(("multipolygon", [
        [[(0, 0), (2, 0), (2, 2), (0, 2), (0, 0)]],
        [[(10, 10), (12, 10), (12, 12), (10, 12), (10, 10)]],
    ]))
    geoms.append(("polygon", [
        [(-3, -3), (3, -3), (3, 3), (-3, 3), (-3, -3)],
        [(-1, -1), (-1, 1), (1, 1), (1, -1), (-1, -1)],
    ]))
    pure = GeometryArray.from_pylist(geoms)
    mixed = GeometryArray.from_pylist(geoms + [("point", (0.5, 0.5))])
    rect = (-2.0, -2.5, 2.5, 2.0)
    out_vec = clip_by_rect(pure, *rect)
    out_gen = clip_by_rect(mixed, *rect)
    vec_list = out_vec.to_pylist()
    gen_list = out_gen.to_pylist()
    assert gen_list[-1] == ("point", (0.5, 0.5))
    assert gen_list[:-1] == vec_list


def test_clip_lines_vectorized_equals_generic():
    """Line fast path == generic path on random polylines (forced by mixing
    in a point); LINEARRING clips as a closed polyline and degrades to
    LineString/MultiLineString."""
    from geopolars_ray.geom.array import LINESTRING, POINT

    rng = np.random.default_rng(7)
    m, v = 500, 8
    coords = rng.uniform(-120.0, 120.0, (m * v, 2))
    seq = np.arange(m + 1, dtype=np.int64)
    ga = GeometryArray(types=np.full(m, LINESTRING, np.int8), geom_offsets=seq,
                       part_offsets=seq, ring_offsets=seq * v, coords=coords)
    rect = (-100.0, -50.0, 100.0, 50.0)
    fast = clip_by_rect(ga, *rect).to_pylist()
    mixed = GeometryArray(
        types=np.concatenate([ga.types, np.array([POINT], np.int8)]),
        geom_offsets=np.concatenate([ga.geom_offsets, [ga.geom_offsets[-1] + 1]]),
        part_offsets=np.concatenate([ga.part_offsets, [ga.part_offsets[-1] + 1]]),
        ring_offsets=np.concatenate([ga.ring_offsets, [ga.ring_offsets[-1] + 1]]),
        coords=np.vstack([ga.coords, [[0.0, 0.0]]]),
    )
    gen = clip_by_rect(mixed, *rect).to_pylist()
    assert gen[:-1] == fast and gen[-1] == ("point", (0.0, 0.0))
    # linearring: closed square ring cut by a half-plane -> open polyline(s)
    ring = GeometryArray.from_pylist(
        [("linearring", [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)])]
    )
    out = clip_by_rect(ring, -1.0, -1.0, 2.0, 5.0)
    got = out.to_pylist()[0]
    assert got[0] in ("linestring", "multilinestring")
    assert abs(K.euclidean_length(out)[0] - 8.0) < 1e-12  # left half of the 16-perimeter square


def test_subdivide():
    """ST_Subdivide: vertex budget honored, area exact, lines split too."""
    import numpy as np

    from geopolars_ray.geom import GeometryArray
    from geopolars_ray.geom import kernels as K
    from geopolars_ray.geom.clip import subdivide

    ang = np.linspace(0, 2 * np.pi, 2000, endpoint=False)
    ring = [(float(np.cos(a) * 10 + 50), float(np.sin(a) * 10 + 50)) for a in ang]
    ring.append(ring[0])
    hole = [(float(np.cos(a) * 2 + 50), float(np.sin(a) * 2 + 50)) for a in ang[::40]][::-1]
    hole.append(hole[0])
    zig = [(float(i * 0.1), float((i % 2) * 0.05)) for i in range(900)]
    ga = GeometryArray.from_pylist([
        ("polygon", [ring, hole]),
        ("linestring", zig),
        ("point", (1.0, 2.0)),
        None,
    ])
    out, parent = subdivide(ga, max_vertices=100)
    nv = out.coords_per_geom()
    assert nv.max() <= 100
    # polygon-with-hole area preserved across pieces
    a_in = K.area(ga)[0]
    a_out = K.area(out)[parent == 0].sum()
    assert np.isclose(a_out, a_in, rtol=1e-12)
    # line length preserved
    l_in = K.euclidean_length(ga)[1]
    l_out = K.euclidean_length(out)[parent == 1].sum()
    assert np.isclose(l_out, l_in, rtol=1e-12)
    # small geometries pass through untouched; missing stays missing
    assert out.take(np.flatnonzero(parent == 2)).to_pylist() == [("point", (1.0, 2.0))]
    assert out.take(np.flatnonzero(parent == 3)).to_pylist() == [None]
    # degenerate coincident coords hit the max_depth warning path, not a hang
    dup = GeometryArray.from_pylist([("linestring", [(1.0, 1.0)] * 300)])
    out2, p2 = subdivide(dup, max_vertices=100, max_depth=4)
    assert len(out2) >= 1 and (p2 == 0).all()


def test_subdivide_no_duplication_review_fixes():
    """r4-final review pins: zero-extent-axis and on-split-line geometries
    must not duplicate; multipoints split half-open; degenerates emit once."""
    import numpy as np

    from geopolars_ray.geom import GeometryArray
    from geopolars_ray.geom import kernels as K
    from geopolars_ray.geom.clip import subdivide

    h = GeometryArray.from_pylist([("linestring", [(float(i), 0.0) for i in range(300)])])
    out, _ = subdivide(h, max_vertices=100)
    assert np.isclose(K.euclidean_length(out).sum(), 299.0)
    v = GeometryArray.from_pylist([("linestring", [(0.0, float(i)) for i in range(300)])])
    out, _ = subdivide(v, max_vertices=100)
    assert np.isclose(K.euclidean_length(out).sum(), 299.0)
    mp = GeometryArray.from_pylist([("multipoint", [(float(i % 7), 3.0) for i in range(301)])])
    out, _ = subdivide(mp, max_vertices=100)
    assert out.coords_per_geom().sum() == 301  # exact: no boundary dups
    dup = GeometryArray.from_pylist([("linestring", [(1.0, 1.0)] * 300)])
    out, p = subdivide(dup, max_vertices=100, max_depth=8)
    assert len(out) == 1 and out.coords_per_geom()[0] == 300
