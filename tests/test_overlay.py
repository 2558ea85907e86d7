"""Boolean overlay (geom/overlay.py): analytic anchors, hole/multipart/
self-crossing fixtures, a randomized even-odd membership oracle (the
definition of the operations, evaluated at probe points kept away from
every edge), inclusion-exclusion area identities, and the Ray stage path.
"""

import math

import numpy as np
import pyarrow as pa
import pytest

from geopolars_ray.geom.overlay import OPS, boolean_op, overlay_arrays


# ---------------------------------------------------------------- helpers
def sq(x0, y0, x1, y1):
    return ("polygon", [[(x0, y0), (x1, y0), (x1, y1), (x0, y1)]])


def geom_area(g):
    """Shoelace over every ring (holes are CW in the output convention, so
    they subtract automatically)."""
    if g is None:
        return 0.0
    t, data = g
    polys = [data] if t == "polygon" else data
    tot = 0.0
    for poly in polys:
        for ring in poly:
            s = 0.0
            n = len(ring)
            for i in range(n - 1):
                x1, y1 = ring[i]
                x2, y2 = ring[i + 1]
                s += x1 * y2 - x2 * y1
            tot += 0.5 * s
    return tot


def _rings(g):
    if g is None:
        return []
    t, data = g
    return list(data) if t == "polygon" else [r for poly in data for r in poly]


def _edges(g):
    out = []
    for ring in _rings(g):
        n = len(ring)
        closed = n > 1 and tuple(ring[0]) == tuple(ring[-1])
        m = n - 1 if closed else n
        for i in range(m):
            out.append((ring[i], ring[(i + 1) % n]))
    return out


def point_in(px, py, g):
    """Even-odd membership over ALL rings of g (input or output form)."""
    inside = False
    for (x1, y1), (x2, y2) in _edges(g):
        if (y1 > py) != (y2 > py):
            xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < xint:
                inside = not inside
    return inside


def dist_to_edges(px, py, g, lim):
    """Min distance from p to any edge of g, early-exiting below lim."""
    best = math.inf
    for (x1, y1), (x2, y2) in _edges(g):
        dx, dy = x2 - x1, y2 - y1
        L2 = dx * dx + dy * dy
        if L2 == 0.0:
            d2 = (px - x1) ** 2 + (py - y1) ** 2
        else:
            t = max(0.0, min(1.0, ((px - x1) * dx + (py - y1) * dy) / L2))
            d2 = (px - x1 - t * dx) ** 2 + (py - y1 - t * dy) ** 2
        if d2 < best:
            best = d2
            if best < lim * lim:
                return math.sqrt(best)
    return math.sqrt(best)


PRED = {
    "intersection": lambda a, b: a and b,
    "union": lambda a, b: a or b,
    "difference": lambda a, b: a and not b,
    "symmetric_difference": lambda a, b: a != b,
}


def check_membership_oracle(a, b, rng, n_probes=400, margin=1e-7):
    """For every op: p in result  <=>  PRED(p in a, p in b), at probe
    points strictly away from every input/result edge."""
    results = {op: boolean_op(a, b, op) for op in OPS}
    lo_x = min(p[0] for g in (a, b) for r in _rings(g) for p in r) - 0.5
    hi_x = max(p[0] for g in (a, b) for r in _rings(g) for p in r) + 0.5
    lo_y = min(p[1] for g in (a, b) for r in _rings(g) for p in r) - 0.5
    hi_y = max(p[1] for g in (a, b) for r in _rings(g) for p in r) + 0.5
    checked = 0
    for _ in range(n_probes):
        px = rng.uniform(lo_x, hi_x)
        py = rng.uniform(lo_y, hi_y)
        if dist_to_edges(px, py, a, margin) < margin:
            continue
        if dist_to_edges(px, py, b, margin) < margin:
            continue
        if any(
            g is not None and dist_to_edges(px, py, g, margin) < margin
            for g in results.values()
        ):
            continue
        in_a = point_in(px, py, a)
        in_b = point_in(px, py, b)
        for op, g in results.items():
            got = point_in(px, py, g) if g is not None else False
            want = bool(PRED[op](in_a, in_b))
            assert got == want, (
                f"{op} membership mismatch at ({px}, {py}): "
                f"in_a={in_a} in_b={in_b} got={got}"
            )
        checked += 1
    assert checked > n_probes // 2  # the filter must not eat the test
    return results


def star(cx, cy, k, r_lo, r_hi, rng):
    """Random concave star polygon (simple, possibly very spiky)."""
    ang = np.sort(rng.uniform(0, 2 * np.pi, k))
    rr = rng.uniform(r_lo, r_hi, k)
    return (
        "polygon",
        [[(cx + ri * np.cos(t), cy + ri * np.sin(t)) for ri, t in zip(rr, ang)]],
    )


# ---------------------------------------------------------------- anchors
def test_overlapping_squares_exact_areas():
    a, b = sq(0, 0, 2, 2), sq(1, 1, 3, 3)
    want = {
        "intersection": 1.0,
        "union": 7.0,
        "difference": 3.0,
        "symmetric_difference": 6.0,
    }
    for op, area in want.items():
        assert geom_area(boolean_op(a, b, op)) == pytest.approx(area, abs=1e-12)


def test_disjoint_and_contained():
    a, b = sq(0, 0, 1, 1), sq(5, 5, 6, 6)
    assert boolean_op(a, b, "intersection") is None
    assert geom_area(boolean_op(a, b, "union")) == pytest.approx(2.0)
    assert geom_area(boolean_op(a, b, "difference")) == pytest.approx(1.0)
    # union of disjoint parts must be a 2-part multipolygon
    u = boolean_op(a, b, "union")
    assert u[0] == "multipolygon" and len(u[1]) == 2

    outer, inner = sq(0, 0, 4, 4), sq(1, 1, 2, 2)
    # difference punches a hole: area 15, one poly with 2 rings
    d = boolean_op(outer, inner, "difference")
    assert geom_area(d) == pytest.approx(15.0)
    assert len(d[1]) == 1 and len(d[1][0]) == 2
    # hole ring is CW, exterior CCW (output convention)
    ext, hole = d[1][0]
    assert geom_area(("polygon", [ext])) > 0
    assert geom_area(("polygon", [hole])) < 0
    assert geom_area(boolean_op(outer, inner, "intersection")) == pytest.approx(1.0)
    assert geom_area(boolean_op(inner, outer, "difference")) == pytest.approx(0.0, abs=0)
    assert boolean_op(inner, outer, "difference") is None


def test_shared_edge_and_identical():
    a, b = sq(0, 0, 1, 1), sq(1, 0, 2, 1)  # share the x=1 edge
    assert boolean_op(a, b, "intersection") is None
    u = boolean_op(a, b, "union")
    assert geom_area(u) == pytest.approx(2.0)
    assert len(u[1]) == 1  # merged into ONE polygon, seam dissolved
    assert geom_area(boolean_op(a, b, "symmetric_difference")) == pytest.approx(2.0)

    assert geom_area(boolean_op(a, a, "intersection")) == pytest.approx(1.0)
    assert geom_area(boolean_op(a, a, "union")) == pytest.approx(1.0)
    assert boolean_op(a, a, "difference") is None
    assert boolean_op(a, a, "symmetric_difference") is None


def test_corner_touch():
    a, b = sq(0, 0, 1, 1), sq(1, 1, 2, 2)  # touch at (1,1) only
    assert boolean_op(a, b, "intersection") is None
    assert geom_area(boolean_op(a, b, "union")) == pytest.approx(2.0)
    assert geom_area(boolean_op(a, b, "difference")) == pytest.approx(1.0)


def test_hole_interactions():
    rng = np.random.default_rng(7)
    donut = (
        "polygon",
        [
            [(0, 0), (4, 0), (4, 4), (0, 4)],
            [(1, 1), (3, 1), (3, 3), (1, 3)],  # hole (even-odd: any orientation)
        ],
    )
    plug = sq(1.5, 1.5, 2.5, 2.5)  # entirely inside the hole
    assert boolean_op(donut, plug, "intersection") is None
    assert geom_area(boolean_op(donut, plug, "union")) == pytest.approx(13.0)
    bridge = sq(2, 2, 5, 5)  # spans hole, ring and outside
    check_membership_oracle(donut, bridge, rng)


def test_multipolygon_operands():
    rng = np.random.default_rng(8)
    a = ("multipolygon", [sq(0, 0, 2, 2)[1], sq(5, 0, 7, 2)[1]])
    b = sq(1, 1, 6, 3)
    inter = boolean_op(a, b, "intersection")
    assert geom_area(inter) == pytest.approx(1.0 + 1.0)
    assert len(inter[1]) == 2
    check_membership_oracle(a, b, rng)


def test_self_crossing_butterfly_even_odd():
    """A bowtie ring under even-odd fill = two triangles; clip the right
    wing out with a half-plane-ish square."""
    rng = np.random.default_rng(9)
    bow = ("polygon", [[(0, 0), (2, 2), (2, 0), (0, 2)]])  # crosses at (1,1)
    right = sq(1, -1, 3, 3)
    res = check_membership_oracle(bow, right, rng)
    # each wing is a triangle of base 2 (a vertical edge) and height 1
    assert geom_area(res["intersection"]) == pytest.approx(1.0)
    assert geom_area(res["difference"]) == pytest.approx(1.0)


def test_same_operand_overlapping_rings_parity_cancel():
    """Two overlapping rings WITHIN one operand: even-odd makes the
    overlap a hole (parity 2 = outside)."""
    a = ("multipolygon", [sq(0, 0, 2, 2)[1], sq(1, 1, 3, 3)[1]])
    full = boolean_op(a, sq(-1, -1, 4, 4), "intersection")
    # even-odd area of a = 8 - 2*1 ... overlap counted zero times: 4+4-2*1=6
    assert geom_area(full) == pytest.approx(6.0)
    rng = np.random.default_rng(10)
    check_membership_oracle(a, sq(0.5, 0.5, 2.5, 2.5), rng)


def test_null_and_empty_semantics():
    a = sq(0, 0, 1, 1)
    assert boolean_op(a, None, "intersection") is None
    assert geom_area(boolean_op(a, None, "difference")) == pytest.approx(1.0)
    assert geom_area(boolean_op(a, None, "union")) == pytest.approx(1.0)
    assert geom_area(boolean_op(None, a, "symmetric_difference")) == pytest.approx(1.0)
    assert boolean_op(None, a, "difference") is None
    with pytest.raises(ValueError, match="operation"):
        boolean_op(a, a, "nope")
    with pytest.raises(TypeError, match="polygonal"):
        boolean_op(("point", (0.0, 0.0)), a, "union")


# ------------------------------------------------------- randomized oracle
@pytest.mark.parametrize("seed", range(12))
def test_random_stars_membership_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    a = star(0.0, 0.0, int(rng.integers(4, 10)), 0.5, 3.0, rng)
    b = star(
        rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
        int(rng.integers(4, 10)), 0.5, 3.0, rng,
    )
    results = check_membership_oracle(a, b, rng)
    # inclusion-exclusion identities (areas measured on OUR outputs)
    ai = geom_area(results["intersection"])
    au = geom_area(results["union"])
    ad = geom_area(results["difference"])
    ax = geom_area(results["symmetric_difference"])
    aa = geom_area(boolean_op(a, a, "intersection"))
    ab = geom_area(boolean_op(b, b, "intersection"))
    assert au == pytest.approx(aa + ab - ai, rel=1e-9, abs=1e-9)
    assert ad == pytest.approx(aa - ai, rel=1e-9, abs=1e-9)
    assert ax == pytest.approx(au - ai, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_random_integer_lattice_grids(seed):
    """Axis-aligned integer rectangles maximize collinear-overlap and
    T-junction cases — the sweep's hardest degeneracies, exactly."""
    rng = np.random.default_rng(200 + seed)
    def rect():
        x0, y0 = rng.integers(0, 6, 2)
        return sq(float(x0), float(y0),
                  float(x0 + rng.integers(1, 5)), float(y0 + rng.integers(1, 5)))
    a = ("multipolygon", [rect()[1] for _ in range(3)])
    b = ("multipolygon", [rect()[1] for _ in range(3)])
    check_membership_oracle(a, b, rng, n_probes=300)


def test_symmetry_and_commutativity():
    rng = np.random.default_rng(42)
    a = star(0, 0, 7, 0.5, 2.5, rng)
    b = star(0.8, -0.4, 6, 0.5, 2.5, rng)
    assert geom_area(boolean_op(a, b, "intersection")) == pytest.approx(
        geom_area(boolean_op(b, a, "intersection")), rel=1e-12)
    assert geom_area(boolean_op(a, b, "union")) == pytest.approx(
        geom_area(boolean_op(b, a, "union")), rel=1e-12)
    assert geom_area(boolean_op(a, b, "symmetric_difference")) == pytest.approx(
        geom_area(boolean_op(b, a, "symmetric_difference")), rel=1e-12)


# ------------------------------------------------------------- array/stage
def test_overlay_arrays_nulls_and_collapse():
    from geopolars_ray.geom.array import GeometryArray

    lhs = GeometryArray.from_pylist([sq(0, 0, 2, 2), None, sq(0, 0, 1, 1), sq(0, 0, 4, 4)])
    rhs = GeometryArray.from_pylist([sq(1, 1, 3, 3), None, None, sq(1, 1, 2, 2)])
    out = overlay_arrays(lhs, rhs, "intersection").to_pylist()
    assert out[0][0] == "polygon"  # single part collapses to POLYGON
    assert geom_area(out[0]) == pytest.approx(1.0)
    assert out[1] is None
    assert out[2] is None  # intersection with null clip = empty
    diff = overlay_arrays(lhs, rhs, "difference").to_pylist()
    assert geom_area(diff[2]) == pytest.approx(1.0)  # subject passes through
    assert geom_area(diff[3]) == pytest.approx(15.0)


def test_overlay_stage_and_api(ray_session):
    import ray

    from geopolars_ray.api import GeoDataset
    from geopolars_ray.geom import GeometryArray, decode_wkb, encode_wkb

    rng = np.random.default_rng(3)
    subjects, clips = [], []
    for _ in range(60):
        subjects.append(star(rng.uniform(-1, 1), rng.uniform(-1, 1),
                             int(rng.integers(4, 8)), 0.5, 2.0, rng))
        clips.append(star(rng.uniform(-1, 1), rng.uniform(-1, 1),
                          int(rng.integers(4, 8)), 0.5, 2.0, rng))
    t = pa.table({
        "geometry": encode_wkb(GeometryArray.from_pylist(subjects)),
        "clip": encode_wkb(GeometryArray.from_pylist(clips)),
        "rid": pa.array(np.arange(60)),
    })
    gds = GeoDataset(ray.data.from_arrow(t).repartition(4))
    out_ds = gds.intersection("clip").dataset
    out = pa.concat_tables(ray.get(out_ds.to_arrow_refs()))
    got = decode_wkb(out["geometry"]).to_pylist()
    order = np.argsort(out["rid"].to_numpy())
    want = [boolean_op(a, b, "intersection") for a, b in zip(subjects, clips)]
    for oi, w in zip(order, want):
        g = got[oi]
        w_area = geom_area(w)
        assert geom_area(g) == pytest.approx(w_area, rel=1e-9, abs=1e-12)
    # out_col variant keeps the subject column
    from geopolars_ray.stages.geo import geo_binary_op
    res = geo_binary_op("overlay", "geometry", "clip", out_col="merged", operation="union")(t)
    assert {"geometry", "clip", "merged", "rid"} <= set(res.column_names)

def test_geodataset_union_dispatch(ray_session):
    """GeoDataset.union must keep BOTH contracts: a str argument is the
    row-wise polygon overlay; a Dataset/GeoDataset argument is the Ray
    Dataset.union concatenation this class delegated before overlay
    landed (regression: the overlay method silently shadowed it)."""
    import ray

    from geopolars_ray.api import GeoDataset
    from geopolars_ray.geom import GeometryArray, decode_wkb, encode_wkb

    sq = ("polygon", [[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (0.0, 0.0)]])
    sq2 = ("polygon", [[(1.0, 0.0), (3.0, 0.0), (3.0, 2.0), (1.0, 2.0), (1.0, 0.0)]])
    t = pa.table({"geometry": encode_wkb(GeometryArray.from_pylist([sq])),
                  "clip": encode_wkb(GeometryArray.from_pylist([sq2]))})
    a = GeoDataset(ray.data.from_arrow(t))
    b = GeoDataset(ray.data.from_arrow(t))
    # Dataset arg -> concatenation
    cat = a.union(b)
    assert cat.dataset.count() == 2
    # str arg -> polygon overlay union, area 2x3 merged rect = 6
    merged = a.union("clip")
    out = decode_wkb(pa.concat_tables(
        ray.get(merged.dataset.to_arrow_refs()))["geometry"]).to_pylist()
    assert geom_area(out[0]) == pytest.approx(6.0)
