"""cell_to_boundary / cells_to_polygons invariants.

The boundary engine has no in-sandbox h3 binary to diff against, so it is
pinned by invariants that would each fail loudly under any table/overage/
intersection mistake:

1. GLOBAL CLOSURE — the boundary polygons of every cell at a resolution,
   measured as spherical triangle fans, sum to exactly 4*pi steradians.
   Cell edges are straight in the gnomonic projection (= great-circle arcs),
   so the tiling is exact, not approximate; any wrong vertex, dropped
   pentagon vertex or missing class-III crossing point creates a gap or
   overlap and breaks the sum.
2. NUDGE RE-ENCODE — every boundary vertex pulled 1% toward the cell center
   re-indexes (latlng_to_cell) to the same cell, at every resolution parity.
3. CROSS-FACE AGREEMENT — neighboring cells share >= 2 boundary vertices to
   1e-9 deg even when the two cells resolve on different icosahedron faces
   (each face is a separate projection frame, so agreement across frames
   proves the substrate overage relabeling).
4. VERTEX COUNTS — hexagons 6 (class II) / 6-8 (class III edge-crossing),
   pentagons 5 (class II) / 10 (class III: 5 verts + 5 crossings).
"""
import numpy as np
import pytest

import geopolars_ray.geom.h3 as h3


def _res0_ids():
    bc = np.arange(122, dtype=np.uint64)
    return ((np.uint64(1) << np.uint64(59)) | (bc << np.uint64(45))
            | np.uint64((1 << 45) - 1))


def _xyz(lat, lng):
    la = np.radians(lat)
    lo = np.radians(lng)
    return np.stack([np.cos(la) * np.cos(lo), np.cos(la) * np.sin(lo),
                     np.sin(la)], axis=-1)


def _area_sum(ids):
    off, lat, lng = h3.cell_to_boundary(ids)
    clat, clng = h3.cell_to_latlng(ids)
    tot = 0.0
    for c in range(len(ids)):
        P = _xyz(lat[off[c]:off[c + 1]], lng[off[c]:off[c + 1]])
        C = _xyz(clat[c], clng[c])
        A = P
        B = np.roll(P, -1, axis=0)
        num = np.einsum("i,ni->n", C, np.cross(A, B))
        den = 1 + A @ C + np.einsum("ni,ni->n", A, B) + B @ C
        tot += float(np.sum(2 * np.arctan2(num, den)))
    return tot


@pytest.mark.parametrize("res", [0, 1, 2, 3])
def test_global_closure_4pi(res):
    ids = _res0_ids() if res == 0 else h3.uncompact_cells(_res0_ids(), res)
    assert abs(_area_sum(ids) / (4 * np.pi) - 1.0) < 1e-9


@pytest.mark.parametrize("res", [0, 2])
def test_vertex_counts_class_ii(res):
    ids = _res0_ids() if res == 0 else h3.uncompact_cells(_res0_ids(), res)
    off, _, _ = h3.cell_to_boundary(ids)
    cnt = off[1:] - off[:-1]
    pent = h3.is_pentagon(ids)
    assert (cnt[pent] == 5).all()
    assert (cnt[~pent] == 6).all()


def test_vertex_counts_class_iii():
    ids = h3.uncompact_cells(_res0_ids(), 1)
    off, _, _ = h3.cell_to_boundary(ids)
    cnt = off[1:] - off[:-1]
    pent = h3.is_pentagon(ids)
    assert (cnt[pent] == 10).all()          # 5 verts + 5 crossings, always
    assert set(np.unique(cnt[~pent])) <= {6, 7, 8}
    assert (cnt[~pent] > 6).any()           # some hexagons do cross faces


@pytest.mark.parametrize("res", [1, 4, 7, 9, 15])
def test_nudge_reencode(res):
    rng = np.random.default_rng(7 + res)
    lat = np.degrees(np.arcsin(rng.uniform(-1, 1, 1500)))
    lng = rng.uniform(-180, 180, 1500)
    ids = np.unique(h3.latlng_to_cell(lat, lng, res))
    off, bla, blo = h3.cell_to_boundary(ids)
    clat, clng = h3.cell_to_latlng(ids)
    P = _xyz(bla, blo)
    C = _xyz(clat, clng)
    cell_of = np.repeat(np.arange(len(ids)), off[1:] - off[:-1])
    Q = 0.99 * P + 0.01 * C[cell_of]
    Q /= np.linalg.norm(Q, axis=1, keepdims=True)
    qla = np.degrees(np.arcsin(np.clip(Q[:, 2], -1, 1)))
    qlo = np.degrees(np.arctan2(Q[:, 1], Q[:, 0]))
    assert (h3.latlng_to_cell(qla, qlo, res) == ids[cell_of]).all()


@pytest.mark.parametrize("res", [2, 3, 6, 7])
def test_neighbors_share_edge_vertices(res):
    # seed points near icosahedron face centers AND spread randomly so many
    # cells straddle face edges; check each cell against its 6 neighbors
    rng = np.random.default_rng(res)
    lat = np.degrees(np.arcsin(rng.uniform(-1, 1, 300)))
    lng = rng.uniform(-180, 180, 300)
    ids = np.unique(h3.latlng_to_cell(lat, lng, res))[:120]
    nbrs = h3.cell_to_neighbors(ids)
    off, bla, blo = h3.cell_to_boundary(ids)
    checked_cross_face = 0
    for c in range(len(ids)):
        mine = np.stack([bla[off[c]:off[c + 1]], blo[off[c]:off[c + 1]]], axis=1)
        uniq = [n for n in dict.fromkeys(int(x) for x in nbrs[c]) if n != int(ids[c])]
        noff, nla, nlo = h3.cell_to_boundary(np.array(uniq, dtype=np.uint64))
        for q in range(len(uniq)):
            theirs = np.stack([nla[noff[q]:noff[q + 1]], nlo[noff[q]:noff[q + 1]]], axis=1)
            d = np.abs(mine[:, None, :] - theirs[None, :, :]).max(axis=2)
            shared = (d < 1e-9).any(axis=1).sum()
            assert shared >= 2, (hex(int(ids[c])), hex(uniq[q]), shared)
        # count how many comparisons crossed a projection frame
        f_mine = h3._resolve_face_ijk(ids[c:c + 1], res)[0][0]
        f_theirs = h3._resolve_face_ijk(np.array(uniq, dtype=np.uint64), res)[0]
        checked_cross_face += int((f_theirs != f_mine).sum())
    assert checked_cross_face > 0  # the sample must actually exercise overage


def test_pentagon_boundary_contains_center_all_res():
    # every pentagon at res 0..6 (pentagons are the all-zero-digit
    # descendants of the 12 pentagon base cells): nudged vertices re-encode
    pent_bc = _res0_ids()[h3.is_pentagon(_res0_ids())]
    for res in range(7):
        digits_used = np.uint64((1 << (3 * res)) - 1) << np.uint64(3 * (15 - res))
        ids = ((pent_bc & ~np.uint64(0xF << 52) & ~digits_used)
               | (np.uint64(res) << np.uint64(52)))
        assert h3.is_valid_cell(ids).all() and h3.is_pentagon(ids).all()
        assert len(ids) == 12
        off, bla, blo = h3.cell_to_boundary(ids)
        clat, clng = h3.cell_to_latlng(ids)
        P = _xyz(bla, blo)
        C = _xyz(clat, clng)
        cell_of = np.repeat(np.arange(len(ids)), off[1:] - off[:-1])
        Q = 0.99 * P + 0.01 * C[cell_of]
        Q /= np.linalg.norm(Q, axis=1, keepdims=True)
        qla = np.degrees(np.arcsin(np.clip(Q[:, 2], -1, 1)))
        qlo = np.degrees(np.arctan2(Q[:, 1], Q[:, 0]))
        assert (h3.latlng_to_cell(qla, qlo, res) == ids[cell_of]).all()


def test_cells_to_polygons_geometry_array():
    from geopolars_ray.geom.array import POLYGON
    from geopolars_ray.geom.kernels import area

    rng = np.random.default_rng(3)
    lat = rng.uniform(30, 45, 50)
    lng = rng.uniform(-100, -80, 50)        # away from the antimeridian
    ids = np.unique(h3.latlng_to_cell(lat, lng, 7))
    ga = h3.cells_to_polygons(ids)
    assert (ga.types == POLYGON).all()
    # rings closed
    ro = ga.ring_offsets
    assert (ga.coords[ro[:-1]] == ga.coords[ro[1:] - 1]).all()
    # planar CCW (positive signed area) and ~consistent cell sizes at one res
    a = area(ga)
    assert (a > 0).all()
    assert a.max() / a.min() < 2.0
    # centers inside their polygon bbox
    clat, clng = h3.cell_to_latlng(ids)
    for c in range(len(ids)):
        ring = ga.coords[ro[c]:ro[c + 1]]
        assert ring[:, 0].min() < clng[c] < ring[:, 0].max()
        assert ring[:, 1].min() < clat[c] < ring[:, 1].max()


def test_h3_cell_polygon_kernel(ray_session):
    """Registered `h3_cell_polygon` kernel: point rows -> containing res-7
    H3 cell polygon (via geo_op inside map_batches), missing rows survive,
    and re-indexing each output polygon's contained point round-trips."""
    import pyarrow as pa
    import ray

    from geopolars_ray.geom import GeometryArray, decode_wkb, encode_wkb
    from geopolars_ray.stages.geo import geo_op

    rng = np.random.default_rng(11)
    x = rng.uniform(-100, -80, 200)
    y = rng.uniform(30, 45, 200)
    ga = GeometryArray.from_points(x, y)
    wkb = encode_wkb(ga).to_pylist()
    wkb[17] = None  # a missing row must pass through as missing
    tab = pa.table({"i": pa.array(np.arange(200)),
                    "geometry": pa.array(wkb, type=pa.large_binary())})
    out = (
        ray.data.from_arrow(tab)
        .map_batches(geo_op("h3_cell_polygon", res=7), batch_format="pyarrow")
        .to_pandas()
        .sort_values("i")
    )
    got = decode_wkb(pa.array(
        [None if b is None else bytes(b) for b in out["geometry"]],
        type=pa.large_binary()))
    from geopolars_ray.geom.array import MISSING, POLYGON

    assert got.types[17] == MISSING
    keep = np.arange(200) != 17
    assert (got.types[keep] == POLYGON).all()
    # every ring must match its point's cell's canonical boundary exactly
    ids = h3.latlng_to_cell(y[keep], x[keep], 7)
    uniq = np.unique(ids)
    want = h3.cells_to_polygons(uniq)
    ro_w = want.ring_offsets
    lut = {int(u): want.coords[ro_w[c]:ro_w[c + 1]] for c, u in enumerate(uniq)}
    ro_g = got.ring_offsets
    ids_all = h3.latlng_to_cell(y, x, 7)
    gi = 0
    for r in range(200):
        if r == 17:
            continue
        ring = got.coords[ro_g[gi]:ro_g[gi + 1]]
        assert np.array_equal(ring, lut[int(ids_all[r])])
        gi += 1


def test_boundaries_do_not_depend_on_memory_layout():
    """The same cells give bit-identical boundaries wherever numpy places
    the temporaries; a strided arctan2 once made them differ in the last
    ulp from one allocation pattern (and so one process) to the next."""
    rng = np.random.default_rng(11)
    x = rng.uniform(-100, -80, 200)[1:]
    y = rng.uniform(30, 45, 200)[1:]
    cells = np.unique(h3.latlng_to_cell(y, x, 7))
    seen = set()
    for _ in range(100):
        # shift where the temporaries below are allocated
        pads = [np.empty(int(rng.integers(1, 600))) for _ in range(3)]
        _, lat, lng = h3.cell_to_boundary(cells)
        seen.add(lat.tobytes() + lng.tobytes())
        del pads
    assert len(seen) == 1
