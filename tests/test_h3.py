"""Canonical H3 (geom/h3.py): published anchors + structural invariants.

The anchor ids below are published uber/h3 values (docs/READMEs), pinning
the in-sandbox derived orientation/base-cell tables to canonical H3.
"""
import numpy as np
import pytest

from geopolars_ray.geom import h3 as H

ANCHORS = [
    # (lat, lng, res, canonical id)
    (0.0, 0.0, 0, 0x8075FFFFFFFFFFF),                                 # null island
    (37.3615593, -122.0553238, 7, 0x87283472BFFFFFF),                 # h3-js README
    (37.775938728915946, -122.41795063018799, 9, 0x8928308280FFFFF),  # h3-py docs
    (40.689167, -74.044444, 10, 0x8A2A1072B59FFFF),                   # uber/h3 README
]


def test_published_anchor_ids():
    for lat, lng, res, want in ANCHORS:
        got = int(H.latlng_to_cell(lat, lng, res)[0])
        assert got == want, f"({lat},{lng},{res}): {got:015x} != {want:015x}"


def test_published_center_anchor():
    la, lo = H.cell_to_latlng(np.array([0x85283473FFFFFFF], dtype=np.uint64))
    # published h3-py docs value for cellToLatLng('85283473fffffff')
    assert abs(la[0] - 37.34579337536848) < 1e-9
    assert abs(lo[0] - (-121.97637597255124)) < 1e-9


def test_round_trip_all_resolutions():
    rng = np.random.default_rng(42)
    for res in range(0, 16):
        lat = np.degrees(np.arcsin(rng.uniform(-1, 1, 3000)))
        lng = rng.uniform(-180, 180, 3000)
        h = H.latlng_to_cell(lat, lng, res)
        la, lo = H.cell_to_latlng(h)
        h2 = H.latlng_to_cell(la, lo, res)
        assert (h2 == h).all(), f"round-trip failed at res {res}"


def test_res0_cells_and_pentagons():
    allbc = np.array([(1 << 59) | (b << 45) | ((1 << 45) - 1)
                      for b in range(122)], dtype=np.uint64)
    assert H.is_valid_cell(allbc).all()
    assert int(H.is_pentagon(allbc).sum()) == 12
    la, lo = H.cell_to_latlng(allbc)
    assert (H.latlng_to_cell(la, lo, 0) == allbc).all()
    # base cells 4 / 117 are the polar pentagons: the pentagons nearest the
    # poles (H3's icosahedron has no vertex at the poles; all 12 vertices
    # are in ocean, the northmost at ~64.7N in the Norwegian Sea)
    la, lo = H.cell_to_latlng(allbc)
    pent = H.is_pentagon(allbc)
    assert int(np.argmax(np.where(pent, la, -91.0))) == 4
    assert int(np.argmin(np.where(pent, la, 91.0))) == 117


def test_parent_child_closure():
    rng = np.random.default_rng(7)
    lat = np.degrees(np.arcsin(rng.uniform(-1, 1, 5000)))
    lng = rng.uniform(-180, 180, 5000)
    h9 = H.latlng_to_cell(lat, lng, 9)
    h8 = H.latlng_to_cell(lat, lng, 8)
    par = H.cell_to_parent(h9, 8)
    # H3 children are not strictly nested geometrically, but the vast
    # majority of points agree; the canonical C library shows the same rate.
    agree = float((par == h8).mean())
    # canonical H3 children genuinely poke outside their parent hexagon;
    # the canonical library shows the same ~0.93 point-agreement rate
    assert agree > 0.90, agree
    # exact closure for cell centers
    la, lo = H.cell_to_latlng(h9)
    assert (H.cell_to_parent(H.latlng_to_cell(la, lo, 9), 8)
            == H.latlng_to_cell(la, lo, 8)).mean() > 0.90


def test_children():
    hexcell = H.latlng_to_cell(37.7759, -122.4179, 5)
    ch = H.cell_to_children(hexcell)
    assert len(ch) == 7
    assert (H.cell_to_parent(ch, 5) == hexcell[0]).all()
    # children tile the parent around its center
    la, lo = H.cell_to_latlng(ch)
    assert (H.latlng_to_cell(la, lo, 6) == ch).all()
    # pentagon has 6 children
    pent0 = np.array([(1 << 59) | (4 << 45) | ((1 << 45) - 1)], dtype=np.uint64)
    assert len(H.cell_to_children(pent0)) == 6


def test_resolution_and_validity():
    h = H.latlng_to_cell(10.0, 20.0, 11)
    assert int(H.get_resolution(h)[0]) == 11
    assert H.is_valid_cell(h)[0]
    bad = np.array([0xFFFFFFFFFFFFFFFF, 0x0, int(h[0]) ^ (1 << 63)],
                   dtype=np.uint64)
    assert not H.is_valid_cell(bad).any()
    # canonical pentagon indexes never lead with the K digit
    pent_bad = np.array([(1 << 59) | (1 << 52) | (4 << 45) | (1 << 42)
                         | ((1 << 42) - 1)], dtype=np.uint64)
    assert not H.is_valid_cell(pent_bad)[0]


def test_string_round_trip():
    h = H.latlng_to_cell(37.7759, -122.4179, 9)
    s = H.cells_to_string(h)
    assert s[0] == "8928308280fffff"
    assert H.string_to_cells(s)[0] == h[0]


def test_cross_face_boundary_consistency():
    """coarse-res indexes agree between the two nearest faces in the
    boundary band (the fine-res sliver behavior is nearest-face-decided,
    matching canonical H3 semantics)."""
    rng = np.random.default_rng(3)
    for res in (1, 2):
        lat = np.degrees(np.arcsin(rng.uniform(-1, 1, 4000)))
        lng = rng.uniform(-180, 180, 4000)
        h = H.latlng_to_cell(lat, lng, res)
        la, lo = H.cell_to_latlng(h)
        assert (H.latlng_to_cell(la, lo, res) == h).all()


def test_pentagon_distortion_area():
    """pentagons are markedly smaller than hexagons at the same res (5/6 of
    the sectors, further shrunk by gnomonic compression at icosa vertices;
    canonical H3's published min/avg cell stats show the same ~2x gap)."""
    rng = np.random.default_rng(11)
    n = 200_000
    lat = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
    lng = rng.uniform(-180, 180, n)
    h = H.latlng_to_cell(lat, lng, 1)
    ids, counts = np.unique(h, return_counts=True)
    pent = H.is_pentagon(ids)
    assert int(pent.sum()) == 12
    ratio = counts[pent].mean() / counts[~pent].mean()
    assert 0.35 < ratio < 0.85, ratio


def test_neighbors_structure():
    rng = np.random.default_rng(5)
    for res in (0, 2, 7):
        lat = np.degrees(np.arcsin(rng.uniform(-1, 1, 800)))
        lng = rng.uniform(-180, 180, 800)
        ids = np.unique(H.latlng_to_cell(lat, lng, res))
        nb = H.cell_to_neighbors(ids)
        assert H.is_valid_cell(nb.ravel()).all()
        assert (H.get_resolution(nb.ravel()) == res).all()
        pent = H.is_pentagon(ids)
        ndist = np.array([len(set(r.tolist()) - {int(h)})
                          for r, h in zip(nb, ids)])
        assert (ndist[~pent] == 6).all()
        assert (ndist[pent] == 5).all()
        # mutual adjacency (holds across icosa faces and around pentagons)
        flat = nb.ravel()
        back = H.cell_to_neighbors(flat)
        src = np.repeat(ids, 6)
        assert ((back == src[:, None]).any(axis=1) | (flat == src)).all()


def test_grid_disk():
    h = H.latlng_to_cell(37.7759, -122.4179, 7)
    for k in (1, 2, 3):
        d = H.grid_disk(h, k)
        assert len(d) == 1 + 3 * k * (k + 1)
        assert int(h[0]) in set(d.tolist())
    # pentagon disk: pentagon + its 5 neighbors
    pent3 = H.cell_to_children(
        np.array([(1 << 59) | (4 << 45) | ((1 << 45) - 1)], dtype=np.uint64), 3)
    pc = pent3[H.is_pentagon(pent3)]
    assert len(H.grid_disk(pc[:1], 1)) == 6


def test_polygon_to_cells():
    from geopolars_ray.geom.strtree import points_in_polygon_single
    sq = np.array([[-122.6, 37.6], [-122.2, 37.6], [-122.2, 37.9],
                   [-122.6, 37.9], [-122.6, 37.6]])
    cells = H.polygon_to_cells([sq], 7)
    assert len(cells) > 100
    la, lo = H.cell_to_latlng(cells)
    assert points_in_polygon_single(lo, la, [sq]).all()
    # completeness: every excluded neighbor center is outside
    nb = np.unique(H.cell_to_neighbors(cells).ravel())
    ring = np.array(sorted(set(nb.tolist()) - set(cells.tolist())),
                    dtype=np.uint64)
    la2, lo2 = H.cell_to_latlng(ring)
    assert not points_in_polygon_single(lo2, la2, [sq]).any()
    # holes shrink the cover; aperture-7 scaling holds
    hole = np.array([[-122.45, 37.7], [-122.35, 37.7], [-122.35, 37.8],
                     [-122.45, 37.8], [-122.45, 37.7]])
    assert len(H.polygon_to_cells([sq, hole], 7)) < len(cells)
    ratio = len(H.polygon_to_cells([sq], 8)) / len(cells)
    assert 6.0 < ratio < 8.0
    # budget guard fires loudly
    with pytest.raises(ValueError, match="max_cells"):
        H.polygon_to_cells([sq], 10, max_cells=100)


def test_compact_uncompact_cells():
    sq = np.array([[-122.6, 37.6], [-122.2, 37.6], [-122.2, 37.9],
                   [-122.6, 37.9], [-122.6, 37.6]])
    c7 = H.polygon_to_cells([sq], 7)
    comp = H.compact_cells(c7)
    assert len(comp) < len(c7)
    # multi-res: the compact cover mixes resolutions and round-trips exactly
    assert len(np.unique(H.get_resolution(comp))) >= 2
    assert (H.uncompact_cells(comp, 7) == c7).all()
    # all 7 children of a hex cell compact to the parent; pentagon needs 6
    hexc = H.latlng_to_cell(np.array([37.7]), np.array([-122.4]), 5)
    ch = H.cell_to_children(hexc, 7)
    assert len(ch) == 49 and (H.compact_cells(ch) == hexc).all()
    pent = np.array([(1 << 59) | (5 << 52) | (4 << 45) | ((1 << 30) - 1)],
                    dtype=np.uint64)
    assert H.is_pentagon(pent)[0]
    pch = H.cell_to_children(pent, 6)
    assert len(pch) == 6 and (H.compact_cells(pch) == pent).all()
    # an incomplete direct-sibling set (6 of 7 children) does NOT compact
    ch6 = H.cell_to_children(hexc, 6)
    assert (H.compact_cells(ch6[1:]) == np.sort(ch6[1:])).all()
    # dropping one res-7 leaf compacts PARTIALLY: the orphaned parent's 6
    # remaining children stay at res 7, every other res-6 group promotes
    part = H.compact_cells(ch[1:])
    assert len(part) == 12 and (H.uncompact_cells(part, 7) == np.sort(ch[1:])).all()
    # uncompact refuses upward res and oversized budgets loudly
    with pytest.raises(ValueError, match="res"):
        H.uncompact_cells(hexc, 4)
    with pytest.raises(ValueError, match="max_cells"):
        H.uncompact_cells(hexc, 12, max_cells=100)


def test_polygon_to_cells_cover_mode():
    from geopolars_ray.geom.strtree import points_in_polygon_single
    sq = np.array([[-122.6, 37.6], [-122.2, 37.6], [-122.2, 37.9],
                   [-122.6, 37.9], [-122.6, 37.6]])
    center = H.polygon_to_cells([sq], 7)
    cover = H.polygon_to_cells([sq], 7, mode="cover")
    assert set(center.tolist()) <= set(cover.tolist())
    # completeness: the cell of EVERY point of a dense in-polygon sample is
    # in the cover (including points hugging the boundary)
    rng = np.random.default_rng(5)
    lon = rng.uniform(-122.6, -122.2, 20000)
    lat = rng.uniform(37.6, 37.9, 20000)
    inside = points_in_polygon_single(lon, lat, [sq])
    cells = H.latlng_to_cell(lat[inside], lon[inside], 7)
    assert set(np.unique(cells).tolist()) <= set(cover.tolist())
    with pytest.raises(ValueError, match="mode"):
        H.polygon_to_cells([sq], 7, mode="bogus")
