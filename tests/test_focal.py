"""Tests: focal (neighborhood) raster aggregates with halo exchange.

Oracle: a dense global mosaic of all tiles + masked sliding windows in
numpy — the distributed per-tile outputs must match it bit-for-bit,
including cells whose windows cross tile boundaries (the halo path).
"""

import numpy as np
import pyarrow as pa
import pytest
from numpy.lib.stride_tricks import sliding_window_view


def _mosaic_oracle(tp, res, deg, k, stat):
    ny = int(np.ceil(180 / deg))
    h = k // 2
    ids = tp["tile"].to_numpy()
    ix, iy = ids // ny, ids % ny
    gx0, gy0 = ix.min(), iy.min()
    W = (ix.max() - gx0 + 1) * res
    H = (iy.max() - gy0 + 1) * res
    V = np.zeros((H + 2 * h, W + 2 * h))
    M = np.zeros((H + 2 * h, W + 2 * h), bool)
    for t, g in zip(ids, tp["raster"]):
        x0 = (t // ny - gx0) * res + h
        y0 = (t % ny - gy0) * res + h
        V[y0:y0 + res, x0:x0 + res] = np.asarray(g).reshape(res, res)
        M[y0:y0 + res, x0:x0 + res] = True
    wv = sliding_window_view(V, (k, k))
    wm = sliding_window_view(M, (k, k))
    cnt = wm.sum(axis=(2, 3))
    if stat == "sum":
        G = (wv * wm).sum(axis=(2, 3))
    elif stat == "mean":
        G = (wv * wm).sum(axis=(2, 3)) / np.maximum(cnt, 1)
    elif stat == "min":
        G = np.where(wm, wv, np.inf).min(axis=(2, 3))
    else:
        G = np.where(wm, wv, -np.inf).max(axis=(2, 3))
    return G, ny, gx0, gy0


@pytest.mark.parametrize("stat,k", [("mean", 3), ("sum", 3), ("min", 3), ("max", 3), ("mean", 5)])
def test_focal_matches_dense_mosaic(ray_session, stat, k):
    import ray
    from geopolars_ray.stages.raster import focal_aggregate, rasterize_points

    rng = np.random.default_rng(11)
    n = 40000
    res, deg = 8, 15.0
    pts = pa.table({"lon": pa.array(rng.uniform(0, 60, n)),
                    "lat": pa.array(rng.uniform(-30, 30, n))})
    tiles = rasterize_points(ray.data.from_arrow(pts).repartition(4), tile_deg=deg,
                             resolution=res, num_partitions=4).materialize()
    out = focal_aggregate(tiles, tile_deg=deg, resolution=res, kernel=k,
                          stat=stat).to_pandas()
    tp = tiles.to_pandas()
    assert len(out) == len(tp) == 16  # 4x4 tile block: every halo is interior
    G, ny, gx0, gy0 = _mosaic_oracle(tp, res, deg, k, stat)
    for t, g in zip(out["tile"], out["raster"]):
        x0 = (t // ny - gx0) * res
        y0 = (t % ny - gy0) * res
        np.testing.assert_allclose(np.asarray(g).reshape(res, res),
                                   G[y0:y0 + res, x0:x0 + res], rtol=1e-12)


def test_focal_missing_neighbors(ray_session):
    # a lone tile: every boundary window aggregates over present cells only
    import ray
    from geopolars_ray.stages.raster import focal_aggregate

    res = 4
    grid = np.arange(res * res, dtype=np.float64)
    tiles = ray.data.from_arrow(pa.table({
        "tile": pa.array([60], pa.int64()),  # ix=5, iy=0 (corner of y range)
        "raster": pa.array([grid.tolist()], pa.list_(pa.float64())),
    }))
    out = focal_aggregate(tiles, tile_deg=15.0, resolution=res, kernel=3,
                          stat="mean").to_pandas()
    g = np.asarray(out["raster"][0]).reshape(res, res)
    G = grid.reshape(res, res)
    # corner cell (0,0): mean over its 2x2 present block
    np.testing.assert_allclose(g[0, 0], G[:2, :2].mean())
    # interior cell: full 3x3
    np.testing.assert_allclose(g[2, 2], G[1:4, 1:4].mean())


def test_focal_rejects_bad_args(ray_session):
    import ray
    from geopolars_ray.stages.raster import focal_aggregate

    empty = ray.data.from_arrow(pa.table({
        "tile": pa.array([], pa.int64()),
        "raster": pa.array([], pa.list_(pa.float64())),
    }))
    with pytest.raises(ValueError, match="odd"):
        focal_aggregate(empty, kernel=4)
    with pytest.raises(ValueError, match="unknown focal"):
        focal_aggregate(empty, stat="median")
    with pytest.raises(ValueError, match="halo"):
        focal_aggregate(empty, resolution=1, kernel=3)


def test_raster_slope_analytic_plane(ray_session):
    import ray
    from geopolars_ray.geom import tiles as tiles_mod
    from geopolars_ray.stages.raster import raster_slope

    res, deg = 8, 15.0
    ny = int(np.ceil(180 / deg))
    ids, grids = [], []
    for ix in (12, 13):          # 2x2 tile mosaic; inner seams need halos
        for iy in (6, 7):
            t = ix * ny + iy
            lon0, lat0, _, _ = tiles_mod.grid_tile_bounds(np.array([t]), cell_deg=deg)
            cw = deg / res
            cell = np.arange(res * res)
            lon = lon0[0] + (cell % res + 0.5) * cw
            lat = lat0[0] + (cell // res + 0.5) * cw
            ids.append(t)
            grids.append((2.0 * lon + 3.0 * lat).tolist())
    tiles = ray.data.from_arrow(pa.table({
        "tile": pa.array(ids, pa.int64()),
        "raster": pa.array(grids, pa.list_(pa.float64())),
    }))
    out = raster_slope(tiles, tile_deg=deg, resolution=res).to_pandas()
    exp_slope = np.degrees(np.arctan(np.hypot(2.0, 3.0)))
    exp_aspect = np.mod(np.degrees(np.arctan2(-2.0, -3.0)), 360.0)
    nan_cells = 0
    for _, r in out.iterrows():
        s = np.asarray(r["slope"])
        a = np.asarray(r["aspect"])
        np.testing.assert_allclose(s[~np.isnan(s)], exp_slope, rtol=1e-9)
        np.testing.assert_allclose(a[~np.isnan(a)], exp_aspect, rtol=1e-9)
        nan_cells += int(np.isnan(s).sum())
    # NaN only on the OUTER boundary of the 16x16 mosaic: 2*16 + 2*14
    assert nan_cells == 60


def test_focal_convolve_identity_and_blur(ray_session):
    import ray
    from geopolars_ray.stages.raster import focal_aggregate, focal_convolve

    res, deg = 8, 15.0
    rng = np.random.default_rng(7)
    ny = int(np.ceil(180 / deg))
    ids = [10 * ny + 5, 11 * ny + 5]
    grids = [rng.uniform(0, 9, res * res).tolist() for _ in ids]
    tiles = ray.data.from_arrow(pa.table({
        "tile": pa.array(ids, pa.int64()),
        "raster": pa.array(grids, pa.list_(pa.float64())),
    }))
    ident = np.zeros((3, 3)); ident[1, 1] = 1.0
    out = focal_convolve(tiles, ident, tile_deg=deg, resolution=res).to_pandas()
    orig = dict(zip(ids, grids))
    for _, r in out.iterrows():
        np.testing.assert_allclose(np.asarray(r["raster"]), orig[r["tile"]], rtol=1e-12)
    # normalized box blur == focal mean (masked edges included)
    blur = focal_convolve(tiles, np.ones((3, 3)) / 9.0, tile_deg=deg,
                          resolution=res).to_pandas().sort_values("tile")
    mean = focal_aggregate(tiles, tile_deg=deg, resolution=res, kernel=3,
                           stat="mean").to_pandas().sort_values("tile")
    for (_, b), (_, m) in zip(blur.iterrows(), mean.iterrows()):
        np.testing.assert_allclose(np.asarray(b["raster"]), np.asarray(m["raster"]), rtol=1e-12)
    with pytest.raises(ValueError, match="odd square"):
        focal_convolve(tiles, np.ones((2, 2)))


def test_hillshade_flat_and_plane(ray_session):
    import ray
    from geopolars_ray.stages.raster import raster_hillshade

    res, deg = 8, 15.0
    ny = int(np.ceil(180 / deg))
    flat = np.full(res * res, 5.0)
    tiles = ray.data.from_arrow(pa.table({
        "tile": pa.array([10 * ny + 5], pa.int64()),
        "raster": pa.array([flat.tolist()], pa.list_(pa.float64())),
    }))
    out = raster_hillshade(tiles, tile_deg=deg, resolution=res,
                           altitude_deg=45.0).to_pandas()
    hs = np.asarray(out["hillshade"][0])
    good = hs[~np.isnan(hs)]
    # flat terrain: cos(zenith) * 255 = cos(45 deg) * 255 everywhere
    np.testing.assert_allclose(good, np.cos(np.radians(45.0)) * 255.0, rtol=1e-12)
    # a slope facing the light is brighter than one facing away
    cell = np.arange(res * res)
    east_up = (cell % res).astype(np.float64)  # rises to the east
    t2 = ray.data.from_arrow(pa.table({
        "tile": pa.array([10 * ny + 5], pa.int64()),
        "raster": pa.array([east_up.tolist()], pa.list_(pa.float64())),
    }))
    lit = raster_hillshade(t2, tile_deg=deg, resolution=res, cellsize=1.0,
                           azimuth_deg=270.0).to_pandas()   # light from west
    dark = raster_hillshade(t2, tile_deg=deg, resolution=res, cellsize=1.0,
                            azimuth_deg=90.0).to_pandas()   # light from east
    li = np.asarray(lit["hillshade"][0]); da = np.asarray(dark["hillshade"][0])
    m = ~np.isnan(li)
    assert li[m].mean() > da[m].mean()


def test_resample_tiles_round_trip(ray_session):
    import ray
    from geopolars_ray.stages.raster import resample_tiles

    res = 8
    rng = np.random.default_rng(13)
    g = rng.uniform(0, 9, res * res)
    tiles = ray.data.from_arrow(pa.table({
        "tile": pa.array([77], pa.int64()),
        "raster": pa.array([g.tolist()], pa.list_(pa.float64())),
    }))
    down = resample_tiles(tiles, resolution=res, factor=2, how="mean").to_pandas()
    dg = np.asarray(down["raster"][0]).reshape(res // 2, res // 2)
    np.testing.assert_allclose(dg, g.reshape(4, 2, 4, 2).mean(axis=(1, 3)), rtol=1e-12)
    s = resample_tiles(tiles, resolution=res, factor=2, how="sum").to_pandas()
    np.testing.assert_allclose(np.asarray(s["raster"][0]).sum(), g.sum(), rtol=1e-12)
    up = resample_tiles(tiles, resolution=res, factor=-2).to_pandas()
    ug = np.asarray(up["raster"][0]).reshape(2 * res, 2 * res)
    np.testing.assert_allclose(ug[::2, ::2], g.reshape(res, res), rtol=0)
    np.testing.assert_allclose(ug[1::2, 1::2], g.reshape(res, res), rtol=0)
    import pytest as _pt
    with _pt.raises(ValueError, match="factor"):
        resample_tiles(tiles, resolution=res, factor=1)
    with _pt.raises(ValueError, match="divide"):
        resample_tiles(tiles, resolution=res, factor=3)


def test_contour_lines_match_global_pass(ray_session):
    """Distributed per-tile marching squares (1-cell halo, lower-left-cell
    square ownership) must produce EXACTLY the segment set of a single
    global pass over the merged mosaic — seams, saddle rule and all."""
    import ray
    from geopolars_ray.stages.raster import _marching_squares, contour_lines

    res, deg = 8, 15.0
    ny = int(np.ceil(180 / deg))
    cw = deg / res
    ids, grids = [], []
    for ix in (12, 13):
        for iy in (6, 7):
            t = ix * ny + iy
            lo0 = ix * deg - 180.0
            la0 = iy * deg - 90.0
            cell = np.arange(res * res)
            cx = lo0 + (cell % res + 0.5) * cw
            cy = la0 + (cell // res + 0.5) * cw
            z = np.hypot(cx - 15.0, cy - 15.0)
            ids.append(t)
            grids.append(z.tolist())
    tiles = ray.data.from_arrow(pa.table({
        "tile": pa.array(ids, pa.int64()),
        "raster": pa.array(grids, pa.list_(pa.float64())),
    }))
    levels = [5.0, 10.0]
    out = contour_lines(tiles, levels, tile_deg=deg, resolution=res).to_pandas()
    assert set(out["level"]) == set(levels)

    V = np.zeros((2 * res, 2 * res))
    M = np.ones_like(V, bool)
    for t, g in zip(ids, grids):
        x0 = (t // ny - 12) * res
        y0 = (t % ny - 6) * res
        V[y0:y0 + res, x0:x0 + res] = np.asarray(g).reshape(res, res)
    gx0 = 12 * deg - 180.0 + 0.5 * cw
    gy0 = 6 * deg - 90.0 + 0.5 * cw

    def segset(flat):
        s = np.asarray(flat).reshape(-1, 4).round(6)
        return {tuple(sorted([(a, b), (c, d)])) for a, b, c, d in s}

    for lv in levels:
        glob = segset(_marching_squares(V, M, lv, gx0, gy0, cw,
                                        0, 2 * res - 1, 0, 2 * res - 1))
        dist = set()
        for _, r in out[out["level"] == lv].iterrows():
            dist |= segset(r["segments"])
        assert glob == dist and len(glob) > 0
    # every endpoint lies ON the iso-level (linear interpolation invariant):
    # for the radial field, |dist to center| at an endpoint is within one
    # cell pitch of the level (interpolation error bound)
    for _, r in out[out["level"] == 5.0].iterrows():
        s = np.asarray(r["segments"]).reshape(-1, 2)
        if len(s):
            d = np.hypot(s[:, 0] - 15.0, s[:, 1] - 15.0)
            assert (np.abs(d - 5.0) < cw).all()
    import pytest as _pt
    with _pt.raises(ValueError, match="level"):
        contour_lines(tiles, [], tile_deg=deg, resolution=res)


def test_raster_math_ops_and_fill(ray_session):
    import ray
    from geopolars_ray.stages.raster import raster_math

    rng = np.random.default_rng(17)
    res = 4
    ga = rng.uniform(1, 9, res * res)
    gb = rng.uniform(1, 9, res * res)
    gc = rng.uniform(1, 9, res * res)
    a = ray.data.from_arrow(pa.table({
        "tile": pa.array([100, 101], pa.int64()),
        "raster": pa.array([ga.tolist(), gc.tolist()], pa.list_(pa.float64())),
    }))
    b = ray.data.from_arrow(pa.table({
        "tile": pa.array([100], pa.int64()),
        "raster": pa.array([gb.tolist()], pa.list_(pa.float64())),
    }))
    for op, fn in [("add", np.add), ("sub", np.subtract), ("mul", np.multiply),
                   ("min", np.minimum), ("max", np.maximum)]:
        out = raster_math(a, b, op=op, fill=0.0, num_partitions=2).to_pandas()
        got = {t: np.asarray(g) for t, g in zip(out["tile"], out["raster"])}
        np.testing.assert_allclose(got[100], fn(ga, gb), rtol=1e-12)
        np.testing.assert_allclose(got[101], fn(gc, np.zeros_like(gc)), rtol=1e-12)
    # div: zero denominators -> NaN, not inf
    bz = ray.data.from_arrow(pa.table({
        "tile": pa.array([100], pa.int64()),
        "raster": pa.array([np.where(gb > 5, gb, 0.0).tolist()], pa.list_(pa.float64())),
    }))
    d = raster_math(a, bz, op="div", num_partitions=2).to_pandas()
    gd = {t: np.asarray(g) for t, g in zip(d["tile"], d["raster"])}[100]
    zeros = gb <= 5
    assert np.isnan(gd[zeros]).all()
    np.testing.assert_allclose(gd[~zeros], ga[~zeros] / gb[~zeros], rtol=1e-12)
    import pytest as _pt
    with _pt.raises(ValueError, match="unknown raster op"):
        raster_math(a, b, op="pow")


def test_raster_math_repeated_tile_and_mismatched_resolution(ray_session):
    """A tile repeated on one side is the sum of its grids; a tile whose two
    sides differ in resolution raises."""
    import ray
    from geopolars_ray.stages.raster import raster_math

    rng = np.random.default_rng(5)
    # integer-valued cells: the sums are exact in any order
    g1, g2, g3, gb = (rng.integers(-9, 9, 16).astype(np.float64) for _ in range(4))
    a = ray.data.from_arrow(pa.table({
        "tile": pa.array([7, 8, 7, 7], pa.int64()),
        "raster": pa.array([g1.tolist(), gb.tolist(), g2.tolist(), g3.tolist()],
                           pa.list_(pa.float64())),
    })).repartition(2)
    b = ray.data.from_arrow(pa.table({
        "tile": pa.array([7], pa.int64()), "raster": pa.array([gb.tolist()], pa.list_(pa.float64())),
    }))
    out = raster_math(a, b, op="sub", fill=1.0, num_partitions=2).to_pandas()
    got = {t: np.asarray(g) for t, g in zip(out["tile"], out["raster"])}
    np.testing.assert_array_equal(got[7], g1 + g2 + g3 - gb)
    np.testing.assert_array_equal(got[8], gb - 1.0)
    small = ray.data.from_arrow(pa.table({
        "tile": pa.array([8], pa.int64()), "raster": pa.array([[1.0] * 4], pa.list_(pa.float64())),
    }))
    with pytest.raises(ValueError, match="mismatched resolutions"):
        raster_math(a, small, op="add", num_partitions=2).to_pandas()


def test_halo_exchange_rejects_duplicate_strips(ray_session):
    """A tile held twice sends each neighbour two strips from the same
    offset; the assembler used to keep whichever came last."""
    import ray
    from geopolars_ray.stages.raster import focal_aggregate

    res = 4
    grid = np.arange(res * res, dtype=np.float64).tolist()
    tiles = ray.data.from_arrow(pa.table({
        "tile": pa.array([60, 61, 61], pa.int64()),
        "raster": pa.array([grid, grid, [2.0 * v for v in grid]], pa.list_(pa.float64())),
    }))
    with pytest.raises(ValueError, match="two strips from offset"):
        focal_aggregate(tiles, tile_deg=15.0, resolution=res, kernel=3,
                        stat="mean").to_pandas()


def test_contour_lines_rejects_duplicate_levels(ray_session):
    """Internal columns are keyed by level index, and a level given twice
    (0.0 and -0.0 are one level) is refused up front."""
    import ray
    from geopolars_ray.stages.raster import contour_lines

    tiles = ray.data.from_arrow(pa.table({
        "tile": pa.array([60], pa.int64()),
        "raster": pa.array([[0.0] * 16], pa.list_(pa.float64())),
    }))
    for levels in ([5.0, 5.0], [0.0, -0.0], np.array([1.5, 2.0, 1.5])):
        with pytest.raises(ValueError, match="distinct"):
            contour_lines(tiles, levels, resolution=4)
