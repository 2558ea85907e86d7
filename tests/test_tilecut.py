"""Tests: vector tile cutting (cut_to_tiles).

Invariants: per-feature area is conserved across its clipped pieces
(tiles partition the plane), every piece stays inside its tile rectangle,
and single-tile features pass through geometrically unchanged.
"""

import numpy as np
import pandas as pd
import pyarrow as pa

from geopolars_ray.geom import GeometryArray, decode_wkb, encode_wkb
from geopolars_ray.geom import kernels as K


def test_cut_to_tiles_conserves_area(ray_session):
    import ray
    from geopolars_ray.stages.tilecut import cut_to_tiles

    rng = np.random.default_rng(3)
    n = 400
    cx = rng.uniform(-10, 10, n)
    cy = rng.uniform(-10, 10, n)
    half = rng.uniform(0.1, 1.6, n)
    polys = GeometryArray.from_pylist([
        ("polygon", [[(x - h, y - h), (x + h, y - h), (x + h, y + h),
                      (x - h, y + h), (x - h, y - h)]])
        for x, y, h in zip(cx, cy, half)
    ])
    t = pa.table({"fid": pa.array(np.arange(n)), "geometry": encode_wkb(polys)})
    out = cut_to_tiles(ray.data.from_arrow(t).repartition(4), tile_deg=1.0).to_pandas()
    assert out["fid"].nunique() == n
    ga = decode_wkb(pa.array(out["geometry"].tolist()))
    areas = K.area(ga)
    per_fid = pd.Series(areas).groupby(out["fid"].values).sum().sort_index()
    np.testing.assert_allclose(per_fid.values, (2 * half[per_fid.index]) ** 2, rtol=1e-9)
    # containment in the owning tile
    ny = int(np.ceil(180 / 1.0))
    xmin, ymin, xmax, ymax = K.bounds(ga)
    lo0 = (out["tile"].values // ny) * 1.0 - 180.0
    la0 = (out["tile"].values % ny) * 1.0 - 90.0
    assert (xmin >= lo0 - 1e-9).all() and (xmax <= lo0 + 1.0 + 1e-9).all()
    assert (ymin >= la0 - 1e-9).all() and (ymax <= la0 + 1.0 + 1e-9).all()
    # features fully inside one tile emit exactly one row
    counts = out.groupby("fid").size()
    one_tile = (np.floor(cx - half + 180) == np.floor(cx + half + 180)) & (
        np.floor(cy - half + 90) == np.floor(cy + half + 90))
    assert (counts[np.nonzero(one_tile)[0]] == 1).all()


def test_cut_to_tiles_lines_and_points(ray_session):
    import ray
    from geopolars_ray.stages.tilecut import cut_to_tiles

    geoms = GeometryArray.from_pylist([
        ("linestring", [(0.5, 0.5), (2.5, 0.5)]),     # crosses 2 tile borders
        ("point", (0.25, 0.25)),
    ])
    t = pa.table({"fid": pa.array([0, 1]), "geometry": encode_wkb(geoms)})
    out = cut_to_tiles(ray.data.from_arrow(t), tile_deg=1.0).to_pandas()
    line_rows = out[out["fid"] == 0]
    assert len(line_rows) == 3                        # one piece per tile
    ga = decode_wkb(pa.array(line_rows["geometry"].tolist()))
    np.testing.assert_allclose(K.euclidean_length(ga).sum(), 2.0, rtol=1e-12)
    assert len(out[out["fid"] == 1]) == 1             # point: single tile


def test_cut_to_tiles_clamps_east_and_north_edges(ray_session):
    """A feature touching lon 180 and lat 90 lands in the last column and
    row; with drop_empty=False every tile id is still the one its
    rectangle decodes to (no (ix, ny) alias of tile (ix + 1, 0))."""
    import ray
    from geopolars_ray.stages.tilecut import cut_to_tiles

    geoms = GeometryArray.from_pylist([
        ("polygon", [[(178.5, 88.5), (180.0, 88.5), (180.0, 90.0), (178.5, 90.0),
                      (178.5, 88.5)]]),
        ("point", (180.0, 90.0)),
        ("point", (-180.0, -90.0)),
    ])
    t = pa.table({"fid": pa.array([0, 1, 2]), "geometry": encode_wkb(geoms)})
    out = cut_to_tiles(ray.data.from_arrow(t), tile_deg=1.0, drop_empty=False).to_pandas()
    nx, ny = 360, 180
    assert (out["tile"] >= 0).all() and (out["tile"] < nx * ny).all()
    poly = out[out["fid"] == 0]
    assert sorted(poly["tile"]) == [
        ix * ny + iy for ix in (nx - 2, nx - 1) for iy in (ny - 2, ny - 1)]
    assert out.loc[out["fid"] == 1, "tile"].tolist() == [nx * ny - 1]
    assert out.loc[out["fid"] == 2, "tile"].tolist() == [0]
    # each piece lies inside the rectangle its tile id decodes to
    ga = decode_wkb(pa.array(out["geometry"].tolist()))
    xmin, ymin, xmax, ymax = K.bounds(ga)
    lo0 = (out["tile"].values // ny) - 180.0
    la0 = (out["tile"].values % ny) - 90.0
    ok = ~np.isnan(xmin)
    assert (xmin[ok] >= lo0[ok] - 1e-9).all() and (xmax[ok] <= lo0[ok] + 1 + 1e-9).all()
    assert (ymin[ok] >= la0[ok] - 1e-9).all() and (ymax[ok] <= la0[ok] + 1 + 1e-9).all()
