"""Raster <-> vector tile rasterization (north-star op; SURVEY.md §7 M8).

A "raster tile" is one row per (coarse) grid tile holding a dense H x W
cell-value array (Arrow fixed-size or variable list<double>) over the tile's
extent — the exchange format between vector pipelines and raster consumers
(heatmaps, ML feature grids).

- :func:`rasterize_points` — points -> per-tile count/sum/mean grids, via
  ``hash_partitioned_map`` on the tile id: each partition turns all its
  tiles' points into dense arrays with one vectorized ``np.bincount`` per
  tile (no Ray per-tile overhead).
- :func:`raster_to_points` — the inverse: tile grids back to one row per
  non-empty cell with the cell-center coordinates and value.
- :func:`zonal_stats` — per-polygon-zone aggregates of a point dataset
  (count/sum/mean/min/max): broadcast PIP tag + combiner-first
  ``hash_aggregate``; the zone table is ``ray.put`` once, never re-shipped.
- :func:`raster_zonal_stats` — per-zone aggregates of RASTER tiles: each
  actor tests cell centers against the broadcast prepared zones (built once
  in ``__init__``), emits per-zone partials per batch, and a tiny
  ``hash_aggregate`` merges them — the dense grids never cross the shuffle.

Partitioning assumption: one tile's raster (H*W doubles) fits comfortably
in a block; tiles are independent, so this scales linearly with tile count.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from geopolars_ray.geom import tiles as tiles_mod
from geopolars_ray.stages.agg import hash_aggregate, hash_partitioned_map


def rasterize_points(
    ds,
    lon_col: str = "lon",
    lat_col: str = "lat",
    value_col: str | None = None,
    tile_deg: float = 15.0,
    resolution: int = 32,
    stat: str = "count",
    num_partitions: int = 16,
):
    """Point Dataset -> raster tiles: (tile, raster list<double>[res*res], n_points).

    ``stat``: count | sum | mean (sum/mean need ``value_col``). Cells are
    row-major with cell (0,0) at the tile's (lon_min, lat_min) corner.
    """
    if stat not in ("count", "sum", "mean"):
        raise ValueError(f"unknown stat {stat!r}")
    if stat in ("sum", "mean") and value_col is None:
        raise ValueError("sum/mean need value_col")

    def tag(batch: pa.Table) -> pa.Table:
        lon = batch[lon_col].to_numpy(zero_copy_only=False).astype(np.float64)
        lat = batch[lat_col].to_numpy(zero_copy_only=False).astype(np.float64)
        t = tiles_mod.grid_tile_id(lon, lat, cell_deg=tile_deg)
        return batch.append_column("_tile", pa.array(t))

    def rasterize(part: pa.Table) -> pa.Table:
        tile = np.asarray(part["_tile"].to_pylist(), dtype=np.int64)
        lon = part[lon_col].to_numpy(zero_copy_only=False).astype(np.float64)
        lat = part[lat_col].to_numpy(zero_copy_only=False).astype(np.float64)
        val = (
            part[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
            if value_col
            else None
        )
        order = np.argsort(tile, kind="stable")
        tile, lon, lat = tile[order], lon[order], lat[order]
        if val is not None:
            val = val[order]
        cut = np.nonzero(np.diff(tile))[0] + 1
        tiles_out, rasters, counts = [], [], []
        lon0, lat0, _, _ = tiles_mod.grid_tile_bounds(tile, cell_deg=tile_deg)
        res = resolution
        for sl_start, sl_tile in zip(
            np.split(np.arange(len(tile)), cut), np.split(tile, cut)
        ):
            idx = sl_start
            t0 = int(sl_tile[0])
            cx = np.clip(((lon[idx] - lon0[idx]) / tile_deg * res).astype(np.int64), 0, res - 1)
            cy = np.clip(((lat[idx] - lat0[idx]) / tile_deg * res).astype(np.int64), 0, res - 1)
            cell = cy * res + cx
            cnt = np.bincount(cell, minlength=res * res).astype(np.float64)
            if stat == "count":
                grid = cnt
            else:
                s = np.bincount(cell, weights=val[idx], minlength=res * res)
                grid = s if stat == "sum" else np.divide(s, np.maximum(cnt, 1.0))
            tiles_out.append(t0)
            rasters.append(grid)
            counts.append(len(idx))
        return pa.table(
            {
                "tile": pa.array(tiles_out, pa.int64()),
                "raster": pa.array([r.tolist() for r in rasters], pa.list_(pa.float64())),
                "n_points": pa.array(counts, pa.int64()),
            }
        )

    tagged = ds.map_batches(tag, batch_format="pyarrow")
    return hash_partitioned_map(tagged, ["_tile"], rasterize, num_partitions)


def raster_to_points(raster_ds, tile_deg: float = 15.0, resolution: int = 32):
    """Raster tiles -> one row per non-empty cell (vectorization inverse).

    Output: (tile, cell_lon, cell_lat, value) with cell-center coordinates.
    """

    def explode(batch: pa.Table) -> pa.Table:
        tiles = np.asarray(batch["tile"].to_pylist(), dtype=np.int64)
        grids = batch["raster"].to_pylist()
        res = resolution
        out_tile, out_lon, out_lat, out_val = [], [], [], []
        lon0, lat0, _, _ = tiles_mod.grid_tile_bounds(tiles, cell_deg=tile_deg)
        cell_w = tile_deg / res
        for i, g in enumerate(grids):
            g = np.asarray(g)
            nz = np.nonzero(g)[0]
            if not len(nz):
                continue
            cy, cx = nz // res, nz % res
            out_tile.append(np.full(len(nz), tiles[i], dtype=np.int64))
            out_lon.append(lon0[i] + (cx + 0.5) * cell_w)
            out_lat.append(lat0[i] + (cy + 0.5) * cell_w)
            out_val.append(g[nz])
        if not out_tile:
            return pa.table(
                {
                    "tile": pa.array([], pa.int64()),
                    "cell_lon": pa.array([], pa.float64()),
                    "cell_lat": pa.array([], pa.float64()),
                    "value": pa.array([], pa.float64()),
                }
            )
        return pa.table(
            {
                "tile": pa.array(np.concatenate(out_tile)),
                "cell_lon": pa.array(np.concatenate(out_lon)),
                "cell_lat": pa.array(np.concatenate(out_lat)),
                "value": pa.array(np.concatenate(out_val)),
            }
        )

    return raster_ds.map_batches(explode, batch_format="pyarrow")


# --------------------------------------------------------------------------
# zonal statistics (vector zones x points, vector zones x raster tiles)
# --------------------------------------------------------------------------

_ZONAL_STATS = ("count", "sum", "mean", "min", "max")


def _zonal_spec(value_col, stats):
    stats = list(stats)
    bad = [s for s in stats if s not in _ZONAL_STATS]
    if bad:
        raise ValueError(f"unknown zonal stats {bad}; supported: {_ZONAL_STATS}")
    if value_col is None and any(s != "count" for s in stats):
        raise ValueError("sum/mean/min/max need value_col")
    spec = []
    for s in stats:
        if s == "count":
            spec.append((value_col or "_zid", "count", "n"))
        else:
            spec.append((value_col, s, f"{s}_value"))
    return spec


def zonal_stats(
    points_ds,
    zones: pa.Table,
    zone_id_col: str = "zone_id",
    lon_col: str = "lon",
    lat_col: str = "lat",
    value_col: str | None = None,
    stats=("count", "sum", "mean"),
    geometry_col: str = "geometry",
    num_partitions: int = 16,
    concurrency=(1, 4),
    batch_size: int = 65536,
    broadcast: bool = True,
    cell_deg: float = 5.0,
):
    """Per-zone aggregates of a point Dataset against polygon zones.

    Composition of the two scale primitives: a spatial join tags each point
    with its zone id, then ``hash_aggregate`` reduces combiner-first — the
    shuffle carries one partial row per (block, zone), never points.  Points
    outside every zone are dropped (classic zonal-stats semantics); a point
    inside k overlapping zones counts in each of the k.

    ``broadcast=True`` (default) ships the zone table once per actor
    (``broadcast_spatial_join``) — right whenever the zones fit in a worker
    heap.  ``broadcast=False`` takes the large-large path instead: ``zones``
    may then be a ray Dataset (or a Table, wrapped), co-partitioned with the
    points by grid cell (``partitioned_spatial_join``, tune ``cell_deg``).
    """
    _zonal_spec(value_col, stats)  # validate BEFORE substituting the count column
    if broadcast:
        from geopolars_ray.stages.join import broadcast_spatial_join

        zt = zones.select([zone_id_col, geometry_col])
        if geometry_col != "geometry":
            zt = zt.rename_columns([zone_id_col, "geometry"])
        tagged = broadcast_spatial_join(
            points_ds,
            zt,
            lon_col=lon_col,
            lat_col=lat_col,
            how="inner",
            concurrency=concurrency,
            batch_size=batch_size,
        )
    else:
        import ray.data as rd

        from geopolars_ray.stages.join import partitioned_spatial_join

        zds = rd.from_arrow(zones) if isinstance(zones, pa.Table) else zones
        tagged = partitioned_spatial_join(
            points_ds, zds, cell_deg=cell_deg, lon_col=lon_col, lat_col=lat_col,
            geometry_col=geometry_col, num_partitions=max(num_partitions, 16),
        )
    return hash_aggregate(tagged, [zone_id_col],
                          _zonal_spec(value_col or lon_col, stats), num_partitions)


class _RasterZonalPartials:
    """Actor stage: raster-tile batches -> per-zone (n, sum, min, max) partials.

    Prepared zones + grid index are built once per actor from a broadcast
    object ref (``BroadcastPIPJoin`` pattern, stages/join.py).  Each batch
    expands its tiles' grids to cell centers VECTORIZED (one arange per batch,
    not per tile), PIP-refines grouped by zone (``PreparedPolygons.match``),
    and emits one partial row per zone — the dense rasters stay inside the actor.
    """

    def __init__(self, zones, zone_id_col, tile_deg, resolution, skip_empty):
        import ray
        from geopolars_ray.geom import decode_wkb
        from geopolars_ray.geom.strtree import GridIndex, PreparedPolygons

        table = ray.get(zones) if isinstance(zones, ray.ObjectRef) else zones
        ga = decode_wkb(table["geometry"])
        self.prep = PreparedPolygons.from_geometry_array(ga)
        self.grid = GridIndex(self.prep.bounds)
        self.zone_ids = table[zone_id_col]
        self.zone_id_col = zone_id_col
        self.tile_deg = float(tile_deg)
        self.res = int(resolution)
        self.skip_empty = bool(skip_empty)

    def __call__(self, batch: pa.Table) -> pa.Table:
        res = self.res
        tiles = batch["tile"].to_numpy(zero_copy_only=False).astype(np.int64)
        grids = np.asarray(
            [np.asarray(g, dtype=np.float64) for g in batch["raster"].to_pylist()]
        ).reshape(len(tiles), res * res)
        lon0, lat0, _, _ = tiles_mod.grid_tile_bounds(tiles, cell_deg=self.tile_deg)
        cw = self.tile_deg / res
        cell = np.arange(res * res)
        cx = (cell % res + 0.5) * cw
        cy = (cell // res + 0.5) * cw
        lon = (lon0[:, None] + cx[None, :]).ravel()
        lat = (lat0[:, None] + cy[None, :]).ravel()
        val = grids.ravel()
        if self.skip_empty:
            keep = val != 0.0
            lon, lat, val = lon[keep], lat[keep], val[keep]
        pidx, items = self.grid.candidates_for_points(lon, lat)
        pts, zi = self.prep.match(pidx, items, lon, lat)
        if not len(zi):
            return pa.table({
                self.zone_id_col: self.zone_ids.slice(0, 0),
                "_n": pa.array([], pa.int64()),
                "_sum": pa.array([], pa.float64()),
                "_min": pa.array([], pa.float64()),
                "_max": pa.array([], pa.float64()),
            })
        zv = val[pts]
        uniq, inv = np.unique(zi, return_inverse=True)
        n = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        s = np.bincount(inv, weights=zv, minlength=len(uniq))
        mn = np.full(len(uniq), np.inf)
        np.minimum.at(mn, inv, zv)
        mx = np.full(len(uniq), -np.inf)
        np.maximum.at(mx, inv, zv)
        return pa.table({
            self.zone_id_col: self.zone_ids.take(pa.array(uniq)),
            "_n": pa.array(n),
            "_sum": pa.array(s),
            "_min": pa.array(mn),
            "_max": pa.array(mx),
        })


def raster_zonal_stats(
    raster_ds,
    zones: pa.Table,
    zone_id_col: str = "zone_id",
    tile_deg: float = 15.0,
    resolution: int = 32,
    stats=("count", "sum", "mean", "min", "max"),
    skip_empty: bool = False,
    num_partitions: int = 8,
    concurrency=(1, 4),
):
    """Per-zone aggregates over raster tiles (raster -> vector analytics).

    A raster cell belongs to a zone iff its CENTER is inside the zone polygon
    (the standard all-touched=False rasterio/GDAL convention).  ``skip_empty``
    drops 0-valued cells first (sparse semantics — matches what
    ``raster_to_points`` + :func:`zonal_stats` would compute); the default
    keeps them, the honest dense-raster semantics.

    Scale shape: partials are one row per (batch, zone) — the shuffle after
    the actor stage is zone-cardinality-sized regardless of raster size.
    """
    import ray

    bad = [s for s in stats if s not in _ZONAL_STATS]
    if bad:
        raise ValueError(f"unknown zonal stats {bad}; supported: {_ZONAL_STATS}")
    ref = ray.put(zones)
    partials = raster_ds.map_batches(
        _RasterZonalPartials,
        fn_constructor_kwargs=dict(zones=ref, zone_id_col=zone_id_col,
                                   tile_deg=tile_deg, resolution=resolution,
                                   skip_empty=skip_empty),
        batch_format="pyarrow",
        concurrency=concurrency,
    )
    merged = hash_aggregate(
        partials, [zone_id_col],
        [("_n", "sum", "n"), ("_sum", "sum", "sum_value"),
         ("_min", "min", "min_value"), ("_max", "max", "max_value")],
        num_partitions,
    )

    want = list(stats)

    def finalize(batch: pa.Table) -> pa.Table:
        cols = {zone_id_col: batch[zone_id_col]}
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        for s in want:
            if s == "count":
                cols["n"] = batch["n"]
            elif s == "mean":
                sv = batch["sum_value"].to_numpy(zero_copy_only=False)
                cols["mean_value"] = pa.array(sv / np.maximum(n, 1.0))
            else:
                cols[f"{s}_value"] = batch[f"{s}_value"]
        return pa.table(cols)

    return merged.map_batches(finalize, batch_format="pyarrow")


# --------------------------------------------------------------------------
# focal (neighborhood) raster ops with distributed halo exchange
# --------------------------------------------------------------------------


def _halo_exchange_map(raster_ds, tile_deg, resolution, halo, per_tile,
                       num_partitions=16):
    """Generic halo-exchange raster transform.

    1. map_batches: each tile emits its own grid plus the ``halo``-wide
       edge/corner strips its 8 grid neighbors need — halo traffic is
       O(res·halo) per tile, never the full grid.
    2. ``hash_partitioned_map`` on the TARGET tile id: assemble padded
       (res+2h)^2 value + presence arrays per tile and call
       ``per_tile(values, mask) -> dict[col, (res, res) array]``; one list
       column per dict key.

    X tiles do not wrap at the antimeridian (the planar grid-id contract
    of ``geom/tiles.py grid_tile_id``).
    """
    res = int(resolution)
    h = int(halo)
    if not 0 < h < res:
        raise ValueError("kernel halo must be >= 1 and smaller than the tile resolution")
    ny = int(np.ceil(180.0 / tile_deg))
    nx = int(np.ceil(360.0 / tile_deg))

    def emit(batch: pa.Table) -> pa.Table:
        tiles = batch["tile"].to_numpy(zero_copy_only=False).astype(np.int64)
        out_t, out_dx, out_dy, out_v = [], [], [], []
        for row, g in enumerate(batch["raster"].to_pylist()):
            t = int(tiles[row])
            grid = np.asarray(g, dtype=np.float64).reshape(res, res)
            ix, iy = t // ny, t % ny
            out_t.append(t); out_dx.append(0); out_dy.append(0)
            out_v.append(grid.ravel())
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    if dx == 0 and dy == 0:
                        continue
                    jx, jy = ix + dx, iy + dy
                    if not (0 <= jx < nx and 0 <= jy < ny):
                        continue
                    # the strip of MY grid facing neighbor (dx, dy):
                    # rows are y (grid index cell//res), cols are x
                    ys = slice(res - h, res) if dy > 0 else (slice(0, h) if dy < 0 else slice(None))
                    xs = slice(res - h, res) if dx > 0 else (slice(0, h) if dx < 0 else slice(None))
                    out_t.append(jx * ny + jy)
                    out_dx.append(-dx)       # position relative to the TARGET
                    out_dy.append(-dy)
                    out_v.append(grid[ys, xs].ravel())
        return pa.table({
            "tile": pa.array(out_t, pa.int64()),
            "_dx": pa.array(out_dx, pa.int8()),
            "_dy": pa.array(out_dy, pa.int8()),
            "_vals": pa.array([v.tolist() for v in out_v], pa.list_(pa.float64())),
        })

    def assemble(part: pa.Table) -> pa.Table:
        t = part["tile"].to_numpy(zero_copy_only=False)
        dx = part["_dx"].to_numpy(zero_copy_only=False)
        dy = part["_dy"].to_numpy(zero_copy_only=False)
        vals = part["_vals"].to_pylist()
        order = np.argsort(t, kind="stable")
        cut = np.nonzero(np.diff(t[order]))[0] + 1
        pad = res + 2 * h
        out_tiles: list[int] = []
        out_cols: dict[str, list] = {}
        for rows in np.split(order, cut):
            tid = int(t[rows[0]])
            drows = {}
            for r in rows:
                key = (int(dx[r]), int(dy[r]))
                if key in drows:
                    raise ValueError(
                        f"tile {tid} got two strips from offset {key}: the "
                        f"raster dataset holds tile {tid} or one of its "
                        f"neighbours more than once")
                drows[key] = r
            if (0, 0) not in drows:
                continue          # halo strips for an absent tile: no output
            v = np.zeros((pad, pad))
            m = np.zeros((pad, pad), dtype=bool)

            def place(r, ys, xs):
                block = np.asarray(vals[r], dtype=np.float64)
                v[ys, xs] = block.reshape(ys.stop - ys.start, xs.stop - xs.start)
                m[ys, xs] = True

            place(drows[(0, 0)], slice(h, h + res), slice(h, h + res))
            for (sdx, sdy), r in drows.items():
                if sdx == 0 and sdy == 0:
                    continue
                ys = slice(0, h) if sdy < 0 else (slice(h + res, pad) if sdy > 0 else slice(h, h + res))
                xs = slice(0, h) if sdx < 0 else (slice(h + res, pad) if sdx > 0 else slice(h, h + res))
                place(r, ys, xs)
            got = per_tile(v, m)
            out_tiles.append(tid)
            for name, arr in got.items():
                out_cols.setdefault(name, []).append(np.asarray(arr, dtype=np.float64).ravel())
        cols = {"tile": pa.array(out_tiles, pa.int64())}
        for name, grids in out_cols.items():
            cols[name] = pa.array([g.tolist() for g in grids], pa.list_(pa.float64()))
        return pa.table(cols)

    exchanged = raster_ds.map_batches(emit, batch_format="pyarrow")
    return hash_partitioned_map(exchanged, ["tile"], assemble, num_partitions)


def focal_aggregate(
    raster_ds,
    tile_deg: float = 15.0,
    resolution: int = 32,
    kernel: int = 3,
    stat: str = "mean",
    num_partitions: int = 16,
):
    """Sliding-window (focal) aggregate over raster tiles — mean/sum/min/max
    over each cell's ``kernel`` x ``kernel`` neighborhood, ACROSS tile
    boundaries, via the distributed halo exchange of
    :func:`_halo_exchange_map`.  Cells whose window reaches past the data
    (no neighbor tile) aggregate over the present cells only (masked mean;
    sum treats absent as 0; min/max ignore absent)."""
    if stat not in ("mean", "sum", "min", "max"):
        raise ValueError(f"unknown focal stat {stat!r}")
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError("kernel must be odd and >= 1")
    from numpy.lib.stride_tricks import sliding_window_view

    def per_tile(v, m):
        wv = sliding_window_view(v, (kernel, kernel))
        wm = sliding_window_view(m, (kernel, kernel))
        if stat == "sum":
            g = (wv * wm).sum(axis=(2, 3))
        elif stat == "mean":
            g = (wv * wm).sum(axis=(2, 3)) / np.maximum(wm.sum(axis=(2, 3)), 1)
        elif stat == "min":
            g = np.where(wm, wv, np.inf).min(axis=(2, 3))
        else:
            g = np.where(wm, wv, -np.inf).max(axis=(2, 3))
        return {"raster": g}

    return _halo_exchange_map(raster_ds, tile_deg, resolution, kernel // 2,
                              per_tile, num_partitions)


def focal_convolve(
    raster_ds,
    weights,
    tile_deg: float = 15.0,
    resolution: int = 32,
    normalize: bool = True,
    num_partitions: int = 16,
):
    """Arbitrary-kernel masked convolution over raster tiles (Gaussian blur,
    Laplacian sharpen, ...), windows crossing tile boundaries via halo
    exchange.  ``weights`` is an odd square 2D array.  ``normalize=True``
    renormalizes by the weight mass actually present under each window
    (the standard nodata-aware convolution); ``False`` treats absent cells
    as 0 and applies raw weights."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] % 2 == 0:
        raise ValueError("weights must be an odd square 2D array")
    k = w.shape[0]
    from numpy.lib.stride_tricks import sliding_window_view

    def per_tile(v, m):
        wv = sliding_window_view(v, (k, k))
        wm = sliding_window_view(m, (k, k))
        num = np.einsum("abij,ij->ab", wv * wm, w)
        if normalize:
            den = np.einsum("abij,ij->ab", wm.astype(np.float64), np.abs(w))
            tot = np.abs(w).sum()
            with np.errstate(invalid="ignore", divide="ignore"):
                g = np.where(den > 0, num * (tot / np.maximum(den, 1e-300)), 0.0)
        else:
            g = num
        return {"raster": g}

    return _halo_exchange_map(raster_ds, tile_deg, resolution, k // 2,
                              per_tile, num_partitions)


def raster_slope(
    raster_ds,
    tile_deg: float = 15.0,
    resolution: int = 32,
    cellsize: float | None = None,
    num_partitions: int = 16,
):
    """Slope + aspect per cell (Horn's 3x3 method, the GDAL ``gdaldem``
    algorithm), gradients crossing tile boundaries via halo exchange.

    ``cellsize`` is the ground distance per cell in the raster's value
    units (default: the cell width in degrees, ``tile_deg/resolution`` —
    pass a metric size when the values are metric elevations).  Output
    columns: ``slope`` (degrees, NaN where the 3x3 window is incomplete)
    and ``aspect`` (degrees clockwise from north, NaN on flat cells and
    incomplete windows)."""
    cs = float(cellsize) if cellsize is not None else tile_deg / resolution
    from numpy.lib.stride_tricks import sliding_window_view

    def per_tile(v, m):
        wv = sliding_window_view(v, (3, 3))
        wm = sliding_window_view(m, (3, 3))
        full = wm.all(axis=(2, 3))
        # Horn weights; grid row 0 is SOUTH (lat increases with y index)
        gx = ((wv[..., 0, 2] + 2 * wv[..., 1, 2] + wv[..., 2, 2])
              - (wv[..., 0, 0] + 2 * wv[..., 1, 0] + wv[..., 2, 0])) / (8.0 * cs)
        gy = ((wv[..., 2, 0] + 2 * wv[..., 2, 1] + wv[..., 2, 2])
              - (wv[..., 0, 0] + 2 * wv[..., 0, 1] + wv[..., 0, 2])) / (8.0 * cs)
        slope = np.degrees(np.arctan(np.hypot(gx, gy)))
        # aspect: direction of steepest DESCENT (-gx, -gy) in (east, north),
        # degrees clockwise from north
        aspect = np.mod(np.degrees(np.arctan2(-gx, -gy)), 360.0)
        flat = (gx == 0) & (gy == 0)
        slope = np.where(full, slope, np.nan)
        aspect = np.where(full & ~flat, aspect, np.nan)
        return {"slope": slope, "aspect": aspect}

    return _halo_exchange_map(raster_ds, tile_deg, resolution, 1,
                              per_tile, num_partitions)


def raster_hillshade(
    raster_ds,
    tile_deg: float = 15.0,
    resolution: int = 32,
    cellsize: float | None = None,
    azimuth_deg: float = 315.0,
    altitude_deg: float = 45.0,
    z_factor: float = 1.0,
    num_partitions: int = 16,
):
    """Hillshade (0-255) per cell from Horn gradients — the ``gdaldem
    hillshade`` model: illumination = cos(zenith)·cos(slope) +
    sin(zenith)·sin(slope)·cos(azimuth - aspect).  NaN where the 3x3
    window is incomplete.  Shares the halo exchange with
    :func:`raster_slope`."""
    cs = float(cellsize) if cellsize is not None else tile_deg / resolution
    az = np.radians(azimuth_deg)
    zen = np.radians(90.0 - altitude_deg)
    from numpy.lib.stride_tricks import sliding_window_view

    def per_tile(v, m):
        wv = sliding_window_view(v, (3, 3))
        wm = sliding_window_view(m, (3, 3))
        full = wm.all(axis=(2, 3))
        gx = ((wv[..., 0, 2] + 2 * wv[..., 1, 2] + wv[..., 2, 2])
              - (wv[..., 0, 0] + 2 * wv[..., 1, 0] + wv[..., 2, 0])) / (8.0 * cs) * z_factor
        gy = ((wv[..., 2, 0] + 2 * wv[..., 2, 1] + wv[..., 2, 2])
              - (wv[..., 0, 0] + 2 * wv[..., 0, 1] + wv[..., 0, 2])) / (8.0 * cs) * z_factor
        slope = np.arctan(np.hypot(gx, gy))
        aspect = np.arctan2(-gx, -gy)          # descent, cw from north (rad)
        shade = (np.cos(zen) * np.cos(slope)
                 + np.sin(zen) * np.sin(slope) * np.cos(az - aspect))
        out = np.clip(shade, 0.0, 1.0) * 255.0
        return {"hillshade": np.where(full, out, np.nan)}

    return _halo_exchange_map(raster_ds, tile_deg, resolution, 1,
                              per_tile, num_partitions)


def resample_tiles(raster_ds, resolution: int, factor: int, how: str = "mean"):
    """Change raster resolution per tile — ``factor`` > 0 downsamples by
    aggregating factor x factor blocks (mean/sum/min/max), ``factor`` < 0
    upsamples by nearest-neighbor repetition.  Pure per-tile map_batches:
    no exchange, scales linearly with tile count."""
    if how not in ("mean", "sum", "min", "max"):
        raise ValueError(f"unknown resample stat {how!r}")
    res = int(resolution)
    f = int(factor)
    if f in (-1, 0, 1):
        raise ValueError("factor must be >= 2 (down) or <= -2 (up)")
    if f >= 2:
        if res % f:
            raise ValueError("downsample factor must divide resolution")
        new_res = res // f
    else:
        new_res = res * (-f)

    def resample(batch: pa.Table) -> pa.Table:
        grids = batch["raster"].to_pylist()
        outs = []
        for g in grids:
            a = np.asarray(g, dtype=np.float64).reshape(res, res)
            if f >= 2:
                b = a.reshape(new_res, f, new_res, f)
                if how == "mean":
                    o = b.mean(axis=(1, 3))
                elif how == "sum":
                    o = b.sum(axis=(1, 3))
                elif how == "min":
                    o = b.min(axis=(1, 3))
                else:
                    o = b.max(axis=(1, 3))
            else:
                o = np.repeat(np.repeat(a, -f, axis=0), -f, axis=1)
            outs.append(o.ravel().tolist())
        return pa.table({
            "tile": batch["tile"],
            "raster": pa.array(outs, pa.list_(pa.float64())),
        })

    return raster_ds.map_batches(resample, batch_format="pyarrow")


def idw_rasterize(
    points_ds,
    value_col: str,
    lon_col: str = "lon",
    lat_col: str = "lat",
    tile_deg: float = 15.0,
    resolution: int = 32,
    power: float = 2.0,
    radius_deg: float = 2.0,
    num_partitions: int = 16,
    max_points_per_tile: int = 2_000_000,
):
    """Inverse-distance-weighted interpolation: scattered point values ->
    per-tile raster surfaces (the classic vector->raster gridding op).

    Distributed shape: each point replicates to its own tile plus any of
    the 8 neighbor tiles whose extent lies within ``radius_deg`` of it —
    O(1) replication bounded by the radius — then one
    ``hash_partitioned_map`` on the tile id grids every tile from exactly
    the points that can influence it.  Per tile the (cells x points)
    distance block is fully vectorized; ``max_points_per_tile`` is a loud
    budget against pathological densities (at 100 TB, pre-aggregate with
    :func:`rasterize_points` ``stat="mean"`` first if a tile's raw points
    exceed it).

    Cells with no point within ``radius_deg`` are NaN.  A cell whose
    center coincides with a point takes that point's value exactly.
    ``radius_deg`` must be <= ``tile_deg`` (one-ring replication).
    """
    if radius_deg <= 0 or radius_deg > tile_deg:
        raise ValueError("radius_deg must be in (0, tile_deg]")
    res = int(resolution)
    ny = int(np.ceil(180.0 / tile_deg))
    nx = int(np.ceil(360.0 / tile_deg))

    def replicate(batch: pa.Table) -> pa.Table:
        lon = batch[lon_col].to_numpy(zero_copy_only=False).astype(np.float64)
        lat = batch[lat_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = ~(np.isnan(lon) | np.isnan(lat))
        idx0 = np.nonzero(ok)[0]
        lon, lat = lon[idx0], lat[idx0]
        ix = np.floor((lon + 180.0) / tile_deg).astype(np.int64)
        iy = np.floor((lat + 90.0) / tile_deg).astype(np.int64)
        rows_l, tiles_l = [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                jx, jy = ix + dx, iy + dy
                inb = (jx >= 0) & (jx < nx) & (jy >= 0) & (jy < ny)
                # within radius of tile (jx, jy)'s bbox?
                lo0 = jx * tile_deg - 180.0
                la0 = jy * tile_deg - 90.0
                dlon = np.maximum(np.maximum(lo0 - lon, lon - (lo0 + tile_deg)), 0.0)
                dlat = np.maximum(np.maximum(la0 - lat, lat - (la0 + tile_deg)), 0.0)
                near = (dlon * dlon + dlat * dlat) <= radius_deg * radius_deg
                keep = inb & near
                if keep.any():
                    rows_l.append(idx0[keep])
                    tiles_l.append((jx[keep] * ny + jy[keep]))
        if not rows_l:
            return batch.slice(0, 0).append_column("_tile", pa.array([], pa.int64()))
        out = batch.take(pa.array(np.concatenate(rows_l)))
        return out.append_column("_tile", pa.array(np.concatenate(tiles_l), pa.int64()))

    def grid_tiles(part: pa.Table) -> pa.Table:
        t = part["_tile"].to_numpy(zero_copy_only=False)
        lon = part[lon_col].to_numpy(zero_copy_only=False).astype(np.float64)
        lat = part[lat_col].to_numpy(zero_copy_only=False).astype(np.float64)
        val = part[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.argsort(t, kind="stable")
        t, lon, lat, val = t[order], lon[order], lat[order], val[order]
        cut = np.nonzero(np.diff(t))[0] + 1
        cw = tile_deg / res
        cell = np.arange(res * res)
        ox = (cell % res + 0.5) * cw
        oy = (cell // res + 0.5) * cw
        out_t, out_g, out_n = [], [], []
        for sl in np.split(np.arange(len(t)), cut) if len(t) else []:
            tid = int(t[sl[0]])
            if len(sl) > max_points_per_tile:
                raise ValueError(
                    f"idw_rasterize: tile {tid} has {len(sl)} candidate points "
                    f"(> max_points_per_tile={max_points_per_tile}); pre-aggregate "
                    "with rasterize_points(stat='mean') or raise the budget")
            lo0 = (tid // ny) * tile_deg - 180.0
            la0 = (tid % ny) * tile_deg - 90.0
            cx = lo0 + ox
            cy = la0 + oy
            dx = cx[:, None] - lon[sl][None, :]
            dy = cy[:, None] - lat[sl][None, :]
            d2 = dx * dx + dy * dy
            within = d2 <= radius_deg * radius_deg
            exact = d2 <= 1e-24
            with np.errstate(divide="ignore"):
                w = np.where(within, 1.0 / np.power(np.maximum(d2, 1e-300),
                                                    power / 2.0), 0.0)
            wsum = w.sum(axis=1)
            vsum = (w * val[sl][None, :]).sum(axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                g = np.where(wsum > 0, vsum / wsum, np.nan)
            hit = exact.any(axis=1)
            if hit.any():
                first = np.argmax(exact[hit], axis=1)
                g[hit] = val[sl][first]
            out_t.append(tid)
            out_g.append(g)
            out_n.append(len(sl))
        return pa.table({
            "tile": pa.array(out_t, pa.int64()),
            "raster": pa.array([g.tolist() for g in out_g], pa.list_(pa.float64())),
            "n_points": pa.array(out_n, pa.int64()),
        })

    replicated = points_ds.map_batches(replicate, batch_format="pyarrow")
    return hash_partitioned_map(replicated, ["_tile"], grid_tiles, num_partitions)


# --------------------------------------------------------------------------
# contour extraction (marching squares, seam-consistent across tiles)
# --------------------------------------------------------------------------

# segment table per marching-squares case: pairs of edge ids with edges
# 0=bottom (c00-c10), 1=right (c10-c11), 2=top (c01-c11), 3=left (c00-c01);
# corner bits: 1=c00, 2=c10, 4=c11, 8=c01 (inside = value >= level).
# Saddles (5, 10) use a FIXED rule so every tile resolves them identically.
_MS_SEGS = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    5: [(3, 0), (1, 2)], 6: [(0, 2)], 7: [(3, 2)], 8: [(3, 2)],
    9: [(0, 2)], 10: [(0, 1), (3, 2)], 11: [(1, 2)], 12: [(3, 1)],
    13: [(0, 1)], 14: [(3, 0)],
}


def _marching_squares(v, m, level, x0, y0, cw, i_lo, i_hi, j_lo, j_hi):
    """Vectorized marching squares over squares whose lower-left corner index
    is in [i_lo, i_hi) x [j_lo, j_hi) of grid ``v`` (rows=y).  Returns a flat
    float64 array [ax, ay, bx, by, ...]; ``x0``/``y0`` are the coordinates of
    grid index (0, 0) and ``cw`` the cell pitch.  Squares with any absent
    corner (mask ``m``) emit nothing."""
    z00 = v[j_lo:j_hi, i_lo:i_hi]
    z10 = v[j_lo:j_hi, i_lo + 1:i_hi + 1]
    z01 = v[j_lo + 1:j_hi + 1, i_lo:i_hi]
    z11 = v[j_lo + 1:j_hi + 1, i_lo + 1:i_hi + 1]
    ok = (m[j_lo:j_hi, i_lo:i_hi] & m[j_lo:j_hi, i_lo + 1:i_hi + 1]
          & m[j_lo + 1:j_hi + 1, i_lo:i_hi] & m[j_lo + 1:j_hi + 1, i_lo + 1:i_hi + 1])
    case = (
        (z00 >= level).astype(np.int8)
        + 2 * (z10 >= level).astype(np.int8)
        + 4 * (z11 >= level).astype(np.int8)
        + 8 * (z01 >= level).astype(np.int8)
    )
    case = np.where(ok, case, 0)
    jj, ii = np.nonzero((case > 0) & (case < 15))
    if not len(jj):
        return np.empty(0, dtype=np.float64)
    c = case[jj, ii]
    gi = ii + i_lo          # grid indices of the square's lower-left corner
    gj = jj + j_lo
    za, zb, zc, zd = v[gj, gi], v[gj, gi + 1], v[gj + 1, gi + 1], v[gj + 1, gi]

    def edge_point(eid):
        # returns (x, y) of the level crossing on edge ``eid`` per square
        if eid == 0:      # bottom: c00 -> c10
            t = (level - za) / (zb - za)
            return x0 + (gi + t) * cw, y0 + gj * cw
        if eid == 1:      # right: c10 -> c11
            t = (level - zb) / (zc - zb)
            return x0 + (gi + 1) * cw, y0 + (gj + t) * cw
        if eid == 2:      # top: c01 -> c11
            t = (level - zd) / (zc - zd)
            return x0 + (gi + t) * cw, y0 + (gj + 1) * cw
        t = (level - za) / (zd - za)  # left: c00 -> c01
        return x0 + gi * cw, y0 + (gj + t) * cw

    with np.errstate(divide="ignore", invalid="ignore"):
        pts = {e: edge_point(e) for e in range(4)}
    out = []
    for cc, segs in _MS_SEGS.items():
        sel = c == cc
        if not sel.any():
            continue
        for ea, eb in segs:
            ax, ay = pts[ea][0][sel], pts[ea][1][sel]
            bx, by = pts[eb][0][sel], pts[eb][1][sel]
            out.append(np.stack([ax, ay, bx, by], axis=1).ravel())
    return np.concatenate(out) if out else np.empty(0, dtype=np.float64)


def contour_lines(
    raster_ds,
    levels,
    tile_deg: float = 15.0,
    resolution: int = 32,
    num_partitions: int = 16,
):
    """Iso-contour line segments per raster tile (marching squares on the
    cell-center lattice), SEAM-CONSISTENT across tiles via a 1-cell halo:
    each tile computes exactly the squares whose lower-left cell center it
    owns, with neighbor values from the halo exchange, so the union over
    tiles equals a single global marching-squares pass (fixed saddle rule).

    Output: one row per (tile, level) with ``segments`` — a flat
    ``list<double>`` of [ax, ay, bx, by, ...] in lon/lat.  Stitch with
    :func:`geopolars_ray.geom.polygonize` / line_merge downstream if closed
    polylines are needed; segments are the exchange-stable primitive.
    """
    levels = [float(l) for l in np.atleast_1d(levels)]
    if not levels:
        raise ValueError("need at least one contour level")
    if len(set(levels)) != len(levels):
        raise ValueError(f"contour levels must be distinct, got {levels}")
    res = int(resolution)
    cw = tile_deg / res
    ny = int(np.ceil(180.0 / tile_deg))
    h = 1

    # _halo_exchange_map's per_tile doesn't see the tile id, so compute in
    # TILE-LOCAL coordinates and shift per tile afterwards — marching
    # squares is translation-equivariant, so local coords + origin shift is
    # a single float add per coordinate.  A tile owns exactly the squares
    # whose lower-left cell center is one of its own cells, so the union
    # over tiles equals one global pass (no duplicates, no gaps).
    def per_tile(v, m):
        out = {}
        x0 = -(h - 0.5) * cw    # local frame: tile origin at (0, 0)
        y0 = -(h - 0.5) * cw
        for li, lv in enumerate(levels):
            segs = _marching_squares(v, m, lv, x0, y0, cw,
                                     h, h + res, h, h + res)
            out[f"segments_{li}"] = segs
        return out

    local = _halo_exchange_map(raster_ds, tile_deg, resolution, h,
                               per_tile, num_partitions)

    def shift_and_melt(batch: pa.Table) -> pa.Table:
        tiles = batch["tile"].to_numpy(zero_copy_only=False)
        # one bulk gather per level column (not per-row .as_py() — see
        # stages/extract.py:54 for the measured cost of scalar gathers)
        seg_cols = [batch[f"segments_{li}"].to_pylist() for li in range(len(levels))]
        out_t, out_lv, out_seg = [], [], []
        for row in range(len(tiles)):
            t = int(tiles[row])
            lo0 = (t // ny) * tile_deg - 180.0
            la0 = (t % ny) * tile_deg - 90.0
            for li, lv in enumerate(levels):
                segs = np.asarray(seg_cols[li][row], dtype=np.float64)
                if len(segs):
                    segs[0::2] += lo0
                    segs[1::2] += la0
                out_t.append(t)
                out_lv.append(lv)
                out_seg.append(segs.tolist())
        return pa.table({
            "tile": pa.array(out_t, pa.int64()),
            "level": pa.array(out_lv, pa.float64()),
            "segments": pa.array(out_seg, pa.list_(pa.float64())),
        })

    return local.map_batches(shift_and_melt, batch_format="pyarrow")


def raster_math(
    a_ds,
    b_ds,
    op: str = "add",
    fill: float = 0.0,
    num_partitions: int = 16,
):
    """Cell-wise algebra between two tile-aligned raster datasets (band
    math: NDVI-style ratios, differences, masking).  ``op``: add | sub |
    mul | div | min | max.  Tiles present on only one side pair with a
    constant ``fill`` grid; a tile repeated on one side is the sum of its
    grids.  Shuffle plan: one ``co_partitioned_map`` (``stages/hashjoin.py``)
    on the tile id — each tile's pair meets in exactly one partition;
    grids never cross a second exchange.
    """
    from geopolars_ray.stages.hashjoin import co_partitioned_map

    _OPS = {
        "add": np.add, "sub": np.subtract, "mul": np.multiply,
        "div": lambda a, b: np.divide(a, b, out=np.full_like(a, np.nan),
                                      where=b != 0),
        "min": np.minimum, "max": np.maximum,
    }
    if op not in _OPS:
        raise ValueError(f"unknown raster op {op!r}; supported: {sorted(_OPS)}")
    fn = _OPS[op]

    def side_grids(side: pa.Table) -> dict[int, np.ndarray]:
        """Each tile's grid; a repeated tile sums its grids in row order."""
        sums: dict[int, np.ndarray] = {}
        for tid, g in zip(side["tile"].to_pylist(), side["raster"].to_pylist()):
            g = np.asarray(g, dtype=np.float64)
            sums[tid] = sums[tid] + g if tid in sums else g
        return sums

    def combine(a: pa.Table, b: pa.Table) -> pa.Table:
        grids_a, grids_b = side_grids(a), side_grids(b)
        out_t = sorted(grids_a.keys() | grids_b.keys())
        out_g = []
        for tid in out_t:
            ga, gb = grids_a.get(tid), grids_b.get(tid)
            ref = ga if ga is not None else gb
            if ga is None:
                ga = np.full_like(ref, fill)
            if gb is None:
                gb = np.full_like(ref, fill)
            if len(ga) != len(gb):
                raise ValueError(
                    f"raster_math: tile {tid} has mismatched resolutions "
                    f"({len(ga)} vs {len(gb)} cells); resample first")
            out_g.append(fn(ga, gb))
        return pa.table({
            "tile": pa.array(out_t, pa.int64()),
            "raster": pa.array([g.tolist() for g in out_g], pa.list_(pa.float64())),
        })

    def tile_raster(ds) -> pa.Schema:
        s = ds.schema()
        if s is None:
            raise ValueError("raster_math could not resolve an input schema (lazy pipeline "
                             "whose first block is empty?) — materialize the inputs first")
        types = dict(zip(s.names, s.types))
        return pa.schema([("tile", types["tile"]), ("raster", types["raster"])])

    return co_partitioned_map(a_ds, b_ds, ["tile"], combine, num_partitions=num_partitions,
                              left_schema=tile_raster(a_ds), right_schema=tile_raster(b_ds))
