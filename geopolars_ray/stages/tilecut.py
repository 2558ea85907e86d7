"""Vector tile cutting: split a geometry layer into per-tile clipped pieces.

The serving-layer op (MVT-style tiling, ST_Subdivide-by-grid): every
geometry is replicated to each lat/lon grid tile its bbox overlaps and
clipped to that tile's rectangle, producing a layer partitioned by tile id
— the layout vector-tile servers and tile-local overlay pipelines read.

Scale shape: replication is bbox-bounded (small features land in one tile;
a feature spanning k tiles emits k rows — the same O(overlap) contract as
``partitioned_spatial_join``'s polygon side), clipping is the vectorized
Sutherland–Hodgman kernel (`geom/clip.py clip_by_rect`), one call per
distinct tile per batch, and no shuffle is needed at all: the output is
already tile-tagged for `write_partitioned_parquet(key="tile")`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from geopolars_ray.geom import decode_wkb, encode_wkb
from geopolars_ray.geom import kernels as K
from geopolars_ray.geom.array import _expand_cell_rects
from geopolars_ray.geom.clip import clip_by_rect


def cut_to_tiles(
    geom_ds,
    tile_deg: float = 1.0,
    geometry_col: str = "geometry",
    drop_empty: bool = True,
):
    """Geometry Dataset -> one row per (feature, overlapped tile) with the
    geometry CLIPPED to the tile rectangle (column ``tile`` added).

    ``drop_empty`` removes rows whose clipped geometry is empty (a bbox
    overlap that the exact clip rejects — concave features); keep them to
    preserve a fixed replication count per feature.
    """
    nx = int(np.ceil(360.0 / tile_deg))
    ny = int(np.ceil(180.0 / tile_deg))

    def cut(batch: pa.Table) -> pa.Table:
        ga = decode_wkb(batch[geometry_col])
        xmin, ymin, xmax, ymax = K.bounds(ga)
        valid = ~np.isnan(xmin)
        pidx = np.nonzero(valid)[0]
        # lon 180 / lat 90 fall on the last column / row, not one past it,
        # where (ix, ny) would alias tile (ix + 1, 0)
        def index(v, lo, n):
            return np.minimum(np.floor((v[pidx] - lo) / tile_deg).astype(np.int64), n - 1)

        item, tiles = _expand_cell_rects(index(xmin, -180.0, nx), index(xmax, -180.0, nx),
                                         index(ymin, -90.0, ny), index(ymax, -90.0, ny), ny)
        rows = pidx[item]
        if not len(rows):
            out = batch.slice(0, 0)
            return out.append_column("tile", pa.array([], pa.int64()))

        # clip grouped by tile: one vectorized clip call per distinct tile
        order = np.argsort(tiles, kind="stable")
        rows_s, tiles_s = rows[order], tiles[order]
        cut_pts = np.nonzero(np.diff(tiles_s))[0] + 1
        out_rows, out_tiles, out_wkb = [], [], []
        for grp in np.split(np.arange(len(rows_s)), cut_pts):
            tid = int(tiles_s[grp[0]])
            lo0 = (tid // ny) * tile_deg - 180.0
            la0 = (tid % ny) * tile_deg - 90.0
            sub = ga.take(rows_s[grp])
            clipped = clip_by_rect(sub, lo0, la0, lo0 + tile_deg, la0 + tile_deg)
            if drop_empty:
                keep = ~K.is_empty(clipped)
                if not keep.any():
                    continue
                sel = np.nonzero(keep)[0]
                clipped = clipped.take(sel)
                grp = grp[sel]
            out_rows.append(rows_s[grp])
            out_tiles.append(np.full(len(grp), tid, dtype=np.int64))
            out_wkb.append(encode_wkb(clipped))
        if not out_rows:
            out = batch.slice(0, 0)
            return out.append_column("tile", pa.array([], pa.int64()))
        take = np.concatenate(out_rows)
        out = batch.drop_columns([geometry_col]).take(pa.array(take))
        out = out.append_column(geometry_col, pa.concat_arrays(
            [w.combine_chunks() if isinstance(w, pa.ChunkedArray) else w
             for w in out_wkb]))
        return out.append_column("tile", pa.array(np.concatenate(out_tiles)))

    return geom_ds.map_batches(cut, batch_format="pyarrow")
