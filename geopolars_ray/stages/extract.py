"""Flagship extraction + tiling stages (stateless map_batches kernels).

The geo-tag extraction stage is the pipeline's first hot stage: it reads the
wide ``html`` binary column, parses the geo signal, and immediately DROPS
html so the wide bytes never travel further than one stage (SURVEY.md §7
"hard" #4).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa

from geopolars_ray.geom import s2 as s2_mod
from geopolars_ray.geom import tiles as tiles_mod


class ExtractGeoTags:
    """Stateless stage: html -> (lat, lon); drops html (and any ``text``)."""

    # named-group variant of sources.pages._GEO_RE for pyarrow's RE2 extract_regex
    _GEO_RE_NAMED = r"coordinates: (?P<lat>-?\d+\.\d{6}),(?P<lon>-?\d+\.\d{6})"

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # one vectorized RE2 extraction over the raw html column. Sound
        # because html.escape only rewrites &<>, so a "coordinates: lat,lon"
        # line appears byte-verbatim inside the body markup and nowhere else
        # (titles/urls can't produce the pattern) — the first match equals
        # the Python re.search over the decoded text. Arrow's string->double
        # cast is correctly rounded, same as float().
        m = pc.extract_regex(pc.cast(batch["html"], pa.string()), self._GEO_RE_NAMED)
        lat_a = pc.fill_null(pc.cast(pc.struct_field(m, "lat"), pa.float64()), np.nan)
        lon_a = pc.fill_null(pc.cast(pc.struct_field(m, "lon"), pa.float64()), np.nan)
        out = batch.drop_columns(["html"] + (["text"] if "text" in batch.column_names else []))
        out = out.append_column("lat", lat_a)
        out = out.append_column("lon", lon_a)
        return out


def assign_tiles(
    lon_col: str = "lon",
    lat_col: str = "lat",
    s2_level: int | None = 12,
    grid_cell_deg: float | None = 1.0,
    hex_size_deg: float | None = None,
    h3_res: int | None = None,
) -> Callable[[pa.Table], pa.Table]:
    """Stateless tile-assignment kernel. Each tile kind is computed iff its
    parameter is not None: ``s2_l{s2_level}``, ``grid_tile``, ``hex_tile``
    and ``h3_r{h3_res}`` (CANONICAL Uber H3 ids, `geom/h3.py
    latlng_to_cell`; the north star's H3-res-7 tile assignment). All tile
    columns are int64: s2 and H3 ids are reinterpreted as signed (a
    lossless two's-complement bijection), because Ray Data's groupby
    pickles uint64 keys via a pandas round-trip while int64 keys stay
    native. Rows with null/NaN coordinates get null tiles."""
    from geopolars_ray.geom import h3 as h3_mod

    kinds = []
    if s2_level is not None:
        kinds.append((f"s2_l{s2_level}",
                      lambda x, y: s2_mod.s2_cell_id(x, y, level=s2_level).view(np.int64)))
    if grid_cell_deg is not None:
        kinds.append(("grid_tile", lambda x, y: tiles_mod.grid_tile_id(x, y, cell_deg=grid_cell_deg)))
    if hex_size_deg is not None:
        kinds.append(("hex_tile", lambda x, y: tiles_mod.hex_tile_id(x, y, size_deg=hex_size_deg)))
    if h3_res is not None:
        kinds.append((f"h3_r{h3_res}",
                      lambda x, y: h3_mod.latlng_to_cell(y, x, h3_res).view(np.int64)))

    def fn(batch: pa.Table) -> pa.Table:
        lon = batch[lon_col].to_numpy(zero_copy_only=False).astype(np.float64)
        lat = batch[lat_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = ~(np.isnan(lon) | np.isnan(lat))
        x, y = lon[ok], lat[ok]
        for name, ids_of in kinds:
            ids = np.zeros(len(lon), dtype=np.int64)
            if len(x):
                ids[ok] = ids_of(x, y)
            batch = batch.append_column(name, pa.Array.from_pandas(ids, mask=~ok, type=pa.int64()))
        return batch

    return fn
