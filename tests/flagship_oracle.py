"""The flagship as a plain chain of Ray Data operators: a test oracle.

Independent of the fused shard kernel in ``pipelines/flagship.py``: Ray
Data reads and splits the pages itself, each stage is its own
``map_batches``, and the rollup is one ``hash_aggregate`` over the points.
The fused and checkpointed runs must give the same rollup.
"""

import pyarrow as pa

import ray

from geopolars_ray.sources.pages import admin_polygons_table
from geopolars_ray.stages.agg import hash_aggregate
from geopolars_ray.stages.extract import ExtractGeoTags, assign_tiles
from geopolars_ray.stages.join import BroadcastPIPJoin


def chain_rollup(pages_path: str, s2_level: int = 12, num_partitions: int = 32):
    """pages -> (tile, admin_id, n_pages, sum_lat, sum_lon) Dataset."""
    tile_col = f"s2_l{s2_level}"
    pts = (
        ray.data.read_parquet(pages_path, columns=["url", "warc_ts", "html", "lang"])
        .map_batches(ExtractGeoTags(), batch_format="pyarrow", batch_size=8192)
        .map_batches(assign_tiles(s2_level=s2_level), batch_format="pyarrow")
        .map_batches(BroadcastPIPJoin(admin_polygons_table(), how="inner"),
                     batch_format="pyarrow")
    )
    out = hash_aggregate(
        pts.select_columns([tile_col, "admin_id", "lat", "lon"]),
        keys=[tile_col, "admin_id"],
        spec=[("lat", "count", "n_pages"), ("lat", "sum", "sum_lat"), ("lon", "sum", "sum_lon")],
        num_partitions=num_partitions,
    )
    return out.map_batches(
        lambda b: b.rename_columns(["tile" if c == tile_col else c for c in b.column_names]),
        batch_format="pyarrow")
