"""The flagship north-star pipeline: pages -> geotag -> tiles -> join -> rollup.

Shape (BASELINE.json north_star; SURVEY.md §3.3 Ray translation)::

    one task per parquet shard (FusedPagesGeotag + partial_rollup):
      read(url, warc_ts, html, lang)   # prune at the scan
      -> ExtractGeoTags  (html -> lat/lon; html dropped)
      -> assign_tiles    (only the rollup key: h3_r{res} or s2_l{level})
      -> BroadcastPIPJoin (admin polygons captured once per task)
      -> per-shard group-by (the combiner: ~1 row per (tile, admin))
    merge_rollup: hash_aggregate over the partials, key renamed to ``tile``

The streaming run (:func:`run_flagship_fused`) and the resumable run
(``state/checkpoint.py``) share the shard kernel and both helpers, so the
two differ only in where the per-shard partials live: Ray's object store
or checkpointed parquet files.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from geopolars_ray.stages.agg import barrier
from geopolars_ray.stages.extract import ExtractGeoTags, assign_tiles
from geopolars_ray.stages.join import BroadcastPIPJoin
from geopolars_ray.sources.pages import admin_polygons_table


class FusedPagesGeotag:
    """The flagship shard kernel: read -> extract -> tile -> PIP-join.

    Ray 2.49's optimizer does not fuse ReadParquet into the downstream map
    chain here, so the wide ``html`` column (the vast majority of the table's
    bytes) round-trips through the object store between the read tasks and
    the first map task — measured ~25% of flagship wall at 8 CPUs and the
    single biggest non-scaling cost (plasma memcpy is shared-memory-bandwidth
    bound, not CPU bound). This operator IS the fusion: each task takes
    shard PATHS, reads the parquet itself (columns pruned at the scan),
    pipes slices through extract/tiles/join in-process, and emits only the
    narrow geo-tagged output — html never leaves the task. At 100 TB this is
    also the right cluster shape: the wide bytes stay node-local to the scan.

    Only the rollup key ``tile_col`` is computed: ``h3_r{h3_res}`` when
    ``h3_res`` is set, else ``s2_l{s2_level}``.
    """

    def __init__(self, admin: pa.Table, s2_level: int = 12, batch_rows: int = 8192,
                 h3_res: int | None = None):
        self.tile_col = f"h3_r{h3_res}" if h3_res is not None else f"s2_l{s2_level}"
        self.extract = ExtractGeoTags()
        self.tiles = assign_tiles(s2_level=None if h3_res is not None else s2_level,
                                  grid_cell_deg=None, h3_res=h3_res)
        self.join = BroadcastPIPJoin(admin, how="inner")
        self.batch_rows = batch_rows

    def __call__(self, batch: pa.Table) -> pa.Table:
        return pa.concat_tables([self.shard(p)[0] for p in batch["path"].to_pylist()])

    def shard(self, path: str) -> tuple[pa.Table, int, int]:
        """The admin-joined points of one parquet shard, with the shard's
        row count and how many of its rows carried a geotag."""
        t = pq.read_table(path, columns=["url", "warc_ts", "html", "lang"])
        outs, n_geo = [], 0
        # a zero-row shard still yields one (empty) slice, so the output
        # keeps its schema
        for s in range(0, max(t.num_rows, 1), self.batch_rows):
            pts = self.tiles(self.extract(t.slice(s, self.batch_rows)))
            n_geo += int(np.count_nonzero(~np.isnan(pts["lat"].to_numpy())))
            outs.append(self.join(pts))
        return pa.concat_tables(outs), t.num_rows, n_geo


# the columns of a per-shard partial after its tile key; state/checkpoint
# writes partials to disk and refuses ones in another layout
PARTIAL_COLS = ["admin_id", "n_pages", "sum_lat", "sum_lon"]


def partial_rollup(pts: pa.Table, tile_col: str) -> pa.Table:
    """Per-(tile, admin) page count and coordinate sums of one shard's
    points: the combiner half of the rollup."""
    return (
        pts.select([tile_col, "admin_id", "lat", "lon"])
        .group_by([tile_col, "admin_id"])
        .aggregate([("lat", "count"), ("lat", "sum"), ("lon", "sum")])
        .rename_columns([tile_col] + PARTIAL_COLS)
    )


def merge_rollup(parts, tile_col: str, num_partitions: int):
    """Sum the per-shard partials per (tile, admin) with
    ``hash_aggregate`` (combiner + hash-partitioned C++ hash-agg; a hot
    tile adds at most one partial row per shard to the exchange, SURVEY.md
    §4 skew row) and name the key column ``tile``."""
    from geopolars_ray.stages.agg import hash_aggregate

    out = hash_aggregate(
        parts,
        keys=[tile_col, "admin_id"],
        spec=[
            ("n_pages", "sum", "n_pages"),
            ("sum_lat", "sum", "sum_lat"),
            ("sum_lon", "sum", "sum_lon"),
        ],
        num_partitions=num_partitions,
    )

    def rename(batch: pa.Table) -> pa.Table:
        idx = batch.column_names.index(tile_col)
        return batch.set_column(idx, "tile", batch[tile_col])

    return out.map_batches(rename, batch_format="pyarrow")


def run_flagship_fused(
    pages_dir: str,
    out_path: str | None = None,
    admin: pa.Table | None = None,
    s2_level: int = 12,
    batch_rows: int = 8192,
    num_partitions: int = 32,
    h3_res: int | None = None,
):
    """Flagship with manual read fusion AND per-shard partial aggregation in
    ONE task-based operator — the scale shape for sharded page directories.

    Why one operator (r3, measured at sf0.1/24M rows): Ray 2.49 (a) does not
    fuse ReadParquet into the map chain, so the wide html column round-trips
    through the object store, and (b) fuses consecutive task-based
    map_batches with the LARGEST batch_size winning the input-bundling
    target, so a path-per-row driver table gets swallowed into ONE task by
    the rollup's 262144-row combine stage; while (c) splitting into two
    operators (actor-pool geotag + task combine) triggers the executor's
    operator-reservation starvation (~50% utilization at 2-8 CPUs). Doing
    read -> extract -> tile -> join -> per-shard pa.Table.group_by inside
    one function avoids all three: 2->8 CPU scaling efficiency measured
    0.99 (was 0.52-0.75 with the separate-read plan after the extract
    kernel got 10x faster and stopped hiding the plasma traffic), and the
    html bytes never leave the task that read them — on a real cluster the
    wide bytes stay node-local to the scan.

    The per-shard partials (~1 row per (tile, admin) pair per shard) are
    materialized (a tiny table) and re-aggregated by :func:`merge_rollup`
    — exactly the classic combiner contract. ``n_pages`` is exact;
    ``sum_lat``/``sum_lon`` are float sums whose association follows the
    shard split, so they agree with any other split to rounding only. The
    same shards give bit-identical sums in every run.

    ``h3_res`` switches the rollup key to CANONICAL Uber H3 cells — the
    north star's "point-in-polygon + H3 tile assignment" shape; the default
    key stays s2_l12 for cross-round bench comparability.
    """
    import glob as glob_mod

    if admin is None:
        admin = admin_polygons_table()
    paths = sorted(glob_mod.glob(f"{pages_dir}/*.parquet"))
    if not paths:
        raise FileNotFoundError(f"no parquet shards under {pages_dir}")
    fused = FusedPagesGeotag(admin, s2_level=s2_level, batch_rows=batch_rows, h3_res=h3_res)
    tcol = fused.tile_col

    def shard_pipeline(batch: pa.Table) -> pa.Table:
        return partial_rollup(fused(batch), tcol)

    items = ray.data.from_items([{"path": p} for p in paths], override_num_blocks=len(paths))
    # partials reach the merge in shard order, not completion order, so the
    # float sums associate the same way in every run
    items.context.execution_options.preserve_order = True
    parts = barrier(items.map_batches(shard_pipeline, batch_format="pyarrow", batch_size=1))
    out = merge_rollup(parts, tcol, num_partitions)
    if out_path is not None:
        out.write_parquet(out_path)
    return out
