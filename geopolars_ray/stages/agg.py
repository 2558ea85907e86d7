"""High-cardinality aggregation: hash-partition + Arrow hash-agg.

Ray Data's built-in ``groupby().aggregate()`` (sort-based) spends ~200µs of
Python per GROUP — measured 28s for a 150k-row/146k-group rollup, which is
unusable for per-tile aggregation where group count ~ row count. The scale
pattern here does the same job in 0.15s (190x):

1. per-batch partial combine (``pyarrow.Table.group_by`` — C++ hash agg), so
   a hot key contributes at most one row per block to the shuffle (this IS
   the skew handling: combiner first, exactly SURVEY.md §4);
2. add ``_part = hash(keys) % P`` (vectorized polars row hash);
3. ``groupby("_part").map_groups`` — only P groups ever hit Ray's sort path,
   and each partition aggregates ALL its keys in one C++ hash-agg call.

Supported aggregate fns: sum, count, min, max, mean (mean decomposes into
sum+count partials and finalizes as the ratio).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pyarrow as pa


AggSpec = tuple[str, str, str]  # (column, fn, out_name)


def _hash_part(batch: pa.Table, keys: Sequence[str], num_partitions: int) -> pa.Array:
    import polars as pl

    h = pl.from_arrow(batch.select(list(keys))).hash_rows(seed=7).to_numpy()
    return pa.array((h % np.uint64(num_partitions)).astype(np.int64))


def hash_aggregate(
    ds,
    keys: Sequence[str],
    spec: Sequence[AggSpec],
    num_partitions: int = 32,
):
    """Grouped aggregation that scales with partitions, not groups.

    ``spec``: (col, fn, out_name) with fn in sum|count|min|max|mean.
    Returns a Dataset with ``keys + [out for each spec]`` columns.

    A second combiner (``tree_combine``) merges many per-block partials into
    batches of 262,144 rows before the shuffle — for
    fine-grained keys (per-tile rollups) this cuts shuffled rows ~10x at the
    cost of a soft batching barrier.
    """
    keys = list(keys)
    partial_aggs: list[tuple[str, str]] = []
    partial_names: list[str] = []
    final_aggs: list[tuple[str, str]] = []
    final_names: list[str] = []
    post: list[tuple[str, str, str]] = []  # (out, kind, aux) for mean finalize
    drop_at_end: list[str] = []

    def add_partial(col: str, fn: str, pname: str):
        partial_aggs.append((col, fn))
        partial_names.append(pname)

    for col, fn, out in spec:
        if fn in ("sum", "min", "max"):
            add_partial(col, fn, f"_{out}__p")
            final_aggs.append((f"_{out}__p", fn))
            final_names.append(out)
        elif fn == "count":
            add_partial(col, "count", f"_{out}__p")
            final_aggs.append((f"_{out}__p", "sum"))
            final_names.append(out)
        elif fn == "mean":
            add_partial(col, "sum", f"_{out}__s")
            add_partial(col, "count", f"_{out}__c")
            final_aggs.append((f"_{out}__s", "sum"))
            final_names.append(f"_{out}__s2")
            final_aggs.append((f"_{out}__c", "sum"))
            final_names.append(f"_{out}__c2")
            post.append((out, "mean", f"_{out}__"))
            drop_at_end += [f"_{out}__s2", f"_{out}__c2"]
        else:
            raise ValueError(f"unsupported aggregate fn {fn!r}")

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(keys).aggregate(partial_aggs)
        g = g.rename_columns(keys + partial_names)
        return g.append_column("_part", _hash_part(g, keys, num_partitions))

    def final(group: pa.Table) -> pa.Table:
        g = group.drop_columns(["_part"]).group_by(keys).aggregate(final_aggs)
        g = g.rename_columns(keys + final_names)
        for out, kind, aux in post:
            if kind == "mean":
                s = g[f"{aux}s2"].to_numpy(zero_copy_only=False).astype(np.float64)
                c = g[f"{aux}c2"].to_numpy(zero_copy_only=False).astype(np.float64)
                g = g.append_column(out, pa.array(s / np.maximum(c, 1.0)))
        if drop_at_end:
            g = g.drop_columns(drop_at_end)
        return g

    # merging partials applies the final fns (sum-of-counts etc.) over the
    # partial columns — which is exactly final_aggs — but keeps the partial
    # column names so `final` still applies afterwards
    combine_aggs = list(final_aggs)

    def tree_combine(batch: pa.Table) -> pa.Table:
        g = batch.group_by(keys + ["_part"]).aggregate(combine_aggs)
        return g.rename_columns(keys + ["_part"] + partial_names)

    # NOTE: tree_combine FUSES with the upstream chain, which coarsens task
    # granularity to ~262k rows per task. That is a deliberate
    # trade: every attempt to break fusion (repartition,
    # randomize_block_order, distinct num_cpus, actor pool) made the
    # streaming executor serialize the upstream map on small clusters
    # (8 CPUs: 46s fused vs 125-160s unfused for the same job). The batch
    # size balances combine compression against stragglers.
    stage1 = ds.map_batches(partial, batch_format="pyarrow").map_batches(
        tree_combine, batch_format="pyarrow", batch_size=262144
    )
    # A barrier on the (combined, small) partials before the shuffle: the
    # sort-based groupby is a barrier regardless, and keeping the AllToAll
    # operator out of the map plan stops the executor's resource reservation
    # from starving the map stage on small clusters (observed: map ran ~1
    # task at a time at 4-8 CPUs with the sort attached — 4x wall time).
    # Partials are a compressed stage boundary, so pinning them is cheap.
    stage1 = barrier(stage1)
    return stage1.groupby("_part").map_groups(final, batch_format="pyarrow")


def salted_group_map(
    ds,
    keys: Sequence[str],
    partial_fn: Callable[[pa.Table], pa.Table],
    merge_fn: Callable[[pa.Table], pa.Table],
    salt: int = 8,
    num_partitions: int = 32,
):
    """Two-phase grouped compute with explicit hot-key salting.

    For grouped logic whose per-group state can be computed on disjoint row
    subsets and merged (top-k, reservoir samples, sketches) but is NOT a
    plain aggregate: phase 1 splits every group into ``salt`` sub-groups
    (``_salt = hash(row) % salt``) so a hot key's rows spread over ``salt``
    parallel calls; phase 2 merges the per-sub-group partials per key.
    Both phases run through :func:`hash_partitioned_map`, so neither pays
    Ray's per-group overhead.

    ``partial_fn``/``merge_fn`` are called once per sub-group / key-group
    (whole-group tables, key columns included) and must return tables that
    retain the key columns.
    """
    keys = list(keys)

    def add_salt(batch: pa.Table) -> pa.Table:
        # salt must be deterministic per ROW (not random) so retries and
        # parallelism levels reproduce identical sub-group assignment
        import polars as pl

        h = pl.from_arrow(batch.select(keys)).hash_rows(seed=13).to_numpy()
        row = np.arange(len(batch), dtype=np.uint64)
        with np.errstate(over="ignore"):
            s = (_splitmix(h + row) % np.uint64(salt)).astype(np.int64)
        return batch.append_column("_salt", pa.array(s))

    def per_group(cols, fn, drop_salt):
        def run(part: pa.Table) -> pa.Table:
            outs = []
            for g in group_slices(part, cols):
                if drop_salt and "_salt" in g.column_names:
                    g = g.drop_columns(["_salt"])
                outs.append(fn(g))
            if not outs:
                return part.slice(0, 0)
            return pa.concat_tables(outs, promote_options="default")

        return run

    salted = ds.map_batches(add_salt, batch_format="pyarrow")
    partials = hash_partitioned_map(
        salted, keys + ["_salt"], per_group(keys + ["_salt"], partial_fn, True), num_partitions
    )
    return hash_partitioned_map(
        partials, keys, per_group(keys, merge_fn, False), max(4, num_partitions // 2)
    )


def group_slices(table: pa.Table, cols: Sequence[str]):
    """Yield one sub-table per distinct value combination of ``cols``."""
    import pyarrow.compute as pc

    if table.num_rows == 0:
        return
    order = pc.sort_indices(table, sort_keys=[(c, "ascending") for c in cols])
    t = table.take(order)
    change = np.zeros(t.num_rows - 1, dtype=bool) if t.num_rows > 1 else np.zeros(0, dtype=bool)
    for c in cols:
        a = np.asarray(t[c].to_pylist(), dtype=object)
        if len(a) > 1:
            change |= a[1:] != a[:-1]
    cuts = np.concatenate([[0], np.nonzero(change)[0] + 1, [t.num_rows]])
    for s, e in zip(cuts[:-1], cuts[1:]):
        yield t.slice(s, e - s)


def rank_within_runs(table: pa.Table, cols: Sequence[str]) -> np.ndarray:
    """0-based rank of each row within its run of equal ``cols`` values —
    the table must already be sorted so equal keys are adjacent. One
    change-mask + ``maximum.accumulate`` pass, no per-group Python (shared
    by grouped_topk's map-side pre-combine and stratified_sample_n)."""
    n = table.num_rows
    if n == 0:
        return np.empty(0, dtype=np.int64)
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for c in cols:
        col = table[c].to_numpy(zero_copy_only=False)
        neq = col[1:] != col[:-1]
        if np.issubdtype(col.dtype, np.floating):
            # nulls surface as NaN here, and NaN != NaN would make every
            # null-key row its own run — but SQL window/group semantics put
            # all NULL keys in ONE partition (review finding). Adjacent
            # NaNs are the same run.
            both_nan = np.isnan(col[1:]) & np.isnan(col[:-1])
            neq &= ~both_nan
        change[1:] |= neq
    starts = np.maximum.accumulate(np.where(change, np.arange(n), 0))
    return np.arange(n) - starts


def _splitmix(v: np.ndarray) -> np.ndarray:
    v = (v + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    v = ((v ^ (v >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    return v ^ (v >> np.uint64(31))


def hash_partitioned_map(
    ds,
    keys: Sequence[str],
    fn: Callable[[pa.Table], pa.Table],
    num_partitions: int = 32,
):
    """Co-locate all rows of each key and apply ``fn`` once per PARTITION.

    The generic replacement for per-key ``map_groups`` when key cardinality
    is high: ``fn`` receives one table holding every row of ~(#keys/P) keys
    (sorted by nothing — sort inside if needed) and only P groups ever touch
    Ray's sort-based machinery.

    Empty sort ranges: Ray's sort exchange emits a zero-row, ZERO-COLUMN
    block for every sort range that receives no ``_part`` value: on a
    16-block input, 12 of 16 output blocks at P=4, fewer as P grows. Ray
    never calls ``fn``, nor any later ``map_batches`` UDF, on such a block
    (after a P=4 exchange over 16 blocks a UDF ran on the 4 non-empty
    blocks only); ``count``, ``to_pandas`` and ``write_parquet`` tolerate
    it. :func:`barrier` and :func:`concat_blocks` drop them.
    """
    keys = list(keys)

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column("_part", _hash_part(batch, keys, num_partitions))

    def run(group: pa.Table) -> pa.Table:
        return fn(group.drop_columns(["_part"]))

    return ds.map_batches(tag, batch_format="pyarrow").groupby("_part").map_groups(
        run, batch_format="pyarrow"
    )


def barrier(ds):
    """A stage boundary: execute ``ds`` once and return a Dataset over its
    blocks that carries no lineage.

    A materialized Dataset keeps its stats lineage, and every later
    execution walks it. An iterative operator that builds each round from
    two references to the last round's output (``cc.py``) doubles that
    lineage per round; the rebuilt Dataset starts from its block refs
    alone, as Spark's RDD checkpoint does. Blocks whose metadata reads zero
    rows (the empty sort ranges of :func:`hash_partitioned_map`) are
    dropped without fetching them; when every block is empty one is kept,
    so ``schema()`` still answers. The Dataset keeps ``ds``'s
    ``DataContext``: ``preserve_order`` set on it still holds downstream.
    """
    # Ray has no public constructor for a Dataset over given blocks under a
    # given DataContext (``from_arrow_refs`` takes the current context);
    # these are the parts ``Dataset.materialize`` builds its result from.
    from ray.data._internal.execution.interfaces import RefBundle
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.input_data_operator import InputData
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.block import _take_first_non_empty_schema
    from ray.data.dataset import MaterializedDataset

    executed = list(ds.iter_internal_ref_bundles())
    schema = _take_first_non_empty_schema(b.schema for b in executed)
    blocks = [blk for b in executed for blk in b.blocks]
    live = [blk for blk in blocks if blk[1].num_rows != 0] or blocks[:1]
    bundles = [RefBundle(blocks=[blk], owns_blocks=False, schema=schema) for blk in live]
    ctx = ds.context.copy()
    return MaterializedDataset(ExecutionPlan(DatasetStats(metadata={}, parent=None), ctx),
                               LogicalPlan(InputData(input_data=bundles), ctx))


def concat_blocks(ds, empty: pa.Table | None = None) -> pa.Table:
    """The collecting form of :func:`barrier`: one table of ``ds``'s
    non-empty blocks. With no rows it returns ``empty``, else a zero-row
    table of ``ds``'s schema."""
    import ray

    live = barrier(ds)
    if live.count():
        return pa.concat_tables(ray.get(live.to_arrow_refs()))
    if empty is not None:
        return empty
    schema = live.schema()
    return schema.base_schema.empty_table() if schema is not None else pa.table({})


def tree_merge(partials, merge_batch: Callable[[pa.Table], pa.Table], fanin: int) -> pa.Table:
    """Fold a Dataset of mergeable partial rows (sketches, bitmaps,
    digests) ``fanin`` rows per ``merge_batch`` call, level by level, until
    at most ``fanin`` rows remain; returns those rows for the caller's
    final fold. Driver traffic is bounded by ``fanin`` partials whatever
    the input's block count."""
    x = barrier(partials)
    while x.count() > fanin:
        x = barrier(x.map_batches(merge_batch, batch_format="pyarrow", batch_size=fanin))
    return concat_blocks(x)
