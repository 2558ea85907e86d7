"""Frequent-items (heavy hitters) with bounded per-block state.

Exact global counts of a high-cardinality column (urls, domains, n-grams)
shuffle one row per distinct key per block — at 100 TB with billions of
distinct keys that is the dominant exchange even combiner-first.
``heavy_hitters`` bounds it: each block reduces to a Misra-Gries summary
(Misra & Gries 1982) of at most ``capacity`` rows, so the shuffle carries
≤ capacity × blocks rows no matter the key cardinality, and every reported
count comes with an exact error interval.

Bound (sound, simple): per block, MG decrements every counter by the
(capacity+1)-th largest in-block count, so surviving counters UNDERCOUNT.
Summed per key across blocks this gives ``count_lb ≤ true``; the total
decremented mass is exactly ``N − Σ count_lb`` and no single key can have
lost more than all of it, so ``true ≤ count_lb + (N − Σ count_lb) =:
count_ub``. When ``capacity`` ≥ distinct keys per block nothing is
decremented and ``count_lb == count_ub`` (exact). Any key whose count_lb
beats another's count_ub is a certified heavier key.

When exact counts are required regardless of key-space size, use
`stages/agg.hash_aggregate` count — the sketch is for when the KEY SPACE,
not the data volume, is the problem.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa


def _mg_summarize(counts: np.ndarray, capacity: int):
    """Indices + decremented counts of the ≤ capacity MG survivors."""
    idx = np.arange(len(counts))
    if len(counts) <= capacity:
        return idx, counts
    # decrement everything by the (capacity+1)-th largest count: zeroes at
    # least len-capacity counters, undercounts survivors by exactly that
    part = np.partition(counts, len(counts) - capacity - 1)
    dec = counts - int(part[len(counts) - capacity - 1])
    keep = dec > 0
    return idx[keep], dec[keep]


def heavy_hitters(ds, cols: Sequence[str], k: int = 10, *, capacity: int = 4096,
                  num_partitions: int = 32, n_total: int | None = None):
    """Approximate top-k frequent value combinations of ``cols``.

    Returns a MATERIALIZED Dataset of ≤ k rows, columns
    ``cols + [count_lb, count_ub]``, sorted by count_lb descending, with
    ``count_lb ≤ true count ≤ count_ub`` always (see module docstring).

    ``n_total``: total input row count if already known (skips the extra
    counting pass over ``ds`` — pass it when ``ds`` is a derived pipeline
    whose re-execution is expensive; for a raw parquet read, ``count()`` is
    metadata-only).
    """
    from geopolars_ray.stages.agg import barrier, hash_aggregate

    cols = list(cols)

    def block_summary(batch: pa.Table) -> pa.Table:
        # exact per-block counts (C++ hash agg), then MG-reduce to capacity
        g = batch.select(cols).group_by(cols).aggregate([([], "count_all")])
        cnt = g["count_all"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep_idx, dec = _mg_summarize(cnt, capacity)
        out = g.take(pa.array(keep_idx)).drop_columns(["count_all"])
        return out.append_column("cnt", pa.array(dec))

    if n_total is None:
        n_total = ds.count()

    summaries = ds.map_batches(block_summary, batch_format="pyarrow")
    agg = barrier(hash_aggregate(
        summaries, cols, [("cnt", "sum", "count_lb")],
        num_partitions=num_partitions,
    ))

    lb_sum = agg.sum("count_lb") or 0
    total_err = int(n_total - lb_sum)

    top = agg.sort("count_lb", descending=True).limit(k)

    def add_ub(batch: pa.Table) -> pa.Table:
        lb = batch["count_lb"].to_numpy(zero_copy_only=False)
        return batch.append_column("count_ub", pa.array(lb + total_err))

    return barrier(top.map_batches(add_ub, batch_format="pyarrow"))
