"""As-of (nearest-prior) join and interval join over keyed event streams.

Not in the reference (it has no temporal joins); part of the beyond-reference
operator set for event tables. Standard distributed shape (the as-of pattern
from the Ray Data join guidance): co-partition both sides on the key with
``stages/hashjoin.py co_partitioned_map`` so every key's rows co-locate,
then one vectorised kernel per partition: ``pandas.merge_asof`` with
``by=key`` for :func:`asof_join`, searchsorted range lookups per
(key, time bucket) for :func:`interval_join` (no per-key engine overhead).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa


def _input_schemas(left_ds, right_ds, op: str) -> tuple[pa.Schema, pa.Schema]:
    """The Arrow schemas of both inputs."""
    out = []
    for ds in (left_ds, right_ds):
        sch = ds.schema()
        if sch is None:
            raise ValueError(
                f"{op} could not resolve input schemas (lazy pipeline whose "
                "first block is empty?) — materialize the inputs first"
            )
        out.append(pa.schema(list(zip(sch.names, sch.types))))
    return tuple(out)


def asof_join(
    left_ds,
    right_ds,
    key: str,
    ts_col: str = "ts",
    right_cols: Sequence[str] = ("value",),
    suffix: str = "_r",
    num_partitions: int = 16,
):
    """For each left row, attach the latest right row with ts <= left.ts and
    the same key (backward as-of). Left rows with no prior match get nulls.

    Output columns: all left columns + ``<right_col><suffix>`` per requested
    right column.
    """
    from geopolars_ray.stages.hashjoin import co_partitioned_map

    right_cols = list(right_cols)
    suff_cols = [c + suffix for c in right_cols]
    lschema, rschema = _input_schemas(left_ds, right_ds, "asof_join")
    right_names = list(dict.fromkeys([key, ts_col, *right_cols]))

    def per_partition(l_tab: pa.Table, r_tab: pa.Table) -> pa.Table:
        # merge_asof runs on (key, ts, positional index) ONLY; value columns
        # never round-trip through pandas, so output types and values stay
        # bit-exact (float64 NaN-padding would silently lose int64 precision
        # above 2^53 and change the schema).
        def ts_sortable(col: pa.ChunkedArray) -> np.ndarray:
            # timestamps/ints -> int64 microseconds; floats stay float (any
            # sortable numeric ts works, matching the pre-rewrite contract)
            if pa.types.is_floating(col.type):
                return col.to_numpy(zero_copy_only=False)
            return col.cast(pa.int64()).to_numpy(zero_copy_only=False)

        ldf = pd.DataFrame(
            {
                key: l_tab[key].to_numpy(zero_copy_only=False),
                "_ts": ts_sortable(l_tab[ts_col]),
                "_lidx": np.arange(l_tab.num_rows, dtype=np.int64),
            }
        ).sort_values("_ts", kind="mergesort")
        rdf = pd.DataFrame(
            {
                key: r_tab[key].to_numpy(zero_copy_only=False),
                "_ts": ts_sortable(r_tab[ts_col]),
                "_ridx": np.arange(r_tab.num_rows, dtype=np.int64),
            }
        ).sort_values("_ts", kind="mergesort")
        merged = pd.merge_asof(ldf, rdf, on="_ts", by=key, direction="backward")
        lidx = merged["_lidx"].to_numpy(dtype=np.int64)
        ridx = merged["_ridx"].to_numpy(dtype=np.float64)  # NaN = no match
        out = l_tab.take(pa.array(lidx))
        miss = np.isnan(ridx)
        r_take = pa.array(np.where(miss, 0, ridx).astype(np.int64), mask=miss)
        r_vals = r_tab.select(right_cols).take(r_take)
        for i, sc in enumerate(suff_cols):
            out = out.append_column(sc, r_vals.column(i))
        return out

    return co_partitioned_map(
        left_ds, right_ds.select_columns(right_names), [key], per_partition,
        num_partitions=num_partitions, left_schema=lschema,
        right_schema=pa.schema([rschema.field(c) for c in right_names]),
    )


def interval_join(
    left_ds,
    right_ds,
    key: str,
    ts_col: str = "ts",
    tolerance_us: int = 0,
    left_cols: Sequence[str] = (),
    right_cols: Sequence[str] = (),
    suffix: str = "_r",
    num_partitions: int = 16,
):
    """Range (interval) join: every (left, right) pair with the same key and
    ``|left.ts - right.ts| <= tolerance_us``.

    Distributed shape: bucket timestamps by ``tolerance_us``; the RIGHT side
    replicates to its bucket ±1, the left stays in its own bucket, so every
    in-tolerance pair co-locates exactly once (in the left row's bucket).
    Per partition, both sides sort by (key, bucket, ts) and each group
    matches via two vectorized searchsorted range lookups — no per-row
    Python, no cross product beyond the true matches.

    Output: key, ts, ``left_cols``, ``<right_col><suffix>``..., ``dt_us``.
    """
    from geopolars_ray.geom.array import _expand_ranges
    from geopolars_ray.stages.hashjoin import co_partitioned_map

    if tolerance_us <= 0:
        raise ValueError("tolerance_us must be positive")
    left_cols = [c for c in left_cols if c not in (key, ts_col)]
    right_cols = list(right_cols)
    suff_cols = [c + suffix for c in right_cols]
    lschema, rschema = _input_schemas(left_ds, right_ds, "interval_join")

    def _ts_us(batch: pa.Table) -> np.ndarray:
        col = batch[ts_col]
        if col.null_count:
            raise ValueError("interval_join requires non-null timestamps")
        return col.cast(pa.int64()).to_numpy(zero_copy_only=False)

    def bucket_left(batch: pa.Table) -> pa.Table:
        us = _ts_us(batch)
        return pa.table({key: batch[key], "_us": pa.array(us), "_bucket": pa.array(us // tolerance_us),
                         **{c: batch[c] for c in left_cols}})

    def bucket_right(batch: pa.Table) -> pa.Table:
        us = _ts_us(batch)
        rows = np.tile(np.arange(len(batch), dtype=np.int64), 3)
        buckets = np.concatenate([us // tolerance_us + d for d in (-1, 0, 1)])
        rep = batch.take(pa.array(rows))
        return pa.table({key: rep[key], "_us": pa.array(us[rows]), "_bucket": pa.array(buckets),
                         **{sc: rep[c] for c, sc in zip(right_cols, suff_cols)}})

    def match_pairs(L: pa.Table, R: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """Row indices into L and R of every in-tolerance pair."""
        if L.num_rows == 0 or R.num_rows == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        lk = L[key].to_numpy(zero_copy_only=False)
        lus = L["_us"].to_numpy(zero_copy_only=False)
        lb = L["_bucket"].to_numpy(zero_copy_only=False)
        rk = R[key].to_numpy(zero_copy_only=False)
        rus = R["_us"].to_numpy(zero_copy_only=False)
        rb = R["_bucket"].to_numpy(zero_copy_only=False)
        lo_order = np.lexsort((lus, lb, lk))
        ro_order = np.lexsort((rus, rb, rk))
        lk, lus, lb = lk[lo_order], lus[lo_order], lb[lo_order]
        rk_s, rus_s, rb_s = rk[ro_order], rus[ro_order], rb[ro_order]
        # group boundaries by (key, bucket) on both sides
        l_groups = np.nonzero((lk[1:] != lk[:-1]) | (lb[1:] != lb[:-1]))[0] + 1
        l_starts = np.concatenate([[0], l_groups, [len(lk)]])
        out_l, out_r = [], []
        for gi in range(len(l_starts) - 1):
            s, e = l_starts[gi], l_starts[gi + 1]
            kv, bv = lk[s], lb[s]
            r0 = np.searchsorted(rk_s, kv, side="left")
            r1 = np.searchsorted(rk_s, kv, side="right")
            if r0 == r1:
                continue
            b0 = r0 + np.searchsorted(rb_s[r0:r1], bv, side="left")
            b1 = r0 + np.searchsorted(rb_s[r0:r1], bv, side="right")
            if b0 == b1:
                continue
            sub = rus_s[b0:b1]
            lo = np.searchsorted(sub, lus[s:e] - tolerance_us, side="left")
            hi = np.searchsorted(sub, lus[s:e] + tolerance_us, side="right")
            counts = hi - lo
            if counts.sum() == 0:
                continue
            out_l.append(np.repeat(np.arange(s, e, dtype=np.int64), counts))
            out_r.append(b0 + _expand_ranges(lo, hi))
        if not out_l:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        return lo_order[np.concatenate(out_l)], ro_order[np.concatenate(out_r)]

    def per_partition(L: pa.Table, R: pa.Table) -> pa.Table:
        li, ri = match_pairs(L, R)
        l_rows = L.take(pa.array(li))
        r_rows = R.take(pa.array(ri))
        cols = {key: l_rows[key], "ts_us": l_rows["_us"]}
        for c in left_cols:
            cols[c] = l_rows[c]
        for c, sc in zip(right_cols, suff_cols):
            cols[sc] = r_rows[sc]
        dt = r_rows["_us"].to_numpy(zero_copy_only=False) - l_rows["_us"].to_numpy(zero_copy_only=False)
        cols["dt_us"] = pa.array(dt, pa.int64())
        return pa.table(cols)

    us_fields = [pa.field("_us", pa.int64()), pa.field("_bucket", pa.int64())]
    # partition on (key, bucket): a hot key's rows spread over its time
    # buckets instead of landing in one partition — the reason the right
    # side replicates to bucket±1 (each pair still co-locates exactly once,
    # in the left row's bucket)
    return co_partitioned_map(
        left_ds.map_batches(bucket_left, batch_format="pyarrow"),
        right_ds.map_batches(bucket_right, batch_format="pyarrow"),
        [key, "_bucket"], per_partition, num_partitions=num_partitions,
        left_schema=pa.schema([lschema.field(key), *us_fields, *(lschema.field(c) for c in left_cols)]),
        right_schema=pa.schema([rschema.field(key), *us_fields,
                                *(rschema.field(c).with_name(sc) for c, sc in zip(right_cols, suff_cols))]),
    )
