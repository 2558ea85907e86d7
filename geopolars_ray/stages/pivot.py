"""Distributed pivot (long → wide), the host-Polars ``pivot`` analogue.

Scale shape: ONE combiner-first ``hash_aggregate`` over (index, column)
pairs compresses the input to distinct-pair size before any reshape; the
reshape itself is a ``hash_partitioned_map`` on the index key, vectorized
per partition with a sort + (rows × columns) scatter — no per-cell Python.
The pivoted COLUMN's cardinality must be small (that's the pivot contract —
each distinct value becomes an output column); the INDEX cardinality can be
arbitrarily large, it stays hash-partitioned end to end.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa


def pivot(
    ds,
    index: Sequence[str] | str,
    column: str,
    value: str,
    agg: str = "sum",
    *,
    num_partitions: int = 32,
    max_columns: int = 1000,
):
    """Wide table: one row per distinct ``index``, one column per distinct
    ``column`` value (named ``f"{column}_{v}"``), cells = ``agg`` of
    ``value`` (sum|count|min|max|mean); missing combinations are null.

    Cells come back float64 (counts widen); index columns must be non-null
    (nullable index keys don't have a total sort order for the dense-code
    fold).
    """
    from .agg import barrier, hash_aggregate, hash_partitioned_map

    index = [index] if isinstance(index, str) else list(index)
    cells = barrier(hash_aggregate(
        ds,
        index + [column],
        [(value, agg, "_v")],
        num_partitions=num_partitions,
    ))  # distinct-pair-sized; consumed twice below

    raw_vals = [
        r[column]
        for r in hash_aggregate(
            cells.select_columns([column]),
            [column],
            [(column, "count", "_n")],
            num_partitions=num_partitions,
        ).select_columns([column]).take_all()
    ]
    if any(v is None for v in raw_vals):
        raise ValueError(
            f"pivot column {column!r} contains nulls — nulls have no output "
            "column name and no sort position; filter them or fill first"
        )
    col_vals = sorted(raw_vals)
    if len(col_vals) > max_columns:
        raise ValueError(
            f"pivot column {column!r} has {len(col_vals)} distinct values "
            f"(> max_columns={max_columns}) — pivot needs a small column side"
        )
    col_pos = {v: i for i, v in enumerate(col_vals)}
    out_names = [f"{column}_{v}" for v in col_vals]

    def reshape(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            cols = {n: pa.array([], part.schema.field(n).type) for n in index}
            for n in out_names:
                cols[n] = pa.array([], pa.float64())
            return pa.table(cols)
        # dense row ids per distinct index tuple: per-column dense codes
        # folded together with progressive re-densification (mixed-type
        # tuples don't sort; folded codes stay < num_rows, no overflow)
        combined = np.zeros(part.num_rows, dtype=np.int64)
        for n in index:
            col = part[n].to_numpy(zero_copy_only=False)
            _, codes = np.unique(col, return_inverse=True)
            combined = combined * (int(codes.max()) + 1) + codes
            _, combined = np.unique(combined, return_inverse=True)
        _, first_idx, row_id = np.unique(
            combined, return_index=True, return_inverse=True
        )
        n_rows = len(first_idx)
        # cells land as float64 (NaN -> null); counts/ints widen — documented
        mat = np.full((n_rows, len(col_vals)), np.nan)
        cpos = np.fromiter(
            (col_pos[v] for v in part[column].to_pylist()),
            dtype=np.int64,
            count=part.num_rows,
        )
        mat[row_id, cpos] = part["_v"].to_numpy(zero_copy_only=False)
        take = pa.array(first_idx)
        cols = {n: part[n].take(take) for n in index}
        for j, n in enumerate(out_names):
            cols[n] = pa.array(mat[:, j], from_pandas=True)
        return pa.table(cols)

    return hash_partitioned_map(cells, index, reshape, num_partitions=num_partitions)


def melt(
    ds,
    id_vars: Sequence[str],
    value_vars: Sequence[str],
    var_name: str = "variable",
    value_name: str = "value",
):
    """Long table from wide columns (the host-Polars ``melt``/``unpivot``
    analogue; inverse of :func:`pivot`). Pure stateless ``map_batches`` —
    each batch emits ``len(value_vars)`` stacked copies; no shuffle."""
    id_vars = list(id_vars)
    value_vars = list(value_vars)

    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        parts = []
        for v in value_vars:
            cols = {c: batch[c] for c in id_vars}
            cols[var_name] = pa.array(np.full(n, v, dtype=object), pa.string())
            cols[value_name] = batch[v]
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.map_batches(fn, batch_format="pyarrow")
