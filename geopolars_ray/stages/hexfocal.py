"""Hex focal: k-ring neighborhood aggregation over H3-keyed tables.

The hexagonal analog of ``stages/raster.py focal_aggregate``: given a table
keyed by canonical H3 cells (e.g. a per-cell rollup from the flagship),
aggregate each cell's value over every cell within ``k`` grid steps —
hotspot smoothing, neighborhood density, spatial lag features.

Scale shape (scatter = gather, because grid distance is symmetric): each
row flat-maps to its k-disk (``geom/h3.py grid_disk_batch``, ~3k(k+1)+1
rows, O(1) for small k), then ONE combiner-first ``hash_aggregate`` on the
target cell. No index, no join: restricting output to input cells rides
in the same aggregate as a "some row owns this target" flag. Works at any
cell cardinality — the exchange carries (cell, partial) pairs only.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from geopolars_ray.stages.agg import hash_aggregate

_STATS = ("count", "sum", "mean", "min", "max")


def h3_neighborhood_aggregate(
    ds,
    cell_col: str = "h3",
    value_col: str = "value",
    k: int = 1,
    stats=("count", "sum", "mean"),
    num_partitions: int = 32,
    restrict_to_input: bool = True,
):
    """Aggregate ``value_col`` over each cell's k-ring neighborhood.

    Output: one row per target cell with the requested ``stats`` computed
    over every INPUT row whose cell lies within ``k`` grid steps of it.
    ``restrict_to_input=False`` also emits halo cells (targets that have
    neighbors in the data but no row of their own) — useful for frontier
    detection; the default keeps only cells present in the input.
    Cells must share one H3 resolution (grid distance is per-res).
    """
    bad = [s for s in stats if s not in _STATS]
    if bad:
        raise ValueError(f"unknown stats {bad}; supported: {_STATS}")
    if k < 0:
        raise ValueError("k must be >= 0")
    from geopolars_ray.geom import h3 as h3_mod

    def scatter(batch: pa.Table) -> pa.Table:
        cells = batch[cell_col].to_numpy(zero_copy_only=False).view(np.uint64)
        vals = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        res = h3_mod.get_resolution(cells)
        if len(res) and (res != res[0]).any():
            raise ValueError("h3_neighborhood_aggregate needs one H3 resolution")
        owner, target = h3_mod.grid_disk_batch(cells, k)
        cols = {
            "_target": pa.array(target.view(np.int64)),
            "_v": pa.array(vals[owner]),
        }
        if restrict_to_input:
            # the k-disk holds its own center, so every input cell is the
            # target of at least one row whose owner cell is the target
            cols["_self"] = pa.array(cells[owner] == target)
        return pa.table(cols)

    spec = []
    for s in stats:
        if s == "count":
            spec.append(("_v", "count", "n"))
        else:
            spec.append(("_v", s, f"{s}_value"))
    if restrict_to_input:
        spec.append(("_self", "max", "_present"))
    agg = hash_aggregate(ds.map_batches(scatter, batch_format="pyarrow"),
                         ["_target"], spec, num_partitions)

    def to_cells(b: pa.Table) -> pa.Table:
        if restrict_to_input:
            b = b.filter(b["_present"]).drop_columns(["_present"])
        return b.rename_columns([cell_col if c == "_target" else c for c in b.column_names])

    return agg.map_batches(to_cells, batch_format="pyarrow")
