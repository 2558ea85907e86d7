"""Robust distributed hash equi-join (union + co-partition + local Acero).

Why not ``ray.data.Dataset.join``: Ray 2.49's hash-shuffle join materializes
an empty partition as a ZERO-COLUMN table, so any key whose hash partition
receives no rows on one side crashes Acero with "No match ... for key field
reference ... side of the join". That makes the native join unusable for
sparse keys (grid cells, remainder id sets) — exactly the keys our
partitioned spatial/kNN joins use. (Verified: a left_anti join against an
empty-but-schema-correct right Dataset raises ArrowInvalid.)

Shape (:func:`co_partitioned_map`): pad both sides to one union schema
tagged with a ``_side`` column, hash-co-partition on the key (the same
``hash_partitioned_map`` exchange that backs ``hash_aggregate``), then split
each partition back into its two sides and run one local function on them.
Empty sides keep their schema because WE construct the partition tables, so
empty partitions are handled correctly by construction.

``co_partitioned_map`` is the engine's one two-sided exchange. Its callers
plug in their per-partition kernel:

- :func:`hash_join`: ONE ``pyarrow.Table.join`` (C++ Acero) per partition;
- ``stages/join.py partitioned_spatial_join``: the point-in-polygon join;
- ``stages/knn.py`` ``knn_join`` / ``dwithin_join``: the per-cell distance
  kernel;
- ``stages/asof.py`` ``asof_join`` / ``interval_join``: the as-of merge and
  the bucketed range lookup;
- ``stages/cc.py`` ``attach_components``: the id -> label lookup;
- ``stages/raster.py raster_math``: cell-wise band math per tile.

:func:`hash_join` supports inner, left (outer), full_outer, left_anti and
left_semi on equality keys.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pyarrow as pa

_ACERO_TYPE = {
    "inner": "inner",
    "left": "left outer",
    "full_outer": "full outer",
    "left_anti": "left anti",
    "left_semi": "left semi",
}


def co_partitioned_map(
    left_ds,
    right_ds,
    on: Sequence[str],
    fn: Callable[[pa.Table, pa.Table], pa.Table],
    *,
    right_on: Sequence[str] | None = None,
    right_values: bool = True,
    num_partitions: int = 32,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
):
    """Co-partition two Datasets on equality keys and call ``fn(left, right)``
    once per hash partition; robust to partitions empty on one side.

    ``fn`` gets the partition's left rows in the left schema and its right
    rows in the right schema: the ``right_on`` key columns, plus every other
    right column when ``right_values`` (else keys only). Either side may
    have zero rows; it still carries its columns. Each right key column is
    cast to the type of its left key (zero-copy when they already match),
    so both sides hash alike and ``fn`` sees one key type.

    ``left_schema``/``right_schema``: pass explicit Arrow schemas when known —
    ``Dataset.schema()`` on a lazy pipeline can return None (e.g. when the
    first produced block is empty), and it triggers partial execution.
    """
    from geopolars_ray.stages.agg import hash_partitioned_map

    on = list(on)
    right_on = list(right_on or on)
    if len(on) != len(right_on):
        raise ValueError("on and right_on must have equal length")
    ls = left_schema if left_schema is not None else left_ds.schema()
    rs = right_schema if right_schema is not None else right_ds.schema()
    if ls is None or rs is None:
        raise ValueError("schema unavailable — pass left_schema/right_schema explicitly")
    lnames = list(ls.names)
    ltypes = dict(zip(ls.names, ls.types))
    rtypes = dict(zip(rs.names, rs.types))
    r_vals = [c for c in rs.names if c not in right_on] if right_values else []
    # both sides share one union schema: the left columns, then the right
    # values under names no other union column has. A right value named and
    # typed like a left non-key column shares that column (`_side` tells the
    # rows apart) instead of adding one that is all null on the left.
    shared = {c for c in r_vals if c in ltypes and c not in on and ltypes[c] == rtypes[c]}
    own = [c for c in r_vals if c not in shared]
    taken = set(lnames)
    union_rname = {c: c for c in shared}
    for c in own:
        u = c
        while u in taken:
            u += "_r"
        taken.add(u)
        union_rname[c] = u

    def pad_left(b: pa.Table) -> pa.Table:
        out = b.select(lnames)
        for c in own:
            out = out.append_column(union_rname[c], pa.nulls(len(b), rtypes[c]))
        return out.append_column("_side", pa.array(np.zeros(len(b), dtype=np.int8)))

    def pad_right(b: pa.Table) -> pa.Table:
        cols = {}
        for name in lnames:
            if name in on:
                cols[name] = b[right_on[on.index(name)]].cast(ltypes[name])
            elif name in shared:
                cols[name] = b[name]
            else:
                cols[name] = pa.nulls(len(b), ltypes[name])
        for c in own:
            cols[union_rname[c]] = b[c]
        out = pa.table(cols)
        return out.append_column("_side", pa.array(np.ones(len(b), dtype=np.int8)))

    both = left_ds.map_batches(pad_left, batch_format="pyarrow").union(
        right_ds.map_batches(pad_right, batch_format="pyarrow")
    )
    r_union = on + [union_rname[c] for c in r_vals]
    r_names = right_on + r_vals

    def per_partition(part: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lmask = pc.equal(part["_side"], 0)
        l = part.filter(lmask).select(lnames)
        r = part.filter(pc.invert(lmask)).select(r_union).rename_columns(r_names)
        return fn(l, r)

    return hash_partitioned_map(both, on, per_partition, num_partitions)


def hash_join(
    left_ds,
    right_ds,
    on: Sequence[str],
    *,
    right_on: Sequence[str] | None = None,
    how: str = "inner",
    num_partitions: int = 32,
    r_suffix: str = "_r",
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
):
    """Join two Datasets on equality keys; robust to empty hash partitions.

    Output columns: all left columns, plus (for inner/left/full_outer)
    every non-key right column — renamed with ``r_suffix`` when it collides
    with a left column name. Key columns appear once, under their LEFT
    names (full_outer coalesces keys, so right-only rows carry their key).

    ``left_schema``/``right_schema``: as for :func:`co_partitioned_map`.
    """
    if how not in _ACERO_TYPE:
        raise ValueError(f"unsupported join type {how!r}")
    on = list(on)
    acero_how = _ACERO_TYPE[how]

    def acero_join(l: pa.Table, r: pa.Table) -> pa.Table:
        lnames = set(l.column_names)
        r_out = on + [c + r_suffix if c in lnames else c for c in r.column_names[len(on):]]
        return l.join(r.rename_columns(r_out), keys=on, join_type=acero_how)

    return co_partitioned_map(
        left_ds, right_ds, on, acero_join, right_on=right_on,
        right_values=how in ("inner", "left", "full_outer"), num_partitions=num_partitions,
        left_schema=left_schema, right_schema=right_schema,
    )


def broadcast_hash_join(
    left_ds,
    right: pa.Table,
    on: Sequence[str],
    *,
    right_on: Sequence[str] | None = None,
    how: str = "inner",
    r_suffix: str = "_r",
):
    """Zero-shuffle equi-join against a SMALL in-memory right side.

    The right table is ``ray.put`` once and every task joins its batch
    against the shared copy (one zero-copy object-store read per worker) —
    no exchange at all, vs hash_join's all-to-all. The right primitive
    whenever the right side fits comfortably in the object store
    (dimension tables, admin lookups, dedup'd key sets); for two big sides
    use :func:`hash_join`.

    Same output-column contract as :func:`hash_join` (keys once under left
    names; right value columns suffixed on collision). ``full_outer`` is
    NOT supported — right-only rows would need a global view.
    """
    import ray

    if how not in ("inner", "left", "left_semi", "left_anti"):
        raise ValueError(f"unsupported broadcast join type {how!r}")
    on = list(on)
    right_on = list(right_on or on)
    # pre-rename right columns to the output contract, keys to LEFT names
    rename = {}
    for lk, rk in zip(on, right_on):
        rename[rk] = lk
    r_tbl = right.rename_columns([rename.get(c, c) for c in right.column_names])
    ref = ray.put(r_tbl)
    acero_how = _ACERO_TYPE[how]

    def fn(batch: pa.Table) -> pa.Table:
        r = ray.get(ref)
        keep = [c for c in r.column_names if c in on] + [
            c for c in r.column_names if c not in on
        ]
        lcols = set(batch.column_names)
        out_names = {
            c: (c + r_suffix if c in lcols and c not in on else c)
            for c in keep
        }
        r2 = r.select(keep).rename_columns([out_names[c] for c in keep])
        return batch.join(r2, keys=on, join_type=acero_how)

    return left_ds.map_batches(fn, batch_format="pyarrow")
