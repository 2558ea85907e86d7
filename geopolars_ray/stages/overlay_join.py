"""Frame-level overlay join (GeoPandas ``gpd.overlay(df1, df2, how=...)``).

Where ``GeoDataset.overlay`` operates on two ALIGNED geometry columns,
this joins two polygonal LAYERS: every output row is a piece of the
plane carrying the attributes of the inputs that cover it.

``how`` semantics (GeoPandas parity; suffixes ``_left`` / ``_right``
on ALL attribute columns, one ``geometry`` output column):

- ``intersection`` — one row per intersecting (left, right) pair with
  the pairwise A∩B piece; both sides' attributes filled.
- ``difference``   — one row per left geometry with non-empty
  ``left − union(intersecting rights)``; right attributes absent.
- ``identity``     — intersection rows + the left residual rows (right
  attributes null there).
- ``union``        — identity rows + right residual rows
  (``right − union(intersecting lefts)``; left attributes null).
- ``symmetric_difference`` — left residual + right residual rows only.

Distributed shape (designed for "big left layer × small right layer",
the admin-boundaries case, same as the broadcast PIP join):

- The right table is broadcast once (``ray.put``) and indexed per actor
  with an envelope STR-tree in ``__init__``; every left batch generates
  bbox candidate pairs vectorized, then runs the exact boolean overlay
  per pair (``overlay.boolean_op`` early-exits disjoint bboxes, so
  false bbox positives cost one bbox test).
- Left-side rows (pieces and left residuals) stream with NO shuffle.
- RIGHT residuals need ``union(intersecting lefts)`` per right row —
  inherently a reduction over the left layer — so ``union`` /
  ``symmetric_difference`` add ONE hash exchange of (right_id,
  left_geometry) candidate pairs via ``hash_partitioned_map``, plus a
  driver-side pass over the (small, broadcast-sized) right id set to
  append never-touched rights. The exchange carries only lefts that
  bbox-overlap some right.

Polygonal layers only, like ``dissolve``. Null left geometries drop.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pyarrow as pa
import ray
import ray.data

from geopolars_ray.geom import decode_wkb, encode_wkb
from geopolars_ray.geom import kernels as K
from geopolars_ray.geom.array import GeometryArray
from geopolars_ray.geom.buffer import _union_tree
from geopolars_ray.geom.overlay import boolean_op
from geopolars_ray.geom.strtree import STRTree
from geopolars_ray.stages.agg import barrier, concat_blocks, hash_partitioned_map

HOWS = ("intersection", "difference", "identity", "union",
        "symmetric_difference")

_RIGHT_ID = "_overlay_right_id"


def _collapse(g):
    if g is not None and len(g[1]) == 1:
        return ("polygon", g[1][0])
    return g


def _suffix(table: pa.Table, suffix: str, drop: Iterable[str]) -> pa.Table:
    keep = [c for c in table.column_names if c not in set(drop)]
    return table.select(keep).rename_columns([c + suffix for c in keep])


class BroadcastOverlayJoin:
    """Actor-pool stage: per left batch, emit overlay pieces and/or left
    residuals against the broadcast right table (see module docstring)."""

    def __init__(self, right, geometry_col: str = "geometry",
                 emit_pieces: bool = True, emit_left_residual: bool = False):
        table = ray.get(right) if isinstance(right, ray.ObjectRef) else right
        self.geometry_col = geometry_col
        self.emit_pieces = emit_pieces
        self.emit_left_residual = emit_left_residual
        rg = decode_wkb(table[geometry_col])
        self.right_geoms = rg.to_pylist()
        self.right_attrs = _suffix(table, "_right", [geometry_col])
        rb = np.column_stack(K.bounds(rg))
        ok = ~np.isnan(rb).any(axis=1)
        # index only non-null rights; map tree ids back to table rows
        self.rid_map = np.flatnonzero(ok)
        self.tree = STRTree(rb[ok]) if ok.any() else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        gcol = self.geometry_col
        ga = decode_wkb(batch[gcol])
        lg = ga.to_pylist()
        lb = np.column_stack(K.bounds(ga))
        l_attrs = _suffix(batch, "_left", [gcol])
        out_li: list[int] = []
        out_ri: list[int] = []   # -1 = no right side (left residual row)
        out_geom: list = []
        qi, ti = (self.tree.query_boxes(lb) if self.tree is not None
                  else (np.empty(0, np.int64), np.empty(0, np.int64)))
        cand_at = np.searchsorted(qi, np.arange(len(lg) + 1))  # row i: ti[cand_at[i]:cand_at[i+1]]
        for i, g in enumerate(lg):
            if g is None or np.isnan(lb[i]).any():
                continue
            rids = self.rid_map[ti[cand_at[i]:cand_at[i + 1]]]
            hit_geoms = []
            for r in rids:
                piece = boolean_op(g, self.right_geoms[int(r)], "intersection")
                if piece is None:
                    continue
                hit_geoms.append(self.right_geoms[int(r)])
                if self.emit_pieces:
                    out_li.append(i)
                    out_ri.append(int(r))
                    out_geom.append(_collapse(piece))
            if self.emit_left_residual:
                covered = _union_tree(hit_geoms)
                resid = (boolean_op(g, covered, "difference")
                         if covered is not None else boolean_op(g, None, "union"))
                if resid is not None:
                    out_li.append(i)
                    out_ri.append(-1)
                    out_geom.append(_collapse(resid))
        l_take = l_attrs.take(pa.array(out_li, pa.int64()))
        r_idx = pa.array([None if r < 0 else r for r in out_ri], pa.int64())
        r_take = self.right_attrs.take(r_idx)
        cols = dict(zip(l_take.column_names, l_take.columns))
        cols.update(dict(zip(r_take.column_names, r_take.columns)))
        cols[gcol] = encode_wkb(GeometryArray.from_pylist(out_geom))
        return pa.table(cols)


class _EmitRightCandidates:
    """Per left batch: (right_id, left geometry) for every bbox overlap."""

    def __init__(self, right, geometry_col: str = "geometry"):
        table = ray.get(right) if isinstance(right, ray.ObjectRef) else right
        self.geometry_col = geometry_col
        rb = np.column_stack(K.bounds(decode_wkb(table[geometry_col])))
        ok = ~np.isnan(rb).any(axis=1)
        self.rid_map = np.flatnonzero(ok)
        self.tree = STRTree(rb[ok]) if ok.any() else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        gcol = self.geometry_col
        if self.tree is None or len(batch) == 0:
            return pa.table({_RIGHT_ID: pa.array([], pa.int64()),
                             gcol: pa.array([], pa.binary())})
        lb = np.column_stack(K.bounds(decode_wkb(batch[gcol])))
        ok = ~np.isnan(lb).any(axis=1)
        qi, ti = self.tree.query_boxes(lb[ok])
        src = np.flatnonzero(ok)[qi]
        return pa.table({
            _RIGHT_ID: pa.array(self.rid_map[ti], pa.int64()),
            gcol: batch[gcol].take(pa.array(src, pa.int64())),
        })


def _right_residual_table(left_ds, right: pa.Table, geometry_col: str,
                          num_partitions: int) -> pa.Table:
    """right − union(bbox-overlapping lefts) per right row, as ONE local
    table (bounded by the broadcast-sized right layer)."""
    right_geoms = decode_wkb(right[geometry_col]).to_pylist()
    cand = left_ds.map_batches(
        _EmitRightCandidates,
        fn_constructor_kwargs=dict(right=ray.put(right),
                                   geometry_col=geometry_col),
        batch_format="pyarrow", concurrency=(1, 4),
    )

    def fold(part: pa.Table) -> pa.Table:
        rids = part[_RIGHT_ID].to_numpy(zero_copy_only=False)
        geoms = decode_wkb(part[geometry_col]).to_pylist()
        order = np.argsort(rids, kind="stable")
        out_r: list[int] = []
        out_g: list = []
        i = 0
        while i < len(order):
            j = i
            rid = rids[order[i]]
            while j < len(order) and rids[order[j]] == rid:
                j += 1
            covered = _union_tree([geoms[k] for k in order[i:j]
                                   if geoms[k] is not None])
            resid = boolean_op(right_geoms[int(rid)], covered, "difference") \
                if covered is not None else None
            out_r.append(int(rid))
            out_g.append(_collapse(resid))
            i = j
        return pa.table({
            _RIGHT_ID: pa.array(out_r, pa.int64()),
            geometry_col: encode_wkb(GeometryArray.from_pylist(out_g)),
        })

    folded = hash_partitioned_map(cand, [_RIGHT_ID], fold,
                                  num_partitions=num_partitions)
    touched = concat_blocks(folded, pa.table({_RIGHT_ID: pa.array([], pa.int64()),
                                              geometry_col: pa.array([], pa.binary())}))
    seen = set(touched[_RIGHT_ID].to_pylist())
    rest_ids = [i for i, g in enumerate(right_geoms)
                if i not in seen and g is not None]
    rest = pa.table({
        _RIGHT_ID: pa.array(rest_ids, pa.int64()),
        geometry_col: encode_wkb(GeometryArray.from_pylist(
            [_collapse(boolean_op(right_geoms[i], None, "union"))
             for i in rest_ids])),
    })
    all_resid = pa.concat_tables([touched, rest])
    # drop swallowed rights, attach right attrs, null left attrs added later
    ga = decode_wkb(all_resid[geometry_col])
    keep = pa.array([g is not None for g in ga.to_pylist()])
    return all_resid.filter(keep)


def broadcast_overlay_join(left_ds, right: pa.Table, how: str = "intersection",
                           geometry_col: str = "geometry",
                           concurrency: int = 4, batch_size: int = 512,
                           num_partitions: int = 16):
    """Overlay-join a streaming left Dataset against a broadcast right
    table. Returns a Dataset with suffixed attribute columns and one
    piecewise ``geometry`` column (see module docstring for ``how``)."""
    if how not in HOWS:
        raise ValueError(f"how must be one of {HOWS}, got {how!r}")
    if how in ("union", "symmetric_difference"):
        # these hows consume the left layer TWICE (streaming piece pass +
        # eager right-residual fold) — one barrier so the upstream
        # pipeline (reads, decodes, prior stages) doesn't execute twice;
        # the object store spills if the layer exceeds memory
        left_ds = barrier(left_ds)
    right_ref = ray.put(right)
    emit_pieces = how in ("intersection", "identity", "union")
    emit_resid = how in ("difference", "identity", "union",
                         "symmetric_difference")
    left_part = None
    if emit_pieces or emit_resid:
        # actor pool: the right tree builds ONCE per actor from the
        # broadcast ref, never re-shipped per batch (BroadcastPIPJoin's
        # pattern, join.py broadcast_spatial_join)
        left_part = left_ds.map_batches(
            BroadcastOverlayJoin,
            fn_constructor_kwargs=dict(
                right=right_ref, geometry_col=geometry_col,
                emit_pieces=emit_pieces, emit_left_residual=emit_resid,
            ),
            batch_format="pyarrow", concurrency=(1, concurrency),
            batch_size=batch_size,
        )
        if how == "difference":
            # residual-only call sites never materialize right attrs;
            # drop the all-null right columns for a clean schema
            right_cols = [c + "_right" for c in right.column_names
                          if c != geometry_col]
            left_part = left_part.drop_columns(right_cols)
    if how in ("union", "symmetric_difference"):
        resid = _right_residual_table(left_ds, right, geometry_col,
                                      num_partitions)
        r_attrs = _suffix(right, "_right", [geometry_col]).take(
            resid[_RIGHT_ID])
        cols = dict(zip(r_attrs.column_names, r_attrs.columns))
        cols[geometry_col] = resid[geometry_col]
        right_rows = pa.table(cols)
        # align schemas: null left columns on the right-residual rows
        # (Ray's Schema wrapper exposes parallel names/types lists)
        sample_schema = left_part.schema()
        for name, typ in zip(sample_schema.names, sample_schema.types):
            if name not in right_rows.column_names:
                right_rows = right_rows.append_column(
                    name, pa.nulls(len(right_rows), typ))
        right_rows = right_rows.select(sample_schema.names)
        return left_part.union(ray.data.from_arrow(right_rows))
    return left_part
