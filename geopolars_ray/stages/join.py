"""Spatial joins: reference-parity local join, broadcast PIP join, partitioned join.

Reimplements ``spatial_join(lhs, rhs, SpatialJoinArgs)``
(``/root/reference/geopolars/src/spatial_index.rs:37-204``) in three forms:

- :func:`spatial_join_table` — local (two Arrow tables), bit-for-bit parity
  with the reference's semantics incl. its predicate dispatch table
  (`spatial_index.rs:89-137`) and suffix naming (`:164-184`); reproduces the
  golden fixture shapes (2,4)/(9,4) (FIXTURES.md F5).
- :class:`BroadcastPIPJoin` — the scale path for the north-star shape:
  small polygon side broadcast (``ray.put`` once), an actor pool holds the
  prepared polygons + grid index (built once per actor in ``__init__``,
  mirroring the reference's ``Arc<SpatialIndex>`` amortization,
  `spatial_index.rs:15-35`) and streams point batches through with fully
  vectorized candidate generation. Joined rows are emitted directly with the
  point payload — no equi-join tail needed (SURVEY.md §3.3).
- :func:`partitioned_spatial_join` — large-large: replicate each polygon to
  the lat/lon grid cells its bbox overlaps, assign each point its cell,
  co-partition both sides on the cell id (the union exchange of
  ``stages/hashjoin.py``), then one local PIP join per partition
  (:func:`pip_join_partition`): cell -> replica CSR lookup, replicas decoded
  once, all pairs refined in one pass, only matched rows emitted. A point
  lives in exactly one cell so no output dedup is needed. Partitioning
  assumption: polygon bboxes are small relative to the cell size
  (replication factor stays O(1)); choose ``cell_deg`` accordingly.

The broadcast and partitioned joins (and the raster zonal stage) refine
their candidate pairs with one kernel, ``PreparedPolygons.match``: a bbox
prefilter, then one pair-vectorised PIP (or dwithin) pass over all pairs.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pyarrow as pa

import ray

from geopolars_ray.geom import GeometryArray, decode_wkb, encode_wkb
from geopolars_ray.geom import kernels as K
from geopolars_ray.geom.kernels import _rings_of
from geopolars_ray.geom.array import (
    POINT,
    LINESTRING,
    LINEARRING,
    POLYGON,
    MULTIPOINT,
    MULTILINESTRING,
    MULTIPOLYGON,
    _expand_cell_rects,
    _expand_ranges,
)
from geopolars_ray.geom.strtree import STRTree, GridIndex, PreparedPolygons
from geopolars_ray.geom import tiles as tiles_mod

_POLYISH = (POLYGON, MULTIPOLYGON)
_LINEISH = (LINESTRING, LINEARRING, MULTILINESTRING)


# --------------------------------------------------------------------------
# exact predicate refinement (reference dispatch table, spatial_index.rs:89-137)
# --------------------------------------------------------------------------


def _segments_of_rings(rings: list[np.ndarray]) -> np.ndarray | None:
    segs = []
    for c in rings:
        if len(c) >= 2:
            segs.append(np.stack([c[:-1], c[1:]], axis=1))
    if not segs:
        return None
    return np.concatenate(segs, axis=0)


def _poly_poly(l_rings, r_rings, want_contains: bool, l_contains_r: bool) -> bool:
    """Polygon-polygon Intersects, or Contains (container side chosen by flag)."""
    sl = _segments_of_rings(l_rings)
    sr = _segments_of_rings(r_rings)
    la = np.concatenate([r for r in l_rings if len(r)]) if l_rings else np.empty((0, 2))
    ra = np.concatenate([r for r in r_rings if len(r)]) if r_rings else np.empty((0, 2))
    if want_contains:
        outer = l_rings if l_contains_r else r_rings
        inner_pts = ra if l_contains_r else la
        # boundary-inclusive vertex test: a vertex on the outer boundary is ok
        parity, on = PreparedPolygons.from_polygons([outer]).parity_on(
            inner_pts[:, 0], inner_pts[:, 1], np.zeros(len(inner_pts), dtype=np.int64))
        if not (parity | on).all():
            return False
        # a proper (transversal) edge crossing falsifies containment even
        # with every vertex inside-or-on; boundary touches are allowed
        if sl is not None and sr is not None and K.segments_cross(sl, sr, proper_only=True):
            return False
        return True
    # intersects
    if sl is not None and sr is not None and K.segments_cross(sl, sr):
        return True
    # or a vertex of either side strictly inside the other: one kernel call
    parity, on = PreparedPolygons.from_polygons([l_rings, r_rings]).parity_on(
        np.concatenate([ra[:, 0], la[:, 0]]), np.concatenate([ra[:, 1], la[:, 1]]),
        np.repeat([0, 1], [len(ra), len(la)]))
    return bool((parity & ~on).any())


def _line_contains_point(segs: np.ndarray | None, px: float, py: float) -> bool:
    if segs is None:
        return False
    a, b = segs[:, 0], segs[:, 1]
    cross = (b[:, 0] - a[:, 0]) * (py - a[:, 1]) - (b[:, 1] - a[:, 1]) * (px - a[:, 0])
    within = (
        (px >= np.minimum(a[:, 0], b[:, 0]))
        & (px <= np.maximum(a[:, 0], b[:, 0]))
        & (py >= np.minimum(a[:, 1], b[:, 1]))
        & (py <= np.maximum(a[:, 1], b[:, 1]))
    )
    return bool(((cross == 0) & within).any())


def _point_xy(ga: GeometryArray, i):
    """The coordinate of point geometry ``i`` (or the (n, 2) coordinates of
    an index array): its entry of ``ga.coord_offsets()``, without composing
    the offsets of every row."""
    return ga.coords[ga.ring_offsets[ga.part_offsets[ga.geom_offsets[i]]]]


def _points_in_polygons(points: GeometryArray, pi: np.ndarray,
                        polys: GeometryArray, gi: np.ndarray) -> np.ndarray:
    """Boundary-exclusive containment of point ``points[pi[k]]`` in
    (multi)polygon ``polys[gi[k]]`` for every pair k: one
    :meth:`PreparedPolygons.parity_on` pass over all pairs."""
    if len(pi) == 0:
        return np.zeros(0, dtype=bool)
    xy = _point_xy(points, pi)
    parity, on = PreparedPolygons.from_geometry_array(polys).parity_on(xy[:, 0], xy[:, 1], gi)
    return parity & ~on


def refine_pair(lhs: GeometryArray, rhs: GeometryArray, li: int, ri: int, predicate: str) -> bool:
    """Exact test for one candidate pair, following the reference's dispatch
    (`spatial_index.rs:89-137`) including its quirks:

    - (Multi)Polygon ⊗ Polygon honors Contains vs Intersects (`:98-116`);
    - Polygon ⊗ MultiPolygon supports only Intersects (`:118-123`);
    - Line-ish ⊗ Point — in either order (`:125-135`) — uses
      line-contains-point;
    - every other type pair is silently false (`:136`).

    Point ⊗ (Multi)Polygon pairs (`:90-96`) are not tested here:
    :func:`spatial_join_table` refines all of them in one batch
    (:func:`_points_in_polygons`).
    """
    lt, rt = int(lhs.types[li]), int(rhs.types[ri])
    if lt in _POLYISH and rt == POLYGON:
        return _poly_poly(
            _rings_of(lhs, li), _rings_of(rhs, ri), want_contains=(predicate == "contains"), l_contains_r=True
        )
    if lt == POLYGON and rt == MULTIPOLYGON:
        if predicate == "contains":
            return False
        return _poly_poly(_rings_of(lhs, li), _rings_of(rhs, ri), want_contains=False, l_contains_r=True)
    if lt in _LINEISH and rt == POINT:
        p = _point_xy(rhs, ri)
        return _line_contains_point(_segments_of_rings(_rings_of(lhs, li)), p[0], p[1])
    if lt == POINT and rt in _LINEISH:
        p = _point_xy(lhs, li)
        return _line_contains_point(_segments_of_rings(_rings_of(rhs, ri)), p[0], p[1])
    return False


# --------------------------------------------------------------------------
# local reference-parity join
# --------------------------------------------------------------------------


def spatial_join_table(
    lhs: pa.Table,
    rhs: pa.Table,
    how: str = "inner",
    predicate: str = "intersects",
    l_suffix: str = "_left",
    r_suffix: str = "_right",
    geometry_col: str = "geometry",
) -> pa.Table:
    """Reference-parity spatial join of two Arrow tables.

    Pipeline mirrors `spatial_index.rs:37-204`: envelope R-trees on both
    sides -> bbox candidate pairs -> exact predicate refinement -> suffix

    ``predicate``: ``intersects`` / ``contains`` (the reference's dispatch)
    plus ``within`` (GeoPandas-parity extension: ``within(l, r)`` ==
    ``contains(r, l)``, refined with operand sides flipped).
    every column of both sides (`:164-184`) -> inner/left finish
    (`:186-204`). Row identity is positional within the tables, which is
    sound here because both tables are local (Ray blocks would not preserve a
    global order — the Dataset-level joins below use key columns instead,
    SURVEY.md §7 "hard" #3).
    """
    if how not in ("inner", "left"):
        raise ValueError(f"unsupported join type {how!r}")  # `:200-203`
    if predicate not in ("intersects", "contains", "within"):
        raise ValueError(f"unsupported predicate {predicate!r}")
    for t, side in ((lhs, "lhs"), (rhs, "rhs")):
        if geometry_col not in t.column_names:
            raise ValueError(f"{side} table lacks required column {geometry_col!r}")  # `:44-45`

    lg = decode_wkb(lhs[geometry_col])
    rg = decode_wkb(rhs[geometry_col])
    lb = np.column_stack(K.bounds(lg))
    rb = np.column_stack(K.bounds(rg))
    li, ri = STRTree(rb).query_boxes(lb)  # (i, ascending j) candidate pairs
    lt, rt = lg.types[li], rg.types[ri]
    # Point ⊗ (Multi)Polygon in either operand order (`:90-96`): the polygon
    # contains the point, boundary-exclusive, whatever the predicate
    pt_poly = (lt == POINT) & np.isin(rt, _POLYISH)
    poly_pt = np.isin(lt, _POLYISH) & (rt == POINT)
    keep = np.zeros(len(li), dtype=bool)
    keep[pt_poly] = _points_in_polygons(lg, li[pt_poly], rg, ri[pt_poly])
    keep[poly_pt] = _points_in_polygons(rg, ri[poly_pt], lg, li[poly_pt])
    for k in np.flatnonzero(~(pt_poly | poly_pt)):
        i, j = int(li[k]), int(ri[k])
        # within(l, r) == contains(r, l) (GeoPandas-parity extension
        # beyond the reference's intersects/contains dispatch); bbox
        # candidates are symmetric so only the refinement flips sides
        if predicate == "within":
            keep[k] = refine_pair(rg, lg, j, i, "contains")
        else:
            keep[k] = refine_pair(lg, rg, i, j, predicate)
    li, ri = li[keep], ri[keep]

    lhs_sfx = lhs.rename_columns([c + l_suffix for c in lhs.column_names])
    rhs_sfx = rhs.rename_columns([c + r_suffix for c in rhs.column_names])

    if how == "inner":
        out_l = lhs_sfx.take(pa.array(li))
        out_r = rhs_sfx.take(pa.array(ri))
    else:  # left: every lhs row, null-extended where unmatched (`:192-199`)
        matched = np.zeros(len(lhs), dtype=bool)
        matched[li] = True
        unmatched = np.nonzero(~matched)[0]
        all_l = np.concatenate([li, unmatched])
        order = np.argsort(all_l, kind="stable")
        take_l = all_l[order]
        take_r = np.concatenate([ri, np.full(len(unmatched), -1, dtype=np.int64)])[order]
        out_l = lhs_sfx.take(pa.array(take_l))
        out_r = rhs_sfx.take(pa.array(take_r, mask=take_r < 0))
    cols = list(out_l.columns) + list(out_r.columns)
    names = out_l.column_names + out_r.column_names
    return pa.table(dict(zip(names, cols)))


# --------------------------------------------------------------------------
# broadcast PIP join (the north-star hot path)
# --------------------------------------------------------------------------


class BroadcastPIPJoin:
    """Actor-pool stage: stream point batches against broadcast polygons.

    ``polygons`` is a ``ray.ObjectRef`` to (or the value of) an Arrow table
    with a WKB ``geometry`` column plus payload columns. The prepared
    polygon set + grid index are built ONCE per actor; every batch then runs
    vectorized candidate generation + grouped-by-polygon PIP refinement.

    ``how="inner"`` keeps only matched points; ``"left"`` keeps all points
    with null payload for unmatched ones. Points matching k polygons emit k
    rows (non-overlapping admin cells -> k<=1 in the flagship).

    ``predicate="dwithin"`` (with ``distance``) matches points inside OR
    within ``distance`` of each polygon's boundary (GeoPandas
    ``sjoin(predicate="dwithin")`` parity): candidate boxes expand by the
    distance, the refine adds one (points x segments) block per polygon.
    """

    def __init__(
        self,
        polygons,
        lon_col: str = "lon",
        lat_col: str = "lat",
        how: str = "inner",
        payload_cols: Iterable[str] | None = None,
        geometry_col: str = "geometry",
        predicate: str = "intersects",
        distance: float | None = None,
    ):
        if predicate not in ("intersects", "dwithin"):
            raise ValueError(f"unsupported broadcast-join predicate {predicate!r}")
        if predicate == "dwithin" and not (distance is not None and distance >= 0):
            raise ValueError("predicate='dwithin' requires distance >= 0")
        table = ray.get(polygons) if isinstance(polygons, ray.ObjectRef) else polygons
        ga = decode_wkb(table[geometry_col])
        self.prep = PreparedPolygons.from_geometry_array(ga)
        # None is the boundary-exclusive contains; a float is dwithin
        self.distance = float(distance) if predicate == "dwithin" else None
        # dwithin: candidate generation must see by-distance-expanded boxes
        boxes = self.prep.bounds
        if self.distance:
            boxes = boxes + np.array([-self.distance, -self.distance, self.distance, self.distance])
        self.grid = GridIndex(boxes)
        self.lon_col = lon_col
        self.lat_col = lat_col
        self.how = how
        names = payload_cols if payload_cols is not None else [c for c in table.column_names if c != geometry_col]
        self.payload = table.select(list(names))

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon = batch[self.lon_col].to_numpy(zero_copy_only=False).astype(np.float64)
        lat = batch[self.lat_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = ~(np.isnan(lon) | np.isnan(lat))
        pidx, items = self.grid.candidates_for_points(np.where(ok, lon, np.inf), np.where(ok, lat, np.inf))
        mp, mi = self.prep.match(pidx, items, lon, lat, self.distance)

        if self.how == "inner":
            out = batch.take(pa.array(mp))
            pay = self.payload.take(pa.array(mi))
        else:
            matched = np.zeros(len(batch), dtype=bool)
            matched[mp] = True
            unmatched = np.nonzero(~matched)[0]
            all_p = np.concatenate([mp, unmatched])
            order = np.argsort(all_p, kind="stable")
            take_p = all_p[order]
            take_i = np.concatenate([mi, np.full(len(unmatched), -1, dtype=np.int64)])[order]
            out = batch.take(pa.array(take_p))
            pay = self.payload.take(pa.array(take_i, mask=take_i < 0))
        for name, col in zip(pay.column_names, pay.columns):
            out = out.append_column(name, col)
        return out


def broadcast_spatial_join(
    points_ds,
    polygons: pa.Table,
    lon_col: str = "lon",
    lat_col: str = "lat",
    how: str = "inner",
    concurrency: int | tuple[int, int] = (1, 4),
    batch_size: int = 65536,
    predicate: str = "intersects",
    distance: float | None = None,
):
    """points Dataset ⋈ broadcast polygon table (point-in-polygon).

    The polygon table is ``ray.put`` ONCE; each actor reads the object ref in
    ``__init__`` — never re-shipped per batch.

    Default ``concurrency=(1, 4)`` autoscales from ONE actor: a fixed actor
    count is a hard CPU reservation, and a pool of 4 deadlocks a 4-CPU
    cluster when any other operator needs a slot.

    Parallelism note: the pool can launch at most one task PER INPUT BLOCK.
    An in-memory single-block source (``from_arrow`` of one table) therefore
    serializes the whole join onto one actor — ``repartition(...)`` such
    inputs first (file-backed reads are already multi-block).
    """
    ref = ray.put(polygons)
    return points_ds.map_batches(
        BroadcastPIPJoin,
        fn_constructor_kwargs=dict(polygons=ref, lon_col=lon_col, lat_col=lat_col, how=how,
                                   predicate=predicate, distance=distance),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


# --------------------------------------------------------------------------
# partitioned (large-large) spatial join
# --------------------------------------------------------------------------


def partitioned_spatial_join(
    points_ds,
    polygons_ds,
    cell_deg: float = 5.0,
    lon_col: str = "lon",
    lat_col: str = "lat",
    geometry_col: str = "geometry",
    num_partitions: int = 64,
    predicate: str = "intersects",
    distance: float | None = None,
):
    """Large-large PIP join: co-partition both sides by grid cell, join each
    partition locally with an exact refine. Returns matched point rows +
    polygon payload columns (suffixed ``_r`` on a name collision with a
    point column).

    Shuffle plan: polygons replicate to every ``cell_deg`` lat/lon cell
    their bbox overlaps (flat_map-style batch kernel); points carry their
    single cell id; the union exchange of ``stages/hashjoin.py``
    (``co_partitioned_map``) co-locates every cell's points and polygon
    replicas in one hash partition. Each partition then runs
    :func:`pip_join_partition`: a cell -> replica CSR gives the
    (point, replica) pairs of the equi-join on ``_cell`` without building
    them as rows, the replicas are decoded once, and one
    ``PreparedPolygons.match`` pass keeps the exact matches. Only matched
    rows are materialised. Each point has exactly one cell, so no pair
    dedup is needed. Hot cells can be split further by salting the cell id
    on the polygon side and duplicating the point-side lookup — not needed
    while polygon side per cell stays small.

    The grid is the only exchange: H3 and S2 cell exchanges gave the same
    pairs 8-10x slower, all of it in the per-polygon covers.

    ``predicate="dwithin"`` (with ``distance``): polygons replicate to the
    cells of their by-distance-EXPANDED bbox and the refine swaps PIP for
    the inside-or-within-distance test — same exchange plan, same kernel.
    """
    from geopolars_ray.stages.hashjoin import co_partitioned_map

    if predicate not in ("intersects", "dwithin"):
        raise ValueError(f"unsupported partitioned-join predicate {predicate!r}")
    if predicate == "dwithin" and not (distance is not None and distance >= 0):
        raise ValueError("predicate='dwithin' requires distance >= 0")
    # None is the boundary-exclusive contains; a float is dwithin
    dist = float(distance) if predicate == "dwithin" else None
    pad = dist or 0.0

    ny = int(np.ceil(180.0 / cell_deg))

    def poly_to_cells(batch: pa.Table) -> pa.Table:
        # each polygon replicates to every grid cell its bbox overlaps;
        # indices are floored but not clamped, exactly as point_cell's
        # grid_tile_id, so both sides agree at lon 180 / lat 90
        ga = decode_wkb(batch[geometry_col])
        xmin, ymin, xmax, ymax = K.bounds(ga)
        pidx = np.nonzero(~np.isnan(xmin))[0]

        def index(v, lo):
            return np.floor((v[pidx] + lo) / cell_deg).astype(np.int64)

        item, cells = _expand_cell_rects(index(xmin - pad, 180.0), index(xmax + pad, 180.0),
                                         index(ymin - pad, 90.0), index(ymax + pad, 90.0), ny)
        out = batch.take(pa.array(pidx[item]))
        return out.append_column("_cell", pa.array(cells, pa.int64()))

    def point_cell(batch: pa.Table) -> pa.Table:
        lon = batch[lon_col].to_numpy(zero_copy_only=False).astype(np.float64)
        lat = batch[lat_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = ~(np.isnan(lon) | np.isnan(lat))
        cell = tiles_mod.grid_tile_id(np.where(ok, lon, 0.0), np.where(ok, lat, 0.0), cell_deg)
        batch = batch.append_column("_cell", pa.array(np.where(ok, cell, -1), type=pa.int64()))
        return batch.filter(pa.array(ok))

    def with_cell(ds) -> pa.Schema | None:
        # the mapped side's schema, read off the input: a read_parquet input
        # answers from file metadata, so no mapped block runs just to be probed
        base = getattr(ds.schema(), "base_schema", None)
        return base.append(pa.field("_cell", pa.int64())) if isinstance(base, pa.Schema) else None

    def pip_join(points: pa.Table, polys: pa.Table) -> pa.Table:
        return pip_join_partition(points, polys, lon_col=lon_col, lat_col=lat_col,
                                  geometry_col=geometry_col, distance=dist)

    # the union-based co-partition of stages/hashjoin.py, NOT Dataset.join:
    # cell ids are sparse keys and Ray 2.49's native hash-shuffle join
    # crashes when a hash partition receives no rows on one side
    return co_partitioned_map(
        points_ds.map_batches(point_cell, batch_format="pyarrow"),
        polygons_ds.map_batches(poly_to_cells, batch_format="pyarrow"),
        ["_cell"], pip_join, num_partitions=num_partitions,
        left_schema=with_cell(points_ds), right_schema=with_cell(polygons_ds),
    )


def pip_join_partition(
    points: pa.Table,
    polys: pa.Table,
    lon_col: str = "lon",
    lat_col: str = "lat",
    geometry_col: str = "geometry",
    distance: float | None = None,
) -> pa.Table:
    """The local join of one co-partition of :func:`partitioned_spatial_join`.

    ``points`` carry their one ``_cell``; ``polys`` are polygon replicas,
    one row per (polygon, overlapped cell), with a WKB ``geometry_col`` and
    payload columns. A cell -> replica CSR (replicas sorted by ``_cell``,
    point cells looked up with ``searchsorted``) gives the (point, replica)
    pairs of an equi-join on ``_cell``; the replicas are decoded once and
    ``PreparedPolygons.match`` refines all pairs in one pass
    (``distance=None``: boundary-exclusive containment, else dwithin).

    Returns the matched rows only: the point columns without ``_cell``, then
    the payload columns (every polygon column but ``_cell`` and the
    geometry), suffixed ``_r`` when they collide with a point column, as
    ``hash_join`` names them. Zero rows keep that schema.
    """
    pcell = points["_cell"].to_numpy()
    rcell = polys["_cell"].to_numpy()
    order = np.argsort(rcell, kind="stable")
    lo = np.searchsorted(rcell[order], pcell, side="left")
    hi = np.searchsorted(rcell[order], pcell, side="right")
    pidx = np.repeat(np.arange(len(pcell), dtype=np.int64), hi - lo)
    ridx = order[_expand_ranges(lo, hi)]
    prep = PreparedPolygons.from_geometry_array(decode_wkb(polys[geometry_col]))
    lon = points[lon_col].to_numpy(zero_copy_only=False).astype(np.float64)
    lat = points[lat_col].to_numpy(zero_copy_only=False).astype(np.float64)
    mp, mi = prep.match(pidx, ridx, lon, lat, distance)

    out = points.drop_columns(["_cell"]).take(pa.array(mp))
    lnames = set(points.column_names)
    pay = polys.drop_columns(["_cell", geometry_col]).take(pa.array(mi))
    for name, col in zip(pay.column_names, pay.columns):
        out = out.append_column(name + "_r" if name in lnames else name, col)
    return out
