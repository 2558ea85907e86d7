"""Spatial joins: reference-parity local join, broadcast PIP join, partitioned join.

Reimplements ``spatial_join(lhs, rhs, SpatialJoinArgs)``
(``/root/reference/geopolars/src/spatial_index.rs:37-204``) in three forms:

- :func:`spatial_join_table` — local (two Arrow tables), bit-for-bit parity
  with the reference's semantics incl. its predicate dispatch table
  (`spatial_index.rs:89-137`) and suffix naming (`:164-184`); reproduces the
  golden fixture shapes (2,4)/(9,4) (FIXTURES.md F5). Its refine
  (:func:`refine_candidates`) is batched over all candidate pairs of a
  type-pair class: the segment-contact kernel
  (``kernels._segment_contacts``, which ``distance`` and
  ``shortest_line`` run on too) and ``PreparedPolygons.parity_on``.
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


def _point_xy(ga: GeometryArray, i):
    """The coordinate of point geometry ``i`` (or the (n, 2) coordinates of
    an index array): its entry of ``ga.coord_offsets()``, without composing
    the offsets of every row."""
    return ga.coords[ga.ring_offsets[ga.part_offsets[ga.geom_offsets[i]]]]


def _points_in_polygons(points: GeometryArray, pi: np.ndarray,
                        polys: PreparedPolygons, gi: np.ndarray) -> np.ndarray:
    """Boundary-exclusive containment of point ``points[pi[k]]`` in
    (multi)polygon ``gi[k]`` of ``polys`` for every pair k: one
    :meth:`PreparedPolygons.parity_on` pass over all pairs."""
    if len(pi) == 0:
        return np.zeros(0, dtype=bool)
    xy = _point_xy(points, pi)
    parity, on = polys.parity_on(xy[:, 0], xy[:, 1], gi)
    return parity & ~on


def _vertices_in(pts: GeometryArray, ip: np.ndarray, polys: PreparedPolygons,
                 ig: np.ndarray, boundary: bool) -> np.ndarray:
    """Per pair k: whether some vertex of ``pts[ip[k]]`` lies strictly
    inside polygon ``ig[k]`` (``boundary=False``), or whether every vertex
    lies inside or on it (``boundary=True``). One ``parity_on`` over the
    (vertex, pair) pairs."""
    c0, c1 = K._coord_ranges(pts)
    pair = np.repeat(np.arange(len(ip)), c1[ip] - c0[ip])
    v = _expand_ranges(c0[ip], c1[ip])
    parity, on = polys.parity_on(pts.coords[v, 0], pts.coords[v, 1], ig[pair])
    if boundary:
        return np.bincount(pair[~(parity | on)], minlength=len(ip)) == 0
    return np.bincount(pair[parity & ~on], minlength=len(ip)) > 0


def _as_segments(points: GeometryArray, ip: np.ndarray) -> GeometryArray:
    """Point ``points[ip[k]]`` as the zero-length linestring (p, p), so
    the segment-contact kernel tests it: it touches a segment exactly when
    it is collinear with it and inside its bbox."""
    m = len(ip)
    return GeometryArray(
        types=np.full(m, LINESTRING),
        geom_offsets=np.arange(m + 1),
        part_offsets=np.arange(m + 1),
        ring_offsets=np.arange(0, 2 * m + 1, 2),
        coords=np.repeat(_point_xy(points, ip), 2, axis=0),
    )


def _refine(A: GeometryArray, ia: np.ndarray, ap: PreparedPolygons,
            B: GeometryArray, ib: np.ndarray, bp: PreparedPolygons, contains: bool) -> np.ndarray:
    """Exact test of the candidate pairs ``(A[ia[k]], B[ib[k]])`` that are
    not Point ⊗ (Multi)Polygon, one batched pass per type-pair class,
    following the reference's dispatch (`spatial_index.rs:89-137`)
    including its quirks (``ap`` / ``bp`` are the sides' prepared
    polygons):

    - (Multi)Polygon ⊗ Polygon honors Contains vs Intersects (`:98-116`).
      Intersects: any segment contact, or a vertex of either side
      strictly inside the other. Contains: every vertex of B inside or on
      A, and no proper segment crossing (a shared boundary is allowed);
    - Polygon ⊗ MultiPolygon supports only Intersects (`:118-123`);
    - Line-ish ⊗ Point — in either order (`:125-135`) — tests the point
      collinear with a line segment, inside its bbox;
    - every other type pair is silently false (`:136`).

    Segments are the rings' explicit ones: an open ring's closing edge is
    seen only by the vertex tests' ``parity_on``."""
    ta, tb = A.types[ia], B.types[ib]
    keep = np.zeros(len(ia), dtype=bool)
    pp = np.isin(ta, _POLYISH) & (tb == POLYGON)
    if not contains:
        pp |= (ta == POLYGON) & (tb == MULTIPOLYGON)
    k = np.flatnonzero(pp)
    if contains:
        k = k[_vertices_in(B, ib[k], ap, ia[k], boundary=True)]
        keep[k] = ~K._any_contact(A, B, ia[k], ib[k], proper_only=True)
    else:
        keep[k] = K._any_contact(A, B, ia[k], ib[k])
        k = k[~keep[k]]
        keep[k] = (_vertices_in(B, ib[k], ap, ia[k], boundary=False)
                   | _vertices_in(A, ia[k], bp, ib[k], boundary=False))
    for L, il, P, ip, line_pt in ((A, ia, B, ib, np.isin(ta, _LINEISH) & (tb == POINT)),
                                  (B, ib, A, ia, (ta == POINT) & np.isin(tb, _LINEISH))):
        k = np.flatnonzero(line_pt)
        keep[k] = K._any_contact(L, _as_segments(P, ip[k]), il[k], np.arange(len(k)))
    return keep


def refine_candidates(lg: GeometryArray, rg: GeometryArray, li: np.ndarray, ri: np.ndarray,
                      predicate: str) -> np.ndarray:
    """bool per candidate pair k: ``lg[li[k]]`` and ``rg[ri[k]]`` satisfy
    ``predicate`` (``intersects`` / ``contains`` / ``within``), in one
    batched pass per type-pair class.

    Point ⊗ (Multi)Polygon in either operand order (`:90-96`) is
    boundary-exclusive containment of the point, whatever the predicate;
    the other classes follow :func:`_refine`. ``within(l, r)`` ==
    ``contains(r, l)`` (GeoPandas-parity extension beyond the reference's
    intersects/contains dispatch): bbox candidates are symmetric, so only
    the refinement flips sides."""
    lt, rt = lg.types[li], rg.types[ri]
    pt_poly = (lt == POINT) & np.isin(rt, _POLYISH)
    poly_pt = np.isin(lt, _POLYISH) & (rt == POINT)
    lp = PreparedPolygons.from_geometry_array(lg)
    rp = PreparedPolygons.from_geometry_array(rg)
    keep = np.zeros(len(li), dtype=bool)
    keep[pt_poly] = _points_in_polygons(lg, li[pt_poly], rp, ri[pt_poly])
    keep[poly_pt] = _points_in_polygons(rg, ri[poly_pt], lp, li[poly_pt])
    rest = np.flatnonzero(~(pt_poly | poly_pt))
    if predicate == "within":
        keep[rest] = _refine(rg, ri[rest], rp, lg, li[rest], lp, contains=True)
    else:
        keep[rest] = _refine(lg, li[rest], lp, rg, ri[rest], rp, contains=predicate == "contains")
    return keep


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

    Pipeline mirrors `spatial_index.rs:37-204`: an envelope STR-tree ->
    bbox candidate pairs (one level-synchronous ``query_boxes``) -> exact
    refinement (:func:`refine_candidates`, one batched pass per type-pair
    class) -> suffix every column of both sides (`:164-184`) -> inner/left
    finish (`:186-204`).

    ``predicate``: ``intersects`` / ``contains`` (the reference's dispatch)
    plus ``within`` (GeoPandas-parity extension: ``within(l, r)`` ==
    ``contains(r, l)``, refined with operand sides flipped). Row identity
    is positional within the tables, which is sound here because both
    tables are local (Ray blocks would not preserve a global order — the
    Dataset-level joins below use key columns instead, SURVEY.md §7
    "hard" #3).
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
    keep = refine_candidates(lg, rg, li, ri, predicate)
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
