"""Euclidean kNN and distance joins over point Datasets.

- :func:`euclidean_knn`: kNN of a point Dataset against a broadcast
  query-point set, the north star's "ST_Distance kNN" (BASELINE.json). The
  reference only has row-wise distance (`geoseries.rs:141-146`), so kNN is a
  new composition: per-batch partial top-k against the broadcast query matrix
  (one vectorized distance computation per batch), then a per-query merge.
  Per-batch partials are (queries x k) rows, so the shuffle moves
  O(q*k*blocks) tiny rows, never the point table.
- :func:`knn_join`, :func:`sjoin_nearest` and :func:`dwithin_join`:
  large-large joins on one cell exchange, :func:`_cell_exchange`. Points key
  to their ``grid_tile_id`` cell, targets replicate to the 3x3 block around
  theirs, and ``stages/hashjoin.py co_partitioned_map`` co-locates each
  cell's points and target replicas in one hash partition. There one
  generator, :func:`_cell_blocks`, yields bounded (point strip x cell
  targets) distance blocks; the top-k and the distance threshold read them.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray


class EuclideanTopK:
    """Per-batch partial top-k: distances from batch points to query points."""

    def __init__(self, queries, k: int, x_col: str = "x", y_col: str = "y", id_col: str = "id"):
        q = ray.get(queries) if isinstance(queries, ray.ObjectRef) else queries
        self.qid = np.asarray(q["qid"], dtype=np.int64)
        self.qx = np.asarray(q["qx"], dtype=np.float64)
        self.qy = np.asarray(q["qy"], dtype=np.float64)
        self.k = k
        self.x_col, self.y_col, self.id_col = x_col, y_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        x = batch[self.x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        y = batch[self.y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        dx = x[:, None] - self.qx[None, :]
        dy = y[:, None] - self.qy[None, :]
        d = np.sqrt(dx * dx + dy * dy)  # (n, q)
        k = min(self.k, len(ids))
        top = np.argpartition(d, kth=k - 1, axis=0)[:k]  # (k, q)
        qn = len(self.qid)
        rows = top.T.reshape(-1)
        return pa.table(
            {
                "qid": pa.array(np.repeat(self.qid, k)),
                self.id_col: pa.array(ids[rows]),
                "distance": pa.array(d[rows, np.repeat(np.arange(qn), k)]),
            }
        )


def _input_schemas(points_ds, targets_ds, point_id: str, target_id: str, who: str):
    """The Arrow schemas of both inputs; their id columns must be integers
    (the partition kernels run on int64 numpy views)."""
    out = []
    for ds, id_col in ((points_ds, point_id), (targets_ds, target_id)):
        sch = ds.schema()
        if sch is None:
            raise ValueError(
                f"{who} could not resolve input schemas (lazy pipeline whose "
                "first block is empty?) — materialize or re-read the inputs first"
            )
        sch = pa.schema(list(zip(sch.names, sch.types)))
        t = sch.field(id_col).type
        if not pa.types.is_integer(t):
            raise ValueError(
                f"{who} requires integer id columns; {id_col!r} is {t} "
                "(for string ids, attach a dense integer surrogate key first)"
            )
        out.append(sch)
    return tuple(out)


def _cell_exchange(points_ds, targets_ds, schemas, cell: float, kernel, *, x_col: str,
                   y_col: str, point_id: str, target_id: str, num_partitions: int):
    """Co-partition points and targets by grid cell and call
    ``kernel(points, targets)`` once per hash partition.

    Points key to their own ``grid_tile_id`` cell as (point_id, _x, _y,
    _cell). Targets replicate to the 3x3 block of cells around theirs as
    (target_id, _x, _y, _cell). With ``cell`` at least the search radius,
    every target within it of a point lies in the point's 3x3 block, so
    each pair meets in exactly one partition. ``schemas`` are the two input
    schemas (:func:`_input_schemas`): both mapped sides are then known
    without probing a block.
    """
    from geopolars_ray.geom.tiles import grid_tile_id
    from geopolars_ray.stages.hashjoin import co_partitioned_map

    ny = int(np.ceil(180.0 / cell))
    block = np.array([dx + dy for dx in (-ny, 0, ny) for dy in (-1, 0, 1)], dtype=np.int64)

    def cells(batch: pa.Table) -> np.ndarray:
        x = batch[x_col].to_numpy(zero_copy_only=False)
        y = batch[y_col].to_numpy(zero_copy_only=False)
        return grid_tile_id(x, y, cell)

    def point_key(batch: pa.Table) -> pa.Table:
        return pa.table({point_id: batch[point_id], "_x": batch[x_col], "_y": batch[y_col],
                         "_cell": pa.array(cells(batch))})

    def target_block(batch: pa.Table) -> pa.Table:
        c = cells(batch)
        rep = batch.select([target_id, x_col, y_col]).take(
            pa.array(np.tile(np.arange(len(c)), len(block))))
        return pa.table({target_id: rep[target_id], "_x": rep[x_col], "_y": rep[y_col],
                         "_cell": pa.array((block[:, None] + c[None, :]).reshape(-1))})

    def side(sch: pa.Schema, id_col: str) -> pa.Schema:
        return pa.schema([(id_col, sch.field(id_col).type), ("_x", sch.field(x_col).type),
                          ("_y", sch.field(y_col).type), ("_cell", pa.int64())])

    # _x/_y of one type share a union column, so the exchange carries
    # (point_id, _x, _y, _cell, target_id, _side)
    return co_partitioned_map(
        points_ds.map_batches(point_key, batch_format="pyarrow"),
        targets_ds.map_batches(target_block, batch_format="pyarrow"),
        ["_cell"], kernel, num_partitions=num_partitions,
        left_schema=side(schemas[0], point_id), right_schema=side(schemas[1], target_id),
    )


def _cell_blocks(points: pa.Table, targets: pa.Table, point_id: str, target_id: str,
                 strip_cost: int = 4_000_000):
    """Yield ``(pids, tids, d2)`` for each (point strip, cell) of a partition:
    the strip's point ids, the ids of its cell's targets, and the
    (strip x targets) block of squared distances.

    Targets are sorted by (cell, tid), so a block's columns run in tid order
    and a stable sort on distance breaks ties by tid. A target the 3x3
    offsets replicate into one cell twice (they alias on coarse grids) is
    kept once. Each point lies in exactly one strip; a strip holds at most
    ``strip_cost // targets`` points, which bounds the block a dense cell
    can build.
    """
    if points.num_rows == 0 or targets.num_rows == 0:
        return
    ppid = points[point_id].to_numpy(zero_copy_only=False).astype(np.int64)
    px = points["_x"].to_numpy(zero_copy_only=False)
    py = points["_y"].to_numpy(zero_copy_only=False)
    pcell = points["_cell"].to_numpy(zero_copy_only=False)
    ttid = targets[target_id].to_numpy(zero_copy_only=False).astype(np.int64)
    tcell = targets["_cell"].to_numpy(zero_copy_only=False)
    tor = np.lexsort((ttid, tcell))
    tcell, ttid = tcell[tor], ttid[tor]
    tx = targets["_x"].to_numpy(zero_copy_only=False)[tor]
    ty = targets["_y"].to_numpy(zero_copy_only=False)[tor]
    por = np.argsort(pcell, kind="stable")
    for rows in np.split(por, np.nonzero(np.diff(pcell[por]))[0] + 1):
        c = pcell[rows[0]]
        t0, t1 = np.searchsorted(tcell, [c, c + 1])
        if t0 == t1:
            continue
        ct, cx, cy = ttid[t0:t1], tx[t0:t1], ty[t0:t1]
        uniq = np.ones(len(ct), dtype=bool)
        uniq[1:] = ct[1:] != ct[:-1]
        ct, cx, cy = ct[uniq], cx[uniq], cy[uniq]
        step = max(1, strip_cost // len(ct))
        for s0 in range(0, len(rows), step):
            blk = rows[s0 : s0 + step]
            yield ppid[blk], ct, (px[blk, None] - cx[None, :]) ** 2 + (py[blk, None] - cy[None, :]) ** 2


def _cat(chunks: list, dtype) -> np.ndarray:
    return np.concatenate(chunks).astype(dtype, copy=False) if chunks else np.empty(0, dtype)


def knn_join(
    points_ds,
    targets_ds,
    k: int,
    cell_deg: float = 5.0,
    x_col: str = "x",
    y_col: str = "y",
    point_id: str = "pid",
    target_id: str = "tid",
    num_partitions: int = 16,
):
    """Large-large exact kNN join: each left point's k nearest right points.

    Scale path (SURVEY.md §7 M7), fully distributed — NOTHING is ever
    collected on the driver:

    - Each pass is one :func:`_cell_exchange` whose kernel takes a
      vectorized per-point top-k over the partition's cell blocks. A point
      is *complete* when its k-th candidate distance is provably inside the
      3x3 coverage radius (< cell_deg).
    - Incomplete points (k-th not proven, or no candidates at all) go to the
      next pass with the cell size grown 4x — the expanding-ring second pass.
      The remainder is computed distributively with a native ``left_anti``
      join against the completed point ids; only its (small) per-pass row
      COUNT reaches the driver. Once the cell covers the whole domain the
      3x3 block holds every target and the pass is exact by construction, so
      the loop terminates in <= ~5 passes.

    Partitioning assumption: ``cell_deg`` is chosen so most points find k
    targets in their 3x3 block on the first pass; each extra pass re-keys the
    full target set (one distributed scan) but only the remainder points.

    Returns (point_id, target_id, distance, rank); ties break on target id.
    """
    import pyarrow.compute as pc

    from geopolars_ray.stages.agg import barrier
    from geopolars_ray.stages.hashjoin import hash_join

    remaining = points_ds.select_columns([point_id, x_col, y_col])
    schemas = _input_schemas(remaining, targets_ds, point_id, target_id, "knn_join")

    def top_k(cell: float, covers_all: bool):
        def kernel(points: pa.Table, targets: pa.Table) -> pa.Table:
            p, t, d, rank, ok = [], [], [], [], []
            for pids, tids, d2 in _cell_blocks(points, targets, point_id, target_id):
                dist = np.sqrt(d2)
                take = min(k, len(tids))
                # stable on distance: ties keep the block's tid order
                sel = np.argsort(dist, axis=1, kind="stable")[:, :take]
                dk = np.take_along_axis(dist, sel, axis=1)
                complete = np.full(len(pids), covers_all)
                if take == k:
                    complete |= dk[:, k - 1] < cell
                p.append(np.repeat(pids, take))
                t.append(tids[sel].reshape(-1))
                d.append(dk.reshape(-1))
                rank.append(np.tile(np.arange(1, take + 1, dtype=np.int64), len(pids)))
                ok.append(np.repeat(complete, take))
            pid = _cat(p, np.int64)
            order = np.argsort(pid, kind="stable")
            # points with no candidate emit nothing: they stay in the
            # remainder and retry at the next, coarser pass
            return pa.table({
                point_id: pa.array(pid[order]).cast(points.schema.field(point_id).type),
                target_id: pa.array(_cat(t, np.int64)[order]).cast(targets.schema.field(target_id).type),
                "distance": pa.array(_cat(d, np.float64)[order]),
                "rank": pa.array(_cat(rank, np.int64)[order]),
                "_complete": pa.array(_cat(ok, bool)[order]),
            })

        return kernel

    n_remaining = remaining.count()
    outs = []
    cd = float(cell_deg)
    while True:
        covers_all = cd >= 360.0  # one cell spans the lon/lat domain -> exact
        ranked = barrier(_cell_exchange(
            remaining, targets_ds, schemas, cd, top_k(cd, covers_all), x_col=x_col, y_col=y_col,
            point_id=point_id, target_id=target_id, num_partitions=num_partitions,
        ))
        complete = ranked.map_batches(
            lambda t: t.filter(pc.equal(t["_complete"], True)).drop_columns(["_complete"]),
            batch_format="pyarrow",
        )
        outs.append(complete)
        if covers_all:
            break
        # early exit without an anti-join pass: every complete point has
        # exactly k rows, so (no incomplete rows) + (k*|remaining| rows) means
        # no point is missing either
        n_rows = ranked.count()
        n_bad = ranked.map_batches(
            lambda t: t.filter(pc.equal(t["_complete"], False)).select([point_id]),
            batch_format="pyarrow",
        ).count()
        if n_bad == 0 and n_rows == k * n_remaining:
            break
        # remainder = points not yet complete. The anti-join tolerates
        # duplicate right keys and reads only the key column of `complete`
        remaining = barrier(hash_join(
            remaining, complete, on=[point_id], how="left_anti", num_partitions=num_partitions,
            left_schema=schemas[0], right_schema=pa.schema([schemas[0].field(point_id)]),
        ))
        n_remaining = remaining.count()
        if n_remaining == 0:
            break
        cd *= 4.0
    out = outs[0]
    for o in outs[1:]:
        out = out.union(o)
    return out


def euclidean_knn(
    points_ds, queries: dict, k: int, x_col="x", y_col="y", id_col="id",
    concurrency=None, num_partitions: int = 8,
):
    """Exact kNN rows (qid, id, distance, rank); ties broken by id asc.

    Per-block partial top-k (so the exchange carries O(q·k·blocks) rows,
    never points), then ONE vectorized merge per hash partition of qids —
    not a per-qid ``map_groups`` (Ray's sort-based per-group dispatch costs
    ~200µs+/group; with thousands of query points the merge would dominate
    the whole join)."""
    from geopolars_ray.stages.agg import hash_partitioned_map

    ref = ray.put(queries)

    def partial(batch: pa.Table) -> pa.Table:
        # task-based: the only state is the broadcast query arrays, and
        # ray.get(ref) is a cached zero-copy object-store read per worker —
        # tasks skip the actor pool's multi-second spin-up (same reasoning
        # as the task-based MinHasher, stages/dedup.py)
        return EuclideanTopK(ref, k, x_col=x_col, y_col=y_col, id_col=id_col)(batch)

    partials = points_ds.map_batches(
        partial,
        batch_format="pyarrow",
        **({"concurrency": concurrency} if concurrency is not None else {}),
    )

    def merge_part(tab: pa.Table) -> pa.Table:
        qids = tab["qid"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = tab["distance"].to_numpy(zero_copy_only=False)
        ids = tab[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, d, qids))
        qs, dd, ii = qids[order], d[order], ids[order]
        starts = np.flatnonzero(np.r_[True, qs[1:] != qs[:-1]])
        sizes = np.diff(np.r_[starts, len(qs)])
        rank = np.arange(len(qs)) - np.repeat(starts, sizes)
        keep = rank < k
        return pa.table(
            {
                "qid": pa.array(qs[keep]),
                id_col: pa.array(ii[keep]),
                "distance": pa.array(dd[keep]),
                "rank": pa.array(rank[keep] + 1),
            }
        )

    return hash_partitioned_map(partials, ["qid"], merge_part, num_partitions=num_partitions)


def sjoin_nearest(
    points_ds,
    targets_ds,
    max_distance: float | None = None,
    cell_deg: float = 5.0,
    x_col: str = "x",
    y_col: str = "y",
    point_id: str = "pid",
    target_id: str = "tid",
    distance_col: str = "distance",
    num_partitions: int = 16,
):
    """GeoPandas-style nearest join: each left point matched to its single
    nearest right point (``knn_join`` with k=1), optionally dropped when
    farther than ``max_distance``.

    Semantics delta vs GeoPandas (documented, deterministic): exact distance
    ties keep the LOWEST target id, not all tied rows — the engine's kNN
    tie-break. Output: (point_id, target_id, distance_col); points with no
    target within ``max_distance`` are absent (inner-join shape).
    """
    out = knn_join(points_ds, targets_ds, k=1, cell_deg=cell_deg, x_col=x_col,
                   y_col=y_col, point_id=point_id, target_id=target_id,
                   num_partitions=num_partitions)

    def finish(batch: pa.Table) -> pa.Table:
        t = batch.drop_columns(["rank"])
        if max_distance is not None:
            import pyarrow.compute as pc

            t = t.filter(pc.less_equal(t["distance"], max_distance))
        if distance_col != "distance":
            t = t.rename_columns([distance_col if c == "distance" else c for c in t.column_names])
        return t

    return out.map_batches(finish, batch_format="pyarrow")


def dwithin_join(
    points_ds,
    targets_ds,
    distance: float,
    x_col: str = "x",
    y_col: str = "y",
    point_id: str = "pid",
    target_id: str = "tid",
    cell_size: float | None = None,
    canonical: bool = False,
    num_partitions: int = 32,
    strip_cost: int = 4_000_000,
):
    """All-pairs within-distance join (ST_DWithin): every (point, target)
    pair with planar euclidean distance <= ``distance``.

    Single exact pass — one :func:`_cell_exchange` with cell size >=
    distance, so any qualifying pair is inside the point's 3x3 cell block
    and materializes in EXACTLY one partition (the point's cell): no dedup
    exchange needed. Per-partition scoring reads :func:`_cell_blocks` (one
    (strip, m) distance block at a time, ``strip_cost`` bounds the block
    area) so a dense cell can't blow a task heap; the only quadratic term
    left is the OUTPUT itself, which is the query's answer.

    ``canonical=True`` keeps only ``pid < tid`` pairs — the self-join form
    used for coordinate near-duplicate dedup (feed the pairs to
    ``stages/cc.connected_components`` and keep one representative per
    cluster, exactly like the MinHash/embedding near-dup paths).

    Coordinates are treated planar (same contract as ``knn_join``); for
    lon/lat data pass ``distance`` in degrees or project first. Output:
    (point_id, target_id, distance).
    """
    if not distance > 0:
        raise ValueError("distance must be > 0")
    cd = float(cell_size) if cell_size is not None else float(distance)
    if cd < distance:
        raise ValueError(
            f"cell_size ({cd}) must be >= distance ({distance}) — the 3x3 "
            "block is only provably complete when one cell covers the radius"
        )
    schemas = _input_schemas(points_ds, targets_ds, point_id, target_id, "dwithin_join")
    d2max = float(distance) * float(distance)

    def pairs(points: pa.Table, targets: pa.Table) -> pa.Table:
        p, t, d = [], [], []
        for pids, tids, d2 in _cell_blocks(points, targets, point_id, target_id, strip_cost):
            ii, jj = np.nonzero(d2 <= d2max)
            if canonical:
                keep = pids[ii] < tids[jj]
                ii, jj = ii[keep], jj[keep]
            p.append(pids[ii])
            t.append(tids[jj])
            d.append(np.sqrt(d2[ii, jj]))
        return pa.table({
            point_id: pa.array(_cat(p, np.int64)).cast(points.schema.field(point_id).type),
            target_id: pa.array(_cat(t, np.int64)).cast(targets.schema.field(target_id).type),
            "distance": pa.array(_cat(d, np.float64)),
        })

    return _cell_exchange(points_ds, targets_ds, schemas, cd, pairs, x_col=x_col, y_col=y_col,
                          point_id=point_id, target_id=target_id, num_partitions=num_partitions)
