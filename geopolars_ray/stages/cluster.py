"""Spatial clustering: ST_ClusterDBSCAN and ST_ClusterKMeans.

PostGIS exposes both as window functions that label every input row
(`ST_ClusterDBSCAN(geom, eps, minpoints) OVER ()`,
`ST_ClusterKMeans(geom, k) OVER ()`); the reference has neither. Here
they are Dataset->Dataset stages over point tables, built so every step
is one of the engine's existing scale-safe exchanges:

- **DBSCAN** = one `dwithin_join` self-join (cell-partitioned, each
  eps-pair materializes exactly once) -> combiner-first neighbor counts
  -> semi-join pairs down to core-core edges -> `connected_components`
  (label propagation + pointer jumping, O(log diameter) rounds) ->
  border points take the MIN component among their core neighbors.
  Labels are deterministic: a cluster's id is the minimum point id it
  contains (PostGIS ids are arbitrary; min-id is replayable in SQL).
  Noise rows get a null cluster.
- **KMeans** = exact distributed Lloyd: k-means++ seeding on a
  deterministic bounded sample (smallest Knuth-hash of the coordinate
  bits — layout-independent), then per-iteration ONE `map_batches`
  pass emitting (k, 3) partial sums per block + a tiny hash exchange;
  each centroid update is snap-rounded to a power-of-two lattice
  (~2^-33 of the data scale) so block-split-dependent float
  reassociation cannot leak into the iteration — centroids and labels
  come out bit-identical across parallelism levels (asserted in
  tests). Final centroid ids are renumbered lexicographically by
  (x, y) so labels are stable across runs and cluster counts.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from geopolars_ray.geom.array import _expand_cell_rects
from geopolars_ray.stages.agg import barrier, hash_aggregate, hash_partitioned_map
from geopolars_ray.stages.hashjoin import hash_join
from geopolars_ray.stages.cc import connected_components
from geopolars_ray.stages.knn import dwithin_join

_KNUTH = np.uint64(0x9E3779B97F4A7C15)


def dbscan(
    ds,
    eps: float,
    min_points: int,
    *,
    id_col: str = "pid",
    x_col: str = "x",
    y_col: str = "y",
    num_partitions: int = 32,
    cell_size: float | None = None,
):
    """Density-based clustering (ST_ClusterDBSCAN semantics).

    A point is CORE when at least ``min_points`` points (counting
    itself) lie within ``eps``; core points within ``eps`` of each
    other share a cluster; a non-core point within ``eps`` of a core
    point joins that core's cluster (ties -> the minimum cluster id,
    deterministic where PostGIS is arbitrary); everything else is
    noise (null cluster). Returns a Dataset ``(id_col, cluster)`` —
    join it back to the input by id for the window-function shape.
    """
    pts = ds.map_batches(
        lambda b: pa.table({"pid": b[id_col], "x": b[x_col], "y": b[y_col]}),
        batch_format="pyarrow")
    tgts = ds.map_batches(
        lambda b: pa.table({"tid": b[id_col], "x": b[x_col], "y": b[y_col]}),
        batch_format="pyarrow")
    # every eps-pair once (pid < tid), no self pairs
    pairs = dwithin_join(
        pts, tgts, eps, point_id="pid", target_id="tid",
        canonical=True, num_partitions=num_partitions, cell_size=cell_size,
    ).map_batches(lambda b: b.select(["pid", "tid"]), batch_format="pyarrow")
    pairs = barrier(pairs)  # consumed three times below

    # neighbor counts: each canonical pair counts for BOTH endpoints;
    # +1 for self happens in the threshold
    need = int(min_points) - 1  # the point itself always counts
    if need <= 0:
        # min_points <= 1: EVERY point is core (PostGIS makes isolated
        # points singleton clusters). Counts built from emitted pairs
        # would never see zero-neighbor points, so take ids from the
        # input instead.
        core_ids = pts.map_batches(
            lambda b: pa.table({"node": b["pid"]}), batch_format="pyarrow")
    else:
        both = pairs.map_batches(
            lambda b: pa.table({"node": pa.concat_arrays(
                [b["pid"].combine_chunks(), b["tid"].combine_chunks()])}),
            batch_format="pyarrow")
        counts = hash_aggregate(both, ["node"], [("node", "count", "n_nbrs")],
                                num_partitions=num_partitions)

        def _core_only(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return b.filter(pc.greater_equal(b["n_nbrs"], need)).select(["node"])

        core_ids = counts.map_batches(_core_only, batch_format="pyarrow")
    core_ids = barrier(core_ids)  # small relative to pairs; reused 3x

    # Explicit schemas on every join below: a noise-only input has ZERO
    # eps-pairs, and the `pairs` barrier may then hold no schema at all
    # (ids are int64 — the cc stage pins that anyway).
    pair_schema = pa.schema([("pid", pa.int64()), ("tid", pa.int64())])
    node_schema = pa.schema([("node", pa.int64())])
    label_schema = pa.schema([("node", pa.int64()), ("cluster", pa.int64())])

    # core-core edges -> connected components
    cc_edges = hash_join(
        hash_join(pairs, core_ids, on=("pid",), right_on=("node",),
                  how="left_semi", num_partitions=num_partitions,
                  left_schema=pair_schema, right_schema=node_schema),
        core_ids, on=("tid",), right_on=("node",),
        how="left_semi", num_partitions=num_partitions,
        left_schema=pair_schema, right_schema=node_schema)
    labels = connected_components(
        cc_edges, src="pid", dst="tid",
        node_col="node", label_col="cluster",
        num_partitions=num_partitions)

    # isolated core points (no core neighbor) are their own cluster
    lonely = hash_join(core_ids, labels, on=("node",),
                       how="left_anti", num_partitions=num_partitions,
                       left_schema=node_schema, right_schema=label_schema)
    lonely = lonely.map_batches(
        lambda b: pa.table({"node": b["node"], "cluster": b["node"]}),
        batch_format="pyarrow")
    core_labels = barrier(labels.union(lonely))

    # border points: non-core endpoint of a pair whose other endpoint is
    # core -> min component among those core neighbors
    def _directed(b: pa.Table) -> pa.Table:
        p = b["pid"].combine_chunks()
        t = b["tid"].combine_chunks()
        return pa.table({"a": pa.concat_arrays([p, t]),
                         "b": pa.concat_arrays([t, p])})

    directed = pairs.map_batches(_directed, batch_format="pyarrow")
    dir_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    # keep rows whose b-side is core, then swap in b's cluster label
    to_core = hash_join(directed, core_labels, on=("b",), right_on=("node",),
                        how="inner", num_partitions=num_partitions,
                        left_schema=dir_schema, right_schema=label_schema)
    # drop rows whose a-side is itself core (those are already labeled)
    border_edges = hash_join(
        to_core, core_ids, on=("a",), right_on=("node",),
        how="left_anti", num_partitions=num_partitions,
        left_schema=pa.schema([("a", pa.int64()), ("b", pa.int64()),
                               ("cluster", pa.int64())]),
        right_schema=node_schema)
    border = hash_aggregate(
        border_edges.map_batches(
            lambda b: pa.table({"node": b["a"], "cluster": b["cluster"]}),
            batch_format="pyarrow"),
        ["node"], [("cluster", "min", "cluster")],
        num_partitions=num_partitions)

    # noise: never emitted — left-join the result back in the caller, or
    # use the id->cluster map as-is (absent id == noise/null)
    return core_labels.union(border)


def cluster_within(
    ds,
    distance: float,
    *,
    id_col: str = "gid",
    geometry_col: str = "geometry",
    cell_size: float | None = None,
    num_partitions: int = 32,
    strip_cost: int = 4_000_000,
):
    """ST_ClusterWithin over GENERAL geometries: single-linkage clusters
    of rows whose pairwise geometry distance is <= ``distance``
    (``distance=0`` = ST_ClusterIntersecting — zero distance IS
    intersection for closed geometries).

    PBSM shape: every row replicates to the grid cells of its
    distance/2-expanded bbox (two within-range rows always share a
    cell), one hash exchange co-locates cells, and each cell generates
    pairs with a strip-chunked bbox prefilter, dedupes across cells by
    the REFERENCE-POINT rule (a pair counts only in the cell containing
    the lexicographic max of the two expanded bbox minima — the classic
    partition-based spatial-merge dedup, no second exchange), and
    refines with the exact batched geometry `distance` kernel. Pairs
    then resolve through `connected_components`; singletons label
    themselves. Returns ``(id_col, cluster)`` for EVERY input row,
    cluster = min member id (deterministic)."""
    import pyarrow.compute as pc

    from geopolars_ray.geom import decode_wkb
    from geopolars_ray.geom import kernels as K

    if distance < 0:
        raise ValueError("distance must be >= 0")
    if cell_size is None:
        # one cheap pre-pass: cells ~4x the mean expanded-bbox extent so
        # typical rows land in 1-4 cells. Any positive value is CORRECT
        # (the reference-point dedup is cell-size-invariant) — this only
        # tunes the replication factor.
        def _stat(b: pa.Table) -> pa.Table:
            x0, y0, x1, y1 = K.bounds(decode_wkb(b[geometry_col]))
            ext = np.nan_to_num(np.maximum(x1 - x0, y1 - y0))
            return pa.table({"s": [float(ext.sum())], "n": [float(len(ext))]})

        st = ds.map_batches(_stat, batch_format="pyarrow").take_all()
        tot_n = sum(r["n"] for r in st)
        mean_ext = (sum(r["s"] for r in st) / tot_n) if tot_n else 1.0
        cell_size = max(4.0 * (mean_ext + distance), 1e-9)
    cell = float(cell_size)
    half = distance / 2.0

    def replicate(b: pa.Table) -> pa.Table:
        ga = decode_wkb(b[geometry_col])
        x0, y0, x1, y1 = K.bounds(ga)
        ids = b[id_col].to_numpy(zero_copy_only=False)
        wkb = b[geometry_col]
        valid = np.flatnonzero(np.isfinite(x0))

        def index(v):
            return np.floor(v[valid] / cell).astype(np.int64)

        item, cells = _expand_cell_rects(index(x0 - half), index(x1 + half),
                                         index(y0 - half), index(y1 + half), 0x9E3779B1)
        idx = valid[item]
        return pa.table({
            "_cell": pa.array(cells, pa.int64()),
            "gid": pa.array(ids[idx] if len(idx) else np.array([], np.int64)),
            "_ex0": pa.array((x0 - half)[idx]),
            "_ey0": pa.array((y0 - half)[idx]),
            "_ex1": pa.array((x1 + half)[idx]),
            "_ey1": pa.array((y1 + half)[idx]),
            "_wkb": wkb.take(pa.array(idx)) if len(idx) else wkb.slice(0, 0),
        })

    cand = ds.map_batches(replicate, batch_format="pyarrow")

    def per_cell(tbl: pa.Table) -> pa.Table:
        tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[("_cell", "ascending")]))
        cells = tbl["_cell"].to_numpy(zero_copy_only=False)
        ex0 = tbl["_ex0"].to_numpy(zero_copy_only=False)
        ey0 = tbl["_ey0"].to_numpy(zero_copy_only=False)
        ex1 = tbl["_ex1"].to_numpy(zero_copy_only=False)
        ey1 = tbl["_ey1"].to_numpy(zero_copy_only=False)
        gids = tbl["gid"].to_numpy(zero_copy_only=False)
        ga = decode_wkb(tbl["_wkb"])
        a_out, b_out = [], []
        bounds_idx = np.flatnonzero(np.concatenate(
            [[True], cells[1:] != cells[:-1], [True]]))
        for s, e in zip(bounds_idx[:-1], bounds_idx[1:]):
            m = e - s
            if m < 2:
                continue
            this_cell = cells[s]
            strip = max(1, strip_cost // max(m, 1))
            for lo in range(s, e, strip):
                hi = min(lo + strip, e)
                # expanded-bbox overlap == centers within distance bound
                ov = ((ex0[lo:hi, None] <= ex1[None, s:e])
                      & (ex0[None, s:e] <= ex1[lo:hi, None])
                      & (ey0[lo:hi, None] <= ey1[None, s:e])
                      & (ey0[None, s:e] <= ey1[lo:hi, None])
                      & (gids[lo:hi, None] < gids[None, s:e]))
                ii, jj = np.nonzero(ov)
                if not len(ii):
                    continue
                ii = ii + lo
                jj = jj + s
                # reference-point dedup: count the pair only in the cell
                # holding the overlap region's min corner
                rx = np.maximum(ex0[ii], ex0[jj])
                ry = np.maximum(ey0[ii], ey0[jj])
                rcell = (np.floor(rx / cell).astype(np.int64) * np.int64(0x9E3779B1)
                         + np.floor(ry / cell).astype(np.int64))
                keep = rcell == this_cell
                ii, jj = ii[keep], jj[keep]
                if not len(ii):
                    continue
                d = K.distance(ga.take(ii), ga.take(jj))
                ok = d <= distance
                a_out.append(gids[ii[ok]])
                b_out.append(gids[jj[ok]])
        if a_out:
            return pa.table({"id_a": np.concatenate(a_out),
                             "id_b": np.concatenate(b_out)})
        return pa.table({"id_a": pa.array([], pa.int64()),
                         "id_b": pa.array([], pa.int64())})

    pairs = hash_partitioned_map(cand, ["_cell"], per_cell,
                                 num_partitions=num_partitions)
    labels = connected_components(pairs, src="id_a", dst="id_b",
                                  node_col="node", label_col="cluster",
                                  num_partitions=num_partitions)
    ids = ds.map_batches(
        lambda b: pa.table({"node": b[id_col]}), batch_format="pyarrow")
    lonely = hash_join(ids, labels, on=("node",),
                       how="left_anti", num_partitions=num_partitions)
    lonely = lonely.map_batches(
        lambda b: pa.table({"node": b["node"], "cluster": b["node"]}),
        batch_format="pyarrow")
    return labels.union(lonely)


def cluster_intersecting(ds, **kw):
    """ST_ClusterIntersecting = ``cluster_within(0)``."""
    return cluster_within(ds, 0.0, **kw)


def _seed_sample(ds, x_col: str, y_col: str, sample_size: int):
    """Deterministic, layout-independent sample: the ``sample_size``
    points with the smallest Knuth hash of their coordinate bit
    patterns. One per-block partial top-k, one small sort+limit."""

    def partial(b: pa.Table) -> pa.Table:
        x = b[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        y = b[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        h = (x.view(np.uint64) * _KNUTH) ^ (y.view(np.uint64) + _KNUTH)
        h = h * _KNUTH
        k = min(sample_size, len(h))
        idx = np.argpartition(h, k - 1)[:k] if k < len(h) else np.arange(len(h))
        return pa.table({"x": x[idx], "y": y[idx], "h": h[idx]})

    part = ds.map_batches(partial, batch_format="pyarrow")
    top = part.sort("h").limit(sample_size).take_all()
    return np.array([[r["x"], r["y"]] for r in top], dtype=np.float64)


def _kmeanspp(sample: np.ndarray, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = len(sample)
    first = int(rng.integers(n))
    cents = [sample[first]]
    d2 = ((sample - cents[0]) ** 2).sum(axis=1)
    for _ in range(1, k):
        tot = float(d2.sum())
        if tot <= 0:
            cents.append(sample[int(rng.integers(n))])
            continue
        r = rng.random() * tot
        i = int(np.searchsorted(np.cumsum(d2), r))
        i = min(i, n - 1)
        cents.append(sample[i])
        d2 = np.minimum(d2, ((sample - cents[-1]) ** 2).sum(axis=1))
    return np.asarray(cents, dtype=np.float64)


def kmeans(
    ds,
    k: int,
    *,
    x_col: str = "x",
    y_col: str = "y",
    max_iter: int = 20,
    tol: float = 1e-9,
    sample_size: int = 8192,
    seed: int = 7,
    cluster_col: str = "cluster",
):
    """K-means point clustering (ST_ClusterKMeans semantics): exact
    distributed Lloyd iterations, then one assignment pass appending
    ``cluster_col``. Returns ``(labeled_ds, centroids)`` with centroids
    renumbered lexicographically by (x, y) so cluster ids are stable
    across runs and parallelism levels."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # dedupe coordinates so the distinct-points check is honest — without
    # it duplicate-heavy inputs pass the guard and k-means++ silently
    # seeds identical centroids (permanently empty clusters)
    sample = np.unique(_seed_sample(ds, x_col, y_col, sample_size), axis=0)
    if len(sample) < k:
        raise ValueError(f"k={k} exceeds the {len(sample)} distinct sampled points")
    cents = _kmeanspp(sample, k, seed)

    for _ in range(max_iter):
        c = cents.copy()

        def partial(b: pa.Table, cents_=c) -> pa.Table:
            x = b[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
            y = b[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
            # (n, k) distance block; k is small so this is fine per batch
            d2 = (x[:, None] - cents_[None, :, 0]) ** 2 \
                + (y[:, None] - cents_[None, :, 1]) ** 2
            a = d2.argmin(axis=1)
            sx = np.bincount(a, weights=x, minlength=len(cents_))
            sy = np.bincount(a, weights=y, minlength=len(cents_))
            ct = np.bincount(a, minlength=len(cents_))
            return pa.table({"cid": np.arange(len(cents_), dtype=np.int64),
                             "sx": sx, "sy": sy, "ct": ct.astype(np.float64)})

        parts = ds.map_batches(partial, batch_format="pyarrow")
        agg = hash_aggregate(parts, ["cid"],
                             [("sx", "sum", "sx"), ("sy", "sum", "sy"),
                              ("ct", "sum", "ct")], num_partitions=8).take_all()
        new = cents.copy()
        for r in agg:
            if r["ct"] > 0:
                new[int(r["cid"])] = (r["sx"] / r["ct"], r["sy"] / r["ct"])
        # Snap each update to a power-of-two lattice ~2^-33 of the data
        # scale: block-split-dependent float reassociation perturbs the
        # partial sums by ~1e-12 relative, and without absorbing it the
        # iteration (and therefore labels) would depend on parallelism.
        scale = max(1.0, float(np.abs(new).max()))
        q = 2.0 ** (math.ceil(math.log2(scale)) - 33)
        new = np.round(new / q) * q
        shift = float(np.abs(new - cents).max())
        cents = new
        if shift <= tol:
            break

    # stable ids: renumber by (x, y)
    order = np.lexsort((cents[:, 1], cents[:, 0]))
    cents = cents[order]
    final = cents.copy()

    def assign(b: pa.Table) -> pa.Table:
        x = b[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        y = b[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        d2 = (x[:, None] - final[None, :, 0]) ** 2 \
            + (y[:, None] - final[None, :, 1]) ** 2
        return b.append_column(cluster_col,
                               pa.array(d2.argmin(axis=1).astype(np.int64)))

    return ds.map_batches(assign, batch_format="pyarrow"), cents
