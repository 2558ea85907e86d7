"""The correctness-gate query surface: Ray pipelines + DuckDB oracle SQL.

Every entry exercises engine operators (SURVEY.md §2) over the driver's
testdata tables. Geometry inputs are DERIVED deterministically from integer
keys with float-exact arithmetic (halves/quarters, integer-valued sums, cent
casts), so the DuckDB oracle comparison is bit-exact — no tolerance needed.
Where an op is not SQL-expressible (convex hull, S2, geodesic, minhash, ANN)
the query ships without an oracle and is validated in pytest instead.

Derivations (mirrored EXACTLY in the SQL strings):

    customer point:  x = (c_custkey % 720)/2.0 - 179.75
                     y = ((c_custkey*7) % 360)/2.0 - 89.75
    supplier point:  sx = ((s_suppkey*37) % 720)/2.0 - 179.75
                     sy = ((s_suppkey*53) % 360)/2.0 - 89.75
    nation rect:     xmin = (n_nationkey % 12)*30.0 - 180.0
                     ymin = ((n_nationkey*5) % 9)*20.0 - 90.0
                     w    = 10.0 + (n_nationkey % 3)*10.0
                     h    = 10.0 + (n_nationkey % 2)*10.0
      (cell positions are unique mod 36 -> the 25 rects are disjoint)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from geopolars_ray.geom import GeometryArray, decode_wkb, encode_wkb
from geopolars_ray.geom import kernels as K
from geopolars_ray.geom import crs as crs_mod
from geopolars_ray.geom import s2 as s2_mod
from geopolars_ray.geom import tiles as tiles_mod
from geopolars_ray.stages.geo import geo_op, geo_ops, points_from_xy, geo_explode
from geopolars_ray.stages.join import broadcast_spatial_join
from geopolars_ray.stages.knn import euclidean_knn

CELL = 15.0  # grid tile size for the rollup queries
_NY = 12  # ceil(180/15)

# shared SQL fragments (must mirror the numpy derivations above exactly)
_CX = "(c_custkey % 720)/2.0 - 179.75"
_CY = "((c_custkey*7) % 360)/2.0 - 89.75"
_SX = "((s_suppkey*37) % 720)/2.0 - 179.75"
_SY = "((s_suppkey*53) % 360)/2.0 - 89.75"
_RECT = (
    "SELECT n_nationkey, (n_nationkey % 12)*30.0 - 180.0 AS xmin, "
    "((n_nationkey*5) % 9)*20.0 - 90.0 AS ymin, "
    "10.0 + (n_nationkey % 3)*10.0 AS w, 10.0 + (n_nationkey % 2)*10.0 AS h FROM nation"
)
_CPTS = f"SELECT c_custkey, c_nationkey, {_CX} AS x, {_CY} AS y FROM customer"


def _read(sf_dir: str, table: str, columns=None):
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _read_exchange(sf_dir: str, table: str, columns=None, target_block_bytes: int = 32 << 20):
    """Read for pipelines that funnel straight into a shuffle/groupby.

    Delegates to :func:`geopolars_ray.sources.io.read_parquet_exchange` —
    see its docstring for the measured rationale (sort-exchange fixed costs
    scale with input block count, not bytes)."""
    from geopolars_ray.sources.io import read_parquet_exchange

    return read_parquet_exchange(
        f"{sf_dir}/{table}.parquet", columns=columns, target_block_bytes=target_block_bytes
    )


def _customer_xy(batch: pa.Table) -> pa.Table:
    k = batch["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    x = (k % 720) / 2.0 - 179.75
    y = ((k * 7) % 360) / 2.0 - 89.75
    batch = batch.append_column("x", pa.array(x))
    return batch.append_column("y", pa.array(y))


def customer_points(sf_dir: str, with_geometry: bool = True, for_exchange: bool = False):
    """customer -> (c_custkey, c_nationkey, x, y [, geometry WKB Point]).

    ``for_exchange`` sizes read blocks by bytes (see ``_read_exchange``) for
    consumers that funnel straight into a shuffle/groupby — measured 4.1s ->
    0.9s on the sf0.1 partitioned spatial join and 1.5-3.1s -> ~1s on kNN
    (r4: the partial-top-k is cheap enough that the merge exchange's
    per-block fixed cost dominated); compute-bound consumers (broadcast PIP
    actors) keep the default split."""
    reader = _read_exchange if for_exchange else _read
    ds = reader(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    ds = ds.map_batches(_customer_xy, batch_format="pyarrow")
    if with_geometry:
        ds = ds.map_batches(points_from_xy("x", "y"), batch_format="pyarrow")
    return ds


def nation_rects(sf_dir: str) -> pa.Table:
    """Small polygon table (driver-side; broadcast by the joins)."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey"])
    n = t["n_nationkey"].to_numpy().astype(np.int64)
    xmin = (n % 12) * 30.0 - 180.0
    ymin = ((n * 5) % 9) * 20.0 - 90.0
    w = 10.0 + (n % 3) * 10.0
    h = 10.0 + (n % 2) * 10.0
    geoms = [
        (
            "polygon",
            [[(xmin[i], ymin[i]), (xmin[i] + w[i], ymin[i]), (xmin[i] + w[i], ymin[i] + h[i]),
              (xmin[i], ymin[i] + h[i]), (xmin[i], ymin[i])]],
        )
        for i in range(len(n))
    ]
    return pa.table(
        {
            "n_nationkey": t["n_nationkey"],
            "geometry": encode_wkb(GeometryArray.from_pylist(geoms)),
        }
    )


# --------------------------------------------------------------------------
# geo queries (oracle-checked)
# --------------------------------------------------------------------------


def q_geo_affine(sf_dir: str):
    """translate THEN affine_transform chained on the geometry column (both
    kernels in one gate entry; r3 registry fits the driver's 50-query cap by
    merging redundant entries, see COVERAGE.md). Emits the translated coords
    and the affine-of-translated coords; the oracle mirrors the chain."""
    ds = customer_points(sf_dir)
    ds = ds.map_batches(
        geo_ops([
            ("translate", dict(x=1.25, y=-2.5)),
            ("x", {}, "xt"),
            ("y", {}, "yt"),
            ("affine_transform", dict(matrix=[2.0, 0.0, 0.0, 0.5, 10.25, -3.5])),
            ("x", {}, "xa"),
            ("y", {}, "ya"),
        ]),
        batch_format="pyarrow",
    )
    return ds.select_columns(["c_custkey", "xt", "yt", "xa", "ya"])


def q_geo_rect_stats(sf_dir: str):
    """area / perimeter / centroid / envelope over the nation rect polygons."""
    rects = nation_rects(sf_dir)
    ds = ray.data.from_arrow(rects)
    ds = ds.map_batches(geo_op("area"), batch_format="pyarrow")
    ds = ds.map_batches(geo_op("euclidean_length", out_col="perimeter"), batch_format="pyarrow")

    def cen(batch: pa.Table) -> pa.Table:
        ga = decode_wkb(batch["geometry"])
        c = K.centroid(ga)
        batch = batch.append_column("cx", pa.array(c.coords[:, 0]))
        batch = batch.append_column("cy", pa.array(c.coords[:, 1]))
        xmin, ymin, xmax, ymax = K.bounds(K.envelope(ga))
        for nm, v in (("exmin", xmin), ("eymin", ymin), ("exmax", xmax), ("eymax", ymax)):
            batch = batch.append_column(nm, pa.array(v))
        return batch

    ds = ds.map_batches(cen, batch_format="pyarrow")
    return ds.select_columns(["n_nationkey", "area", "perimeter", "cx", "cy", "exmin", "eymin", "exmax", "eymax"])


def _sorted_key_coords(g: pa.Table, key: str = "c_nationkey"):
    """Partition table -> (keys, key_arrow_type, flat (c,2) coords, offsets):
    rows sorted by (key, c_custkey), one offset range per distinct key.
    Vectorized (np.lexsort + column_stack); no per-coordinate Python objects
    — a partition holds ~(#keys/P) keys' rows, never built
    into Python lists."""
    nk = g[key].to_numpy(zero_copy_only=False).astype(np.int64)
    ck = g["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    x = g["x"].to_numpy(zero_copy_only=False)
    y = g["y"].to_numpy(zero_copy_only=False)
    order = np.lexsort((ck, nk))
    nk = nk[order]
    coords = np.column_stack([x[order], y[order]])
    cuts = np.nonzero(np.diff(nk))[0] + 1
    offsets = np.concatenate([[0], cuts, [len(nk)]]).astype(np.int64)
    return nk[offsets[:-1]], g.schema.field(key).type, coords, offsets


def q_geo_length_path(sf_dir: str):
    """Per-nation path length + envelope bounds in one gate entry (r3 merge
    of the former geo_envelope_group; both halves oracle-checked).

    Scale shape: the path half runs through
    ``hash_partitioned_map`` with vectorized multi-LineString construction
    (partition-level, not per-key-task, materialization — holding a key's
    rows together is inherent to a per-key path); the envelope half is a
    two-phase min/max ``hash_aggregate`` that never materializes a group;
    the two 25-row sides meet in a ``hash_join``."""
    from geopolars_ray.stages.agg import hash_aggregate, hash_partitioned_map
    from geopolars_ray.stages.hashjoin import hash_join

    pts = customer_points(sf_dir, with_geometry=False, for_exchange=True)

    def paths(g: pa.Table) -> pa.Table:
        keys, ktype, coords, offsets = _sorted_key_coords(g)
        ga = GeometryArray.from_linestrings(coords, offsets)
        ln = np.round(K.euclidean_length(ga), 6)
        return pa.table(
            {
                "c_nationkey": pa.array(keys).cast(ktype),
                "path_length": pa.array(ln),
            }
        )

    plen = hash_partitioned_map(
        pts.select_columns(["c_nationkey", "c_custkey", "x", "y"]), ["c_nationkey"], paths, 8
    )
    env = hash_aggregate(
        pts.select_columns(["c_nationkey", "x", "y"]),
        ["c_nationkey"],
        [("x", "min", "xmin"), ("y", "min", "ymin"), ("x", "max", "xmax"), ("y", "max", "ymax")],
        num_partitions=8,
    )
    return hash_join(plen, env, on=["c_nationkey"], how="inner", num_partitions=2)


def q_geo_distance(sf_dir: str):
    """Row-wise distance kernel: customer point ⊗ its nation's rect centroid."""
    rects = nation_rects(sf_dir)
    cen = K.centroid(decode_wkb(rects["geometry"]))
    nk = rects["n_nationkey"].to_numpy().astype(np.int64)
    # dense key -> centroid arrays: the per-batch lookup is a vectorized
    # gather, not a per-row dict probe
    size = int(nk.max()) + 1
    cx_lut = np.zeros(size)
    cy_lut = np.zeros(size)
    cx_lut[nk] = cen.coords[:, 0]
    cy_lut[nk] = cen.coords[:, 1]
    ref = ray.put((cx_lut, cy_lut))

    present_lut = np.zeros(size, dtype=bool)
    present_lut[nk] = True
    ref2 = ray.put(present_lut)

    class Dist:
        def __init__(self, luts, present):
            self.cx_lut, self.cy_lut = ray.get(luts)
            self.present = ray.get(present)

        def __call__(self, batch: pa.Table) -> pa.Table:
            keys = batch["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            if (keys < 0).any() or (keys >= len(self.present)).any() or not self.present[keys].all():
                raise KeyError("c_nationkey not present in nation lookup")
            cx = self.cx_lut[keys]
            cy = self.cy_lut[keys]
            other = encode_wkb(GeometryArray.from_points(cx, cy))
            batch = batch.append_column("geometry2", other)
            ga1 = decode_wkb(batch["geometry"])
            ga2 = decode_wkb(batch["geometry2"])
            return batch.append_column("distance", pa.array(K.distance(ga1, ga2)))

    from geopolars_ray.stages.workercache import worker_cached

    # task-based, per-worker cached; the refs KEY the cache, so a different
    # sf_dir's lookup tables never alias a previous invocation's instance
    ds = customer_points(sf_dir).map_batches(
        worker_cached(Dist, luts=ref, present=ref2), batch_format="pyarrow"
    )
    return ds.select_columns(["c_custkey", "c_nationkey", "distance"])


def q_geo_grid_tile(sf_dir: str):
    """Grid tile assignment CHAINED with distributed dissolve (registry-cap
    trick): each row contributes a unit square at integer offset
    ``c_custkey % 7`` and the squares dissolve per tile
    (`stages/dissolve.py` — map-side partial union + one hash exchange).
    Adjacent offsets share edges, so seams really dissolve; missing
    offsets leave disjoint parts. The dissolved area is therefore exactly
    COUNT(DISTINCT c_custkey % 7) per tile and ``n_rows`` from the
    dissolve equals the old n_pts — both closed-form in SQL."""
    from geopolars_ray.stages.dissolve import dissolve

    def tile_and_square(batch: pa.Table) -> pa.Table:
        x = batch["x"].to_numpy(zero_copy_only=False)
        y = batch["y"].to_numpy(zero_copy_only=False)
        t = tiles_mod.grid_tile_id(x, y, cell_deg=CELL)
        k = batch["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        # vectorized unit-square column: closed 5-point rings
        n = len(k)
        x0 = (k % 7).astype(np.float64)
        ring = np.zeros((n, 5, 2))
        ring[:, 0, 0] = x0
        ring[:, 1, 0] = x0 + 1.0
        ring[:, 2, 0] = x0 + 1.0
        ring[:, 2, 1] = 1.0
        ring[:, 3, 0] = x0
        ring[:, 3, 1] = 1.0
        ring[:, 4, 0] = x0
        seq = np.arange(n + 1, dtype=np.int64)
        ga = GeometryArray(
            types=np.full(n, 3, dtype=np.int8),  # POLYGON
            geom_offsets=seq, part_offsets=seq, ring_offsets=seq * 5,
            coords=ring.reshape(-1, 2),
        )
        return pa.table({"tile": pa.array(t), "geometry": encode_wkb(ga)})

    ds = customer_points(sf_dir, with_geometry=False).map_batches(
        tile_and_square, batch_format="pyarrow")
    out = dissolve(ds, "tile", count_col="n_pts", num_partitions=8)

    def finish(batch: pa.Table) -> pa.Table:
        area = K.area(decode_wkb(batch["geometry"]))
        return pa.table({
            "tile": batch["tile"],
            "n_pts": batch["n_pts"],
            "dissolved_area": pa.array(np.rint(area).astype(np.int64)),
        })

    return out.map_batches(finish, batch_format="pyarrow")


def q_geo_sjoin_left(sf_dir: str):
    """Left PIP join; unmatched rect key encoded as -1 (avoids nullable ints)."""
    ds = customer_points(sf_dir, with_geometry=False)
    out = broadcast_spatial_join(ds, nation_rects(sf_dir), lon_col="x", lat_col="y", how="left", concurrency=2)

    def fill(batch: pa.Table) -> pa.Table:
        k = pc.fill_null(batch["n_nationkey"], pa.scalar(-1, batch["n_nationkey"].type))
        batch = batch.drop_columns(["n_nationkey"]).append_column("rect_key", k)
        return batch

    return out.map_batches(fill, batch_format="pyarrow").select_columns(["c_custkey", "rect_key"])


def q_geo_tile_rollup(sf_dir: str):
    """Mini-flagship: tiles + PIP join + two-phase per-tile aggregation.

    sum_x/sum_y are exact (all coords are quarter-multiples), so the oracle
    comparison is bit-exact despite distributed summation order.
    """
    ds = customer_points(sf_dir, with_geometry=False)

    def tile(batch: pa.Table) -> pa.Table:
        x = batch["x"].to_numpy(zero_copy_only=False)
        y = batch["y"].to_numpy(zero_copy_only=False)
        return batch.append_column("tile", pa.array(tiles_mod.grid_tile_id(x, y, cell_deg=CELL)))

    ds = ds.map_batches(tile, batch_format="pyarrow")
    ds = broadcast_spatial_join(ds, nation_rects(sf_dir), lon_col="x", lat_col="y", how="inner", concurrency=2)

    from geopolars_ray.stages.agg import hash_aggregate

    return hash_aggregate(
        ds.select_columns(["tile", "n_nationkey", "x", "y"]),
        keys=["tile", "n_nationkey"],
        spec=[("x", "count", "n_pts"), ("x", "sum", "sum_x"), ("y", "sum", "sum_y")],
        num_partitions=8,
    )


def q_geo_knn(sf_dir: str):
    """kNN: 3 nearest customer points per supplier point (exact distances)."""
    import pyarrow.parquet as pq

    sup = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey"])
    sk = sup["s_suppkey"].to_numpy().astype(np.int64)
    queries = {
        "qid": sk,
        "qx": ((sk * 37) % 720) / 2.0 - 179.75,
        "qy": ((sk * 53) % 360) / 2.0 - 89.75,
    }
    # exchange-sized read (r4 A/B: 1.5-3.1s -> 0.9-1.2s warm): the partial
    # top-k stage is cheap, so the hash-partitioned merge's fixed per-block
    # cost dominates at the default over-split
    pts = customer_points(sf_dir, with_geometry=False, for_exchange=True)
    out = euclidean_knn(pts, queries, k=3, x_col="x", y_col="y", id_col="c_custkey")

    def rename(batch: pa.Table) -> pa.Table:
        idx = batch.column_names.index("qid")
        return batch.set_column(idx, "s_suppkey", batch["qid"])

    return out.map_batches(rename, batch_format="pyarrow")


def q_geo_geojson(sf_dir: str):
    """Multi-format read_file gate (r3: GeoJSONSeq + GeoPackage): customer
    points are written BOTH as newline-delimited GeoJSON features and as a
    .gpkg layer (pure-SQLite writer), read back through the two distributed
    read paths (read_text+parse / sharded rowid SELECTs), unioned with a
    format marker, and x/y extracted through the WKB kernels. Oracle = the
    same derivation in SQL, twice."""
    import hashlib
    import os

    import pyarrow.parquet as pq

    from geopolars_ray.geom import encode_wkb
    from geopolars_ray.sources.geojson import read_geojson, write_geojsonl
    from geopolars_ray.sources.gpkg import read_gpkg, write_gpkg

    t = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey"])
    k = t["c_custkey"].to_numpy().astype(np.int64)
    x = (k % 720) / 2.0 - 179.75
    y = ((k * 7) % 360) / 2.0 - 89.75
    tab = pa.table(
        {"c_custkey": t["c_custkey"], "geometry": encode_wkb(GeometryArray.from_points(x, y))}
    )
    tag = hashlib.sha1(sf_dir.encode()).hexdigest()[:10]
    path = f"/tmp/geopolars_ray_gj_{tag}.geojsonl"
    tmp = f"{path}.{os.getpid()}.tmp"  # per-process tmp: concurrent runs don't interleave
    write_geojsonl(tab, tmp)
    os.replace(tmp, path)  # atomic publish: re-runs overwrite idempotently
    gpath = f"/tmp/geopolars_ray_gp_{tag}.gpkg"
    gtmp = f"{gpath}.{os.getpid()}.tmp"
    write_gpkg(tab, gtmp, layer="customers", crs="EPSG:4326")
    os.replace(gtmp, gpath)

    def mark(fmt: str):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.append_column("fmt", pa.array([fmt] * len(batch), pa.string()))

        return fn

    gj = read_geojson(path).map_batches(mark("geojsonl"), batch_format="pyarrow")
    gp = read_gpkg(gpath, rows_per_shard=4096).map_batches(mark("gpkg"), batch_format="pyarrow")
    ds = gj.union(gp)
    ds = ds.map_batches(geo_ops([("x", {}, "gx"), ("y", {}, "gy")]), batch_format="pyarrow")
    return ds.select_columns(["c_custkey", "fmt", "gx", "gy"])


def q_geo_utm(sf_dir: str):
    """General to_crs surface: project every customer point to ITS OWN UTM
    zone (Krüger-series transverse Mercator) and back; emit the zone and a
    round-trip-exactness flag. Kernel correctness vs published anchors
    (quarter meridian, EPSG:3035 center) is pytest-validated — the SQL
    oracle checks the zone arithmetic and that every round-trip closes."""

    def fn(batch: pa.Table) -> pa.Table:
        x = batch["x"].to_numpy(zero_copy_only=False)
        y = batch["y"].to_numpy(zero_copy_only=False)
        zone = crs_mod.utm_zone_of(x)
        lon2 = np.empty_like(x)
        lat2 = np.empty_like(y)
        for z in np.unique(zone):
            m = zone == z
            E, N = crs_mod.utm_forward(x[m], y[m], int(z))
            lon2[m], lat2[m] = crs_mod.utm_inverse(E, N, int(z))
        ok = (np.abs(lon2 - x) < 1e-6) & (np.abs(lat2 - y) < 1e-6)
        batch = batch.append_column("zone", pa.array(zone))
        return batch.append_column("rt_ok", pa.array(ok))

    ds = customer_points(sf_dir, with_geometry=False).map_batches(fn, batch_format="pyarrow")
    return ds.select_columns(["c_custkey", "zone", "rt_ok"])


def q_geo_knn_join(sf_dir: str):
    """Large-large distributed kNN join (expanding-cell passes, no driver
    materialization): 3 nearest suppliers per customer point."""
    from geopolars_ray.stages.knn import knn_join

    def sup_xy(batch: pa.Table) -> pa.Table:
        k = batch["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        x = ((k * 37) % 720) / 2.0 - 179.75
        y = ((k * 53) % 360) / 2.0 - 89.75
        batch = batch.append_column("x", pa.array(x))
        return batch.append_column("y", pa.array(y))

    # exchange-sized reads: knn_join re-partitions by cell id immediately,
    # so parallelism is governed by cell partitions, not read blocks — and
    # its multi-pass exchanges pay per-input-block fixed costs (measured
    # 9.3s -> 3.0s at sf0.1 from block sizing alone)
    sup = _read_exchange(sf_dir, "supplier", columns=["s_suppkey"]).map_batches(sup_xy, batch_format="pyarrow")
    pts = customer_points(sf_dir, with_geometry=False, for_exchange=True)

    def sel(batch: pa.Table) -> pa.Table:
        return batch.select(["c_custkey", "x", "y"])

    out = knn_join(
        pts.map_batches(sel, batch_format="pyarrow"),
        sup,
        k=3,
        # coarse first cell: candidate cross-products stay partition-local in
        # the cell-partitioned design, so one completing pass beats several
        # small ones (each pass pays a fixed all-to-all cost)
        cell_deg=45.0,
        x_col="x",
        y_col="y",
        point_id="c_custkey",
        target_id="s_suppkey",
        num_partitions=8,
    )
    return out


def q_geo_explode(sf_dir: str):
    """Per-nation MultiPoint -> explode -> one Point row per part.
    Vectorized MultiPoint construction via hash_partitioned_map."""
    from geopolars_ray.stages.agg import hash_partitioned_map

    def mp(g: pa.Table) -> pa.Table:
        keys, ktype, coords, offsets = _sorted_key_coords(g)
        ga = GeometryArray.from_multipoints(coords, offsets)
        return pa.table(
            {
                "c_nationkey": pa.array(keys).cast(ktype),
                "geometry": encode_wkb(ga),
            }
        )

    grouped = hash_partitioned_map(
        customer_points(sf_dir, with_geometry=False, for_exchange=True).select_columns(
            ["c_nationkey", "c_custkey", "x", "y"]
        ),
        ["c_nationkey"],
        mp,
        8,
    )
    exploded = grouped.map_batches(geo_explode(), batch_format="pyarrow")
    exploded = exploded.map_batches(geo_ops([("x", {}, "x"), ("y", {}, "y")]), batch_format="pyarrow")
    return exploded.select_columns(["c_nationkey", "x", "y"])


def q_geo_to_crs_x(sf_dir: str):
    """WebMercator x through the to_crs kernel (float-exact vs SQL constant)."""
    ds = customer_points(sf_dir)
    ds = ds.map_batches(
        geo_ops([
            ("to_crs", dict(from_crs="EPSG:4326", to_crs="EPSG:3857")),
            ("x", {}, "mercator_x"),
        ]),
        batch_format="pyarrow",
    )
    return ds.select_columns(["c_custkey", "mercator_x"])


# --------------------------------------------------------------------------
# geo queries (rows-only: not SQL-expressible)
# --------------------------------------------------------------------------


def q_geo_convex_hull(sf_dir: str):
    """Per-nation convex hull over points IN CONVEX POSITION — oracle-checked
    (r3; was rows-only).

    Derivation: t = c_custkey % 1000, point = (t, t*t). All distinct points
    lie on a strictly convex parabola, so the hull is exactly the distinct
    point set ordered by t: hull_points = n_distinct + 1 (closed ring) and
    hull_area is the shoelace polygon over t-sorted points — both
    SQL-expressible. Every shoelace term is an exact integer (t <= 999 ->
    |t_i*t_j^2| < 1e9, partial sums < 1e12 << 2^53), so the float sum is
    bit-exact in ANY order and the kernel/oracle compare needs no tolerance.

    The kernel path is the real monotone-chain `convex_hull` over vectorized
    per-partition MultiPoint construction (`hash_partitioned_map`, no per-key
    map_groups task)."""
    from geopolars_ray.stages.agg import hash_partitioned_map

    ds = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    def derive(batch: pa.Table) -> pa.Table:
        k = batch["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = (k % 1000).astype(np.float64)
        batch = batch.append_column("x", pa.array(t))
        return batch.append_column("y", pa.array(t * t))

    ds = ds.map_batches(derive, batch_format="pyarrow")

    def hull(g: pa.Table) -> pa.Table:
        # duplicate t values per key are fine: the monotone-chain kernel
        # lexsorts and drops duplicate coordinates itself (kernels.py)
        keys, ktype, coords, offsets = _sorted_key_coords(g)
        ga = GeometryArray.from_multipoints(coords, offsets)
        h = K.convex_hull(ga)
        return pa.table(
            {
                "c_nationkey": pa.array(keys).cast(ktype),
                "hull_area": pa.array(K.area(h)),
                "hull_points": pa.array(h.coords_per_geom().astype(np.int64)),
            }
        )

    return hash_partitioned_map(ds, ["c_nationkey"], hull, 8)


def q_geo_geodesic(sf_dir: str):
    """Per-nation path geodesic lengths (haversine + vincenty), INTEGER meters.

    Oracle-checked (r3; was rows-only). DuckDB's asin/atan/atan2 are NOT
    bit-identical to numpy's (sin/cos/sqrt are), so the raw float lengths
    can't be compared exactly — but the divergence is ULP-scale (measured
    max 3e-7 m across all sf0.01 segments, including through Vincenty's 20
    lambda iterations, vs a minimum 8.5e-3 m distance to the nearest 0.5 m
    rounding boundary: a 28,000x margin on the fixed gate data). Rounding
    both sides to whole meters with the same floor(v+0.5) rule therefore
    compares deterministically, at 1e-8 relative precision on ~1e8 m sums.
    The oracle replays Vincenty's 20 iterations as unrolled CTE rounds
    (same generated-SQL technique as the S2 Hilbert oracle). Pytest anchors
    (JFK-LHR, meridian arcs) validate absolute correctness of the kernels.
    Vectorized multi-LineString construction via hash_partitioned_map
    per partition."""
    from geopolars_ray.stages.agg import hash_partitioned_map

    def path(g: pa.Table) -> pa.Table:
        keys, ktype, coords, offsets = _sorted_key_coords(g)
        ga = GeometryArray.from_linestrings(coords, offsets)
        hav = K.geodesic_length(ga, "haversine")
        vin = K.geodesic_length(ga, "vincenty")
        return pa.table(
            {
                "c_nationkey": pa.array(keys).cast(ktype),
                "hav_m": pa.array(np.floor(hav + 0.5).astype(np.int64)),
                "vin_m": pa.array(np.floor(vin + 0.5).astype(np.int64)),
            }
        )

    return hash_partitioned_map(
        customer_points(sf_dir, with_geometry=False).select_columns(
            ["c_nationkey", "c_custkey", "x", "y"]
        ),
        ["c_nationkey"],
        path,
        8,
    )


def q_geo_s2_tiles(sf_dir: str):
    """S2 level-12 cells per customer point; count per nation + distinct cells."""

    def s2c(batch: pa.Table) -> pa.Table:
        x = batch["x"].to_numpy(zero_copy_only=False)
        y = batch["y"].to_numpy(zero_copy_only=False)
        ids = s2_mod.s2_cell_id(x, y, level=12).view(np.int64)
        return batch.append_column("s2_l12", pa.array(ids))

    ds = customer_points(sf_dir, with_geometry=False).map_batches(s2c, batch_format="pyarrow")
    from geopolars_ray.stages.agg import hash_aggregate

    # cell-count cardinality ~ row count at scale: combiner-first aggregate
    per_cell = hash_aggregate(ds, ["c_nationkey", "s2_l12"], [("s2_l12", "count", "n")], 8)
    return hash_aggregate(per_cell, ["c_nationkey"], [("s2_l12", "count", "n_cells")], 4)


def q_geo_h3_tiles(sf_dir: str):
    """CANONICAL Uber H3 res-7 cells per customer point (the north-star
    "H3 res-7" tile assignment, `geom/h3.py latlng_to_cell`); distinct
    cells per nation. Oracle-checked: the full canonical id — face argmax,
    azimuthal gnomonic projection, cube rounding, the 7-level class-II/III
    digit extraction, base-cell lookup and hex/pentagon rotation chains,
    bit packing — replays in SQL (see _h3_canonical_cells_sql; 1500/1500
    ids verified bit-identical, 82 exercising the pentagon path)."""
    from geopolars_ray.geom import h3 as h3mod

    def h3c(batch: pa.Table) -> pa.Table:
        x = batch["x"].to_numpy(zero_copy_only=False)
        y = batch["y"].to_numpy(zero_copy_only=False)
        # int64 view: lossless (bit 59 is the top used bit) and groupby-safe
        ids = h3mod.latlng_to_cell(y, x, 7).view(np.int64)
        return batch.append_column("h3_r7", pa.array(ids))

    ds = customer_points(sf_dir, with_geometry=False).map_batches(h3c, batch_format="pyarrow")
    from geopolars_ray.stages.agg import hash_aggregate

    per_cell = hash_aggregate(ds, ["c_nationkey", "h3_r7"], [("h3_r7", "count", "n")], 8)
    return hash_aggregate(per_cell, ["c_nationkey"], [("h3_r7", "count", "n_cells")], 4)


def q_geo_rasterize(sf_dir: str):
    """Raster <-> vector round trip (north-star rasterization op): customer
    points -> per-15-degree-tile 8x8 count grids (`stages/raster.py
    rasterize_points` — one vectorized np.bincount per tile inside
    hash_partitioned_map) -> back to one row per non-empty cell
    (`raster_to_points`). Float-exact oracle: counts are order-independent
    and cell centers are a single IEEE mul+add on exact tile origins
    (tile_deg 15, res 8 => cell width 1.875 is an exact double)."""
    from geopolars_ray.stages.raster import rasterize_points, raster_to_points

    pts = customer_points(sf_dir, with_geometry=False)
    tiles = rasterize_points(pts, lon_col="x", lat_col="y", tile_deg=15.0,
                             resolution=8, stat="count", num_partitions=8)
    return raster_to_points(tiles, tile_deg=15.0, resolution=8)


def q_geo_simplify(sf_dir: str):
    """Douglas-Peucker on the per-nation path; counts before/after plus an
    exact checksum of the retained point set.

    Oracle-checked (r3; was rows-only): the oracle replays the ENTIRE DP
    recursion as a DuckDB recursive CTE — each round takes every interval
    whose max perpendicular distance exceeds the tolerance, finds the
    argmax point via a LATERAL ORDER BY d DESC, idx ASC LIMIT 1 (numpy
    argmax first-max tie-break), and emits the two sub-intervals. Every
    distance comparison is bit-identical because `kernels.simplify`
    deliberately uses sqrt(x*x + y*y) (not np.hypot), the same IEEE op
    sequence SQL computes. `kept_x4` pins the retained SET, not just its size: x lies
    on a 0.25-degree lattice so x*4 is an exact small integer and the
    float sum is exact in ANY accumulation order.

    Vectorized construction via hash_partitioned_map per partition."""
    from geopolars_ray.stages.agg import hash_partitioned_map

    def simp(g: pa.Table) -> pa.Table:
        keys, ktype, coords, offsets = _sorted_key_coords(g)
        ga = GeometryArray.from_linestrings(coords, offsets)
        s = K.simplify(ga, tolerance=20.0)
        kept_x4 = np.add.reduceat(s.coords[:, 0] * 4.0, s.ring_offsets[:-1])
        return pa.table(
            {
                "c_nationkey": pa.array(keys).cast(ktype),
                "n_before": pa.array(ga.coords_per_geom().astype(np.int64)),
                "n_after": pa.array(s.coords_per_geom().astype(np.int64)),
                "kept_x4": pa.array(kept_x4.astype(np.int64)),
            }
        )

    return hash_partitioned_map(
        customer_points(sf_dir, with_geometry=False).select_columns(
            ["c_nationkey", "c_custkey", "x", "y"]
        ),
        ["c_nationkey"],
        simp,
        8,
    )


# --------------------------------------------------------------------------
# relational queries (native Ray Data primitives; oracle-checked)
# --------------------------------------------------------------------------


def q_rel_q1(sf_dir: str):
    # predicate pushdown: the shipdate filter prunes row groups at the scan
    ds = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_shipdate"],
        filter=pc.field("l_shipdate") < pc.scalar(np.datetime64("1997-09-01", "us")),
    )

    def prep(batch: pa.Table) -> pa.Table:
        # re-apply exactly (pushdown is row-group granular)
        keep = pc.less(batch["l_shipdate"], pa.scalar(np.datetime64("1997-09-01", "us")))
        batch = batch.filter(keep)
        cents = np.rint(batch["l_extendedprice"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        batch = batch.append_column("cents", pa.array(cents))
        # never-null marker: hash_aggregate's count skips nulls, the oracle
        # counts rows — count a constant column to keep count(*) semantics
        return batch.append_column("_one", pa.array(np.ones(len(batch), dtype=np.int64)))

    from geopolars_ray.stages.agg import hash_aggregate

    ds = ds.map_batches(prep, batch_format="pyarrow")
    # combiner-first hash aggregate (6 groups, but the per-batch C++ partial
    # combine collapses 600k rows before any exchange — Ray's sort-based
    # aggregate paid a full-table sort here)
    return hash_aggregate(
        ds,
        keys=["l_returnflag", "l_linestatus"],
        spec=[
            ("l_quantity", "sum", "sum_qty"),
            ("_one", "count", "n_rows"),
            ("cents", "sum", "sum_base_cents"),
            ("l_extendedprice", "min", "min_price"),
            ("l_extendedprice", "max", "max_price"),
        ],
        num_partitions=4,
    )


def q_rel_topk(sf_dir: str):
    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10)


def q_rel_join_agg(sf_dir: str):
    """orders ⋈ customer (hash join) + broadcast nation lookup + rollup."""
    orders = _read_exchange(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    cust = _read_exchange(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    # native Dataset.join exercised deliberately: custkeys are DENSE (every
    # hash partition receives rows on both sides). For sparse keys use
    # stages/hashjoin.hash_join — Ray 2.49's native join crashes on empty
    # right partitions (see hashjoin.py).
    joined = orders.join(
        cust, join_type="inner", num_partitions=8, on=("o_custkey",), right_on=("c_custkey",)
    )
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    nk = nation["n_nationkey"].to_numpy().astype(np.int64)
    name_lut = np.empty(int(nk.max()) + 1, dtype=object)
    name_lut[nk] = np.asarray(nation["n_name"].to_pylist(), dtype=object)
    ref = ray.put(name_lut)

    class AddName:
        def __init__(self, lut):
            self.name_lut = ray.get(lut)

        def __call__(self, batch: pa.Table) -> pa.Table:
            keys = batch["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
            if (keys < 0).any() or (keys >= len(self.name_lut)).any():
                raise KeyError("c_nationkey outside nation lookup range")
            names = self.name_lut[keys]  # vectorized gather (None -> loud null below)
            if any(v is None for v in names):
                raise KeyError("c_nationkey not present in nation lookup")
            cents = np.rint(batch["o_totalprice"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
            batch = batch.append_column("n_name", pa.array(names, pa.string()))
            return batch.append_column("cents", pa.array(cents))

    from ray.data.aggregate import Sum, Count

    from geopolars_ray.stages.workercache import worker_cached

    ds = joined.map_batches(worker_cached(AddName, lut=ref), batch_format="pyarrow")
    return ds.groupby("n_name").aggregate(
        Count(alias_name="n_orders"), Sum("cents", alias_name="revenue_cents")
    )


# q_rel_distinct_types (two-level hash_aggregate COUNT DISTINCT) was retired
# from the registry in r4 in favor of pipe_curation; each of its levels is a
# hash_aggregate, gate-covered by the hash_aggregate entries.


# --------------------------------------------------------------------------
# training-data queries
# --------------------------------------------------------------------------


def q_dd_exact_docs(sf_dir: str):
    """Exact dedup over documents.text (hash-partition + per-group first)."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    from geopolars_ray.stages.agg import hash_aggregate

    return hash_aggregate(
        ds,
        keys=["text"],
        spec=[("doc_id", "min", "min_doc_id"), ("doc_id", "count", "n_copies")],
        num_partitions=8,
    )


def q_txt_tokens(sf_dir: str):
    from geopolars_ray.stages.text import token_stats

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(token_stats(), batch_format="pyarrow").select_columns(
        ["doc_id", "n_tokens", "n_chars_calc"]
    )


def q_txt_quality(sf_dir: str):
    """Quality features per document — ORACLE-CHECKED (r3; absorbed the
    former txt_alpha entry): raw character-class counts plus the
    ratio/composite columns, all mirrored exactly in SQL (integer regexp
    counts, identical float expression association)."""
    from geopolars_ray.stages.text import quality_score

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(quality_score(), batch_format="pyarrow")

    def counts(batch: pa.Table) -> pa.Table:
        s = batch["text"]
        batch = batch.append_column(
            "n_alpha", pc.cast(pc.count_substring_regex(s, "[A-Za-z]"), pa.int64())
        )
        return batch.append_column(
            "n_digit", pc.cast(pc.count_substring_regex(s, "[0-9]"), pa.int64())
        )

    return ds.map_batches(counts, batch_format="pyarrow").select_columns(
        ["doc_id", "n_alpha", "n_digit", "alpha_ratio", "digit_ratio", "space_ratio", "stop_ratio", "quality"]
    )


def q_txt_repetition(sf_dir: str):
    """Gopher-style repetition signals per document (duplicate-token
    fraction, most-frequent token/bigram counts) — all integer counts plus
    one float division mirrored exactly in SQL."""
    from geopolars_ray.stages.text import repetition_stats

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(repetition_stats(), batch_format="pyarrow").select_columns(
        ["doc_id", "n_tok", "n_distinct_tok", "dup_token_frac", "top_tok_n", "top_bigram_n"]
    )


def q_txt_pii(sf_dir: str):
    """PII count + redact over documents. The corpus is synthetic word soup
    with no real PII, so the query first injects a deterministic email / IP /
    phone per document (pure string concat of doc_id-derived digits — the
    oracle replays the same concatenation), then counts matches and emits
    the fully redacted text for a bit-exact string compare. Both engines run
    RE2, so match/replacement semantics are identical by construction."""
    from geopolars_ray.stages.text import pii_stats, redact_pii

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def inject(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        s = pc.cast(batch["text"], pa.string())
        parts = [
            s,
            pa.scalar(" user"),
            pc.cast(batch["doc_id"], pa.string()),
            pa.scalar("@example.com at 192.168."),
            pa.array((did % 250).astype(str)),
            pa.scalar("."),
            pa.array((did % 100).astype(str)),
            pa.scalar(" tel +1 555 013 "),
            pa.array((1000 + did % 9000).astype(str)),
        ]
        txt = pc.binary_join_element_wise(*parts, "")
        return pa.table({"doc_id": batch["doc_id"], "text": txt})

    ds = ds.map_batches(inject, batch_format="pyarrow")
    ds = ds.map_batches(pii_stats(), batch_format="pyarrow")
    ds = ds.map_batches(redact_pii(), batch_format="pyarrow")
    return ds.select_columns(["doc_id", "n_email", "n_ipv4", "n_phone", "text_redacted"])


def q_dd_paragraph(sf_dir: str):
    """Corpus-level paragraph dedup (CCNet-style first-global-occurrence).
    Documents are single-line word soup, so segments split on ' a ' (a
    frequent token) — short segments collide heavily across documents,
    exercising the distinct-segment aggregate, the rank join and the
    vectorized reassembly. The oracle replays split/min-rank/reassemble in
    SQL and string-compares the reassembled text."""
    from geopolars_ray.stages.dedup import paragraph_dedup

    # exchange-sized read (r4): the three hash co-partitions pay fixed cost
    # per input BLOCK; the default split's 64 fragments made each exchange
    # ~2.5s around ~1.5s of actual kernel work
    ds = _read_exchange(sf_dir, "documents", columns=["doc_id", "text"])
    return paragraph_dedup(ds, sep=" a ", num_partitions=8)


def q_dd_cc_clusters(sf_dir: str):
    """Connected-components near-dup clustering (r5: gates stages/cc.py,
    previously pytest-only). Edge = two docs sharing any >= 6-char
    ' a '-split segment; per-segment groups emit STAR edges (doc ->
    min doc of the group), which have the same components as the full
    pairwise graph at O(k) instead of O(k^2) per group. Components are
    resolved by the distributed min-label propagation + pointer-jumping
    loop and attached back to every doc (singletons = own id), then each
    doc gets its cluster size. The DuckDB oracle replays the graph with a
    recursive-CTE transitive closure — labelings must match exactly."""
    from geopolars_ray.stages.agg import hash_aggregate, hash_partitioned_map
    from geopolars_ray.stages.cc import attach_components
    from geopolars_ray.stages.hashjoin import hash_join

    ds = _read_exchange(sf_dir, "documents", columns=["doc_id", "text"])
    SEP, MINLEN = " a ", 6

    def explode(batch: pa.Table) -> pa.Table:
        segs = pc.split_pattern(pc.cast(batch["text"], pa.string()), SEP)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        counts = pc.list_value_length(segs).to_numpy(zero_copy_only=False)
        t = pa.table({"seg": pc.list_flatten(segs),
                      "doc_id": pa.array(np.repeat(ids, counts))})
        return t.filter(pc.greater_equal(pc.utf8_length(t["seg"]), MINLEN))

    def star_edges(part: pa.Table) -> pa.Table:
        part = part.combine_chunks()
        idx = pc.sort_indices(part, sort_keys=[("seg", "ascending"),
                                               ("doc_id", "ascending")])
        part = part.take(idx).combine_chunks()
        seg = part["seg"].chunk(0) if part["seg"].num_chunks else part["seg"]
        doc = part["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        new = np.ones(len(part), dtype=bool)
        if len(part) > 1:
            new[1:] = pc.not_equal(
                seg.slice(1), seg.slice(0, len(part) - 1)
            ).to_numpy(zero_copy_only=False)
        gid = np.cumsum(new) - 1
        vmin = doc[new][gid]
        m = doc != vmin
        return pa.table({"id_a": pa.array(doc[m]), "id_b": pa.array(vmin[m])})

    pairs = hash_partitioned_map(
        ds.map_batches(explode, batch_format="pyarrow"),
        ["seg"], star_edges, num_partitions=8)
    docs = ds.drop_columns(["text"])
    attached = attach_components(docs, pairs, "doc_id",
                                 src="id_a", dst="id_b", num_partitions=8)
    sizes = hash_aggregate(attached, ["component"],
                           [("doc_id", "count", "cluster_size")],
                           num_partitions=8)
    out = hash_join(attached, sizes, on=["component"], num_partitions=8)
    return out.select_columns(["doc_id", "component", "cluster_size"])


def q_pipe_curation(sf_dir: str):
    """COMPOSED curation pipeline gate (r4): quality floor → per-language
    deterministic downsample → paragraph dedup, end to end through
    ``pipelines/curation.run_curation``. Every stage is individually
    oracle-checked elsewhere (txt_quality, txt_langid, rel_sample,
    dd_paragraph); this entry pins their COMPOSITION — the paragraph
    min-rank is computed over the filtered+sampled corpus, so a wrong
    filter or sample changes every downstream text_dedup. The oracle
    chains the same four SQL replays as CTEs."""
    from geopolars_ray.pipelines.curation import run_curation

    return run_curation(
        sf_dir,
        quality_min=0.62,
        lang_fracs={"en": 0.5},
        dedup="paragraph",
        paragraph_sep=" a ",
        num_partitions=8,
        seed=12345,
    ).select_columns(["doc_id", "n_seg", "n_kept", "text_dedup"])


def q_txt_langid(sf_dir: str):
    """Marker-word language id; emits prediction + confidence (exact integer
    count ratios — oracle-checkable when the corpus is ASCII, where Python
    re and DuckDB RE2 \\b semantics agree)."""
    from geopolars_ray.stages.text import LangId

    from geopolars_ray.stages.workercache import worker_cached

    # task-based with a per-worker cached instance: LangId's state is a few
    # compiled regexes, so an actor pool's spin-up + reservation cost more
    # than the state build saves (r4: 2.4s -> sub-1s at sf0.1)
    ds = _read_exchange(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    out = ds.map_batches(worker_cached(LangId), batch_format="pyarrow")
    return out.select_columns(["doc_id", "lang", "lang_pred", "lang_conf"])


def q_txt_fingerprint(sf_dir: str):
    from geopolars_ray.stages.text import Fingerprint

    from geopolars_ray.stages.workercache import worker_cached

    ds = _read_exchange(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(worker_cached(Fingerprint), batch_format="pyarrow")
    return out.select_columns(["doc_id", "fingerprint", "fp_count"])


def q_dd_minhash_docs(sf_dir: str):
    """MinHash-LSH near-dup candidates over documents, Jaccard-verified.

    ASCII projection first (mirrors txt_langid): the library
    shingles UTF-8 BYTES while the SQL oracle shingles characters via
    ``ord`` — identical only for pure-ASCII text. Replacing every non-ASCII
    codepoint with a space on BOTH sides (same RE2 pattern) makes byte- and
    char-shingles coincide by construction, so the oracle replay stays exact
    on any input, not just the (all-ASCII) sf* tables."""
    from geopolars_ray.stages.dedup import MinHasher, lsh_candidate_pairs, jaccard_verify

    # exchange-sized read: the LSH band/bucket stages are groupby exchanges
    # whose fixed cost scales with input block count (measured ~6.5s -> 4.8s)
    docs = _read_exchange(sf_dir, "documents", columns=["doc_id", "text"])

    def ascii_project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        i = batch.column_names.index("text")
        return batch.set_column(
            i, "text",
            pc.replace_substring_regex(batch["text"], pattern=r"[^\x00-\x7f]", replacement=" "),
        )

    docs = docs.map_batches(ascii_project, batch_format="pyarrow")
    # task-based: minhash state (64 seeded ints) is tiny, so the closure
    # serializes once and tasks skip the actor pool's multi-second spin-up
    # (measured ~1.5s faster end-to-end; the actor form remains the right
    # call for heavy per-worker state like models)
    bands = docs.map_batches(MinHasher(), batch_format="pyarrow", batch_size=512)
    cand = lsh_candidate_pairs(bands)
    # raw jaccard: inter/union of exact integers — correctly-rounded division
    # is deterministic, so no rounding is needed for the SQL oracle,
    # which replays the ENTIRE pipeline (ring shingles -> 64 permutation
    # minima -> FNV band hashes -> bucket self-join -> set-intersection
    # verify) with inlined permutation literals
    return jaccard_verify(cand, docs, threshold=0.5, num_partitions=4)


def q_dd_simhash_docs(sf_dir: str):
    from geopolars_ray.stages.dedup import SimHasher

    from geopolars_ray.stages.workercache import worker_cached

    ds = _read_exchange(sf_dir, "documents", columns=["doc_id", "text"])
    out = ds.map_batches(worker_cached(SimHasher), batch_format="pyarrow")
    return out.select_columns(["doc_id", "simhash"])


def q_dd_substring(sf_dir: str):
    """Exact-substring span dedup (Lee et al. 2022): every 8-token window
    duplicated anywhere in the corpus is removed from all occurrences.

    ASCII projection first (mirrors dd_minhash_docs) so the library's
    byte-length token keys coincide with the oracle's char-length keys; the
    oracle replays the ENTIRE pipeline — RE2 tokenize, first-8-bytes*131+len
    token keys, base-31 ring window hashes, corpus-wide counts, covered-
    position union, single-space reassembly — with full-text compare."""
    from geopolars_ray.stages.spandedup import exact_substring_dedup

    docs = _read_exchange(sf_dir, "documents", columns=["doc_id", "text"])

    def ascii_project(batch: pa.Table) -> pa.Table:
        i = batch.column_names.index("text")
        return batch.set_column(
            i, "text",
            pc.replace_substring_regex(batch["text"], pattern=r"[^\x00-\x7f]", replacement=" "),
        )

    docs = docs.map_batches(ascii_project, batch_format="pyarrow")
    return exact_substring_dedup(docs, L=8, num_partitions=8)


def _smallest_vec_rows(path: str, n: int) -> pa.Table:
    """The n smallest-vec_id embedding rows, sorted by vec_id ascending.

    Reads the narrow vec_id column first and fetches ONLY the selected rows'
    embeddings via a parquet filter — at larger sf the driver never holds
    the wide embedding column for the whole corpus."""
    import pyarrow.parquet as pq

    ids = pq.read_table(path, columns=["vec_id"])["vec_id"].to_numpy(zero_copy_only=False)
    ids = np.sort(ids.astype(np.int64))[:n]
    t = pq.read_table(
        path, columns=["vec_id", "embedding"], filters=[("vec_id", "in", ids.tolist())]
    )
    order = np.argsort(np.asarray(t["vec_id"].to_pylist(), dtype=np.int64), kind="stable")
    return t.take(pa.array(order))


def q_ann_topk(sf_dir: str):
    """Brute-force top-10 similarity — ORACLE-CHECKED (r3; was rows-only).

    metric="qdot": floor(x*1024)-quantized integer dot product. Every score
    is an exactly-representable integer, bit-identical in any evaluation
    order, so the distributed per-batch-partial + merge path matches a
    DuckDB ``list_dot_product`` oracle exactly, including the (score desc,
    vec_id asc) ranking. Queries = the 5 smallest vec_ids (well-defined in
    SQL, unlike file order)."""
    from geopolars_ray.stages.ann import brute_force_knn

    qtab = _smallest_vec_rows(f"{sf_dir}/embeddings.parquet", 5)
    queries = {
        "qid": np.asarray(qtab["vec_id"].to_pylist(), dtype=np.int64),
        "qvec": np.asarray(qtab["embedding"].to_pylist(), dtype=np.float64),
    }
    # exchange-sized read (r4: the default split fragments the small
    # embeddings table into 64 blocks — read + exchange fixed costs over
    # tiny partial blocks dominated the actual matmul/bucket work)
    ds = _read_exchange(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = brute_force_knn(ds, queries, k=10, concurrency=2, metric="qdot")

    def rename(batch: pa.Table) -> pa.Table:
        i = batch.column_names.index("cosine")
        return batch.set_column(i, "score", batch["cosine"])

    return out.map_batches(rename, batch_format="pyarrow")


def q_ann_ivf(sf_dir: str):
    """IVF ANN nprobe-limited scan — ORACLE-CHECKED (r3; was rows-only).

    metric="qdot" makes the ENTIRE IVF pipeline exact integer arithmetic:
    centroid assignment (argmax integer dot, lowest-list tie-break), probe
    selection (stable argsort -> top-nprobe lists per query, ascending-id
    ties), the global wanted-list filter, and the final per-query top-k.
    Gate centroids are the 16 smallest-vec_id embeddings (well-defined in
    SQL); queries are the 5 smallest. nprobe=4 of 16 lists — a genuinely
    approximate scan (~1/4 of the corpus), replayed list-for-list by the
    oracle. The k-means-trained quantizer (`train_ivf_centroids`) remains
    the library path, recall>=0.9-gated in pytest (test_ann)."""
    from geopolars_ray.stages.ann import ivf_knn

    ctab = _smallest_vec_rows(f"{sf_dir}/embeddings.parquet", 16)
    qtab = ctab.slice(0, 5)
    queries = {
        "qid": np.asarray(qtab["vec_id"].to_pylist(), dtype=np.int64),
        "qvec": np.asarray(qtab["embedding"].to_pylist(), dtype=np.float64),
    }
    C = np.asarray(ctab["embedding"].to_pylist(), dtype=np.float64)

    # exchange-sized read (r4: the default split fragments the small
    # embeddings table into 64 blocks — read + exchange fixed costs over
    # tiny partial blocks dominated the actual matmul/bucket work)
    ds = _read_exchange(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = ivf_knn(ds, queries, C, k=10, nprobe=4, metric="qdot")

    def rename(batch: pa.Table) -> pa.Table:
        i = batch.column_names.index("cosine")
        return batch.set_column(i, "score", batch["cosine"])

    return out.map_batches(rename, batch_format="pyarrow")


def q_mm_resize_frames(sf_dir: str):
    """Multimodal plumbing: fake 'videos' (length-prefixed FIMG frames keyed
    by vec_id) -> FrameSample flat-map -> ResizeImage -> decode stats.

    ORACLE-CHECKED (r3; was rows-only): LCG payloads (see q_mm_decode) make
    the whole chain replayable — sampled frames are n % 2 == 0 (frame_no
    0, 2 of 4; seed = vid*10 + frame_no), and the 8x8 -> 4x4 nearest
    resize keeps exactly the original linear indices 48r + 6c + ch, which
    the oracle enumerates. The three actor-pool stages are unchanged."""
    import struct as struct_mod

    from geopolars_ray.stages.multimodal import DecodeImage, FrameSample, ResizeImage, encode_lcg_image

    ids_ds = _read(sf_dir, "embeddings", columns=["vec_id"])

    def gen(batch: pa.Table) -> pa.Table:
        vids = []
        vid_ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        for v in vid_ids:
            frames = [encode_lcg_image(8, 8, seed=int(v) * 10 + j) for j in range(4)]
            vids.append(b"".join(struct_mod.pack("<I", len(f)) + f for f in frames))
        return pa.table({"vid": pa.array(vid_ids), "video": pa.array(vids, pa.binary())})

    from geopolars_ray.stages.workercache import worker_cached

    # fake-codec media stages hold no real state -> per-worker-cached tasks
    # (a real-codec deployment flips these back to actor pools; the
    # rule-of-thumb lives in stages/workercache.py)
    ds = ids_ds.map_batches(gen, batch_format="pyarrow")
    frames = ds.map_batches(worker_cached(FrameSample, every=2, data_col="video"),
                            batch_format="pyarrow", batch_size=256)
    small = frames.map_batches(worker_cached(ResizeImage, out_w=4, out_h=4),
                               batch_format="pyarrow", batch_size=256)
    return small.map_batches(worker_cached(DecodeImage, codec="fake", data_col="image"),
                             batch_format="pyarrow", batch_size=256)


def q_dd_embed_cosine(sf_dir: str):
    """Embedding near-dup — ORACLE-CHECKED (r3; was rows-only): quantized
    hyperplane LSH buckets + quantized cosine >= 0.3 within buckets.

    quantize=1024 (power of two): bucket projections and pair scores are
    built from floor(x*1024) integers, so every value is exact in any
    evaluation order and the whole bucketed pipeline replays in SQL (the
    seeded hyperplane literals are inlined into the oracle query)."""
    from geopolars_ray.stages.dedup import EmbeddingLSH, cosine_pairs_within_bucket

    # exchange-sized read (r4: the default split fragments the small
    # embeddings table into 64 blocks — read + exchange fixed costs over
    # tiny partial blocks dominated the actual matmul/bucket work)
    ds = _read_exchange(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    bucketed = ds.map_batches(
        EmbeddingLSH, fn_constructor_kwargs=dict(dim=64, n_planes=4, quantize=1024),
        batch_format="pyarrow", concurrency=2,
    )
    return bucketed.groupby("lsh_bucket").map_groups(
        cosine_pairs_within_bucket(threshold=0.3, quantize=1024), batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# registry + oracle SQL
# --------------------------------------------------------------------------

def q_geo_exterior_len(sf_dir: str):
    """exterior kernel: rect polygon -> exterior LineString -> length."""
    ds = ray.data.from_arrow(nation_rects(sf_dir))
    ds = ds.map_batches(
        geo_ops([("exterior", {}), ("euclidean_length", {}, "ext_len")]), batch_format="pyarrow"
    )
    return ds.select_columns(["n_nationkey", "ext_len"])


def q_geo_type_flags(sf_dir: str):
    """geom_type / is_empty / is_ring accessors, CHAINED (registry-cap
    trick, COVERAGE.md "Registry note") with the boolean-overlay engine:
    per customer key an integer rect pair is derived covering all three
    interaction classes (k%3: partial overlap / strict containment —
    the hole-assembly path / disjoint), run through the REAL sweep +
    parity + ring assembly (`geom/overlay.py overlay_arrays`) for all
    four operations. Integer coordinates make every area an exact
    integer, so the oracle is closed-form LEAST/GREATEST arithmetic."""
    from geopolars_ray.geom.overlay import overlay_arrays

    def flags(batch: pa.Table) -> pa.Table:
        ga = decode_wkb(batch["geometry"])
        batch = batch.append_column("type_id", pa.array(K.geom_type(ga).astype(np.int32)))
        batch = batch.append_column("empty", pa.array(K.is_empty(ga)))
        batch = batch.append_column("ring", pa.array(K.is_ring(ga)))
        k = batch["c_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        x0 = k % 11
        y0 = k % 13
        w = 4 + k % 3
        h = 5 + k % 4
        m = k % 3
        r2x1 = np.select([m == 0, m == 1], [x0 + 2, x0 + 1], x0 + w + 3)
        r2y1 = np.select([m == 0, m == 1], [y0 + 2, y0 + 1], y0)
        r2x2 = np.select([m == 0, m == 1], [x0 + 2 + w, x0 + w - 1], x0 + w + 5)
        r2y2 = np.select([m == 0, m == 1], [y0 + 2 + h, y0 + h - 1], y0 + 2)

        def rects(ax1, ay1, ax2, ay2):
            # CLOSED 5-coord rings: the relate fast path's rectangle
            # detection requires them (open rings silently fell back to
            # the per-pair sweep)
            return GeometryArray.from_pylist([
                ("polygon", [[(float(a), float(b)), (float(c), float(b)),
                              (float(c), float(d)), (float(a), float(d)),
                              (float(a), float(b))]])
                for a, b, c, d in zip(ax1, ay1, ax2, ay2)
            ])

        g1 = rects(x0, y0, x0 + w, y0 + h)
        g2 = rects(r2x1, r2y1, r2x2, r2y2)
        for op, name in (("intersection", "inter_area"),
                         ("union", "union_area"),
                         ("difference", "diff_area"),
                         ("symmetric_difference", "symdiff_area")):
            area = K.area(overlay_arrays(g1, g2, op))
            area = np.where(np.isnan(area), 0.0, area)  # empty result = 0
            batch = batch.append_column(name, pa.array(np.rint(area).astype(np.int64)))
        # DE-9IM leg (r4): a FOURTH rect in k%4 interaction classes
        # (partial overlap / strict containment / edge touch / disjoint)
        # through the real arrangement-based relate engine
        # (`geom/relate.py`); each class has a CONSTANT matrix, so the
        # oracle is a CASE over k%4
        m4 = k % 4
        r3x1 = np.select([m4 == 0, m4 == 1, m4 == 2], [x0 + 2, x0 + 1, x0 + w], x0 + w + 3)
        r3y1 = np.select([m4 == 0, m4 == 1, m4 == 2], [y0 + 2, y0 + 1, y0], y0)
        r3x2 = np.select([m4 == 0, m4 == 1, m4 == 2], [x0 + 2 + w, x0 + w - 1, x0 + w + 2], x0 + w + 5)
        r3y2 = np.select([m4 == 0, m4 == 1, m4 == 2], [y0 + 2 + h, y0 + h - 1, y0 + 2], y0 + 2)
        g3 = rects(r3x1, r3y1, r3x2, r3y2)
        from geopolars_ray.geom import relate as relate_mod

        # matrices once via the vectorized rect fast path (integer rects
        # never hit the snap band; fast == sweep is pinned by test), the
        # string and all four predicates derived from them
        mats = relate_mod._all_matrices(g1, g3)
        batch = batch.append_column(
            "de9im", pa.array([relate_mod._to_string(mm) for mm in mats], pa.string()))
        for pred in ("intersects", "touches", "contains", "overlaps"):
            batch = batch.append_column("rel_" + pred, pa.array(
                [relate_mod._pred_from_matrix(pred, mm, 2, 2) for mm in mats]))
        return batch

    ds = customer_points(sf_dir).map_batches(flags, batch_format="pyarrow")
    return ds.select_columns(["c_custkey", "type_id", "empty", "ring",
                              "inter_area", "union_area", "diff_area",
                              "symdiff_area", "de9im", "rel_intersects",
                              "rel_touches", "rel_contains", "rel_overlaps"])


def q_geo_sjoin_part(sf_dir: str):
    """Large-large partitioned spatial join (cell co-shuffle + Dataset.join)."""
    from geopolars_ray.stages.join import partitioned_spatial_join

    pts = customer_points(sf_dir, with_geometry=False, for_exchange=True)
    polys = ray.data.from_arrow(nation_rects(sf_dir))
    out = partitioned_spatial_join(
        pts, polys, cell_deg=30.0, lon_col="x", lat_col="y", num_partitions=8
    )
    return out.select_columns(["c_custkey", "n_nationkey"])


def q_rel_sessions(sf_dir: str):
    """Gap-based sessionization per user (30-minute gap): one hash
    co-partition + a single vectorized kernel per partition
    (``stages/window.sessionize`` — no per-group Python dispatch); oracle
    via window functions."""
    from geopolars_ray.stages.window import sessionize

    ds = _read_exchange(sf_dir, "events", columns=["user_id", "ts"])
    return sessionize(ds, "user_id", "ts", gap_us=30 * 60 * 1_000_000,
                      num_partitions=8)


def q_rel_asof(sf_dir: str):
    """As-of join: each click event picks up the latest prior purchase value
    of the same user (cents, -1 when none). Oracle via DuckDB ASOF JOIN."""
    from geopolars_ray.stages.asof import asof_join

    def keep(event_type: str):
        # vectorized Arrow filter (a row-wise Python lambda costs ~µs/row)
        def fn(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.equal(batch["event_type"], event_type))

        return fn

    clicks = _read_exchange(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"]).map_batches(
        keep("click"), batch_format="pyarrow"
    )
    purchases = _read_exchange(sf_dir, "events", columns=["user_id", "ts", "value", "event_type"]).map_batches(
        keep("purchase"), batch_format="pyarrow"
    )
    out = asof_join(clicks, purchases, key="user_id", ts_col="ts", right_cols=["value"], num_partitions=8)

    def fin(batch: pa.Table) -> pa.Table:
        v = batch["value_r"].to_numpy(zero_copy_only=False)
        cents = np.where(np.isnan(v), -1, np.rint(np.where(np.isnan(v), 0.0, v) * 100)).astype(np.int64)
        out_t = batch.select(["event_id", "user_id"])
        return out_t.append_column("last_purchase_cents", pa.array(cents))

    return out.map_batches(fin, batch_format="pyarrow")


def q_rel_sliding(sf_dir: str):
    """Sliding-window aggregate (2h window, 1h slide) per user: each event
    contributes to 2 overlapping windows; exact cent sums."""
    from geopolars_ray.stages.window import sliding_window_aggregate

    ds = _read_exchange(sf_dir, "events", columns=["user_id", "ts", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        cents = np.rint(batch["value"].to_numpy(zero_copy_only=False) * 100).astype(np.int64)
        return batch.append_column("cents", pa.array(cents))

    ds = ds.map_batches(prep, batch_format="pyarrow")
    return sliding_window_aggregate(
        ds,
        ts_col="ts",
        window_us=2 * 3_600_000_000,
        slide_us=3_600_000_000,
        keys=["user_id"],
        spec=[("cents", "count", "n_events"), ("cents", "sum", "sum_cents")],
        num_partitions=8,
    )


def q_rel_group_topk(sf_dir: str):
    """Hot-key-safe per-group top-k: the 3 highest-price orders per customer
    market segment (salted two-phase; oracle via ROW_NUMBER)."""
    from geopolars_ray.stages.window import grouped_topk

    orders = _read_exchange(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])
    cust = _read_exchange(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    joined = orders.join(
        cust, join_type="inner", num_partitions=8, on=("o_custkey",), right_on=("c_custkey",)
    )
    out = grouped_topk(
        joined,
        keys=["c_mktsegment"],
        order_col="o_totalprice",
        k=3,
        descending=True,
        tie_cols=["o_orderkey"],
        salt=4,
        num_partitions=8,
    )

    def sel(batch: pa.Table) -> pa.Table:
        return batch.select(["c_mktsegment", "o_orderkey", "o_totalprice"])

    return out.map_batches(sel, batch_format="pyarrow")


def q_rel_interval(sf_dir: str):
    """Range (interval) join: click-purchase pairs of the same user within
    +/-30 minutes (bucketed co-partition + searchsorted window match)."""
    from geopolars_ray.stages.asof import interval_join

    def keep(event_type: str):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.equal(batch["event_type"], event_type))

        return fn

    clicks = _read_exchange(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"]).map_batches(
        keep("click"), batch_format="pyarrow"
    )
    purchases = _read_exchange(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"]).map_batches(
        keep("purchase"), batch_format="pyarrow"
    )
    return interval_join(
        clicks,
        purchases,
        key="user_id",
        ts_col="ts",
        tolerance_us=30 * 60 * 1_000_000,
        left_cols=["event_id"],
        right_cols=["event_id"],
        num_partitions=8,
    )


def q_rel_anti(sf_dir: str):
    """Distributed anti-join (hash_join left_anti): customers with no order
    above 300k (every customer has SOME order in this data)."""
    from geopolars_ray.stages.hashjoin import hash_join

    cust = _read_exchange(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    orders = _read_exchange(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]).map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 300000.0)).select(["o_custkey"]),
        batch_format="pyarrow",
    )
    return hash_join(
        cust, orders, on=["c_custkey"], right_on=["o_custkey"], how="left_anti", num_partitions=8
    )


def q_rel_sample(sf_dir: str):
    """Deterministic keyed sampling — ORACLE-CHECKED (r3; was rows-only
    random_sample). Knuth multiplicative hash on o_orderkey, exact int64
    arithmetic, reproducible under any partitioning (stages/sample.py)."""
    from geopolars_ray.stages.sample import deterministic_sample

    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    return deterministic_sample(ds, "o_orderkey", numerator=1, denominator=10, seed=12345)


def q_mm_decode(sf_dir: str):
    """Multimodal plumbing: deterministic fake images keyed by vec_id ->
    actor decode -> (img_id, width, height, mean_rgb).

    ORACLE-CHECKED (r3; was rows-only): payloads come from
    ``encode_lcg_image`` — byte j is ``((seed*A + j*B) % 2^32) % 256`` —
    so the SQL oracle regenerates every pixel and replays the decode's
    mean exactly (integer sum / n is one correctly-rounded double divide
    on both sides). The actor-pool DecodeImage stage is unchanged."""
    from geopolars_ray.stages.multimodal import encode_lcg_image, DecodeImage

    def gen(batch: pa.Table) -> pa.Table:
        vid = batch["vec_id"].to_numpy(zero_copy_only=False)
        imgs = [encode_lcg_image(8 + int(v) % 8, 8, seed=int(v)) for v in vid]
        return pa.table({"img_id": pa.array(vid.astype(np.int64)), "image": pa.array(imgs, pa.binary())})

    from geopolars_ray.stages.workercache import worker_cached

    ds = _read_exchange(sf_dir, "embeddings", columns=["vec_id"]).map_batches(gen, batch_format="pyarrow")
    return ds.map_batches(
        worker_cached(DecodeImage, codec="fake", data_col="image"),
        batch_format="pyarrow", batch_size=256,
    )




def _s2_oracle_sql() -> str:
    """geo_s2_tiles oracle: the FULL S2 level-12 cell id computed in SQL.

    Replays `geom/s2.py` bit-exactly: lon/lat -> xyz (DuckDB cos/sin are
    bit-identical to numpy — verified), branch-free face/uv CASEs, the
    quadratic st projection (sqrt exact), floor to 30-bit ij, and the
    Hilbert curve as 8 chained 4-bit lookup rounds against the inlined
    1024-entry _LOOKUP_POS table, then level-12 truncation via exact
    integer arithmetic ((q|1)*lsb as (q + 1-q%2)*lsb). Verified equal to
    `s2_cell_id(...,12).view(int64)` on all sf0.01 customer points.
    """
    from geopolars_ray.geom import s2 as _s2

    lut = "[" + ",".join(str(int(v)) for v in _s2._LOOKUP_POS) + "]"
    rounds = []
    prev = "ij"
    for kk in range(7, -1, -1):
        nxt = f"hk{kk}"
        src_bits = "CAST(face % 2 AS BIGINT)" if kk == 7 else "bits"
        src_n = "CAST(face AS HUGEINT) * 1152921504606846976" if kk == 7 else "n"
        rounds.append(
            f"""{nxt} AS (SELECT c_custkey, face, i, j,
  list_extract(lut, CAST({src_bits} + ((i // {1 << (4*kk)}) % 16) * 64 + ((j // {1 << (4*kk)}) % 16) * 4 AS BIGINT) + 1) AS val,
  {src_n} AS n0, lut FROM {prev}),
{nxt}b AS (SELECT c_custkey, face, i, j,
  n0 + CAST(val // 4 AS HUGEINT) * {1 << (8*kk)} AS n, val % 4 AS bits, lut FROM {nxt})"""
        )
        prev = f"{nxt}b"
    rounds_sql = ",\n".join(rounds)
    return f"""
WITH pts AS (SELECT c_custkey, x AS lon, y AS lat FROM ({_CPTS})),
xyz AS (SELECT c_custkey,
  cos(lat * 0.017453292519943295) * cos(lon * 0.017453292519943295) AS X,
  cos(lat * 0.017453292519943295) * sin(lon * 0.017453292519943295) AS Y,
  sin(lat * 0.017453292519943295) AS Z FROM pts),
fuv AS (SELECT c_custkey, X, Y, Z,
  CASE WHEN abs(X) >= abs(Y) THEN CASE WHEN abs(X) >= abs(Z) THEN 0 ELSE 2 END
       ELSE CASE WHEN abs(Y) >= abs(Z) THEN 1 ELSE 2 END END AS axis FROM xyz),
fuv2 AS (SELECT c_custkey, X, Y, Z, axis,
  CASE axis WHEN 0 THEN X WHEN 1 THEN Y ELSE Z END AS den FROM fuv),
fuv3 AS (SELECT c_custkey, X, Y, Z, den,
  CASE WHEN den < 0 THEN axis + 3 ELSE axis END AS face FROM fuv2),
uv AS (SELECT c_custkey, face,
  (CASE face WHEN 0 THEN Y WHEN 1 THEN -X WHEN 2 THEN -X WHEN 3 THEN Z WHEN 4 THEN Z ELSE -Y END) / den AS u,
  (CASE face WHEN 0 THEN Z WHEN 1 THEN Z WHEN 2 THEN -Y WHEN 3 THEN Y WHEN 4 THEN -X ELSE -X END) / den AS v
  FROM fuv3),
st AS (SELECT c_custkey, face,
  CASE WHEN least(greatest(u, -1.0), 1.0) >= 0 THEN 0.5*sqrt(1.0 + 3.0*greatest(least(greatest(u, -1.0), 1.0), 0.0))
       ELSE 1.0 - 0.5*sqrt(1.0 - 3.0*least(least(greatest(u, -1.0), 1.0), 0.0)) END AS s,
  CASE WHEN least(greatest(v, -1.0), 1.0) >= 0 THEN 0.5*sqrt(1.0 + 3.0*greatest(least(greatest(v, -1.0), 1.0), 0.0))
       ELSE 1.0 - 0.5*sqrt(1.0 - 3.0*least(least(greatest(v, -1.0), 1.0), 0.0)) END AS t
  FROM uv),
ij AS (SELECT c_custkey, face,
  least(greatest(CAST(floor(1073741824.0 * s) AS BIGINT), 0), 1073741823) AS i,
  least(greatest(CAST(floor(1073741824.0 * t) AS BIGINT), 0), 1073741823) AS j,
  {lut} AS lut FROM st),
{rounds_sql},
leaf AS (SELECT c_custkey, n * 2 + 1 AS leaf FROM hk0b),
lvl AS (SELECT c_custkey, ((leaf // 68719476736) + CASE WHEN (leaf // 68719476736) % 2 = 0 THEN 1 ELSE 0 END) * 68719476736 AS uid FROM leaf)
SELECT c.c_nationkey, CAST(count(DISTINCT l.uid) AS BIGINT) AS n_cells
FROM lvl l JOIN customer c ON c.c_custkey = l.c_custkey GROUP BY c.c_nationkey
"""


def _h3_canonical_cells_sql(pts_sql: str, res: int = 7) -> str:
    """SQL producing (c_custkey, c_nationkey, h3_r7 BIGINT): CANONICAL Uber
    H3 ids bit-identical to `geom/h3.py latlng_to_cell` (verified 1500/1500
    on the sf0.01 customer grid, 82 points through the pentagon path).

    Float stage mirrors the r3 icosahedral oracle's proven approach (inlined
    float64 literals, round_even = np.rint, argmax ties -> lowest face);
    everything after cube rounding — the 7-level class-II/III digit
    extraction, the 540-row (face, ijk) -> base-cell lookup, the hex
    CCW^rot and pentagon leading-K / rotate-pent-60ccw chains, and the
    [mode|res|bc|digits] packing — is exact BIGINT arithmetic, so the only
    float risk is the shared libm trig already retired in r3."""
    from geopolars_ray.geom import h3 as H
    from geopolars_ray.geom import _h3_tables as T

    if res != 7:
        raise ValueError("oracle generator is unrolled for res 7")
    RAD = "0.017453292519943295"
    K = float(H.SQRT7 ** res)
    frows = ",".join(
        f"({f}, {H._CENTERS[f,0]!r}, {H._CENTERS[f,1]!r}, {H._CENTERS[f,2]!r}, "
        f"{H._NHAT[f,0]!r}, {H._NHAT[f,1]!r}, {H._NHAT[f,2]!r}, "
        f"{H._EHAT[f,0]!r}, {H._EHAT[f,1]!r}, {H._EHAT[f,2]!r}, {H._AZ_I[f]!r})"
        for f in range(20)
    )
    brows = ",".join(
        f"({f},{i},{j},{k},{int(T.FIJK_BC[f,i,j,k,0])},{int(T.FIJK_BC[f,i,j,k,1])},"
        f"{int(H._PENT[T.FIJK_BC[f,i,j,k,0]])},{int(H._CW_OFF[T.FIJK_BC[f,i,j,k,0],f])})"
        for f in range(20) for i in range(3) for j in range(3) for k in range(3)
    )

    def ccw_pow(d: str, n: str) -> str:
        # CCW^n: 0 and 7 are fixed points; {1..6} is the 6-cycle 1-5-4-6-2-3
        idx = (f"(CASE {d} WHEN 1 THEN 0 WHEN 5 THEN 1 WHEN 4 THEN 2 "
               f"WHEN 6 THEN 3 WHEN 2 THEN 4 ELSE 5 END)")
        return (f"(CASE WHEN {d} IN (0, 7) THEN {d} ELSE "
                f"CASE ({idx} + {n}) % 6 WHEN 0 THEN 1 WHEN 1 THEN 5 "
                f"WHEN 2 THEN 4 WHEN 3 THEN 6 WHEN 4 THEN 2 ELSE 3 END END)")

    def cw1(d: str) -> str:
        # _CW = [0,3,6,2,5,1,4,7]
        return (f"(CASE {d} WHEN 0 THEN 0 WHEN 1 THEN 3 WHEN 2 THEN 6 "
                f"WHEN 3 THEN 2 WHEN 4 THEN 5 WHEN 5 THEN 1 WHEN 6 THEN 4 "
                f"ELSE 7 END)")

    def lead(cols) -> str:
        return "COALESCE(" + ", ".join(f"NULLIF({c}, 0)" for c in cols) + ", 0)"

    # digit extraction, unrolled res..1 (odd r = class III ap7, even = ap7r)
    layers = []
    prev = "ijk0"
    for r in range(res, 0, -1):
        kk = "k" if r == res else "0"
        ii, jj = f"(i - {kk})", f"(j - {kk})"
        if r % 2 == 1:
            ni = f"CAST(round_even((3*{ii} - {jj}) / 7.0, 0) AS BIGINT)"
            nj = f"CAST(round_even(({ii} + 2*{jj}) / 7.0, 0) AS BIGINT)"
            ci, cj, ck = "3*ni + nj", "3*nj", "ni"
        else:
            ni = f"CAST(round_even((2*{ii} + {jj}) / 7.0, 0) AS BIGINT)"
            nj = f"CAST(round_even((3*{jj} - {ii}) / 7.0, 0) AS BIGINT)"
            ci, cj, ck = "3*ni", "ni + 3*nj", "nj"
        carry = ", ".join(f"d{s}" for s in range(r + 1, res + 1))
        carry = (carry + ", ") if carry else ""
        layers.append(f"""
L{r}a AS (SELECT c_custkey, c_nationkey, fid, {carry}i, j, {kk} AS k,
  {ni} AS ni, {nj} AS nj FROM {prev}),
L{r} AS (SELECT c_custkey, c_nationkey, fid, {carry}ni AS i, nj AS j,
  4*((i - ({ci})) - least(i - ({ci}), j - ({cj}), k - ({ck})))
  + 2*((j - ({cj})) - least(i - ({ci}), j - ({cj}), k - ({ck})))
  + ((k - ({ck})) - least(i - ({ci}), j - ({cj}), k - ({ck}))) AS d{r}
  FROM L{r}a)""")
        prev = f"L{r}"
    digit_chain = ",".join(layers)

    D = [f"d{s}" for s in range(1, res + 1)]
    hex_cols = ", ".join(
        f"CASE WHEN pent = 1 THEN {d} ELSE {ccw_pow(d, 'rot')} END AS {d}"
        for d in D)
    pk_cols = ", ".join(
        f"CASE WHEN pent = 1 AND {lead(D)} = 1 THEN "
        f"(CASE WHEN cwo = 1 THEN {cw1(d)} ELSE {ccw_pow(d, '1')} END) "
        f"ELSE {d} END AS {d}" for d in D)
    pent_steps = []
    prevp = "PK"
    for s in range(1, 5):
        ca = ", ".join(
            f"CASE WHEN pent = 1 AND rot >= {s} THEN {ccw_pow(d, '1')} "
            f"ELSE {d} END AS {d}" for d in D)
        cb = ", ".join(
            f"CASE WHEN pent = 1 AND rot >= {s} AND {lead(D)} = 1 "
            f"THEN {ccw_pow(d, '1')} ELSE {d} END AS {d}" for d in D)
        pent_steps.append(f"""
P{s}a AS (SELECT c_custkey, c_nationkey, bc, pent, rot, {ca} FROM {prevp}),
P{s} AS (SELECT c_custkey, c_nationkey, bc, pent, rot, {cb} FROM P{s}a)""")
        prevp = f"P{s}"
    pent_chain = ",".join(pent_steps)

    header = (1 << 59) | (res << 52) | ((1 << (3 * (15 - res))) - 1)
    pack = " | ".join(
        [f"{header}::BIGINT", "(bc::BIGINT << 45)"]
        + [f"(d{r}::BIGINT << {3 * (15 - r)})" for r in range(1, res + 1)])

    return f"""
WITH pts AS (SELECT c_custkey, c_nationkey, x AS lon, y AS lat FROM ({pts_sql})),
xyz AS (SELECT c_custkey, c_nationkey,
  cos(lat*{RAD})*cos(lon*{RAD}) AS X, cos(lat*{RAD})*sin(lon*{RAD}) AS Y,
  sin(lat*{RAD}) AS Z FROM pts),
faces(fid, cx, cy, cz, nhx, nhy, nhz, ehx, ehy, ehz, azi) AS (VALUES {frows}),
dots AS (SELECT c_custkey, c_nationkey, X, Y, Z, fid, cx, cy, cz,
  nhx, nhy, nhz, ehx, ehy, ehz, azi, X*cx + Y*cy + Z*cz AS dot
  FROM xyz CROSS JOIN faces),
best AS (SELECT * FROM (SELECT *, ROW_NUMBER() OVER
  (PARTITION BY c_custkey ORDER BY dot DESC, fid ASC) AS rn FROM dots)
  WHERE rn = 1),
geo AS (SELECT c_custkey, c_nationkey, fid,
  tan(acos(greatest(-1.0, least(1.0, dot)))) / {H.RES0_U!r} * {K!r} AS rr,
  (azi - atan2((X - dot*cx)*ehx + (Y - dot*cy)*ehy + (Z - dot*cz)*ehz,
               (X - dot*cx)*nhx + (Y - dot*cy)*nhy + (Z - dot*cz)*nhz))
    - {H.AP7_ROT!r} AS theta
  FROM best),
hex2d AS (SELECT c_custkey, c_nationkey, fid,
  rr * cos(theta) AS hx, rr * sin(theta) AS hy FROM geo),
frac AS (SELECT c_custkey, c_nationkey, fid,
  hx + 0.5*(hy / {H.S3_2!r}) AS cxf, -(hy / {H.S3_2!r}) AS czf FROM hex2d),
rnd AS (SELECT c_custkey, c_nationkey, fid, cxf, czf, -cxf - czf AS cyf,
  round_even(cxf, 0) AS rx, round_even(-cxf - czf, 0) AS ry,
  round_even(czf, 0) AS rz FROM frac),
fixed AS (SELECT c_custkey, c_nationkey, fid,
  CAST(CASE WHEN abs(rx - cxf) >= abs(ry - cyf) AND abs(rx - cxf) >= abs(rz - czf)
       THEN -ry - rz ELSE rx END AS BIGINT) AS fi,
  CAST(CASE WHEN NOT (abs(rx - cxf) >= abs(ry - cyf) AND abs(rx - cxf) >= abs(rz - czf))
       AND abs(rz - czf) >= abs(ry - cyf) THEN -rx - ry ELSE rz END AS BIGINT) AS fz
  FROM rnd),
ijk0 AS (SELECT c_custkey, c_nationkey, fid,
  fi - least(fi, -fz, 0) AS i, -fz - least(fi, -fz, 0) AS j,
  0 - least(fi, -fz, 0) AS k FROM fixed),
{digit_chain},
res0 AS (SELECT c_custkey, c_nationkey, fid,
  i - least(i, j, 0) AS i, j - least(i, j, 0) AS j, 0 - least(i, j, 0) AS k,
  {", ".join(D)} FROM L1),
bcl(bfid, bi, bj, bk, bc, rot, pent, cwo) AS (VALUES {brows}),
based AS (SELECT c_custkey, c_nationkey, bc, rot, pent, cwo, {", ".join(D)}
  FROM res0 JOIN bcl ON fid = bfid AND i = bi AND j = bj AND k = bk),
HX AS (SELECT c_custkey, c_nationkey, bc, rot, pent, cwo, {hex_cols} FROM based),
PK AS (SELECT c_custkey, c_nationkey, bc, pent, rot, cwo, {pk_cols} FROM HX),
{pent_chain}
SELECT c_custkey, c_nationkey, {pack} AS h3_r7 FROM P4
"""


def _h3_oracle_sql() -> str:
    """geo_h3_tiles oracle: canonical H3 res-7 ids -> distinct cells per
    nation (the query's two-level hash_aggregate collapses to one GROUP BY
    over the exact ids)."""
    cells = _h3_canonical_cells_sql(_CPTS)
    return (
        f"SELECT c_nationkey, CAST(count(DISTINCT h3_r7) AS BIGINT) AS n_cells "
        f"FROM ({cells}) GROUP BY c_nationkey"
    )


def _simplify_oracle_sql(tol: float = 20.0) -> str:
    """geo_simplify oracle: Douglas-Peucker replayed as a recursive CTE.

    Base case: each nation's (first, last) interval with its LATERAL argmax
    of perpendicular distance; recursive case: intervals whose dmax exceeds
    the tolerance split at the argmax point (two children via a VALUES side
    cross-join), each child computing its own argmax. Retained set = both
    endpoints + every split point; `kept_x4` sums their x*4 (exact integer
    lattice — see q_geo_simplify). The distance expression mirrors
    `kernels.simplify` operation-for-operation.
    """
    dist = (
        "CASE WHEN sqrt(({bx}-{ax})*({bx}-{ax}) + ({by}-{ay})*({by}-{ay})) = 0"
        " THEN sqrt((p.x-{ax})*(p.x-{ax}) + (p.y-{ay})*(p.y-{ay}))"
        " ELSE abs((p.x-{ax})*({by}-{ay}) - (p.y-{ay})*({bx}-{ax}))"
        " / sqrt(({bx}-{ax})*({bx}-{ax}) + ({by}-{ay})*({by}-{ay})) END"
    )
    d_base = dist.format(ax="p0.x", ay="p0.y", bx="p1.x", by="p1.y")
    d_rec = dist.format(ax="c.cax", ay="c.cay", bx="c.cbx", by="c.cby")
    return f"""
WITH RECURSIVE pts AS (
  SELECT c_nationkey, row_number() OVER (PARTITION BY c_nationkey ORDER BY c_custkey) - 1 AS idx, x, y
  FROM ({_CPTS})
),
ends AS (SELECT c_nationkey, max(idx) AS last FROM pts GROUP BY c_nationkey),
splits(c_nationkey, a, b, ax, ay, bx, by, m, dmax, mx, my) AS (
  SELECT e.c_nationkey, 0::BIGINT, e.last, p0.x, p0.y, p1.x, p1.y, l.m, l.dmax, l.mx, l.my
  FROM ends e
  JOIN pts p0 ON p0.c_nationkey = e.c_nationkey AND p0.idx = 0
  JOIN pts p1 ON p1.c_nationkey = e.c_nationkey AND p1.idx = e.last,
  LATERAL (
    SELECT p.idx AS m, p.x AS mx, p.y AS my, {d_base} AS dmax
    FROM pts p WHERE p.c_nationkey = e.c_nationkey AND p.idx > 0 AND p.idx < e.last
    ORDER BY dmax DESC, p.idx ASC LIMIT 1
  ) l
  WHERE e.last >= 2
  UNION ALL
  SELECT c.c_nationkey, c.ca, c.cb, c.cax, c.cay, c.cbx, c.cby, l.m, l.dmax, l.mx, l.my
  FROM (
    SELECT s.c_nationkey,
      CASE side WHEN 0 THEN s.a ELSE s.m END AS ca,
      CASE side WHEN 0 THEN s.m ELSE s.b END AS cb,
      CASE side WHEN 0 THEN s.ax ELSE s.mx END AS cax,
      CASE side WHEN 0 THEN s.ay ELSE s.my END AS cay,
      CASE side WHEN 0 THEN s.mx ELSE s.bx END AS cbx,
      CASE side WHEN 0 THEN s.my ELSE s.by END AS cby
    FROM splits s, (VALUES (0), (1)) v(side)
    WHERE s.dmax > {tol!r}
  ) c,
  LATERAL (
    SELECT p.idx AS m, p.x AS mx, p.y AS my, {d_rec} AS dmax
    FROM pts p WHERE p.c_nationkey = c.c_nationkey AND p.idx > c.ca AND p.idx < c.cb
    ORDER BY dmax DESC, p.idx ASC LIMIT 1
  ) l
  WHERE c.cb - c.ca >= 2
),
kept AS (SELECT c_nationkey, count(*) AS n_split,
         CAST(sum(mx * 4.0) AS BIGINT) AS split_x4 FROM splits WHERE dmax > {tol!r} GROUP BY c_nationkey),
nb AS (SELECT e.c_nationkey, e.last + 1 AS n_before, p0.x AS x0, p1.x AS x1
       FROM ends e
       JOIN pts p0 ON p0.c_nationkey = e.c_nationkey AND p0.idx = 0
       JOIN pts p1 ON p1.c_nationkey = e.c_nationkey AND p1.idx = e.last)
SELECT nb.c_nationkey, n_before,
  CASE WHEN n_before <= 2 THEN n_before ELSE 2 + COALESCE(n_split, 0) END AS n_after,
  CASE WHEN n_before = 1 THEN CAST(x0 * 4.0 AS BIGINT)
       ELSE CAST(x0 * 4.0 + x1 * 4.0 AS BIGINT) + COALESCE(split_x4, 0) END AS kept_x4
FROM nb LEFT JOIN kept USING (c_nationkey)
"""


def _geodesic_oracle_sql() -> str:
    """geo_geodesic oracle: haversine + full 20-iteration Vincenty in SQL.

    Replays `geom/kernels.py _haversine_m/_vincenty_m` over the per-nation
    c_custkey-ordered path, as unrolled CTE rounds (the same generated-SQL
    technique as the S2 Hilbert oracle). Compared at integer meters via the
    shared floor(v+0.5) rule — see q_geo_geodesic's docstring for the
    measured 28,000x ULP-to-boundary margin that makes this deterministic.
    """
    from geopolars_ray.geom.kernels import EARTH_RADIUS_M, WGS84_A, WGS84_B, WGS84_F

    RAD = "0.017453292519943295"  # float64(pi/180), same constant np.radians uses
    A, B_, F, R = WGS84_A, WGS84_B, WGS84_F, EARTH_RADIUS_M

    iters = []
    prev = "base"
    for i in range(20):
        nxt = f"it{i}"
        iters.append(
            f"""{nxt} AS (SELECT * EXCLUDE (lam, sinSigma, cosSigma, sigma, sinAlpha, cos2Alpha, cos2SigmaM),
  sin(lam) AS sinLam, cos(lam) AS cosLam FROM {prev}),
{nxt}b AS (SELECT *,
  sqrt((cosU2*sinLam)*(cosU2*sinLam) + (cosU1*sinU2 - sinU1*cosU2*cosLam)*(cosU1*sinU2 - sinU1*cosU2*cosLam)) AS sinSigma,
  sinU1*sinU2 + cosU1*cosU2*cosLam AS cosSigma FROM {nxt}),
{nxt}c AS (SELECT *, atan2(sinSigma, cosSigma) AS sigma,
  CASE WHEN sinSigma <> 0 THEN cosU1*cosU2*sinLam/sinSigma ELSE 0.0 END AS sinAlpha FROM {nxt}b),
{nxt}d AS (SELECT *, 1.0 - sinAlpha*sinAlpha AS cos2Alpha FROM {nxt}c),
{nxt}e AS (SELECT *, CASE WHEN cos2Alpha <> 0 THEN cosSigma - 2.0*sinU1*sinU2/cos2Alpha ELSE 0.0 END AS cos2SigmaM,
  {F!r}/16.0*(1.0 - sinAlpha*sinAlpha)*(4.0 + {F!r}*(4.0 - 3.0*(1.0 - sinAlpha*sinAlpha))) AS CC FROM {nxt}d),
{nxt}f AS (SELECT * EXCLUDE (sinLam, cosLam, CC),
  L + (1.0 - CC)*{F!r}*sinAlpha*(sigma + CC*sinSigma*(cos2SigmaM + CC*cosSigma*(-1.0 + 2.0*cos2SigmaM*cos2SigmaM))) AS lam
  FROM {nxt}e)"""
        )
        prev = f"{nxt}f"
    iters_sql = ",\n".join(iters)

    return f"""
WITH seg AS (SELECT c_nationkey,
  lag(x) OVER w AS lon1, lag(y) OVER w AS lat1, x AS lon2, y AS lat2
  FROM ({_CPTS}) WINDOW w AS (PARTITION BY c_nationkey ORDER BY c_custkey)),
seg2 AS (SELECT * FROM seg WHERE lon1 IS NOT NULL),
hav AS (SELECT c_nationkey,
  2.0 * {R!r} * asin(sqrt(least(greatest(
    sin((lat2*{RAD} - lat1*{RAD})/2.0)*sin((lat2*{RAD} - lat1*{RAD})/2.0)
    + cos(lat1*{RAD})*cos(lat2*{RAD})*sin((lon2-lon1)*{RAD}/2.0)*sin((lon2-lon1)*{RAD}/2.0), 0.0), 1.0))) AS d
  FROM seg2),
base AS (SELECT c_nationkey,
  (lon2-lon1)*{RAD} AS L,
  sin(atan((1.0-{F!r})*tan(lat1*{RAD}))) AS sinU1, cos(atan((1.0-{F!r})*tan(lat1*{RAD}))) AS cosU1,
  sin(atan((1.0-{F!r})*tan(lat2*{RAD}))) AS sinU2, cos(atan((1.0-{F!r})*tan(lat2*{RAD}))) AS cosU2,
  (lon2-lon1)*{RAD} AS lam,
  0.0 AS sinSigma, 0.0 AS cosSigma, 0.0 AS sigma, 0.0 AS sinAlpha, 0.0 AS cos2Alpha, 0.0 AS cos2SigmaM
  FROM seg2),
{iters_sql},
fin AS (SELECT c_nationkey,
  CASE WHEN sinSigma = 0 THEN 0.0 ELSE
    {B_!r} * (1.0 + u2/16384.0*(4096.0 + u2*(-768.0 + u2*(320.0 - 175.0*u2))))
    * (sigma - (u2/1024.0*(256.0 + u2*(-128.0 + u2*(74.0 - 47.0*u2)))) * sinSigma * (
        cos2SigmaM + (u2/1024.0*(256.0 + u2*(-128.0 + u2*(74.0 - 47.0*u2))))/4.0 * (
          cosSigma*(-1.0 + 2.0*cos2SigmaM*cos2SigmaM)
          - (u2/1024.0*(256.0 + u2*(-128.0 + u2*(74.0 - 47.0*u2))))/6.0*cos2SigmaM*(-3.0 + 4.0*sinSigma*sinSigma)*(-3.0 + 4.0*cos2SigmaM*cos2SigmaM)))
      ) END AS d
  FROM (SELECT *, cos2Alpha*({A!r}*{A!r} - {B_!r}*{B_!r})/({B_!r}*{B_!r}) AS u2 FROM {prev})),
havg AS (SELECT c_nationkey, CAST(floor(sum(d) + 0.5) AS BIGINT) AS hav_m FROM hav GROUP BY c_nationkey),
ving AS (SELECT c_nationkey, CAST(floor(sum(d) + 0.5) AS BIGINT) AS vin_m FROM fin GROUP BY c_nationkey)
SELECT havg.c_nationkey, hav_m, vin_m FROM havg JOIN ving USING (c_nationkey)
"""


def _substring_oracle_sql(L: int = 8) -> str:
    """The dd_substring oracle: exact-substring span dedup in DuckDB.

    Replays `stages/spandedup.py` exactly: RE2 ``\\s+`` tokenize with empty
    tokens dropped, the first-8-bytes Horner-31 token key (* 131 + length;
    chr(1) padding — an EXACT < 2^63 BIGINT), the base-31 window-hash
    polynomial over token keys in the 2^64 ring (bitwise-AND mask, offset
    weights inlined as ring-reduced literals), corpus-wide duplicate counts
    (>= 2), covered-position union over every duplicated window, and
    single-space reassembly via ordered string_agg. Full-text compare.
    """
    MASK = "18446744073709551615::HUGEINT"
    pad = "tok || repeat(chr(1), 8)"
    key = "CAST(ord(substr(%s, 1, 1)) AS BIGINT)" % pad
    for i in range(2, 9):
        key = f"({key})*31 + ord(substr({pad}, {i}, 1))"
    key = f"({key})*131 + length(tok)"
    wts = ", ".join(str(pow(31, i, 1 << 64)) for i in range(L))
    return (
        "WITH d AS (SELECT doc_id, regexp_replace(text, '[^\\x00-\\x7f]', ' ', 'g') AS tx FROM documents), "
        "li AS (SELECT doc_id, regexp_split_to_array(tx, '\\s+') AS l FROM d), "
        "raw AS (SELECT doc_id, unnest(l) AS tok, unnest(range(1, len(l) + 1)) AS rp FROM li), "
        "toks AS (SELECT doc_id, tok, row_number() OVER (PARTITION BY doc_id ORDER BY rp) AS pos "
        "FROM raw WHERE tok != ''), "
        f"tkv AS (SELECT doc_id, pos, {key} AS tk FROM toks), "
        "nt AS (SELECT doc_id, count(*) AS n FROM toks GROUP BY doc_id), "
        f"wts AS (SELECT unnest(range(0, {L})) AS i, unnest([{wts}]) AS wt), "
        "wh AS (SELECT t1.doc_id, t1.pos AS p, "
        f"sum(CAST(t2.tk AS HUGEINT) * w.wt) & {MASK} AS hv "
        "FROM tkv t1 JOIN nt ON nt.doc_id = t1.doc_id "
        f"JOIN tkv t2 ON t2.doc_id = t1.doc_id AND t2.pos >= t1.pos AND t2.pos <= t1.pos + {L - 1} "
        "JOIN wts w ON w.i = t2.pos - t1.pos "
        f"WHERE t1.pos + {L - 1} <= nt.n GROUP BY t1.doc_id, t1.pos), "
        "dups AS (SELECT hv FROM wh GROUP BY hv HAVING count(*) >= 2), "
        "cov AS (SELECT DISTINCT w.doc_id, t.pos FROM wh w JOIN dups USING (hv) "
        f"JOIN toks t ON t.doc_id = w.doc_id AND t.pos >= w.p AND t.pos <= w.p + {L - 1}), "
        "agg AS (SELECT t.doc_id, count(*) AS ntk, count(c.pos) AS nrm, "
        "string_agg(CASE WHEN c.pos IS NULL THEN t.tok END, ' ' ORDER BY t.pos) AS td "
        "FROM toks t LEFT JOIN cov c ON c.doc_id = t.doc_id AND c.pos = t.pos GROUP BY t.doc_id) "
        "SELECT d.doc_id, CAST(COALESCE(a.ntk, 0) AS BIGINT) AS n_tokens, "
        "CAST(COALESCE(a.nrm, 0) AS BIGINT) AS n_removed, COALESCE(a.td, '') AS text_dedup "
        "FROM d LEFT JOIN agg a ON a.doc_id = d.doc_id"
    )


def _minhash_oracle_sql() -> str:
    """The dd_minhash_docs oracle: the full MinHash-LSH pipeline in DuckDB.

    Replays `stages/dedup.py` exactly: k=5 rolling shingle hashes in the
    2^64 ring (HUGEINT with bitwise-AND masks — ~30x cheaper than %), the 64
    universal-hash permutation minima as 64 unrolled aggregates in ONE
    grouped pass (a CROSS JOIN against the 64-row permutation table emits
    64-row vectors and is ~20x slower), the per-band FNV-1a chain staged one
    CTE per round (inlining it quadruples the expression per round), the
    (band, band_hash) bucket self-join, and the exact shingle-set Jaccard
    >= 0.5 verify. Permutation coefficients are the seeded MinHasher state,
    inlined as literals.
    """
    from geopolars_ray.stages.dedup import MinHasher

    mh = MinHasher()
    M64 = "18446744073709551616"
    MASK = "18446744073709551615::HUGEINT"
    C = "1099511628211"
    MER = str((1 << 61) - 1)

    def u2s(x):
        return f"CAST(CASE WHEN ({x}) >= 9223372036854775808 THEN ({x}) - {M64} ELSE ({x}) END AS BIGINT)"

    def s2u(x):
        return f"(CASE WHEN ({x}) < 0 THEN CAST(({x}) AS HUGEINT) + {M64} ELSE CAST(({x}) AS HUGEINT) END)"

    sig_cols = ", ".join(
        f"min(((((hv * {int(mh.a[j])}) & {MASK}) + {int(mh.b[j])}) & {MASK}) % {MER}) AS s{j}"
        for j in range(64)
    )
    band_union = " UNION ALL ".join(
        f"SELECT doc_id, {b} AS band, s{4*b} AS s0, s{4*b+1} AS s1, s{4*b+2} AS s2, s{4*b+3} AS s3 FROM sig"
        for b in range(16)
    )
    rounds = []
    prev = "bands"
    for r in range(4):
        srcv = "1469598103934665603::HUGEINT" if r == 0 else "acc"
        keep = ", ".join(f"s{q}" for q in range(r + 1, 4))
        keep = (keep + ", ") if keep else ""
        rounds.append(
            f"r{r} AS (SELECT doc_id, band, {keep}"
            f"(({s2u(f'xor({u2s(srcv)}, CAST(s{r} AS BIGINT))')} * {C}) & {MASK}) AS acc FROM {prev})"
        )
        prev = f"r{r}"
    rounds_sql = ",\n".join(rounds)
    return f"""
WITH d0 AS (SELECT doc_id, regexp_replace(text, '[^\\x00-\\x7f]', ' ', 'g') AS text FROM documents),
d AS MATERIALIZED (SELECT doc_id, CASE WHEN length(text) < 5 THEN rpad(text, 5, ' ') ELSE text END AS tx FROM d0),
ser AS (SELECT unnest(range(1, (SELECT max(length(tx)) FROM d) - 2)) AS p),
pos AS (SELECT doc_id, tx, p FROM d CROSS JOIN ser WHERE p <= length(tx) - 4),
h AS MATERIALIZED (SELECT DISTINCT doc_id,
  ((((((((ord(substr(tx, p, 1))::HUGEINT * {C} + ord(substr(tx, p+1, 1))) & {MASK})
     * {C} + ord(substr(tx, p+2, 1))) & {MASK})
     * {C} + ord(substr(tx, p+3, 1))) & {MASK})
     * {C} + ord(substr(tx, p+4, 1))) & {MASK}) AS hv FROM pos),
sig AS MATERIALIZED (SELECT doc_id, {sig_cols} FROM h GROUP BY doc_id),
bands AS ({band_union}),
{rounds_sql},
bh AS MATERIALIZED (SELECT doc_id, band, {u2s('acc')} AS band_hash FROM r3),
cand AS MATERIALIZED (SELECT x.doc_id AS a, y.doc_id AS b FROM bh x
  JOIN bh y ON x.band = y.band AND x.band_hash = y.band_hash AND x.doc_id < y.doc_id
  GROUP BY 1, 2),
cnt AS MATERIALIZED (SELECT doc_id, count(*) AS n FROM h GROUP BY doc_id),
inter AS (SELECT c.a, c.b, count(hb.hv) AS i FROM cand c
  JOIN h ha ON ha.doc_id = c.a
  LEFT JOIN h hb ON hb.doc_id = c.b AND hb.hv = ha.hv
  GROUP BY c.a, c.b)
SELECT i.a, i.b, CAST(i.i AS DOUBLE) / CAST(ca.n + cb.n - i.i AS DOUBLE) AS jaccard
FROM inter i JOIN cnt ca ON ca.doc_id = i.a JOIN cnt cb ON cb.doc_id = i.b
WHERE CAST(i.i AS DOUBLE) / CAST(ca.n + cb.n - i.i AS DOUBLE) >= 0.5
"""


QUERIES = {
    "geo_affine": q_geo_affine,
    # geo_rotate was swapped out in r5 for the connected-components gate:
    # rotate/scale/skew kernels stay covered by geo_affine's gate + the
    # kernel pytest suite, and the 50-entry driver cap is full
    "dd_cc_clusters": q_dd_cc_clusters,
    "geo_rect_stats": q_geo_rect_stats,
    "geo_length_path": q_geo_length_path,
    "geo_distance": q_geo_distance,
    "geo_grid_tile": q_geo_grid_tile,
    "geo_sjoin_left": q_geo_sjoin_left,
    "geo_tile_rollup": q_geo_tile_rollup,
    "geo_knn": q_geo_knn,
    "geo_knn_join": q_geo_knn_join,
    "geo_explode": q_geo_explode,
    "geo_to_crs_x": q_geo_to_crs_x,
    "geo_utm": q_geo_utm,
    "geo_geojson": q_geo_geojson,
    "geo_exterior_len": q_geo_exterior_len,
    "geo_type_flags": q_geo_type_flags,
    "geo_sjoin_part": q_geo_sjoin_part,
    "rel_sessions": q_rel_sessions,
    "rel_asof": q_rel_asof,
    "rel_interval": q_rel_interval,
    "rel_anti": q_rel_anti,
    "rel_sliding": q_rel_sliding,
    "rel_group_topk": q_rel_group_topk,
    # rel_union_distinct was swapped out in r5 for the rasterization gate:
    # ds.union stays covered by geo_geojson's gate and distinct counting by
    # dd_exact_docs', and the 50-entry cap is full
    "geo_rasterize": q_geo_rasterize,
    "rel_sample": q_rel_sample,
    "mm_decode": q_mm_decode,
    "geo_convex_hull": q_geo_convex_hull,
    "geo_geodesic": q_geo_geodesic,
    "geo_s2_tiles": q_geo_s2_tiles,
    "geo_h3_tiles": q_geo_h3_tiles,
    "geo_simplify": q_geo_simplify,
    "rel_q1": q_rel_q1,
    "rel_topk": q_rel_topk,
    "rel_join_agg": q_rel_join_agg,
    # rel_distinct_types was swapped out in r4 for the composed curation
    # pipeline: distinct counting stays gate-covered by dd_exact_docs, and
    # the 50-entry driver cap is full (see COVERAGE.md "Registry note")
    "pipe_curation": q_pipe_curation,
    "dd_exact_docs": q_dd_exact_docs,
    "txt_tokens": q_txt_tokens,
    "txt_quality": q_txt_quality,
    "txt_repetition": q_txt_repetition,
    "txt_pii": q_txt_pii,
    "dd_paragraph": q_dd_paragraph,
    "txt_langid": q_txt_langid,
    "txt_fingerprint": q_txt_fingerprint,
    "dd_minhash_docs": q_dd_minhash_docs,
    "dd_simhash_docs": q_dd_simhash_docs,
    "dd_substring": q_dd_substring,
    "ann_topk": q_ann_topk,
    "ann_ivf": q_ann_ivf,
    "mm_resize_frames": q_mm_resize_frames,
    "dd_embed_cosine": q_dd_embed_cosine,
}

_PIP_COND = "c.x > r.xmin AND c.x < r.xmin + r.w AND c.y > r.ymin AND c.y < r.ymin + r.h"

ORACLE_SQL = {
    "geo_affine": (
        f"SELECT c_custkey, ({_CX}) + 1.25 AS xt, ({_CY}) - 2.5 AS yt, "
        f"2.0*(({_CX}) + 1.25) + 10.25 AS xa, 0.5*(({_CY}) - 2.5) - 3.5 AS ya FROM customer"
    ),
    "dd_cc_clusters": (
        "WITH segs AS (SELECT doc_id, seg FROM "
        "(SELECT doc_id, unnest(string_split(text, ' a ')) AS seg FROM documents) "
        "WHERE length(seg) >= 6), "
        "edges AS (SELECT DISTINCT a.doc_id AS u, b.doc_id AS v "
        "FROM segs a JOIN segs b USING (seg) WHERE a.doc_id <> b.doc_id), "
        "reach AS (WITH RECURSIVE r(u, v) AS ("
        "SELECT u, v FROM edges UNION "
        "SELECT r.u, e.v FROM r JOIN edges e ON r.v = e.u WHERE r.u <> e.v) "
        "SELECT u, v FROM r), "
        "lbl AS (SELECT u AS node, LEAST(u, MIN(v)) AS component "
        "FROM reach GROUP BY u), "
        "lab AS (SELECT d.doc_id, COALESCE(l.component, d.doc_id) AS component "
        "FROM documents d LEFT JOIN lbl l ON d.doc_id = l.node) "
        "SELECT doc_id, component, "
        "COUNT(*) OVER (PARTITION BY component) AS cluster_size FROM lab"
    ),
    "geo_rect_stats": (
        f"SELECT n_nationkey, w*h AS area, 2.0*(w+h) AS perimeter, "
        "xmin + w/2.0 AS cx, ymin + h/2.0 AS cy, "
        "xmin AS exmin, ymin AS eymin, xmin + w AS exmax, ymin + h AS eymax "
        f"FROM ({_RECT})"
    ),
    "geo_length_path": (
        f"WITH seg AS (SELECT c_nationkey, "
        "sqrt((x - lag(x) OVER w)*(x - lag(x) OVER w) + (y - lag(y) OVER w)*(y - lag(y) OVER w)) AS d "
        f"FROM ({_CPTS}) WINDOW w AS (PARTITION BY c_nationkey ORDER BY c_custkey)), "
        "pl AS (SELECT c_nationkey, round(sum(d), 6) AS path_length FROM seg WHERE d IS NOT NULL GROUP BY c_nationkey), "
        f"env AS (SELECT c_nationkey, min(x) AS xmin, min(y) AS ymin, max(x) AS xmax, max(y) AS ymax "
        f"FROM ({_CPTS}) GROUP BY c_nationkey) "
        "SELECT pl.c_nationkey, path_length, xmin, ymin, xmax, ymax FROM pl JOIN env USING (c_nationkey)"
    ),
    "geo_distance": (
        f"SELECT c.c_custkey, c.c_nationkey, "
        "sqrt((c.x - (r.xmin + r.w/2.0))*(c.x - (r.xmin + r.w/2.0)) + (c.y - (r.ymin + r.h/2.0))*(c.y - (r.ymin + r.h/2.0))) AS distance "
        f"FROM ({_CPTS}) c JOIN ({_RECT}) r ON c.c_nationkey = r.n_nationkey"
    ),
    "geo_grid_tile": (
        # dissolve leg: unit squares at integer offsets k%7 merge per tile,
        # so the dissolved area is exactly the count of distinct offsets
        f"SELECT CAST(floor((x + 180.0)/15.0)*12 + floor((y + 90.0)/15.0) AS BIGINT) AS tile, "
        f"count(*) AS n_pts, "
        f"CAST(count(DISTINCT c_custkey % 7) AS BIGINT) AS dissolved_area "
        f"FROM ({_CPTS}) GROUP BY 1"
    ),
    # r4 registry swap: geo_sjoin_inner retired for dd_substring under the
    # 50-entry gate cap — broadcast PIP stays starred via geo_sjoin_left
    # (same dispatch, plus null extension) and inner spatial-join semantics
    # via geo_sjoin_part; exact-substring dedup had no gate entry at all.
    "geo_sjoin_left": (
        f"SELECT c.c_custkey, COALESCE(r.n_nationkey, -1) AS rect_key "
        f"FROM ({_CPTS}) c LEFT JOIN ({_RECT}) r ON {_PIP_COND}"
    ),
    "geo_tile_rollup": (
        f"SELECT CAST(floor((c.x + 180.0)/15.0)*12 + floor((c.y + 90.0)/15.0) AS BIGINT) AS tile, "
        f"r.n_nationkey, count(*) AS n_pts, sum(c.x) AS sum_x, sum(c.y) AS sum_y "
        f"FROM ({_CPTS}) c JOIN ({_RECT}) r ON {_PIP_COND} GROUP BY 1, 2"
    ),
    "geo_knn": (
        f"WITH s AS (SELECT s_suppkey, {_SX} AS sx, {_SY} AS sy FROM supplier), "
        f"c AS ({_CPTS}), "
        "d AS (SELECT s.s_suppkey, c.c_custkey, sqrt((c.x - s.sx)*(c.x - s.sx) + (c.y - s.sy)*(c.y - s.sy)) AS distance "
        "FROM s CROSS JOIN c) "
        'SELECT s_suppkey, c_custkey, distance, "rank" FROM ('
        'SELECT *, ROW_NUMBER() OVER (PARTITION BY s_suppkey ORDER BY distance, c_custkey) AS "rank" FROM d) '
        'WHERE "rank" <= 3'
    ),
    "geo_knn_join": (
        f"WITH s AS (SELECT s_suppkey, {_SX} AS x, {_SY} AS y FROM supplier), "
        f"c AS ({_CPTS}), "
        "d AS (SELECT c.c_custkey, s.s_suppkey, "
        "sqrt((c.x - s.x)*(c.x - s.x) + (c.y - s.y)*(c.y - s.y)) AS distance "
        "FROM c CROSS JOIN s) "
        'SELECT c_custkey, s_suppkey, distance, "rank" FROM ('
        'SELECT *, ROW_NUMBER() OVER (PARTITION BY c_custkey ORDER BY distance, s_suppkey) AS "rank" FROM d) '
        'WHERE "rank" <= 3'
    ),
    "geo_explode": f"SELECT c_nationkey, {_CX} AS x, {_CY} AS y FROM customer",
    "geo_to_crs_x": (
        f"SELECT c_custkey, 6378137.0 * (({_CX}) * 0.017453292519943295) AS mercator_x FROM customer"
    ),
    "geo_utm": (
        f"SELECT c_custkey, CAST(floor((({_CX}) + 180.0)/6.0) + 1 AS BIGINT) AS zone, "
        "TRUE AS rt_ok FROM customer"
    ),
    "geo_geojson": (
        f"SELECT c_custkey, 'geojsonl' AS fmt, {_CX} AS gx, {_CY} AS gy FROM customer "
        f"UNION ALL SELECT c_custkey, 'gpkg' AS fmt, {_CX} AS gx, {_CY} AS gy FROM customer"
    ),
    "geo_exterior_len": f"SELECT n_nationkey, 2.0*(w+h) AS ext_len FROM ({_RECT})",
    "geo_type_flags": (
        # overlay leg: integer rect pairs (k%3 -> partial/contained/disjoint);
        # intersection is closed-form LEAST/GREATEST, the rest are
        # inclusion-exclusion over exact integers
        "WITH t0 AS (SELECT c_custkey, c_custkey % 11 AS x0, c_custkey % 13 AS y0, "
        "4 + c_custkey % 3 AS w, 5 + c_custkey % 4 AS h, c_custkey % 3 AS m FROM customer), "
        "t1 AS (SELECT c_custkey, x0 AS r1x1, y0 AS r1y1, x0 + w AS r1x2, y0 + h AS r1y2, "
        "CASE WHEN m = 0 THEN x0 + 2 WHEN m = 1 THEN x0 + 1 ELSE x0 + w + 3 END AS r2x1, "
        "CASE WHEN m = 0 THEN y0 + 2 WHEN m = 1 THEN y0 + 1 ELSE y0 END AS r2y1, "
        "CASE WHEN m = 0 THEN x0 + 2 + w WHEN m = 1 THEN x0 + w - 1 ELSE x0 + w + 5 END AS r2x2, "
        "CASE WHEN m = 0 THEN y0 + 2 + h WHEN m = 1 THEN y0 + h - 1 ELSE y0 + 2 END AS r2y2 "
        "FROM t0), "
        "t2 AS (SELECT c_custkey, (r1x2 - r1x1) * (r1y2 - r1y1) AS a1, "
        "(r2x2 - r2x1) * (r2y2 - r2y1) AS a2, "
        "GREATEST(0, LEAST(r1x2, r2x2) - GREATEST(r1x1, r2x1)) * "
        "GREATEST(0, LEAST(r1y2, r2y2) - GREATEST(r1y1, r2y1)) AS ia FROM t1) "
        "SELECT t2.c_custkey, CAST(0 AS INTEGER) AS type_id, FALSE AS empty, FALSE AS ring, "
        "CAST(ia AS BIGINT) AS inter_area, CAST(a1 + a2 - ia AS BIGINT) AS union_area, "
        "CAST(a1 - ia AS BIGINT) AS diff_area, "
        "CAST(a1 + a2 - 2 * ia AS BIGINT) AS symdiff_area, "
        # DE-9IM leg: each k%4 interaction class has a constant matrix
        "CASE t2.c_custkey % 4 WHEN 0 THEN '212101212' WHEN 1 THEN '212FF1FF2' "
        "WHEN 2 THEN 'FF2F11212' ELSE 'FF2FF1212' END AS de9im, "
        "t2.c_custkey % 4 IN (0, 1, 2) AS rel_intersects, "
        "t2.c_custkey % 4 = 2 AS rel_touches, "
        "t2.c_custkey % 4 = 1 AS rel_contains, "
        "t2.c_custkey % 4 = 0 AS rel_overlaps FROM t2"
    ),
    "geo_sjoin_part": (
        f"SELECT c.c_custkey, r.n_nationkey FROM ({_CPTS}) c JOIN ({_RECT}) r ON {_PIP_COND}"
    ),
    "rel_sessions": (
        "WITH e AS (SELECT user_id, epoch_us(ts) AS us FROM events), "
        "m AS (SELECT user_id, us, CASE WHEN lag(us) OVER w IS NULL "
        "OR us - lag(us) OVER w > 1800000000 THEN 1 ELSE 0 END AS new_s "
        "FROM e WINDOW w AS (PARTITION BY user_id ORDER BY us)), "
        "s AS (SELECT user_id, CAST(sum(new_s) OVER (PARTITION BY user_id ORDER BY us "
        "ROWS UNBOUNDED PRECEDING) AS BIGINT) AS sess FROM m), "
        "c AS (SELECT user_id, sess, count(*) AS n FROM s GROUP BY user_id, sess) "
        "SELECT user_id, CAST(max(sess) AS BIGINT) AS n_sessions, "
        "CAST(max(n) AS BIGINT) AS max_session_events FROM c GROUP BY user_id"
    ),
    "rel_asof": (
        "SELECT c.event_id, c.user_id, "
        "CAST(COALESCE(round(p.value*100), -1) AS BIGINT) AS last_purchase_cents "
        "FROM (SELECT * FROM events WHERE event_type='click') c "
        "ASOF LEFT JOIN (SELECT * FROM events WHERE event_type='purchase') p "
        "ON c.user_id = p.user_id AND c.ts >= p.ts"
    ),
    "rel_interval": (
        "SELECT c.user_id, epoch_us(c.ts) AS ts_us, c.event_id, "
        "p.event_id AS event_id_r, epoch_us(p.ts) - epoch_us(c.ts) AS dt_us "
        "FROM (SELECT * FROM events WHERE event_type='click') c "
        "JOIN (SELECT * FROM events WHERE event_type='purchase') p "
        "ON c.user_id = p.user_id AND epoch_us(p.ts) "
        "BETWEEN epoch_us(c.ts) - 1800000000 AND epoch_us(c.ts) + 1800000000"
    ),
    "rel_anti": (
        "SELECT c_custkey, c_mktsegment FROM customer c "
        "WHERE NOT EXISTS (SELECT 1 FROM orders o "
        "WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 300000.0)"
    ),
    "rel_sliding": (
        "WITH e AS (SELECT user_id, epoch_us(ts) // 3600000000 AS hr, "
        "CAST(round(value*100) AS BIGINT) AS cents FROM events), "
        "w AS (SELECT user_id, hr AS window_start, cents FROM e "
        "UNION ALL SELECT user_id, hr - 1 AS window_start, cents FROM e) "
        "SELECT user_id, window_start, count(*) AS n_events, "
        "CAST(sum(cents) AS BIGINT) AS sum_cents FROM w GROUP BY 1, 2"
    ),
    "rel_group_topk": (
        "SELECT c_mktsegment, o_orderkey, o_totalprice FROM ("
        "SELECT c_mktsegment, o_orderkey, o_totalprice, "
        "ROW_NUMBER() OVER (PARTITION BY c_mktsegment ORDER BY o_totalprice DESC, o_orderkey) AS rn "
        "FROM orders JOIN customer ON o_custkey = c_custkey) WHERE rn <= 3"
    ),
    "geo_rasterize": (
        # replay tile id, cell index (astype-trunc == floor: offsets are
        # non-negative) and exact cell-center arithmetic of stages/raster.py
        f"WITH pts AS (SELECT {_CX} AS x, {_CY} AS y FROM customer), "
        "t AS (SELECT x, y, "
        "CAST(floor((x + 180.0)/15.0)*12 + floor((y + 90.0)/15.0) AS BIGINT) AS tile, "
        "floor((x + 180.0)/15.0)*15.0 - 180.0 AS lon0, "
        "floor((y + 90.0)/15.0)*15.0 - 90.0 AS lat0 FROM pts), "
        "c AS (SELECT tile, lon0, lat0, "
        "least(greatest(CAST(floor(((x - lon0)/15.0)*8) AS BIGINT), 0), 7) AS cx, "
        "least(greatest(CAST(floor(((y - lat0)/15.0)*8) AS BIGINT), 0), 7) AS cy FROM t) "
        "SELECT tile, lon0 + (cx + 0.5)*1.875 AS cell_lon, "
        "lat0 + (cy + 0.5)*1.875 AS cell_lat, CAST(count(*) AS DOUBLE) AS value "
        "FROM c GROUP BY tile, lon0, lat0, cx, cy"
    ),
    "rel_q1": (
        "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, count(*) AS n_rows, "
        "CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)) AS BIGINT) AS sum_base_cents, "
        "min(l_extendedprice) AS min_price, max(l_extendedprice) AS max_price "
        "FROM lineitem WHERE l_shipdate < TIMESTAMP '1997-09-01' GROUP BY l_returnflag, l_linestatus"
    ),
    "rel_topk": (
        "SELECT o_orderkey, o_custkey, o_totalprice FROM orders "
        "ORDER BY o_totalprice DESC, o_orderkey LIMIT 10"
    ),
    "rel_join_agg": (
        "SELECT n_name, count(*) AS n_orders, "
        "CAST(sum(CAST(round(o_totalprice*100) AS BIGINT)) AS BIGINT) AS revenue_cents "
        "FROM orders JOIN customer ON o_custkey = c_custkey JOIN nation ON c_nationkey = n_nationkey "
        "GROUP BY n_name"
    ),
    "pipe_curation": (
        # composition of the txt_quality, txt_langid, rel_sample and
        # dd_paragraph replays: quality floor (0.62) -> keep 50% of docs
        # whose PREDICTED language is en (Knuth-hash predicate, seed 12345)
        # -> paragraph dedup (sep ' a ') over the SURVIVING corpus only
        "WITH f AS (SELECT doc_id, CAST(length(text) AS DOUBLE) AS n, "
        "greatest(CAST(length(text) AS DOUBLE), 1.0) AS n_safe, "
        "CAST(length(regexp_extract_all(text, '[A-Za-z]')) AS BIGINT) AS n_alpha, "
        "CAST(length(regexp_extract_all(text, '[0-9]')) AS BIGINT) AS n_digit, "
        "CAST(length(regexp_extract_all(text, '\\s')) AS BIGINT) AS n_space, "
        "CAST(length(regexp_extract_all(text, '\\b(the|and|of|a|to|in|is|it|for|on)\\b')) AS BIGINT) AS n_stop, "
        "greatest(CAST(length(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT), 1) AS words FROM documents), "
        "r AS (SELECT doc_id, CAST(n_alpha AS DOUBLE)/n_safe AS alpha_ratio, "
        "CAST(n_digit AS DOUBLE)/n_safe AS digit_ratio, "
        "CAST(n_stop AS DOUBLE)/CAST(words AS DOUBLE) AS stop_ratio, "
        "least(greatest(n/500.0, 0.0), 1.0) AS length_prior FROM f), "
        "qual AS (SELECT doc_id, 0.35*alpha_ratio + 0.25*least(greatest(stop_ratio*3.0, 0.0), 1.0) "
        "+ 0.2*length_prior + 0.2*(1.0 - least(greatest(digit_ratio*4.0, 0.0), 1.0)) AS quality FROM r), "
        "la AS (SELECT doc_id, regexp_replace(text, '[^\\x00-\\x7f]', ' ', 'g') AS text FROM documents), "
        "ls AS (SELECT doc_id, "
        "CAST(length(regexp_extract_all(text, '\\b(the|and|of|to|is|that|with)\\b', 0, 'i')) AS BIGINT) AS s_en, "
        "CAST(length(regexp_extract_all(text, '\\b(der|die|und|das|ist|nicht|ein)\\b', 0, 'i')) AS BIGINT) AS s_de, "
        "CAST(length(regexp_extract_all(text, '\\b(le|la|les|et|est|une|que)\\b', 0, 'i')) AS BIGINT) AS s_fr, "
        "CAST(length(regexp_extract_all(text, '\\b(el|la|los|y|es|una|que)\\b', 0, 'i')) AS BIGINT) AS s_es, "
        "CAST(length(regexp_extract_all(text, '\\b(o|a|os|e|uma|n\u00e3o|que)\\b', 0, 'i')) AS BIGINT) AS s_pt, "
        "CAST(length(regexp_extract_all(text, '\\b(il|la|e|che|di|un|per)\\b', 0, 'i')) AS BIGINT) AS s_it "
        "FROM la), lt AS (SELECT *, s_en+s_de+s_fr+s_es+s_pt+s_it AS total FROM ls), "
        "lid AS (SELECT doc_id, CASE WHEN total = 0 THEN 'und' "
        "WHEN s_en >= s_de AND s_en >= s_fr AND s_en >= s_es AND s_en >= s_pt AND s_en >= s_it THEN 'en' "
        "WHEN s_de >= s_fr AND s_de >= s_es AND s_de >= s_pt AND s_de >= s_it THEN 'de' "
        "WHEN s_fr >= s_es AND s_fr >= s_pt AND s_fr >= s_it THEN 'fr' "
        "WHEN s_es >= s_pt AND s_es >= s_it THEN 'es' "
        "WHEN s_pt >= s_it THEN 'pt' ELSE 'it' END AS lang_pred FROM lt), "
        "filt AS (SELECT d.doc_id, d.text FROM documents d "
        "JOIN qual USING (doc_id) JOIN lid USING (doc_id) "
        "WHERE qual.quality >= 0.62 AND "
        "CAST(((d.doc_id * 2654435761 + 12345) % 4294967296) AS DOUBLE) / 4294967296.0 < "
        "CASE WHEN lid.lang_pred = 'en' THEN 0.5 ELSE 1.0 END), "
        "PS AS (SELECT doc_id, string_split(text, ' a ') AS parts FROM filt), "
        "PP AS (SELECT doc_id, generate_subscripts(parts, 1) - 1 AS pidx, unnest(parts) AS seg FROM PS), "
        "PM AS (SELECT seg, min(doc_id * 1048576 + pidx) AS mr FROM PP GROUP BY seg), "
        "PK AS (SELECT PP.doc_id, PP.pidx, PP.seg FROM PP JOIN PM ON PP.seg = PM.seg "
        "AND PP.doc_id * 1048576 + PP.pidx = PM.mr), "
        "PR AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_kept, "
        "string_agg(seg, ' a ' ORDER BY pidx) AS text_dedup FROM PK GROUP BY doc_id) "
        "SELECT ps.doc_id, CAST(len(ps.parts) AS BIGINT) AS n_seg, "
        "coalesce(pr.n_kept, 0) AS n_kept, coalesce(pr.text_dedup, '') AS text_dedup "
        "FROM PS ps LEFT JOIN PR pr ON ps.doc_id = pr.doc_id"
    ),
    "dd_exact_docs": (
        "SELECT text, min(doc_id) AS min_doc_id, count(*) AS n_copies FROM documents GROUP BY text"
    ),
    "txt_tokens": (
        "SELECT doc_id, CAST(length(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT) AS n_tokens, "
        "CAST(length(text) AS BIGINT) AS n_chars_calc FROM documents"
    ),
    "txt_repetition": (
        "WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents), "
        "f AS (SELECT doc_id, unnest(toks) AS tok FROM t), "
        "g AS (SELECT doc_id, tok, count(*) AS c FROM f GROUP BY doc_id, tok), "
        "d AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_tok, CAST(count(*) AS BIGINT) AS n_distinct_tok, "
        "CAST(max(c) AS BIGINT) AS top_tok_n FROM g GROUP BY doc_id), "
        "b AS (SELECT doc_id, unnest(list_transform(list_zip(toks[:len(toks)-1], toks[2:]), "
        "s -> s[1] || ' ' || s[2])) AS bg FROM t), "
        "bg AS (SELECT doc_id, bg, count(*) AS c FROM b GROUP BY doc_id, bg), "
        "bd AS (SELECT doc_id, CAST(max(c) AS BIGINT) AS top_bigram_n FROM bg GROUP BY doc_id) "
        "SELECT d.doc_id, n_tok, n_distinct_tok, "
        "(n_tok - n_distinct_tok) / CAST(n_tok AS DOUBLE) AS dup_token_frac, "
        "top_tok_n, coalesce(bd.top_bigram_n, 0) AS top_bigram_n "
        "FROM d LEFT JOIN bd ON d.doc_id = bd.doc_id"
    ),
    "txt_pii": (
        "WITH inj AS (SELECT doc_id, text || ' user' || CAST(doc_id AS VARCHAR) || "
        "'@example.com at 192.168.' || CAST(doc_id % 250 AS VARCHAR) || '.' || "
        "CAST(doc_id % 100 AS VARCHAR) || ' tel +1 555 013 ' || "
        "CAST(1000 + doc_id % 9000 AS VARCHAR) AS t FROM documents) "
        "SELECT doc_id, "
        "CAST(length(regexp_extract_all(t, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS BIGINT) AS n_email, "
        "CAST(length(regexp_extract_all(t, '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b')) AS BIGINT) AS n_ipv4, "
        "CAST(length(regexp_extract_all(t, '\\+?\\d{1,3}[ -]\\d{3}[ -]\\d{3,4}[ -]\\d{3,4}\\b')) AS BIGINT) AS n_phone, "
        "regexp_replace(regexp_replace(regexp_replace(t, "
        "'[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '<EMAIL>', 'g'), "
        "'\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b', '<IPV4>', 'g'), "
        "'\\+?\\d{1,3}[ -]\\d{3}[ -]\\d{3,4}[ -]\\d{3,4}\\b', '<PHONE>', 'g') AS text_redacted "
        "FROM inj"
    ),
    "dd_paragraph": (
        "WITH S AS (SELECT doc_id, string_split(text, ' a ') AS parts FROM documents), "
        "P AS (SELECT doc_id, generate_subscripts(parts, 1) - 1 AS pidx, unnest(parts) AS seg FROM S), "
        "M AS (SELECT seg, min(doc_id * 1048576 + pidx) AS mr FROM P GROUP BY seg), "
        "K AS (SELECT P.doc_id, P.pidx, P.seg FROM P JOIN M ON P.seg = M.seg "
        "AND P.doc_id * 1048576 + P.pidx = M.mr), "
        "R AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_kept, "
        "string_agg(seg, ' a ' ORDER BY pidx) AS text_dedup FROM K GROUP BY doc_id) "
        "SELECT s.doc_id, CAST(len(s.parts) AS BIGINT) AS n_seg, "
        "coalesce(r.n_kept, 0) AS n_kept, coalesce(r.text_dedup, '') AS text_dedup "
        "FROM S s LEFT JOIN R r ON s.doc_id = r.doc_id"
    ),
    "txt_quality": (
        "WITH f AS (SELECT doc_id, CAST(length(text) AS DOUBLE) AS n, "
        "greatest(CAST(length(text) AS DOUBLE), 1.0) AS n_safe, "
        "CAST(length(regexp_extract_all(text, '[A-Za-z]')) AS BIGINT) AS n_alpha, "
        "CAST(length(regexp_extract_all(text, '[0-9]')) AS BIGINT) AS n_digit, "
        "CAST(length(regexp_extract_all(text, '\\s')) AS BIGINT) AS n_space, "
        "CAST(length(regexp_extract_all(text, '\\b(the|and|of|a|to|in|is|it|for|on)\\b')) AS BIGINT) AS n_stop, "
        "greatest(CAST(length(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT), 1) AS words FROM documents), "
        "r AS (SELECT doc_id, n_alpha, n_digit, "
        "CAST(n_alpha AS DOUBLE)/n_safe AS alpha_ratio, "
        "CAST(n_digit AS DOUBLE)/n_safe AS digit_ratio, "
        "CAST(n_space AS DOUBLE)/n_safe AS space_ratio, "
        "CAST(n_stop AS DOUBLE)/CAST(words AS DOUBLE) AS stop_ratio, "
        "least(greatest(n/500.0, 0.0), 1.0) AS length_prior FROM f) "
        "SELECT doc_id, n_alpha, n_digit, alpha_ratio, digit_ratio, space_ratio, stop_ratio, "
        "0.35*alpha_ratio + 0.25*least(greatest(stop_ratio*3.0, 0.0), 1.0) + 0.2*length_prior "
        "+ 0.2*(1.0 - least(greatest(digit_ratio*4.0, 0.0), 1.0)) AS quality FROM r"
    ),
    "txt_langid": (
        # ASCII projection first (mirrors LangId): every non-ASCII codepoint
        # becomes a space, making RE2's ASCII \b agree with Python's
        # Unicode \b on the projected text
        "WITH a AS (SELECT doc_id, lang, regexp_replace(text, '[^\\x00-\\x7f]', ' ', 'g') AS text FROM documents), "
        "s AS (SELECT doc_id, lang, "
        "CAST(length(regexp_extract_all(text, '\\b(the|and|of|to|is|that|with)\\b', 0, 'i')) AS BIGINT) AS s_en, "
        "CAST(length(regexp_extract_all(text, '\\b(der|die|und|das|ist|nicht|ein)\\b', 0, 'i')) AS BIGINT) AS s_de, "
        "CAST(length(regexp_extract_all(text, '\\b(le|la|les|et|est|une|que)\\b', 0, 'i')) AS BIGINT) AS s_fr, "
        "CAST(length(regexp_extract_all(text, '\\b(el|la|los|y|es|una|que)\\b', 0, 'i')) AS BIGINT) AS s_es, "
        "CAST(length(regexp_extract_all(text, '\\b(o|a|os|e|uma|n\u00e3o|que)\\b', 0, 'i')) AS BIGINT) AS s_pt, "
        "CAST(length(regexp_extract_all(text, '\\b(il|la|e|che|di|un|per)\\b', 0, 'i')) AS BIGINT) AS s_it "
        "FROM a), t AS (SELECT *, s_en+s_de+s_fr+s_es+s_pt+s_it AS total FROM s) "
        "SELECT doc_id, lang, CASE WHEN total = 0 THEN 'und' "
        "WHEN s_en >= s_de AND s_en >= s_fr AND s_en >= s_es AND s_en >= s_pt AND s_en >= s_it THEN 'en' "
        "WHEN s_de >= s_fr AND s_de >= s_es AND s_de >= s_pt AND s_de >= s_it THEN 'de' "
        "WHEN s_fr >= s_es AND s_fr >= s_pt AND s_fr >= s_it THEN 'fr' "
        "WHEN s_es >= s_pt AND s_es >= s_it THEN 'es' "
        "WHEN s_pt >= s_it THEN 'pt' ELSE 'it' END AS lang_pred, "
        "CASE WHEN total = 0 THEN 0.0 ELSE CAST(greatest(s_en, s_de, s_fr, s_es, s_pt, s_it) AS DOUBLE)"
        "/CAST(total AS DOUBLE) END AS lang_conf FROM t"
    ),
    "rel_sample": (
        "SELECT o_orderkey, o_totalprice FROM orders "
        "WHERE ((o_orderkey * 2654435761 + 12345) % 4294967296) % 10 < 1"
    ),
    "ann_ivf": (
        # Full IVF replay: quantize -> assign each row to its argmax-dot
        # centroid (ties -> lowest cid, = np.argmax first-max) -> per-query
        # top-nprobe probe lists (ties -> ascending cid, = stable argsort)
        # -> global wanted-list filter -> exact top-10 over survivors.
        "WITH c16 AS (SELECT vec_id, embedding FROM embeddings ORDER BY vec_id LIMIT 16), "
        "cq AS (SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid, "
        "CAST(list_transform(embedding, x -> floor(CAST(x AS DOUBLE)*1024.0)) AS DOUBLE[]) AS cv FROM c16), "
        "q AS (SELECT vec_id AS qid, embedding FROM embeddings ORDER BY vec_id LIMIT 5), "
        "qq AS (SELECT qid, CAST(list_transform(embedding, x -> floor(CAST(x AS DOUBLE)*1024.0)) AS DOUBLE[]) AS qv FROM q), "
        "vv AS (SELECT vec_id, CAST(list_transform(embedding, x -> floor(CAST(x AS DOUBLE)*1024.0)) AS DOUBLE[]) AS ev FROM embeddings), "
        "assign AS (SELECT vec_id, ev, cid FROM ("
        "SELECT vec_id, ev, cid, ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY list_dot_product(ev, cv) DESC, cid) AS rn "
        "FROM vv CROSS JOIN cq) WHERE rn = 1), "
        "probe AS (SELECT DISTINCT cid FROM ("
        "SELECT qid, cid, ROW_NUMBER() OVER (PARTITION BY qid ORDER BY list_dot_product(qv, cv) DESC, cid) AS rn "
        "FROM qq CROSS JOIN cq) WHERE rn <= 4), "
        "flt AS (SELECT vec_id, ev FROM assign WHERE cid IN (SELECT cid FROM probe)), "
        "d AS (SELECT qid, vec_id, list_dot_product(qv, ev) AS score FROM qq CROSS JOIN flt) "
        'SELECT qid, vec_id, score, "rank" FROM ('
        'SELECT *, ROW_NUMBER() OVER (PARTITION BY qid ORDER BY score DESC, vec_id) AS "rank" FROM d) '
        'WHERE "rank" <= 10'
    ),
    "ann_topk": (
        "WITH q AS (SELECT vec_id AS qid, embedding FROM embeddings ORDER BY vec_id LIMIT 5), "
        "qq AS (SELECT qid, CAST(list_transform(embedding, x -> floor(CAST(x AS DOUBLE)*1024.0)) AS DOUBLE[]) AS qv FROM q), "
        "vv AS (SELECT vec_id, CAST(list_transform(embedding, x -> floor(CAST(x AS DOUBLE)*1024.0)) AS DOUBLE[]) AS ev FROM embeddings), "
        "d AS (SELECT qid, vec_id, list_dot_product(qv, ev) AS score FROM qq CROSS JOIN vv) "
        'SELECT qid, vec_id, score, "rank" FROM ('
        'SELECT *, ROW_NUMBER() OVER (PARTITION BY qid ORDER BY score DESC, vec_id) AS "rank" FROM d) '
        'WHERE "rank" <= 10'
    ),
    "geo_convex_hull": (
        "WITH p AS (SELECT DISTINCT c_nationkey, CAST(c_custkey % 1000 AS DOUBLE) AS t FROM customer), "
        "e AS (SELECT c_nationkey, t, lead(t) OVER w AS t2 FROM p WINDOW w AS (PARTITION BY c_nationkey ORDER BY t)), "
        "terms AS (SELECT c_nationkey, CASE WHEN t2 IS NULL THEN 0.0 ELSE t*(t2*t2) - t2*(t*t) END AS term FROM e), "
        "cl AS (SELECT c_nationkey, min(t) AS tmin, max(t) AS tmax, CAST(count(*) AS BIGINT) AS n FROM p GROUP BY c_nationkey), "
        "s AS (SELECT c_nationkey, sum(term) AS ssum FROM terms GROUP BY c_nationkey) "
        "SELECT s.c_nationkey, abs(ssum + (tmax*(tmin*tmin) - tmin*(tmax*tmax)))/2.0 AS hull_area, "
        "n + 1 AS hull_points FROM s JOIN cl USING (c_nationkey)"
    ),
    "dd_simhash_docs": (
        # frequency-weighted 64-bit simhash replayed exactly in SQL: the
        # 2^64-ring rolling hash via HUGEINT mod, bit extraction via BIGINT
        # masks (j=63 = sign bit), per-(doc, bit) majority vote, repack.
        "WITH d AS (SELECT doc_id, CASE WHEN length(text) < 4 THEN rpad(text, 4, ' ') "
        "ELSE text END AS tx FROM documents), "
        "ser AS (SELECT unnest(range(1, (SELECT max(length(tx)) FROM d) - 1)) AS p), "
        "pos AS (SELECT doc_id, tx, p FROM d CROSS JOIN ser WHERE p <= length(tx) - 3), "
        "h AS (SELECT doc_id, "
        "((((((ord(substr(tx, p, 1))::HUGEINT * 1099511628211 + ord(substr(tx, p+1, 1))) % 18446744073709551616) "
        "* 1099511628211 + ord(substr(tx, p+2, 1))) % 18446744073709551616) "
        "* 1099511628211 + ord(substr(tx, p+3, 1))) % 18446744073709551616) AS hv FROM pos), "
        "hs AS (SELECT doc_id, CAST(CASE WHEN hv >= (1::HUGEINT << 63) THEN hv - 18446744073709551616 "
        "ELSE hv END AS BIGINT) AS v FROM h), "
        "bits AS (SELECT doc_id, j, CASE WHEN j = 63 THEN CASE WHEN v < 0 THEN 1 ELSE 0 END "
        "WHEN (v & (1::BIGINT << j)) != 0 THEN 1 ELSE 0 END AS bit "
        "FROM hs, generate_series(0, 63) AS t(j)), "
        "agg AS (SELECT doc_id, j, sum(bit) AS ones, count(*) AS m FROM bits GROUP BY doc_id, j), "
        "sh AS (SELECT doc_id, sum(CASE WHEN 2*ones > m THEN (1::HUGEINT << j) "
        "ELSE 0::HUGEINT END) AS uv FROM agg GROUP BY doc_id) "
        "SELECT doc_id, CAST(CASE WHEN uv >= (1::HUGEINT << 63) THEN uv - 18446744073709551616 "
        "ELSE uv END AS BIGINT) AS simhash FROM sh"
    ),
    "txt_fingerprint": (
        # winnowing fingerprints replayed in SQL: the k=8 ring hash collapses
        # to a plain 31-base polynomial (< 2^63, no wrap), window minima via
        # ROWS BETWEEN 15 PRECEDING (full windows only, p >= 16); docs
        # shorter than k hash to the kernel's sentinel 0.
        "WITH d AS (SELECT doc_id, text AS tx, length(text) AS L FROM documents), "
        "ser AS (SELECT unnest(range(1, (SELECT max(L) FROM d) - 5)) AS p), "
        "pos AS (SELECT doc_id, tx, p FROM d CROSS JOIN ser WHERE p <= L - 7), "
        "h AS (SELECT doc_id, p, 1::BIGINT * ord(substr(tx, p+0, 1)) + 31::BIGINT * ord(substr(tx, p+1, 1)) + 961::BIGINT * ord(substr(tx, p+2, 1)) + 29791::BIGINT * ord(substr(tx, p+3, 1)) + 923521::BIGINT * ord(substr(tx, p+4, 1)) + 28629151::BIGINT * ord(substr(tx, p+5, 1)) + 887503681::BIGINT * ord(substr(tx, p+6, 1)) + 27512614111::BIGINT * ord(substr(tx, p+7, 1)) AS hv FROM pos "
        "UNION ALL SELECT doc_id, 1 AS p, 0::BIGINT AS hv FROM d WHERE L < 8), "
        "n AS (SELECT doc_id, count(*) AS nh FROM h GROUP BY doc_id), "
        "wmin AS (SELECT doc_id, p, min(hv) OVER (PARTITION BY doc_id ORDER BY p "
        "ROWS BETWEEN 15 PRECEDING AND CURRENT ROW) AS m FROM h), "
        "sel AS (SELECT h.doc_id, hv AS s FROM h JOIN n USING (doc_id) WHERE n.nh < 16 "
        "UNION ALL SELECT w.doc_id, m AS s FROM wmin w JOIN n ON w.doc_id = n.doc_id "
        "WHERE n.nh >= 16 AND w.p >= 16) "
        "SELECT doc_id, CAST(min(s) AS BIGINT) AS fingerprint, "
        "CAST(count(DISTINCT s) AS BIGINT) AS fp_count FROM sel GROUP BY doc_id"
    ),
    "dd_embed_cosine": (
        # quantized-hyperplane LSH + quantized cosine, replayed exactly:
        # the seeded plane matrix (floor(p*1024)) is inlined as literals
        "WITH e AS (SELECT vec_id, CAST(list_transform(embedding, x -> floor(CAST(x AS DOUBLE)*1024.0)) AS DOUBLE[]) AS qe FROM embeddings), "
        "p AS (SELECT vec_id, qe, list_dot_product(qe, [84.0,-1799.0,-1073.0,914.0,-899.0,738.0,473.0,182.0,-48.0,-1610.0,-414.0,299.0,865.0,489.0,-596.0,-691.0,93.0,-889.0,1000.0,-1286.0,-83.0,17.0,-1131.0,64.0,82.0,-24.0,-2302.0,930.0,-857.0,977.0,-389.0,-1756.0,288.0,990.0,1774.0,-303.0,1166.0,-897.0,-684.0,-3.0,756.0,-520.0,512.0,1392.0,715.0,-924.0,-1108.0,466.0,-1519.0,-309.0,379.0,189.0,-269.0,677.0,1263.0,-1049.0,1054.0,-885.0,1144.0,149.0,477.0,-855.0,-219.0,-711.0]) AS p0, list_dot_product(qe, [-476.0,1724.0,954.0,269.0,-47.0,-361.0,-1555.0,-84.0,-659.0,859.0,1506.0,1738.0,-332.0,705.0,-534.0,110.0,356.0,-588.0,556.0,342.0,-75.0,-1270.0,437.0,1221.0,-18.0,1391.0,-1718.0,-1180.0,-444.0,-1483.0,1368.0,-633.0,306.0,49.0,-2877.0,1207.0,422.0,-719.0,1688.0,-2244.0,-2203.0,1295.0,-1798.0,465.0,492.0,-1505.0,104.0,1137.0,669.0,-392.0,262.0,871.0,276.0,-442.0,281.0,-1585.0,-906.0,2066.0,1214.0,11.0,-254.0,-1279.0,-2785.0,476.0]) AS p1, list_dot_product(qe, [51.0,-469.0,691.0,336.0,391.0,688.0,-881.0,986.0,2007.0,786.0,-766.0,-398.0,11.0,-299.0,-1969.0,1556.0,-1436.0,2085.0,515.0,-458.0,193.0,1256.0,-227.0,566.0,-818.0,-193.0,335.0,-292.0,-100.0,-1314.0,705.0,274.0,-852.0,56.0,1489.0,-86.0,-638.0,184.0,-567.0,2679.0,-172.0,799.0,-1167.0,582.0,-1132.0,131.0,-843.0,748.0,-14.0,-1075.0,1361.0,1575.0,-1391.0,464.0,136.0,2731.0,481.0,1528.0,605.0,-1469.0,1132.0,-948.0,555.0,-791.0]) AS p2, list_dot_product(qe, [702.0,-611.0,1274.0,957.0,-464.0,143.0,1376.0,768.0,707.0,833.0,1240.0,713.0,-425.0,354.0,-1203.0,275.0,49.0,1891.0,-989.0,-796.0,-758.0,1555.0,116.0,-890.0,209.0,451.0,132.0,-2553.0,-569.0,471.0,340.0,-660.0,-1141.0,984.0,1022.0,1635.0,89.0,-132.0,-30.0,-590.0,-1679.0,634.0,559.0,558.0,996.0,-1367.0,-911.0,919.0,-735.0,-1997.0,1166.0,-712.0,-1111.0,-118.0,-284.0,322.0,391.0,-165.0,554.0,-436.0,103.0,-36.0,1631.0,1333.0]) AS p3 FROM e), "
        "b AS (SELECT vec_id, qe, (CASE WHEN p0 > 0 THEN 1 ELSE 0 END) + (CASE WHEN p1 > 0 THEN 2 ELSE 0 END) + (CASE WHEN p2 > 0 THEN 4 ELSE 0 END) + (CASE WHEN p3 > 0 THEN 8 ELSE 0 END) AS bucket, list_dot_product(qe, qe) AS qn FROM p), "
        "pr AS (SELECT x.vec_id AS a, y.vec_id AS b, "
        "list_dot_product(x.qe, y.qe) / ((CASE WHEN x.qn = 0 THEN 1.0 ELSE sqrt(x.qn) END) * (CASE WHEN y.qn = 0 THEN 1.0 ELSE sqrt(y.qn) END)) AS cosine "
        "FROM b x JOIN b y ON x.bucket = y.bucket AND x.vec_id < y.vec_id) "
        "SELECT a, b, cosine FROM pr WHERE cosine >= 0.3"
    ),
    "dd_minhash_docs": _minhash_oracle_sql(),
    "dd_substring": _substring_oracle_sql(),
    "geo_s2_tiles": _s2_oracle_sql(),
    "geo_geodesic": _geodesic_oracle_sql(),
    "geo_simplify": _simplify_oracle_sql(),
    "geo_h3_tiles": _h3_oracle_sql(),
    # mm_decode / mm_resize_frames (r3): payloads are multiplicative-hash
    # byte streams (stages/multimodal.py encode_lcg_image), so the oracle
    # regenerates every pixel — byte j of seed s is ((s*A + j*B) % 2^32)
    # % 256 — and replays the decode mean as one exact integer-sum /
    # count double division. The resize oracle enumerates the nearest-
    # neighbor-retained original indices 48r + 6c + ch directly.
    "mm_decode": (
        "WITH dims AS (SELECT vec_id, 8 + vec_id % 8 AS w, CAST(8 AS BIGINT) AS h FROM embeddings), "
        "ser AS (SELECT unnest(range(0, 360)) AS j), "
        "px AS (SELECT vec_id, w, h, "
        "((vec_id*2654435761 + j*2246822519) % 4294967296) % 256 AS v "
        "FROM dims CROSS JOIN ser WHERE j < w*h*3) "
        "SELECT vec_id AS img_id, w AS width, h AS height, "
        "CAST(sum(v) AS DOUBLE) / (w*h*3) AS mean_rgb "
        "FROM px GROUP BY vec_id, w, h"
    ),
    "mm_resize_frames": (
        "WITH f AS (SELECT vec_id AS vid, unnest([CAST(0 AS BIGINT), CAST(2 AS BIGINT)]) AS frame_no FROM embeddings), "
        "idx AS (SELECT unnest(range(0, 48)) AS i), "
        "px AS (SELECT vid, frame_no, "
        "(((vid*10 + frame_no)*2654435761 + (48*(i//12) + 6*((i%12)//3) + (i%3))*2246822519) % 4294967296) % 256 AS v "
        "FROM f CROSS JOIN idx) "
        "SELECT vid, frame_no, CAST(4 AS BIGINT) AS width, CAST(4 AS BIGINT) AS height, "
        "CAST(sum(v) AS DOUBLE) / 48 AS mean_rgb "
        "FROM px GROUP BY vid, frame_no"
    ),
    # 50/50 oracle-exact (r3). Everything — including the Hilbert-curve S2
    # ids, the canonical H3 ids, recursive Douglas-Peucker, Vincenty's
    # iteration, the k-means-free qdot IVF and the LCG media chain — is
    # replayed exactly in SQL (generated literals / recursive CTEs /
    # integer quantization).
}
