"""Geo-aware parquet IO: GeoParquet-style ``geo`` metadata + Dataset wrappers.

The reference's bundled datasets carry
``{"primary_column": "geometry", "columns": {"geometry": {"encoding": "WKB",
"crs": <PROJJSON>}}}`` in file metadata (FIXTURES.md; SURVEY.md §1.3) —
the CRS lives out-of-band because the array type can't hold it. Same
convention here, on parquet key-value metadata.

``read_geo_dataset`` is the engine's ``read_file`` analogue
(`py-geopolars/python/geopolars/io/file.py:15-119`): column projection and
bbox pushdown map to parquet column pruning + a vectorized envelope filter
(with tile-partitioned layouts the bbox prunes whole partitions before the
scan).
"""

from __future__ import annotations

import json
import os
import re
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

GEO_KEY = b"geo"


def bbox_envelope_filter(bbox, geometry_col: str = "geometry"):
    """Canonical bbox pushdown stage: keep rows whose geometry ENVELOPE
    intersects the box (the candidate semantics of the reference's
    ``read_file(bbox=...)`` OGR pushdown). One implementation shared by every
    reader (parquet, GeoJSON, WKT-CSV, shapefile)."""
    xmin, ymin, xmax, ymax = (float(v) for v in bbox)

    def fn(batch: pa.Table) -> pa.Table:
        from geopolars_ray.geom import decode_wkb
        from geopolars_ray.geom import kernels as K

        ga = decode_wkb(batch[geometry_col])
        gx0, gy0, gx1, gy1 = K.bounds(ga)
        keep = (gx0 <= xmax) & (gx1 >= xmin) & (gy0 <= ymax) & (gy1 >= ymin)
        keep = np.where(np.isnan(gx0), False, keep)
        return batch.filter(pa.array(keep))

    return fn


def _as_geometry_array(mask):
    """Coerce a mask spec — pylist tuple, WKB bytes, or a 1-row
    GeometryArray — to a GeometryArray of exactly one geometry."""
    from geopolars_ray.geom import GeometryArray, decode_wkb

    if isinstance(mask, GeometryArray):
        ga = mask
    elif isinstance(mask, (bytes, bytearray)):
        ga = decode_wkb(pa.array([bytes(mask)], pa.binary()))
    else:
        ga = GeometryArray.from_pylist([mask])
    if len(ga) != 1 or ga.is_missing()[0]:
        raise ValueError("mask must be exactly one non-missing geometry")
    return ga


def mask_filter(mask, geometry_col: str = "geometry"):
    """GeoPandas-style ``read_file(mask=...)`` stage: keep rows intersecting
    the mask geometry. Envelope candidates first; Point rows then take the
    vectorized point-in-polygon test (boundary-EXCLUSIVE — the same PIP
    semantics as every sjoin in this engine; GeoPandas/pyogrio's mask is
    boundary-inclusive, a documented measure-zero delta), non-point rows the
    exact distance-zero intersects test (containment, crossing and touching
    all covered by the distance kernel)."""
    from geopolars_ray.geom import decode_wkb
    from geopolars_ray.geom import kernels as K
    from geopolars_ray.geom.array import POINT, POLYGON, MULTIPOLYGON
    from geopolars_ray.geom.strtree import PreparedPolygons

    mga = _as_geometry_array(mask)
    mx0, my0, mx1, my1 = (float(v[0]) for v in K.bounds(mga))
    mask_prep = None
    if int(mga.types[0]) in (POLYGON, MULTIPOLYGON):
        mask_prep = PreparedPolygons.from_polygons([K._rings_of(mga, 0)])

    def fn(batch: pa.Table) -> pa.Table:
        ga = decode_wkb(batch[geometry_col])
        gx0, gy0, gx1, gy1 = K.bounds(ga)
        cand = (gx0 <= mx1) & (gx1 >= mx0) & (gy0 <= my1) & (gy1 >= my0)
        cand = np.where(np.isnan(gx0), False, cand)
        keep = np.zeros(len(ga), dtype=bool)
        idx = np.flatnonzero(cand)
        if len(idx):
            if mask_prep is not None:
                pts = idx[ga.types[idx] == POINT]
                if len(pts):
                    co = ga.coord_offsets()[:-1]
                    keep[pts] = mask_prep.hits(ga.coords[co[pts], 0], ga.coords[co[pts], 1],
                                               np.zeros(len(pts), dtype=np.int64))
                rest = idx[ga.types[idx] != POINT]
            else:
                rest = idx
            if len(rest):
                # chunk the mask replication: take() copies the mask coords
                # per row, so bound rows-per-chunk by a coords budget (the
                # exact per-row distance test itself is the generic
                # geometry⊗geometry path)
                step = max(1, 4_000_000 // max(len(mga.coords), 1))
                for s0 in range(0, len(rest), step):
                    blk = rest[s0 : s0 + step]
                    sub = ga.take(blk)
                    mrep = mga.take(np.zeros(len(blk), dtype=np.int64))
                    keep[blk] = K.distance(sub, mrep) == 0.0
        return batch.filter(pa.array(keep))

    return fn


def geo_metadata(geometry_col: str = "geometry", crs: str = "EPSG:4326", encoding: str = "WKB",
                 covering: bool = False, bbox_col: str = "bbox") -> dict:
    col: dict = {"encoding": encoding, "crs": crs}
    if covering:
        # GeoParquet 1.1 covering: names the struct column whose leaf stats
        # let parquet readers prune ROW GROUPS spatially
        col["covering"] = {"bbox": {c: [bbox_col, c] for c in ("xmin", "ymin", "xmax", "ymax")}}
    return {
        "version": "1.1.0" if covering else "1.0.0",
        "primary_column": geometry_col,
        "columns": {geometry_col: col},
    }


def bbox_covering_column(table: pa.Table, geometry_col: str = "geometry",
                         bbox_col: str = "bbox") -> pa.Table:
    """Append the GeoParquet 1.1 per-row bbox struct column (the geometry's
    exact envelope — so a pushed bbox-intersects filter on it is row-exact
    for envelope semantics, not just a candidate test)."""
    from geopolars_ray.geom import decode_wkb
    from geopolars_ray.geom import kernels as K

    ga = decode_wkb(table[geometry_col])
    x0, y0, x1, y1 = K.bounds(ga)
    struct = pa.StructArray.from_arrays(
        [pa.array(x0), pa.array(y0), pa.array(x1), pa.array(y1)],
        names=["xmin", "ymin", "xmax", "ymax"],
    )
    if bbox_col in table.column_names:
        table = table.drop_columns([bbox_col])
    return table.append_column(bbox_col, struct)


def covering_filter_expression(bbox, bbox_col: str = "bbox"):
    """pyarrow dataset Expression for bbox-intersects over the covering
    column — push into ``read_parquet(filter=...)`` so parquet row-group
    statistics on the struct leaves prune I/O before any byte is read."""
    import pyarrow.compute as pc

    xmin, ymin, xmax, ymax = (float(v) for v in bbox)
    return ((pc.field(bbox_col, "xmin") <= xmax) & (pc.field(bbox_col, "xmax") >= xmin)
            & (pc.field(bbox_col, "ymin") <= ymax) & (pc.field(bbox_col, "ymax") >= ymin))


def write_file(table: pa.Table, path: str, geometry_col: str = "geometry",
               crs: str | None = None, **kw) -> None:
    """Format-dispatching single-file vector WRITE (GeoPandas ``to_file``
    analogue), symmetric to :func:`read_file`: .shp (+.prj when ``crs``
    is known), .geojson/.geojsonl, .gpkg, .kml, .gml, .fgb, and .zip
    (zipped shapefile — the delivery format, written atomically via a
    temp dir). Driver-side single-file output; the distributed sink is
    ``write_geoparquet_dataset``."""
    suffix = path.rsplit(".", 1)[-1].lower() if "." in path else ""
    if suffix == "zip":
        import zipfile

        with tempfile.TemporaryDirectory(prefix="geopolars_zipw_") as d:
            stem = os.path.splitext(os.path.basename(path))[0]
            shp = os.path.join(d, stem + ".shp")
            from geopolars_ray.sources.shapefile import write_shapefile

            write_shapefile(table, shp, geometry_col=geometry_col, crs=crs)
            with zipfile.ZipFile(path + ".part", "w",
                                 zipfile.ZIP_DEFLATED) as zf:
                for n in sorted(os.listdir(d)):
                    zf.write(os.path.join(d, n), arcname=n)
        os.replace(path + ".part", path)
    elif suffix == "shp":
        from geopolars_ray.sources.shapefile import write_shapefile

        write_shapefile(table, path, geometry_col=geometry_col, crs=crs)
    elif suffix == "geojson":
        from geopolars_ray.sources.geojson import write_geojson

        write_geojson(table, path, geometry_col=geometry_col)
    elif suffix in ("geojsonl", "ndjson"):
        from geopolars_ray.sources.geojson import write_geojsonl

        write_geojsonl(table, path, geometry_col=geometry_col)
    elif suffix == "gpkg":
        from geopolars_ray.sources.gpkg import write_gpkg

        if crs is not None:
            kw.setdefault("crs", crs)
        write_gpkg(table, path, geometry_col=geometry_col, **kw)
    elif suffix == "kml":
        from geopolars_ray.sources.kml import write_kml

        write_kml(table, path, geometry_col=geometry_col)
    elif suffix == "gml":
        from geopolars_ray.sources.gml import write_gml

        write_gml(table, path, geometry_col=geometry_col, **kw)
    elif suffix == "fgb":
        from geopolars_ray.sources.flatgeobuf import write_flatgeobuf

        if "crs_code" not in kw:
            # carry the dataset CRS into the FGB header; an unknown or
            # non-EPSG CRS writes NO crs record rather than letting the
            # writer's 4326 default stamp wrong metadata (same principle
            # as the shapefile .prj path: a wrong CRS is worse than none)
            code = None
            if crs is not None:
                m = re.fullmatch(r"(?i)epsg:(\d+)", str(crs).strip())
                if m:
                    code = int(m.group(1))
            kw["crs_code"] = code
        write_flatgeobuf(table, path, geometry_col=geometry_col, **kw)
    elif suffix in ("parquet", "pq"):
        if crs is not None:
            kw.setdefault("crs", crs)
        write_geoparquet(table, path, geometry_col=geometry_col, **kw)
    else:
        raise ValueError(f"unsupported vector write format {suffix!r}")


def write_geoparquet(
    table: pa.Table, path: str, geometry_col: str = "geometry", crs: str = "EPSG:4326",
    covering: bool = False, row_group_size: int | None = None,
) -> None:
    """Write one parquet file with GeoParquet-style ``geo`` metadata.

    ``covering=True`` adds the GeoParquet 1.1 per-row ``bbox`` struct column
    and covering metadata; pair with a spatial sort (Hilbert/S2/geohash
    order) and a bounded ``row_group_size`` so row-group bbox statistics
    become tight and ``read_geo_dataset(bbox=...)`` prunes at the I/O
    layer."""
    if covering:
        table = bbox_covering_column(table, geometry_col)
    meta = dict(table.schema.metadata or {})
    meta[GEO_KEY] = json.dumps(geo_metadata(geometry_col, crs, covering=covering)).encode()
    kw = {} if row_group_size is None else {"row_group_size": row_group_size}
    pq.write_table(table.replace_schema_metadata(meta), path, **kw)


def read_geo_metadata(path: str) -> dict | None:
    """The parsed ``geo`` metadata dict of a parquet file, if present."""
    meta = pq.read_schema(path).metadata or {}
    if GEO_KEY not in meta:
        return None
    return json.loads(meta[GEO_KEY].decode())


def read_parquet_exchange(paths, columns=None, target_block_bytes: int = 32 << 20, **kw):
    """``ray.data.read_parquet`` with block count sized by file BYTES — for
    pipelines that funnel straight into a shuffle/groupby/join.

    Ray's default read parallelism over-splits small files (a 10 MB parquet
    becomes 64 tiny blocks at 32 CPUs) and sort-exchange/native-join fixed
    costs scale with input block count, not bytes: measured same-session
    A/Bs on sf0.1 gate pipelines read 3.1s→0.7s (as-of join), 4.1s→0.9s
    (partitioned spatial join), 9.3s→3.0s (kNN join) from block sizing
    alone (BASELINE.md r3). Block count = total bytes / ``target_block_bytes``
    with a floor of 8, so at cluster scale this converges to Ray's own
    target block size — it only removes the tiny-file fixed costs. Keep the
    default ``read_parquet`` split for compute-heavy per-row stages that
    need task parallelism more than cheap exchanges."""
    import os

    plist = [paths] if isinstance(paths, str) else list(paths)
    total = 0
    for p in plist:
        if os.path.isdir(p):
            for root, _dirs, files in os.walk(p):
                total += sum(os.path.getsize(os.path.join(root, f)) for f in files if f.endswith(".parquet"))
        else:
            total += os.path.getsize(p)
    nb = max(8, int(total // target_block_bytes))
    return ray.data.read_parquet(paths, columns=columns, override_num_blocks=nb, **kw)


def _covering_bbox_col(path: str, geometry_col: str) -> str | None:
    """The covering bbox column name of a GeoParquet file, or None."""
    geo = read_geo_metadata(path)
    if not geo:
        return None
    cov = geo.get("columns", {}).get(geometry_col, {}).get("covering", {}).get("bbox")
    if not cov:
        return None
    return cov["xmin"][0]


def read_geo_dataset(
    paths,
    columns: list[str] | None = None,
    bbox: tuple[float, float, float, float] | None = None,
    geometry_col: str = "geometry",
):
    """ray.data.read_parquet + optional bbox pushdown on the geometry column.

    When EVERY input file carries a GeoParquet 1.1 ``covering`` bbox column
    (``write_geoparquet(covering=True)``; mixed covering/plain inputs fall
    back — a pushed filter on a column some files lack would crash the
    scan), the bbox predicate is pushed into the parquet scan itself
    (``filter=``) — row groups whose bbox-leaf STATISTICS miss the query
    box are pruned before any byte is read, and the row filter is exact for
    envelope semantics because the stored bbox IS the envelope. The
    internal bbox column is dropped afterwards when ``columns`` didn't ask
    for it. Otherwise the filter tests geometry ENVELOPE intersection (the
    candidate semantics of the reference's ``read_file(bbox=...)`` OGR
    pushdown) as a vectorized map_batches stage right after the scan.
    """
    if bbox is None:
        return ray.data.read_parquet(paths, columns=columns)
    import os

    plist = [paths] if isinstance(paths, (str, os.PathLike)) else list(paths)
    files: list[str] = []
    for p in plist:
        p = os.fspath(p)
        if os.path.isdir(p):
            files += [os.path.join(p, f) for f in sorted(os.listdir(p)) if f.endswith(".parquet")]
        else:
            files.append(p)
    bbox_col = None
    try:
        cols_found = {_covering_bbox_col(f, geometry_col) for f in files} if files else {None}
        if len(cols_found) == 1:
            bbox_col = cols_found.pop()
    except Exception:
        bbox_col = None  # unreadable footer -> post-scan filter
    if bbox_col is not None:
        cols = None if columns is None else list(dict.fromkeys([*columns, bbox_col]))
        ds = ray.data.read_parquet(
            paths, columns=cols, filter=covering_filter_expression(bbox, bbox_col)
        )
        if columns is not None and bbox_col not in columns:
            ds = ds.map_batches(lambda b: b.drop_columns([bbox_col]), batch_format="pyarrow")
        return ds
    ds = ray.data.read_parquet(paths, columns=columns)
    return ds.map_batches(bbox_envelope_filter(bbox, geometry_col), batch_format="pyarrow")


def attribute_filter(where):
    """``where`` pushdown stage for post-scan formats: a pyarrow compute
    Expression evaluated per batch right after the scan (the reference's
    OGR-``where`` analogue; for GeoPackage the predicate pushes into SQLite
    instead — see :func:`geopolars_ray.sources.gpkg.read_gpkg`)."""

    def fn(batch: pa.Table) -> pa.Table:
        return batch.filter(where)

    return fn


# the ONE list of dispatchable vector extensions (used by the dispatch
# chain below AND by zip-member candidate detection — keep in sync by
# keeping it single)
_VECTOR_EXTS = ("shp", "gpkg", "geojson", "geojsonl", "json", "ndjson",
                "kml", "gml", "fgb", "csv", "parquet", "pq")


def _zip_vector_names(zf) -> list[str]:
    """Archive members that are real files, excluding macOS resource-fork
    junk (``__MACOSX/``, ``._*`` AppleDouble files) that Finder-made zips
    always carry."""
    out = []
    for n in zf.namelist():
        if n.endswith("/") or n.startswith("__MACOSX/"):
            continue
        if os.path.basename(n).startswith("._"):
            continue
        out.append(n)
    return out


def _zip_pick(archive: str, names: list[str], member: str | None) -> str:
    """Resolve the vector member to read: explicit ``member``, else the
    single candidate, else a loud error listing the candidates."""
    cands = [n for n in names if n.rsplit(".", 1)[-1].lower() in _VECTOR_EXTS]
    if member is not None:
        if member not in names:
            raise ValueError(f"member {member!r} not in archive "
                             f"(members: {sorted(names)})")
        return member
    if len(cands) == 1:
        return cands[0]
    raise ValueError(
        f"{archive!r} holds {len(cands)} vector members — pass "
        f"member=<name> to choose (candidates: {sorted(cands)})")


def _hash_tag(archive: str, member: str, size: int = -1, crc: int = -1) -> str:
    """Stable extraction-cache key: archive path + mtime + size + member
    (+ the member's CRC when available — mtime alone aliases ``cp -p`` /
    object-store syncs that replace content under an identical timestamp)."""
    import hashlib

    try:
        st = os.stat(archive)
        mt, sz = st.st_mtime, st.st_size
    except OSError:
        mt, sz = 0.0, -1
    if size < 0:
        size = sz
    h = hashlib.sha256(
        f"{os.path.abspath(archive)}|{mt}|{size}|{crc}|{member}".encode())
    return h.hexdigest()[:16]


def read_file(
    path,
    columns: list[str] | None = None,
    bbox: tuple[float, float, float, float] | None = None,
    geometry_col: str = "geometry",
    where=None,
    fids: list[int] | None = None,
    skip_features: int = 0,
    max_features: int | None = None,
    mask=None,
    **kw,
):
    """Format-dispatching vector read — the reference's ``read_file``
    analogue (`py-geopolars/python/geopolars/io/file.py:15-119`), minus OGR:

    .parquet -> :func:`read_geo_dataset`; .geojson/.geojsonl/.json ->
    :func:`geopolars_ray.sources.geojson.read_geojson`; .csv (WKT column) ->
    :func:`read_wkt_csv`; .shp -> pure-Python shapefile reader; .gpkg ->
    pure-Python SQLite GeoPackage reader; .kml -> pure-Python KML reader.
    All accept ``columns`` projection, ``bbox`` envelope pushdown and
    ``where`` attribute predicates (a pyarrow compute Expression applied
    right after the scan; for .gpkg a SQL string is also accepted and pushes
    into SQLite).

    ``fids`` / ``skip_features`` / ``max_features`` mirror the reference's
    OGR selection options (`file.py:93-108`) on the feature-addressable
    formats (.gpkg rowids; raw file feature order for .shp/.kml/GeoJSON
    FeatureCollections). Combination rules, enforced loudly: ``fids`` is
    exclusive with every filter (pyogrio's own rule); ``skip``/``max`` are
    exclusive with ``bbox`` everywhere and with ``where`` except on .gpkg,
    where the window is resolved against the where-filtered rowid stream in
    the same SQLite query (OGR's post-filter window semantics).
    """
    mask_stage = None
    if mask is not None:
        # GeoPandas rules: mask excludes bbox and fids. With a feature
        # window (skip/max) the mask runs purely post-scan (no envelope
        # pushdown — the window slices RAW feature order, pyogrio-style);
        # otherwise the mask's envelope BECOMES the bbox so every reader's
        # pushdown prunes on it before the exact intersects refine.
        if bbox is not None:
            raise ValueError("mask cannot be combined with bbox (GeoPandas rule)")
        if fids is not None:
            raise ValueError("mask cannot be combined with fids (pyogrio rule)")
        from geopolars_ray.geom import kernels as _K

        mga = _as_geometry_array(mask)
        if not (skip_features or max_features is not None):
            _x0, _y0, _x1, _y1 = _K.bounds(mga)
            bbox = (float(_x0[0]), float(_y0[0]), float(_x1[0]), float(_y1[0]))
        mask_stage = mask_filter(mga, geometry_col)
    paths_list = [path] if isinstance(path, str) else list(path)
    first = paths_list[0]
    suffix = first.rsplit(".", 1)[-1].lower() if "." in first else ""
    if suffix == "zip":
        # zipped vector delivery (the standard shapefile shipping format;
        # GDAL's /vsizip/): extract the archive's vector member (+ its
        # sidecars — .dbf/.shx/.prj for .shp) and recurse. ``member=``
        # picks among multiple candidates; sidecar-only archives and
        # multi-member archives without member= fail loudly with the list.
        #
        # Extraction is DRIVER-LOCAL, cached per (archive, mtime, member)
        # so repeated reads reuse one copy. Eager readers (.shp/.kml/...)
        # parse on the driver and are cluster-safe; LAZY members
        # (parquet / GeoJSONSeq) are read by Ray tasks and on a
        # multi-node cluster those tasks cannot see the driver's /tmp —
        # unzip to shared storage yourself in that case.
        if len(paths_list) > 1:
            raise ValueError("zip read_file takes a single archive path")
        import zipfile

        member = kw.pop("member", None)
        with zipfile.ZipFile(first) as zf:
            names = _zip_vector_names(zf)
            pick = _zip_pick(first, names, member)
            stem = pick.rsplit(".", 1)[0]
            # keep the member + same-stem sidecars; flatten paths so the
            # sibling lookup (Path.with_suffix) still lands next door
            wanted = [n for n in names if n.rsplit(".", 1)[0] == stem]
            tag = _hash_tag(first, pick, crc=zf.getinfo(pick).CRC)
            tmp = os.path.join(tempfile.gettempdir(),
                               f"geopolars_zip_{os.getuid()}_{tag}")
            # per-user cache dir (0o700) so a pre-planted world-writable
            # path is never trusted; refuse dirs we don't own
            os.makedirs(tmp, mode=0o700, exist_ok=True)
            st = os.stat(tmp)
            if st.st_uid != os.getuid():
                raise OSError(f"zip cache dir {tmp} owned by uid {st.st_uid}")
            local = os.path.join(tmp, os.path.basename(pick))
            for n in wanted:
                dest = os.path.join(tmp, os.path.basename(n))
                if not os.path.exists(dest):
                    # unique temp name + atomic rename: concurrent
                    # extractors each write their own file and the loser's
                    # os.replace is a no-op content-wise (same bytes)
                    fd, part = tempfile.mkstemp(dir=tmp, suffix=".part")
                    try:
                        with os.fdopen(fd, "wb") as f:
                            f.write(zf.read(n))
                        os.replace(part, dest)
                    except BaseException:
                        try:
                            os.unlink(part)
                        except OSError:
                            pass
                        raise
        return read_file(local, columns=columns, bbox=bbox,
                         geometry_col=geometry_col, where=where, fids=fids,
                         skip_features=skip_features,
                         max_features=max_features, mask=mask, **kw)
    has_window = skip_features or max_features is not None
    if fids is not None and (where is not None or bbox is not None or has_window):
        raise ValueError("fids cannot be combined with where/bbox/skip_features/max_features")
    if has_window and bbox is not None:
        raise ValueError("skip_features/max_features cannot be combined with bbox")
    if has_window and where is not None and suffix != "gpkg":
        raise ValueError(
            "skip_features/max_features with a where predicate is .gpkg-only "
            "(the window there is resolved against the filtered rowid stream); "
            "other formats slice raw file feature order"
        )
    if (fids is not None or has_window) and len(paths_list) > 1:
        raise ValueError("fids/skip_features/max_features require a single input file")
    if suffix == "gpkg":
        from geopolars_ray.sources.gpkg import gpkg_fid_window, read_gpkg

        gpkg_fids = fids
        gpkg_where = where if isinstance(where, str) else None
        if has_window:
            gpkg_fids = gpkg_fid_window(
                first, layer=kw.get("layer"), where=gpkg_where,
                skip_features=skip_features, max_features=max_features,
            )

        def one(p):
            return read_gpkg(
                p, columns=columns, bbox=bbox, geometry_col=geometry_col,
                where=gpkg_where, fids=gpkg_fids, **kw,
            )

        out = one(first)
        for p in paths_list[1:]:
            out = out.union(one(p))
        if where is not None and not isinstance(where, str):
            out = out.map_batches(attribute_filter(where), batch_format="pyarrow")
        if mask_stage is not None:
            out = out.map_batches(mask_stage, batch_format="pyarrow")
        return out
    sel = {}
    if fids is not None or has_window:
        if suffix not in ("shp", "kml", "gml", "geojson", "json"):
            raise ValueError(
                f"fids/skip_features/max_features unsupported for .{suffix} "
                "(feature-addressable formats: .gpkg, .shp, .kml, .gml, "
                "GeoJSON FeatureCollection)"
            )
        sel = {"fids": fids, "skip_features": skip_features, "max_features": max_features}
    if isinstance(where, str):
        raise ValueError(
            "string `where` predicates push into SQLite and are .gpkg-only; "
            "pass a pyarrow compute Expression for other formats"
        )
    if suffix in ("parquet", "pq", "shp") and kw:
        # loud instead of silently dropping unsupported options (e.g. a
        # geojson schema= accidentally passed with a parquet path)
        raise TypeError(f"unsupported read_file options for .{suffix}: {sorted(kw)}")
    if suffix in ("parquet", "pq"):
        out = read_geo_dataset(path, columns=columns, bbox=bbox, geometry_col=geometry_col)
    elif suffix in ("geojson", "geojsonl", "json", "ndjson"):
        from geopolars_ray.sources.geojson import read_geojson

        # forwards schema= (the heterogeneous-properties escape hatch) etc.
        out = read_geojson(path, columns=columns, bbox=bbox, geometry_col=geometry_col, **sel, **kw)
    elif suffix == "csv":
        out = read_wkt_csv(path, columns=columns, bbox=bbox, geometry_col=geometry_col, **kw)
    elif suffix == "kml":
        from geopolars_ray.sources.kml import read_kml

        out = read_kml(path, columns=columns, bbox=bbox, geometry_col=geometry_col, **sel, **kw)
    elif suffix == "gml":
        from geopolars_ray.sources.gml import read_gml

        out = read_gml(path, columns=columns, bbox=bbox, geometry_col=geometry_col, **sel, **kw)
    elif suffix == "fgb":
        from geopolars_ray.sources.flatgeobuf import read_flatgeobuf

        # bbox is answered from the file's packed Hilbert R-tree: only the
        # intersecting feature byte ranges are read (true on-disk pushdown)
        out = read_flatgeobuf(paths_list[0], columns=columns, bbox=bbox,
                              geometry_col=geometry_col, **kw)
        for p in paths_list[1:]:
            out = out.union(read_flatgeobuf(p, columns=columns, bbox=bbox,
                                            geometry_col=geometry_col, **kw))
    elif suffix == "shp":
        from geopolars_ray.sources.shapefile import read_shapefile

        paths = [path] if isinstance(path, str) else list(path)
        out = read_shapefile(paths[0], columns=columns, bbox=bbox, geometry_col=geometry_col, **sel)
        for p in paths[1:]:
            out = out.union(read_shapefile(p, columns=columns, bbox=bbox, geometry_col=geometry_col))
    else:
        raise ValueError(f"unsupported vector format {suffix!r} for {first!r}")
    if where is not None:
        out = out.map_batches(attribute_filter(where), batch_format="pyarrow")
    if mask_stage is not None:
        out = out.map_batches(mask_stage, batch_format="pyarrow")
    return out


def read_wkt_csv(
    paths,
    wkt_col: str = "wkt",
    columns: list[str] | None = None,
    bbox: tuple[float, float, float, float] | None = None,
    geometry_col: str = "geometry",
    **read_csv_kwargs,
):
    """CSV with a WKT geometry column -> Dataset with a WKB ``geometry``
    column (text-format `read_file` analogue alongside GeoJSON).

    ``columns`` projects attribute columns (the WKT column is always read);
    ``bbox`` filters by geometry envelope intersection after the parse. The
    parse runs per batch inside map_batches, so it distributes with the read.
    """
    import ray as _ray

    from geopolars_ray.geom import encode_wkb
    from geopolars_ray.geom.wkt import geometry_from_wkt

    ds = _ray.data.read_csv(paths, **read_csv_kwargs)

    def parse(batch: pa.Table) -> pa.Table:
        ga = geometry_from_wkt(batch[wkt_col].to_pylist())
        keep = columns if columns is not None else [c for c in batch.column_names if c != wkt_col]
        out = batch.select([c for c in keep if c in batch.column_names])
        return out.append_column(geometry_col, encode_wkb(ga))

    out = ds.map_batches(parse, batch_format="pyarrow")
    if bbox is None:
        return out
    return out.map_batches(bbox_envelope_filter(bbox, geometry_col), batch_format="pyarrow")


def write_geoparquet_dataset(
    ds,
    out_dir: str,
    geometry_col: str = "geometry",
    crs: str = "EPSG:4326",
    partition_col: str | None = None,
    covering: bool = False,
):
    """Distributed GeoParquet write: every output file carries the ``geo``
    schema metadata (verified: Ray's parquet sink preserves block schema
    metadata), optionally partitioned by a key column for resumable layouts.

    ``covering=True`` stamps GeoParquet 1.1 metadata and appends the per-row
    ``bbox`` struct in the SAME pass that tags the schema — spatially
    clustered layouts (tile-partitioned, Hilbert/geohash-sorted) then get
    row-group pruning from ``read_geo_dataset(bbox=...)`` for free.
    """
    meta = {GEO_KEY: json.dumps(geo_metadata(geometry_col, crs, covering=covering)).encode()}

    def tag(batch: pa.Table) -> pa.Table:
        if covering:
            batch = bbox_covering_column(batch, geometry_col)
        merged = dict(batch.schema.metadata or {})
        merged.update(meta)
        return batch.replace_schema_metadata(merged)

    tagged = ds.map_batches(tag, batch_format="pyarrow")
    if partition_col is not None:
        tagged.write_parquet(out_dir, partition_cols=[partition_col])
    else:
        tagged.write_parquet(out_dir)
    return out_dir


def write_partitioned(
    ds,
    out_dir: str,
    partition_col: str,
    geometry_col: str | None = "geometry",
    crs: str | None = None,
):
    """Partitioned-by-key parquet layout (one dir per key) for resumable
    runs. With a geometry column AND an explicit ``crs``, delegates to the
    CRS-stamping writer so partitioned files carry geo metadata; with no
    ``crs`` given, writes plain parquet rather than fabricating a default
    stamp (same no-fabricated-CRS policy as GeoDataset.write_geoparquet,
    which raises when no CRS is tracked)."""
    if geometry_col is None or crs is None:
        ds.write_parquet(out_dir, partition_cols=[partition_col])
        return out_dir
    return write_geoparquet_dataset(ds, out_dir, geometry_col, crs, partition_col=partition_col)
